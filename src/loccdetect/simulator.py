"""Shot-by-shot simulation of the local detection protocols.

Each named measurement is realized operationally:

* ``r``        both parties read out the matched basis and accept on equal
               outcomes.
* ``q0``       Alice measures the Fourier basis and announces j; Bob applies
               the binary test onto the matched vector xi_j.
* ``q``        as q0, but each shot first applies a random pair of phase
               rotations drawn from the p^2 twirl family (Alice U^-k Z^-l,
               Bob the entrywise conjugate), which realizes the twirled
               effect on average.
* ``t-tilde``  per shot, the r branch is taken with probability mu and the
               q branch otherwise.
* ``t-tilde2`` as t-tilde with the two-way mixture weight; the q branch
               additionally swaps the parties' roles with probability 1/2.
* ``product``  both parties test |0> and accept iff both succeed.

Outcome sampling always uses exact Born marginals and conditionals computed
from the density matrix, so the acceptance frequency is an unbiased estimate
of Tr T sigma.  They are tabulated once per state (``OutcomeTables``): for
each phase rotation w, Alice's outcome law comes from her d x d reduced
state and Bob's conditional acceptance from the product vectors
(w * phi_j) (x) (conj(w) * xi_j), and the p rotations sharing one power of
u are evaluated as one matrix product with sigma.  A root seed
deterministically derives one child stream per fixed-size shot batch, so
parallel batch execution would reproduce the serial tally bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import worst_case_value
from .errors import ValidationError
from .measurements import build_measurement, fourier_basis, matched_vectors
from .operators import BipartiteOperator, require_density_matrix
from .states import SchmidtSpectrum, schmidt_state
from .twirl import twirl_unitary_diagonals

SIMULATABLE = ("t-tilde", "t-tilde2", "r", "q", "q0", "product")

#: Shots per derived child stream; fixed so tallies are seed-reproducible
#: regardless of how batches are scheduled.
BATCH_SHOTS = 16384


@dataclass
class ShotConfig:
    """One simulation request: measurement, target spectrum, true state.

    ``seed`` is an integer or an already-derived ``numpy.random.SeedSequence``
    (the latter is how paired runs receive independent streams).
    """

    measurement: str
    spectrum: SchmidtSpectrum
    sigma: BipartiteOperator
    shots: int
    seed: int | np.random.SeedSequence


@dataclass
class SimResult:
    """Acceptance tally against the analytic acceptance probability."""

    accepts: int
    estimate: float
    analytic: float
    ci_halfwidth: float


def _snap_conditionals(c: np.ndarray) -> np.ndarray:
    # Conditional acceptance probabilities are ratios of nearly equal traces;
    # snap roundoff at the ends so one-sided tests stay exactly one sided.
    c = np.clip(c, 0.0, 1.0)
    c[c > 1.0 - 1e-12] = 1.0
    return c


def _rotation_contexts(sigma: np.ndarray, s: SchmidtSpectrum, rotations: np.ndarray):
    """Alice's outcome cumulatives and Bob's conditional acceptance, per rotation.

    Row r of ``rotations`` is the diagonal w of one phase rotation, under
    which Alice measures the vectors y_j = w * phi_j and Bob tests
    conj(w) * xi_j.  All rotations of a chunk are one matrix product: the
    product vectors x_rj = y_rj (x) (conj(w_r) * xi_j) are the columns of X,
    and the joint probabilities are Re sum_rows conj(X) * (sigma X).
    Alice's marginal needs only her reduced state, since Bob's phase cancels
    in the partial trace.
    """
    n, d = rotations.shape
    alice_reduced = np.trace(sigma.reshape(d, d, d, d), axis1=1, axis2=3)
    y = rotations[:, :, None] * fourier_basis(d)[None, :, :]
    bob = rotations.conj()[:, :, None] * matched_vectors(s)[None, :, :]
    x = (y[:, :, None, :] * bob[:, None, :, :]).transpose(1, 2, 0, 3).reshape(d * d, n * d)
    joint = np.real(np.sum(x.conj() * (sigma @ x), axis=0)).reshape(n, d)
    marginal = np.real(np.sum(y.conj() * (alice_reduced @ y), axis=1))
    marginal = np.clip(marginal, 0.0, None)
    # Each row sums to Tr sigma = 1 before clipping, so total > 0.
    total = marginal.sum(axis=1, keepdims=True)
    marginal = marginal / total
    with np.errstate(divide="ignore", invalid="ignore"):
        conditional = np.where(marginal > 0, joint / np.maximum(marginal * total, 1e-300), 0.0)
    return np.cumsum(marginal, axis=1), _snap_conditionals(conditional)


def _twirled_contexts(sigma: np.ndarray, d: int, s: SchmidtSpectrum):
    """Contexts of the p^2 phase rotations w = u^k z^l, row k p + l.

    One matrix product per k covers its p rotations; a single product over
    all p^2 would hold a D x p^2 d matrix at once.
    """
    p, z, u = twirl_unitary_diagonals(d)
    cums = np.empty((p * p, d))
    conds = np.empty((p * p, d))
    for k in range(p):
        rotations = np.array([u**k * z**l for l in range(p)])
        rows = slice(k * p, (k + 1) * p)
        cums[rows], conds[rows] = _rotation_contexts(sigma, s, rotations)
    return p, cums, conds


def _swap_parties(sigma: np.ndarray, d: int) -> np.ndarray:
    # Exact index permutation: entry (ij, kl) moves to (ji, lk).
    return sigma.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)


def _matched_cumulative(sigma: np.ndarray) -> np.ndarray:
    diag = np.clip(np.real(np.diag(sigma)), 0.0, None)
    return np.cumsum(diag / diag.sum())


@dataclass
class OutcomeTables:
    """The finite outcome law a protocol samples from, cell by cell.

    ``matched_cum`` is the cumulative law of the matched-basis readout (the
    r branch, accepted on outcomes |k (x) k>).  Row c of ``cums`` and
    ``conds`` is one context of the Fourier branch: the cumulative law of
    Alice's outcome j and Bob's acceptance given j.  q0 has one context,
    q and the mixtures the p^2 phase rotations (row k p + l), and
    ``swapped`` holds the same rows for the role-swapped state (t-tilde2,
    taken with probability 1/2).  ``mu`` weights the r branch of the
    mixtures.  ``product`` is (Alice's probability of outcome 0, Bob's
    acceptance given it).
    """

    p: int = 1
    cums: np.ndarray | None = None
    conds: np.ndarray | None = None
    swapped: tuple[np.ndarray, np.ndarray] | None = None
    matched_cum: np.ndarray | None = None
    mu: float | None = None
    product: tuple[float, float] | None = None


def _outcome_tables(name: str, sigma: np.ndarray, s: SchmidtSpectrum, mu: float | None) -> OutcomeTables:
    """Outcome tables of protocol ``name`` on state ``sigma``."""
    d = s.d
    tables = OutcomeTables()
    if name in ("r", "t-tilde", "t-tilde2"):
        tables.matched_cum = _matched_cumulative(sigma)
    if name in ("t-tilde", "t-tilde2"):
        tables.mu = mu
    if name == "q0":
        tables.cums, tables.conds = _rotation_contexts(sigma, s, np.ones((1, d), dtype=complex))
    if name in ("q", "t-tilde", "t-tilde2"):
        tables.p, tables.cums, tables.conds = _twirled_contexts(sigma, d, s)
    if name == "t-tilde2":
        _, cums_s, conds_s = _twirled_contexts(_swap_parties(sigma, d), d, s)
        tables.swapped = (cums_s, conds_s)
    if name == "product":
        sig4 = sigma.reshape(d, d, d, d)
        alice0 = float(np.clip(np.real(np.trace(sig4[0, :, 0, :])), 0.0, 1.0))
        joint00 = float(np.real(sigma[0, 0]))
        cond00 = float(_snap_conditionals(np.array([joint00 / alice0 if alice0 > 0 else 0.0]))[0])
        tables.product = (alice0, cond00)
    return tables


def _sample_1d(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    # Smallest index whose cumulative weight exceeds u.
    return np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)


def _sample_rows(cum_rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    # Rowwise variant of _sample_1d for per-shot contexts.
    j = (cum_rows <= u[:, None]).sum(axis=1)
    return np.minimum(j, cum_rows.shape[1] - 1)


def simulate(config: ShotConfig) -> SimResult:
    """Run the protocol shot by shot and tally acceptances.

    The expectation of ``estimate`` equals ``analytic`` = Tr T sigma for the
    assembled effect; the reported half width is 4 binomial standard errors.
    Identical seeds reproduce the acceptance sequence exactly.
    """
    name = config.measurement
    if name not in SIMULATABLE:
        raise ValidationError(
            f"measurement {name!r} is not simulatable (choose from {SIMULATABLE})"
        )
    require_density_matrix(config.sigma, what="sigma")
    s = config.spectrum
    if config.sigma.local_dim != s.d:
        raise ValidationError(
            f"sigma local_dim {config.sigma.local_dim} does not match spectrum dimension {s.d}"
        )
    if config.shots < 1:
        raise ValidationError(f"shots must be >= 1, got {config.shots}")
    d = s.d
    sigma = config.sigma.matrix
    effect = build_measurement(name, s)
    # Tr T sigma as an O(D^2) entrywise sum, snapped like the conditionals
    # so an acceptance that prints as 1 also gets the zero half width that 1
    # implies.
    raw = float(np.real(np.sum(effect.operator.matrix * sigma.T)))
    analytic = float(_snap_conditionals(np.array([raw]))[0])

    tables = _outcome_tables(name, sigma, s, effect.mu)
    mu, matched_cum, swapped = tables.mu, tables.matched_cum, tables.swapped
    if name == "q0":
        cum0, cond0 = tables.cums[0], tables.conds[0]
    if name == "product":
        alice0, cond00 = tables.product

    accepts = 0
    seed = config.seed
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    n_batches = (config.shots + BATCH_SHOTS - 1) // BATCH_SHOTS
    # One child per batch, spawned as needed: repeated spawn(1) yields the
    # children of spawn(n_batches) in the same order.
    for batch in range(n_batches):
        nb = min(BATCH_SHOTS, config.shots - batch * BATCH_SHOTS)
        rng = np.random.default_rng(root.spawn(1)[0])
        if name == "r":
            m = _sample_1d(matched_cum, rng.random(nb))
            accept = m % (d + 1) == 0
        elif name == "q0":
            u_alice = rng.random(nb)
            u_bob = rng.random(nb)
            j = _sample_1d(cum0, u_alice)
            accept = u_bob < cond0[j]
        elif name == "product":
            accept = (rng.random(nb) < alice0) & (rng.random(nb) < cond00)
        else:
            p, cums, conds = tables.p, tables.cums, tables.conds
            u_branch = rng.random(nb)
            ks = rng.integers(0, p, size=nb)
            ls = rng.integers(0, p, size=nb)
            u_swap = rng.random(nb)
            u_alice = rng.random(nb)
            u_bob = rng.random(nb)
            ctx = ks * p + ls
            cum_rows, cond_rows = cums[ctx], conds[ctx]
            if name == "t-tilde2":
                flip = u_swap < 0.5
                cum_rows = np.where(flip[:, None], swapped[0][ctx], cum_rows)
                cond_rows = np.where(flip[:, None], swapped[1][ctx], cond_rows)
            j = _sample_rows(cum_rows, u_alice)
            accept_q = u_bob < cond_rows[np.arange(nb), j]
            if name == "q":
                accept = accept_q
            else:
                m = _sample_1d(matched_cum, u_alice)
                accept_r = m % (d + 1) == 0
                accept = np.where(u_branch < mu, accept_r, accept_q)
        accepts += int(accept.sum())

    estimate = accepts / config.shots
    ci = 4.0 * float(np.sqrt(max(analytic * (1.0 - analytic), 0.0) / config.shots))
    return SimResult(accepts=accepts, estimate=estimate, analytic=analytic, ci_halfwidth=ci)


def estimate_error_rate(config: ShotConfig, theta: float) -> float:
    """Two-sided error estimate from paired runs under the target and sigma.

    The two runs draw from independent child streams of the root seed;
    ``theta`` is the claimed overlap bound of the instance and is recorded
    by callers, the estimate itself being ((1 - accept_target) +
    accept_sigma) / 2.
    """
    seed = config.seed
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    seed_rho, seed_sigma = root.spawn(2)
    rho = schmidt_state(config.spectrum).density
    est_rho = simulate(
        ShotConfig(config.measurement, config.spectrum, rho, config.shots, seed_rho)
    ).estimate
    est_sigma = simulate(
        ShotConfig(config.measurement, config.spectrum, config.sigma, config.shots, seed_sigma)
    ).estimate
    return 0.5 * ((1.0 - est_rho) + est_sigma)


def make_sigma(
    family: str,
    spectrum: SchmidtSpectrum,
    measurement: str = "t-tilde",
    theta: float = 0.0,
) -> BipartiteOperator:
    """Resolve a named alternative-state family.

    ``orthogonal-uniform`` is the normalized projection onto the complement
    of the target, ``worst-case`` the adversary state of the given
    measurement at overlap theta, and ``basis:i,j`` the basis projector
    |i (x) j><i (x) j|.
    """
    d = spectrum.d
    if family == "orthogonal-uniform":
        rho = schmidt_state(spectrum).density
        m = (np.eye(d * d) - rho.matrix) / (d * d - 1)
        return BipartiteOperator(d, m)
    if family == "worst-case":
        rho = schmidt_state(spectrum).density
        effect = build_measurement(measurement, spectrum)
        return worst_case_value(effect.operator, rho, theta).sigma_star
    if family.startswith("basis:"):
        try:
            i, j = (int(part) for part in family[len("basis:"):].split(","))
        except ValueError as exc:
            raise ValidationError(f"malformed basis state {family!r} (want basis:i,j)") from exc
        if not (0 <= i < d and 0 <= j < d):
            raise ValidationError(f"basis indices ({i}, {j}) out of range for d = {d}")
        m = np.zeros((d * d, d * d), dtype=complex)
        m[i * d + j, i * d + j] = 1.0
        return BipartiteOperator(d, m)
    raise ValidationError(
        f"unknown sigma family {family!r}; use orthogonal-uniform, worst-case, or basis:i,j"
    )
