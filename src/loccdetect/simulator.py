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
of Tr T sigma.  Each request tabulates its protocol's whole outcome law once,
as one flat table (``OutcomeTables``): cell weights over the branch, the
phase rotation, the party swap and Alice's outcome, and per cell Bob's
conditional acceptance.  For each rotation w, Alice's outcome law comes from
her d x d reduced state and Bob's acceptance from the product vectors
(w * phi_j) (x) (conj(w) * xi_j); the p rotations sharing one power of u are
evaluated as one matrix product with sigma.  Every shot is then drawn on its
own from two uniforms: one picks its cell by inverse CDF, the other decides
acceptance.  A root seed deterministically derives one child stream per
fixed-size shot batch, so parallel batch execution would reproduce the
serial tally bit for bit.
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

#: Largest shot count ``simulate`` accepts; 10^10 shots take about two
#: minutes on one x86-64 core.
MAX_SHOTS = 10**10


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
    """Alice's outcome law and Bob's conditional acceptance, per rotation.

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
    return marginal, _snap_conditionals(conditional)


def _twirled_contexts(sigma: np.ndarray, d: int, s: SchmidtSpectrum):
    """Contexts of the p^2 phase rotations w = u^k z^l, row k p + l.

    One matrix product per k covers its p rotations; a single product over
    all p^2 would hold a D x p^2 d matrix at once.
    """
    p, z, u = twirl_unitary_diagonals(d)
    marginals = np.empty((p * p, d))
    conds = np.empty((p * p, d))
    for k in range(p):
        rotations = np.array([u**k * z**l for l in range(p)])
        rows = slice(k * p, (k + 1) * p)
        marginals[rows], conds[rows] = _rotation_contexts(sigma, s, rotations)
    return marginals, conds


def _swap_parties(sigma: np.ndarray, d: int) -> np.ndarray:
    # Exact index permutation: entry (ij, kl) moves to (ji, lk).
    return sigma.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)


def _matched_law(sigma: np.ndarray) -> np.ndarray:
    diag = np.clip(np.real(np.diag(sigma)), 0.0, None)
    return diag / diag.sum()


@dataclass
class OutcomeTables:
    """The finite outcome law a protocol samples from, cell by cell.

    A shot lands on cell c with probability ``weights[c]`` and is then
    accepted with probability ``accept[c]``.  The cells, in order:

    * ``r``: the D matched-basis outcomes |i (x) j>, accepted iff i = j;
    * ``q0``: Alice's d Fourier outcomes j, accepted by Bob's test of xi_j;
    * ``q``: the same d outcomes under each of the p^2 phase rotations,
      row k p + l, each rotation of weight 1/p^2;
    * ``t-tilde``: the r cells times mu, then the q cells times 1 - mu;
    * ``t-tilde2``: the r cells times mu, then the q cells of sigma and
      of the party-swapped sigma, each times (1 - mu) / 2;
    * ``product``: Alice's outcome 0 (accepted by Bob's test of |0>) or not.
    """

    weights: np.ndarray
    accept: np.ndarray


def _outcome_tables(name: str, sigma: np.ndarray, s: SchmidtSpectrum, mu: float | None) -> OutcomeTables:
    """Outcome table of protocol ``name`` on state ``sigma``."""
    d = s.d
    if name == "product":
        sig4 = sigma.reshape(d, d, d, d)
        alice0 = float(np.clip(np.real(np.trace(sig4[0, :, 0, :])), 0.0, 1.0))
        joint00 = float(np.real(sigma[0, 0]))
        cond00 = float(_snap_conditionals(np.array([joint00 / alice0 if alice0 > 0 else 0.0]))[0])
        return OutcomeTables(np.array([alice0, 1.0 - alice0]), np.array([cond00, 0.0]))
    if name == "q0":
        marginal, cond = _rotation_contexts(sigma, s, np.ones((1, d), dtype=complex))
        return OutcomeTables(marginal[0], cond[0])
    # Branches as (probability, law over the branch's cells, acceptance).
    branches = []
    if name != "q":
        matched = np.zeros(d * d)
        matched[:: d + 1] = 1.0
        branches.append((1.0 if name == "r" else mu, _matched_law(sigma), matched))
    if name != "r":
        states = [sigma, _swap_parties(sigma, d)] if name == "t-tilde2" else [sigma]
        rest = (1.0 if name == "q" else 1.0 - mu) / len(states)
        for state in states:
            marginals, conds = _twirled_contexts(state, d, s)
            branches.append((rest, marginals.ravel() / len(marginals), conds.ravel()))
    return OutcomeTables(
        np.concatenate([weight * law for weight, law, _ in branches]),
        np.concatenate([accept for _, _, accept in branches]),
    )


def _inverse_cdf(weights: np.ndarray):
    """The map u -> cell of a uniform u in [0, 1) under the law ``weights``.

    Cell c takes u iff cum[c-1] <= u < cum[c], with cum the cumulative
    weights scaled to end at exactly 1, so every u lands on a cell of
    positive weight; this is ``np.searchsorted(cum, u, side="right")``.
    The search runs on the cells of positive weight only and without
    branches: m >= 2n equal buckets (m a power of two, so u m is exact) give
    each u the count ``lo`` of cells at or below its bucket's lower edge,
    and a binary search no deeper than the widest bucket adds the rest.
    """
    cells = np.flatnonzero(weights > 0)
    cum = np.cumsum(weights[cells])
    cum /= cum[-1]
    m = 1 << (2 * len(cum) - 1).bit_length()
    lo = np.searchsorted(cum, np.arange(m + 1) / m, side="right")
    steps = [1 << k for k in reversed(range(int(np.diff(lo).max()).bit_length()))]
    cum = np.concatenate([cum, np.full(steps[0] if steps else 0, np.inf)])

    def index(u: np.ndarray) -> np.ndarray:
        c = lo[(u * m).astype(np.intp)]
        for h in steps:
            c += h * (cum[c + (h - 1)] <= u)
        return cells[c]

    return index


def simulate(config: ShotConfig) -> SimResult:
    """Run the protocol shot by shot and tally acceptances.

    Each shot draws one uniform for its cell of the protocol's outcome
    table and one for Bob's acceptance in that cell.  The expectation of
    ``estimate`` equals ``analytic`` = Tr T sigma for the assembled effect;
    the reported half width is 4 binomial standard errors.  Identical seeds
    reproduce the acceptance sequence exactly.  More than ``MAX_SHOTS``
    shots are refused before any work starts.
    """
    name = config.measurement
    if name not in SIMULATABLE:
        raise ValidationError(
            f"measurement {name!r} is not simulatable (choose from {SIMULATABLE})"
        )
    if not 1 <= config.shots <= MAX_SHOTS:
        raise ValidationError(f"shots must lie in [1, {MAX_SHOTS}], got {config.shots}")
    require_density_matrix(config.sigma, what="sigma")
    s = config.spectrum
    if config.sigma.local_dim != s.d:
        raise ValidationError(
            f"sigma local_dim {config.sigma.local_dim} does not match spectrum dimension {s.d}"
        )
    sigma = config.sigma.matrix
    effect = build_measurement(name, s)
    # Tr T sigma as an O(D^2) entrywise sum, snapped like the conditionals
    # so an acceptance that prints as 1 also gets the zero half width that 1
    # implies.
    raw = float(np.real(np.sum(effect.operator.matrix * sigma.T)))
    analytic = float(_snap_conditionals(np.array([raw]))[0])

    tables = _outcome_tables(name, sigma, s, effect.mu)
    cell_of, accept = _inverse_cdf(tables.weights), tables.accept
    accepts = 0
    seed = config.seed
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    n_batches = (config.shots + BATCH_SHOTS - 1) // BATCH_SHOTS
    # One child per batch, spawned as needed: repeated spawn(1) yields the
    # children of spawn(n_batches) in the same order.
    for batch in range(n_batches):
        nb = min(BATCH_SHOTS, config.shots - batch * BATCH_SHOTS)
        rng = np.random.default_rng(root.spawn(1)[0])
        cells = cell_of(rng.random(nb))
        accepts += int(np.count_nonzero(rng.random(nb) < accept[cells]))

    estimate = accepts / config.shots
    ci = 4.0 * float(np.sqrt(max(analytic * (1.0 - analytic), 0.0) / config.shots))
    return SimResult(accepts=accepts, estimate=estimate, analytic=analytic, ci_halfwidth=ci)


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
        effect = build_measurement(measurement, spectrum)
        return worst_case_value(effect.operator, schmidt_state(spectrum), theta).sigma_star
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
