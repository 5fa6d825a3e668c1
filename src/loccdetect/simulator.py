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
from the (conjugated) density matrix, so the acceptance frequency is an
unbiased estimate of Tr T sigma.  A root seed deterministically derives one
child stream per fixed-size shot batch, so parallel batch execution would
reproduce the serial tally bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import worst_case_value
from .errors import ValidationError
from .measurements import build_measurement, fourier_basis, matched_vectors, swap_operator
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


def _fourier_contexts(sigma: np.ndarray, d: int, s: SchmidtSpectrum):
    """Alice marginal and Bob conditional acceptance for one state."""
    phi = fourier_basis(d)
    xi = matched_vectors(s)
    sig4 = sigma.reshape(d, d, d, d)
    alice_reduced = np.trace(sig4, axis1=1, axis2=3)
    marginal = np.real(np.einsum("aj,ac,cj->j", phi.conj(), alice_reduced, phi))
    marginal = np.clip(marginal, 0.0, None)
    total = marginal.sum()
    marginal = marginal / total if total > 0 else np.full(d, 1.0 / d)
    joint = np.empty(d)
    for j in range(d):
        w = np.kron(phi[:, j], xi[:, j])
        joint[j] = float(np.real(np.vdot(w, sigma @ w)))
    with np.errstate(divide="ignore", invalid="ignore"):
        conditional = np.where(marginal > 0, joint / np.maximum(marginal * total, 1e-300), 0.0)
    return np.cumsum(marginal), _snap_conditionals(conditional)


def _twirled_contexts(sigma: np.ndarray, d: int, s: SchmidtSpectrum):
    """Per-(k, l) Fourier contexts for the phase-rotated states."""
    p, z, u = twirl_unitary_diagonals(d)
    cums = np.empty((p * p, d))
    conds = np.empty((p * p, d))
    for k in range(p):
        for l in range(p):
            w = u**k * z**l
            v = np.kron(w, w.conj())
            rotated = v.conj()[:, None] * sigma * v[None, :]
            cums[k * p + l], conds[k * p + l] = _fourier_contexts(rotated, d, s)
    return p, cums, conds


def _matched_cumulative(sigma: np.ndarray) -> np.ndarray:
    diag = np.clip(np.real(np.diag(sigma)), 0.0, None)
    return np.cumsum(diag / diag.sum())


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
    # Snapped like the conditionals, so an acceptance that prints as 1 also
    # gets the zero half width that 1 implies.
    raw = float(np.real(np.trace(effect.operator.matrix @ sigma)))
    analytic = float(_snap_conditionals(np.array([raw]))[0])

    mu = effect.mu if name in ("t-tilde", "t-tilde2") else None
    need_matched = name in ("r", "t-tilde", "t-tilde2")
    matched_cum = _matched_cumulative(sigma) if need_matched else None
    contexts = swapped = None
    if name == "q0":
        cum0, cond0 = _fourier_contexts(sigma, d, s)
    if name in ("q", "t-tilde", "t-tilde2"):
        p, cums, conds = _twirled_contexts(sigma, d, s)
        contexts = (p, cums, conds)
    if name == "t-tilde2":
        sw = swap_operator(d)
        p, cums_s, conds_s = _twirled_contexts(sw @ sigma @ sw, d, s)
        swapped = (cums_s, conds_s)
    if name == "product":
        sig4 = sigma.reshape(d, d, d, d)
        alice0 = float(np.clip(np.real(np.trace(sig4[0, :, 0, :])), 0.0, 1.0))
        joint00 = float(np.real(sigma[0, 0]))
        cond00 = float(_snap_conditionals(np.array([joint00 / alice0 if alice0 > 0 else 0.0]))[0])

    accepts = 0
    seed = config.seed
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    n_batches = (config.shots + BATCH_SHOTS - 1) // BATCH_SHOTS
    children = root.spawn(n_batches)
    for batch, child in enumerate(children):
        nb = min(BATCH_SHOTS, config.shots - batch * BATCH_SHOTS)
        rng = np.random.default_rng(child)
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
            p, cums, conds = contexts
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
