"""Error probabilities and bounds for detecting a known pure state.

The central computation is the exact worst case of a fixed accept effect T
over all states with bounded overlap against the target psi:

    sup { Tr T sigma : sigma >= 0, Tr sigma = 1, Tr rho sigma <= theta }.

One eigensolve of T compressed onto the complement of psi gives its top
eigenvalue m.  When psi is an eigenvector of T with eigenvalue p, as for
every named measurement except the product test, the answer is
m + theta max(0, p - m) in closed form.  When T = t |a><a| has rank one,
as for the product test, the triangle inequality for the angles between
pure states gives t (sqrt(theta p) + sqrt((1 - theta)(1 - p)))^2 with
p = |<a|psi>|^2 (t when theta >= p).  Any other effect goes to the
Lagrangian dual min_{mu >= 0} lambda_max(T - mu rho) + mu theta, a convex
scalar problem solved by golden-section search; the primal maximizer is
rebuilt from the top eigenvector at the optimum.  Every path checks the
duality gap.  Around that sit the closed-form upper and lower bounds for
the constructed measurements and the report assembling them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, NumericalFailureError, ValidationError
from .measurements import NamedMeasurement, build_measurement
from .operators import (
    BipartiteOperator,
    partial_transpose,
    require_density_matrix,
    validate_povm_element,
)
from .states import SchmidtSpectrum, reduced_spectrum, schmidt_state
from .twirl import twirl_defect

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Step cap of golden_section_min; a relative width of 1e-10 on a bracket of
#: 2e6 takes about 80 steps.
GOLDEN_MAX_STEPS = 200


def golden_section_min(f, lo: float, hi: float, tol: float):
    """Golden-section minimization of a unimodal f on [lo, hi].

    Shrinks the bracket until its width is at most ``tol * max(1, |a| + |b|)``
    and returns (argmin, f(argmin)) at the final midpoint, or at ``lo`` when
    f(lo) is no worse there, so a minimum on the lower boundary is exact.
    The relative width keeps the loop finite where the float spacing of a
    large bracket exceeds ``tol``; more than GOLDEN_MAX_STEPS steps raise
    NumericalFailureError.
    """
    a, b = float(lo), float(hi)
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    steps = 0
    while b - a > tol * max(1.0, abs(a) + abs(b)):
        steps += 1
        if steps > GOLDEN_MAX_STEPS:
            raise NumericalFailureError(
                f"golden-section search did not reach width {tol:g} in {GOLDEN_MAX_STEPS} steps "
                f"(bracket [{a!r}, {b!r}])"
            )
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
    mid = 0.5 * (a + b)
    f_mid = f(mid)
    f_lo = f(float(lo))
    if f_lo <= f_mid:
        return float(lo), f_lo
    return mid, f_mid


# ---------------------------------------------------------------------------
# Worst-case adversary for a fixed effect
# ---------------------------------------------------------------------------


@dataclass
class AdversaryResult:
    """Worst-case acceptance of an effect under an overlap constraint.

    ``value`` is the dual optimum (an upper bound tight to the reported
    gap), ``sigma_star`` a feasible state achieving it within 1e-6, and
    ``dual_mu`` the optimal multiplier (+inf on the theta = 0 subspace
    path, where the constraint is enforced exactly).
    """

    value: float
    sigma_star: BipartiteOperator
    dual_mu: float


def _pure_ket(rho: BipartiteOperator) -> np.ndarray:
    values, vectors = np.linalg.eigh(rho.matrix)
    if abs(values[-1] - 1.0) > 1e-8 or abs(float(values.sum()) - 1.0) > 1e-8:
        raise ContractError("reference state must be a rank-one density matrix")
    return vectors[:, -1]


def _complement_basis(ket: np.ndarray) -> np.ndarray:
    # QR of [ket | I] puts ket (normalized) in the first column and an
    # orthonormal basis of its complement in the remaining D - 1 columns.
    dim = ket.shape[0]
    q, _ = np.linalg.qr(np.concatenate([ket[:, None], np.eye(dim, dtype=complex)], axis=1))
    return q[:, 1:dim]


def _complement_top(tm: np.ndarray, ket: np.ndarray) -> tuple[float, np.ndarray]:
    """Top eigenvalue m and eigenvector chi of T compressed onto ket's complement."""
    basis = _complement_basis(ket)
    cw, cv = np.linalg.eigh(basis.conj().T @ tm @ basis)
    return float(cw[-1]), basis @ cv[:, -1]


def _retune_overlap(v: np.ndarray, ket: np.ndarray, theta: float) -> np.ndarray | None:
    """Re-weight v's components along/orthogonal to ket to overlap theta."""
    along = complex(np.vdot(ket, v))
    ortho = v - along * ket
    ortho_norm = float(np.linalg.norm(ortho))
    if ortho_norm <= 1e-12:
        return None
    phase = along / abs(along) if abs(along) > 1e-14 else 1.0
    return math.sqrt(theta) * phase * ket + math.sqrt(1.0 - theta) * ortho / ortho_norm


def _eigenspace_candidates(values, vectors, ket: np.ndarray, theta: float) -> list[np.ndarray]:
    """Feasible states built inside the (near-)degenerate top eigenspace.

    At the dual optimum the constraint is met by a mixture of top
    eigenvectors; when the top eigenvalue is degenerate no single
    eigenvector does it, so we diagonalize the target overlap on the top
    eigenspace and mix its extremal vectors to hit theta exactly.
    """
    top = values[-1]
    mask = values >= top - 1e-7 * max(1.0, abs(top))
    span = vectors[:, mask]
    coeffs = span.conj().T @ ket
    overlaps, rot = np.linalg.eigh(np.outer(coeffs, coeffs.conj()))
    o_lo, o_hi = float(overlaps[0]), float(overlaps[-1])
    w_lo = span @ rot[:, 0]
    w_hi = span @ rot[:, -1]
    out = []
    if o_lo - 1e-12 <= theta <= o_hi + 1e-12:
        t = 0.0 if o_hi <= o_lo else min(1.0, max(0.0, (theta - o_lo) / (o_hi - o_lo)))
        out.append(t * np.outer(w_hi, w_hi.conj()) + (1.0 - t) * np.outer(w_lo, w_lo.conj()))
    elif theta > o_hi:
        out.append(np.outer(w_hi, w_hi.conj()))
    else:
        tuned = _retune_overlap(w_lo, ket, theta)
        if tuned is not None:
            out.append(np.outer(tuned, tuned.conj()))
    return out


def worst_case_value(t: BipartiteOperator, rho: BipartiteOperator, theta: float) -> AdversaryResult:
    """Exact sup of Tr T sigma over states with Tr rho sigma <= theta.

    Let m be the top eigenvalue of T compressed onto the complement of the
    target psi, with eigenvector chi.  theta = 0 restricts the adversary to
    that complement, so the answer is m with sigma* = |chi><chi|.

    For theta > 0, when psi is an eigenvector of T (T psi = p psi up to
    1e-12 max(1, ||T||), as for every named effect except ``product``), the
    answer is m + theta max(0, p - m) in closed form.  sigma* is theta rho
    + (1 - theta) |chi><chi| when p >= m and |chi><chi| otherwise, and the
    optimal multiplier is max(0, p - m), read as 0 within the same scale.

    Otherwise, when T has rank one (Tr T - lambda_max(T) within the same
    scale, as for ``product``), the answer is the closed form of
    _rank_one_worst_case, which needs neither m nor chi and so skips the
    compressed eigensolve.  Any other effect goes to the convex dual
    g(mu) = lambda_max(T - mu rho) + mu theta, minimized by golden-section
    search (see _dual_worst_case).  On every path a primal-dual gap above
    1e-6 raises NumericalFailureError.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValidationError(f"theta must lie in [0, 1], got {theta!r}")
    verdict = validate_povm_element(t, check_ppt=False)
    if not verdict.passed:
        raise ContractError(
            f"effect is not a POVM element: eigenvalues in "
            f"[{verdict.min_eigenvalue:.3e}, {verdict.max_eigenvalue:.6f}]"
        )
    tm = t.matrix
    ket = _pure_ket(rho)
    if theta == 0.0:
        restricted_top, chi = _complement_top(tm, ket)
        sigma = np.outer(chi, chi.conj())
        return AdversaryResult(
            value=restricted_top,
            sigma_star=BipartiteOperator(t.local_dim, sigma),
            dual_mu=math.inf,
        )

    op_norm = max(abs(verdict.min_eigenvalue), abs(verdict.max_eigenvalue))
    t_ket = tm @ ket
    p = float(np.real(np.vdot(ket, t_ket)))
    scale = 1e-12 * max(1.0, op_norm)
    if float(np.linalg.norm(t_ket - p * ket)) > scale:
        trace = float(np.real(np.trace(tm)))
        if trace - verdict.max_eigenvalue <= scale:
            result = _rank_one_worst_case(t, ket, theta, verdict.max_eigenvalue)
            if result is not None:
                return result
        _, chi = _complement_top(tm, ket)
        return _dual_worst_case(t, rho, theta, ket, chi, op_norm)

    restricted_top, chi = _complement_top(tm, ket)
    excess = p - restricted_top
    mu = excess if excess > scale else 0.0
    value = restricted_top + theta * mu
    sigma = np.outer(chi, chi.conj())
    if excess >= 0.0:
        sigma = theta * rho.matrix + (1.0 - theta) * sigma
    _check_gap(value, float(np.real(np.vdot(sigma, tm))))
    return AdversaryResult(
        value=value,
        sigma_star=BipartiteOperator(t.local_dim, 0.5 * (sigma + sigma.conj().T)),
        dual_mu=mu,
    )


def _rank_one_worst_case(
    t: BipartiteOperator, ket: np.ndarray, theta: float, top: float
) -> AdversaryResult | None:
    """Worst case of a rank-one effect T = t |a><a| for 0 < theta <= 1.

    a is the normalized column of T with the largest diagonal entry and
    p = |<a|psi>|^2.  By the triangle inequality for the angles between
    pure states, the largest |<a|phi>|^2 over Tr rho |phi><phi| <= theta is
    1 when theta >= p and g^2 otherwise, g = sqrt(theta p) + sqrt((1 - theta)
    (1 - p)); the optimal state is |a><a| or a re-weighted to overlap theta,
    and the multiplier is dv/dtheta = t g (sqrt(p/theta) -
    sqrt((1 - p)/(1 - theta))).  Returns None when a is (numerically)
    parallel to the target, so the caller falls back to the dual.
    """
    tm = t.matrix
    col = tm[:, int(np.argmax(np.real(np.diag(tm))))]
    norm = float(np.linalg.norm(col))
    if norm == 0.0:
        return None
    a = col / norm
    p = min(1.0, abs(complex(np.vdot(a, ket))) ** 2)
    if theta >= p:
        value, mu, vec = top, 0.0, a
    else:
        vec = _retune_overlap(a, ket, theta)
        if vec is None:
            return None
        g = math.sqrt(theta * p) + math.sqrt((1.0 - theta) * (1.0 - p))
        value = top * g * g
        mu = top * g * (math.sqrt(p / theta) - math.sqrt((1.0 - p) / (1.0 - theta)))
    sigma = np.outer(vec, vec.conj())
    _check_gap(value, float(np.real(np.vdot(sigma, tm))))
    return AdversaryResult(value=value, sigma_star=BipartiteOperator(t.local_dim, sigma), dual_mu=mu)


def _check_gap(dual: float, primal: float) -> None:
    gap = dual - primal
    if gap > 1e-6:
        raise NumericalFailureError(
            f"primal-dual gap {gap:.3e} exceeds 1e-6 (dual {dual!r}, primal {primal!r})"
        )


def _dual_worst_case(
    t: BipartiteOperator,
    rho: BipartiteOperator,
    theta: float,
    ket: np.ndarray,
    chi: np.ndarray,
    op_norm: float,
) -> AdversaryResult:
    """Worst case for theta > 0 from the convex dual, for any effect.

    g(mu) = lambda_max(T - mu rho) + mu theta is minimized by golden-section
    search on [0, 2 ||T|| / max(theta, 1e-6)] to relative bracket width
    1e-10.  ``ket`` is the target vector and ``chi`` the top eigenvector of
    T on its complement.  The primal state is taken as the best of the top
    eigenvector at the optimal mu (mixed with the target only as needed to
    meet the constraint with equality), the eigenspace mixtures of
    _eigenspace_candidates and the always-feasible mixture theta * rho +
    (1 - theta) |chi><chi|.
    """
    tm = t.matrix
    rm = rho.matrix

    def dual(mu: float) -> float:
        return float(np.linalg.eigvalsh(tm - mu * rm)[-1]) + mu * theta

    mu_hi = 2.0 * op_norm / max(theta, 1e-6)
    mu_star, value = golden_section_min(dual, 0.0, mu_hi, tol=1e-10)

    # Primal candidates.  Degenerate top eigenvalues are resolved by the
    # deterministic ordering of LAPACK's eigh (ascending values).
    candidates = [theta * rm + (1.0 - theta) * np.outer(chi, chi.conj())]
    values, vectors = np.linalg.eigh(tm - mu_star * rm)
    v = vectors[:, -1]
    overlap = float(np.real(np.vdot(v, rm @ v)))
    if overlap <= theta + 1e-9:
        pure = np.outer(v, v.conj())
        candidates.append(pure)
        if overlap < theta:
            mix = (theta - overlap) / (1.0 - overlap)
            candidates.append(mix * rm + (1.0 - mix) * pure)
    candidates.extend(_eigenspace_candidates(values, vectors, ket, theta))
    scores = [float(np.real(np.trace(tm @ c))) for c in candidates]
    best = int(np.argmax(scores))
    _check_gap(value, scores[best])
    sigma = 0.5 * (candidates[best] + candidates[best].conj().T)
    return AdversaryResult(
        value=value,
        sigma_star=BipartiteOperator(t.local_dim, sigma),
        dual_mu=float(mu_star),
    )


# ---------------------------------------------------------------------------
# Bound report
# ---------------------------------------------------------------------------


@dataclass
class ErrorReport:
    """All error quantities for one (spectrum, theta, measurement) instance.

    ``worst_case_value`` is sup Tr T sigma, ``p_err`` the symmetric-prior
    error ((Tr (I-T) rho) + worst_case_value) / 2.  ``upper_1way`` and
    ``upper_2way`` are the mixture-measurement guarantees
    (theta + lam)/(2 (1 + lam)) and (theta + lam beta)/(2 (1 + lam beta));
    ``lower_thm2`` is the blind-spot floor theta/2 + (1 - theta)
    lam alpha^2/(2 + 7 alpha) and ``lower_simple`` the orthogonal-adversary
    floor (1/lam - 1)/(2 (d^2 - 1)), both valid for every PPT effect.
    ``max_entangled_value`` carries the closed form (d theta + 1)/(2 (d + 1))
    when the spectrum is uniform.  ``active_lower`` names the larger floor.
    """

    theta: float
    helstrom: float
    worst_case_value: float
    p_err: float
    upper_1way: float
    upper_2way: float
    lower_thm2: float
    lower_simple: float
    max_entangled_value: float | None
    active_lower: str

    _FIELDS = (
        "theta",
        "helstrom",
        "worst_case_value",
        "p_err",
        "upper_1way",
        "upper_2way",
        "lower_thm2",
        "lower_simple",
        "max_entangled_value",
        "active_lower",
    )

    def to_text(self) -> str:
        """Structured text, one ``name = value`` line, 12 significant digits."""
        lines = []
        for name in self._FIELDS:
            value = getattr(self, name)
            if value is None:
                lines.append(f"{name} = n/a")
            elif isinstance(value, str):
                lines.append(f"{name} = {value}")
            else:
                lines.append(f"{name} = {value:.12g}")
        return "\n".join(lines)


def bound_upper_1way(lam: float, theta: float) -> float:
    return (theta + lam) / (2.0 * (1.0 + lam))


def bound_upper_2way(lam: float, beta: float, theta: float) -> float:
    lb = lam * beta
    return (theta + lb) / (2.0 * (1.0 + lb))


def bound_lower_blindspot(lam: float, alpha: float, theta: float) -> float:
    return 0.5 * theta + (1.0 - theta) * lam * alpha**2 / (2.0 + 7.0 * alpha)


def bound_lower_simple(lam: float, d: int) -> float:
    return (1.0 / lam - 1.0) / (2.0 * (d * d - 1))


def error_report(
    s: SchmidtSpectrum, theta: float, measurement: NamedMeasurement | None = None
) -> ErrorReport:
    """Assemble every bound plus the exact worst case of one measurement.

    With the default measurement (the optimal one-way mixture) the computed
    worst-case error must meet its guarantee with equality; the same holds
    for the two-way mixture.  A disagreement beyond 1e-8 raises
    NumericalFailureError, since both sides are exact.
    """
    if measurement is None:
        measurement = build_measurement("t-tilde", s)
    rho = schmidt_state(s)
    accept = float(np.real(np.vdot(rho.ket, measurement.operator.matrix @ rho.ket)))
    adversary = worst_case_value(measurement.operator, rho.density, theta)
    p_err = 0.5 * ((1.0 - accept) + adversary.value)
    lower_thm2 = bound_lower_blindspot(s.lam, s.alpha, theta)
    lower_simple = bound_lower_simple(s.lam, s.d)
    report = ErrorReport(
        theta=float(theta),
        helstrom=0.5 * theta,
        worst_case_value=adversary.value,
        p_err=p_err,
        upper_1way=bound_upper_1way(s.lam, theta),
        upper_2way=bound_upper_2way(s.lam, s.beta, theta),
        lower_thm2=lower_thm2,
        lower_simple=lower_simple,
        max_entangled_value=(s.d * theta + 1.0) / (2.0 * (s.d + 1.0)) if s.is_uniform() else None,
        active_lower="lower_thm2" if lower_thm2 >= lower_simple else "lower_simple",
    )
    if measurement.name == "t-tilde" and abs(p_err - report.upper_1way) > 1e-8:
        raise NumericalFailureError(
            f"one-way mixture missed its guarantee: {p_err!r} vs {report.upper_1way!r}"
        )
    if measurement.name == "t-tilde2" and abs(p_err - report.upper_2way) > 1e-8:
        raise NumericalFailureError(
            f"two-way mixture missed its guarantee: {p_err!r} vs {report.upper_2way!r}"
        )
    return report


# ---------------------------------------------------------------------------
# Inequality verifiers
# ---------------------------------------------------------------------------


@dataclass
class VerdictWithMargin:
    """Pass/fail of a numerical inequality plus its slack."""

    passed: bool
    margin: float
    applicable: bool = True
    detail: str = ""


def verify_ppt_trace_bound(t: BipartiteOperator, rho: BipartiteOperator) -> VerdictWithMargin:
    """Check Tr T >= (Tr T rho) / lam for a PPT effect.

    lam is read off as the spectral norm of the partial transpose of the
    (pure) reference state, which equals its largest Schmidt coefficient.
    """
    verdict = validate_povm_element(t)
    if not (verdict.passed and verdict.ppt):
        raise ContractError("effect must be a PPT POVM element")
    require_density_matrix(rho, what="reference state")
    lam = float(np.abs(np.linalg.eigvalsh(partial_transpose(rho).matrix)).max())
    trace_t = float(np.real(np.trace(t.matrix)))
    accept = float(np.real(np.trace(t.matrix @ rho.matrix)))
    margin = trace_t - accept / lam
    return VerdictWithMargin(passed=margin >= -1e-9, margin=margin)


def verify_blind_spot_bound(t: BipartiteOperator, s: SchmidtSpectrum) -> VerdictWithMargin:
    """Check the off-state norm floors of a symmetric PPT effect.

    With p = Tr T rho, the compressed norm ||(I - rho) T (I - rho)|| must be
    at least 2 p lam alpha^2 / (2 + 7 alpha); when p = 1 it must also reach
    (2/3) lam alpha.  Returns applicable=False for product states
    (alpha = 0), where zero error is possible and the floor is void.
    """
    d = t.local_dim
    if twirl_defect(t) > 1e-10:
        raise ContractError("effect must be twirl-invariant")
    verdict = validate_povm_element(t)
    if not (verdict.passed and verdict.ppt):
        raise ContractError("effect must be a PPT POVM element")
    if s.alpha == 0.0:
        return VerdictWithMargin(passed=True, margin=0.0, applicable=False, detail="alpha = 0")
    rho = schmidt_state(s)
    proj = np.eye(d * d) - rho.density.matrix
    compressed = proj @ t.matrix @ proj
    norm = float(np.linalg.eigvalsh(0.5 * (compressed + compressed.conj().T))[-1])
    p = float(np.real(np.vdot(rho.ket, t.matrix @ rho.ket)))
    floor = 2.0 * p * s.lam * s.alpha**2 / (2.0 + 7.0 * s.alpha)
    margin = norm - floor
    passed = margin >= -1e-9
    detail = f"norm={norm:.12g} floor={floor:.12g}"
    if abs(p - 1.0) <= 1e-9:
        one_sided_floor = (2.0 / 3.0) * s.lam * s.alpha
        margin2 = norm - one_sided_floor
        passed = passed and margin2 >= -1e-9
        margin = min(margin, margin2)
        detail += f" one_sided_floor={one_sided_floor:.12g}"
    return VerdictWithMargin(passed=passed, margin=margin, detail=detail)


def prior_weighted_worst_case(
    t: BipartiteOperator, rho: BipartiteOperator, theta: float, pi0: float
) -> float:
    """Worst-case error under priors: pi0 Tr (I-T) rho + pi1 sup Tr T sigma.

    For theta = 0 and a symmetric PPT effect on a non-product state the
    result is floor-checked against min(pi0, pi1 * 2 lam alpha^2 /
    (2 + 7 alpha)); a violation would mean a numerical fault, not a
    property of the inputs.
    """
    if not 0.0 < pi0 < 1.0:
        raise ValidationError(f"pi0 must lie in (0, 1), got {pi0!r}")
    pi1 = 1.0 - pi0
    accept = float(np.real(np.trace(t.matrix @ rho.matrix)))
    adversary = worst_case_value(t, rho, theta)
    result = pi0 * (1.0 - accept) + pi1 * adversary.value
    if theta == 0.0:
        coeffs = reduced_spectrum(rho)
        lam = float(coeffs[0])
        alpha = math.sqrt(coeffs[1] / coeffs[0]) if coeffs[1] > 0 else 0.0
        if alpha > 0.0 and twirl_defect(t) <= 1e-10 and validate_povm_element(t).ppt:
            floor = min(pi0, pi1 * 2.0 * lam * alpha**2 / (2.0 + 7.0 * alpha))
            if result < floor - 1e-9:
                raise NumericalFailureError(
                    f"prior-weighted error {result!r} fell below its floor {floor!r}"
                )
    return result
