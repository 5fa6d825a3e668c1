"""Multi-copy error bounds, rate limits, and the figure data grids.

For n copies the single-copy bounds apply verbatim with lam -> lam^n and
theta -> theta^n (the top two Schmidt coefficients of the n-fold state are
lam^n and lam^n alpha^2), so everything here is closed form; small-n cases
are cross-validated against explicit matrix realizations.  All logarithms
are natural; the CLI offers a bits flag that divides by log 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import VerdictWithMargin, golden_section_min, worst_case_value
from .errors import ValidationError
from .measurements import build_measurement
from .states import SchmidtSpectrum, schmidt_state, tensor_power_spectrum

FIG2_LEVELS = (0.1, 0.2, 0.3, 0.4, 0.5)


@dataclass
class RateTable:
    """Per-copy-count error bounds, their exponents, and the limiting rate.

    ``upper_bound[n-1]`` is (theta^n + lam^n) / (2 (1 + lam^n)) and
    ``lower_bound[n-1]`` is theta^n / 2 + (1 - theta^n) lam^n alpha^2 /
    (2 + 7 alpha); the rate columns are -(1/n) log of those, and ``limit``
    is -log max(theta, lam).  For product states (alpha = 0) the lower
    columns are not applicable and filled with NaN.
    """

    lam: float
    alpha: float
    theta: float
    n: np.ndarray
    upper_bound: np.ndarray
    lower_bound: np.ndarray
    upper_rate: np.ndarray
    lower_rate: np.ndarray
    limit: float
    lower_applicable: bool

    CSV_HEADER = "lambda,theta,n,upper_bound,lower_bound,upper_rate,lower_rate,limit"

    def to_csv(self) -> str:
        rows = [self.CSV_HEADER]
        for i in range(len(self.n)):
            rows.append(
                f"{self.lam:.12g},{self.theta:.12g},{self.n[i]},{self.upper_bound[i]:.12g},"
                f"{self.lower_bound[i]:.12g},{self.upper_rate[i]:.12g},"
                f"{self.lower_rate[i]:.12g},{self.limit:.12g}"
            )
        return "\n".join(rows)


def rate_rows(lam: float, alpha: float, theta: float, n_max: int) -> RateTable:
    """Closed-form rate table from the scalar parameters alone."""
    if not 0.0 <= theta <= 1.0:
        raise ValidationError(f"theta must lie in [0, 1], got {theta!r}")
    if not 0.0 < lam <= 1.0:
        raise ValidationError(f"lam must lie in (0, 1], got {lam!r}")
    if not isinstance(n_max, (int, np.integer)) or n_max < 1:
        raise ValidationError(f"n_max must be an integer >= 1, got {n_max!r}")
    n = np.arange(1, int(n_max) + 1)
    with np.errstate(under="ignore"):
        lam_n = lam**n.astype(float)
        theta_n = theta**n.astype(float) if theta > 0 else np.zeros_like(lam_n)
        upper = (theta_n + lam_n) / (2.0 * (1.0 + lam_n))
        # Rates in log space so deep tails stay finite long after the
        # bound columns underflow.
        hi = max(theta, lam)
        ratio = min(theta, lam) / hi
        log_num = n * math.log(hi) + np.log1p(ratio**n.astype(float))
        upper_rate = -(log_num - math.log(2.0) - np.log1p(lam_n)) / n
    limit = -math.log(max(theta, lam))
    if alpha <= 0.0:
        nan = np.full_like(upper, math.nan)
        return RateTable(lam, alpha, theta, n, upper, nan, upper_rate, nan.copy(), limit, False)
    coeff = alpha**2 / (2.0 + 7.0 * alpha)
    with np.errstate(under="ignore", divide="ignore"):
        lower = 0.5 * theta_n + (1.0 - theta_n) * lam_n * coeff
        term_state = np.log1p(-theta_n) + n * math.log(lam) + math.log(coeff)
        if theta > 0:
            term_overlap = n * math.log(theta) + math.log(0.5)
            log_lower = np.logaddexp(term_overlap, term_state)
        else:
            log_lower = term_state
        lower_rate = -log_lower / n
    return RateTable(lam, alpha, theta, n, upper, lower, upper_rate, lower_rate, limit, True)


def rate_table(s: SchmidtSpectrum, theta: float, n_max: int) -> RateTable:
    """Rate table for a full spectrum (only lam and alpha enter)."""
    return rate_rows(s.lam, s.alpha, theta, n_max)


def cross_validate_small_n(s: SchmidtSpectrum, theta: float, n: int) -> VerdictWithMargin:
    """Check the closed-form upper row against an explicit matrix realization.

    Builds the n-copy state in its Schmidt basis, constructs the optimal
    one-way mixture for the product spectrum, runs the dual adversary search
    at overlap theta^n, and compares the resulting error with the closed
    form to 1e-8.  Matrix size is governed by the entry cap (d = 2 allows
    n <= 5).
    """
    spectrum_n = tensor_power_spectrum(s, n)
    rho_n = schmidt_state(spectrum_n)
    measurement = build_measurement("t-tilde", spectrum_n)
    adversary = worst_case_value(measurement.operator, rho_n, theta**n)
    accept = float(np.real(np.vdot(rho_n.ket, measurement.operator.matrix @ rho_n.ket)))
    p_err = 0.5 * ((1.0 - accept) + adversary.value)
    lam_n = spectrum_n.lam
    closed = (theta**n + lam_n) / (2.0 * (1.0 + lam_n))
    margin = abs(p_err - closed)
    return VerdictWithMargin(
        passed=margin <= 1e-8,
        margin=margin,
        detail=f"matrix={p_err:.12g} closed={closed:.12g} n={n}",
    )


@dataclass
class ChernoffResult:
    """Asymptotic exponent of repeated two-outcome sampling.

    ``exponent`` is -log min_{s in [0,1]} sum_i p_i^s q_i^{1-s}; it is zero
    iff p = q, and infinite (``infinite=True``) exactly when the two
    distributions have disjoint support.
    """

    p: tuple[float, float]
    q: tuple[float, float]
    s_star: float
    exponent: float
    infinite: bool = False


def _check_binary_distribution(dist, name: str) -> tuple[float, float]:
    arr = np.asarray(dist, dtype=float)
    if arr.shape != (2,):
        raise ValidationError(f"{name} must have exactly two outcomes, got shape {arr.shape}")
    if arr.min() < -1e-12 or abs(float(arr.sum()) - 1.0) > 1e-9:
        raise ValidationError(f"{name} is not a probability distribution: {arr!r}")
    arr = np.clip(arr, 0.0, None)
    return float(arr[0]), float(arr[1])


def classical_chernoff(p, q) -> ChernoffResult:
    """Chernoff exponent of two binary distributions via golden section.

    The objective restricted to the common support is log-convex in s, so a
    single golden-section pass to 1e-12 suffices.  For the symmetric pair
    (lam, 1-lam) vs (1-lam, lam) it has the closed form
    -log(2 sqrt(lam (1 - lam))) at s = 1/2.
    """
    p = _check_binary_distribution(p, "p")
    q = _check_binary_distribution(q, "q")
    support = [i for i in range(2) if p[i] > 0.0 and q[i] > 0.0]
    if not support:
        return ChernoffResult(p=p, q=q, s_star=math.nan, exponent=math.inf, infinite=True)
    logs = [(math.log(p[i]), math.log(q[i])) for i in support]

    def objective(s: float) -> float:
        return sum(math.exp(s * lp + (1.0 - s) * lq) for lp, lq in logs)

    s_star, best = golden_section_min(objective, 0.0, 1.0, tol=1e-12)
    return ChernoffResult(p=p, q=q, s_star=s_star, exponent=-math.log(best))


def counterexample_rates(lam: float) -> tuple[float, float]:
    """(minimax rate ceiling -log lam, repeated-product rate -log 2 sqrt(lam(1-lam)))."""
    if not 0.0 < lam < 1.0:
        raise ValidationError(f"lam must lie in (0, 1), got {lam!r}")
    return -math.log(lam), -math.log(2.0 * math.sqrt(lam * (1.0 - lam)))


def counterexample_check(s: SchmidtSpectrum) -> VerdictWithMargin:
    """Check whether uncorrelated product sampling beats the minimax ceiling.

    Passes iff lam > 4/5 and -log lam < -log(2 sqrt(lam (1 - lam))): in that
    regime the guaranteed worst-case alternatives cannot be products across
    the copies.  Both rates are always reported; lam = 1 has no finite rates
    and is flagged not applicable.
    """
    lam = s.lam
    if lam >= 1.0:
        return VerdictWithMargin(
            passed=False, margin=math.nan, applicable=False, detail="lam = 1: rates undefined"
        )
    a, b = counterexample_rates(lam)
    return VerdictWithMargin(
        passed=(lam > 0.8) and (a < b),
        margin=b - a,
        detail=f"minimax_rate={a:.12g} product_rate={b:.12g}",
    )


# ---------------------------------------------------------------------------
# Figure data grids
# ---------------------------------------------------------------------------

FIG1_CSV_HEADER = "lambda,value_upper,value_lower_thm2,value_lower_simple"
FIG2_CSV_HEADER = "lambda,theta,value," + ",".join(f"level_{int(10 * l):02d}" for l in FIG2_LEVELS)


def figure1_data(d: int, alpha: float, grid_size: int = 100) -> dict[str, np.ndarray]:
    """Zero-overlap bound curves over the admissible lam range at fixed alpha.

    lam runs over [1/d, 1/(1 + alpha^2)] inclusive; the range is empty (a
    parameter error) when alpha^2 + 1 > d.  d must be at least 2, as for
    every bipartite system.
    """
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise ValidationError(f"local dimension must be an integer >= 2, got {d!r}")
    if grid_size < 2:
        raise ValidationError(f"grid size must be >= 2, got {grid_size}")
    lo, hi = 1.0 / d, 1.0 / (1.0 + alpha**2)
    if lo > hi:
        raise ValidationError(
            f"empty lam range for d={d}, alpha={alpha}: 1/d = {lo:.6g} > {hi:.6g}"
        )
    lam = np.linspace(lo, hi, grid_size)
    return {
        "lambda": lam,
        "value_upper": lam / (2.0 * (1.0 + lam)),
        "value_lower_thm2": lam * alpha**2 / (2.0 + 7.0 * alpha),
        "value_lower_simple": (1.0 / lam - 1.0) / (2.0 * (d * d - 1)),
    }


def figure1_csv(d: int, alpha: float, grid_size: int = 100) -> str:
    data = figure1_data(d, alpha, grid_size)
    rows = [FIG1_CSV_HEADER]
    for i in range(len(data["lambda"])):
        rows.append(",".join(f"{data[k][i]:.12g}" for k in FIG1_CSV_HEADER.split(",")))
    return "\n".join(rows)


def figure2_data(n, grid_size: int = 200) -> dict[str, np.ndarray]:
    """Worst-case error level-region grid over (lam, theta) in [0, 1]^2.

    For finite n the value is (theta^n + lam^n) / (2 (1 + lam^n)) and a
    point belongs to level L iff value <= L^n.  For n = inf the limiting
    rule applies: membership iff max(theta, lam) <= L, with max(theta, lam)
    reported as the value column.  Boundary membership is decided with a
    1e-12 tolerance so exactly-on-contour grid points are classified
    stably regardless of linspace rounding.
    """
    infinite = n in (math.inf, None)
    if not infinite and (not isinstance(n, (int, np.integer)) or n < 1):
        raise ValidationError(f"copy count must be a positive integer or inf, got {n!r}")
    if grid_size < 2:
        raise ValidationError(f"grid size must be >= 2, got {grid_size}")
    axis = np.linspace(0.0, 1.0, grid_size)
    lam, theta = [g.reshape(-1) for g in np.meshgrid(axis, axis, indexing="ij")]
    out: dict[str, np.ndarray] = {"lambda": lam, "theta": theta}
    if infinite:
        value = np.maximum(lam, theta)
        out["value"] = value
        for level in FIG2_LEVELS:
            out[f"level_{int(10 * level):02d}"] = value <= level + 1e-12
    else:
        with np.errstate(under="ignore"):
            value = (theta**n + lam**n) / (2.0 * (1.0 + lam**n))
        out["value"] = value
        for level in FIG2_LEVELS:
            out[f"level_{int(10 * level):02d}"] = value <= level**n + 1e-12
    return out


def figure2_csv(n, grid_size: int = 200) -> str:
    data = figure2_data(n, grid_size)
    names = FIG2_CSV_HEADER.split(",")
    rows = [FIG2_CSV_HEADER]
    for i in range(len(data["lambda"])):
        cells = []
        for name in names:
            col = data[name]
            cells.append(str(int(col[i])) if col.dtype == bool else f"{col[i]:.12g}")
        rows.append(",".join(cells))
    return "\n".join(rows)
