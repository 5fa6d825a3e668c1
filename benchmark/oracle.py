"""Independent oracle for the command-line payloads.

Every expected number here comes from the paper's closed forms or from an
effect matrix written out from its definition, never from the package.  Each
``check_*`` function returns a list of problems; an empty list means the
payload passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: Printed values carry 12 significant digits.
PRINT_TOL = 1e-11
#: The worst-case solver stops at a 1e-10 multiplier bracket and accepts a
#: primal-dual gap of 1e-6; its value is checked to this tolerance.
SOLVER_TOL = 1e-7
#: Per-request false-alarm probability of the shot-count test.
SHOT_FALSE_ALARM = 1e-9
#: Rows of each CSV table recomputed from the closed forms.
SAMPLED_ROWS = 64


class Spectrum:
    """Descending, unit-sum Schmidt coefficients and their derived scalars."""

    def __init__(self, raw):
        c = np.sort(np.clip(np.asarray(raw, dtype=float), 0.0, None))[::-1]
        self.c = c / c.sum()
        self.d = len(self.c)
        self.lam = float(self.c[0])
        self.alpha = math.sqrt(self.c[1] / self.c[0]) if self.c[1] > 0 else 0.0
        self.beta = 0.5 * (1.0 + self.alpha**2)
        self.uniform = float(self.c[0] - self.c[-1]) <= 1e-12

    def ket(self) -> np.ndarray:
        d = self.d
        ket = np.zeros(d * d)
        ket[np.arange(d) * (d + 1)] = np.sqrt(self.c)
        return ket


def _mixture_weight(name: str, s: Spectrum, mu):
    if name == "t-tilde":
        return s.lam / (1.0 + s.lam)
    if name == "t-tilde2":
        return s.lam * s.beta / (1.0 + s.lam * s.beta)
    return mu


def effect(name: str, s: Spectrum, mu=None) -> np.ndarray:
    """Accept effect of a named measurement, built from its definition."""
    d = s.d
    idx = np.arange(d * d)
    i, j = idx // d, idx % d
    ket = s.ket()
    rho = np.outer(ket, ket).astype(complex)
    if name == "helstrom":
        return rho
    if name == "product":
        t = np.zeros((d * d, d * d), dtype=complex)
        t[0, 0] = 1.0
        return t
    matched = np.diag((i == j).astype(complex))
    if name == "r":
        return matched
    if name == "q0":
        k = np.arange(d)
        phi = np.exp(2j * np.pi * np.outer(k, k) / d) / math.sqrt(d)
        xi = np.exp(-2j * np.pi * np.outer(k, k) / d) * np.sqrt(s.c)[:, None]
        t = np.zeros((d * d, d * d), dtype=complex)
        for col in range(d):
            w = np.kron(phi[:, col], xi[:, col])
            t += np.outer(w, w.conj())
        return t
    off = i != j
    q = rho + np.diag(np.where(off, s.c[j], 0.0))
    q2 = rho + np.diag(np.where(off, 0.5 * (s.c[i] + s.c[j]), 0.0))
    if name == "q":
        return q
    if name == "q2":
        return q2
    m = _mixture_weight(name, s, mu)
    return m * matched + (1.0 - m) * (q2 if name == "t-tilde2" else q)


def accept_target(name: str, s: Spectrum) -> float:
    """Tr T rho: every construction accepts the target surely except product."""
    return s.lam if name == "product" else 1.0


def worst_case(name: str, s: Spectrum, theta: float, mu=None) -> float:
    """sup Tr T sigma over states with Tr rho sigma <= theta, in closed form.

    Every effect but product is 1 on the target plus an operator on its
    complement with top eigenvalue m, so the answer is theta + (1 - theta) m.
    For product the answer is the largest overlap with |00> of a state at
    angle arccos(sqrt(theta)) from the target.
    """
    if name == "product":
        if theta >= s.lam:
            return 1.0
        return (math.sqrt(theta * s.lam) + math.sqrt((1.0 - theta) * (1.0 - s.lam))) ** 2
    if name == "helstrom":
        return theta
    if name in ("q0", "r"):
        top = 1.0
    elif name == "q":
        top = s.lam
    elif name == "q2":
        top = s.lam * s.beta
    else:
        m = _mixture_weight(name, s, mu)
        top = max(m, (1.0 - m) * (s.lam * s.beta if name == "t-tilde2" else s.lam))
    return theta + (1.0 - theta) * top


def parse_fields(payload: str) -> dict[str, str]:
    """``name = value`` lines of a structured-text payload."""
    out = {}
    for line in payload.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _near(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol + PRINT_TOL * abs(want)


def _expect(problems: list[str], fields: dict, key: str, want: float, tol: float = PRINT_TOL):
    if key not in fields:
        problems.append(f"missing field {key}")
        return None
    got = float(fields[key])
    if not _near(got, want, tol):
        problems.append(f"{key} = {got!r}, closed form {want!r}")
    return got


def check_bounds(s: Spectrum, theta: float, name: str, mu, payload: str) -> list[str]:
    """The error report of one instance against the closed forms."""
    f = parse_fields(payload)
    problems: list[str] = []
    value = worst_case(name, s, theta, mu)
    lower_thm2 = 0.5 * theta + (1.0 - theta) * s.lam * s.alpha**2 / (2.0 + 7.0 * s.alpha)
    lower_simple = (1.0 / s.lam - 1.0) / (2.0 * (s.d * s.d - 1))
    _expect(problems, f, "theta", theta)
    _expect(problems, f, "helstrom", 0.5 * theta)
    _expect(problems, f, "worst_case_value", value, SOLVER_TOL)
    _expect(problems, f, "p_err", 0.5 * ((1.0 - accept_target(name, s)) + value), SOLVER_TOL)
    _expect(problems, f, "upper_1way", (theta + s.lam) / (2.0 * (1.0 + s.lam)))
    lb = s.lam * s.beta
    _expect(problems, f, "upper_2way", (theta + lb) / (2.0 * (1.0 + lb)))
    _expect(problems, f, "lower_thm2", lower_thm2)
    _expect(problems, f, "lower_simple", lower_simple)
    if s.uniform:
        _expect(problems, f, "max_entangled_value", (s.d * theta + 1.0) / (2.0 * (s.d + 1.0)))
    elif f.get("max_entangled_value") != "n/a":
        problems.append("max_entangled_value should be n/a for a non-uniform spectrum")
    if abs(lower_thm2 - lower_simple) > 1e-12:
        active = "lower_thm2" if lower_thm2 > lower_simple else "lower_simple"
        if f.get("active_lower") != active:
            problems.append(f"active_lower = {f.get('active_lower')!r}, expected {active}")
    return problems


def read_operator_file(path: str) -> np.ndarray:
    """Matrix of an operator file, parsed without the package."""
    with open(path, encoding="ascii") as fh:
        doc = json.load(fh)
    d = int(doc["local_dim"])
    flat = np.array(doc["entries"], dtype=float)
    return (flat[:, 0] + 1j * flat[:, 1]).reshape(d * d, d * d)


def check_sigma(s: Spectrum, theta: float, t: np.ndarray, value: float, sigma: np.ndarray):
    """Feasibility of an adversary state and the value it attains."""
    problems = []
    if sigma.shape != t.shape:
        return [f"sigma has shape {sigma.shape}, expected {t.shape}"]
    if float(np.abs(sigma - sigma.conj().T).max()) > 1e-9:
        problems.append("sigma is not Hermitian")
    trace = complex(np.trace(sigma))
    if abs(trace - 1.0) > 1e-9:
        problems.append(f"sigma has trace {trace!r}")
    low = float(np.linalg.eigvalsh(0.5 * (sigma + sigma.conj().T))[0])
    if low < -1e-9:
        problems.append(f"sigma has eigenvalue {low!r}")
    ket = s.ket()
    overlap = float(np.real(ket @ sigma @ ket))
    if overlap > theta + 1e-9:
        problems.append(f"sigma has overlap {overlap!r} above theta {theta!r}")
    attained = float(np.real(np.sum(t * sigma.T)))
    if abs(attained - value) > 1e-6:
        problems.append(f"sigma attains {attained!r}, reported value {value!r}")
    return problems


def check_adversary(s, theta, name, mu, sigma_path, ctx, payload) -> list[str]:
    """Reported value against the closed form; the sigma file read back.

    Unless ``ctx`` is None, the value and the state are left in it for the
    check of the simulation that follows.
    """
    f = parse_fields(payload)
    problems: list[str] = []
    value = _expect(problems, f, "value", worst_case(name, s, theta, mu), SOLVER_TOL)
    if f.get("sigma_star_file") != sigma_path:
        problems.append(f"sigma_star_file = {f.get('sigma_star_file')!r}")
    if value is None:
        return problems
    sigma = read_operator_file(sigma_path)
    problems += check_sigma(s, theta, effect(name, s, mu), value, sigma)
    if ctx is not None:
        ctx.update(value=value, sigma=sigma)
    return problems


def shot_tolerance(shots: int, p: float) -> float:
    """Largest |accepts - shots p| with false-alarm probability SHOT_FALSE_ALARM.

    Bernstein's inequality, which stays valid when p is near 0 or 1 where the
    normal approximation behind ``ci_halfwidth`` fails.
    """
    ell = math.log(2.0 / SHOT_FALSE_ALARM)
    var = shots * max(p * (1.0 - p), 0.0)
    return ell / 3.0 + math.sqrt((ell / 3.0) ** 2 + 2.0 * ell * var)


def check_simulate(shots: int, analytic, value, stats: dict, payload: str) -> list[str]:
    """Tally against the analytic acceptance.

    ``analytic`` is Tr T sigma where it is known exactly; ``value`` is the
    worst-case value an adversary state must attain, within the solver's
    1e-6 duality gap.  A miss of ``ci_halfwidth`` (4 standard errors)
    happens once in ~16000 honest requests, so it is counted in ``stats``
    rather than failed; the failing test is ``shot_tolerance``.
    """
    f = parse_fields(payload)
    problems: list[str] = []
    try:
        accepts = int(f["accepts"])
        got = float(f["analytic"])
        half = float(f["ci_halfwidth"])
    except (KeyError, ValueError):
        return ["missing or malformed accepts, analytic or ci_halfwidth"]
    _expect(problems, f, "estimate", accepts / shots)
    if analytic is not None and not _near(got, analytic, 1e-9):
        problems.append(f"analytic = {got!r}, Tr T sigma = {analytic!r}")
    if value is not None and not _near(got, value, 1e-6):
        problems.append(f"analytic = {got!r}, worst-case value {value!r}")
    # 1 - p loses digits near p = 1, so the half width is checked against
    # the printed p at an absolute tolerance.
    _expect(problems, f, "ci_halfwidth", 4.0 * math.sqrt(max(got * (1 - got), 0) / shots), 1e-9)
    if abs(accepts - shots * got) > shot_tolerance(shots, got):
        problems.append(f"{accepts} accepts of {shots} is too far from {got!r}")
    stats["ci_checked"] = stats.get("ci_checked", 0) + 1
    if abs(accepts / shots - got) > half:
        stats["ci_exceedances"] = stats.get("ci_exceedances", 0) + 1
    return problems


def check_pipeline_simulate(s, name, shots, stats, ctx, payload) -> list[str]:
    """Simulation of the adversary state written by the preceding request."""
    sigma = ctx.pop("sigma")
    analytic = float(np.real(np.sum(effect(name, s) * sigma.T)))
    return check_simulate(shots, analytic, ctx.pop("value"), stats, payload)


def named_sigma_acceptance(name: str, s: Spectrum, family: str) -> float:
    """Tr T sigma for the CLI's fixed alternative states."""
    t = effect(name, s)
    if family == "orthogonal-uniform":
        return (float(np.real(np.trace(t))) - accept_target(name, s)) / (s.d * s.d - 1)
    if family == "basis:0,1":
        return float(np.real(t[1, 1]))
    raise ValueError(f"no fixed acceptance for sigma family {family!r}")


# ---------------------------------------------------------------------------
# CSV tables
# ---------------------------------------------------------------------------


def _csv(payload: str, header: str, rows: int, problems: list[str]):
    lines = payload.rstrip("\n").split("\n")
    if lines[0] != header:
        problems.append(f"header {lines[0]!r}, expected {header!r}")
    if len(lines) - 1 != rows:
        problems.append(f"{len(lines) - 1} rows, expected {rows}")
    return lines[1:]


def _sample(rows: list[str], rng: np.random.Generator) -> list[list[float]]:
    picks = rng.choice(len(rows), size=min(SAMPLED_ROWS, len(rows)), replace=False)
    return [[float(x) for x in rows[i].split(",")] for i in sorted(picks)]


def _rel(got: float, want: float, tol: float = 1e-10) -> bool:
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= tol * max(abs(want), 1e-300)


RATE_HEADER = "lambda,theta,n,upper_bound,lower_bound,upper_rate,lower_rate,limit"


def check_asymptotic(lam, alpha, theta, n_max, bits, rng, payload) -> list[str]:
    """Row count, header and sampled rows of a rate table.

    The upper bound (theta^n + lam^n) / (2 (1 + lam^n)) and its rate are
    recomputed in log space; the lower bound uses the blind-spot floor.
    """
    problems: list[str] = []
    scale = math.log(2.0) if bits else 1.0
    for row in _sample(_csv(payload, RATE_HEADER, n_max, problems), rng):
        n = int(row[2])
        lam_n, theta_n = lam**n, theta**n
        hi, lo = max(theta, lam), min(theta, lam)
        log_upper = (n * math.log(hi) + math.log1p((lo / hi) ** n)
                     - math.log(2.0) - math.log1p(lam_n))
        want = [lam, theta, n, (theta_n + lam_n) / (2 * (1 + lam_n)), math.nan,
                -log_upper / n / scale, math.nan, -math.log(hi) / scale]
        if alpha > 0:
            coeff = alpha**2 / (2.0 + 7.0 * alpha)
            want[4] = 0.5 * theta_n + (1.0 - theta_n) * lam_n * coeff
            log_state = math.log1p(-theta_n) + n * math.log(lam) + math.log(coeff)
            log_lower = np.logaddexp(n * math.log(theta) + math.log(0.5), log_state)
            want[6] = -float(log_lower) / n / scale
        for col, (got, exp) in enumerate(zip(row, want)):
            if not _rel(got, exp, 1e-9 if col in (5, 6) else 1e-10):
                problems.append(f"n={n} column {RATE_HEADER.split(',')[col]}: {got!r} vs {exp!r}")
                break
    return problems


FIG2_LEVELS = (0.1, 0.2, 0.3, 0.4, 0.5)
FIG2_HEADER = "lambda,theta,value," + ",".join(f"level_{int(10 * x):02d}" for x in FIG2_LEVELS)


def check_figure2(n, grid, rng, payload) -> list[str]:
    """Level-region grid: value and level flags recomputed on sampled rows."""
    problems: list[str] = []
    for row in _sample(_csv(payload, FIG2_HEADER, grid * grid, problems), rng):
        lam, theta, value = row[0], row[1], row[2]
        if n == "inf":
            want, power = max(lam, theta), 1
        else:
            power = int(n)
            want = (theta**power + lam**power) / (2.0 * (1.0 + lam**power))
        if not _near(value, want, 1e-10):
            problems.append(f"value at ({lam}, {theta}) = {value!r}, closed form {want!r}")
        for level, flag in zip(FIG2_LEVELS, row[3:]):
            edge = level**power
            if abs(want - edge) > 1e-9 and flag != float(want <= edge):
                problems.append(f"level {level} flag at ({lam}, {theta}) is {flag}")
    return problems


FIG1_HEADER = "lambda,value_upper,value_lower_thm2,value_lower_simple"


def check_figure1(d, alpha, grid, rng, payload) -> list[str]:
    """Zero-overlap bound curves recomputed on sampled rows."""
    problems: list[str] = []
    for row in _sample(_csv(payload, FIG1_HEADER, grid, problems), rng):
        lam = row[0]
        want = [lam, lam / (2 * (1 + lam)), lam * alpha**2 / (2 + 7 * alpha),
                (1 / lam - 1) / (2 * (d * d - 1))]
        if not all(_near(g, w, 1e-10) for g, w in zip(row, want)):
            problems.append(f"row at lambda={lam} = {row}, closed form {want}")
    return problems


def check_chernoff(lam, payload) -> list[str]:
    """Symmetric binary pair: s* = 1/2, exponent -log(2 sqrt(lam (1 - lam)))."""
    f = parse_fields(payload)
    problems: list[str] = []
    _expect(problems, f, "s_star", 0.5, 1e-6)
    _expect(problems, f, "exponent", -math.log(2.0 * math.sqrt(lam * (1.0 - lam))), 1e-10)
    if f.get("infinite") != "false":
        problems.append(f"infinite = {f.get('infinite')!r}")
    minimax, product = -math.log(lam), -math.log(2.0 * math.sqrt(lam * (1.0 - lam)))
    verdict = "PASS" if lam > 0.8 and minimax < product else "FAIL"
    if f.get("counterexample") != verdict:
        problems.append(f"counterexample = {f.get('counterexample')!r}, expected {verdict}")
    return problems
