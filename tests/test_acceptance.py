"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; tolerances are fixed here and nowhere else.
"""

import math
import time

import numpy as np

from loccdetect.analysis import error_report, worst_case_value
from loccdetect.asymptotics import (
    classical_chernoff,
    counterexample_check,
    counterexample_rates,
    cross_validate_small_n,
    figure1_csv,
    figure2_data,
    rate_table,
)
from loccdetect.measurements import build_measurement
from loccdetect.operators import BipartiteOperator, partial_transpose
from loccdetect.simulator import ShotConfig, make_sigma, simulate
from loccdetect.states import make_spectrum, schmidt_state, uniform_spectrum
from loccdetect.twirl import (
    ab_decompose,
    random_phi_symmetric_ppt,
    twirl_discrete,
    twirl_entrywise,
)
from loccdetect.analysis import verify_blind_spot_bound, verify_ppt_trace_bound

THETA_GRID = [round(0.1 * k, 1) for k in range(11)]


def report(num, ok, detail=""):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def random_spectrum(rng, d):
    return make_spectrum(np.sort(rng.dirichlet(np.ones(d)))[::-1], d)


def test_criterion_1_maximally_entangled_closed_form():
    worst = 0.0
    for d in range(2, 7):
        s = uniform_spectrum(d)
        for theta in THETA_GRID:
            r = error_report(s, theta, build_measurement("t-tilde", s))
            closed = (d * theta + 1.0) / (2.0 * (d + 1.0))
            worst = max(worst, abs(r.p_err - closed))
    r2 = error_report(uniform_spectrum(2), 0.0)
    worst = max(worst, abs(r2.p_err - 1.0 / 6.0))
    report(1, worst <= 1e-9, f"max |p_err - (d theta + 1)/(2(d+1))| = {worst:.2e}")


def test_criterion_2_twirl_equivalence():
    start = time.time()
    worst = 0.0
    for d in (2, 3, 4, 5):
        rng = np.random.default_rng(1000 + d)
        for _ in range(100):
            g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
            op = BipartiteOperator(d, 0.5 * (g + g.conj().T))
            gap = float(np.abs(twirl_discrete(op).matrix - twirl_entrywise(op).matrix).max())
            worst = max(worst, gap)
    elapsed = time.time() - start
    report(2, worst <= 1e-10 and elapsed < 10.0,
           f"max discrepancy = {worst:.2e}, runtime = {elapsed:.1f}s")


def test_criterion_3_guarantee_equalities():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 7))
        s = random_spectrum(rng, d)
        rho = schmidt_state(s).density
        one_way = build_measurement("t-tilde", s)
        two_way = build_measurement("t-tilde2", s)
        for theta in (0.0, 0.2, 0.5, 0.9):
            p1 = 0.5 * worst_case_value(one_way.operator, rho, theta).value
            p2 = 0.5 * worst_case_value(two_way.operator, rho, theta).value
            worst = max(worst, abs(p1 - (theta + s.lam) / (2.0 * (1.0 + s.lam))))
            lb = s.lam * s.beta
            worst = max(worst, abs(p2 - (theta + lb) / (2.0 * (1.0 + lb))))
    report(3, worst <= 1e-8, f"max |dual p_err - closed form| = {worst:.2e}")


def test_criterion_4_sandwich_and_curve_shapes():
    ok = True
    rng = np.random.default_rng(4)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        s = random_spectrum(rng, d)
        for theta in THETA_GRID:
            r = error_report(s, theta, build_measurement("t-tilde", s))
            ok = ok and r.lower_thm2 <= r.p_err + 1e-12
            ok = ok and r.p_err <= r.upper_1way + 1e-8
    alpha, d = 0.6, 2
    lams = np.linspace(1.0 / d, 1.0 / (1 + alpha**2), 100)
    ok = ok and bool(np.all(np.diff(lams / (2 * (1 + lams))) > 0))
    ok = ok and bool(np.all(np.diff((1 / lams - 1) / (2 * (d * d - 1))) < 0))
    report(4, ok, "sandwich and monotone curve shapes hold")


def test_criterion_5_symmetric_ppt_corpus():
    rng = np.random.default_rng(5)
    worst_margin = math.inf
    agree = True
    for d in (2, 3):
        for seed in range(200):
            t = random_phi_symmetric_ppt(d, 50_000 + seed)
            s = random_spectrum(rng, d)
            rho = schmidt_state(s).density
            v1 = verify_ppt_trace_bound(t, rho)
            v2 = verify_blind_spot_bound(t, s)
            worst_margin = min(worst_margin, v1.margin, v2.margin if v2.applicable else math.inf)
            if not (v1.passed and v2.passed):
                worst_margin = min(worst_margin, -1.0)
            spectral = bool(np.linalg.eigvalsh(partial_transpose(t).matrix)[0] >= -1e-10)
            agree = agree and (spectral == ab_decompose(t).ppt_form())
    report(5, worst_margin >= -1e-9 and agree,
           f"min margin = {worst_margin:.2e}, PPT characterizations agree = {agree}")


def test_criterion_6_adversary_oracle():
    rng = np.random.default_rng(6)
    worst_excess = -math.inf
    for _ in range(50):
        d = int(rng.integers(2, 4))
        t = random_phi_symmetric_ppt(d, int(rng.integers(0, 10**6)))
        s = random_spectrum(rng, d)
        st = schmidt_state(s)
        theta = float(rng.uniform(0.0, 1.0))
        value = worst_case_value(t, st.density, theta).value
        dim = d * d
        vs = rng.standard_normal((10_000, dim)) + 1j * rng.standard_normal((10_000, dim))
        vs /= np.linalg.norm(vs, axis=1)[:, None]
        comp = vs - np.outer(vs @ st.ket.conj(), st.ket)
        norms = np.linalg.norm(comp, axis=1)
        comp = comp[norms > 1e-12] / norms[norms > 1e-12, None]
        scores = np.real(np.einsum("ij,jk,ik->i", comp.conj(), t.matrix, comp))
        p_target = float(np.real(np.vdot(st.ket, t.matrix @ st.ket)))
        brute = float((theta * p_target + (1.0 - theta) * scores).max())
        overlaps = np.abs(vs @ st.ket.conj()) ** 2
        feasible = overlaps <= theta
        if feasible.any():
            raw = np.real(np.einsum("ij,jk,ik->i", vs[feasible].conj(), t.matrix, vs[feasible]))
            brute = max(brute, float(raw.max()))
        worst_excess = max(worst_excess, brute - value)
    report(6, worst_excess <= 1e-6, f"max (random-search - dual) = {worst_excess:.2e}")


def test_criterion_7_monte_carlo_fidelity():
    shots = 100_000
    s64 = make_spectrum([0.6, 0.4], 2)
    s55 = make_spectrum([0.5, 0.5], 2)
    s82 = make_spectrum([0.8, 0.2], 2)
    s532 = make_spectrum([0.5, 0.3, 0.2], 3)
    su3 = uniform_spectrum(3)
    configs = []
    seed = 700
    for s in (s64, s55, s82, s532, su3):
        configs.append((s, make_sigma("orthogonal-uniform", s), "t-tilde"))
        configs.append((s, make_sigma("basis:0,1", s), "q"))
        configs.append((s, make_sigma("basis:1,0", s), "t-tilde2"))
    for s in (s64, s532):
        configs.append((s, make_sigma("worst-case", s, "t-tilde", 0.3), "t-tilde"))
    for s in (s64, s55, s82):
        configs.append((s, make_sigma("orthogonal-uniform", s), "product"))
    assert len(configs) == 20
    hits = 0
    for i, (s, sigma, name) in enumerate(configs):
        res = simulate(ShotConfig(name, s, sigma, shots, seed + i))
        if abs(res.estimate - res.analytic) <= res.ci_halfwidth or res.ci_halfwidth == 0.0:
            hits += 1
    exact = simulate(ShotConfig("t-tilde", s64, schmidt_state(s64).density, shots, 999))
    report(7, hits >= 19 and exact.estimate == 1.0,
           f"{hits}/20 configs within 4-sigma, target-state estimate = {exact.estimate}")


def test_criterion_8_asymptotics():
    ok = True
    for s in (make_spectrum([0.6, 0.4], 2), make_spectrum([0.5, 0.5], 2),
              make_spectrum([0.8, 0.2], 2)):
        for theta in (0.0, 0.3, 0.7):
            for n in (1, 2, 3):
                ok = ok and cross_validate_small_n(s, theta, n).passed
    table = rate_table(make_spectrum([0.6, 0.4], 2), 0.3, 50)
    du = abs(table.upper_rate[49] - 0.510826)
    dl = abs(table.lower_rate[49] - 0.510826)
    ok = ok and du <= 0.015 and dl <= 0.06
    ok = ok and table.limit == -math.log(max(0.3, 0.6))
    report(8, ok, f"|upper_rate(50) - limit| = {du:.4f}, |lower_rate(50) - limit| = {dl:.4f}")


def test_criterion_9_classical_exponents():
    res = classical_chernoff((0.9, 0.1), (0.1, 0.9))
    ok = abs(res.exponent - (-math.log(0.6))) <= 1e-9
    for lam in (0.85, 0.9, 0.95):
        ok = ok and counterexample_check(make_spectrum([lam, 1 - lam], 2)).passed
    for lam in (0.5, 0.7):
        ok = ok and not counterexample_check(make_spectrum([lam, 1 - lam], 2)).passed
    a, b = counterexample_rates(0.8)
    ok = ok and abs(a - b) <= 1e-12
    report(9, ok, f"exponent diff = {abs(res.exponent + math.log(0.6)):.1e}, "
                  f"boundary |a - b| = {abs(a - b):.1e}")


def test_criterion_10_figure_reproduction():
    lines = [l for l in figure1_csv(2, 0.6, 100).splitlines()[1:]]
    lams = np.array([float(l.split(",")[0]) for l in lines])
    uppers = np.array([float(l.split(",")[1]) for l in lines])
    ok = abs(lams[0] - 0.5) <= 1e-12 and abs(lams[-1] - 1.0 / 1.36) <= 1e-12
    ok = ok and abs(uppers[0] - 1.0 / 6.0) <= 1e-12
    for n in (1, 4, math.inf):
        data = figure2_data(n, grid_size=200)
        lam, theta = data["lambda"], data["theta"]
        if n is math.inf:
            value = np.maximum(lam, theta)
        else:
            value = (theta**n + lam**n) / (2.0 * (1.0 + lam**n))
        for level in (0.1, 0.2, 0.3, 0.4, 0.5):
            cutoff = level if n is math.inf else level**n
            direct = value <= cutoff + 1e-12
            ok = ok and bool(np.array_equal(direct, data[f"level_{int(10 * level):02d}"]))
    report(10, ok, "figure grids match direct evaluation (200x200, n in {1, 4, inf})")
