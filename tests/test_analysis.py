"""Error probabilities, the dual adversary search, and the bound verifiers."""

import math

import numpy as np
import pytest

from loccdetect import analysis
from loccdetect.analysis import (
    error_report,
    golden_section_min,
    prior_weighted_worst_case,
    verify_blind_spot_bound,
    verify_ppt_trace_bound,
    worst_case_value,
)
from loccdetect.errors import ContractError, NumericalFailureError, ValidationError
from loccdetect.measurements import (
    MEASUREMENT_NAMES,
    build_measurement,
)
from loccdetect.operators import BipartiteOperator, validate_povm_element
from loccdetect.states import make_spectrum, schmidt_state, uniform_spectrum
from loccdetect.twirl import (
    ABDecomposition,
    ab_decompose,
    random_phi_symmetric_ppt,
    twirl_defect,
)

S64 = make_spectrum([0.6, 0.4], 2)
S55 = make_spectrum([0.5, 0.5], 2)


def random_spectrum(rng, d=None):
    d = d or int(rng.integers(2, 7))
    return make_spectrum(np.sort(rng.dirichlet(np.ones(d)))[::-1], d)


def feasible_random_search(t, ket, theta, rng, trials):
    """Independent brute-force adversary: random complement states mixed with
    the target to meet the overlap constraint, plus feasible raw pure states."""
    dim = len(ket)
    p_target = float(np.real(np.vdot(ket, t @ ket)))
    vs = rng.standard_normal((trials, dim)) + 1j * rng.standard_normal((trials, dim))
    vs /= np.linalg.norm(vs, axis=1)[:, None]
    comp = vs - np.outer(vs @ ket.conj(), ket)
    norms = np.linalg.norm(comp, axis=1)
    keep = norms > 1e-12
    comp = comp[keep] / norms[keep, None]
    comp_scores = np.real(np.einsum("ij,jk,ik->i", comp.conj(), t, comp))
    best = float((theta * p_target + (1.0 - theta) * comp_scores).max())
    overlaps = np.abs(vs @ ket.conj()) ** 2
    feas = overlaps <= theta
    if feas.any():
        raw = np.real(np.einsum("ij,jk,ik->i", vs[feas].conj(), t, vs[feas]))
        best = max(best, float(raw.max()))
    return best


# ---------------------------------------------------------------------------
# worst_case_value
# ---------------------------------------------------------------------------


def test_worst_case_t_tilde_closed_forms():
    st = schmidt_state(S64)
    t = build_measurement("t-tilde", S64).operator
    adv = worst_case_value(t, st, 0.2)
    assert abs(adv.value - 0.5) <= 1e-9  # (theta + lam)/(1 + lam)
    adv0 = worst_case_value(t, st, 0.0)
    assert abs(adv0.value - 0.375) <= 1e-9  # lam/(1 + lam)
    assert adv0.dual_mu == np.inf


def test_worst_case_helstrom_effect_saturates_overlap():
    st = schmidt_state(S64)
    t = build_measurement("helstrom", S64).operator
    for theta in (0.0, 0.3, 0.7):
        adv = worst_case_value(t, st, theta)
        assert abs(adv.value - theta) <= 1e-9


def test_worst_case_rejects_bad_inputs():
    st = schmidt_state(S64)
    t = build_measurement("t-tilde", S64).operator
    with pytest.raises(ValidationError):
        worst_case_value(t, st, 1.5)
    with pytest.raises(ContractError):
        worst_case_value(BipartiteOperator(2, 2 * np.eye(4)), st, 0.2)
    with pytest.raises(ValidationError, match="local_dim 3"):
        worst_case_value(BipartiteOperator(3, 0.5 * np.eye(9)), st, 0.2)


@pytest.mark.parametrize("seed", range(10))
def test_worst_case_primal_dual_agreement(seed):
    # 5 instances per seed: dual value, feasibility, and achievement by sigma*.
    rng = np.random.default_rng(300 + seed)
    for _ in range(5):
        d = int(rng.integers(2, 4))
        t = random_phi_symmetric_ppt(d, int(rng.integers(0, 10000)))
        s = random_spectrum(rng, d)
        st = schmidt_state(s)
        theta = float(rng.uniform(0.0, 1.0))
        adv = worst_case_value(t, st, theta)
        sig = adv.sigma_star.matrix
        assert abs(np.trace(sig).real - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(sig)[0] >= -1e-10
        assert np.real(np.trace(st.density.matrix @ sig)) <= theta + 1e-8
        achieved = float(np.real(np.trace(t.matrix @ sig)))
        assert achieved >= adv.value - 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_worst_case_never_beaten_by_random_search(seed):
    rng = np.random.default_rng(500 + seed)
    for _ in range(4):
        d = int(rng.integers(2, 4))
        t = random_phi_symmetric_ppt(d, int(rng.integers(0, 10000)))
        s = random_spectrum(rng, d)
        st = schmidt_state(s)
        theta = float(rng.uniform(0.0, 0.9))
        adv = worst_case_value(t, st, theta)
        brute = feasible_random_search(t.matrix, st.ket, theta, rng, trials=2000)
        assert brute <= adv.value + 1e-6


# ---------------------------------------------------------------------------
# golden_section_min and the worst case over every named effect
# ---------------------------------------------------------------------------


def test_golden_section_boundary_minimum_is_exact():
    assert golden_section_min(lambda x: x + 1.0, 0.0, 1.0, tol=1e-10) == (0.0, 1.0)


def test_golden_section_raises_at_step_cap():
    # A zero tolerance is never met once the bracket is two adjacent floats.
    with pytest.raises(NumericalFailureError):
        golden_section_min(lambda x: (x - 0.3) ** 2, 0.0, 1.0, tol=0.0)


THETAS = np.linspace(0.0, 1.0, 11)
#: Every named effect but product accepts the target with certainty, so the
#: target is an eigenvector and the closed form applies.
EIGENVECTOR_NAMES = tuple(n for n in MEASUREMENT_NAMES if n != "product")
PROPERTY_SPECTRA = {d: random_spectrum(np.random.default_rng(40 + d), d) for d in (2, 3, 4)}


def named_effect(name, s):
    if name == "corpus":
        return random_phi_symmetric_ppt(s.d, 7)
    return build_measurement(name, s, mu=0.3 if name == "t-mu" else None).operator


def forced_dual(t, st, theta):
    """The golden-section dual, bypassing the eigenvector closed form."""
    _, chi = analysis._complement_top(t.matrix, st.ket)
    op_norm = float(np.abs(np.linalg.eigvalsh(t.matrix)).max())
    return analysis._dual_worst_case(t, theta, st.ket, chi, op_norm)


@pytest.mark.parametrize("d", sorted(PROPERTY_SPECTRA))
@pytest.mark.parametrize("name", MEASUREMENT_NAMES + ("corpus",))
def test_worst_case_properties_on_theta_grid(name, d):
    s = PROPERTY_SPECTRA[d]
    st = schmidt_state(s)
    t = named_effect(name, s)
    results = [worst_case_value(t, st, float(theta)) for theta in THETAS]
    values = np.array([r.value for r in results])
    assert values.max() <= np.linalg.eigvalsh(t.matrix)[-1] + 1e-12
    assert np.diff(values).min() >= -1e-9
    assert (values[:-2] - 2.0 * values[1:-1] + values[2:]).max() <= 1e-9
    if name not in EIGENVECTOR_NAMES:
        return
    p = float(np.real(np.vdot(st.ket, t.matrix @ st.ket)))
    m, _ = analysis._complement_top(t.matrix, st.ket)
    for theta, res in zip(THETAS[1:], results[1:]):
        assert abs(res.dual_mu - max(0.0, p - m)) <= 1e-12
        assert abs(res.value - forced_dual(t, st, float(theta)).value) <= 1e-8


def test_worst_case_searches_only_off_both_gates(monkeypatch):
    # Every named effect passes the eigenvector gate or, for product, the
    # rank-one gate; a corpus effect fails both and still searches.
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return golden_section_min(*args, **kwargs)

    monkeypatch.setattr(analysis, "golden_section_min", counting)
    for s in PROPERTY_SPECTRA.values():
        st = schmidt_state(s)
        for name in MEASUREMENT_NAMES:
            t = named_effect(name, s)
            for theta in THETAS[1:]:
                worst_case_value(t, st, float(theta))
    assert calls == []
    worst_case_value(named_effect("corpus", S64), schmidt_state(S64), 0.3)
    assert len(calls) == 1


def random_rank_one(rng, d):
    a = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
    a /= np.linalg.norm(a)
    return BipartiteOperator(d, rng.uniform(0.2, 1.0) * np.outer(a, a.conj()))


RANK_ONE_CASES = [("product", d) for d in sorted(PROPERTY_SPECTRA)] + [
    ("random", d) for d in (2, 3, 4)
]


@pytest.mark.parametrize("kind,d", RANK_ONE_CASES)
def test_rank_one_closed_form_matches_forced_dual(kind, d, monkeypatch):
    rng = np.random.default_rng(70 + d)
    s = PROPERTY_SPECTRA[d] if kind == "product" else random_spectrum(rng, d)
    t = named_effect("product", s) if kind == "product" else random_rank_one(rng, d)
    st = schmidt_state(s)

    def forbidden(*args, **kwargs):
        raise AssertionError("rank-one effect reached the dual search")

    with monkeypatch.context() as patch:
        patch.setattr(analysis, "golden_section_min", forbidden)
        results = {float(theta): worst_case_value(t, st, float(theta)) for theta in THETAS[1:]}
        # dual_mu is the slope dv/dtheta of the closed form.
        h = 1e-6
        for theta, res in results.items():
            if theta < 1.0:
                hi = worst_case_value(t, st, theta + h).value
                lo = worst_case_value(t, st, theta - h).value
                assert abs(res.dual_mu - (hi - lo) / (2.0 * h)) <= 1e-4 * max(1.0, res.dual_mu)
    for theta, res in results.items():
        assert abs(res.value - forced_dual(t, st, theta).value) <= 1e-8
        assert float(np.real(np.vdot(res.sigma_star.matrix, st.density.matrix))) <= theta + 1e-12


def test_product_tiny_theta_is_exact():
    theta, lam = 1e-15, 0.5
    res = worst_case_value(named_effect("product", S55), schmidt_state(S55), theta)
    exact = (math.sqrt(theta * lam) + math.sqrt((1.0 - theta) * (1.0 - lam))) ** 2
    assert abs(res.value - exact) <= 1e-12


def test_complement_eigensolve_only_where_chi_is_used(monkeypatch):
    # The rank-one path needs neither m nor chi; theta = 0 needs both.
    calls = []

    def counting(*args):
        calls.append(args)
        return complement_top(*args)

    complement_top = analysis._complement_top
    monkeypatch.setattr(analysis, "_complement_top", counting)
    s = make_spectrum([0.5, 0.3, 0.2], 3)
    t = named_effect("product", s)
    st = schmidt_state(s)
    worst_case_value(t, st, 0.3)
    assert len(calls) == 0
    worst_case_value(t, st, 0.0)
    assert len(calls) == 1


def test_worst_case_closed_form_prints_zero_multiplier():
    # q0 and r have m = p = 1: the multiplier is exactly 0, not roundoff.
    s = make_spectrum([0.4, 0.3, 0.2, 0.1], 4)
    st = schmidt_state(s)
    for name in ("q0", "r"):
        adv = worst_case_value(named_effect(name, s), st, 0.3)
        assert adv.dual_mu == 0.0
        assert f"{adv.value:.12g}" == "1"


# ---------------------------------------------------------------------------
# the solver seam: eigensolve counts and the reflector compression
# ---------------------------------------------------------------------------


def count_eigensolves(monkeypatch):
    """Record (kind, argument) of every numpy.linalg.eigh/eigvalsh call, the
    way the benchmark tracer counts them: by patching the module attributes."""
    calls = []
    for kind in ("eigh", "eigvalsh"):
        def counted(a, *args, _kind=kind, _fn=getattr(np.linalg, kind), **kwargs):
            calls.append((_kind, np.array(a)))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, kind, counted)
    return calls


@pytest.mark.parametrize("name", MEASUREMENT_NAMES)
def test_named_effect_eigensolves(name, monkeypatch):
    # One D x D eigvalsh validates T; the eigenvector path adds one
    # (D - 1)^2 eigh of the compression, the rank-one path (product) none.
    # No call sees rho, and error_report adds nothing.
    s = PROPERTY_SPECTRA[3]
    st = schmidt_state(s)
    measurement = build_measurement(name, s, mu=0.3 if name == "t-mu" else None)
    t = measurement.operator
    calls = count_eigensolves(monkeypatch)
    worst_case_value(t, st, 0.3)
    expected = [("eigvalsh", 9)] + ([] if name == "product" else [("eigh", 8)])
    assert [(kind, a.shape[0]) for kind, a in calls] == expected
    assert np.array_equal(calls[0][1], t.matrix)
    del calls[:]
    error_report(s, 0.3, measurement)
    assert [(kind, a.shape[0]) for kind, a in calls] == expected


def qr_complement_top(tm, ket):
    """Reference compression: QR of [ket | I] gives an orthonormal basis of
    the complement of ket in its last D - 1 columns."""
    dim = ket.shape[0]
    q, _ = np.linalg.qr(np.concatenate([ket[:, None], np.eye(dim, dtype=complex)], axis=1))
    basis = q[:, 1:dim]
    cw, cv = np.linalg.eigh(basis.conj().T @ tm @ basis)
    return float(cw[-1]), basis @ cv[:, -1]


SPECTRUM_FAMILIES = {
    "dirichlet": lambda d: random_spectrum(np.random.default_rng(80 + d), d),
    "uniform": uniform_spectrum,
    "near-product": lambda d: make_spectrum([1.0 - 1e-3 * (d - 1)] + [1e-3] * (d - 1), d),
}


@pytest.mark.parametrize("family", sorted(SPECTRUM_FAMILIES))
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_reflector_compression_matches_qr(family, d):
    s = SPECTRUM_FAMILIES[family](d)
    schmidt_ket = schmidt_state(s).ket
    # A Schmidt ket is real; the phased copy exercises the complex pivot.
    phases = np.exp(2j * np.pi * np.random.default_rng(d).random(d * d))
    for name in MEASUREMENT_NAMES:
        tm = named_effect(name, s).matrix
        for ket in (schmidt_ket, phases * schmidt_ket):
            m, chi = analysis._complement_top(tm, ket)
            assert abs(m - qr_complement_top(tm, ket)[0]) <= 1e-13
            # chi may differ inside a degenerate top eigenspace, so check that
            # it is a unit top eigenvector of the compression, not equality.
            assert abs(np.linalg.norm(chi) - 1.0) <= 1e-13
            assert abs(np.vdot(ket, chi)) <= 1e-13
            t_chi = tm @ chi
            assert np.linalg.norm(t_chi - np.vdot(ket, t_chi) * ket - m * chi) <= 1e-12


def scaled_off_span(t, factor):
    """A twirl-invariant effect with the b-part of t scaled by factor; PPT
    for some factors and seeds and not for others."""
    ab = ab_decompose(t)
    return BipartiteOperator(t.local_dim, ABDecomposition(ab.a, factor * ab.b).reassemble())


@pytest.mark.parametrize("d", [2, 3, 4])
def test_ppt_form_matches_spectral_ppt(d):
    effects = [named_effect(name, PROPERTY_SPECTRA[d]) for name in MEASUREMENT_NAMES]
    effects = [t for t in effects if twirl_defect(t) <= 1e-10]
    assert len(effects) == len(MEASUREMENT_NAMES) - 1  # all but q0
    for seed in range(20):
        t = random_phi_symmetric_ppt(d, 900 + seed)
        effects += [t, scaled_off_span(t, 0.3), scaled_off_span(t, 0.7)]
    decisions = [ab_decompose(t).ppt_form() for t in effects]
    assert decisions == [validate_povm_element(t).ppt for t in effects]
    assert True in decisions and False in decisions


# ---------------------------------------------------------------------------
# error_report
# ---------------------------------------------------------------------------


def test_report_maximally_entangled_closed_form():
    report = error_report(S55, 0.0)
    assert abs(report.p_err - 1.0 / 6.0) <= 1e-9
    assert abs(report.max_entangled_value - 1.0 / 6.0) <= 1e-12


def test_report_064_values():
    report = error_report(S64, 0.0)
    assert abs(report.p_err - 0.1875) <= 1e-9
    assert abs(report.lower_thm2 - 0.6 * (2.0 / 3.0) / (2.0 + 7.0 * np.sqrt(2.0 / 3.0))) <= 1e-12
    assert abs(report.lower_thm2 - 0.051843852) <= 1e-8
    assert abs(report.lower_simple - 1.0 / 9.0) <= 1e-12
    assert report.max_entangled_value is None
    assert report.active_lower == "lower_simple"


def test_report_product_state_floor_vanishes():
    report = error_report(make_spectrum([1.0, 0.0], 2), 0.0)
    assert report.lower_thm2 == 0.0
    assert abs(report.p_err - 0.25) <= 1e-9  # (0 + 1)/(2 (1 + 1))


@pytest.mark.parametrize("theta", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
def test_report_guarantee_equalities_on_theta_grid(theta):
    for s in (S64, S55, make_spectrum([0.5, 0.3, 0.2], 3)):
        r1 = error_report(s, theta, build_measurement("t-tilde", s))
        assert abs(r1.p_err - r1.upper_1way) <= 1e-9
        r2 = error_report(s, theta, build_measurement("t-tilde2", s))
        assert abs(r2.p_err - r2.upper_2way) <= 1e-9
        # Lower floor / upper guarantee sandwich and the unrestricted baseline.
        assert r1.lower_thm2 <= r1.p_err + 1e-12
        assert r1.helstrom <= r1.p_err + 1e-12


def test_report_p_err_is_a_probability():
    # At theta = 0 helstrom's acceptance can round above 1; p_err must not
    # then print as a negative number.
    rng = np.random.default_rng(67)
    for d in range(2, 9):
        for s in [random_spectrum(rng, d) for _ in range(3)] + [uniform_spectrum(d)]:
            for name in MEASUREMENT_NAMES:
                for theta in (0.0, 1.0):
                    r = error_report(s, theta, build_measurement(name, s, mu=0.5))
                    assert 0.0 <= r.p_err <= 1.0, (d, name, theta, r.p_err)


@pytest.mark.parametrize("name", ["q0", "q", "r", "t-tilde", "t-tilde2", "product"])
def test_report_never_beats_unrestricted_baseline(name):
    # Locally implementable (PPT) effects cannot undercut theta/2.
    for theta in (0.0, 0.3, 0.8):
        r = error_report(S64, theta, build_measurement(name, S64))
        assert r.helstrom <= r.p_err + 1e-9


def test_report_monotone_bound_shapes():
    # At fixed alpha = 0.6 the upper curve increases and the simple floor
    # decreases across the admissible lam range.
    alpha, d = 0.6, 2
    lams = np.linspace(1.0 / d, 1.0 / (1 + alpha**2), 100)
    upper = lams / (2.0 * (1.0 + lams))
    simple = (1.0 / lams - 1.0) / (2.0 * (d * d - 1))
    assert np.all(np.diff(upper) > 0)
    assert np.all(np.diff(simple) < 0)


def test_report_serialization_format():
    text = error_report(S55, 0.0).to_text()
    lines = dict(line.split(" = ") for line in text.splitlines())
    assert lines["p_err"] == "0.166666666667"
    assert lines["max_entangled_value"] == "0.166666666667"
    assert set(lines) == {
        "theta", "helstrom", "worst_case_value", "p_err", "upper_1way",
        "upper_2way", "lower_thm2", "lower_simple", "max_entangled_value",
        "active_lower",
    }


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


def test_trace_bound_t_tilde():
    t = build_measurement("t-tilde", S64).operator
    rho = schmidt_state(S64).density
    verdict = verify_ppt_trace_bound(t, rho)
    assert verdict.passed
    assert abs(verdict.margin - (2.0 - 1.0 / 0.6)) <= 1e-9


def test_trace_bound_identity():
    rho = schmidt_state(make_spectrum([0.5, 0.3, 0.2], 3)).density
    verdict = verify_ppt_trace_bound(BipartiteOperator(3, np.eye(9)), rho)
    assert verdict.passed


def test_trace_bound_rejects_non_ppt():
    rho = schmidt_state(S55).density
    with pytest.raises(ContractError):
        verify_ppt_trace_bound(rho, rho)  # entangled projector is not PPT


def test_blind_spot_bound_t_tilde():
    t = build_measurement("t-tilde", S64).operator
    verdict = verify_blind_spot_bound(t, S64)
    assert verdict.passed
    # One-sided case: norm 0.375 must reach (2/3) lam alpha ~ 0.3266.
    assert "one_sided_floor" in verdict.detail


def test_blind_spot_bound_not_applicable_for_product_state():
    s = make_spectrum([1.0, 0.0], 2)
    t = build_measurement("t-tilde", s).operator
    verdict = verify_blind_spot_bound(t, s)
    assert not verdict.applicable


def test_blind_spot_bound_rejects_asymmetric_effect():
    t = build_measurement("helstrom", S64).operator  # not PPT, fails contract
    with pytest.raises(ContractError):
        verify_blind_spot_bound(t, S64)


@pytest.mark.parametrize("d", [2, 3])
def test_verifier_corpus(d):
    rng = np.random.default_rng(40 + d)
    for seed in range(60):
        t = random_phi_symmetric_ppt(d, 7000 + seed)
        s = random_spectrum(rng, d)
        rho = schmidt_state(s).density
        assert verify_ppt_trace_bound(t, rho).passed
        verdict = verify_blind_spot_bound(t, s)
        assert verdict.passed
        assert verdict.margin >= -1e-9


# ---------------------------------------------------------------------------
# prior weighting
# ---------------------------------------------------------------------------


def test_priors_half_reduces_to_report():
    t = build_measurement("t-tilde", S64)
    st = schmidt_state(S64)
    report = error_report(S64, 0.0, t)
    weighted = prior_weighted_worst_case(t.operator, st, 0.0, 0.5, report.worst_case_value)
    assert abs(weighted - report.p_err) <= 1e-12


def test_priors_small_pi0_floor():
    t = build_measurement("t-tilde", S64)
    st = schmidt_state(S64)
    worst = worst_case_value(t.operator, st, 0.0).value
    value = prior_weighted_worst_case(t.operator, st, 0.0, 0.01, worst)
    floor = min(0.01, 0.99 * 2.0 * 0.6 * (2.0 / 3.0) / (2.0 + 7.0 * np.sqrt(2.0 / 3.0)))
    assert abs(floor - 0.01) <= 1e-12
    assert value >= floor - 1e-9


def test_priors_near_one_limit():
    t = build_measurement("t-tilde", S64)
    st = schmidt_state(S64)
    worst = worst_case_value(t.operator, st, 0.0).value
    value = prior_weighted_worst_case(t.operator, st, 0.0, 1.0 - 1e-9, worst)
    # One-sided measurement: only the vanishing-weight adversary term is left.
    assert value <= 1e-9


def test_priors_floor_catches_a_value_below_it(monkeypatch):
    # The floor check runs no eigensolve and no solve; fed a worst case of 0
    # it raises for the PPT t-tilde and is skipped for the non-PPT helstrom.
    st = schmidt_state(S64)
    calls = count_eigensolves(monkeypatch)
    with pytest.raises(NumericalFailureError):
        prior_weighted_worst_case(build_measurement("t-tilde", S64).operator, st, 0.0, 0.5, 0.0)
    helstrom = build_measurement("helstrom", S64).operator
    assert abs(prior_weighted_worst_case(helstrom, st, 0.0, 0.5, 0.0)) <= 1e-15
    assert calls == []


def test_priors_range_check():
    t = build_measurement("t-tilde", S64)
    st = schmidt_state(S64)
    with pytest.raises(ValidationError):
        prior_weighted_worst_case(t.operator, st, 0.0, 0.0, 0.375)
