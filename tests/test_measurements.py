"""Named measurement constructions and their spectral properties."""

import numpy as np
import pytest

from loccdetect.errors import ValidationError
from loccdetect.measurements import build_measurement, build_q0
from loccdetect.operators import validate_povm_element
from loccdetect.states import make_spectrum, schmidt_state, uniform_spectrum

S64 = make_spectrum([0.6, 0.4], 2)
S55 = make_spectrum([0.5, 0.5], 2)


def accept_probability(measurement, sigma):
    return float(np.real(np.trace(measurement.operator.matrix @ sigma)))


def spectrum_families(d):
    """The five spectrum shapes the builders are checked on, by name."""
    near = np.full(d, 1e-3 / (d - 1))
    near[0] = 1.0 - 1e-3
    top = np.ones(d)
    top[:2] = 2.0
    product = np.zeros(d)
    product[0] = 1.0
    raw = {
        "uniform": np.ones(d),
        "dirichlet": np.random.default_rng(d).dirichlet(np.ones(d)),
        "near-product": near,
        "degenerate-top": top,
        "product": product,
    }
    return {name: make_spectrum(c / c.sum(), d) for name, c in raw.items()}


def off_state_norm(measurement, spectrum):
    rho = schmidt_state(spectrum).density.matrix
    proj = np.eye(rho.shape[0]) - rho
    m = proj @ measurement.operator.matrix @ proj
    return float(np.abs(np.linalg.eigvalsh(0.5 * (m + m.conj().T))).max())


# ---------------------------------------------------------------------------
# q0
# ---------------------------------------------------------------------------


def test_q0_accepts_target_with_certainty():
    for s in (S55, S64, make_spectrum([0.5, 0.3, 0.2], 3)):
        rho = schmidt_state(s).density.matrix
        assert abs(accept_probability(build_q0(s), rho) - 1.0) <= 1e-12


def test_q0_on_matched_span_state_scores_overlap():
    sigma = np.zeros((4, 4), dtype=complex)
    sigma[0, 0] = 1.0  # |0 (x) 0><0 (x) 0|
    rho = schmidt_state(S64).density.matrix
    q0 = build_q0(S64)
    assert abs(accept_probability(q0, sigma) - 0.6) <= 1e-12
    # ... which is exactly this state's overlap with the target.
    assert abs(accept_probability(q0, sigma) - np.real(np.trace(rho @ sigma))) <= 1e-12


def test_q0_is_a_povm_element():
    for s in (S64, make_spectrum([0.4, 0.3, 0.2, 0.1], 4)):
        verdict = validate_povm_element(build_q0(s).operator)
        assert verdict.passed and verdict.ppt


# ---------------------------------------------------------------------------
# q
# ---------------------------------------------------------------------------


def test_q_eigenvalues_d2():
    values = np.linalg.eigvalsh(build_measurement("q", S64).operator.matrix)
    np.testing.assert_allclose(values, [0.0, 0.4, 0.6, 1.0], atol=1e-12)
    values = np.linalg.eigvalsh(build_measurement("q", S55).operator.matrix)
    np.testing.assert_allclose(values, [0.0, 0.5, 0.5, 1.0], atol=1e-12)


def test_q_product_state_closed_form():
    q = build_measurement("q", make_spectrum([1.0, 0.0], 2)).operator.matrix
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0  # |00><00|
    expected[2, 2] = 1.0  # |10><10| keeps coefficient lam_0 = 1
    np.testing.assert_allclose(q, expected, atol=1e-15)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_q_eigenvalue_multiplicities(d):
    rng = np.random.default_rng(d)
    s = make_spectrum(np.sort(rng.dirichlet(np.full(d, 5.0)))[::-1], d)
    values = np.linalg.eigvalsh(build_measurement("q", s).operator.matrix)
    # Expected: 1 once, each coefficient d-1 times, 0 d-1 times.
    expected = np.sort(np.concatenate([[1.0], np.repeat(s.coeffs, d - 1), np.zeros(d - 1)]))
    np.testing.assert_allclose(values, expected, atol=1e-9)


# ---------------------------------------------------------------------------
# r and algebraic relations
# ---------------------------------------------------------------------------


def test_r_matrix_d2():
    r = build_measurement("r", uniform_spectrum(2)).operator.matrix
    np.testing.assert_array_equal(r, np.diag([1.0, 0, 0, 1.0]))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_r_is_projector(d):
    r = build_measurement("r", uniform_spectrum(d)).operator.matrix
    assert np.abs(r @ r - r).max() <= 1e-14


def test_qr_products_give_target():
    for s in (S64, make_spectrum([0.5, 0.25, 0.25], 3)):
        q = build_measurement("q", s).operator.matrix
        r = build_measurement("r", s).operator.matrix
        rho = schmidt_state(s).density.matrix
        assert np.abs(q @ r - rho).max() <= 1e-12
        assert np.abs(r @ q - rho).max() <= 1e-12


def test_q_plus_r_minus_state_is_an_effect():
    for s in (S64, S55, make_spectrum([0.4, 0.3, 0.2, 0.1], 4)):
        q = build_measurement("q", s).operator.matrix
        r = build_measurement("r", s).operator.matrix
        rho = schmidt_state(s).density.matrix
        values = np.linalg.eigvalsh(q + r - rho)
        assert values[0] >= -1e-10 and values[-1] <= 1 + 1e-10


# ---------------------------------------------------------------------------
# t-tilde / t-mu
# ---------------------------------------------------------------------------


def test_t_tilde_default_eigenvalues():
    t = build_measurement("t-tilde", S64)
    assert abs(t.mu - 0.375) <= 1e-15
    values = np.linalg.eigvalsh(t.operator.matrix)
    np.testing.assert_allclose(values, [0.25, 0.375, 0.375, 1.0], atol=1e-12)
    assert abs(off_state_norm(t, S64) - 0.375) <= 1e-12


def test_t_tilde_maximally_entangled_norm():
    t = build_measurement("t-tilde", S55)
    assert abs(off_state_norm(t, S55) - 1.0 / 3.0) <= 1e-12


def test_t_mu_endpoint_is_q():
    t = build_measurement("t-mu", S64, mu=0.0)
    assert t.name == "t-mu"
    q = build_measurement("q", S64).operator.matrix
    np.testing.assert_allclose(t.operator.matrix, q, atol=1e-15)


def test_t_mu_range_check():
    with pytest.raises(ValidationError):
        build_measurement("t-mu", S64, mu=1.5)


def test_t_mu_norm_minimized_at_default_weight():
    for s in (S64, make_spectrum([0.5, 0.3, 0.2], 3)):
        grid = np.linspace(0.0, 1.0, 101)
        norms = [off_state_norm(build_measurement("t-mu", s, mu=m), s) for m in grid]
        best = grid[int(np.argmin(norms))]
        assert abs(best - s.lam / (1.0 + s.lam)) <= (grid[1] - grid[0])


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_mixture_off_state_norms(d):
    # Off the target, the mixtures have eigenvalue mu on the matched span
    # and (1 - mu) times the off-span weights elsewhere.
    for family, s in spectrum_families(d).items():
        one_way = s.lam / (1.0 + s.lam)
        norm = off_state_norm(build_measurement("t-tilde", s), s)
        assert abs(norm - max(one_way, (1.0 - one_way) * s.lam)) <= 1e-10, family
        for mu in (0.0, 0.3, 0.8, 1.0):
            norm = off_state_norm(build_measurement("t-mu", s, mu=mu), s)
            assert abs(norm - max(mu, (1.0 - mu) * s.lam)) <= 1e-10, (family, mu)
        two_way = s.lam * s.beta / (1.0 + s.lam * s.beta)
        norm = off_state_norm(build_measurement("t-tilde2", s), s)
        assert abs(norm - two_way) <= 1e-10, family


# ---------------------------------------------------------------------------
# q2 / t-tilde2
# ---------------------------------------------------------------------------


def test_t_tilde2_d2_closed_form():
    # For d = 2 the two-way mixture is rho + (I - rho)/3 for any spectrum.
    for s in (S64, S55, make_spectrum([0.9, 0.1], 2)):
        t = build_measurement("t-tilde2", s)
        rho = schmidt_state(s).density.matrix
        expected = rho + (np.eye(4) - rho) / 3.0
        np.testing.assert_allclose(t.operator.matrix, expected, atol=1e-12)
        assert abs(s.lam * s.beta - 0.5) <= 1e-12
        assert abs(off_state_norm(t, s) - 1.0 / 3.0) <= 1e-12


def test_q2_swap_invariant_case():
    np.testing.assert_allclose(
        build_measurement("q2", S55).operator.matrix,
        build_measurement("q", S55).operator.matrix,
        atol=1e-12,
    )


def test_q2_off_state_eigenvalues():
    s = make_spectrum([0.5, 0.3, 0.2], 3)
    values = np.sort(np.linalg.eigvalsh(build_measurement("q2", s).operator.matrix))
    pair_means = sorted(
        0.5 * (s.coeffs[i] + s.coeffs[j]) for i in range(3) for j in range(3) if i != j
    )
    expected = np.sort(np.concatenate([[1.0], pair_means, np.zeros(2)]))
    np.testing.assert_allclose(values, expected, atol=1e-9)


# ---------------------------------------------------------------------------
# references and cross-cutting invariants
# ---------------------------------------------------------------------------


def test_product_reference_acceptance():
    assert abs(accept_probability(build_measurement("product", S64),
                                  schmidt_state(S64).density.matrix) - 0.6) <= 1e-12
    s_prod = make_spectrum([1.0, 0.0], 2)
    assert abs(accept_probability(build_measurement("product", s_prod),
                                  schmidt_state(s_prod).density.matrix) - 1.0) <= 1e-12


def test_helstrom_reference():
    t = build_measurement("helstrom", S64)
    rho = schmidt_state(S64).density.matrix
    assert abs(accept_probability(t, rho) - 1.0) <= 1e-12
    assert off_state_norm(t, S64) <= 1e-12


@pytest.mark.parametrize(
    "name", ["q0", "q", "r", "t-tilde", "q2", "t-tilde2", "product", "helstrom"]
)
def test_all_named_measurements_are_povm_elements(name):
    for s in (S64, uniform_spectrum(3)):
        m = build_measurement(name, s)
        verdict = validate_povm_element(m.operator)
        assert verdict.passed
        if name != "helstrom":
            assert verdict.ppt  # locally implementable constructions stay PPT


@pytest.mark.parametrize("name", ["q0", "q", "r", "t-tilde", "q2", "t-tilde2", "helstrom"])
def test_target_is_fixed_point(name):
    for s in (S64, uniform_spectrum(3)):
        st = schmidt_state(s)
        m = build_measurement(name, s)
        assert np.abs(m.operator.matrix @ st.ket - st.ket).max() <= 1e-10


def test_build_measurement_requires_mu_for_t_mu():
    with pytest.raises(ValidationError):
        build_measurement("t-mu", S64)
    with pytest.raises(ValidationError):
        build_measurement("nope", S64)


# ---------------------------------------------------------------------------
# the (A, b) table against the dense definitions
# ---------------------------------------------------------------------------


def swap_matrix(d):
    """Permutation |i (x) j> -> |j (x) i>."""
    sw = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            sw[j * d + i, i * d + j] = 1.0
    return sw


def dense_reference(name, s, mu):
    """Effect and mixture weight from the dense D x D definitions."""
    d = s.d
    rho = schmidt_state(s).density.matrix
    q = np.array(rho)  # Q = rho + sum_{i != j} c_j |ij><ij|
    idx = np.arange(d * d)
    off = idx // d != idx % d
    q[idx[off], idx[off]] += s.coeffs[idx[off] % d]
    r = np.zeros((d * d, d * d), dtype=complex)
    r[idx[~off], idx[~off]] = 1.0
    sw = swap_matrix(d)
    q2 = 0.5 * (q + sw @ q @ sw)
    if name == "t-tilde":
        mu = s.lam / (1.0 + s.lam)
    if name in ("t-mu", "t-tilde"):
        return mu * r + (1.0 - mu) * q, mu
    if name == "t-tilde2":
        mu = s.lam * s.beta / (1.0 + s.lam * s.beta)
        return mu * r + (1.0 - mu) * q2, mu
    product = np.zeros((d * d, d * d), dtype=complex)
    product[0, 0] = 1.0
    return {"q": q, "r": r, "q2": q2, "product": product, "helstrom": rho}[name], None


@pytest.mark.parametrize("d", range(2, 9))
@pytest.mark.parametrize(
    "name", ["q", "r", "t-mu", "t-tilde", "q2", "t-tilde2", "product", "helstrom"]
)
def test_table_matches_dense_definitions(name, d):
    for family, s in spectrum_families(d).items():
        for mu in (0.0, 0.3, 1.0) if name == "t-mu" else (None,):
            built = build_measurement(name, s, mu=mu)
            expected, expected_mu = dense_reference(name, s, mu)
            assert built.name == name
            assert built.operator.matrix.tobytes() == expected.tobytes(), (family, mu)
            assert built.mu == expected_mu, (family, mu)
