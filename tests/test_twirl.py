"""Symmetrizing map: entrywise vs discrete route, A+B split, random effects."""

import numpy as np
import pytest

from loccdetect.errors import ContractError
from loccdetect.operators import BipartiteOperator, partial_transpose, validate_povm_element
from loccdetect.states import make_spectrum, schmidt_state
from loccdetect.twirl import (
    ab_decompose,
    random_phi_symmetric_ppt,
    smallest_odd_prime_geq,
    twirl_discrete,
    twirl_entrywise,
)


def random_hermitian(d, rng):
    g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    return BipartiteOperator(d, 0.5 * (g + g.conj().T))


def test_smallest_odd_prime():
    assert [smallest_odd_prime_geq(d) for d in (2, 3, 4, 5, 6, 7, 8, 10)] == [
        3, 3, 5, 5, 7, 7, 11, 11,
    ]


def test_entrywise_keep_rule_all_ones():
    op = BipartiteOperator(2, np.ones((4, 4)))
    out = twirl_entrywise(op).matrix
    expected = np.zeros((4, 4))
    for r, c in [(0, 0), (0, 3), (3, 0), (3, 3), (1, 1), (2, 2)]:
        expected[r, c] = 1.0
    np.testing.assert_array_equal(out, expected)


def test_state_is_twirl_invariant():
    for coeffs, d in ([0.6, 0.4], 2), ([0.5, 0.3, 0.2], 3):
        rho = schmidt_state(make_spectrum(coeffs, d)).density
        np.testing.assert_array_equal(twirl_entrywise(rho).matrix, rho.matrix)


def test_twirl_of_fourier_measurement_matches_closed_form():
    from loccdetect.measurements import build_measurement, build_q0

    s = make_spectrum([0.6, 0.4], 2)
    out = twirl_entrywise(build_q0(s).operator).matrix
    rho = schmidt_state(s).density.matrix
    expected = rho.copy()
    expected[1, 1] += 0.4  # |01><01| keeps the second coefficient
    expected[2, 2] += 0.6  # |10><10| keeps the first
    assert np.abs(out - expected).max() <= 1e-12

    # The closed form q is the twirl of q0 for every spectrum shape.
    for d in range(2, 7):
        near = np.full(d, 1e-3 / (d - 1))
        near[0] = 1.0 - 1e-3
        top = np.ones(d)
        top[:2] = 2.0
        product = np.zeros(d)
        product[0] = 1.0
        families = {
            "uniform": np.ones(d),
            "dirichlet": np.random.default_rng(d).dirichlet(np.ones(d)),
            "near-product": near,
            "degenerate-top": top,
            "product": product,
        }
        for family, c in families.items():
            s = make_spectrum(c / c.sum(), d)
            twirled = twirl_entrywise(build_q0(s).operator).matrix
            q = build_measurement("q", s).operator.matrix
            assert np.abs(twirled - q).max() <= 1e-12, (d, family)


def test_discrete_identity():
    op = BipartiteOperator(3, np.eye(9))
    assert np.abs(twirl_discrete(op).matrix - np.eye(9)).max() <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_discrete_equals_entrywise(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(50):
        op = random_hermitian(d, rng)
        gap = np.abs(twirl_discrete(op).matrix - twirl_entrywise(op).matrix).max()
        assert gap <= 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_idempotence_and_trace(d):
    rng = np.random.default_rng(200 + d)
    for _ in range(50):
        op = random_hermitian(d, rng)
        once = twirl_entrywise(op)
        twice = twirl_entrywise(once)
        assert np.abs(twice.matrix - once.matrix).max() <= 1e-12
        assert abs(np.trace(once.matrix) - np.trace(op.matrix)) <= 1e-12


def test_ab_decompose_t_tilde():
    from loccdetect.measurements import build_measurement

    s = make_spectrum([0.6, 0.4], 2)
    t = build_measurement("t-tilde", s)
    ab = ab_decompose(t.operator)
    mu = 0.375
    assert abs(ab.b[0, 1] - (1 - mu) * 0.4) <= 1e-12  # 0.25
    assert abs(ab.b[1, 0] - (1 - mu) * 0.6) <= 1e-12  # 0.375
    # a is the state block plus the matched-span part of mu R
    expected_a = (1 - mu) * np.sqrt(np.outer([0.6, 0.4], [0.6, 0.4])) + mu * np.eye(2)
    np.testing.assert_allclose(ab.a, expected_a, atol=1e-12)
    assert ab.ppt_form()
    assert np.abs(ab.reassemble() - t.operator.matrix).max() <= 1e-12


def test_ab_decompose_projector_and_entangled_state():
    from loccdetect.measurements import build_measurement
    from loccdetect.states import uniform_spectrum

    r = build_measurement("r", uniform_spectrum(3))
    ab = ab_decompose(r.operator)
    np.testing.assert_array_equal(ab.a, np.eye(3))
    assert np.abs(ab.b).max() == 0.0
    assert ab.ppt_form()

    rho = schmidt_state(make_spectrum([0.5, 0.5], 2)).density
    ab = ab_decompose(rho)
    np.testing.assert_allclose(ab.a, np.full((2, 2), 0.5), atol=1e-15)
    assert np.abs(ab.b).max() == 0.0
    assert not ab.ppt_form()  # |a_01|^2 = 1/4 > 0 = b_01 b_10


def test_ab_decompose_rejects_asymmetric_input():
    m = np.zeros((4, 4))
    m[0, 1] = 1.0
    m[1, 0] = 1.0
    with pytest.raises(ContractError, match="not twirl-invariant"):
        ab_decompose(BipartiteOperator(2, m))


def test_random_ppt_effect_validates():
    t = random_phi_symmetric_ppt(2, 1)
    verdict = validate_povm_element(t)
    assert verdict.passed and verdict.ppt


def test_random_ppt_effect_is_twirl_fixed():
    t = random_phi_symmetric_ppt(4, 7)
    np.testing.assert_array_equal(twirl_entrywise(t).matrix, t.matrix)


def test_random_ppt_effect_deterministic():
    a = random_phi_symmetric_ppt(3, 123)
    b = random_phi_symmetric_ppt(3, 123)
    assert np.array_equal(a.matrix, b.matrix)
    assert a.meta["seed"] == 123 and "generator" in a.meta


@pytest.mark.parametrize("d", [2, 3, 4])
def test_ppt_characterizations_agree_on_corpus(d):
    # Spectral positivity of the partial transpose vs the entrywise form.
    for seed in range(25):
        t = random_phi_symmetric_ppt(d, seed)
        min_pt = np.linalg.eigvalsh(partial_transpose(t).matrix)[0]
        assert min_pt >= -1e-10
        assert ab_decompose(t).ppt_form()
