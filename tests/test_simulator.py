"""Shot-level protocol simulation: unbiasedness, determinism, twirl effect."""

import numpy as np
import pytest

from loccdetect.errors import ValidationError
from loccdetect.measurements import build_measurement, build_q0
from loccdetect.operators import BipartiteOperator
from loccdetect.simulator import (
    ShotConfig,
    estimate_error_rate,
    make_sigma,
    simulate,
)
from loccdetect.states import make_spectrum, schmidt_state

S64 = make_spectrum([0.6, 0.4], 2)
S55 = make_spectrum([0.5, 0.5], 2)
S532 = make_spectrum([0.5, 0.3, 0.2], 3)

N = 100_000


def test_target_state_accepted_exactly():
    rho = schmidt_state(S64).density
    for name in ("t-tilde", "t-tilde2", "r", "q", "q0"):
        res = simulate(ShotConfig(name, S64, rho, 20_000, 1))
        assert res.estimate == 1.0
        assert abs(res.analytic - 1.0) <= 1e-12


def test_basis_state_example():
    sigma = make_sigma("basis:0,1", S64)
    res = simulate(ShotConfig("t-tilde", S64, sigma, N, 2))
    assert abs(res.analytic - 0.25) <= 1e-12  # (1 - mu) * second coefficient
    assert abs(res.estimate - res.analytic) <= res.ci_halfwidth


def test_orthogonal_uniform_example():
    sigma = make_sigma("orthogonal-uniform", S55)
    res = simulate(ShotConfig("t-tilde", S55, sigma, N, 3))
    assert abs(res.analytic - 1.0 / 3.0) <= 1e-12
    assert abs(res.estimate - res.analytic) <= res.ci_halfwidth


@pytest.mark.parametrize("name", ["t-tilde", "t-tilde2", "r", "q", "q0", "product"])
@pytest.mark.parametrize("sigma_spec", ["orthogonal-uniform", "basis:0,1"])
def test_unbiasedness_sweep(name, sigma_spec):
    for s, seed in ((S64, 10), (S532, 11)):
        sigma = make_sigma(sigma_spec, s)
        res = simulate(ShotConfig(name, s, sigma, N, seed))
        assert abs(res.estimate - res.analytic) <= max(res.ci_halfwidth, 4.0 / np.sqrt(N))


def test_coherent_alternative_unbiasedness():
    # Alternative with off-diagonal support in the twirled sectors.
    ket = np.zeros(4, dtype=complex)
    ket[1] = ket[2] = 1.0 / np.sqrt(2.0)
    sigma = BipartiteOperator(2, np.outer(ket, ket.conj()))
    res = simulate(ShotConfig("q", S64, sigma, N, 4))
    assert abs(res.estimate - res.analytic) <= res.ci_halfwidth


def test_twirl_randomization_changes_statistics():
    # With per-shot random phase rotations the acceptance tracks the twirled
    # effect, not the raw Fourier one; the two differ by ~0.49 here.
    ket = np.zeros(4, dtype=complex)
    ket[1] = ket[2] = 1.0 / np.sqrt(2.0)
    sigma = BipartiteOperator(2, np.outer(ket, ket.conj()))
    res = simulate(ShotConfig("q", S64, sigma, N, 5))
    raw_q0 = float(np.real(np.trace(build_q0(S64).operator.matrix @ sigma.matrix)))
    assert abs(res.estimate - res.analytic) <= res.ci_halfwidth
    assert abs(res.estimate - raw_q0) > 5.0 * res.ci_halfwidth


def test_determinism_same_seed():
    sigma = make_sigma("orthogonal-uniform", S64)
    a = simulate(ShotConfig("t-tilde", S64, sigma, 30_000, 123))
    b = simulate(ShotConfig("t-tilde", S64, sigma, 30_000, 123))
    c = simulate(ShotConfig("t-tilde", S64, sigma, 30_000, 124))
    assert a.accepts == b.accepts
    assert a.accepts != c.accepts  # different stream, different tally


def test_estimate_error_rate_worst_case():
    sigma = make_sigma("worst-case", S64, "t-tilde", 0.0)
    rate = estimate_error_rate(ShotConfig("t-tilde", S64, sigma, 200_000, 6), 0.0)
    assert abs(rate - 0.1875) <= 0.004


def test_estimate_error_rate_indistinguishable():
    rho = schmidt_state(S64).density
    rate = estimate_error_rate(ShotConfig("t-tilde", S64, rho, 10_000, 7), 1.0)
    assert rate == 0.5  # accepts both hypotheses always


def test_estimate_error_rate_product_reference():
    sigma = make_sigma("orthogonal-uniform", S64)
    rate = estimate_error_rate(ShotConfig("product", S64, sigma, 200_000, 8), 0.0)
    expected = 0.5 * ((1 - 0.6) + 0.4 / 3.0)
    assert abs(rate - expected) <= 0.004


def test_simulate_rejects_bad_inputs():
    rho = schmidt_state(S64).density
    with pytest.raises(ValidationError):
        simulate(ShotConfig("helstrom", S64, rho, 10, 0))
    with pytest.raises(ValidationError):
        simulate(ShotConfig("t-tilde", S64, BipartiteOperator(2, np.eye(4)), 10, 0))
    with pytest.raises(ValidationError):
        simulate(ShotConfig("t-tilde", S64, rho, 0, 0))
    with pytest.raises(ValidationError):
        simulate(ShotConfig("t-tilde", S532, rho, 10, 0))


def test_make_sigma_families():
    sigma = make_sigma("orthogonal-uniform", S64)
    rho = schmidt_state(S64).density
    assert abs(np.trace(sigma.matrix).real - 1.0) <= 1e-12
    assert abs(np.real(np.trace(sigma.matrix @ rho.matrix))) <= 1e-12
    basis = make_sigma("basis:1,0", S64)
    assert basis.matrix[2, 2] == 1.0
    with pytest.raises(ValidationError):
        make_sigma("basis:9,0", S64)
    with pytest.raises(ValidationError):
        make_sigma("unknown", S64)


def test_worst_case_sigma_matches_adversary_value():
    from loccdetect.analysis import worst_case_value
    from loccdetect.measurements import build_t_tilde

    sigma = make_sigma("worst-case", S64, "t-tilde", 0.2)
    rho = schmidt_state(S64).density
    adv = worst_case_value(build_t_tilde(S64).operator, rho, 0.2)
    res = simulate(ShotConfig("t-tilde", S64, sigma, N, 9))
    assert abs(res.analytic - adv.value) <= 1e-6
    assert abs(res.estimate - res.analytic) <= res.ci_halfwidth


def test_analytic_near_one_is_snapped():
    # Acceptance 1 - 1e-15 prints as 1, so its half width must be 0 too.
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0 - 1e-15
    m[1, 1] = 1e-15
    res = simulate(ShotConfig("r", S64, BipartiteOperator(2, m), 1000, 3))
    assert res.analytic == 1.0
    assert res.ci_halfwidth == 0.0
