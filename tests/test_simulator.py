"""Shot-level protocol simulation: unbiasedness, determinism, twirl effect."""

import numpy as np
import pytest

from loccdetect import simulator
from loccdetect.errors import ValidationError
from loccdetect.measurements import build_measurement, build_q0, fourier_basis, matched_vectors
from loccdetect.operators import BipartiteOperator
from loccdetect.simulator import (
    SIMULATABLE,
    ShotConfig,
    make_sigma,
    simulate,
)
from loccdetect.states import make_spectrum, schmidt_state
from loccdetect.twirl import twirl_unitary_diagonals

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

    sigma = make_sigma("worst-case", S64, "t-tilde", 0.2)
    rho = schmidt_state(S64).density
    adv = worst_case_value(build_measurement("t-tilde", S64).operator, rho, 0.2)
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


# ---------------------------------------------------------------------------
# The exact outcome law behind the sampler
# ---------------------------------------------------------------------------


def cell_probabilities(cums):
    # _sample_1d and _sample_rows give index j the mass cum[j] - cum[j - 1],
    # and the last index everything above cum[-2].
    n = cums.shape[:-1]
    return np.diff(np.concatenate([np.zeros(n + (1,)), cums[..., :-1], np.ones(n + (1,))], -1), axis=-1)


def fourier_acceptance(cums, conds):
    return float(np.mean(np.sum(cell_probabilities(cums) * conds, axis=-1)))


def law_acceptance(tables, d):
    """Sum over the sampler's cells of P(cell) P(accept | cell)."""
    if tables.product is not None:
        alice0, cond00 = tables.product
        return alice0 * cond00
    if tables.cums is not None:
        q = fourier_acceptance(tables.cums, tables.conds)
        if tables.swapped is not None:
            q = 0.5 * (q + fourier_acceptance(*tables.swapped))
    r = None
    if tables.matched_cum is not None:
        r = float(cell_probabilities(tables.matched_cum)[:: d + 1].sum())
    if tables.mu is None:
        return q if r is None else r
    return tables.mu * r + (1.0 - tables.mu) * q


def random_rank3_state(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d * d, 3)) + 1j * rng.standard_normal((d * d, 3))
    m = g @ g.conj().T
    return BipartiteOperator(d, m / np.trace(m).real)


def law_spectrum(d):
    return make_spectrum(np.sort(np.random.default_rng(80 + d).dirichlet(np.ones(d)))[::-1], d)


def law_states(name, s):
    """The states the sampler's outcome law is checked on."""
    return [
        make_sigma("orthogonal-uniform", s),
        make_sigma("basis:0,1", s),
        make_sigma("worst-case", s, name, 0.0),
        make_sigma("worst-case", s, name, 0.3),
        random_rank3_state(s.d, 90 + s.d),
    ]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("name", SIMULATABLE)
def test_outcome_tables_give_exact_acceptance(name, d):
    s = law_spectrum(d)
    effect = build_measurement(name, s)
    for sigma in law_states(name, s):
        tables = simulator._outcome_tables(name, sigma.matrix, s, effect.mu)
        exact = float(np.real(np.trace(effect.operator.matrix @ sigma.matrix)))
        assert abs(law_acceptance(tables, d) - exact) <= 1e-12


def alice_born(sigma, y):
    """Tr[(|y><y| (x) I) sigma], from the full state."""
    d = len(y)
    return float(np.real(np.trace(np.kron(np.outer(y, y.conj()), np.eye(d)) @ sigma)))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("name", SIMULATABLE)
def test_outcome_tables_give_alice_born_marginals(name, d):
    # Alice's cells against her Born probabilities for y_j = w * phi_j, with
    # w the diagonal of context row k p + l (all ones for q0).  A wrong
    # marginal cancels in the acceptance sum, so it is checked on its own.
    s = law_spectrum(d)
    phi = fourier_basis(d)
    p, z, u = twirl_unitary_diagonals(d)
    if name == "q0":
        rotations = np.ones((1, d))
    else:
        rotations = np.array([u**k * z**l for k in range(p) for l in range(p)])
    swap = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            swap[j * d + i, i * d + j] = 1.0
    mu = build_measurement(name, s).mu
    for sigma in law_states(name, s):
        m = sigma.matrix
        tables = simulator._outcome_tables(name, m, s, mu)
        if name == "r":
            cells = cell_probabilities(tables.matched_cum)
            assert np.abs(cells - np.real(np.diag(m))).max() <= 1e-12
            continue
        if name == "product":
            assert abs(tables.product[0] - alice_born(m, np.eye(d)[0])) <= 1e-12
            continue
        contexts = [(tables.cums, m)]
        if name == "t-tilde2":
            contexts.append((tables.swapped[0], swap @ m @ swap))
        for cums, state in contexts:
            cells = cell_probabilities(cums)
            for row, w in enumerate(rotations):
                born = [alice_born(state, w * phi[:, j]) for j in range(d)]
                assert np.abs(cells[row] - born).max() <= 1e-12, row


@pytest.mark.parametrize("d", [2, 3, 4])
def test_twirled_contexts_match_per_rotation_loop(d):
    # Reference: rotate sigma explicitly and read each context off one
    # product vector per Alice outcome, the loop the per-rotation product
    # replaces.
    s = make_spectrum(np.sort(np.random.default_rng(60 + d).dirichlet(np.ones(d)))[::-1], d)
    sigma = random_rank3_state(d, 61 + d).matrix
    p, cums, conds = simulator._twirled_contexts(sigma, d, s)
    phi, xi = fourier_basis(d), matched_vectors(s)
    _, z, u = twirl_unitary_diagonals(d)
    for k in range(p):
        for l in range(p):
            v = np.kron(u**k * z**l, (u**k * z**l).conj())
            rotated = v.conj()[:, None] * sigma * v[None, :]
            alice = np.trace(rotated.reshape(d, d, d, d), axis1=1, axis2=3)
            marginal = np.real(np.einsum("aj,ac,cj->j", phi.conj(), alice, phi))
            joint = np.array(
                [np.real(np.vdot(np.kron(phi[:, j], xi[:, j]), rotated @ np.kron(phi[:, j], xi[:, j])))
                 for j in range(d)]
            )
            row = k * p + l
            assert np.abs(cums[row] - np.cumsum(marginal) / marginal.sum()).max() <= 1e-13
            assert np.abs(conds[row] - np.clip(joint / marginal, 0.0, 1.0)).max() <= 1e-12


@pytest.mark.parametrize(
    "name,accepts",
    [("t-tilde2", 12801), ("t-tilde", 12817), ("q", 12620), ("q0", 12357), ("r", 12488),
     ("product", 3091)],
)
def test_multi_batch_tally_is_pinned(name, accepts):
    # 50 000 shots span four batches; each batch's stream is a child of the
    # root seed, spawned in order, so the tally is fixed bit for bit.
    s = make_spectrum([0.5, 0.3, 0.2], 3)
    sigma = make_sigma("orthogonal-uniform", s)
    assert simulate(ShotConfig(name, s, sigma, 50_000, 2024)).accepts == accepts
