"""Operator algebra primitives: entry cap, partial transpose, validation, file I/O."""

import numpy as np
import pytest

from loccdetect.errors import ContractError, SizeCapError, ValidationError
from loccdetect.operators import (
    BipartiteOperator,
    operator_from_json,
    operator_to_json,
    partial_transpose,
    read_operator,
    validate_povm_element,
    write_operator,
)
from loccdetect.states import make_spectrum, schmidt_state


# ---------------------------------------------------------------------------
# entry cap
# ---------------------------------------------------------------------------


def test_kron_size_cap(monkeypatch):
    # LOCC_SIZE_CAP bounds the entries of every operator matrix, inclusive.
    monkeypatch.setenv("LOCC_SIZE_CAP", "16")
    # d = 2 gives a 4x4 matrix, exactly 16 entries: allowed.
    BipartiteOperator(2, np.eye(4))
    # d = 3 gives 9x9 = 81 entries: refused.
    with pytest.raises(SizeCapError):
        BipartiteOperator(3, np.eye(9))


# ---------------------------------------------------------------------------
# partial transpose
# ---------------------------------------------------------------------------


def test_partial_transpose_identity():
    op = BipartiteOperator(3, np.eye(9))
    np.testing.assert_array_equal(partial_transpose(op).matrix, np.eye(9))


def test_partial_transpose_maximally_entangled():
    rho = schmidt_state(make_spectrum([0.5, 0.5], 2)).density
    values = np.linalg.eigvalsh(partial_transpose(rho).matrix)
    np.testing.assert_allclose(np.sort(values), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert abs(np.abs(values).max() - 0.5) <= 1e-12


def test_partial_transpose_pure_state_norm_is_top_coefficient():
    rho = schmidt_state(make_spectrum([0.6, 0.4], 2)).density
    values = np.linalg.eigvalsh(partial_transpose(rho).matrix)
    # Brute-force spectrum: coefficients and +/- sqrt of their products.
    expected = np.sort([0.6, 0.4, np.sqrt(0.24), -np.sqrt(0.24)])
    np.testing.assert_allclose(np.sort(values), expected, atol=1e-12)
    assert abs(np.abs(values).max() - 0.6) <= 1e-9


@pytest.mark.parametrize("d", [2, 3, 4])
def test_partial_transpose_involution_trace_hermiticity(d):
    rng = np.random.default_rng(d)
    g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    op = BipartiteOperator(d, 0.5 * (g + g.conj().T))
    pt = partial_transpose(op)
    np.testing.assert_array_equal(partial_transpose(pt).matrix, op.matrix)
    assert abs(np.trace(pt.matrix) - np.trace(op.matrix)) <= 1e-12 * abs(np.trace(op.matrix))
    assert np.abs(pt.matrix - pt.matrix.conj().T).max() <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_partial_transpose_norm_equals_lambda_random_spectra(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    s = make_spectrum(np.sort(rng.dirichlet(np.ones(d)))[::-1], d)
    rho = schmidt_state(s).density
    top = np.abs(np.linalg.eigvalsh(partial_transpose(rho).matrix)).max()
    assert abs(top - s.lam) <= 1e-9


# ---------------------------------------------------------------------------
# validate_povm_element
# ---------------------------------------------------------------------------


def test_validate_identity():
    verdict = validate_povm_element(BipartiteOperator(2, np.eye(4)))
    assert verdict.passed and verdict.ppt


def test_validate_t_tilde():
    from loccdetect.measurements import build_measurement

    t = build_measurement("t-tilde", make_spectrum([0.6, 0.4], 2))
    verdict = validate_povm_element(t.operator)
    assert verdict.passed and verdict.ppt


def test_validate_scaled_state_fails():
    rho = schmidt_state(make_spectrum([0.6, 0.4], 2)).density
    verdict = validate_povm_element(BipartiteOperator(2, 2.0 * rho.matrix))
    assert not verdict.passed
    assert abs(verdict.max_eigenvalue - 2.0) <= 1e-9


def test_validate_rejects_non_hermitian():
    m = np.zeros((4, 4))
    m[0, 1] = 1.0
    with pytest.raises(ContractError):
        validate_povm_element(BipartiteOperator(2, m))


# ---------------------------------------------------------------------------
# type invariants and file format
# ---------------------------------------------------------------------------


def test_bipartite_operator_dimension_check():
    with pytest.raises(ValidationError):
        BipartiteOperator(2, np.eye(3))
    with pytest.raises(ValidationError):
        BipartiteOperator(2, np.full((4, 4), np.nan))


def test_operator_file_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    op = BipartiteOperator(3, m, meta={"origin": "test"})
    path = tmp_path / "op.json"
    write_operator(op, str(path))
    back = read_operator(str(path))
    assert back.local_dim == 3
    assert np.array_equal(back.matrix, op.matrix)  # bit-exact
    assert back.meta == {"origin": "test"}


def seeded_operator_with_negative_zero():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    m[0, 0] = complex(-0.0, 1.5)
    m[1, 2] = complex(0.25, -0.0)
    return BipartiteOperator(3, m)


def test_operator_json_matches_per_entry_writer():
    # The array writer prints exactly what a per-entry float() loop prints.
    import json

    op = seeded_operator_with_negative_zero()
    entries = [[float(z.real), float(z.imag)] for z in op.matrix.reshape(-1)]
    expected = json.dumps({"format": "bipartite-operator", "local_dim": 3, "entries": entries})
    assert operator_to_json(op) == expected
    assert "[-0.0, 1.5]" in expected and "[0.25, -0.0]" in expected


def test_operator_json_roundtrip_keeps_signed_zeros():
    op = seeded_operator_with_negative_zero()
    back = operator_from_json(operator_to_json(op))
    assert np.array_equal(back.matrix, op.matrix)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(back.matrix)), np.signbit(part(op.matrix)))


@pytest.mark.parametrize(
    "entries", [[1.0] * 16, [[1.0, 0.0, 0.0]] * 16, [["a", 0.0]] * 16, [[1.0, None]] * 16]
)
def test_operator_json_rejects_malformed_entries(entries):
    import json

    text = json.dumps({"local_dim": 2, "entries": entries})
    with pytest.raises(ValidationError):
        operator_from_json(text)


def test_operator_json_rejects_wrong_length():
    op = BipartiteOperator(2, np.eye(4))
    text = operator_to_json(op).replace("2", "3", 1)  # corrupt local_dim
    with pytest.raises(ValidationError):
        operator_from_json(text)
