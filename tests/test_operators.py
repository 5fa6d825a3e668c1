"""Operator algebra primitives: entry cap, partial transpose, validation, file I/O."""

import json

import numpy as np
import pytest

from loccdetect import operators
from loccdetect.analysis import worst_case_value
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
from loccdetect.measurements import MEASUREMENT_NAMES, build_measurement
from loccdetect.states import make_spectrum, schmidt_state, uniform_spectrum


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
    text = json.dumps({"local_dim": 2, "entries": entries})
    with pytest.raises(ValidationError):
        operator_from_json(text)


def test_operator_json_rejects_wrong_length():
    op = BipartiteOperator(2, np.eye(4))
    text = operator_to_json(op).replace("2", "3", 1)  # corrupt local_dim
    with pytest.raises(ValidationError):
        operator_from_json(text)


def test_operator_json_checks_format_tag():
    doc = json.loads(operator_to_json(BipartiteOperator(2, np.eye(4))))
    del doc["format"]
    assert np.array_equal(operator_from_json(json.dumps(doc)).matrix, np.eye(4))
    doc["format"] = "nonsense"
    with pytest.raises(ValidationError, match="nonsense"):
        operator_from_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# the writer prints the bytes of json.dumps
# ---------------------------------------------------------------------------


def reference_json(t):
    flat = t.matrix.reshape(-1)
    doc = {"format": "bipartite-operator", "local_dim": t.local_dim,
           "entries": np.stack([flat.real, flat.imag], 1).tolist()}
    if t.meta:
        doc["meta"] = t.meta
    return json.dumps(doc)


SPECTRUM_FAMILIES = {
    "dirichlet": lambda d: make_spectrum(
        np.sort(np.random.default_rng(90 + d).dirichlet(np.ones(d)))[::-1], d),
    "uniform": uniform_spectrum,
    "near-product": lambda d: make_spectrum([1.0 - 1e-3 * (d - 1)] + [1e-3] * (d - 1), d),
}


@pytest.mark.parametrize("family", sorted(SPECTRUM_FAMILIES))
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_writer_matches_json_dumps_on_sigma_star(family, d):
    s = SPECTRUM_FAMILIES[family](d)
    state = schmidt_state(s)
    for name in MEASUREMENT_NAMES:
        effect = build_measurement(name, s, mu=0.5).operator
        for theta in (0.0, 1e-15, 0.3, 1.0):
            sigma = worst_case_value(effect, state, theta).sigma_star
            assert operator_to_json(sigma) == reference_json(sigma), (name, theta)


def pairs_operator(d, pairs, meta=None):
    """Operator whose flat entries are zero except the given {index: (re, im)}."""
    flat = np.zeros(d**4, dtype=complex)
    view = flat.view(np.float64).reshape(-1, 2)
    for index, (re, im) in pairs.items():
        view[index] = re, im
    return BipartiteOperator(d, flat.reshape(d * d, d * d), meta=meta or {})


NOTATION_EDGES = [5e-324, -5e-324, 1e16, 9999999999999998.0, 1e-5, 1e-4, -1e16, 0.1]


def writer_cases():
    rng = np.random.default_rng(5)
    dense = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    yield "dense", BipartiteOperator(4, dense)
    yield "dense-meta", BipartiteOperator(4, dense, meta={"origin": "test", "seed": [5, 1e-5]})
    yield "zero", BipartiteOperator(3, np.zeros((9, 9)))
    yield "zero-meta", BipartiteOperator(3, np.zeros((9, 9)), meta={"k": "\u00e9\"q\""})
    yield "negative-zero", pairs_operator(2, {0: (-0.0, 0.0), 1: (0.0, -0.0), 15: (-0.0, -0.0)})
    yield "notation", pairs_operator(
        2, {i: (v, NOTATION_EDGES[-1 - i]) for i, v in enumerate(NOTATION_EDGES)})
    chunk = operators._CHUNK_PAIRS
    assert 2**4 < chunk == 8**4 < 9**4 and 9**4 % chunk
    for d in (2, 8, 9):
        last = d**4 - 1
        ends = {0: (1.5, 0.0), min(chunk - 1, last): (0.0, -2.5), last: (0.25, 0.75)}
        if last >= chunk:
            ends[chunk] = (3.0, 3.0)
        yield f"chunk-ends-{d}", pairs_operator(d, ends)
        yield f"repeats-{d}", pairs_operator(d, {i: (0.5, -0.5) for i in range(0, d**4, 7)})


@pytest.mark.parametrize("label, op", list(writer_cases()))
def test_writer_matches_json_dumps(label, op, tmp_path):
    text = operator_to_json(op)
    assert text == reference_json(op)
    path = tmp_path / "op.json"
    write_operator(op, str(path))
    assert path.read_text(encoding="ascii") == text + "\n"


@pytest.mark.parametrize("chunk", [1, 2, 7, 16, 17])
def test_writer_matches_json_dumps_at_any_chunk_size(chunk, monkeypatch):
    rng = np.random.default_rng(chunk)
    m = rng.standard_normal((16, 16)) * (rng.random((16, 16)) < 0.3)
    op = BipartiteOperator(4, m + 0j, meta={"chunk": chunk})
    monkeypatch.setattr(operators, "_CHUNK_PAIRS", chunk)
    assert operator_to_json(op) == reference_json(op)
