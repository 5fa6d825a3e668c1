"""Dense complex operator algebra on a bipartite system C^d (x) C^d.

All operators are stored as dense (d^2, d^2) complex arrays using the flat
index convention ``|i (x) j> -> i*d + j``; every module in the package relies
on that convention.  This module provides the shared primitives: the
operator type with its entry cap, the partial transpose on the first tensor
factor, POVM-element and density-matrix validation and the operator file
format.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, SizeCapError, ValidationError

#: Absolute tolerance below which an operator counts as Hermitian.  Double
#: precision eigensolvers keep well inside this for the dimensions we allow.
HERMITICITY_TOL = 1e-9

#: Eigenvalues above this floor count as nonnegative.
PSD_FLOOR = -1e-10

#: Default cap on the number of entries of any materialized matrix
#: (d = 2, five copies gives a 1024 x 1024 matrix, exactly 2**20 entries).
DEFAULT_ENTRY_CAP = 2**20

ENTRY_CAP_ENV = "LOCC_SIZE_CAP"


def entry_cap() -> int:
    """Current matrix entry cap (``LOCC_SIZE_CAP`` overrides the default)."""
    raw = os.environ.get(ENTRY_CAP_ENV)
    if raw is None:
        return DEFAULT_ENTRY_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValidationError(f"{ENTRY_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise ValidationError(f"{ENTRY_CAP_ENV} must be positive, got {cap}")
    return cap


def _check_entry_cap(dim: int) -> None:
    cap = entry_cap()
    if dim * dim > cap:
        raise SizeCapError(
            f"matrix with {dim}x{dim} = {dim * dim} entries exceeds the cap of {cap} "
            f"(override with {ENTRY_CAP_ENV})"
        )


def as_complex_matrix(m: np.ndarray) -> np.ndarray:
    """Coerce to a square, finite, complex 2-D array."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("matrix contains non-finite entries")
    return arr


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation |M - M^dagger|."""
    return float(np.abs(m - m.conj().T).max())


def require_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL, what: str = "operator") -> None:
    defect = hermiticity_defect(m)
    if defect > tol:
        raise ContractError(f"{what} is not Hermitian: max |M - M^dagger| entry is {defect:.3e}")


@dataclass
class BipartiteOperator:
    """Operator on C^d (x) C^d with the flat index convention i*d + j.

    The matrix is copied and frozen on construction; ``meta`` carries
    provenance such as generator names and seeds for reproducible corpora.
    """

    local_dim: int
    matrix: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        d = self.local_dim
        if not isinstance(d, (int, np.integer)) or d < 2:
            raise ValidationError(f"local_dim must be an integer >= 2, got {d!r}")
        self.local_dim = int(d)
        m = as_complex_matrix(self.matrix)
        if m.shape[0] != d * d:
            raise ValidationError(
                f"matrix dimension {m.shape[0]} does not match local_dim {d} (expected {d * d})"
            )
        _check_entry_cap(m.shape[0])
        m = m.copy()
        m.flags.writeable = False
        self.matrix = m

    @property
    def dim(self) -> int:
        """Total dimension D = d^2."""
        return self.matrix.shape[0]


def partial_transpose(t: BipartiteOperator) -> BipartiteOperator:
    """Transpose the first tensor factor: out[(i,j),(k,l)] = in[(k,j),(i,l)].

    Applying it twice returns the input exactly; hermiticity and trace are
    preserved.
    """
    d = t.local_dim
    m = t.matrix.reshape(d, d, d, d).transpose(2, 1, 0, 3).reshape(d * d, d * d)
    return BipartiteOperator(d, m)


@dataclass
class ValidationVerdict:
    """Outcome of a POVM-element check: 0 <= T <= I plus a PPT flag."""

    passed: bool
    min_eigenvalue: float
    max_eigenvalue: float
    ppt: bool


def validate_povm_element(t: BipartiteOperator, check_ppt: bool = True) -> ValidationVerdict:
    """Check 0 <= T <= I (within PSD_FLOOR) and whether T is PPT.

    ``ppt`` is True iff the partial transpose has smallest eigenvalue
    >= PSD_FLOOR; pass ``check_ppt=False`` to skip that eigensolve when the
    flag is not needed (it is reported as False then).
    """
    require_hermitian(t.matrix, what="POVM element")
    values = np.linalg.eigvalsh(t.matrix)
    lo = float(values[0])
    hi = float(values[-1])
    passed = lo >= PSD_FLOOR and hi <= 1.0 - PSD_FLOOR
    ppt = False
    if check_ppt:
        pt_values = np.linalg.eigvalsh(partial_transpose(t).matrix)
        ppt = bool(pt_values[0] >= PSD_FLOOR)
    return ValidationVerdict(passed=passed, min_eigenvalue=lo, max_eigenvalue=hi, ppt=ppt)


def require_density_matrix(op: BipartiteOperator, what: str = "state") -> None:
    """Contract check: Hermitian, PSD and unit trace within tolerance."""
    require_hermitian(op.matrix, what=what)
    tr = complex(np.trace(op.matrix))
    if abs(tr - 1.0) > 1e-8:
        raise ContractError(f"{what} has trace {tr!r}, expected 1")
    if float(np.linalg.eigvalsh(op.matrix)[0]) < -1e-8:
        raise ContractError(f"{what} is not positive semidefinite")


# ---------------------------------------------------------------------------
# Operator file format
# ---------------------------------------------------------------------------
#
# A JSON document with fields ``local_dim`` and ``entries``, the latter a
# row-major list of [re, im] pairs of length d^4, and an optional ``format``
# tag that must read FILE_FORMAT_TAG when present.  JSON floats use the
# shortest round-tripping decimal representation, so read(write(op)) is
# bit-exact.

FILE_FORMAT_TAG = "bipartite-operator"


def operator_to_json(t: BipartiteOperator) -> str:
    flat = t.matrix.reshape(-1)
    entries = np.stack([flat.real, flat.imag], 1).tolist()
    doc = {"format": FILE_FORMAT_TAG, "local_dim": t.local_dim, "entries": entries}
    if t.meta:
        doc["meta"] = t.meta
    return json.dumps(doc)


def operator_from_json(text: str) -> BipartiteOperator:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"operator file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "local_dim" not in doc or "entries" not in doc:
        raise ValidationError("operator file must contain 'local_dim' and 'entries'")
    if doc.get("format", FILE_FORMAT_TAG) != FILE_FORMAT_TAG:
        raise ValidationError(f"unknown operator file format {doc['format']!r}")
    d = doc["local_dim"]
    entries = doc["entries"]
    if not isinstance(d, int) or d < 2:
        raise ValidationError(f"local_dim must be an integer >= 2, got {d!r}")
    try:
        pairs = np.asarray(entries, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"operator entries must be [re, im] number pairs: {exc}") from exc
    if pairs.shape != (d**4, 2):
        raise ValidationError(
            f"expected {d**4} [re, im] entries for local_dim {d}, got an array of shape {pairs.shape}"
        )
    # A view keeps each part's bits, including the sign of -0.0.
    matrix = pairs.view(complex).reshape(d * d, d * d)
    meta = doc.get("meta", {})
    return BipartiteOperator(d, matrix, meta=meta if isinstance(meta, dict) else {})


def write_operator(t: BipartiteOperator, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(operator_to_json(t))
        fh.write("\n")


def read_operator(path: str) -> BipartiteOperator:
    with open(path, "r", encoding="ascii") as fh:
        return operator_from_json(fh.read())
