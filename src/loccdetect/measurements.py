"""Constructions of the detection measurements for a Schmidt-form state.

``build_measurement`` returns the accept effect T of a two-outcome
measurement {T, I - T}.  Canonical names follow the CLI strings:

* ``q0``       Fourier measurement on Alice, matched rank-one test on Bob.
* ``q``        twirl of q0; closed form rho + sum_{i != j} lam_j |ij><ij|.
* ``r``        projection onto the matched basis span{|k (x) k>}.
* ``t-tilde``  mu R + (1 - mu) Q at the optimal mu = lam / (1 + lam).
* ``t-mu``     the same mixture at a caller-chosen mu.
* ``q2``       swap-symmetrized q, (Q + S Q S) / 2.
* ``t-tilde2`` mixture of R and q2 at mu = lam beta / (1 + lam beta).
* ``product``  projection onto |0 (x) 0> (nonzero type-1 error).
* ``helstrom`` projection onto the state itself (global baseline, not LOCC).

Only ``q0`` is built as a sum of product projectors.  The phase twirl fixes
every other name, so each is its matched block A and off-span weights b
(``twirl.ABDecomposition``), written down in closed form by
``_invariant_form`` and densified once by ``reassemble()``.  The paper's
identities behind the closed forms (the twirl of q0 is q, the off-state
norms of the mixtures) are checked in the tests, not on each call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .operators import BipartiteOperator
from .states import SchmidtSpectrum
from .twirl import ABDecomposition

MEASUREMENT_NAMES = ("q0", "q", "r", "t-mu", "t-tilde", "q2", "t-tilde2", "product", "helstrom")


@dataclass
class NamedMeasurement:
    """Accept effect of a named two-outcome measurement."""

    name: str
    operator: BipartiteOperator
    mu: float | None = None


def fourier_basis(d: int) -> np.ndarray:
    """Columns |phi_j> = d^{-1/2} sum_k w^{jk} |k>, w = exp(2 pi i / d)."""
    omega = np.exp(2j * np.pi / d)
    k = np.arange(d)
    return omega ** np.outer(k, k) / np.sqrt(d)


def matched_vectors(s: SchmidtSpectrum) -> np.ndarray:
    """Columns |xi_j> = sum_k w^{-jk} sqrt(coeffs[k]) |k>; each has unit norm."""
    d = s.d
    omega = np.exp(2j * np.pi / d)
    k = np.arange(d)
    return (omega ** (-np.outer(k, k))) * np.sqrt(s.coeffs)[:, None]


def build_q0(s: SchmidtSpectrum) -> NamedMeasurement:
    """Alice measures the Fourier basis; on outcome j Bob projects onto xi_j.

    Accepts the target state with certainty, and any alternative supported on
    the matched span scores exactly its overlap with the target.
    """
    d = s.d
    phi = fourier_basis(d)
    xi = matched_vectors(s)
    op = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        op += np.kron(np.outer(phi[:, j], phi[:, j].conj()), np.outer(xi[:, j], xi[:, j].conj()))
    return NamedMeasurement("q0", BipartiteOperator(d, op))


def _invariant_form(
    name: str, s: SchmidtSpectrum, mu: float | None
) -> tuple[ABDecomposition, float | None]:
    """Matched block A, off-span weights b and mixture weight of an invariant name.

    With r = sqrt(coeffs) and P = r r^T (the target's matched block), and b_ij
    for i != j (b has a zero diagonal):

    ==========================  ===================  =========================
    name                        A                    b_ij
    ==========================  ===================  =========================
    ``q``                       P                    c_j
    ``r``                       I                    0
    ``t-mu``, ``t-tilde``       mu I + (1 - mu) P    (1 - mu) c_j
    ``q2``                      P                    (c_i + c_j) / 2
    ``t-tilde2``                mu I + (1 - mu) P    (1 - mu) (c_i + c_j) / 2
    ``product``                 e_0 e_0^T            0
    ``helstrom``                P                    0
    ==========================  ===================  =========================

    ``t-tilde`` takes mu = lam / (1 + lam), which equalizes the off-state
    eigenvalues mu and (1 - mu) lam; ``t-tilde2`` takes mu = lam beta /
    (1 + lam beta), which makes its off-state norm mu.  ``q2`` is q averaged
    with its party-swapped copy, so it needs communication both ways.
    """
    d = s.d
    c = s.coeffs
    root = np.sqrt(c)
    p = np.outer(root, root)
    eye = np.eye(d)
    off = ~np.eye(d, dtype=bool)
    one_way = np.where(off, c[None, :], 0.0)
    two_way = np.where(off, 0.5 * (c[:, None] + c[None, :]), 0.0)
    if name == "q":
        return ABDecomposition(p, one_way), None
    if name == "r":
        return ABDecomposition(eye, np.zeros((d, d))), None
    if name in ("t-mu", "t-tilde"):
        if name == "t-tilde":
            mu = s.lam / (1.0 + s.lam)
        elif mu is None:
            raise ValidationError("measurement t-mu requires an explicit mu")
        if not 0.0 <= mu <= 1.0:
            raise ValidationError(f"mu must lie in [0, 1], got {mu!r}")
        return ABDecomposition(mu * eye + (1.0 - mu) * p, (1.0 - mu) * one_way), float(mu)
    if name == "q2":
        return ABDecomposition(p, two_way), None
    if name == "t-tilde2":
        lb = s.lam * s.beta
        mu = lb / (1.0 + lb)
        return ABDecomposition(mu * eye + (1.0 - mu) * p, (1.0 - mu) * two_way), float(mu)
    if name == "product":
        e0 = np.zeros((d, d))
        e0[0, 0] = 1.0
        return ABDecomposition(e0, np.zeros((d, d))), None
    if name == "helstrom":
        return ABDecomposition(p, np.zeros((d, d))), None
    raise ValidationError(f"unknown measurement {name!r}; choose from {MEASUREMENT_NAMES}")


def build_measurement(name: str, s: SchmidtSpectrum, mu: float | None = None) -> NamedMeasurement:
    """Accept effect of a named measurement; ``mu`` is read only by ``t-mu``."""
    if name == "q0":
        return build_q0(s)
    form, weight = _invariant_form(name, s, mu)
    return NamedMeasurement(name, BipartiteOperator(s.d, form.reassemble()), mu=weight)
