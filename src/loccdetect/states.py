"""Schmidt-form pure states and their derived overlap parameters."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .operators import BipartiteOperator


@dataclass
class SchmidtSpectrum:
    """Descending Schmidt coefficients of a bipartite pure state.

    ``lam`` is the largest coefficient, ``alpha = sqrt(coeffs[1]/coeffs[0])``
    the root ratio of the top two, and ``beta = (1 + alpha^2)/2``; so
    ``lam * alpha`` is the geometric mean of the two largest coefficients and
    ``lam * beta`` their arithmetic mean.  A product state has alpha = 0 and
    beta = 1/2.
    """

    coeffs: np.ndarray

    @property
    def d(self) -> int:
        return len(self.coeffs)

    @property
    def lam(self) -> float:
        return float(self.coeffs[0])

    @property
    def alpha(self) -> float:
        if self.coeffs[1] <= 0.0:
            return 0.0
        return float(np.sqrt(self.coeffs[1] / self.coeffs[0]))

    @property
    def beta(self) -> float:
        return 0.5 * (1.0 + self.alpha**2)

    def is_uniform(self, tol: float = 1e-12) -> bool:
        return float(self.coeffs[0] - self.coeffs[-1]) <= tol


def make_spectrum(raw, d: int) -> SchmidtSpectrum:
    """Validate, sort descending and renormalize a coefficient list.

    Inputs may arrive unsorted; the descending order defines the Schmidt
    basis, so sorting is centralized here.  Entries below -1e-12, a wrong
    length, or a sum off by more than 1e-9 are rejected rather than silently
    normalized.
    """
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise ValidationError(f"local dimension must be an integer >= 2, got {d!r}")
    coeffs = np.asarray(raw, dtype=float)
    if coeffs.ndim != 1 or len(coeffs) != d:
        raise ValidationError(f"expected {d} coefficients, got shape {coeffs.shape}")
    if not np.all(np.isfinite(coeffs)):
        raise ValidationError("coefficients must be finite")
    if coeffs.min() < -1e-12:
        raise ValidationError(f"negative coefficient {coeffs.min():.3e} beyond tolerance")
    total = float(coeffs.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"coefficients sum to {total!r}, expected 1 within 1e-9")
    coeffs = np.clip(coeffs, 0.0, None)
    coeffs = np.sort(coeffs)[::-1]
    coeffs = coeffs / coeffs.sum()
    coeffs.flags.writeable = False
    spectrum = SchmidtSpectrum(coeffs)
    # Guaranteed by descending order and unit sum; kept as a cheap guard.
    if spectrum.lam * (1.0 + spectrum.alpha**2) > 1.0 + 1e-12:
        raise ValidationError("top two coefficients exceed the unit sum")
    return spectrum


def uniform_spectrum(d: int) -> SchmidtSpectrum:
    """Spectrum of the maximally entangled state, every coefficient 1/d."""
    return make_spectrum(np.full(d, 1.0 / d), d)


@dataclass
class PureState:
    """A Schmidt-form pure state: unit ket and its rank-one density matrix."""

    spectrum: SchmidtSpectrum
    ket: np.ndarray
    density: BipartiteOperator


def schmidt_state(s: SchmidtSpectrum) -> PureState:
    """Build the pure state with amplitude sqrt(coeffs[i]) on |i (x) i>."""
    d = s.d
    ket = np.zeros(d * d, dtype=complex)
    ket[np.arange(d) * (d + 1)] = np.sqrt(s.coeffs)
    density = BipartiteOperator(d, np.outer(ket, ket.conj()))
    return PureState(spectrum=s, ket=ket, density=density)


def tensor_power_spectrum(s: SchmidtSpectrum, n: int) -> SchmidtSpectrum:
    """Schmidt spectrum of n identical copies: all d^n coefficient products.

    The top coefficient is lam^n and, for alpha > 0, the second largest is
    lam^n * alpha^2.  Enumeration is bounded only by memory (d^n values);
    matrix realizations of the result remain subject to the entry cap.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValidationError(f"copy count must be an integer >= 1, got {n!r}")
    products = s.coeffs
    for _ in range(int(n) - 1):
        products = np.multiply.outer(products, s.coeffs).reshape(-1)
    return make_spectrum(products, len(products))

