"""Dense univariate polynomials with exact rational coefficients.

Coefficients are stored lowest degree first in an immutable tuple with no
trailing zeros, so equal polynomials compare equal structurally.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable


def _strip(coeffs):
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return coeffs[:n]


class Polynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        self.coeffs = _strip(tuple(Fraction(c) for c in coeffs))

    @classmethod
    def _trusted(cls, coeffs: tuple) -> "Polynomial":
        """A polynomial from a tuple of Fractions with a nonzero last entry.
        The results of +, -, negation, scale, * and times_t are built this way."""
        poly = object.__new__(cls)
        poly.coeffs = coeffs
        return poly

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1,))

    @classmethod
    def t(cls) -> "Polynomial":
        """The identity polynomial p(t) = t."""
        return cls((0, 1))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def padded(self, length: int) -> tuple:
        """Coefficients extended with zeros up to the given length."""
        pad = length - len(self.coeffs)
        return self.coeffs + (Fraction(0),) * max(0, pad)

    def times_t(self) -> "Polynomial":
        """Multiply by t (shift all coefficients up one degree)."""
        if self.is_zero:
            return self
        return Polynomial._trusted((Fraction(0),) + self.coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        pairs = zip(self.padded(n), other.padded(n))
        return Polynomial._trusted(_strip(tuple(a + b for a, b in pairs)))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        pairs = zip(self.padded(n), other.padded(n))
        return Polynomial._trusted(_strip(tuple(a - b for a, b in pairs)))

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(tuple(-c for c in self.coeffs))

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial._trusted(_strip(tuple(c * a for a in self.coeffs)))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        # Schoolbook convolution; this is the ground-truth product the
        # brute-force cross checks rely on.
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial._trusted(_strip(tuple(out)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"
