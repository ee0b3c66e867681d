"""Exact scalar types.

Rational scalars are plain ``fractions.Fraction``.  Gaussian rationals
(rational real and imaginary parts) carry the complex matrix entries of
the pseudo-unitary model before everything is realified into rational
structure constants.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s: str) -> Fraction:
    return Fraction(s)


@dataclass(frozen=True)
class GScalar:
    """A Gaussian rational re + im*i with exact Fraction parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re=0, im=0) -> "GScalar":
        return GScalar(Fraction(re), Fraction(im))

    def __add__(self, other: "GScalar") -> "GScalar":
        return GScalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GScalar") -> "GScalar":
        return GScalar(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GScalar":
        return GScalar(-self.re, -self.im)

    def __mul__(self, other: "GScalar") -> "GScalar":
        return GScalar(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self) -> "GScalar":
        return GScalar(self.re, -self.im)

    def scale(self, c: Fraction) -> "GScalar":
        return GScalar(self.re * c, self.im * c)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0


G_ZERO = GScalar.of(0, 0)
