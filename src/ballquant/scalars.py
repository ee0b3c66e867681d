"""Exact scalar types and the sparse sums built on them.

Rational scalars are plain ``fractions.Fraction``.  Gaussian rationals
(rational real and imaginary parts) carry the complex matrix entries of
the pseudo-unitary model before everything is realified into rational
structure constants; both are falsy exactly when zero.

SparseSum is the ring arithmetic shared by the chart functions of
formal_star and the radial coefficients of retract_pde: a finite sum of
monomials keyed by exponent tuples, added with cancellation and
multiplied by adding exponents.  accumulate adds items into one term
dict in place, so a long sum of products (an operator applied to a
series, a transvection contraction) fills one dict instead of copying
the partial sum once per summand.

resolve_truncation_order reads the nu truncation order that every series
check takes, from its argument or BALLQUANT_TRUNCATION_ORDER; it lives
here so that the radial calculus and the CLI read it without loading
the chart (ball_quantization re-exports it).
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

TRUNCATION_ENV = "BALLQUANT_TRUNCATION_ORDER"
DEFAULT_TRUNCATION = 12


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s) -> Fraction:
    """An exact rational from a string such as "-3/4" or "0.1", or from an
    int; a float or a bool is refused, since its value is not exact, and
    so is a zero denominator."""
    if isinstance(s, str) or type(s) is int:
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"{s!r} has a zero denominator") from None
    raise ValueError(f"expected a rational as a string or an int, got {s!r}")


class TruncationOrderError(ValueError):
    """A truncation order that is not a non-negative integer."""


def resolve_truncation_order(order: int | None) -> int:
    """The given order, else BALLQUANT_TRUNCATION_ORDER, else 12; raises
    TruncationOrderError naming the source unless it is an integer >= 0
    (a bool is not)."""
    source = "the order argument"
    if order is None:
        source = TRUNCATION_ENV
        raw = os.environ.get(TRUNCATION_ENV, str(DEFAULT_TRUNCATION))
        try:
            order = int(raw)
        except ValueError:
            order = raw
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise TruncationOrderError(
            f"truncation order from {source} must be a non-negative integer, got {order!r}"
        )
    return order


def shaped(value, kind: type, what: str):
    """value when it is a kind (dict, or list, which also takes a tuple),
    else ValueError naming what: importers check each container they
    read before they index it."""
    if not isinstance(value, (list, tuple) if kind is list else kind):
        raise ValueError(f"{what} must be a {kind.__name__}, got {value!r}")
    return value


def keyed(data, what: str, *keys) -> list:
    """The values of keys in data, which must be a dict holding each of
    them, else ValueError naming what and the first key missing."""
    shaped(data, dict, what)
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} needs the key {key!r}")
    return [data[key] for key in keys]


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
        """The product; a purely real or purely imaginary factor takes two
        Fraction products instead of four."""
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b:
            return other.scale(a)
        if not d:
            return self.scale(c)
        if not a:
            return GScalar(-b * d, b * c)
        if not c:
            return GScalar(-b * d, a * d)
        return GScalar(a * c - b * d, a * d + b * c)

    def conj(self) -> "GScalar":
        return GScalar(self.re, -self.im)

    def scale(self, c: Fraction) -> "GScalar":
        """The product with a rational; a zero part stays as it is and a
        unit factor returns self."""
        if c == 1:
            return self
        re, im = self.re, self.im
        return GScalar(re * c if re else re, im * c if im else im)

    def __bool__(self) -> bool:
        return bool(self.re or self.im)


G_ZERO = GScalar.of(0, 0)


def accumulate(out: dict, items) -> dict:
    """Sum (key, value) items by key into out, in place, and return it; a
    key whose sum is zero is dropped."""
    for key, v in items:
        s = out.get(key)
        s = v if s is None else s + v
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def collect(items, into=None) -> dict:
    """Sum (key, value) items by key onto a copy of into; a key whose sum
    is zero is dropped."""
    return accumulate(dict(into or {}), items)


class SparseSum:
    """A finite sum of monomials: terms maps an exponent key to a nonzero
    coefficient.  Subclasses say how to build an instance from terms
    (_new) and how exponents combine under multiplication (_key_mul)."""

    terms: dict

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other):
        if not self.terms:
            return other
        return self._new(collect(other.terms.items(), self.terms))

    def neg(self):
        return self._new({key: -c for key, c in self.terms.items()})

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, c):
        return self._new({key: v * c for key, v in self.terms.items()} if c else {})

    def mul_items(self, other, c=None):
        """The (key, coefficient) items of c * self * other, like terms not
        yet collected; pass them to accumulate to add the product in place."""
        key_mul = self._key_mul
        left = self.terms.items() if c is None else [(k, v * c) for k, v in self.terms.items()]
        right = other.terms.items()
        return ((key_mul(k1, k2), c1 * c2) for k1, c1 in left for k2, c2 in right)

    def mul(self, other):
        return self._new(collect(self.mul_items(other)))
