"""Exact scalar types and the sparse sums built on them.

Rational scalars are plain ``fractions.Fraction``.  Gaussian rationals
(GScalar) carry the complex matrix entries of the pseudo-unitary model
before everything is realified into rational structure constants, and
the coefficients of the radial calculus.  A GScalar is one integer
triple (a, b, d) for (a + b i) / d, with d > 0 and gcd(a, b, d) = 1:
each sum or product is a few int operations and one gcd, equal values
are equal triples and zero has one form, and re and im read the parts
back as exact Fractions.  Both kinds are falsy exactly when zero.

SparseSum is the ring arithmetic shared by the chart functions of
formal_star and the radial coefficients of retract_pde: a finite sum of
monomials keyed by exponent tuples, added with cancellation and
multiplied by adding exponents.  accumulate adds items into one term
dict in place, so a long sum of products (an operator applied to a
series, a transvection contraction) fills one dict instead of copying
the partial sum once per summand.

resolve_truncation_order checks the nu truncation order that every
series check takes, 12 when the call passes none; it lives here so that
the radial calculus reads it without loading the chart
(ball_quantization re-exports it).
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

TRUNCATION_ENV = "BALLQUANT_TRUNCATION_ORDER"  # read by no module; kept for the benchmark
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


def exact(x, what: str) -> Fraction:
    """x as a Fraction when it is an int or a Fraction; anything else,
    a bool or a float included, raises TypeError naming what, since a
    binary float is not the rational it was written as."""
    if type(x) is bool or not isinstance(x, (int, Fraction)):
        raise TypeError(f"{what} must be an int or a Fraction, got {x!r}")
    return Fraction(x)


class TruncationOrderError(ValueError):
    """A truncation order that is not a non-negative integer."""


def resolve_truncation_order(order: int | None) -> int:
    """The given order, or DEFAULT_TRUNCATION (12) for None; raises
    TruncationOrderError unless it is an integer >= 0 (a bool is not)."""
    if order is None:
        return DEFAULT_TRUNCATION
    if not isinstance(order, int) or isinstance(order, bool) or order < 0:
        raise TruncationOrderError(
            f"truncation order must be a non-negative integer, got {order!r}"
        )
    return order


def shaped(value, kind: type, what: str):
    """value when it is a kind (dict, or list, which also takes a tuple),
    else ValueError naming what: importers check each container they
    read before they index it."""
    if not isinstance(value, (list, tuple) if kind is list else kind):
        raise ValueError(f"{what} must be a {kind.__name__}, got {value!r}")
    return value


def decimal_index(key, what: str) -> int:
    """The int that the string key writes as to_json does, str(int(key)),
    else ValueError naming what and the key: "1_0", " 2" or "+3" are
    refused rather than read as 10, 2 and 3."""
    if type(key) is str:
        try:
            if str(i := int(key)) == key:
                return i
        except ValueError:
            pass
    raise ValueError(f"{what} must be an index written in decimal, got {key!r}")


def keyed(data, what: str, *keys) -> list:
    """The values of keys in data, which must be a dict holding each of
    them, else ValueError naming what and the first key missing."""
    shaped(data, dict, what)
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} needs the key {key!r}")
    return [data[key] for key in keys]


class GScalar(tuple):
    """A Gaussian rational (a + b i) / d, held as the integer triple
    (a, b, d) with d > 0 and gcd(a, b, d) = 1, so equal values are equal
    triples and zero is (0, 0, 1).  GScalar(re, im) takes ints or
    Fractions, a bool or a float raising TypeError as scalars.exact
    does, and re and im read the parts back as Fractions.

    Each operation costs a few int operations and one gcd.  The triple is
    a tuple for speed, but a value mixes only with GScalars: an int or
    tuple operand raises TypeError, never equals a value, and no value
    is ordered.
    """

    __slots__ = ()

    def __new__(cls, re, im) -> "GScalar":
        re, im = exact(re, "a GScalar's real part"), exact(im, "a GScalar's imaginary part")
        p, q = re.denominator, im.denominator
        return _normal(re.numerator * q, im.numerator * p, p * q)

    @staticmethod
    def of(re=0, im=0) -> "GScalar":
        return GScalar(re, im)

    @property
    def re(self) -> Fraction:
        return Fraction(self[0], self[2])

    @property
    def im(self) -> Fraction:
        return Fraction(self[1], self[2])

    def __add__(self, other: "GScalar") -> "GScalar":
        if type(other) is not GScalar:
            self._refuse(other)
        (a, b, d), (c, e, f) = self, other
        return _normal(a * f + c * d, b * f + e * d, d * f)

    def __sub__(self, other: "GScalar") -> "GScalar":
        return self + -other

    def __neg__(self) -> "GScalar":
        a, b, d = self
        return _new(GScalar, (-a, -b, d))

    def __mul__(self, other: "GScalar") -> "GScalar":
        if type(other) is not GScalar:
            self._refuse(other)
        (a, b, d), (c, e, f) = self, other
        return _normal(a * c - b * e, a * e + b * c, d * f)

    def conj(self) -> "GScalar":
        a, b, d = self
        return _new(GScalar, (a, -b, d))

    def scale(self, c) -> "GScalar":
        """The product with an int or a Fraction; a unit factor returns
        self."""
        p, q = c.numerator, c.denominator
        if p == q:
            return self
        a, b, d = self
        return _normal(a * p, b * p, d * q)

    def __bool__(self) -> bool:
        return bool(self[0] or self[1])

    def __eq__(self, other) -> bool:
        return type(other) is GScalar and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self == other

    __hash__ = tuple.__hash__

    def _refuse(self, other):
        raise TypeError(f"a GScalar combines only with a GScalar, not with {other!r}")

    # A tuple would concatenate, repeat or order where a GScalar refuses.
    __radd__ = __rmul__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse

    def __getnewargs__(self) -> tuple:
        return self.re, self.im

    def __repr__(self) -> str:
        return f"GScalar(re={self.re!r}, im={self.im!r})"


_new = tuple.__new__


def _normal(a: int, b: int, d: int) -> GScalar:
    """(a + b i) / d for d > 0, with the common factor divided out."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _new(GScalar, (a, b, d))


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
