"""Exact scalar types and the sparse sums built on them.

Rational scalars are plain ``fractions.Fraction``.  Gaussian rationals
(GScalar) are the coefficients of the radial calculus; the matrix
entries of the pseudo-unitary model are Gaussian integers, int pairs
(su1n_model).  A GScalar is one integer triple (a, b, d) for
(a + b i) / d, with d > 0 and gcd(a, b, d) = 1: each sum or product is a
few int operations and one gcd, equal values are equal triples and zero
has one form, and re and im read the parts back as exact Fractions.
Both kinds are falsy exactly when zero.

SparseSum is the ring arithmetic shared by the chart functions of
formal_star and the radial coefficients of retract_pde: a finite sum of
monomials keyed by their exponents (a tuple, or one packed int for the
chart functions), added with cancellation and multiplied by adding
exponents.  SparseSum.mul_into sums a product straight into one term
dict, so a long sum of products (an operator applied to a series, a
transvection contraction) fills one dict instead of copying the partial
sum once per summand; accumulate does the same for (key, value) items.

resolve_truncation_order checks the nu truncation order that every
series check takes, 12 when the call passes none; it lives here so that
the radial calculus reads it without loading the chart
(ball_quantization re-exports it).  Record, the base of the package's
records, and kept, the one way an attribute is taken on first use and
kept, are here since every module imports this one.
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd

TRUNCATION_ENV = "BALLQUANT_TRUNCATION_ORDER"  # read by no module; kept for the benchmark
DEFAULT_TRUNCATION = 12
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
# The longest string parse_frac reads: reading and normalising one of
# this length takes a fraction of a second, and the longest coefficient
# a CLI export writes, alpha^2 for an --alpha of one full argument
# (131072 bytes on Linux), stays below it.
LITERAL_LENGTH = 300_000


def frac_str(x: Fraction) -> str:
    return f"{_digits(x.numerator)}/{_digits(x.denominator)}"


def _digits(n: int) -> str:
    """str(n) for an int of any size.  Past sys.get_int_max_str_digits()
    str refuses, so n is written in chunks of 600 digits, below 640, the
    least limit Python allows."""
    try:
        return str(n)
    except ValueError:
        pass
    sign, n, chunks = "-" * (n < 0), abs(n), []
    while n:
        n, r = divmod(n, 10**600)
        chunks.append(r)
    return sign + str(chunks.pop()) + "".join(f"{r:0600d}" for r in reversed(chunks))


def parse_frac(s) -> Fraction:
    """An exact rational from a string such as "-3/4", "0.1" or "1e5", or
    from an int; a float or a bool is refused, since its value is not
    exact, and so is a zero denominator.

    A string longer than LITERAL_LENGTH characters is refused.  Within
    that, an integer or "n/d" literal is read whole however many digits
    it has (_read_digits), so every rational frac_str writes reads back.
    Other forms go through Fraction, which refuses more digits than
    sys.get_int_max_str_digits(); an exponent larger in magnitude than
    that bound is refused before Fraction computes 10 to that power,
    seconds at "1e10000000" and faster-growing beyond."""
    if isinstance(s, str) or type(s) is int:
        if isinstance(s, str):
            if len(s) > LITERAL_LENGTH:
                raise ValueError(f"a rational of {len(s)} characters is past {LITERAL_LENGTH}")
            body = s.strip()
            sign = body[0] if body.startswith(("+", "-")) else ""
            num, slash, den = body[len(sign) :].partition("/")
            if num.isdecimal() and (den.isdecimal() or not slash):
                n, d = _read_digits(num), _read_digits(den) if slash else 1
                if not d:
                    raise ValueError(f"{s!r} has a zero denominator")
                return Fraction(-n if sign == "-" else n, d)
            if m := _EXPONENT.search(s):
                limit = sys.get_int_max_str_digits()
                if limit and abs(int(m.group(1))) > limit:
                    raise ValueError(f"{s!r} has an exponent beyond {limit} in magnitude")
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ValueError(f"{s!r} has a zero denominator") from None
    raise ValueError(f"expected a rational as a string or an int, got {s!r}")


def _read_digits(digits: str) -> int:
    """int(digits) for a string of decimal digits of any length: past 600
    digits, below 640, the least limit Python allows int(), each half is
    read on its own and the two are joined, so LITERAL_LENGTH digits take
    a fraction of a second rather than the quadratic time of reading 600
    at a time."""
    if len(digits) <= 600:
        return int(digits)
    half = len(digits) // 2
    return _read_digits(digits[:half]) * 10 ** (len(digits) - half) + _read_digits(digits[half:])


def exact(x, what: str) -> Fraction:
    """x as a Fraction when it is an int or a Fraction; anything else,
    a bool or a float included, raises TypeError naming what, since a
    binary float is not the rational it was written as."""
    if type(x) is bool or not isinstance(x, (int, Fraction)):
        raise TypeError(f"{what} must be an int or a Fraction, got {x!r}")
    return Fraction(x)


class Record:
    """Fields are the class's own annotations, a class attribute the
    default; a record equals one of its class with equal fields (so is
    unhashable) and prints as Name(field=value, ...).  frozen=True refuses
    to set or delete attributes, eq=False keeps identity eq and hash."""

    def __init_subclass__(cls, frozen: bool = False, eq: bool = True):
        cls._fields = tuple(vars(cls).get("__annotations__", ()))
        if frozen:
            cls.__setattr__ = cls.__delattr__ = cls._refuse_change
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *args, **kwargs):
        cls, fields = type(self), self._fields
        given = dict(zip(fields, args), **kwargs)
        wanted = {name for name in fields if name in given or not hasattr(cls, name)}
        if len(given) < len(args) + len(kwargs) or given.keys() != wanted:
            raise TypeError(f"{cls.__name__} takes the fields {fields}, got {args} and {kwargs}")
        for name in fields:  # past a frozen __setattr__; filling __dict__ would slow reads
            object.__setattr__(self, name, given.get(name, getattr(cls, name, None)))

    def _items(self) -> list:
        return [(name, getattr(self, name)) for name in self._fields]

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._items() == other._items()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._items())
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        return type(self)(**dict(self._items(), **changes))

    def _refuse_change(self, name: str, *value):
        raise AttributeError(f"cannot set or delete {name!r} of a frozen {type(self).__name__}")


class kept:
    """functools.cached_property without its lock: the value is taken on
    first use and kept in the instance dict under the method's name, past
    a frozen __setattr__."""

    def __init__(self, fn):
        self.fn, self.name = fn, fn.__name__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


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
    (_new) and how exponents combine under multiplication (_key_mul, or
    their own mul_into)."""

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

    def mul_into(self, out: dict, other, c=1) -> dict:
        """Sum c * self * other into the term dict out, in place, as
        accumulate sums items, and return it; out is neither operand's
        terms, and each pair of terms lands at the product of its keys."""
        left = self.terms.items() if c == 1 else [(k, v * c) for k, v in self.terms.items()]
        key_mul, right = self._key_mul, other.terms.items()
        return accumulate(out, ((key_mul(k1, k2), c1 * c2) for k1, c1 in left for k2, c2 in right))

    def mul(self, other):
        return self._new(self.mul_into({}, other))
