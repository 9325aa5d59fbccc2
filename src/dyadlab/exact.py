"""Exact arithmetic over the field Q(sqrt(2)).

Haar functions on a dyadic window carry normalisations ``2**(j/2)`` which are
irrational for odd ``j``.  Numbers of the form ``a + b*sqrt(2)`` with rational
``a, b`` are closed under +, -, *, / and contain every quantity that appears in
the exact identity checks (averages, Haar coefficients, extremal shift
coefficients), so identities can be asserted with literal ``==`` instead of a
floating tolerance.

Representation: both parts ``a`` and ``b`` of a :class:`Sqrt2Rational` are
always ``Fraction`` instances.  The public constructor coerces its arguments;
arithmetic builds its results from parts that are Fractions already.
Equality is componentwise (``a == a'`` and ``b == b'``, or ``b == 0`` and
``a == r`` against a rational ``r``), which is exact because sqrt(2) is
irrational, and ``hash`` agrees with ``Fraction`` and ``int`` when ``b == 0``.
Numbers are never mutated after they are built: :func:`sqrt2_pow` returns
shared instances.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["Sqrt2Rational", "sqrt2_pow", "as_exact", "to_text", "from_text"]

_RationalTypes = (int, Fraction)


class Sqrt2Rational:
    """The number ``a + b*sqrt(2)`` with ``a``, ``b`` rational."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    @staticmethod
    def _new(a, b):
        """``a + b*sqrt(2)`` from parts that are already Fractions."""
        x = object.__new__(Sqrt2Rational)
        x.a = a
        x.b = b
        return x

    # -- representation -------------------------------------------------

    def __repr__(self):
        if self.b == 0:
            return f"Sqrt2Rational({self.a})"
        return f"Sqrt2Rational({self.a}, {self.b})"

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(2.0)

    # -- arithmetic ------------------------------------------------------
    # A rational operand (int or Fraction) meets the parts directly, and a
    # zero part is passed on without a product: every result part is then
    # a Fraction, as Fraction op int and Fraction op Fraction both are.

    @staticmethod
    def _coerce(other):
        if isinstance(other, Sqrt2Rational):
            return other
        if isinstance(other, _RationalTypes):
            return Sqrt2Rational(other)
        return None

    def __add__(self, other):
        if isinstance(other, Sqrt2Rational):
            return self._new(self.a + other.a, self.b + other.b)
        if isinstance(other, _RationalTypes):
            return self._new(self.a + other, self.b)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Sqrt2Rational):
            return self._new(self.a - other.a, self.b - other.b)
        if isinstance(other, _RationalTypes):
            return self._new(self.a - other, self.b)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _RationalTypes):
            return self._new(other - self.a, -self.b)
        return NotImplemented

    def __mul__(self, other):
        a, b = self.a, self.b
        if isinstance(other, Sqrt2Rational):
            if not b:
                return other * a
            c, d = other.a, other.b
            if d:
                return self._new(a * c + 2 * b * d, a * d + b * c)
            other = c
        elif not isinstance(other, _RationalTypes):
            return NotImplemented
        return self._new(a * other if a else a, b * other if b else b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self.a, self.b
        if isinstance(other, Sqrt2Rational):
            c, d = other.a, other.b
            if d:
                # 1/(c + d*r2) = (c - d*r2) / (c^2 - 2 d^2), and the
                # denominator is not 0 because sqrt(2) is irrational
                den = c * c - 2 * d * d
                return self._new((a * c - 2 * b * d) / den,
                                 (b * c - a * d) / den)
            other = c
        elif not isinstance(other, _RationalTypes):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero in Q(sqrt(2))")
        return self._new(a / other if a else a, b / other if b else b)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return self._new(-self.a, -self.b)

    def __pos__(self):
        return self

    def __abs__(self):
        return -self if _sign(self.a, self.b) < 0 else self

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = self._new(Fraction(1), Fraction(0))
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- ordering --------------------------------------------------------

    def _cmp(self, other):
        o = self._coerce(other)
        if o is None:
            return None
        diff = self - o
        return _sign(diff.a, diff.b)

    def __eq__(self, other):
        # componentwise: a + b*sqrt(2) == 0 only for a == b == 0, because
        # sqrt(2) is irrational
        if isinstance(other, Sqrt2Rational):
            return self.a == other.a and self.b == other.b
        if isinstance(other, _RationalTypes):
            return not self.b and self.a == other
        return NotImplemented

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0


def _sign(a, b):
    """The sign of ``a + b*sqrt(2)`` for rationals ``a`` and ``b`` (or a
    float ``a`` and ``b = 0``): that of ``a + b`` when they do not differ in
    sign, and else that of the part with the larger square (``a*a !=
    2*b*b`` unless both are 0)."""
    s = (a + b if (a >= 0) == (b >= 0)
         else a if a * a > 2 * b * b else b)
    return (s > 0) - (s < 0)


_SQRT2_POWS = {}


def sqrt2_pow(n):
    """Exact ``2**(n/2)`` for integer ``n`` (possibly negative).

    Each power is built once and the same instance is returned on every
    later call, so callers must not mutate it.
    """
    x = _SQRT2_POWS.get(n)
    if x is None:
        half, odd = divmod(n, 2)
        scale = Fraction(2) ** half
        x = Sqrt2Rational(0, scale) if odd else Sqrt2Rational(scale)
        _SQRT2_POWS[n] = x
    return x


def as_exact(x):
    """Coerce an int or Fraction (or Sqrt2Rational) into Q(sqrt(2))."""
    if isinstance(x, Sqrt2Rational):
        return x
    return Sqrt2Rational(x)


def to_text(x):
    """Lossless text of an exact number: ``"a"`` or ``"a + b*sqrt(2)"``.

    ``a`` and ``b`` are written as Fraction strings such as ``-3/4``.
    """
    x = as_exact(x)
    return str(x.a) if x.b == 0 else f"{x.a} + {x.b}*sqrt(2)"


def from_text(text):
    """Inverse of :func:`to_text`; a Fraction when there is no sqrt(2) part."""
    a, _, b = text.partition(" + ")
    if not b:
        return Fraction(a)
    return Sqrt2Rational(Fraction(a), Fraction(b.removesuffix("*sqrt(2)")))
