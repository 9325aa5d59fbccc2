"""Exact arithmetic over the field Q(sqrt(2)).

Haar functions on a dyadic window carry normalisations ``2**(j/2)`` which are
irrational for odd ``j``.  Numbers of the form ``a + b*sqrt(2)`` with rational
``a, b`` are closed under +, -, *, / and contain every quantity that appears in
the exact identity checks (averages, Haar coefficients, extremal shift
coefficients), so identities can be asserted with literal ``==`` instead of a
floating tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["Sqrt2Rational", "ROOT2", "sqrt2_pow", "as_exact", "to_text",
           "from_text"]

_RationalTypes = (int, Fraction)


class Sqrt2Rational:
    """The number ``a + b*sqrt(2)`` with ``a``, ``b`` rational."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    # -- representation -------------------------------------------------

    def __repr__(self):
        if self.b == 0:
            return f"Sqrt2Rational({self.a})"
        return f"Sqrt2Rational({self.a}, {self.b})"

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(2.0)

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Sqrt2Rational):
            return other
        if isinstance(other, _RationalTypes):
            return Sqrt2Rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Sqrt2Rational(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Sqrt2Rational(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Sqrt2Rational(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Sqrt2Rational(self.a * o.a + 2 * self.b * o.b,
                             self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = o.a * o.a - 2 * o.b * o.b
        if den == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(2))")
        # 1/(a + b*r2) = (a - b*r2) / (a^2 - 2 b^2)
        return Sqrt2Rational((self.a * o.a - 2 * self.b * o.b) / den,
                             (self.b * o.a - self.a * o.b) / den)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return Sqrt2Rational(-self.a, -self.b)

    def __pos__(self):
        return self

    def __abs__(self):
        return -self if self._sign() < 0 else self

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = Sqrt2Rational(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- ordering --------------------------------------------------------

    def _sign(self):
        a, b = self.a, self.b
        if a == 0 and b == 0:
            return 0
        if a >= 0 and b >= 0:
            return 1
        if a <= 0 and b <= 0:
            return -1
        # mixed signs: compare a^2 with 2 b^2
        if a > 0:  # b < 0: positive iff a^2 > 2 b^2
            return 1 if a * a > 2 * b * b else -1
        return 1 if 2 * b * b > a * a else -1

    def _cmp(self, other):
        o = self._coerce(other)
        if o is None:
            return None
        return (self - o)._sign()

    def __eq__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c == 0

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


ROOT2 = Sqrt2Rational(0, 1)


def sqrt2_pow(n):
    """Exact ``2**(n/2)`` for integer ``n`` (possibly negative)."""
    half, odd = divmod(n, 2)
    scale = Fraction(2) ** half
    if odd:
        return Sqrt2Rational(0, scale)
    return Sqrt2Rational(scale)


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
