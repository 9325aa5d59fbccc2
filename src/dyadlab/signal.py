"""Step functions on dyadic windows and their Haar calculus.

Functions are constant on the leaf cells of a :class:`~dyadlab.dyadic.DyadicSystem`
and take values in ``R^d``: float64 arrays for norm work, or exact values
(``int``, ``Fraction`` or ``Sqrt2Rational`` in object arrays) when
identities are to be checked with ``==``.

The Haar function of a non-leaf interval ``I`` is ``|I|**-0.5`` on the left
half and ``-|I|**-0.5`` on the right half.

There is one Haar engine for both arithmetic modes.  An array is held as
``(a + b*sqrt(2)) * top / den``, and the dtype of ``a`` is the mode: Python
ints in object arrays over one scale ``(top, den)``, a reduced pair of
positive Python ints (``b`` None when every value is rational), for exact
values, and float64 values as they are (no ``b``, scale ``(1, 1)``) for
floats.  The means of every interval are pairwise sums
of the next finer level at half its scale, and the jump of ``I`` (left-half
mean minus right-half mean) is a difference of those means.  Since ``<f,
h_I> = sqrt(|I|)/2 * jump``, an operator ``sum c * <f, h_I> * h_J`` maps
jumps and means to one term per interval; products multiply parts and
scales, and the terms of all levels are brought to one scale before
synthesis spreads them onto the leaves with ``np.repeat``, adding each term
on the left half of its interval and subtracting it on the right half.

A new scale reaches a form only through :meth:`_Numerators.map`: an exact
form multiplies its scale by the factor given, and a float form multiplies
its values by it and stays at scale ``(1, 1)``, so float forms never compute
a scale.  So every float step is a float operation on the
values themselves: a mean is a pairwise sum times 0.5, and a sqrt(2) power
or a shift amplitude multiplies the values it always multiplied.  Float
results overflow only where those value operations do.

Exact forms take no gcd until a caller reads values
(``StepFunction.values``, ``level_means``, ``level_jumps``, the
coefficients of :func:`haar_expand`), which are then built in one normal
form: a ``Fraction`` where the sqrt(2) part is 0 and a ``Sqrt2Rational``
elsewhere.

A function's pyramid and its jumps are built once, on first use, and kept
on the function; every Haar operator reads them from there.  This is sound
because a function's values cannot be written after construction.  The
tests compare the operators against per-interval sums of means, Haar
coefficients and Haar profiles, built one interval at a time.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .dyadic import DyadicError
from .exact import Sqrt2Rational, _sign, sqrt2_pow

__all__ = [
    "SpaceSpec",
    "StepFunction",
    "haar_expand",
    "haar_reconstruct",
    "pairing_integral",
    "pointwise_product",
    "random_step_function",
]

# Leaf entries (cells times d) a random test signal may have: depth 20 at
# d = 1.  Deeper windows are refused before anything is drawn.
_MAX_LEAF_ENTRIES = 1 << 20


@dataclass(frozen=True)
class SpaceSpec:
    """Exponents and target-space data for L^p(R; l^q(R^d)) norms."""

    p: float
    q: float = 2.0
    d: int = 1

    def __post_init__(self):
        if not (1.0 < self.p < math.inf):
            raise DyadicError(f"p must lie in (1, inf), got {self.p}")
        if not (1.0 < self.q < math.inf):
            raise DyadicError(f"q must lie in (1, inf), got {self.q}")
        if self.d < 1:
            raise DyadicError("d must be a positive integer")

    @property
    def p_dual(self):
        return self.p / (self.p - 1.0)

    @property
    def q_dual(self):
        return self.q / (self.q - 1.0)

    @property
    def beta_ref(self):
        """The reference unconditionality constant of norm experiments:
        ``max(p, p/(p-1)) - 1`` for scalar targets (``d == 1``), and
        ``None`` for ``d > 1``, whose raw norms are reported without a
        reference line."""
        return max(self.p, self.p_dual) - 1.0 if self.d == 1 else None

    def dual(self):
        return SpaceSpec(p=self.p_dual, q=self.q_dual, d=self.d)


# -- array forms ---------------------------------------------------------


class _Numerators(NamedTuple):
    """The values ``(a + b*sqrt(2)) * top / den`` of one array, where
    ``scale`` is the pair ``(top, den)``.

    Exact: ``a`` and ``b`` are object arrays of Python ints of one shape,
    ``b`` is None when every value is rational, and ``scale`` is a reduced
    pair of positive Python ints shared by the whole array.  Float: ``a``
    holds the float64 values, ``b`` is None and ``scale`` is ``(1, 1)``.
    New forms are built with the constructor, not ``_replace``: its
    temporary tuple is resized, and each one freed would stay on the
    interpreter's free list of 3-tuples until a full collection.
    """

    a: np.ndarray
    b: np.ndarray | None
    scale: tuple

    def map(self, fn, factor=None):
        """``fn`` applied to both parts (a linear map on the integers), times
        ``factor`` when one is given, a ``(top, den)`` pair: an exact form
        multiplies its scale by it, and a float form multiplies its values
        by ``top / den`` (the correctly rounded quotient) and stays at scale
        ``(1, 1)``."""
        if self.a.dtype != object:
            a = fn(self.a)
            return _Numerators(a if factor is None
                               else a * (factor[0] / factor[1]), None, _ONE)
        return _Numerators(fn(self.a), None if self.b is None else fn(self.b),
                           self.scale if factor is None
                           else _times(self.scale, factor))

    def b_or_zeros(self):
        return np.zeros_like(self.a) if self.b is None else self.b


_FRACTION = np.frompyfunc(Fraction, 2, 1)
_ONE = (1, 1)
_HALF = (1, 2)
_SQRT2_RATIONAL = np.frompyfunc(Sqrt2Rational._new, 2, 1)


def _times(x, y):
    """The product of two scales ``(top, den)``, reduced."""
    (p, q), (r, s) = x, y
    g1, g2 = math.gcd(p, s), math.gcd(r, q)
    return (p // g1) * (r // g2), (q // g2) * (s // g1)


def _pow2(e):
    """``2**e`` as a scale ``(top, den)``."""
    return (1 << e, 1) if e >= 0 else (1, 1 << -e)


def _as_rational(x):
    """``x`` as an int or Fraction with int parts."""
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, numbers.Rational):
        return Fraction(int(x.numerator), int(x.denominator))
    raise TypeError(f"exact values must lie in Q(sqrt(2)), got {x!r}")


def _numerators(values):
    """Integer form of an object array of ints, Fractions and
    Sqrt2Rationals, over the least common denominator of its parts."""
    values = np.asarray(values, dtype=object)
    flat = values.ravel().tolist()
    if any(type(v) is Sqrt2Rational for v in flat):
        parts = ([v.a if type(v) is Sqrt2Rational else _as_rational(v)
                  for v in flat]
                 + [v.b if type(v) is Sqrt2Rational else 0 for v in flat])
    else:
        parts = [_as_rational(v) for v in flat]
    den = math.lcm(*{p.denominator for p in parts})
    nums = np.empty(len(parts), dtype=object)
    nums[:] = [p.numerator * (den // p.denominator) for p in parts]
    a, b = nums[:len(flat)], nums[len(flat):]
    return _Numerators(a.reshape(values.shape),
                       b.reshape(values.shape) if len(b) and b.any() else None,
                       (1, den))


def _array(values, exact):
    """``values`` as an array of the named mode: exact objects, or float64
    (exact numbers converted with ``float``)."""
    return np.asarray(values, dtype=object if exact else float)


def _form(values):
    """The form of an array: float64 as it is at scale 1, and exact values
    over the least common denominator of their parts."""
    if values.dtype != object:
        return _Numerators(values, None, _ONE)
    return _numerators(values)


def _exact_values(num):
    """The values of an exact ``num`` in normal form: a ``Fraction`` where
    the sqrt(2) part is 0 and a ``Sqrt2Rational`` elsewhere."""
    top, den = num.scale
    out = _FRACTION(num.a * top if top != 1 else num.a, den)
    if num.b is not None:
        root = num.b != 0
        out[root] = _SQRT2_RATIONAL(out[root], _FRACTION(num.b[root] * top,
                                                         den))
    return out


def _values(num):
    """The values of ``num``: float64, or exact in normal form."""
    return _exact_values(num) if num.a.dtype == object else num.a


def _floats(num):
    """The values of ``num`` as float64: a float form's own, and exact ones
    with the bits of ``_values(num).astype(float)``, without building the
    normal forms: ``float(Fraction)`` is correctly rounded and so equals
    the int/int true division of the unreduced parts, and
    ``float(Sqrt2Rational)`` is ``float(a) + float(b)*sqrt(2.0)``, done
    here where the sqrt(2) part is not 0."""
    if num.a.dtype != object:
        return num.a
    top, den = num.scale
    out = ((num.a * top if top != 1 else num.a) / den).astype(float)
    if num.b is not None:
        root = num.b != 0
        out[root] += (num.b[root] * top / den).astype(float) * math.sqrt(2.0)
    return out


@lru_cache(maxsize=None)
def _sqrt2_power(k, exact):
    """``2**(k/2)`` as a one-entry form, exact or its float; shared, so its
    arrays must not be written."""
    return _form(_array([sqrt2_pow(k)], exact))


def _magnitudes(num):
    """The parts of ``|x|`` for every value ``x`` of ``num``, as ``(a, b)``
    pairs in flat order (``b`` is 0 in float forms)."""
    a = num.a.ravel().tolist()
    b = [0] * len(a) if num.b is None else num.b.ravel().tolist()
    return [(-x, -y) if _sign(x, y) < 0 else (x, y) for x, y in zip(a, b)]


def _one_value(x, y, like):
    """The one-entry form of ``(x + y*sqrt(2)) * like.scale``, of the mode
    of ``like`` and rational when it is."""
    out = np.empty(2, dtype=like.a.dtype)
    out[:] = [x, y]
    return _Numerators(out[:1], None if like.b is None else out[1:],
                       like.scale)


def _abs_sum(num):
    """The sum of ``|x|`` over the values of ``num``, as a one-entry
    integer form."""
    mags = _magnitudes(num)
    return _one_value(sum(x for x, _ in mags), sum(y for _, y in mags), num)


def _abs_max(num):
    """The largest ``|x|`` over the values of ``num``, as a one-entry
    form."""
    best = (0, 0)
    for x, y in _magnitudes(num):
        if _sign(x - best[0], y - best[1]) > 0:
            best = (x, y)
    return _one_value(*best, num)


def _common(nums):
    """The arrays of ``nums`` over one scale, the largest that divides
    every scale of ``nums`` to an integer; returns ``(arrays, scale)``."""
    # lists, not generators: a tuple built from a generator is resized,
    # and each one freed would stay on the tuple free list of its length
    # until a full collection
    top = math.gcd(*[x.scale[0] for x in nums])
    den = math.lcm(*[x.scale[1] for x in nums])
    scale = (top, den)
    out = []
    for x in nums:
        # x.scale / scale, on the integers
        k = x.scale[0] // top * (den // x.scale[1])
        out.append(x if k == 1 else _Numerators(
            x.a * k, None if x.b is None else x.b * k, scale))
    return out, scale


def _combine(op, x, y):
    """``op`` (add or subtract) of two forms."""
    (x, y), scale = _common([x, y])
    b = (None if x.b is None and y.b is None
         else op(x.b_or_zeros(), y.b_or_zeros()))
    return _Numerators(op(x.a, y.a), b, scale)


def _equal(x, y):
    """Whether two exact forms hold the same values everywhere (a one-row
    form against every row of a taller one)."""
    gap = _combine(operator.sub, x, y)
    return not gap.a.any() and (gap.b is None or not gap.b.any())


def _product(x, y, mul=operator.mul):
    """Product of two forms: elementwise (broadcasting), or
    ``mul=operator.matmul`` for the matrix product."""
    a = mul(x.a, y.a)
    if x.b is None and y.b is None:
        b = None
    elif y.b is None:
        b = mul(x.b, y.a)
    elif x.b is None:
        b = mul(x.a, y.b)
    else:
        a = a + 2 * mul(x.b, y.b)
        b = mul(x.a, y.b) + mul(x.b, y.a)
    return _Numerators(a, b, _ONE if a.dtype != object
                       else _times(x.scale, y.scale))


def _row_dots(x, y, factor):
    """The form of ``factor`` (a ``(top, den)`` pair) times the dot product
    of each pair of rows of ``x`` and ``y``."""
    return _product(x, y).map(lambda v: v.sum(axis=1), factor)


def _pyramid(num, depth):
    """Means of every interval, ``[level 0, ..., level depth]``: pairwise
    sums of the next finer level, at half its scale (float means are the
    pairwise sums times 0.5)."""
    means = [num]
    for _ in range(depth):
        finer = means[-1]
        means.append(finer.map(lambda v: v[0::2] + v[1::2], _HALF))
    return means[::-1]


def _stacked(levels):
    """Forms of one array per level as one form in heap order (row
    ``2**level + index``, row 0 zero), over one scale."""
    levels, scale = _common(levels)
    zero = [np.zeros((1, levels[0].a.shape[1]), dtype=levels[0].a.dtype)]
    b = (None if all(x.b is None for x in levels)
         else np.concatenate(zero + [x.b_or_zeros() for x in levels]))
    return _Numerators(np.concatenate(zero + [x.a for x in levels]), b, scale)


def _synthesized(heap, signed=True):
    """Leaf values of per-interval terms given in heap order.

    The term of ``I`` is added on the left half of ``I`` and subtracted on
    its right half, or added on all of ``I`` when ``signed`` is false.
    """
    depth = len(heap.a).bit_length() - 1

    def spread(terms):
        out = np.zeros((1, terms.shape[1]), dtype=terms.dtype)
        for lev in range(depth):
            term = terms[1 << lev:2 << lev]
            out = np.repeat(out, 2, axis=0)
            out[0::2] += term
            if signed:
                out[1::2] -= term
            else:
                out[1::2] += term
        return out

    return heap.map(spread)


# -- step functions ------------------------------------------------------


class StepFunction:
    """A function constant on the leaf cells of a dyadic window.

    ``values`` has one row per leaf cell and is read only: a write through
    it raises ``ValueError``, while an array passed in stays writable to its
    owner (who must not change it afterwards).  Derived data is built on
    first use and kept: the level-mean pyramid ``level_means`` and its jumps
    ``level_jumps``, and the float copy returned by :meth:`as_float`.

    A function also keeps its values in the form of the module docstring,
    and its pyramid and jumps in that form, which the Haar operators read.
    A function that a Haar operator returns holds only the form until
    ``values`` is read; exact values are then ``Fraction`` where the
    sqrt(2) part is 0 and ``Sqrt2Rational`` elsewhere.  ``exact`` and ``d``
    do not read ``values``.
    """

    def __init__(self, system, values):
        values = np.asarray(values)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] != system.n_leaves:
            raise DyadicError(
                f"values shape {values.shape} does not match "
                f"{system.n_leaves} leaves")
        if values.dtype != object:
            values = values.astype(float)
        values = values.view()
        values.flags.writeable = False
        self.system = system
        self.values = values
        self.exact = values.dtype == object
        self.d = values.shape[1]

    @classmethod
    def _from_numerators(cls, system, num):
        """The function with leaf values ``num`` (a float or exact form)."""
        f = cls.__new__(cls)
        f.system, f._num, f.d = system, num, num.a.shape[1]
        f.exact = num.a.dtype == object
        return f

    # -- basic properties ------------------------------------------------

    @property
    def depth(self):
        return self.system.depth

    @cached_property
    def values(self):
        # only reached by functions built from a form
        values = _values(self._num)
        values.flags.writeable = False
        return values

    @cached_property
    def _num(self):
        return _form(self.values)

    def as_float(self):
        """This function with float values: itself when already float."""
        return self._float if self.exact else self

    @cached_property
    def _float(self):
        # the bits of values.astype(float), read from the form
        return StepFunction(self.system, _floats(self._num))

    @cached_property
    def _means(self):
        """The form of the mean of every interval."""
        return _pyramid(self._num, self.depth)

    @cached_property
    def _jumps(self):
        """The form of the jump of every non-leaf interval."""
        return [finer.map(lambda v: v[0::2] - v[1::2])
                for finer in self._means[1:]]

    @cached_property
    def level_means(self):
        """Means of every interval, built once: ``level_means[lev]`` is a
        read-only array with one row per interval of level ``lev``, and the
        last level is ``values`` itself."""
        means = [_values(m) for m in self._means[:-1]]
        means.append(self.values)
        for level in means:
            level.flags.writeable = False
        return means

    @cached_property
    def level_jumps(self):
        """Jumps of every non-leaf interval, built once:
        ``level_jumps[lev]`` is a read-only array of the left-half mean
        minus the right-half mean of each interval of level ``lev``."""
        jumps = [_values(j) for j in self._jumps]
        for level in jumps:
            level.flags.writeable = False
        return jumps

    @cached_property
    def _heap(self):
        """The jumps in heap order (row ``2**level + index``, row 0 zero),
        over one scale."""
        return _stacked(self._jumps)

    # -- arithmetic ------------------------------------------------------

    # A result is exact only when every operand is: an exact function, or
    # a rational or Sqrt2Rational scalar.

    def _binary(self, other, op):
        if not isinstance(other, StepFunction):
            return self._scalar(other, op)
        if other.system != self.system:
            raise DyadicError("operands live on different systems")
        f, g = _one_mode(self, other)
        return StepFunction._from_numerators(self.system,
                                             _combine(op, f._num, g._num))

    def _scalar(self, scalar, op):
        exact = self.exact and isinstance(scalar, (numbers.Rational,
                                                   Sqrt2Rational))
        f = self if exact else self.as_float()
        return StepFunction(self.system, _array(op(f.values, scalar), exact))

    def __add__(self, other):
        return self._binary(other, operator.add)

    def __sub__(self, other):
        return self._binary(other, operator.sub)

    def __mul__(self, scalar):
        return self._scalar(scalar, operator.mul)

    __rmul__ = __mul__

    def __neg__(self):
        return StepFunction(self.system, -self.values)

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        if self.system != other.system or self.d != other.d:
            return False
        if self.exact and other.exact:
            return _equal(self._num, other._num)
        return bool(np.all(self.values == other.values))


# -- Haar calculus -------------------------------------------------------


def haar_expand(f):
    """Full expansion ``(window mean, levels)``: ``levels[lev]`` is a
    ``(2**lev, d)`` array of the Haar coefficients of the intervals of
    level ``lev``, left to right."""
    M = f.system.M
    # <f, h_I> = sqrt(|I|)/2 * jump = 2**((M - lev - 2)/2) * jump
    levels = [_values(_product(jump, _sqrt2_power(M - lev - 2, f.exact)))
              for lev, jump in enumerate(f._jumps)]
    return _values(f._means[0])[0], levels


def haar_reconstruct(system, mean, levels):
    """Rebuild a step function from its window mean and Haar coefficients,
    given as :func:`haar_expand` returns them.

    The result is exact when every array given holds exact values (object
    arrays), and float otherwise.  A level count other than the window
    depth, or a level not of shape ``(2**lev, d)``, raises ``DyadicError``.
    """
    mean = np.asarray(mean).reshape(1, -1)
    levels = [np.asarray(level) for level in levels]
    shapes = [level.shape for level in levels]
    want = [(1 << lev, mean.shape[1]) for lev in range(system.depth)]
    if shapes != want:
        raise DyadicError(f"coefficient levels of shapes {shapes}, not {want}")
    exact = all(x.dtype == object for x in [mean, *levels])
    # the Haar functions of level ``lev`` are 2**((lev - M)/2) on the left
    # half of their interval
    terms = [_product(_form(_array(level, exact)),
                      _sqrt2_power(lev - system.M, exact))
             for lev, level in enumerate(levels)]
    return StepFunction._from_numerators(system, _combine(
        operator.add, _form(_array(mean, exact)),
        _synthesized(_stacked(terms))))


# -- norms and pairings --------------------------------------------------


def _one_mode(*functions):
    """The functions as they are when all are exact, else as floats."""
    if all(f.exact for f in functions):
        return functions
    return [f.as_float() for f in functions]


def pairing_integral(f, g):
    """``integral of <f(t), g(t)> dt`` over the window (exact in exact mode):
    one dot product of the numerators, and one number read from it."""
    if f.system != g.system:
        raise DyadicError("pairing requires a common system")
    if f.d != g.d:
        raise DyadicError(f"dimension mismatch {f.d} != {g.d}")
    f, g = _one_mode(f, g)
    system = f.system
    total = _product(f._num, g._num).map(lambda v: v.sum(keepdims=True)[0],
                                         _pow2(system.M - system.depth))
    return _values(total).tolist()[0]


def pointwise_product(phi, f):
    """Pointwise product of a scalar step function with ``f``."""
    if phi.system != f.system:
        raise DyadicError("operands live on different systems")
    if phi.d != 1:
        raise DyadicError("left factor must be scalar valued")
    phi, f = _one_mode(phi, f)
    return StepFunction._from_numerators(f.system, _product(phi._num, f._num))


# -- test signals --------------------------------------------------------


def random_step_function(system, seed, d=1, exact=False):
    """Random leaf values in ``[-4, 4]``: multiples of 1/8 in exact mode,
    uniform otherwise.

    At most ``2**20`` leaf entries (cells times ``d``); more, or ``d``
    below 1, raise ``DyadicError`` before anything is drawn.
    """
    if d < 1:
        raise DyadicError(f"d must be a positive integer, got {d}")
    if system.n_leaves * d > _MAX_LEAF_ENTRIES:
        raise DyadicError(
            f"{system.n_leaves} cells times d = {d} exceed the cap of "
            f"{_MAX_LEAF_ENTRIES} leaf entries")
    rng = np.random.default_rng(seed)
    if exact:
        nums = np.array(rng.integers(-32, 33, size=(system.n_leaves, d))
                        .tolist(), dtype=object)
        return StepFunction._from_numerators(
            system, _Numerators(nums, None, (1, 8)))
    vals = rng.uniform(-4, 4, size=(system.n_leaves, d))
    return StepFunction(system, vals)
