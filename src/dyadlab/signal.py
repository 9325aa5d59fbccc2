"""Step functions on dyadic windows and their Haar calculus.

Functions are constant on the leaf cells of a :class:`~dyadlab.dyadic.DyadicSystem`
and take values in ``R^d``.  There are two arithmetic modes: float64 arrays
for norm work, and exact values (``int``, ``Fraction`` or ``Sqrt2Rational``
in object arrays) when identities are to be checked with ``==``.

The Haar function of a non-leaf interval ``I`` is ``|I|**-0.5`` on the left
half and ``-|I|**-0.5`` on the right half.

Haar operators run on one level-major pyramid.  Analysis takes the means of
every interval, level by level, as pairwise averages of the next finer
level, and the jump of ``I``: its left-half mean minus its right-half mean.
Since ``<f, h_I> = sqrt(|I|)/2 * jump``, an operator of the form
``sum c * <f, h_I> * h_J`` becomes a map from jumps and means to one term per
interval, with one normalising factor per level.  Synthesis then spreads the
terms onto the leaves with ``np.repeat``, adding each term on the left half
of its interval and subtracting it on the right half.

Exact mode computes on integers.  An exact array is held as
``(a + b*sqrt(2)) * scale``: ``a`` and ``b`` are object arrays of Python
ints (``b`` is None when every value is rational) and ``scale`` is one
positive ``Fraction`` for the whole array.  The pyramid is then integer
pairwise sums whose scale halves per level, jumps are differences of those
sums, products multiply numerators and scales, and terms of several levels
are brought to one scale before synthesis.  No gcd is taken until a caller
reads values: ``StepFunction.values``, ``level_means``, ``level_jumps`` and
the coefficients of :func:`haar_expand` are then built in one normal form,
a ``Fraction`` where the sqrt(2) part is 0 and a ``Sqrt2Rational``
elsewhere.  Sums, differences, products and ``==`` of exact functions stay
on the integers.

A function's pyramid and its jumps are built once, on first use, and kept
on the function; every Haar operator reads them from there.  This is sound
because a function's values cannot be written after construction.  The
per-interval :func:`average`, :func:`haar_coeff` and :func:`haar_profile`
stay as the independent reference that the tests compare against.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .dyadic import DyadicError, children
from .exact import Sqrt2Rational, sqrt2_pow

__all__ = [
    "SpaceSpec",
    "StepFunction",
    "average",
    "haar_coeff",
    "haar_expand",
    "haar_reconstruct",
    "lp_norm",
    "pairing_integral",
    "pointwise_product",
    "random_step_function",
]

# Leaf entries (cells times d) a random test signal may have: depth 20 at
# d = 1.  Deeper windows are refused before anything is drawn.
_MAX_LEAF_ENTRIES = 1 << 20


@dataclass(frozen=True)
class SpaceSpec:
    """Exponents and target-space data for L^p(R; l^q(R^d)) norms.

    ``beta_ref`` is the reference unconditionality constant used by norm
    experiments; for scalar targets (``d == 1``) it defaults to
    ``max(p, p/(p-1)) - 1`` and for ``d > 1`` it must be supplied explicitly
    or left ``None`` (raw norms are then reported without a reference line).
    """

    p: float
    q: float = 2.0
    d: int = 1
    beta_ref: float | None = None

    def __post_init__(self):
        if not (1.0 < self.p < math.inf):
            raise DyadicError(f"p must lie in (1, inf), got {self.p}")
        if not (1.0 < self.q < math.inf):
            raise DyadicError(f"q must lie in (1, inf), got {self.q}")
        if self.d < 1:
            raise DyadicError("d must be a positive integer")
        if self.beta_ref is None and self.d == 1:
            object.__setattr__(self, "beta_ref", max(self.p, self.p_dual) - 1.0)

    @property
    def p_dual(self):
        return self.p / (self.p - 1.0)

    @property
    def q_dual(self):
        return self.q / (self.q - 1.0)

    def dual(self):
        return SpaceSpec(p=self.p_dual, q=self.q_dual, d=self.d,
                         beta_ref=self.beta_ref)


# -- exact values as integers -------------------------------------------


class _Numerators(NamedTuple):
    """Exact values ``(a + b*sqrt(2)) * scale`` of one array.

    ``a`` and ``b`` are object arrays of Python ints of one shape, ``b`` is
    None when every value is rational, and ``scale`` is a positive
    ``Fraction`` shared by the whole array.  New forms are built with the
    constructor, not ``_replace``: its temporary tuple is resized, and each
    one freed would stay on the interpreter's free list of 3-tuples until a
    full collection.
    """

    a: np.ndarray
    b: np.ndarray | None
    scale: Fraction

    def map(self, fn, scale=None):
        """``fn`` applied to both integer parts (an integer-linear map)."""
        return _Numerators(fn(self.a), None if self.b is None else fn(self.b),
                           self.scale if scale is None else scale)

    def b_or_zeros(self):
        return np.zeros_like(self.a) if self.b is None else self.b


_FRACTION = np.frompyfunc(Fraction, 2, 1)
_SQRT2_RATIONAL = np.frompyfunc(Sqrt2Rational._new, 2, 1)


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
                       Fraction(1, den))


def _exact_values(num):
    """The values of ``num`` in normal form: a ``Fraction`` where the
    sqrt(2) part is 0 and a ``Sqrt2Rational`` elsewhere."""
    top, den = num.scale.numerator, num.scale.denominator
    out = _FRACTION(num.a * top if top != 1 else num.a, den)
    if num.b is not None:
        root = num.b != 0
        out[root] = _SQRT2_RATIONAL(out[root], _FRACTION(num.b[root] * top,
                                                         den))
    return out


def _floats(num):
    """The values of ``num`` as float64, converted as their normal forms
    are: ``float(Fraction)``, which is correctly rounded and so equals the
    int/int true division of the unreduced parts, and ``float(a) +
    float(b)*sqrt(2.0)`` where the sqrt(2) part is not 0."""
    top, den = num.scale.numerator, num.scale.denominator
    out = (num.a * top / den).astype(float)
    if num.b is not None:
        root = num.b != 0
        out[root] += (num.b[root] * top / den).astype(float) * math.sqrt(2.0)
    return out


def _sign(x, y):
    """The sign of ``x + y*sqrt(2)`` for ints ``x`` and ``y``: that of
    ``x + y`` when they do not differ in sign, and else that of the part
    with the larger square (``x*x != 2*y*y`` unless both are 0)."""
    s = x + y if x * y >= 0 else x if x * x > 2 * y * y else y
    return (s > 0) - (s < 0)


def _magnitudes(num):
    """The integer parts of ``|x|`` for every value ``x`` of ``num``, as
    ``(a, b)`` pairs in flat order."""
    a = num.a.ravel().tolist()
    b = [0] * len(a) if num.b is None else num.b.ravel().tolist()
    return [(-x, -y) if _sign(x, y) < 0 else (x, y) for x, y in zip(a, b)]


def _one_value(x, y, like):
    """The one-entry integer form of ``(x + y*sqrt(2)) * like.scale``,
    rational when ``like`` is."""
    out = np.empty(2, dtype=object)
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
    integer form."""
    best = (0, 0)
    for x, y in _magnitudes(num):
        if _sign(x - best[0], y - best[1]) > 0:
            best = (x, y)
    return _one_value(*best, num)


def _times_sqrt2_pow(num, k):
    """``num`` times ``2**(k/2)``: an odd ``k`` swaps the parts, as
    ``(a + b*sqrt(2)) * sqrt(2) = 2b + a*sqrt(2)``."""
    half, odd = divmod(k, 2)
    scale = num.scale * Fraction(2) ** half
    if not odd:
        return _Numerators(num.a, num.b, scale)
    return _Numerators(2 * num.b if num.b is not None else np.zeros_like(num.a),
                       num.a, scale)


def _common(nums):
    """The arrays of ``nums`` over one scale, the largest that divides
    every scale of ``nums`` to an integer; returns ``(arrays, scale)``."""
    # lists, not generators: a tuple built from a generator is resized,
    # and each one freed would stay on the tuple free list of its length
    # until a full collection
    scale = Fraction(math.gcd(*[x.scale.numerator for x in nums]),
                     math.lcm(*[x.scale.denominator for x in nums]))
    out = []
    for x in nums:
        k = (x.scale / scale).numerator
        out.append(_Numerators(x.a, x.b, scale) if k == 1
                   else x.map(lambda v: v * k, scale))
    return out, scale


def _combine(op, x, y):
    """``op`` (add or subtract) of two integer forms."""
    (x, y), scale = _common([x, y])
    b = (None if x.b is None and y.b is None
         else op(x.b_or_zeros(), y.b_or_zeros()))
    return _Numerators(op(x.a, y.a), b, scale)


def _product(x, y, mul=operator.mul):
    """Product of two integer forms: elementwise (broadcasting), or
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
    return _Numerators(a, b, x.scale * y.scale)


def _pyramid(num, depth):
    """Integer means of every interval, ``[level 0, ..., level depth]``:
    pairwise sums of the next finer level, at half its scale."""
    means = [num]
    for _ in range(depth):
        finer = means[-1]
        means.append(finer.map(lambda v: v[0::2] + v[1::2], finer.scale / 2))
    return means[::-1]


def _synthesized(terms, signed=True):
    """:func:`_synthesize` on integer forms: the terms are brought to one
    scale first."""
    terms, scale = _common(terms)
    b = (None if all(t.b is None for t in terms)
         else _synthesize([t.b_or_zeros() for t in terms], signed))
    return _Numerators(_synthesize([t.a for t in terms], signed), b, scale)


# -- step functions ------------------------------------------------------


class StepFunction:
    """A function constant on the leaf cells of a dyadic window.

    ``values`` has one row per leaf cell and is read only: a write through
    it raises ``ValueError``, while an array passed in stays writable to its
    owner (who must not change it afterwards).  Derived data is built on
    first use and kept: the level-mean pyramid ``level_means`` and its jumps
    ``level_jumps``, and the float copy returned by :meth:`as_float`.

    An exact function also keeps its values as integers over one scale
    (see the module docstring), and its pyramid and jumps in that form,
    which the Haar operators read.  A function that an exact operator
    returns holds only the integers until ``values`` is read; its values
    are then ``Fraction`` where the sqrt(2) part is 0 and ``Sqrt2Rational``
    elsewhere.  ``exact`` and ``d`` do not read ``values``.
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
        """The exact function with leaf values ``num`` (an integer form)."""
        f = cls.__new__(cls)
        f.system, f._num, f.exact, f.d = system, num, True, num.a.shape[1]
        return f

    # -- construction ----------------------------------------------------

    @classmethod
    def constant(cls, system, value, d=1, exact=False):
        if exact:
            vals = np.empty((system.n_leaves, d), dtype=object)
            vals[:] = Fraction(value)
        else:
            vals = np.full((system.n_leaves, d), float(value))
        return cls(system, vals)

    # -- basic properties ------------------------------------------------

    @property
    def depth(self):
        return self.system.depth

    @cached_property
    def values(self):
        # only reached by functions built from integers
        values = _exact_values(self._num)
        values.flags.writeable = False
        return values

    @cached_property
    def _num(self):
        return _numerators(self.values)

    def copy(self):
        return StepFunction(self.system, self.values.copy())

    def as_float(self):
        """This function with float values: itself when already float."""
        return self._float if self.exact else self

    @cached_property
    def _float(self):
        return StepFunction(self.system, self.values.astype(float))

    @cached_property
    def _means(self):
        """Integer means of every interval (exact functions)."""
        return _pyramid(self._num, self.depth)

    @cached_property
    def _jumps(self):
        """Integer jumps of every non-leaf interval (exact functions)."""
        return [finer.map(lambda v: v[0::2] - v[1::2], finer.scale)
                for finer in self._means[1:]]

    @cached_property
    def level_means(self):
        """Means of every interval, built once: ``level_means[lev]`` is a
        read-only array with one row per interval of level ``lev``, and the
        last level is ``values`` itself."""
        if self.exact:
            means = [_exact_values(m) for m in self._means[:-1]]
            means.append(self.values)
        else:
            means = _level_means(self.values, False)
        for level in means:
            level.flags.writeable = False
        return means

    @cached_property
    def level_jumps(self):
        """Jumps of every non-leaf interval, built once:
        ``level_jumps[lev]`` is a read-only array of the left-half mean
        minus the right-half mean of each interval of level ``lev``."""
        if self.exact:
            jumps = [_exact_values(j) for j in self._jumps]
        else:
            jumps = [finer[0::2] - finer[1::2]
                     for finer in self.level_means[1:]]
        for level in jumps:
            level.flags.writeable = False
        return jumps

    @cached_property
    def _heap(self):
        """The jumps in heap order (row ``2**level + index``, row 0 zero).

        Float functions give the float jumps.  Exact functions give one
        integer form at the scale of level 0, whose rows at level ``lev``
        are to be multiplied by ``2**lev``.
        """
        if not self.exact:
            return np.concatenate([np.zeros((1, self.d)), *self.level_jumps])
        jumps = self._jumps
        zero = [np.zeros((1, self.d), dtype=object)]
        return _Numerators(
            np.concatenate(zero + [j.a for j in jumps]),
            None if self._num.b is None
            else np.concatenate(zero + [j.b for j in jumps]),
            jumps[0].scale if jumps else self._num.scale)

    # -- arithmetic ------------------------------------------------------

    def _binary(self, other, op):
        if isinstance(other, StepFunction):
            if other.system != self.system:
                raise DyadicError("operands live on different systems")
            if self.exact and other.exact:
                return StepFunction._from_numerators(
                    self.system, _combine(op, self._num, other._num))
            return StepFunction(self.system, op(self.values, other.values))
        return StepFunction(self.system, op(self.values, other))

    def __add__(self, other):
        return self._binary(other, operator.add)

    def __sub__(self, other):
        return self._binary(other, operator.sub)

    def __mul__(self, scalar):
        return StepFunction(self.system, self.values * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return StepFunction(self.system, -self.values)

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        if self.system != other.system or self.d != other.d:
            return False
        if self.exact and other.exact:
            diff = _combine(operator.sub, self._num, other._num)
            return not diff.a.any() and (diff.b is None or not diff.b.any())
        return bool(np.all(self.values == other.values))


# -- Haar calculus -------------------------------------------------------


def average(f, interval):
    """Mean value of ``f`` over ``interval`` (exact in exact mode)."""
    lo, hi = interval.leaf_span
    total = f.values[lo:hi].sum(axis=0)
    count = hi - lo
    if f.exact:
        return np.array([v / count for v in total], dtype=object)
    return total / count


def haar_coeff(f, interval):
    """Inner product of ``f`` with the Haar function of ``interval``.

    Equals ``sqrt(|I|)/2 * (mean over left half - mean over right half)``.
    """
    left, right = children(interval)
    diff = average(f, left) - average(f, right)
    if f.exact:
        scale = sqrt2_pow(f.system.M - interval.level) / 2
        return np.array([scale * v for v in diff], dtype=object)
    scale = math.sqrt(float(interval.length)) / 2.0
    return scale * diff


def haar_profile(f_or_system, interval, exact=False):
    """Leaf-cell values of the Haar function of ``interval``.

    Returns a length ``n_leaves`` vector that is ``|I|**-0.5`` on the left
    half of ``interval``, the negative of that on the right half and zero
    elsewhere.
    """
    system = getattr(f_or_system, "system", f_or_system)
    left, right = children(interval)
    if exact:
        out = np.zeros(system.n_leaves, dtype=object)
        amp = sqrt2_pow(interval.level - system.M)
    else:
        out = np.zeros(system.n_leaves)
        amp = 1.0 / math.sqrt(float(interval.length))
    lo, hi = left.leaf_span
    out[lo:hi] = amp
    lo, hi = right.leaf_span
    out[lo:hi] = -amp
    return out


def _level_means(values, exact):
    """Means of every interval: ``means[lev]`` has one row per interval of
    level ``lev``, and ``means[depth]`` is ``values`` itself."""
    depth = len(values).bit_length() - 1
    if exact:
        means = [_exact_values(m) for m in _pyramid(_numerators(values),
                                                    depth)[:-1]]
        return means + [values]
    means = [values]
    for _ in range(depth):
        finer = means[-1]
        means.append((finer[0::2] + finer[1::2]) * 0.5)
    return means[::-1]


def _synthesize(terms, signed=True):
    """Leaf values of the per-interval ``terms`` (one array per level).

    The term of ``I`` is added on the left half of ``I`` and subtracted on
    its right half, or added on all of ``I`` when ``signed`` is false.
    Works on float and on integer object arrays alike.
    """
    out = np.zeros((1, terms[0].shape[1]), dtype=terms[0].dtype)
    for term in terms:
        out = np.repeat(out, 2, axis=0)
        out[0::2] += term
        if signed:
            out[1::2] -= term
        else:
            out[1::2] += term
    return out


def haar_expand(f):
    """Full expansion ``(window mean, {address: coefficient vector})``."""
    coeffs = {}
    M = f.system.M
    if f.exact:
        # <f, h_I> = sqrt(|I|)/2 * jump = 2**((M - lev - 2)/2) * jump
        levels = [_exact_values(_times_sqrt2_pow(jump, M - lev - 2))
                  for lev, jump in enumerate(f._jumps)]
        mean = _exact_values(f._means[0])[0]
    else:
        levels = [jump * float(sqrt2_pow(M - lev) / 2)
                  for lev, jump in enumerate(f.level_jumps)]
        mean = f.level_means[0][0]
    for lev, level in enumerate(levels):
        coeffs.update(((lev, i), row) for i, row in enumerate(level))
    return mean, coeffs


def haar_reconstruct(system, mean, coeffs, exact=False):
    """Rebuild a step function from its window mean and Haar coefficients.

    ``coeffs`` must cover exactly the non-leaf intervals of the window; a
    missing or unknown address raises ``DyadicError``.
    """
    expected = {iv.address for iv in system.nonleaf_intervals()}
    got = set(coeffs)
    if got != expected:
        missing, extra = expected - got, got - expected
        raise DyadicError(
            f"coefficient cover mismatch: missing {sorted(missing)[:4]}, "
            f"unknown {sorted(extra)[:4]}")
    dtype = object if exact else float
    mean = np.asarray(mean, dtype=dtype).reshape(1, -1)
    rows = np.array([coeffs[(lev, i)] for lev in range(system.depth)
                     for i in range(2 ** lev)], dtype=dtype)
    rows = rows.reshape(len(rows), -1)
    # level ``lev`` is rows 2**lev - 1 to 2**(lev+1) - 1, and its Haar
    # functions are 2**((lev - M)/2) on the left half
    if exact:
        num = _numerators(rows)
        terms = [_times_sqrt2_pow(num.map(lambda v: v[(1 << lev) - 1:
                                                      (2 << lev) - 1]),
                                  lev - system.M)
                 for lev in range(system.depth)]
        return StepFunction._from_numerators(system, _combine(
            operator.add, _numerators(mean), _synthesized(terms)))
    terms = [rows[(1 << lev) - 1:(2 << lev) - 1]
             * float(sqrt2_pow(lev - system.M))
             for lev in range(system.depth)]
    return StepFunction(system, mean + _synthesize(terms))


# -- norms and pairings --------------------------------------------------


def lp_norm(f, space):
    """Mixed norm ``( sum_cells width * |value|_q^p )**(1/p)`` (float)."""
    vals = np.abs(np.asarray(f.as_float().values, dtype=float))
    inner = (vals ** space.q).sum(axis=1) ** (1.0 / space.q)
    w = float(f.system.leaf_width)
    return float((w * inner ** space.p).sum() ** (1.0 / space.p))


def pairing_integral(f, g):
    """``integral of <f(t), g(t)> dt`` over the window (exact in exact mode).

    On exact inputs: one integer dot product of the numerators, and one
    number built from it."""
    if f.system != g.system:
        raise DyadicError("pairing requires a common system")
    if f.d != g.d:
        raise DyadicError(f"dimension mismatch {f.d} != {g.d}")
    if f.exact and g.exact:
        prod = _product(f._num, g._num)
        scale = prod.scale * Fraction(2) ** (f.system.M - f.system.depth)
        a = int(prod.a.sum()) * scale
        b = 0 if prod.b is None else int(prod.b.sum()) * scale
        return Sqrt2Rational._new(a, b) if b else a
    ff, gg = f.as_float(), g.as_float()
    w = float(f.system.leaf_width)
    return float(w * (ff.values * gg.values).sum())


def pointwise_product(phi, f):
    """Pointwise product of a scalar step function with ``f``."""
    if phi.system != f.system:
        raise DyadicError("operands live on different systems")
    if phi.d != 1:
        raise DyadicError("left factor must be scalar valued")
    if phi.exact and f.exact:
        return StepFunction._from_numerators(f.system,
                                             _product(phi._num, f._num))
    return StepFunction(f.system, phi.values * f.values)


# -- test signals --------------------------------------------------------


def random_step_function(system, seed, d=1, exact=False):
    """Random leaf values in ``[-4, 4]``: multiples of 1/8 in exact mode,
    uniform otherwise.

    At most ``2**20`` leaf entries (cells times ``d``); more raise
    ``DyadicError`` before anything is drawn.
    """
    if system.n_leaves * d > _MAX_LEAF_ENTRIES:
        raise DyadicError(
            f"{system.n_leaves} cells times d = {d} exceed the cap of "
            f"{_MAX_LEAF_ENTRIES} leaf entries")
    rng = np.random.default_rng(seed)
    if exact:
        nums = np.array(rng.integers(-32, 33, size=(system.n_leaves, d))
                        .tolist(), dtype=object)
        f = StepFunction(system, _FRACTION(nums, 8))
        f._num = _Numerators(nums, None, Fraction(1, 8))
        return f
    vals = rng.uniform(-4, 4, size=(system.n_leaves, d))
    return StepFunction(system, vals)
