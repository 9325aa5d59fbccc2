"""Step functions on dyadic windows and their Haar calculus.

Functions are constant on the leaf cells of a :class:`~dyadlab.dyadic.DyadicSystem`
and take values in ``R^d``.  Two arithmetic modes share one code path: float64
arrays for norm work, and object arrays holding ``Fraction`` / ``Sqrt2Rational``
entries when identities are to be checked exactly.

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

A function's pyramid and its jumps are built once, on first use, and kept
as ``StepFunction.level_means`` and ``StepFunction.level_jumps``; every Haar
operator reads them from there.  This is sound because a function's values
cannot be written after construction.  The per-interval :func:`average`,
:func:`haar_coeff` and :func:`haar_profile` stay as the independent
reference that the tests compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .dyadic import DyadicError, children
from .exact import sqrt2_pow

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


class StepFunction:
    """A function constant on the leaf cells of a dyadic window.

    ``values`` has one row per leaf cell and is read only: a write through
    it raises ``ValueError``, while an array passed in stays writable to its
    owner (who must not change it afterwards).  Derived data is built on
    first use and kept: the level-mean pyramid ``level_means`` and its jumps
    ``level_jumps``, which every Haar operator reads, and the float copy
    returned by :meth:`as_float`.
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

    @property
    def d(self):
        return self.values.shape[1]

    @property
    def exact(self):
        return self.values.dtype == object

    def copy(self):
        return StepFunction(self.system, self.values.copy())

    def as_float(self):
        """This function with float values: itself when already float."""
        return self._float if self.exact else self

    @cached_property
    def _float(self):
        return StepFunction(self.system, self.values.astype(float))

    @cached_property
    def level_means(self):
        """Means of every interval, built once: ``level_means[lev]`` is a
        read-only array with one row per interval of level ``lev``, and the
        last level is ``values`` itself."""
        means = _level_means(self.values, self.exact)
        for level in means:
            level.flags.writeable = False
        return means

    @cached_property
    def level_jumps(self):
        """Jumps of every non-leaf interval, built once from
        ``level_means``: ``level_jumps[lev]`` is a read-only array of the
        left-half mean minus the right-half mean of each interval of level
        ``lev``."""
        jumps = [finer[0::2] - finer[1::2] for finer in self.level_means[1:]]
        for level in jumps:
            level.flags.writeable = False
        return jumps

    # -- arithmetic ------------------------------------------------------

    def _binary(self, other, op):
        if isinstance(other, StepFunction):
            if other.system != self.system:
                raise DyadicError("operands live on different systems")
            return StepFunction(self.system, op(self.values, other.values))
        return StepFunction(self.system, op(self.values, other))

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __mul__(self, scalar):
        return StepFunction(self.system, self.values * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return StepFunction(self.system, -self.values)

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        return (self.system == other.system
                and self.values.shape == other.values.shape
                and bool(np.all(self.values == other.values)))


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


def _zeros(shape, exact):
    if exact:
        return np.full(shape, Fraction(0), dtype=object)
    return np.zeros(shape)


def _level_means(values, exact):
    """Means of every interval: ``means[lev]`` has one row per interval of
    level ``lev``, and ``means[depth]`` is ``values`` itself."""
    half = Fraction(1, 2) if exact else 0.5
    means = [values]
    while len(means[-1]) > 1:
        finer = means[-1]
        means.append((finer[0::2] + finer[1::2]) * half)
    return means[::-1]


def _synthesize(terms, exact, signed=True):
    """Leaf values of the per-interval ``terms`` (one array per level).

    The term of ``I`` is added on the left half of ``I`` and subtracted on
    its right half, or added on all of ``I`` when ``signed`` is false.
    """
    out = _zeros((1, terms[0].shape[1]), exact)
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
    for lev, jump in enumerate(f.level_jumps):
        scale = sqrt2_pow(f.system.M - lev) / 2
        level = jump * (scale if f.exact else float(scale))
        coeffs.update(((lev, i), row) for i, row in enumerate(level))
    return f.level_means[0][0], coeffs


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
    terms = []
    for lev in range(system.depth):
        level = np.array([coeffs[(lev, i)] for i in range(2 ** lev)],
                         dtype=dtype).reshape(2 ** lev, -1)
        amp = sqrt2_pow(lev - system.M)
        terms.append(level * (amp if exact else float(amp)))
    mean = np.asarray(mean, dtype=dtype).reshape(-1)
    return StepFunction(system, mean + _synthesize(terms, exact))


# -- norms and pairings --------------------------------------------------


def lp_norm(f, space):
    """Mixed norm ``( sum_cells width * |value|_q^p )**(1/p)`` (float)."""
    vals = np.abs(np.asarray(f.as_float().values, dtype=float))
    inner = (vals ** space.q).sum(axis=1) ** (1.0 / space.q)
    w = float(f.system.leaf_width)
    return float((w * inner ** space.p).sum() ** (1.0 / space.p))


def pairing_integral(f, g):
    """``integral of <f(t), g(t)> dt`` over the window (exact in exact mode)."""
    if f.system != g.system:
        raise DyadicError("pairing requires a common system")
    if f.d != g.d:
        raise DyadicError(f"dimension mismatch {f.d} != {g.d}")
    if f.exact and g.exact:
        w = Fraction(2) ** (f.system.M - f.system.depth)
        total = 0
        for row_f, row_g in zip(f.values, g.values):
            for a, b in zip(row_f, row_g):
                total = total + a * b
        return total * w
    ff, gg = f.as_float(), g.as_float()
    w = float(f.system.leaf_width)
    return float(w * (ff.values * gg.values).sum())


def pointwise_product(phi, f):
    """Pointwise product of a scalar step function with ``f``."""
    if phi.system != f.system:
        raise DyadicError("operands live on different systems")
    if phi.d != 1:
        raise DyadicError("left factor must be scalar valued")
    return StepFunction(f.system, phi.values * f.values)


# -- test signals --------------------------------------------------------


def random_step_function(system, seed, d=1, exact=False):
    """Random leaf values in ``[-4, 4]``: multiples of 1/8 in exact mode,
    uniform otherwise."""
    rng = np.random.default_rng(seed)
    if exact:
        nums = rng.integers(-32, 33, size=(system.n_leaves, d))
        vals = np.empty((system.n_leaves, d), dtype=object)
        for i in range(system.n_leaves):
            for j in range(d):
                vals[i, j] = Fraction(int(nums[i, j]), 8)
        return StepFunction(system, vals)
    vals = rng.uniform(-4, 4, size=(system.n_leaves, d))
    return StepFunction(system, vals)
