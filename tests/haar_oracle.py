"""Per-interval references for the Haar engine, built one interval at a time.

The library computes means, Haar coefficients and operators from a pyramid
of level arrays.  These functions compute the same quantities straight from
the definitions, interval by interval, so the tests can compare the two:
the halves of an interval, the mean of a function over an interval, its
Haar coefficient, the leaf values of a Haar function, and the mixed norm.
"""

import math

import numpy as np

from dyadlab.dyadic import DepthExhaustedError, DyadicInterval
from dyadlab.exact import sqrt2_pow


def children(interval):
    """Both halves of ``interval``, as ``(left, right)``.

    Haar functions are positive on the left half.
    """
    if interval.level == interval.system.depth:
        raise DepthExhaustedError(
            f"interval at leaf level {interval.level} has no children")
    sys_, lev, idx = interval.system, interval.level, interval.index
    return (DyadicInterval(sys_, lev + 1, 2 * idx),
            DyadicInterval(sys_, lev + 1, 2 * idx + 1))


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


def haar_profile(system, interval, exact=False):
    """Leaf-cell values of the Haar function of ``interval``.

    Returns a length ``n_leaves`` vector that is ``|I|**-0.5`` on the left
    half of ``interval``, the negative of that on the right half and zero
    elsewhere.
    """
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


def lp_norm(f, space):
    """Mixed norm ``( sum_cells width * |value|_q^p )**(1/p)`` (float)."""
    vals = np.abs(np.asarray(f.as_float().values, dtype=float))
    inner = (vals ** space.q).sum(axis=1) ** (1.0 / space.q)
    w = float(f.system.leaf_width)
    return float((w * inner ** space.p).sum() ** (1.0 / space.p))
