"""Finite martingale pairs and a grid dynamic-programming gain oracle.

A pair of step functions on a dyadic window induces, level by level, a pair
of martingales together with the averages of their dual powers.  Each node
of the window tree carries a four-coordinate state

    (mean of f,  mean of |f|^p,  mean of g,  mean of |g|^p')

and the parent state is always the mean of its two children.  The tree is
stored as four level-mean pyramids built by :mod:`dyadlab.signal`; the
interaction matrix and the reweighting checks read whole levels of them.

The oracle tabulates, on a uniform four-dimensional grid, a lower bound for
the largest accumulated value of ``4 * |df| * |dg|`` that a depth-limited
martingale pair started from a given state can collect, where ``df`` and
``dg`` are the split half-steps of the two means.  Splits are restricted to
symmetric on-grid offsets, so every table entry is realised by an explicit
martingale pair and the table is a certified lower bound of the continuum
extremal function.  Values grow with depth (the zero split is admissible)
and with nested grid refinement.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dyadic import DyadicError
from .schur import AlphaSequence, find_alpha, lambda_matrix
from .signal import (_combine, _exact_values, _floats, _form, _Numerators,
                     _product, _pyramid, _row_dots, _values)

__all__ = [
    "MartingaleTree",
    "tree_from_functions",
    "modified_points",
    "BellmanConfig",
    "BellmanTable",
    "bellman_oracle",
    "range_check",
    "concavity_gain_check",
    "lemma51_verify",
]

MAX_TABLE_DEPTH = 6
MAX_AXIS_POINTS = 65
# Candidate pairs a swept layer (t >= 3) may evaluate, counted as in a sweep
# over every centre although each plane sweeps only its nonnegative half.
# Layers 1 and 2 are built without a sweep, from the split lists alone.
_MAX_LAYER_PAIRS = 5_000_000_000
# A swept layer gathers its (g, G) split ends in bands of whole centre
# groups of at most _GATHER_BYTES per array and sweeps each band in blocks
# of at most _SWEEP_BYTES of candidates; layer 2 holds at most _GATHER_BYTES
# per block of front planes and per band of triple tables.  They bound
# memory only: the layers are integers, so every cut gives the same maxima.
_SWEEP_BYTES = 1 << 18
_GATHER_BYTES = 2 * _SWEEP_BYTES
# Attempts per block of the concavity check.  The samples do not depend on
# it; larger blocks only raise peak memory.
_CHECK_CHUNK = 1024

# Design range of the split ratios produced by quarter-bounded modulations,
# and the wider range asserted for them downstream.
THETA_DESIGN_RANGE = (0.375, 0.625)
THETA_ASSERTED_RANGE = (0.3, 5.0 / 6.0)


class MartingaleTree:
    """States of all window-tree nodes for a pair of step functions.

    Four level-mean pyramids, lists indexed by the depth ``k`` below the
    window root: ``f[k]`` and ``g[k]`` (shape ``(2**k, d)``) hold the means
    of f and g on the depth-``k`` intervals, left to right, and ``F[k]``,
    ``G[k]`` (shape ``(2**k,)``) the means of ``|f|^p`` and ``|g|^p'``.
    ``exact`` marks trees of exact values (possible when ``p = q = 2`` and
    the inputs are exact); the arrays are float64 otherwise.  Row ``i`` of
    the four levels at depth ``k`` is the state ``(f, F, g, G)`` of the
    ``i``-th depth-``k`` interval.

    The tree holds its pyramids as forms of :mod:`dyadlab.signal`, in
    either mode: those of f and g are the functions' own, and F and G are
    pyramids of the leaf powers, which on an exact tree are the integer row
    sums of squares, so leaves in Q(sqrt(2)) are held exactly too.  The
    interaction matrix and the modulation checks read the forms; the
    public ``f``, ``F``, ``g`` and ``G`` are built on first read, exact
    values as ``Fraction`` where the sqrt(2) part is 0 and
    ``Sqrt2Rational`` elsewhere.
    """

    def __init__(self, system, space, f, g, F, G):
        # f and g are step functions (float copies on float trees); F and G
        # are form pyramids
        self.system = system
        self.space = space
        self.exact = f.exact
        self._functions = (f, g)
        self._powers = (F, G)

    @property
    def _means(self):
        """The form pyramids ``(f, F, g, G)``."""
        f, g = self._functions
        return f._means, self._powers[0], g._means, self._powers[1]

    @property
    def f(self):
        return self._functions[0].level_means

    @property
    def g(self):
        return self._functions[1].level_means

    @cached_property
    def F(self):
        return [_values(x) for x in self._powers[0]]

    @cached_property
    def G(self):
        return [_values(x) for x in self._powers[1]]

    @property
    def depth(self):
        return self.system.depth

    def _states(self, k):
        """The scalar states of depth ``k`` as a ``(2**k, 4)`` float array:
        row ``i`` is ``(f[k][i, 0], F[k][i], g[k][i, 0], G[k][i])``, read
        with :func:`~dyadlab.signal._floats`, which gives the bits of
        ``float`` on each value."""
        f, F, g, G = [_floats(x[k]) for x in self._means]
        return np.column_stack([f[:, 0], F, g[:, 0], G])


def _powers(rows, p, q):
    """``|row|_q^p`` of every row of a float array; a power that overflows
    is ``inf``, without a warning (:func:`_auto_config` refuses it)."""
    with np.errstate(over="ignore"):
        return (np.abs(rows) ** q).sum(axis=1) ** (p / q)


def tree_from_functions(f, g, space):
    """Build the martingale state tree of a pair of step functions."""
    if f.system != g.system:
        raise DyadicError("functions live on different dyadic systems")
    if f.d != g.d:
        raise DyadicError(f"value dimensions differ: {f.d} vs {g.d}")
    if f.exact and g.exact and space.p == 2.0 and space.q == 2.0:
        powers = [_row_dots(x._num, x._num, (1, 1)) for x in (f, g)]
    else:
        f, g = f.as_float(), g.as_float()
        powers = [_form(_powers(f.values, space.p, space.q)),
                  _form(_powers(g.values, space.p_dual, space.q_dual))]
    F, G = [_pyramid(x, f.depth) for x in powers]
    return MartingaleTree(f.system, space, f, g, F, G)


def modified_points(tree, alpha, k=None, lam=None):
    """Reweight the depth-``k`` cells by ``1 +- alpha`` and report invariants.

    The plus/minus variants assign cell ``I`` the mass ``2**-k * (1 +-
    alpha_I)``; total mass stays one because the modulation is balanced.  The
    report carries the two modified root states, the range of the split
    ratios realising the masses, the telescoping product residual, and the
    pairing identity

        <f_mod - f_root, g_mod - g_root> = alpha^T Lambda alpha / 2,

    checked exactly when the tree, ``alpha`` and ``lam`` are exact.  That
    check runs on integers: the weights are integers over one denominator,
    and so are the masses, the modified states, both sides of the identity
    and the gap of each path product, which is compared by
    cross-multiplication; each split ratio is one int/int division, which
    rounds as ``float`` of the exact ratio does.  Floats are read from the
    exact values as ``float(Fraction)`` or ``float(a) +
    float(b)*sqrt(2.0)``.
    """
    if not isinstance(alpha, AlphaSequence):
        alpha = AlphaSequence(np.asarray(alpha))
    n = alpha.n
    if k is None:
        k = n.bit_length() - 1
    if 2 ** k != n:
        raise DyadicError(f"modulation length {n} is not 2**{k}")
    if k > tree.depth:
        raise DyadicError(f"depth {k} outside 0..{tree.depth}")
    if lam is None:
        lam = lambda_matrix(tree, k)
    if tree.exact and alpha.exact and lam.exact:
        return _exact_modified_points(tree, alpha, k, lam)
    values = alpha.as_float()
    rhs = values @ lam.values @ values / 2

    # row 0 holds the plus weights, row 1 the minus weights
    weights = (1.0 + np.array([[1], [-1]]) * values) / 2 ** k
    f_mod, F_mod = weights @ tree.f[k], weights @ tree.F[k]
    g_mod, G_mod = weights @ tree.g[k], weights @ tree.G[k]

    masses = _masses(weights)
    prod = np.ones((2, 1))
    for t in range(k):
        prod = np.repeat(prod, 2, axis=1) * (
            masses[t + 1] / np.repeat(masses[t], 2, axis=1))

    lhs = ((f_mod - tree.f[0]) * (g_mod - tree.g[0])).sum(axis=1)
    return _modulation_report(
        k, (f_mod, F_mod, g_mod, G_mod), masses,
        product_max_error=float(np.abs(prod - weights).max()),
        product_exact=False,
        identity_error=float(np.abs(lhs - rhs).max()), identity_exact=False,
        pairing_value=float(rhs))


def _exact_modified_points(tree, alpha, k, lam):
    """:func:`modified_points` on the integer forms of an exact tree."""
    f, F, g, G = tree._means
    num = alpha._num
    top, den = num.scale
    # 1 +- alpha_i = (den +- top * a_i) / den, and the weights are those
    # over 2**k
    total = den << k
    weights = np.empty((2, len(num.a)), dtype=object)
    weights[0] = den + top * num.a
    weights[1] = den - top * num.a
    w = _Numerators(weights, None, (1, total))
    f_mod = _product(w, f[k], operator.matmul)
    g_mod = _product(w, g[k], operator.matmul)
    states = (_exact_values(f_mod),
              _exact_values(_product(w, F[k], operator.matmul)),
              _exact_values(g_mod),
              _exact_values(_product(w, G[k], operator.matmul)))

    # the masses share the scale of the weights, so each split ratio along
    # a path is a ratio of integers, and so is their product: ups / downs
    masses = _masses(weights)
    ups = np.ones((2, 1), dtype=object)
    downs = np.ones((2, 1), dtype=object)
    for t in range(k):
        ups = np.repeat(ups, 2, axis=1) * masses[t + 1]
        downs = np.repeat(downs * masses[t], 2, axis=1)
    # ups / downs - weights / total = gap / (downs * total)
    gap = ups * total - weights * downs
    product_max_error = max(
        (abs(x) / (y * total) for x, y in zip(gap.ravel().tolist(),
                                             downs.ravel().tolist()) if x),
        default=0.0)

    lhs = _product(_combine(operator.sub, f_mod, f[0]),
                   _combine(operator.sub, g_mod, g[0]))
    lhs = lhs.map(lambda v: v.sum(axis=1))
    row = _Numerators(num.a[None, :], None, num.scale)
    quad = _product(row, _product(lam._num, num, operator.matmul),
                    operator.matmul)
    rhs = quad.map(lambda v: v, (1, 2))
    diff = _combine(operator.sub, lhs, rhs)
    identity_exact = not diff.a.any() and (diff.b is None
                                           or not diff.b.any())
    identity_error = 0.0 if identity_exact else float(
        max(abs(v) for v in _exact_values(diff)))
    return _modulation_report(
        k, states, masses, product_max_error=product_max_error,
        product_exact=not gap.any(), identity_error=identity_error,
        identity_exact=identity_exact, pairing_value=float(_floats(rhs)[0]))


def _masses(weights):
    """Pairwise sums of the weight rows up to the root, root first."""
    masses = [weights]
    while masses[-1].shape[1] > 1:
        finer = masses[-1]
        masses.append(finer[:, 0::2] + finer[:, 1::2])
    return masses[::-1]


def _modulation_report(k, states, masses, **checks):
    """The report of :func:`modified_points`: rows 0 and 1 of the level
    arrays ``states`` as the plus and minus ``(f, F, g, G)`` tuples, the
    range of the split ratios, and the product and identity checks."""
    f, F, g, G = [x.tolist() for x in states]
    plus, minus = [(tuple(f[i]), F[i], tuple(g[i]), G[i]) for i in (0, 1)]
    thetas = [masses[t + 1][:, 0::2] / masses[t] for t in range(k)]
    theta_lo = min((float(t.min()) for t in thetas), default=math.inf)
    theta_hi = max((float(t.max()) for t in thetas), default=-math.inf)
    lo, hi = THETA_DESIGN_RANGE
    alo, ahi = THETA_ASSERTED_RANGE
    return {
        "k": k,
        "plus": plus,
        "minus": minus,
        "theta_min": theta_lo,
        "theta_max": theta_hi,
        "theta_in_design_range": bool(lo - 1e-12 <= theta_lo
                                      and theta_hi <= hi + 1e-12),
        "theta_in_asserted_range": bool(alo <= theta_lo
                                        and theta_hi <= ahi),
        **checks,
    }


# -- the grid oracle ----------------------------------------------------


@dataclass(frozen=True)
class BellmanConfig:
    """Grid geometry of the oracle: boxes and point counts per axis.

    The mean axes span symmetric boxes (odd counts keep zero on-grid); the
    power axes span ``[0, max]``.  ``max_offset`` optionally caps the split
    radius per axis, trading oracle quality for speed; it must be at least 0
    (0 allows no split, so every layer stays zero on the domain).
    """

    p: float = 2.0
    f_max: float = 2.0
    F_max: float = 4.0
    g_max: float = 2.0
    G_max: float = 4.0
    n_f: int = 17
    n_F: int = 17
    n_g: int = 17
    n_G: int = 17
    max_offset: int | None = None

    def __post_init__(self):
        if not 1.0 < self.p < math.inf:
            raise DyadicError(f"exponent must lie in (1, inf), got {self.p}")
        for name in ("f_max", "F_max", "g_max", "G_max"):
            if not 0 < getattr(self, name) < math.inf:
                raise DyadicError(f"{name} must be finite and positive")
        for name in ("n_f", "n_g"):
            n = getattr(self, name)
            if n < 3 or n % 2 == 0:
                raise DyadicError(f"{name} must be odd and at least 3")
        for name in ("n_F", "n_G"):
            if getattr(self, name) < 2:
                raise DyadicError(f"{name} must be at least 2")
        for name in ("n_f", "n_F", "n_g", "n_G"):
            if getattr(self, name) > MAX_AXIS_POINTS:
                raise DyadicError(
                    f"{name} exceeds the cap of {MAX_AXIS_POINTS}")
        if self.max_offset is not None and self.max_offset < 0:
            raise DyadicError(
                f"max_offset must be at least 0, got {self.max_offset}")
        # layer t is u_t N_t, with the unit u_t = 4 h_f h_g / 2**(t-1) and an
        # integer 0 <= N_t <= t 2**(t-1) A C, where the largest offsets have
        # A h_f <= f_max and C h_g <= g_max: |f|^p, |g|^p' and 4 t f_max
        # g_max must be finite, and the smallest unit normal (with a factor
        # 2 to spare)
        with np.errstate(over="ignore"):
            top = np.float64([self.f_max, self.g_max]) ** [self.p, self.p_dual]
        fg = self.f_max * self.g_max
        low = 16.0 * fg / ((self.n_f - 1) * (self.n_g - 1) << MAX_TABLE_DEPTH)
        if not (np.isfinite(top).all() and 4 * MAX_TABLE_DEPTH * fg
                < math.inf and low >= np.finfo(float).tiny):
            raise DyadicError("grid values leave the normal float range")

    @property
    def p_dual(self):
        return self.p / (self.p - 1.0)


def _mirror_axis(top, n):
    """``np.linspace(-top, top, n)`` for odd ``n``, with the middle set to 0
    and the upper half overwritten by the negated lower half, so that
    ``x[i] == -x[n - 1 - i]`` holds exactly."""
    x = np.linspace(-top, top, n)
    x[n // 2] = 0.0
    x[n // 2 + 1:] = -x[n // 2 - 1::-1]
    return x


def _plane(feasible, half0, half1, swept=False):
    """One plane of the grid, with an odd number ``n0`` of rows and a mask
    that is its own mirror image under row ``i -> n0 - 1 - i``.

    Returns the flat indices of its feasible nodes (their compact ids are
    positions in this array, so the rows below the middle come first), the
    compact id of the mirror image of each node below the middle row, the
    number of splits per offset ``(a, b)`` over every centre, in
    lexicographic offset order, and a function that extracts the splits
    centred on the middle row or above it.  Splits are symmetric, on the
    grid and with all three nodes feasible.  The extraction groups them by
    centre, in compact-id order, with the offsets in lexicographic order
    within a group (from ``(0, 0)`` on when ``swept``), and returns their
    plus ends, minus ends, first offset coordinates and the start of each
    group; every feasible centre has the zero split.

    The mask is tested at those centres only: a centre below the middle
    row has the splits of its mirror image at ``(a, -b)``, and ``(-a, -b)``
    has the count of ``(a, b)``.
    """
    n0, n1 = feasible.shape
    mid = n0 // 2
    nodes = np.flatnonzero(feasible)
    ids = np.full(feasible.size, -1, dtype=np.intp)
    ids[nodes] = np.arange(nodes.size)
    ids = ids.reshape(feasible.shape)
    rows, cols = np.divmod(nodes[nodes < mid * n1], n1)
    mirror = ids[n0 - 1 - rows, cols]
    # padded[i + half0, j + half1] = ids[i, j], and -1 off the plane, so an
    # end that leaves the plane fails the same test as an infeasible one
    padded = np.pad(ids, ((half0, half0), (half1, half1)), constant_values=-1)
    rows, cols = np.divmod(nodes[mirror.size:], n1)
    # near[k, half0 + a, half1 + b]: node (a, b) away from the k-th centre
    # from the middle row on is feasible
    near = sliding_window_view(padded >= 0, (2 * half0 + 1, 2 * half1 + 1))
    near = near[rows, cols]
    # ok[k, i, j]: offset (i + lo - half0, j - half1) splits centre k
    lo = half0 if swept else 0
    ok = near[:, lo:] & near[:, 2 * half0 - lo::-1, ::-1]
    # the counts of the offsets with a >= 0, the centres above the middle
    # row counted again for their mirror images, then those with a < 0
    pos = ok[:, half0 - lo:]
    above = pos[np.count_nonzero(rows == mid):].sum(axis=0)
    counts = pos.sum(axis=0) + above[:, ::-1]
    counts = np.concatenate([counts[:0:-1, ::-1], counts]).ravel()
    if swept:
        ok[:, 0, :half1] = False

    def splits():
        k, i, b = np.nonzero(ok)
        # a new array: the three from nonzero are views of one buffer
        first = i + (lo - half0)
        width = padded.shape[1]
        step = first * width + b - half1
        centre = ((rows + half0) * width + cols + half1)[k]
        ends = padded.ravel()
        starts = np.flatnonzero(np.diff(k, prepend=-1))
        return ends[centre + step], ends[centre - step], first, starts

    return nodes, mirror, counts, splits


def _bands(edges, width):
    """Pairs ``(k, j)`` that cut the groups ``edges[i]:edges[i + 1]`` into
    consecutive runs ``edges[k]:edges[j]`` of at most ``width`` entries, or
    of one group where that group alone is wider."""
    k = 0
    while k < edges.size - 1:
        j = max(k + 1, int(np.searchsorted(edges, edges[k] + width,
                                           side="right")) - 1)
        yield k, j
        k = j


def _fronts(top, splits):
    """The front of each centre group of ``splits`` (plus ends, minus ends,
    first offset coordinates, group starts): the distinct triples
    ``(top[plus], top[minus], |first|)`` of the group that no other triple
    of it dominates in every coordinate.

    Returns their codes ``(i * n + j) * n + k``, increasing within each
    group, the start of each group's codes, and ``n = top.max() + 1``.  Of
    the triples ``(i, j, .)`` of a group only the one with the largest
    ``k``, ``K[i, j]``, can be on the front, so each block of groups holds
    ``K`` on a plane of shape ``(groups, n + 1, n + 1)``, padded with -1,
    and takes suffix maxima along both axes, so that ``M[i, j]`` is the
    largest ``K`` at or beyond ``(i, j)``.  The triple ``(i, j, K[i, j])``
    is dominated exactly when ``M`` at ``(i + 1, j)`` or ``(i, j + 1)`` is
    at least ``K[i, j]``.  Blocks hold at most ``_GATHER_BYTES`` of cells
    (one group at least).
    """
    plus, minus, first, starts = splits
    n = int(top.max()) + 1
    ends = np.append(starts, plus.size)
    group = np.repeat(np.arange(starts.size), np.diff(ends))
    ij = top[plus], top[minus]
    k = np.abs(first)
    step = max(1, _GATHER_BYTES // (np.dtype(np.intp).itemsize
                                    * (n + 1) ** 2))
    codes, counts = [], []
    for g0 in range(0, starts.size, step):
        g1 = min(g0 + step, starts.size)
        s = slice(ends[g0], ends[g1])
        K = np.full((g1 - g0, n + 1, n + 1), -1, dtype=np.intp)
        np.maximum.at(K, (group[s] - g0, ij[0][s], ij[1][s]), k[s])
        M = K.copy()
        for r in range(n - 2, -1, -1):
            np.maximum(M[:, r], M[:, r + 1], out=M[:, r])
        for r in range(n - 2, -1, -1):
            np.maximum(M[:, :, r], M[:, :, r + 1], out=M[:, :, r])
        above = np.maximum(M[:, 1:, :-1], M[:, :-1, 1:])
        g, i, j = np.nonzero(K[:, :-1, :-1] > above)
        codes.append((i * n + j) * n + K[g, i, j])
        counts.append(np.bincount(g, minlength=g1 - g0))
    counts = np.concatenate(counts)
    return np.concatenate(codes), np.cumsum(counts) - counts, n


def _ranks(codes, size):
    """The distinct values of ``codes``, ints in ``[0, size)``, in
    increasing order, and the position of each code among them."""
    seen = np.zeros(size, dtype=bool)
    seen[codes] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[codes]


def _group_max(values, index, starts):
    """Row ``i``: the elementwise maximum of the rows ``values[index[s]]``
    over the group ``starts[i] <= s < starts[i + 1]`` (the last one runs to
    the end of ``index``), one row gather per position in a group, the
    shorter groups padded with their first row."""
    sizes = np.diff(np.append(starts, index.size))
    cols = np.arange(sizes.max())
    pos = index[starts[:, None] + np.where(cols < sizes[:, None], cols, 0)]
    out = values[pos[:, 0]]
    for col in pos.T[1:]:
        np.maximum(out, values[col], out=out)
    return out


class BellmanTable:
    """Cached DP layers; ``layer(t)`` is the depth-``t`` gain bound.

    Every candidate of the DP is a sum of halved end values plus a gain
    ``4 |a h_f c h_g|``, where the offsets ``a`` and ``c`` are integers, so
    layer ``t`` is ``u_t N_t`` with the unit ``u_t = 4 h_f h_g / 2**(t-1)``
    and an integer matrix ``N_t`` on the compact matrix of feasible nodes:
    ``N_1 = amax cmax`` and

        N_{t+1} = max(2 N_t[node], N_t[+] + N_t[-] + 2**t a |c|)

    over the splits of each node.  So ``0 <= N_t <= t 2**(t-1) A C``, where
    ``A`` and ``C`` are the largest ``amax`` and ``cmax`` (:meth:`_bound`),
    and each layer is held in int16 where that bound fits, int32 otherwise.
    The DP runs on ``N_t`` alone, exactly; :meth:`layer` rounds ``u_t N_t``
    once.

    The mean axes are exact mirror images of themselves (``fs == -fs[::-1]``
    and ``gs == -gs[::-1]``), so each feasibility mask and every layer is
    mirror-symmetric in f and in g (the gain is even in each offset).  Each
    plane keeps only the splits centred on its nonnegative half, from one
    pass of :func:`_plane`, and one copy along the mirror map of its
    compact ids completes each layer.  The pair cap is checked from both
    planes' split counts before any split is extracted.
    """

    def __init__(self, config):
        self.config = config
        self.fs = _mirror_axis(config.f_max, config.n_f)
        self.Fs = np.linspace(0.0, config.F_max, config.n_F)
        self.gs = _mirror_axis(config.g_max, config.n_g)
        self.Gs = np.linspace(0.0, config.G_max, config.n_G)
        self.steps = (self.fs[1] - self.fs[0], self.Fs[1] - self.Fs[0],
                      self.gs[1] - self.gs[0], self.Gs[1] - self.Gs[0])
        shape = (config.n_f, config.n_F, config.n_g, config.n_G)
        self._origin = np.array([self.fs[0], self.Fs[0], self.gs[0],
                                 self.Gs[0]])
        self._top = np.array(shape) - 1
        self._feasible_f = (np.abs(self.fs)[:, None] ** config.p
                            <= self.Fs[None, :])
        self._feasible_g = (np.abs(self.gs)[:, None] ** config.p_dual
                            <= self.Gs[None, :])
        half = [(n - 1) // 2 for n in shape]
        if config.max_offset is not None:
            half = [min(h, config.max_offset) for h in half]
        self._f_nodes, self._f_mirror, f_counts, f_splits = _plane(
            self._feasible_f, *half[:2], swept=True)
        self._g_nodes, self._g_mirror, g_counts, g_splits = _plane(
            self._feasible_g, *half[2:])
        # candidates of a sweep over every centre: j and -j give the same
        # candidate, so the (f, F) offsets stop at (0, 0), the middle of the
        # lexicographic order, which pairs only with the positive (g, G) ones
        zf, zg = f_counts.size // 2, g_counts.size // 2
        pairs = (int(f_counts[zf]) * int(g_counts[zg + 1:].sum())
                 + int(f_counts[zf + 1:].sum()) * int(g_counts.sum()))
        if pairs > _MAX_LAYER_PAIRS:
            raise DyadicError(
                f"grid needs {pairs:.2e} candidate pairs per layer; shrink "
                "the axes or set max_offset")
        self._f_swept = f_splits()
        self._g_all = g_splits()
        self._nodes = np.ix_(self._f_nodes, self._g_nodes)
        self._mask = (self._feasible_f[:, :, None, None]
                      & self._feasible_g[None, None, :, :])
        self._counts = [np.zeros((self._f_nodes.size, self._g_nodes.size),
                                 dtype=np.int16)]
        self._layers = [self._grid(self._counts[0])]

    @property
    def depth(self):
        return len(self._layers) - 1

    def layer(self, t):
        """Depth-``t`` gain bound on the whole grid, ``u_t N_t`` rounded
        once, ``-inf`` off the domain, built once and cached: ``N_1`` in
        closed form, ``N_2`` from split fronts, later ones swept, and the
        nodes below the middle row of each plane copied from their mirror
        images."""
        if t < 0:
            raise DyadicError(f"depth {t} is negative")
        if t > MAX_TABLE_DEPTH:
            raise DyadicError(
                f"depth {t} exceeds the table cap of {MAX_TABLE_DEPTH}")
        while self.depth < t:
            s = self.depth
            if s == 0:
                out = self._first_layer()
            elif s == 1:
                out = self._second_layer()
            else:
                out = self._dp_layer(self._counts[s], s)
            out[:self._f_mirror.size] = out[self._f_mirror]
            out[:, :self._g_mirror.size] = out[:, self._g_mirror]
            self._counts.append(out)
            self._layers.append(self._grid(self._unit(s + 1) * out))
        return self._layers[t]

    def _grid(self, values):
        """``values`` on the whole grid as float64, ``-inf`` off the domain."""
        out = np.full(self._mask.shape, -np.inf)
        out.reshape(self._feasible_f.size, -1)[self._nodes] = values
        return out

    def _unit(self, t):
        """``u_t = 4 h_f h_g / 2**(t-1)``, normal by :class:`BellmanConfig`."""
        return math.ldexp(4.0 * self.steps[0] * self.steps[2], 1 - t)

    def _bound(self, t):
        """``t 2**(t-1) A C >= N_t``: a layer at most doubles the one before
        and adds a gain of at most ``2**(t-1) A C``."""
        amax, cmax = self._tops
        return t * 2 ** t // 2 * int(amax.max()) * int(cmax.max())

    def _dtype(self, t):
        """int16 for ``N_t`` where its bound fits, else int32 (the caps keep
        the bound within ``6 * 2**5 * 32 * 32``)."""
        return np.dtype(np.int16 if self._bound(t) < 2 ** 15 else np.int32)

    @cached_property
    def _tops(self):
        """``amax`` and ``cmax``: the largest ``a`` among the swept (f, F)
        splits of each compact (f, F) node, and the largest ``|c|`` among
        the (g, G) splits of each compact (g, G) node (mirrored below the
        middle row)."""
        tops = []
        for (_, _, first, starts), mirror, size in (
                (self._f_swept, self._f_mirror, self._f_nodes.size),
                (self._g_all, self._g_mirror, self._g_nodes.size)):
            # every feasible node centres the zero split: one group each
            top = np.empty(size, dtype=np.intp)
            top[mirror.size:] = np.maximum.reduceat(np.abs(first), starts)
            top[:mirror.size] = top[mirror]
            tops.append(top)
        return tops

    def _first_layer(self):
        """``N_1 = amax cmax`` on the compact matrix of feasible nodes: each
        candidate from layer 0 is its gain ``a |c|`` alone (:attr:`_tops`)."""
        amax, cmax = self._tops
        return np.multiply.outer(amax, cmax).astype(self._dtype(1))

    def _second_layer(self):
        """``N_2`` on the compact matrix of feasible nodes, from the integer
        structure of ``N_1`` instead of a sweep.

        ``N_1`` is ``T[amax[x], cmax[y]]`` with ``T[i, j] = i j``
        (:meth:`_first_layer`).  So the candidate of an (f, F) split
        ``(plus, minus, a)`` and a (g, G) split ``(vp, vm, c)``, ``N_1[plus,
        vp] + N_1[minus, vm] + 2 a |c|``, is ``u0 v0 + u1 v1 + 2 u2 v2`` for
        the triples ``u = (amax[plus], amax[minus], a)`` and ``v =
        (cmax[vp], cmax[vm], |c|)`` of nonnegative integers.

        A candidate does not fall when a coordinate of either triple rises,
        so each centre keeps only its front (:func:`_fronts`), and a node
        takes the largest candidate over its two fronts (the zero splits
        give ``2 N_1``).

        The candidates of a band of whole (g, G) centres are a table of its
        distinct front triples against the distinct (f, F) front triples,
        reduced by row gathers: a running maximum over each (g, G) centre's
        front, then over each (f, F) centre's (:func:`_group_max`).  Bands
        hold at most ``_GATHER_BYTES`` of table (one centre at least).  Only
        the nodes from the middle row of each plane on are filled."""
        amax, cmax = self._tops
        fcodes, fstarts, na = _fronts(amax, self._f_swept)
        gcodes, gstarts, nc = _fronts(cmax, self._g_all)
        dtype = self._dtype(2)  # transposed: one row per (g, G) triple
        T = np.multiply.outer(np.arange(nc), np.arange(na)).astype(dtype)
        T2 = 2 * T
        fdistinct, franks = _ranks(fcodes, na ** 3)
        fa = np.unravel_index(fdistinct, (na, na, na))
        out = np.empty((self._f_nodes.size, self._g_nodes.size), dtype=dtype)
        f0, g0 = self._f_mirror.size, self._g_mirror.size
        edges = np.append(gstarts, gcodes.size)
        width = _GATHER_BYTES // (dtype.itemsize
                                  * max(fdistinct.size, fstarts.size))
        for k, j in _bands(edges, width):
            gdistinct, granks = _ranks(gcodes[edges[k]:edges[j]], nc ** 3)
            ga = np.unravel_index(gdistinct, (nc, nc, nc))
            table = T[ga[0]][:, fa[0]]
            table += T[ga[1]][:, fa[1]]
            table += T2[ga[2]][:, fa[2]]
            by_g = _group_max(table, granks, edges[k:j] - edges[k])
            out[f0:, g0 + k:g0 + j] = _group_max(
                np.ascontiguousarray(by_g.T), franks, fstarts)
        return out

    def _dp_layer(self, N, t):
        """``N_{t+1}`` from ``N = N_t`` (``t >= 2``) on the compact matrix
        of feasible nodes, rows in the (f, F) plane: each swept node keeps
        ``2 N_t`` or takes its best split, ``N_t[+] + N_t[-] + 2**t a |c|``.

        Each swept (f, F) centre pairs its splits from the offset (0, 0) on
        with every (g, G) split: a column maximum over its splits, then one
        over each (g, G) centre's group, into its row.  The pairs of (0, 0)
        with (0, 0) and with the negative (g, G) offsets bring nothing new:
        the first gives ``2 N_t``, and each of the others is the candidate
        of the mirror offset with its two ends added in the other order.

        The (g, G) split ends ``N[:, vp]`` and ``N[:, vm]`` are gathered
        once per layer into one buffer, in bands of at most
        ``_GATHER_BYTES`` per array, and each centre reads its rows from
        them in blocks of at most ``_SWEEP_BYTES``.  Every sum stays within
        :meth:`_bound` of ``t + 1``, so it is exact in the layer's dtype."""
        dtype = self._dtype(t + 1)
        N = N.astype(dtype, copy=False)
        out = 2 * N
        n = N.shape[0]
        plus, minus, first, fstarts = self._f_swept
        vp, vm, vc, starts = self._g_all
        g0 = self._g_mirror.size
        a = np.arange(first.max() + 1, dtype=dtype)[:, None]
        spans = list(enumerate(zip(fstarts.tolist(),
                                   fstarts[1:].tolist() + [plus.size]),
                               self._f_mirror.size))
        edges = np.append(starts, vp.size)
        bands = list(_bands(edges, _GATHER_BYTES // (n * dtype.itemsize)))
        ends = np.empty((2, n * max(edges[j] - edges[k] for k, j in bands)),
                        dtype=dtype)
        for k, j in bands:
            c0, c1 = edges[k], edges[j]
            Np, Nm = ends[:, :n * (c1 - c0)].reshape(2, n, -1)
            # "clip" writes straight into the buffer; every id is in range
            np.take(N, vp[c0:c1], axis=1, out=Np, mode="clip")
            np.take(N, vm[c0:c1], axis=1, out=Nm, mode="clip")
            gains = a * (np.abs(vc[c0:c1]) << t).astype(dtype)
            groups = starts[k:j] - c0
            step = max(1, _SWEEP_BYTES // ((c1 - c0) * dtype.itemsize))
            for centre, (s0, e) in spans:
                row = out[centre, g0 + k:g0 + j]
                for s in range(s0, e, step):
                    s1 = min(s + step, e)
                    cand = Np[plus[s:s1]]
                    cand += Nm[minus[s:s1]]
                    cand += gains[first[s:s1]]
                    best = np.maximum.reduceat(cand.max(axis=0), groups)
                    np.maximum(row, best, out=row)
        return out

    def _snap(self, states):
        """Grid indices nearest to real states (last axis ``f, F, g, G``):
        ties go to the even index, and indices are clipped to the grid."""
        i = np.rint((states - self._origin) / self.steps)
        return np.minimum(np.maximum(i, 0), self._top).astype(np.intp)

    def evaluate(self, t, state, bump_feasible=True):
        """Table value at the nearest grid node to the scalar state ``(f,
        F, g, G)``; each coordinate is read with ``float``.

        A state on the domain boundary can snap to an infeasible node; with
        ``bump_feasible`` the power coordinates are raised grid step by grid
        step until the node is feasible again, and the report says so.
        """
        index, dist, bumped = self._nearest(np.array([state], dtype=float),
                                            bump_feasible)
        idx = tuple(index[0].tolist())
        return {"value": float(self.layer(t)[idx]), "index": idx,
                "snap_distance": float(dist[0]), "bumped": bool(bumped[0])}

    @cached_property
    def _raised(self):
        """The power index each node of the (f, F) and of the (g, G) plane
        is raised to: the first feasible one from it on, or the last index
        when none before it is."""
        out = []
        for feasible in (self._feasible_f, self._feasible_g):
            last = feasible.shape[1] - 1
            first = np.where(feasible, np.arange(last + 1), last)
            out.append(np.minimum.accumulate(first[:, ::-1], axis=1)[:, ::-1])
        return out

    def _nearest(self, states, bump_feasible=True):
        """The grid nodes :meth:`evaluate` reads for the rows of the
        ``(n, 4)`` float array ``states``, from one snap, one distance
        computation and one feasibility bump: ``(index, snap distance,
        bumped)``, one row of each per state."""
        if states.ndim != 2 or states.shape[1] != 4:
            raise DyadicError("a state has four coordinates (f, F, g, G); "
                              f"got an array of shape {states.shape}")
        if not np.isfinite(states).all():
            bad = states[~np.isfinite(states).all(axis=1)][0]
            raise DyadicError(f"state {tuple(bad.tolist())} is not finite")
        idx = self._snap(states)
        i0, i1, i2, i3 = idx.T
        nodes = np.stack([self.fs[i0], self.Fs[i1], self.gs[i2],
                          self.Gs[i3]], axis=1)
        dist = np.abs(nodes - states).max(axis=1)
        if not bump_feasible:
            return idx, dist, np.zeros(len(idx), dtype=bool)
        index = idx.copy()
        index[:, 1] = self._raised[0][i0, i1]
        index[:, 3] = self._raised[1][i2, i3]
        return index, dist, (index != idx).any(axis=1)


# Most recently used tables, oldest first (dicts keep insertion order).
_TABLE_CACHE = {}
_TABLE_CACHE_SIZE = 4


def bellman_oracle(config, depth=0):
    """Shared table for a grid configuration, computed up to ``depth``.

    The cache keeps the ``_TABLE_CACHE_SIZE`` most recently used
    configurations and drops the least recently used one.
    """
    table = _TABLE_CACHE.pop(config, None)
    if table is None:
        table = BellmanTable(config)
        while len(_TABLE_CACHE) >= _TABLE_CACHE_SIZE:
            del _TABLE_CACHE[next(iter(_TABLE_CACHE))]
    _TABLE_CACHE[config] = table
    table.layer(depth)
    return table


def range_check(table, t):
    """Feasible values lie in ``[0, 4 t f_max g_max]`` (per-step gain cap);
    ``ok`` checks the integer bound ``0 <= N_t <= t 2**(t-1) A C``."""
    layer = table.layer(t)
    finite = layer[np.isfinite(layer)]
    counts = table._counts[t]
    return {"min": float(finite.min()), "max": float(finite.max()),
            "upper_bound": 4.0 * t * table.config.f_max * table.config.g_max,
            "n_finite": int(finite.size),
            "ok": bool(counts.min() >= 0 and counts.max() <= table._bound(t))}


def _grid_draws(u, shape, max_offset=None):
    """Offsets ``j`` and centres ``idx`` of on-grid splits, one column per
    split, from columns of eight uniforms in ``[0, 1)``: ``j_k = floor(u_k
    (2 h_k + 1)) - h_k`` with ``h_k = (n_k - 1) // 2``, capped at
    ``max_offset`` when one is given (the DP's split radius), then
    ``idx_k = |j_k| + floor(u_{4+k} (n_k - 2 |j_k|))``, so both ends
    ``idx +- j`` lie on the grid."""
    n = np.array(shape)[:, None]
    h = (n - 1) // 2
    if max_offset is not None:
        h = np.minimum(h, max_offset)
    # the products are nonnegative, so truncation is the floor
    j = (u[:4] * (2 * h + 1)).astype(np.intp) - h
    r = np.abs(j)
    return j, r + (u[4:] * (n - 2 * r)).astype(np.intp)


def concavity_gain_check(table, t, n_samples=200, seed=0, snapped=False):
    """Sampled slack of the split inequality between layers ``t+1`` and ``t``.

    Each attempt draws one split, and the samples are the first
    ``n_samples`` accepted attempts among the first ``200 * n_samples``.
    Attempts are drawn in blocks, but each one reads the next eight
    uniforms of the stream, so the report does not depend on the block
    size.  A block is held axis-major, one row per coordinate (the
    transpose of the draws), and the layers are read by flat node index.

    Grid mode: a uniform offset within the DP's split radius and a uniform
    centre that keeps both ends on the grid (:func:`_grid_draws`); attempts
    with an infeasible end are rejected.  The slack ``N_{t+1}[mid] -
    (N_t[+] + N_t[-] + 2**t |j_f j_g|)`` is exact, in integer units, and
    reported times ``u_{t+1}``.  A split the DP missed shows as a negative
    slack, and no other does.

    Snapped mode: ``f0, g0, F0, G0, df, dF, dg, dG`` are uniform, in this
    order, on the boxes kept two grid steps inside the grid (a grid with
    3 points on a mean axis or 2 on a power axis has none, and is refused),
    and the three states ``centre``, ``centre +- step`` are snapped to the
    nearest grid nodes; an attempt is rejected when a real state is outside the
    domain or a snapped one is infeasible.  Snapped real pairs pick up
    discretisation error: a sub-grid offset can vanish under snapping while
    its true gain survives (up to ``16 h_f h_g`` for the sampled offsets),
    and the snapped states can straddle one grid step of table variation
    (about ``4 h_f g_max + 4 h_g f_max``).  The report carries this
    ``allowance``; snapped slacks are expected above its negative.  A run
    in which no attempt is accepted checks nothing and raises
    ``DyadicError``.
    """
    if n_samples < 1:
        raise DyadicError(f"n_samples must be at least 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    upper, lower = table.layer(t + 1), table.layer(t)
    hf, hF, hg, hG = table.steps
    cfg = table.config
    if not snapped:
        # N_{t+1} and N_t, whose floats are exact
        upper, lower = (table._grid(table._counts[s]) for s in (t + 1, t))
        half, unit = 1.0, table._unit(t + 1)
    else:
        half, unit = 0.5, 1.0
        lo = np.array([-cfg.f_max + 2 * hf, -cfg.g_max + 2 * hg, 0.0, 0.0,
                       -2 * hf, -2 * hF, -2 * hg, -2 * hG])
        hi = np.array([cfg.f_max - 2 * hf, cfg.g_max - 2 * hg,
                       cfg.F_max - 2 * hF, cfg.G_max - 2 * hG,
                       2 * hf, 2 * hF, 2 * hg, 2 * hG])
        for name, low, high in zip(("n_f", "n_g", "n_F", "n_G"), lo, hi):
            if low > high:
                raise DyadicError(
                    f"snapped check: {name} = {getattr(cfg, name)} leaves "
                    "no centres two grid steps inside the axis")
    # flat index steps of the four axes
    sizes = np.cumprod((1,) + lower.shape[:0:-1])[::-1]
    min_slack = math.inf
    n_eval = 0
    attempts = 0
    max_attempts = 200 * n_samples
    while n_eval < n_samples and attempts < max_attempts:
        b = min(_CHECK_CHUNK, max_attempts - attempts)
        attempts += b
        if snapped:
            # rows f0, g0, F0, G0, df, dF, dg, dG; states are (f, F, g, G)
            u = np.ascontiguousarray(rng.uniform(lo, hi, size=(b, 8)).T)
            centre, step = u[[0, 2, 1, 3]], u[4:]
            pts = np.stack([centre, centre + step, centre - step])
            ok = ((np.abs(pts[:, 0]) ** cfg.p <= pts[:, 1])
                  & (np.abs(pts[:, 2]) ** cfg.p_dual <= pts[:, 3])
                  ).all(axis=0)
            # numpy runs along the draws, the axis of unit stride
            mid, plus, minus = table._snap(pts.transpose(0, 2, 1)) @ sizes
            gain = 4.0 * np.abs(step[0] * step[2])
        else:
            j, mid = _grid_draws(np.ascontiguousarray(rng.random((b, 8)).T),
                                 lower.shape, cfg.max_offset)
            gain = np.abs(j[0] * j[2]) * 2.0 ** t
            mid, j = sizes @ mid, sizes @ j
            plus, minus = mid + j, mid - j
            ok = True
        vmid = upper.take(mid)
        vp, vm = lower.take(plus), lower.take(minus)
        ok = ok & np.isfinite(vp) & np.isfinite(vm)
        if snapped:
            ok &= np.isfinite(vmid)
        rows = np.flatnonzero(ok)[:n_samples - n_eval]
        if rows.size:
            slack = vmid[rows] - (half * (vp[rows] + vm[rows]) + gain[rows])
            min_slack = min(min_slack, float(slack.min()))
            n_eval += rows.size
    if not n_eval:
        raise DyadicError(
            f"{'snapped' if snapped else 'grid'} check: none of {attempts} "
            "attempts drew a feasible split")
    allowance = 0.0
    if snapped:
        allowance = float(16.0 * hf * hg
                          + 4.0 * (hf * cfg.g_max + hg * cfg.f_max))
    return {"min_slack": min_slack * unit, "n_evaluated": n_eval,
            "snapped": snapped, "t": t, "allowance": allowance}


# -- the cell-decomposition yield check ---------------------------------


def _exact_alpha(alpha):
    """Exact copy of a float modulation.

    A float is an integer over a power of 2, so the floats are exactly
    integers over the largest of their denominators, and only the balance
    residual of the float entries is off; it moves onto the entry farthest
    from ``+-1/4`` among those that stay in ``[-1/4, 1/4]`` when they
    absorb it.
    """
    parts = [x.as_integer_ratio() for x in alpha.values.tolist()]
    den = max(q for _, q in parts)
    nums = np.empty(len(parts), dtype=object)
    nums[:] = [p * (den // q) for p, q in parts]
    excess = nums.sum()
    if excess:
        i = min((i for i, v in enumerate(nums.tolist())
                 if 4 * abs(v - excess) <= den),
                key=lambda i: abs(nums[i]))
        nums[i] -= excess
    return AlphaSequence._from_numerators(
        _Numerators(nums, None, (1, den)))


def _auto_config(tree, space):
    """The oracle grid of a scalar tree, from the float leaf states.  A
    value in Q(sqrt(2)) reads as ``float(a) + float(b)*sqrt(2.0)``, which is
    not monotone to the last ulp, so the grid can differ from the one of the
    exact maxima only where one lies within a few ulps of an integer."""
    f_abs, F_abs, g_abs, G_abs = np.abs(tree._states(tree.depth)).max(
        axis=0).tolist()
    if not (math.isfinite(F_abs) and math.isfinite(G_abs)):
        raise DyadicError(f"the leaf powers at p = {space.p} are not finite "
                          "floats; no oracle grid holds them")
    return BellmanConfig(
        p=float(space.p),
        f_max=max(2.0, float(math.ceil(f_abs))),
        F_max=max(4.0, float(math.ceil(F_abs))),
        g_max=max(2.0, float(math.ceil(g_abs))),
        G_max=max(4.0, float(math.ceil(G_abs))),
    )


def lemma51_verify(f, g, space, k=1, bellman_depth=None, config=None,
                   seed=0):
    """End-to-end yield check for one pair of functions at cell depth ``k``.

    Builds the martingale state tree and its depth-``k`` interaction matrix
    ``Lambda``, and picks one balanced modulation ``alpha`` with
    :func:`find_alpha` (``seed`` steers its ascent above size 8).  That
    same ``alpha`` gives ``achieved_c`` against the reference threshold and
    drives the reweighting checks of :func:`modified_points` (split-ratio
    range, telescoping product, and the pairing identity, exactly on exact
    trees, where ``alpha`` is made exact first).  For scalar values the
    total interaction weight is compared with the oracle drop between the
    root state and the mean of its depth-``k`` cell states.
    """
    if f.d == 1 and bellman_depth is not None and (
            bellman_depth > MAX_TABLE_DEPTH):
        # refused before the tree and the modulation search, which take
        # seconds at k = 7
        raise DyadicError(f"depth {bellman_depth} exceeds the table cap of "
                          f"{MAX_TABLE_DEPTH}")
    tree = tree_from_functions(f, g, space)
    if not 1 <= k <= tree.depth:
        raise DyadicError(f"cell depth {k} outside 1..{tree.depth}")
    if f.d == 1:
        # checked before the modulation search, which takes seconds at k = 7
        if bellman_depth is None and k > MAX_TABLE_DEPTH:
            raise DyadicError(f"cell depth {k} needs an oracle depth above "
                              f"the table cap of {MAX_TABLE_DEPTH}")
        if bellman_depth is None:
            bellman_depth = min(max(k, 3), tree.depth, MAX_TABLE_DEPTH)
        bellman_depth = int(bellman_depth)
        if bellman_depth < k:
            raise DyadicError("bellman_depth must be at least the cell depth")
        if config is None:
            # before the modulation search: leaf powers that overflow are
            # refused at once
            config = _auto_config(tree, space)
    lam = lambda_matrix(tree, k)
    alpha, alpha_report = find_alpha(lam, seed=seed)
    sum_abs = alpha_report["sum_abs_lambda"]
    if tree.exact:
        alpha = _exact_alpha(alpha)
    mod = modified_points(tree, alpha, k=k, lam=lam)

    report = {
        "k": k,
        "tree_depth": tree.depth,
        "tree_exact": tree.exact,
        "sum_abs_lambda": sum_abs,
        "achieved_c": alpha_report["achieved_c"],
        "threshold": alpha_report["threshold"],
        "meets_threshold": alpha_report["meets_threshold"],
        "alpha_method": alpha_report["method"],
        "quad_value": alpha_report["quad_value"],
        "identity_error": mod["identity_error"],
        "identity_exact": mod["identity_exact"],
        "theta_min": mod["theta_min"],
        "theta_max": mod["theta_max"],
        "product_max_error": mod["product_max_error"],
    }

    if f.d != 1:
        report.update({"bellman_skipped": "multidimensional values",
                       "drop": None, "c_emp": None, "degenerate": True})
        return report

    table = bellman_oracle(config, depth=bellman_depth)
    # the root state, then the cell states
    index, dist, bumped = table._nearest(
        np.concatenate([tree._states(0), tree._states(k)]))
    root_value = float(table.layer(bellman_depth)[tuple(index[0])])
    cell_values = table.layer(bellman_depth - k)[tuple(index[1:].T)].tolist()
    if all(np.isfinite(v) for v in cell_values + [root_value]):
        cell_mean = math.fsum(cell_values) / 2 ** k
        drop = root_value - cell_mean
    else:
        cell_mean = None
        drop = None
    degenerate = drop is None or drop <= 1e-12
    c_emp = None if degenerate else sum_abs / (2.0 ** (k / 2.0) * drop)
    report.update({
        "bellman_depth": bellman_depth,
        "root_value": root_value,
        "cell_mean_value": cell_mean,
        "drop": drop,
        "c_emp": c_emp,
        "degenerate": bool(degenerate),
        "max_snap_distance": float(dist.max()),
        "bumped_any": bool(bumped.any()),
    })
    return report
