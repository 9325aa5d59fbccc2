"""Haar shift operators, martingale transforms and paraproducts.

A shift of parameters ``(m, n)`` maps ``f`` to

    sum over L, I, J of  c[L, I, J] * <f, h_I> * h_J

where ``I`` sits ``m`` levels and ``J`` sits ``n`` levels below ``L`` (the
transposed block with depths ``(n, m)`` is also admitted so that adjoints and
symmetrizations stay in one class).  Coefficients obey the normalisation
``|c| <= sqrt(|I| |J|) / |L| = 2**-((m+n)/2)``; the complexity of the operator
is ``max(m, n) + 1``.  The martingale transform ``sum of sigma_I <f, h_I> h_I``
is the ``(0, 0)`` shift with the sign ``sigma_L`` on the key ``(L, L, L)``.

Sums over ``L`` include exactly the intervals whose Haar functions ``h_I`` and
``h_J`` exist inside the window, i.e. ``level(L) <= depth - complexity``.
Operators annihilate the window mean and produce mean-zero output.  They
run on the one Haar engine of :mod:`dyadlab.signal`, in float or exact
arithmetic alike: shifts apply as one scatter in heap order through an
apply plan built once per shift, whose key order keeps per-level float sums.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .dyadic import DyadicError, DepthExhaustedError, WindowError
from .exact import Sqrt2Rational, as_exact, from_text, sqrt2_pow, to_text
from .signal import (StepFunction, _as_rational, _form, _numerators,
                     _one_mode, _product, _stacked, _synthesized)

__all__ = [
    "ShiftSpec",
    "apply_shift",
    "petermichl_shift",
    "random_extremal_shift",
    "paraproduct",
    "paraproduct_adjoint",
    "shift_slice",
    "slice_levels",
    "symmetrize",
    "slice_bilinear_sides",
    "shift_matrix",
    "series_bound",
    "MAX_MATRIX_DIM",
]

MAX_MATRIX_DIM = 4096
# Bytes a constructor may allocate for one coefficient table and its apply
# plan: six int64 key columns and one int64 weight per row, and the plan's
# int64 source and target rows, float64 coefficient and the two pointers of
# its exact coefficient (the rational and the sqrt(2) integer) per row.
# Depth 16 with m = n = 4 takes 101 MB; depth 20 would take 1.6 GB.
_MAX_TABLE_BYTES = 1 << 27
_ROW_BYTES = 12 * 8
_INT64 = np.iinfo(np.int64)

# Key columns: L level, L index, I level, I index, J level, J index.  This
# permutation turns a key (L, I, J) into the adjoint key (L, J, I).
_ADJOINT = [0, 1, 4, 5, 2, 3]


def _merge(keys, weights):
    """Sort key rows lexicographically and add the weights of repeated
    rows; an integer sum that leaves int64 raises ``DyadicError``.

    The sort is stable, so repeated rows are added in the order given.
    """
    order = np.lexsort(keys.T[::-1])
    keys, weights = keys[order], weights[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    if not first.all():
        starts = np.flatnonzero(first)
        # int64 sums wrap, so they are exact where the exact sums fit,
        # which is sure unless the largest |weight| times the longest run
        # leaves int64; the sums are then checked in Python ints
        top = max(-int(weights.min()), int(weights.max()))
        if top * int(np.diff(starts, append=len(keys)).max()) > _INT64.max:
            sums = np.add.reduceat(weights.astype(object), starts)
            if not all(_INT64.min <= w <= _INT64.max for w in sums):
                raise DyadicError("a merged weight leaves int64")
        keys, weights = keys[starts], np.add.reduceat(weights, starts)
    return keys, weights


def _sorted_set(values):
    """Sorted distinct ints of an int array.

    Stands in for ``np.unique``, whose first call imports ``numpy.ma``
    (about 1.5 MB of resident memory).
    """
    return sorted(set(values.tolist()))


@lru_cache(maxsize=64)
def _plan_factors(amplitude, gap_set):
    """The integer form of ``amplitude * 2**((gap - 2)/2)`` for each gap of
    ``gap_set``, over one scale; shared, so its arrays must not be
    written."""
    return _numerators([amplitude * sqrt2_pow(g - 2) for g in gap_set])


def _check_blocks(m, n):
    if m < 0 or n < 0:
        raise DyadicError("shift parameters must be non-negative")


class ShiftSpec:
    """A finite-window Haar shift given by its coefficient table.

    The table is stored as arrays.  Row ``r`` of the ``(N, 6)`` int64 array
    ``keys`` is ``(L level, L index, I level, I index, J level, J index)``;
    the coefficient of row ``r`` is the int64 ``weights[r]`` times one exact
    ``amplitude`` (an int, Fraction or Sqrt2Rational), so applications stay
    exact on exact inputs.  Rows are in ascending order without repeats:
    the constructor sorts them and adds the weights of repeated rows.  It
    raises ``DyadicError`` for a weight or a sum of weights outside int64,
    and for an amplitude that is not exact; a ``numbers.Rational``
    amplitude is stored as an int or Fraction.

    ``entries`` gives the table back as a dict that maps
    ``(L_address, I_address, J_address)`` to a coefficient, in key order;
    addresses are ``(level, index)`` pairs of the owning system.
    """

    def __init__(self, system, m, n, keys, weights, amplitude=1):
        keys = np.asarray(keys, dtype=np.int64)
        weights = np.asarray(weights)
        if weights.ndim != 1 or keys.shape != (len(weights), 6):
            raise DyadicError("keys must be (N, 6) rows, one per weight")
        if len(weights) and weights.dtype.kind not in "iu":
            raise DyadicError("weights must be integers; fractions and "
                              "sqrt(2) go in the amplitude")
        if len(weights) and weights.max() > _INT64.max:
            raise DyadicError("a weight leaves int64")
        if not isinstance(amplitude, Sqrt2Rational):
            try:
                amplitude = _as_rational(amplitude)
            except TypeError:
                raise DyadicError(f"amplitude must be an exact number, got "
                                  f"{amplitude!r}") from None
        self._init(system, m, n, *_merge(keys, weights.astype(np.int64)),
                   amplitude)
        self._validate()

    @classmethod
    def _from_arrays(cls, system, m, n, keys, weights, amplitude):
        """Wrap key rows valid by construction, in ascending order without
        repeats, without the table checks: the rows of
        :func:`random_extremal_shift` and :func:`petermichl_shift`, and
        rows derived from a validated table (its adjoint, symmetrization or
        slices), which keep every invariant."""
        shift = cls.__new__(cls)
        shift._init(system, m, n, keys, weights, amplitude)
        return shift

    # A slice (:func:`shift_slice`) keeps the shift it restricts and the
    # mask of the rows it keeps, and reads its apply plan from there.
    _parent = None
    _keep = None

    def _init(self, system, m, n, keys, weights, amplitude):
        _check_blocks(m, n)
        self.system = system
        self.m = int(m)
        self.n = int(n)
        self.keys = keys
        self.weights = weights
        self.amplitude = amplitude

    @property
    def complexity(self):
        return max(self.m, self.n) + 1

    @property
    def coefficient_bound(self):
        """Exact value of ``2**-((m+n)/2)``."""
        return sqrt2_pow(-(self.m + self.n))

    # -- coefficients ------------------------------------------------------

    @cached_property
    def _distinct(self):
        """Distinct weights, and the position of each row's weight among
        them, so exact work is done once per value; built once per shift."""
        distinct = _sorted_set(self.weights)
        return distinct, np.searchsorted(distinct, self.weights)

    def _float_values(self):
        """``float(coefficient)`` per row."""
        distinct, inverse = self._distinct
        values = np.array([float(w * self.amplitude) for w in distinct],
                          dtype=float)
        return values[inverse]

    # -- the apply plan ----------------------------------------------------
    # Built once per shift, each part on first use: the heap rows
    # (``2**level + index``) of every row's I and J, and every row's
    # coefficient joined to the Haar normalisations, as a float per row or
    # as an exact integer form with one integer per row.  A slice takes
    # each part from the shift it restricts, at the rows it keeps.

    @cached_property
    def _rows(self):
        if self._parent is not None:
            src, dst = self._parent._rows
            return src[self._keep], dst[self._keep]
        keys = self.keys
        return (1 << keys[:, 2]) + keys[:, 3], (1 << keys[:, 4]) + keys[:, 5]

    def _gaps(self):
        """The J level minus the I level: its values (one per block) and
        each row's position among them."""
        gap_set = sorted({self.n - self.m, self.m - self.n})
        return gap_set, np.searchsorted(gap_set,
                                        self.keys[:, 4] - self.keys[:, 2])

    @cached_property
    def _float_plan(self):
        """``float(weight * amplitude) * float(2**(gap/2) / 2)`` per row:
        ``sqrt(|I|) / 2`` from ``<f, h_I>`` and ``|J|**-0.5`` from ``h_J``."""
        if self._parent is not None:
            return self._parent._float_plan[self._keep]
        gap_set, gap = self._gaps()
        factors = np.array([float(sqrt2_pow(g - 2)) for g in gap_set])
        return self._float_values() * factors[gap]

    @cached_property
    def _exact_plan(self):
        """The exact coefficient of the float plan as an ``(N, 1)`` integer
        form: each row's weight times the integer form of ``amplitude *
        2**((gap - 2)/2)`` for its gap, over the scale of those forms."""
        if self._parent is not None:
            keep = self._keep
            return self._parent._exact_plan.map(lambda nums: nums[keep])
        gap_set, gap = self._gaps()
        factors = _plan_factors(self.amplitude, tuple(gap_set))
        weights = self.weights.astype(object)
        return factors.map(lambda nums: (weights * nums[gap])[:, None])

    @cached_property
    def entries(self):
        """The table as ``{(L_address, I_address, J_address): coefficient}``.

        Built on first use, in key order; not for hot paths.
        """
        distinct, inverse = self._distinct
        coeffs = [w * self.amplitude for w in distinct]
        return {((a, b), (c, d), (e, f)): coeffs[i]
                for (a, b, c, d, e, f), i in zip(self.keys.tolist(),
                                                 inverse.tolist())}

    # -- validation --------------------------------------------------------

    def _reject(self, bad, error, what):
        if bad.any():
            row = self.keys[int(np.argmax(bad))].tolist()
            laddr, iaddr, jaddr = (tuple(row[0:2]), tuple(row[2:4]),
                                   tuple(row[4:6]))
            raise error(f"entry {laddr}->{iaddr},{jaddr}: {what}")

    def _validate(self):
        keys, depth = self.keys, self.system.depth
        levels, index = keys[:, 0::2], keys[:, 1::2]  # columns L, I, J
        self._reject(((levels < 0) | (levels > depth)).any(axis=1),
                     WindowError, f"level outside [0, {depth}]")
        self._reject(((index < 0) | (index >= np.left_shift(1, levels)))
                     .any(axis=1), WindowError, "index outside its level")
        d_i = levels[:, 1] - levels[:, 0]
        d_j = levels[:, 2] - levels[:, 0]
        blocks = sorted({(self.m, self.n), (self.n, self.m)})
        self._reject(~(((d_i == self.m) & (d_j == self.n))
                       | ((d_i == self.n) & (d_j == self.m))),
                     DyadicError, f"depths outside the blocks {blocks}")
        self._reject((index[:, 1] >> d_i != index[:, 0])
                     | (index[:, 2] >> d_j != index[:, 0]),
                     DyadicError, "intervals not nested")
        self._reject((levels[:, 1] >= depth) | (levels[:, 2] >= depth),
                     DepthExhaustedError,
                     "needs Haar functions below the leaf level")
        if not len(keys):
            return
        # one comparison: the largest |weight| times |amplitude|
        coeff = max(-int(self.weights.min()),
                    int(self.weights.max())) * self.amplitude
        bound = self.coefficient_bound
        if abs(as_exact(coeff)) > bound:
            raise DyadicError(
                f"coefficient {coeff!r} exceeds bound {float(bound)}")

    # -- algebra -----------------------------------------------------------

    def adjoint(self):
        """The adjoint shift: every entry ``(L, I, J)`` becomes ``(L, J, I)``."""
        keys, weights = _merge(self.keys[:, _ADJOINT], self.weights)
        return ShiftSpec._from_arrays(self.system, self.m, self.n, keys,
                                      weights, self.amplitude)

    # -- serialization ---------------------------------------------------

    def to_json_dict(self):
        """Lossless JSON form: each entry row is the six key integers and
        its integer weight; the exact amplitude is written as the text of
        :func:`dyadlab.exact.to_text`."""
        rows = np.column_stack([self.keys, self.weights]).tolist()
        return {"m": self.m, "n": self.n,
                "system": self.system.to_json_dict(),
                "amplitude": to_text(self.amplitude), "entries": rows}

    @classmethod
    def from_json_dict(cls, data):
        from .dyadic import DyadicSystem
        try:
            rows = np.array(data["entries"], dtype=np.int64).reshape(-1, 7)
        except OverflowError:
            raise DyadicError("an entry row holds an integer outside int64"
                              ) from None
        return cls(DyadicSystem.from_json_dict(data["system"]), data["m"],
                   data["n"], rows[:, :6], rows[:, 6],
                   from_text(data["amplitude"]))


# -- constructors --------------------------------------------------------


def _block_rows(depth, m, n):
    """Row count of the block-``(m, n)`` key table at window depth ``depth``:
    ``2**(m + n)`` rows for each base interval L above level
    ``depth - max(m, n)``."""
    return ((1 << max(depth - max(m, n), 0)) - 1) << (m + n)


def _block_keys(system, m, n):
    """Key rows of every ``(L, I, J)`` with block depths ``(m, n)`` whose
    Haar functions exist, in key order (L level, L, I, J ascending).

    The row count is checked against the table cap before anything is
    allocated."""
    _check_blocks(m, n)
    rows = _block_rows(system.depth, m, n)
    if rows * _ROW_BYTES > _MAX_TABLE_BYTES:
        raise DyadicError(
            f"a ({m}, {n}) shift at depth {system.depth} has {rows} rows "
            f"({rows * _ROW_BYTES} bytes), over the table cap of "
            f"{_MAX_TABLE_BYTES} bytes")
    r = np.arange(rows)
    heap = (r >> (m + n)) + 1  # L's heap row, 2**level + index
    lev = np.frexp(heap)[1].astype(np.int64) - 1
    L = heap - (1 << lev)
    i_off, j_off = (r >> n) & ((1 << m) - 1), r & ((1 << n) - 1)
    return np.column_stack([lev, L, lev + m, (L << m) + i_off,
                            lev + n, (L << n) + j_off])


def random_extremal_shift(system, m, n, seed):
    """All coefficients drawn i.i.d. uniform from ``{-1, +1} * 2**-((m+n)/2)``.

    One draw per entry in key order, all in a single ``integers`` call.
    """
    keys = _block_keys(system, m, n)
    if not len(keys):
        raise DepthExhaustedError(
            f"window depth {system.depth} cannot host complexity "
            f"{max(m, n) + 1}")
    rng = np.random.default_rng(seed)
    signs = 2 * rng.integers(0, 2, size=len(keys)) - 1
    return ShiftSpec._from_arrays(system, m, n, keys, signs,
                                  sqrt2_pow(-(m + n)))


def petermichl_shift(system):
    """The (0, 1) shift sending ``h_L`` to ``(h_(right child) - h_(left child)) / sqrt(2)``."""
    keys = _block_keys(system, 0, 1)  # (L, L, left child), (L, L, right child)
    if not len(keys):
        raise DepthExhaustedError("window depth < 2 cannot host this shift")
    signs = np.tile(np.array([-1, 1], dtype=np.int64), len(keys) // 2)
    return ShiftSpec._from_arrays(system, 0, 1, keys, signs, sqrt2_pow(-1))


# -- application ---------------------------------------------------------


def _level_groups(shift):
    """Rows of each (L level, I level, J level) group, groups ascending."""
    base = shift.system.depth + 1
    keys = shift.keys
    codes = (keys[:, 0] * base + keys[:, 2]) * base + keys[:, 4]
    for code in _sorted_set(codes):
        llev, rest = divmod(code, base * base)
        yield (np.flatnonzero(codes == code), llev, *divmod(rest, base))


def _coefficients(shift, exact):
    """Every row's coefficient from the apply plan, as an ``(N, 1)`` form."""
    if exact:
        return shift._exact_plan
    return _form(shift._float_plan[:, None])


def _added_at(rows, values, n):
    """``n`` sums: ``values[r]`` added to sum ``rows[r]``; a float column
    with one ``np.bincount``, integers with one ``np.add.at``."""
    if values.dtype != object:
        # astype: np.bincount counts in int64 when there are no rows
        return np.column_stack([np.bincount(rows, column, minlength=n)
                                for column in values.T]).astype(float,
                                                                copy=False)
    out = np.zeros((n, values.shape[1]), dtype=object)
    np.add.at(out, rows, values)
    return out


def apply_shift(shift, f):
    """Apply a :class:`ShiftSpec` to a step function, in the arithmetic of
    its values (float, or exact when they are exact).

    The entry ``(L, I, J)`` adds ``c * sqrt(|I| / |J|) / 2`` times the jump
    of ``f`` across ``I`` to the term of ``J``; one synthesis then turns the
    terms into leaf values.  The rows go in key order, in heap order (row
    ``2**level + index``), so each ``J`` sums in (L level, I level, I)
    order, in one scatter-add.  The shift's apply plan is built on first
    use.
    """
    if f.system != shift.system:
        raise DyadicError("function and shift live on different systems")
    src, dst = shift._rows
    n = 1 << f.depth  # heap rows
    terms = _product(_coefficients(shift, f.exact),
                     f._heap.map(lambda h: h[src]))
    return StepFunction._from_numerators(shift.system, _synthesized(
        terms.map(lambda t: _added_at(dst, t, n))))


# -- paraproducts --------------------------------------------------------


def _paraproduct_operands(phi, f):
    """The symbol and the function, as floats unless both are exact."""
    if phi.system != f.system:
        raise DyadicError("symbol and function live on different systems")
    if phi.d != 1:
        raise DyadicError("paraproduct symbol must be scalar valued")
    return _one_mode(phi, f)


def _paraproduct(pairs, factor, signed=True):
    """The leaf values of the terms ``factor * x * y`` over the pairs of
    forms ``(x, y)``, one pair per level.  ``factor``, a power of 2 as a
    ``(top, den)`` pair, multiplies the leaves: in float64 the bits of a
    factor on each term, except where a leaf is subnormal or overflows
    before the factor."""
    out = _synthesized(_stacked([_product(x, y) for x, y in pairs]), signed)
    return out.map(lambda v: v, factor)


def paraproduct(phi, f):
    """``sum over I of h_I <phi, h_I> (mean of f over I)``.

    The term of ``I`` is half the jump of ``phi`` times the mean of ``f``.
    """
    phi, f = _paraproduct_operands(phi, f)
    return StepFunction._from_numerators(f.system, _paraproduct(
        zip(phi._jumps, f._means), (1, 2)))


def paraproduct_adjoint(phi, f):
    """``sum over I of <phi, h_I> <f, h_I> (indicator of I) / |I|``.

    The term of ``I`` is a quarter of the product of the two jumps.
    """
    phi, f = _paraproduct_operands(phi, f)
    return StepFunction._from_numerators(f.system, _paraproduct(
        zip(phi._jumps, f._jumps), (1, 4), signed=False))


# -- slices and the bilinear majorant ------------------------------------


def slice_levels(M, depth, j, k):
    """Tree levels whose intervals have length ``2**(j + k*t)`` for some t."""
    if not 0 <= j < k:
        raise DyadicError(f"slice index {j} outside [0, {k})")
    return [lev for lev in range(depth + 1) if (M - lev - j) % k == 0]


def shift_slice(shift, j):
    """Restrict a shift to base intervals L with ``|L| = 2**(j + k*t)``,
    where ``k`` is the complexity of the shift.

    The slice reads its apply plan from ``shift``'s, which is built once,
    at the rows it keeps."""
    system = shift.system
    in_slice = np.zeros(system.depth + 1, dtype=bool)
    in_slice[slice_levels(system.M, system.depth, j, shift.complexity)] = True
    keep = in_slice[shift.keys[:, 0]]
    part = ShiftSpec._from_arrays(system, shift.m, shift.n, shift.keys[keep],
                                  shift.weights[keep], shift.amplitude)
    part._parent, part._keep = shift, keep
    return part


def symmetrize(shift):
    """``(S + adjoint(S)) / 2``; always self-adjoint."""
    keys, weights = _merge(
        np.concatenate([shift.keys, shift.keys[:, _ADJOINT]]),
        np.concatenate([shift.weights, shift.weights]))
    return ShiftSpec._from_arrays(shift.system, shift.m, shift.n, keys,
                                  weights, shift.amplitude * Fraction(1, 2))


def is_self_adjoint(shift, tol=0.0):
    """Entrywise check that the coefficient table is symmetric in I, J.

    Compares ``float`` coefficients: an entry without a mirror counts as
    facing a zero.
    """
    coeffs = shift._float_values()
    _, gaps = _merge(np.concatenate([shift.keys, shift.keys[:, _ADJOINT]]),
                     np.concatenate([coeffs, -coeffs]))
    return not bool(np.any(np.abs(gaps) > tol))


def slice_bilinear_sides(shift, j, f, g):
    """Both sides of the averaged bound for slice ``j`` of a self-adjoint
    shift of complexity ``k``.

    Returns ``(lhs, rhs)`` where ``lhs = 2 |<S_j f, g>|`` for the slice
    ``S_j = shift_slice(shift, j)`` and ``rhs`` sums, over every base
    interval L of slice ``j`` whose complexity subtree fits,

        |L| * sum over P, Q of | <u_P, v_Q> + <u_Q, v_P> |

    with ``u_P = (mean_P f - mean_L f) / 2**k`` over the ``2**k`` cells
    ``P`` of L at depth ``k``, and ``v_Q`` likewise for ``g``.  For slices of
    self-adjoint shifts ``lhs <= rhs``; an empty slice gives ``(0, 0)``.
    """
    k = shift.complexity
    ff, gg = f.as_float(), g.as_float()
    out = apply_shift(shift_slice(shift, j), ff)
    w = float(f.system.leaf_width)
    lhs = 2.0 * abs(float((out.values * gg.values).sum() * w))

    system = f.system
    means_f, means_g = ff.level_means, gg.level_means
    rhs = 0.0
    for lev in slice_levels(system.M, system.depth, j, k):
        if lev + k > system.depth:
            continue
        # one (2**k, d) block per base interval L of the level
        U, V = ((means[lev + k].reshape(2 ** lev, 2 ** k, -1)
                 - means[lev][:, None]) / 2.0 ** k
                for means in (means_f, means_g))
        A = U @ V.transpose(0, 2, 1)
        rhs += 2.0 ** (system.M - lev) * float(
            np.abs(A + A.transpose(0, 2, 1)).sum())
    return lhs, rhs


# -- matrices ------------------------------------------------------------


def _check_matrix_dim(system):
    if system.n_leaves > MAX_MATRIX_DIM:
        raise DyadicError(
            f"{system.n_leaves} leaf cells exceed matrix cap {MAX_MATRIX_DIM}")


def shift_matrix(shift):
    """Dense leaf-basis matrix; assembled from the coefficient table.

    This is an evaluation route independent of :func:`apply_shift`'s
    scatter: the entry ``(L, I, J)`` adds ``c * leaf_width * outer(h_J,
    h_I)``, built from the Haar amplitudes ``1 / sqrt(|I|)``, each rounded
    once as ``1.0 / math.sqrt(float(|I|))``, instead of the jumps of the
    level means.  On each L block, the term of one (L level, I level, J level)
    group is ``kron(table[L], [[A, -A], [-A, A]])`` with ``A = amp_J *
    amp_I``: constant on cells of half a J by half an I.

    The sum is built coarse to fine, in place.  It is held on the finest
    cells any group so far has needed, one value per cell on the cell's
    first leaf, starting from one cell; when a group needs finer cells,
    each value is copied to the first leaves of its sub-cells.  Each group
    then goes in on the cells of its diagonal L blocks through one strided
    view, in ascending group order.  So each matrix element sums the same
    rounded products ``c * leaf_width * (+-A)`` in the key order of the
    table as when each group added its dense Kronecker product, and the
    bytes are the same.
    """
    system = shift.system
    _check_matrix_dim(system)
    n, depth = system.n_leaves, system.depth
    scaled = shift._float_values() * float(system.leaf_width)
    amps = [1.0 / math.sqrt(float(Fraction(2) ** (system.M - lev)))
            for lev in range(depth)]
    keys = shift.keys
    # one cell of n x n leaves holding 0; the refinements fill the rest
    out = np.empty((n, n))
    out[0, 0] = 0.0
    row_bits = col_bits = depth  # cells of 2**row_bits x 2**col_bits leaves
    for rows, llev, ilev, jlev in _level_groups(shift):
        n_l = 2 ** llev
        d_i, d_j = ilev - llev, jlev - llev
        term_r, term_c = depth - jlev - 1, depth - ilev - 1
        row_bits, col_bits = _refine(out, row_bits, col_bits, term_r,
                                     term_c)
        L = keys[rows, 1]
        table = np.zeros((n_l, 2 ** d_j, 2 ** d_i))
        table[L, keys[rows, 5] - (L << d_j), keys[rows, 3] - (L << d_i)] = \
            scaled[rows]
        amp = amps[jlev] * amps[ilev]
        term = table[:, :, None, :, None] * np.array([[amp, -amp],
                                                      [-amp, amp]])[:, None]
        # (L block, term row, its cells, term column, its cells)
        cells = out[::2 ** row_bits, ::2 ** col_bits]
        rep_r, rep_c = 2 ** (term_r - row_bits), 2 ** (term_c - col_bits)
        step_r, step_c = cells.strides
        np.lib.stride_tricks.as_strided(
            cells, shape=(n_l, 2 ** (d_j + 1), rep_r, 2 ** (d_i + 1), rep_c),
            strides=(cells.shape[0] // n_l * step_r
                     + cells.shape[1] // n_l * step_c,
                     rep_r * step_r, step_r, rep_c * step_c, step_c),
        )[...] += term.reshape(n_l, 2 ** (d_j + 1), 1, 2 ** (d_i + 1), 1)
    _refine(out, row_bits, col_bits, 0, 0)
    return out


def _refine(out, row_bits, col_bits, term_r, term_c):
    """Copy the value on the first leaf of each ``2**row_bits x
    2**col_bits`` cell of the square ``out`` to the first leaves of its
    sub-cells of ``2**term_r x 2**term_c`` leaves, where those are finer:
    columns, then rows, in place.  Returns the bits of the new cells.

    The copies go through ``np.positive``, which copies each float as it
    is and moves the data in small buffers; an assignment between these
    views of one array would first copy the whole source aside."""
    n = out.shape[0]
    fine_r, fine_c = min(row_bits, term_r), min(col_bits, term_c)
    if fine_c < col_bits:
        parts = out.reshape(n >> row_bits, 1 << row_bits, n >> col_bits,
                            1 << (col_bits - fine_c), 1 << fine_c)
        np.positive(parts[:, 0, :, :1, 0], out=parts[:, 0, :, 1:, 0])
    if fine_r < row_bits:
        parts = out.reshape(n >> row_bits, 1 << (row_bits - fine_r),
                            1 << fine_r, n >> fine_c, 1 << fine_c)
        np.positive(parts[:, :1, 0, :, 0], out=parts[:, 1:, 0, :, 0])
    return fine_r, fine_c


# -- the complexity series ----------------------------------------------


def series_bound(delta, poly_degree=2, k_max=60):
    """Partial sums of ``sum_k (k+1)**poly_degree * 2**(-delta k) * (k+1) * 2**(k/2)``.

    The limiting term ratio is ``2**(1/2 - delta)``; the verdict is
    "convergent" exactly when that ratio is below one.  For convergent runs a
    geometric tail bound from the last term is reported: per-step ratios are
    at most ``((k_max+2)/(k_max+1))**(poly_degree+1) * 2**(1/2-delta)`` beyond
    ``k_max``.
    """
    if not math.isfinite(delta):
        raise DyadicError(f"delta must be finite, got {delta}")
    if poly_degree < 0:
        raise DyadicError("poly_degree must be >= 0")
    if not 0 <= k_max <= 100_000:
        raise DyadicError("k_max outside [0, 100000]")
    ratio = 2.0 ** (0.5 - delta)
    ks = np.arange(k_max + 1, dtype=float)
    with np.errstate(over="ignore"):
        terms = (ks + 1.0) ** (poly_degree + 1) * 2.0 ** ((0.5 - delta) * ks)
        partial = np.cumsum(terms)
    verdict = "convergent" if ratio < 1.0 else "divergent"
    tail_bound = math.inf
    if ratio < 1.0:
        step = ((k_max + 2.0) / (k_max + 1.0)) ** (poly_degree + 1) * ratio
        if step < 1.0:
            tail_bound = float(terms[-1]) * step / (1.0 - step)
    return {
        "delta": float(delta),
        "poly_degree": int(poly_degree),
        "k_max": int(k_max),
        "limit_ratio": ratio,
        "verdict": verdict,
        "terms": [float(t) for t in terms],
        "partial_sums": [float(s) for s in partial],
        "last_term": float(terms[-1]),
        "tail_bound": tail_bound,
    }
