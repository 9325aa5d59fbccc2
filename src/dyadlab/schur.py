"""Schur multipliers and quadratic-form norms of interaction matrices.

An interaction matrix built from a finite martingale pair is symmetric with
vanishing row and column sums.  Two norm-like quantities drive the desk
checks:

* ``norm2``: the bilinear sup ``|alpha^T Lambda beta|`` over independent sign
  boxes ``|alpha|, |beta| <= 1`` (computed exactly by vertex enumeration for
  sizes up to 16);
* ``norm1``: the quadratic sup ``|alpha^T Lambda alpha|`` over the balanced
  box ``|alpha| <= 1/4``, ``sum(alpha) = 0`` (exact by face enumeration for
  sizes up to 8; beyond that, lower bounds by balanced-vertex enumeration
  and projected gradient ascent).

Their ratio is the object of the equivalence experiments; ``16 * norm1 <=
norm2`` is a hard inequality, while the upper ratio is probed empirically.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from functools import cached_property

import numpy as np

from .dyadic import DyadicError
from .shifts import MAX_MATRIX_DIM
from .signal import (_abs_sum, _array, _combine, _exact_values, _floats,
                     _form, _product, _values)

__all__ = [
    "KG_DEFAULT",
    "LambdaMatrix",
    "AlphaSequence",
    "lambda_matrix",
    "random_admissible_lambda",
    "norm2",
    "norm2_report",
    "norm1_lower",
    "schur_product",
    "random_sign_matrix",
    "multiplier_norm_lower",
    "equivalence_report",
    "rank_one_multiplier_check",
    "sign_multiplier_check",
    "find_alpha",
]

# Upper bound for the real Grothendieck constant used in reported thresholds.
KG_DEFAULT = 1.783

_ENUM_MAX = 16  # largest size handled by exact vertex enumeration
_FACE_MAX = 8  # largest size whose norm1 is found by face enumeration
_NORM2_RESTARTS = 64  # local-search starts above _ENUM_MAX
_CAP = 0.25  # the balanced box of norm1: |alpha_i| <= _CAP


class LambdaMatrix:
    """A symmetric matrix with zero row/column sums, tagged by its depth k.

    The entries are held as a form of :mod:`dyadlab.signal`: float64
    values, or integers over one scale for exact entries, which ``values``
    builds on first read.  Exact claims are checked on the integers, float
    ones to a tolerance; ``abs_sum`` likewise adds exact magnitudes or
    floats.
    """

    def __init__(self, values, k):
        self.values = _mode_array(values)
        self._init(_form(self.values), k)

    @classmethod
    def _from_numerators(cls, num, k):
        """The matrix with entries ``num`` (a float or exact form)."""
        lam = cls.__new__(cls)
        lam._init(num, k)
        return lam

    def _init(self, num, k):
        self._num, self.k = num, k
        self.exact = num.a.dtype == object
        self._check_admissible()

    @cached_property
    def values(self):
        return _values(self._num)

    @property
    def n(self):
        return 2 ** self.k

    def as_float(self):
        return _floats(self._num)

    def _check_admissible(self):
        num = self._num
        shape = num.a.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"expected a square matrix, got {shape}")
        if shape[0] != 2 ** self.k:
            raise ValueError(
                f"size {shape[0]} does not match 2**k = {2 ** self.k}")
        if self.exact:
            parts = [p for p in (num.a, num.b) if p is not None]
            if any((part != part.T).any() for part in parts):
                raise ValueError("matrix is not symmetric")
            if any(part.sum(axis=1).any() for part in parts):
                raise ValueError("row sums are nonzero")
        else:
            vals = num.a
            if not np.isfinite(vals).all():
                raise ValueError("entries must be finite")
            scale = max(1.0, float(np.abs(vals).max()))
            if np.abs(vals - vals.T).max() > 1e-9 * scale:
                raise ValueError("matrix is not symmetric")
            if np.abs(vals.sum(axis=1)).max() > 1e-9 * scale * self.n:
                raise ValueError("row sums are nonzero")

    def abs_sum(self):
        if self.exact:
            return _exact_values(_abs_sum(self._num))[0]
        return float(np.abs(self._num.a).sum())


class AlphaSequence:
    """A modulation sequence: ``|alpha_i| <= 1/4`` and ``sum(alpha) = 0``.

    The entries are held as a form of :mod:`dyadlab.signal`: float64
    values, or integers over one denominator for exact entries, which must
    be rational and which ``values`` builds on first read.  Exact claims
    are checked on the integers, float ones to a tolerance.
    """

    def __init__(self, values):
        self.values = _mode_array(values)
        self._init(_form(self.values))

    @classmethod
    def _from_numerators(cls, num):
        """The sequence with entries ``num`` (a float or rational exact
        form)."""
        alpha = cls.__new__(cls)
        alpha._init(num)
        return alpha

    def _init(self, num):
        self._num = num
        self.exact = num.a.dtype == object
        self._check_admissible()

    def _check_admissible(self):
        num = self._num
        if self.exact:
            if num.b is not None:
                raise ValueError("exact entries must be rational")
            # |a * top / den| <= 1/4
            top, den = num.scale
            if any(4 * top * abs(a) > den for a in num.a.tolist()):
                raise ValueError("entries must lie in [-1/4, 1/4]")
            if num.a.sum():
                raise ValueError("entries must sum to zero")
        else:
            vals = num.a
            if not np.isfinite(vals).all():
                raise ValueError("entries must be finite")
            if np.abs(vals).max() > 0.25 + 1e-12:
                raise ValueError("entries must lie in [-1/4, 1/4]")
            if abs(vals.sum()) > 1e-10 * max(1.0, np.abs(vals).max()) * vals.size:
                raise ValueError("entries must sum to zero")

    @cached_property
    def values(self):
        return _values(self._num)

    @property
    def n(self):
        return len(self._num.a)

    def as_float(self):
        return _floats(self._num)


def _mode_array(values):
    """``values`` as an array: exact when they are objects, else float64."""
    values = np.asarray(values)
    return _array(values, values.dtype == object)


def lambda_matrix(tree, k):
    """Interaction matrix of a martingale pair at depth ``k`` below the root.

    Entry ``(K, L)`` is ``<x_K, y_L> + <x_L, y_K>`` where ``x_K`` is the
    ``f``-side increment ``(f_K - f_root) / 2**k`` and ``y_L`` the ``g``-side
    one.  Symmetry is structural; zero row sums follow from the martingale
    dynamics.  The matrix is computed on the form pyramids of the tree, so
    exact trees give exact entries: the increments ``X`` and ``Y`` are
    differences over one scale, ``A = X @ Y.T`` takes the sqrt(2) cross
    terms, and the matrix is ``A + A.T``.
    """
    if not 0 <= k <= tree.depth:
        raise DyadicError(f"depth {k} outside 0..{tree.depth}")
    f, _, g, _ = tree._means
    X = _increments(f, k)
    Y = _increments(g, k)
    A = _product(X, Y.map(np.transpose), operator.matmul)
    return LambdaMatrix._from_numerators(A.map(lambda v: v + v.T), k)


def _increments(means, k):
    """The form of ``(means[k] - means[0]) / 2**k``."""
    diff = _combine(operator.sub, means[k], means[0])
    return diff.map(lambda v: v, (1, 1 << k))


def random_admissible_lambda(k, seed):
    """Centered random symmetric matrix: admissible and generically full rank.

    Needs ``k >= 1``: the only admissible 1 x 1 matrix is zero.  Exponents
    whose matrix would exceed ``MAX_MATRIX_DIM`` rows raise ``DyadicError``.
    """
    if k < 1:
        raise DyadicError(f"cell depth k must be at least 1, got {k}")
    n = _matrix_size(k)
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    S = (G + G.T) / 2.0
    H = np.eye(n) - np.full((n, n), 1.0 / n)
    return LambdaMatrix(H @ S @ H, k)


def _matrix_size(k):
    """``2**k`` for a dense ``2**k x 2**k`` float matrix, refused with
    ``DyadicError`` above ``MAX_MATRIX_DIM`` rows."""
    # compared by exponent so that no large int is built
    if k > MAX_MATRIX_DIM.bit_length() - 1:
        raise DyadicError(
            f"a 2**{k} x 2**{k} matrix exceeds the cap of {MAX_MATRIX_DIM} "
            f"rows")
    return 2 ** k


def _float_matrix(lam):
    """The float entries of a ``LambdaMatrix``, or a raw array as a square
    float matrix with finite entries (``ValueError`` otherwise)."""
    if isinstance(lam, LambdaMatrix):
        return lam.as_float()
    A = np.asarray(lam, float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("entries must be finite")
    return A


# -- norm2: bilinear sign-box sup ---------------------------------------


def _sign_vectors(n):
    """All sign vectors with first entry +1 (the other half is redundant)."""
    count = 2 ** (n - 1)
    cols = np.arange(n - 1)
    rows = np.arange(count)[:, None]
    body = 1.0 - 2.0 * ((rows >> cols) & 1)
    return np.hstack([np.ones((count, 1)), body])


def norm2_report(lam, seed=0):
    """Bilinear sup over the product of unit sign boxes.

    Exact by vertex enumeration for sizes up to 16; beyond that a local
    alternating search from ``_NORM2_RESTARTS`` random sign vectors reports
    a certified lower bound.
    """
    A = _float_matrix(lam)
    n = A.shape[0]
    if n <= _ENUM_MAX:
        signs = _sign_vectors(n)
        values = np.abs(signs @ A.T).sum(axis=1)
        best = int(np.argmax(values))
        alpha = signs[best]
        beta = np.sign(A @ alpha)
        beta[beta == 0] = 1.0
        return {"value": float(values[best]), "method": "vertex_enumeration",
                "alpha": alpha, "beta": beta}
    rng = np.random.default_rng(seed)
    best_val, best_alpha, best_beta = 0.0, None, None
    for _ in range(_NORM2_RESTARTS):
        alpha = rng.choice([-1.0, 1.0], size=n)
        for _ in range(200):
            beta = np.sign(A @ alpha)
            beta[beta == 0] = 1.0
            new_alpha = np.sign(A.T @ beta)
            new_alpha[new_alpha == 0] = 1.0
            if np.array_equal(new_alpha, alpha):
                break
            alpha = new_alpha
        val = float(abs(alpha @ A @ beta))
        if val > best_val:
            best_val, best_alpha, best_beta = val, alpha, beta
    return {"value": best_val, "method": "local_search_lower_bound",
            "alpha": best_alpha, "beta": best_beta}


def norm2(lam):
    return norm2_report(lam)["value"]


# -- norm1: balanced quadratic sup --------------------------------------


def _project_balanced_box(x):
    """Euclidean projection onto ``{|a_i| <= _CAP, sum a = 0}``.

    The balance residual ``s(mu) = sum clip(x - mu, -_CAP, _CAP)`` is
    piecewise linear and decreasing in the shift ``mu``, from ``+n*_CAP`` to
    ``-n*_CAP``, so its root sits between two of the ``2n`` clip breakpoints
    and linear interpolation there is exact.
    """
    bp = np.sort(np.concatenate([x - _CAP, x + _CAP]))
    s = np.clip(x[None, :] - bp[:, None], -_CAP, _CAP).sum(axis=1)
    i = int(np.searchsorted(-s, 0.0, side="left"))  # first s[i] <= 0; i >= 1
    denom = s[i - 1] - s[i]
    if denom > 0.0:
        mu = bp[i - 1] + (bp[i] - bp[i - 1]) * s[i - 1] / denom
    else:
        mu = bp[i]
    return np.clip(x - mu, -_CAP, _CAP)


@functools.lru_cache(maxsize=_ENUM_MAX + 1)
def _balanced_vertices(n):
    """Balanced +-_CAP vectors in combinations order; read-only, cached."""
    pos = np.array(list(itertools.combinations(range(n), n // 2)), np.intp)
    out = np.full((len(pos), n), -_CAP)
    np.put_along_axis(out, pos, _CAP, axis=1)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=_FACE_MAX + 1)
def _triples(n):
    """The 3-subsets of ``range(n)`` in combinations order, as rows;
    read-only, cached per size."""
    out = np.array(list(itertools.combinations(range(n), 3)),
                   np.intp).reshape(-1, 3)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=_FACE_MAX + 1)
def _face_index(n):
    """Faces of the ``n``-dimensional box, grouped by the number ``m`` of free
    coordinates: per ``m``, the free sets ``S`` and fixed sets ``T`` as rows,
    every sign pattern on ``T``, the flat indices of the blocks ``A_SS`` and
    ``A_ST`` of an ``n x n`` matrix, and the ids (rows of ``_triples(n)``) of
    the 3-subsets of each ``S``, none for ``m < 3``.  Read-only; cached per
    size."""
    triple_id = {t: i for i, t in enumerate(map(tuple, _triples(n).tolist()))}
    out = []
    for m in range(n + 1):
        free = np.array(list(itertools.combinations(range(n), m)), np.intp)
        fixed = np.array([[i for i in range(n) if i not in row]
                          for row in free.tolist()], np.intp)
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=n - m)))
        triples = np.array([[triple_id[t] for t in
                             itertools.combinations(row, 3)]
                            for row in free.tolist()],
                           np.intp).reshape(len(free), math.comb(m, 3))
        face = (free, fixed, signs, n * free[:, :, None] + free[:, None, :],
                n * free[:, :, None] + fixed[:, None, :], triples)
        for arr in face:
            arr.flags.writeable = False
        out.append(face)
    return tuple(out)


# above the rounding bound 384 * 2**-53 derived in _indefinite_triples
_DET_MARGIN = 256 * np.finfo(float).eps


def _indefinite_triples(A):
    """Per row ``(i, j, k)`` of ``_triples(n)``: whether ``alpha^T A alpha``
    is certified indefinite on ``{z : supp z in {i, j, k}, sum z = 0}``.

    The Gram matrix of the symmetric part ``B`` on the basis ``e_i - e_k,
    e_j - e_k`` has entries ``a = B_ii - 2 B_ik + B_kk``, ``c = B_jj - 2 B_jk +
    B_kk`` and ``b = B_ij - B_ik - B_jk + B_kk``, and the plane is indefinite
    when ``ac - b^2 < 0``.  ``B`` is scaled by ``1 / max|A|``, which keeps the
    sign and brings every entry to ``|B_ij| <= 1``, so ``|a|, |b|, |c| <= 4``.
    With ``u = 2**-53`` each scaled entry is off by at most ``2u`` relative,
    so ``a`` and ``c`` (two additions) by at most ``16u`` and ``b`` (three)
    by ``20u``; the two products and the difference add
    ``16u + 16u + 32u``, and ``|ac - b^2|`` picks up ``4 * 16u + 4 * 16u +
    8 * 20u``: below ``384u`` in all, so a computed determinant under
    ``-_DET_MARGIN = -512u`` is negative for ``A`` itself.  Underflowed
    entries are off by at most ``2**-1075``, which the margin also covers.
    """
    trip = _triples(A.shape[0])
    scale = float(np.abs(A).max()) if len(trip) else 0.0
    if scale == 0.0:
        return np.zeros(len(trip), bool)
    B = (A + A.T) / (2.0 * scale)
    i, j, k = trip.T
    bkk = B[k, k]
    a = B[i, i] - 2.0 * B[i, k] + bkk
    c = B[j, j] - 2.0 * B[j, k] + bkk
    b = B[i, j] - B[i, k] - B[j, k] + bkk
    return a * c - b * b < -_DET_MARGIN


def _face_candidates(A):
    """Feasible stationary points of ``alpha^T A alpha`` on every face of the
    balanced box that can hold its maximum or minimum, as rows.

    A face fixes ``alpha_T = +-_CAP`` and leaves ``S`` free; its stationary
    points solve the KKT system
    ``[[2 A_SS, -1], [1^T, 0]] [alpha_S; mu] = [-2 A_ST alpha_T; -sum alpha_T]``,
    which is the same for ``A`` and ``-A``.  One pseudo-inverse per free set
    serves all ``2^|T|`` sign patterns; the vertices (``S`` empty) take no
    solve.  A singular face yields a least-squares point or nothing: along a
    null direction the quadratic is constant, so its optimum also sits on a
    smaller face.  Only points whose free coordinates stay in the box up to
    rounding (the fixed ones are exactly +-_CAP) become rows, in (free set,
    sign) order; they are clipped into the box and dropped when unbalanced.

    A face whose ``S`` holds a triple on which the quadratic is certified
    indefinite (:func:`_indefinite_triples`) takes no solve: that plane lies
    in the face's tangent space ``{z : supp z in S, sum z = 0}``, so every
    stationary point inside the face is a saddle of ``alpha^T A alpha``,
    strictly below its maximum and above its minimum.  So in exact
    arithmetic a maximiser of ``|alpha^T A alpha|`` lies inside a face that
    is solved, and a skipped row on the boundary of its face is a point of a
    smaller face, which comes earlier in row order.  The faces that are
    solved keep their order and arithmetic, so the first maximiser, the pick
    of ``norm1_lower``, keeps its bytes; the tests compare it bit for bit
    with the enumeration that solves every face.
    """
    n, flat = A.shape[0], A.ravel()
    faces = _face_index(n)
    indefinite = _indefinite_triples(A)
    out = [_CAP * faces[0][2]]  # m = 0: the vertices
    for free, fixed, signs, ss, st, triples in faces[1:]:
        if triples.size:
            keep = np.flatnonzero(~indefinite[triples].any(axis=1))
            if not keep.size:
                break  # every larger S contains one of these
            free, fixed, ss, st = free[keep], fixed[keep], ss[keep], st[keep]
        count, m = free.shape
        alpha_t = _CAP * signs
        kkt = np.zeros((count, m + 1, m + 1))
        kkt[:, :m, :m] = 2.0 * flat[ss]
        kkt[:, :m, m] = -1.0
        kkt[:, m, :m] = 1.0
        rhs = np.empty((count, m + 1, len(signs)))
        rhs[:, :m] = -2.0 * flat[st] @ alpha_t.T
        rhs[:, m] = -alpha_t.sum(axis=1)
        sol = (np.linalg.pinv(kkt) @ rhs)[:, :m]
        face, sign = np.nonzero((np.abs(sol) <= _CAP + 1e-13).all(axis=1))
        vecs = np.empty((len(face), n))
        rows = np.arange(len(face))[:, None]
        vecs[rows, free[face]] = sol[face, :, sign]
        vecs[rows, fixed[face]] = alpha_t[sign]
        out.append(vecs)
    vecs = np.clip(np.concatenate(out), -_CAP, _CAP)
    return vecs[np.abs(vecs.sum(axis=1)) <= 1e-12]


def _best_quadratic(vecs, A):
    vals = np.abs(np.einsum("ij,jk,ik->i", vecs, A, vecs))
    i = int(np.argmax(vals))
    return float(vals[i]), vecs[i]


def _norm1_search(A, restarts, iters, seed):
    """Balanced-vertex enumeration (sizes up to 16) and projected-gradient
    ascent from ``2 * restarts`` random starts; returns ``(value, report)``."""
    n = A.shape[0]
    best_val, best_alpha, best_method = -1.0, None, None

    def consider(vecs, method):
        nonlocal best_val, best_alpha, best_method
        val, alpha = _best_quadratic(vecs, A)
        if val > best_val:
            best_val, best_alpha, best_method = val, alpha, method

    if n <= _ENUM_MAX:
        consider(_balanced_vertices(n), "balanced_enumeration")

    rng = np.random.default_rng(seed)
    norm_scale = max(float(np.abs(A).sum(axis=1).max()), 1e-30)
    ascent_best = []
    for sign in (1.0, -1.0):
        for _ in range(restarts):
            alpha = _project_balanced_box(rng.uniform(-0.25, 0.25, size=n))
            step = 0.25 / norm_scale
            val = sign * float(alpha @ A @ alpha)
            for _ in range(iters):
                grad = 2.0 * sign * (A @ alpha)
                cand = _project_balanced_box(alpha + step * grad)
                cand_val = sign * float(cand @ A @ cand)
                if cand_val > val:
                    alpha, val = cand, cand_val
                else:
                    step *= 0.5
                    if step < 1e-14 / norm_scale:
                        break
            ascent_best.append((val, alpha))
    if ascent_best:
        vecs = np.stack([a for _, a in ascent_best])
        consider(vecs, "projected_gradient_ascent")

    report = {"value": best_val, "alpha": best_alpha, "method": best_method}
    return best_val, report


def norm1_lower(lam, restarts=32, iters=400, seed=0):
    """Value of ``|alpha^T Lambda alpha|`` over the balanced box.

    Returns ``(value, report)``; the value is always attained by the feasible
    ``report["alpha"]`` and is therefore a certified lower bound.  For sizes
    up to 8 it is the maximum itself (up to rounding), found by enumerating
    the stationary points of every face (``method`` ``"face_enumeration"``):
    a quadratic attains its maximum over a polytope at a stationary point
    inside some face.  Faces on which the quadratic is certified indefinite
    on some triple of free coordinates (a 2 x 2 Gram determinant below
    ``-_DET_MARGIN`` after scaling to ``max|A| = 1``, beyond what rounding
    can reach) hold only saddles and take no solve; the pick is the one
    the full enumeration makes, bit for bit (see ``_face_candidates``).
    ``restarts``, ``iters`` and ``seed`` steer the projected-gradient ascent
    that is used only above size 8.  A raw array must be square with finite
    entries (``ValueError`` otherwise).
    """
    A = _float_matrix(lam)
    if A.shape[0] > _FACE_MAX:
        return _norm1_search(A, restarts, iters, seed)
    value, alpha = _best_quadratic(_face_candidates(A), A)
    return value, {"value": value, "alpha": alpha, "method": "face_enumeration"}


# -- Schur products and multiplier norms --------------------------------


def schur_product(A, M):
    """Entrywise product; the defining action of a Schur multiplier."""
    A = np.asarray(A, dtype=float)
    M = np.asarray(M, dtype=float)
    if A.shape != M.shape:
        raise ValueError(f"shape mismatch {A.shape} vs {M.shape}")
    return A * M


def random_sign_matrix(n, seed):
    rng = np.random.default_rng(seed)
    return rng.choice([-1.0, 1.0], size=(n, n))


def _candidate_matrices(n, trials, rng):
    yield np.eye(n)
    yield np.ones((n, n))
    i = np.arange(n)
    yield np.cos(np.pi * np.outer(i + 0.5, i + 0.5) / n)
    for _ in range(trials):
        yield rng.standard_normal((n, n))
        yield rng.choice([-1.0, 1.0], size=(n, n))
        u = rng.choice([-1.0, 1.0], size=n)
        v = rng.choice([-1.0, 1.0], size=n)
        yield np.outer(u, v)


def multiplier_norm_lower(A, trials=25, seed=0):
    """Lower bound for the Schur multiplier norm of ``A``.

    Probes structured and random test matrices ``M`` and returns the largest
    ratio ``||A o M||_2 / ||M||_2`` of SVD spectral norms; each ratio is
    attained by its ``M`` and so is itself a lower bound.
    """
    A = np.asarray(A, dtype=float)
    rng = np.random.default_rng(seed)
    best = 0.0
    for M in _candidate_matrices(A.shape[0], trials, rng):
        denom = float(np.linalg.norm(M, 2))
        if denom >= 1e-12:
            best = max(best, float(np.linalg.norm(schur_product(A, M), 2))
                       / denom)
    return best


# -- packaged checks ----------------------------------------------------


def equivalence_report(lam, restarts=32, iters=400, seed=0):
    """Compare the sign-box norm with the balanced quadratic norm.

    The inequality ``norm2 >= 16 * norm1`` holds for every admissible matrix
    (any feasible quadratic witness splits into a bilinear sign pair); the
    reported upper comparison ``norm2 <= 192 * norm1`` probes the reverse
    direction empirically.
    ``restarts`` and ``iters`` reach ``norm1_lower`` and matter only above
    size 8.
    """
    rep2 = norm2_report(lam, seed=seed)
    val1, rep1 = norm1_lower(lam, restarts=restarts, iters=iters, seed=seed)
    ratio = rep2["value"] / val1 if val1 > 0 else math.inf
    return {
        "norm2": rep2["value"],
        "norm2_method": rep2["method"],
        "norm1_lower": val1,
        "norm1_method": rep1["method"],
        "ratio": ratio,
        "lower_ok": bool(rep2["value"] >= 16.0 * val1 * (1.0 - 1e-9)),
        "upper_ok": bool(rep2["value"] <= 192.0 * val1 * (1.0 + 1e-6)),
    }


def rank_one_multiplier_check(n, trials=8, seed=0):
    """Rank-one multipliers act by two-sided diagonal scaling.

    For ``A = s t^T`` the Schur action is ``M -> diag(s) M diag(t)``, so the
    multiplier norm is at most ``max|s| * max|t|``.  Verifies the action
    identity exactly and the norm bound against probed lower bounds.
    """
    if n < 1:
        raise DyadicError("rank-one check needs matrix size >= 1")
    if trials < 1:
        raise DyadicError("rank-one check needs at least one trial")
    rng = np.random.default_rng(seed)
    max_identity_error = 0.0
    max_excess = -math.inf
    for trial in range(trials):
        s = rng.uniform(-2.0, 2.0, size=n)
        t = rng.uniform(-2.0, 2.0, size=n)
        A = np.outer(s, t)
        M = rng.standard_normal((n, n))
        direct = schur_product(A, M)
        scaled = (np.diag(s) @ M) @ np.diag(t)
        max_identity_error = max(
            max_identity_error, float(np.abs(direct - scaled).max()))
        bound = float(np.abs(s).max() * np.abs(t).max())
        probe = multiplier_norm_lower(A, trials=10, seed=seed * 1000 + trial)
        max_excess = max(max_excess, probe - bound)
    return {
        "n": n,
        "trials": trials,
        "max_identity_error": max_identity_error,
        "max_excess": max_excess,
        "ok": bool(max_identity_error <= 1e-10 and max_excess <= 1e-6),
    }


def sign_multiplier_check(k, trials=4, seed=0):
    """Sign matrices of size ``2**k`` have multiplier norm at most ``2**(k/2)``.

    Probes random ``+-1`` matrices and reports the largest lower bound found
    relative to the theoretical ceiling.  Exponents whose matrix would
    exceed ``MAX_MATRIX_DIM`` rows raise ``DyadicError``.
    """
    if k < 0:
        raise DyadicError(f"sign-matrix size exponent must be >= 0, got {k}")
    if trials < 1:
        raise DyadicError("sign-matrix check needs at least one trial")
    n = _matrix_size(k)
    bound = 2.0 ** (k / 2.0)
    worst = 0.0
    for trial in range(trials):
        A = random_sign_matrix(n, seed * 1000 + trial)
        probe = multiplier_norm_lower(A, trials=10, seed=seed * 1000 + trial)
        worst = max(worst, probe)
    return {
        "k": k,
        "bound": bound,
        "max_probe": worst,
        "ok": bool(worst <= bound * (1.0 + 1e-6)),
    }


# -- the modulation pick ------------------------------------------------


def find_alpha(lam, restarts=32, iters=400, seed=0):
    """Modulation sequence maximising ``|alpha^T Lambda alpha|`` and its yield.

    Returns ``(AlphaSequence, report)``.  The report carries
    ``achieved_c = |alpha^T Lambda alpha| * 2**(k/2) / sum|lambda|`` together
    with the reference threshold ``1 / (192 * KG_DEFAULT)``.  Up to size 8
    the pick is the exact maximiser; ``restarts`` and ``iters`` apply only
    above size 8 (see ``norm1_lower``).
    """
    if not isinstance(lam, LambdaMatrix):
        raise ValueError("find_alpha needs a LambdaMatrix with its depth tag")
    value, inner = norm1_lower(lam, restarts=restarts, iters=iters, seed=seed)
    sum_abs = float(lam.abs_sum())
    degenerate = sum_abs <= 0.0
    achieved = (math.inf if degenerate
                else value * 2.0 ** (lam.k / 2.0) / sum_abs)
    threshold = 1.0 / (192.0 * KG_DEFAULT)
    report = {
        "achieved_c": achieved,
        "degenerate": degenerate,
        "sum_abs_lambda": sum_abs,
        "quad_value": value,
        "threshold": threshold,
        "meets_threshold": bool(achieved >= threshold),
        "method": inner["method"],
    }
    alpha = np.zeros(lam.n) if degenerate else inner["alpha"]
    return AlphaSequence(alpha), report
