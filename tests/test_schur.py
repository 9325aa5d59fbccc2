"""Tests for interaction matrices, their two norms and Schur multipliers."""

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from dyadlab.schur import (KG_DEFAULT, AlphaSequence, LambdaMatrix,
                           equivalence_report, find_alpha, lambda_matrix,
                           multiplier_norm_lower, norm1_lower, norm2,
                           norm2_report, random_admissible_lambda,
                           random_sign_matrix, rank_one_multiplier_check,
                           schur_product, sign_multiplier_check)
from dyadlab.bellman import tree_from_functions
from dyadlab.dyadic import DyadicError, sample_system
from dyadlab.exact import Sqrt2Rational
from dyadlab.signal import SpaceSpec, random_step_function

EXACT_TOL = 1e-12
ROOT2_OVER_16 = math.sqrt(2.0) / 16.0


def frozen_k1_matrix():
    vals = np.empty((2, 2), dtype=object)
    vals[0, 0] = Fraction(1, 2)
    vals[0, 1] = Fraction(-1, 2)
    vals[1, 0] = Fraction(-1, 2)
    vals[1, 1] = Fraction(1, 2)
    return LambdaMatrix(vals, 1)


# -- admissibility -------------------------------------------------------


def test_lambda_matrix_validation():
    with pytest.raises(ValueError):
        LambdaMatrix(np.zeros((2, 3)), 1)
    with pytest.raises(ValueError):
        LambdaMatrix(np.zeros((4, 4)), 1)  # size must be 2**k
    with pytest.raises(ValueError):
        LambdaMatrix(np.array([[0.0, 1.0], [-1.0, 0.0]]), 1)  # asymmetric
    with pytest.raises(ValueError):
        LambdaMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]), 1)  # row sums
    lam = frozen_k1_matrix()
    assert lam.exact and lam.n == 2
    assert lam.abs_sum() == 2
    assert np.allclose(lam.as_float(), [[0.5, -0.5], [-0.5, 0.5]])


def test_alpha_sequence_validation():
    AlphaSequence(np.array([0.25, -0.25]))
    with pytest.raises(ValueError):
        AlphaSequence(np.array([0.3, -0.3]))
    with pytest.raises(ValueError):
        AlphaSequence(np.array([0.2, 0.2]))
    exact = np.empty(2, dtype=object)
    exact[0], exact[1] = Fraction(1, 4), Fraction(-1, 4)
    assert AlphaSequence(exact).as_float().tolist() == [0.25, -0.25]


NON_FINITE_LAMBDAS = [np.full((2, 2), np.nan),
                      np.array([[np.inf, -np.inf], [-np.inf, np.inf]]),
                      np.array([[0.0, np.nan], [np.nan, 0.0]])]


@pytest.mark.parametrize("vals", NON_FINITE_LAMBDAS)
def test_lambda_matrix_refuses_non_finite_entries(vals):
    with pytest.raises(ValueError, match="finite"):
        LambdaMatrix(vals, 1)


@pytest.mark.parametrize("vals", [[np.nan, np.nan], [np.inf, -np.inf],
                                  [0.25, np.nan]])
def test_alpha_sequence_refuses_non_finite_entries(vals):
    with pytest.raises(ValueError, match="finite"):
        AlphaSequence(np.array(vals))


def test_exact_checks_read_both_parts_in_q_sqrt2():
    r = Sqrt2Rational(0, Fraction(1, 8))
    with pytest.raises(ValueError):
        AlphaSequence(np.array([r, -r], dtype=object))  # not rational
    # 1 - r > 0 and r - 1 < 0 although their parts differ in sign
    vals = np.array([[1 - r, r - 1], [r - 1, 1 - r]], dtype=object)
    lam = LambdaMatrix(vals, 1)
    assert lam.abs_sum() == 4 - 4 * r
    assert lam.as_float().tobytes() == vals.astype(float).tobytes()
    with pytest.raises(ValueError, match="symmetric"):
        LambdaMatrix(np.array([[r, -r], [-2 * r, 2 * r]], dtype=object), 1)
    with pytest.raises(ValueError, match="row sums"):
        LambdaMatrix(np.array([[r, r], [r, r]], dtype=object), 1)


def test_exact_as_float_rounds_each_entry_once():
    sys_ = sample_system(71, 6)
    f = random_step_function(sys_, seed=72, exact=True)
    g = random_step_function(sys_, seed=73, exact=True)
    lam = lambda_matrix(tree_from_functions(f, g, SpaceSpec(p=2.0)), 3)
    want = np.array([[float(v) for v in row] for row in lam.values])
    assert lam.exact and lam.as_float().tobytes() == want.tobytes()
    # entries that are not dyadic, so each one rounds
    vals = np.array([Fraction(1, 7), Fraction(1, 11), -Fraction(18, 77)],
                    dtype=object)
    assert AlphaSequence(vals).as_float().tobytes() == \
        np.array([float(v) for v in vals]).tobytes()


def test_random_admissible_lambda_is_admissible():
    for k in (1, 2, 3):
        lam = random_admissible_lambda(k, seed=(5, k))
        A = lam.as_float()
        assert A.shape == (2 ** k, 2 ** k)
        assert np.abs(A - A.T).max() < EXACT_TOL
        assert np.abs(A.sum(axis=1)).max() < 1e-9


def test_random_admissible_lambda_rejects_k_below_one():
    # the only admissible 1 x 1 matrix is zero, so k = 0 is no sample
    for k in (0, -1):
        with pytest.raises(DyadicError):
            random_admissible_lambda(k, seed=0)


def test_lambda_matrix_from_tree_has_zero_row_sums():
    system = sample_system(7, depth=3)
    f = random_step_function(system, seed=8, exact=True)
    g = random_step_function(system, seed=9, exact=True)
    tree = tree_from_functions(f, g, SpaceSpec(p=2.0))
    for k in (1, 2, 3):
        lam = lambda_matrix(tree, k)
        assert lam.exact
        for i in range(lam.n):
            assert sum(lam.values[i, :]) == 0
            assert sum(lam.values[:, i]) == 0


# -- the frozen depth-one picture ---------------------------------------


def test_frozen_k1_norms():
    lam = frozen_k1_matrix()
    rep2 = norm2_report(lam)
    assert rep2["method"] == "vertex_enumeration"
    assert rep2["value"] == 2.0
    val1, rep1 = norm1_lower(lam)
    assert val1 == pytest.approx(0.125, abs=EXACT_TOL)
    alpha = rep1["alpha"]
    assert sorted(alpha.tolist()) == pytest.approx([-0.25, 0.25])


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_norm2_local_search_above_the_enumeration_size(seed):
    """At n = 32 the bilinear sup comes from the local search: a value
    attained by the sign vectors it reports, the same bytes on a second
    call with the same seed."""
    lam = random_admissible_lambda(5, seed)
    rep = norm2_report(lam, seed=seed)
    assert rep["method"] == "local_search_lower_bound"
    for v in (rep["alpha"], rep["beta"]):
        assert v.shape == (32,) and set(v.tolist()) <= {-1.0, 1.0}
    A = lam.as_float()
    assert rep["value"] == abs(rep["alpha"] @ A @ rep["beta"]) > 0.0
    again = norm2_report(lam, seed=seed)
    assert again["value"] == rep["value"]
    assert again["alpha"].tobytes() == rep["alpha"].tobytes()
    assert again["beta"].tobytes() == rep["beta"].tobytes()


def test_frozen_k1_modulation_yield():
    lam = frozen_k1_matrix()
    alpha, report = find_alpha(lam)
    assert not report["degenerate"]
    assert report["sum_abs_lambda"] == 2.0
    assert report["achieved_c"] == pytest.approx(ROOT2_OVER_16, abs=EXACT_TOL)
    assert report["threshold"] == pytest.approx(1.0 / (192.0 * KG_DEFAULT))
    assert report["meets_threshold"]
    assert abs(alpha.as_float()).max() <= 0.25 + 1e-12


def test_every_k1_matrix_yields_the_same_constant():
    """Zero row sums force the depth-one matrix into a one-parameter family,
    so the normalised yield is constant across instances."""
    for trial in range(50):
        lam = random_admissible_lambda(1, seed=(31, trial))
        a = lam.as_float()[0, 0]
        assert np.allclose(lam.as_float(), [[a, -a], [-a, a]], atol=1e-12)
        if abs(a) < 1e-12:
            continue
        _, report = find_alpha(lam, restarts=4, iters=100)
        assert report["achieved_c"] == pytest.approx(ROOT2_OVER_16, rel=1e-9)


def test_degenerate_zero_matrix():
    lam = LambdaMatrix(np.zeros((2, 2)), 1)
    alpha, report = find_alpha(lam)
    assert report["degenerate"]
    assert report["achieved_c"] == math.inf
    assert np.all(alpha.values == 0.0)


# -- norm2 against brute force ------------------------------------------


def test_norm2_matches_full_sign_enumeration():
    for trial in range(20):
        lam = random_admissible_lambda(2, seed=(42, trial))
        A = lam.as_float()
        best = max(abs(float(np.asarray(sa) @ A @ np.asarray(sb)))
                   for sa in itertools.product([-1.0, 1.0], repeat=4)
                   for sb in itertools.product([-1.0, 1.0], repeat=4))
        assert norm2(lam) == pytest.approx(best, rel=1e-12)


def test_norm1_reports_attained_feasible_witness():
    for k, trial in itertools.product((2, 3), range(5)):
        lam = random_admissible_lambda(k, seed=(51, k, trial))
        val, rep = norm1_lower(lam, restarts=8, iters=150, seed=(52, trial))
        alpha = rep["alpha"]
        assert np.abs(alpha).max() <= 0.25 + 1e-10
        assert abs(alpha.sum()) <= 1e-8
        quad = abs(alpha @ lam.as_float() @ alpha)
        assert val == pytest.approx(quad, rel=1e-10)


def test_norm1_beats_random_feasible_probes():
    rng = np.random.default_rng(61)
    lam = random_admissible_lambda(3, seed=62)
    A = lam.as_float()
    val, _ = norm1_lower(lam, restarts=16, iters=300, seed=63)
    from dyadlab.schur import _project_balanced_box
    worst = 0.0
    for _ in range(20_000):
        alpha = _project_balanced_box(rng.uniform(-0.25, 0.25, size=8))
        worst = max(worst, abs(float(alpha @ A @ alpha)))
    assert val >= worst * (1.0 - 1e-9)


def _assert_feasible_witness(val, rep, A):
    alpha = rep["alpha"]
    assert np.abs(alpha).max() <= 0.25
    assert abs(alpha.sum()) <= 1e-12
    assert abs(abs(alpha @ A @ alpha) - val) <= 1e-12 * val


def _tree_lambdas(seed, k_values=(1, 2, 3), exact=False, d=1):
    system = sample_system(seed, depth=3)
    f = random_step_function(system, seed=(seed, 1), d=d, exact=exact)
    g = random_step_function(system, seed=(seed, 2), d=d, exact=exact)
    tree = tree_from_functions(f, g, SpaceSpec(p=2.0, d=d))
    return [lambda_matrix(tree, k) for k in k_values]


def test_norm1_face_enumeration_beats_fine_lattice():
    """At size four the exact value dominates every point of a lattice of
    step 1/64 on the balanced box."""
    grid = np.linspace(-0.25, 0.25, 33)
    pts = np.stack(np.meshgrid(grid, grid, grid, indexing="ij"),
                   axis=-1).reshape(-1, 3)
    last = -pts.sum(axis=1)
    pts = np.column_stack([pts, last])[np.abs(last) <= 0.25]
    # seeds 2, 46 and 80 put the maximum inside a two-dimensional face
    lams = [random_admissible_lambda(2, seed=(84, t)) for t in (0, 2, 46, 80)]
    lams += _tree_lambdas(82, k_values=(2,))
    for lam in lams:
        A = lam.as_float()
        val, rep = norm1_lower(lam)
        assert rep["method"] == "face_enumeration"
        _assert_feasible_witness(val, rep, A)
        lattice = np.abs(np.einsum("ij,jk,ik->i", pts, A, pts)).max()
        assert val >= lattice * (1.0 - 1e-12)


def test_norm1_face_enumeration_beats_ascent():
    """For sizes 2, 4 and 8 the exact value is never below what the
    balanced-vertex pass and the projected-gradient ascent find, on
    rank-two tree matrices and on full-rank random ones."""
    from dyadlab.schur import _norm1_search
    lams = [lam for t in range(2) for lam in _tree_lambdas((83, t))]
    lams += [random_admissible_lambda(k, seed=(84, t))
             for t in range(2) for k in (1, 2, 3)]
    lams.append(random_admissible_lambda(3, seed=(84, 50)))  # 2-dim face
    for lam in lams:
        A = lam.as_float()
        val, rep = norm1_lower(lam)
        assert rep["method"] == "face_enumeration"
        _assert_feasible_witness(val, rep, A)
        ascent, _ = _norm1_search(A, restarts=32, iters=400, seed=0)
        assert val >= ascent * (1.0 - 1e-12), (lam.n, val, ascent)


def test_norm1_singular_faces_raise_nothing():
    for n in (2, 4, 8):
        val, rep = norm1_lower(np.zeros((n, n)))
        assert val == 0.0
        _assert_feasible_witness(val, rep, np.zeros((n, n)))
    # rank one: every face with three or more free coordinates is singular,
    # and the maximum (sum|u| / 4)^2 sits on a balanced vertex
    u = np.array([1.0, -1.0] * 4)
    lam = LambdaMatrix(np.outer(u, u), 3)
    val, rep = norm1_lower(lam)
    assert val == pytest.approx(4.0, rel=1e-12)
    _assert_feasible_witness(val, rep, lam.as_float())


def test_norm1_face_enumeration_bytes_are_frozen():
    """sha256 of value, alpha and method of ``norm1_lower`` over exact and
    float tree matrices, random admissible ones (with the seeds whose
    maximum sits inside a two-dimensional face) and the singular ones above,
    recorded with the enumeration that scatters every (face, sign) row."""
    lams = [lam for t in range(3) for exact in (True, False)
            for lam in _tree_lambdas((87, t), exact=exact)]
    lams += [random_admissible_lambda(k, seed=(84, t))
             for k in (1, 2, 3) for t in (0, 1, 2, 46, 50, 80)]
    lams += [np.zeros((n, n)) for n in (2, 4, 8)]
    lams.append(LambdaMatrix(np.outer([1.0, -1.0] * 4, [1.0, -1.0] * 4), 3))
    digest = hashlib.sha256()
    for lam in lams:
        val, rep = norm1_lower(lam)
        digest.update(np.float64(val).tobytes())
        digest.update(rep["alpha"].tobytes())
        digest.update(rep["method"].encode())
    assert digest.hexdigest() == (
        "6c341c5724b5c0541ed09a31f44777a311e5ed87ca93a88ae206dddb22ca622c")


def test_balanced_vertices_are_cached_read_only():
    """One read-only array per size, row for row the combinations build."""
    from dyadlab.schur import _balanced_vertices
    for n in (2, 4, 8, 16):
        verts = _balanced_vertices(n)
        assert _balanced_vertices(n) is verts
        assert not verts.flags.writeable
        want = []
        for pos in itertools.combinations(range(n), n // 2):
            v = np.full(n, -0.25)
            v[list(pos)] = 0.25
            want.append(v)
        assert verts.shape == (math.comb(n, n // 2), n)
        assert verts.tobytes() == np.stack(want).tobytes()


def _full_face_rows(A, cap=0.25):
    """The enumeration that solves every face: the reference for the
    indefinite-triple skip of ``_face_candidates``.  Returns the candidate
    rows, built with the same arithmetic, and each row's free set."""
    n, flat = A.shape[0], A.ravel()
    out, frees = [], []
    for m in range(n + 1):
        free = np.array(list(itertools.combinations(range(n), m)), np.intp)
        fixed = np.array([[i for i in range(n) if i not in row]
                          for row in free.tolist()], np.intp)
        alpha_t = cap * np.array(list(itertools.product((1.0, -1.0),
                                                        repeat=n - m)))
        if m == 0:
            out.append(alpha_t)
            frees += [()] * len(alpha_t)
            continue
        count = len(free)
        kkt = np.zeros((count, m + 1, m + 1))
        kkt[:, :m, :m] = 2.0 * flat[n * free[:, :, None] + free[:, None, :]]
        kkt[:, :m, m] = -1.0
        kkt[:, m, :m] = 1.0
        rhs = np.empty((count, m + 1, len(alpha_t)))
        rhs[:, :m] = -2.0 * flat[n * free[:, :, None]
                                 + fixed[:, None, :]] @ alpha_t.T
        rhs[:, m] = -alpha_t.sum(axis=1)
        sol = (np.linalg.pinv(kkt) @ rhs)[:, :m]
        face, sign = np.nonzero((np.abs(sol) <= cap + 1e-13).all(axis=1))
        vecs = np.empty((len(face), n))
        rows = np.arange(len(face))[:, None]
        vecs[rows, free[face]] = sol[face, :, sign]
        vecs[rows, fixed[face]] = alpha_t[sign]
        out.append(vecs)
        frees += [tuple(free[f]) for f in face.tolist()]
    vecs = np.clip(np.concatenate(out), -cap, cap)
    keep = np.abs(vecs.sum(axis=1)) <= 1e-12
    return vecs[keep], [s for s, ok in zip(frees, keep) if ok]


def _skip_cases():
    """Exact and float tree matrices (d = 1 and 2), random admissible ones,
    random symmetric ones of sizes 1, 3, 5, 6, 7, non-contiguous views and
    the zero and rank-one matrices: 324 in all."""
    lams = [lam for t in range(20) for exact in (True, False)
            for lam in _tree_lambdas((88, t), exact=exact)]
    lams += [lam for t in range(10) for exact in (True, False)
             for lam in _tree_lambdas((89, t), exact=exact, d=2)]
    lams += [random_admissible_lambda(k, seed=(90, t))
             for t in range(40) for k in (1, 2, 3)]
    rng = np.random.default_rng(91)
    for n in (1, 3, 5, 6, 7):
        for _ in range(3):
            G = rng.standard_normal((n, n))
            lams.append(G + G.T)
    G = rng.standard_normal((16, 16))
    G = G + G.T
    lams += [np.asfortranarray(G[:8, :8]), G[8:, 8:].T, G[::2, ::2]]
    lams += [np.zeros((n, n)) for n in (2, 4, 8)]
    lams += [np.outer(u, u) for u in (np.array([1.0, -1.0] * 2),
                                      np.array([1.0, -1.0] * 4),
                                      rng.standard_normal(8))]
    return lams


def test_norm1_skip_keeps_the_full_enumeration_bytes():
    """Against the enumeration that solves every face: the same value,
    alpha and method bytes; the same candidate rows, minus those of faces
    with a certified indefinite triple, in the same order; and each row
    dropped so is strictly below the maximum of ``|alpha^T A alpha|``."""
    from dyadlab.schur import (_best_quadratic, _face_candidates,
                               _indefinite_triples, _triples)
    lams = _skip_cases()
    assert len(lams) >= 300
    n_skipped = 0
    for lam in lams:
        A = lam.as_float() if isinstance(lam, LambdaMatrix) else lam
        rows, frees = _full_face_rows(A)
        value, alpha = _best_quadratic(rows, A)
        val, rep = norm1_lower(lam)
        assert np.float64(val).tobytes() == np.float64(value).tobytes()
        assert rep["alpha"].tobytes() == alpha.tobytes()
        assert rep["method"] == "face_enumeration"
        indefinite = {tuple(t) for t, bad in zip(
            _triples(A.shape[0]).tolist(), _indefinite_triples(A)) if bad}
        skipped = np.array([any(t in indefinite
                                for t in itertools.combinations(s, 3))
                            for s in frees], bool)
        assert _face_candidates(A).tobytes() == rows[~skipped].tobytes()
        if skipped.any():
            quad = np.einsum("ij,jk,ik->i", rows[skipped], A, rows[skipped])
            assert np.abs(quad).max() < value
        n_skipped += int(skipped.sum())
    assert n_skipped > 0


def test_indefinite_triples_are_certified():
    """A triple is flagged only when its Gram determinant, computed in
    rationals from the float entries, is negative, and it is flagged
    whenever that determinant is clearly negative.  Semidefinite integer
    matrices, whose determinants are 0 or positive while the scaled float
    ones often come out just below 0, flag nothing."""
    from dyadlab.schur import _indefinite_triples, _triples
    rng = np.random.default_rng(92)
    for t in range(100):
        u, v = rng.integers(-7, 8, size=(2, 8)).astype(float)
        A = np.outer(u, u) + (t % 2) * np.outer(v, v)
        assert not _indefinite_triples(A).any()
    lams = [lam.as_float() for t in range(4) for exact in (True, False)
            for lam in _tree_lambdas((93, t), (2, 3), exact=exact)]
    lams += [random_admissible_lambda(k, seed=(94, t)).as_float()
             for t in range(6) for k in (2, 3)]
    n_flagged = 0
    for A in lams:
        F = [[Fraction(x) for x in row] for row in A.tolist()]
        scale = Fraction(np.abs(A).max())

        def sym(p, q):
            return (F[p][q] + F[q][p]) / (2 * scale)

        flags = _indefinite_triples(A)
        for (i, j, k), flag in zip(_triples(A.shape[0]).tolist(), flags):
            a = sym(i, i) - 2 * sym(i, k) + sym(k, k)
            c = sym(j, j) - 2 * sym(j, k) + sym(k, k)
            b = sym(i, j) - sym(i, k) - sym(j, k) + sym(k, k)
            det = a * c - b * b
            assert flag == (det < 0) or (not flag and det > -1e-12)
        n_flagged += int(flags.sum())
    assert n_flagged > 0


def test_tree_matrices_solve_no_face_with_four_free_coordinates(monkeypatch):
    """On the rank-two tree matrices of the frozen-bytes test at k = 3,
    every face with four or more free coordinates holds an indefinite
    triple and takes no solve."""
    shapes = []
    pinv = np.linalg.pinv

    def recorded(a, *args, **kwargs):
        shapes.append(a.shape)
        return pinv(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", recorded)
    for lam in [lam for t in range(3) for exact in (True, False)
                for lam in _tree_lambdas((87, t), (3,), exact=exact)]:
        shapes.clear()
        norm1_lower(lam)
        assert shapes and max(shape[1] for shape in shapes) <= 4


def test_face_index_arrays_are_cached_read_only():
    """One read-only index per size; the triple ids of each free set name
    its 3-subsets in combinations order."""
    from dyadlab.schur import _face_index, _triples
    for n in range(1, 9):
        faces, trip = _face_index(n), _triples(n)
        assert _face_index(n) is faces and _triples(n) is trip
        assert not trip.flags.writeable
        assert trip.tolist() == [list(t) for t in
                                 itertools.combinations(range(n), 3)]
        for m, face in enumerate(faces):
            assert len(face) == 6
            assert not any(arr.flags.writeable for arr in face)
            free, triples = face[0], face[5]
            assert triples.shape == (math.comb(n, m), math.comb(m, 3))
            for row, ids in zip(free.tolist(), triples.tolist()):
                assert [tuple(t) for t in trip[ids].tolist()] == \
                    list(itertools.combinations(row, 3))


@pytest.mark.parametrize("raw, match", [
    (np.ones((3, 5)), "square"), (np.ones(4), "square"),
    (np.ones((2, 2, 2)), "square"),
    (np.array([[0.0, np.nan], [np.nan, 0.0]]), "finite"),
    (np.array([[np.inf, -np.inf], [-np.inf, np.inf]]), "finite"),
])
def test_norm1_refuses_raw_arrays_that_are_not_square_and_finite(raw, match):
    with pytest.raises(ValueError, match=match):
        norm1_lower(raw)


def test_norm1_above_size_eight_keeps_the_search():
    lam = random_admissible_lambda(4, seed=85)
    val, rep = norm1_lower(lam, restarts=2, iters=30, seed=86)
    assert rep["method"] in ("balanced_enumeration",
                             "projected_gradient_ascent")
    _assert_feasible_witness(val, rep, lam.as_float())


def test_sixteen_to_one_inequality_random():
    for case in range(100):
        k = 1 + case % 3
        lam = random_admissible_lambda(k, seed=(71, case))
        rep = equivalence_report(lam, restarts=4, iters=100, seed=(72, case))
        assert rep["lower_ok"], f"case {case}: ratio {rep['ratio']}"


# -- Schur multipliers ---------------------------------------------------


def test_schur_product_shape_guard():
    with pytest.raises(ValueError):
        schur_product(np.zeros((2, 2)), np.zeros((2, 3)))
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(schur_product(A, np.eye(2)), np.diag([1.0, 4.0]))


def test_all_ones_multiplier_norm_is_one():
    best = multiplier_norm_lower(np.ones((6, 6)), trials=8, seed=0)
    assert best == pytest.approx(1.0, abs=1e-6)


def test_diagonal_multiplier_norm_is_attained_exactly():
    # the identity candidate gives A o I = A, whose SVD norm is max|d|
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = rng.standard_normal(8)
        assert multiplier_norm_lower(np.diag(d)) == np.abs(d).max()


def test_rank_one_multiplier_check_passes():
    report = rank_one_multiplier_check(8, trials=6, seed=0)
    assert report["ok"]
    assert report["max_identity_error"] <= 1e-12


def test_sign_multiplier_ceiling():
    for k in (1, 2, 3):
        report = sign_multiplier_check(k, trials=3, seed=k)
        assert report["ok"]
        assert report["max_probe"] <= 2.0 ** (k / 2.0) * (1.0 + 1e-6)
        assert report["max_probe"] >= 1.0 - 1e-6  # sign matrices reach 1


def test_sign_multiplier_check_refuses_matrices_above_the_cap():
    # the CLI refuses such k before this check runs
    with pytest.raises(DyadicError):
        sign_multiplier_check(40)


def test_sign_matrix_determinism():
    assert np.array_equal(random_sign_matrix(5, seed=9),
                          random_sign_matrix(5, seed=9))
    assert set(np.unique(random_sign_matrix(5, seed=9))) <= {-1.0, 1.0}


def test_find_alpha_requires_depth_tag():
    with pytest.raises(ValueError):
        find_alpha(np.zeros((2, 2)))
