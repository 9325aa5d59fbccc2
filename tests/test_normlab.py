"""Tests for operator-norm estimation and the averaging experiments."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import dyadlab.normlab as normlab
from dyadlab.dyadic import DyadicError, sample_system
from dyadlab.normlab import (NormEstimate, ScalingReport,
                             discrete_hilbert_transform, hilbert_demo,
                             opnorm_lp_lower, shift_scaling_study, umd_probe)
from dyadlab.shifts import random_extremal_shift, shift_matrix, symmetrize
from dyadlab.signal import SpaceSpec

# widest residual allowed when the fitted kernel model is declared a match
DEMO_RESIDUAL_TOL = 0.1


# -- mixed norms and duality maps ---------------------------------------


def _norm_dual(v, p, q, d):
    (N,), W = normlab._norm_duals(v.reshape(1, -1), p, q, d)
    return N, W[0]


def _mixed_norm(x, p, q, d):
    return _norm_dual(np.asarray(x, float), p, q, d)[0]


def test_mixed_norm_reduces_to_vector_norms():
    x = np.array([3.0, -4.0, 0.0, 12.0])
    assert _mixed_norm(x, 2.0, 2.0, 1) == pytest.approx(13.0)
    assert _mixed_norm(x, 4.0, 4.0, 1) == pytest.approx(
        np.sum(np.abs(x) ** 4) ** 0.25)
    # two cells of two components: inner l2, outer p
    assert _mixed_norm(x, 3.0, 2.0, 2) == pytest.approx(
        (5.0 ** 3 + 12.0 ** 3) ** (1.0 / 3.0))


def test_dual_map_attains_the_norm():
    rng = np.random.default_rng(5)
    for p, q, d in ((2.0, 2.0, 1), (4.0, 2.0, 2), (1.5, 3.0, 3)):
        y = rng.standard_normal(12)
        norm, w = _norm_dual(y, p, q, d)
        space = SpaceSpec(p=p, q=q, d=d)
        assert norm == _ref_mixed_norm(y, p, q, d)
        assert w @ y == pytest.approx(norm, rel=1e-12)
        assert _mixed_norm(w, space.p_dual, space.q_dual, d) == \
            pytest.approx(1.0, rel=1e-12)
    norm, w = _norm_dual(np.zeros(4), 2.0, 2.0, 1)
    assert norm == 0.0 and np.all(w == 0.0)


@pytest.mark.parametrize("p, q, d", [
    (4.0, 2.0, 1), (4.0 / 3.0, 2.0, 1), (4.0, 2.0, 2), (3.0, 1.5, 2),
    (1.5, 3.0, 1),
])
def test_dual_map_bytes_match_the_reference(p, q, d):
    y = np.random.default_rng(72).standard_normal(24)
    y[::3] = -0.0   # the reference maps both signed zeros to +0
    y[1::5] = 0.0
    y[2] = 1e-170   # its square underflows to a zero cell when d = 1
    norm, w = _norm_dual(y, p, q, d)
    assert norm == _ref_mixed_norm(y, p, q, d)
    assert w.tobytes() == _ref_dual_map(y, p, q, d).tobytes()


# The power iteration as it ran with one mixed-norm pass per norm and per
# duality map (four norms per step).  The fused loop must reproduce it bit
# for bit.

def _ref_mixed_norm(x, p, q, d):
    X = np.abs(np.asarray(x, float).reshape(-1, d))
    cells = (X ** q).sum(axis=1) ** (1.0 / q)
    return float((cells ** p).sum() ** (1.0 / p))


def _ref_dual_map(y, p, q, d):
    Y = np.asarray(y, float).reshape(-1, d)
    absY = np.abs(Y)
    u = (absY ** q).sum(axis=1) ** (1.0 / q)
    N = float((u ** p).sum() ** (1.0 / p))
    if N == 0.0:
        return np.zeros(Y.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(u > 0.0, u ** (p - q), 0.0)
    W = factor[:, None] * absY ** (q - 1.0) * np.sign(Y) / N ** (p - 1.0)
    return W.ravel()


def _ref_opnorm_lp_lower(A, space, restarts, iters, seed, tol=1e-11,
                         starts=()):
    n, d = A.shape[1], space.d
    p, q = float(space.p), float(space.q)
    pd, qd = float(space.p_dual), float(space.q_dual)
    rng = np.random.default_rng(seed)
    inits = [np.asarray(s, float) for s in starts]
    inits += [rng.standard_normal(n) for _ in range(restarts - len(inits))]
    best_val, best_wit, total_iters = 0.0, None, 0
    for x0 in inits:
        nx = _ref_mixed_norm(x0, p, q, d)
        if nx == 0.0:
            continue
        x = x0 / nx
        prev = -math.inf
        for _ in range(iters):
            total_iters += 1
            y = A @ x
            obj = _ref_mixed_norm(y, p, q, d)
            if obj > best_val:
                best_val, best_wit = obj, x.copy()
            if obj == 0.0 or obj - prev <= tol * max(1.0, obj):
                break
            prev = obj
            z = A.T @ _ref_dual_map(y, p, q, d)
            if _ref_mixed_norm(z, pd, qd, d) == 0.0:
                break
            x = _ref_dual_map(z, pd, qd, d)
    return best_val, total_iters, best_wit


def _fused_loop_matrices():
    mats = []
    for depth in (4, 5, 6, 7, 8):
        k = 1 + depth % 4
        shift = random_extremal_shift(sample_system((depth, 3), depth),
                                      k - 1, k - 1, seed=(depth, 4))
        mats.append(shift_matrix(symmetrize(shift)))
    rng = np.random.default_rng(41)
    mats.append(rng.standard_normal((48, 48)))
    # zero rows and columns give zero cells on both sides of the iteration
    holes = rng.standard_normal((48, 48))
    holes[[3, 4, 17], :] = 0.0
    holes[:, [0, 1, 30]] = 0.0
    mats.append(holes)
    return mats


@pytest.mark.parametrize("p, q, d", [
    (4.0, 2.0, 1), (4.0 / 3.0, 2.0, 1), (1.5, 2.0, 1), (2.0, 2.0, 1),
    (4.0, 1.5, 2), (3.0, 3.0, 2), (3.0, 1.5, 1),
])
def test_fused_power_iteration_is_bit_identical(p, q, d):
    space = SpaceSpec(p=p, q=q, d=d)
    for i, A in enumerate(_fused_loop_matrices()):
        for seed in (0, 1):
            est = opnorm_lp_lower(A, space, restarts=3, iters=60,
                                  seed=(seed, i))
            lower, iterations, witness = _ref_opnorm_lp_lower(
                A, space, restarts=3, iters=60, seed=(seed, i))
            assert est.lower == lower
            assert est.iterations == iterations
            assert est.witness.tobytes() == witness.tobytes()


# -- starts on several threads ------------------------------------------


def _threaded(monkeypatch, n_threads):
    """Give the power iteration ``n_threads`` threads for its starts, on
    any host and BLAS, and record the thread count of every call."""
    used = []
    run_starts = normlab._run_starts

    def spy(run, inits, n):
        used.append(n)
        return run_starts(run, inits, n)

    monkeypatch.setattr(normlab, "_start_threads", lambda: n_threads)
    monkeypatch.setattr(normlab, "_run_starts", spy)
    return used


def _symmetrized(depth, k, seed):
    shift = random_extremal_shift(sample_system((seed, depth), depth),
                                  k - 1, k - 1, seed=(seed, depth, k))
    return shift_matrix(symmetrize(shift))


@pytest.mark.parametrize("n_threads", [2, 3])
@pytest.mark.parametrize("depth, k, p, q, d, n_starts", [
    (9, 2, 4.0, 2.0, 1, 0), (10, 1, 4.0, 2.0, 1, 0),
    (9, 3, 3.0, 1.5, 2, 0), (10, 2, 1.5, 2.0, 1, 2),
])
def test_threaded_starts_are_bit_identical(monkeypatch, n_threads, depth, k,
                                           p, q, d, n_starts):
    used = _threaded(monkeypatch, n_threads)
    A = _symmetrized(depth, k, seed=61)
    space = SpaceSpec(p=p, q=q, d=d)
    starts = list(np.random.default_rng(62).standard_normal(
        (n_starts, A.shape[1])))
    before = threading.active_count()
    est = opnorm_lp_lower(A, space, restarts=4, iters=60, seed=(63, depth),
                          starts=starts or None)
    assert threading.active_count() == before
    assert used == [n_threads]
    lower, iterations, witness = _ref_opnorm_lp_lower(
        A, space, restarts=4, iters=60, seed=(63, depth), starts=starts)
    assert est.lower == lower
    assert est.iterations == iterations
    assert est.witness.tobytes() == witness.tobytes()


def _with_inf(A):
    A = A.copy()
    A[5, 300] = math.inf
    return A


_FIRST_ERROR_CASES = pytest.mark.parametrize("make, zero_at, match", [
    (lambda A: A, 1, "start"),         # a zero start after a valid one
    (_with_inf, None, "not finite"),   # every start fails
    (_with_inf, 1, "not finite"),      # the later zero start fails first
    (_with_inf, 0, "start"),
])


def _raises_first_error(monkeypatch, n_threads, make, zero_at, match):
    used = _threaded(monkeypatch, n_threads)
    A = make(_symmetrized(9, 2, seed=64))
    starts = list(np.random.default_rng(65).standard_normal((3, 512)))
    if zero_at is not None:
        starts[zero_at] = np.zeros(512)
    before = threading.active_count()
    with pytest.raises(DyadicError, match=match):
        opnorm_lp_lower(A, SpaceSpec(p=4.0), restarts=0, iters=60,
                        starts=starts)
    assert threading.active_count() == before
    assert used == [n_threads]


@_FIRST_ERROR_CASES
def test_threaded_starts_raise_the_first_error_in_start_order(
        monkeypatch, make, zero_at, match):
    _raises_first_error(monkeypatch, 2, make, zero_at, match)


@_FIRST_ERROR_CASES
def test_lockstep_starts_raise_the_first_error_in_start_order(
        monkeypatch, make, zero_at, match):
    _raises_first_error(monkeypatch, 1, make, zero_at, match)


@pytest.mark.parametrize("zero_first, error, match", [
    (True, DyadicError, "start"),
    (False, RuntimeWarning, "overflow"),
])
def test_lockstep_starts_charge_a_raising_pass_to_its_start(zero_first,
                                                           error, match):
    # a warning raised as an error in the block's pass belongs to the start
    # whose own pass raises it, so the first error in start order is the
    # zero start's or the overflow's
    starts = [np.zeros(4), np.full(4, 1e300)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            opnorm_lp_lower(np.eye(4), SpaceSpec(p=4.0), restarts=0,
                            starts=starts if zero_first else starts[::-1])


def _keeps_error_state(monkeypatch, n_threads, n, restarts):
    used = _threaded(monkeypatch, n_threads)
    # the unscaled first pass overflows; the caller silences that, and a
    # warning left loud in a thread, or one that a pass over one start
    # would not give, would be raised as an error here
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        est = opnorm_lp_lower(np.eye(n) * 1e80, SpaceSpec(p=4.0),
                              restarts=restarts, iters=5)
    assert est.lower == pytest.approx(1e80, rel=1e-12, abs=0.0)
    assert used == [n_threads]


def test_threaded_starts_keep_the_callers_numpy_error_state(monkeypatch):
    _keeps_error_state(monkeypatch, 2, n=512, restarts=3)


def test_lockstep_starts_keep_the_callers_numpy_error_state(monkeypatch):
    _keeps_error_state(monkeypatch, 1, n=4, restarts=8)


def test_lockstep_starts_rerun_alone_only_after_an_error(monkeypatch):
    used = _threaded(monkeypatch, 1)
    blocks = []
    power_starts = normlab._power_starts

    def spy(A, X0, *args):
        blocks.append(X0.tobytes())
        return power_starts(A, X0, *args)

    monkeypatch.setattr(normlab, "_power_starts", spy)
    A = _symmetrized(6, 2, seed=66)
    X = np.random.default_rng(66).standard_normal((3, 64))
    opnorm_lp_lower(A, SpaceSpec(p=4.0), restarts=0, iters=20,
                    starts=list(X))
    assert blocks == [X.tobytes()]
    # the block, then each start alone up to the zero start, which raises
    blocks.clear()
    X[1] = 0.0
    with pytest.raises(DyadicError, match="start"):
        opnorm_lp_lower(A, SpaceSpec(p=4.0), restarts=0, iters=20,
                        starts=list(X))
    assert blocks == [X.tobytes(), X[:1].tobytes(), X[1:2].tobytes()]
    assert used == [1, 1]


def test_lockstep_starts_with_mixed_fates_match_one_start_per_thread(
        monkeypatch):
    A = _symmetrized(9, 2, seed=67)
    A[:, :8] = 0.0
    space = SpaceSpec(p=4.0)
    rng = np.random.default_rng(68)
    converged = opnorm_lp_lower(A, space, restarts=1, iters=400,
                                seed=69).witness
    killed = np.zeros(512)
    killed[:8] = 1e300
    # stalls at once; runs to the step cap; reaches zero after the
    # float-range fallback; runs to the cap after the fallback
    starts = [converged, rng.standard_normal(512), killed,
              rng.standard_normal(512) * 1e300]
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")  # no division of a zero row by 0
        fates = normlab._power_starts(A, np.array(starts), 4.0, 2.0,
                                      4.0 / 3.0, 2.0, 1, 12)
        runs = {}
        for n_threads in (1, len(starts)):
            used = _threaded(monkeypatch, n_threads)
            est = opnorm_lp_lower(A, space, restarts=0, iters=12,
                                  starts=starts)
            assert used == [n_threads]
            runs[n_threads] = (est.lower, est.iterations,
                               est.witness.tobytes())
    steps = [fate[2] for fate in fates]
    assert steps[0] < 12 and steps[1:] == [12, 1, 12]
    assert fates[2][0] == 0.0
    assert runs[1] == runs[len(starts)]
    assert runs[1][1] == sum(steps)


@pytest.mark.parametrize("p, q, d", [
    (4.0, 2.0, 1), (4.0 / 3.0, 2.0, 1), (3.0, 1.5, 2), (1.5, 3.0, 2),
])
def test_norm_duals_rows_match_one_row_passes(p, q, d):
    rng = np.random.default_rng(70)
    V = rng.standard_normal((7, 16))
    V[1] = 0.0
    V[2, ::4] = 0.0  # zero cells, and zeros inside cells when d = 2
    V[2, 1::4] = -0.0
    V[3] *= 1e300    # the powers overflow: the float-range fallback
    V[4] *= 1e-300   # the powers underflow
    V[5, 3] = math.inf
    V[6, 5] = math.nan
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        norms, W = normlab._norm_duals(V, p, q, d)
        for j in range(len(V)):
            (norm,), row = normlab._norm_duals(V[j:j + 1], p, q, d)
            assert repr(norm) == repr(norms[j])
            assert row.tobytes() == W[j:j + 1].tobytes()


def test_starts_share_threads_only_on_large_matrices(monkeypatch):
    used = _threaded(monkeypatch, 2)
    space = SpaceSpec(p=4.0)
    opnorm_lp_lower(_symmetrized(8, 2, seed=66), space, restarts=3, iters=5)
    opnorm_lp_lower(_symmetrized(9, 2, seed=66), space, restarts=1, iters=5)
    opnorm_lp_lower(_symmetrized(9, 2, seed=66), space, restarts=3, iters=5)
    assert used == [1, 1, 2]  # 512 KiB, one start, 2 MiB with three


@pytest.mark.parametrize("env, threads", [
    ({}, 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, "cpus"),
    ({"OMP_NUM_THREADS": "1"}, "cpus"),
    ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, 1),
])
def test_start_threads_follow_the_blas_thread_setting(monkeypatch, env,
                                                      threads):
    for var in normlab._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    if threads == "cpus":
        threads = len(os.sched_getaffinity(0))
    assert normlab._start_threads() == threads


# (lower, iterations, sha256 of the witness) of the two depth-10 shapes of
# the shift-norms benchmark at seed 100 (ops 4 and 10), recorded with the
# serial loop over starts
SHIFT_NORMS_DEPTH10 = {
    (4, 1): (2.1971732404631137, 121,
             "c8db21ec29c19a994eaa687c83de5675"
             "ab8cdb68452cb181a4ea75f82045278a"),
    (10, 2): (1.6591508725722446, 79,
              "4ee2fe16dd8dbf9a0f82c392e520ab28"
              "b4c5af486e7f4b5dbf796b13169b5c49"),
}


# the same for the ten depth-8 shapes (ops 0-3, 5-9 and 11)
SHIFT_NORMS_DEPTH8 = {
    (0, 1): (1.9697997648782737, 81,
             "98125c79cc1228972bf7d83c0e0dc3fd"
             "b6a9ccd4cca840763c1632f4e6f7c8e9"),
    (1, 3): (1.0600022669980071, 160,
             "25b148c3700ca2ca0a6c85ad229caf2e"
             "8ce4489679ba94c6f77e9c6e6ef4fd1c"),
    (2, 2): (1.4900184876708402, 146,
             "08c0be7cc38ff18934733a47f17c5aba"
             "ae22716260862fc8b3864437c9b5d69b"),
    (3, 5): (0.5910673376042096, 53,
             "9920285c73170055df07eaa68462b458"
             "2ccdd58270106c94d0d13a183bb31151"),
    (5, 3): (1.162848581854642, 89,
             "32c0a10a52a8966f62a602cb5fbadebb"
             "f87646cc489d691b7e8e3205eaffa41d"),
    (6, 4): (0.803300657185744, 73,
             "b5da69b685c25e8107cdd74bcbd7df43"
             "58bfac7a15c5c02715a6d376707fe100"),
    (7, 3): (1.1040733272526855, 120,
             "ba7074391943e822345518afebf1bfde"
             "021d9049f4e6c3a7067a37e7497ee972"),
    (8, 2): (1.4895010316939536, 177,
             "550268725fbf5b161c1b00ba91eae79a"
             "b2ed760ec3d731bafe46b1fca1872ab7"),
    (9, 5): (0.5661302893370661, 109,
             "508c00ba2c62e02a7fb4fbbbc933fd1d"
             "a892d0b7b4247b5f04bcfdb0d6579538"),
    (11, 3): (1.0862789820711936, 162,
              "746e188ee63e9595e58ec906e5e4b7be"
              "dae13a7b443b12399bc6b3d5e9dbd1ae"),
}


def _shift_norms_op(op, depth, k):
    """(lower, iterations, sha256 of the witness) of one seed-100
    shift-norms op."""
    shift = random_extremal_shift(sample_system((100, op), depth), k - 1,
                                  k - 1, seed=(100, op, 1))
    est = opnorm_lp_lower(shift_matrix(symmetrize(shift)), SpaceSpec(p=4.0),
                          restarts=3, iters=60, seed=(100, op, 7))
    return (est.lower, est.iterations,
            hashlib.sha256(est.witness.tobytes()).hexdigest())


@pytest.mark.parametrize("n_threads", [1, 2])
@pytest.mark.parametrize("case", sorted(SHIFT_NORMS_DEPTH10))
def test_depth10_shift_norms_are_frozen(monkeypatch, case, n_threads):
    _threaded(monkeypatch, n_threads)
    assert _shift_norms_op(case[0], 10, case[1]) == SHIFT_NORMS_DEPTH10[case]


def test_depth10_shift_norms_do_not_depend_on_the_blas_threads():
    """The four depth-10 cases above, run in one subprocess whose BLAS
    runs each product on two threads, keep their pins."""
    script = (
        "import test_normlab as t\n"
        "for n in (1, 2):\n"
        "    t.normlab._start_threads = lambda: n\n"
        "    for case in sorted(t.SHIFT_NORMS_DEPTH10):\n"
        "        got = t._shift_norms_op(case[0], 10, case[1])\n"
        "        assert got == t.SHIFT_NORMS_DEPTH10[case], (case, n, got)\n")
    env = {k: v for k, v in os.environ.items()
           if k not in normlab._BLAS_THREAD_VARS}
    tests = Path(__file__).resolve().parent
    env.update(OPENBLAS_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("case", sorted(SHIFT_NORMS_DEPTH8))
def test_depth8_shift_norms_are_frozen(case):
    assert _shift_norms_op(case[0], 8, case[1]) == SHIFT_NORMS_DEPTH8[case]


# -- operator norms ------------------------------------------------------


def test_opnorm_lp_rank_one_oracle():
    """For A = u w^T the p-norm is exactly |u|_p |w|_{p'}, attained in one
    step of the iteration."""
    rng = np.random.default_rng(21)
    for p in (1.5, 2.0, 4.0):
        space = SpaceSpec(p=p)
        u = rng.standard_normal(24)
        w = rng.standard_normal(24)
        A = np.outer(u, w)
        truth = (float(np.sum(np.abs(u) ** p) ** (1.0 / p))
                 * float(np.sum(np.abs(w) ** space.p_dual)
                         ** (1.0 / space.p_dual)))
        est = opnorm_lp_lower(A, space, restarts=3, iters=40, seed=22)
        assert est.lower == pytest.approx(truth, rel=1e-9)
        assert est.witness is not None
        # the witness is kept unit-normalized and attains the bound
        assert _mixed_norm(est.witness, float(p), float(space.q), 1) == \
            pytest.approx(1.0, rel=1e-12)
        attained = _mixed_norm(A @ est.witness, float(p), float(space.q), 1)
        assert attained == pytest.approx(est.lower, rel=1e-9)


def test_opnorm_lp_never_exceeds_l2_on_p2():
    rng = np.random.default_rng(31)
    A = rng.standard_normal((16, 16))
    est = opnorm_lp_lower(A, SpaceSpec(p=2.0), restarts=4, iters=60, seed=32)
    exact = float(np.linalg.norm(A, 2))
    assert est.lower <= exact * (1.0 + 1e-9)
    assert est.lower == pytest.approx(exact, rel=1e-6)


def test_opnorm_lp_decrease_raises(monkeypatch):
    """A falling objective is an error, checked without ``assert`` so that
    ``python -O`` keeps the check."""
    import dyadlab.normlab as normlab
    # start, step 1, dual, step 2; the rerun of the start alone sees the
    # same values
    norms = itertools.cycle([1.0, 2.0, 1.0, 1.0])
    monkeypatch.setattr(normlab, "_norm_duals",
                        lambda V, *args: ([next(norms) for _ in V],
                                          np.ones(V.shape)))
    with pytest.raises(RuntimeError, match="decreased"):
        opnorm_lp_lower(np.eye(2), SpaceSpec(p=2.0), restarts=1, iters=5)


def test_opnorm_lp_dimension_guard():
    with pytest.raises(DyadicError):
        opnorm_lp_lower(np.zeros((5, 5)), SpaceSpec(p=2.0, d=2))


def test_opnorm_lp_zero_operator_keeps_its_first_start():
    est = opnorm_lp_lower(np.zeros((4, 4)), SpaceSpec(p=2.0))
    assert est.lower == 0.0
    x0 = np.random.default_rng(0).standard_normal(4)
    assert est.witness is not None
    assert est.witness.tobytes() == (x0 / _mixed_norm(x0, 2.0, 2.0, 1)) \
        .tobytes()


def test_opnorm_lp_rejects_nan_matrix():
    A = np.eye(4)
    A[1, 2] = math.nan
    with pytest.raises(DyadicError, match="not finite"):
        opnorm_lp_lower(A, SpaceSpec(p=4.0), restarts=2, iters=10)


def test_opnorm_lp_rejects_inf_entry():
    A = np.eye(4)
    A[0, 3] = math.inf
    with pytest.raises(DyadicError, match="not finite"):
        opnorm_lp_lower(A, SpaceSpec(p=4.0), restarts=2, iters=10)


def test_opnorm_lp_rejects_one_dimensional_matrix():
    with pytest.raises(DyadicError, match="shape"):
        opnorm_lp_lower(np.ones(4), SpaceSpec(p=2.0))


def test_opnorm_lp_rejects_rows_that_split_a_cell():
    # 4 columns hold two cells, but 3 rows do not
    with pytest.raises(DyadicError, match="shape"):
        opnorm_lp_lower(np.ones((3, 4)), SpaceSpec(p=2.0, d=2))


def test_opnorm_lp_rejects_start_of_wrong_length():
    with pytest.raises(DyadicError, match="start"):
        opnorm_lp_lower(np.eye(4), SpaceSpec(p=2.0), restarts=1,
                        starts=[np.ones(3)])


@pytest.mark.parametrize("start", [np.zeros(4),
                                   np.array([1.0, math.inf, 0.0, 0.0])])
def test_opnorm_lp_rejects_start_without_a_unit_multiple(start):
    # neither a zero start nor one of infinite norm scales to norm 1
    with pytest.raises(DyadicError, match="start"):
        opnorm_lp_lower(np.eye(4), SpaceSpec(p=4.0), restarts=0,
                        starts=[start])


@pytest.mark.parametrize("scale", [1e80, 1e-90])
def test_opnorm_lp_scales_past_the_float_range_of_the_powers(scale):
    # |x|**4 overflows at 1e80 and underflows at 1e-90; the norm does not
    with np.errstate(over="ignore"):  # the unscaled first pass overflows
        est = opnorm_lp_lower(np.eye(4) * scale, SpaceSpec(p=4.0))
    assert est.lower == pytest.approx(scale, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("value", [1e300, 1e-100])
def test_opnorm_lp_accepts_starts_past_the_float_range_of_the_powers(value):
    with np.errstate(over="ignore"):
        est = opnorm_lp_lower(np.eye(4), SpaceSpec(p=4.0), restarts=0,
                              starts=[np.full(4, value)])
    assert est.lower == pytest.approx(1.0, rel=1e-12)
    assert _mixed_norm(est.witness, 4.0, 4.0, 1) == pytest.approx(1.0)


def test_norm_estimate_width():
    est = NormEstimate(lower=1.0, upper=1.5, method="x", iterations=3)
    assert est.width == pytest.approx(0.5)


# -- martingale transform probe -----------------------------------------


def test_umd_probe_p2_is_an_isometry():
    report = umd_probe(depth=4, p=2.0, q=2.0, trials=4, seed=0, restarts=2,
                       iters=40)
    assert report["best_lower"] == pytest.approx(1.0, abs=1e-9)
    assert report["beta_ref"] == pytest.approx(1.0)
    assert report["within_reference"]
    assert report["duality_gap"] <= 1e-9


def test_umd_probe_p4_stays_below_reference():
    report = umd_probe(depth=5, p=4.0, q=2.0, trials=6, seed=1, restarts=3,
                       iters=60)
    assert report["beta_ref"] == pytest.approx(3.0)
    assert report["best_lower"] > 1.0  # transforms do expand some vectors
    assert report["best_lower"] <= 3.0 + 1e-6
    assert report["within_reference"]
    assert len(report["rows"]) == 6


def test_umd_probe_vector_target_reports_raw_norms():
    report = umd_probe(depth=3, p=3.0, q=2.0, d=2, trials=2, seed=2,
                      restarts=2, iters=30)
    assert report["beta_ref"] is None
    assert report["within_reference"] is None
    assert report["best_lower"] > 0.0


def test_umd_probe_deterministic():
    a = umd_probe(depth=4, p=4.0, trials=3, seed=7, restarts=2, iters=30)
    b = umd_probe(depth=4, p=4.0, trials=3, seed=7, restarts=2, iters=30)
    assert a == b


# -- scaling study -------------------------------------------------------


def test_scaling_study_shape_and_csv():
    study = shift_scaling_study(k_values=(1, 2), depth=4, p=4.0, trials=3,
                                seed=0, restarts=2, iters=30)
    assert isinstance(study, ScalingReport)
    assert [r["k"] for r in study.rows] == [1, 2]
    for row in study.rows:
        assert row["max_lower"] > 0.0
        denom = row["k"] * 2.0 ** (row["k"] / 2.0) * 3.0
        assert row["implied_c"] == pytest.approx(row["max_lower"] / denom)
    assert study.fitted_c == pytest.approx(
        max(r["implied_c"] for r in study.rows))
    csv = study.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "k,m,n,max_lower,implied_c"
    assert len(lines) == 3
    assert study.to_json_dict()["rows"] == study.rows


def test_scaling_study_depth_guard():
    with pytest.raises(DyadicError):
        shift_scaling_study(k_values=(4,), depth=3, trials=1)


# -- discrete principal-value transform ----------------------------------


def test_discrete_hilbert_transform_structure():
    n = 64
    h = 2.0 / n
    xs = -1.0 + h * (np.arange(n) + 0.5)
    f = np.where(np.abs(xs) < 0.5, 1.0, 0.0)
    Hf = discrete_hilbert_transform(f, xs, h)
    # odd kernel + symmetric data: antisymmetric output
    assert np.abs(Hf + Hf[::-1]).max() < 1e-12
    # mass sits left of the right edge, so the transform is positive there
    assert Hf[-1] > 0.0 and Hf[0] < 0.0
    # linearity
    H2 = discrete_hilbert_transform(2.0 * f, xs, h)
    assert np.abs(H2 - 2.0 * Hf).max() < 1e-12


def test_discrete_hilbert_excludes_diagonal():
    xs = np.array([0.0, 1.0])
    out = discrete_hilbert_transform(np.array([1.0, 0.0]), xs, 1.0)
    assert out[0] == 0.0  # only the diagonal would contribute
    assert out[1] == pytest.approx(1.0)


# -- the averaging demo --------------------------------------------------


def test_hilbert_demo_pinned_run_is_accepted():
    report = hilbert_demo()
    assert report["seed"] == 6
    assert report["n_samples"] == 2000
    assert report["n_rejected"] == 150
    assert report["residuals_nonincreasing"]
    assert report["final_residual"] <= DEMO_RESIDUAL_TOL
    assert report["accepted"]
    assert report["c_star"] == pytest.approx(5.174194578342465, rel=1e-6)
    residuals = [row["residual"] for row in report["checkpoints"]]
    assert residuals == sorted(residuals, reverse=True)


def test_hilbert_demo_deterministic():
    a = hilbert_demo(checkpoints=(100, 200), seed=3)
    b = hilbert_demo(checkpoints=(100, 200), seed=3)
    assert a == b


def test_hilbert_demo_validation():
    with pytest.raises(DyadicError):
        hilbert_demo(M=1)
    with pytest.raises(DyadicError):
        hilbert_demo(M=5, depth=6)
    with pytest.raises(DyadicError):
        hilbert_demo(checkpoints=())
    with pytest.raises(DyadicError):
        hilbert_demo(checkpoints=(0, 10))
