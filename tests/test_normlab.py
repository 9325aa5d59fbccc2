"""Tests for operator-norm estimation and the averaging experiments."""

import math

import numpy as np
import pytest

from dyadlab.dyadic import DyadicError
from dyadlab.normlab import (NormEstimate, ScalingReport,
                             discrete_hilbert_transform, hilbert_demo,
                             opnorm_lp_lower, shift_scaling_study, umd_probe)
from dyadlab.normlab import _dual_map, _mixed_norm
from dyadlab.signal import SpaceSpec

# widest residual allowed when the fitted kernel model is declared a match
DEMO_RESIDUAL_TOL = 0.1


# -- mixed norms and duality maps ---------------------------------------


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
        w = _dual_map(y, p, q, d)
        space = SpaceSpec(p=p, q=q, d=d)
        assert w @ y == pytest.approx(_mixed_norm(y, p, q, d), rel=1e-12)
        assert _mixed_norm(w, space.p_dual, space.q_dual, d) == \
            pytest.approx(1.0, rel=1e-12)
    assert np.all(_dual_map(np.zeros(4), 2.0, 2.0, 1) == 0.0)


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
    norms = iter([1.0, 2.0, 1.0, 1.0])  # start, step 1, dual, step 2
    monkeypatch.setattr(normlab, "_mixed_norm", lambda *args: next(norms))
    with pytest.raises(RuntimeError, match="decreased"):
        opnorm_lp_lower(np.eye(2), SpaceSpec(p=2.0), restarts=1, iters=5)


def test_opnorm_lp_dimension_guard():
    with pytest.raises(DyadicError):
        opnorm_lp_lower(np.zeros((5, 5)), SpaceSpec(p=2.0, d=2))


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
