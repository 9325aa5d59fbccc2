"""Acceptance suite: one test per headline property, at desk scale.

Each test is a self-contained battery; ``pytest -v`` prints one pass/fail
line per criterion.  Two batteries end in assertions that the measured
runs do not meet their stated targets (the scaling-homogeneity clause in
criterion 5 and the partial-sum stabilization clause in criterion 7);
those failures are findings, not bugs — see the README for the analysis.
The assertions are kept hard so the suite reports the state of the claims
honestly.
"""

import math
from fractions import Fraction

import numpy as np

from dyadlab.bellman import (BellmanConfig, lemma51_verify, modified_points,
                             tree_from_functions)
from dyadlab.dyadic import sample_system
from dyadlab.normlab import hilbert_demo, shift_scaling_study, umd_probe
from dyadlab.schur import (AlphaSequence, equivalence_report, lambda_matrix,
                           random_admissible_lambda, sign_multiplier_check)
from dyadlab.schur import _project_balanced_box
from dyadlab.shifts import (apply_shift, is_self_adjoint,
                            random_extremal_shift, series_bound, shift_matrix,
                            shift_slice, symmetrize)
from dyadlab.shifts import paraproduct, paraproduct_adjoint
from dyadlab.signal import (SpaceSpec, haar_expand, haar_reconstruct,
                            pairing_integral, pointwise_product,
                            random_step_function)
from haar_oracle import average, children, haar_coeff

KG = 1.783
YIELD_THRESHOLD = 1.0 / (192.0 * KG)


def _balanced_exact_alpha(rng, n):
    """Random exact modulation: entries in ``[-1/4, 1/4]``, sum exactly 0."""
    mags = [Fraction(int(rng.integers(0, 9)), 32) for _ in range(n // 2)]
    vals = np.array([s * m for m in mags for s in (1, -1)], dtype=object)
    rng.shuffle(vals)
    return AlphaSequence(vals)


def test_criterion_1_exact_identity_suite():
    """Ten structural identities hold exactly (rational arithmetic, zero
    tolerance) on 100 random window/function instances of depth up to 8."""
    rng = np.random.default_rng(901)
    shift_params = ((0, 1), (1, 1), (1, 2), (2, 2), (0, 0))
    for i in range(100):
        depth = (3, 4, 5)[i % 3]
        if i == 40:
            depth = 6
        if i == 80:
            depth = 8
        system = sample_system((901, i), depth, M=(i % 3) - 1)
        f = random_step_function(system, seed=(901, i, 1), exact=True)
        g = random_step_function(system, seed=(901, i, 2), exact=True)

        # 1. Haar round-trip
        mean_f, coeffs_f = haar_expand(f)
        assert haar_reconstruct(system, mean_f, coeffs_f) == f

        # 2. martingale dynamics: parent average = mean of child averages
        # 3. factor-4 identity: |I| jump_f jump_g = 4 c_f c_g per interval
        for iv in system.nonleaf_intervals():
            left, right = children(iv)
            al, ar = average(f, left)[0], average(f, right)[0]
            assert 2 * average(f, iv)[0] == al + ar
            jump_g_val = average(g, left)[0] - average(g, right)[0]
            assert (iv.length * (al - ar) * jump_g_val
                    == 4 * haar_coeff(f, iv)[0] * haar_coeff(g, iv)[0])

        # 4. slice partition: the complexity slices sum back to the shift
        m, n = shift_params[i % len(shift_params)]
        shift = random_extremal_shift(system, m, n, seed=(901, i, 3))
        out = apply_shift(shift, f)
        parts = None
        for j in range(shift.complexity):
            part = apply_shift(shift_slice(shift, j), f)
            parts = part if parts is None else parts + part
        assert parts == out

        # 5. symmetrization is exactly self-adjoint
        assert is_self_adjoint(symmetrize(shift), tol=0.0)

        # 6. paraproduct decomposition of a pointwise product
        phi = random_step_function(system, seed=(901, i, 4), exact=True)
        total = (paraproduct(phi, f) + paraproduct_adjoint(phi, f)
                 + paraproduct(f, phi))
        rem = pointwise_product(phi, f) - total
        mean_phi = average(phi, system.interval(0, 0))[0]
        assert all(rem.values[j, 0] == mean_phi * mean_f[0]
                   for j in range(system.n_leaves))

        # 7. interaction matrix: symmetric with zero row/column sums
        k = 1 + (i % 3)
        tree = tree_from_functions(f, g, SpaceSpec(p=2.0))
        lam = lambda_matrix(tree, k)
        size = 2 ** k
        for a in range(size):
            assert sum(lam.values[a, :]) == 0
            for b in range(size):
                assert lam.values[a, b] == lam.values[b, a]

        # 8. pairing identity: <f'-f_0, g'-g_0> = alpha^T Lambda alpha / 2
        alpha = _balanced_exact_alpha(rng, size)
        report = modified_points(tree, alpha, k=k, lam=lam)
        quad = sum(alpha.values[a] * lam.values[a, b] * alpha.values[b]
                   for a in range(size) for b in range(size))
        f0, g0 = tree.f[0][0, 0], tree.g[0][0, 0]
        for (f,), _, (g,), _ in (report["plus"], report["minus"]):
            assert (f - f0) * (g - g0) == quad / 2

        # 9. convex-combination identity  10. product formula 2^-k (1 +- a)
        assert report["identity_exact"]
        assert report["product_exact"]


def test_criterion_2_bound_suite():
    """Norm and range bounds: unit operator norm of extremal shifts,
    transform norms below the classical reference, modified-martingale
    weights in range for 10^4 modulations, sign-multiplier ceiling."""
    # (a) 150 random extremal shifts of complexity <= 3 at depth 8 have
    #     spectral norm at most 1 (independent oracle: full SVD)
    params = [(m, n) for m in range(3) for n in range(3)]
    for i in range(150):
        system = sample_system((902, i), 8)
        m, n = params[i % len(params)]
        shift = random_extremal_shift(system, m, n, seed=(902, i, 1))
        norm = float(np.linalg.norm(shift_matrix(shift), 2))
        assert norm <= 1.0 + 1e-9, (m, n, norm)

    # (b) the martingale-transform probe at p=4 stays below max(p,p')-1
    probe = umd_probe()
    assert probe["p"] == 4.0
    assert probe["best_lower"] <= 3.0 + 1e-6
    assert probe["within_reference"]

    # (c) 10^4 random modulations: weights 1 +- alpha in [3/4, 5/4] and
    #     every interpolation weight theta in [3/10, 5/6]
    rng = np.random.default_rng(9020)
    trees = {}
    for k in (1, 2, 3):
        system = sample_system((902, 500 + k), 3)
        f = random_step_function(system, seed=(902, 600 + k)).as_float()
        g = random_step_function(system, seed=(902, 700 + k)).as_float()
        trees[k] = tree_from_functions(f, g, SpaceSpec(p=2.0))
    for i in range(10_000):
        k = 1 + (i % 3)
        alpha = AlphaSequence(
            _project_balanced_box(rng.uniform(-0.3, 0.3, 2 ** k)))
        weights = np.concatenate([1.0 + alpha.values, 1.0 - alpha.values])
        assert weights.min() >= 0.75 - 1e-12
        assert weights.max() <= 1.25 + 1e-12
        report = modified_points(trees[k], alpha, k=k)
        assert report["theta_min"] >= 0.3 - 1e-12
        assert report["theta_max"] <= 5.0 / 6.0 + 1e-12

    # (d) sign matrices of size 2^k: multiplier lower bounds <= 2^(k/2)
    for k in (1, 2, 3, 4):
        report = sign_multiplier_check(k, trials=50, seed=902 + k)
        assert report["ok"]
        assert report["max_probe"] <= 2.0 ** (k / 2.0) + 1e-9


def test_criterion_3_lambda_equivalence():
    """On 500 random admissible interaction matrices (k = 1, 2, 3) the
    sign-box norm dominates 16x the balanced-quadratic norm, and the ratio
    of the two never exceeds 192; at k = 1 the ratio is exactly 16."""
    k_schedule = [1] * 167 + [2] * 167 + [3] * 166
    ratios = {1: [], 2: [], 3: []}
    for i, k in enumerate(k_schedule):
        lam = random_admissible_lambda(k, seed=(903, i))
        if lam.abs_sum() == 0:
            continue
        report = equivalence_report(lam, seed=(903, i, 1))
        assert report["lower_ok"], (k, i, report["ratio"])
        assert report["upper_ok"], (k, i, report["ratio"])
        ratios[k].append(report["ratio"])
    assert sum(len(v) for v in ratios.values()) >= 495
    # finding: the classical interval starts at 64, but size-two matrices
    # all sit at exactly 16
    assert max(ratios[1]) <= 16.0 * (1.0 + 1e-9)
    assert min(ratios[1]) >= 16.0 * (1.0 - 1e-9)
    assert all(r <= 192.0 * (1.0 + 1e-6)
               for k in ratios for r in ratios[k])


def test_criterion_4_end_to_end_yield():
    """200 random scalar instances at p=2, cell depths 1 and 2: the
    modulation yield clears 1/(192 K_G) for every nondegenerate instance,
    the dynamic-programming oracle admits the run, and an empirical drop
    constant is reported."""
    config = BellmanConfig(p=2.0, f_max=4.0, F_max=16.0, g_max=4.0,
                           G_max=16.0)
    space = SpaceSpec(p=2.0)
    nondegenerate = 0
    for i in range(200):
        k = 1 + (i % 2)
        system = sample_system((904, i), 3)
        f = random_step_function(system, seed=(904, i, 1), exact=True)
        g = random_step_function(system, seed=(904, i, 2), exact=True)
        report = lemma51_verify(f, g, space, k=k, bellman_depth=3,
                                config=config, seed=(904, i, 3))
        assert report["meets_threshold"], (i, k, report["achieved_c"])
        assert report["identity_exact"]
        assert report["theta_min"] >= 0.3 - 1e-12
        assert report["theta_max"] <= 5.0 / 6.0 + 1e-12
        if not report["degenerate"]:
            nondegenerate += 1
            assert report["achieved_c"] >= YIELD_THRESHOLD - 1e-12
            assert report["c_emp"] is not None
            assert math.isfinite(report["root_value"])
    assert nondegenerate >= 150


def test_criterion_5_scaling_study():
    """Full-scale norm growth study (p=4, complexities 1..5, 50 shifts
    each at depth 8): every measured lower bound sits under the fitted
    envelope, and the per-complexity implied constants are required to
    agree within a factor of 10."""
    study = shift_scaling_study(seed=0)
    assert [row["k"] for row in study.rows] == [1, 2, 3, 4, 5]
    for row in study.rows:
        envelope = study.fitted_c * row["k"] * 2.0 ** (row["k"] / 2.0) * 3.0
        assert row["max_lower"] <= envelope * (1.0 + 1e-12)
        assert row["implied_c"] > 0.0
    # Measured run: implied constants fall steadily with k (0.49 at k=1
    # down to 0.0074 at k=5, a 66x spread), because random extremal
    # shifts drift ever farther below the k 2^(k/2) envelope as k grows.
    # The growth claim itself is untouched (the bounds are all BELOW the
    # envelope); what fails is the 10x homogeneity target.  Hard assert
    # so the suite reports the measured state of that target.
    assert study.homogeneity_ratio <= 10.0, (
        f"per-complexity implied constants spread by "
        f"{study.homogeneity_ratio:.1f}x, exceeding the 10x homogeneity "
        f"target; measured lower bounds grow sub-(k 2^(k/2)) and the "
        f"fitted envelope stays valid")


def test_criterion_6_averaging_demo():
    """Averaging 2000 random dyadic systems at depth 10 reproduces the
    discrete principal-value transform of a smooth bump to relative
    residual <= 0.1, with monotone convergence along the checkpoints."""
    report = hilbert_demo()
    assert report["n_samples"] == 2000
    assert report["depth"] == 10
    assert report["final_residual"] <= 0.1
    assert report["residuals_nonincreasing"]
    assert report["accepted"]
    assert report["c_star"] != 0.0


def test_criterion_7_series_partial_sums():
    """The complexity series converges exactly when the decay exponent
    exceeds 1/2; its partial sums are asked to stabilize within 1e-6 by
    the 60th term in the delta = 3/4 regime."""
    for delta, expected in ((0.4, "divergent"), (0.5, "divergent"),
                            (0.6, "convergent"), (0.75, "convergent"),
                            (1.0, "convergent")):
        assert series_bound(delta, poly_degree=2, k_max=60)["verdict"] \
            == expected
    report = series_bound(0.75, poly_degree=2, k_max=60)
    # Measured run: the 60th term is 61^3 / 2^15 ~ 6.93, fourteen orders
    # of magnitude above the 1e-6 stabilization tolerance; the polynomial
    # factor dominates the geometric decay until k is in the hundreds.
    # Hard assert so the suite reports the measured state of that target.
    assert report["last_term"] <= 1e-6, (
        f"partial sums still move by {report['last_term']:.4g} at the "
        f"60th term; the series is convergent but stabilizes only for "
        f"much longer horizons (e.g. ~1e-23 movement by the 200th term "
        f"at delta = 1)")
