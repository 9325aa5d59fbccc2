"""Tests for step functions, Haar calculus and norms."""

import itertools
import math
import os
import sys
from fractions import Fraction

import numpy as np
import pytest

from dyadlab import signal
from dyadlab.dyadic import DyadicError, DyadicSystem, sample_system
from dyadlab.exact import Sqrt2Rational, sqrt2_pow
from dyadlab.signal import (SpaceSpec, StepFunction, haar_expand,
                            haar_reconstruct, pairing_integral,
                            pointwise_product, random_step_function)
from dyadlab.shifts import (apply_shift, paraproduct, paraproduct_adjoint,
                            random_extremal_shift, symmetrize)
from haar_oracle import average, haar_coeff, haar_profile, lp_norm

ROOT2 = sqrt2_pow(1)

FLOAT_TOL = 1e-12
N_HOLDER_PAIRS = 200


def exact_function(system, rows):
    vals = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            vals[i, j] = Fraction(v)
    return StepFunction(system, vals)


# -- SpaceSpec -----------------------------------------------------------


def test_spacespec_reference_constants():
    assert SpaceSpec(p=2.0).beta_ref == 1.0
    assert SpaceSpec(p=4.0).beta_ref == 3.0
    assert SpaceSpec(p=1.5).beta_ref == 2.0  # dual exponent dominates
    dual = SpaceSpec(p=4.0, q=2.0).dual()
    assert dual.p == pytest.approx(4.0 / 3.0)
    assert dual.q == pytest.approx(2.0)
    assert SpaceSpec(p=3.0, d=2).beta_ref is None


def test_spacespec_validation():
    for bad in (1.0, 0.5, math.inf):
        with pytest.raises(ValueError):
            SpaceSpec(p=bad)
    with pytest.raises(ValueError):
        SpaceSpec(p=2.0, q=1.0)
    with pytest.raises(ValueError):
        SpaceSpec(p=2.0, d=0)


# -- StepFunction construction ------------------------------------------


def test_stepfunction_shape_checks():
    sys_ = DyadicSystem(depth=2)
    f = StepFunction(sys_, [1.0, 2.0, 3.0, 4.0])
    assert f.values.shape == (4, 1)
    assert f.d == 1 and not f.exact
    with pytest.raises(DyadicError):
        StepFunction(sys_, [1.0, 2.0])
    with pytest.raises(DyadicError):
        StepFunction(sys_, np.zeros((4, 2, 2)))


def test_stepfunction_arithmetic_and_system_guard():
    sys_ = DyadicSystem(depth=2)
    other = DyadicSystem(depth=2, omega=(1, 0))
    f = StepFunction(sys_, [1.0, 2.0, 3.0, 4.0])
    g = StepFunction(sys_, [1.0, 1.0, 1.0, 1.0])
    assert (f + g - g) == f
    assert (2 * f).values[3, 0] == 8.0
    assert (-f).values[0, 0] == -1.0
    with pytest.raises(DyadicError):
        f + StepFunction(other, [0.0, 0.0, 0.0, 0.0])


# -- read-only values and the cached derived data ------------------------


def _interval_means(f, lev):
    """The per-interval :func:`average` of every interval of level ``lev``,
    as one row each: the reference for the engine's pyramid."""
    return np.array([average(f, f.system.interval(lev, i))
                     for i in range(2 ** lev)])


def _assert_level_matches(got, want, exact):
    assert got.dtype == want.dtype and got.shape == want.shape
    if exact:
        assert got.tolist() == want.tolist()
    else:
        assert np.abs(got - want).max() <= FLOAT_TOL
    with pytest.raises(ValueError):
        got[0, 0] = 0


@pytest.mark.parametrize("d, exact", [(1, True), (2, True), (1, False)])
def test_level_means_match_a_fresh_pyramid_and_are_built_once(d, exact):
    sys_ = sample_system(41, 5, M=-1)
    f = random_step_function(sys_, seed=(42, d), d=d, exact=exact)
    means = f.level_means
    assert len(means) == sys_.depth + 1
    for lev, got in enumerate(means):
        _assert_level_matches(got, _interval_means(f, lev), exact)
    assert f.level_means is means


@pytest.mark.parametrize("d, exact", [(1, True), (2, True), (1, False)])
def test_level_jumps_match_fresh_jumps_and_are_built_once(d, exact):
    sys_ = sample_system(43, 5, M=1)
    f = random_step_function(sys_, seed=(44, d), d=d, exact=exact)
    jumps = f.level_jumps
    assert len(jumps) == sys_.depth
    for lev, got in enumerate(jumps):
        finer = _interval_means(f, lev + 1)
        _assert_level_matches(got, finer[0::2] - finer[1::2], exact)
    assert f.level_jumps is jumps


@pytest.mark.parametrize("exact", [True, False])
def test_values_are_read_only_and_the_input_stays_writable(exact):
    sys_ = DyadicSystem(depth=2)
    vals = np.array([[1], [2], [3], [4]], dtype=object if exact else float)
    f = StepFunction(sys_, vals)
    with pytest.raises(ValueError):
        f.values[0, 0] = 5
    assert vals.flags.writeable
    assert f.values.tolist() == [[1], [2], [3], [4]]


def test_as_float_is_bit_identical_and_built_once():
    sys_ = DyadicSystem(depth=2)
    vals = np.array([Fraction(1, 3), ROOT2 / 3, -ROOT2 * Fraction(5, 7) + 1,
                     Fraction(-2, 9)], dtype=object)
    f = StepFunction(sys_, vals)
    ff = f.as_float()
    assert not ff.exact
    assert ff.values.tobytes() == np.array([[float(v)] for v in vals]).tobytes()
    assert f.as_float() is ff and ff.as_float() is ff


def _leaves(values):
    out = np.empty((len(values), 1), dtype=object)
    out[:, 0] = values
    return out


AS_FLOAT_LEAVES = {
    "eighths": [Fraction(k, 8) for k in (-32, -7, -1, 0, 1, 5, 13, 32)],
    "thirds": [Fraction(k, 3) for k in (-10, -4, -1, 0, 1, 2, 7, 11)],
    "sqrt2": [Sqrt2Rational(Fraction(a, 3), Fraction(b, 5))
              for a, b in ((1, 1), (-2, 7), (0, -3), (5, 0), (-1, -1),
                           (4, 2), (7, -9), (0, 0))],
    "huge": [Fraction(2 ** 1000, 3) * k for k in (-3, -1, 1, 2, 5, 0, 1, -2)],
    "tiny": [Fraction(k, 2 ** 1100) for k in (-3, -1, 1, 2, 5, 0, 1, -2)],
}


@pytest.mark.parametrize("case", sorted(AS_FLOAT_LEAVES))
def test_as_float_bytes_equal_the_values_as_floats(case):
    """``as_float`` reads the float copy from the integer form; its bytes
    are those of ``values.astype(float)``, for functions built from values
    and for Haar operator outputs, whose values are never read first."""
    sys_ = sample_system(63, 3, M=1)
    f = StepFunction(sys_, _leaves(AS_FLOAT_LEAVES[case]))
    g = random_step_function(sys_, seed=64, exact=True)
    shift = random_extremal_shift(sys_, 0, 1, seed=65)
    outputs = [apply_shift(shift, f), paraproduct(g, f),
               paraproduct_adjoint(f, g), f - g]
    for h in [f, g] + outputs:
        got = h.as_float().values.tobytes()
        assert got == h.values.astype(float).tobytes()


def _fraction_calls(fn):
    """Names of the calls into ``fractions.py`` made while ``fn`` runs."""
    calls = []

    def profile(frame, event, arg):
        if (event == "call" and os.path.basename(frame.f_code.co_filename)
                == "fractions.py"):
            calls.append(frame.f_code.co_name)

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(old)
    return calls


def test_warm_float_haar_ops_make_no_fraction_calls():
    """Float forms hold the scale (1, 1) and never compute one: once a
    shift's plan and the sqrt(2) powers are built, the float Haar operators
    on new functions make no call into ``fractions.py``."""
    sys_ = sample_system(66, 6, M=-1)
    rng = np.random.default_rng(67)
    f_vals, phi_vals = rng.uniform(-4, 4, size=(64, 2)), rng.uniform(-4, 4, 64)
    shift = symmetrize(random_extremal_shift(sys_, 1, 2, seed=68))
    mean, levels = haar_expand(StepFunction(sys_, f_vals))
    ops = {
        "apply_shift": lambda f, phi: apply_shift(shift, f),
        "paraproduct": lambda f, phi: paraproduct(phi, f),
        "paraproduct_adjoint": lambda f, phi: paraproduct_adjoint(phi, f),
        "haar_expand": lambda f, phi: haar_expand(f),
        "haar_reconstruct": lambda f, phi: haar_reconstruct(sys_, mean,
                                                            levels).values,
    }
    for name, op in ops.items():
        op(StepFunction(sys_, f_vals), StepFunction(sys_, phi_vals))  # warm
        f, phi = StepFunction(sys_, f_vals), StepFunction(sys_, phi_vals)
        assert _fraction_calls(lambda: op(f, phi)) == [], name


# -- Haar calculus: frozen values ---------------------------------------


def test_frozen_haar_coefficients():
    """Hand-computed expansion of (1, 2, 3, 4) on the unit window."""
    sys_ = DyadicSystem(depth=2)  # M = 0
    f = exact_function(sys_, [[1], [2], [3], [4]])
    mean, levels = haar_expand(f)
    assert mean[0] == Fraction(5, 2)
    assert [level.shape for level in levels] == [(1, 1), (2, 1)]
    # root: sqrt(|I|)/2 * (avg_left - avg_right) = (1/2)(3/2 - 7/2) = -1
    assert levels[0][0, 0] == -1
    # level-1 intervals have length 1/2: scale sqrt(1/2)/2 = sqrt(2)/4
    assert levels[1][0, 0] == -ROOT2 / 4
    assert levels[1][1, 0] == -ROOT2 / 4
    rebuilt = haar_reconstruct(sys_, mean, levels)
    assert rebuilt == f


def test_haar_profile_orthonormality():
    sys_ = DyadicSystem(M=1, depth=3)
    ivs = sys_.nonleaf_intervals()
    profs = [StepFunction(sys_, haar_profile(sys_, iv, exact=True))
             for iv in ivs]
    for i, pi in enumerate(profs):
        for j, pj in enumerate(profs):
            expected = 1 if i == j else 0
            assert pairing_integral(pi, pj) == expected


def test_haar_coeff_is_profile_pairing():
    sys_ = sample_system(9, depth=3, M=1)
    f = random_step_function(sys_, seed=5, exact=True)
    for iv in sys_.nonleaf_intervals():
        prof = StepFunction(sys_, haar_profile(sys_, iv, exact=True))
        assert haar_coeff(f, iv)[0] == pairing_integral(f, prof)


def test_roundtrip_exact_vector_valued():
    sys_ = sample_system(2, depth=4, M=-1)
    f = random_step_function(sys_, seed=3, d=2, exact=True)
    mean, levels = haar_expand(f)
    assert haar_reconstruct(sys_, mean, levels) == f


def test_roundtrip_float():
    sys_ = sample_system(4, depth=5)
    f = random_step_function(sys_, seed=6, d=3)
    mean, levels = haar_expand(f)
    back = haar_reconstruct(sys_, mean, levels)
    assert np.abs(back.values - f.values).max() < FLOAT_TOL


def test_reconstruct_refuses_wrong_levels():
    sys_ = DyadicSystem(depth=2)
    f = random_step_function(sys_, seed=0, d=2)
    mean, levels = haar_expand(f)
    # a wrong level count
    for given in (levels[:1], levels + [np.zeros((4, 2))]):
        with pytest.raises(DyadicError, match="coefficient levels"):
            haar_reconstruct(sys_, mean, given)
    # a wrong level shape, or a mean of another width
    for level in (np.zeros((1, 2)), np.zeros((2, 1)), np.zeros(4),
                  np.zeros((2, 2, 1))):
        with pytest.raises(DyadicError, match="coefficient levels"):
            haar_reconstruct(sys_, mean, [levels[0], level])
    with pytest.raises(DyadicError, match="coefficient levels"):
        haar_reconstruct(sys_, mean[:1], levels)


def test_reconstruct_is_exact_only_on_exact_inputs():
    sys_ = sample_system(8, depth=3, M=1)
    f = random_step_function(sys_, seed=9, d=2, exact=True)
    mean, levels = haar_expand(f)
    back = haar_reconstruct(sys_, mean, levels)
    assert back.exact and back == f
    floats = [mean.astype(float)] + [level.astype(float) for level in levels]
    want = haar_reconstruct(sys_, floats[0], floats[1:])
    assert not want.exact
    assert np.abs(want.values - f.as_float().values).max() <= FLOAT_TOL
    # one float input, the mean or a level, makes the whole result float
    for pos in range(len(floats)):
        given = [mean] + levels
        given[pos] = floats[pos]
        out = haar_reconstruct(sys_, given[0], given[1:])
        assert not out.exact
        assert out.values.tobytes() == want.values.tobytes()


def test_parseval_pairing_exact():
    sys_ = sample_system(11, depth=4)
    f = random_step_function(sys_, seed=21, exact=True)
    g = random_step_function(sys_, seed=22, exact=True)
    mean_f, cf = haar_expand(f)
    mean_g, cg = haar_expand(g)
    rhs = sys_.window_length * mean_f[0] * mean_g[0]
    for level_f, level_g in zip(cf, cg):
        for c_f, c_g in zip(level_f[:, 0], level_g[:, 0]):
            rhs = rhs + c_f * c_g
    assert pairing_integral(f, g) == rhs


# -- norms ---------------------------------------------------------------


def test_lp_norm_frozen_values():
    sys_ = DyadicSystem(depth=3)  # unit window
    ones = StepFunction(sys_, np.ones(8))
    for p in (1.5, 2.0, 4.0):
        assert lp_norm(ones, SpaceSpec(p=p)) == pytest.approx(1.0)
    alt = StepFunction(sys_, [1.0, -1.0] * 4)
    assert lp_norm(alt, SpaceSpec(p=3.0)) == pytest.approx(1.0)
    vec = StepFunction(sys_, np.tile([3.0, 4.0], (8, 1)))
    assert lp_norm(vec, SpaceSpec(p=2.0, q=2.0, d=2)) == pytest.approx(5.0)
    # window of length 2: constant 1 has norm 2**(1/p)
    wide = StepFunction(DyadicSystem(M=1, depth=2), np.ones(4))
    assert lp_norm(wide, SpaceSpec(p=4.0)) == pytest.approx(2.0 ** 0.25)


def test_pairing_holder_inequality():
    rng = np.random.default_rng(77)
    for case in range(N_HOLDER_PAIRS):
        depth = int(rng.integers(1, 5))
        M = int(rng.integers(-1, 3))
        sys_ = sample_system((88, case), depth, M=M)
        d = int(rng.integers(1, 4))
        f = random_step_function(sys_, seed=(1, case), d=d)
        g = random_step_function(sys_, seed=(2, case), d=d)
        p = float(rng.choice([1.5, 2.0, 3.0, 4.0]))
        space = SpaceSpec(p=p, q=2.0, d=d)
        bound = lp_norm(f, space) * lp_norm(g, space.dual())
        assert abs(pairing_integral(f, g)) <= bound * (1.0 + 1e-9) + 1e-12


def test_pairing_requires_matching_layout():
    sys_ = DyadicSystem(depth=1)
    f = random_step_function(sys_, seed=0, d=1)
    g = random_step_function(sys_, seed=0, d=2)
    with pytest.raises(DyadicError):
        pairing_integral(f, g)
    h = random_step_function(DyadicSystem(depth=1, omega=(1,)), seed=0)
    with pytest.raises(DyadicError):
        pairing_integral(f, h)


def test_pointwise_product_scalar_guard():
    sys_ = DyadicSystem(depth=1)
    phi = random_step_function(sys_, seed=1, d=2)
    f = random_step_function(sys_, seed=2, d=2)
    with pytest.raises(DyadicError):
        pointwise_product(phi, f)
    scalar = random_step_function(sys_, seed=3, d=1, exact=True)
    g = random_step_function(sys_, seed=4, d=2, exact=True)
    prod = pointwise_product(scalar, g)
    assert prod.values[0, 1] == scalar.values[0, 0] * g.values[0, 1]



# -- the integer form of exact values ------------------------------------


def _loop_random_step_function(system, seed, d):
    """The per-entry construction kept as the reference."""
    rng = np.random.default_rng(seed)
    nums = rng.integers(-32, 33, size=(system.n_leaves, d))
    vals = np.empty((system.n_leaves, d), dtype=object)
    for i in range(system.n_leaves):
        for j in range(d):
            vals[i, j] = Fraction(int(nums[i, j]), 8)
    return vals


@pytest.mark.parametrize("depth, d", [(1, 1), (4, 2), (7, 3)])
def test_exact_random_step_function_matches_the_entry_loop(depth, d):
    sys_ = sample_system((51, depth), depth)
    f = random_step_function(sys_, seed=(52, depth, d), d=d, exact=True)
    want = _loop_random_step_function(sys_, (52, depth, d), d)
    assert f.values.shape == want.shape
    assert f.values.tolist() == want.tolist()
    assert all(type(v) is Fraction and type(v.numerator) is int
               and type(v.denominator) is int for v in f.values.ravel())
    # the float draws are untouched by the exact branch
    g = random_step_function(sys_, seed=(52, depth, d), d=d)
    rng = np.random.default_rng((52, depth, d))
    assert g.values.tobytes() == rng.uniform(
        -4, 4, size=(sys_.n_leaves, d)).tobytes()


def test_random_step_function_caps_its_leaf_entries(monkeypatch):
    # a depth-40 window would need 8 TiB of draws: refused before drawing
    with pytest.raises(DyadicError, match="leaf entries"):
        random_step_function(DyadicSystem(depth=40), seed=0)
    monkeypatch.setattr(signal, "_MAX_LEAF_ENTRIES", 8)
    sys_ = DyadicSystem(depth=3)
    assert random_step_function(sys_, seed=0, d=1, exact=True).d == 1
    for exact in (True, False):
        with pytest.raises(DyadicError, match="leaf entries"):
            random_step_function(sys_, seed=0, d=2, exact=exact)


def _mixed_function(system, seed, d):
    """Exact leaves mixing ints, Fractions and Sqrt2Rationals."""
    rng = np.random.default_rng(seed)
    pick = [0, Fraction(3, 7), Sqrt2Rational(Fraction(1, 3), -2), 5,
            Sqrt2Rational(0, Fraction(1, 6)), Fraction(-9, 4)]
    vals = np.empty((system.n_leaves, d), dtype=object)
    vals[:] = [[pick[k] for k in row]
               for row in rng.integers(0, len(pick),
                                       size=(system.n_leaves, d)).tolist()]
    return StepFunction(system, vals)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_exact_pairing_matches_the_entry_loop(d):
    sys_ = sample_system(53, 4, M=1)
    for f, g in [(_mixed_function(sys_, (54, d), d),
                  _mixed_function(sys_, (55, d), d)),
                 (random_step_function(sys_, seed=56, d=d, exact=True),
                  random_step_function(sys_, seed=57, d=d, exact=True))]:
        total = 0
        for row_f, row_g in zip(f.values, g.values):
            for a, b in zip(row_f, row_g):
                total = total + a * b
        assert pairing_integral(f, g) == total * Fraction(2) ** (1 - 4)


def test_exact_function_arithmetic_matches_the_values():
    sys_ = sample_system(58, 3)
    f, g = _mixed_function(sys_, 59, 2), _mixed_function(sys_, 60, 2)
    phi = _mixed_function(sys_, 61, 1)
    assert (f + g).values.tolist() == (f.values + g.values).tolist()
    assert (f - g).values.tolist() == (f.values - g.values).tolist()
    assert (-f).values.tolist() == (-f.values).tolist()
    assert pointwise_product(phi, f).values.tolist() == \
        (phi.values * f.values).tolist()
    assert f - g + g == f and f + f != f
    assert f != StepFunction(sys_, f.values[:, :1])
    same = StepFunction(sys_, np.array([[float(v) for v in row]
                                        for row in f.values]))
    assert (f.as_float() == same) and not f.as_float() == f + f


def test_mixed_mode_arithmetic_gives_float_functions():
    sys_ = sample_system(62, 4)
    f = random_step_function(sys_, 1, exact=True)
    g = random_step_function(sys_, 2)
    floats = f.values.astype(float)
    shift = random_extremal_shift(sys_, 0, 1, seed=3)
    for h, expected in ((f + g, floats + g.values), (f * 0.5, floats * 0.5),
                        (f + 1.5, floats + 1.5)):
        assert not h.exact and h.values.dtype == float
        assert np.array_equal(h.values, expected)
        haar_expand(h)
        apply_shift(shift, h)
    assert (f + 1).exact and (f * Fraction(1, 3)).exact


def test_exact_values_reject_floats():
    sys_ = DyadicSystem(depth=1)
    f = StepFunction(sys_, np.array([[Fraction(1, 2)], [0.5]], dtype=object))
    with pytest.raises(TypeError, match="Q\\(sqrt\\(2\\)\\)"):
        f.level_jumps


def test_float_level_means_are_pairwise_means_at_any_magnitude():
    """Float means are the pairwise means of the values themselves, bit for
    bit, from subnormal leaves to leaves whose sums overflow; inf and nan
    leaves give the means they always gave; and the paraproducts of leaves
    near sqrt(float max) / 2**depth stay finite (their terms are products of
    means and jumps, not of sums)."""
    rng = np.random.default_rng(62)
    for magnitude, depth in itertools.product([1e-310, 1e153, 1.7e308],
                                              [2, 6]):
        leaves = magnitude * rng.choice([-1.0, 1.0], size=(2 ** depth, 2))
        leaves *= rng.uniform(0.5, 1.0, size=leaves.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            want = [leaves]
            for _ in range(depth):
                v = want[-1]
                want.append((v[0::2] + v[1::2]) / 2)
            got = StepFunction(DyadicSystem(depth=depth), leaves).level_means
        assert [m.tobytes() for m in got] == \
            [m.tobytes() for m in want[::-1]]

    odd = StepFunction(DyadicSystem(depth=2),
                       np.array([np.inf, 1.0, np.nan, -np.inf]))
    with np.errstate(invalid="ignore"):
        means = odd.level_means
    assert means[1][0, 0] == np.inf and np.isnan(means[1][1, 0])
    assert np.isnan(means[0][0, 0])

    sys_ = DyadicSystem(depth=6)
    phi = StepFunction(sys_, 1e153 * rng.uniform(-1.0, 1.0, size=64))
    f = StepFunction(sys_, 1e153 * rng.uniform(-1.0, 1.0, size=64))
    with np.errstate(over="raise", invalid="raise"):
        for out in (paraproduct(phi, f), paraproduct_adjoint(phi, f)):
            assert np.isfinite(out.values).all()
