"""Tests for martingale state trees, reweighting and the grid DP oracle."""

import copy
import hashlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dyadlab import bellman
from dyadlab.bellman import (BellmanConfig, BellmanTable, bellman_oracle,
                             concavity_gain_check, lemma51_verify,
                             modified_points, range_check,
                             tree_from_functions)
from dyadlab.dyadic import DyadicError, DyadicSystem, sample_system
from dyadlab.exact import Sqrt2Rational
from dyadlab.schur import (AlphaSequence, _project_balanced_box,
                           find_alpha, lambda_matrix)
from dyadlab.signal import SpaceSpec, StepFunction, random_step_function

ROOT2_OVER_16 = math.sqrt(2.0) / 16.0
FLOAT_TOL = 1e-12


def exact_pair(seed, depth, M=0):
    system = sample_system((seed, 0), depth, M=M)
    f = random_step_function(system, seed=(seed, 1), exact=True)
    g = random_step_function(system, seed=(seed, 2), exact=True)
    return f, g


def exact_constant(system, value):
    return StepFunction(system, np.full((system.n_leaves, 1), value,
                                        dtype=object))


def dynamics_gap(tree):
    """Largest deviation of any parent state from the mean of its
    children, read from the public levels; zero for exactly constructed
    trees."""
    worst = 0.0
    for levels in (tree.f, tree.F, tree.g, tree.G):
        for parent, below in zip(levels, levels[1:]):
            dev = parent - (below[0::2] + below[1::2]) / 2
            worst = max(worst, float(np.abs(dev).max()))
    return worst


def domain_margin(tree):
    """Smallest margin ``F - |f|^p`` (and dual) over all nodes, as a float;
    nonnegative by the power-mean inequality."""
    s = tree.space
    worst = math.inf
    for f, F, g, G in zip(tree.f, tree.F, tree.g, tree.G):
        for x, X, p, q in ((f, F, s.p, s.q), (g, G, s.p_dual, s.q_dual)):
            powers = (np.abs(x.astype(float)) ** q).sum(axis=1) ** (p / q)
            worst = min(worst, float((X.astype(float) - powers).min()))
    return worst


# -- state trees ---------------------------------------------------------


def test_tree_exact_at_p2():
    f, g = exact_pair(1, depth=3)
    tree = tree_from_functions(f, g, SpaceSpec(p=2.0))
    assert tree.exact
    assert tree.depth == 3
    assert [len(x[3]) for x in (tree.f, tree.F, tree.g, tree.G)] == [8] * 4
    assert dynamics_gap(tree) == 0.0
    assert domain_margin(tree) >= -FLOAT_TOL
    mean = sum(f.values[:, 0], Fraction(0)) / 8
    assert tree.f[0][0, 0] == mean
    power_mean = sum(v * v for v in f.values[:, 0]) / 8
    assert tree.F[0][0] == power_mean


def test_tree_float_mode_for_general_exponent():
    f, g = exact_pair(2, depth=4)
    tree = tree_from_functions(f, g, SpaceSpec(p=4.0))
    assert not tree.exact
    assert dynamics_gap(tree) <= 1e-12
    assert domain_margin(tree) >= -1e-12


def test_tree_rejects_mismatched_inputs():
    sys_a = DyadicSystem(depth=2)
    sys_b = DyadicSystem(depth=2, omega=(1, 0))
    f = random_step_function(sys_a, seed=1)
    g = random_step_function(sys_b, seed=2)
    with pytest.raises(DyadicError):
        tree_from_functions(f, g, SpaceSpec(p=2.0))
    h = random_step_function(sys_a, seed=3, d=2)
    with pytest.raises(DyadicError):
        tree_from_functions(f, h, SpaceSpec(p=2.0))


# -- reweighting ---------------------------------------------------------


def quarter_alpha(k):
    vals = np.empty(2 ** k, dtype=object)
    for i in range(2 ** k):
        vals[i] = Fraction(1, 4) if i % 2 == 0 else Fraction(-1, 4)
    return AlphaSequence(vals)


def test_modified_points_exact_invariants():
    f, g = exact_pair(3, depth=3)
    tree = tree_from_functions(f, g, SpaceSpec(p=2.0))
    for k in (1, 2, 3):
        out = modified_points(tree, quarter_alpha(k), k=k)
        assert out["identity_exact"]
        assert out["product_exact"]
        assert out["identity_error"] == 0.0
        assert out["product_max_error"] == 0.0
        assert out["theta_in_design_range"]
        assert out["theta_in_asserted_range"]
        assert 0.375 - 1e-12 <= out["theta_min"] <= out["theta_max"] \
            <= 0.625 + 1e-12


def test_modified_points_against_direct_reweighting():
    """Independent recomputation of the plus state from raw cell states."""
    f, g = exact_pair(4, depth=2)
    tree = tree_from_functions(f, g, SpaceSpec(p=2.0))
    k = 2
    alpha = quarter_alpha(k)
    out = modified_points(tree, alpha, k=k)
    f, F, g, G = tree.f[k][:, 0], tree.F[k], tree.g[k][:, 0], tree.G[k]
    weights = [(1 + a) / Fraction(4) for a in alpha.values]
    assert sum(weights) == 1
    for tag, sign in (("plus", 1), ("minus", -1)):
        w = [(1 + sign * a) / Fraction(4) for a in alpha.values]
        (got_f,), got_F, (got_g,), got_G = out[tag]
        assert got_f == sum(wi * x for wi, x in zip(w, f))
        assert got_F == sum(wi * x for wi, x in zip(w, F))
        assert got_g == sum(wi * x for wi, x in zip(w, g))
        assert got_G == sum(wi * x for wi, x in zip(w, G))


def test_modified_points_pairing_matches_quadratic_form():
    f, g = exact_pair(5, depth=3)
    tree = tree_from_functions(f, g, SpaceSpec(p=2.0))
    k = 2
    lam = lambda_matrix(tree, k)
    alpha = quarter_alpha(k)
    out = modified_points(tree, alpha, k=k, lam=lam)
    quad = sum(alpha.values[i] * lam.values[i, j] * alpha.values[j]
               for i in range(4) for j in range(4))
    (plus_f,), _, (plus_g,), _ = out["plus"]
    lhs = (plus_f - tree.f[0][0, 0]) * (plus_g - tree.g[0][0, 0])
    assert lhs == quad / 2
    assert out["pairing_value"] == pytest.approx(float(quad) / 2.0)


def test_modified_points_length_guard():
    f, g = exact_pair(6, depth=2)
    tree = tree_from_functions(f, g, SpaceSpec(p=2.0))
    with pytest.raises(DyadicError):
        modified_points(tree, np.array([0.25, 0.0, -0.25]))


# -- per-node references for the level-array tree ----------------------


def reference_tree(f, g, space):
    """Node-by-node tree states, root level first: per-leaf powers, then
    every parent as the mean of its two children."""
    if f.exact and g.exact and space.p == 2.0 and space.q == 2.0:
        f_rows = [tuple(r) for r in f.values]
        g_rows = [tuple(r) for r in g.values]
        F_leaf = [sum(c * c for c in r) for r in f_rows]
        G_leaf = [sum(c * c for c in r) for r in g_rows]
    else:
        p, q, pd, qd = space.p, space.q, space.p_dual, space.q_dual
        af, ag = f.as_float().values, g.as_float().values
        f_rows = [tuple(float(c) for c in r) for r in af]
        g_rows = [tuple(float(c) for c in r) for r in ag]
        F_leaf = [float(np.sum(np.abs(r) ** q) ** (p / q)) for r in af]
        G_leaf = [float(np.sum(np.abs(r) ** qd) ** (pd / qd)) for r in ag]

    def mean(a, b):
        return (tuple((x + y) / 2 for x, y in zip(a[0], b[0])),
                (a[1] + b[1]) / 2,
                tuple((x + y) / 2 for x, y in zip(a[2], b[2])),
                (a[3] + b[3]) / 2)

    levels = [list(zip(f_rows, F_leaf, g_rows, G_leaf))]
    while len(levels[0]) > 1:
        row = levels[0]
        levels.insert(0, [mean(row[i], row[i + 1])
                          for i in range(0, len(row), 2)])
    return levels


def reference_lambda(levels, k, exact):
    """Interaction matrix entry by entry (exact) or from stacked increments
    (float)."""
    root, pts, n = levels[0][0], levels[k], 2 ** k
    xs = [[(a - b) / n for a, b in zip(pt[0], root[0])] for pt in pts]
    ys = [[(a - b) / n for a, b in zip(pt[2], root[2])] for pt in pts]
    if not exact:
        A = np.array(xs) @ np.array(ys).T
        return A + A.T
    vals = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            vals[i, j] = (sum(a * b for a, b in zip(xs[i], ys[j]))
                          + sum(a * b for a, b in zip(xs[j], ys[i])))
    return vals


def reference_modified(levels, lam, values, k, exact):
    """Cell-by-cell reweighting, split ratios, path products and pairing."""
    pts, root, n = levels[k], levels[0][0], 2 ** k
    one = Fraction(1) if exact else 1.0
    rhs = sum(values[i] * lam[i, j] * values[j]
              for i in range(n) for j in range(n)) / 2
    out = {"pairing_value": float(rhs)}
    thetas, prod_err, prod_ok, id_err, id_ok = [], 0.0, True, 0.0, True
    for sign, tag in ((1, "plus"), (-1, "minus")):
        w = [(one + sign * v) / n for v in values]
        state = tuple(
            tuple(sum(wi * pt[c][i] for wi, pt in zip(w, pts))
                  for i in range(len(root[c]))) if c in (0, 2)
            else sum(wi * pt[c] for wi, pt in zip(w, pts))
            for c in range(4))
        out[tag] = state
        masses = [w]
        while len(masses[0]) > 1:
            row = masses[0]
            masses.insert(0, [row[2 * i] + row[2 * i + 1]
                              for i in range(len(row) // 2)])
        for t in range(k):
            thetas += [float(masses[t + 1][2 * i] / total)
                       for i, total in enumerate(masses[t])]
        for j in range(n):
            prod = one
            for t in range(k):
                prod = prod * (masses[t + 1][j >> (k - t - 1)]
                               / masses[t][j >> (k - t)])
            prod_ok = prod_ok and prod == w[j]
            prod_err = max(prod_err, abs(float(prod - w[j])))
        lhs = sum((a - b) * (c - e) for a, b, c, e in
                  zip(state[0], root[0], state[2], root[2]))
        id_ok = id_ok and lhs == rhs
        id_err = max(id_err, abs(float(lhs - rhs)))
    out.update(theta_min=min(thetas), theta_max=max(thetas),
               product_max_error=prod_err, product_exact=exact and prod_ok,
               identity_error=id_err, identity_exact=exact and id_ok)
    return out


def exact_balanced_alpha(rng, n):
    mags = [Fraction(int(rng.integers(0, 9)), 32) for _ in range(n // 2)]
    vals = np.array([s * m for m in mags for s in (1, -1)], dtype=object)
    rng.shuffle(vals)
    return AlphaSequence(vals)


@pytest.mark.parametrize("mode", ["exact", "p4", "p1.5", "float-inputs"])
def test_tree_lambda_and_modulation_match_per_node_reference(mode):
    """Level-array trees, interaction matrices and reweighting reports
    against node-by-node loops: equal in exact mode; in float mode the means
    and the matrices are byte-equal, while the power coordinates (array
    against scalar power) and the modified states (summation order) agree
    to rounding."""
    p = {"p4": 4.0, "p1.5": 1.5}.get(mode, 2.0)
    for depth, M, d in itertools.product(range(1, 7), (-1, 0, 1), (1, 2)):
        system = sample_system((depth, M + 1, d), depth, M=M)
        f, g = (random_step_function(system, seed=(depth, M + 1, d, s), d=d,
                                     exact=mode != "float-inputs")
                for s in (1, 2))
        space = SpaceSpec(p=p, d=d)
        tree = tree_from_functions(f, g, space)
        ref = reference_tree(f, g, space)
        exact = mode == "exact"
        assert tree.exact == exact and tree.depth == depth
        for k, level in enumerate(ref):
            want = [np.array(col, dtype=tree.F[k].dtype)
                    for col in zip(*level)]
            got = (tree.f[k], tree.F[k], tree.g[k], tree.G[k])
            if exact:
                assert all((a == b).all() for a, b in zip(got, want)), k
            else:
                assert got[0].tobytes() == want[0].tobytes(), k
                assert got[2].tobytes() == want[2].tobytes(), k
                np.testing.assert_allclose(got[1], want[1], rtol=1e-15)
                np.testing.assert_allclose(got[3], want[3], rtol=1e-15)
        for k in range(1, min(depth, 3) + 1):
            lam = lambda_matrix(tree, k)
            ref_lam = reference_lambda(ref, k, exact)
            if exact:
                assert lam.exact and (lam.values == ref_lam).all()
            else:
                assert lam.values.tobytes() == ref_lam.tobytes()
            rng = np.random.default_rng((depth, M + 1, d, k))
            alpha = (exact_balanced_alpha(rng, 2 ** k) if exact else
                     AlphaSequence(_project_balanced_box(
                         rng.uniform(-0.3, 0.3, 2 ** k))))
            out = modified_points(tree, alpha, k=k, lam=lam)
            want = reference_modified(ref, ref_lam, alpha.values, k, exact)
            for tag in ("plus", "minus"):
                got = out[tag]
                if exact:
                    assert got == want[tag], (k, tag)
                    continue
                flat_got = np.array([*got[0], got[1], *got[2], got[3]])
                flat_want = np.array([*want[tag][0], want[tag][1],
                                      *want[tag][2], want[tag][3]])
                scale = np.abs(flat_want).max()
                assert np.abs(flat_got - flat_want).max() <= 1e-14 * scale
            same = ["theta_min", "theta_max", "product_max_error",
                    "product_exact", "identity_exact"]
            if exact:
                same += ["identity_error", "pairing_value"]
            else:
                a = np.abs(alpha.values)
                tol = 1e-14 * max(1.0, float(a @ np.abs(ref_lam) @ a))
                for key in ("identity_error", "pairing_value"):
                    assert abs(out[key] - want[key]) <= tol, key
            assert {s: out[s] for s in same} == {s: want[s] for s in same}


# -- grid oracle: configuration and guards -------------------------------


def test_config_validation():
    with pytest.raises(DyadicError):
        BellmanConfig(p=1.0)
    with pytest.raises(DyadicError):
        BellmanConfig(f_max=0.0)
    with pytest.raises(DyadicError):
        BellmanConfig(n_f=16)  # must be odd
    with pytest.raises(DyadicError):
        BellmanConfig(n_f=1)
    with pytest.raises(DyadicError):
        BellmanConfig(n_F=1)
    with pytest.raises(DyadicError):
        BellmanConfig(n_f=67)  # above the axis cap
    assert BellmanConfig(p=4.0).p_dual == pytest.approx(4.0 / 3.0)


def test_config_refuses_a_negative_max_offset():
    with pytest.raises(DyadicError, match="max_offset"):
        BellmanConfig(n_f=5, n_F=5, n_g=5, n_G=5, max_offset=-1)
    # offset 0 allows no split: every layer keeps layer 0, zero on the domain
    table = BellmanTable(BellmanConfig(n_f=5, n_F=5, n_g=5, n_G=5,
                                       max_offset=0))
    assert np.array_equal(np.unique(table.layer(0)), [-np.inf, 0.0])
    for t in (1, 2, 3):
        assert np.array_equal(table.layer(t), table.layer(0))


def test_config_refuses_values_outside_the_float_range():
    """|f|^p overflows; 4 * depth * f_max * g_max overflows; the unit of a
    deep layer falls below the normal range."""
    for kwargs in (dict(f_max=1e200, F_max=1e300, g_max=1.0),
                   dict(p=1.5, f_max=1e205, g_max=1e102, F_max=1e308,
                        G_max=1e308),
                   dict(f_max=1e-200, g_max=1e-200, F_max=1e-300,
                        G_max=1e-300)):
        with pytest.raises(DyadicError, match="normal float range"):
            BellmanConfig(**kwargs)
    BellmanConfig(f_max=1e-150, g_max=1e-150, F_max=1e-300, G_max=1e-300)


def test_layer_ops_guard():
    big = BellmanConfig(n_f=65, n_F=65, n_g=65, n_G=65)
    with pytest.raises(DyadicError):
        BellmanTable(big)
    capped = BellmanConfig(n_f=65, n_F=65, n_g=65, n_G=65, max_offset=1)
    BellmanTable(capped)  # fits under the per-layer candidate budget
    # 7.8e8 feasible candidate pairs per layer, under the budget; counting
    # every 4-D offset (9.6e9) used to refuse it
    BellmanTable(BellmanConfig(n_f=25, n_F=25, n_g=25, n_G=25))


# tracemalloc peak of the 65-point refusal when every split was extracted
# before the pair cap was checked
EXTRACT_FIRST_REFUSAL_PEAK_MIB = 25.8


def test_refused_grid_extracts_no_splits():
    """The pair cap reads both planes' counts before any split array is
    extracted, so the 65-point refusal holds only the two planes' split
    masks (14.8 MiB)."""
    tracemalloc.start()
    try:
        with pytest.raises(DyadicError, match="candidate pairs per layer"):
            BellmanTable(BellmanConfig(n_f=65, n_F=65, n_g=65, n_G=65))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20 < EXTRACT_FIRST_REFUSAL_PEAK_MIB * 2 ** 20


def test_table_depth_cap():
    table = BellmanTable(BellmanConfig(n_f=5, n_F=5, n_g=5, n_G=5))
    with pytest.raises(DyadicError):
        table.layer(7)
    with pytest.raises(DyadicError):
        table.layer(-1)


def test_oracle_cache_shares_one_table_per_config():
    cfg = BellmanConfig(n_f=5, n_F=5, n_g=5, n_G=5)
    a = bellman_oracle(cfg, depth=1)
    b = bellman_oracle(cfg, depth=2)
    assert a is b
    assert b.depth >= 2


def test_oracle_cache_keeps_most_recent_configs(monkeypatch):
    monkeypatch.setattr(bellman, "_TABLE_CACHE", {})
    size = bellman._TABLE_CACHE_SIZE
    cfgs = [BellmanConfig(n_f=3, n_F=2, n_g=3, n_G=2, f_max=1.0 + i)
            for i in range(size + 1)]
    tables = [bellman_oracle(cfg) for cfg in cfgs[:size]]
    assert bellman_oracle(cfgs[0]) is tables[0]  # a hit makes it most recent
    bellman_oracle(cfgs[size])  # evicts cfgs[1], now the least recent
    assert list(bellman._TABLE_CACHE) == [*cfgs[2:size], cfgs[0], cfgs[size]]
    assert bellman_oracle(cfgs[0]) is tables[0]
    assert bellman_oracle(cfgs[1]) is not tables[1]  # rebuilt


# -- grid oracle: the DP against a reference loop -----------------------


def reference_layer(B, t, max_offset):
    """Offset-by-offset DP step in integer units, ``N_t -> N_{t+1}``: every
    symmetric split of the full 4-D grid, one offset ``j ~ -j`` at a time,
    feasible or not.  ``B`` holds ``N_t`` as floats, ``-inf`` off the
    domain; its values are small integers, so every sum is exact."""
    out = 2 * B
    half = [(n - 1) // 2 for n in B.shape]
    if max_offset is not None:
        half = [min(h, max_offset) for h in half]
    for j in itertools.product(*[range(-h, h + 1) for h in half]):
        first = next((x for x in j if x != 0), 0)
        if first <= 0:
            continue
        cs, ps, ms = [], [], []
        for n, ja in zip(B.shape, j):
            a = abs(ja)
            cs.append(slice(a, n - a))
            ps.append(slice(a + ja, n - a + ja))
            ms.append(slice(a - ja, n - a - ja))
        cand = B[tuple(ps)] + B[tuple(ms)]
        gain = abs(j[0] * j[2]) << t
        if gain:
            cand += gain
        view = out[tuple(cs)]
        np.maximum(view, cand, out=view)
    return out


REFERENCE_CONFIGS = [
    dict(n_f=9, n_F=9, n_g=9, n_G=9),
    dict(p=3.0, n_f=9, n_F=9, n_g=9, n_G=9),
    dict(p=1.5, n_f=9, n_F=9, n_g=9, n_G=9),
    dict(n_f=5, n_F=9, n_g=7, n_G=3),
    dict(n_f=9, n_F=9, n_g=9, n_G=9, max_offset=1),
    dict(n_f=9, n_F=9, n_g=9, n_G=9, max_offset=2),
    dict(p=2.5, f_max=1.5, F_max=3.0, g_max=3.0, G_max=5.0,
         n_f=7, n_F=11, n_g=9, n_G=5),
    dict(n_f=9, n_F=4, n_g=9, n_G=6),
    dict(n_f=3, n_F=2, n_g=3, n_G=2),
    dict(p=4.0, n_f=9, n_F=9, n_g=9, n_G=9),
    # np.linspace(-0.3, 0.3, 7) puts 0.2 one ulp below the negation of
    # -0.2, enough to make a linspace (f, F) mask asymmetric
    dict(p=2.0, f_max=0.3, F_max=0.09, n_f=7, n_F=10, n_g=7, n_G=7),
]
REFERENCE_IDS = ["p2", "p3", "p1.5", "non-square", "max-offset-1",
                 "max-offset-2", "box", "even-power-axes", "smallest", "p4",
                 "linspace-ulp-f-axis"]


# sha256 of layers 0..3 of each reference table, ``u_t N_t`` with ``N_t``
# from the offset-by-offset loop in integer units
REFERENCE_SHA256 = [
    "4be1629d15b5a7b19d078d903603c3ffcb42df71388b0a740470322486118ade",
    "3eb385571fce62fdac8a56eaada26f9145510d6be73e3f1948f438208b0e0238",
    "1b43e22f6fabcdbe0dda493dc8ec5f7445b4931d03edc75cd137c196a209d7cd",
    "0ee1cd0ea86509d605050ed8a6d427a7738ab9608b5173c3a9e935154738a7c4",
    "1a1d2449bd44109ec6b915f13777c89b41de6dca5c5c11793fa6a12fd79e58f0",
    "553f0bc61394d8a69bf8e0d6e8abbe37e8c25da4cd78cdc165fb71f6b0bb22e9",
    "6111d66e00ccb8f495bdd01e8d4293468740dac7feadb5f273da661f77ffb2fe",
    "9a9c3d331992a0e612124dd4fa289e6132d1d0effe8ce54e7cf4cca47a9df8b9",
    "594cdeb9a114708fb8c841a79042c5b5b8650b923db606f702b8599e39eca081",
    "394dc751b917ac9e73594502eef9ac9d82f9e1dd3f339ee15b01e44dbdadd343",
    "29130fd5b9329747f7dd81f4a55517aea518c236b34664fec48e5c33edf2bbce",
]


# sha256 of layers 0..3 of the 13-point tables at p = 2, 3, 3/2 (the
# largest ones the benchmark builds); ``N_t`` from the loop in
# ``reference_layer`` gives the same digests, in about 1.4 s per table, so
# the band test below checks these tables by them
BENCHMARK_SHA256 = {
    2.0: "3584c0b54746896368172337efd84e9ba19c9a9de162e06cdb9281732229b3e9",
    3.0: "e26b6702c59339a00cee6af2cf1e6adf92bf58bd33d0eb1cbeedf55cee9876d1",
    1.5: "9bee04c96412501036912677c8961f7989d882b82888f8aae82d12de9c5f9bd8",
}


def layer_digest(table):
    """sha256 of the bytes of layers 0..3."""
    digest = hashlib.sha256()
    for t in range(4):
        digest.update(table.layer(t).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("kwargs, hexdigest",
                         zip(REFERENCE_CONFIGS, REFERENCE_SHA256),
                         ids=REFERENCE_IDS)
def test_reference_table_bytes_are_frozen(kwargs, hexdigest):
    assert layer_digest(BellmanTable(BellmanConfig(**kwargs))) == hexdigest


def count_layer(table, t):
    """``N_t`` on the whole grid as floats, ``-inf`` off the domain."""
    table.layer(t)
    return table._grid(table._counts[t])


def assert_layers_match_reference_loop(table):
    ref = table.layer(0)
    for t in (1, 2, 3):
        ref = reference_layer(ref, t - 1, table.config.max_offset)
        ref[~table._mask] = -np.inf
        assert count_layer(table, t).tobytes() == ref.tobytes(), t


@pytest.mark.parametrize("kwargs", REFERENCE_CONFIGS, ids=REFERENCE_IDS)
def test_dp_layers_match_reference_loop(kwargs):
    """``N_1`` (closed form), ``N_2`` (fronts) and ``N_3`` (swept) against
    the loop."""
    assert_layers_match_reference_loop(BellmanTable(BellmanConfig(**kwargs)))


def python_integer_dp(table, depth):
    """``N_1 .. N_depth`` by a pure-Python loop over every pair of feasible
    plane nodes and every pair of their symmetric splits with feasible
    ends, the zero split included: dicts from ``((i, k), (l, m))`` to
    ints."""
    def splits(feasible, h0, h1):
        n0, n1 = len(feasible), len(feasible[0])
        return {(i, k): [((i + a, k + b), (i - a, k - b), a)
                         for a in range(-h0, h0 + 1)
                         for b in range(-h1, h1 + 1)
                         if abs(a) <= min(i, n0 - 1 - i)
                         and abs(b) <= min(k, n1 - 1 - k)
                         and feasible[i + a][k + b]
                         and feasible[i - a][k - b]]
                for i in range(n0) for k in range(n1) if feasible[i][k]}

    cfg = table.config
    half = [(n - 1) // 2 for n in (cfg.n_f, cfg.n_F, cfg.n_g, cfg.n_G)]
    if cfg.max_offset is not None:
        half = [min(h, cfg.max_offset) for h in half]
    fs = splits(table._feasible_f.tolist(), *half[:2])
    gs = splits(table._feasible_g.tolist(), *half[2:])
    N = {(x, y): 0 for x in fs for y in gs}
    layers = []
    for t in range(depth):
        N = {(x, y): max(N[p, q] + N[m, r] + (abs(a * c) << t)
                         for p, m, a in fs[x] for q, r, c in gs[y])
             for x in fs for y in gs}
        layers.append(N)
    return layers


@pytest.mark.parametrize("kwargs", [
    dict(n_f=5, n_F=5, n_g=5, n_G=5),
    dict(p=3.0, n_f=7, n_F=7, n_g=7, n_G=7),
    dict(n_f=5, n_F=9, n_g=7, n_G=3),
    dict(n_f=7, n_F=7, n_g=7, n_G=7, max_offset=1),
], ids=["5-points", "7-points", "non-square", "max-offset-1"])
def test_integer_layers_match_a_python_loop(kwargs):
    """``N_1 .. N_3`` equal a pure-Python integer DP on every node."""
    table = BellmanTable(BellmanConfig(**kwargs))
    table.layer(3)
    nF, nG = table.config.n_F, table.config.n_G
    f_nodes = [divmod(x, nF) for x in table._f_nodes.tolist()]
    g_nodes = [divmod(y, nG) for y in table._g_nodes.tolist()]
    for t, ref in enumerate(python_integer_dp(table, 3), 1):
        want = [[ref[x, y] for y in g_nodes] for x in f_nodes]
        assert table._counts[t].tolist() == want, t


def test_bands_cut_whole_groups_within_the_width():
    """Consecutive runs of whole groups that cover every group; a run is
    at most ``width`` entries wide unless it is one wider group."""
    edges = np.array([0, 3, 4, 9, 10, 11, 19, 20])
    for width in range(25):
        bands = list(bellman._bands(edges, width))
        assert [k for k, _ in bands] == [0] + [j for _, j in bands[:-1]]
        assert bands[-1][1] == edges.size - 1
        for k, j in bands:
            assert j == k + 1 or edges[j] - edges[k] <= width
            # no room for the next group
            if j < edges.size - 1:
                assert edges[j + 1] - edges[k] > width


# every table of the reference loop and the 13-point benchmark tables, with
# the sha256 pins of their layers 0..3
BAND_CASES = (list(zip(REFERENCE_CONFIGS, REFERENCE_SHA256))
              + [(dict(p=p, n_f=13, n_F=13, n_g=13, n_G=13), hexdigest)
                 for p, hexdigest in BENCHMARK_SHA256.items()])
BAND_IDS = REFERENCE_IDS + [f"13-p{p:g}" for p in BENCHMARK_SHA256]


@pytest.mark.parametrize("budget", ["one-group", "widest-group"])
@pytest.mark.parametrize("kwargs, hexdigest", BAND_CASES, ids=BAND_IDS)
def test_narrow_gather_bands_keep_every_byte(monkeypatch, kwargs, hexdigest,
                                             budget):
    """Layers swept with the (g, G) split ends gathered one centre group
    per band, or in bands at the smallest budget that holds the widest
    group, match the pins and the reference loop byte for byte, so the
    multi-band path is covered on grids that fit in one band."""
    table = BellmanTable(BellmanConfig(**kwargs))
    vp, _, _, starts = table._g_all
    widest = int(np.diff(np.append(starts, vp.size)).max())
    size = 1 if budget == "one-group" else (
        table._f_nodes.size * widest * table._dtype(3).itemsize)
    monkeypatch.setattr(bellman, "_GATHER_BYTES", size)
    assert layer_digest(table) == hexdigest
    if kwargs["n_f"] < 13:
        assert_layers_match_reference_loop(table)


# every reference table, the criterion-4 box, p = 1.25 and the 13-point
# benchmark tables, capped radii down to 0, and a 21-point grid, whose
# layer-2 fronts need more than one band and one block of centres
SECOND_LAYER_CASES = REFERENCE_CONFIGS + [
    dict(p=2.0, f_max=4.0, F_max=16.0, g_max=4.0, G_max=16.0),
    dict(p=1.25, n_f=9, n_F=9, n_g=9, n_G=9),
    dict(p=1.25, n_f=13, n_F=13, n_g=13, n_G=13),
    *(dict(p=p, n_f=13, n_F=13, n_g=13, n_G=13) for p in (2.0, 3.0, 1.5)),
    dict(n_f=13, n_F=13, n_g=13, n_G=13, max_offset=0),
    dict(p=4.0, n_f=13, n_F=8, n_g=13, n_G=10, max_offset=3),
    dict(n_f=21, n_F=21, n_g=21, n_G=21),
]
SECOND_LAYER_IDS = REFERENCE_IDS + [
    "criterion-4", "9-p1.25", "13-p1.25", "13-p2", "13-p3", "13-p1.5",
    "13-max-offset-0", "13-p4-even-capped", "21-p2"]


@pytest.mark.parametrize("budget", ["default", "one-centre"])
@pytest.mark.parametrize("kwargs", SECOND_LAYER_CASES, ids=SECOND_LAYER_IDS)
def test_second_layer_matches_the_sweep(monkeypatch, kwargs, budget):
    """``N_2`` read off the split-triple fronts equals a sweep of ``N_1``
    on the block :meth:`_second_layer` fills (the nodes from the middle row
    of each plane on; ``layer`` copies the rest), with the default budget
    and with one centre per band and per block."""
    table = BellmanTable(BellmanConfig(**kwargs))
    table.layer(1)
    swept = table._dp_layer(table._counts[1], 1)
    if budget == "one-centre":
        monkeypatch.setattr(bellman, "_GATHER_BYTES", 1)
    f0, g0 = table._f_mirror.size, table._g_mirror.size
    assert (table._second_layer()[f0:, g0:].tobytes()
            == swept[f0:, g0:].tobytes())


@pytest.mark.parametrize("kwargs", SECOND_LAYER_CASES, ids=SECOND_LAYER_IDS)
def test_float_layers_are_the_integer_layers_rounded_once(kwargs):
    """Layer ``t`` is ``N_t`` times ``u_t = 4 h_f h_g / 2**(t-1)``, each
    entry rounded once, and ``-inf`` off the domain."""
    table = BellmanTable(BellmanConfig(**kwargs))
    hf, hg = table.steps[0], table.steps[2]
    for t in range(4):
        unit = 4.0 * hf * hg / 2.0 ** (t - 1)
        want = count_layer(table, t) * unit
        assert table.layer(t).tobytes() == want.tobytes(), t


# tracemalloc peaks of the builds below when every (f, F) centre gathered
# all (g, G) split ends for itself (the sweep before the banded gather)
PER_CENTRE_GATHER_PEAK_MIB = {"21-points": 6.27, "criterion-4": 3.64,
                              "25-points": 11.69}


@pytest.mark.parametrize("name, kwargs, depth", [
    ("21-points", dict(n_f=21, n_F=21, n_g=21, n_G=21), 2),
    ("criterion-4", dict(p=2.0, f_max=4.0, F_max=16.0, g_max=4.0,
                         G_max=16.0), 3),
    ("25-points", dict(n_f=25, n_F=25, n_g=25, n_G=25), 2),
])
def test_banded_gather_memory_stays_within_its_budget(name, kwargs, depth):
    """An unbounded per-layer gather would take 46 MiB more at 21 points
    and 13 MiB more on the 17-point criterion-4 grid; the bands keep the
    peak within 1 MiB, the budget of the two gathered arrays, of the old
    one.  Layer 2 is built from triple tables in bands instead: one
    unbounded table of every (f, F) against every (g, G) triple peaks at
    20.7 MiB at 25 points."""
    tracemalloc.start()
    try:
        BellmanTable(BellmanConfig(**kwargs)).layer(depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (PER_CENTRE_GATHER_PEAK_MIB[name] + 1.0) * 2 ** 20


# index expressions that flip f and that flip g
MIRROR_FLIPS = [np.s_[::-1], np.s_[:, :, ::-1]]


@pytest.mark.parametrize("kwargs", REFERENCE_CONFIGS, ids=REFERENCE_IDS)
def test_reference_layers_are_mirror_symmetric(kwargs):
    """The mean axes and both masks are their own mirror images, and the
    loop's layers 0..3 equal their flips in f and in g byte for byte: the
    premise of sweeping half of each plane's centres and copying the
    rest."""
    cfg = BellmanConfig(**kwargs)
    table = BellmanTable(cfg)
    for axis in (table.fs, table.gs):
        assert np.array_equal(axis, -axis[::-1])
    for mask in (table._feasible_f, table._feasible_g):
        assert np.array_equal(mask, mask[::-1])
    ref = table.layer(0)
    for t in range(4):
        if t:
            ref = reference_layer(ref, t - 1, cfg.max_offset)
            ref[~table._mask] = -np.inf
        for flip in MIRROR_FLIPS:
            assert ref.tobytes() == ref[flip].tobytes(), (t, flip)


def test_mirror_states_read_the_same():
    """(-0.2, 0.04) and (0.2, 0.04) both lie on the domain's boundary; on
    a plain linspace f axis, one ulp off at 0.2, the table reads -inf at
    the first and 0 at the second."""
    table = BellmanTable(BellmanConfig(**REFERENCE_CONFIGS[-1]))
    G = table.Gs[-1]
    low, high = (table.evaluate(3, (f, 0.04, 0.0, G), bump_feasible=False)
                 for f in (-0.2, 0.2))
    assert low["snap_distance"] == high["snap_distance"] == 0.0
    assert low["value"] == high["value"]


def offset_loop_splits(feasible, half0, half1):
    """Symmetric splits of one plane, one offset ``(a, b)`` at a time."""
    n0, n1 = feasible.shape
    nodes = np.flatnonzero(feasible)
    ids = np.full(feasible.size, -1, dtype=np.intp)
    ids[nodes] = np.arange(nodes.size)
    ids = ids.reshape(feasible.shape)
    splits = []
    for a in range(-half0, half0 + 1):
        for b in range(-half1, half1 + 1):
            r0, r1 = abs(a), abs(b)
            c = ids[r0:n0 - r0, r1:n1 - r1]
            p = ids[r0 + a:n0 - r0 + a, r1 + b:n1 - r1 + b]
            m = ids[r0 - a:n0 - r0 - a, r1 - b:n1 - r1 - b]
            ok = (c >= 0) & (p >= 0) & (m >= 0)
            if ok.any():
                splits.append(((a, b), c[ok], p[ok], m[ok]))
    return nodes, splits


def grouped_reference(splits, first_centre, swept):
    """The reference splits centred on compact ids from ``first_centre`` on
    (the middle row and above), and only the offsets from ``(0, 0)`` on when
    ``swept``, grouped by centre with the offsets in order within each
    centre: plus ends, minus ends, first offset coordinates and the start
    of each centre's group."""
    kept = [s for s in splits if not swept or s[0] >= (0, 0)]
    centre = np.concatenate([s[1] for s in kept])
    keep = centre >= first_centre
    # stable, so each centre keeps the offset order of the loop
    order = np.argsort(centre[keep], kind="stable")
    plus, minus, first = [
        np.concatenate(x)[keep][order]
        for x in ([s[2] for s in kept], [s[3] for s in kept],
                  [np.full(s[1].size, s[0][0]) for s in kept])]
    starts = np.flatnonzero(np.diff(centre[keep][order], prepend=-1))
    return plus, minus, first, starts


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_plane_splits_match_offset_loop(p):
    """Same nodes, mirror map and counts over every centre, and equal
    grouped arrays (values and dtypes) over the centres from the middle row
    on, for the swept half and for every offset, on odd, even and
    non-square planes, with full and capped radii."""
    for n0, n1 in [(9, 9), (13, 13), (9, 4), (7, 11), (5, 2), (3, 6)]:
        feasible = (np.abs(bellman._mirror_axis(2.0, n0))[:, None] ** p
                    <= np.linspace(0.0, 4.0, n1)[None, :])
        for cap, swept in itertools.product((None, 0, 1, 2), (True, False)):
            half = [(n - 1) // 2 for n in (n0, n1)]
            if cap is not None:
                half = [min(h, cap) for h in half]
            nodes, mirror, counts, splits = bellman._plane(feasible, *half,
                                                           swept=swept)
            ref_nodes, ref = offset_loop_splits(feasible, *half)
            assert np.array_equal(nodes, ref_nodes)
            # the mirror map sends each node below the middle row to the
            # node with the same column in row n0 - 1 - i
            rows, cols = np.divmod(nodes, n1)
            below = rows < n0 // 2
            assert mirror.size == below.sum()
            assert np.array_equal(rows[mirror], n0 - 1 - rows[below])
            assert np.array_equal(cols[mirror], cols[below])
            offsets = list(itertools.product(range(-half[0], half[0] + 1),
                                             range(-half[1], half[1] + 1)))
            sizes = {s[0]: s[1].size for s in ref}
            assert counts.tolist() == [sizes.get(o, 0) for o in offsets]
            want = grouped_reference(ref, np.count_nonzero(below), swept)
            for x, y in zip(splits(), want):
                assert x.dtype == y.dtype and np.array_equal(x, y)


def test_criterion_4_table_bytes_are_frozen():
    """sha256 of layers 0..3 of the criterion-4 oracle, recorded with the
    offset-by-offset DP (the loop in ``reference_layer``)."""
    table = bellman_oracle(BellmanConfig(p=2.0, f_max=4.0, F_max=16.0,
                                         g_max=4.0, G_max=16.0), depth=3)
    assert layer_digest(table) == (
        "7c075d44227a242dfc97cd1c10076691328059e5fa686b7ce4f061e634aca563")


def test_p2_table_below_closed_form():
    """At p = 2 no martingale pair started from (f, F, g, G) collects more
    than 4 sqrt((F - f^2)(G - g^2)): the squared increments add up to the
    variances, and Cauchy-Schwarz bounds the sum of products."""
    table = bellman_oracle(BellmanConfig(), depth=3)
    f = table.fs[:, None, None, None]
    F = table.Fs[None, :, None, None]
    g = table.gs[None, None, :, None]
    G = table.Gs[None, None, None, :]
    mask = table._mask
    variances = np.where(mask, (F - f * f) * (G - g * g), 0.0)
    bound = 4.0 * np.sqrt(variances)
    for t in (1, 2, 3):
        layer = table.layer(t)
        assert np.all(layer[mask] <= bound[mask]), t


# -- grid oracle: frozen values and structure ----------------------------


def test_depth_one_frozen_value():
    """From the state (0, 1, 0, 1) one split reaches means +-1 on both
    coordinates (the power budget allows |f| = 1), collecting 4*1*1."""
    table = bellman_oracle(BellmanConfig(), depth=1)
    probe = table.evaluate(1, (0.0, 1.0, 0.0, 1.0), bump_feasible=False)
    assert probe["snap_distance"] == 0.0
    assert probe["value"] == 4.0


def test_dirac_state_collects_nothing():
    """With F = |f|^2 the f-martingale cannot move at all."""
    table = bellman_oracle(BellmanConfig(), depth=3)
    for t in (1, 2, 3):
        probe = table.evaluate(t, (1.0, 1.0, 0.0, 4.0), bump_feasible=False)
        assert probe["snap_distance"] == 0.0
        assert probe["value"] == 0.0


def test_layers_monotone_in_depth():
    table = bellman_oracle(BellmanConfig(n_f=9, n_F=9, n_g=9, n_G=9), depth=3)
    for t in range(3):
        assert np.all(table.layer(t + 1) >= table.layer(t))


def test_nested_grid_refinement_is_monotone():
    """Doubling every axis keeps the coarse nodes and their split moves, so
    values at shared nodes cannot decrease."""
    coarse = BellmanTable(BellmanConfig(n_f=9, n_F=9, n_g=9, n_G=9))
    fine = BellmanTable(BellmanConfig(n_f=17, n_F=17, n_g=17, n_G=17))
    for t in (1, 2):
        sub = fine.layer(t)[::2, ::2, ::2, ::2]
        assert np.all(sub >= coarse.layer(t) - 1e-12)


def test_range_check():
    table = bellman_oracle(BellmanConfig(), depth=3)
    for t in range(4):
        rep = range_check(table, t)
        assert rep["ok"], rep
        assert rep["max"] <= 4.0 * t * 2.0 * 2.0 + 1e-9


def test_infeasible_region_masked():
    table = bellman_oracle(BellmanConfig(), depth=1)
    layer = table.layer(1)
    # |f| = 2 with F = 0 violates the domain and must stay -inf
    probe = table.evaluate(1, (2.0, 0.0, 0.0, 4.0), bump_feasible=False)
    assert probe["value"] == -math.inf
    assert np.isneginf(layer).any()


def test_evaluate_bumps_boundary_states():
    table = bellman_oracle(BellmanConfig(), depth=1)
    # F = 3.5 is on-grid but below |f|^2 = 4: the power axis gets bumped
    out = table.evaluate(1, (2.0, 3.5, 0.0, 4.0))
    assert out["bumped"]
    assert math.isfinite(out["value"])
    raw = table.evaluate(1, (2.0, 3.5, 0.0, 4.0), bump_feasible=False)
    assert raw["value"] == -math.inf


def _per_state_read(table, t, coords, bump_feasible):
    """The oracle read of one state, one coordinate at a time: the nearest
    node, its snap distance, and the power indices raised step by step
    until the node is feasible or the index is the last."""
    state = np.array(coords, dtype=float)
    idx = tuple(table._snap(state).tolist())
    dist = max(abs(float(ax[i]) - x) for ax, i, x in
               zip((table.fs, table.Fs, table.gs, table.Gs), idx,
                   state.tolist()))
    i0, i1, i2, i3 = idx
    if bump_feasible:
        while i1 < len(table.Fs) - 1 and not table._feasible_f[i0, i1]:
            i1 += 1
        while i3 < len(table.Gs) - 1 and not table._feasible_g[i2, i3]:
            i3 += 1
    return {"value": float(table.layer(t)[i0, i1, i2, i3]),
            "index": (i0, i1, i2, i3), "snap_distance": dist,
            "bumped": (i1, i3) != idx[1::2]}


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_batched_read_matches_the_per_state_read(p):
    """One snap, distance and bump for many states gives the nodes, snap
    distances and bump flags of the per-state read, and so the same
    reports, with their Python types, on and off the domain boundary."""
    config = BellmanConfig(p=p, n_f=9, n_F=9, n_g=9, n_G=9)
    table = bellman_oracle(config, depth=2)
    rng = np.random.default_rng((72, int(p)))
    states = rng.uniform(-1.2, 1.2, size=(300, 4)) * [
        config.f_max, config.F_max, config.g_max, config.G_max]
    states[::3, 1] = np.abs(states[::3, 0]) ** p
    states[1::3, 3] = np.abs(states[1::3, 2]) ** config.p_dual
    for bump in (True, False):
        index, dist, bumped = table._nearest(states, bump)
        got = [{"value": float(table.layer(2)[tuple(i)]), "index": tuple(i),
                "snap_distance": d, "bumped": b}
               for i, d, b in zip(index.tolist(), dist.tolist(),
                                  bumped.tolist())]
        want = [_per_state_read(table, 2, s, bump) for s in states.tolist()]
        # repr tells a numpy scalar from a Python float or int
        assert repr(got) == repr(want)
        assert repr([table.evaluate(2, s, bump) for s in states[:20]]) == \
            repr(want[:20])
    assert table._nearest(states)[2].any()


def test_tree_states_are_the_point_coordinates():
    """The state array the oracle reads holds the bits of ``float`` of the
    level values of every node, on exact trees (leaves in Q(sqrt(2)) too)
    and float ones."""
    f, g = exact_pair(73, depth=4, M=1)
    root2 = StepFunction(f.system, f.values * Sqrt2Rational(1, 1)
                         + Fraction(1, 3))
    for x, p in ((f, 2.0), (root2, 2.0), (f, 3.0), (f.as_float(), 2.0)):
        tree = tree_from_functions(x, g, SpaceSpec(p=p))
        for k in range(tree.depth + 1):
            want = np.array(
                [[float(v) for v in state] for state in
                 zip(tree.f[k][:, 0], tree.F[k], tree.g[k][:, 0],
                     tree.G[k])])
            assert tree._states(k).tobytes() == want.tobytes()


def test_evaluate_reads_exact_coordinates_as_their_floats():
    """States given as ``Fraction`` and ``Sqrt2Rational`` read the index,
    value, snap distance and bump of their floats, a bumped one too."""
    table = bellman_oracle(BellmanConfig(), depth=2)
    r = Sqrt2Rational(Fraction(1, 3), Fraction(1, 5))
    states = [
        (Fraction(1, 3), Fraction(7, 5), Fraction(-2, 7), Fraction(9, 4)),
        (r, r * r + Fraction(1, 9), -r, Sqrt2Rational(1, 1)),
        (Fraction(2), Sqrt2Rational(0, 2), Fraction(0), Fraction(4)),
    ]
    bumped = []
    for state, bump in itertools.product(states, (False, True)):
        want = table.evaluate(2, tuple(float(x) for x in state), bump)
        got = table.evaluate(2, state, bump)
        assert repr(got) == repr(want)
        bumped.append(got["bumped"])
    assert any(bumped)


def test_evaluate_rejects_non_finite_states():
    table = bellman_oracle(BellmanConfig(), depth=1)
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(DyadicError):
            table.evaluate(1, (x, 1.0, 0.0, 1.0))


@pytest.mark.parametrize("n", [0, 1, 3, 5])
def test_evaluate_rejects_states_without_four_coordinates(n):
    """One coordinate once broadcast to all four, and 0 or 5 raised
    numpy's broadcasting error."""
    table = bellman_oracle(BellmanConfig(), depth=1)
    with pytest.raises(DyadicError, match="four coordinates"):
        table.evaluate(1, (0.5,) * n)
    with pytest.raises(DyadicError, match="four coordinates"):
        table._nearest(np.full((2, n), 0.5))


def test_concavity_slack_on_grid_pairs():
    table = bellman_oracle(BellmanConfig(), depth=3)
    for t in (0, 1, 2):
        rep = concavity_gain_check(table, t, n_samples=300, seed=(1, t))
        assert rep["n_evaluated"] == 300
        assert rep["allowance"] == 0.0
        assert rep["min_slack"] >= 0.0


def test_concavity_slack_snapped_pairs():
    table = bellman_oracle(BellmanConfig(), depth=2)
    rep = concavity_gain_check(table, 1, n_samples=300, seed=2, snapped=True)
    hf = table.steps[0]
    hg = table.steps[2]
    expected = 16.0 * hf * hg + 4.0 * (hf * 2.0 + hg * 2.0)
    assert rep["allowance"] == pytest.approx(expected)
    assert rep["min_slack"] >= -rep["allowance"]


def _scalar_snapped_check(table, t, n_samples, seed):
    """The snapped check as one scalar draw per coordinate and one
    rounding per axis: the reference for the stream and the snapping."""
    rng = np.random.default_rng(seed)
    upper, lower = table.layer(t + 1), table.layer(t)
    hf, hF, hg, hG = table.steps
    cfg = table.config
    axes = (table.fs, table.Fs, table.gs, table.Gs)

    def value(layer, pt):
        idx = []
        for x, ax in zip(pt, axes):
            i = int(round((x - ax[0]) / (ax[1] - ax[0])))
            idx.append(min(max(i, 0), len(ax) - 1))
        return float(layer[tuple(idx)])

    min_slack = math.inf
    n_eval = 0
    attempts = 0
    while n_eval < n_samples and attempts < 200 * n_samples:
        attempts += 1
        f0 = rng.uniform(-cfg.f_max + 2 * hf, cfg.f_max - 2 * hf)
        g0 = rng.uniform(-cfg.g_max + 2 * hg, cfg.g_max - 2 * hg)
        F0 = rng.uniform(0.0, cfg.F_max - 2 * hF)
        G0 = rng.uniform(0.0, cfg.G_max - 2 * hG)
        df = rng.uniform(-2 * hf, 2 * hf)
        dF = rng.uniform(-2 * hF, 2 * hF)
        dg = rng.uniform(-2 * hg, 2 * hg)
        dG = rng.uniform(-2 * hG, 2 * hG)
        pts = [(f0, F0, g0, G0), (f0 + df, F0 + dF, g0 + dg, G0 + dG),
               (f0 - df, F0 - dF, g0 - dg, G0 - dG)]
        if any(abs(f) ** cfg.p > F or abs(g) ** cfg.p_dual > G
               for f, F, g, G in pts):
            continue
        vals = [value(upper, pts[0]), value(lower, pts[1]),
                value(lower, pts[2])]
        if not all(np.isfinite(vals)):
            continue
        slack = vals[0] - (0.5 * (vals[1] + vals[2]) + 4.0 * abs(df * dg))
        min_slack = min(min_slack, float(slack))
        n_eval += 1
    return min_slack, n_eval


@pytest.fixture(scope="module")
def grid_tables():
    """Depth-3 tables on the 9- and 13-point grids at p = 2, 3, 3/2."""
    tables = {}
    for n, p in itertools.product((9, 13), (2.0, 3.0, 1.5)):
        table = BellmanTable(BellmanConfig(p=p, n_f=n, n_F=n, n_g=n, n_G=n))
        table.layer(3)
        tables[n, p] = table
    return tables


def test_benchmark_table_bytes_are_frozen(grid_tables):
    for p, hexdigest in BENCHMARK_SHA256.items():
        assert layer_digest(grid_tables[13, p]) == hexdigest, p


# sha256 of layers 0..3 of the 9- and 11-point tables at p = 2, 3, 3/2,
# the smaller ones the benchmark builds; the band test checks the 9-point
# ones against the loop in ``reference_layer``
SMALL_GRID_SHA256 = {
    (9, 2.0): "4be1629d15b5a7b19d078d903603c3ffcb42df71388b0a740470322486118ade",
    (9, 3.0): "3eb385571fce62fdac8a56eaada26f9145510d6be73e3f1948f438208b0e0238",
    (9, 1.5): "1b43e22f6fabcdbe0dda493dc8ec5f7445b4931d03edc75cd137c196a209d7cd",
    (11, 2.0): "6e095bf26d34d423129b0506d14d7631da5b2d2022f8f10522accc34e68dc818",
    (11, 3.0): "37c023938f5a6826ce2b17c7058ad3f73f7d431ec522b841363e0dfe80343a69",
    (11, 1.5): "35fdbf102a5de4e0b289def42931be440514e1f2f8f11d321d421128101a2c49",
}


@pytest.mark.parametrize("n, p", list(SMALL_GRID_SHA256))
def test_small_benchmark_table_bytes_are_frozen(n, p):
    table = BellmanTable(BellmanConfig(p=p, n_f=n, n_F=n, n_g=n, n_G=n))
    assert layer_digest(table) == SMALL_GRID_SHA256[n, p]


def test_benchmark_tables_are_mirror_symmetric(grid_tables):
    """Layers 0..3 of the 13-point tables (pinned to the full sweep by the
    digests above) are mirror-symmetric in f and in g."""
    for p in (2.0, 3.0, 1.5):
        table = grid_tables[13, p]
        for t, flip in itertools.product(range(4), MIRROR_FLIPS):
            layer = table.layer(t)
            assert layer.tobytes() == layer[flip].tobytes(), (p, t, flip)


@pytest.mark.parametrize("n_samples", [1, 200])
def test_snapped_check_equals_scalar_reference(grid_tables, n_samples):
    for (n, p), table in grid_tables.items():
        for seed in range(3):
            rep = concavity_gain_check(table, 2, n_samples=n_samples,
                                       seed=(seed, n), snapped=True)
            ref = _scalar_snapped_check(table, 2, n_samples, (seed, n))
            assert (rep["min_slack"], rep["n_evaluated"]) == ref, (n, p, seed)


@pytest.mark.parametrize("snapped", [False, True])
def test_concavity_check_does_not_depend_on_chunk_size(monkeypatch,
                                                       grid_tables, snapped):
    tables = [grid_tables[9, 3.0],
              BellmanTable(BellmanConfig(n_f=9, n_F=4, n_g=9, n_G=6))]
    reports = []
    for chunk in (1, 7, bellman._CHECK_CHUNK):
        monkeypatch.setattr(bellman, "_CHECK_CHUNK", chunk)
        reports.append([concavity_gain_check(table, 1, n_samples=n,
                                             seed=(5, n), snapped=snapped)
                        for table in tables for n in (1, 40)])
    assert reports[0] == reports[1] == reports[2]


def test_grid_draws_cover_every_split():
    """Every offset in ``-h..h`` and, for each offset, both extreme
    centres are drawn, on odd and even axes, with the radius ``h`` capped
    by ``max_offset`` or not."""
    shape = (9, 4, 9, 6)
    u = np.random.default_rng(0).random((20000, 8)).T
    for cap in (None, 2):
        j, idx = bellman._grid_draws(u, shape, cap)
        for k, n in enumerate(shape):
            h = (n - 1) // 2 if cap is None else min((n - 1) // 2, cap)
            assert set(j[k].tolist()) == set(range(-h, h + 1))
            for a in range(-h, h + 1):
                centres = idx[k, j[k] == a]
                assert centres.min() == abs(a)
                assert centres.max() == n - 1 - abs(a)


def test_concavity_check_on_even_power_axes():
    table = BellmanTable(BellmanConfig(n_f=9, n_F=4, n_g=9, n_G=6))
    for seed in range(5):
        rep = concavity_gain_check(table, 1, n_samples=200, seed=seed)
        assert rep["n_evaluated"] == 200
        assert rep["min_slack"] >= 0.0


@pytest.mark.parametrize("axis, kwargs", [
    ("n_f", dict(n_f=3)), ("n_F", dict(n_F=2)), ("n_g", dict(n_g=3)),
    ("n_G", dict(n_G=2)), ("n_f", dict(n_f=3, n_F=3, n_g=3, n_G=3)),
])
def test_snapped_check_refuses_grids_without_inner_centres(axis, kwargs):
    """Two grid steps inside a 3-point mean axis or a 2-point power axis
    leave an empty box, whose bounds numpy's ``uniform`` once refused with
    ``high - low < 0``; grid mode still runs."""
    table = BellmanTable(BellmanConfig(**kwargs))
    with pytest.raises(DyadicError, match=f"snapped check: {axis} = "):
        concavity_gain_check(table, 1, snapped=True)
    assert concavity_gain_check(table, 1)["min_slack"] >= 0.0


def test_concavity_check_refuses_a_run_that_evaluates_nothing(grid_tables):
    """A 3-point power axis pins the snapped centre to F0 = 0 and G0 = 0,
    so one of F0 +- dF is negative and every snapped draw leaves the
    domain; grid mode still evaluates.  ``allowance`` is a Python float."""
    table = BellmanTable(BellmanConfig(n_f=5, n_F=3, n_g=5, n_G=3))
    with pytest.raises(DyadicError,
                       match="snapped check: none of 1000 attempts"):
        concavity_gain_check(table, 1, n_samples=5, snapped=True)
    rep = concavity_gain_check(table, 1, n_samples=5)
    assert rep["n_evaluated"] == 5 and type(rep["allowance"]) is float
    rep = concavity_gain_check(grid_tables[9, 2.0], 1, snapped=True)
    assert rep["n_evaluated"] == 200 and type(rep["allowance"]) is float


def test_concavity_check_rejects_vacuous_sample_counts():
    table = BellmanTable(BellmanConfig(n_f=5, n_F=5, n_g=5, n_G=5))
    for n_samples in (0, -1):
        for snapped in (False, True):
            with pytest.raises(DyadicError):
                concavity_gain_check(table, 0, n_samples=n_samples,
                                     snapped=snapped)


def test_concavity_check_detects_a_step_without_gain():
    """A copy whose layer ``t+1`` is layer ``t`` (``N_{t+1} = 2 N_t``)
    gains nothing from a split, so grid mode must report a negative slack,
    also on tables with a capped split radius."""
    for kwargs in (dict(n_f=7, n_F=7, n_g=7, n_G=7),
                   dict(n_f=9, n_F=9, n_g=9, n_G=9, max_offset=1),
                   dict(n_f=9, n_F=9, n_g=9, n_G=9, max_offset=2)):
        table = BellmanTable(BellmanConfig(**kwargs))
        for t in (0, 1, 2):
            assert concavity_gain_check(table, t, seed=3)["min_slack"] >= 0.0
            broken = copy.copy(table)
            broken._counts = table._counts[:t + 1] + [2 * table._counts[t]]
            rep = concavity_gain_check(broken, t, seed=3)
            assert rep["n_evaluated"] == 200
            assert rep["min_slack"] < 0.0, (kwargs, t)


def test_concavity_check_on_capped_tables():
    """Grid mode draws offsets within the table's ``max_offset``, the
    splits the DP maximised over."""
    for cap in (1, 2):
        table = BellmanTable(BellmanConfig(n_f=9, n_F=9, n_g=9, n_G=9,
                                           max_offset=cap))
        for t, seed in itertools.product((1, 2), range(3)):
            rep = concavity_gain_check(table, t, seed=seed)
            assert rep["n_evaluated"] == 200
            assert rep["min_slack"] >= 0.0, (cap, t, seed)


# -- end-to-end ----------------------------------------------------------


def test_lemma51_verify_k1_exact_pair():
    f, g = exact_pair(7, depth=3)
    report = lemma51_verify(f, g, SpaceSpec(p=2.0), k=1, bellman_depth=3)
    assert report["tree_exact"]
    assert report["identity_exact"]
    assert report["product_max_error"] == 0.0
    assert 0.3 <= report["theta_min"] <= report["theta_max"] <= 5.0 / 6.0
    if report["sum_abs_lambda"] > 0:
        assert report["achieved_c"] == pytest.approx(ROOT2_OVER_16, rel=1e-9)
        assert report["meets_threshold"]
    assert "c_emp" in report and "drop" in report
    assert report["bellman_depth"] == 3
    assert math.isfinite(report["root_value"])


def test_lemma51_verify_k2():
    f, g = exact_pair(8, depth=3)
    report = lemma51_verify(f, g, SpaceSpec(p=2.0), k=2, bellman_depth=3)
    assert report["k"] == 2
    assert report["identity_exact"]
    if not report["degenerate"]:
        assert report["c_emp"] > 0.0


def test_lemma51_checks_run_on_the_find_alpha_witness():
    """One modulation: the reweighting checks read the witness whose yield
    is reported, on non-vertex witnesses and on a degenerate pair."""
    space = SpaceSpec(p=2.0)
    system = sample_system((0, 0), 4)
    pairs = [(random_step_function(system, seed=(0, 1), exact=True),
              random_step_function(system, seed=(0, 2), exact=True), (0, 3))]
    # seed 8 has an interior witness, seeds 11 and 12 a +-1/4 vertex
    pairs += [(*exact_pair(seed, depth=3), seed) for seed in (8, 11, 12)]
    flat = DyadicSystem(depth=3)
    pairs.append((exact_constant(flat, Fraction(1)),
                  exact_constant(flat, Fraction(2)), 0))
    interior = 0
    for f, g, seed in pairs:
        report = lemma51_verify(f, g, space, k=2, bellman_depth=3, seed=seed)
        tree = tree_from_functions(f, g, space)
        lam = lambda_matrix(tree, 2)
        alpha, found = find_alpha(lam, seed=seed)
        mod = modified_points(tree, alpha, k=2, lam=lam)
        assert report["quad_value"] == found["quad_value"]
        assert report["identity_exact"]
        assert report["theta_min"] == pytest.approx(mod["theta_min"],
                                                    rel=1e-15)
        assert report["theta_max"] == pytest.approx(mod["theta_max"],
                                                    rel=1e-15)
        assert 2.0 * abs(mod["pairing_value"]) == pytest.approx(
            report["quad_value"], rel=1e-12)
        interior += report["theta_min"] > 0.375
    assert report["sum_abs_lambda"] == 0.0  # the constant pair
    assert interior >= 2  # witnesses off the +-1/4 vertices are covered


def test_lemma51_verify_skips_oracle_for_vectors():
    system = sample_system((9, 0), 3)
    f = random_step_function(system, seed=(9, 1), d=2, exact=True)
    g = random_step_function(system, seed=(9, 2), d=2, exact=True)
    report = lemma51_verify(f, g, SpaceSpec(p=2.0, d=2), k=1)
    assert report["bellman_skipped"]
    assert report["c_emp"] is None


def test_lemma51_verify_depth_guards():
    f, g = exact_pair(10, depth=2)
    with pytest.raises(DyadicError):
        lemma51_verify(f, g, SpaceSpec(p=2.0), k=3)
    with pytest.raises(DyadicError):
        lemma51_verify(f, g, SpaceSpec(p=2.0), k=2, bellman_depth=1)


def test_lemma51_refuses_an_oracle_depth_above_the_cap_first(monkeypatch):
    """An explicit ``bellman_depth`` above the table cap is refused before
    the tree, Lambda and the modulation search (2.7 s at k = 7) run."""
    def reached(*args, **kwargs):
        raise AssertionError("the check ran before the refusal")

    for name in ("tree_from_functions", "lambda_matrix", "find_alpha"):
        monkeypatch.setattr(bellman, name, reached)
    f, g = exact_pair(10, depth=7)
    with pytest.raises(DyadicError, match="depth 7 exceeds the table cap"):
        lemma51_verify(f, g, SpaceSpec(p=2.0), k=7,
                       bellman_depth=bellman.MAX_TABLE_DEPTH + 1)


@pytest.mark.parametrize("kind, p", [("rational", 2.0), ("sqrt2", 2.0),
                                     ("float", 2.0), ("float", 3.0)])
def test_auto_config_spans_the_exact_leaf_maxima(kind, p):
    """Each axis of the automatic oracle grid is the ceiling of the float of
    the exact largest ``|leaf state|`` on it, and at least 2 on a mean axis
    and 4 on a power axis.  g is scaled apart from f, so a swapped state
    column shows."""
    for seed in range(12):
        f, g = exact_pair(seed, depth=4, M=seed % 3 - 1)
        g = StepFunction(g.system, g.values * Fraction(5, 2))
        if kind == "sqrt2":
            f = StepFunction(f.system, f.values * Sqrt2Rational(1, 1)
                             + Fraction(1, 3))
        elif kind == "float":
            f, g = f.as_float(), g.as_float()
        space = SpaceSpec(p=p)
        tree = tree_from_functions(f, g, space)
        assert tree.exact == (kind != "float")
        leaves = (tree.f[-1][:, 0], tree.F[-1], tree.g[-1][:, 0], tree.G[-1])
        want = [max(floor, float(math.ceil(float(max(abs(v)
                                                     for v in x.tolist())))))
                for floor, x in zip((2.0, 4.0, 2.0, 4.0), leaves)]
        config = bellman._auto_config(tree, space)
        assert (config.p, config.f_max, config.F_max, config.g_max,
                config.G_max) == (p, *want)


def test_constant_pair_is_degenerate():
    system = DyadicSystem(depth=2)
    f = exact_constant(system, Fraction(1))
    g = exact_constant(system, Fraction(2))
    report = lemma51_verify(f, g, SpaceSpec(p=2.0), k=1, bellman_depth=2)
    assert report["sum_abs_lambda"] == 0.0
    assert report["meets_threshold"]  # vacuously: nothing to extract
