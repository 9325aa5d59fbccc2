"""Martingale trees, interaction matrices and modulation reports, frozen by
value.

Each case draws an exact pair on a window of depth 3-6, with rational
leaves (``random_step_function``) or with leaves in Q(sqrt(2)) (the same
functions plus their image under a (0, 1) shift with amplitude 1/2), builds its tree at p = 2, and for
every cell depth k = 1-3 its interaction matrix and the modulation reports
of three witnesses: a random balanced rational one, the exact copy of the
``find_alpha`` witness that ``lemma51_verify`` uses, and that float witness
itself.  The digests hash :func:`dyadlab.exact.to_text` of every exact value
(lossless, and blind to whether a value is held as a ``Fraction`` or a
``Sqrt2Rational``) and ``repr`` of every float.  A float tree at p = 4 is
pinned by its bytes.  They were recorded with the tree, matrix and
modulation code that ran on object arrays of ``Fraction`` and
``Sqrt2Rational``.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from dyadlab.bellman import _exact_alpha, modified_points, tree_from_functions
from dyadlab.dyadic import sample_system
from dyadlab.exact import to_text
from dyadlab.schur import AlphaSequence, find_alpha, lambda_matrix
from dyadlab.shifts import ShiftSpec, apply_shift, random_extremal_shift
from dyadlab.signal import SpaceSpec, random_step_function

DEPTHS = range(3, 7)
KINDS = ("rational", "sqrt2")
MOD_FIELDS = ("k", "theta_min", "theta_max", "theta_in_design_range",
              "theta_in_asserted_range", "product_max_error", "product_exact",
              "identity_error", "identity_exact", "pairing_value")


def case_pair(depth, d, kind):
    seed = (207, depth, d, KINDS.index(kind))
    system = sample_system(seed, depth, M=depth % 3 - 1)
    f, g = (random_step_function(system, seed=seed + (s,), d=d, exact=True)
            for s in (1, 2))
    if kind == "sqrt2":
        # a (0, 1) table with the rational amplitude 1/2 leaves sqrt(2) in
        # its terms; adding the input keeps a rational part
        keys = random_extremal_shift(system, 0, 1, seed=seed + (3,)).keys
        weights = np.random.default_rng(seed).integers(-1, 2, size=len(keys))
        shift = ShiftSpec(system, 0, 1, keys, weights, Fraction(1, 2))
        f, g = f + apply_shift(shift, f), g + apply_shift(shift, g)
    return f, g


def balanced_alpha(rng, n):
    mags = [Fraction(int(rng.integers(0, 9)), 32) for _ in range(n // 2)]
    vals = np.array([s * m for m in mags for s in (1, -1)], dtype=object)
    rng.shuffle(vals)
    return AlphaSequence(vals)


def text(values):
    return "\n".join(to_text(v) for v in np.ravel(values))


def point_text(state):
    f, F, g, G = state
    return text([*f, F, *g, G])


def report_lines(mod):
    lines = [point_text(mod["plus"]), point_text(mod["minus"])]
    return lines + [f"{key}={mod[key]!r}" for key in MOD_FIELDS]


def float_report_lines(mod):
    lines = [np.array([*f, F, *g, G], dtype=float).tobytes().hex()
             for f, F, g, G in (mod["plus"], mod["minus"])]
    return lines + [f"{key}={mod[key]!r}" for key in MOD_FIELDS]


def case_lines(depth, d, kind):
    """Every tree level, matrix and modulation report of one case."""
    f, g = case_pair(depth, d, kind)
    tree = tree_from_functions(f, g, SpaceSpec(p=2.0, d=d))
    assert tree.exact
    lines = [text(level) for levels in (tree.f, tree.F, tree.g, tree.G)
             for level in levels]
    for k in range(1, 4):
        lam = lambda_matrix(tree, k)
        lines += [text(lam.values), lam.as_float().tobytes().hex(),
                  to_text(lam.abs_sum())]
        rng = np.random.default_rng((depth, d, k, KINDS.index(kind)))
        alpha, found = find_alpha(lam, seed=(depth, k))
        exact = _exact_alpha(alpha)
        lines += [text(exact.values), repr(found["achieved_c"])]
        for witness in (balanced_alpha(rng, 2 ** k), exact):
            lines += report_lines(modified_points(tree, witness, k=k,
                                                  lam=lam))
        if kind == "rational":
            # a float witness on an exact tree runs the float arithmetic
            lines += float_report_lines(modified_points(tree, alpha, k=k,
                                                        lam=lam))
    return lines


def float_case_lines(depth, d):
    """The bytes of a float tree at p = 4, its matrices and reports."""
    f, g = case_pair(depth, d, "rational")
    tree = tree_from_functions(f, g, SpaceSpec(p=4.0, d=d))
    assert not tree.exact
    lines = [level.tobytes().hex()
             for levels in (tree.f, tree.F, tree.g, tree.G)
             for level in levels]
    for k in range(1, 4):
        lam = lambda_matrix(tree, k)
        alpha, found = find_alpha(lam, seed=(depth, k))
        lines += [lam.values.tobytes().hex(), repr(lam.abs_sum()),
                  repr(found["achieved_c"])]
        lines += float_report_lines(modified_points(tree, alpha, k=k,
                                                    lam=lam))
    return lines


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# digest(case_lines(depth, d, kind)), keys (depth, d, kind), and
# digest(float_case_lines(depth, d)), keys (depth, d, "p4")
FROZEN = {
    (3, 1, 'rational'): "a49b6787ac02395d",
    (3, 1, 'sqrt2'): "846d84cb54de9e4d",
    (3, 1, 'p4'): "18de036c661a0ac6",
    (3, 2, 'rational'): "d4723605ac3d9157",
    (3, 2, 'sqrt2'): "3d607c7977d120f3",
    (3, 2, 'p4'): "7fb4a1aabc92efea",
    (4, 1, 'rational'): "a891a7633b71113c",
    (4, 1, 'sqrt2'): "9e20ea46098499b0",
    (4, 1, 'p4'): "3e77a5d0ccb07fa9",
    (4, 2, 'rational'): "fa2c3827f2e7751c",
    (4, 2, 'sqrt2'): "140195d985ccea44",
    (4, 2, 'p4'): "642a14a64c4e3a6b",
    (5, 1, 'rational'): "ffb0eb08085add77",
    (5, 1, 'sqrt2'): "cd3cecfd9cb5f644",
    (5, 1, 'p4'): "4b8efa7734eaa75c",
    (5, 2, 'rational'): "25904402164cfd51",
    (5, 2, 'sqrt2'): "ea9a392ea0902fcd",
    (5, 2, 'p4'): "a995c0758463991c",
    (6, 1, 'rational'): "d73cf36788762b5e",
    (6, 1, 'sqrt2'): "1c8cca8a65b53043",
    (6, 1, 'p4'): "09a9915bd787f100",
    (6, 2, 'rational'): "26538522b4004b56",
    (6, 2, 'sqrt2'): "a903df372a735419",
    (6, 2, 'p4'): "4e1a72332b0b4ace",
}


CASES = [(depth, d, kind) for depth in DEPTHS for d in (1, 2)
         for kind in KINDS + ("p4",)]


def case_digest(depth, d, kind):
    if kind == "p4":
        return digest(float_case_lines(depth, d))
    return digest(case_lines(depth, d, kind))


@pytest.mark.parametrize("depth", DEPTHS)
def test_trees_matrices_and_modulations_are_frozen(depth):
    for case in CASES:
        if case[0] == depth:
            assert case_digest(*case) == FROZEN[case], case


def record():
    """Print the digest table (run on the reference implementation)."""
    for case in CASES:
        print(f"    {case!r}: \"{case_digest(*case)}\",")


if __name__ == "__main__":
    record()
