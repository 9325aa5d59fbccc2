"""Exact Haar operators on a grid of windows and leaf types, frozen by value.

Each case draws leaf values of one type (``int``, ``Fraction`` or
``Sqrt2Rational`` with a non-zero sqrt(2) part) on a window of depth 1-8
and length ``2**M``, runs every exact operator on them, and hashes the
:func:`dyadlab.exact.to_text` lines of all outputs.  ``to_text`` is lossless
and does not depend on whether a value is held as a ``Fraction`` or a
``Sqrt2Rational``, so the digests pin values, not types.  They were
recorded with the object-``Fraction`` implementation of the operators.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from dyadlab.dyadic import sample_system
from dyadlab.exact import Sqrt2Rational, to_text
from dyadlab.shifts import (ShiftSpec, apply_shift, paraproduct,
                            paraproduct_adjoint, petermichl_shift,
                            random_extremal_shift, symmetrize)
from dyadlab.signal import (StepFunction, haar_expand, haar_reconstruct,
                            pairing_integral)

DEPTHS = range(1, 9)
WINDOWS = (-1, 0, 2)
KINDS = ("int", "fraction", "sqrt2")


def leaf_values(rng, shape, kind):
    """Random exact leaf values of one kind, as an object array."""
    size = int(np.prod(shape))
    nums = rng.integers(-40, 41, size=size).tolist()
    if kind == "int":
        vals = nums
    else:
        dens = rng.integers(1, 13, size=size).tolist()
        vals = [Fraction(a, q) for a, q in zip(nums, dens)]
        if kind == "sqrt2":
            # a non-zero sqrt(2) part on every entry
            b_nums = rng.integers(1, 9, size=size) * rng.choice([-1, 1],
                                                                size=size)
            b_dens = rng.integers(1, 7, size=size).tolist()
            vals = [Sqrt2Rational(a, Fraction(b, q)) for a, b, q
                    in zip(vals, b_nums.tolist(), b_dens)]
    out = np.empty(size, dtype=object)
    out[:] = vals
    return out.reshape(shape)


def case_shifts(system, seed):
    """The shifts applied in each case, by name: extremal shifts of each
    complexity the window hosts, their symmetrizations and adjoints,
    Petermichl's shift, a (1, 1) table with the rational amplitude 1/3 and
    a (0, 1) table whose rational amplitude 1/2 leaves sqrt(2) in the
    terms."""
    depth = system.depth
    out = {}
    for m, n in ((0, 0), (0, 1), (1, 0), (1, 2), (2, 2)):
        if max(m, n) + 1 > depth:
            continue
        sh = random_extremal_shift(system, m, n, seed=(seed, m, n))
        out[f"extremal{m}{n}"] = sh
        out[f"symmetrized{m}{n}"] = symmetrize(sh)
        out[f"adjoint{m}{n}"] = sh.adjoint()
    if depth >= 2:
        out["petermichl"] = petermichl_shift(system)
        rng = np.random.default_rng((seed, 9))
        keys = random_extremal_shift(system, 1, 1, seed=0).keys
        out["third11"] = ShiftSpec(system, 1, 1, keys,
                                   rng.integers(-1, 2, size=len(keys)),
                                   Fraction(1, 3))
    keys = random_extremal_shift(system, 0, 1, seed=0).keys if depth >= 2 \
        else np.empty((0, 6))
    rng = np.random.default_rng((seed, 10))
    out["half01"] = ShiftSpec(system, 0, 1, keys,
                              rng.integers(-1, 2, size=len(keys)),
                              Fraction(1, 2))
    return out


def case_outputs(depth, M, d, kind):
    """Every exact operator output of one case, by name."""
    seed = (191, depth, M + 1, d, KINDS.index(kind))
    system = sample_system(seed, depth, M=M)
    rng = np.random.default_rng(seed)
    n = system.n_leaves
    f = StepFunction(system, leaf_values(rng, (n, d), kind))
    g = StepFunction(system, leaf_values(rng, (n, d), kind))
    phi = StepFunction(system, leaf_values(rng, (n, 1), kind))
    mean_f, coeffs_f = haar_expand(f)
    mean_g, coeffs_g = haar_expand(g)
    out = {
        "level_means": np.concatenate([m.ravel() for m in f.level_means]),
        "level_jumps": np.concatenate([j.ravel() for j in f.level_jumps]),
        "haar_expand": np.concatenate(
            [np.ravel(mean_f)] + [np.ravel(level) for level in coeffs_f]),
        # the mean of g under the coefficients of f: not a roundtrip
        "haar_reconstruct": haar_reconstruct(system, mean_g, coeffs_f).values,
        "paraproduct": paraproduct(phi, f).values,
        "paraproduct_adjoint": paraproduct_adjoint(phi, f).values,
        "pairing_integral": np.array([pairing_integral(f, g)], dtype=object),
    }
    for name, shift in case_shifts(system, seed).items():
        out[f"apply_shift:{name}"] = apply_shift(shift, f).values
    return out


def case_digest(outputs):
    h = hashlib.sha256()
    for name in sorted(outputs):
        h.update(name.encode() + b"\n")
        h.update("\n".join(to_text(v) for v in np.ravel(outputs[name]))
                 .encode() + b"\n")
    return h.hexdigest()[:16]


# case_digest(case_outputs(depth, M, d, kind)), recorded with the operators
# that ran on object arrays of Fraction and Sqrt2Rational; keys
# (depth, M, d, kind)
ENGINE_SHA256 = {
    (1, -1, 1, 'int'): "c7e806a5e511b77b",
    (1, -1, 1, 'fraction'): "fc318f54b65d8f26",
    (1, -1, 1, 'sqrt2'): "86b5b1dd45003e03",
    (1, -1, 2, 'int'): "224b696bb47094a2",
    (1, -1, 2, 'fraction'): "469dda9832658a9f",
    (1, -1, 2, 'sqrt2'): "8eaef36b24d1cd52",
    (1, 0, 1, 'int'): "a4df90473604755a",
    (1, 0, 1, 'fraction'): "87c173b12ecd9aed",
    (1, 0, 1, 'sqrt2'): "8243fb7c0ddea4e0",
    (1, 0, 2, 'int'): "0034dd91de7e5610",
    (1, 0, 2, 'fraction'): "e74cf0151815fc09",
    (1, 0, 2, 'sqrt2'): "1601061cdf8d56fd",
    (1, 2, 1, 'int'): "bb6742fe4aaa951e",
    (1, 2, 1, 'fraction'): "8a332dbf95711ebc",
    (1, 2, 1, 'sqrt2'): "bb98f900a85ce599",
    (1, 2, 2, 'int'): "cb853c1a8cb82562",
    (1, 2, 2, 'fraction'): "304f51f8139de257",
    (1, 2, 2, 'sqrt2'): "5e5a1bd748ce8d2d",
    (2, -1, 1, 'int'): "ab7a359f3495ee9d",
    (2, -1, 1, 'fraction'): "f42c56348e76b18b",
    (2, -1, 1, 'sqrt2'): "cfcac1831eb50bd7",
    (2, -1, 2, 'int'): "10ad5d794f0abfbf",
    (2, -1, 2, 'fraction'): "3fcb3c89706d47cb",
    (2, -1, 2, 'sqrt2'): "8c4b1a2a54cf8f64",
    (2, 0, 1, 'int'): "66813e1276de4c10",
    (2, 0, 1, 'fraction'): "2c01e8c52cce9268",
    (2, 0, 1, 'sqrt2'): "8749f47d9d4fa8d8",
    (2, 0, 2, 'int'): "a6e81d98eafdcb85",
    (2, 0, 2, 'fraction'): "15ae8edd46f22539",
    (2, 0, 2, 'sqrt2'): "08c0587d1bca02ec",
    (2, 2, 1, 'int'): "2620542113f96359",
    (2, 2, 1, 'fraction'): "4db5bd96832a07a6",
    (2, 2, 1, 'sqrt2'): "ff3d12f8d91bcece",
    (2, 2, 2, 'int'): "a5c0a74ee27903c0",
    (2, 2, 2, 'fraction'): "459dd93cf561459c",
    (2, 2, 2, 'sqrt2'): "5e5c839b9040c360",
    (3, -1, 1, 'int'): "1d22dcf80ff5b10a",
    (3, -1, 1, 'fraction'): "99de2af0ec69b7cf",
    (3, -1, 1, 'sqrt2'): "2ca89b5f71b5b9ce",
    (3, -1, 2, 'int'): "d64901f46248b94c",
    (3, -1, 2, 'fraction'): "d1db5fb87d57d22e",
    (3, -1, 2, 'sqrt2'): "aa70fe952307d37b",
    (3, 0, 1, 'int'): "32b9040b71d9cbc0",
    (3, 0, 1, 'fraction'): "ba8a79fd9a820fb7",
    (3, 0, 1, 'sqrt2'): "4314e5e7e90d3266",
    (3, 0, 2, 'int'): "44ae564057dc8b8b",
    (3, 0, 2, 'fraction'): "ddea2508f4136806",
    (3, 0, 2, 'sqrt2'): "8d3ae74bea5ff643",
    (3, 2, 1, 'int'): "573125aba4e1e866",
    (3, 2, 1, 'fraction'): "d16f882ebd337d2e",
    (3, 2, 1, 'sqrt2'): "e3c6d93338018cc9",
    (3, 2, 2, 'int'): "472c08d74e52108c",
    (3, 2, 2, 'fraction'): "aa5a69b7a01e3f9e",
    (3, 2, 2, 'sqrt2'): "77890b906ee6525c",
    (4, -1, 1, 'int'): "41438526f4208e6d",
    (4, -1, 1, 'fraction'): "62f1e51d239686cc",
    (4, -1, 1, 'sqrt2'): "2055189b980bc6ab",
    (4, -1, 2, 'int'): "f4da6d1f7df4f455",
    (4, -1, 2, 'fraction'): "e53b55dc18bd09dd",
    (4, -1, 2, 'sqrt2'): "f37bf15106cf2bc6",
    (4, 0, 1, 'int'): "6c2bad0a97c277b2",
    (4, 0, 1, 'fraction'): "915acbdbb317910c",
    (4, 0, 1, 'sqrt2'): "e24f7ee3c77e9c80",
    (4, 0, 2, 'int'): "def840973f6146b1",
    (4, 0, 2, 'fraction'): "01bfeb130ccc875d",
    (4, 0, 2, 'sqrt2'): "a8980a6509493f23",
    (4, 2, 1, 'int'): "88b22520be759b4c",
    (4, 2, 1, 'fraction'): "086c9a89999a3bf2",
    (4, 2, 1, 'sqrt2'): "a49ed34153f05304",
    (4, 2, 2, 'int'): "7041c7368f947794",
    (4, 2, 2, 'fraction'): "4c1aa8512b6bc588",
    (4, 2, 2, 'sqrt2'): "ccd6cbbf171f6be1",
    (5, -1, 1, 'int'): "51de88c504ddb8e9",
    (5, -1, 1, 'fraction'): "92c93bd0ddede467",
    (5, -1, 1, 'sqrt2'): "25b52d624b91585c",
    (5, -1, 2, 'int'): "d6135f86804cd1e8",
    (5, -1, 2, 'fraction'): "0822181e0531f100",
    (5, -1, 2, 'sqrt2'): "c10bb66bf3ab392c",
    (5, 0, 1, 'int'): "d2a66d3192975709",
    (5, 0, 1, 'fraction'): "3c739e6e476d0537",
    (5, 0, 1, 'sqrt2'): "9f82bcb5d8452348",
    (5, 0, 2, 'int'): "e53a9ee470fca050",
    (5, 0, 2, 'fraction'): "d95de137974b01d2",
    (5, 0, 2, 'sqrt2'): "e06b50aa6508fb34",
    (5, 2, 1, 'int'): "89c602b4ab294605",
    (5, 2, 1, 'fraction'): "51da2eb6d8400433",
    (5, 2, 1, 'sqrt2'): "709a96fe065e0381",
    (5, 2, 2, 'int'): "e7c6216b863f9c4b",
    (5, 2, 2, 'fraction'): "96f3863ce91923d2",
    (5, 2, 2, 'sqrt2'): "7e2b4a06b1255cbe",
    (6, -1, 1, 'int'): "e25489adb7965a1d",
    (6, -1, 1, 'fraction'): "c4e0a689e0228688",
    (6, -1, 1, 'sqrt2'): "9b34f22582294a28",
    (6, -1, 2, 'int'): "665f2da69e0b9a95",
    (6, -1, 2, 'fraction'): "e9f69990aab4be91",
    (6, -1, 2, 'sqrt2'): "74327b9ef3fd160b",
    (6, 0, 1, 'int'): "46330853ec87e662",
    (6, 0, 1, 'fraction'): "5d456170aaf8a0fb",
    (6, 0, 1, 'sqrt2'): "2ac1559c820973a7",
    (6, 0, 2, 'int'): "684bdb3f64d77ec1",
    (6, 0, 2, 'fraction'): "22e73f6fc7d3348a",
    (6, 0, 2, 'sqrt2'): "55446ed3e2c23d84",
    (6, 2, 1, 'int'): "3c2892ad12403a7f",
    (6, 2, 1, 'fraction'): "abbfedfcd29905d2",
    (6, 2, 1, 'sqrt2'): "63dc1c121cfc117a",
    (6, 2, 2, 'int'): "95ac1b4055be7b85",
    (6, 2, 2, 'fraction'): "1fad0e6ea394cb23",
    (6, 2, 2, 'sqrt2'): "8f186c21c315454d",
    (7, -1, 1, 'int'): "42a121fa49df8e22",
    (7, -1, 1, 'fraction'): "44ad8d5a1f9d6e87",
    (7, -1, 1, 'sqrt2'): "91fad2e6719af24e",
    (7, -1, 2, 'int'): "bb8d34498f2b2799",
    (7, -1, 2, 'fraction'): "866f757e58087346",
    (7, -1, 2, 'sqrt2'): "2cc77fa555244e2d",
    (7, 0, 1, 'int'): "68758378ee686365",
    (7, 0, 1, 'fraction'): "5d5ed238b29dedf8",
    (7, 0, 1, 'sqrt2'): "2b911f661fc9c70c",
    (7, 0, 2, 'int'): "2a56bf36e9b477f9",
    (7, 0, 2, 'fraction'): "a3779ea688ba554e",
    (7, 0, 2, 'sqrt2'): "c96486d36d6ff200",
    (7, 2, 1, 'int'): "3bc7e94598cc363d",
    (7, 2, 1, 'fraction'): "548d3b12767e9784",
    (7, 2, 1, 'sqrt2'): "1b785be516eed270",
    (7, 2, 2, 'int'): "73bcc2e249b0417e",
    (7, 2, 2, 'fraction'): "225a770b3f4e4fd7",
    (7, 2, 2, 'sqrt2'): "217509bd0e2a0935",
    (8, -1, 1, 'int'): "4cc40ad889593dcd",
    (8, -1, 1, 'fraction'): "613e436d5267046e",
    (8, -1, 1, 'sqrt2'): "1ab1dbb4b4535c05",
    (8, -1, 2, 'int'): "ba8af1721b00114d",
    (8, -1, 2, 'fraction'): "dcccf469de210cec",
    (8, -1, 2, 'sqrt2'): "1db0091c54fc56b5",
    (8, 0, 1, 'int'): "5b4e2b3e3828d999",
    (8, 0, 1, 'fraction'): "1f877e815aecf81b",
    (8, 0, 1, 'sqrt2'): "5658cb9b7f37a65e",
    (8, 0, 2, 'int'): "4144c93857fc6a4d",
    (8, 0, 2, 'fraction'): "b71e2fd17104432a",
    (8, 0, 2, 'sqrt2'): "9eb52927ddc1ec11",
    (8, 2, 1, 'int'): "47f82e3d1485f098",
    (8, 2, 1, 'fraction'): "8ce07135caff84f6",
    (8, 2, 1, 'sqrt2'): "3602aca8cd5f7be6",
    (8, 2, 2, 'int'): "7f4a6a20071035ed",
    (8, 2, 2, 'fraction'): "f60abf626bcbb28f",
    (8, 2, 2, 'sqrt2'): "84c7c3c790a2fd80",
}


CASES = [(depth, M, d, kind) for depth in DEPTHS for M in WINDOWS
         for d in (1, 2) for kind in KINDS]


@pytest.mark.parametrize("depth", DEPTHS)
def test_exact_operators_are_frozen_on_the_grid(depth):
    for case in CASES:
        if case[0] == depth:
            assert case_digest(case_outputs(*case)) == ENGINE_SHA256[case], \
                case


@pytest.mark.parametrize("kind", KINDS)
def test_exact_outputs_are_in_normal_form(kind):
    """Every exact output entry is a ``Fraction`` when its sqrt(2) part is
    0 and a ``Sqrt2Rational`` with a non-zero sqrt(2) part otherwise."""
    seen = set()
    for M in WINDOWS:
        for name, values in case_outputs(5, M, 2, kind).items():
            if name == "level_means":
                continue  # its last level is the leaf values as given
            for v in np.ravel(values):
                seen.add(type(v))
                assert type(v) is Fraction or (
                    type(v) is Sqrt2Rational and v.b != 0), (name, v)
    assert seen == {Fraction, Sqrt2Rational}


def record():
    """Print the digest table (run on the reference implementation)."""
    for case in CASES:
        print(f"    {case!r}: \"{case_digest(case_outputs(*case))}\",")


if __name__ == "__main__":
    record()
