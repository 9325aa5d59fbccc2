"""Float Haar operators on a grid of windows and magnitudes, frozen by bytes.

The float twin of ``test_exact_engine.py``: each case draws float64 leaf
values of one magnitude on a window of depth 1-8 and length ``2**M``, runs
every Haar operator on them, and hashes the raw bytes of all outputs, so a
change in any bit of any output shows.  The digests were recorded with the
float operators that ran on a pyramid of pairwise means.
"""

import hashlib

import numpy as np
import pytest

from dyadlab.dyadic import sample_system
from dyadlab.shifts import apply_shift, paraproduct, paraproduct_adjoint
from dyadlab.signal import (StepFunction, haar_expand, haar_reconstruct,
                            pairing_integral, pointwise_product)
from test_exact_engine import case_shifts

DEPTHS = range(1, 9)
WINDOWS = (-1, 0, 2)
MAGNITUDES = (1e-5, 1.0, 1e5)


def case_outputs(depth, M, d, magnitude):
    """Every float operator output of one case, by name."""
    seed = (193, depth, M + 1, d, MAGNITUDES.index(magnitude))
    system = sample_system(seed, depth, M=M)
    rng = np.random.default_rng(seed)
    n = system.n_leaves

    def leaves(width):
        return StepFunction(system, magnitude * rng.uniform(-1, 1, (n, width)))

    f, g, phi = leaves(d), leaves(d), leaves(1)
    mean_f, coeffs_f = haar_expand(f)
    mean_g, _ = haar_expand(g)
    out = {
        "level_means": np.concatenate([m.ravel() for m in f.level_means]),
        "level_jumps": np.concatenate([j.ravel() for j in f.level_jumps]),
        "haar_expand": np.concatenate(
            [np.ravel(mean_f)] + [np.ravel(level) for level in coeffs_f]),
        # the mean of g under the coefficients of f: not a roundtrip
        "haar_reconstruct": haar_reconstruct(system, mean_g, coeffs_f).values,
        "paraproduct": paraproduct(phi, f).values,
        "paraproduct_adjoint": paraproduct_adjoint(phi, f).values,
        "pairing_integral": np.array([pairing_integral(f, g)]),
        "pointwise_product": pointwise_product(phi, f).values,
    }
    for name, shift in case_shifts(system, seed).items():
        out[f"apply_shift:{name}"] = apply_shift(shift, f).values
    return out


def case_digest(outputs):
    h = hashlib.sha256()
    for name in sorted(outputs):
        values = outputs[name]
        assert values.dtype == np.float64, name
        h.update(name.encode() + b"\n" + values.tobytes())
    return h.hexdigest()[:16]


# case_digest(case_outputs(depth, M, d, magnitude)), recorded with the float
# operators on a pyramid of pairwise means; keys (depth, M, d, magnitude)
FLOAT_ENGINE_SHA256 = {
    (1, -1, 1, 1e-05): "d395ecd223289d82",
    (1, -1, 1, 1.0): "997228dae3a127c5",
    (1, -1, 1, 100000.0): "fb359dfe3ee0143b",
    (1, -1, 2, 1e-05): "87b835813910784e",
    (1, -1, 2, 1.0): "7d56d9748088c5a8",
    (1, -1, 2, 100000.0): "84e9768646303549",
    (1, 0, 1, 1e-05): "f7aef80a5f37b647",
    (1, 0, 1, 1.0): "452b5c5f51c1ddea",
    (1, 0, 1, 100000.0): "f603d9027df01f82",
    (1, 0, 2, 1e-05): "ebb719d6eb1bd2d8",
    (1, 0, 2, 1.0): "322744e90caad55b",
    (1, 0, 2, 100000.0): "7759c851c7c84e8a",
    (1, 2, 1, 1e-05): "bd9cf2c347530a03",
    (1, 2, 1, 1.0): "55c314c52b176a90",
    (1, 2, 1, 100000.0): "b760c4cb4c8b5402",
    (1, 2, 2, 1e-05): "30aba34aaf086125",
    (1, 2, 2, 1.0): "a813dcfc16b615c0",
    (1, 2, 2, 100000.0): "64421644fe90f69a",
    (2, -1, 1, 1e-05): "ee612deca2a12e74",
    (2, -1, 1, 1.0): "0be3d227c4210493",
    (2, -1, 1, 100000.0): "e677e01fa1bef97d",
    (2, -1, 2, 1e-05): "f761323fd47c4173",
    (2, -1, 2, 1.0): "e5f7a428902e029e",
    (2, -1, 2, 100000.0): "367820021192543c",
    (2, 0, 1, 1e-05): "01638c23e5baf577",
    (2, 0, 1, 1.0): "d4845e0abb5b7ef6",
    (2, 0, 1, 100000.0): "6dde0b049c70f540",
    (2, 0, 2, 1e-05): "f7f9e47330e9f39a",
    (2, 0, 2, 1.0): "6f3480eeea50e9c3",
    (2, 0, 2, 100000.0): "a1c4eebf2a112bb8",
    (2, 2, 1, 1e-05): "30f0d8b00ac00cc5",
    (2, 2, 1, 1.0): "e06982831d0661b1",
    (2, 2, 1, 100000.0): "747955cccce52cbf",
    (2, 2, 2, 1e-05): "11ff849b74c99b87",
    (2, 2, 2, 1.0): "0493a6b2d7c52a60",
    (2, 2, 2, 100000.0): "6758c6b031123e88",
    (3, -1, 1, 1e-05): "c15bc52c3bece0fa",
    (3, -1, 1, 1.0): "9d8c10e17c1ef27e",
    (3, -1, 1, 100000.0): "16d65c2177515cba",
    (3, -1, 2, 1e-05): "560c340997d6145a",
    (3, -1, 2, 1.0): "c5e4f80d625ef370",
    (3, -1, 2, 100000.0): "3cb4d748952f289c",
    (3, 0, 1, 1e-05): "86848a7ec2ac74cd",
    (3, 0, 1, 1.0): "87460fcaebe7cec5",
    (3, 0, 1, 100000.0): "6f1adb7afcbd1908",
    (3, 0, 2, 1e-05): "cd1dd2fc224f76e8",
    (3, 0, 2, 1.0): "26108f7ac0d3bd9f",
    (3, 0, 2, 100000.0): "5d8fa079d8f03a9e",
    (3, 2, 1, 1e-05): "f97ca8235537705e",
    (3, 2, 1, 1.0): "312b5970167b1494",
    (3, 2, 1, 100000.0): "5605f4a79cfe865b",
    (3, 2, 2, 1e-05): "f70272a556ecc386",
    (3, 2, 2, 1.0): "7f19f6025f118b15",
    (3, 2, 2, 100000.0): "9e8e686e76c1ab3a",
    (4, -1, 1, 1e-05): "0253dff2ac2a149e",
    (4, -1, 1, 1.0): "9072597e8b6390f4",
    (4, -1, 1, 100000.0): "e7661a58ed1560c5",
    (4, -1, 2, 1e-05): "b7e9dbc719fb4010",
    (4, -1, 2, 1.0): "18d42e9c2ea9cf05",
    (4, -1, 2, 100000.0): "026e0912c234c7be",
    (4, 0, 1, 1e-05): "5719b40dddffbfce",
    (4, 0, 1, 1.0): "370526454ebdb7b3",
    (4, 0, 1, 100000.0): "e95899560c0a411e",
    (4, 0, 2, 1e-05): "a2ae117a5d555be7",
    (4, 0, 2, 1.0): "85f829c3f1d76dba",
    (4, 0, 2, 100000.0): "3a4acfb3080be83d",
    (4, 2, 1, 1e-05): "a164781021d9e6fa",
    (4, 2, 1, 1.0): "242b925588d5e00b",
    (4, 2, 1, 100000.0): "8c9346b36549a9a4",
    (4, 2, 2, 1e-05): "0a7a72e178311c49",
    (4, 2, 2, 1.0): "02b2d4befdf377c9",
    (4, 2, 2, 100000.0): "7e2da3f8832da9b4",
    (5, -1, 1, 1e-05): "4defe63072b010ba",
    (5, -1, 1, 1.0): "88fb2ff59c17b841",
    (5, -1, 1, 100000.0): "2fc73fe3e5b1349f",
    (5, -1, 2, 1e-05): "5bd957139e116715",
    (5, -1, 2, 1.0): "d8e5722172558bd9",
    (5, -1, 2, 100000.0): "f71a0c2deb5dc2ba",
    (5, 0, 1, 1e-05): "9d02a4e2a34cac5f",
    (5, 0, 1, 1.0): "46063fd7a0acdc8d",
    (5, 0, 1, 100000.0): "333c4230690280af",
    (5, 0, 2, 1e-05): "e4c12c49d3dca72f",
    (5, 0, 2, 1.0): "95a485902ffd651b",
    (5, 0, 2, 100000.0): "fe326beed4c70410",
    (5, 2, 1, 1e-05): "a2367d8f206f7c6c",
    (5, 2, 1, 1.0): "1a321fa901708f11",
    (5, 2, 1, 100000.0): "68efa52d8fce9c33",
    (5, 2, 2, 1e-05): "654cb94d1ed15511",
    (5, 2, 2, 1.0): "f630cde296ade348",
    (5, 2, 2, 100000.0): "b944dae3d3e16b29",
    (6, -1, 1, 1e-05): "66a421bc7afc1a24",
    (6, -1, 1, 1.0): "75fd4c987763290d",
    (6, -1, 1, 100000.0): "11aa6a213fc76498",
    (6, -1, 2, 1e-05): "1bc3b5cf40221a3a",
    (6, -1, 2, 1.0): "a4ee0d7c29d59dab",
    (6, -1, 2, 100000.0): "f42d681f2e6ef097",
    (6, 0, 1, 1e-05): "50234e3cfcdb591e",
    (6, 0, 1, 1.0): "b7c3ef316ee38d9a",
    (6, 0, 1, 100000.0): "cfcd549d8aefec24",
    (6, 0, 2, 1e-05): "e93d095997aafce8",
    (6, 0, 2, 1.0): "8ffc30aa04653f17",
    (6, 0, 2, 100000.0): "5e1e970999d43a69",
    (6, 2, 1, 1e-05): "8e7b9a6390994c9d",
    (6, 2, 1, 1.0): "486560e650d4ff09",
    (6, 2, 1, 100000.0): "a6aba4fefab9c17a",
    (6, 2, 2, 1e-05): "a726b765231b1ee0",
    (6, 2, 2, 1.0): "c0dedec0aa185061",
    (6, 2, 2, 100000.0): "7c0e5e873dda1579",
    (7, -1, 1, 1e-05): "ffca7764a0f6b07e",
    (7, -1, 1, 1.0): "df02db30aeacc39c",
    (7, -1, 1, 100000.0): "f6208d06e60c64c5",
    (7, -1, 2, 1e-05): "663e8b33b81d05af",
    (7, -1, 2, 1.0): "a2442abd9222cfaa",
    (7, -1, 2, 100000.0): "aad28aa9b609be4e",
    (7, 0, 1, 1e-05): "b7932ba4048bd6ad",
    (7, 0, 1, 1.0): "23066f3723b39c6e",
    (7, 0, 1, 100000.0): "8245413001e786cb",
    (7, 0, 2, 1e-05): "0e8827a2bdb45e04",
    (7, 0, 2, 1.0): "5bdf5485d81799c8",
    (7, 0, 2, 100000.0): "f7e7b80327f20667",
    (7, 2, 1, 1e-05): "a5570990428c148f",
    (7, 2, 1, 1.0): "120afefd5999a3cc",
    (7, 2, 1, 100000.0): "211452c1edb03276",
    (7, 2, 2, 1e-05): "40d365556ded05e0",
    (7, 2, 2, 1.0): "1946fbd76e3e0fc2",
    (7, 2, 2, 100000.0): "83a30c34808d8b99",
    (8, -1, 1, 1e-05): "4affccae59910bf1",
    (8, -1, 1, 1.0): "706e071ef3dc798a",
    (8, -1, 1, 100000.0): "1a0b051bffaaaade",
    (8, -1, 2, 1e-05): "e982ae2cf166a685",
    (8, -1, 2, 1.0): "7e107846e6efac43",
    (8, -1, 2, 100000.0): "2cc04817ba27cd49",
    (8, 0, 1, 1e-05): "0582620d14bddee3",
    (8, 0, 1, 1.0): "12dfdbd13b256037",
    (8, 0, 1, 100000.0): "a28d57137884c585",
    (8, 0, 2, 1e-05): "04662704bd944ab9",
    (8, 0, 2, 1.0): "638e12d2182b159a",
    (8, 0, 2, 100000.0): "9e4fca7dd9744935",
    (8, 2, 1, 1e-05): "acbfd201982c8b24",
    (8, 2, 1, 1.0): "d6b30a5bea7352a8",
    (8, 2, 1, 100000.0): "8cea35dc2e60720e",
    (8, 2, 2, 1e-05): "3f1dffea9d757851",
    (8, 2, 2, 1.0): "4279d47caeb0122f",
    (8, 2, 2, 100000.0): "8fb61b628be46029",
}


CASES = [(depth, M, d, magnitude) for depth in DEPTHS for M in WINDOWS
         for d in (1, 2) for magnitude in MAGNITUDES]


@pytest.mark.parametrize("depth", DEPTHS)
def test_float_operators_are_frozen_on_the_grid(depth):
    for case in CASES:
        if case[0] == depth:
            assert case_digest(case_outputs(*case)) == \
                FLOAT_ENGINE_SHA256[case], case


def record():
    """Print the digest table (run on the reference implementation)."""
    for case in CASES:
        print(f"    {case!r}: \"{case_digest(case_outputs(*case))}\",")


if __name__ == "__main__":
    record()
