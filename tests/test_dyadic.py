"""Tests for dyadic windows, intervals and random translation bits."""

from fractions import Fraction

import numpy as np
import pytest

from dyadlab.dyadic import (DepthExhaustedError, DyadicError, DyadicSystem,
                            WindowError, sample_system)
from haar_oracle import children

N_SYSTEMS = 1000


def test_construction_validation():
    with pytest.raises(DyadicError):
        DyadicSystem(depth=0)
    with pytest.raises(DyadicError):
        DyadicSystem(depth=3, omega=(1, 0))
    with pytest.raises(DyadicError):
        DyadicSystem(depth=2, omega=(0, 2))
    sys_ = DyadicSystem(depth=3)
    assert sys_.omega == (0, 0, 0)
    assert sys_.origin == 0
    assert sys_.n_leaves == 8
    assert sys_.leaf_width == Fraction(1, 8)


def test_translation_folds_into_origin():
    sys_ = DyadicSystem(base_origin=Fraction(-1), M=0, depth=3,
                        omega=(1, 0, 1))
    # bit at level t shifts by 2**(M - t)
    assert sys_.origin == Fraction(-1) + Fraction(1, 2) + Fraction(1, 8)
    assert sys_.grid_translation(0) == Fraction(5, 8)
    assert sys_.grid_translation(1) == Fraction(1, 8)
    assert sys_.grid_translation(2) == Fraction(1, 8)
    assert sys_.grid_translation(3) == 0
    with pytest.raises(WindowError):
        sys_.grid_translation(4)


def test_interval_geometry():
    sys_ = DyadicSystem(M=2, depth=3)
    root = sys_.interval(0, 0)
    assert root.length == 4
    assert root.left == 0 and root.right == 4
    iv = sys_.interval(2, 3)
    assert iv.length == 1
    assert iv.left == 3 and iv.right == 4
    assert iv.leaf_span == (6, 8)


def test_address_bounds():
    sys_ = DyadicSystem(depth=2)
    with pytest.raises(WindowError):
        sys_.interval(3, 0)
    with pytest.raises(WindowError):
        sys_.interval(1, 2)


def test_children_halve_their_interval():
    sys_ = DyadicSystem(depth=3)
    left, right = children(sys_.interval(0, 0))
    assert (left.level, left.index, right.level, right.index) == (1, 0, 1, 1)
    assert left.right == right.left
    with pytest.raises(DepthExhaustedError):
        children(sys_.interval(3, 0))


def test_level_enumeration():
    sys_ = DyadicSystem(depth=3)
    assert len(sys_.intervals(2)) == 4
    assert len(sys_.intervals(3)) == 8
    nonleaf = sys_.nonleaf_intervals()
    assert len(nonleaf) == 1 + 2 + 4
    assert [iv.level for iv in nonleaf] == [0, 1, 1, 2, 2, 2, 2]


def test_sampled_systems_share_one_translation_law():
    """Realized geometry of many random systems against the stated law.

    For every sampled system: the origin equals the base plus the sum of
    the triggered per-level shifts; each level partitions the window
    contiguously; finer grids refine coarser ones; and flipping the bit of
    level t moves every grid coarser than t by exactly 2**(M - t) while
    leaving the leaf lattice positions of finer levels unchanged.
    """
    rng = np.random.default_rng(12345)
    for case in range(N_SYSTEMS):
        depth = int(rng.integers(1, 6))
        M = int(rng.integers(-2, 4))
        base = Fraction(int(rng.integers(-8, 9)), 4)
        sys_ = sample_system((777, case), depth, M=M, base_origin=base)

        shift_sum = sum((Fraction(2) ** (M - t) for t in range(1, depth + 1)
                         if sys_.omega[t - 1]), Fraction(0))
        assert sys_.origin == base + shift_sum

        for lev in range(depth + 1):
            ivs = sys_.intervals(lev)
            assert ivs[0].left == sys_.origin
            assert ivs[-1].right == sys_.origin + sys_.window_length
            for a, b in zip(ivs, ivs[1:]):
                assert a.right == b.left

        for iv in sys_.nonleaf_intervals():
            lt, rt = children(iv)
            assert lt.left == iv.left
            assert lt.right == rt.left
            assert rt.right == iv.right

        t_flip = int(rng.integers(1, depth + 1))
        bits = list(sys_.omega)
        bits[t_flip - 1] ^= 1
        flipped = DyadicSystem(base_origin=base, M=M, depth=depth,
                               omega=tuple(bits))
        delta = Fraction(2) ** (M - t_flip)
        sign = 1 if bits[t_flip - 1] else -1
        for lev in range(depth + 1):
            moved = flipped.interval(lev, 0).left - sys_.interval(lev, 0).left
            if lev < t_flip:
                assert moved == sign * delta
            else:
                # finer grids absorb the shift into their own lattice
                assert moved % flipped.interval(lev, 0).length == 0


def test_sample_system_rejects_depth_below_one():
    for depth in (0, -1):
        with pytest.raises(DyadicError):
            sample_system(0, depth)


def test_sample_system_is_deterministic():
    a = sample_system((3, 4), depth=5, M=1)
    b = sample_system((3, 4), depth=5, M=1)
    assert a == b
    c = sample_system((3, 5), depth=5, M=1)
    assert a != c or a.omega == c.omega  # distinct streams may collide rarely


def test_json_roundtrip():
    sys_ = DyadicSystem(base_origin=Fraction(-3, 2), M=1, depth=4,
                        omega=(1, 0, 0, 1))
    data = sys_.to_json_dict()
    assert data["omega_bits"] == [1, 0, 0, 1]
    assert DyadicSystem.from_json_dict(data) == sys_
