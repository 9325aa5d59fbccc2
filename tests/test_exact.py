"""Tests for exact arithmetic in Q(sqrt(2))."""

from fractions import Fraction

import numpy as np
import pytest

from dyadlab.exact import ROOT2, Sqrt2Rational, sqrt2_pow

N_FUZZ = 200


def test_root2_squares_to_two():
    assert ROOT2 * ROOT2 == 2
    assert ROOT2 ** 2 == 2
    assert ROOT2 ** 0 == 1


def test_reciprocal_of_root2():
    inv = 1 / ROOT2
    assert inv == ROOT2 / 2
    assert inv * ROOT2 == 1


def test_sqrt2_pow_even_and_odd():
    assert sqrt2_pow(0) == 1
    assert sqrt2_pow(2) == 2
    assert sqrt2_pow(4) == 4
    assert sqrt2_pow(1) == ROOT2
    assert sqrt2_pow(3) == 2 * ROOT2
    assert sqrt2_pow(-2) == Fraction(1, 2)
    assert sqrt2_pow(-1) == ROOT2 / 2
    for n in range(-9, 10):
        assert sqrt2_pow(n) * sqrt2_pow(-n) == 1
        assert sqrt2_pow(n) * sqrt2_pow(n) == Fraction(2) ** n


def test_mixed_sign_ordering():
    # both coefficients positive / negative are the easy cases; the mixed
    # cases compare a^2 against 2 b^2
    assert Sqrt2Rational(1, 1) > 2
    assert Sqrt2Rational(-1, 1) > 0          # sqrt(2) - 1
    assert Sqrt2Rational(3, -2) > 0          # 3 - 2 sqrt(2) = 0.171...
    assert Sqrt2Rational(-3, 2) < 0
    assert Sqrt2Rational(7, -5) < 0          # 7 - 5 sqrt(2) = -0.071...
    assert Sqrt2Rational(-7, 5) > 0
    assert ROOT2 > Fraction(7, 5)
    assert ROOT2 < Fraction(3, 2)


def test_abs_and_negation():
    x = Sqrt2Rational(7, -5)
    assert abs(x) == -x
    assert abs(-x) == abs(x)
    assert abs(Sqrt2Rational(0)) == 0


def test_hash_matches_rational_embedding():
    assert hash(Sqrt2Rational(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(Sqrt2Rational(5)) == hash(Fraction(5))
    d = {Sqrt2Rational(1, 1): "a"}
    assert d[Sqrt2Rational(1, 1)] == "a"


def test_bool_and_zero():
    assert not Sqrt2Rational(0, 0)
    assert Sqrt2Rational(0, 1)
    x = Sqrt2Rational(Fraction(2, 3), Fraction(-1, 7))
    assert x - x == 0


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ROOT2 / Sqrt2Rational(0)


def test_field_axioms_random():
    rng = np.random.default_rng(0)
    for _ in range(N_FUZZ):
        nums = rng.integers(-12, 13, size=4)
        x = Sqrt2Rational(Fraction(int(nums[0]), 3), Fraction(int(nums[1]), 5))
        y = Sqrt2Rational(Fraction(int(nums[2]), 7), Fraction(int(nums[3]), 2))
        assert x + y == y + x
        assert x * y == y * x
        assert x * (y + 1) == x * y + x
        if y != 0:
            assert (x / y) * y == x
        # float image is a homomorphism up to roundoff
        assert float(x * y) == pytest.approx(float(x) * float(y), abs=1e-9)
        assert float(x + y) == pytest.approx(float(x) + float(y), abs=1e-12)


def test_power_matches_repeated_product():
    x = Sqrt2Rational(Fraction(1, 2), Fraction(1, 3))
    acc = Sqrt2Rational(1)
    for e in range(8):
        assert x ** e == acc
        acc = acc * x
    with pytest.raises(TypeError):
        x ** -1  # negative powers are not defined on this type


def test_coercion_rejects_floats():
    assert Sqrt2Rational._coerce(0.5) is None
    assert (ROOT2 == "two") is False
