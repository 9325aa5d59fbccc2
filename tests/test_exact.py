"""Tests for exact arithmetic in Q(sqrt(2))."""

import operator
from fractions import Fraction

import numpy as np
import pytest

from dyadlab.exact import Sqrt2Rational, sqrt2_pow

ROOT2 = Sqrt2Rational(0, 1)

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


OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
             "/": operator.truediv}


def parts(x):
    """``(a, b)`` of an exact number or of a rational read as ``a + 0*r2``."""
    if isinstance(x, Sqrt2Rational):
        return x.a, x.b
    return Fraction(x), Fraction(0)


def field_results(x, y):
    """``x op y`` by the componentwise formulas of Q(sqrt(2)); no "/" when
    ``y`` is 0."""
    (a, b), (c, d) = parts(x), parts(y)
    out = {"+": (a + c, b + d), "-": (a - c, b - d),
           "*": (a * c + 2 * b * d, a * d + b * c)}
    den = c * c - 2 * d * d
    if den:
        out["/"] = ((a * c - 2 * b * d) / den, (b * c - a * d) / den)
    return out


def random_operand(rng, kind):
    """Small parts, so that zeros, equal operands and integers are common."""
    a, b = (Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
            for _ in range(2))
    return {"root": Sqrt2Rational(a, b), "rational": Sqrt2Rational(a),
            "fraction": a, "int": int(rng.integers(-3, 4)),
            "bool": bool(rng.integers(0, 2))}[kind]


def test_operators_match_field_formulas_random():
    """Every operator and its reflected form, over exact, Fraction, int and
    bool operands: the parts equal the field formulas and are Fractions,
    ``==`` is componentwise, ``hash`` agrees with Fraction and int, and a
    zero divisor raises."""
    rng = np.random.default_rng(1)
    kinds = ("root", "rational", "fraction", "int", "bool")
    for _ in range(N_FUZZ):
        x = random_operand(rng, kinds[int(rng.integers(0, 2))])
        y = random_operand(rng, kinds[int(rng.integers(0, len(kinds)))])
        for left, right in ((x, y), (y, x)):
            want = field_results(left, right)
            for name, op in OPERATORS.items():
                if name not in want:
                    with pytest.raises(ZeroDivisionError):
                        op(left, right)
                    continue
                got = op(left, right)
                assert isinstance(got, Sqrt2Rational)
                assert type(got.a) is Fraction and type(got.b) is Fraction
                assert (got.a, got.b) == want[name], (left, name, right)
            assert (left == right) is (parts(left) == parts(right))
            assert (left != right) is (parts(left) != parts(right))
            if left == right:
                assert hash(left) == hash(right)
        for z in (-x, abs(x), x ** 3):
            assert type(z.a) is Fraction and type(z.b) is Fraction
        if x.b == 0:
            assert x == x.a and hash(x) == hash(x.a)
            if x.a.denominator == 1:
                assert x == int(x.a) and hash(x) == hash(int(x.a))


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_float_operands_raise(name):
    op = OPERATORS[name]
    for x in (ROOT2, Sqrt2Rational(3)):
        with pytest.raises(TypeError):
            op(x, 0.5)
        with pytest.raises(TypeError):
            op(0.5, x)
