"""Exact scalar arithmetic: quadratic extensions, guarded floors, JSON forms."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from larg_lab.exact import (
    FLOAT,
    FLOAT_INTEGER_GUARD,
    BoundaryAmbiguityError,
    SqrtExt,
    close,
    field_of,
    format_scalar,
    fractional_part,
    guarded_floor,
    is_exact,
    join_fields,
    parse_scalar,
    surd_ints,
    surd_value,
)

SQRT2 = SqrtExt(0, 1, 2)


def test_rejects_square_radicand():
    with pytest.raises(ValueError):
        SqrtExt(1, 1, 4)
    with pytest.raises(ValueError):
        SqrtExt(1, 1, 0)


def test_zero_irrational_part_rejected_and_collapsed():
    with pytest.raises(ValueError):
        SqrtExt(3, 0, 2)
    assert SqrtExt.make(3, 0, 2) == Fraction(3)
    assert isinstance(SqrtExt.make(3, 0, 2), Fraction)


def test_field_identities():
    x = SqrtExt(Fraction(1, 3), Fraction(2, 5), 2)
    y = SqrtExt(-2, 7, 2)
    assert (x + y) - y == x
    assert (x * y) / y == x
    assert x * (1 / x) == 1
    # collapse when the sqrt parts cancel
    assert isinstance((x - x) + 1, (int, Fraction))
    assert SQRT2 * SQRT2 == 2


def test_mixed_rational_arithmetic():
    r = SQRT2 - 1
    assert 1 + r == SQRT2
    assert (r + Fraction(1, 2)) - Fraction(1, 2) == r
    assert 2 / SQRT2 == SQRT2


def test_ordering_matches_float():
    vals = [
        SqrtExt(1, -1, 2),  # 1 - sqrt2 < 0
        SqrtExt(0, 1, 2),
        SqrtExt(3, -2, 2),  # 3 - 2*sqrt2 ~ 0.1716
        Fraction(1, 2),
        SqrtExt(-1, 1, 2),
    ]
    by_exact = sorted(vals)
    by_float = sorted(vals, key=float)
    assert [float(v) for v in by_exact] == [float(v) for v in by_float]
    assert (SQRT2 > Fraction(141421356, 100000000)) is True
    assert (SQRT2 < Fraction(141421357, 100000000)) is True


def test_sign_near_zero_is_exact():
    # 99/70 is a convergent of sqrt2; differences are tiny but sign is exact
    tight = SQRT2 - Fraction(99, 70)
    assert tight < 0
    assert SQRT2 - Fraction(140, 99) > 0


def test_floor_including_near_integer_cases():
    r = SQRT2 - 1
    for z1 in range(-30, 31):
        for z2 in range(-3, 4):
            v = z1 * r + z2
            assert math.floor(v) == math.floor(float(z1) * (math.sqrt(2) - 1) + z2)
    # values a hair from integers: 99/70 > sqrt2 > 140/99, both within 1e-4
    assert math.floor(5 * (Fraction(99, 70) - SQRT2) + 3) == 3
    assert math.floor(5 * (Fraction(140, 99) - SQRT2) + 3) == 2


def test_hash_and_set_dedup():
    s = {SQRT2, SqrtExt(0, 1, 2), SQRT2 + 1 - 1, Fraction(1), SqrtExt.make(1, 0, 2)}
    assert len(s) == 2


def test_abs_and_fractional_part():
    assert abs(SqrtExt(1, -1, 2)) == SQRT2 - 1
    f = fractional_part(SQRT2)
    assert f == SQRT2 - 1
    assert fractional_part(Fraction(7, 3)) == Fraction(1, 3)
    assert abs(fractional_part(2.75) - 0.75) < 1e-15


def test_float_of_cancelling_parts():
    # the parts of (sqrt2 - 1)^k grow like (1 + sqrt2)^k / 2 and cancel down
    # to (1 + sqrt2)^-k; its product with (sqrt2 + 1)^k, whose parts share a
    # sign, is exactly 1, and 1 - (sqrt2 - 1)^k lies below 1
    down = up = Fraction(1)
    for _ in range(60):
        down = down * (SQRT2 - 1)
        up = up * (SQRT2 + 1)
        assert float(down) * float(up) == pytest.approx(1.0, rel=1e-14)
        assert float(1 - down) <= 1.0 and math.floor(1 - down) == 0


def test_guarded_floor_refuses_near_integers():
    assert guarded_floor(2.5) == 2
    assert guarded_floor(Fraction(2)) == 2  # exact integers are fine
    with pytest.raises(BoundaryAmbiguityError):
        guarded_floor(3.0)
    with pytest.raises(BoundaryAmbiguityError):
        guarded_floor(2.0 - FLOAT_INTEGER_GUARD / 2)


def test_is_exact_partition():
    assert is_exact(1) and is_exact(Fraction(1, 2)) and is_exact(SQRT2)
    assert not is_exact(1.0)


def test_scalar_json_round_trip():
    assert format_scalar(Fraction(-3, 7)) == "-3/7"
    assert format_scalar(5) == "5/1"
    assert parse_scalar("-3/7") == Fraction(-3, 7)
    assert parse_scalar(0.25) == 0.25
    assert isinstance(parse_scalar(2), float)


@settings(max_examples=80, deadline=None)
@given(
    st.fractions(max_denominator=10**12),
    st.fractions(max_denominator=10**12).filter(lambda q: q != 0),
    st.sampled_from([2, 3, 5, 7, 10**6 + 3]),
)
def test_scalar_json_round_trip_over_sqrt_fields(a, b, d):
    x = SqrtExt(a, b, d)
    text = format_scalar(x)
    assert text == f"{a.numerator}/{a.denominator}+{b.numerator}/{b.denominator}*sqrt({d})"
    back = parse_scalar(text)
    assert type(back) is SqrtExt and back == x and (back.a, back.b, back.d) == (a, b, d)


def test_malformed_scalar_strings_raise_value_error():
    assert format_scalar(SqrtExt(Fraction(1, 2), Fraction(-3, 4), 2)) == "1/2+-3/4*sqrt(2)"
    for text in ("1/0", "x", "1/2+*sqrt(2)", "1/2+1/0*sqrt(2)", "1/2+0/1*sqrt(2)", "1/1+1/1*sqrt(4)", "1/1+1/1*sqrt(-2)"):
        with pytest.raises(ValueError):
            parse_scalar(text)


def test_close_is_exact_for_exact_values_and_guarded_for_floats():
    assert close(Fraction(1, 3), Fraction(1, 3)) and close(SQRT2, SqrtExt(0, 1, 2))
    assert not close(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**12))
    assert not close(SQRT2, SqrtExt(0, 1, 3))
    assert close(1.0, 1.0 + FLOAT_INTEGER_GUARD / 2) and not close(1.0, 1.0 + 2 * FLOAT_INTEGER_GUARD)
    # the tolerance scales, and an exact value beside a float compares in float
    assert close(1000.0, 1000.0 + 500 * FLOAT_INTEGER_GUARD, 1000)
    assert close(Fraction(1, 3), 1 / 3) and close(SQRT2, math.sqrt(2))


def test_field_tags_and_joins():
    assert field_of([], ValueError) == 0
    assert field_of([1, Fraction(1, 3)], ValueError) == 0
    assert field_of([Fraction(1, 3), SQRT2, 2 * SQRT2], ValueError) == 2
    assert field_of([1, 0.5, Fraction(1, 3)], ValueError) == FLOAT  # floats absorb Q
    for a in (0, 2, FLOAT):
        assert join_fields(a, a, ValueError) == a
        assert join_fields(a, 0, ValueError) == join_fields(0, a, ValueError) == a
    for a, b, message in (
        (FLOAT, 2, "a float and a SqrtExt have no common field"),
        (3, 2, "radicands [2, 3] have no common field"),
    ):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(KeyError, match=re.escape(message)):
                join_fields(x, y, KeyError)
    with pytest.raises(KeyError, match="float"):
        field_of([SQRT2, 1, 0.5], KeyError)
    with pytest.raises(KeyError, match=re.escape("radicands [2, 5]")):
        field_of([SqrtExt(1, 1, 5), 1, SQRT2], KeyError)


# ---------------------------------------------------------------------------
# properties of Q(sqrt d) against an integer oracle


def integer_form(x, d):
    """x = a + b*sqrt(d) as ints (P, R, Q), Q > 0: x = (P + R*sqrt(d)) / Q."""
    a, b = (x.a, x.b) if isinstance(x, SqrtExt) else (Fraction(x), Fraction(0))
    q = math.lcm(a.denominator, b.denominator)
    return int(a * q), int(b * q), q


def oracle_floor(x, d, scale=1):
    """floor(scale * x) for a power-of-two scale, by the integer floor rule:
    floor((P + R*sqrt(d)) / Q) = (P + f) // Q with f = floor(R*sqrt(d))."""
    p, r, q = integer_form(x, d)
    p, r = p * scale, r * scale
    if r == 0:
        return p // q
    f = math.isqrt(r * r * d)
    return (p + (f if r > 0 else -f - 1)) // q


def oracle_sign(x, d) -> int:
    p, r, _ = integer_form(x, d)
    if r == 0:
        return (p > 0) - (p < 0)
    # irrational: x >= floor(x) >= 0 means x > 0, floor(x) <= -1 means x < 0
    return 1 if oracle_floor(x, d) >= 0 else -1


RADICANDS = st.sampled_from([2, 3, 5, 7, 13])
PARTS = st.fractions(min_value=-60, max_value=60, max_denominator=40)


@st.composite
def field_elements(draw, count):
    d = draw(RADICANDS)
    vals = []
    for _ in range(count):
        a = draw(PARTS)
        b = draw(st.one_of(st.just(Fraction(0)), PARTS))
        vals.append(SqrtExt.make(a, b, d))
    return d, vals


@settings(max_examples=200, deadline=None)
@given(field_elements(3))
def test_sqrt_ext_field_axioms(problem):
    _, (x, y, z) = problem
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == 0 and x - y == x + (-y)
    assert x * 1 == x and x + 0 == x
    if y != 0:
        assert (x / y) * y == x
        assert y * (1 / y) == 1
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


@settings(max_examples=200, deadline=None)
@given(field_elements(3))
def test_sqrt_ext_order_axioms(problem):
    d, (x, y, z) = problem
    # total: exactly one of <, ==, >, and it agrees with the oracle's sign
    assert [x < y, x == y, x > y].count(True) == 1
    s = oracle_sign(x - y, d)
    assert (x < y, x == y, x > y) == (s < 0, s == 0, s > 0)
    assert (x <= y) == (s <= 0) and (x >= y) == (s >= 0)
    if x < y and y < z:
        assert x < z
    if x < y:
        assert x + z < y + z
        if z > 0:
            assert x * z < y * z
        if z < 0:
            assert x * z > y * z


@settings(max_examples=300, deadline=None)
@given(field_elements(1), st.integers(-40, 40))
def test_sqrt_ext_floor_and_float_match_integer_oracle(problem, shift):
    d, (x,) = problem
    # cancelling parts: x + shift*(sqrt(d) - c) for a rational c near sqrt(d)
    c = Fraction(math.isqrt(d * 10**24), 10**12)
    x = x + shift * (SqrtExt(0, 1, d) - c)
    assert math.floor(x) == oracle_floor(x, d)
    if x != 0:
        want = Fraction(oracle_floor(x, d, 1 << 200), 1 << 200)
        assert math.isclose(float(x), float(want), rel_tol=1e-12)


@settings(max_examples=200, deadline=None)
@given(field_elements(4))
def test_surd_ints_round_trip(problem):
    d, vals = problem
    D, ints = surd_ints(vals)
    assert D > 0 and all(isinstance(k, int) for ab in ints for k in ab)
    for x, (A, B) in zip(vals, ints):
        back = surd_value(A, B, D, d)
        assert back == x and type(back) is type(x)
        assert math.floor(x) == oracle_floor(back, d)
