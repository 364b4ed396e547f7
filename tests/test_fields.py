from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quivdeform.errors import InputError
from quivdeform.fields import Field, _is_prime

from oracles import trial_division_is_prime

Q = Field.rationals()
F7 = Field.prime(7)


def test_parse_rationals():
    assert Q.parse("3/6") == Fraction(1, 2)
    assert Q.parse("-4") == Fraction(-4)
    assert Q.parse("0") == 0
    with pytest.raises(InputError):
        Q.parse("1/0")
    with pytest.raises(InputError):
        Q.parse("x")
    with pytest.raises(InputError):
        Q.parse("1.5")


def test_parse_prime_field():
    # oracle: the unique residue r with 3*r = 2 mod 7, found by search
    matches = [r for r in range(7) if (3 * r) % 7 == 2]
    assert matches == [3]
    assert F7.parse("2/3") == 3
    assert F7.parse("-4") == 3
    assert F7.parse("9") == 2
    with pytest.raises(InputError):
        F7.parse("1/7")


def test_invert_prime_field():
    # oracle: exhaustive search for the inverse of each unit
    for a in range(1, 7):
        expected = [b for b in range(7) if (a * b) % 7 == 1]
        assert [F7.inv(a)] == expected
    assert F7.inv(2) == 4
    with pytest.raises(ZeroDivisionError):
        F7.inv(0)


def test_invert_rationals():
    assert Q.inv(Fraction(2, 3)) == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        Q.inv(Fraction(0))


def test_rational_scalars_are_ints_while_they_are_integers():
    for value in (Q.zero, Q.one, Q.from_int(3), Q.parse("4/2"), Q.parse("-4"),
                  Q.inv(1), Q.inv(-1), Q.inv(Fraction(1, 2))):
        assert type(value) is int
    assert (Q.from_int(3), Q.parse("4/2"), Q.inv(-1), Q.inv(Fraction(1, 2))) == (3, 2, -1, 2)
    for value in (Q.parse("1/3"), Q.inv(3), Q.inv(Fraction(3, 2))):
        assert type(value) is Fraction
    assert (Q.parse("1/3"), Q.inv(3), Q.inv(Fraction(3, 2))) == (
        Fraction(1, 3), Fraction(1, 3), Fraction(2, 3))
    assert Q.inv(2) * 2 == Q.one
    assert Q.mul(Q.inv(-6), Q.from_int(-6)) == Q.one


def as_before(q):
    """A rational as Field made it when every one went through Fraction:
    the int when its denominator is 1, else the Fraction."""
    return q.numerator if q.denominator == 1 else q


def same_scalar(a, b):
    return type(a) is type(b) and a == b and str(a) == str(b) and hash(a) == hash(b)


def test_rational_parse_and_inverse_agree_with_fraction():
    tokens = ["a/b", "-4/-2", "1/-2", "6/3", "3/6", "-7/21", "0/5", "12/-4", "-9/-6", "7"]
    for num in range(-12, 13):
        for den in (-6, -3, -2, -1, 1, 2, 3, 4, 6):
            tokens.append("%d/%d" % (num, den))
    for token in tokens:
        if token == "a/b":
            with pytest.raises(InputError):
                Q.parse(token)
            continue
        n, _, d = token.partition("/")
        expected = as_before(Fraction(int(n), int(d or 1)))
        assert same_scalar(Q.parse(token), expected), token
    assert [Q.parse(t) for t in ("-4/-2", "1/-2", "6/3")] == [2, Fraction(-1, 2), 2]
    values = [Fraction(n, d) for n in range(-12, 13) for d in (1, 2, 3, 5, 6) if n]
    values += [n for n in range(-12, 13) if n] + [Q.mul(Q.inv(2), 4), Fraction(-3, 1)]
    for a in values:
        assert same_scalar(Q.inv(a), as_before(Fraction(1) / a)), a


def test_prime_field_parse_agrees_with_modular_inverse():
    for p in (2, 3, 7, 101):
        fld = Field.prime(p)
        for num in range(-15, 16):
            assert same_scalar(fld.parse(str(num)), num % p)
            for den in range(-9, 10):
                token = "%d/%d" % (num, den)
                if den % p == 0:
                    with pytest.raises(InputError):
                        fld.parse(token)
                else:
                    assert same_scalar(fld.parse(token), num * pow(den, -1, p) % p), token


def test_integral_fraction_acts_as_its_int():
    # arithmetic may leave a Fraction with denominator 1, such as 1/2 * 4;
    # it prints, compares and hashes as the int, so the two mix freely
    made = Q.mul(Q.inv(2), Q.from_int(4))
    assert type(made) is Fraction and type(Fraction(4, 2)) is Fraction
    for value in (made, Fraction(4, 2)):
        assert value == 2 and hash(value) == hash(2)
        assert Q.to_str(value) == Q.to_str(2) == "2"
        assert 1 < value < 3 and -value == -2
        assert {value: "x"} == {2: "x"}
        assert type(Q.parse(Q.to_str(value))) is int


def test_non_prime_characteristic_rejected():
    with pytest.raises(InputError):
        Field.prime(6)
    with pytest.raises(InputError):
        Field.prime(1)


def test_field_identity_and_kind():
    assert Q.kind == "rationals"
    assert F7.kind == "prime"
    assert F7.char == 7
    assert Q.char == 0
    assert Field.prime(7) == F7
    assert Q != F7


def test_parse_scalar_helper():
    assert Q.parse("-1/3") == Fraction(-1, 3)
    assert F7.parse("5") == 5


scalars_q = st.fractions(min_value=-50, max_value=50, max_denominator=20)
scalars_f7 = st.integers(min_value=0, max_value=6)


@given(scalars_q, scalars_q, scalars_q)
def test_rational_field_axioms(a, b, c):
    assert Q.add(a, Q.add(b, c)) == Q.add(Q.add(a, b), c)
    assert Q.mul(a, Q.mul(b, c)) == Q.mul(Q.mul(a, b), c)
    assert Q.mul(a, Q.add(b, c)) == Q.add(Q.mul(a, b), Q.mul(a, c))
    assert Q.add(a, Q.neg(a)) == Q.zero
    if a != Q.zero:
        assert Q.mul(a, Q.inv(a)) == Q.one


@given(scalars_f7, scalars_f7, scalars_f7)
def test_prime_field_axioms(a, b, c):
    assert F7.add(a, F7.add(b, c)) == F7.add(F7.add(a, b), c)
    assert F7.mul(a, F7.mul(b, c)) == F7.mul(F7.mul(a, b), c)
    assert F7.mul(a, F7.add(b, c)) == F7.add(F7.mul(a, b), F7.mul(a, c))
    assert F7.add(a, F7.neg(a)) == F7.zero
    if a != F7.zero:
        assert F7.mul(a, F7.inv(a)) == F7.one


@given(scalars_f7)
def test_prime_field_parse_round_trip(a):
    assert F7.parse(F7.to_str(a)) == a


@given(scalars_q)
def test_rational_parse_round_trip(a):
    assert Q.parse(Q.to_str(a)) == a


def test_primality_agrees_with_trial_division():
    assert [n for n in range(10 ** 4) if _is_prime(n) != trial_division_is_prime(n)] == []


def test_characteristic_at_the_primality_bound_is_refused():
    # the bound is the least strong pseudoprime to the first 13 prime
    # bases, 1287836182261 * 2575672364521: Miller-Rabin would call it prime
    assert 1287836182261 * 2575672364521 == 3317044064679887385961981
    with pytest.raises(InputError, match="too large"):
        Field.prime(3317044064679887385961981)


def test_strong_pseudoprime_to_the_first_12_prime_bases_is_refused():
    # the least strong pseudoprime to the bases 2, ..., 37 lies below the
    # bound; only the base 41 shows that it is composite
    n = 318665857834031151167461
    assert 399165290221 * 798330580441 == n
    with pytest.raises(InputError, match="prime"):
        Field.prime(n)
