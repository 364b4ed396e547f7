import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import data_path
from oracles import _combo, brute_differential, full_bar_hh2
from quivdeform.errors import InputError
from quivdeform.fields import Field
from quivdeform.fileio import parse_algebra_file
from quivdeform.hochschild import (FullCochain, cobound_solve,
                                   cochain_from_pairs, cochain_from_paths,
                                   differential, full_differential,
                                   hh_dimension, hh_summary, is_cocycle,
                                   is_full_cocycle)
from quivdeform.morita import matrix_context, transfer_phi
from quivdeform.quiver import Quiver, compute_basis

Q = Field.rationals()


def the_cocycle(af, basis):
    return cochain_from_pairs(basis, af.cocycle_pairs)


def test_dual_numbers_cocycle(dual_numbers):
    af, basis = dual_numbers
    f = the_cocycle(af, basis)
    # single composable triple (a, a, a): a*e1 - f(0, a) + f(a, 0) - e1*a = 0
    assert differential(f, basis).is_zero()
    assert is_cocycle(f, basis)


def test_two_cycle_cocycle_and_class(two_cycle):
    af, basis = two_cycle
    f = the_cocycle(af, basis)
    assert is_cocycle(f, basis)
    assert cobound_solve(f, basis) is None  # nonzero class
    assert hh_dimension(basis) == 1
    # oracle: full bar complex from raw structure constants
    assert full_bar_hh2(basis.dim, basis.table, basis.field) == 1


def test_triangle_cocycle_and_class(triangle):
    af, basis = triangle
    f = the_cocycle(af, basis)
    assert is_cocycle(f, basis)
    assert hh_dimension(basis) == 1
    assert full_bar_hh2(basis.dim, basis.table, basis.field) == 1


def test_quantum_plane_cocycle(quantum_plane):
    af, basis = quantum_plane
    f = the_cocycle(af, basis)
    assert is_cocycle(f, basis)


def test_corner_violation_rejected(triangle):
    af, basis = triangle
    q = af.quiver
    key = (q.arrow_path("a1"), q.arrow_path("a2"))
    bad = {key: basis.element_from_path(q.trivial_path("1"))}
    with pytest.raises(InputError, match=r"value of cochain at a1 \| a2 leaves the corner e_1 A e_3"):
        cochain_from_paths(basis, 2, bad)
    # a zero coefficient is no value, so it leaves no corner
    zero = {key: {basis.index[q.trivial_path("1")]: Q.zero}}
    assert cochain_from_paths(basis, 2, zero).is_zero()


def test_bad_keys_rejected(two_cycle):
    af, basis = two_cycle
    q = af.quiver
    a1 = q.arrow_path("a1")
    a2 = q.arrow_path("a2")
    with pytest.raises(InputError, match="is not composable"):
        cochain_from_paths(basis, 2, {(a2, a2): {}})
    with pytest.raises(InputError, match="cochain keys must be non-trivial paths"):
        cochain_from_paths(basis, 2, {(q.trivial_path("1"), a1): {}})
    with pytest.raises(InputError, match="is not a basis path"):  # a reducible word
        cochain_from_paths(basis, 2, {(q.compose(a1, a2), a1): {}})
    with pytest.raises(InputError, match="has wrong arity"):
        cochain_from_paths(basis, 2, {(a1,): {}})
    with pytest.raises(InputError, match="cochain degree must be 1, 2 or 3"):
        cochain_from_paths(basis, 4, {})


def test_value_indices_outside_the_basis_rejected(two_cycle):
    # 99 is past the basis and -1 would read the last basis element
    af, basis = two_cycle
    q = af.quiver
    a1, a2 = q.arrow_path("a1"), q.arrow_path("a2")
    i1, i2 = basis.index[a1], basis.index[a2]
    one = basis.field.one
    for index in (99, -1):
        message = r"value of cochain at a\d \| a\d has index %d, not a basis index" % index
        with pytest.raises(InputError, match=r"value of cochain at a1 has index %d, not" % index):
            cochain_from_paths(basis, 1, {(a1,): {index: one}})
        with pytest.raises(InputError, match=message):
            cochain_from_paths(basis, 2, {(a2, a1): {index: one}})
        with pytest.raises(InputError, match=message):
            is_cocycle(FullCochain(basis.dim, 2, Q, {(i1, i2): {index: one}}), basis)


def test_reduced_layer_refuses_cochains_off_the_reduced_support(dual_numbers, two_cycle):
    from quivdeform.deform import DeformedAlgebra, check_image_condition
    af, basis = dual_numbers
    e, a = basis.index[(0,)], basis.index[(0, 0)]
    # f(e, a) = a is zero on the reduced tuples, but d f (e, e, a) = a in
    # the full complex: reading it as reduced would call it a cocycle and
    # build a non-associative A_f
    f = FullCochain(basis.dim, 2, Q, {(e, a): {a: Q.one}})
    assert not is_full_cocycle(f, basis)
    calls = (lambda: differential(f, basis), lambda: is_cocycle(f, basis),
             lambda: cobound_solve(f, basis), lambda: DeformedAlgebra(basis, f),
             lambda: check_image_condition(basis, f))
    for call in calls:
        with pytest.raises(InputError, match="cochain keys must be non-trivial paths"):
            call()
    af, basis = two_cycle
    q = af.quiver
    a1, a2 = basis.index[q.arrow_path("a1")], basis.index[q.arrow_path("a2")]
    e1 = basis.index[q.trivial_path("1")]
    with pytest.raises(InputError, match="is not composable"):
        is_cocycle(FullCochain(basis.dim, 2, Q, {(a2, a2): {e1: Q.one}}), basis)
    with pytest.raises(InputError, match=r"value of cochain at a1 \| a2 leaves the corner"):
        is_cocycle(FullCochain(basis.dim, 2, Q, {(a1, a2): {a1: Q.one}}), basis)
    with pytest.raises(InputError, match="is not a tuple of basis indices"):
        is_cocycle(FullCochain(basis.dim, 2, Q, {(a1, basis.dim): {e1: Q.one}}), basis)


def test_semisimple_has_no_reduced_cochains():
    q = Quiver(["1"], [])
    basis = compute_basis(q, [], Q, max_degree=5)
    assert hh_summary(basis) == (0, 0, 0)
    assert hh_dimension(basis) == 0


def test_perturbed_cocycle_fails(two_cycle):
    af, basis = two_cycle
    q = af.quiver
    f = the_cocycle(af, basis)
    tweak = cochain_from_paths(basis, 2, {(q.arrow_path("a2"), q.arrow_path("a1")):
                               basis.element_from_path(q.trivial_path("2"))})
    assert not is_cocycle(f + tweak, basis)


def test_cobound_solve_requires_cocycle(two_cycle):
    af, basis = two_cycle
    q = af.quiver
    tweak = cochain_from_paths(basis, 2, {(q.arrow_path("a2"), q.arrow_path("a1")):
                               basis.element_from_path(q.trivial_path("2"))})
    with pytest.raises(InputError):
        cobound_solve(the_cocycle(af, basis) + tweak, basis)


def test_zero_cochain_solvable(two_cycle):
    af, basis = two_cycle
    zero = cochain_from_paths(basis, 2, {})
    g = cobound_solve(zero, basis)
    assert g is not None
    assert differential(g, basis).is_zero()


def _one_cochains(basis, scalars):
    """All degree-1 cochains of the two-cycle algebra, from 4 scalars."""
    q = basis.quiver
    a1 = q.arrow_path("a1")
    a2 = q.arrow_path("a2")
    a2a1 = q.path_from_arrow_names(["a2", "a1"])
    c1, c2, c3, c4 = scalars
    table = {
        (a1,): _combo(Q, (c1, basis.element_from_path(a1))),
        (a2,): _combo(Q, (c2, basis.element_from_path(a2))),
        (a2a1,): _combo(Q, (c3, basis.element_from_path(q.trivial_path("2"))),
                        (c4, basis.element_from_path(a2a1))),
    }
    return cochain_from_paths(basis, 1, table)


fracs = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@settings(max_examples=40, deadline=None)
@given(st.tuples(fracs, fracs, fracs, fracs))
def test_coboundaries_are_cocycles(scalars):
    from conftest import load_basis
    af, basis = load_basis("two_cycle.alg")
    g = _one_cochains(basis, scalars)
    dg = differential(g, basis)
    assert is_cocycle(dg, basis)  # d after d vanishes
    got = cobound_solve(dg, basis)
    assert got is not None
    assert differential(got, basis) == dg


@settings(max_examples=25, deadline=None)
@given(st.tuples(fracs, fracs, fracs, fracs))
def test_extend_commutes_with_differential(scalars):
    from conftest import load_basis
    af, basis = load_basis("two_cycle.alg")
    g = _one_cochains(basis, scalars)
    lhs = differential(g, basis)
    rhs = full_differential(g, basis)
    assert lhs == rhs


def test_extend_to_full_dual_numbers(dual_numbers):
    af, basis = dual_numbers
    # the path-keyed cocycle lines become an index-keyed table, zero off
    # the radical tuples
    f = the_cocycle(af, basis)
    a_idx = basis.index[af.quiver.arrow_path("a")]
    e_idx = basis.index[af.quiver.trivial_path("1")]
    assert f.table == {(a_idx, a_idx): {e_idx: Fraction(1)}}
    assert f.value((e_idx, a_idx)) == {}


def test_extended_cocycle_is_full_cocycle(two_cycle):
    af, basis = two_cycle
    F = the_cocycle(af, basis)
    assert is_full_cocycle(F, basis)


def test_hh_independent_of_arrow_order():
    text = ("field Q\nvertex 1 2\narrow a2 : 2 -> 1\narrow a1 : 1 -> 2\n"
            "relation a1*a2\n")
    from quivdeform.fileio import parse_algebra_text
    af = parse_algebra_text(text)
    basis = compute_basis(af.quiver, af.relations, af.field, 30)
    assert basis.dim == 5
    assert hh_dimension(basis) == 1


def test_evaluate_is_bilinear(two_cycle):
    af, basis = two_cycle
    q = af.quiver
    f = the_cocycle(af, basis)
    a1 = basis.element_from_path(q.arrow_path("a1"))
    a2 = basis.element_from_path(q.arrow_path("a2"))
    e1 = basis.element_from_path(q.trivial_path("1"))

    lhs = f.evaluate(_combo(Q, (Fraction(3), a1), (Q.one, e1)), a2)
    rhs = _combo(Q, (Fraction(3), f.evaluate(a1, a2)))  # e1 slot contributes zero
    assert lhs == rhs
    assert f.evaluate(a1, a2) == e1


# ------------------------------------------- the differential against the oracle

ADMISSIBLE = ("dual_numbers", "two_cycle", "quantum_plane", "triangle")
FIELDS = pytest.mark.parametrize("field", [Q, Field.prime(5)], ids=["Q", "F5"])


def basis_over(name, field):
    af = parse_algebra_file(data_path(name + ".alg"), field)
    return af, compute_basis(af.quiver, af.relations, af.field, 30)


def random_reduced(basis, n, rng):
    """Reduced degree-n cochain with a random coefficient on every
    coordinate: composable radical keys, values in the corner."""
    q = basis.quiver
    rad = [p for p in basis.paths if len(p) > 1]
    keys = [(p,) for p in rad]
    for _ in range(n - 1):
        keys = [k + (p,) for k in keys for p in rad
                if q.path_target(k[-1]) == q.path_source(p)]
    table = {}
    for key in keys:
        # zero coefficients included: cochain_from_paths drops them
        table[key] = {i: basis.field.from_int(rng.randint(-3, 3))
                      for i in range(basis.dim)
                      if basis.path_source_of_index(i) == q.path_source(key[0])
                      and basis.path_target_of_index(i) == q.path_target(key[-1])}
    return cochain_from_paths(basis, n, table)


def random_full(dim, n, field, rng):
    """Full degree-n cochain on a few random index tuples, trivial
    indices included, so it is in general not normalized."""
    table = {}
    for key in product(range(dim), repeat=n):
        if rng.random() < 0.3:
            table[key] = {rng.randrange(dim): field.from_int(rng.randint(1, 4))}
    return FullCochain(dim, n, field, table)


def assert_reduced_matches(basis, f):
    expected = brute_differential(basis.dim, basis.table, basis.field,
                                  f.table, f.degree)
    assert differential(f, basis).table == expected
    assert full_differential(f, basis).table == expected
    return expected


@FIELDS
@pytest.mark.parametrize("name", ADMISSIBLE)
def test_reduced_differential_matches_oracle(name, field):
    af, basis = basis_over(name, field)
    rng = random.Random(name)
    f = cochain_from_pairs(basis, af.cocycle_pairs)
    g = random_reduced(basis, 1, rng)
    dg = differential(g, basis)
    assert assert_reduced_matches(basis, g) == dg.table
    assert assert_reduced_matches(basis, f) == {}
    assert assert_reduced_matches(basis, dg) == {}
    bumped = f + dg + random_reduced(basis, 2, rng)
    # every reduced 2-cochain is a cocycle on the triangle, which has no
    # composable triple of radical paths, and on the commutative dual numbers
    image = assert_reduced_matches(basis, bumped)
    assert bool(image) == (name in ("two_cycle", "quantum_plane"))


@FIELDS
@pytest.mark.parametrize("name", ADMISSIBLE)
def test_full_differential_matches_oracle(name, field):
    # random full cochains are not normalized, so every face also runs
    # over trivial indices; in each degree some of them are not cocycles
    af, basis = basis_over(name, field)
    rng = random.Random(name)
    for n in (1, 2, 3):
        images = []
        for _ in range(3):
            F = random_full(basis.dim, n, field, rng)
            images.append(brute_differential(basis.dim, basis.table, field,
                                             F.table, n))
            assert full_differential(F, basis).table == images[-1]
        assert any(images)
    # f(e, r) = e with e the source idempotent of a radical r breaks the
    # cocycle identity at (e, e, r)
    r = basis.radical_indices[0]
    e = basis.index[(basis.paths[r][0],)]
    F = cochain_from_pairs(basis, af.cocycle_pairs)
    bumped = F + FullCochain(basis.dim, 2, field, {(e, r): {e: field.one}})
    expected = brute_differential(basis.dim, basis.table, field, bumped.table, 2)
    assert expected[(e, e, r)] == {e: field.one}
    assert full_differential(bumped, basis).table == expected
    assert not is_full_cocycle(bumped, basis)


@FIELDS
def test_full_differential_on_matrix_algebra(field):
    af, basis = basis_over("dual_numbers", field)
    ctx = matrix_context(basis, 2)
    b = ctx.b
    rng = random.Random(7)
    f = cochain_from_pairs(basis, af.cocycle_pairs)
    g = transfer_phi(ctx, f)
    h = random_full(b.dim, 1, field, rng)
    dh = full_differential(h, b)
    bumped = g + dh + random_full(b.dim, 2, field, rng)
    for F in (g, h, dh, bumped):
        expected = brute_differential(b.dim, b.table, field, F.table, F.degree)
        assert full_differential(F, b).table == expected
    assert is_full_cocycle(g, b) and is_full_cocycle(dh, b)
    assert not is_full_cocycle(bumped, b)


@pytest.mark.parametrize("field", [Q, Field.prime(2)], ids=["Q", "F2"])
@pytest.mark.parametrize("name", ADMISSIBLE)
def test_hh_summary_matches_full_bar_complex(name, field):
    _, basis = basis_over(name, field)
    assert hh_summary(basis)[2] == full_bar_hh2(basis.dim, basis.table, field)


@pytest.mark.parametrize("field, hh2", [(Q, 9), (Field.prime(5), 10)], ids=["Q", "F5"])
def test_hh2_of_truncated_polynomial_ring(field, hh2):
    # HH^2 of k[x]/(x^n) is k[x]/(x^n, n x^(n-1)): n - 1 dimensional, or n
    # when the characteristic divides n; here n = 10
    from quivdeform.fileio import parse_algebra_text
    af = parse_algebra_text("field Q\nvertex 1\narrow x : 1 -> 1\nrelation %s\n"
                            % "*".join(["x"] * 10), field_override=field)
    basis = compute_basis(af.quiver, af.relations, af.field, 30)
    assert hh_summary(basis)[2] == hh2


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_cobound_solve_inverts_the_differential(seed):
    # over F5 on the triangle: the solved g has dg equal to the target,
    # and adding the cocycle of the nonzero class leaves no solution
    af, basis = basis_over("triangle", Field.prime(5))
    rng = random.Random(seed)
    dg = differential(random_reduced(basis, 1, rng), basis)
    got = cobound_solve(dg, basis)
    assert got is not None
    assert differential(got, basis) == dg
    assert cobound_solve(dg + cochain_from_pairs(basis, af.cocycle_pairs), basis) is None


def test_int_and_fraction_coefficients_give_equal_cochains(dual_numbers):
    # over Q an integer scalar may be an int or a Fraction with denominator 1
    af, basis = dual_numbers
    as_int = FullCochain(basis.dim, 2, Q, {(1, 1): {0: 2, 1: -1}, (0, 1): {1: 0}})
    as_fraction = FullCochain(basis.dim, 2, Q, {(1, 1): {0: Fraction(4, 2), 1: Fraction(-3, 3)},
                                                (0, 1): {1: Fraction(0, 5)}})
    assert as_int == as_fraction and (as_int - as_fraction).is_zero()
    assert as_int.table == {(1, 1): {0: 2, 1: -1}}
    assert as_int == the_cocycle(af, basis).scale(Q.from_int(2)) + \
        FullCochain(basis.dim, 2, Q, {(1, 1): {1: Fraction(-1)}})
