import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DRAWN_ALGEBRAS, QUICK_REPORT, bound_quiver_algebras, data_path
from oracles import (_combo, _evaluate, brute_associativity_defect, brute_differential,
                     brute_generator_associativity_defect, full_bar_hh2,
                     reduced_bar_summary)
from quivdeform.errors import InputError
from quivdeform.fields import Field
from quivdeform.fileio import parse_algebra_file
from quivdeform.deform import _small_coboundary, deformation_equivalence
from quivdeform.hochschild import (FullCochain, cochain_from_pairs, cochain_from_paths,
                                   full_differential, cocycle_witness, hh_dimension,
                                   hh_summary, is_cocycle)
from quivdeform.linalg import FinDimAlgebra, deformation_witness
from quivdeform.morita import matrix_context, transfer_phi
from quivdeform.quiver import Quiver, compute_basis

Q = Field.rationals()


def the_cocycle(af, basis):
    return cochain_from_pairs(basis, af.cocycle_pairs)


def test_dual_numbers_cocycle(dual_numbers):
    af, basis = dual_numbers
    f = the_cocycle(af, basis)
    # single composable triple (a, a, a): a*e1 - f(0, a) + f(a, 0) - e1*a = 0
    assert full_differential(f, basis).is_zero()
    assert is_cocycle(f, basis)


def test_two_cycle_cocycle_and_class(two_cycle):
    af, basis = two_cycle
    f = the_cocycle(af, basis)
    assert is_cocycle(f, basis)
    assert _small_coboundary(basis, f) is None  # nonzero class
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
    assert deformation_witness(basis, f.table) is not None
    calls = (lambda: is_cocycle(f, basis), lambda: DeformedAlgebra(basis, f),
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


def coboundary_witness(phi, basis):
    """The reduced 1-cochain h of the isomorphism phi(a, b) = (a, b +
    h(a)) that deformation_equivalence returns."""
    n = basis.dim
    return FullCochain(n, 1, basis.field, {(i,): {k - n: c for k, c in phi[i].items() if k >= n}
                                           for i in range(n)})


def test_zero_cochain_solvable(two_cycle):
    af, basis = two_cycle
    zero = cochain_from_paths(basis, 2, {})
    assert _small_coboundary(basis, zero) == {}
    h = coboundary_witness(deformation_equivalence(zero, zero, basis), basis)
    assert h.is_zero()


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
    dg = full_differential(g, basis)
    assert is_cocycle(dg, basis)  # d after d vanishes
    # the class of dg is 0 on the small complex, and the h built from phi
    # on the arrows has d h = dg
    assert _small_coboundary(basis, dg) is not None
    got = coboundary_witness(deformation_equivalence(dg, dg.scale(Q.zero), basis), basis)
    assert full_differential(got, basis) == dg


@settings(max_examples=25, deadline=None)
@given(st.tuples(fracs, fracs, fracs, fracs))
def test_extend_commutes_with_differential(scalars):
    # a reduced 1-cochain read as a full one: its full differential is the
    # oracle's, and zero off the radical tuples, so it is the differential
    # of the reduced complex
    from conftest import load_basis
    af, basis = load_basis("two_cycle.alg")
    g = _one_cochains(basis, scalars)
    dg = full_differential(g, basis)
    assert dg.table == brute_differential(basis.dim, basis.table, Q, g.table, 1)
    assert all(i in basis.radical_indices for key in dg.table for i in key)


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
    assert deformation_witness(basis, F.table) is None


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
    assert full_differential(f, basis).table == expected
    return expected


@FIELDS
@pytest.mark.parametrize("name", ADMISSIBLE)
def test_reduced_differential_matches_oracle(name, field):
    af, basis = basis_over(name, field)
    rng = random.Random(name)
    f = cochain_from_pairs(basis, af.cocycle_pairs)
    g = random_reduced(basis, 1, rng)
    dg = full_differential(g, basis)
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
    assert deformation_witness(basis, bumped.table) is not None


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
    assert deformation_witness(b, g.table) is None and deformation_witness(b, dh.table) is None
    assert deformation_witness(b, bumped.table) is not None


@pytest.mark.parametrize("field", [Q, Field.prime(2)], ids=["Q", "F2"])
@pytest.mark.parametrize("name", ADMISSIBLE)
def test_hh_summary_matches_full_bar_complex(name, field):
    _, basis = basis_over(name, field)
    assert hh_summary(basis)[2] == full_bar_hh2(basis.dim, basis.table, field)


@pytest.mark.parametrize("field, hh2", [(Q, 9), (Field.prime(5), 10)], ids=["Q", "F5"])
def test_hh2_of_truncated_polynomial_ring(field, hh2):
    # HH^2 of k[x]/(x^n) is k[x]/(x^n, n x^(n-1)): n - 1 dimensional, or n
    # when the characteristic divides n; here n = 10
    assert hh_summary(truncated_polynomial_ring(10, field))[2] == hh2


def truncated_polynomial_ring(n, field):
    from quivdeform.fileio import parse_algebra_text
    af = parse_algebra_text("field Q\nvertex 1\narrow x : 1 -> 1\nrelation %s\n"
                            % "*".join(["x"] * n), field_override=field)
    return compute_basis(af.quiver, af.relations, af.field, 40)


def bar_summary(basis):
    """reduced_bar_summary on the raw data of basis."""
    ends = [(basis.path_source_of_index(i), basis.path_target_of_index(i))
            for i in range(basis.dim)]
    return reduced_bar_summary(basis.dim, basis.table, ends, basis.radical_indices,
                               basis.field)


@pytest.mark.parametrize("field", [Q, Field.prime(2), Field.prime(5)], ids=["Q", "F2", "F5"])
@pytest.mark.parametrize("name", ADMISSIBLE + ("cube_multiples",))
def test_hh_summary_matches_the_reduced_bar_complex(name, field):
    _, basis = basis_over(name, field)
    assert hh_summary(basis) == bar_summary(basis)


@settings(DRAWN_ALGEBRAS, max_examples=60, phases=QUICK_REPORT)
@given(bound_quiver_algebras())
def test_hh_summary_matches_the_reduced_bar_complex_on_drawn_algebras(basis):
    assert hh_summary(basis) == bar_summary(basis)


@settings(DRAWN_ALGEBRAS, max_examples=30, phases=QUICK_REPORT)
@given(bound_quiver_algebras().filter(lambda basis: basis.dim <= 6))
def test_hh2_matches_the_full_bar_complex_on_small_drawn_algebras(basis):
    assert hh_summary(basis)[2] == full_bar_hh2(basis.dim, basis.table, basis.field)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@pytest.mark.parametrize("kind", ["Q", "p not dividing n", "p dividing n"])
def test_hh_of_truncated_polynomial_rings_in_closed_form(kind):
    # HH^2 of k[x]/(x^n) is k[x]/(x^n, n x^(n-1)): (Z^2, B^2, HH^2) =
    # (n(n-1), (n-1)^2, n-1), and (n(n-1), n(n-2), n) when the
    # characteristic divides n; the bar complex of x^30 alone has 25,230
    # basis 2-cochains
    for n in range(2, 31):
        if kind == "Q":
            p = 0
        elif kind == "p not dividing n":
            p = next(p for p in PRIMES if n % p)
        else:
            p = next(p for p in PRIMES if n % p == 0)
        want = ((n * (n - 1), n * (n - 2), n) if p and n % p == 0
                else (n * (n - 1), (n - 1) ** 2, n - 1))
        assert hh_summary(truncated_polynomial_ring(n, Field(p))) == want, (n, p)


def exterior_algebra(m, field):
    from quivdeform.fileio import parse_algebra_text
    names = ["x%d" % i for i in range(m)]
    text = "field Q\nvertex 1\n" + "".join("arrow %s : 1 -> 1\n" % x for x in names)
    for i, x in enumerate(names):
        text += "relation %s*%s\n" % (x, x)
        text += "".join("relation %s*%s + %s*%s\n" % (x, y, y, x) for y in names[i + 1:])
    af = parse_algebra_text(text, field_override=field)
    return compute_basis(af.quiver, af.relations, af.field, 30)


# (Z^2, B^2, HH^2) of the exterior algebras as the bar complex computed them
@pytest.mark.parametrize("m, p, triple", [
    (2, 0, (12, 6, 6)), (2, 2, (16, 4, 12)), (2, 3, (12, 6, 6)),
    (3, 0, (65, 41, 24)), (3, 2, (80, 32, 48)), (3, 3, (65, 41, 24)),
    (4, 0, (280, 200, 80)), (4, 2, (336, 176, 160)), (4, 3, (280, 200, 80))])
def test_hh_of_exterior_algebras(m, p, triple):
    assert hh_summary(exterior_algebra(m, Field(p))) == triple


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_small_complex_inverts_the_differential(seed):
    # over F5 on the triangle: the h built from phi on the arrows has d h
    # equal to the target, and adding the cocycle of the nonzero class
    # leaves no phi
    af, basis = basis_over("triangle", Field.prime(5))
    rng = random.Random(seed)
    dg = full_differential(random_reduced(basis, 1, rng), basis)
    zero = dg.scale(basis.field.zero)
    got = coboundary_witness(deformation_equivalence(dg, zero, basis), basis)
    assert full_differential(got, basis) == dg
    assert _small_coboundary(basis, dg + cochain_from_pairs(basis, af.cocycle_pairs)) is None


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


@pytest.mark.parametrize("field", [Q, Field.prime(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_evaluate_matches_the_oracle(field, degree):
    # multilinear evaluation on random cochains and arguments, explicit
    # zero coordinates included, one-coordinate arguments among them
    rng = random.Random(7 * degree + field.char)
    dim = 5
    for _ in range(40):
        table = {}
        for _ in range(rng.randint(0, 12)):
            key = tuple(rng.randrange(dim) for _ in range(degree))
            table.setdefault(key, {})[rng.randrange(dim)] = field.from_int(rng.randint(-3, 3))
        f = FullCochain(dim, degree, field, table)
        args = [{i: field.from_int(rng.randint(-2, 2))
                 for i in rng.sample(range(dim), rng.randint(0, 3))}
                for _ in range(degree)]
        assert f.evaluate(*args) == _evaluate(field, f.table, args)
    # a zero coordinate in any one slot, on the key of a nonzero value
    f = FullCochain(dim, degree, field, {tuple(range(degree)): {4: field.one}})
    for slot in range(degree):
        args = [{i: field.zero if i == slot else field.one} for i in range(degree)]
        assert f.evaluate(*args) == {} == _evaluate(field, f.table, args)
        args[slot][slot] = field.one
        assert f.evaluate(*args) == {4: field.one}
    with pytest.raises(InputError):
        f.evaluate(*args, {})


# ------------------------------------------------- the generator-row engine

F7 = Field.prime(7)
ENGINE_FIELDS = pytest.mark.parametrize("field", [Q, F7], ids=["Q", "F7"])


def kq_rows(basis):
    """The rows of kQ/I by their definition: the vertex idempotents and
    the arrows, its basis paths of length at most 1."""
    return {i for i, p in enumerate(basis.paths) if len(p) <= 2}


def first_in_row_order(triples, rows):
    """The least triple (r, j, k) of triples with r in rows, or None."""
    return min((t for t in triples if t[0] in rows), default=None)


def plantings(basis, F, rng):
    """F with one defect planted in each block of A x A that has a basis
    pair, the blocks being the pairs (x, y) with x and y each a vertex
    idempotent or a radical basis path: c x_k added at a random key of
    the block.  The first three blocks leave the reduced complex."""
    fld = basis.field
    kinds = (basis.trivial_indices, basis.radical_indices)
    out = []
    for xs, ys in product(kinds, repeat=2):
        if xs and ys:
            key = (rng.choice(xs), rng.choice(ys))
            c = fld.from_int(rng.choice((1, 2, -1, 3)))
            out.append(F + FullCochain(basis.dim, 2, fld, {key: {rng.randrange(basis.dim): c}}))
    return out


def reduced_plantings(basis, f, rng):
    """f with one defect planted in each corner e_s A e_t that is the
    corner of a composable pair of radical basis paths: c x_k at a random
    such pair, x_k in the corner, as a reduced cochain."""
    fld = basis.field
    corners = {}
    for x, y in product(basis.radical_indices, repeat=2):
        if basis.path_target_of_index(x) == basis.path_source_of_index(y):
            ends = (basis.path_source_of_index(x), basis.path_target_of_index(y))
            corners.setdefault(ends, []).append((x, y))
    out = []
    for (s, t), pairs in sorted(corners.items()):
        values = [k for k in range(basis.dim) if (basis.path_source_of_index(k),
                                                   basis.path_target_of_index(k)) == (s, t)]
        if values:
            x, y = rng.choice(pairs)
            c = fld.from_int(rng.choice((1, 2, -1, 3)))
            out.append(f + cochain_from_paths(basis, 2, {(basis.paths[x], basis.paths[y]):
                                                          {rng.choice(values): c}}))
    return out


def assert_engine_matches_the_brute_differential(basis, F):
    """deformation_witness on basis and F is None exactly when the oracle's
    full d F is 0, and otherwise its first nonzero key in row order.
    Returns whether d F is 0."""
    df = brute_differential(basis.dim, basis.table, basis.field, F.table, 2)
    witness = deformation_witness(basis, F.table)
    assert (witness is None) == (not df)
    assert witness == first_in_row_order(df, kq_rows(basis))
    return not df


def assert_engine_matches_the_brute_associator(alg, table):
    """The witness of the algebra with alg's unit and the given table, on
    its greedy rows, is the oracle's first defect on those rows, and None
    exactly when the exhaustive oracle finds none.  Returns whether it is
    None."""
    fld = alg.field
    bumped = FinDimAlgebra(fld, alg.dim, table, alg.unit, check=False)
    witness = deformation_witness(bumped)
    assert (witness is None) == (brute_associativity_defect(alg.dim, table, fld) is None)
    assert witness == brute_generator_associativity_defect(alg.dim, table, alg.unit, fld)
    return witness is None


def table_plantings(alg, rng):
    """The structure table of alg with one defect planted in each block of
    A x A (plantings), each a new table."""
    fld = alg.field
    kinds = (alg.trivial_indices, alg.radical_indices)
    out = []
    for xs, ys in product(kinds, repeat=2):
        if xs and ys:
            key = (rng.choice(xs), rng.choice(ys))
            table = {k: dict(v) for k, v in alg.table.items()}
            entry = table.setdefault(key, {})
            k = rng.randrange(alg.dim)
            entry[k] = fld.add(entry.get(k, fld.zero), fld.one)
            out.append(table)
    return out


def check_engine(basis, f, rng):
    """The engine against the oracles on basis: the cocycle f, the
    cocycle f + d g for a full 1-cochain g, one defect planted in each
    block, full and, through cocycle_witness, reduced, and one planted in
    each block of the structure table.  Returns the verdicts seen."""
    seen = set()
    g = random_full(basis.dim, 1, basis.field, rng)
    for F in [f, f + full_differential(g, basis)]:
        assert assert_engine_matches_the_brute_differential(basis, F)
    for F in plantings(basis, f + full_differential(g, basis), rng):
        seen.add(("full", assert_engine_matches_the_brute_differential(basis, F)))
    for F in reduced_plantings(basis, f, rng):
        df = brute_differential(basis.dim, basis.table, basis.field, F.table, 2)
        assert cocycle_witness(F, basis) == first_in_row_order(df, kq_rows(basis))
        seen.add(("reduced", not df))
    for table in table_plantings(basis, rng):
        seen.add(("table", assert_engine_matches_the_brute_associator(basis, table)))
    return seen


@ENGINE_FIELDS
def test_deformation_witness_matches_the_oracles_on_the_fixtures(field):
    # verdict and witness of the generator-row engine against the oracles'
    # full d F and associator, with one defect planted per block; every
    # kind of planting both passes and fails somewhere
    seen = set()
    for name in ADMISSIBLE:
        af, basis = basis_over(name, field)
        rng = random.Random(name)
        seen |= check_engine(basis, cochain_from_pairs(basis, af.cocycle_pairs), rng)
    assert seen >= {("full", False), ("reduced", True), ("reduced", False), ("table", False)}


@settings(DRAWN_ALGEBRAS, max_examples=40, phases=QUICK_REPORT)
@given(bound_quiver_algebras().filter(lambda basis: basis.dim <= 10))
def test_deformation_witness_matches_the_oracles_on_drawn_algebras(basis):
    # the drawn algebras carry no cocycle, so the defects are planted on
    # the coboundary d g
    check_engine(basis, FullCochain(basis.dim, 2, basis.field),
                 random.Random(repr(basis.paths)))
