import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (DRAWN_ALGEBRAS, QUICK_REPORT, bound_quiver_algebras, data_path,
                      load_basis, quiver_paths)
from oracles import (brute_force_dimension, brute_generated_dimension, brute_structure_table,
                     plain_find_match)
from quivdeform import quiver
from quivdeform.deform import build_presentation
from quivdeform.errors import InputError, NotFiniteDimensional, SizeLimitExceeded
from quivdeform.fields import Field
from quivdeform.fileio import parse_algebra_file
from quivdeform.hochschild import cochain_from_pairs
from quivdeform.linalg import FinDimAlgebra
from quivdeform.quiver import (AlgebraBasis, FreeElement, Quiver, compute_basis,
                               path_order_key, relation_endpoints,
                               validate_admissible_relations)

Q = Field.rationals()


@pytest.mark.parametrize("name", ["dual_numbers", "two_cycle", "triangle",
                                  "quantum_plane", "lambda_m2"])
def test_fixture_tables_over_Q_hold_ints(name):
    # over Q a scalar is an int while it is an integer; every structure
    # constant of the fixtures is one, so no Fraction arithmetic is paid
    af, basis = load_basis(name + ".alg")
    assert af.field == Q
    values = [c for vec in list(basis.table.values()) + [basis.unit] for c in vec.values()]
    assert values and {type(c) for c in values} == {int}


FIXTURES = ("dual_numbers", "two_cycle", "triangle", "quantum_plane", "lambda_m2",
            "cube_multiples")


def structure_table_cases(fld):
    """(name, quiver, relations, basis) over fld: each fixture and, for
    each fixture with a cocycle, the quiver and relations of the
    presentation of its deformed algebra."""
    for name in FIXTURES:
        af = parse_algebra_file(data_path(name + ".alg"), fld)
        basis = compute_basis(af.quiver, af.relations, fld, 30)
        yield name, af.quiver, af.relations, basis
        if af.cocycle_pairs:
            pres = build_presentation(basis, cochain_from_pairs(basis, af.cocycle_pairs))
            yield (name + "^", pres.quiver, pres.relations,
                   compute_basis(pres.quiver, pres.relations, fld, 30))


@pytest.mark.parametrize("fld", [Q, Field.prime(3), Field.prime(5)], ids=repr)
def test_structure_table_matches_the_oracle(fld):
    # the table is filled by the arrow action; the oracle solves each
    # [p q] by dense elimination against the multiples of the relations.
    # Products of basis paths have length at most twice the longest one,
    # and one more degree of multiples reaches every normal form here
    for name, q, relations, basis in structure_table_cases(fld):
        top = max(len(p) - 1 for p in basis.paths)
        want = brute_structure_table(q, relations, fld, basis.paths, 2 * top + 1)
        assert basis.table == want, name
        assert list(basis.table) == list(want) == sorted(want), name


@settings(DRAWN_ALGEBRAS, phases=QUICK_REPORT)
@given(bound_quiver_algebras())
def test_structure_table_matches_the_oracle_on_drawn_algebras(drawn):
    # the table filled over the composable pairs only, against the dense
    # oracle, with the drawn relations lifted to integers and read over Q
    # and over F_7; a basis path combination is its own normal form
    q, p = drawn.quiver, drawn.field.char
    lifted = [{path: c - p if p and 2 * c > p else c for path, c in r.terms.items()}
              for r in drawn.relations]
    for fld in (Q, Field.prime(7)):
        relations = [FreeElement(q, fld, {path: fld.from_int(c) for path, c in r.items()})
                     for r in lifted]
        try:
            basis = compute_basis(q, relations, fld, 8)
        except (NotFiniteDimensional, SizeLimitExceeded):
            continue
        top = max(len(path) - 1 for path in basis.paths)
        want = brute_structure_table(q, relations, fld, basis.paths, 2 * top + 1)
        assert basis.table == want
        assert list(basis.table) == sorted(want)
        vec = {i: fld.from_int(i + 1) for i in range(basis.dim) if fld.from_int(i + 1)}
        x = basis.to_free(vec)
        assert basis.normal_form(x) == vec
        assert basis.rewrite.reduce(x).terms == x.terms


def assert_matches_agree(rewrite, quiver, lengths):
    paths = quiver_paths(quiver, lengths)
    assert paths
    for path in paths:
        assert rewrite._find_match(path) == plain_find_match(rewrite.rules, quiver, path), path


def test_rule_index_finds_the_first_match_on_the_fixtures():
    # the rules tried are those whose word starts with an arrow of the
    # path, or sits at one of its vertices; the match is still the one
    # that trying every rule in order finds first.  The fixtures and their
    # presentations over Q and F_7, a loop power, and a vertex that the
    # relation e(1) kills, whose trivial-path rule competes with the rule
    # of m*m*m on m*m*m*v, added before it and after it
    x = Quiver(["1"], [("x", "1", "1")])
    v = Quiver(["1", "2"], [("u", "1", "2"), ("v", "2", "1"), ("m", "2", "2")])
    cube = FreeElement.from_path(v, Q, v.path_from_arrow_names(["m"] * 3))
    kill = FreeElement.from_path(v, Q, (0,))
    cases = [(x, [FreeElement.from_path(x, Q, x.path_from_arrow_names(["x"] * 4))]),
             (v, [kill, cube]), (v, [cube, kill])]
    for fld in (Q, Field.prime(7)):
        for _, q, relations, _ in structure_table_cases(fld):
            cases.append((q, relations))
    for q, relations in cases:
        rewrite = compute_basis(q, relations, relations[0].field, 6).rewrite
        assert_matches_agree(rewrite, q, range(7))
    assert [[len(w) for w in compute_basis(v, relations, Q, 6).rewrite.rules]
            for _, relations in cases[1:3]] == [[1, 4], [4, 1]]


@settings(DRAWN_ALGEBRAS, phases=QUICK_REPORT)
@given(bound_quiver_algebras())
def test_rule_index_finds_the_first_match_on_drawn_algebras(basis):
    assert_matches_agree(basis.rewrite, basis.quiver, range(6))


def scanned_standard_monomials(rewrite, q):
    """The irreducible paths, grown one arrow at a time from the
    irreducible trivial paths, each candidate tested by the scan of the
    whole path that is_reducible makes; in the order of
    RewriteSystem.standard_monomials."""
    layer = [(v,) for v in range(len(q.vertices)) if not rewrite.is_reducible((v,))]
    out = []
    while layer:
        out.extend(layer)
        layer = [p + (a,) for p in layer for a, (_, s, _) in enumerate(q.arrows)
                 if s == q.path_target(p) and not rewrite.is_reducible(p + (a,))]
    return out


def test_standard_monomials_match_the_full_scan():
    # each candidate p a is tested only at its end, by the rule words
    # ending with a and the trivial-path rule at its target: the same
    # paths, in the same order, as the scan of every candidate, on the
    # fixtures and their presentations, and on a quiver whose relation e(2)
    # kills a vertex
    v = Quiver(["1", "2"], [("u", "1", "2"), ("v", "2", "1"), ("m", "1", "1")])
    kill = [FreeElement.from_path(v, Q, (1,)),
            FreeElement.from_path(v, Q, v.path_from_arrow_names(["m"] * 3))]
    cases = [(v, kill, compute_basis(v, kill, Q, 30))]
    for fld in (Q, Field.prime(7)):
        cases += [(q, relations, basis)
                  for _, q, relations, basis in structure_table_cases(fld)]
    for q, relations, basis in cases:
        assert basis.rewrite.standard_monomials(30) == scanned_standard_monomials(
            basis.rewrite, q)


@settings(DRAWN_ALGEBRAS, phases=QUICK_REPORT)
@given(bound_quiver_algebras())
def test_standard_monomials_match_the_full_scan_on_drawn_algebras(basis):
    assert basis.rewrite.standard_monomials(8) == scanned_standard_monomials(
        basis.rewrite, basis.quiver)


def test_structure_table_rewrites_at_most_dim_times_arrows(monkeypatch):
    # only the products p_k * a of a basis path and an arrow that are not
    # basis paths are rewritten, each once, not every pair of basis paths
    x = Quiver(["1"], [("x", "1", "1")])
    cases = [(x, [FreeElement.from_path(x, Q, x.path_from_arrow_names(["x"] * 8))])]
    for _, q, relations, _ in structure_table_cases(Q):
        cases.append((q, relations))
    for q, relations in cases:
        basis = compute_basis(q, relations, Q, 30)
        calls = []
        reduce = basis.rewrite.reduce
        monkeypatch.setattr(basis.rewrite, "reduce", lambda e: calls.append(e) or reduce(e))
        again = AlgebraBasis(q, Q, relations, basis.rewrite, basis.paths)
        monkeypatch.undo()
        assert again.table == basis.table
        assert len(calls) <= basis.dim * len(q.arrows), (basis.dim, len(calls))
        off_basis = [(p, a) for p in basis.paths for a, (_, s, _) in enumerate(q.arrows)
                     if q.path_target(p) == s and p + (a,) not in basis.index]
        assert len(calls) <= len(off_basis)


def test_quiver_validation():
    with pytest.raises(InputError):
        Quiver([], [])
    with pytest.raises(InputError):
        Quiver(["1", "1"], [])
    with pytest.raises(InputError):
        Quiver(["1"], [("a", "1", "1"), ("a", "1", "1")])
    with pytest.raises(InputError):
        Quiver(["1"], [("a", "1", "2")])
    with pytest.raises(InputError):
        Quiver(["1", "a"], [("a", "1", "1")])


def test_path_composition():
    q = Quiver(["1", "2"], [("a1", "1", "2"), ("a2", "2", "1")])
    a1 = q.arrow_path("a1")
    a2 = q.arrow_path("a2")
    assert q.compose(a1, a2) is not None
    assert q.compose(a1, a1) is None
    assert q.compose(q.trivial_path("1"), a1) == a1
    assert q.compose(a1, q.trivial_path("2")) == a1
    assert q.compose(a1, q.trivial_path("1")) is None
    assert q.path_str(q.compose(a1, a2)) == "a1*a2"
    assert q.path_str(q.trivial_path("2")) == "e(2)"


def test_path_order_earlier_arrow_wins_ties():
    q = Quiver(["1"], [("a", "1", "1"), ("b", "1", "1")])
    ab = q.path_from_arrow_names(["a", "b"])
    ba = q.path_from_arrow_names(["b", "a"])
    assert path_order_key(ab) > path_order_key(ba)
    e = q.trivial_path("1")
    assert path_order_key(q.arrow_path("a")) > path_order_key(e)
    assert path_order_key(ba) > path_order_key(q.arrow_path("a"))


def test_relation_endpoints():
    q = Quiver(["1", "2"], [("a1", "1", "2"), ("a2", "2", "1")])
    r = FreeElement.from_path(q, Q, q.path_from_arrow_names(["a1", "a2"]), Q.one)
    assert relation_endpoints(r) == (0, 0)
    mixed = r + FreeElement.from_path(q, Q, q.arrow_path("a1"), Q.one)
    with pytest.raises(InputError):
        relation_endpoints(mixed)
    with pytest.raises(InputError):
        relation_endpoints(FreeElement.zero(q, Q))


def test_validate_admissible():
    q = Quiver(["1"], [("a", "1", "1")])
    aa = FreeElement.from_path(q, Q, q.path_from_arrow_names(["a", "a"]), Q.one)
    validate_admissible_relations([aa])
    bad = FreeElement.from_path(q, Q, q.arrow_path("a"), Q.one)
    with pytest.raises(InputError):
        validate_admissible_relations([aa, bad])


def test_dual_numbers_basis(dual_numbers):
    af, basis = dual_numbers
    assert basis.dim == 2
    labels = list(basis.labels)
    assert labels == ["e(1)", "a"]
    aa = FreeElement.from_path(af.quiver, af.field,
                               af.quiver.path_from_arrow_names(["a", "a"]), Q.one)
    assert basis.normal_form(aa) == {}
    # oracle: stable brute-force dimension
    assert brute_force_dimension(af.quiver, af.relations, af.field, 5) == 2
    assert brute_force_dimension(af.quiver, af.relations, af.field, 6) == 2


def test_two_cycle_basis(two_cycle):
    af, basis = two_cycle
    assert basis.dim == 5
    labels = list(basis.labels)
    assert labels == ["e(1)", "e(2)", "a1", "a2", "a2*a1"]
    assert brute_force_dimension(af.quiver, af.relations, af.field, 6) == 5
    assert brute_force_dimension(af.quiver, af.relations, af.field, 7) == 5
    a1 = basis.element_from_path(af.quiver.arrow_path("a1"))
    a2 = basis.element_from_path(af.quiver.arrow_path("a2"))
    prod = basis.mul(a2, a1)
    assert prod == basis.element_from_path(af.quiver.path_from_arrow_names(["a2", "a1"]))
    assert basis.mul(a1, a2) == {}
    assert basis.mul(prod, prod) == {}


def test_triangle_basis(triangle):
    af, basis = triangle
    assert basis.dim == 6
    assert brute_force_dimension(af.quiver, af.relations, af.field, 5) == 6


def test_quantum_plane_basis(quantum_plane):
    af, basis = quantum_plane
    assert basis.dim == 4
    labels = list(basis.labels)
    assert labels == ["e(1)", "a", "b", "b*a"]
    q = af.params["q"]
    ab = FreeElement.from_path(af.quiver, af.field,
                               af.quiver.path_from_arrow_names(["a", "b"]), Q.one)
    nf = basis.normal_form(ab)
    ba = basis.element_from_path(af.quiver.path_from_arrow_names(["b", "a"]))
    assert nf == {i: af.field.mul(af.field.neg(q), c) for i, c in ba.items()}
    assert brute_force_dimension(af.quiver, af.relations, af.field, 6) == 4


def test_lambda_m2_basis(lambda_m2):
    af, basis = lambda_m2
    assert basis.dim == 8
    labels = list(basis.labels)
    assert labels == ["e(1)", "e(2)", "u", "v", "al", "v*al", "al*u", "v*al*u"]
    assert brute_force_dimension(af.quiver, af.relations, af.field, 7) == 8
    assert brute_force_dimension(af.quiver, af.relations, af.field, 8) == 8
    # u*v collapses to the trivial path at 1
    uv = FreeElement.from_path(af.quiver, af.field,
                               af.quiver.path_from_arrow_names(["u", "v"]), Q.one)
    assert basis.normal_form(uv) == basis.element_from_path(af.quiver.trivial_path("1"))


def test_unit_and_table(two_cycle):
    af, basis = two_cycle
    for i in range(basis.dim):
        x = {i: Q.one}
        assert basis.mul(basis.unit, x) == x
        assert basis.mul(x, basis.unit) == x
    assert [basis.paths[i] for i in basis.trivial_indices] == \
        [af.quiver.trivial_path("1"), af.quiver.trivial_path("2")]
    # the trivial paths' classes sum to 1
    assert basis.unit == {i: Q.one for i in basis.trivial_indices}


@pytest.mark.parametrize("name", ["dual_numbers", "two_cycle", "triangle",
                                  "quantum_plane", "lambda_m2"])
def test_basis_passes_the_algebra_checks(name):
    # AlgebraBasis is built unchecked, as the diamond lemma allows: its
    # table, unit and labels pass the full unit and associativity check,
    # and its greedy generators span it by the oracle's own words
    _, basis = load_basis(name + ".alg")
    assert isinstance(basis, FinDimAlgebra)
    FinDimAlgebra(basis.field, basis.dim, basis.table, basis.unit, basis.labels,
                  check=True)
    raw = (basis.dim, basis.table, basis.unit)
    assert brute_generated_dimension(raw, basis.generators(), basis.field) == basis.dim


def test_infinite_dimensional_detected():
    q = Quiver(["1"], [("a", "1", "1")])
    with pytest.raises(NotFiniteDimensional):
        compute_basis(q, [], Q, max_degree=6)


def test_basis_size_guard(lambda_m2, monkeypatch):
    # the largest basis of the tests and the benchmark has 96 elements
    assert 96 <= quiver.MAX_BASIS_DIM
    af, basis = lambda_m2
    assert basis.dim == 8
    monkeypatch.setattr(quiver, "MAX_BASIS_DIM", 8)
    assert compute_basis(af.quiver, af.relations, Q).dim == 8
    monkeypatch.setattr(quiver, "MAX_BASIS_DIM", 7)
    with pytest.raises(SizeLimitExceeded,
                       match=r"^more than 7 standard monomials below length 30$"):
        compute_basis(af.quiver, af.relations, Q)
    # k[x] is refused at the first monomial past the limit, however large
    # the length bound; within the limit it is still refused as
    # infinite-dimensional
    q = Quiver(["1"], [("a", "1", "1")])
    monkeypatch.setattr(quiver, "MAX_BASIS_DIM", 50)
    with pytest.raises(SizeLimitExceeded, match="more than 50 standard monomials"):
        compute_basis(q, [], Q, max_degree=10 ** 9)
    with pytest.raises(NotFiniteDimensional):
        compute_basis(q, [], Q, max_degree=40)


EXTERIOR3 = ("field Q\nvertex 1\n" + "".join("arrow x%d : 1 -> 1\n" % i for i in (1, 2, 3))
             + "relation x1*x1\nrelation x2*x2\nrelation x3*x3\nrelation x1*x2 + x2*x1\n"
             "relation x1*x3 + x3*x1\nrelation x2*x3 + x3*x2\n")


def test_completion_step_guard(monkeypatch):
    # the largest completion of the tests and the benchmark takes 3,032
    # reduction steps; the exterior algebra on 3 letters takes 16
    from quivdeform.fileio import parse_algebra_text
    assert 100 * 3032 <= quiver.MAX_REWRITE_STEPS
    af = parse_algebra_text(EXTERIOR3)
    monkeypatch.setattr(quiver, "MAX_REWRITE_STEPS", 16)
    assert compute_basis(af.quiver, af.relations, Q).dim == 8
    monkeypatch.setattr(quiver, "MAX_REWRITE_STEPS", 15)
    with pytest.raises(SizeLimitExceeded,
                       match=r"^completing the relations takes more than 15 reduction steps$"):
        compute_basis(af.quiver, af.relations, Q)


def test_no_relations_acyclic():
    q = Quiver(["1", "2"], [("a", "1", "2")])
    basis = compute_basis(q, [], Q, max_degree=10)
    assert basis.dim == 3


def test_contains_ideal_of(two_cycle):
    af, basis = two_cycle
    q = af.quiver
    r = FreeElement.from_path(q, Q, q.path_from_arrow_names(["a1", "a2"]), Q.one)
    scaled = r.scale(Q.parse("7/3"))
    padded = FreeElement.from_path(
        q, Q, q.path_from_arrow_names(["a2", "a1", "a2"]), Q.one)
    assert basis.contains_ideal_of([scaled, padded])
    other = FreeElement.from_path(q, Q, q.path_from_arrow_names(["a2", "a1"]), Q.one)
    assert not basis.contains_ideal_of([other])


def test_max_degree_validation():
    q = Quiver(["1"], [("a", "1", "1")])
    with pytest.raises(InputError):
        compute_basis(q, [], Q, max_degree=1)


def _qp_setup():
    import os

    from quivdeform.fileio import parse_algebra_file
    af = parse_algebra_file(
        os.path.join(os.path.dirname(__file__), "data", "quantum_plane.alg"))
    basis = compute_basis(af.quiver, af.relations, af.field, 30)
    q = af.quiver
    words = [q.trivial_path("1"), q.arrow_path("a"), q.arrow_path("b"),
             q.path_from_arrow_names(["a", "b"]),
             q.path_from_arrow_names(["b", "a"]),
             q.path_from_arrow_names(["a", "b", "a"]),
             q.path_from_arrow_names(["a", "a"])]
    return af, basis, words


QP_AF, QP_BASIS, QP_WORDS = _qp_setup()


@st.composite
def quantum_plane_elements(draw):
    elem = FreeElement.zero(QP_AF.quiver, Q)
    n = draw(st.integers(min_value=0, max_value=4))
    for _ in range(n):
        w = draw(st.sampled_from(QP_WORDS))
        c = draw(st.fractions(min_value=-9, max_value=9, max_denominator=4))
        elem = elem + FreeElement.from_path(QP_AF.quiver, Q, w, c)
    return elem


@given(quantum_plane_elements(), quantum_plane_elements())
def test_normal_form_is_multiplicative(x, y):
    lhs = QP_BASIS.normal_form(x * y)
    rhs = QP_BASIS.mul(QP_BASIS.normal_form(x), QP_BASIS.normal_form(y))
    assert lhs == rhs


@given(quantum_plane_elements())
def test_normal_form_is_idempotent(x):
    nf = QP_BASIS.normal_form(x)
    assert QP_BASIS.normal_form(QP_BASIS.to_free(nf)) == nf


@settings(DRAWN_ALGEBRAS, max_examples=20, phases=QUICK_REPORT)
@given(bound_quiver_algebras(), st.data())
def test_rewrite_steps_account_for_the_normal_form(basis, data):
    # x minus the sum of c * left * (w - rules[w]) * right over the steps
    # (c, left, w, right) of its reduction is what the steps leave, which
    # is the normal form that reduce returns, with no reducible term left
    rs, q, fld = basis.rewrite, basis.quiver, basis.field
    paths = quiver_paths(q, range(5))
    x = FreeElement(q, fld, {p: fld.from_int(data.draw(st.integers(-3, 3)))
                             for p in data.draw(st.lists(st.sampled_from(paths),
                                                         min_size=1, max_size=4))})
    terms = dict(x.terms)
    rest = x
    for c, left, w, right in rs.steps(terms):
        rewritten = FreeElement.from_path(q, fld, w) - rs.rules[w]
        rest = rest - (FreeElement.from_path(q, fld, left) * rewritten
                       * FreeElement.from_path(q, fld, right)).scale(c)
    assert rest.terms == terms == rs.reduce(x).terms
    assert not any(rs.is_reducible(p) for p in terms)
