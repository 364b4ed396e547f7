import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivdeform.deform import (DeformedAlgebra, Presentation,
                               build_presentation,
                               Deformation, check_image_condition,
                               deformation_equivalence,
                               hat_f, interreduce_presentation,
                               normalize_cocycle, verify_presentation)
from quivdeform.errors import InputError, NotACocycle
from quivdeform.fields import Field
from quivdeform.fileio import parse_algebra_file, parse_algebra_text
from quivdeform.hochschild import (FullCochain, cochain_from_pairs,
                                   cochain_from_paths, differential,
                                   full_differential, is_cocycle,
                                   is_full_cocycle)
from quivdeform.linalg import FinDimAlgebra, map_apply
from quivdeform.quiver import FreeElement, Quiver, compute_basis

from conftest import data_path
from oracles import (_act, _combo, brute_associativity_defect, brute_associator,
                     brute_deformed_table, brute_differential,
                     brute_generator_associativity_defect, brute_path_lift)

Q = Field.rationals()
F5 = Field.prime(5)
EXAMPLES = ("dual_numbers", "two_cycle", "triangle", "quantum_plane")


def the_cocycle(af, basis):
    return cochain_from_pairs(basis, af.cocycle_pairs)


def relations_from(text, quiver):
    """Parse one relation expression per line over an existing quiver."""
    from quivdeform.fileio import parse_expression
    return [parse_expression(line.strip(), quiver, Q, {})
            for line in text.strip().splitlines()]


def same_ideal(quiver, rels_a, rels_b, field):
    a = compute_basis(quiver, rels_a, field, 30)
    b = compute_basis(quiver, rels_b, field, 30)
    return (a.dim == b.dim and a.contains_ideal_of(rels_b)
            and b.contains_ideal_of(rels_a))


def pair(basis, a, b=None):
    """Coordinates of (a, b) in A_f = A + At, for a and b in A = kQ/I."""
    return {**a, **{basis.dim + k: c for k, c in (b or {}).items()}}


def test_deformed_algebra_dual_numbers(dual_numbers):
    af, basis = dual_numbers
    f = the_cocycle(af, basis)
    d = DeformedAlgebra(basis, f)
    assert d.dim == 4
    alpha = pair(basis, basis.element_from_path(af.quiver.arrow_path("a")))
    assert d.mul(alpha, alpha) == pair(basis, {}, basis.element_from_path(
        af.quiver.trivial_path("1")))
    # unit acts trivially
    assert d.mul(d.unit, alpha) == alpha
    assert d.mul(alpha, d.unit) == alpha
    assert d.associativity_holds()


def test_deformed_multiply_two_cycle(two_cycle):
    af, basis = two_cycle
    d = DeformedAlgebra(basis, the_cocycle(af, basis))
    a1 = pair(basis, basis.element_from_path(af.quiver.arrow_path("a1")))
    a2 = pair(basis, basis.element_from_path(af.quiver.arrow_path("a2")))
    assert d.mul(a1, a2) == pair(basis, {}, basis.element_from_path(
        af.quiver.trivial_path("1")))


def test_non_cocycle_rejected_and_breaks_associativity(two_cycle):
    af, basis = two_cycle
    q = af.quiver
    f = the_cocycle(af, basis)
    tweak = cochain_from_paths(basis, 2, {(q.arrow_path("a2"), q.arrow_path("a1")):
                               basis.element_from_path(q.trivial_path("2"))})
    bad = f + tweak
    # the builder checks only the unit; each command refuses the cochain
    # at its own cocycle check
    assert not is_cocycle(bad, basis)
    d = DeformedAlgebra(basis, bad)
    assert not d.associativity_holds()


def truncated_polynomial_text(n):
    """k[x]/(x^n) with the cocycle of x^n = t: f(x^i, x^j) = x^(i+j-n)
    for i + j >= n."""
    def word(k):
        return "e(1)" if k == 0 else "*".join(["x"] * k)
    lines = ["field Q", "vertex 1", "arrow x : 1 -> 1", "relation " + word(n)]
    lines += ["cocycle f(%s, %s) = %s" % (word(i), word(j), word(i + j - n))
              for i in range(1, n) for j in range(1, n) if i + j >= n]
    return "\n".join(lines) + "\n"


def deformation_cases():
    """(name, basis, cocycle): the admissible fixtures over Q and F5, and
    k[x]/(x^8) with the cocycle of x^8 = t."""
    afs = [("%s/%r" % (name, fld), parse_algebra_file(data_path(name + ".alg"), fld))
           for name in EXAMPLES for fld in (Q, F5)]
    afs.append(("trunc8", parse_algebra_text(truncated_polynomial_text(8))))
    for name, af in afs:
        basis = compute_basis(af.quiver, af.relations, af.field, 30)
        yield name, basis, cochain_from_pairs(basis, af.cocycle_pairs)


def oracle_table(basis, f):
    return brute_deformed_table(basis.dim, basis.table, f.table)


def test_both_constructions_of_a_f_match_the_oracle():
    for name, basis, f in deformation_cases():
        fld = basis.field
        want = oracle_table(basis, f)
        assert brute_associativity_defect(2 * basis.dim, want, fld) is None, name
        labels = list(basis.labels)
        labels += ["t*" + label for label in labels]
        unit = {i: fld.one for i in basis.trivial_indices}
        for alg in (DeformedAlgebra(basis, f), Deformation(basis, f)):
            assert alg.dim == 2 * basis.dim, name
            assert alg.table == want, name
            assert alg.labels == labels, name
            assert alg.unit == unit, name
            assert alg.associativity_witness() is None, name


def test_associativity_witness_on_bumped_non_cocycles():
    # the bumps of acceptance criterion 3: each stored value of f moved by
    # one basis vector of its corner
    broken = 0
    for name in EXAMPLES:
        af = parse_algebra_file(data_path(name + ".alg"))
        basis = compute_basis(af.quiver, af.relations, af.field, 30)
        f = cochain_from_pairs(basis, af.cocycle_pairs)
        for key in sorted(f.table):
            src = basis.path_source_of_index(key[0])
            tgt = basis.path_target_of_index(key[1])
            for i in range(basis.dim):
                if (basis.path_source_of_index(i) != src
                        or basis.path_target_of_index(i) != tgt):
                    continue
                bumped = f + FullCochain(basis.dim, 2, basis.field, {key: {i: basis.field.one}})
                if is_cocycle(bumped, basis):
                    continue
                broken += 1
                d = DeformedAlgebra(basis, bumped)
                bad = d.associativity_witness()
                want = oracle_table(basis, bumped)
                assert bad is not None, name
                assert brute_associator(want, basis.field, *bad), (name, bad)
                assert bad == brute_generator_associativity_defect(
                    2 * basis.dim, want, d.unit, basis.field), name
    assert broken


def cyclic_quiver_text(m, length):
    """The oriented m-cycle a1: 1 -> 2, ..., am: m -> 1 with every path of
    the given length set to zero."""
    lines = ["field Q", "vertex " + " ".join(str(v + 1) for v in range(m))]
    lines += ["arrow a%d : %d -> %d" % (v + 1, v + 1, (v + 1) % m + 1) for v in range(m)]
    lines += ["relation " + "*".join("a%d" % ((s + k) % m + 1) for k in range(length))
              for s in range(m)]
    return "\n".join(lines) + "\n"


def cycle_cocycle(basis, length):
    """The cocycle of "each cycle of the given length = t e_v": f(p, q) is
    the tail after the first length arrows of the composite path p q."""
    q = basis.quiver
    table = {}
    for p in basis.paths:
        for r in basis.paths:
            if len(p) > 1 and len(r) > 1 and q.path_target(p) == q.path_source(r):
                arrows = p[1:] + r[1:]
                if len(arrows) >= length:
                    table[(p, r)] = basis.element_from_path((p[0],) + arrows[length:])
    return cochain_from_paths(basis, 2, table)


def test_pruned_associativity_witness_matches_the_oracle():
    # the witness is checked only for first entries in the support of the
    # unit or among the generators; random bumps of the A_f table must
    # give the first failing triple among those, including triples where
    # only one side is nonzero
    sides = set()
    for m, length in ((3, 6), (4, 8)):
        af = parse_algebra_text(cyclic_quiver_text(m, length))
        basis = compute_basis(af.quiver, af.relations, af.field, 2 * length + 2)
        f = cycle_cocycle(basis, length)
        assert is_cocycle(f, basis)
        fld = basis.field
        dim = 2 * basis.dim
        alg = DeformedAlgebra(basis, f)
        want = oracle_table(basis, f)
        assert alg.table == want
        assert alg.associativity_witness() is None
        assert brute_associativity_defect(dim, want, fld) is None
        rng = random.Random(1)
        for _ in range(12):
            x, y, z = rng.randrange(dim), rng.randrange(dim), rng.randrange(dim)
            table = {key: dict(vec) for key, vec in want.items()}
            entry = table.setdefault((x, y), {})
            entry[z] = fld.add(entry.get(z, fld.zero), fld.one)
            bad = FinDimAlgebra(fld, dim, table, alg.unit, check=False).associativity_witness()
            assert bad == brute_generator_associativity_defect(dim, table, alg.unit, fld), \
                (m, x, y, z)
            assert (bad is None) == (brute_associativity_defect(dim, table, fld) is None)
            if bad is not None:
                i, j, k = ({n: fld.one} for n in bad)
                left = _act(table, fld, _act(table, fld, i, j), k)
                right = _act(table, fld, i, _act(table, fld, j, k))
                sides.add((bool(left), bool(right)))
    assert {(True, False), (False, True)} <= sides


def test_generator_associativity_is_complete():
    # the proof on generators: a bumped product x y of A_f leaves a witness
    # exactly when some basis triple fails.  Nine bumps per algebra have x
    # neither a generator nor in the support of the unit, one in three
    # with y in that support, so that x 1 != x; three more move a product
    # u y, u in the support of the unit, by the last basis element, so
    # that 1 no longer acts as the identity on the left
    rng = random.Random(20261018)
    for name, basis, f in deformation_cases():
        fld = basis.field
        alg = DeformedAlgebra(basis, f)
        dim, unit, roots = alg.dim, sorted(alg.unit), alg.unit_and_generators()
        off = [x for x in range(dim) if x not in roots]
        assert off, name
        bumps = [(rng.choice(off), rng.choice(unit) if n % 3 == 0 else rng.randrange(dim),
                  rng.randrange(dim)) for n in range(9)]
        bumps += [(rng.choice(unit), rng.randrange(dim), dim - 1) for _ in range(3)]
        for x, y, z in bumps:
            table = {key: dict(vec) for key, vec in alg.table.items()}
            entry = table.setdefault((x, y), {})
            entry[z] = fld.add(entry.get(z, fld.zero), fld.from_int(rng.choice((1, 2, -1))))
            bumped = FinDimAlgebra(fld, dim, table, alg.unit, check=False)
            if x in off:
                assert bumped.unit_and_generators() == roots, name
            bad = bumped.associativity_witness()
            full = brute_associativity_defect(dim, table, fld)
            assert (bad is None) == (full is None), (name, x, y, z)
            assert bad == brute_generator_associativity_defect(dim, table, alg.unit, fld)


def test_deform_structure_algebra_keeps_the_unit_check(dual_numbers):
    # f = dg with g(e(1)) = e(1) is a full cocycle that is not normalized:
    # (1, 0) is no longer the unit of A_f
    af, basis = dual_numbers
    g = FullCochain(basis.dim, 1, Q, {(0,): {0: Q.one}})
    f = full_differential(g, basis)
    assert is_full_cocycle(f, basis) and not f.is_zero()
    with pytest.raises(InputError, match=r"unit fails on basis element e\(1\)"):
        Deformation(basis, f)


def test_deform_structure_algebra_rests_associativity_on_the_cocycle(
        dual_numbers, two_cycle, triangle, quantum_plane, lambda_m2):
    # associativity of A_f is d f = 0, checked once; the A_f returned for
    # each fixture cocycle is associative by the exhaustive oracle, while
    # the full cocycle f(x, y) = c xy, which is not normalised, leaves
    # (1, 0) without being the unit and is refused
    for fixture in (dual_numbers, two_cycle, triangle, quantum_plane, lambda_m2):
        af, basis = fixture
        f = cochain_from_pairs(basis, af.cocycle_pairs)
        d = Deformation(basis, f)
        assert brute_associativity_defect(d.dim, d.table, d.field) is None, af
        for c in (1, 2, -3):
            scale = Q.from_int(c)
            cxy = FullCochain(basis.dim, 2, Q, {key: {k: Q.mul(scale, v) for k, v in vec.items()}
                                              for key, vec in basis.table.items()})
            assert is_full_cocycle(cxy, basis)
            with pytest.raises(InputError, match="unit fails on basis element"):
                Deformation(basis, cxy)


def test_hat_f_values(dual_numbers, triangle):
    af, basis = dual_numbers
    q = af.quiver
    f = the_cocycle(af, basis)
    aa = FreeElement.from_path(q, Q, q.path_from_arrow_names(["a", "a"]))
    assert hat_f(aa, basis, f) == basis.element_from_path(q.trivial_path("1"))
    a = FreeElement.from_path(q, Q, q.arrow_path("a"))
    assert hat_f(a, basis, f) == {}
    e = FreeElement.from_path(q, Q, q.trivial_path("1"))
    assert hat_f(e, basis, f) == {}

    af3, basis3 = triangle
    q3 = af3.quiver
    f3 = the_cocycle(af3, basis3)
    a1a2 = FreeElement.from_path(q3, Q, q3.path_from_arrow_names(["a1", "a2"]))
    assert hat_f(a1a2, basis3, f3) == basis3.element_from_path(q3.arrow_path("a3"))


def _non_cocycle(basis, f):
    """f moved by 3 x_k at the first basis pair (i, j) and index k where
    the oracle's differential of the result is not zero."""
    fld = basis.field
    for i in range(basis.dim):
        for j in range(basis.dim):
            for k in range(basis.dim):
                g = f + FullCochain(basis.dim, 2, fld, {(i, j): {k: fld.from_int(3)}})
                if brute_differential(basis.dim, basis.table, fld, g.table, 2):
                    return g
    raise AssertionError("every move of f is a cocycle")


def _products_in_kq(basis, endpoints=None):
    """((u, k, v), u*rho_k*v) for basis paths u, v and relations rho_k,
    multiplied out in kQ, in k, u, v order, when the product is not zero
    and, with endpoints = (s, t), u starts at s and v ends at t."""
    q, fld = basis.quiver, basis.field
    for k, rel in enumerate(basis.relations):
        for u in basis.paths:
            for v in basis.paths:
                if endpoints is not None and (q.path_source(u), q.path_target(v)) != endpoints:
                    continue
                m = FreeElement.from_path(q, fld, u) * rel * FreeElement.from_path(q, fld, v)
                if not m.is_zero():
                    yield (u, k, v), m


def test_hat_f_is_the_t_part_of_lifted_arrow_products():
    # hat_f reads path classes from the table of kQ/I; the oracle
    # multiplies (a_1, 0) ... (a_s, 0) out in A_f.  The identity holds for
    # any cochain, so it is checked for the cocycle and for a non-cocycle,
    # on every basis path and on every nonzero product u*rho*v in kQ
    from conftest import load_basis
    grown = 0
    for name in EXAMPLES + ("lambda_m2",):
        af, basis = load_basis(name + ".alg")
        q, fld = af.quiver, basis.field
        f = cochain_from_pairs(basis, af.cocycle_pairs)
        multiples = [m for _, m in _products_in_kq(basis)]
        grown += len(multiples) - len(basis.relations)
        for g in (f, _non_cocycle(basis, f)):
            lifted = brute_deformed_table(basis.dim, basis.table, g.table)

            def oracle(w):
                return _combo(fld, *[(c, brute_path_lift(
                    lifted, basis.dim,
                    [{basis.index[(q.arrows[a][1], a)]: fld.one} for a in p[1:]], fld))
                    for p, c in w.terms.items()])

            words = [FreeElement.from_path(q, fld, p) for p in basis.paths] + multiples
            for w in words:
                assert hat_f(w, basis, g) == oracle(w), (name, w)
    assert grown > 0


def test_hat_f_is_linear(two_cycle):
    af, basis = two_cycle
    q = af.quiver
    f = the_cocycle(af, basis)
    w1 = FreeElement.from_path(q, Q, q.path_from_arrow_names(["a1", "a2", "a1"]))
    w2 = FreeElement.from_path(q, Q, q.path_from_arrow_names(["a2", "a1"]))
    lhs = hat_f(w1.scale(Fraction(3)) + w2.scale(Fraction(-2)), basis, f)
    rhs = _combo(Q, (Fraction(3), hat_f(w1, basis, f)), (Fraction(-2), hat_f(w2, basis, f)))
    assert lhs == rhs


def test_product_of_arrow_pairs_tracks_hat(two_cycle, quantum_plane):
    # (arrow, 0) products accumulate exactly the hat values
    for af, basis in (two_cycle, quantum_plane):
        q = af.quiver
        f = the_cocycle(af, basis)
        d = DeformedAlgebra(basis, f)
        for p in basis.paths:
            if len(p) == 1:
                continue
            cur = basis.element_from_path((p[0],))
            for a in p[1:]:
                cur = d.mul(cur, basis.element_from_path((q.arrows[a][1], a)))
            w = FreeElement.from_path(q, Q, p)
            assert cur == pair(basis, basis.normal_form(w), hat_f(w, basis, f))


def test_relation_pairs_hit_second_slot(two_cycle):
    af, basis = two_cycle
    q = af.quiver
    f = the_cocycle(af, basis)
    d = DeformedAlgebra(basis, f)
    for rel in basis.relations:
        terms = []
        for p, c in rel.terms.items():
            cur = basis.element_from_path((p[0],))
            for a in p[1:]:
                cur = d.mul(cur, basis.element_from_path((q.arrows[a][1], a)))
            terms.append((c, cur))
        assert _combo(Q, *terms) == pair(basis, {}, hat_f(rel, basis, f))


def test_image_condition_examples(dual_numbers, two_cycle, triangle, quantum_plane):
    for af, basis in (dual_numbers, two_cycle, triangle, quantum_plane):
        f = the_cocycle(af, basis)
        rep = check_image_condition(basis, f)
        assert rep.ok
        # witnesses really reconstruct the cocycle values
        for key, combo in rep.witnesses.items():
            terms = []
            for (u, k, v), c in combo.items():
                m = FreeElement.from_path(af.quiver, Q, u) * basis.relations[k] \
                    * FreeElement.from_path(af.quiver, Q, v)
                terms.append((c, hat_f(m, basis, f)))
            assert _combo(Q, *terms) == f.value(key)


def test_image_condition_zero_cocycle(two_cycle):
    af, basis = two_cycle
    assert check_image_condition(basis, cochain_from_paths(basis, 2, {})).ok


def test_image_condition_failure(two_cycle):
    af, basis = two_cycle
    q = af.quiver
    stray = cochain_from_paths(basis, 2, {(q.arrow_path("a2"), q.arrow_path("a1")):
                               basis.element_from_path(
                                   q.path_from_arrow_names(["a2", "a1"]))})
    rep = check_image_condition(basis, stray)
    assert not rep.ok
    assert rep.failing


def _multiples_in_kq(basis, f, endpoints=None):
    """The (tag, vector) pairs of _hat_multiple_span the slow way: hat_f
    of each product u*rho*v multiplied out in kQ, in the same order and
    with the same filters."""
    return [(tag, val) for tag, m in _products_in_kq(basis, endpoints)
            for val in [hat_f(m, basis, f)] if val]


def _recorded_multiples(basis, f, endpoints=None):
    """The (tag, vector) pairs _hat_multiple_span adds to its span, in order."""
    from quivdeform import deform
    added = []

    class Recording(deform.SpanSolver):
        def add(self, vec, tag=None):
            added.append((tag, dict(vec)))
            return super().add(vec, tag)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(deform, "SpanSolver", Recording)
        deform._hat_multiple_span(basis, f, endpoints)
    return added


def _random_coboundary(basis, rng):
    """The oracle's d g for a 1-cochain g with a random value on each
    radical basis path, spread over the basis paths with the same
    endpoints, and zero on the trivial paths."""
    fld = basis.field
    table = {}
    for i in basis.radical_indices:
        table[(i,)] = {j: fld.from_int(rng.choice((-2, -1, 1, 3)))
                       for j in range(basis.dim)
                       if basis.path_source_of_index(j) == basis.path_source_of_index(i)
                       and basis.path_target_of_index(j) == basis.path_target_of_index(i)
                       and rng.random() < 0.5}
    return FullCochain(basis.dim, 2, fld,
                       brute_differential(basis.dim, basis.table, fld, table, 1))


def multiple_span_cases():
    """(name, basis, reduced 2-cocycle): the fixtures and
    deformation_cases, k[x]/(x^n) and cyclic quivers with the cocycle of
    a cycle = t, each also moved by a random d g, and the two cocycles
    of two_cycle whose image condition fails."""
    from conftest import load_basis
    cases = [(name, basis, f) for name, basis, f in deformation_cases()]
    for name in ("lambda_m2", "cube_multiples"):
        af, basis = load_basis(name + ".alg")
        cases.append((name, basis, cochain_from_pairs(basis, af.cocycle_pairs)))
    for n in (3, 5):
        af = parse_algebra_text(truncated_polynomial_text(n))
        basis = compute_basis(af.quiver, af.relations, af.field, 30)
        cases.append(("trunc%d" % n, basis, cochain_from_pairs(basis, af.cocycle_pairs)))
    for m, length in ((2, 4), (3, 6)):
        af = parse_algebra_text(cyclic_quiver_text(m, length))
        basis = compute_basis(af.quiver, af.relations, af.field, 2 * length + 2)
        cases.append(("cyclic%d_%d" % (m, length), basis, cycle_cocycle(basis, length)))
    rng = random.Random(17)
    cases += [(name + "+dg", basis, f + _random_coboundary(basis, rng))
              for name, basis, f in list(cases)]
    af, basis = load_basis("two_cycle.alg")
    q = af.quiver
    a2, a1 = q.arrow_path("a2"), q.arrow_path("a1")
    a2a1 = q.path_from_arrow_names(["a2", "a1"])
    cases.append(("stray", basis, cochain_from_paths(
        basis, 2, {(a2, a1): basis.element_from_path(a2a1)})))
    g = cochain_from_paths(basis, 1, {(a2a1,): basis.element_from_path(q.trivial_path("2"))})
    cases.append(("moved", basis, the_cocycle(af, basis) + differential(g, basis)))
    return cases


def test_multiple_span_matches_the_products_in_kq():
    # _hat_multiple_span reads hat_f(u rho v) as [u] hat_f(rho) [v] off the
    # table of kQ/I; for a cocycle that is hat_f of the product in kQ, so
    # its span gets the same tagged vectors in the same order
    cases = multiple_span_cases()
    failing = lifted = 0
    for name, basis, f in cases:
        fld = basis.field
        assert not brute_differential(basis.dim, basis.table, fld, f.table, 2), name
        want = _multiples_in_kq(basis, f)
        assert _recorded_multiples(basis, f) == want, name
        lifted += bool(want)
        failing += not check_image_condition(basis, f).ok
        vertices = range(len(basis.quiver.vertices))
        for ends in [(s, t) for s in vertices for t in vertices]:
            assert (_recorded_multiples(basis, f, ends)
                    == _multiples_in_kq(basis, f, ends)), (name, ends)
    # only lambda_m2, whose cocycle is zero, and stray lift nothing
    assert lifted == len(cases) - 2
    assert failing >= 2


def test_presentation_dual_numbers(dual_numbers):
    af, basis = dual_numbers
    f = the_cocycle(af, basis)
    pres, eps = build_presentation(basis, f)
    assert pres.quiver.vertices == ["1"]
    assert [a[0] for a in pres.quiver.arrows] == ["a^"]  # no new loop
    assert pres.dashed == set()
    entry = eps["1"]
    assert entry.kind == "combination"
    assert entry.witness == {0: Fraction(1)}
    expected = relations_from("a^*a^*a^*a^", pres.quiver)
    assert len(pres.relations) == 1
    assert same_ideal(pres.quiver, pres.relations, expected, Q)
    checks = verify_presentation(DeformedAlgebra(basis, f), pres)
    assert all(ok for _, ok, _ in checks)


def test_presentation_two_cycle(two_cycle):
    af, basis = two_cycle
    f = the_cocycle(af, basis)
    pres, eps = build_presentation(basis, f)
    assert [a[0] for a in pres.quiver.arrows] == ["a1^", "a2^", "e^2"]
    assert pres.dashed == {"e^2"}
    assert eps["1"].kind == "combination"
    assert eps["2"].kind == "arrow"
    expected = relations_from(
        """a1^*a2^*a1^*a2^
           e^2*e^2
           a1^*a2^*a1^ - a1^*e^2
           a2^*a1^*a2^ - e^2*a2^""", pres.quiver)
    assert same_ideal(pres.quiver, pres.relations, expected, Q)
    basis_f = compute_basis(pres.quiver, pres.relations, Q, 30)
    assert basis_f.dim == 10
    checks = verify_presentation(DeformedAlgebra(basis, f), pres)
    assert all(ok for _, ok, _ in checks)


def test_presentation_triangle(triangle):
    af, basis = triangle
    f = the_cocycle(af, basis)
    pres, eps = build_presentation(basis, f)
    assert [a[0] for a in pres.quiver.arrows] == \
        ["a1^", "a2^", "a3^", "e^1", "e^2", "e^3"]
    expected = relations_from(
        """e^1*e^1
           e^2*e^2
           e^3*e^3
           e^1*a1^ - a1^*e^2
           e^2*a2^ - a2^*e^3
           e^1*a3^ - a3^*e^3
           a1^*a2^ - a3^*e^3""", pres.quiver)
    assert same_ideal(pres.quiver, pres.relations, expected, Q)
    assert compute_basis(pres.quiver, pres.relations, Q, 30).dim == 12
    checks = verify_presentation(DeformedAlgebra(basis, f), pres)
    assert all(ok for _, ok, _ in checks)


def test_presentation_quantum_plane(quantum_plane):
    af, basis = quantum_plane
    f = the_cocycle(af, basis)
    pres, eps = build_presentation(basis, f)
    assert [a[0] for a in pres.quiver.arrows] == ["a^", "b^", "e^1"]
    expected = relations_from(
        """e^1*e^1
           a^*a^
           b^*b^
           e^1*a^ - a^*e^1
           e^1*b^ - b^*e^1
           a^*b^ + b^*a^ - b^*a^*e^1""", pres.quiver)
    assert same_ideal(pres.quiver, pres.relations, expected, Q)
    assert compute_basis(pres.quiver, pres.relations, Q, 30).dim == 8
    checks = verify_presentation(DeformedAlgebra(basis, f), pres)
    assert all(ok for _, ok, _ in checks)


def test_presentation_appends_lifted_multiples():
    # hat_f(x*x*x) alone misses e(1), so the presentation resolves it
    # through multiples u*rho*v and appends the ones it uses
    from conftest import load_basis
    af, basis = load_basis("cube_multiples.alg")
    q = af.quiver
    f = the_cocycle(af, basis)
    assert is_cocycle(f, basis)
    pres, eps = build_presentation(basis, f)
    assert pres.cocycle is f
    x3, x5 = (FreeElement.from_path(q, Q, q.path_from_arrow_names(["x"] * n)) for n in (3, 5))
    assert pres.extended == [x3, x5]
    assert eps["1"].kind == "combination"
    assert eps["1"].witness == {1: Fraction(1, 2), 2: Fraction(-3, 4)}
    assert [o for o in pres.origins if o.startswith("lift")] == ["lift:0", "lift:1", "lift:2"]
    assert all(ok for _, ok, _ in verify_presentation(DeformedAlgebra(basis, f), pres))


def test_presentation_zero_cocycle(two_cycle):
    af, basis = two_cycle
    zero = cochain_from_paths(basis, 2, {})
    pres, eps = build_presentation(basis, zero)
    assert pres.dashed == {"e^1", "e^2"}
    assert compute_basis(pres.quiver, pres.relations, Q, 30).dim == 2 * basis.dim
    checks = verify_presentation(DeformedAlgebra(basis, zero), pres)
    assert all(ok for _, ok, _ in checks)


def test_presentation_precondition(two_cycle):
    af, basis = two_cycle
    q = af.quiver
    f = the_cocycle(af, basis)
    tweak = cochain_from_paths(basis, 2, {(q.arrow_path("a2"), q.arrow_path("a1")):
                               basis.element_from_path(q.trivial_path("2"))})
    with pytest.raises(NotACocycle):
        build_presentation(basis, f + tweak)
    pres, _ = build_presentation(basis, f)
    assert pres.cocycle is f
    # a cocycle whose image condition fails is not presented itself: the
    # presentation is of the representative normalize_cocycle gives
    g = cochain_from_paths(basis, 1, {(q.path_from_arrow_names(["a2", "a1"]),):
                                      basis.element_from_path(q.trivial_path("2"))})
    moved = f + differential(g, basis)
    assert not check_image_condition(basis, moved).ok
    pres, _ = build_presentation(basis, moved)
    assert pres.cocycle == normalize_cocycle(basis, moved) != moved
    assert check_image_condition(basis, pres.cocycle).ok
    assert all(ok for _, ok, _ in
               verify_presentation(DeformedAlgebra(basis, pres.cocycle), pres))
    # and it is checked against A_f of that representative only
    with pytest.raises(InputError, match="another cocycle"):
        verify_presentation(DeformedAlgebra(basis, moved), pres)


def test_evaluation_refuses_a_quiver_that_is_not_q_followed_by_loops(two_cycle):
    # arrow k of the quiver is read as arrow k of Q and every later arrow
    # as an added loop, so reordered arrows, an added arrow that is not a
    # loop and other vertices are refused, not evaluated to wrong
    # coordinates
    af, basis = two_cycle
    f = the_cocycle(af, basis)
    deformed = DeformedAlgebra(basis, f)
    q = af.quiver
    pres, _ = build_presentation(basis, f)
    for quiver in (q, pres.quiver):
        deformed.evaluation(quiver)
    arrows = [(name, q.vertices[s], q.vertices[t]) for name, s, t in q.arrows]
    for quiver in (Quiver(q.vertices, arrows[::-1]),
                   Quiver(q.vertices, arrows + [("b", "1", "2")]),
                   Quiver(q.vertices[::-1], arrows)):
        with pytest.raises(InputError, match="not Q followed by loops"):
            deformed.evaluation(quiver)


def test_verify_presentation_names_a_relation_that_does_not_vanish(two_cycle):
    af, basis = two_cycle
    f = the_cocycle(af, basis)
    pres, _ = build_presentation(basis, f)
    qf = pres.quiver
    extra = FreeElement.from_path(qf, Q, qf.arrow_path("a1^"))
    bigger = Presentation(qf, pres.relations + [extra], pres.origins + ["extra:a1^"],
                          pres.epsilon, pres.dashed, pres.extended, pres.cocycle)
    checks = {name: (ok, detail) for name, ok, detail
              in verify_presentation(DeformedAlgebra(basis, f), bigger)}
    ok, detail = checks["relations-vanish"]
    assert not ok
    n = len(bigger.relations)
    assert detail == ("%d of %d generators evaluate to zero; the first that "
                      "does not is extra:a1^" % (n - 1, n))


def test_interreduce_keeps_ideal(dual_numbers):
    af, basis = dual_numbers
    f = the_cocycle(af, basis)
    pres, _ = build_presentation(basis, f)
    red = interreduce_presentation(pres, Q)
    assert same_ideal(pres.quiver, pres.relations, red.relations, Q)
    assert all(tag == "interreduced" for tag in red.origins)


def test_normalize_fixed_point(dual_numbers):
    af, basis = dual_numbers
    f = the_cocycle(af, basis)
    assert normalize_cocycle(basis, f) is f


def _random_one_cochain(basis, scalars):
    q = basis.quiver
    a1 = q.arrow_path("a1")
    a2 = q.arrow_path("a2")
    a2a1 = q.path_from_arrow_names(["a2", "a1"])
    c1, c2, c3, c4 = scalars
    return cochain_from_paths(basis, 1, {
        (a1,): _combo(Q, (c1, basis.element_from_path(a1))),
        (a2,): _combo(Q, (c2, basis.element_from_path(a2))),
        (a2a1,): _combo(Q, (c3, basis.element_from_path(q.trivial_path("2"))),
                        (c4, basis.element_from_path(a2a1))),
    })


fracs = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@settings(max_examples=15, deadline=None)
@given(st.tuples(fracs, fracs, fracs, fracs))
def test_normalize_preserves_class(scalars):
    from conftest import load_basis
    from quivdeform.hochschild import cobound_solve
    af, basis = load_basis("two_cycle.alg")
    f = the_cocycle(af, basis)
    g = _random_one_cochain(basis, scalars)
    fg = f + differential(g, basis)
    f2 = normalize_cocycle(basis, fg)
    assert check_image_condition(basis, f2).ok
    assert cobound_solve(fg - f2, basis) is not None


@settings(max_examples=15, deadline=None)
@given(st.tuples(fracs, fracs, fracs, fracs))
def test_equivalence_of_cohomologous_deformations(scalars):
    from conftest import load_basis
    af, basis = load_basis("two_cycle.alg")
    f = the_cocycle(af, basis)
    f2 = f + differential(_random_one_cochain(basis, scalars), basis)
    phi = deformation_equivalence(f, f2, basis)
    assert phi is not None  # multiplicativity is checked inside


def test_equivalence_identity(two_cycle):
    af, basis = two_cycle
    f = the_cocycle(af, basis)
    phi = deformation_equivalence(f, f, basis)
    x = pair(basis, basis.element_from_path(af.quiver.arrow_path("a1")),
             basis.element_from_path(af.quiver.trivial_path("2")))
    assert map_apply(phi, x, Q) == x


def test_equivalence_none_for_nonzero_class(two_cycle):
    af, basis = two_cycle
    f = the_cocycle(af, basis)
    assert deformation_equivalence(f, cochain_from_paths(basis, 2, {}), basis) is None


def test_equivalence_names_a_failing_pair(two_cycle, monkeypatch):
    # dg = f2 - f, so g is the witness of the wrong sign; the check on
    # all basis pairs must refuse it and name where it breaks
    from quivdeform import deform
    from quivdeform.errors import ComputationError
    af, basis = two_cycle
    f = the_cocycle(af, basis)
    g = _random_one_cochain(basis, (1, 2, 3, 4))
    f2 = f + differential(g, basis)
    assert deformation_equivalence(f, f2, basis) is not None
    monkeypatch.setattr(deform, "cobound_solve", lambda target, b: g)
    with pytest.raises(ComputationError, match=r"at the basis pair \(.+, .+\)"):
        deformation_equivalence(f, f2, basis)


def test_presentation_round_trips_through_files(two_cycle):
    from quivdeform.fileio import emit_algebra_text
    af, basis = two_cycle
    f = the_cocycle(af, basis)
    pres, _ = build_presentation(basis, f)
    text = emit_algebra_text(Q, pres.quiver, pres.relations, origins=pres.origins)
    back = parse_algebra_text(text)
    assert back.quiver == pres.quiver
    assert [r.terms for r in back.relations] == [r.terms for r in pres.relations]
    assert back.origins == pres.origins
