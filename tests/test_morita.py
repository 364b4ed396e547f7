import random
import re
from itertools import accumulate

import pytest

from quivdeform import morita
from quivdeform.errors import (CharTwoUnsupported, InputError,
                               NotFullIdempotent, SizeLimitExceeded)
from quivdeform.fields import Field
from quivdeform.fileio import parse_algebra_file
from quivdeform.hochschild import (FullCochain, cochain_from_pairs,
                                   full_differential, is_full_cocycle)
from quivdeform.deform import Deformation
from quivdeform.linalg import _action, _columns, _differing_columns, _identity, map_compose
from quivdeform.morita import (SIDE_LINES, Bimodule, DeformedBimodule, FinDimAlgebra,
                               MoritaContext, TensorProduct,
                               build_hat_P, build_hat_Q, homotopy_h,
                               idempotent_context,
                               matrix_context,
                               transfer_phi, transfer_psi, triple_violations,
                               verify_morita_deformed)
from quivdeform.quiver import compute_basis

from conftest import data_path, identity_context
from oracles import (brute_associativity_defect, brute_bimodule_defects,
                     brute_bimodule_map_defects, brute_context_consequences,
                     brute_context_defects, brute_generator_associativity_defect,
                     brute_generated_dimension, brute_homotopy, brute_transfer,
                     brute_uple_defects, brute_uple_glue)

Q = Field.rationals()
F7 = Field.prime(7)


def golden_cochain(fixture):
    af, basis = fixture
    return cochain_from_pairs(basis, af.cocycle_pairs)


def vertex_idempotent(fixture, name):
    af, basis = fixture
    return {i: basis.field.one for i in basis.trivial_indices
            if basis.labels[i] == "e(%s)" % name}


def random_cochain(rng, field, dim, degree, terms=6):
    table = {}
    for _ in range(terms):
        key = tuple(rng.randrange(dim) for _ in range(degree))
        col = table.setdefault(key, {})
        col[rng.randrange(dim)] = field.from_int(rng.randrange(1, 7))
    return FullCochain(dim, degree, field, table)


def regular_deformed_uple(a_f):
    """(A, A, Id, f, f) over (A_f, A_f): the uple whose glue is the
    regular A_f-bimodule."""
    alg, f = a_f.base, a_f.f
    reg = Bimodule(alg, alg, alg.dim, alg.table, alg.table, check=False)
    f_tables = [_columns([f.value((i, m)) for m in range(alg.dim)]) for i in range(alg.dim)]
    g_tables = [_columns([f.value((m, i)) for m in range(alg.dim)]) for i in range(alg.dim)]
    return DeformedBimodule(a_f, a_f, reg, reg, _identity(alg.dim, alg.field),
                            f_tables, g_tables)


def all_pass(report):
    return [name for name, ok, _ in report if not ok]


def deformed_pair(ctx, f, g=None):
    """A_f and B_g for the context, with g = phi^2(f) unless given; as in
    verify_morita_deformed, each cocycle is proved before its Deformation
    is built, and a non-cocycle raises InputError."""
    if g is None:
        g = transfer_phi(ctx, f)
    for alg, cochain in ((ctx.a, f), (ctx.b, g)):
        if not is_full_cocycle(cochain, alg):
            raise InputError("not a 2-cocycle")
    return Deformation(ctx.a, f), Deformation(ctx.b, g)


# ---------------------------------------------------------------- algebras


def test_structure_algebra_validates(dual_numbers, two_cycle, triangle,
                                     quantum_plane, lambda_m2):
    for fixture in (dual_numbers, two_cycle, triangle, quantum_plane,
                    lambda_m2):
        _, basis = fixture
        FinDimAlgebra(basis.field, basis.dim, basis.table, basis.unit, basis.labels)


def test_bad_structure_constants_rejected():
    # x*x = x with unit x is fine; x*x = 0 with unit x is not a unit
    table = {(0, 0): {}}
    with pytest.raises(InputError):
        FinDimAlgebra(Q, 1, table, {0: Q.one})
    # unit ok but product not associative
    table = {(0, 0): {0: Q.one}, (0, 1): {1: Q.one}, (1, 0): {1: Q.one},
             (1, 1): {0: Q.one}, (1, 2): {}, (2, 1): {2: Q.one},
             (0, 2): {2: Q.one}, (2, 0): {2: Q.one}, (2, 2): {}}
    with pytest.raises(InputError):
        FinDimAlgebra(Q, 3, table, {0: Q.one})


def test_deformed_structure_dual_numbers(dual_numbers):
    _, basis = dual_numbers
    f = golden_cochain(dual_numbers)
    d = Deformation(basis, f)
    assert d.dim == 4
    assert d.labels == ["e(1)", "a", "t*e(1)", "t*a"]
    # (a,0)^2 = (0, e(1)), then twice more reaches (0, a) and dies
    sq = d.mul({1: Q.one}, {1: Q.one})
    assert sq == {2: Q.one}
    assert d.mul(sq, {1: Q.one}) == {3: Q.one}
    assert d.mul(sq, sq) == {}


def test_deform_structure_rejects_non_cocycle(dual_numbers):
    # the builder checks only the unit; the certificate proves d f = 0
    # where it reads f, before it builds any deformed algebra
    _, basis = dual_numbers
    bad = FullCochain(basis.dim, 2, Q, {(1, 0): {0: Q.one}})
    assert not is_full_cocycle(bad, basis)
    with pytest.raises(InputError, match="f must be a Hochschild 2-cocycle on A"):
        verify_morita_deformed(matrix_context(basis, 2), bad)


def test_algebra_generators_generate(dual_numbers, two_cycle, triangle,
                                     quantum_plane, lambda_m2):
    # the certificate checks rest on these generators, so generation is
    # measured by the oracle's dense rank, on the fixtures, on M_2(A) and
    # on the deformations A_f and B_g of the matrix context
    algebras = [fixture[1] for fixture in
                (dual_numbers, two_cycle, triangle, quantum_plane, lambda_m2)]
    _, basis = dual_numbers
    f = golden_cochain(dual_numbers)
    ctx = matrix_context(basis, 2)
    g = transfer_phi(ctx, f)
    algebras += [ctx.b, Deformation(basis, f),
                 Deformation(ctx.b, g)]
    for alg in algebras:
        gens = alg.generators()
        assert gens == sorted(set(gens)) and gens is alg.generators()
        assert brute_generated_dimension(raw_algebra(alg), gens, alg.field) == alg.dim
        # none can be left out: each one lies outside the subalgebra the
        # earlier ones generate
        for k, gen in enumerate(gens):
            assert brute_generated_dimension(raw_algebra(alg), gens[:k], alg.field) < \
                brute_generated_dimension(raw_algebra(alg), gens[:k] + [gen], alg.field)
    # M_2(A) has more basis elements than generators
    assert len(ctx.b.generators()) < ctx.b.dim


# --------------------------------------------------------------- bimodules


def test_regular_bimodule_checks(triangle):
    _, basis = triangle
    reg = Bimodule(basis, basis, basis.dim, basis.table, basis.table, check=False)
    assert reg.violations() == []
    assert reg.left_act({0: Q.one}, {0: Q.one}) == basis.multiply_basis(0, 0)


def test_broken_bimodule_rejected(dual_numbers):
    _, basis = dual_numbers
    reg = Bimodule(basis, basis, basis.dim, basis.table, basis.table, check=False)
    left = {k: dict(v) for k, v in reg.left.items()}
    left[(1, 1)] = {0: Q.one}  # a . a = e(1) is not the left regular action
    with pytest.raises(InputError):
        Bimodule(basis, basis, basis.dim, left, dict(reg.right))


def test_tensor_regular_is_algebra(dual_numbers, triangle):
    for fixture in (dual_numbers, triangle):
        _, basis = fixture
        reg = Bimodule(basis, basis, basis.dim, basis.table, basis.table, check=False)
        ten = TensorProduct(reg, reg)
        one = basis.field.one
        assert ten.dim == basis.dim
        # every pure tensor collapses onto (x_i x_j) (x) 1
        for i in range(basis.dim):
            for j in range(basis.dim):
                prod = basis.multiply_basis(i, j)
                assert ten.pure_vec({i: one}, {j: one}) == ten.pure_vec(prod, basis.unit)


# ---------------------------------------------------------------- contexts


def test_identity_context(dual_numbers):
    _, basis = dual_numbers
    ctx = identity_context(basis)
    assert ctx.a is basis and ctx.b is basis
    assert ctx.swap().swap() is ctx


def test_matrix_context_shapes(dual_numbers):
    _, basis = dual_numbers
    for n in (1, 2, 3):
        ctx = matrix_context(basis, n)
        assert ctx.b.dim == n * n * basis.dim
        assert ctx.p.dim == ctx.q.dim == n * basis.dim
        assert len(ctx.gens_a) == 1 and len(ctx.gens_b) == n
    with pytest.raises(InputError):
        matrix_context(basis, 0)


def test_matrix_context_n1_matches_identity(two_cycle):
    _, basis = two_cycle
    ctx1 = matrix_context(basis, 1)
    ctx0 = identity_context(basis)
    rng = random.Random(5)
    for _ in range(5):
        f = random_cochain(rng, Q, basis.dim, 2)
        assert transfer_phi(ctx1, f) == transfer_phi(ctx0, f)


def test_idempotent_context_corner(lambda_m2):
    af, basis = lambda_m2
    ctx = idempotent_context(basis, vertex_idempotent(lambda_m2, "1"))
    assert ctx.b.dim == 2
    assert ctx.p.dim == 4 and ctx.q.dim == 4
    assert len(ctx.gens_b) == 1


def test_idempotent_context_unit_is_whole_algebra(two_cycle):
    _, basis = two_cycle
    ctx = idempotent_context(basis, dict(basis.unit))
    assert ctx.b.dim == basis.dim
    assert ctx.p.dim == basis.dim


def test_idempotent_not_full(two_cycle):
    _, basis = two_cycle
    with pytest.raises(NotFullIdempotent):
        idempotent_context(basis, vertex_idempotent(two_cycle, "1"))


def test_idempotent_rejects_non_idempotent(dual_numbers):
    _, basis = dual_numbers
    with pytest.raises(InputError):
        idempotent_context(basis, {1: Q.one})


def corner_context(lambda_m2):
    _, basis = lambda_m2
    return basis, idempotent_context(basis, vertex_idempotent(lambda_m2, "1"))


# ---------------------------------------------------------------- transfer


def test_identity_transfer_is_identity(triangle):
    _, basis = triangle
    ctx = identity_context(basis)
    rng = random.Random(17)
    for degree in (1, 2, 3):
        for _ in range(4):
            f = random_cochain(rng, Q, basis.dim, degree)
            assert transfer_phi(ctx, f) == f
            assert transfer_psi(ctx, f) == f


def brute_phi(ctx, f):
    """phi^n(f) from the oracle, on the raw tables of the context."""
    return brute_transfer(raw_algebra(ctx.b), raw_bimodule(ctx.p), raw_bimodule(ctx.q),
                          ctx.pairing_a, ctx.pairing_b, ctx.gens_b, f.table,
                          f.degree, ctx.field)


def brute_psi(ctx, g):
    """psi^n(g) from the oracle: the sum of phi with the sides exchanged."""
    return brute_transfer(raw_algebra(ctx.a), raw_bimodule(ctx.q), raw_bimodule(ctx.p),
                          ctx.pairing_b, ctx.pairing_a, ctx.gens_a, g.table,
                          g.degree, ctx.field)


def test_transfer_against_brute_force(dual_numbers, two_cycle, lambda_m2):
    rng = random.Random(23)
    _, basis = dual_numbers
    contexts = [matrix_context(basis, 2)]
    corner_alg, corner = corner_context(lambda_m2)
    contexts.append(corner)
    contexts.append(identity_context(two_cycle[1]))
    for ctx in contexts:
        for degree in (1, 2, 3):
            for dim, transfer, brute in ((ctx.a.dim, transfer_phi, brute_phi),
                                         (ctx.b.dim, transfer_psi, brute_psi)):
                zero = FullCochain(dim, degree, Q, {})
                assert transfer(ctx, zero).table == brute(ctx, zero) == {}
                for _ in range(3):
                    f = random_cochain(rng, Q, dim, degree)
                    assert transfer(ctx, f).table == brute(ctx, f)


def test_transfer_degree_errors(dual_numbers):
    _, basis = dual_numbers
    ctx = identity_context(basis)
    with pytest.raises(InputError, match="degrees 1..3"):
        transfer_phi(ctx, FullCochain(basis.dim, 4, Q, {}))
    with pytest.raises(InputError):
        transfer_phi(ctx, FullCochain(basis.dim + 1, 2, Q, {}))
    with pytest.raises(InputError):
        homotopy_h(ctx, FullCochain(basis.dim, 1, Q, {}))


def test_homotopy_identity_context_closed_form(dual_numbers):
    # over the full complex h^2(f)(a) = -f(1 (x) a) + f(a (x) 1)
    _, basis = dual_numbers
    ctx = identity_context(basis)
    rng = random.Random(29)
    for _ in range(10):
        f = random_cochain(rng, Q, basis.dim, 2)
        h = homotopy_h(ctx, f)
        for t in range(basis.dim):
            et = {t: Q.one}
            want = {}
            for k, c in f.evaluate(basis.unit, et).items():
                want[k] = Q.neg(c)
            for k, c in f.evaluate(et, basis.unit).items():
                s = Q.add(want.get(k, Q.zero), c)
                if s == Q.zero:
                    want.pop(k, None)
                else:
                    want[k] = s
            assert h.value((t,)) == want


def test_homotopy_against_brute_force(dual_numbers, two_cycle, lambda_m2):
    # h^2 and h^3 against the displayed sums, evaluated term by term on
    # every basis tuple, on matrix, identity and corner contexts
    rng = random.Random(41)
    _, basis = dual_numbers
    contexts = [matrix_context(basis, 2), matrix_context(basis, 3),
                identity_context(two_cycle[1]), corner_context(lambda_m2)[1],
                idempotent_context(two_cycle[1], dict(two_cycle[1].unit))]
    for ctx in contexts:
        for degree in (2, 3):
            for _ in range(3):
                f = random_cochain(rng, Q, ctx.a.dim, degree, terms=20)
                want = brute_homotopy(raw_algebra(ctx.a), ctx.pairing_a, ctx.gens_a,
                                      ctx.gens_b, f.table, degree, Q)
                assert want and homotopy_h(ctx, f).table == want


def test_transferred_cocycle_is_cocycle(dual_numbers, lambda_m2):
    _, basis = dual_numbers
    f = golden_cochain(dual_numbers)
    for n in (2, 3):
        ctx = matrix_context(basis, n)
        g = transfer_phi(ctx, f)
        assert is_full_cocycle(g, ctx.b)


def test_chain_maps_matrix_context(dual_numbers):
    _, basis = dual_numbers
    ctx = matrix_context(basis, 2)
    rng = random.Random(31)
    for _ in range(5):
        f = random_cochain(rng, Q, basis.dim, 2)
        assert full_differential(transfer_phi(ctx, f), ctx.b) == \
            transfer_phi(ctx, full_differential(f, basis))
        g = random_cochain(rng, Q, ctx.b.dim, 2)
        assert full_differential(transfer_psi(ctx, g), basis) == \
            transfer_psi(ctx, full_differential(g, ctx.b))


def test_homotopy_identity(dual_numbers, lambda_m2):
    # h^3 d^3 + d^2 h^2 = Id - psi^2 phi^2 on 2-cochains
    rng = random.Random(37)
    _, basis = dual_numbers
    corner_alg, corner = corner_context(lambda_m2)
    cases = [(basis, matrix_context(basis, 2)),
             (basis, identity_context(basis)),
             (corner_alg, corner)]
    for a, ctx in cases:
        for _ in range(5):
            f = random_cochain(rng, Q, a.dim, 2)
            lhs = homotopy_h(ctx, full_differential(f, a)) + \
                full_differential(homotopy_h(ctx, f), a)
            rhs = f - transfer_psi(ctx, transfer_phi(ctx, f))
            assert lhs == rhs


def test_cocycle_transfer_roundtrip_is_coboundary(dual_numbers, lambda_m2):
    # for a cocycle f the roundtrip defect f - psi phi f bounds d(h^2 f)
    _, basis = dual_numbers
    f = golden_cochain(dual_numbers)
    ctx = matrix_context(basis, 3)
    defect = f - transfer_psi(ctx, transfer_phi(ctx, f))
    assert defect == full_differential(homotopy_h(ctx, f), basis)
    corner_alg, corner = corner_context(lambda_m2)
    g = FullCochain(corner.b.dim, 2, Q, {(1, 1): dict(corner.b.unit)})
    fa = transfer_psi(corner, g)
    assert is_full_cocycle(fa, corner_alg)
    defect = fa - transfer_psi(corner, transfer_phi(corner, fa))
    assert defect == full_differential(homotopy_h(corner, fa), corner_alg)


def test_corner_transfer_frozen_value(lambda_m2):
    # the corner cocycle al (x) al -> e1 lifts to a cocycle on Lambda
    # supported on the radical square; value checked against the brute
    # force sum once and frozen here
    af, basis = lambda_m2
    corner_alg, corner = corner_context(lambda_m2)
    g = FullCochain(corner.b.dim, 2, Q, {(1, 1): dict(corner.b.unit)})
    fa = transfer_psi(corner, g)
    lab = {name: i for i, name in enumerate(corner_alg.labels)}
    one = Q.one
    want = {
        (lab["al"], lab["al"]): {lab["e(1)"]: one},
        (lab["al"], lab["al*u"]): {lab["u"]: one},
        (lab["v*al"], lab["al"]): {lab["v"]: one},
        (lab["v*al"], lab["al*u"]): {lab["e(2)"]: one},
        (lab["al*u"], lab["v*al"]): {lab["e(1)"]: one},
        (lab["al*u"], lab["v*al*u"]): {lab["u"]: one},
        (lab["v*al*u"], lab["v*al"]): {lab["v"]: one},
        (lab["v*al*u"], lab["v*al*u"]): {lab["e(2)"]: one},
    }
    assert fa.table == want
    assert brute_psi(corner, g) == want


# ------------------------------------------------------- deformed bimodules


def test_hat_bimodules_satisfy_conditions(dual_numbers, lambda_m2):
    _, basis = dual_numbers
    f = golden_cochain(dual_numbers)
    for ctx in (identity_context(basis), matrix_context(basis, 2)):
        h2f = homotopy_h(ctx, f)
        assert build_hat_P(ctx, *deformed_pair(ctx, f), h2f).violations() == []
        assert build_hat_Q(ctx, *deformed_pair(ctx, f), h2f).violations() == []
    corner_alg, corner = corner_context(lambda_m2)
    g = FullCochain(corner.b.dim, 2, Q, {(1, 1): dict(corner.b.unit)})
    fa = transfer_psi(corner, g)
    h2f = homotopy_h(corner, fa)
    assert build_hat_P(corner, *deformed_pair(corner, fa), h2f).violations() == []
    assert build_hat_Q(corner, *deformed_pair(corner, fa), h2f).violations() == []


def test_hat_requires_cocycle_and_odd_characteristic(dual_numbers):
    _, basis = dual_numbers
    ctx = identity_context(basis)
    bad = FullCochain(basis.dim, 2, Q, {(1, 0): {0: Q.one}})
    with pytest.raises(InputError):
        build_hat_P(ctx, *deformed_pair(ctx, bad), homotopy_h(ctx, bad))
    F2 = Field.prime(2)
    af = parse_algebra_file(data_path("dual_numbers.alg"), field_override=F2)
    basis2 = compute_basis(af.quiver, af.relations, F2)
    ctx2 = identity_context(basis2)
    f2 = cochain_from_pairs(basis2, af.cocycle_pairs)
    with pytest.raises(CharTwoUnsupported):
        build_hat_P(ctx2, *deformed_pair(ctx2, f2), homotopy_h(ctx2, f2))
    with pytest.raises(CharTwoUnsupported):
        verify_morita_deformed(ctx2, f2)


def test_regular_uple_glues_to_deformed_algebra(two_cycle):
    _, basis = two_cycle
    f = golden_cochain(two_cycle)
    d = Deformation(basis, f)
    uple = regular_deformed_uple(d)
    assert uple.violations() == []
    glued = uple.glued
    reg = Bimodule(d, d, d.dim, d.table, d.table, check=False)
    assert glued.left == reg.left
    assert glued.right == reg.right


def test_triple_violations_flags_breakage(dual_numbers):
    _, basis = dual_numbers
    f = golden_cochain(dual_numbers)
    uple = regular_deformed_uple(Deformation(basis, f))
    # sparse maps {column: {row: scalar}}
    ident = {i: {i: Q.one} for i in range(basis.dim)}
    zero = {}
    assert triple_violations(uple, uple, ident, zero, ident) == []
    skew = {1: {0: Q.one}}
    assert triple_violations(uple, uple, ident, zero, skew)


def test_certificate_computes_the_homotopy_once(dual_numbers, monkeypatch):
    # hat P and hat Q both read h^2(f); verify_morita_deformed computes it
    # once and hands it to both builders
    ctx = matrix_context(dual_numbers[1], 2)
    f = golden_cochain(dual_numbers)
    calls = []
    real = morita.homotopy_h

    def counted(c, cochain):
        calls.append(cochain)
        return real(c, cochain)

    monkeypatch.setattr(morita, "homotopy_h", counted)
    report = verify_morita_deformed(ctx, f)
    assert report and all(ok for _, ok, _ in report)
    assert calls == [f]


def test_glued_hat_p_is_bimodule(dual_numbers):
    _, basis = dual_numbers
    f = golden_cochain(dual_numbers)
    ctx = matrix_context(basis, 2)
    hat = build_hat_P(ctx, *deformed_pair(ctx, f), homotopy_h(ctx, f))
    assert hat.glued.violations() == []


# ------------------------------------------------ certificate checks vs oracle


def raw_algebra(alg):
    return (alg.dim, alg.table, alg.unit)


def raw_bimodule(m):
    return (m.dim, m.left, m.right)


# bimodule messages: (pattern, oracle kind, what each slot names: a label
# of the left or right algebra, or a module coordinate)
BIMODULE_MESSAGES = (
    (r"left unit fails at (\d+)$", "left unit", "m"),
    (r"right unit fails at (\d+)$", "right unit", "m"),
    (r"left action not associative at \((.+), (.+), (\d+)\)$", "left assoc", "llm"),
    (r"right action not associative at \((\d+), (.+), (.+)\)$", "right assoc", "mrr"),
    (r"actions do not commute at \((.+), (\d+), (.+)\)$", "commute", "lmr"),
)


def bimodule_witness(left_alg, right_alg, message):
    """The oracle defect (kind, index tuple) that a bimodule message names."""
    read = {"l": left_alg.labels.index, "r": right_alg.labels.index, "m": int}
    for pattern, kind, slots in BIMODULE_MESSAGES:
        hit = re.match(pattern, message)
        if hit:
            return kind, tuple(read[slot](x) for slot, x in zip(slots, hit.groups()))
    raise AssertionError("unparsed bimodule violation: " + message)


def raw_uple(uple):
    """The arguments of the uple oracles for a DeformedBimodule."""
    f_m = {(i, m): vec for i, tab in enumerate(uple.f_tables) for m, vec in tab.items()}
    g_m = {(m, j): vec for j, tab in enumerate(uple.g_tables) for m, vec in tab.items()}
    return (raw_algebra(uple.left_alg), raw_algebra(uple.right_alg), uple.f.table,
            uple.g.table, raw_bimodule(uple.m0), raw_bimodule(uple.m1), uple.t, f_m, g_m,
            uple.field)


def assert_bimodule_matches_oracle(bim):
    """violations() is empty exactly when the oracle finds no defect, and
    its first message names a tuple that the oracle flags, of the kind of
    the oracle's first defect (both check the units, left and right
    associativity and commutation in that order, and each kind is
    complete on generators); returns the violations."""
    bad = bim.violations()
    defects = brute_bimodule_defects(raw_algebra(bim.left_alg), raw_algebra(bim.right_alg),
                                     bim.dim, bim.left, bim.right, bim.field)
    assert bool(bad) == bool(defects), (bad[:1], defects[:1])
    if bad:
        witness = bimodule_witness(bim.left_alg, bim.right_alg, bad[0])
        assert witness in defects, (bad[0], defects)
        assert witness[0] == defects[0][0], (bad[0], defects[0])
    return bad


def assert_uple_matches_oracle(uple):
    """violations() is empty exactly when the oracle finds no uple defect.
    Its first message is "T is not injective" exactly when the oracle
    finds T singular, and otherwise names a defect that the oracle finds
    on its own glue of the uple, of the kind of the first one there; the
    oracle's glue has a defect exactly when the uple has one besides
    injectivity.  Returns the violations."""
    bad = uple.violations()
    defects = brute_uple_defects(*raw_uple(uple))
    a_f, b_g, dim, left, right = brute_uple_glue(*raw_uple(uple))
    glue = brute_bimodule_defects(a_f, b_g, dim, left, right, uple.field)
    assert bool(glue) == any(kind != "injective" for kind, _ in defects), (glue, defects)
    assert bool(bad) == bool(defects), (bad[:1], defects[:1])
    if bad:
        singular = ("injective", ()) in defects
        assert (bad[0] == "T is not injective") == singular, (bad[0], defects)
        if not singular:
            witness = bimodule_witness(uple.left_def, uple.right_def, bad[0])
            assert witness in glue and witness[0] == glue[0][0], (bad[0], glue[:1])
    return bad


def certificate_cases(dual_numbers, two_cycle, triangle, quantum_plane, lambda_m2):
    """(context, cocycle on A) for the valid inputs of the oracle tests."""
    cases = []
    for fixture in (dual_numbers, two_cycle, triangle, quantum_plane):
        cases.append((identity_context(fixture[1]), golden_cochain(fixture)))
    cases.append((matrix_context(dual_numbers[1], 2),
                  golden_cochain(dual_numbers)))
    corner_alg, corner = corner_context(lambda_m2)
    g = FullCochain(corner.b.dim, 2, Q, {(1, 1): dict(corner.b.unit)})
    cases.append((corner, transfer_psi(corner, g)))
    return cases


def test_valid_certificates_match_oracle(dual_numbers, two_cycle, triangle,
                                         quantum_plane, lambda_m2):
    for ctx, f in certificate_cases(dual_numbers, two_cycle, triangle,
                                    quantum_plane, lambda_m2):
        assert assert_bimodule_matches_oracle(ctx.p) == []
        assert assert_bimodule_matches_oracle(ctx.q) == []
        a_f, b_g = deformed_pair(ctx, f)
        h2f = homotopy_h(ctx, f)
        assert assert_uple_matches_oracle(build_hat_P(ctx, a_f, b_g, h2f)) == []
        assert assert_uple_matches_oracle(build_hat_Q(ctx, a_f, b_g, h2f)) == []
        assert assert_uple_matches_oracle(regular_deformed_uple(a_f)) == []


def test_broken_bimodules_match_oracle(dual_numbers):
    p = matrix_context(dual_numbers[1], 2).p
    left = {k: dict(v) for k, v in p.left.items()}
    left[(1, 1)] = {0: Q.one}  # a . (a in slot 1) is 0, not e(1)
    assert assert_bimodule_matches_oracle(
        Bimodule(p.left_alg, p.right_alg, p.dim, left, p.right, check=False))
    right = {k: dict(v) for k, v in p.right.items()}
    right[(0, 1)] = {1: Q.one, 2: Q.one}  # e(1) . E11*a is a, in slot 1 only
    assert assert_bimodule_matches_oracle(
        Bimodule(p.left_alg, p.right_alg, p.dim, p.left, right, check=False))
    # a acts by two square-zero matrices that do not commute: both actions
    # are modules, only the commutation fails
    _, basis = dual_numbers
    left = {(0, 0): {0: Q.one}, (0, 1): {1: Q.one}, (1, 0): {1: Q.one}}
    right = {(0, 0): {0: Q.one}, (1, 0): {1: Q.one}, (1, 1): {0: Q.one}}
    bad = assert_bimodule_matches_oracle(Bimodule(basis, basis, 2, left, right, check=False))
    assert bad and all("commute" in msg for msg in bad)


def test_broken_uples_match_oracle(dual_numbers):
    _, basis = dual_numbers
    f = golden_cochain(dual_numbers)
    ctx = matrix_context(basis, 2)
    a_f, b_g = deformed_pair(ctx, f)
    h2f = homotopy_h(ctx, f)
    hat = build_hat_P(ctx, a_f, b_g, h2f)

    def variant(f_tables=None, g_tables=None, t=None):
        return DeformedBimodule(hat.left_def, hat.right_def, hat.m0, hat.m1,
                                t or hat.t, f_tables or hat.f_tables,
                                g_tables or hat.g_tables)

    f_tables = [dict(tab) for tab in hat.f_tables]
    f_tables[1][0] = {**f_tables[1].get(0, {}), 3: Q.one}
    g_tables = [dict(tab) for tab in hat.g_tables]
    g_tables[1][2] = {**g_tables[1].get(2, {}), 0: Q.one}
    t = dict(hat.t)
    t[0] = {0: Q.from_int(2)}  # T scaled on one column no longer intertwines
    singular = {m: col for m, col in hat.t.items() if m != 0}  # T kills x_0
    g2 = transfer_phi(ctx, f).scale(Q.from_int(2))
    for uple in (variant(f_tables=f_tables), variant(g_tables=g_tables), variant(t=t),
                 variant(t=singular),
                 build_hat_P(ctx, a_f, Deformation(ctx.b, g2), h2f)):
        assert assert_uple_matches_oracle(uple)
    # over the zero cocycle T = 0 meets every condition but injectivity
    zero = FullCochain(basis.dim, 2, Q, {})
    reg = regular_deformed_uple(Deformation(basis, zero))
    uple = DeformedBimodule(reg.left_def, reg.right_def, reg.m0, reg.m1, {},
                            reg.f_tables, reg.g_tables)
    assert assert_uple_matches_oracle(uple) == ["T is not injective"]


def test_uple_check_is_one_bimodule_check_on_generators(dual_numbers, monkeypatch):
    # the check of hat P is the rank of T and Bimodule.violations on its
    # glue: |G_l| dim A_f + dim B_g |G_r| + 2 |G_l| |G_r| compositions, for
    # the generators G_l of A_f and G_r of B_g; none runs over pairs of
    # basis elements
    ctx = matrix_context(dual_numbers[1], 2)
    f = golden_cochain(dual_numbers)
    hat = build_hat_P(ctx, *deformed_pair(ctx, f), homotopy_h(ctx, f))
    a_f, b_g = hat.left_def, hat.right_def
    nl, nr = len(a_f.generators()), len(b_g.generators())
    calls = []
    real = morita.map_compose

    def counted(a, b, field):
        calls.append(1)
        return real(a, b, field)

    monkeypatch.setattr(morita, "map_compose", counted)
    assert hat.violations() == []
    assert len(calls) == nl * a_f.dim + b_g.dim * nr + 2 * nl * nr


TRIPLE_MESSAGE = r"the triple does not intertwine the (left|right) action of (.+) at (\d+)$"


def test_bimodule_triples_match_oracle(triangle):
    # right multiplication by (x, 0) on the regular A_f-bimodule is the
    # triple (R_x, f(-, x), R_x): it commutes with the left action, and
    # with the right one only when x is central (x = 1 here); dropping its
    # middle component can break the left action too
    _, basis = triangle
    uple = regular_deformed_uple(Deformation(basis, golden_cochain(triangle)))
    glue = brute_uple_glue(*raw_uple(uple))
    n = basis.dim
    sides = []
    for x in [{c: Q.one} for c in range(n)] + [basis.unit]:
        rc = {m: basis.mul({m: Q.one}, x) for m in range(n) if basis.mul({m: Q.one}, x)}
        fc = {m: uple.f.evaluate({m: Q.one}, x) for m in range(n)
              if uple.f.evaluate({m: Q.one}, x)}
        for u1 in (fc, {}):
            block = {m: {**rc.get(m, {}), **{n + r: v for r, v in u1.get(m, {}).items()}}
                     for m in range(n)}
            block.update({n + m: {n + r: v for r, v in col.items()} for m, col in rc.items()})
            defects = brute_bimodule_map_defects(glue, glue, block, Q)
            bad = triple_violations(uple, uple, rc, u1, rc)
            assert bool(bad) == bool(defects), (x, bad[:1], defects[:1])
            if bad:
                side, label, m = re.match(TRIPLE_MESSAGE, bad[0]).groups()
                algebra = uple.left_def if side == "left" else uple.right_def
                witness = (side, algebra.labels.index(label), int(m))
                assert witness in defects and side == defects[0][0], (bad[0], defects)
            sides.append({side for side, _, _ in defects})
    assert {"right"} in sides and {"left", "right"} in sides and set() in sides


def vector_plus(field, vec, k):
    """vec + e_k as a new coordinate dict."""
    out = dict(vec)
    out[k] = field.add(out.get(k, field.zero), field.one)
    return {r: c for r, c in out.items() if c != field.zero}


def conjugated(right, dim, field, r, c):
    """The right action table S rho(j) S^-1 for S = 1 + E_rc (r != c),
    whose inverse is 1 - E_rc: again a unital right action, which in
    general no longer commutes with the left action."""
    def s_apply(vec, sign):
        out = dict(vec)
        if c in vec:
            out[r] = field.add(out.get(r, field.zero), field.mul(sign, vec[c]))
        return {k: v for k, v in out.items() if v != field.zero}

    minus = field.neg(field.one)
    out = {}
    for (m, j) in {(m, j) for m in range(dim) for (_, j) in right}:
        # S rho(j) S^-1 e_m: S^-1 e_m = e_m - [m == c] e_r
        pre = s_apply({m: field.one}, minus)
        img = {}
        for k, x in pre.items():
            for row, v in right.get((k, j), {}).items():
                img[row] = field.add(img.get(row, field.zero), field.mul(x, v))
        img = s_apply({k: v for k, v in img.items() if v != field.zero}, field.one)
        if img:
            out[(m, j)] = img
    return out


def bimodule_zoo(dual_numbers):
    """P and Q of M_2(A), the glued P^ over (A_f, B_g) and the balanced
    product P^ (x) Q^ over (A_f, A_f), for A the dual numbers."""
    _, basis = dual_numbers
    f = golden_cochain(dual_numbers)
    ctx = matrix_context(basis, 2)
    a_f, b_g = deformed_pair(ctx, f)
    h2f = homotopy_h(ctx, f)
    hat_p = build_hat_P(ctx, a_f, b_g, h2f).glued
    hat_q = build_hat_Q(ctx, a_f, b_g, h2f).glued
    return [ctx.p, ctx.q, hat_p, TensorProduct(hat_p, hat_q).bimodule]


def test_generator_checks_agree_with_the_oracle_on_broken_bimodules(dual_numbers):
    # one entry of the left or right action moved, or the right action
    # conjugated so that only the commutation can fail: the generator
    # checks find a failure exactly when the exhaustive oracle does, and
    # their first witness is one of the oracle's failing tuples
    rng = random.Random(41)
    first_kinds = set()
    for bim in bimodule_zoo(dual_numbers):
        fld = bim.field
        la, ra = bim.left_alg, bim.right_alg
        assert assert_bimodule_matches_oracle(bim) == []
        variants = []
        for _ in range(3):
            # a basis element outside the support of the unit, so that the
            # unit checks still pass and the associativity checks decide
            i = rng.choice([k for k in range(la.dim) if k not in la.unit])
            m, r = rng.randrange(bim.dim), rng.randrange(bim.dim)
            left = dict(bim.left)
            left[(i, m)] = vector_plus(fld, left.get((i, m), {}), r)
            variants.append((left, bim.right))
            j = rng.choice([k for k in range(ra.dim) if k not in ra.unit])
            right = dict(bim.right)
            right[(m, j)] = vector_plus(fld, right.get((m, j), {}), r)
            variants.append((bim.left, right))
        for r, c in ((0, bim.dim - 1), (bim.dim - 1, 0)):
            variants.append((bim.left, conjugated(bim.right, bim.dim, fld, r, c)))
        for left, right in variants:
            broken = Bimodule(la, ra, bim.dim, left, right, check=False)
            bad = assert_bimodule_matches_oracle(broken)
            if bad:
                first_kinds.add(bimodule_witness(la, ra, bad[0])[0])
    assert {"left assoc", "right assoc", "commute"} <= first_kinds


def test_bimodule_check_composes_on_generators_only(dual_numbers, monkeypatch):
    # one composite per (left generator, basis element) and per (basis
    # element, right generator), and the two composites of each commuting
    # pair of generators; the exhaustive check made dim^2 and 2 dim dim'
    calls = []
    real = morita.map_compose

    def counted(a, b, field):
        calls.append(1)
        return real(a, b, field)

    bimodules = bimodule_zoo(dual_numbers)
    monkeypatch.setattr(morita, "map_compose", counted)
    for bim in bimodules:
        la, ra = bim.left_alg, bim.right_alg
        gl, gr = len(la.generators()), len(ra.generators())
        del calls[:]
        assert bim.violations() == []
        assert len(calls) == gl * la.dim + ra.dim * gr + 2 * gl * gr
        assert len(calls) < la.dim ** 2 + ra.dim ** 2 + 2 * la.dim * ra.dim


# the blocks of the Morita ring [[A, P], [Q, B]] in the triple that each
# oracle kind names, in the order of its index tuple: the kinds of
# brute_context_defects, then those of brute_bimodule_defects on P and Q
RING_BLOCKS = {"a.p,q": "APQ", "p,q.a": "PQA", "p.b,q": "PBQ", "b.q,p": "BQP",
               "q,p.b": "QPB", "q.a,p": "QAP", "pqp": "PQP", "qpq": "QPQ",
               "P left assoc": "AAP", "P right assoc": "PBB", "P commute": "APB",
               "Q left assoc": "BBQ", "Q right assoc": "QAA", "Q commute": "BQA"}
KIND_OF_BLOCKS = {blocks: kind for kind, blocks in RING_BLOCKS.items()}

CONTEXT_MESSAGES = (
    (r"the Morita ring is not associative at \((.+), (.+), (.+)\)$", "ring"),
    (r"the Morita ring: unit fails on basis element (.+)$", "unit"),
    (r"gens_a do not decompose 1_A$", "unit A"),
    (r"gens_b do not decompose 1_B$", "unit B"),
)


def context_defects(ctx):
    """Every basis tuple at which an exhaustive oracle finds an axiom of
    the context failing: brute_context_defects, then the failed axioms of
    the bimodules P and Q, their kinds prefixed with "P " and "Q "."""
    out = brute_context_defects(raw_algebra(ctx.a), raw_algebra(ctx.b),
                                raw_bimodule(ctx.p), raw_bimodule(ctx.q), ctx.pairing_a,
                                ctx.pairing_b, ctx.gens_a, ctx.gens_b, ctx.field)
    for name, bim in (("P", ctx.p), ("Q", ctx.q)):
        out += [(name + " " + kind, tup) for kind, tup in brute_bimodule_defects(
            raw_algebra(bim.left_alg), raw_algebra(bim.right_alg), bim.dim, bim.left,
            bim.right, bim.field)]
    return out


def context_consequences(ctx, pairing_a, pairing_b, gens_a, gens_b):
    return brute_context_consequences(raw_algebra(ctx.a), raw_algebra(ctx.b),
                                      raw_bimodule(ctx.p), raw_bimodule(ctx.q),
                                      pairing_a, pairing_b, gens_a, gens_b, ctx.field)


def block_starts(ctx):
    """The index of the first basis element of each block of the ring."""
    return dict(zip("APQB", accumulate((0, ctx.a.dim, ctx.p.dim, ctx.q.dim))))


def ring_element(ctx, label):
    """(block, index in the block) of a basis label of the ring of ctx."""
    if label[:2] in ("a:", "b:"):
        alg = ctx.a if label[0] == "a" else ctx.b
        return label[0].upper(), alg.labels.index(label[2:])
    return label[0].upper(), int(label[1:])


def ring_triple(ctx, kind, indices):
    """The basis indices in the ring of the triple an oracle defect names."""
    start = block_starts(ctx)
    return tuple(start[block] + i for block, i in zip(RING_BLOCKS[kind], indices))


def context_witness(message, ctx, defects):
    """The oracle defect (kind, index tuple) that a MoritaContext error
    names, asserted to be among the oracle's defects: for a triple of the
    ring, the kind of its blocks; for a unit failure of the ring, the
    first unit defect of P or Q at that basis element."""
    for pattern, kind in CONTEXT_MESSAGES:
        hit = re.match(pattern, message)
        if not hit:
            continue
        if kind == "ring":
            elements = [ring_element(ctx, label) for label in hit.groups()]
            blocks = "".join(block for block, _ in elements)
            witness = (KIND_OF_BLOCKS.get(blocks, blocks), tuple(i for _, i in elements))
        elif kind == "unit":
            block, i = ring_element(ctx, hit.group(1))
            witness = next((d for d in defects if d[1] == (i,)
                            and d[0] in (block + " left unit", block + " right unit")), None)
        else:
            witness = (kind, ())
        assert witness in defects, (message, defects)
        return witness
    raise AssertionError("unparsed context error: %s" % message)


def assert_context_witness(message, ctx, defects):
    """The error names the first defect that the checks of the context
    reach, in their order: the unit of the ring on each basis element;
    the triples (r, j, k) of the ring in that order, for r over its
    unit_and_generators(); then the decompositions of 1_A and 1_B."""
    kind, indices = context_witness(message, ctx, defects)
    start = block_starts(ctx)
    units = sorted(start[k[0]] + tup[0] for k, tup in defects
                   if k.endswith(("left unit", "right unit")))
    firsts = set(ctx.ring().unit_and_generators())
    triples = sorted(t for t in (ring_triple(ctx, k, tup) for k, tup in defects
                                 if k in RING_BLOCKS) if t[0] in firsts)
    if units:
        assert start[kind[0]] + indices[0] == units[0], (message, defects)
    elif triples:
        assert ring_triple(ctx, kind, indices) == triples[0], (message, triples[0])
    else:
        assert (kind, indices) == defects[0], (message, defects)


def context_accepted(ctx):
    """MoritaContext._validate accepts ctx exactly when the exhaustive
    oracles find no failing axiom, and its error names the defect that
    assert_context_witness expects; on an accepted context the dense
    oracle finds every consequence that MoritaContext does not compute to
    hold.  Returns whether it was accepted."""
    defects = context_defects(ctx)
    try:
        ctx._validate()
    except InputError as exc:
        assert_context_witness(str(exc), ctx, defects)
        return False
    assert not defects, defects[:1]
    assert context_consequences(ctx, ctx.pairing_a, ctx.pairing_b, ctx.gens_a,
                                ctx.gens_b) == []
    return True


def context_verdict(ctx, pairing_a, pairing_b, gens_a, gens_b):
    """context_accepted for the algebras and bimodules of ctx with the
    given pairings and generator lists."""
    return context_accepted(MoritaContext(ctx.a, ctx.b, ctx.p, ctx.q, pairing_a, pairing_b,
                                          gens_a, gens_b, check=False))


def test_context_checks_agree_with_the_oracle(dual_numbers, two_cycle, lambda_m2):
    rng = random.Random(43)
    contexts = [identity_context(dual_numbers[1]),
                matrix_context(dual_numbers[1], 2),
                corner_context(lambda_m2)[1],
                idempotent_context(two_cycle[1],
                                   dict(two_cycle[1].unit))]
    refused = 0
    for ctx in contexts:
        fld = ctx.field
        assert context_verdict(ctx, ctx.pairing_a, ctx.pairing_b, ctx.gens_a, ctx.gens_b)
        # both pairings times 3, and the generator lists divided by 3:
        # every entry moves and the context stays valid; without the
        # division only the decompositions of the units fail
        three, third = fld.from_int(3), fld.inv(fld.from_int(3))

        def scaled(pairing):
            return {k: {r: fld.mul(three, c) for r, c in v.items()} for k, v in pairing.items()}

        def shrunk(gens):
            return [(x, {r: fld.mul(third, c) for r, c in y.items()}) for x, y in gens]

        pa, pb = scaled(ctx.pairing_a), scaled(ctx.pairing_b)
        assert context_verdict(ctx, pa, pb, shrunk(ctx.gens_a), shrunk(ctx.gens_b))
        assert not context_verdict(ctx, pa, pb, ctx.gens_a, ctx.gens_b)
        # one pairing entry moved by a basis vector
        for _ in range(3):
            i, j = rng.randrange(ctx.p.dim), rng.randrange(ctx.q.dim)
            pa = dict(ctx.pairing_a)
            pa[(i, j)] = vector_plus(fld, pa.get((i, j), {}), rng.randrange(ctx.a.dim))
            refused += not context_verdict(ctx, pa, ctx.pairing_b, ctx.gens_a, ctx.gens_b)
            pb = dict(ctx.pairing_b)
            pb[(j, i)] = vector_plus(fld, pb.get((j, i), {}), rng.randrange(ctx.b.dim))
            refused += not context_verdict(ctx, ctx.pairing_a, pb, ctx.gens_a, ctx.gens_b)
    assert refused == 24
    # <p, q>_A = p D q and <q, p>_B = q D p with D = diag(1, 2) in M_2(A):
    # the first stays A-linear on both sides but is not B-balanced, the
    # second is B-linear on both sides and A-balanced, but neither
    # associates with the other pairing
    ctx = contexts[1]
    d = ctx.a.dim
    two = ctx.field.from_int(2)

    def weighted(pairing, slot):
        return {k: ({r: ctx.field.mul(two, c) for r, c in v.items()}
                    if k[slot] // d == 1 else v) for k, v in pairing.items()}

    assert not context_verdict(ctx, weighted(ctx.pairing_a, 0), ctx.pairing_b,
                               ctx.gens_a, ctx.gens_b)
    assert not context_verdict(ctx, ctx.pairing_a, weighted(ctx.pairing_b, 0),
                               ctx.gens_a, ctx.gens_b)
    # one of the two generator pairs of B left out: only 1_B is missed
    assert context_defects(ctx) == []
    assert not context_verdict(ctx, ctx.pairing_a, ctx.pairing_b, ctx.gens_a, ctx.gens_b[:1])
    # on A = the two-cycle algebra against itself, <q, p>_B = q e p with e
    # the idempotent of vertex 1 is B-linear on both sides and breaks only
    # <q.a, p> = <q, a.p>; <p, q>_A = p e q breaks only <p.b, q> = <p, b.q>
    _, basis = two_cycle
    ctx = identity_context(basis)
    e = vertex_idempotent(two_cycle, "1")
    through_e = {(i, j): basis.mul(basis.mul({i: Q.one}, e), {j: Q.one})
                 for i in range(basis.dim) for j in range(basis.dim)}
    assert not context_verdict(ctx, ctx.pairing_a, through_e, ctx.gens_a, ctx.gens_b)
    assert not context_verdict(ctx, through_e, ctx.pairing_b, ctx.gens_a, ctx.gens_b)
    # the unit of the dual numbers doubling the coordinate 1 of P: the
    # ring's unit fails there, which its check reports first
    ctx = identity_context(dual_numbers[1])
    p = ctx.p
    assert ctx.a.unit == {0: Q.one}
    left = dict(p.left)
    left[(0, 1)] = {1: Q.from_int(2)}
    data = MoritaContext(ctx.a, ctx.b, Bimodule(ctx.a, ctx.b, p.dim, left, p.right, check=False),
                         ctx.q, ctx.pairing_a, ctx.pairing_b, ctx.gens_a, ctx.gens_b,
                         check=False)
    with pytest.raises(InputError, match="the Morita ring: unit fails on basis element p1$"):
        data._validate()
    assert not context_accepted(data)



def unskipped_witness(alg):
    """FinDimAlgebra.associativity_witness without its skip of the pairs
    (r, j) at which both sides are 0: every (r, j) is compared."""
    fld = alg.field
    lmaps = {}
    for (i, j), vec in alg.table.items():
        lmaps.setdefault(i, {})[j] = vec
    for r in alg.unit_and_generators():
        for j in range(alg.dim):
            bad = _differing_columns(_action(lmaps, alg.multiply_basis(r, j), fld),
                                     map_compose(lmaps.get(r, {}), lmaps.get(j, {}), fld),
                                     alg.dim)
            if bad:
                return (r, j, bad[0])
    return None


def incidence_algebra(rng, points, field):
    """The incidence algebra of a random partial order on points, in the
    basis c_xy e_xy, x <= y, for random nonzero scalars c_xy: its table
    is sparse, since e_xy e_zw = 0 unless y = z, and its entries are not
    all 1."""
    below = [{x} for x in range(points)]
    for y in range(points):
        for x in range(y):
            if rng.random() < 0.4:
                below[y] |= below[x]
    pairs = [(x, y) for y in range(points) for x in sorted(below[y])]
    index = {pair: n for n, pair in enumerate(pairs)}
    scale = {pair: field.from_int(rng.choice((1, 2, 3, -1, -2))) for pair in pairs}
    table = {}
    for (x, y) in pairs:
        for (y2, z) in pairs:
            if y == y2:
                c = field.mul(field.mul(scale[(x, y)], scale[(y, z)]), field.inv(scale[(x, z)]))
                table[(index[(x, y)], index[(y, z)])] = {index[(x, z)]: c}
    unit = {index[(x, x)]: field.inv(scale[(x, x)]) for x in range(points)}
    return len(pairs), table, unit


def test_witness_skips_only_pairs_whose_sides_are_both_zero(dual_numbers, two_cycle,
                                                            lambda_m2):
    # the witness passes over (r, j) when x_r x_j = 0 and L(x_r) is 0 on
    # every x_j x_k; on Morita rings with one broken block, and on sparse
    # random tables with a defect planted in them, it still names the
    # triple that the full loop and the oracle name first.  A planted
    # defect adds to one product or deletes it: a deleted x_j e_v = x_j
    # leaves j out of the coordinates of the x_j x_k, so L(x_r) can be 0
    # on all of them while x_r x_j is not
    rng = random.Random(2026)
    cases = []
    for ctx in (identity_context(dual_numbers[1]), matrix_context(dual_numbers[1], 2),
                corner_context(lambda_m2)[1],
                idempotent_context(two_cycle[1], dict(two_cycle[1].unit))):
        ring = ctx.ring()
        start = block_starts(ctx)
        size = {"A": ctx.a.dim, "P": ctx.p.dim, "Q": ctx.q.dim, "B": ctx.b.dim}
        # the eight nonzero blocks of the product: (row, column, value)
        for rows, cols, out in ("AAA", "APP", "PBP", "PQA", "BQQ", "QAQ", "QPB", "BBB"):
            for _ in range(2):
                x = start[rows] + rng.randrange(size[rows])
                y = start[cols] + rng.randrange(size[cols])
                z = start[out] + rng.randrange(size[out])
                cases.append((ring.field, ring.dim, ring.table, ring.unit, (x, y, z)))
    for n in range(10):
        fld = (Q, F7)[n % 2]
        dim, table, unit = incidence_algebra(rng, 4 + n % 3, fld)
        assert brute_associativity_defect(dim, table, fld) is None
        cases.append((fld, dim, table, unit, None))
        for _ in range(4):
            cases.append((fld, dim, table, unit, tuple(rng.randrange(dim) for _ in range(3))))
            cases.append((fld, dim, table, unit, rng.choice(sorted(table))))
    found = 0
    for fld, dim, table, unit, bump in cases:
        table = {key: dict(vec) for key, vec in table.items()}
        if bump is not None and len(bump) == 2:
            del table[bump]
        elif bump is not None:
            x, y, z = bump
            entry = table.setdefault((x, y), {})
            entry[z] = fld.add(entry.get(z, fld.zero), fld.from_int(rng.choice((1, 2, -1))))
            if not entry[z]:
                del entry[z]
        alg = FinDimAlgebra(fld, dim, table, unit, check=False)
        bad = alg.associativity_witness()
        assert bad == unskipped_witness(alg), bump
        assert bad == brute_generator_associativity_defect(dim, table, unit, fld), bump
        found += bad is not None
    assert 0.5 * len(cases) < found < len(cases)


def test_context_consequences_oracle_rejects_refused_data(dual_numbers, two_cycle):
    # the dense oracle is no rubber stamp: on data that MoritaContext
    # refuses it finds the consequences broken, the recovery identities
    # when both pairings are tripled, and the bijection onto B when
    # <q, p>_B = q e p for the idempotent e of vertex 1, whose ideal AeA
    # is proper
    ctx = matrix_context(dual_numbers[1], 2)
    fld = ctx.field
    three = fld.from_int(3)

    def tripled(pairing):
        return {k: {r: fld.mul(three, c) for r, c in v.items()} for k, v in pairing.items()}

    data = (tripled(ctx.pairing_a), tripled(ctx.pairing_b), ctx.gens_a, ctx.gens_b)
    assert not context_verdict(ctx, *data)
    kinds = {kind for kind, _ in context_consequences(ctx, *data)}
    assert kinds == {"P from gens_b", "P from gens_a", "Q from gens_b", "Q from gens_a"}
    _, basis = two_cycle
    ctx = identity_context(basis)
    e = vertex_idempotent(two_cycle, "1")
    through_e = {(i, j): basis.mul(basis.mul({i: Q.one}, e), {j: Q.one})
                 for i in range(basis.dim) for j in range(basis.dim)}
    data = (ctx.pairing_a, through_e, ctx.gens_a, ctx.gens_b)
    assert not context_verdict(ctx, *data)
    assert ("tensor B", ()) in context_consequences(ctx, *data)
    assert ("tensor A", ()) not in context_consequences(ctx, *data)


def test_checked_context_builds_no_tensor_product(dual_numbers, two_cycle, lambda_m2,
                                                  monkeypatch):
    # the bijections onto A and B follow from the checked axioms, so a
    # checked context builds no balanced product, and neither does the
    # certificate: its two sides are one context over (A_f, B_g), whose
    # axioms are checked once
    built = []

    class Counted(TensorProduct):
        def __init__(self, x, y):
            built.append(1)
            super().__init__(x, y)

    monkeypatch.setattr(morita, "TensorProduct", Counted)
    _, basis = dual_numbers
    identity_context(basis)
    matrix_context(basis, 3)
    corner_context(lambda_m2)
    idempotent_context(two_cycle[1], dict(two_cycle[1].unit))
    assert built == []
    ctx = matrix_context(basis, 2)
    report, validated = certify(ctx, golden_cochain(dual_numbers), monkeypatch)
    assert all_pass(report) == [] and built == []
    assert len(validated) == 1
    deformed = validated[0]
    assert isinstance(deformed.a, Deformation) and deformed.a.base is ctx.a
    assert isinstance(deformed.b, Deformation) and deformed.b.base is ctx.b
    # the counter sees a construction through the module
    morita.TensorProduct(ctx.p, ctx.q)
    assert built == [1]


def certify(ctx, f, monkeypatch):
    """verify_morita_deformed(ctx, f), and the contexts whose axioms it
    checked."""
    validated = []

    class Recorded(MoritaContext):
        def _validate(self):
            validated.append(self)
            super()._validate()

    monkeypatch.setattr(morita, "MoritaContext", Recorded)
    report = verify_morita_deformed(ctx, f)
    monkeypatch.setattr(morita, "MoritaContext", MoritaContext)
    return report, validated


def context_oracles(dctx):
    """The failed axioms and the failed consequences that the exhaustive
    oracles find on the raw tables of a context."""
    return context_defects(dctx), context_consequences(dctx, dctx.pairing_a, dctx.pairing_b,
                                                       dctx.gens_a, dctx.gens_b)


def deformed_cases(fld):
    """(name, context, cocycle on A) over fld: the five fixtures against
    themselves and against M_2, lambda_m2 against its corner at e(1) and
    the two-cycle algebra against its corner at the unit.  lambda_m2
    carries the cocycle lifted from al (x) al -> e(1) on the corner."""
    cases = []
    for name in ("dual_numbers", "two_cycle", "triangle", "quantum_plane", "lambda_m2"):
        af = parse_algebra_file(data_path(name + ".alg"), field_override=fld)
        basis = compute_basis(af.quiver, af.relations, fld)
        f = cochain_from_pairs(basis, af.cocycle_pairs)
        if name == "lambda_m2":
            corner = idempotent_context(basis, vertex_idempotent((af, basis), "1"))
            g = FullCochain(corner.b.dim, 2, fld, {(1, 1): dict(corner.b.unit)})
            f = transfer_psi(corner, g)
            cases.append((name + " corner", corner, f))
        if name == "two_cycle":
            cases.append((name + " corner", idempotent_context(basis, dict(basis.unit)), f))
        cases += [(name, identity_context(basis), f), (name + " M_2", matrix_context(basis, 2), f)]
    return cases


@pytest.mark.parametrize("fld", [Q, F7], ids=["Q", "F7"])
def test_deformed_context_passes_the_oracles(fld, monkeypatch):
    # the one context the certificate checks, read as raw tables: A_f,
    # B_g, the glues of hat P and hat Q, both pairings and the generators;
    # the oracles find no failing axiom on any basis tuple, and both
    # balanced products, built densely on all basis triples, map
    # bijectively onto A_f and B_g
    for name, ctx, f in deformed_cases(fld):
        report, validated = certify(ctx, f, monkeypatch)
        assert all_pass(report) == [], name
        assert len(validated) == 1, name
        assert context_oracles(validated[0]) == ([], []), name


def test_broken_deformed_contexts_fail_every_side_line(dual_numbers, lambda_m2,
                                                       monkeypatch):
    # omega doubled, or one entry of the pairing into B_g moved by a basis
    # vector: the oracle finds a failing axiom, and every side line of the
    # certificate fails with the context's message, which names the first
    # tuple of the ring's check order that the oracle flags
    rng = random.Random(47)
    real = morita._deformed_pairing
    corner_alg, corner = corner_context(lambda_m2)
    cases = [(matrix_context(dual_numbers[1], 2), golden_cochain(dual_numbers)),
             (corner, transfer_psi(corner, FullCochain(corner.b.dim, 2, Q,
                                                       {(1, 1): dict(corner.b.unit)})))]
    for base, f in cases:
        fld = base.field
        two = fld.from_int(2)

        def omega_doubled(ctx, hat):
            out = real(ctx, hat)
            for (x, y), vec in out.items():
                if x < ctx.p.dim and y < ctx.q.dim:
                    out[(x, y)] = {r: (fld.mul(two, c) if r >= ctx.a.dim else c)
                                   for r, c in vec.items()}
            return out

        def moved_on_b(ctx, hat):
            out = real(ctx, hat)
            if ctx.a is base.b:
                key = (rng.randrange(2 * ctx.p.dim), rng.randrange(2 * ctx.q.dim))
                out[key] = vector_plus(fld, out.get(key, {}), rng.randrange(2 * ctx.a.dim))
            return out

        for variant in (omega_doubled, moved_on_b, moved_on_b):
            monkeypatch.setattr(morita, "_deformed_pairing", variant)
            report, validated = certify(base, f, monkeypatch)
            assert [ok for _, ok, _ in report[:3]] == [True] * 3
            sides = report[3:]
            assert len(sides) == 2 * len(SIDE_LINES)
            assert not any(ok for _, ok, _ in sides)
            witnesses = {detail for _, _, detail in sides}
            assert len(witnesses) == 1
            defects, _ = context_oracles(validated[0])
            assert defects
            assert_context_witness(witnesses.pop(), validated[0], defects)
    monkeypatch.setattr(morita, "_deformed_pairing", real)


def deformed_context(ctx, f, g=None):
    """The context over (A_f, B_g) that verify_morita_deformed checks,
    unchecked, with g = phi^2(f) unless given."""
    a_f, b_g = deformed_pair(ctx, f, g)
    h2f = homotopy_h(ctx, f)
    hat_p = build_hat_P(ctx, a_f, b_g, h2f)
    hat_q = build_hat_Q(ctx, a_f, b_g, h2f)
    return MoritaContext(a_f, b_g, hat_p.glued, hat_q.glued,
                         morita._deformed_pairing(ctx, hat_p),
                         morita._deformed_pairing(ctx.swap(), hat_q),
                         ctx.gens_a, ctx.gens_b, check=False)


def test_deformed_context_over_doubled_transfer_is_refused(dual_numbers, monkeypatch):
    # B_g built from 2 phi^2(f): the certificate stops at hat P, which is
    # no bimodule; the context glued from the hats over (A_f, B_2g) is
    # refused by its own axiom check and by both oracles
    ctx = matrix_context(dual_numbers[1], 2)
    f = golden_cochain(dual_numbers)
    g2 = transfer_phi(ctx, f).scale(Q.from_int(2))
    real = morita.transfer_phi
    monkeypatch.setattr(morita, "transfer_phi", lambda c, cochain:
                        real(c, cochain).scale(Q.from_int(2)))
    report = verify_morita_deformed(ctx, f)
    assert [(name, ok) for name, ok, _ in report] == [
        ("transferred-cocycle", True), ("deformed-p-bimodule", False),
        ("deformed-q-bimodule", False)]
    dctx = deformed_context(ctx, f, g2)
    with pytest.raises(InputError) as exc:
        dctx._validate()
    defects, consequences = context_oracles(dctx)
    assert consequences
    assert_context_witness(str(exc.value), dctx, defects)


def test_deformed_context_check_agrees_with_the_oracle(dual_numbers, two_cycle, triangle,
                                                       quantum_plane, lambda_m2):
    # the ring check accepts the deformed context of every valid input
    # and refuses the one over B_2g, whose hats are no bimodules, and the
    # one of a cocycle not normalised at the idempotents, each at the
    # first triple of its check order that the oracles flag
    for ctx, f in certificate_cases(dual_numbers, two_cycle, triangle, quantum_plane,
                                    lambda_m2):
        assert context_accepted(deformed_context(ctx, f))
    ctx = matrix_context(dual_numbers[1], 2)
    f = golden_cochain(dual_numbers)
    doubled = deformed_context(ctx, f, transfer_phi(ctx, f).scale(Q.from_int(2)))
    assert not context_accepted(doubled)
    assert any(kind.startswith("P ") for kind, _ in context_defects(doubled))
    corner, moved = unnormalised_corner(two_cycle)
    dctx = deformed_context(corner, moved)
    with pytest.raises(InputError, match=r"not associative at \(p1, q1, a:a2\)$") as exc:
        dctx._validate()
    # the basis element a2 of A_f has index 3
    assert context_witness(str(exc.value), dctx, context_defects(dctx)) == ("p,q.a", (1, 1, 3))
    assert not context_accepted(dctx)


def test_certificate_checks_the_hats_only_when_the_ring_fails(dual_numbers, monkeypatch):
    # a passing certificate reads both deformed-bimodule lines off the
    # ring check and runs neither hat check; a context whose ring fails
    # runs both, and the report reads as before
    calls = []
    real = DeformedBimodule.violations

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(DeformedBimodule, "violations", counted)
    ctx = matrix_context(dual_numbers[1], 2)
    f = golden_cochain(dual_numbers)
    report = verify_morita_deformed(ctx, f)
    assert all_pass(report) == [] and calls == []
    assert report[1:3] == [
        ("deformed-p-bimodule", True, "hat P satisfies all bimodule conditions"),
        ("deformed-q-bimodule", True, "hat Q satisfies all bimodule conditions")]
    pairing = morita._deformed_pairing

    def shifted(c, hat):
        out = pairing(c, hat)
        out[(0, 0)] = vector_plus(c.field, out.get((0, 0), {}), 0)
        return out

    monkeypatch.setattr(morita, "_deformed_pairing", shifted)
    report = verify_morita_deformed(ctx, f)
    assert [hat.left_alg for hat in calls] == [ctx.a, ctx.b]
    assert report[1:3] == [
        ("deformed-p-bimodule", True, "hat P satisfies all bimodule conditions"),
        ("deformed-q-bimodule", True, "hat Q satisfies all bimodule conditions")]
    assert len(report) == 3 + 2 * len(SIDE_LINES)
    assert all_pass(report) == [prefix + name for prefix in ("A-side:", "B-side:")
                                for name, _ in SIDE_LINES]


class Unbuildable:
    """An algebra of dimension 2 whose structure constants may not be
    read: a construction that gets past its size guard fails at once
    instead of building anything large."""
    dim = 2
    field = Q
    unit = {0: Q.one}
    labels = ["e", "x"]

    def multiply_basis(self, i, j):
        raise AssertionError("the size guard let the construction start")


def test_matrix_size_guard(dual_numbers, monkeypatch):
    # refused from the estimate n^2 dim A alone, before anything is built
    with pytest.raises(SizeLimitExceeded,
                       match=r"M_1000000\(A\) would have dimension 2000000000000, "):
        matrix_context(Unbuildable(), 10 ** 6)
    # the limit covers M_3 of a 6-dimensional algebra (dimension 54)
    assert 3 * 3 * 6 <= morita.MAX_MATRIX_DIM
    with pytest.raises(SizeLimitExceeded):
        matrix_context(Unbuildable(), 6)
    monkeypatch.setattr(morita, "MAX_MATRIX_DIM", 8)
    _, basis = dual_numbers
    assert matrix_context(basis, 2).b.dim == 8
    with pytest.raises(SizeLimitExceeded, match="dimension 18, above the limit 8"):
        matrix_context(basis, 3)


# ------------------------------------------------------------ verification


def test_verify_identity_contexts(dual_numbers, two_cycle, triangle,
                                  quantum_plane):
    for fixture in (dual_numbers, two_cycle, triangle, quantum_plane):
        _, basis = fixture
        f = golden_cochain(fixture)
        report = verify_morita_deformed(identity_context(basis), f)
        assert all_pass(report) == []


def test_verify_matrix_context(dual_numbers):
    _, basis = dual_numbers
    f = golden_cochain(dual_numbers)
    report = verify_morita_deformed(matrix_context(basis, 2), f)
    assert all_pass(report) == []


def test_verify_corner_context(lambda_m2):
    corner_alg, corner = corner_context(lambda_m2)
    g = FullCochain(corner.b.dim, 2, Q, {(1, 1): dict(corner.b.unit)})
    fa = transfer_psi(corner, g)
    report = verify_morita_deformed(corner, fa)
    assert all_pass(report) == []


def unnormalised_corner(two_cycle):
    """The corner context of the two-cycle algebra at e(1) + e(2), and f +
    d c for its cocycle f and c(e(1)) = a1, c(e(2)) = -a1: a cocycle
    cohomologous to f, with the same unit (1, 0) in A_f, that does not
    vanish on products of generator brackets."""
    _, basis = two_cycle
    e1, e2, a1 = (basis.labels.index(name) for name in ("e(1)", "e(2)", "a1"))
    c = FullCochain(basis.dim, 1, Q, {(e1,): {a1: Q.one}, (e2,): {a1: Q.neg(Q.one)}})
    moved = golden_cochain(two_cycle) + full_differential(c, basis)
    return idempotent_context(basis, {e1: Q.one, e2: Q.one}), moved


@pytest.mark.xfail(strict=True, reason=(
    "known false FAIL: the formulas of hat P, hat Q and omega assume that f "
    "vanishes on products of generator brackets, and f + d c below does not"))
def test_verify_corner_context_of_a_cocycle_not_normalized_at_the_idempotents(two_cycle):
    # the corner is a deformed Morita equivalence for f + d c; the report
    # fails 26 of its 29 lines with the Morita ring is not associative at
    # (p1, q1, a:a2), the axiom <p, q.a> = <p, q>.a
    corner, moved = unnormalised_corner(two_cycle)
    assert is_full_cocycle(moved, corner.a)
    assert all_pass(verify_morita_deformed(corner, moved)) == []


def test_verify_zero_cocycle(two_cycle):
    _, basis = two_cycle
    report = verify_morita_deformed(identity_context(basis),
                                    FullCochain(basis.dim, 2, Q, {}))
    assert all_pass(report) == []


def test_verify_over_f7(dual_numbers):
    af, _ = dual_numbers
    af7 = parse_algebra_file(data_path("dual_numbers.alg"), field_override=F7)
    basis7 = compute_basis(af7.quiver, af7.relations, F7)
    f7 = cochain_from_pairs(basis7, af7.cocycle_pairs)
    report = verify_morita_deformed(matrix_context(basis7, 2), f7)
    assert all_pass(report) == []


def test_verify_rejects_non_cocycle(dual_numbers):
    _, basis = dual_numbers
    ctx = identity_context(basis)
    with pytest.raises(InputError):
        verify_morita_deformed(ctx, FullCochain(basis.dim, 2, Q,
                                                {(1, 0): {0: Q.one}}))
