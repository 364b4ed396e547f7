import random
import re

import pytest

from quivdeform.errors import (CharTwoUnsupported, InputError,
                               NotFullIdempotent)
from quivdeform.fields import Field
from quivdeform.fileio import parse_algebra_file
from quivdeform.hochschild import (FullCochain, cochain_from_pairs,
                                   full_differential, is_full_cocycle)
from quivdeform.morita import (Bimodule, DeformedBimodule, FinDimAlgebra,
                               MoritaContext, TensorProduct,
                               algebra_generators, algebra_of_basis,
                               build_hat_P, build_hat_Q,
                               deform_structure_algebra, homotopy_h,
                               identity_context, idempotent_context,
                               matrix_context, regular_bimodule,
                               regular_deformed_uple, transfer_phi,
                               transfer_psi, triple_violations,
                               verify_morita_deformed)
from quivdeform.quiver import compute_basis

from conftest import data_path
from oracles import (brute_bimodule_defects, brute_transfer,
                     brute_uple_defects)

Q = Field.rationals()
F7 = Field.prime(7)


def structure_algebra(fixture):
    af, basis = fixture
    return algebra_of_basis(basis)


def golden_cochain(fixture):
    af, basis = fixture
    return cochain_from_pairs(basis, af.cocycle_pairs)


def vertex_idempotent(fixture, name):
    af, basis = fixture
    return {i: basis.field.one for i in basis.trivial_indices
            if basis.label(i) == "e(%s)" % name}


def random_cochain(rng, field, dim, degree, terms=6):
    table = {}
    for _ in range(terms):
        key = tuple(rng.randrange(dim) for _ in range(degree))
        col = table.setdefault(key, {})
        col[rng.randrange(dim)] = field.from_int(rng.randrange(1, 7))
    return FullCochain(dim, degree, field, table)


def all_pass(report):
    return [name for name, ok, _ in report if not ok]


# ---------------------------------------------------------------- algebras


def test_structure_algebra_validates(dual_numbers, two_cycle, triangle,
                                     quantum_plane, lambda_m2):
    for fixture in (dual_numbers, two_cycle, triangle, quantum_plane,
                    lambda_m2):
        alg = structure_algebra(fixture)
        FinDimAlgebra(alg.field, alg.dim, alg.table, alg.unit, alg.labels)


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
    alg = structure_algebra(dual_numbers)
    f = golden_cochain(dual_numbers)
    d = deform_structure_algebra(alg, f)
    assert d.dim == 4
    assert d.labels == ["e(1)", "a", "t*e(1)", "t*a"]
    # (a,0)^2 = (0, e(1)), then twice more reaches (0, a) and dies
    sq = d.mul({1: Q.one}, {1: Q.one})
    assert sq == {2: Q.one}
    assert d.mul(sq, {1: Q.one}) == {3: Q.one}
    assert d.mul(sq, sq) == {}


def test_deform_structure_rejects_non_cocycle(dual_numbers):
    alg = structure_algebra(dual_numbers)
    bad = FullCochain(alg.dim, 2, Q, {(1, 0): {0: Q.one}})
    assert not is_full_cocycle(bad, alg)
    with pytest.raises(InputError):
        deform_structure_algebra(alg, bad)


def test_algebra_generators_generate(triangle, lambda_m2):
    for fixture in (triangle, lambda_m2):
        alg = structure_algebra(fixture)
        gens = algebra_generators(alg)
        from quivdeform.linalg import SpanSolver
        span = SpanSolver(alg.field)
        closed = [dict(alg.unit)]
        span.add(alg.unit, 0)
        grew = True
        while grew:
            grew = False
            for g in gens:
                for w in list(closed):
                    for prod in (alg.mul(g, w), alg.mul(w, g)):
                        if prod and span.add(prod, len(closed)):
                            closed.append(prod)
                            grew = True
        assert all(span.contains({i: alg.field.one}) for i in range(alg.dim))


# --------------------------------------------------------------- bimodules


def test_regular_bimodule_checks(triangle):
    alg = structure_algebra(triangle)
    reg = regular_bimodule(alg)
    assert reg.violations() == []
    assert reg.left_act({0: Q.one}, {0: Q.one}) == alg.multiply_basis(0, 0)


def test_broken_bimodule_rejected(dual_numbers):
    alg = structure_algebra(dual_numbers)
    reg = regular_bimodule(alg)
    left = {k: dict(v) for k, v in reg.left.items()}
    left[(1, 1)] = {0: Q.one}  # a . a = e(1) is not the left regular action
    with pytest.raises(InputError):
        Bimodule(alg, alg, alg.dim, left, dict(reg.right))


def test_tensor_regular_is_algebra(dual_numbers, triangle):
    for fixture in (dual_numbers, triangle):
        alg = structure_algebra(fixture)
        reg = regular_bimodule(alg)
        ten = TensorProduct(reg, reg)
        assert ten.dim == alg.dim
        # every pure tensor collapses onto (x_i x_j) (x) 1
        for i in range(alg.dim):
            for j in range(alg.dim):
                prod = alg.multiply_basis(i, j)
                assert ten.pure(i, j) == ten.pure_vec(prod, alg.unit)


# ---------------------------------------------------------------- contexts


def test_identity_context(dual_numbers):
    alg = structure_algebra(dual_numbers)
    ctx = identity_context(alg)
    assert ctx.a is alg and ctx.b is alg
    assert ctx.swap().swap() is ctx


def test_matrix_context_shapes(dual_numbers):
    alg = structure_algebra(dual_numbers)
    for n in (1, 2, 3):
        ctx = matrix_context(alg, n)
        assert ctx.b.dim == n * n * alg.dim
        assert ctx.p.dim == ctx.q.dim == n * alg.dim
        assert len(ctx.gens_a) == 1 and len(ctx.gens_b) == n
    with pytest.raises(InputError):
        matrix_context(alg, 0)


def test_matrix_context_n1_matches_identity(two_cycle):
    alg = structure_algebra(two_cycle)
    ctx1 = matrix_context(alg, 1)
    ctx0 = identity_context(alg)
    rng = random.Random(5)
    for _ in range(5):
        f = random_cochain(rng, Q, alg.dim, 2)
        assert transfer_phi(ctx1, f, 2) == transfer_phi(ctx0, f, 2)


def test_idempotent_context_corner(lambda_m2):
    af, basis = lambda_m2
    alg = structure_algebra(lambda_m2)
    ctx = idempotent_context(alg, vertex_idempotent(lambda_m2, "1"))
    assert ctx.b.dim == 2
    assert ctx.p.dim == 4 and ctx.q.dim == 4
    assert len(ctx.gens_b) == 1


def test_idempotent_context_unit_is_whole_algebra(two_cycle):
    alg = structure_algebra(two_cycle)
    ctx = idempotent_context(alg, dict(alg.unit))
    assert ctx.b.dim == alg.dim
    assert ctx.p.dim == alg.dim


def test_idempotent_not_full(two_cycle):
    alg = structure_algebra(two_cycle)
    with pytest.raises(NotFullIdempotent):
        idempotent_context(alg, vertex_idempotent(two_cycle, "1"))


def test_idempotent_rejects_non_idempotent(dual_numbers):
    alg = structure_algebra(dual_numbers)
    with pytest.raises(InputError):
        idempotent_context(alg, {1: Q.one})


def corner_context(lambda_m2):
    alg = structure_algebra(lambda_m2)
    return alg, idempotent_context(alg, vertex_idempotent(lambda_m2, "1"))


# ---------------------------------------------------------------- transfer


def test_identity_transfer_is_identity(triangle):
    alg = structure_algebra(triangle)
    ctx = identity_context(alg)
    rng = random.Random(17)
    for degree in (1, 2, 3):
        for _ in range(4):
            f = random_cochain(rng, Q, alg.dim, degree)
            assert transfer_phi(ctx, f) == f
            assert transfer_psi(ctx, f) == f


def test_transfer_against_brute_force(dual_numbers, two_cycle, lambda_m2):
    rng = random.Random(23)
    alg = structure_algebra(dual_numbers)
    contexts = [matrix_context(alg, 2)]
    corner_alg, corner = corner_context(lambda_m2)
    contexts.append(corner)
    contexts.append(identity_context(structure_algebra(two_cycle)))
    for ctx in contexts:
        for degree in (1, 2):
            for _ in range(3):
                f = random_cochain(rng, Q, ctx.a.dim, degree)
                assert transfer_phi(ctx, f).table == brute_transfer(ctx, f, degree)


def test_transfer_degree_errors(dual_numbers):
    alg = structure_algebra(dual_numbers)
    ctx = identity_context(alg)
    f = FullCochain(alg.dim, 2, Q, {})
    with pytest.raises(InputError):
        transfer_phi(ctx, f, 3)
    with pytest.raises(InputError):
        transfer_phi(ctx, FullCochain(alg.dim + 1, 2, Q, {}))
    with pytest.raises(InputError):
        homotopy_h(ctx, FullCochain(alg.dim, 1, Q, {}))


def test_homotopy_identity_context_closed_form(dual_numbers):
    # over the full complex h^2(f)(a) = -f(1 (x) a) + f(a (x) 1)
    alg = structure_algebra(dual_numbers)
    ctx = identity_context(alg)
    rng = random.Random(29)
    for _ in range(10):
        f = random_cochain(rng, Q, alg.dim, 2)
        h = homotopy_h(ctx, f, 2)
        for t in range(alg.dim):
            et = {t: Q.one}
            want = {}
            for k, c in f.evaluate(alg.unit, et).items():
                want[k] = Q.neg(c)
            for k, c in f.evaluate(et, alg.unit).items():
                s = Q.add(want.get(k, Q.zero), c)
                if s == Q.zero:
                    want.pop(k, None)
                else:
                    want[k] = s
            assert h.value((t,)) == want


def test_transferred_cocycle_is_cocycle(dual_numbers, lambda_m2):
    alg = structure_algebra(dual_numbers)
    f = golden_cochain(dual_numbers)
    for n in (2, 3):
        ctx = matrix_context(alg, n)
        g = transfer_phi(ctx, f, 2)
        assert is_full_cocycle(g, ctx.b)


def test_chain_maps_matrix_context(dual_numbers):
    alg = structure_algebra(dual_numbers)
    ctx = matrix_context(alg, 2)
    rng = random.Random(31)
    for _ in range(5):
        f = random_cochain(rng, Q, alg.dim, 2)
        assert full_differential(transfer_phi(ctx, f, 2), ctx.b) == \
            transfer_phi(ctx, full_differential(f, alg), 3)
        g = random_cochain(rng, Q, ctx.b.dim, 2)
        assert full_differential(transfer_psi(ctx, g, 2), alg) == \
            transfer_psi(ctx, full_differential(g, ctx.b), 3)


def test_homotopy_identity(dual_numbers, lambda_m2):
    # h^3 d^3 + d^2 h^2 = Id - psi^2 phi^2 on 2-cochains
    rng = random.Random(37)
    alg = structure_algebra(dual_numbers)
    corner_alg, corner = corner_context(lambda_m2)
    cases = [(alg, matrix_context(alg, 2)),
             (alg, identity_context(alg)),
             (corner_alg, corner)]
    for a, ctx in cases:
        for _ in range(5):
            f = random_cochain(rng, Q, a.dim, 2)
            lhs = homotopy_h(ctx, full_differential(f, a), 3) + \
                full_differential(homotopy_h(ctx, f, 2), a)
            rhs = f - transfer_psi(ctx, transfer_phi(ctx, f, 2), 2)
            assert lhs == rhs


def test_cocycle_transfer_roundtrip_is_coboundary(dual_numbers, lambda_m2):
    # for a cocycle f the roundtrip defect f - psi phi f bounds d(h^2 f)
    alg = structure_algebra(dual_numbers)
    f = golden_cochain(dual_numbers)
    ctx = matrix_context(alg, 3)
    defect = f - transfer_psi(ctx, transfer_phi(ctx, f, 2), 2)
    assert defect == full_differential(homotopy_h(ctx, f, 2), alg)
    corner_alg, corner = corner_context(lambda_m2)
    g = FullCochain(corner.b.dim, 2, Q, {(1, 1): dict(corner.b.unit)})
    fa = transfer_psi(corner, g, 2)
    assert is_full_cocycle(fa, corner_alg)
    defect = fa - transfer_psi(corner, transfer_phi(corner, fa, 2), 2)
    assert defect == full_differential(homotopy_h(corner, fa, 2), corner_alg)


def test_corner_transfer_frozen_value(lambda_m2):
    # the corner cocycle al (x) al -> e1 lifts to a cocycle on Lambda
    # supported on the radical square; value checked against the brute
    # force sum once and frozen here
    af, basis = lambda_m2
    corner_alg, corner = corner_context(lambda_m2)
    g = FullCochain(corner.b.dim, 2, Q, {(1, 1): dict(corner.b.unit)})
    fa = transfer_psi(corner, g, 2)
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
    assert brute_transfer(corner.swap(), g, 2) == want


# ------------------------------------------------------- deformed bimodules


def test_hat_bimodules_satisfy_conditions(dual_numbers, lambda_m2):
    alg = structure_algebra(dual_numbers)
    f = golden_cochain(dual_numbers)
    for ctx in (identity_context(alg), matrix_context(alg, 2)):
        assert build_hat_P(ctx, f).violations() == []
        assert build_hat_Q(ctx, f).violations() == []
    corner_alg, corner = corner_context(lambda_m2)
    g = FullCochain(corner.b.dim, 2, Q, {(1, 1): dict(corner.b.unit)})
    fa = transfer_psi(corner, g, 2)
    assert build_hat_P(corner, fa).violations() == []
    assert build_hat_Q(corner, fa).violations() == []


def test_hat_requires_cocycle_and_odd_characteristic(dual_numbers):
    alg = structure_algebra(dual_numbers)
    ctx = identity_context(alg)
    bad = FullCochain(alg.dim, 2, Q, {(1, 0): {0: Q.one}})
    with pytest.raises(InputError):
        build_hat_P(ctx, bad)
    F2 = Field.prime(2)
    af = parse_algebra_file(data_path("dual_numbers.alg"), field_override=F2)
    basis2 = compute_basis(af.quiver, af.relations, F2)
    alg2 = algebra_of_basis(basis2)
    ctx2 = identity_context(alg2)
    f2 = cochain_from_pairs(basis2, af.cocycle_pairs)
    with pytest.raises(CharTwoUnsupported):
        build_hat_P(ctx2, f2)
    with pytest.raises(CharTwoUnsupported):
        verify_morita_deformed(ctx2, f2)


def test_regular_uple_glues_to_deformed_algebra(two_cycle):
    alg = structure_algebra(two_cycle)
    f = golden_cochain(two_cycle)
    uple = regular_deformed_uple(alg, f)
    assert uple.violations() == []
    d = deform_structure_algebra(alg, f)
    glued = uple.glue(d, d)
    reg = regular_bimodule(d)
    assert glued.left == reg.left
    assert glued.right == reg.right


def test_triple_violations_flags_breakage(dual_numbers):
    alg = structure_algebra(dual_numbers)
    f = golden_cochain(dual_numbers)
    uple = regular_deformed_uple(alg, f)
    # sparse maps {column: {row: scalar}}
    ident = {i: {i: Q.one} for i in range(alg.dim)}
    zero = {}
    assert triple_violations(uple, uple, ident, zero, ident) == []
    skew = {1: {0: Q.one}}
    assert triple_violations(uple, uple, ident, zero, skew)


def test_glued_hat_p_is_bimodule(dual_numbers):
    alg = structure_algebra(dual_numbers)
    f = golden_cochain(dual_numbers)
    ctx = matrix_context(alg, 2)
    g = transfer_phi(ctx, f, 2)
    hat = build_hat_P(ctx, f, g)
    glued = hat.glue(deform_structure_algebra(alg, f),
                     deform_structure_algebra(ctx.b, g))
    assert glued.violations() == []


# ------------------------------------------------ certificate checks vs oracle


def raw_algebra(alg):
    return (alg.dim, alg.table, alg.unit)


def raw_bimodule(m):
    return (m.dim, m.left, m.right)


BIMODULE_MESSAGES = (
    (r"left unit fails at (\d+)$", "left unit"),
    (r"right unit fails at (\d+)$", "right unit"),
    (r"left action not associative at \((\d+), (\d+), (\d+)\)$", "left assoc"),
    (r"right action not associative at \((\d+), (\d+), (\d+)\)$", "right assoc"),
    (r"actions do not commute at \((\d+), (\d+), (\d+)\)$", "commute"),
)

# uple messages: (pattern, oracle kind, algebra of each named label)
UPLE_MESSAGES = (
    (r"T is not injective$", "injective", ()),
    (r"T does not intertwine the left action of (.+)$", "intertwine left", "l"),
    (r"T does not intertwine the right action of (.+)$", "intertwine right", "r"),
    (r"left correction fails at \((.+), (.+)\)$", "left correction", "ll"),
    (r"right correction fails at \((.+), (.+)\)$", "right correction", "rr"),
    (r"corrections are not compatible at \((.+), (.+)\)$", "compatible", "lr"),
)


def bimodule_witness(message):
    for pattern, kind in BIMODULE_MESSAGES:
        hit = re.match(pattern, message)
        if hit:
            return kind, tuple(int(x) for x in hit.groups())
    raise AssertionError("unparsed bimodule violation: " + message)


def uple_witness(uple, message):
    """The oracle defects that the message names; a bimodule message may
    come from M0 or from M1."""
    for pattern, kind, sides in UPLE_MESSAGES:
        hit = re.match(pattern, message)
        if hit:
            algs = {"l": uple.left_alg, "r": uple.right_alg}
            key = tuple(algs[side].labels.index(label)
                        for side, label in zip(sides, hit.groups()))
            return [(kind, key)]
    defect = bimodule_witness(message)
    return [("m0", defect), ("m1", defect)]


def brute_uple(uple):
    f_m = {(i, m): vec for i, tab in enumerate(uple.f_tables) for m, vec in tab.items()}
    g_m = {(m, j): vec for j, tab in enumerate(uple.g_tables) for m, vec in tab.items()}
    return brute_uple_defects(raw_algebra(uple.left_alg), raw_algebra(uple.right_alg),
                              uple.f.table, uple.g.table, raw_bimodule(uple.m0),
                              raw_bimodule(uple.m1), uple.t, f_m, g_m, uple.field)


def assert_bimodule_matches_oracle(bim):
    """violations() is empty exactly when the oracle finds no defect, and
    its first message names a tuple that the oracle flags; returns the
    violations."""
    bad = bim.violations()
    defects = brute_bimodule_defects(raw_algebra(bim.left_alg), raw_algebra(bim.right_alg),
                                     bim.dim, bim.left, bim.right, bim.field)
    assert bool(bad) == bool(defects), (bad[:1], defects[:1])
    if bad:
        assert bimodule_witness(bad[0]) in defects, (bad[0], defects)
    return bad


def assert_uple_matches_oracle(uple):
    bad = uple.violations()
    defects = brute_uple(uple)
    assert bool(bad) == bool(defects), (bad[:1], defects[:1])
    if bad:
        assert any(w in defects for w in uple_witness(uple, bad[0])), (bad[0], defects)
    return bad


def certificate_cases(dual_numbers, two_cycle, triangle, quantum_plane, lambda_m2):
    """(context, cocycle on A) for the valid inputs of the oracle tests."""
    cases = []
    for fixture in (dual_numbers, two_cycle, triangle, quantum_plane):
        cases.append((identity_context(structure_algebra(fixture)), golden_cochain(fixture)))
    cases.append((matrix_context(structure_algebra(dual_numbers), 2),
                  golden_cochain(dual_numbers)))
    corner_alg, corner = corner_context(lambda_m2)
    g = FullCochain(corner.b.dim, 2, Q, {(1, 1): dict(corner.b.unit)})
    cases.append((corner, transfer_psi(corner, g, 2)))
    return cases


def test_valid_certificates_match_oracle(dual_numbers, two_cycle, triangle,
                                         quantum_plane, lambda_m2):
    for ctx, f in certificate_cases(dual_numbers, two_cycle, triangle,
                                    quantum_plane, lambda_m2):
        assert assert_bimodule_matches_oracle(ctx.p) == []
        assert assert_bimodule_matches_oracle(ctx.q) == []
        assert assert_uple_matches_oracle(build_hat_P(ctx, f, check=False)) == []
        assert assert_uple_matches_oracle(build_hat_Q(ctx, f, check=False)) == []
        assert assert_uple_matches_oracle(regular_deformed_uple(ctx.a, f)) == []


def test_broken_bimodules_match_oracle(dual_numbers):
    p = matrix_context(structure_algebra(dual_numbers), 2).p
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
    alg = structure_algebra(dual_numbers)
    left = {(0, 0): {0: Q.one}, (0, 1): {1: Q.one}, (1, 0): {1: Q.one}}
    right = {(0, 0): {0: Q.one}, (1, 0): {1: Q.one}, (1, 1): {0: Q.one}}
    bad = assert_bimodule_matches_oracle(Bimodule(alg, alg, 2, left, right, check=False))
    assert bad and all("commute" in msg for msg in bad)


def test_broken_uples_match_oracle(dual_numbers):
    alg = structure_algebra(dual_numbers)
    f = golden_cochain(dual_numbers)
    ctx = matrix_context(alg, 2)
    hat = build_hat_P(ctx, f, check=False)

    def variant(f_tables=None, g_tables=None, t=None):
        return DeformedBimodule(hat.left_alg, hat.right_alg, hat.f, hat.g, hat.m0, hat.m1,
                                t or hat.t, f_tables or hat.f_tables,
                                g_tables or hat.g_tables, check=False)

    f_tables = [dict(tab) for tab in hat.f_tables]
    f_tables[1][0] = {**f_tables[1].get(0, {}), 3: Q.one}
    g_tables = [dict(tab) for tab in hat.g_tables]
    g_tables[1][2] = {**g_tables[1].get(2, {}), 0: Q.one}
    t = dict(hat.t)
    t[0] = {0: Q.from_int(2)}  # T scaled on one column no longer intertwines
    singular = {m: col for m, col in hat.t.items() if m != 0}  # T kills x_0
    g2 = transfer_phi(ctx, f, 2).scale(Q.from_int(2))
    for uple in (variant(f_tables=f_tables), variant(g_tables=g_tables), variant(t=t),
                 variant(t=singular), build_hat_P(ctx, f, g2, check=False)):
        assert assert_uple_matches_oracle(uple)
    # over the zero cocycle T = 0 meets every condition but injectivity
    zero = FullCochain(alg.dim, 2, Q, {})
    reg = regular_deformed_uple(alg, zero)
    uple = DeformedBimodule(alg, alg, zero, zero, reg.m0, reg.m1, {},
                            reg.f_tables, reg.g_tables, check=False)
    assert assert_uple_matches_oracle(uple) == ["T is not injective"]


# ------------------------------------------------------------ verification


def test_verify_identity_contexts(dual_numbers, two_cycle, triangle,
                                  quantum_plane):
    for fixture in (dual_numbers, two_cycle, triangle, quantum_plane):
        alg = structure_algebra(fixture)
        f = golden_cochain(fixture)
        report = verify_morita_deformed(identity_context(alg), f)
        assert all_pass(report) == []


def test_verify_matrix_context(dual_numbers):
    alg = structure_algebra(dual_numbers)
    f = golden_cochain(dual_numbers)
    report = verify_morita_deformed(matrix_context(alg, 2), f)
    assert all_pass(report) == []


def test_verify_corner_context(lambda_m2):
    corner_alg, corner = corner_context(lambda_m2)
    g = FullCochain(corner.b.dim, 2, Q, {(1, 1): dict(corner.b.unit)})
    fa = transfer_psi(corner, g, 2)
    report = verify_morita_deformed(corner, fa)
    assert all_pass(report) == []


def test_verify_zero_cocycle(two_cycle):
    alg = structure_algebra(two_cycle)
    report = verify_morita_deformed(identity_context(alg),
                                    FullCochain(alg.dim, 2, Q, {}))
    assert all_pass(report) == []


def test_verify_over_f7(dual_numbers):
    af, _ = dual_numbers
    af7 = parse_algebra_file(data_path("dual_numbers.alg"), field_override=F7)
    basis7 = compute_basis(af7.quiver, af7.relations, F7)
    alg7 = algebra_of_basis(basis7)
    f7 = cochain_from_pairs(basis7, af7.cocycle_pairs)
    report = verify_morita_deformed(matrix_context(alg7, 2), f7)
    assert all_pass(report) == []


def test_verify_rejects_non_cocycle(dual_numbers):
    alg = structure_algebra(dual_numbers)
    ctx = identity_context(alg)
    with pytest.raises(InputError):
        verify_morita_deformed(ctx, FullCochain(alg.dim, 2, Q,
                                                {(1, 0): {0: Q.one}}))
