import random
import re
from itertools import accumulate, combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivdeform import cli, deform, morita
from quivdeform.errors import (CharTwoUnsupported, InputError,
                               NotFullIdempotent, SizeLimitExceeded)
from quivdeform.fields import Field
from quivdeform.fileio import parse_algebra_file, parse_algebra_text
from quivdeform.hochschild import (FullCochain, cochain_from_pairs,
                                   full_differential)
from quivdeform.deform import Deformation
from quivdeform.modcat import regular_module, regular_uple
from quivdeform.linalg import (SpanSolver, _action, _columns, _differing_columns, _identity,
                               deformation_witness, map_compose)
from quivdeform.morita import (SIDE_LINES, Bimodule, DeformedBimodule, FinDimAlgebra,
                               MoritaContext, TensorProduct,
                               build_hat_P, build_hat_Q, homotopy_h,
                               idempotent_context,
                               matrix_context, transfer_identities_hold,
                               transfer_phi, transfer_psi, triple_violations,
                               verify_morita_deformed)
from quivdeform.quiver import AlgebraBasis, compute_basis

from conftest import (DRAWN_ALGEBRAS, QUICK_REPORT, assert_ring_message, bimodule_blocks,
                      block_starts, bound_quiver_algebras, context_blocks, data_path,
                      identity_context, raw_algebra, raw_bimodule, ring_witness)
from oracles import (_act, _combo, _evaluate, brute_associativity_defect, brute_associator,
                     brute_bimodule_defects,
                     brute_bimodule_map_defects, brute_context_consequences,
                     brute_context_defects, brute_generator_associativity_defect,
                     brute_corner, brute_deformed_block_ring, brute_generated_dimension,
                     brute_greedy_decomposition,
                     brute_greedy_generators, brute_hat_tables, brute_homotopy,
                     brute_matrix_algebra, brute_transfer, brute_uple_defects,
                     brute_uple_glue)

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
        if deformation_witness(alg, cochain.table) is not None:
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
    assert deformation_witness(basis, bad.table) is not None
    with pytest.raises(InputError, match="f must be a Hochschild 2-cocycle on A"):
        verify_morita_deformed(matrix_context(basis, 2), bad)


def matrix_generators(alg, n):
    """The generators of M_n(alg) read off alg, at the index (r n + c) dim
    + x of E_(r+1)(c+1) x: the supports of the E_1j 1_A and E_j1 1_A, and
    the E_11 x_g for g in gens(alg)."""
    return sorted(set(alg.generators()) | {(r * n + c) * alg.dim + u for j in range(n)
                                           for r, c in ((0, j), (j, 0)) for u in alg.unit})


def test_algebra_generators_generate(dual_numbers, two_cycle, triangle,
                                     quantum_plane, lambda_m2):
    # the certificate checks rest on these generators, so generation is
    # measured by the oracle's dense rank, on the fixtures, on M_n(A), whose
    # generators are read off A, and on the deformations A_f and B_g of
    # the matrix context
    algebras = [fixture[1] for fixture in
                (dual_numbers, two_cycle, triangle, quantum_plane, lambda_m2)]
    _, basis = dual_numbers
    f = golden_cochain(dual_numbers)
    ctx = matrix_context(basis, 2)
    g = transfer_phi(ctx, f)
    matrices = [(ctx, 2), (matrix_context(basis, 3), 3), (matrix_context(two_cycle[1], 2), 2)]
    read_off = {id(c.b): matrix_generators(c.a, n) for c, n in matrices}
    algebras += [c.b for c, _ in matrices] + [Deformation(basis, f), Deformation(ctx.b, g)]
    for alg in algebras:
        gens = alg.generators()
        assert gens == sorted(set(gens)) and gens is alg.generators()
        assert brute_generated_dimension(raw_algebra(alg), gens, alg.field) == alg.dim
        if id(alg) in read_off:
            assert gens == read_off[id(alg)]
        elif isinstance(alg, AlgebraBasis):
            # read off kQ/I: its vertex idempotents and arrows
            assert gens == [i for i, p in enumerate(alg.paths) if len(p) <= 2]
        elif isinstance(alg, Deformation):
            # read off the base: its generators as (x, 0), then the (0, e_u)
            # for u in the support of 1_A
            base = alg.base
            assert gens == base.generators() + [base.dim + u for u in sorted(base.unit)]
        else:
            # a greedy list: none can be left out, each one lies outside
            # the subalgebra the earlier ones generate
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


CONTEXT_FIXTURES = ("dual_numbers", "two_cycle", "triangle", "lambda_m2", "quantum_plane")


def raw_context(ctx):
    return (raw_bimodule(ctx.p), raw_bimodule(ctx.q), ctx.pairing_a, ctx.pairing_b)


def assert_contexts_match_the_dense_oracles(basis, name, sizes=(1, 2, 3)):
    """Every matrix context of basis with n in sizes and every vertex
    sum, against M_n(A) multiplied out and the corner read off the basis:
    tables, units, labels, actions, pairings and generator lists; past the
    limit SizeLimitExceeded, and NotFullIdempotent exactly when 1_A is
    outside the span of the brackets of Ae x eA."""
    fld = basis.field
    one = fld.one
    d = basis.dim
    for n in sizes:
        if n * n * d > morita.MAX_MATRIX_DIM:
            with pytest.raises(SizeLimitExceeded):
                matrix_context(basis, n)
            continue
        dim, table, unit, labels = brute_matrix_algebra(raw_algebra(basis), basis.labels,
                                                        n, fld)

        def e_rc(r, c):
            return {(r * n + c) * d + u: x for u, x in basis.unit.items()}

        corner = brute_corner((dim, table, unit), e_rc(0, 0), fld)
        at_p, at_q = corner["at_p"], corner["at_q"]
        ctx = matrix_context(basis, n)
        assert ctx.a is basis, (name, n)
        assert raw_algebra(basis) == corner["corner"], (name, n)
        assert (raw_algebra(ctx.b), ctx.b.labels) == ((dim, table, unit), labels), (name, n)
        assert raw_context(ctx) == (corner["p"], corner["q"], corner["pairing_a"],
                                    corner["pairing_b"]), (name, n)
        assert ctx.gens_a == [({at_p[k]: x for k, x in e_rc(0, 0).items()},
                               {at_q[k]: x for k, x in e_rc(0, 0).items()})], (name, n)
        assert ctx.gens_b == [({at_q[k]: x for k, x in e_rc(r, 0).items()},
                               {at_p[k]: x for k, x in e_rc(0, r).items()})
                              for r in range(n)], (name, n)
    vertices = basis.trivial_indices
    for size in range(1, len(vertices) + 1):
        for chosen in combinations(vertices, size):
            e = {i: one for i in chosen}
            corner = brute_corner(raw_algebra(basis), e, fld)
            # 1_A = sum c (x e)(e y) through the greedy brackets of Ae x eA
            combo = brute_greedy_decomposition(sorted(corner["pairing_b"].items()),
                                               basis.unit, fld)
            if combo is None:
                with pytest.raises(NotFullIdempotent) as caught:
                    idempotent_context(basis, e)
                assert str(caught.value) == "AeA is a proper ideal; e is not full"
                continue
            ctx = idempotent_context(basis, e)
            dim_b = corner["corner"][0]
            assert ctx.a is basis, (name, chosen)
            assert (raw_algebra(ctx.b), ctx.b.labels) == (
                corner["corner"], ["x%d" % i for i in range(dim_b)]), (name, chosen)
            assert raw_context(ctx) == (corner["q"], corner["p"], corner["pairing_b"],
                                        corner["pairing_a"]), (name, chosen)
            assert ctx.gens_a == [({r: x}, {s: one}) for (r, s), x in sorted(combo.items())]
            assert ctx.gens_b == [({corner["at_p"][k]: x for k, x in e.items()},
                                   {corner["at_q"][k]: x for k, x in e.items()})]


@pytest.mark.parametrize("fld", [Q, F7], ids=["Q", "F7"])
def test_contexts_match_the_dense_oracles(fld):
    for name in CONTEXT_FIXTURES:
        af = parse_algebra_file(data_path(name + ".alg"), fld)
        assert_contexts_match_the_dense_oracles(compute_basis(af.quiver, af.relations, fld),
                                                name)


@settings(DRAWN_ALGEBRAS, phases=QUICK_REPORT)
@given(bound_quiver_algebras())
def test_contexts_match_the_dense_oracles_on_drawn_algebras(basis):
    assert_contexts_match_the_dense_oracles(basis, repr(basis.paths), sizes=(1, 2))


def context_data(ctx):
    """Everything a context holds, as raw tables and lists."""
    return (raw_algebra(ctx.a), ctx.a.labels, raw_algebra(ctx.b), ctx.b.labels,
            raw_context(ctx), ctx.gens_a, ctx.gens_b)


def built_on_both_paths(monkeypatch, build):
    """(what build() gives with the blocks read by index, what it gives
    with them read through the spans): the context's data, or the class
    and message of the InputError or NotFullIdempotent it raised.  Checks
    that the first run reads the blocks by index."""
    seen = []
    real = morita._coordinate_blocks
    monkeypatch.setattr(morita, "_coordinate_blocks",
                        lambda images: seen.append(real(images)) or seen[-1])
    out = []
    for _ in range(2):
        try:
            out.append(context_data(build()))
        except (InputError, NotFullIdempotent) as exc:
            out.append("%s: %s" % (type(exc).__name__, exc))
        monkeypatch.setattr(morita, "_coordinate_blocks", lambda images: None)
    monkeypatch.setattr(morita, "_coordinate_blocks", real)
    assert seen and all(at is not None for at in seen)
    return out


@pytest.mark.parametrize("fld", [Q, F7], ids=["Q", "F7"])
def test_corner_paths_build_equal_contexts(fld, monkeypatch):
    # every matrix context within MAX_MATRIX_DIM and every vertex sum:
    # the blocks read by index and through a SpanSolver give the same
    # context, or the same refusal of an idempotent that is not full
    outcomes = []
    for name in CONTEXT_FIXTURES:
        af = parse_algebra_file(data_path(name + ".alg"), fld)
        basis = compute_basis(af.quiver, af.relations, fld)
        builds = [(n, lambda n=n: matrix_context(basis, n)) for n in (1, 2, 3)
                  if n * n * basis.dim <= morita.MAX_MATRIX_DIM]
        builds += [(chosen, lambda chosen=chosen: idempotent_context(
                        basis, {i: fld.one for i in chosen}))
                   for size in range(1, len(basis.trivial_indices) + 1)
                   for chosen in combinations(basis.trivial_indices, size)]
        for which, build in builds:
            by_index, by_span = built_on_both_paths(monkeypatch, build)
            assert by_index == by_span, (name, which)
            outcomes.append(by_index)
    refused = [out for out in outcomes if isinstance(out, str)]
    assert (len(outcomes), len(refused)) == (29, 8)
    assert set(refused) == {"NotFullIdempotent: AeA is a proper ideal; e is not full"}


def moved_out_of_its_block(c, e):
    """One copy of the table of C for each block of the corner context at
    the coordinate idempotent e that a product lands in (eCe, eC and Ce):
    the first product of two basis elements off the support of e that the
    block's rule sends into it, and that no earlier copy moved, moved to
    the first basis element outside it.  Off the support of e, e x and x e
    stay as they were."""
    fld = c.field
    one = fld.one
    left = {x for x in range(c.dim) if c.mul(e, {x: one})}
    right = {x for x in range(c.dim) if c.mul({x: one}, e)}
    corner = left & right
    rest = [x for x in range(c.dim) if x not in e]
    # (rows, columns, where the product lands): eCe eCe, eCe eC, eC C,
    # C Ce, Ce eCe and eC Ce
    rules = ((corner, corner, corner), (corner, left, left), (left, set(rest), left),
             (set(rest), right, right), (right, corner, right), (left, right, corner))
    tables, moved = [], set()
    for rows, cols, lands in rules:
        s, t = min((s, t) for s in rest if s in rows for t in rest if t in cols
                   if (s, t) not in moved)
        moved.add((s, t))
        table = dict(c.table)
        table[(s, t)] = {min(x for x in range(c.dim) if x not in lands): one}
        tables.append(FinDimAlgebra(fld, c.dim, table, c.unit, c.labels, check=False))
    return tables


def test_corner_paths_refuse_a_product_outside_its_block(dual_numbers, two_cycle,
                                                         monkeypatch):
    # a table of C with one product moved out of its block: both paths
    # raise the same InputError, whether eCe is given or built
    for fixture in (dual_numbers, two_cycle):
        _, basis = fixture
        c = matrix_context(basis, 2).b
        e = {u: x for u, x in basis.unit.items()}
        for broken in moved_out_of_its_block(c, e):
            for corner in (None, basis):
                by_index, by_span = built_on_both_paths(
                    monkeypatch, lambda: morita._corner_context(broken, e, corner))
                assert by_index == by_span == (
                    "InputError: product escapes the expected subspace")


@pytest.mark.parametrize("fld", [Q, F7], ids=["Q", "F7"])
def test_a_non_coordinate_idempotent_takes_the_span_path(fld, monkeypatch):
    # e = (E11 + E12) 1_A in M_2(A) moves E21 1_A to E21 1_A + E22 1_A, so
    # its blocks are spans; its corner is A again, and the context proves
    # its ring and both generator lists
    seen = []
    real = morita._coordinate_blocks
    monkeypatch.setattr(morita, "_coordinate_blocks",
                        lambda images: seen.append(real(images)) or seen[-1])
    for name in ("dual_numbers", "two_cycle"):
        af = parse_algebra_file(data_path(name + ".alg"), fld)
        basis = compute_basis(af.quiver, af.relations, fld)
        c = matrix_context(basis, 2).b
        d = basis.dim
        e = {cell * d + u: x for cell in (0, 1) for u, x in basis.unit.items()}
        seen.clear()
        ctx = morita._corner_context(c, e)
        assert seen == [None], name
        assert (ctx.a.dim, ctx.p.dim, ctx.q.dim) == (d, 2 * d, 2 * d), name
        ring, _ = ctx.proved_ring()
        assert morita.ring_failure(ring, "the Morita ring") is None, name
        assert ctx.a.mul(ctx.a.unit, ctx.a.unit) == ctx.a.unit, name


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
        assert deformation_witness(ctx.b, g.table) is None


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
    assert deformation_witness(corner_alg, fa.table) is None
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


def contexts_of(basis, sizes=(1, 2)):
    """The matrix contexts of basis for n in sizes within MAX_MATRIX_DIM,
    and the context of every vertex sum whose idempotent is full."""
    one = basis.field.one
    out = [matrix_context(basis, n) for n in sizes
           if n * n * basis.dim <= morita.MAX_MATRIX_DIM]
    for size in range(1, len(basis.trivial_indices) + 1):
        for chosen in combinations(basis.trivial_indices, size):
            try:
                out.append(idempotent_context(basis, {i: one for i in chosen}))
            except NotFullIdempotent:
                pass
    return out


@settings(DRAWN_ALGEBRAS, max_examples=25, phases=QUICK_REPORT)
@given(bound_quiver_algebras(), st.randoms(use_true_random=False))
def test_transfer_and_homotopy_match_the_oracles_on_drawn_algebras(basis, rng):
    # phi, psi and h of random cochains against the defining sums, on
    # every drawn context; the dense sums run over every basis tuple of
    # the target, so degree 3 is compared on targets of dimension <= 12
    fld = basis.field
    for ctx in contexts_of(basis):
        for degree in (1, 2, 3):
            for dim, target, transfer, brute in (
                    (ctx.a.dim, ctx.b.dim, transfer_phi, brute_phi),
                    (ctx.b.dim, ctx.a.dim, transfer_psi, brute_psi)):
                if degree < 3 or target <= 12:
                    f = random_cochain(rng, fld, dim, degree)
                    assert transfer(ctx, f).table == brute(ctx, f)
            if degree > 1:
                f = random_cochain(rng, fld, ctx.a.dim, degree)
                assert homotopy_h(ctx, f).table == brute_homotopy(
                    raw_algebra(ctx.a), ctx.pairing_a, ctx.gens_a, ctx.gens_b, f.table,
                    degree, fld)


def transfer_verdicts(ctx, f, g):
    """The four identities of the transfer report, for f on A and g on B,
    each decided by the full differentials: d g = 0, d g = phi^3 d f, d
    psi^2 g = psi^3 d g and h^3 d f + d h^2 f = f - psi^2 g, with the
    transfers and the homotopy as the morita module holds them."""
    dg = full_differential(g, ctx.b)
    df = full_differential(f, ctx.a)
    psi, h = morita.transfer_psi, morita.homotopy_h
    back = psi(ctx, g)
    return [dg.is_zero(), dg == morita.transfer_phi(ctx, df),
            full_differential(back, ctx.a) == psi(ctx, dg),
            h(ctx, df) + full_differential(h(ctx, f), ctx.a) == f - back]


def bumped(c, at):
    """c plus one at the key (at, ..., at) and the coordinate at, taken
    modulo the dimension, when c is not zero."""
    if not c.table:
        return c
    at %= c.dim
    return c + FullCochain(c.dim, c.degree, c.field, {(at,) * c.degree: {at: c.field.one}})


def assert_rows_decide_the_transfer(ctx, rng, monkeypatch):
    """transfer_identities_hold against transfer_verdicts: for the cocycle
    d h of a random 1-cochain h, the zero cocycle and a random cochain,
    with phi^2 and with a bumped g, and with psi and h bumped in turn.  A
    True verdict is never wrong, and with f a cocycle it is False only
    when an identity fails."""
    fld = ctx.field
    cocycle = full_differential(random_cochain(rng, fld, ctx.a.dim, 1), ctx.a)
    real_psi, real_h = morita.transfer_psi, morita.homotopy_h
    at = rng.randrange(ctx.a.dim)
    planted = [{}, {"transfer_psi": lambda c, g: bumped(real_psi(c, g), at)},
               {"homotopy_h": lambda c, f: bumped(real_h(c, f), at)}]
    seen = set()
    for patch in planted:
        for name, fn in patch.items():
            monkeypatch.setattr(morita, name, fn)
        for f in (cocycle, FullCochain(ctx.a.dim, 2, fld), random_cochain(rng, fld, ctx.a.dim, 2)):
            for g in (transfer_phi(ctx, f), bumped(transfer_phi(ctx, f), rng.randrange(99))):
                fast = transfer_identities_hold(ctx, f, g)
                slow = all(transfer_verdicts(ctx, f, g))
                is_cocycle = deformation_witness(ctx.a, f.table) is None
                assert fast == (slow and is_cocycle), (patch, f.table, g.table)
                seen.add(fast)
        monkeypatch.setattr(morita, "transfer_psi", real_psi)
        monkeypatch.setattr(morita, "homotopy_h", real_h)
    assert seen == {True, False}


def test_rows_decide_the_transfer_on_the_fixture_contexts(dual_numbers, two_cycle, triangle,
                                                         quantum_plane, lambda_m2, monkeypatch):
    rng = random.Random(53)
    for _, basis in (dual_numbers, two_cycle, triangle, quantum_plane, lambda_m2):
        for ctx in contexts_of(basis, (1, 2, 3)):
            assert_rows_decide_the_transfer(ctx, rng, monkeypatch)


@settings(DRAWN_ALGEBRAS, max_examples=25, phases=QUICK_REPORT)
@given(bound_quiver_algebras(), st.randoms(use_true_random=False))
def test_rows_decide_the_transfer_on_drawn_algebras(basis, rng):
    with pytest.MonkeyPatch.context() as monkeypatch:
        for ctx in contexts_of(basis):
            assert_rows_decide_the_transfer(ctx, rng, monkeypatch)


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


EXTERIOR2 = """\
field Q
vertex 1
arrow x1 : 1 -> 1
arrow x2 : 1 -> 1
relation x1*x1
relation x2*x2
relation x1*x2 + x2*x1
cocycle f(x1, x1) = e(1)
cocycle f(x1, x2*x1) = -x2
cocycle f(x2*x1, x1) = x2
"""


def hat_cases(fld):
    """(name, context, cocycle on A) over fld: M_2 of the dual numbers, of
    the two-cycle algebra, whose unit e(1) + e(2) makes every generator a
    sum of two terms, and of the exterior algebra on 2 letters with its
    Clifford cocycle, the lambda_m2 corner at e(1) with the cocycle of
    deformed_cases, and the two-cycle algebra against its corner at the
    unit, with its cocycle and with the cocycle of unnormalised_corner,
    the one case whose h^2(f) is nonzero."""
    cases = []
    for name, af in (("dual_numbers", parse_algebra_file(data_path("dual_numbers.alg"), fld)),
                     ("two_cycle", parse_algebra_file(data_path("two_cycle.alg"), fld)),
                     ("exterior2", parse_algebra_text(EXTERIOR2, fld))):
        basis = compute_basis(af.quiver, af.relations, fld)
        cases.append((name + " M_2", matrix_context(basis, 2),
                      cochain_from_pairs(basis, af.cocycle_pairs)))
        if name == "two_cycle":
            cases.append(("two_cycle corner, f + d c", *unnormalised_corner((af, basis))))
    cases += [(name, ctx, f) for name, ctx, f in deformed_cases(fld) if "corner" in name]
    return cases


@pytest.mark.parametrize("fld", [Q, F7], ids=["Q", "F7"])
def test_hat_tables_match_their_defining_sums(fld, monkeypatch):
    # every entry of f_P, g_P, g_Q and f_Q is the dense oracle's sum, the
    # terms of h^2(f) included, and the certificate checks the 2-cochain F
    # read off exactly these maps; over Q the halving keeps an integer an
    # int
    homotopies, checked = [], []
    real = morita._deformation_failure
    monkeypatch.setattr(morita, "_deformation_failure",
                        lambda ctx, blocks: checked.append(blocks) or real(ctx, blocks))
    for name, ctx, f in hat_cases(fld):
        a_f, b_g = deformed_pair(ctx, f)
        h2f = homotopy_h(ctx, f)
        homotopies.append(h2f)
        hat_p, hat_q = (build(ctx, a_f, b_g, h2f) for build in (build_hat_P, build_hat_Q))
        want = brute_hat_tables(ctx.a.dim, ctx.b.dim, raw_bimodule(ctx.p),
                                raw_bimodule(ctx.q), ctx.pairing_a, ctx.pairing_b,
                                ctx.gens_a, ctx.gens_b, f.table, b_g.f.table, h2f.table, fld)
        # hat Q keeps its left maps, by B, as f_tables and its right ones as
        # g_tables
        got = [{(i, x): tables[i].get(x, {}) for i, x in want_part}
               for tables, want_part in zip((hat_p.f_tables, hat_p.g_tables,
                                             hat_q.f_tables, hat_q.g_tables), want)]
        assert got == list(want), name
        assert all(any(part.values()) for part in want), name
        scalars = [c for part in got for vec in part.values() for c in vec.values()]
        assert all(type(c) is int or c.denominator != 1 for c in scalars), name
        checked.clear()
        verify_morita_deformed(ctx, f)
        assert checked == [morita._deformation_blocks(
            ctx, f, b_g.f, (hat_p.f_tables, hat_p.g_tables),
            (hat_q.f_tables, hat_q.g_tables))], name
    assert not all(h2f.is_zero() for h2f in homotopies)


def hat_raw(ctx):
    """The context's data as brute_hat_tables takes it, after the two
    dimensions."""
    return (raw_bimodule(ctx.p), raw_bimodule(ctx.q), ctx.pairing_a, ctx.pairing_b,
            ctx.gens_a, ctx.gens_b)


def assert_hat_matches_its_sums(ctx, f, g, h_a, h_b, name):
    """_hat(ctx, f, g, h_a, h_b) against the defining sums of
    brute_hat_tables: f_P is f_P of the context with h_a, and g_P, whose h
    term is x h_b(e_j), is f_Q of the swapped context with h_b."""
    fld = ctx.field
    f_p, g_p = morita._hat(ctx, f, g, h_a, h_b)
    want_f_p = brute_hat_tables(ctx.a.dim, ctx.b.dim, *hat_raw(ctx), f.table, g.table,
                                h_a.table, fld)[0]
    sw = ctx.swap()
    want_g_p = brute_hat_tables(sw.a.dim, sw.b.dim, *hat_raw(sw), g.table, f.table,
                                h_b.table, fld)[3]
    assert {(i, x): f_p[i].get(x, {}) for i, x in want_f_p} == want_f_p, name
    assert {(j, x): g_p[j].get(x, {}) for j, x in want_g_p} == want_g_p, name
    assert (len(f_p), len(g_p)) == (ctx.a.dim, ctx.b.dim), name
    return f_p, g_p


def one_row(cochain):
    """The cochain with every row but its first nonzero one set to 0."""
    first = min(cochain.table)[0]
    return FullCochain(cochain.dim, cochain.degree, cochain.field,
                       {key: vec for key, vec in cochain.table.items() if key[0] == first})


@pytest.mark.parametrize("fld", [Q, F7], ids=["Q", "F7"])
def test_hat_tables_on_the_edges_of_their_supports(fld):
    # the maps of _hat are linear in f, g and the h, so any cochains are
    # valid inputs of the defining sums: f and g cut to one row each, the
    # zero cochains, which give zero tables, and random 1-cochains on both
    # sides, with f and g and without them
    rng = random.Random(11)
    for name, ctx, f in hat_cases(fld):
        g = transfer_phi(ctx, f)
        none_a, none_b = (FullCochain(alg.dim, 1, fld) for alg in (ctx.a, ctx.b))
        h_a = random_cochain(rng, fld, ctx.a.dim, 1)
        h_b = random_cochain(rng, fld, ctx.b.dim, 1)
        zero = morita._hat(ctx, FullCochain(ctx.a.dim, 2, fld), FullCochain(ctx.b.dim, 2, fld),
                           none_a, none_b)
        assert zero == ([{}] * ctx.a.dim, [{}] * ctx.b.dim), name
        for f1, g1, h1, h2 in ((one_row(f), one_row(g), none_a, none_b),
                               (f, g, h_a, h_b),
                               (FullCochain(ctx.a.dim, 2, fld), FullCochain(ctx.b.dim, 2, fld),
                                h_a, h_b)):
            tables = assert_hat_matches_its_sums(ctx, f1, g1, h1, h2, name)
            assert any(tables[0]) and any(tables[1]), name
    # a cocycle with one nonzero row: f(a, a) = e(1) on the dual numbers
    af = parse_algebra_file(data_path("dual_numbers.alg"), fld)
    basis = compute_basis(af.quiver, af.relations, fld)
    f = cochain_from_pairs(basis, af.cocycle_pairs)
    assert len({key[0] for key in f.table}) == 1
    ctx = matrix_context(basis, 2)
    g = FullCochain(ctx.b.dim, 2, fld)
    none_a, none_b = (FullCochain(alg.dim, 1, fld) for alg in (ctx.a, ctx.b))
    for c in (ctx, ctx.swap()):
        args = (f, g, none_a, none_b) if c is ctx else (g, f, none_b, none_a)
        assert_hat_matches_its_sums(c, *args, "dual_numbers M_2")


def defining_pairing(ctx, f, f_tables):
    """The t-part w((x, 0), (y, 0)) = sum_k f(<x, q_k>, <p_k, y>) - <c_x,
    y> of _deformed_pairing on every basis pair, with c_x = sum_k
    f_P(<x, q_k> (x) p_k) and f_P(e_i (x) m) = f_tables[i][m], over
    gens_b = [(q_k, p_k)]."""
    fld = ctx.field
    one, minus = fld.one, fld.neg(fld.one)
    out = {}
    for x in range(ctx.p.dim):
        brackets = [(_act(ctx.pairing_a, fld, {x: one}, qk), pk) for qk, pk in ctx.gens_b]
        c_x = _combo(fld, *((fld.mul(c, cm), f_tables[i].get(m, {}))
                            for a, pk in brackets for i, c in a.items()
                            for m, cm in pk.items()))
        for y in range(ctx.q.dim):
            ey = {y: one}
            w = _combo(fld, (minus, _act(ctx.pairing_a, fld, c_x, ey)),
                       *((one, _evaluate(fld, f.table, (a, _act(ctx.pairing_a, fld, pk, ey))))
                         for a, pk in brackets))
            if w:
                out[(x, y)] = w
    return out


@pytest.mark.parametrize("fld", [Q, F7], ids=["Q", "F7"])
def test_deformed_pairing_matches_its_defining_sum(fld):
    # on every context of hat_cases and its swap, with a random 2-cochain
    # and random maps f_P, halves included, for which c_x is not 0: the
    # contexts the certificate meets all have c_x = 0.  The maps differ
    # from one e_i to the next, so reading one map for every i changes the
    # pairing on some context
    rng = random.Random(29)
    half = fld.inv(fld.from_int(2))
    sensitive = []
    for name, ctx, _ in hat_cases(fld):
        for c in (ctx, ctx.swap()):
            f = random_cochain(rng, fld, c.a.dim, 2)
            f_tables = [{m: {rng.randrange(c.p.dim): rng.choice((fld.one, half))}
                         for m in rng.sample(range(c.p.dim), 2)} for _ in range(c.a.dim)]
            want = defining_pairing(c, f, f_tables)
            assert morita._deformed_pairing(c, f, f_tables) == want, name
            assert want != defining_pairing(c, f, [{}] * c.a.dim), name
            assert morita._deformed_pairing(c, FullCochain(c.a.dim, 2, fld),
                                            [{}] * c.a.dim) == {}, name
            sensitive.append(want != defining_pairing(c, f, [f_tables[0]] * c.a.dim))
    assert any(sensitive)


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


def raw_uple(uple):
    """The arguments of the uple oracles for a DeformedBimodule."""
    f_m = {(i, m): vec for i, tab in enumerate(uple.f_tables) for m, vec in tab.items()}
    g_m = {(m, j): vec for j, tab in enumerate(uple.g_tables) for m, vec in tab.items()}
    return (raw_algebra(uple.left_alg), raw_algebra(uple.right_alg), uple.f.table,
            uple.g.table, raw_bimodule(uple.m0), raw_bimodule(uple.m1), uple.t, f_m, g_m,
            uple.field)


def bimodule_witnesses(bim):
    """(RingBlocks, defects) of the ring [[A, M], [0, B]] of a Bimodule."""
    return bimodule_blocks(bim.left_alg, bim.right_alg, raw_algebra(bim.left_alg),
                           raw_algebra(bim.right_alg), raw_bimodule(bim), bim.field)


def assert_bimodule_matches_oracle(bim):
    """violations() is empty exactly when the oracle finds no defect, and
    otherwise one message, which names the first defect of the ring's
    check order that the oracle flags (assert_ring_message); returns the
    violations."""
    bad = bim.violations()
    assert len(bad) <= 1, bad
    assert_ring_message(bad[0] if bad else None, *bimodule_witnesses(bim))
    return bad


def assert_uple_matches_oracle(uple):
    """violations() starts with "T is not injective" exactly when the
    oracle finds T singular; the rest is empty exactly when the oracle
    finds no defect on its own glue of the uple, and otherwise one
    message, which names the first defect of the glue's ring that the
    oracle flags.  The oracle's glue has a defect exactly when the uple
    has one besides injectivity.  Returns the violations."""
    bad = uple.violations()
    defects = brute_uple_defects(*raw_uple(uple))
    singular = ("injective", ()) in defects
    assert (bad[:1] == ["T is not injective"]) == singular, (bad, defects)
    rest = bad[1:] if singular else bad
    assert len(rest) <= 1, bad
    a_f, b_g, dim, left, right = brute_uple_glue(*raw_uple(uple))
    blocks, glue = bimodule_blocks(uple.left_def, uple.right_def, a_f, b_g,
                                   (dim, left, right), uple.field)
    assert bool(glue) == any(kind != "injective" for kind, _ in defects), (glue, defects)
    assert_ring_message(rest[0] if rest else None, blocks, glue)
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
        Bimodule(p.left_alg, p.right_alg, p.dim, left, p.right, check=False)) == [
        "the bimodule ring is not associative at (a:a, a:a, p0)"]
    right = {k: dict(v) for k, v in p.right.items()}
    right[(0, 1)] = {1: Q.one, 2: Q.one}  # e(1) . E11*a is a, in slot 1 only
    assert assert_bimodule_matches_oracle(
        Bimodule(p.left_alg, p.right_alg, p.dim, p.left, right, check=False)) == [
        "the bimodule ring is not associative at (a:a, p0, b:E11*a)"]
    # a acts by two square-zero matrices that do not commute: both actions
    # are modules, only the commutation fails
    _, basis = dual_numbers
    left = {(0, 0): {0: Q.one}, (0, 1): {1: Q.one}, (1, 0): {1: Q.one}}
    right = {(0, 0): {0: Q.one}, (1, 0): {1: Q.one}, (1, 1): {0: Q.one}}
    bim = Bimodule(basis, basis, 2, left, right, check=False)
    assert assert_bimodule_matches_oracle(bim) == [
        "the bimodule ring is not associative at (a:a, p0, b:a)"]
    assert {kind for kind, _ in bimodule_witnesses(bim)[1]} == {"P commute"}


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
    found = []
    for uple in (variant(f_tables=f_tables), variant(g_tables=g_tables), variant(t=t),
                 variant(t=singular),
                 build_hat_P(ctx, a_f, Deformation(ctx.b, g2), h2f)):
        found += assert_uple_matches_oracle(uple)
    assert found == [
        "the bimodule ring is not associative at (a:a, p0, b:E11*e(1))",
        "the bimodule ring is not associative at (a:a, p2, b:E11*a)",
        "the bimodule ring is not associative at (a:a, a:a, p0)",
        "T is not injective", "the bimodule ring is not associative at (a:a, a:a, p0)",
        "the bimodule ring is not associative at (a:a, a:a, p0)"]
    # over the zero cocycle T = 0 meets every condition but injectivity
    zero = FullCochain(basis.dim, 2, Q, {})
    reg = regular_deformed_uple(Deformation(basis, zero))
    uple = DeformedBimodule(reg.left_def, reg.right_def, reg.m0, reg.m1, {},
                            reg.f_tables, reg.g_tables)
    assert assert_uple_matches_oracle(uple) == ["T is not injective"]


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


def bimodule_zoo(fld):
    """(name, Bimodule) over fld: the regular bimodule of the two-cycle
    algebra and its regular right module, a bimodule over (k, A), P and Q
    of M_2 of the dual numbers and of the lambda_m2 corner at e(1), and,
    over A_f for the dual numbers with their cocycle, the regular module
    as a bimodule over (A_f, k), the glue of the regular uple over (A_f,
    k[t]/t^2) and the glue of hat P of M_2."""
    def load(name):
        af = parse_algebra_file(data_path(name + ".alg"), field_override=fld)
        return af, compute_basis(af.quiver, af.relations, fld)

    dual, cycle, lam = load("dual_numbers"), load("two_cycle")[1], load("lambda_m2")
    f = golden_cochain(dual)
    ctx = matrix_context(dual[1], 2)
    corner = idempotent_context(lam[1], vertex_idempotent(lam, "1"))
    a_f = Deformation(dual[1], f)
    hat = build_hat_P(ctx, *deformed_pair(ctx, f), homotopy_h(ctx, f))
    one = fld.one
    ground = FinDimAlgebra(fld, 1, {(0, 0): {0: one}}, {0: one}, ["1"])
    return [("regular", Bimodule(cycle, cycle, cycle.dim, cycle.table, cycle.table,
                                 check=False)),
            ("right module", Bimodule(ground, cycle, cycle.dim,
                                      {(0, m): {m: one} for m in range(cycle.dim)},
                                      cycle.table, check=False)),
            ("M_2 P", ctx.p), ("M_2 Q", ctx.q), ("corner P", corner.p), ("corner Q", corner.q),
            ("module", regular_module(a_f)), ("uple glue", regular_uple(a_f).glued),
            ("hat P glue", hat.glued)]


def planted(bim, rng):
    """(kind, left, right): the tables of bim with one defect planted of
    each kind.  "left" and "right" move one entry of the action of a basis
    element outside the support of the unit (one in it when there is no
    other) by a basis vector, "unit" moves the left action of the unit on
    one coordinate, and "commute" conjugates the right action, which
    keeps it a unital right action."""
    fld, la, ra, dim = bim.field, bim.left_alg, bim.right_alg, bim.dim
    m, r = rng.randrange(dim), rng.randrange(dim)

    def outside(alg):
        rest = [k for k in range(alg.dim) if k not in alg.unit]
        return rng.choice(rest) if rest else min(alg.unit)

    def bumped(table, key):
        out = dict(table)
        out[key] = vector_plus(fld, out.get(key, {}), r)
        return out

    return [("left", bumped(bim.left, (outside(la), m)), bim.right),
            ("right", bim.left, bumped(bim.right, (m, outside(ra)))),
            ("unit", bumped(bim.left, (min(la.unit), m)), bim.right),
            ("commute", bim.left, conjugated(bim.right, dim, fld, 0, dim - 1))]


@pytest.mark.parametrize("fld", [Q, F7], ids=["Q", "F7"])
def test_bimodule_rings_name_the_first_defect_of_the_oracle(fld):
    # every bimodule of the zoo, and each with one defect planted of each
    # kind: violations() is empty exactly when the exhaustive oracle finds
    # no defect, and otherwise names the oracle's unit defect of least
    # ring index, or the first triple of the ring's check order that the
    # oracle flags
    rng = random.Random(53)
    firsts = {}
    for name, bim in bimodule_zoo(fld):
        assert assert_bimodule_matches_oracle(bim) == [], name
        for kind, left, right in planted(bim, rng):
            broken = Bimodule(bim.left_alg, bim.right_alg, bim.dim, left, right, check=False)
            bad = assert_bimodule_matches_oracle(broken)
            if bad:
                witness = ring_witness(bad[0], *bimodule_witnesses(broken))
                firsts.setdefault(kind, set()).add(witness[0])
    # a defect of the right action is met first at (a, m, b) unless the
    # left algebra is the ground field, and one of the right unit when
    # the right algebra is; so is one of the left action, whose only
    # basis element over the ground field is the unit
    assert firsts == {"left": {"P left assoc", "P left unit"},
                      "right": {"P commute", "P right assoc", "P right unit"},
                      "commute": {"P commute"}, "unit": {"P left unit"}}


def test_bimodule_check_is_one_ring_witness(dual_numbers, monkeypatch):
    # a bimodule or uple check composes no map of its own: it runs
    # associativity_witness once, on the ring [[A, M], [0, B]] of
    # dimension dim A + dim M + dim B whose table and unit are those of
    # the oracle's ring, and the witness takes its left factors from
    # ring.unit_and_generators(), which are the oracle's greedy generators
    # and the support of the unit; a context's ring is the oracle's too
    calls = []
    real_witness = FinDimAlgebra.associativity_witness
    real_factors = FinDimAlgebra.unit_and_generators
    real_compose = morita.map_compose

    def witness(self):
        calls.append(("witness", self))
        return real_witness(self)

    def factors(self):
        calls.append(("factors", self))
        return real_factors(self)

    def compose(*args):
        calls.append(("compose", None))
        return real_compose(*args)

    monkeypatch.setattr(FinDimAlgebra, "associativity_witness", witness)
    monkeypatch.setattr(FinDimAlgebra, "unit_and_generators", factors)
    monkeypatch.setattr(morita, "map_compose", compose)
    zoo = bimodule_zoo(Q)
    ctx = matrix_context(dual_numbers[1], 2)
    hat = build_hat_P(ctx, *deformed_pair(ctx, golden_cochain(dual_numbers)),
                      homotopy_h(ctx, golden_cochain(dual_numbers)))
    for name, check, bim in [(name, bim.violations, bim) for name, bim in zoo] + [
            ("hat P", hat.violations, hat.glued)]:
        del calls[:]
        assert check() == [], name
        ring = calls[0][1]
        assert calls == [("witness", ring), ("factors", ring)], name
        la, ra = bim.left_alg, bim.right_alg
        assert ring.dim == la.dim + bim.dim + ra.dim, name
        dim, table, unit = bimodule_witnesses(bim)[0].raw
        assert (ring.dim, ring.table, ring.unit) == (dim, table, unit), name
        assert ring.labels == (["a:" + x for x in la.labels]
                               + ["p%d" % m for m in range(bim.dim)]
                               + ["b:" + y for y in ra.labels]), name
        assert real_factors(ring) == sorted(set(unit) | set(
            brute_greedy_generators(dim, table, unit, Q))), name
    for ctx in (ctx, idempotent_context(dual_numbers[1], dict(dual_numbers[1].unit))):
        ring = ctx.ring()
        dim, table, unit = context_blocks(ctx).raw
        assert (ring.dim, ring.table, ring.unit) == (dim, table, unit)


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


def context_accepted(ctx):
    """MoritaContext._validate accepts ctx exactly when the exhaustive
    oracles find no failing axiom, and its error names the defect that
    assert_ring_message expects; on an accepted context the dense
    oracle finds every consequence that MoritaContext does not compute to
    hold.  Returns whether it was accepted."""
    defects = context_defects(ctx)
    try:
        ctx._validate()
    except InputError as exc:
        assert_ring_message(str(exc), context_blocks(ctx), defects)
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
    # one of the two generator pairs of B left out: only 1_B is missed,
    # first at E22; gens_a with its bracket doubled misses 1_A at e(1)
    assert context_defects(ctx) == []
    assert not context_verdict(ctx, ctx.pairing_a, ctx.pairing_b, ctx.gens_a, ctx.gens_b[:1])
    doubled_a = [(u, {r: ctx.field.mul(two, c) for r, c in v.items()}) for u, v in ctx.gens_a]
    assert not context_verdict(ctx, ctx.pairing_a, ctx.pairing_b, doubled_a, ctx.gens_b)
    for gens_a, gens_b, message in (
            (ctx.gens_a, ctx.gens_b[:1], "gens_b do not decompose 1_B at b:E22*e(1)"),
            (doubled_a, ctx.gens_b, "gens_a do not decompose 1_A at a:e(1)")):
        with pytest.raises(InputError) as caught:
            MoritaContext(ctx.a, ctx.b, ctx.p, ctx.q, ctx.pairing_a, ctx.pairing_b, gens_a, gens_b)
        assert str(caught.value) == message
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
        start = block_starts((ctx.a.dim, ctx.p.dim, ctx.q.dim, ctx.b.dim))
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
    # certificate: its two sides are one deformation of the context's own
    # ring, checked without building a context, a ring or a Deformation
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
    deformations, rings = [], []
    real_deformation, real_block_ring = deform.Deformation, morita.block_ring
    monkeypatch.setattr(deform, "Deformation",
                        lambda *args: deformations.append(args) or real_deformation(*args))
    monkeypatch.setattr(morita, "block_ring",
                        lambda *args: rings.append(args) or real_block_ring(*args))
    for fixture, ctx, built_rings in (
            (dual_numbers, matrix_context(basis, 2), 0),
            (two_cycle, idempotent_context(two_cycle[1], dict(two_cycle[1].unit)), 1)):
        rings.clear()
        report, validated = certify(ctx, golden_cochain(fixture), monkeypatch)
        assert all_pass(report) == [] and built == []
        assert validated == [] and deformations == []
        # a matrix context keeps the ring it checked; the swap of a checked
        # corner builds its own ring once and reads its factors off its
        # mirror: the support of the unit and a generating set
        ring, factors = ctx.proved_ring()
        assert len(rings) == built_rings
        raw = context_blocks(ctx).raw
        assert (ring.dim, ring.table, ring.unit) == raw
        assert set(ring.unit) <= set(factors)
        assert brute_generated_dimension(raw, factors, ctx.field) == ring.dim
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
    # the context over (A_f, B_g) whose ring the certificate checks as a
    # deformation of the plain ring, written out as raw tables: A_f, B_g,
    # the glues of hat P and hat Q, both pairings and the generators; the
    # oracles find no failing axiom on any basis tuple, and both balanced
    # products, built densely on all basis triples, map bijectively onto
    # A_f and B_g; the certificate checks no context of its own
    for name, ctx, f in deformed_cases(fld):
        report, validated = certify(ctx, f, monkeypatch)
        assert all_pass(report) == [], name
        assert validated == [], name
        assert context_oracles(deformed_context(ctx, f)) == ([], []), name


def planted_pairing(monkeypatch, base, change):
    """Make morita._deformed_pairing return change(ctx, w) for the t-part
    w of a deformed pairing, the same table for each side every time it
    is called, for the rest of the test."""
    real = morita._deformed_pairing
    cache = {}

    def variant(ctx, f, f_tables):
        side = ctx.a is base.a
        if side not in cache:
            cache[side] = change(ctx, real(ctx, f, f_tables))
        return cache[side]

    monkeypatch.setattr(morita, "_deformed_pairing", variant)


def test_broken_deformed_contexts_fail_every_side_line(dual_numbers, lambda_m2,
                                                       monkeypatch):
    # the t-part w of both deformed pairings doubled, or one entry of the
    # t-part of the pairing into B_g moved by a basis vector: the oracle
    # finds a failing axiom of the deformed context, and every side line
    # of the certificate fails with one message, the first failure of the
    # certificate's check order that the oracles find
    rng = random.Random(47)
    real = morita._deformed_pairing
    corner_alg, corner = corner_context(lambda_m2)
    cases = [(matrix_context(dual_numbers[1], 2), golden_cochain(dual_numbers)),
             (corner, transfer_psi(corner, FullCochain(corner.b.dim, 2, Q,
                                                       {(1, 1): dict(corner.b.unit)})))]
    for base, f in cases:
        fld = base.field
        two = fld.from_int(2)

        def omega_doubled(ctx, w):
            return {k: {r: fld.mul(two, c) for r, c in vec.items()} for k, vec in w.items()}

        def moved_on_b(ctx, w):
            if ctx.a is base.b:
                key = (rng.randrange(ctx.p.dim), rng.randrange(ctx.q.dim))
                w[key] = vector_plus(fld, w.get(key, {}), rng.randrange(ctx.a.dim))
            return w

        for change in (omega_doubled, moved_on_b, moved_on_b):
            planted_pairing(monkeypatch, base, change)
            report, validated = certify(base, f, monkeypatch)
            assert validated == []
            assert [ok for _, ok, _ in report[:3]] == [True] * 3
            sides = report[3:]
            assert len(sides) == 2 * len(SIDE_LINES)
            assert not any(ok for _, ok, _ in sides)
            witnesses = {detail for _, _, detail in sides}
            assert len(witnesses) == 1
            dctx = deformed_context(base, f)
            defects, _ = context_oracles(dctx)
            assert defects
            message = witnesses.pop()
            assert ring_witness(message, context_blocks(dctx), defects)
            assert message == first_deformation_failure(base, context_blocks(dctx).raw,
                                                        checked_factors(base))
    monkeypatch.setattr(morita, "_deformed_pairing", real)


def full_pairing(ctx, w):
    """The deformed pairing of hat P and hat Q into A_f with t-part w on
    the pairs ((x, 0), (y, 0)) (morita._deformed_pairing), written out:

        w((x, 0), (y, 0)) = (<x, y>, w(x, y)),
        w((0, x), (y, 0)) = w((x, 0), (0, y)) = (0, <x, y>),  w((0, x), (0, y)) = 0;

    with ctx.swap() and the t-part of the other side, the pairing into
    B_g."""
    ns, pdim, qdim = ctx.a.dim, ctx.p.dim, ctx.q.dim
    out = {}
    for x in range(pdim):
        for y in range(qdim):
            plain = ctx.pairing_a.get((x, y), {})
            out[(x, y)] = {**plain, **{ns + r: c for r, c in w.get((x, y), {}).items()}}
            out[(pdim + x, y)] = out[(x, qdim + y)] = {ns + r: c for r, c in plain.items()}
    return out


def deformed_context(ctx, f, g=None):
    """The context over (A_f, B_g) whose ring the certificate checks as
    the deformation of the ring of ctx, unchecked, with g = phi^2(f)
    unless given: the glues of hat P and hat Q and the full pairings."""
    a_f, b_g = deformed_pair(ctx, f, g)
    h2f = homotopy_h(ctx, f)
    hat_p = build_hat_P(ctx, a_f, b_g, h2f)
    hat_q = build_hat_Q(ctx, a_f, b_g, h2f)
    w_a = morita._deformed_pairing(ctx, a_f.f, hat_p.f_tables)
    w_b = morita._deformed_pairing(ctx.swap(), b_g.f, hat_q.f_tables)
    return MoritaContext(a_f, b_g, hat_p.glued, hat_q.glued, full_pairing(ctx, w_a),
                         full_pairing(ctx.swap(), w_b), ctx.gens_a, ctx.gens_b, check=False)


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
    assert_ring_message(str(exc.value), context_blocks(dctx), defects)


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
    assert ring_witness(str(exc.value), context_blocks(dctx),
                        context_defects(dctx)) == ("p,q.a", (1, 1, 3))
    assert not context_accepted(dctx)


def test_certificate_checks_the_hats_only_when_the_ring_fails(dual_numbers, monkeypatch):
    # a passing certificate reads both deformed-bimodule lines off the
    # check of the deformed ring and runs neither hat check; one whose
    # ring fails, here at a t-part of the pairing, runs both, and the
    # report reads as before
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
    planted_pairing(monkeypatch, ctx, lambda c, w: {
        **w, (0, 0): vector_plus(c.field, w.get((0, 0), {}), 0)})
    report = verify_morita_deformed(ctx, f)
    assert [hat.left_alg for hat in calls] == [ctx.a, ctx.b]
    assert report[1:3] == [
        ("deformed-p-bimodule", True, "hat P satisfies all bimodule conditions"),
        ("deformed-q-bimodule", True, "hat Q satisfies all bimodule conditions")]
    assert len(report) == 3 + 2 * len(SIDE_LINES)
    assert all_pass(report) == [prefix + name for prefix in ("A-side:", "B-side:")
                                for name, _ in SIDE_LINES]


def read_off_factors(ctx):
    """The left factors that a context reads off itself: the support of
    the unit of its ring, the generators of A and of B, and the supports
    of the p'_j of gens_a and of the q_u of gens_b, as ring indices."""
    at_p, at_q, at_b = accumulate((ctx.a.dim, ctx.p.dim, ctx.q.dim))
    return sorted(set(context_blocks(ctx).raw[2]) | set(ctx.a.generators())
                  | {at_b + y for y in ctx.b.generators()}
                  | {at_p + x for pj, _ in ctx.gens_a for x in pj}
                  | {at_q + y for qu, _ in ctx.gens_b for y in qu})


def checked_factors(ctx):
    """The rows on which the certificate names a failed check of the
    deformed ring: the support of the unit and the greedy generators
    (brute_greedy_generators) of the ring, or those of the mirror's ring
    moved to this ring's order when ctx was proved by its mirror, as the
    swap of a checked context is.  The left factors of ctx.proved_ring(),
    on which a passing check runs, are asserted to be read_off_factors
    and to generate the ring (brute_generated_dimension)."""
    raw = context_blocks(ctx).raw
    _, factors = ctx.proved_ring()
    assert factors == read_off_factors(ctx)
    assert brute_generated_dimension(raw, factors, ctx.field) == raw[0]
    if ctx._mirrored is None:
        gens = brute_greedy_generators(*raw, ctx.field)
    else:
        na, np_, nq, nb = ctx.a.dim, ctx.p.dim, ctx.q.dim, ctx.b.dim
        # the mirror's blocks B, Q, P, A, each moved to its place here
        moved = [at + i for at, n in ((na + np_ + nq, nb), (na + np_, nq), (na, np_),
                                      (0, na)) for i in range(n)]
        gens = [moved[g] for g in
                brute_greedy_generators(*context_blocks(ctx.swap()).raw, ctx.field)]
    return sorted(set(raw[2]) | set(gens))


def first_deformation_failure(ctx, raw, factors):
    """The message that the certificate's check of its deformed ring gives
    for raw, the oracle's ring of a deformed context over ctx, in the
    order of its checks: the first basis element x of the ring R of ctx
    whose (x, 0) fails the unit; else the first triple of R with its
    first entry among the left factors of R (checked_factors), whose (x,
    0) have a nonzero associator; else the first coordinate where the sum
    of the pairing over gens_a, then over gens_b, misses the unit of A_f
    or of B_g; else None."""
    dim, table, unit = raw
    fld, one = ctx.field, ctx.field.one
    sizes = (ctx.a.dim, ctx.p.dim, ctx.q.dim, ctx.b.dim)
    starts = [sum(sizes[:k]) for k in range(4)]

    def doubled(i):
        """The index in raw of (x_i, 0) for a basis index i of R."""
        k = max(k for k in range(4) if starts[k] <= i and sizes[k])
        return 2 * starts[k] + i - starts[k]

    labels = (["a:" + x for x in ctx.a.labels] + ["p%d" % m for m in range(ctx.p.dim)]
              + ["q%d" % m for m in range(ctx.q.dim)] + ["b:" + y for y in ctx.b.labels])
    n = sum(sizes)
    for i in range(n):
        e = {doubled(i): one}
        if _act(table, fld, unit, e) != e or _act(table, fld, e, unit) != e:
            return "the Morita ring: unit fails on basis element %s" % labels[i]
    for r in factors:
        for j, k in product(range(n), repeat=2):
            if brute_associator(table, fld, doubled(r), doubled(j), doubled(k)):
                return "the Morita ring is not associative at (%s, %s, %s)" % (
                    labels[r], labels[j], labels[k])
    for side, gens, at, alg, first, second in (
            ("a", ctx.gens_a, 0, ctx.a, starts[1], starts[2]),
            ("b", ctx.gens_b, 2 * starts[3], ctx.b, starts[2], starts[1])):
        total = {k - at: fld.neg(c) for k, c in unit.items() if at <= k < at + 2 * alg.dim}
        for u, v in gens:
            x = {doubled(first + m): c for m, c in u.items()}
            y = {doubled(second + m): c for m, c in v.items()}
            for k, c in _act(table, fld, x, y).items():
                total[k - at] = fld.add(total.get(k - at, fld.zero), c)
        total = {k: c for k, c in total.items() if c != fld.zero}
        if total:
            k = min(total)
            name = alg.labels[k] if k < alg.dim else "t*" + alg.labels[k - alg.dim]
            return "gens_%s do not decompose 1_%s at %s:%s" % (side, side.upper(), side, name)
    return None


# the blocks of F in the order of morita._block_table: (left factor,
# right factor, block of the value)
F_BLOCKS = ("AAA", "APP", "PBP", "BBB", "BQQ", "QAQ", "PQA", "QPB")


def add_on_ring(ctx, blocks, cochain):
    """blocks with the 2-cochain cochain {(x, y): vector} on the Morita
    ring of ctx added, each entry in the block of its two factors."""
    sizes = dict(zip("APQB", (ctx.a.dim, ctx.p.dim, ctx.q.dim, ctx.b.dim)))
    starts = dict(zip("APQB", accumulate((0, sizes["A"], sizes["P"], sizes["Q"]))))

    def local(i):
        return next((b, i - starts[b]) for b in "BQPA" if starts[b] <= i and sizes[b])

    out = [{k: dict(v) for k, v in block.items()} for block in blocks]
    for (x, y), vec in cochain.items():
        (bx, x0), (by, y0) = local(x), local(y)
        k = [b[:2] for b in F_BLOCKS].index(bx + by)
        entry = out[k].setdefault((x0, y0), {})
        for i, c in vec.items():
            bi, i0 = local(i)
            assert bi == F_BLOCKS[k][2], (x, y, i)
            entry[i0] = ctx.field.add(entry.get(i0, ctx.field.zero), c)
        out[k][(x0, y0)] = {i: c for i, c in entry.items() if c != ctx.field.zero}
    return tuple(out)


def coboundary_on_ring(ctx, raw, c):
    """d c(x, y) = x c(y) - c(x y) + c(x) y on the Morita ring of ctx, the
    oracle's raw ring raw, for a 1-cochain c given as {basis index:
    vector} on it."""
    dim, table, _ = raw
    fld = ctx.field
    out = {}
    for x, y in product(range(dim), repeat=2):
        ex, ey = {x: fld.one}, {y: fld.one}
        cy, cx = c.get(y, {}), c.get(x, {})
        c_xy = {}
        for k, v in _act(table, fld, ex, ey).items():
            for m, w in c.get(k, {}).items():
                c_xy[m] = fld.add(c_xy.get(m, fld.zero), fld.mul(v, w))
        value = {}
        for vec, sign in ((_act(table, fld, ex, cy), fld.one), (c_xy, fld.neg(fld.one)),
                          (_act(table, fld, cx, ey), fld.one)):
            for k, v in vec.items():
                value[k] = fld.add(value.get(k, fld.zero), fld.mul(sign, v))
        value = {k: v for k, v in value.items() if v != fld.zero}
        if value:
            out[(x, y)] = value
    return out


def deformation_plantings(ctx, blocks, rng):
    """(what, blocks) with one defect planted: a basis vector added to one
    entry of each of the eight blocks, one entry F(u, p) for u in the
    support of 1_A, and the coboundaries d c of 1-cochains c that keep
    F(1, -) = 0 and d F = 0 but move a generator sum: c the identity on
    P, which moves the sum over gens_a by 1_A, and c a coordinate
    projection of P or Q under which that sum stays and the one over
    gens_b moves, when there is one."""
    sizes = dict(zip("APQB", (ctx.a.dim, ctx.p.dim, ctx.q.dim, ctx.b.dim)))
    out = []
    for k, (x, y, z) in enumerate(F_BLOCKS):
        key = (rng.randrange(sizes[x]), rng.randrange(sizes[y]))
        planted = list(blocks)
        planted[k] = {**blocks[k], key: vector_plus(ctx.field, blocks[k].get(key, {}),
                                                    rng.randrange(sizes[z]))}
        out.append(("block " + x + y, tuple(planted)))
    key = (min(ctx.a.unit), rng.randrange(sizes["P"]))
    planted = list(blocks)
    planted[1] = {**blocks[1], key: vector_plus(ctx.field, blocks[1].get(key, {}), 0)}
    out.append(("unit", tuple(planted)))
    fld, one = ctx.field, ctx.field.one
    at_p, at_q = sizes["A"], sizes["A"] + sizes["P"]
    raw = context_blocks(ctx).raw
    identity_p = {at_p + m: {at_p + m: one} for m in range(sizes["P"])}
    out.append(("sum A", add_on_ring(ctx, blocks, coboundary_on_ring(ctx, raw, identity_p))))

    def moved_sum(delta, gens, first, second):
        """The sum of delta(u, v) over the pairs (u, v) of gens, u and v
        read in the blocks that start at first and second."""
        total = {}
        for u, v in gens:
            x = {first + k: a for k, a in u.items()}
            y = {second + k: a for k, a in v.items()}
            for k, a in _act(delta, fld, x, y).items():
                total[k] = fld.add(total.get(k, fld.zero), a)
        return {k: a for k, a in total.items() if a != fld.zero}

    for at, block in ((at_p, "P"), (at_q, "Q")):
        for m in range(sizes[block]):
            delta = coboundary_on_ring(ctx, raw, {at + m: {at + m: one}})
            if not moved_sum(delta, ctx.gens_a, at_p, at_q) and moved_sum(delta, ctx.gens_b,
                                                                        at_q, at_p):
                return out + [("sum B", add_on_ring(ctx, blocks, delta))]
    return out


FAILURE_KINDS = ("the Morita ring: unit fails", "the Morita ring is not associative",
                 "gens_a do not decompose 1_A", "gens_b do not decompose 1_B")
CERTIFICATE_CASES = ("dual_numbers", "two_cycle", "triangle", "quantum_plane",
                     "dual_numbers M_2", "lambda_m2 corner")


@pytest.mark.parametrize("fld", [Q, F7], ids=["Q", "F7"])
def test_deformed_ring_check_matches_the_doubled_ring_oracle(fld):
    # the check of the deformed context as the deformation R_F of the
    # plain ring, against the oracle's ring of that context, written out
    # from the glues of hat P and hat Q and the full pairings: on each
    # case of certificate_cases and with one defect planted in each block
    # of F, in the unit and in each generator sum, it passes exactly when
    # the doubled ring is unital and associative and the plain generator
    # lists decompose its units, and its message is the oracle's first
    # failure in the check order (first_deformation_failure)
    rng = random.Random(61)
    kinds = set()
    for name, ctx, f in deformed_cases(fld):
        if name not in CERTIFICATE_CASES:
            continue
        h2f, (a_f, b_g) = homotopy_h(ctx, f), deformed_pair(ctx, f)
        hat_p, hat_q = (build(ctx, a_f, b_g, h2f) for build in (build_hat_P, build_hat_Q))
        blocks = morita._deformation_blocks(ctx, a_f.f, b_g.f,
                                            (hat_p.f_tables, hat_p.g_tables),
                                            (hat_q.f_tables, hat_q.g_tables))
        factors = checked_factors(ctx)
        for what, planted in [("none", blocks)] + deformation_plantings(ctx, blocks, rng):
            message = morita._deformation_failure(ctx, planted)
            raw = brute_deformed_block_ring(raw_algebra(ctx.a), raw_algebra(ctx.b),
                                            *raw_context(ctx), planted, fld)
            expected = first_deformation_failure(ctx, raw, factors)
            if what == "none":
                # the unplanted ring is that of deformed_context, which
                # test_deformed_context_passes_the_oracles finds unital
                # and associative on every basis triple
                assert raw == context_blocks(deformed_context(ctx, f)).raw, name
            assert message == expected, (name, what)
            assert (message is None) == (what == "none"), (name, what)
            kinds.add((what, next((kind for kind in FAILURE_KINDS
                                   if (message or "").startswith(kind)), None)))
    # every kind of planting was made, a generator sum over gens_b alone
    # included, and every kind of failure was reached
    assert {what for what, _ in kinds} >= {"none", "unit", "sum A", "sum B"}
    assert {kind for _, kind in kinds} == {None, *FAILURE_KINDS}


def test_certificate_proves_an_unchecked_context_first(dual_numbers, lambda_m2):
    # a context built with check=False is checked by the certificate before
    # anything else, so a library call gets the whole proof: a valid copy
    # certifies as the checked context does and keeps the same ring and
    # factors; a broken one raises the first failure of its own check
    for ctx, f in ((matrix_context(dual_numbers[1], 2), golden_cochain(dual_numbers)),
                   (identity_context(lambda_m2[1]), golden_cochain(lambda_m2))):
        def copy(pairing_a=ctx.pairing_a, gens_b=ctx.gens_b):
            return MoritaContext(ctx.a, ctx.b, ctx.p, ctx.q, pairing_a, ctx.pairing_b,
                                 ctx.gens_a, gens_b, check=False)

        data = copy()
        assert verify_morita_deformed(data, f) == verify_morita_deformed(ctx, f)
        (ring, factors), (real, real_factors) = data.proved_ring(), ctx.proved_ring()
        assert (ring.table, ring.unit, ring.labels, factors) == (
            real.table, real.unit, real.labels, real_factors)
        bumped = dict(ctx.pairing_a)
        bumped[(0, 0)] = vector_plus(ctx.field, bumped.get((0, 0), {}), ctx.a.dim - 1)
        for broken in (copy(pairing_a=bumped), copy(gens_b=ctx.gens_b * 2)):
            with pytest.raises(InputError) as caught:
                copy(broken.pairing_a, broken.gens_b)._validate()
            assert not context_accepted(broken)
            with pytest.raises(InputError) as certified:
                verify_morita_deformed(broken, f)
            assert str(certified.value) == str(caught.value)


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
    fld = basis.field
    e1, e2, a1 = (basis.labels.index(name) for name in ("e(1)", "e(2)", "a1"))
    c = FullCochain(basis.dim, 1, fld, {(e1,): {a1: fld.one}, (e2,): {a1: fld.neg(fld.one)}})
    moved = golden_cochain(two_cycle) + full_differential(c, basis)
    return idempotent_context(basis, {e1: fld.one, e2: fld.one}), moved


@pytest.mark.xfail(strict=True, reason=(
    "known false FAIL: the formulas of hat P, hat Q and omega assume that f "
    "vanishes on products of generator brackets, and f + d c below does not"))
def test_verify_corner_context_of_a_cocycle_not_normalized_at_the_idempotents(two_cycle):
    # the corner is a deformed Morita equivalence for f + d c; the report
    # fails 26 of its 29 lines with the Morita ring is not associative at
    # (p1, q1, a:a2), the axiom <p, q.a> = <p, q>.a
    corner, moved = unnormalised_corner(two_cycle)
    assert deformation_witness(corner.a, moved.table) is None
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


def test_the_morita_layer_takes_no_slow_path(lambda_m2, monkeypatch, capsys):
    # verify-morita reads the maps of the hats and the deformed pairings
    # off the supports of the cochains, with no FullCochain.evaluate, and
    # the corner blocks by index, with no SpanSolver.express: the one
    # express left is the solve of 1_C for gens_b, when the command gives
    # no generators (--idempotent)
    inside, entered, calls = [], [], []

    def watched(name):
        real = getattr(morita, name)

        def run(*args, **kwargs):
            inside.append(name)
            entered.append(name)
            try:
                return real(*args, **kwargs)
            finally:
                inside.pop()
        monkeypatch.setattr(morita, name, run)

    for name in ("_hat", "_deformed_pairing", "_corner_context"):
        watched(name)
    evaluate, express = FullCochain.evaluate, SpanSolver.express
    monkeypatch.setattr(FullCochain, "evaluate", lambda self, *args: calls.append(
        ("evaluate", set(inside), None)) or evaluate(self, *args))
    monkeypatch.setattr(SpanSolver, "express", lambda self, vec: calls.append(
        ("express", set(inside), dict(vec))) or express(self, vec))
    _, basis = lambda_m2
    for flags, solved in ((["dual_numbers.alg", "--matrix", "2"], []),
                          (["lambda_m2.alg", "--idempotent", "1"], [basis.unit])):
        entered.clear()
        calls.clear()
        assert cli.run(["verify-morita", data_path(flags[0])] + flags[1:]) == 0, flags
        assert "FAIL" not in capsys.readouterr().out, flags
        assert sorted(entered) == ["_corner_context"] + ["_deformed_pairing"] * 2 + ["_hat"] * 2
        assert [kind for kind, where, _ in calls
                if kind == "evaluate" and where & {"_hat", "_deformed_pairing"}] == [], flags
        assert [vec for kind, where, vec in calls
                if kind == "express" and "_corner_context" in where] == solved, flags
