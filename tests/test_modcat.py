import random
from fractions import Fraction

import pytest

from quivdeform.deform import DeformedAlgebra
from quivdeform.errors import InputError
from quivdeform.fields import Field
from quivdeform.fileio import emit_module_text, parse_module_text
from quivdeform.hochschild import Cochain, cochain_from_pairs
from quivdeform.linalg import identity_matrix, matmul
from quivdeform.modcat import (LeftModule, MorphismTriple, UpleModule,
                               compose_triples, functor_F, identity_triple,
                               linear_of_triple, module_from_file, module_homs,
                               regular_module, regular_uple, reconstruct,
                               roundtrip_triple, submodule, triple_from_linear)

Q = Field.rationals()


def deformed_of(fixture):
    af, basis = fixture
    return DeformedAlgebra(basis, cochain_from_pairs(basis, af.cocycle_pairs))


def test_functor_on_regular_uple_is_left_multiplication(
        dual_numbers, two_cycle, triangle, quantum_plane):
    for fixture in (dual_numbers, two_cycle, triangle, quantum_plane):
        d = deformed_of(fixture)
        assert functor_F(regular_uple(d)).matrices == regular_module(d).matrices


def test_regular_reconstruction_recovers_f(dual_numbers):
    d = deformed_of(dual_numbers)
    basis = d.basis
    rec = reconstruct(regular_module(d))
    u = rec.uple
    assert u.t == identity_matrix(basis.dim, Q)
    reg = regular_uple(d)
    assert u.m0.matrices == reg.m0.matrices
    assert u.m1.matrices == reg.m1.matrices
    assert u.f_table == reg.f_table  # the correction is the cocycle itself


def test_zero_module(dual_numbers):
    d = deformed_of(dual_numbers)
    zero = LeftModule(d, [[] for _ in range(d.dim)])
    u = reconstruct(zero).uple
    assert u.m0.dim == 0 and u.m1.dim == 0
    back = functor_F(u)
    assert back.dim == 0


def test_t_action_is_central_among_first_components(two_cycle):
    d = deformed_of(two_cycle)
    mod = regular_module(d)
    n = d.n
    t_mat = mod.matrix_of({n + i: Q.one for i in d.basis.trivial_indices})
    for i in range(n):
        assert matmul(t_mat, mod.matrices[i], Q) == matmul(mod.matrices[i], t_mat, Q)


def test_invalid_modules_rejected(dual_numbers):
    d = deformed_of(dual_numbers)
    good = regular_module(d).matrices
    bad = [list(map(list, m)) for m in good]
    bad[1][0][0] = Q.parse("5")
    with pytest.raises(InputError):
        LeftModule(d, bad)
    with pytest.raises(InputError):
        LeftModule(d, good[:-1])
    # e(1) is the unit of A_f; acting by zero breaks unitality
    no_unit = [list(map(list, m)) for m in good]
    no_unit[0] = [[Q.zero] * d.dim for _ in range(d.dim)]
    with pytest.raises(InputError, match="unit does not act as the identity"):
        LeftModule(d, no_unit)


def test_invalid_uples_rejected(dual_numbers):
    d = deformed_of(dual_numbers)
    reg = regular_uple(d)
    broken_f = [list(map(list, m)) for m in reg.f_table]
    broken_f[1][0][0] = Q.add(broken_f[1][0][0], Q.one)
    with pytest.raises(InputError):
        UpleModule(d, reg.m0, reg.m1, reg.t, broken_f)
    flat_t = [[Q.zero] * d.n for _ in range(d.n)]
    with pytest.raises(InputError):
        UpleModule(d, reg.m0, reg.m1, flat_t, reg.f_table)


def random_uple(d, rng):
    """A valid random uple: reconstruct a random cyclic submodule of the
    regular module, then twist T and the correction table."""
    mod = regular_module(d)
    while True:
        v = [Q.parse(str(rng.randint(-2, 2))) for _ in range(d.dim)]
        if any(c != Q.zero for c in v):
            break
    sub = submodule(mod, [v])
    u = reconstruct(sub, d).uple
    c = Q.parse(str(rng.choice([1, 2, -1, 3])))
    s = [[Q.parse(str(rng.randint(-2, 2))) for _ in range(u.m0.dim)]
         for _ in range(u.m1.dim)]
    fld = d.field
    new_t = [[fld.mul(c, x) for x in row] for row in u.t]
    new_f = []
    for i in range(d.n):
        delta = matmul(u.m1.matrices[i], s, fld)
        move = matmul(s, u.m0.matrices[i], fld)
        new_f.append([[fld.add(fld.mul(c, f_entry), fld.sub(a, b))
                       for f_entry, a, b in zip(frow, arow, brow)]
                      for frow, arow, brow in zip(u.f_table[i], delta, move)])
    return UpleModule(d, u.m0, u.m1, new_t, new_f)


def test_roundtrip_on_random_uples(dual_numbers):
    d = deformed_of(dual_numbers)
    rng = random.Random(7)
    for _ in range(10):
        u = random_uple(d, rng)
        tri = roundtrip_triple(u)  # validated at construction
        assert tri.is_isomorphism()
        assert tri.target is u


def test_roundtrip_other_algebras(two_cycle, quantum_plane):
    for fixture in (two_cycle, quantum_plane):
        d = deformed_of(fixture)
        rng = random.Random(11)
        u = random_uple(d, rng)
        assert roundtrip_triple(u).is_isomorphism()


def test_endomorphisms_of_regular_module(dual_numbers):
    d = deformed_of(dual_numbers)
    reg = regular_module(d)
    # End of the regular module is the opposite algebra: dimension 2n
    assert len(module_homs(reg, reg)) == d.dim


def test_triples_compose_and_functoriality(dual_numbers):
    d = deformed_of(dual_numbers)
    rng = random.Random(3)
    x = random_uple(d, rng)
    y = random_uple(d, rng)
    z = random_uple(d, rng)
    fx, fy, fz = functor_F(x), functor_F(y), functor_F(z)
    homs_xy = [triple_from_linear(m, x, y) for m in module_homs(fx, fy)]
    homs_yz = [triple_from_linear(m, y, z) for m in module_homs(fy, fz)]
    if not homs_xy or not homs_yz:
        pytest.skip("random uples admit no nonzero maps")
    for u in homs_xy[:3]:
        for v in homs_yz[:3]:
            w = compose_triples(v, u)  # validated at construction
            assert linear_of_triple(w) == matmul(linear_of_triple(v),
                                                 linear_of_triple(u), Q)


def test_identity_triple_neutral(dual_numbers):
    d = deformed_of(dual_numbers)
    u = random_uple(d, random.Random(5))
    ident = identity_triple(u)
    tri = roundtrip_triple(u)
    left = compose_triples(ident, tri)
    assert left.u0 == tri.u0 and left.u1 == tri.u1 and left.u2 == tri.u2


def test_triple_from_linear_rejects_bad_block(dual_numbers):
    d = deformed_of(dual_numbers)
    u = regular_uple(d)
    n = d.n
    mat = identity_matrix(2 * n, Q)
    mat[0][n] = Q.one  # sends the kernel half outside the kernel
    with pytest.raises(InputError):
        triple_from_linear(mat, u, u)


def test_module_file_round_trip(dual_numbers):
    d = deformed_of(dual_numbers)
    mod = regular_module(d)
    actions = {d.labels[i]: mod.matrices[i] for i in range(d.dim)}
    text = emit_module_text(mod.dim, actions, Q)
    mf = parse_module_text(text, Q)
    back = module_from_file(mf, d)
    assert back.matrices == mod.matrices


def test_module_file_errors(dual_numbers):
    d = deformed_of(dual_numbers)
    mod = regular_module(d)
    actions = {d.labels[i]: mod.matrices[i] for i in range(d.dim)}
    partial = dict(actions)
    partial.pop(d.labels[0])
    mf = parse_module_text(emit_module_text(mod.dim, partial, Q), Q)
    with pytest.raises(InputError):
        module_from_file(mf, d)
    extra = dict(actions)
    extra["zz"] = mod.matrices[0]
    mf = parse_module_text(emit_module_text(mod.dim, extra, Q), Q)
    with pytest.raises(InputError):
        module_from_file(mf, d)


def test_submodule_of_regular_two_cycle(two_cycle):
    d = deformed_of(two_cycle)
    mod = regular_module(d)
    # the cyclic module generated by (e(1), 0): spans e1, a1, and the
    # deformed products that fall out of them
    gen = [Q.zero] * d.dim
    gen[d.basis.trivial_indices[0]] = Q.one
    sub = submodule(mod, [gen])
    assert 0 < sub.dim < d.dim
    reconstruct(sub, d)  # validates


def test_functor_respects_zero_cocycle(two_cycle):
    af, basis = two_cycle
    d0 = DeformedAlgebra(basis, Cochain(basis, 2, {}))
    reg = regular_uple(d0)
    assert all(_is_zero_matrix(m) for m in reg.f_table)
    assert functor_F(reg).matrices == regular_module(d0).matrices


def _is_zero_matrix(m):
    return all(x == Q.zero for row in m for x in row)
