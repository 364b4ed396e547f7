import random
import re
from fractions import Fraction

import pytest

from quivdeform.deform import DeformedAlgebra
from quivdeform.errors import InputError
from quivdeform.fields import Field
from quivdeform.fileio import emit_module_text, parse_module_text
from quivdeform.hochschild import cochain_from_pairs, cochain_from_paths
from quivdeform.linalg import (SpanSolver, _clean, _columns, _identity, map_apply,
                               map_combine, map_compose)
from quivdeform.modcat import (LeftModule, MorphismTriple, UpleModule, functor_F,
                               module_from_file, regular_module, regular_uple,
                               reconstruct, roundtrip_triple)

from oracles import (brute_left_glue_defects, brute_left_uple_defects,
                     brute_map_defects, brute_module_defects, sparse_of)

Q = Field.rationals()


def perturbed(maps, i, col, row, c):
    """A copy of the list of sparse maps with c added at (row, col) of maps[i]."""
    out = list(maps)
    amap = {k: dict(v) for k, v in maps[i].items()}
    entry = amap.setdefault(col, {})
    entry[row] = Q.add(entry.get(row, Q.zero), c)
    out[i] = amap
    return out


def submodule(mod, vectors):
    """The submodule generated by the given vectors, as a module on the
    closure's own basis (closure in basis order)."""
    fld = mod.field
    span = SpanSolver(fld)
    sbasis = []
    queue = [_clean(fld, v) for v in vectors]
    while queue:
        v = queue.pop(0)
        if span.add(v, len(sbasis)):
            sbasis.append(v)
            queue.extend(map_apply(a, v, fld) for a in mod.actions)
    actions = [_columns([_clean(fld, span.express(map_apply(a, v, fld))) for v in sbasis])
               for a in mod.actions]
    return LeftModule(mod.algebra, len(sbasis), actions)


def identity_triple(u):
    fld = u.deformed.field
    return MorphismTriple(u, u, _identity(u.m0.dim, fld), {}, _identity(u.m1.dim, fld))


def roundtrip(u):
    return roundtrip_triple(u, functor_F(u))


def deformed_of(fixture):
    af, basis = fixture
    return DeformedAlgebra(basis, cochain_from_pairs(basis, af.cocycle_pairs))


def test_functor_on_regular_uple_is_left_multiplication(
        dual_numbers, two_cycle, triangle, quantum_plane):
    for fixture in (dual_numbers, two_cycle, triangle, quantum_plane):
        d = deformed_of(fixture)
        assert functor_F(regular_uple(d)).actions == regular_module(d).actions


def test_regular_reconstruction_recovers_f(dual_numbers):
    d = deformed_of(dual_numbers)
    basis = d.base
    rec = reconstruct(regular_module(d))
    u = rec.uple
    assert u.t == {i: {i: Q.one} for i in range(basis.dim)}
    reg = regular_uple(d)
    assert u.m0.actions == reg.m0.actions
    assert u.m1.actions == reg.m1.actions
    assert u.f_tables == reg.f_tables  # the correction is the cocycle itself


def test_zero_module(dual_numbers):
    d = deformed_of(dual_numbers)
    zero = LeftModule(d, 0, [{} for _ in range(d.dim)])
    u = reconstruct(zero).uple
    assert u.m0.dim == 0 and u.m1.dim == 0
    back = functor_F(u)
    assert back.dim == 0


def test_t_action_is_central_among_first_components(two_cycle):
    d = deformed_of(two_cycle)
    mod = regular_module(d)
    n = d.base.dim
    t_mat = mod.action_of({n + i: Q.one for i in d.base.trivial_indices})
    for i in range(n):
        assert map_compose(t_mat, mod.actions[i], Q) == map_compose(mod.actions[i], t_mat, Q)


def test_invalid_modules_rejected(dual_numbers):
    d = deformed_of(dual_numbers)
    good = regular_module(d).actions
    bad = perturbed(good, 1, 0, 0, Q.parse("5"))
    with pytest.raises(InputError):
        LeftModule(d, d.dim, bad)
    with pytest.raises(InputError):
        LeftModule(d, d.dim, good[:-1])
    # e(1) is the unit of A_f; acting by zero breaks unitality
    no_unit = list(good)
    no_unit[0] = {}
    with pytest.raises(InputError, match="left unit fails at 0"):
        LeftModule(d, d.dim, no_unit)


def test_invalid_uples_rejected(dual_numbers):
    d = deformed_of(dual_numbers)
    reg = regular_uple(d)
    broken_f = perturbed(reg.f_tables, 1, 0, 0, Q.one)
    with pytest.raises(InputError):
        UpleModule(d, reg.m0, reg.m1, reg.t, broken_f)
    flat_t = {}
    with pytest.raises(InputError):
        UpleModule(d, reg.m0, reg.m1, flat_t, reg.f_tables)


def random_uple(d, rng):
    """A valid random uple: reconstruct a random cyclic submodule of the
    regular module, then twist T and the correction table."""
    mod = regular_module(d)
    while True:
        v = {k: Q.parse(str(rng.randint(-2, 2))) for k in range(d.dim)}
        if any(c != Q.zero for c in v.values()):
            break
    sub = submodule(mod, [v])
    u = reconstruct(sub).uple
    c = Q.parse(str(rng.choice([1, 2, -1, 3])))
    s = sparse_of([[Q.parse(str(rng.randint(-2, 2))) for _ in range(u.m0.dim)]
                   for _ in range(u.m1.dim)], Q)
    fld = d.field
    new_t = map_combine([(c, u.t)], fld)
    new_f = []
    for i in range(d.base.dim):
        delta = map_compose(u.m1.actions[i], s, fld)
        move = map_compose(s, u.m0.actions[i], fld)
        new_f.append(map_combine([(c, u.f_tables[i]), (fld.one, delta),
                                  (fld.neg(fld.one), move)], fld))
    return UpleModule(d, u.m0, u.m1, new_t, new_f)


def test_roundtrip_on_random_uples(dual_numbers):
    d = deformed_of(dual_numbers)
    rng = random.Random(7)
    for _ in range(10):
        u = random_uple(d, rng)
        tri = roundtrip(u)  # validated at construction
        assert tri.is_isomorphism()
        assert tri.target is u


def test_roundtrip_other_algebras(two_cycle, quantum_plane):
    for fixture in (two_cycle, quantum_plane):
        d = deformed_of(fixture)
        rng = random.Random(11)
        u = random_uple(d, rng)
        assert roundtrip(u).is_isomorphism()


def test_module_file_round_trip(dual_numbers):
    d = deformed_of(dual_numbers)
    mod = regular_module(d)
    actions = {d.labels[i]: mod.actions[i] for i in range(d.dim)}
    text = emit_module_text(mod.dim, actions, Q)
    mf = parse_module_text(text, Q)
    back = module_from_file(mf, d)
    assert back.actions == mod.actions


def test_module_file_errors(dual_numbers):
    d = deformed_of(dual_numbers)
    mod = regular_module(d)
    actions = {d.labels[i]: mod.actions[i] for i in range(d.dim)}
    partial = dict(actions)
    partial.pop(d.labels[0])
    mf = parse_module_text(emit_module_text(mod.dim, partial, Q), Q)
    with pytest.raises(InputError):
        module_from_file(mf, d)
    extra = dict(actions)
    extra["zz"] = mod.actions[0]
    mf = parse_module_text(emit_module_text(mod.dim, extra, Q), Q)
    with pytest.raises(InputError):
        module_from_file(mf, d)


def test_submodule_of_regular_two_cycle(two_cycle):
    d = deformed_of(two_cycle)
    mod = regular_module(d)
    # the cyclic module generated by (e(1), 0): spans e1, a1, and the
    # deformed products that fall out of them
    gen = {d.base.trivial_indices[0]: Q.one}
    sub = submodule(mod, [gen])
    assert 0 < sub.dim < d.dim
    reconstruct(sub)  # validates


def test_functor_respects_zero_cocycle(two_cycle):
    af, basis = two_cycle
    d0 = DeformedAlgebra(basis, cochain_from_paths(basis, 2, {}))
    reg = regular_uple(d0)
    assert all(m == {} for m in reg.f_tables)
    assert functor_F(reg).actions == regular_module(d0).actions


# ------------------------------------------------ checks against the oracles


def raw_alg(alg):
    return alg.dim, alg.table, alg.unit


def raw_module(mod):
    return mod.dim, {(i, m): col for i, a in enumerate(mod.actions) for m, col in a.items()}


def raw_uple(u):
    f_m = {(i, m): col for i, tab in enumerate(u.f_tables) for m, col in tab.items()}
    return raw_module(u.m0), raw_module(u.m1), u.t, f_m


def module_verdict(alg, dim, actions):
    """LeftModule accepts exactly the actions the oracle finds no defect
    in, and its error names the first defect the oracle finds at a unit
    or at a generator of the algebra, by the labels of the algebra's
    basis elements."""
    raw = {(i, m): col for i, a in enumerate(actions) for m, col in a.items()}
    defects = brute_module_defects(raw_alg(alg), dim, raw, alg.field)
    try:
        LeftModule(alg, dim, actions)
    except InputError as exc:
        assert defects, exc
        kind, key = next((kind, key) for kind, key in defects
                         if kind == "unit" or key[0] in alg.generators())
        if kind == "unit":
            assert str(exc) == "left unit fails at %d" % key, (exc, key)
        else:
            i, j, m = key
            assert str(exc) == ("left action not associative at (%s, %s, %d)"
                                % (alg.labels[i], alg.labels[j], m)), (exc, key)
        return False
    assert not defects
    return True


def module_witness(alg, message):
    """The oracle defect (kind, key) that a left module message names, by
    the labels of the algebra's basis elements."""
    hit = re.match(r"left unit fails at (\d+)$", message)
    if hit:
        return "unit", (int(hit.group(1)),)
    hit = re.match(r"left action not associative at \((.+), (.+), (\d+)\)$", message)
    assert hit, message
    return "assoc", (alg.labels.index(hit.group(1)), alg.labels.index(hit.group(2)),
                     int(hit.group(3)))


def uple_verdict(d, m0, m1, t, f_tables):
    """UpleModule accepts exactly the data the oracle finds no defect in.
    Its error is "T is not injective" exactly when the oracle finds T
    singular, and otherwise names, by the labels of A_f, a defect of the
    kind of the first one that the oracle finds on its own glue of the
    uple."""
    f_m = {(i, m): col for i, tab in enumerate(f_tables) for m, col in tab.items()}
    defects = brute_left_uple_defects(raw_alg(d.base), d.f.table, raw_module(m0),
                                      raw_module(m1), t, f_m, d.field)
    try:
        UpleModule(d, m0, m1, t, f_tables)
    except InputError as exc:
        assert defects, exc
        singular = ("injective", ()) in defects
        assert (str(exc) == "T is not injective") == singular, (exc, defects)
        if not singular:
            glue = brute_left_glue_defects(raw_alg(d.base), d.f.table,
                                           (raw_module(m0), raw_module(m1), t, f_m), d.field)
            witness = module_witness(d, str(exc))
            assert witness in glue and witness[0] == glue[0][0], (exc, glue[:1])
        return False
    assert not defects
    return True


def glued_block(u0, u1, u2, s0, t0):
    """[[u0, 0], [u1, u2]] as columns {m: image}, built here from the blocks."""
    out = {}
    for c in range(s0):
        col = dict(u0.get(c, {}))
        col.update((t0 + r, v) for r, v in u1.get(c, {}).items())
        out[c] = col
    for c, col in u2.items():
        out[s0 + c] = {t0 + r: v for r, v in col.items()}
    return out


def triple_verdict(src, tgt, u0, u1, u2):
    """MorphismTriple accepts exactly the triples whose glued map the oracle
    finds to be a module map, and its error names a generator of A_f and
    a coordinate at which the oracle finds the map fails to commute."""
    block = glued_block(u0, u1, u2, src.m0.dim, tgt.m0.dim)
    defects = brute_map_defects(src.deformed.base.dim, raw_uple(src), raw_uple(tgt), block,
                                src.deformed.field)
    try:
        MorphismTriple(src, tgt, u0, u1, u2)
    except InputError as exc:
        assert defects, exc
        hit = re.match(r"the triple does not intertwine the left action of (.+) at (\d+)$",
                       str(exc))
        assert hit, exc
        assert (src.deformed.labels.index(hit.group(1)), int(hit.group(2))) in defects, \
            (exc, defects)
        return False
    assert not defects
    return True


def test_left_modules_agree_with_the_oracle(dual_numbers, two_cycle, triangle, quantum_plane):
    for fixture in (dual_numbers, two_cycle, triangle, quantum_plane):
        d = deformed_of(fixture)
        for alg in (d, d.base):
            good = regular_module(alg).actions
            assert module_verdict(alg, alg.dim, good)
            # x_1 is an arrow: a perturbed entry of its action, and the unit
            # acting by zero
            assert not module_verdict(alg, alg.dim, perturbed(good, 1, 0, 0, Q.one))
            assert not module_verdict(alg, alg.dim, [{}] + list(good[1:]))
        u = random_uple(d, random.Random(13))
        glued = functor_F(u)
        assert module_verdict(d, glued.dim, glued.actions)
        for i in range(d.dim):
            assert not module_verdict(d, glued.dim,
                                      perturbed(glued.actions, i, glued.dim - 1, 0, Q.one))


def test_uples_agree_with_the_oracle(dual_numbers, two_cycle, triangle, quantum_plane):
    rng = random.Random(17)
    for fixture in (dual_numbers, two_cycle, triangle, quantum_plane):
        d = deformed_of(fixture)
        n = d.base.dim
        for u in (regular_uple(d), random_uple(d, rng)):
            assert uple_verdict(d, u.m0, u.m1, u.t, u.f_tables)
            # some perturbed entries still give an uple (f_M may move by a
            # coboundary), so the verdicts must agree and reject at least one
            ends0, ends1 = {0, u.m0.dim - 1}, {0, u.m1.dim - 1}
            verdicts = [uple_verdict(d, u.m0, u.m1, u.t, perturbed(u.f_tables, i, c, r, Q.one))
                        for i in range(n) for c in ends0 for r in ends1]
            assert not all(verdicts)
            # T with its first column killed is not injective
            killed = {c: col for c, col in u.t.items() if c != 0}
            assert not uple_verdict(d, u.m0, u.m1, killed, u.f_tables)
            # T followed by an invertible map of M1 (an elementary one, which
            # need not be A-linear)
            verdicts = []
            for r, c in ((0, u.m1.dim - 1), (u.m1.dim - 1, 0)):
                twist = {k: {k: Q.one} for k in range(u.m1.dim)}
                twist[c] = {c: Q.one, r: Q.one}
                verdicts.append(uple_verdict(d, u.m0, u.m1, map_compose(twist, u.t, Q),
                                             u.f_tables))
            assert not all(verdicts)


def test_triples_agree_with_the_oracle(dual_numbers, two_cycle, quantum_plane):
    rng = random.Random(19)
    for fixture in (dual_numbers, two_cycle, quantum_plane):
        d = deformed_of(fixture)
        u = random_uple(d, rng)
        tri = roundtrip(u)
        src, tgt = tri.source, tri.target
        assert triple_verdict(src, tgt, tri.u0, tri.u1, tri.u2)
        ident = identity_triple(u)
        assert triple_verdict(u, u, ident.u0, ident.u1, ident.u2)
        # u1 may move by any A-linear map, so the verdicts must agree and
        # reject at least one perturbed u1
        verdicts = [triple_verdict(src, tgt, tri.u0, perturbed([tri.u1], 0, c, r, Q.one)[0],
                                   tri.u2)
                    for c in range(src.m0.dim) for r in range(tgt.m1.dim)]
        assert not all(verdicts)
        u0 = perturbed([tri.u0], 0, 0, tgt.m0.dim - 1, Q.one)[0]
        assert not triple_verdict(src, tgt, u0, tri.u1, tri.u2)
