"""Modules over the deformed algebra, presented two ways.

A concrete module is a vector space with one action per basis element
of a FinDimAlgebra, here the deformed algebra A_f (a Deformation) or
the original algebra A (its base).  The same data can be packaged as
an uple (M0, M1, T, f_tables): two modules over A, an injective
intertwiner T : M0 -> M1, and a bilinear correction table measuring how
far the deformed action is from the undeformed one.  The functor F
glues an uple into a concrete module on M0 + M1; going back, T is
recovered as the action of (0, 1), M1 is its kernel, and M0 is a
deterministic complement.

These one-sided objects are the bimodule objects of the morita module
with the ground field k (dimension 1, g = 0) as right algebra: a
LeftModule is a Bimodule over (A, k), an UpleModule a DeformedBimodule
whose glue is an (A_f, k[t]/t^2)-bimodule, F is the left part of that
glue, and a MorphismTriple is checked by triple_violations.  So a module
M is checked as its ring [[A, M], [0, k]] and an uple as that of its
glue, each error here naming the first failure of that ring.  The right
algebra of every glue, k[t]/t^2, is k deformed by the zero cochain.

Each axiom is checked once: a module when it is built, an uple as its
glue, and the M0 and M1 that reconstruct carves out of a module only as
blocks of the glue of their uple.

Every linear map here is a sparse map {column: {row: scalar}} of the
linalg module (column c is the image of basis vector c), and vectors
are coordinate dicts; the matrix of a product is the composite of the
maps.  Module files hold dense rows, which fileio converts.
"""

from .deform import Deformation
from .errors import InputError
from .hochschild import FullCochain
from .linalg import (FinDimAlgebra, SpanSolver, _clean, _columns, _identity, _rows,
                     column_kernel, map_apply, map_combine, map_compose, map_inverse)
from .morita import Bimodule, DeformedBimodule, triple_violations


def _checked(amap, rows, cols, field, name):
    """amap without zero entries or empty columns; raises unless its
    columns are below cols and its rows below rows."""
    out = {}
    for c, col in amap.items():
        col = _clean(field, col)
        if not col:
            continue
        if c not in range(cols) or any(r not in range(rows) for r in col):
            raise InputError("%s must be %d x %d" % (name, rows, cols))
        out[c] = col
    return out


def _ground(field):
    """The ground field as a 1-dimensional algebra, the right algebra of
    every module and uple here."""
    return FinDimAlgebra(field, 1, {(0, 0): {0: field.one}}, {0: field.one}, ["1"],
                         check=False)


def _dual_numbers(field):
    """k[t]/t^2, the ground field deformed by the zero cocycle: the right
    algebra of the glue of every uple here."""
    return Deformation(_ground(field), FullCochain(1, 2, field))


class LeftModule(Bimodule):
    """Finite-dimensional left module over a FinDimAlgebra: the bimodule
    over (algebra, k) on which the ground field k acts by scalars.

    actions[i] is the sparse map of the i-th basis element on dim
    coordinates.  Unless check=False it is checked at construction as
    its ring [[A, M], [0, k]] (Bimodule.violations), which also proves
    the algebra associative and unital.
    """

    def __init__(self, algebra, dim, actions, check=True):
        fld = algebra.field
        if len(actions) != algebra.dim:
            raise InputError("expected %d action maps, got %d"
                             % (algebra.dim, len(actions)))
        actions = [_checked(a, dim, dim, fld, "every action map") for a in actions]
        super().__init__(algebra, _ground(fld), dim,
                         {(i, m): col for i, a in enumerate(actions) for m, col in a.items()},
                         {(m, 0): {m: fld.one} for m in range(dim)}, check=False)
        self.algebra = algebra
        self.actions = [self.left_map(i) for i in range(algebra.dim)]
        if check:
            self._validate()

    def _validate(self):
        bad = self.violations()
        if bad:
            raise InputError(bad[0])

    def action_of(self, coeffs):
        """Action map of the algebra element with the given coordinates."""
        return map_combine([(c, self.actions[i]) for i, c in coeffs.items()], self.field)


def regular_module(alg):
    """The algebra acting on itself by left multiplication."""
    return LeftModule(alg, alg.dim,
                      [_columns([alg.multiply_basis(i, m) for m in range(alg.dim)])
                       for i in range(alg.dim)])


class UpleModule(DeformedBimodule):
    """(M0, M1, T, f_tables) over a fixed deformed algebra: the bimodule
    uple over (A_f, k[t]/t^2) whose right correction g_M is zero.

    M0 and M1 are modules over the undeformed algebra, T an injective
    intertwiner M0 -> M1, and f_tables[i] the map m -> f_M(a_i, m) from
    M0 to M1, all sparse maps.  The defining condition ties f_tables to
    the cocycle:

        a f_M(b, m) - f_M(ab, m) + f_M(a, bm) - f(a, b) T m = 0

    for all basis elements a, b and all m.  At construction
    DeformedBimodule.violations checks it, with the conditions on T and
    the module axioms of M0 and M1, as the injectivity of T and the ring
    check of the glue.
    """

    def __init__(self, deformed, m0, m1, t, f_tables, check=True):
        base = deformed.base
        if m0.algebra is not base or m1.algebra is not base:
            raise InputError("uple components must be modules over the "
                             "undeformed algebra")
        fld = base.field
        self.deformed = deformed
        t = _checked(t, m1.dim, m0.dim, fld, "T")
        if len(f_tables) != base.dim:
            raise InputError("f_tables needs one map per basis element")
        f_tables = [_checked(m, m1.dim, m0.dim, fld, "every f_tables entry")
                    for m in f_tables]
        super().__init__(deformed, _dual_numbers(fld), m0, m1, t, f_tables, [{}])
        if check:
            self._validate()

    def _validate(self):
        bad = self.violations()
        if bad:
            raise InputError(bad[0])


def regular_uple(deformed):
    """The uple presenting the deformed algebra itself: (A, A, Id, f)."""
    base = deformed.base
    n = base.dim
    reg = regular_module(base)
    f_tables = [_columns([deformed.f.value((i, j)) for j in range(n)]) for i in range(n)]
    return UpleModule(deformed, reg, reg, _identity(n, base.field), f_tables)


def functor_F(uple):
    """The concrete module on M0 + M1: the left part of the uple's glue,

        (a, b) (m0, m1) = (a m0, a m1 + b T m0 + f_M(a, m0)).

    Coordinates stack M0 first, then M1.  The glue of a checked uple is
    a bimodule, so its left part is not checked again.
    """
    glued = uple.glued
    return LeftModule(uple.deformed, glued.dim,
                      [glued.left_map(i) for i in range(uple.deformed.dim)], check=False)


class Reconstruction:
    """An uple carved out of a concrete module, together with the full-
    space vectors realising its two halves and the inverse of the basis
    change whose columns they are, complement first."""

    def __init__(self, uple, complement, kernel, inverse):
        self.uple = uple
        self.complement = complement  # vectors spanning M0 inside M
        self.kernel = kernel          # vectors spanning M1 = Ker T
        self.inverse = inverse        # sparse map M -> M0 + M1


def reconstruct(mod):
    """Split a concrete module into an uple.

    T is the action of (0, 1); M1 is its kernel and M0 the complement
    obtained by greedily extending the kernel basis with standard basis
    vectors in declaration order.  M1 and M0 are built unchecked: once
    the kernel and the image of T are shown invariant, they are a
    submodule and a quotient of mod, and the check of the uple proves
    their axioms again as blocks of its glue.
    """
    deformed = mod.algebra
    if not isinstance(deformed, Deformation):
        raise InputError("reconstruction needs a module over a deformed algebra")
    base = deformed.base
    fld = base.field
    one, minus = fld.one, fld.neg(fld.one)
    d = mod.dim
    n = base.dim
    t_full = mod.action_of({n + i: c for i, c in base.unit.items()})
    if map_compose(t_full, t_full, fld):
        raise InputError("the action of (0, 1) does not square to zero")

    kernel = column_kernel([t_full.get(c, {}) for c in range(d)], fld)
    span = SpanSolver(fld)
    for v in kernel:
        span.add(v)
    complement = []
    for k in range(d):
        if span.add({k: one}):
            complement.append({k: one})
    d0 = len(complement)

    # change of basis: columns are complement vectors then kernel vectors
    s_inv = map_inverse(_columns(complement + kernel), d, fld)

    def split(amap):
        """(M0 part, M1 part) of a map into M, in the new coordinates."""
        new = map_compose(s_inv, amap, fld)
        return _rows(new, 0, d0), _rows(new, d0, d)

    kmap, cmap = _columns(kernel), _columns(complement)
    act1 = []
    for i in range(n):
        m0_part, m1_part = split(map_compose(mod.actions[i], kmap, fld))
        if m0_part:
            raise InputError("the kernel of T is not invariant")
        act1.append(m1_part)
    m1 = LeftModule(base, len(kernel), act1, check=False)

    # action on M0: a * m = T'(a . T m), solved through the injective T
    t_cols = [map_apply(t_full, v, fld) for v in complement]
    image = SpanSolver(fld)
    for j, v in enumerate(t_cols):
        image.add(v, j)
    act0 = []
    f_tables = []
    for i in range(n):
        sol = []
        for v in t_cols:
            x = image.express(map_apply(mod.actions[i], v, fld))
            if x is None:
                raise InputError("the image of T is not invariant")
            sol.append(_clean(fld, x))
        act0.append(_columns(sol))
        # f_M(a, m) = (a, 0) m - a * m, an element of the kernel
        diff = map_combine([(one, map_compose(mod.actions[i], cmap, fld)),
                            (minus, map_compose(cmap, act0[-1], fld))], fld)
        m0_part, m1_part = split(diff)
        if m0_part:
            raise InputError("the correction does not land in the kernel")
        f_tables.append(m1_part)
    m0 = LeftModule(base, d0, act0, check=False)

    _, t_m = split(_columns(t_cols))
    uple = UpleModule(deformed, m0, m1, t_m, f_tables)
    return Reconstruction(uple, complement, kernel, s_inv)


class MorphismTriple:
    """(u0, u1, u2) between two uples over the same deformed algebra.

    u0: M0 -> N0, u1: M0 -> N1 and u2: M1 -> N1 are sparse maps; u0 and
    u2 intertwine the undeformed actions, the square with the two T maps
    commutes, and u1 satisfies the correction rule

        u1(a m0) = a u1(m0) - u2(f_M(a, m0)) + f_N(a, u0(m0)),

    all checked at construction by triple_violations as one condition:
    [[u0, 0], [u1, u2]] intertwines the glues on the generators of A_f.
    """

    def __init__(self, source, target, u0, u1, u2, check=True):
        if source.deformed is not target.deformed:
            raise InputError("triples need a common deformed algebra")
        fld = source.deformed.field
        self.source = source
        self.target = target
        self.u0 = _checked(u0, target.m0.dim, source.m0.dim, fld, "u0")
        self.u1 = _checked(u1, target.m1.dim, source.m0.dim, fld, "u1")
        self.u2 = _checked(u2, target.m1.dim, source.m1.dim, fld, "u2")
        if check:
            self._validate()

    def _validate(self):
        bad = triple_violations(self.source, self.target, self.u0, self.u1, self.u2)
        if bad:
            raise InputError(bad[0])

    def is_isomorphism(self):
        src, tgt = self.source, self.target
        fld = src.deformed.field
        return (src.m0.dim == tgt.m0.dim
                and src.m1.dim == tgt.m1.dim
                and map_inverse(self.u0, src.m0.dim, fld) is not None
                and map_inverse(self.u2, src.m1.dim, fld) is not None)


def roundtrip_triple(uple, module):
    """Explicit isomorphism from the reconstruction of module, which is
    F(uple) as functor_F builds it, back to uple.

    The components read off the full-space coordinates of the chosen
    complement and kernel bases; validity is checked by construction.
    """
    rec = reconstruct(module)
    v = rec.uple
    d0 = uple.m0.dim
    d = d0 + uple.m1.dim
    cmap = _columns(rec.complement)
    tri = MorphismTriple(v, uple, _rows(cmap, 0, d0), _rows(cmap, d0, d),
                         _rows(_columns(rec.kernel), d0, d))
    if not tri.is_isomorphism():
        raise InputError("round trip produced a non-invertible comparison")
    return tri


def module_from_file(mf, deformed):
    """Concrete module from a parsed module file: one action map per
    basis label of the deformed algebra."""
    actions = []
    for label in deformed.labels:
        if label not in mf.actions:
            raise InputError("module file is missing act(%s)" % label)
        actions.append(mf.actions[label])
    extra = set(mf.actions) - set(deformed.labels)
    if extra:
        raise InputError("module file has unknown labels: %s"
                         % ", ".join(sorted(extra)))
    return LeftModule(deformed, mf.dim, actions)
