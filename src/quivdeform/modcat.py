"""Modules over the deformed algebra, presented two ways.

A concrete module is a vector space with one action matrix per basis
element of a FinDimAlgebra, here the deformed algebra A_f (a
DeformedAlgebra) or the original algebra A (its base).  The same data
can be packaged as an uple (M0, M1, T, f_table): two modules over A, an
injective intertwiner T : M0 -> M1, and a bilinear correction table
measuring how far the deformed action is from the undeformed one.  The
functor F glues an uple into a concrete module on M0 + M1; going back,
T is recovered as the action of (0, 1), M1 is its kernel, and M0 is a
deterministic complement.

Vectors are columns throughout: the matrix of a product is the product
of the matrices.
"""

from .deform import DeformedAlgebra
from .errors import InputError
from .linalg import (block, identity_matrix, invert_matrix, mat_add,
                     mat_is_zero, mat_scale, mat_sub, matmul, matvec,
                     nullspace, rank, solve, zeros)


class LeftModule:
    """Finite-dimensional left module over a FinDimAlgebra.

    matrices[i] is the square matrix of the i-th basis element; the
    unit must act as the identity and products of matrices must match
    the structure constants, both checked at construction.
    """

    def __init__(self, algebra, matrices, check=True):
        self.algebra = algebra
        self.field = algebra.field
        if len(matrices) != algebra.dim:
            raise InputError("expected %d action matrices, got %d"
                             % (algebra.dim, len(matrices)))
        self.dim = len(matrices[0]) if matrices else 0
        for m in matrices:
            if len(m) != self.dim or any(len(row) != self.dim for row in m):
                raise InputError("action matrices must all be %d x %d" % (self.dim, self.dim))
        self.matrices = matrices
        if check:
            self._validate()

    def _validate(self):
        fld = self.field
        if self.matrix_of(self.algebra.unit) != identity_matrix(self.dim, fld):
            raise InputError("the unit does not act as the identity")
        for i in range(self.algebra.dim):
            for j in range(self.algebra.dim):
                lhs = matmul(self.matrices[i], self.matrices[j], fld)
                rhs = self.matrix_of(self.algebra.multiply_basis(i, j))
                if lhs != rhs:
                    raise InputError(
                        "action disagrees with the structure constants at "
                        "basis pair (%d, %d)" % (i, j))

    def matrix_of(self, coeffs):
        """Action matrix of the algebra element with the given coordinates."""
        fld = self.field
        out = zeros(self.dim, self.dim, fld)
        for i, c in coeffs.items():
            out = mat_add(out, mat_scale(self.matrices[i], c, fld), fld)
        return out

    def act(self, coeffs, vec):
        return matvec(self.matrix_of(coeffs), vec, self.field)


def regular_module(alg):
    """The algebra acting on itself by left multiplication."""
    return LeftModule(alg, [[list(row) for row in alg.left_matrix(i)]
                            for i in range(alg.dim)])


class UpleModule:
    """(M0, M1, T, f_table) over a fixed deformed algebra.

    M0 and M1 are modules over the undeformed algebra, T an injective
    intertwiner M0 -> M1, and f_table[i] the matrix of m -> f_M(a_i, m)
    from M0 to M1.  The defining condition ties f_table to the cocycle:

        a f_M(b, m) - f_M(ab, m) + f_M(a, bm) - f(a, b) T m = 0

    for all basis elements a, b and all m, checked exhaustively.
    """

    def __init__(self, deformed, m0, m1, t, f_table, check=True):
        base = deformed.base
        if m0.algebra is not base or m1.algebra is not base:
            raise InputError("uple components must be modules over the "
                             "undeformed algebra")
        self.deformed = deformed
        self.m0 = m0
        self.m1 = m1
        self.t = t
        self.f_table = f_table
        if len(t) != m1.dim or any(len(row) != m0.dim for row in t):
            raise InputError("T must be a %d x %d matrix" % (m1.dim, m0.dim))
        if len(f_table) != base.dim:
            raise InputError("f_table needs one matrix per basis element")
        for m in f_table:
            if len(m) != m1.dim or any(len(row) != m0.dim for row in m):
                raise InputError("f_table entries must be %d x %d" % (m1.dim, m0.dim))
        if check:
            self._validate()

    def _validate(self):
        base = self.deformed.base
        fld = base.field
        if rank(self.t, fld) != self.m0.dim:
            raise InputError("T is not injective")
        for i in range(base.dim):
            left = matmul(self.m1.matrices[i], self.t, fld)
            right = matmul(self.t, self.m0.matrices[i], fld)
            if left != right:
                raise InputError("T does not intertwine the actions")
        full = self.deformed.full
        for i in range(base.dim):
            for j in range(base.dim):
                total = matmul(self.m1.matrices[i], self.f_table[j], fld)
                for k, c in base.multiply_basis(i, j).items():
                    total = mat_sub(total, mat_scale(self.f_table[k], c, fld), fld)
                total = mat_add(total, matmul(self.f_table[i], self.m0.matrices[j], fld),
                                fld)
                total = mat_sub(total, matmul(self.m1.matrix_of(full.value((i, j))),
                                              self.t, fld), fld)
                if not mat_is_zero(total, fld):
                    raise InputError(
                        "the uple condition fails at basis pair (%d, %d)" % (i, j))


def regular_uple(deformed):
    """The uple presenting the deformed algebra itself: (A, A, Id, f)."""
    base = deformed.base
    fld = base.field
    n = base.dim
    reg = regular_module(base)
    f_table = [[[deformed.full.value((i, j)).get(k, fld.zero) for j in range(n)]
                for k in range(n)] for i in range(n)]
    return UpleModule(deformed, reg, reg, identity_matrix(n, fld), f_table)


def functor_F(uple, deformed=None):
    """The concrete module on M0 + M1 with the glued action

        (a, b) (m0, m1) = (a m0, a m1 + b T m0 + f_M(a, m0)).

    Coordinates stack M0 first, then M1.
    """
    if deformed is None:
        deformed = uple.deformed
    if deformed is not uple.deformed:
        raise InputError("uple belongs to a different deformed algebra")
    fld = deformed.field
    d0, d1 = uple.m0.dim, uple.m1.dim
    n = deformed.n
    mats = []
    for i in range(deformed.dim):
        if i < n:
            mats.append(block(uple.m0.matrices[i], zeros(d0, d1, fld),
                              uple.f_table[i], uple.m1.matrices[i]))
        else:
            bt = matmul(uple.m1.matrices[i - n], uple.t, fld)
            mats.append(block(zeros(d0, d0, fld), zeros(d0, d1, fld),
                              bt, zeros(d1, d1, fld)))
    return LeftModule(deformed, mats)


class Reconstruction:
    """An uple carved out of a concrete module, together with the full-
    space vectors realising its two halves."""

    def __init__(self, uple, complement, kernel):
        self.uple = uple
        self.complement = complement  # columns spanning M0 inside M
        self.kernel = kernel          # columns spanning M1 = Ker T


def reconstruct(mod, deformed=None):
    """Split a concrete module into an uple.

    T is the action of (0, 1); M1 is its kernel and M0 the complement
    obtained by greedily extending the kernel basis with standard basis
    vectors in declaration order.
    """
    if deformed is None:
        deformed = mod.algebra
    if deformed is not mod.algebra:
        raise InputError("module belongs to a different deformed algebra")
    if not isinstance(deformed, DeformedAlgebra):
        raise InputError("reconstruction needs a module over a deformed algebra")
    base = deformed.base
    fld = base.field
    d = mod.dim
    n = base.dim
    t_full = mod.matrix_of({n + i: c for i, c in base.unit.items()})
    if not mat_is_zero(matmul(t_full, t_full, fld), fld):
        raise InputError("the action of (0, 1) does not square to zero")

    kernel = nullspace(t_full, fld)
    complement = []
    span_rows = [list(v) for v in kernel]
    for k in range(d):
        e = [fld.one if i == k else fld.zero for i in range(d)]
        if rank(span_rows + [e], fld) > len(span_rows):
            complement.append(e)
            span_rows.append(e)
    d1, d0 = len(kernel), len(complement)

    # change of basis: columns are complement vectors then kernel vectors
    s = [[(complement + kernel)[j][i] for j in range(d)] for i in range(d)]
    s_inv = invert_matrix(s, fld)

    def in_new_coords(cols):
        """Split full-space columns into (M0 part, M1 part)."""
        top, bottom = [], []
        for v in cols:
            w = matvec(s_inv, v, fld)
            top.append(w[:d0])
            bottom.append(w[d0:])
        m0_part = [[top[j][i] for j in range(len(cols))] for i in range(d0)]
        m1_part = [[bottom[j][i] for j in range(len(cols))] for i in range(d1)]
        return m0_part, m1_part

    def columns(mat, vecs):
        return [matvec(mat, v, fld) for v in vecs]

    act1 = []
    for i in range(n):
        m0_part, m1_part = in_new_coords(columns(mod.matrices[i], kernel))
        if not mat_is_zero(m0_part, fld):
            raise InputError("the kernel of T is not invariant")
        act1.append(m1_part)
    m1 = LeftModule(base, act1)

    # action on M0: a * m = T'(a . T m), solved through the injective T
    t_cols = columns(t_full, complement)
    t_matrix = [[t_cols[j][i] for j in range(d0)] for i in range(d)]
    act0 = []
    f_table = []
    for i in range(n):
        target = columns(mod.matrices[i], t_cols)
        sol_cols = []
        for v in target:
            x = solve(t_matrix, v, fld)
            if x is None:
                raise InputError("the image of T is not invariant")
            sol_cols.append(x)
        act0.append([[sol_cols[j][k] for j in range(d0)] for k in range(d0)])
        # f_M(a, m) = (a, 0) m - a * m, an element of the kernel
        diff = []
        for jj, c in enumerate(complement):
            av = matvec(mod.matrices[i], c, fld)
            star = [fld.zero] * d
            for kk, x in enumerate(sol_cols[jj]):
                for r in range(d):
                    star[r] = fld.add(star[r], fld.mul(x, complement[kk][r]))
            diff.append([fld.sub(a, b) for a, b in zip(av, star)])
        m0_part, m1_part = in_new_coords(diff)
        if not mat_is_zero(m0_part, fld):
            raise InputError("the correction does not land in the kernel")
        f_table.append(m1_part)
    m0 = LeftModule(base, act0)

    _, t_m = in_new_coords(t_cols)
    uple = UpleModule(deformed, m0, m1, t_m, f_table)
    return Reconstruction(uple, complement, kernel)


class MorphismTriple:
    """(u0, u1, u2) between two uples over the same deformed algebra.

    u0 and u2 intertwine the undeformed actions, the square with the
    two T maps commutes, and u1 satisfies the correction rule

        u1(a m0) = a u1(m0) - u2(f_M(a, m0)) + f_N(a, u0(m0)),

    all checked on basis elements at construction.
    """

    def __init__(self, source, target, u0, u1, u2, check=True):
        if source.deformed is not target.deformed:
            raise InputError("triples need a common deformed algebra")
        self.source = source
        self.target = target
        self.u0 = u0
        self.u1 = u1
        self.u2 = u2
        if check:
            self._validate()

    def _validate(self):
        u, v = self.source, self.target
        fld = u.deformed.field
        basis = u.deformed.basis

        def shape(m, r, c, name):
            if len(m) != r or any(len(row) != c for row in m):
                raise InputError("%s must be %d x %d" % (name, r, c))
        shape(self.u0, v.m0.dim, u.m0.dim, "u0")
        shape(self.u1, v.m1.dim, u.m0.dim, "u1")
        shape(self.u2, v.m1.dim, u.m1.dim, "u2")
        for i in range(basis.dim):
            if matmul(v.m0.matrices[i], self.u0, fld) != \
                    matmul(self.u0, u.m0.matrices[i], fld):
                raise InputError("u0 is not a module map")
            if matmul(v.m1.matrices[i], self.u2, fld) != \
                    matmul(self.u2, u.m1.matrices[i], fld):
                raise InputError("u2 is not a module map")
        if matmul(v.t, self.u0, fld) != matmul(self.u2, u.t, fld):
            raise InputError("the square with T does not commute")
        for i in range(basis.dim):
            lhs = matmul(self.u1, u.m0.matrices[i], fld)
            rhs = matmul(v.m1.matrices[i], self.u1, fld)
            rhs = mat_sub(rhs, matmul(self.u2, u.f_table[i], fld), fld)
            rhs = mat_add(rhs, matmul(v.f_table[i], self.u0, fld), fld)
            if lhs != rhs:
                raise InputError("u1 violates the correction rule at basis "
                                 "element %d" % i)

    def is_isomorphism(self):
        fld = self.source.deformed.field
        return (self.source.m0.dim == self.target.m0.dim
                and self.source.m1.dim == self.target.m1.dim
                and invert_matrix(self.u0, fld) is not None
                and invert_matrix(self.u2, fld) is not None)


def identity_triple(u):
    fld = u.deformed.field
    return MorphismTriple(u, u, identity_matrix(u.m0.dim, fld),
                          zeros(u.m1.dim, u.m0.dim, fld),
                          identity_matrix(u.m1.dim, fld))


def compose_triples(v, u):
    """v after u: (v0 u0, v2 u1 + v1 u0, v2 u2)."""
    if u.target is not v.source:
        raise InputError("triples do not compose")
    fld = u.source.deformed.field
    return MorphismTriple(
        u.source, v.target,
        matmul(v.u0, u.u0, fld),
        mat_add(matmul(v.u2, u.u1, fld), matmul(v.u1, u.u0, fld), fld),
        matmul(v.u2, u.u2, fld))


def linear_of_triple(tri):
    """The matrix of F(u0, u1, u2) = [[u0, 0], [u1, u2]]."""
    fld = tri.source.deformed.field
    return block(tri.u0, zeros(len(tri.u0), len(tri.u2[0]) if tri.u2 else 0, fld),
                 tri.u1, tri.u2)


def triple_from_linear(mat, source, target):
    """Split an algebra-linear map F(source) -> F(target) into a triple.

    The block M1 -> N0 of any module map vanishes because the target T
    is injective; a nonzero block means mat is not a module map.
    """
    fld = source.deformed.field
    d0 = source.m0.dim
    u0 = [row[:d0] for row in mat[:target.m0.dim]]
    tr = [row[d0:] for row in mat[:target.m0.dim]]
    if not mat_is_zero(tr, fld):
        raise InputError("the map sends the kernel half outside the kernel")
    u1 = [row[:d0] for row in mat[target.m0.dim:]]
    u2 = [row[d0:] for row in mat[target.m0.dim:]]
    return MorphismTriple(source, target, u0, u1, u2)


def roundtrip_triple(uple):
    """Explicit isomorphism from the reconstruction of F(uple) back to uple.

    The components read off the full-space coordinates of the chosen
    complement and kernel bases; validity is checked by construction.
    """
    rec = reconstruct(functor_F(uple))
    v = rec.uple
    d0 = uple.m0.dim
    u0 = [[vec[i] for vec in rec.complement] for i in range(d0)]
    u1 = [[vec[i] for vec in rec.complement] for i in range(d0, d0 + uple.m1.dim)]
    u2 = [[vec[i] for vec in rec.kernel] for i in range(d0, d0 + uple.m1.dim)]
    tri = MorphismTriple(v, uple, u0, u1, u2)
    if not tri.is_isomorphism():
        raise InputError("round trip produced a non-invertible comparison")
    return tri


def module_homs(m, n):
    """Basis of the space of module maps m -> n, as matrices."""
    if m.algebra is not n.algebra:
        raise InputError("modules live over different algebras")
    fld = m.field
    rows = []
    # unknowns: entries of X (n.dim x m.dim), row-major
    for i in range(m.algebra.dim):
        a_n = n.matrices[i]
        a_m = m.matrices[i]
        for r in range(n.dim):
            for c in range(m.dim):
                row = [fld.zero] * (n.dim * m.dim)
                for k in range(n.dim):
                    row[k * m.dim + c] = fld.add(row[k * m.dim + c], a_n[r][k])
                for k in range(m.dim):
                    row[r * m.dim + k] = fld.sub(row[r * m.dim + k], a_m[k][c])
                rows.append(row)
    out = []
    for vec in nullspace(rows, fld):
        out.append([[vec[r * m.dim + c] for c in range(m.dim)]
                    for r in range(n.dim)])
    return out


def submodule(mod, vectors):
    """The submodule generated by the given vectors, as a module on the
    closure's own basis (deterministic: closure in basis order)."""
    fld = mod.field
    span = []
    sbasis = []

    def try_add(v):
        if rank(span + [v], fld) > len(span):
            span.append(list(v))
            sbasis.append(list(v))
            return True
        return False

    queue = [list(v) for v in vectors]
    while queue:
        v = queue.pop(0)
        if not try_add(v):
            continue
        for i in range(mod.algebra.dim):
            queue.append(matvec(mod.matrices[i], v, fld))
    d = len(sbasis)
    cols = [[sbasis[j][i] for j in range(d)] for i in range(mod.dim)]
    mats = []
    for i in range(mod.algebra.dim):
        sol = []
        for v in sbasis:
            img = matvec(mod.matrices[i], v, fld)
            x = solve(cols, img, fld)
            if x is None:
                raise InputError("closure failed; submodule is not closed")
            sol.append(x)
        mats.append([[sol[j][k] for j in range(d)] for k in range(d)])
    return LeftModule(mod.algebra, mats)


def module_from_file(mf, deformed):
    """Concrete module from a parsed module file: one action matrix per
    basis label of the deformed algebra."""
    mats = []
    for label in deformed.labels:
        if label not in mf.actions:
            raise InputError("module file is missing act(%s)" % label)
        mats.append(mf.actions[label])
    extra = set(mf.actions) - set(deformed.labels)
    if extra:
        raise InputError("module file has unknown labels: %s"
                         % ", ".join(sorted(extra)))
    return LeftModule(deformed, mats)
