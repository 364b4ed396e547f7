"""Transfer of cochains across a Morita context, and the deformed equivalence.

This layer works with the structure-constant algebras of the linalg
module (FinDimAlgebra), so that a path-algebra quotient, a matrix
amplification and a corner algebra all go through the same code; the
deformed algebras A_f and B_g come from the deform module's builder,
which verify_morita_deformed calls directly once it has proved d f = 0
and d g = 0, so each cocycle is checked once.  Elements are sparse
coordinate dicts {basis_index: scalar} and linear maps are sparse maps
{column: {row: scalar}}, both handled by the linalg helpers, so no layer
here builds a dense matrix; cochains are the FullCochain tables from the
hochschild module.

A MoritaContext fixes the two algebras, the inverse bimodules, both
pairings and one finite generator list on each side:

    1_A = sum <p'_j, q'_j>_A   over gens_a = [(p'_j, q'_j)],
    1_B = sum <q_i, p_i>_B     over gens_b = [(q_i, p_i)].

The transfer maps phi/psi, the homotopy h and every construction below are
literal in those lists, so two contexts for the same pair of algebras may
disagree on raw cochains while agreeing on cohomology classes.

Every identity of a bimodule and of a context is checked on the
generators of the acting algebras (FinDimAlgebra.generators()), not on
all pairs of basis elements; Bimodule.violations gives the induction
that proves it for all elements.  It needs the acting algebras to be
associative, which for A_f and B_g is their cocycle condition.  A
bimodule uple is checked as the (A_f, B_g)-bimodule it glues to, and a
morphism of uples as a map between the glues (DeformedBimodule and
triple_violations give the proofs).  A context checks only its axioms:
the bijectivity of the induced maps P (x)_B Q -> A and Q (x)_A P -> B,
and the recovery of P and Q through the generator lists, are
consequences (MoritaContext._validate gives the proof).

The deformed equivalence is one more context.  Once the deformed
bimodules hat P and hat Q are checked, verify_morita_deformed builds the
context over (A_f, B_g) from their glues, the pairings of
_deformed_pairing and the plain generator lists, and checks its axioms
once; the Morita context lemma gives hat P (x)_{B_g} hat Q = A_f and hat
Q (x)_{A_f} hat P = B_g, and each of the 13 report lines per side
follows from it.  No balanced product is built: TensorProduct, which
builds one, is the reference that the tests compare against.

transfer_phi and transfer_psi work from the support of the cochain: one
chain of pair weights per key of its table, so the cost follows the
number of nonzero entries, not the number of basis tuples of B.
"""

from collections import defaultdict

from .deform import Deformation
from .errors import (CharTwoUnsupported, InputError, NotFullIdempotent,
                     SizeLimitExceeded)
from .hochschild import FullCochain, is_full_cocycle
from .linalg import (FinDimAlgebra, SpanSolver, _action, _addinto, _bilinear, _clean,
                     _columns, _differing_columns, _identity, _lower_block, _map_rank,
                     _scaled, map_apply, map_compose)


class Bimodule:
    """Left module over left_alg and right module over right_alg.

    left[(i, m)] = coordinates of e_i . x_m, right[(m, j)] = x_m . e_j.
    left_map(i) and right_map(j) are the two actions of one basis element
    as sparse maps {m: vector}.  Unitality, both associativities and
    commutation of the two actions are checked unless check=False: the
    units on every m, the rest on the generators of the acting algebras
    (see violations).
    """

    def __init__(self, left_alg, right_alg, dim, left, right, check=True):
        self.left_alg = left_alg
        self.right_alg = right_alg
        self.dim = dim
        self.field = left_alg.field
        fld = self.field
        self.left = {}
        self._left_maps = {}
        for (i, m), vec in left.items():
            vec = _clean(fld, vec)
            if vec:
                self.left[(i, m)] = vec
                self._left_maps.setdefault(i, {})[m] = vec
        self.right = {}
        self._right_maps = {}
        for (m, j), vec in right.items():
            vec = _clean(fld, vec)
            if vec:
                self.right[(m, j)] = vec
                self._right_maps.setdefault(j, {})[m] = vec
        if check:
            bad = self.violations()
            if bad:
                raise InputError("; ".join(bad))

    def left_basis(self, i, m):
        return self.left.get((i, m), {})

    def right_basis(self, m, j):
        return self.right.get((m, j), {})

    def left_map(self, i):
        return self._left_maps.get(i, {})

    def right_map(self, j):
        return self._right_maps.get(j, {})

    def left_act(self, avec, mvec):
        return _bilinear(self.field, self.left, avec, mvec)

    def right_act(self, mvec, bvec):
        return _bilinear(self.field, self.right, mvec, bvec)

    def violations(self):
        """Every failed bimodule axiom, as messages in this order: the two
        units on each coordinate m, left associativity at (generator of
        left_alg, basis element, m), right associativity at (m, basis
        element, generator of right_alg), commutation at (left generator,
        m, right generator).  Algebra elements are named by their labels,
        module coordinates by index.

        Checking on generators proves the axioms for all elements, since
        both acting algebras are associative and the units are checked
        first.  If rho(g b) = rho(g) rho(b) for every generator g and
        basis element b, the x with rho(x b) = rho(x) rho(b) for all b
        form a subspace that holds 1 and is closed under x -> g x, which
        is the whole algebra (induction on word length).  The right action
        is the mirror image, and commutation of the actions of two
        generators extends to all elements by the same induction, once
        both actions are known to be associative.  Each message is a
        tuple at which the axiom fails.
        """
        fld = self.field
        la, ra = self.left_alg, self.right_alg
        lmap, rmap = self.left_map, self.right_map
        lgens, rgens = la.generators(), ra.generators()
        out = []
        lunit = _action(self._left_maps, la.unit, fld)
        runit = _action(self._right_maps, ra.unit, fld)
        for m in range(self.dim):
            e = {m: fld.one}
            if lunit.get(m) != e:
                out.append("left unit fails at %d" % m)
            if runit.get(m) != e:
                out.append("right unit fails at %d" % m)
        for i in lgens:
            for j in range(la.dim):
                lhs = _action(self._left_maps, la.multiply_basis(i, j), fld)
                rhs = map_compose(lmap(i), lmap(j), fld)
                for m in _differing_columns(lhs, rhs, self.dim):
                    out.append("left action not associative at (%s, %s, %d)"
                               % (la.labels[i], la.labels[j], m))
        for i in range(ra.dim):
            for j in rgens:
                lhs = _action(self._right_maps, ra.multiply_basis(i, j), fld)
                rhs = map_compose(rmap(j), rmap(i), fld)
                for m in _differing_columns(lhs, rhs, self.dim):
                    out.append("right action not associative at (%d, %s, %s)"
                               % (m, ra.labels[i], ra.labels[j]))
        for i in lgens:
            for j in rgens:
                lhs = map_compose(rmap(j), lmap(i), fld)
                rhs = map_compose(lmap(i), rmap(j), fld)
                for m in _differing_columns(lhs, rhs, self.dim):
                    out.append("actions do not commute at (%s, %d, %s)"
                               % (la.labels[i], m, ra.labels[j]))
        return out


def regular_bimodule(alg):
    """The algebra as a bimodule over itself."""
    return Bimodule(alg, alg, alg.dim, alg.table, alg.table, check=False)


class TensorProduct:
    """Balanced product X tensor_B Y with explicit quotient coordinates.

    Raw coordinates are pairs (i, j) flattened to i * dim(Y) + j; the
    quotient basis is the set of columns that are not pivots of the
    balance relations x.b @ y - x @ b.y, for b running over the
    generators of the middle algebra B: they span the same relations as
    all of B, since x.(b b') @ y - x @ (b b').y is the sum of the
    relations of (x.b, b') and of (x, b) at b'.y.  project is the normal
    form modulo the relations, read in that basis.
    """

    def __init__(self, x, y):
        if x.right_alg is not y.left_alg:
            raise InputError("tensor factors disagree on the middle algebra")
        self.x = x
        self.y = y
        self.field = x.field
        fld = self.field
        ydim = y.dim
        self._span = SpanSolver(fld)
        for i in range(x.dim):
            for g in x.right_alg.generators():
                xb = x.right_basis(i, g)
                for j in range(ydim):
                    row = {i2 * ydim + j: c for i2, c in xb.items()}
                    by = y.left_basis(g, j)
                    _addinto(fld, row, {i * ydim + j2: c for j2, c in by.items()},
                             fld.neg(fld.one))
                    self._span.add(row)
        self.free = [c for c in range(x.dim * ydim) if c not in self._span.rows]
        self._pos = {c: t for t, c in enumerate(self.free)}
        self.dim = len(self.free)

        left = {}
        right = {}
        la, ra = x.left_alg, y.right_alg
        for t, col in enumerate(self.free):
            i, j = divmod(col, ydim)
            for r in range(la.dim):
                ax = x.left_basis(r, i)
                vec = self.project({i2 * ydim + j: c for i2, c in ax.items()})
                if vec:
                    left[(r, t)] = vec
            for s in range(ra.dim):
                yb = y.right_basis(j, s)
                vec = self.project({i * ydim + j2: c for j2, c in yb.items()})
                if vec:
                    right[(s, t)] = vec
        right = {(t, s): v for (s, t), v in right.items()}
        self.bimodule = Bimodule(la, ra, self.dim, left, right, check=True)

    def project(self, raw):
        """Quotient coordinates of a vector given on raw pair columns."""
        return {self._pos[c]: v for c, v in self._span.normal_form(raw).items()}

    def pure_vec(self, xvec, yvec):
        ydim = self.y.dim
        raw = {}
        for i, ci in xvec.items():
            _addinto(self.field, raw, {i * ydim + j: cj for j, cj in yvec.items()}, ci)
        return self.project(raw)


class MoritaContext:
    """Inverse bimodules with fixed pairings and generator lists.

    a, b: FinDimAlgebra.  p: (a, b)-bimodule, q: (b, a)-bimodule.
    pairing_a[(i, j)] = coords in a of <p_i, q_j>_A; pairing_b[(j, i)]
    = coords in b of <q_j, p_i>_B.  gens_a = [(p', q')] with
    sum <p', q'>_A = 1_A; gens_b = [(q, p)] with sum <q, p>_B = 1_B.
    Unless check=False, the pairings are checked to be linear over both
    actions and balanced (on the generators of a and b), to associate
    with each other and to give the units through gens_a and gens_b.
    That the pairings induce bijections from the balanced products onto
    a and b, and that every element of P and Q is recovered through
    gens_a and gens_b, follows from these (see _validate), so neither is
    computed.
    """

    def __init__(self, a, b, p, q, pairing_a, pairing_b, gens_a, gens_b, check=True):
        self.a = a
        self.b = b
        self.p = p
        self.q = q
        self.field = a.field
        fld = self.field
        self.pairing_a = {k: _clean(fld, v) for k, v in pairing_a.items()}
        self.pairing_b = {k: _clean(fld, v) for k, v in pairing_b.items()}
        self.gens_a = [(_clean(fld, u), _clean(fld, v)) for u, v in gens_a]
        self.gens_b = [(_clean(fld, u), _clean(fld, v)) for u, v in gens_b]
        self._swapped = None
        if check:
            self._validate()

    def pair_a(self, pvec, qvec):
        return _bilinear(self.field, self.pairing_a, pvec, qvec)

    def pair_b(self, qvec, pvec):
        return _bilinear(self.field, self.pairing_b, qvec, pvec)

    def swap(self):
        """The same context read from B's side; psi = phi of the swap."""
        if self._swapped is None:
            sw = MoritaContext(self.b, self.a, self.q, self.p,
                               self.pairing_b, self.pairing_a,
                               self.gens_b, self.gens_a, check=False)
            sw._swapped = self
            self._swapped = sw
        return self._swapped

    def _validate(self):
        """Raise InputError at the first failed axiom of the context, in
        this order: the sides of P and Q, linearity and balance of the
        pairings (on generators, see below), the two associativities
        <p, q>_A p' = p <q, p'>_B and <q, p>_B q' = q <p, q'>_A, and the
        decompositions of 1_A and 1_B.

        The rest of a Morita context follows from these, for P and Q
        bimodules.  Recovery: x = x 1_B = sum x <q_k, p_k>_B = sum <x,
        q_k>_A p_k for x in P, by the right unit and the first
        associativity; x = 1_A x = sum p'_j <q'_j, x>_B, and in Q y = 1_B
        y = sum q_k <p_k, y>_A and y = y 1_A = sum <y, p'_j>_B q'_j, in
        the same way.  The pairing P (x)_B Q -> A is well defined by
        balance.  It is injective: by the second associativity, balance
        and the first associativity,

            sum x_i (x) y_i = sum x_i (x) y_i <p'_j, q'_j>_A
                            = sum x_i <y_i, p'_j>_B (x) q'_j
                            = sum <x_i, y_i>_A p'_j (x) q'_j,

        which is 0 when sum <x_i, y_i>_A is.  It is surjective, since its
        image is a two-sided ideal by linearity and holds 1_A.  The
        mirror argument, through gens_b, gives Q (x)_A P -> B.  This is
        the Morita context lemma (Bass, Algebraic K-Theory, 1968).
        """
        fld = self.field
        a, b, p, q = self.a, self.b, self.p, self.q
        if p.left_alg is not a or p.right_alg is not b:
            raise InputError("P must be an (A, B)-bimodule")
        if q.left_alg is not b or q.right_alg is not a:
            raise InputError("Q must be a (B, A)-bimodule")

        # linearity and balance on generators of A and B: P and Q are
        # bimodules and A, B associative, so each identity extends from
        # generators to all elements by induction on word length, as in
        # Bimodule.violations; at the unit it holds by the unit axioms.
        # Both sides of an identity are sparse maps: pa[i] is the map
        # q -> <p_i, q>_A on Q, pb[j] the map p -> <q_j, p>_B on P,
        # rho_p[i], rho_q[j] the right actions b -> p_i b and a -> q_j a,
        # and ra, rb give the multiplications of A and B
        ra, rb = regular_bimodule(a), regular_bimodule(b)
        pa, pb, rho_p, rho_q = (defaultdict(dict) for _ in range(4))
        for (i, j), vec in self.pairing_a.items():
            if vec:
                pa[i][j] = vec
        for (j, i), vec in self.pairing_b.items():
            if vec:
                pb[j][i] = vec
        for rho, module in ((rho_p, p), (rho_q, q)):
            for (m, s), vec in module.right.items():
                rho[m][s] = vec

        def compose(x, y):
            return map_compose(x, y, fld)

        def check(gens, dim, width, *identities):
            """Raise at the first (g, x, k), g in gens, x < dim, k < width,
            where lhs(g, x) and rhs(g, x) of an identity (message, lhs, rhs)
            differ in column k; the earlier identity first at equal k."""
            for g in gens:
                for x in range(dim):
                    hits = [(bad[0], n) for n, (_, lhs, rhs) in enumerate(identities)
                            for bad in [_differing_columns(lhs(g, x), rhs(g, x), width)]
                            if bad]
                    if hits:
                        k, n = min(hits)
                        raise InputError(identities[n][0].format(g=g, x=x, k=k))

        check(a.generators(), p.dim, q.dim,
              ("<a.p, q> != a.<p, q> at ({g}, {x}, {k})",
               lambda t, i: _action(pa, p.left_basis(t, i), fld),
               lambda t, i: compose(ra.left_map(t), pa[i])),
              ("<p, q.a> != <p, q>.a at ({x}, {k}, {g})",
               lambda t, i: compose(pa[i], q.right_map(t)),
               lambda t, i: compose(ra.right_map(t), pa[i])))
        check(b.generators(), p.dim, q.dim,
              ("<p.b, q> != <p, b.q> at ({x}, {g}, {k})",
               lambda s, i: _action(pa, p.right_basis(i, s), fld),
               lambda s, i: compose(pa[i], q.left_map(s))))
        check(b.generators(), q.dim, p.dim,
              ("<b.q, p> != b.<q, p> at ({g}, {x}, {k})",
               lambda s, j: _action(pb, q.left_basis(s, j), fld),
               lambda s, j: compose(rb.left_map(s), pb[j])),
              ("<q, p.b> != <q, p>.b at ({x}, {k}, {g})",
               lambda s, j: compose(pb[j], p.right_map(s)),
               lambda s, j: compose(rb.right_map(s), pb[j])))
        check(a.generators(), q.dim, p.dim,
              ("<q.a, p> != <q, a.p> at ({x}, {g}, {k})",
               lambda t, j: _action(pb, q.right_basis(j, t), fld),
               lambda t, j: compose(pb[j], p.left_map(t))))

        # <p, q>_A . p' = p . <q, p'>_B  and  <q, p>_B . q' = q . <p, q'>_A
        for i in range(p.dim):
            for j in range(q.dim):
                bad = _differing_columns(_action(p._left_maps, pa[i].get(j, {}), fld),
                                         compose(rho_p[i], pb[j]), p.dim)
                if bad:
                    raise InputError("<p,q>.p' != p.<q,p'> at (%d, %d, %d)" % (i, j, bad[0]))
                bad = _differing_columns(_action(q._left_maps, pb[j].get(i, {}), fld),
                                         compose(rho_q[j], pa[i]), q.dim)
                if bad:
                    raise InputError("<q,p>.q' != q.<p,q'> at (%d, %d, %d)" % (j, i, bad[0]))

        total = {}
        for u, v in self.gens_a:
            _addinto(fld, total, self.pair_a(u, v), fld.one)
        if total != self.a.unit:
            raise InputError("gens_a do not decompose 1_A")
        total = {}
        for u, v in self.gens_b:
            _addinto(fld, total, self.pair_b(u, v), fld.one)
        if total != self.b.unit:
            raise InputError("gens_b do not decompose 1_B")


# The largest dimension n^2 dim A of M_n(A) that matrix_context builds.
# The certificate's checks grow with the square or the cube of it:
# verify-morita on k[x]/(x^6) at n = 3 (dimension 54) takes 0.5 s end to
# end (2 cores, Python 3.11), and each doubling of the dimension
# multiplies that by 4 to 8.
MAX_MATRIX_DIM = 64


def matrix_context(alg, n):
    """A against the matrix amplification M_n(A).

    B basis: E_rc x_g, flattened (r*n + c)*dim + g.  P is the row space
    A^(1 x n), Q the column space; both pairings are matrix products.
    Raises SizeLimitExceeded, before building anything, when n^2 dim A
    is above MAX_MATRIX_DIM.
    """
    if n < 1:
        raise InputError("matrix amplification needs n >= 1")
    if n * n * alg.dim > MAX_MATRIX_DIM:
        raise SizeLimitExceeded("M_%d(A) would have dimension %d, above the limit %d"
                                % (n, n * n * alg.dim, MAX_MATRIX_DIM))
    fld = alg.field
    d = alg.dim
    dim_b = n * n * d

    def bidx(r, c, g):
        return (r * n + c) * d + g

    btable = {}
    for r in range(n):
        for c in range(n):
            for g in range(d):
                for c2 in range(n):
                    for g2 in range(d):
                        prod = alg.multiply_basis(g, g2)
                        if prod:
                            btable[(bidx(r, c, g), bidx(c, c2, g2))] = \
                                {bidx(r, c2, k): v for k, v in prod.items()}
    bunit = {}
    for r in range(n):
        for u, cu in alg.unit.items():
            bunit[bidx(r, r, u)] = cu
    blabels = ["E%d%d*%s" % (r + 1, c + 1, alg.labels[g])
               for r in range(n) for c in range(n) for g in range(d)]
    b = FinDimAlgebra(fld, dim_b, btable, bunit, blabels, check=True)

    pdim = n * d

    def pidx(c, g):
        return c * d + g

    pleft, pright = {}, {}
    qleft, qright = {}, {}
    for t in range(d):
        for c in range(n):
            for g in range(d):
                prod = alg.multiply_basis(t, g)
                if prod:
                    pleft[(t, pidx(c, g))] = {pidx(c, k): v for k, v in prod.items()}
                prod = alg.multiply_basis(g, t)
                if prod:
                    qright[(pidx(c, g), t)] = {pidx(c, k): v for k, v in prod.items()}
    for c in range(n):
        for g in range(d):
            for g2 in range(d):
                prod = alg.multiply_basis(g, g2)
                if prod:
                    for c3 in range(n):
                        pright[(pidx(c, g), bidx(c, c3, g2))] = \
                            {pidx(c3, k): v for k, v in prod.items()}
                rprod = alg.multiply_basis(g2, g)
                if rprod:
                    for c3 in range(n):
                        qleft[(bidx(c3, c, g2), pidx(c, g))] = \
                            {pidx(c3, k): v for k, v in rprod.items()}
    p = Bimodule(alg, b, pdim, pleft, pright, check=True)
    q = Bimodule(b, alg, pdim, qleft, qright, check=True)

    pairing_a = {}
    pairing_b = {}
    for c in range(n):
        for g in range(d):
            for c2 in range(n):
                for g2 in range(d):
                    prod = alg.multiply_basis(g, g2)
                    if not prod:
                        continue
                    if c == c2:
                        pairing_a[(pidx(c, g), pidx(c2, g2))] = dict(prod)
                    pairing_b[(pidx(c, g), pidx(c2, g2))] = \
                        {bidx(c, c2, k): v for k, v in prod.items()}
    unit_slot = [{pidx(r, u): cu for u, cu in alg.unit.items()} for r in range(n)]
    gens_a = [(dict(unit_slot[0]), dict(unit_slot[0]))]
    gens_b = [(dict(unit_slot[r]), dict(unit_slot[r])) for r in range(n)]
    return MoritaContext(alg, b, p, q, pairing_a, pairing_b, gens_a, gens_b)


def idempotent_context(alg, evec):
    """A against the corner algebra eAe, through P = Ae and Q = eA.

    Raises NotFullIdempotent when 1_A cannot be written as a sum of
    products (x e)(e y), that is when AeA is a proper ideal.
    """
    fld = alg.field
    evec = _clean(fld, evec)
    if alg.mul(evec, evec) != evec:
        raise InputError("the given element is not idempotent")

    def span_of(images):
        solver = SpanSolver(fld)
        basis = []
        for vec in images:
            if vec and solver.add(vec, len(basis)):
                basis.append(vec)
        return solver, basis

    def coords(solver, vec):
        if not vec:
            return {}
        combo = solver.express(vec)
        if combo is None:
            raise InputError("product escapes the expected subspace")
        return _clean(fld, combo)

    e_images = [alg.mul(evec, alg.mul({i: fld.one}, evec)) for i in range(alg.dim)]
    bsolver, bbasis = span_of(e_images)
    p_images = [alg.mul({i: fld.one}, evec) for i in range(alg.dim)]
    psolver, pbasis = span_of(p_images)
    q_images = [alg.mul(evec, {i: fld.one}) for i in range(alg.dim)]
    qsolver, qbasis = span_of(q_images)

    btable = {}
    for r, x in enumerate(bbasis):
        for s, y in enumerate(bbasis):
            prod = alg.mul(x, y)
            if prod:
                btable[(r, s)] = coords(bsolver, prod)
    b = FinDimAlgebra(fld, len(bbasis), btable, coords(bsolver, evec), check=True)

    pleft, pright = {}, {}
    for r, x in enumerate(pbasis):
        for t in range(alg.dim):
            vec = alg.mul({t: fld.one}, x)
            if vec:
                pleft[(t, r)] = coords(psolver, vec)
        for s, y in enumerate(bbasis):
            vec = alg.mul(x, y)
            if vec:
                pright[(r, s)] = coords(psolver, vec)
    p = Bimodule(alg, b, len(pbasis), pleft, pright, check=True)

    qleft, qright = {}, {}
    for r, x in enumerate(qbasis):
        for s, y in enumerate(bbasis):
            vec = alg.mul(y, x)
            if vec:
                qleft[(s, r)] = coords(qsolver, vec)
        for t in range(alg.dim):
            vec = alg.mul(x, {t: fld.one})
            if vec:
                qright[(r, t)] = coords(qsolver, vec)
    q = Bimodule(b, alg, len(qbasis), qleft, qright, check=True)

    pairing_a = {}
    pairing_b = {}
    prod_in_a = {}
    for r, x in enumerate(pbasis):
        for s, y in enumerate(qbasis):
            vec = alg.mul(x, y)
            prod_in_a[(r, s)] = vec
            if vec:
                pairing_a[(r, s)] = vec
    for s, y in enumerate(qbasis):
        for r, x in enumerate(pbasis):
            vec = alg.mul(y, x)
            if vec:
                pairing_b[(s, r)] = coords(bsolver, vec)

    witness = SpanSolver(fld)
    for (r, s), vec in sorted(prod_in_a.items()):
        if vec:
            witness.add(vec, (r, s))
    combo = witness.express(alg.unit)
    if combo is None:
        raise NotFullIdempotent("AeA is a proper ideal; e is not full")
    gens_a = [({r: c}, {s: fld.one}) for (r, s), c in sorted(combo.items())]
    gens_b = [(coords(qsolver, evec), coords(psolver, evec))]
    return MoritaContext(alg, b, p, q, pairing_a, pairing_b, gens_a, gens_b)


def transfer_phi(ctx, f, n=None):
    """phi^n(f): cochains on A to cochains on B, literal in gens_b.

    phi^n(f)(b_1..b_n) is the sum over generator indices u_0..u_n of

        <q_u0, f(<p_u0, b_1 q_u1>_A, ..., <p_u(n-1), b_n q_un>_A) p_un>_B

    with gens_b = [(q_u, p_u)].  It is computed from the support of f: a
    key (k_1..k_n) of f.table chains the pair weights W(b, k)[u][v] =
    coeff_k <p_u, b . q_v>_A to W(b_1, k_1) ... W(b_n, k_n), one map on
    generator indices per tuple (b_1..b_n), and each coordinate k0 of the
    value f(x_k1..x_kn) closes the chain through V(k0)[u][v] =
    <q_u, x_k0 . p_v>_B.  The zero cochain costs nothing.
    """
    if n is None:
        n = f.degree
    if n != f.degree:
        raise InputError("cochain degree %d does not match n=%d" % (f.degree, n))
    if not 1 <= n <= 3:
        raise InputError("transfer is implemented for degrees 1..3")
    if f.dim != ctx.a.dim:
        raise InputError("cochain lives on an algebra of dimension %d, expected %d"
                         % (f.dim, ctx.a.dim))
    fld = ctx.field
    if not f.table:
        return FullCochain(ctx.b.dim, n, fld)
    one = fld.one
    m = len(ctx.gens_b)
    qs = [gv for gv, _ in ctx.gens_b]
    ps = [pv for _, pv in ctx.gens_b]

    # weights[k] = [(b, W(b, k))], W as a sparse map with column v, row u
    weights = {}
    for b in range(ctx.b.dim):
        by_k = {}
        for u in range(m):
            for v in range(m):
                for k, c in ctx.pair_a(ps[u], ctx.q.left_act({b: one}, qs[v])).items():
                    by_k.setdefault(k, {}).setdefault(v, {})[u] = c
        for k, w in by_k.items():
            weights.setdefault(k, []).append((b, w))

    table = {}
    for key, vec in f.table.items():
        # close[(u, v)] = <q_u, f(x_k1..x_kn) . p_v>_B, the sum of the
        # V(k0)[u][v] weighted by the coordinates k0 of the value
        close = {(u, v): ctx.pair_b(qs[u], ctx.p.left_act(vec, ps[v]))
                 for u in range(m) for v in range(m)}
        chains = {(): _identity(m, fld)}
        for k in key:
            grown = {}
            for bt, mat in chains.items():
                for b, w in weights.get(k, ()):
                    prod = map_compose(mat, w, fld)
                    if prod:
                        grown[bt + (b,)] = prod
            chains = grown
        for bt, mat in chains.items():
            out = table.setdefault(bt, {})
            for v, col in mat.items():
                for u, c in col.items():
                    _addinto(fld, out, close[(u, v)], c)
    return FullCochain(ctx.b.dim, n, fld, table)


def transfer_psi(ctx, g, n=None):
    """psi^n(g): cochains on B to cochains on A; phi of the swapped context."""
    return transfer_phi(ctx.swap(), g, n)


def homotopy_h(ctx, f, n=None):
    """The homotopy h^n sending an n-cochain on A to an (n-1)-cochain.

    Implemented for n = 2 and n = 3 from the displayed specializations
    h^2 = -h_1 + h_2 and h^3 = -h_1 + h_2 - h_3.  Together with the
    transfers it satisfies h d + d h = Id - psi phi on 2-cochains.
    """
    if n is None:
        n = f.degree
    if n != f.degree:
        raise InputError("cochain degree %d does not match n=%d" % (f.degree, n))
    if f.dim != ctx.a.dim:
        raise InputError("cochain lives on the wrong algebra")
    if n not in (2, 3):
        raise InputError("homotopy is implemented for degrees 2 and 3")
    fld = ctx.field
    alg = ctx.a
    # mixed brackets: ba[j][i] = <p'_j, q_i>_A and ab[i][j] = <p_i, q'_j>_A
    ba = [[ctx.pair_a(pj, qi) for qi, _ in ctx.gens_b] for pj, _ in ctx.gens_a]
    ab = [[ctx.pair_a(pi, qj) for _, qj in ctx.gens_a] for _, pi in ctx.gens_b]
    mp = len(ctx.gens_a)
    m = len(ctx.gens_b)
    table = {}

    def emit(key, vec, sign):
        if not vec:
            return
        tv = table.setdefault(key, {})
        _addinto(fld, tv, vec, sign)
        if not tv:
            table.pop(key, None)

    minus, plus = fld.neg(fld.one), fld.one
    if n == 2:
        for t in range(alg.dim):
            et = {t: fld.one}
            for j in range(mp):
                for i in range(m):
                    emit((t,), f.evaluate(ba[j][i], alg.mul(ab[i][j], et)), minus)
            for j0 in range(mp):
                for i0 in range(m):
                    for j1 in range(mp):
                        for i1 in range(m):
                            inner = f.evaluate(alg.mul(ab[i0][j0], et), ba[j1][i1])
                            val = alg.mul(ba[j0][i0], alg.mul(inner, ab[i1][j1]))
                            emit((t,), val, plus)
    else:
        for t0 in range(alg.dim):
            for t1 in range(alg.dim):
                e0, e1 = {t0: fld.one}, {t1: fld.one}
                key = (t0, t1)
                for j in range(mp):
                    for i in range(m):
                        emit(key, f.evaluate(ba[j][i], alg.mul(ab[i][j], e0), e1), minus)
                for j0 in range(mp):
                    for i0 in range(m):
                        for j1 in range(mp):
                            for i1 in range(m):
                                inner = f.evaluate(alg.mul(ab[i0][j0], e0), ba[j1][i1],
                                                   alg.mul(ab[i1][j1], e1))
                                emit(key, alg.mul(ba[j0][i0], inner), plus)
                for j0 in range(mp):
                    for i0 in range(m):
                        for j1 in range(mp):
                            for i1 in range(m):
                                left = alg.mul(alg.mul(ab[i0][j0], e0), ba[j1][i1])
                                mid = alg.mul(ab[i1][j1], e1)
                                for j2 in range(mp):
                                    for i2 in range(m):
                                        inner = f.evaluate(left, mid, ba[j2][i2])
                                        val = alg.mul(ba[j0][i0],
                                                      alg.mul(inner, ab[i2][j2]))
                                        emit(key, val, minus)
    return FullCochain(alg.dim, n - 1, fld, table)


class DeformedBimodule:
    """Bimodule uple (M0, M1, T, f_M, g_M) over deformed scalars.

    left_def and right_def are the deformed algebras A_f and B_g, each
    keeping its undeformed algebra as base and its cocycle as f (each a
    Deformation); the caller
    has proved d f = 0 and d g = 0, so both are associative.  M0 and M1
    are (A, B)-bimodules, T: M0 -> M1, f_tables[i] the map f_M(e_i (x) -)
    and g_tables[j] the map g_M(- (x) e_j), all sparse maps {column:
    vector} from M0 to M1.  glued is the (A_f, B_g)-bimodule on M0 + M1,
    coordinates of M0 first, under

        (a, b)(m0, m1) = (a m0, a m1 + b T(m0) + f_M(a (x) m0)),
        (m0, m1)(b, c) = (m0 b, m1 b + T(m0) c + g_M(m0 (x) b)),

    built once at construction and checked by violations unless
    check=False.
    """

    def __init__(self, left_def, right_def, m0, m1, t, f_tables, g_tables, check=True):
        self.left_def = left_def
        self.right_def = right_def
        self.left_alg = left_def.base
        self.right_alg = right_def.base
        self.f = left_def.f
        self.g = right_def.f
        self.m0 = m0
        self.m1 = m1
        self.t = t
        self.f_tables = f_tables
        self.g_tables = g_tables
        self.field = left_def.field
        self.glued = self._glue()
        if check:
            bad = self.violations()
            if bad:
                raise InputError("; ".join(bad))

    def violations(self):
        """Every failed uple condition: "T is not injective", then the
        failed axioms of glued, as Bimodule.violations names them (a
        generator and a basis element of A_f or B_g by label, a coordinate
        of M0 + M1 by index).

        Injectivity is the one uple condition that is not a bimodule
        axiom.  The others are the axioms of glued read block by block:
        its M0 and M1 blocks are the actions on M0 and M1; (0, b)(a, 0) =
        (0, ba) acting on (m0, 0) says T(a m0) = a T(m0), and the mirror
        on the right; (a0, 0)(a1, 0) = (a0 a1, f(a0, a1)) acting on (m0, 0)
        is the left correction rule a0 f_M(a1 (x) m0) - f_M(a0 a1 (x) m0)
        + f_M(a0 (x) a1 m0) = f(a0, a1) T(m0), and the mirror gives the
        right one; commutation on (m0, 0) is the compatibility of f_M with
        g_M.  The unit of A_f is (1, 0) (its unit check), so f(1, 1) = 0
        and the left correction rule at (1, 1) says f_M(1 (x) m0) = 0,
        which with M0 and M1 unital is the left unit axiom; the right one
        is the mirror.  A_f and B_g are associative, so checking on their
        generators is complete."""
        out = []
        if _map_rank(self.t, self.field) != self.m0.dim:
            out.append("T is not injective")
        return out + self.glued.violations()

    def _glue(self):
        """The (A_f, B_g)-bimodule on M0 + M1, unchecked."""
        fld = self.field
        n0, n1 = self.m0.dim, self.m1.dim
        na, nb = self.left_alg.dim, self.right_alg.dim
        left, right = {}, {}

        def fill(table, key, top, bottom):
            vec = dict(top)
            for r, c in bottom.items():
                vec[n0 + r] = c
            if vec:
                table[key] = vec

        for m in range(n0):
            tcol = self.t.get(m, {})
            for i in range(na):
                fill(left, (i, m), self.m0.left_basis(i, m), self.f_tables[i].get(m, {}))
                fill(left, (na + i, m), {}, map_apply(self.m1.left_map(i), tcol, fld))
            for j in range(nb):
                fill(right, (m, j), self.m0.right_basis(m, j), self.g_tables[j].get(m, {}))
                fill(right, (m, nb + j), {}, map_apply(self.m1.right_map(j), tcol, fld))
        for m in range(n1):
            for i in range(na):
                vec = self.m1.left_basis(i, m)
                if vec:
                    left[(i, n0 + m)] = {n0 + r: c for r, c in vec.items()}
            for j in range(nb):
                vec = self.m1.right_basis(m, j)
                if vec:
                    right[(n0 + m, j)] = {n0 + r: c for r, c in vec.items()}
        return Bimodule(self.left_def, self.right_def, n0 + n1, left, right, check=False)


def _half(field):
    two = field.add(field.one, field.one)
    if two == field.zero:
        raise CharTwoUnsupported("the deformed bimodule maps divide by 2")
    return field.inv(two)


def build_hat_P(ctx, a_f, b_g, check=True):
    """The deformed bimodule P^ = (P, P, Id, f_P, g_P) over (A_f, B_g),
    for A_f and B_g the Deformations of ctx.a and ctx.b along f and g =
    phi^2(f), both proved to be cocycles by the caller.  check=False
    skips the bimodule check."""
    fld = ctx.field
    half = _half(fld)
    f, g = a_f.f, b_g.f
    p = ctx.p
    h2f = homotopy_h(ctx, f, 2)
    one = fld.one
    f_tables = []
    for i in range(ctx.a.dim):
        ei = {i: one}
        hvec = h2f.value((i,))
        cols = []
        for x in range(p.dim):
            ex = {x: one}
            acc = {}
            for qk, pk in ctx.gens_b:
                val = f.evaluate(ei, ctx.pair_a(ex, qk))
                _addinto(fld, acc, p.left_act(val, pk), one)
            for p0, q0 in ctx.gens_a:
                for p1, q1 in ctx.gens_a:
                    mid = ctx.pair_b(q0, p.left_act(ei, p1))
                    val = g.evaluate(mid, ctx.pair_b(q1, ex))
                    _addinto(fld, acc, p.right_act(p0, val), one)
            _addinto(fld, acc, p.left_act(hvec, ex), one)
            cols.append(_scaled(fld, acc, half))
        f_tables.append(_columns(cols))
    g_tables = []
    for j in range(ctx.b.dim):
        ej = {j: one}
        cols = []
        for x in range(p.dim):
            ex = {x: one}
            acc = {}
            for (qk0, pk0) in ctx.gens_b:
                first = ctx.pair_a(ex, qk0)
                moved = p.right_act(pk0, ej)
                for (qk1, pk1) in ctx.gens_b:
                    val = f.evaluate(first, ctx.pair_a(moved, qk1))
                    _addinto(fld, acc, p.left_act(val, pk1), one)
            for p0, q0 in ctx.gens_a:
                val = g.evaluate(ctx.pair_b(q0, ex), ej)
                _addinto(fld, acc, p.right_act(p0, val), one)
            cols.append(_scaled(fld, acc, half))
        g_tables.append(_columns(cols))
    return DeformedBimodule(a_f, b_g, p, p, _identity(p.dim, fld),
                            f_tables, g_tables, check=check)


def build_hat_Q(ctx, a_f, b_g, check=True):
    """The deformed bimodule Q^ = (Q, Q, Id, g_Q, f_Q) over (B_g, A_f),
    for A_f and B_g as in build_hat_P.  check=False skips the bimodule
    check."""
    fld = ctx.field
    half = _half(fld)
    f, g = a_f.f, b_g.f
    q = ctx.q
    h2f = homotopy_h(ctx, f, 2)
    one = fld.one
    g_tables = []
    for j in range(ctx.b.dim):
        ej = {j: one}
        cols = []
        for y in range(q.dim):
            ey = {y: one}
            acc = {}
            for (qk0, pk0) in ctx.gens_b:
                moved = ctx.p.right_act(pk0, ej)
                for (qk1, pk1) in ctx.gens_b:
                    val = f.evaluate(ctx.pair_a(moved, qk1), ctx.pair_a(pk1, ey))
                    _addinto(fld, acc, q.right_act(qk0, val), one)
            for p0, q0 in ctx.gens_a:
                val = g.evaluate(ej, ctx.pair_b(ey, p0))
                _addinto(fld, acc, q.left_act(val, q0), one)
            cols.append(_scaled(fld, acc, half))
        g_tables.append(_columns(cols))
    f_tables = []
    for i in range(ctx.a.dim):
        ei = {i: one}
        hvec = h2f.value((i,))
        cols = []
        for y in range(q.dim):
            ey = {y: one}
            acc = {}
            for qk, pk in ctx.gens_b:
                val = f.evaluate(ctx.pair_a(pk, ey), ei)
                _addinto(fld, acc, q.right_act(qk, val), one)
            for p0, q0 in ctx.gens_a:
                first = ctx.pair_b(ey, p0)
                for p1, q1 in ctx.gens_a:
                    val = g.evaluate(first, ctx.pair_b(q0, ctx.p.left_act(ei, p1)))
                    _addinto(fld, acc, q.left_act(val, q1), one)
            _addinto(fld, acc, q.right_act(ey, hvec), one)
            cols.append(_scaled(fld, acc, half))
        f_tables.append(_columns(cols))
    return DeformedBimodule(b_g, a_f, q, q, _identity(q.dim, fld),
                            g_tables, f_tables, check=check)


def triple_violations(src, tgt, u0, u1, u2):
    """Failures of (u0, u1, u2) as a morphism of bimodule uples, for sparse
    maps u0: M0 -> M0', u1: M0 -> M1' and u2: M1 -> M1'.

    A triple is a morphism exactly when the block map [[u0, 0], [u1, u2]]
    from src.glued to tgt.glued intertwines both actions: read block by
    block, that is the linearity of u0 and u2, the square T' u0 = u2 T
    and the correction rule u1(a m0) = a u1(m0) - u2(f_M(a (x) m0)) +
    f_N(a (x) u0(m0)) with its mirror on the right.  It is checked on the
    generators of A_f and B_g, left ones first, and each message names a
    generator and a coordinate m of M0 + M1 where the two sides differ.
    Both glues are bimodules, so the elements whose actions the map
    intertwines form a subalgebra holding 1, which is everything once
    it holds the generators."""
    fld = src.field
    x, y = src.glued, tgt.glued
    u = _lower_block(u0, u1, u2, src.m0.dim, tgt.m0.dim)
    out = []
    for side, alg, xmap, ymap in (("left", src.left_def, x.left_map, y.left_map),
                                  ("right", src.right_def, x.right_map, y.right_map)):
        for i in alg.generators():
            lhs = map_compose(u, xmap(i), fld)
            rhs = map_compose(ymap(i), u, fld)
            for m in _differing_columns(lhs, rhs, x.dim):
                out.append("the triple does not intertwine the %s action of %s at %d"
                           % (side, alg.labels[i], m))
    return out


def _deformed_pairing(ctx, hat):
    """The pairing w: hat P x hat Q -> A_f of the deformed context, for hat
    the uple of P over (A_f, B_g); with ctx.swap() and hat Q it is the
    pairing into B_g.  In hat P, x < pdim is (x, 0) and pdim + x is
    (0, x), likewise in hat Q, and t e_r is ns + r in A_f.  For gens_b =
    [(q_k, p_k)] and c_x = sum_k f_P(<x, q_k> (x) p_k), the lower half of
    sum_k (<x, q_k>, 0)(p_k, 0) = (x, c_x) in hat P:

        w((x, 0), (y, 0)) = sum_k (<x, q_k>, 0)(<p_k, y>, 0) - t <c_x, y>
                          = (<x, y>, sum_k f(<x, q_k>, <p_k, y>) - <c_x, y>),
        w((0, x), (y, 0)) = w((x, 0), (0, y)) = t <x, y>,  w((0, x), (0, y)) = 0.

    The plain generator lists decompose the deformed units, so none is
    corrected.  Let v = sum_k w_B((q_k, 0), (p_k, 0)) = (1, s) in B_g.
    Summed over gens_b, the associativity w(x^, y^) x'^ = x^ w_B(y^, x'^),
    checked before the units, gives (x, 0) v = (x, x s) on the right (as
    g_P(x (x) 1) = 0) and, on the left, (x, sum_lk f(<x, q_l>, H_lk) p_k)
    for H_lk = <p_l, q_k>_A, the c terms cancelling by the recovery sum_k
    <z, q_k> p_k = z.  With <x, q_l> = sum_m <x, q_m> H_ml, d f = 0 and
    H^2 = H, that is sum_m <x, q_m> sum_lk f(H_ml, H_lk) p_k, and s =
    sum_k <q_k, p_k s>_B.  So s = 0 when f vanishes on pairs of brackets:
    a matrix context has H_lk in {0, 1} and f(1, 1) = 0, as (1, 0) is the
    unit of A_f; a corner eAe has H = (e) and needs f(e, e) e = 0.  The
    mirror over gens_a uses g and the brackets <q'_j, p'_j'>_B, which in
    a matrix context are E_11, with g(E_11, E_11) = <q_1, f(1, 1) p_1>_B
    = 0.  The unit check stays exact for any other context.
    """
    fld = ctx.field
    one, minus = fld.one, fld.neg(fld.one)
    ns, pdim, qdim = ctx.a.dim, ctx.p.dim, ctx.q.dim
    out = {}
    for x in range(pdim):
        ex = {x: one}
        firsts = [(ctx.pair_a(ex, qk), pk) for qk, pk in ctx.gens_b]
        moved = {}
        for a, pk in firsts:
            _addinto(fld, moved, hat.glued.left_act(a, pk), one)
        c_x = {r - pdim: c for r, c in moved.items() if r >= pdim}
        for y in range(qdim):
            ey = {y: one}
            vec = _scaled(fld, {ns + r: c for r, c in ctx.pair_a(c_x, ey).items()}, minus)
            for a, pk in firsts:
                _addinto(fld, vec, hat.left_def.mul(a, ctx.pair_a(pk, ey)), one)
            out[(x, y)] = vec
            out[(pdim + x, y)] = out[(x, qdim + y)] = \
                {ns + r: c for r, c in ctx.pair_a(ex, ey).items()}
    return out


# the 13 lines of each side of the certificate and their details on a
# pass, for a side algebra of dimension ns: {0} is 2 ns, {1} is ns
SIDE_LINES = (
    ("tensor-dimension", "dim {0}, expected {0}"),
    ("central-t-action", "left and right action of (0, 1) on the tensor"),
    ("second-slot-collapse", "(0, x) (x) (0, y) vanishes in the tensor"),
    ("kernel-description", "(x, 0) (x) (0, y) spans ker T: rank {1}, nullity {1}"),
    ("complement-split", "corrected generators complement the kernel"),
    ("t-isomorphism", "T maps the complement bijectively onto the kernel"),
    ("summands-stable", "both splitting summands are stable under the plain action"),
    ("quotient-uple", "carved uple conditions: all hold"),
    ("pairing-morphism", "w = (w0, w1, w2) is a morphism of uples"),
    ("pairing-well-defined", "w agrees with its defining formulas on all pure generators"),
    ("pairing-invertible", "w0 and w2 are invertible"),
    ("inverse-morphism", "the inverse triple composes to the identity both ways"),
    ("concrete-isomorphism", "glued w intertwines both deformed actions"),
)


def verify_morita_deformed(ctx, f):
    """Full certificate that hat P (x) hat Q = A_f and hat Q (x) hat P = B_g.

    Returns a list of (name, passed, detail) triples: the transferred
    cocycle, the deformed bimodules hat P and hat Q, and the SIDE_LINES of
    each side.  Once hat P and hat Q are checked, both sides are one
    context over (A_f, B_g): their glues, the pairings of
    _deformed_pairing and the plain generator lists.  Its axioms are
    checked once, and the Morita context lemma (MoritaContext._validate)
    makes the pairing an isomorphism of A_f-bimodules W: hat P (x)_{B_g}
    hat Q -> A_f, and its mirror one onto B_g.  If the check raises, every
    side line fails with its message as the witness.  Otherwise each line
    follows from W, on the A side (the B side is the mirror, ns = dim B):

    - tensor-dimension: the tensor has dimension dim A_f = 2 ns;
    - central-t-action: t = (0, 1) is central in A_f and W is bilinear;
    - second-slot-collapse: (0, x) = t (x, 0) and (0, y) = (y, 0) t, so
      W((0, x) (x) (0, y)) = t^2 <x, y> = 0, and W is injective;
    - kernel-description: ker(t.) is t A_f, of dimension ns, the image of
      the (x, 0) (x) (0, y) under W, as <P, Q>_A = A: rank and nullity ns;
    - complement-split, t-isomorphism: the (x, 0) (x) (y, 0) go to
      (<x, y>, .), which span A_f modulo t A_f, and t. maps A_f / t A_f =
      A onto t A_f bijectively;
    - summands-stable: t A_f is a two-sided ideal;
    - quotient-uple: the carve is the regular uple (A, A, Id, f, f),
      whose glue is A_f as a bimodule over itself;
    - pairing-morphism, pairing-well-defined: W is balanced over B_g and
      linear over A_f on both sides, the checked axioms;
    - pairing-invertible, inverse-morphism, concrete-isomorphism: W is
      bijective, w0 and w2 are W modulo t and on t A_f, and the inverse of
      a bimodule isomorphism is one.
    """
    _half(ctx.field)
    if f.degree != 2 or f.dim != ctx.a.dim:
        raise InputError("expected a 2-cochain on A")
    if not is_full_cocycle(f, ctx.a):
        raise InputError("f must be a Hochschild 2-cocycle on A")
    g = transfer_phi(ctx, f, 2)
    checks = [("transferred-cocycle", is_full_cocycle(g, ctx.b),
               "phi^2(f) is a 2-cocycle on B")]
    if not checks[0][1]:
        # B_g is not associative, so no generator check over it is complete
        skipped = "skipped: phi^2(f) is not a cocycle"
        return checks + [("deformed-p-bimodule", False, skipped),
                         ("deformed-q-bimodule", False, skipped)]
    # d f = 0 and d g = 0 were proved above
    s_def = Deformation(ctx.a, f)
    t_def = Deformation(ctx.b, g)
    hat_p = build_hat_P(ctx, s_def, t_def, check=False)
    bad = hat_p.violations()
    checks.append(("deformed-p-bimodule", not bad,
                   bad[0] if bad else "hat P satisfies all bimodule conditions"))
    hat_q = build_hat_Q(ctx, s_def, t_def, check=False)
    bad = hat_q.violations()
    checks.append(("deformed-q-bimodule", not bad,
                   bad[0] if bad else "hat Q satisfies all bimodule conditions"))
    if not all(ok for _, ok, _ in checks):
        return checks
    deformed = MoritaContext(s_def, t_def, hat_p.glued, hat_q.glued,
                             _deformed_pairing(ctx, hat_p),
                             _deformed_pairing(ctx.swap(), hat_q),
                             ctx.gens_a, ctx.gens_b, check=False)
    try:
        deformed._validate()
        witness = None
    except InputError as exc:
        witness = str(exc)
    for prefix, ns in (("A-side:", ctx.a.dim), ("B-side:", ctx.b.dim)):
        checks += [(prefix + name, witness is None, witness or detail.format(2 * ns, ns))
                   for name, detail in SIDE_LINES]
    return checks
