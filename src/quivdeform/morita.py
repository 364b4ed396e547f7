"""Transfer of cochains across a Morita context, and the deformed equivalence.

This layer works with the structure-constant algebras of the linalg
module (FinDimAlgebra), so that a path-algebra quotient, a matrix
amplification and a corner algebra all go through the same code; the
deformed algebras A_f and B_g come from the deform module's builder,
which verify_morita_deformed reaches only when its check fails, after
it has proved d f = 0 and d g = 0, so each cocycle is checked once.
Elements are sparse coordinate dicts {basis_index: scalar} and linear
maps are sparse maps {column: {row: scalar}}, both handled by the
linalg helpers, so no layer here builds a dense matrix; cochains are
the FullCochain tables from the hochschild module.

A MoritaContext fixes the two algebras, the inverse bimodules, both
pairings and one finite generator list on each side:

    1_A = sum <p'_j, q'_j>_A   over gens_a = [(p'_j, q'_j)],
    1_B = sum <q_i, p_i>_B     over gens_b = [(q_i, p_i)].

The transfer maps phi/psi, the homotopy h and every construction below are
literal in those lists, so two contexts for the same pair of algebras may
disagree on raw cochains while agreeing on cohomology classes.

Every axiom is checked by one engine, the unit and associativity checks
of FinDimAlgebra, on a ring of 2 x 2 block matrices built by block_ring:
an (A, B)-bimodule M as its triangular ring [[A, M], [0, B]]
(Bimodule.violations) and a context as its Morita ring [[A, P], [Q, B]]
(MoritaContext.ring), the first failure named by ring_failure.  The
ring is associative and unital exactly when A and B are algebras, P and
Q bimodules and the pairings linear, balanced and associative, so one
check proves every axiom at once, the associativity of the acting
algebras included.  A bimodule uple is checked as the (A_f, B_g)-
bimodule it glues to, and a morphism of uples as a map between the
glues (DeformedBimodule and triple_violations give the proofs).  The
bijectivity of the induced maps P (x)_B Q -> A and Q (x)_A P -> B, and
the recovery of P and Q through the generator lists, are consequences
(MoritaContext._validate gives both proofs).

The deformed equivalence is one more context, over (A_f, B_g), from
the glues of the deformed bimodules hat P and hat Q, the deformed
pairings and the plain generator lists.  Its ring is the deformation
R_F of the plain Morita ring R along one 2-cochain F on R, whose blocks
are f, g, the correction maps of hat P and hat Q and the t-parts of the
pairings (_deformation_blocks), and R_F is associative exactly when R is
and d F = 0 (Gerstenhaber, Ann. Math. 1964).  verify_morita_deformed
checks it on R, which the context has already proved, by the unit of
R_F, d F on R's left factors and the generator sums of F
(_deformation_failure), without building R_F, A_f, B_g or either glue;
its docstring proves the four checks exact.  A pass proves both glues
bimodules, and the Morita context lemma gives hat P (x)_{B_g} hat Q =
A_f and hat Q (x)_{A_f} hat P = B_g, from which each of the 13 report
lines per side follows.  No balanced product is built: TensorProduct,
which builds one, is the reference that the tests compare against.

transfer_phi and transfer_psi work from the support of the cochain: one
chain of pair weights per key of its table, so the cost follows the
number of nonzero entries, not the number of basis tuples of B.
homotopy_h is the one sum h^n = sum_l (-1)^l h_l of the paper in every
degree, its chains of generator pairs grown as those of transfer_phi.
Every context is built as one corner context (_corner_context): eCe
against C through eC and Ce, each table read off the product of C.  A
matrix context is the corner of C = M_n(A) at E_11, with eCe read as A
and the matrix units as generators of 1_C; an idempotent context is the
swap of the corner of A at e.  hat P and hat Q are one builder too
(_hat): hat Q is hat P of the swapped context.
"""

from itertools import product

from .deform import Deformation
from .errors import (CharTwoUnsupported, InputError, NotFullIdempotent,
                     SizeLimitExceeded)
from .fields import _rational
from .hochschild import FullCochain, full_differential
from .linalg import (FinDimAlgebra, SpanSolver, _action, _addinto, _bilinear, _clean,
                     _columns, _differing_columns, _identity, _lower_block, _map_rank,
                     _scaled, deformation_witness, map_apply, map_compose)


def block_ring(a, b, p, q=None, pairing_a=None, pairing_b=None):
    """The ring [[A, P], [Q, B]] as an unchecked FinDimAlgebra, for an
    (A, B)-bimodule P and, unless q is None, a (B, A)-bimodule Q with the
    pairings pairing_a of P x Q into A and pairing_b of Q x P into B.

    Its basis is that of A, then P, then Q, then B, labelled a:x, p3, q0
    and b:y for a label x of A and y of B.  Its product is

        (a, p, q, b)(a', p', q', b') = (a a' + <p, q'>_A, a p' + p b',
                                        q a' + b q', <q, p'>_B + b b'),

    read off the tables of A and B, the actions on P and Q and the two
    pairings (_block_table), and its unit is 1_A + 1_B.  With q None the
    Q block and both pairings are left out: that is the triangular ring
    [[A, P], [0, B]], the Morita ring of Q = 0."""
    at_p = a.dim
    at_q = at_p + p.dim
    at_b = at_q + (q.dim if q is not None else 0)
    quads = (q.left, q.right, pairing_a, pairing_b) if q is not None else ()
    table = _block_table((at_p, at_q, at_b), a.table, p.left, p.right, b.table, *quads)
    unit = dict(a.unit)
    unit.update((at_b + k, c) for k, c in b.unit.items())
    labels = (["a:" + x for x in a.labels] + ["p%d" % i for i in range(p.dim)]
              + ["q%d" % j for j in range(at_b - at_q)] + ["b:" + y for y in b.labels])
    return FinDimAlgebra(a.field, at_b + b.dim, table, unit, labels, check=False)


def _block_table(starts, on_a, p_left, p_right, on_b, q_left=None, q_right=None,
                 pairing_a=None, pairing_b=None):
    """One table {(x, y): vector} on the basis A, P, Q, B of a block ring,
    whose blocks P, Q and B start at starts = (at_p, at_q, at_b), from its
    eight blocks, each keyed by the indices within its two factors: A x A
    and B x B, the actions A x P, P x B, B x Q and Q x A, and the pairings
    P x Q into A and Q x P into B.  With q_left None the four Q blocks are
    left out."""
    at_p, at_q, at_b = starts
    blocks = [(0, 0, 0, on_a), (0, at_p, at_p, p_left), (at_p, at_b, at_p, p_right)]
    if q_left is not None:
        blocks += [(at_p, at_q, 0, pairing_a), (at_b, at_q, at_q, q_left),
                   (at_q, 0, at_q, q_right), (at_q, at_p, at_b, pairing_b)]
    blocks.append((at_b, at_b, at_b, on_b))
    table = {}
    for rows, cols, out, products in blocks:
        for (x, y), vec in products.items():
            table[(rows + x, cols + y)] = {out + k: c for k, c in vec.items()}
    return table


def ring_failure(ring, name):
    """None, or the message of the first failure of ring as an associative
    unital algebra, under the name given: FinDimAlgebra.check_unit on
    every basis element, then the first triple of associativity_witness,
    each named by the ring's labels."""
    try:
        ring.check_unit()
    except InputError as exc:
        return "%s: %s" % (name, exc)
    bad = ring.associativity_witness()
    if bad is not None:
        return "%s is not associative at (%s, %s, %s)" % (
            (name,) + tuple(ring.labels[x] for x in bad))
    return None


class Bimodule:
    """Left module over left_alg and right module over right_alg.

    left[(i, m)] = coordinates of e_i . x_m, right[(m, j)] = x_m . e_j.
    left_map(i) and right_map(j) are the two actions of one basis element
    as sparse maps {m: vector}.  Unless check=False, the bimodule is
    checked as its triangular ring (see violations), and the first
    failure raises InputError.
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
                raise InputError(bad[0])

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
        """[] or the one message of ring_failure on the bimodule ring
        [[A, M], [0, B]] (block_ring with no Q), which names a basis element
        of A or B by a: or b: and its label, and a coordinate m of M as
        p<m>.  The ring is associative and unital exactly when A and B are
        algebras and M is a unital bimodule (MoritaContext._validate, with
        Q = 0), so the check also proves A and B associative."""
        bad = ring_failure(block_ring(self.left_alg, self.right_alg, self),
                           "the bimodule ring")
        return [bad] if bad else []


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
    Unless check=False, the Morita ring (see ring) is checked to be an
    associative unital algebra, which proves the algebras, both
    bimodules and both pairings at once, and gens_a and gens_b to give
    the units.  That the pairings induce bijections from the balanced
    products onto a and b, and that every element of P and Q is
    recovered through gens_a and gens_b, follows from these (see
    _validate), so neither is computed.  A checked context keeps its ring
    and the ring's left factors (proved_ring), and so does its swap.
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
        self._proved = None
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

    def ring(self):
        """The Morita ring [[A, P], [Q, B]] of the context (block_ring)."""
        return block_ring(self.a, self.b, self.p, self.q, self.pairing_a, self.pairing_b)

    def proved_ring(self):
        """(R, factors): the Morita ring R, proved unital and associative
        with the generator lists, and its left factors factors =
        R.unit_and_generators(), on which checks on generators run.

        A context that was not checked checks itself on the first call,
        and raises InputError at its first failed axiom.  The swap of a
        proved context is proved by its mirror: its ring is the mirror's
        with the blocks in the order B, Q, P, A, and it takes the mirror's
        generators, moved to that order, as its own."""
        if self._proved is None:
            mirror = self._swapped._proved if self._swapped is not None else None
            if mirror is None:
                self._validate()
            else:
                na, np_, nq, nb = self.a.dim, self.p.dim, self.q.dim, self.b.dim
                # index in the mirror's ring -> index in this ring
                moved = [at + i for at, n in ((na + np_ + nq, nb), (na + np_, nq), (na, np_),
                                              (0, na)) for i in range(n)]
                ring = self.ring()
                ring._generators = sorted(moved[g] for g in mirror[0].generators())
                self._proved = (ring, ring.unit_and_generators())
        return self._proved

    def _validate(self):
        """Raise InputError at the first failed axiom of the context.

        P must act over (a, b) and Q over (b, a).  Then the ring is
        checked by ring_failure: its unit on every basis element, and its
        associativity on the triples of
        FinDimAlgebra.associativity_witness, whose first failing triple
        the error names.  Last, gens_a must decompose 1_A and gens_b 1_B.

        The ring is associative and unital exactly when A and B are
        associative, P and Q are unital bimodules, the pairings are
        linear and balanced, and both associativities hold.  The product
        is bilinear, so associativity is (x y) z = x (y z) on basis
        triples.  The product of two blocks is 0 unless they chain as
        matrix units do, so both sides of a triple vanish unless its
        blocks chain, and 16 kinds of triple remain.  (A, A, A) and (B,
        B, B) are the associativity of A and B.  (A, A, P), (P, B, B)
        and (A, P, B) are the left and right associativity of P and the
        commutation of its actions, and (B, B, Q), (Q, A, A), (B, Q, A)
        the same for Q.  (A, P, Q) is <a.p, q> = a.<p, q>, (P, Q, A) is
        <p, q.a> = <p, q>.a and (P, B, Q) is <p.b, q> = <p, b.q>: the
        pairing into A is linear on both sides and balanced.  (B, Q, P),
        (Q, P, B) and (Q, A, P) say the same of the pairing into B.  (P,
        Q, P) is <p, q>_A p' = p <q, p'>_B and (Q, P, Q) is <q, p>_B q' =
        q <p, q'>_A.  The unit 1_A + 1_B acts as the identity on each
        block exactly when 1_A and 1_B are units and P and Q are unital.
        This is the classical reading of a Morita context as the ring of
        its 2 x 2 matrices.

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

        On success the ring and its left factors are kept (proved_ring).
        """
        a, b, p, q = self.a, self.b, self.p, self.q
        if p.left_alg is not a or p.right_alg is not b:
            raise InputError("P must be an (A, B)-bimodule")
        if q.left_alg is not b or q.right_alg is not a:
            raise InputError("Q must be a (B, A)-bimodule")
        ring = self.ring()
        bad = (ring_failure(ring, "the Morita ring")
               or _decomposition_failure(self, "a", self.pair_a, a.unit, a.labels)
               or _decomposition_failure(self, "b", self.pair_b, b.unit, b.labels))
        if bad:
            raise InputError(bad)
        self._proved = (ring, ring.unit_and_generators())


def _decomposition_failure(ctx, side, pair, unit, labels):
    """None, or "gens_a do not decompose 1_A at a:x" for side "a" (and
    "gens_b ... 1_B at b:x" for "b"): the sum of pair(u, v) over the pairs
    (u, v) of ctx.gens_a (or gens_b) differs from unit, first at the
    coordinate labelled x."""
    fld = ctx.field
    total = _scaled(fld, unit, fld.neg(fld.one))
    for u, v in (ctx.gens_a if side == "a" else ctx.gens_b):
        _addinto(fld, total, pair(u, v), fld.one)
    if total:
        return "gens_%s do not decompose 1_%s at %s:%s" % (side, side.upper(), side,
                                                           labels[min(total)])
    return None


def _corner_context(c, e, corner=None, gens=None):
    """The corner eCe against C, through P = eC and Q = Ce, for an
    idempotent e of C; both pairings are the product of C, gens_a is
    [(e, e)].  eCe, eC and Ce have the greedy bases of the images e x e,
    e x and x e of the basis of C.  corner is the algebra read as eCe in
    its basis and gens the pairs (x e, e y) of C that decompose 1_C; if
    not given, eCe is built and gens_b solved, and NotFullIdempotent is
    raised when CeC is a proper ideal.  eCe, P and Q are unchecked: the
    check of the context's ring proves them.
    """
    fld = c.field
    e = _clean(fld, e)
    if c.mul(e, e) != e:
        raise InputError("the given element is not idempotent")

    def span_of(images):
        """A basis of the span of images, and the coordinates in it of a
        vector of the span."""
        solver = SpanSolver(fld)
        basis = []
        for vec in images:
            if vec and solver.add(vec, len(basis)):
                basis.append(vec)

        def coords(vec):
            combo = solver.express(vec)
            if combo is None:
                raise InputError("product escapes the expected subspace")
            return _clean(fld, combo)
        return basis, coords

    def products(xs, ys, coords):
        """{(r, s): coords(xs[r] ys[s])} over the nonzero products."""
        out = {}
        for r, x in enumerate(xs):
            for s, y in enumerate(ys):
                vec = c.mul(x, y)
                if vec:
                    out[(r, s)] = coords(vec)
        return out

    units = [{i: fld.one} for i in range(c.dim)]
    abasis, acoords = span_of(c.mul(e, c.mul(x, e)) for x in units)
    pbasis, pcoords = span_of(c.mul(e, x) for x in units)
    qbasis, qcoords = span_of(c.mul(x, e) for x in units)
    if corner is None:
        corner = FinDimAlgebra(fld, len(abasis), products(abasis, abasis, acoords),
                               acoords(e), check=False)
    p = Bimodule(corner, c, len(pbasis), products(abasis, pbasis, pcoords),
                 products(pbasis, units, pcoords), check=False)
    q = Bimodule(c, corner, len(qbasis), products(units, qbasis, qcoords),
                 products(qbasis, abasis, qcoords), check=False)
    pairing_b = products(qbasis, pbasis, dict)
    if gens is None:
        witness = SpanSolver(fld)
        for rs, vec in sorted(pairing_b.items()):
            witness.add(vec, rs)
        combo = witness.express(c.unit)
        if combo is None:
            raise NotFullIdempotent("AeA is a proper ideal; e is not full")
        gens_b = [({r: x}, {s: fld.one}) for (r, s), x in sorted(combo.items())]
    else:
        gens_b = [(qcoords(x), pcoords(y)) for x, y in gens]
    return MoritaContext(corner, c, p, q, products(pbasis, qbasis, acoords), pairing_b,
                         [(pcoords(e), qcoords(e))], gens_b)


# The largest dimension n^2 dim A of M_n(A) that matrix_context builds.
# The certificate's checks grow with the square or the cube of it:
# verify-morita on k[x]/(x^6) at n = 3 (dimension 54), with the cocycle of
# x^6 = t, takes 0.13-0.23 s end to end (medians of 5 runs in each of 6
# sessions on a shared 2-core machine, Python 3.11), and each doubling of
# the dimension multiplies that by 4 to 8.
MAX_MATRIX_DIM = 64


def matrix_context(alg, n):
    """A against the matrix amplification M_n(A): the corner context of
    C = M_n(A) at e = E_11 1_A (_corner_context), with eCe read as alg.

    C has the basis E_rc x_g, flattened (r*n + c)*dim + g.  P = eC is the
    first row A^(1 x n) of C and Q = Ce its first column, both pairings
    are matrix products, gens_a = [(E_11, E_11)] and gens_b the matrix
    units [(E_r1, E_1r)].  Raises SizeLimitExceeded, before building
    anything, when n^2 dim A is above MAX_MATRIX_DIM.
    """
    if n < 1:
        raise InputError("matrix amplification needs n >= 1")
    if n * n * alg.dim > MAX_MATRIX_DIM:
        raise SizeLimitExceeded("M_%d(A) would have dimension %d, above the limit %d"
                                % (n, n * n * alg.dim, MAX_MATRIX_DIM))
    d = alg.dim

    def at(r, c, g):
        return (r * n + c) * d + g

    def unit(r, c):
        """E_rc 1_A as a vector of M_n(A)."""
        return {at(r, c, u): x for u, x in alg.unit.items()}

    table = {(at(r, c, g), at(c, c2, h)): {at(r, c2, k): x
                                           for k, x in alg.multiply_basis(g, h).items()}
             for r, c, g, c2, h in product(range(n), range(n), range(d), range(n), range(d))}
    labels = ["E%d%d*%s" % (r + 1, c + 1, x) for r in range(n) for c in range(n)
              for x in alg.labels]
    mat = FinDimAlgebra(alg.field, n * n * d, table,
                        {k: x for r in range(n) for k, x in unit(r, r).items()}, labels,
                        check=False)
    return _corner_context(mat, unit(0, 0), alg, [(unit(r, 0), unit(0, r)) for r in range(n)])


def idempotent_context(alg, evec):
    """A against the corner algebra eAe, through P = Ae and Q = eA: the
    swap of the corner context of A at e (_corner_context), so gens_b is
    [(e, e)] and gens_a the solved decomposition of 1_A.

    Raises NotFullIdempotent when 1_A cannot be written as a sum of
    products (x e)(e y), that is when AeA is a proper ideal.
    """
    return _corner_context(alg, evec).swap()


def transfer_phi(ctx, f):
    """phi^n(f) for the degree n of f: cochains on A to cochains on B,
    literal in gens_b.

    phi^n(f)(b_1..b_n) is the sum over generator indices u_0..u_n of

        <q_u0, f(<p_u0, b_1 q_u1>_A, ..., <p_u(n-1), b_n q_un>_A) p_un>_B

    with gens_b = [(q_u, p_u)].  It is computed from the support of f: a
    key (k_1..k_n) of f.table chains the pair weights W(b, k)[u][v] =
    coeff_k <p_u, b . q_v>_A to W(b_1, k_1) ... W(b_n, k_n), one map on
    generator indices per tuple (b_1..b_n), and each coordinate k0 of the
    value f(x_k1..x_kn) closes the chain through V(k0)[u][v] =
    <q_u, x_k0 . p_v>_B.  The zero cochain costs nothing.
    """
    n = f.degree
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


def transfer_psi(ctx, g):
    """psi^n(g): cochains on B to cochains on A; phi of the swapped context."""
    return transfer_phi(ctx.swap(), g)


def homotopy_h(ctx, f):
    """The homotopy h^n sending an n-cochain f on A to an (n-1)-cochain,
    for n = 2 and n = 3: h^n = sum_{l=1..n} (-1)^l h_l, which is h^2 =
    -h_1 + h_2 and h^3 = -h_1 + h_2 - h_3.

    h_l sums over chains of l pairs of generator indices, gens_a outer.
    The k-th pair (j, i) of a chain gives X_k = <p'_j, q_i>_A and Y_k =
    <p_i, q'_j>_A, for gens_a = [(p'_j, q'_j)] and gens_b = [(q_i, p_i)]:

        h_l(f)(a_1..a_(n-1)) = sum X_0 f(Y_0 a_1 X_1, ..., Y_(l-3) a_(l-2) X_(l-2),
                                         Y_(l-2) a_(l-1), X_(l-1), Y_(l-1) a_l,
                                         a_(l+1), ..., a_(n-1)) Y_(l-1),

    where the argument Y_(l-1) a_l is there for l < n and the factor
    Y_(l-1) on the right for l = n, and h_1 has X_0 as its first
    argument instead of as a factor on the left.  Each chain is grown
    one pair at a time, so the arguments of a prefix are computed once
    for all its extensions.  Together with the transfers h satisfies
    h d + d h = Id - psi phi on 2-cochains.
    """
    n = f.degree
    if f.dim != ctx.a.dim:
        raise InputError("cochain lives on the wrong algebra")
    if n not in (2, 3):
        raise InputError("homotopy is implemented for degrees 2 and 3")
    fld = ctx.field
    alg = ctx.a
    one, minus = fld.one, fld.neg(fld.one)
    pairs = [(ctx.pair_a(pj, qi), ctx.pair_a(pi, qj))
             for pj, qj in ctx.gens_a for qi, pi in ctx.gens_b]
    table = {}
    for key in product(range(alg.dim), repeat=n - 1):
        args_a = [{t: one} for t in key]
        # ya[k][u] = Y_u a_(k+1) for the u-th pair (X_u, Y_u)
        ya = [[alg.mul(y, a) for _, y in pairs] for a in args_a]
        out = {}
        for l in range(1, n + 1):
            # a chain is (left factor or None, arguments so far, index of
            # its last pair); a zero factor or argument makes its terms 0
            chains = [(x, [], u) if l > 1 else (None, [x], u)
                      for u, (x, _) in enumerate(pairs) if x]
            for k in range(1, l):
                grown = []
                for left, args, u in chains:
                    head = ya[k - 1][u]
                    if not head:
                        continue
                    for v, (x, _) in enumerate(pairs):
                        tail = [alg.mul(head, x)] if k < l - 1 else [head, x]
                        if all(tail):
                            grown.append((left, args + tail, v))
                chains = grown
            sign = one if l % 2 == 0 else minus
            for left, args, u in chains:
                if l < n:
                    val = f.evaluate(*args, ya[l - 1][u], *args_a[l:])
                    if left is not None:
                        val = alg.mul(left, val)
                else:
                    val = alg.mul(alg.mul(left, f.evaluate(*args)), pairs[u][1])
                _addinto(fld, out, val, sign)
        if out:
            table[key] = out
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

    built once at construction, unchecked; violations checks it.
    """

    def __init__(self, left_def, right_def, m0, m1, t, f_tables, g_tables):
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

    def violations(self):
        """Every failed uple condition: "T is not injective", then the
        first failure of glued, as Bimodule.violations names it (a basis
        element of A_f or B_g by a: or b: and its label, a coordinate m of
        M0 + M1 as p<m>).

        Injectivity is the one uple condition that is not a bimodule
        axiom.  The others are the axioms of glued read block by block:
        its M0 and M1 blocks are the actions on M0 and M1; (0, b)(a, 0) =
        (0, ba) acting on (m0, 0) says T(a m0) = a T(m0), and the mirror
        on the right; (a0, 0)(a1, 0) = (a0 a1, f(a0, a1)) acting on (m0, 0)
        is the left correction rule a0 f_M(a1 (x) m0) - f_M(a0 a1 (x) m0)
        + f_M(a0 (x) a1 m0) = f(a0, a1) T(m0), and the mirror gives the
        right one; commutation on (m0, 0) is the compatibility of f_M with
        g_M.  The unit of A_f is (1, 0), which the ring's unit check
        proves, so f(1, 1) = 0 and the left correction rule at (1, 1)
        says f_M(1 (x) m0) = 0, which with M0 and M1 unital is the left
        unit axiom; the right one is the mirror.  The ring check also
        proves A_f and B_g associative, that is d f = 0 and d g = 0."""
        injective = _map_rank(self.t, self.field) == self.m0.dim
        return ([] if injective else ["T is not injective"]) + self.glued.violations()

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


def _halver(field):
    """vec -> vec / 2 on coordinate dicts without zeros, exact over Q, so an
    even int stays an int; characteristic 2 raises CharTwoUnsupported."""
    two = field.add(field.one, field.one)
    if two == field.zero:
        raise CharTwoUnsupported("the deformed bimodule maps divide by 2")
    if field.char:
        half = field.inv(two)
        return lambda vec: {k: field.mul(half, v) for k, v in vec.items()}
    return lambda vec: {k: _rational(v.numerator, 2 * v.denominator) for k, v in vec.items()}


def _hat(ctx, f, g, h_left, h_right):
    """(f_tables, g_tables): the maps f_P and g_P of the deformed bimodule
    (P, P, Id, f_P, g_P) over (A_f, B_g), as DeformedBimodule takes them,
    for cocycles f on ctx.a and g on ctx.b proved by the caller.  f_P
    carries the term h_left(e_i) x of a 1-cochain on A, g_P the term x
    h_right(e_j) of one on B.  Each pairing is computed once, outside the
    loops over the basis indices it does not depend on."""
    fld = ctx.field
    halve = _halver(fld)
    p = ctx.p
    one = fld.one
    # <q'_l, e_i p'_l'>_B for each i of A, and <p_k e_j, q_k'>_A for each j of B
    inner = [[[ctx.pair_b(q0, p.left_act({i: one}, p1)) for p1, _ in ctx.gens_a]
              for _, q0 in ctx.gens_a] for i in range(ctx.a.dim)]
    outer = [[[ctx.pair_a(moved, qk1) for qk1, _ in ctx.gens_b]
              for moved in [p.right_act(pk0, {j: one}) for _, pk0 in ctx.gens_b]]
             for j in range(ctx.b.dim)]
    units = [{x: one} for x in range(p.dim)]
    # <x, q_k>_A with p_k, and <q'_l, x>_B, for each x
    xq = [[(ctx.pair_a(ex, qk), pk) for qk, pk in ctx.gens_b] for ex in units]
    qx = [[ctx.pair_b(q1, ex) for _, q1 in ctx.gens_a] for ex in units]
    f_tables = []
    for i in range(ctx.a.dim):
        ei = {i: one}
        hvec = h_left.value((i,))
        cols = []
        for x, ex in enumerate(units):
            acc = {}
            for a, pk in xq[x]:
                _addinto(fld, acc, p.left_act(f.evaluate(ei, a), pk), one)
            for (p0, _), mids in zip(ctx.gens_a, inner[i]):
                for mid, b in zip(mids, qx[x]):
                    _addinto(fld, acc, p.right_act(p0, g.evaluate(mid, b)), one)
            _addinto(fld, acc, p.left_act(hvec, ex), one)
            cols.append(halve(acc))
        f_tables.append(_columns(cols))
    g_tables = []
    for j in range(ctx.b.dim):
        ej = {j: one}
        hvec = h_right.value((j,))
        cols = []
        for x, ex in enumerate(units):
            acc = {}
            for (first, _), row in zip(xq[x], outer[j]):
                for a, (_, pk1) in zip(row, ctx.gens_b):
                    _addinto(fld, acc, p.left_act(f.evaluate(first, a), pk1), one)
            for (p0, _), b in zip(ctx.gens_a, qx[x]):
                _addinto(fld, acc, p.right_act(p0, g.evaluate(b, ej)), one)
            _addinto(fld, acc, p.right_act(ex, hvec), one)
            cols.append(halve(acc))
        g_tables.append(_columns(cols))
    return f_tables, g_tables


def build_hat_P(ctx, a_f, b_g, h2f):
    """The deformed bimodule P^ = (P, P, Id, f_P, g_P) over (A_f, B_g),
    for A_f and B_g the Deformations of ctx.a and ctx.b along f and g =
    phi^2(f), both proved to be cocycles by the caller, and h2f =
    homotopy_h(ctx, f); unchecked.  Its maps are _hat with h2f on the
    left and no homotopy term on the right."""
    tables = _hat(ctx, a_f.f, b_g.f, h2f, FullCochain(ctx.b.dim, 1, ctx.field))
    return DeformedBimodule(a_f, b_g, ctx.p, ctx.p, _identity(ctx.p.dim, ctx.field), *tables)


def build_hat_Q(ctx, a_f, b_g, h2f):
    """The deformed bimodule Q^ = (Q, Q, Id, g_Q, f_Q) over (B_g, A_f),
    for A_f, B_g and h2f as in build_hat_P; unchecked.  It is _hat of the
    swapped context with h2f on the right: by balance <p_k e_j, q_k'>_A =
    <p_k, e_j q_k'>_A, so g_Q is f_P of the swap without its h term and
    f_Q is g_P of the swap plus y h(e_i)."""
    tables = _hat(ctx.swap(), b_g.f, a_f.f, FullCochain(ctx.b.dim, 1, ctx.field), h2f)
    return DeformedBimodule(b_g, a_f, ctx.q, ctx.q, _identity(ctx.q.dim, ctx.field), *tables)


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


def _deformed_pairing(ctx, f, f_tables):
    """The t-part w of the pairing hat P x hat Q -> A_f of the deformed
    context on the pairs ((x, 0), (y, 0)), as a table {(x, y): vector of
    A}, for the cocycle f on ctx.a and the maps f_P of hat P (_hat); with
    ctx.swap(), g and the maps g_Q of hat Q it is the t-part of the
    pairing into B_g.  For gens_b =
    [(q_k, p_k)] and c_x = sum_k f_P(<x, q_k> (x) p_k), the t-part of
    sum_k (<x, q_k>, 0)(p_k, 0) = (x, c_x) in hat P, the deformed pairing
    is

        w((x, 0), (y, 0)) = sum_k (<x, q_k>, 0)(<p_k, y>, 0) - t <c_x, y>
                          = (<x, y>, sum_k f(<x, q_k>, <p_k, y>) - <c_x, y>),
        w((0, x), (y, 0)) = w((x, 0), (0, y)) = t <x, y>,  w((0, x), (0, y)) = 0.

    Off ((x, 0), (y, 0)) it is the plain pairing times t, and on those
    pairs its t^0 part is the plain pairing, so the deformed pairing is
    the product of the deformation R_F (see verify_morita_deformed) and
    only its t-part w is computed."""
    fld = ctx.field
    one, minus = fld.one, fld.neg(fld.one)
    out = {}
    for x in range(ctx.p.dim):
        firsts = [(ctx.pair_a({x: one}, qk), pk) for qk, pk in ctx.gens_b]
        c_x = {}
        for a, pk in firsts:
            for i, c in a.items():
                _addinto(fld, c_x, map_apply(f_tables[i], pk, fld), c)
        for y in range(ctx.q.dim):
            ey = {y: one}
            vec = _scaled(fld, ctx.pair_a(c_x, ey), minus)
            for a, pk in firsts:
                _addinto(fld, vec, f.evaluate(a, ctx.pair_a(pk, ey)), one)
            if vec:
                out[(x, y)] = vec
    return out


def _by_pairs(tables, acting_left):
    """The maps tables[i] of a list, {m: vector} each, as one table keyed
    (i, m) for acting_left, else (m, i)."""
    return {((i, m) if acting_left else (m, i)): vec
            for i, tab in enumerate(tables) for m, vec in tab.items()}


def _deformation_blocks(ctx, f, g, hat_p, hat_q):
    """The eight blocks of the 2-cochain F on the Morita ring R of ctx
    whose deformation R_F is the ring of the deformed context, for the
    cocycles f on A and g on B and the maps hat_p = (f_P, g_P) and hat_q
    = (g_Q, f_Q) of _hat, in the order of _block_table, each keyed by the
    indices within its two factors: f (A x A), f_P (A x P), g_P (P x B), g
    (B x B), g_Q (B x Q), f_Q (Q x A), and the t-parts of the deformed
    pairings into A_f (P x Q) and into B_g (Q x P)."""
    (f_p, g_p), (g_q, f_q) = hat_p, hat_q
    return (f.table, _by_pairs(f_p, True), _by_pairs(g_p, False), g.table,
            _by_pairs(g_q, True), _by_pairs(f_q, False),
            _deformed_pairing(ctx, f, f_p), _deformed_pairing(ctx.swap(), g, g_q))


def _deformation_failure(ctx, blocks):
    """None, or the message of the first failure of the deformation R_F
    of the Morita ring R of ctx along the 2-cochain F with the given
    blocks (_deformation_blocks), read as the ring of the deformed
    context over (A_f, B_g): its unit (check 2 of verify_morita_deformed),
    its associativity (check 3), then the plain generator lists as
    decompositions of the deformed units (check 4).  R itself is proved
    first, by ctx.proved_ring() (check 1).  A triple is named by R's
    labels, and a coordinate of the t-part of a deformed unit by a:t*x or
    b:t*y."""
    ring, _ = ctx.proved_ring()
    fld = ctx.field
    at_p = ctx.a.dim
    at_q = at_p + ctx.p.dim
    cochain = _block_table((at_p, at_q, at_q + ctx.q.dim), *blocks)
    fmaps = {}
    for (x, y), vec in cochain.items():
        fmaps.setdefault(x, {})[y] = vec
    # F(1, x) as the column x of one map, and F(x, 1) for each x
    bad = set(_action(fmaps, ring.unit, fld))
    bad.update(x for x, cols in fmaps.items() if map_apply(cols, ring.unit, fld))
    if bad:
        return "the Morita ring: unit fails on basis element %s" % ring.labels[min(bad)]
    bad = deformation_witness(ring, cochain)
    if bad is not None:
        return "the Morita ring is not associative at (%s, %s, %s)" % tuple(
            ring.labels[x] for x in bad)
    omega_a, omega_b = blocks[6:]
    return (_decomposition_failure(ctx, "a", lambda u, v: _bilinear(fld, omega_a, u, v), {},
                                   ["t*" + x for x in ctx.a.labels])
            or _decomposition_failure(ctx, "b", lambda v, u: _bilinear(fld, omega_b, v, u),
                                      {}, ["t*" + y for y in ctx.b.labels]))


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
    each side.  Both sides are one context over (A_f, B_g): the glues of
    hat P and hat Q, the deformed pairings and the plain generator lists.
    Its ring is the deformation R_F of the Morita ring R = [[A, P], [Q,
    B]] along one 2-cochain F on R, the product

        (r0 + r1 t)(s0 + s1 t) = r0 s0 + (r0 s1 + r1 s0 + F(r0, s0)) t

    on R + R t, whose (x, 0) and (0, x) in each block are x and x t.  The
    blocks of F (_deformation_blocks) are f and g, the maps f_P, g_P of
    hat P and g_Q, f_Q of hat Q, and the t-parts w of the two deformed
    pairings (_deformed_pairing): A_f, B_g, both glues with T = Id and
    both pairings are this product block by block.  R_F is associative
    exactly when R is and d F = 0 (Gerstenhaber, "On the deformation of
    rings and algebras", Ann. Math. 1964): on basis elements of R the
    associator of R_F is that of R minus (d F) t, and on a triple with a
    factor x t it is the associator of R times t, or 0.  So the context
    is checked by four exact checks (_deformation_failure), none of which
    builds R_F:

    1. R is unital and associative, and the generator lists decompose 1_A
       and 1_B: the context's own check, kept on it (proved_ring).
    2. F(1_R, x) = F(x, 1_R) = 0 for every basis element x of R.  Since
       1_R x = x + F(1_R, x) t, x 1_R = x + F(x, 1_R) t and 1_R (x t) =
       x t = (x t) 1_R, this is exactly that 1_R = 1_A + 1_B is the unit
       of R_F.
    3. d F(r, y, z) = 0 for r in R.unit_and_generators() and all basis
       elements y, z: linalg.deformation_witness(R, F), whose docstring
       proves it complete.  The set S of w with (w y) z = w (y z) for all
       y, z of R_F is a subspace closed under w -> g w for g in S; once R
       is associative it holds every x t, and it holds r = (r, 0) exactly
       when d F(r, ., .) = 0.  So S holds the unit vector and the
       generators of R, hence every word of R in them, read in R_F up to
       an element of R t; these span R_F.
    4. sum_j F(p'_j, q'_j) = 0 over gens_a and sum_i F(q_i, p_i) = 0 over
       gens_b.  The sum over gens_a of the deformed pairing is (sum_j
       <p'_j, q'_j>_A, sum_j F(p'_j, q'_j)) = (1_A, sum_j F(p'_j, q'_j))
       by check 1, so this is exactly that the plain lists decompose the
       unit (1_A, 0) of A_f, and the mirror for B_g.

    Check 4 holds for every context the command line builds, so no
    generator is corrected.  Let v = sum_k w_B((q_k, 0), (p_k, 0)) = (1,
    s) in B_g.  Summed over gens_b, the associativity w(x^, y^) x'^ = x^
    w_B(y^, x'^), proved by check 3, gives (x, 0) v = (x, x s) on the
    right (as g_P(x (x) 1) = 0) and, on the left, (x, sum_lk f(<x, q_l>,
    H_lk) p_k) for H_lk = <p_l, q_k>_A, the c terms of _deformed_pairing
    cancelling by the recovery sum_k <z, q_k> p_k = z.  With <x, q_l> =
    sum_m <x, q_m> H_ml, d f = 0 and H^2 = H, that is sum_m <x, q_m>
    sum_lk f(H_ml, H_lk) p_k, and s = sum_k <q_k, p_k s>_B.  So s = 0 when
    f vanishes on pairs of brackets, and the mirror over gens_a asks the
    same of g on the brackets <q'_j, p'_j'>_B.  In the corner context
    (eCe, C) of _corner_context, gens_a = [(e, e)] has the one bracket e
    in C, and the brackets of gens_b are H_lk = p_l q_k in eCe.  A matrix
    context is the corner of M_n(A) at E_11 with the matrix units as
    gens_b: H_lk is 0 or 1, f(1, 1) = 0 by check 2, and g(E_11, E_11) =
    <q_1, f(1, 1) p_1>_B = 0.  An idempotent context is the swap, so its
    gens_b is [(e, e)] with H = (e), and it needs f(e, e) e = 0.  Check 4
    stays exact for any other context.

    The (A, A, P), (A, P, B) and (P, B, B) triples of R_F and its unit on
    P are the bimodule axioms of the glue of hat P, the (B, B, Q), (B, Q,
    A) and (Q, A, A) triples and the unit on Q those of hat Q, and T = Id
    is injective, so when the checks pass both deformed-*-bimodule lines
    pass.  Only when they fail are A_f, B_g, hat P and hat Q built
    (build_hat_P, build_hat_Q) and the hats checked on their own
    (DeformedBimodule.violations); if either fails, the report stops
    after its line.  Otherwise every side line fails with the first
    failure as its witness, named by R's labels, which are those of the (x, 0) in
    the ring of the deformed context.  When the checks pass, the Morita
    context lemma (MoritaContext._validate) makes the pairing an
    isomorphism of A_f-bimodules W: hat P (x)_{B_g} hat Q -> A_f, and its
    mirror one onto B_g, and each line follows from W, on the A side (the
    B side is the mirror, ns = dim B):

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
    _halver(ctx.field)
    if f.degree != 2 or f.dim != ctx.a.dim:
        raise InputError("expected a 2-cochain on A")
    ctx.proved_ring()  # check 1, which an unchecked context makes here
    if deformation_witness(ctx.a, f.table) is not None:
        raise InputError("f must be a Hochschild 2-cocycle on A")
    g = transfer_phi(ctx, f)
    # the full d g, not the generator rows: rows on B would need its greedy
    # generators, which cost more than d g on the B that contexts build
    dg = full_differential(g, ctx.b)
    if not dg.is_zero():
        # B_g is not associative, so neither hat is a bimodule over it
        skipped = "skipped: phi^2(f) is not a cocycle"
        return [("transferred-cocycle", False, "d^2 g != 0 on B at (%s)"
                 % ", ".join(ctx.b.labels[i] for i in min(dg.table))),
                ("deformed-p-bimodule", False, skipped),
                ("deformed-q-bimodule", False, skipped)]
    checks = [("transferred-cocycle", True, "phi^2(f) is a 2-cocycle on B")]
    h2f = homotopy_h(ctx, f)
    none = FullCochain(ctx.b.dim, 1, ctx.field)
    witness = _deformation_failure(ctx, _deformation_blocks(
        ctx, f, g, _hat(ctx, f, g, h2f, none), _hat(ctx.swap(), g, f, none, h2f)))
    hat_p = hat_q = None
    if witness:
        # d f = 0 and d g = 0 were proved above
        a_f, b_g = Deformation(ctx.a, f), Deformation(ctx.b, g)
        hat_p, hat_q = build_hat_P(ctx, a_f, b_g, h2f), build_hat_Q(ctx, a_f, b_g, h2f)
    for name, label, hat in (("deformed-p-bimodule", "hat P", hat_p),
                             ("deformed-q-bimodule", "hat Q", hat_q)):
        bad = hat.violations() if hat else []
        checks.append((name, not bad,
                       bad[0] if bad else label + " satisfies all bimodule conditions"))
    if not all(ok for _, ok, _ in checks):
        return checks
    for prefix, ns in (("A-side:", ctx.a.dim), ("B-side:", ctx.b.dim)):
        checks += [(prefix + name, witness is None, witness or detail.format(2 * ns, ns))
                   for name, detail in SIDE_LINES]
    return checks
