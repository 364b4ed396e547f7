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

The deformed equivalence is one more context.  verify_morita_deformed
builds the context over (A_f, B_g) from the glues of the deformed
bimodules hat P and hat Q, the pairings of _deformed_pairing and the
plain generator lists, and checks its ring once, which also proves that
both glues are bimodules; the Morita context lemma gives hat P
(x)_{B_g} hat Q = A_f and hat Q (x)_{A_f} hat P = B_g, and each of the
13 report lines per side follows from it.  No balanced product is
built: TensorProduct, which builds one, is the reference that the tests
compare against.

transfer_phi and transfer_psi work from the support of the cochain: one
chain of pair weights per key of its table, so the cost follows the
number of nonzero entries, not the number of basis tuples of B.
homotopy_h is the one sum h^n = sum_l (-1)^l h_l of the paper in every
degree, its chains of generator pairs grown as those of transfer_phi.
The tables of the matrix and corner contexts are read off one product:
the table of M_n(A), whose first row is P and first column Q, or the
multiplication of A restricted to eAe, Ae and eA.
"""

from itertools import product

from .deform import Deformation
from .errors import (CharTwoUnsupported, InputError, NotFullIdempotent,
                     SizeLimitExceeded)
from .fields import _rational
from .hochschild import FullCochain, is_full_cocycle
from .linalg import (FinDimAlgebra, SpanSolver, _addinto, _bilinear, _clean, _columns,
                     _differing_columns, _identity, _lower_block, _map_rank, _scaled,
                     map_apply, map_compose)


def block_ring(a, b, p, q=None, pairing_a=None, pairing_b=None):
    """The ring [[A, P], [Q, B]] as an unchecked FinDimAlgebra, for an
    (A, B)-bimodule P and, unless q is None, a (B, A)-bimodule Q with the
    pairings pairing_a of P x Q into A and pairing_b of Q x P into B.

    Its basis is that of A, then P, then Q, then B, labelled a:x, p3, q0
    and b:y for a label x of A and y of B.  Its product is

        (a, p, q, b)(a', p', q', b') = (a a' + <p, q'>_A, a p' + p b',
                                        q a' + b q', <q, p'>_B + b b'),

    read off the tables of A and B, the actions on P and Q and the two
    pairings, and its unit is 1_A + 1_B.  With q None the Q block and
    both pairings are left out: that is the triangular ring [[A, P], [0,
    B]], the Morita ring of Q = 0."""
    at_p = a.dim
    at_q = at_p + p.dim
    at_b = at_q + (q.dim if q is not None else 0)
    blocks = [(0, 0, 0, a.table), (0, at_p, at_p, p.left), (at_p, at_b, at_p, p.right)]
    if q is not None:
        blocks += [(at_p, at_q, 0, pairing_a), (at_b, at_q, at_q, q.left),
                   (at_q, 0, at_q, q.right), (at_q, at_p, at_b, pairing_b)]
    blocks.append((at_b, at_b, at_b, b.table))
    table = {}
    for rows, cols, out, products in blocks:
        for (x, y), vec in products.items():
            table[(rows + x, cols + y)] = {out + k: c for k, c in vec.items()}
    unit = dict(a.unit)
    unit.update((at_b + k, c) for k, c in b.unit.items())
    labels = (["a:" + x for x in a.labels] + ["p%d" % i for i in range(p.dim)]
              + ["q%d" % j for j in range(at_b - at_q)] + ["b:" + y for y in b.labels])
    return FinDimAlgebra(a.field, at_b + b.dim, table, unit, labels, check=False)


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
    _validate), so neither is computed.
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

    def ring(self):
        """The Morita ring [[A, P], [Q, B]] of the context (block_ring)."""
        return block_ring(self.a, self.b, self.p, self.q, self.pairing_a, self.pairing_b)

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
        """
        a, b, p, q = self.a, self.b, self.p, self.q
        if p.left_alg is not a or p.right_alg is not b:
            raise InputError("P must be an (A, B)-bimodule")
        if q.left_alg is not b or q.right_alg is not a:
            raise InputError("Q must be a (B, A)-bimodule")
        bad = ring_failure(self.ring(), "the Morita ring")
        if bad:
            raise InputError(bad)
        fld = self.field
        for gens, pair, unit, message in (
                (self.gens_a, self.pair_a, a.unit, "gens_a do not decompose 1_A"),
                (self.gens_b, self.pair_b, b.unit, "gens_b do not decompose 1_B")):
            total = {}
            for u, v in gens:
                _addinto(fld, total, pair(u, v), fld.one)
            if total != unit:
                raise InputError(message)


# The largest dimension n^2 dim A of M_n(A) that matrix_context builds.
# The certificate's checks grow with the square or the cube of it:
# verify-morita on k[x]/(x^6) at n = 3 (dimension 54) takes 0.16-0.27 s end
# to end (2 cores, Python 3.11), and each doubling of the dimension
# multiplies that by 4 to 8.
MAX_MATRIX_DIM = 64


def matrix_context(alg, n):
    """A against the matrix amplification M_n(A).

    B basis: E_rc x_g, flattened (r*n + c)*dim + g.  P is the row space
    A^(1 x n), Q the column space; both pairings are matrix products.
    Raises SizeLimitExceeded, before building anything, when n^2 dim A
    is above MAX_MATRIX_DIM.  B, P and Q are built unchecked: the check
    of the context's ring proves B's unit and associativity and the
    axioms of both bimodules.
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
    bunit = {bidx(r, r, u): cu for r in range(n) for u, cu in alg.unit.items()}
    blabels = ["E%d%d*%s" % (r + 1, c + 1, alg.labels[g])
               for r in range(n) for c in range(n) for g in range(d)]
    b = FinDimAlgebra(fld, dim_b, btable, bunit, blabels, check=False)

    # P is the first row of B and Q its first column, A = E_11 B E_11;
    # each table below is a block of the table of B, renumbered
    def pidx(c, g):
        return c * d + g

    on_a = {bidx(0, 0, g): g for g in range(d)}
    row = {bidx(0, c, g): pidx(c, g) for c in range(n) for g in range(d)}
    col = {bidx(c, 0, g): pidx(c, g) for c in range(n) for g in range(d)}
    on_b = {x: x for x in range(dim_b)}

    def block(left, right, out):
        """{(left[x], right[y]): x y} over the products in B of x in left
        and y in right, each coordinate k of x y renumbered to out[k]."""
        return {(left[x], right[y]): {out[k]: v for k, v in prod.items()}
                for (x, y), prod in b.table.items() if x in left and y in right}

    p = Bimodule(alg, b, n * d, block(on_a, row, row), block(row, on_b, row), check=False)
    q = Bimodule(b, alg, n * d, block(on_b, col, col), block(col, on_a, col), check=False)
    unit_slot = [{pidx(r, u): cu for u, cu in alg.unit.items()} for r in range(n)]
    gens_a = [(dict(unit_slot[0]), dict(unit_slot[0]))]
    gens_b = [(dict(unit_slot[r]), dict(unit_slot[r])) for r in range(n)]
    return MoritaContext(alg, b, p, q, block(row, col, on_a), block(col, row, on_b),
                         gens_a, gens_b)


def idempotent_context(alg, evec):
    """A against the corner algebra eAe, through P = Ae and Q = eA.

    Raises NotFullIdempotent when 1_A cannot be written as a sum of
    products (x e)(e y), that is when AeA is a proper ideal.  eAe, Ae
    and eA are built unchecked, as in matrix_context.
    """
    fld = alg.field
    evec = _clean(fld, evec)
    if alg.mul(evec, evec) != evec:
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
                vec = alg.mul(x, y)
                if vec:
                    out[(r, s)] = coords(vec)
        return out

    units = [{i: fld.one} for i in range(alg.dim)]
    bbasis, bcoords = span_of(alg.mul(evec, alg.mul(x, evec)) for x in units)
    pbasis, pcoords = span_of(alg.mul(x, evec) for x in units)
    qbasis, qcoords = span_of(alg.mul(evec, x) for x in units)
    b = FinDimAlgebra(fld, len(bbasis), products(bbasis, bbasis, bcoords), bcoords(evec),
                      check=False)
    p = Bimodule(alg, b, len(pbasis), products(units, pbasis, pcoords),
                 products(pbasis, bbasis, pcoords), check=False)
    q = Bimodule(b, alg, len(qbasis), products(bbasis, qbasis, qcoords),
                 products(qbasis, units, qcoords), check=False)
    pairing_a = products(pbasis, qbasis, dict)
    witness = SpanSolver(fld)
    for rs, vec in sorted(pairing_a.items()):
        witness.add(vec, rs)
    combo = witness.express(alg.unit)
    if combo is None:
        raise NotFullIdempotent("AeA is a proper ideal; e is not full")
    gens_a = [({r: c}, {s: fld.one}) for (r, s), c in sorted(combo.items())]
    gens_b = [(qcoords(evec), pcoords(evec))]
    return MoritaContext(alg, b, p, q, pairing_a, products(qbasis, pbasis, bcoords),
                         gens_a, gens_b)


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


def _brackets(ctx):
    """The pairings of hat P and hat Q that depend on no element of P or
    Q, as nested lists: inner[i][l][l'] = <q'_l, e_i p'_l'>_B for a basis
    index i of A, and outer[j][k][k'] = <p_k e_j, q_k'>_A for one j of B."""
    one, p = ctx.field.one, ctx.p
    inner = [[[ctx.pair_b(q0, p.left_act({i: one}, p1)) for p1, _ in ctx.gens_a]
              for _, q0 in ctx.gens_a] for i in range(ctx.a.dim)]
    outer = [[[ctx.pair_a(moved, qk1) for qk1, _ in ctx.gens_b]
              for moved in [p.right_act(pk0, {j: one}) for _, pk0 in ctx.gens_b]]
             for j in range(ctx.b.dim)]
    return inner, outer


def build_hat_P(ctx, a_f, b_g, h2f):
    """The deformed bimodule P^ = (P, P, Id, f_P, g_P) over (A_f, B_g),
    for A_f and B_g the Deformations of ctx.a and ctx.b along f and g =
    phi^2(f), both proved to be cocycles by the caller, and h2f =
    homotopy_h(ctx, f); unchecked.  Each pairing in f_P and g_P is computed
    once, outside the loops over the basis indices it does not depend on."""
    fld = ctx.field
    halve = _halver(fld)
    f, g = a_f.f, b_g.f
    p = ctx.p
    one = fld.one
    inner, outer = _brackets(ctx)
    units = [{x: one} for x in range(p.dim)]
    # <x, q_k>_A with p_k, and <q'_l, x>_B, for each x
    xq = [[(ctx.pair_a(ex, qk), pk) for qk, pk in ctx.gens_b] for ex in units]
    qx = [[ctx.pair_b(q1, ex) for _, q1 in ctx.gens_a] for ex in units]
    f_tables = []
    for i in range(ctx.a.dim):
        ei = {i: one}
        hvec = h2f.value((i,))
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
        cols = []
        for x in range(p.dim):
            acc = {}
            for (first, _), row in zip(xq[x], outer[j]):
                for a, (_, pk1) in zip(row, ctx.gens_b):
                    _addinto(fld, acc, p.left_act(f.evaluate(first, a), pk1), one)
            for (p0, _), b in zip(ctx.gens_a, qx[x]):
                _addinto(fld, acc, p.right_act(p0, g.evaluate(b, ej)), one)
            cols.append(halve(acc))
        g_tables.append(_columns(cols))
    return DeformedBimodule(a_f, b_g, p, p, _identity(p.dim, fld),
                            f_tables, g_tables)


def build_hat_Q(ctx, a_f, b_g, h2f):
    """The deformed bimodule Q^ = (Q, Q, Id, g_Q, f_Q) over (B_g, A_f),
    for A_f, B_g and h2f as in build_hat_P; unchecked, with its pairings
    computed as in build_hat_P."""
    fld = ctx.field
    halve = _halver(fld)
    f, g = a_f.f, b_g.f
    q = ctx.q
    one = fld.one
    inner, outer = _brackets(ctx)
    units = [{y: one} for y in range(q.dim)]
    # <p_k, y>_A and <y, p'_l>_B, for each y
    py = [[ctx.pair_a(pk, ey) for _, pk in ctx.gens_b] for ey in units]
    yp = [[ctx.pair_b(ey, p0) for p0, _ in ctx.gens_a] for ey in units]
    g_tables = []
    for j in range(ctx.b.dim):
        ej = {j: one}
        cols = []
        for y in range(q.dim):
            acc = {}
            for (qk0, _), row in zip(ctx.gens_b, outer[j]):
                for a, b in zip(row, py[y]):
                    _addinto(fld, acc, q.right_act(qk0, f.evaluate(a, b)), one)
            for (_, q0), b in zip(ctx.gens_a, yp[y]):
                _addinto(fld, acc, q.left_act(g.evaluate(ej, b), q0), one)
            cols.append(halve(acc))
        g_tables.append(_columns(cols))
    f_tables = []
    for i in range(ctx.a.dim):
        ei = {i: one}
        hvec = h2f.value((i,))
        cols = []
        for y, ey in enumerate(units):
            acc = {}
            for (qk, _), a in zip(ctx.gens_b, py[y]):
                _addinto(fld, acc, q.right_act(qk, f.evaluate(a, ei)), one)
            for first, mids in zip(yp[y], inner[i]):
                for mid, (_, q1) in zip(mids, ctx.gens_a):
                    _addinto(fld, acc, q.left_act(g.evaluate(first, mid), q1), one)
            _addinto(fld, acc, q.right_act(ey, hvec), one)
            cols.append(halve(acc))
        f_tables.append(_columns(cols))
    return DeformedBimodule(b_g, a_f, q, q, _identity(q.dim, fld),
                            g_tables, f_tables)


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
    each side.  Both sides are one context over (A_f, B_g): the glues of
    hat P and hat Q, the pairings of _deformed_pairing and the plain
    generator lists.  That context is checked first.  The (A, A, P),
    (A, P, B) and (P, B, B) blocks of its ring and the ring's unit on P
    are the bimodule axioms of the glue of hat P, the (B, B, Q),
    (B, Q, A) and (Q, A, A) blocks and the unit on Q those of hat Q, and
    T = Id is injective, so when the check passes both
    deformed-*-bimodule lines pass.  Only when it raises are hat P and
    hat Q checked on their own (DeformedBimodule.violations); if either
    fails, the report stops after its line.  Otherwise the Morita context lemma
    (MoritaContext._validate) makes the pairing an isomorphism of
    A_f-bimodules W: hat P (x)_{B_g} hat Q -> A_f, and its mirror one
    onto B_g.  If the context check raised, every side line fails with
    its message as the witness.  Otherwise each line follows from W, on
    the A side (the B side is the mirror, ns = dim B):

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
    if not is_full_cocycle(f, ctx.a):
        raise InputError("f must be a Hochschild 2-cocycle on A")
    g = transfer_phi(ctx, f)
    checks = [("transferred-cocycle", is_full_cocycle(g, ctx.b),
               "phi^2(f) is a 2-cocycle on B")]
    if not checks[0][1]:
        # B_g is not associative, so neither hat is a bimodule over it
        skipped = "skipped: phi^2(f) is not a cocycle"
        return checks + [("deformed-p-bimodule", False, skipped),
                         ("deformed-q-bimodule", False, skipped)]
    # d f = 0 and d g = 0 were proved above
    s_def = Deformation(ctx.a, f)
    t_def = Deformation(ctx.b, g)
    h2f = homotopy_h(ctx, f)
    hat_p = build_hat_P(ctx, s_def, t_def, h2f)
    hat_q = build_hat_Q(ctx, s_def, t_def, h2f)
    deformed = MoritaContext(s_def, t_def, hat_p.glued, hat_q.glued,
                             _deformed_pairing(ctx, hat_p),
                             _deformed_pairing(ctx.swap(), hat_q),
                             ctx.gens_a, ctx.gens_b, check=False)
    try:
        deformed._validate()
        witness = None
    except InputError as exc:
        witness = str(exc)
    for name, label, hat in (("deformed-p-bimodule", "hat P", hat_p),
                             ("deformed-q-bimodule", "hat Q", hat_q)):
        bad = hat.violations() if witness else []
        checks.append((name, not bad,
                       bad[0] if bad else label + " satisfies all bimodule conditions"))
    if not all(ok for _, ok, _ in checks):
        return checks
    for prefix, ns in (("A-side:", ctx.a.dim), ("B-side:", ctx.b.dim)):
        checks += [(prefix + name, witness is None, witness or detail.format(2 * ns, ns))
                   for name, detail in SIDE_LINES]
    return checks
