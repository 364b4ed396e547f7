"""Transfer of cochains across a Morita context, and the deformed equivalence.

This layer works with the structure-constant algebras of the linalg
module (FinDimAlgebra), so that a path-algebra quotient, a matrix
amplification and a corner algebra all go through the same code; the
deformed algebras A_f and B_g come from the deform module's builder,
which verify_morita_deformed imports and reaches only when its check
fails, after it has proved d f = 0 and d g = 0, so each cocycle is
checked once.
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
(MoritaContext.ring), the first failure named by ring_failure.  The ring
is associative and unital exactly when A and B are algebras, P and Q
bimodules and the pairings linear, balanced and associative, so one
check proves every axiom at once, the associativity of the acting
algebras included.  The check runs once, on generator rows
(linalg.deformation_witness), and a Morita ring reads its generators off
the context: those of A and B, the supports of the p'_j and q_u of the
generator lists, and that of the unit (MoritaContext._validate proves
that they generate, by the rows it checks).  A failed check is named
on those same rows.  M_n(A) reads its generators off those of A
(matrix_context), so of the algebras a command line builds only a
corner eAe runs the greedy search.  A bimodule uple is
checked as the (A_f, B_g)-bimodule it glues to, and a morphism of uples
as a map between the glues (DeformedBimodule and triple_violations give
the proofs).  The bijectivity of the induced maps P (x)_B Q -> A and Q
(x)_A P -> B, and the recovery of P and Q through the generator lists,
are consequences (MoritaContext._validate gives both proofs).

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
degree, also computed from the support of its cochain.  d f = 0 and d
g = 0, in the transfer command and in verify_morita_deformed, are
proved on generator rows of A and B, and the homotopy identity as one
exact equality, with the differential of the 1-cochain h^2 f as the one
full differential (transfer_identities_hold); the full differentials of
f and g are taken only to name the witness of a failure.

Every context is one corner context (_corner_context): eCe against C
through eC and Ce, each table read off the product of C by index, as e
is a coordinate idempotent, which loses no corner up to isomorphism.  A
matrix context is the corner of C = M_n(A) at E_11, with eCe read as A
and the matrix units as generators of 1_C; an idempotent context is the
swap of the corner of A at e.  Each proves its own ring as it is built
(proved_ring).  hat P and hat Q are one builder too (_hat): hat Q is hat
P of the swapped context.
_hat and _deformed_pairing work from supports too, one key of f, g or h
at a time.
"""

from itertools import product

from .errors import (CharTwoUnsupported, InputError, NotFullIdempotent,
                     SizeLimitExceeded)
from .fields import _rational
from .hochschild import FullCochain, full_differential
from .linalg import (FinDimAlgebra, SpanSolver, _action, _addinto, _bilinear, _clean,
                     _differing_columns, _identity, _lower_block, _map_rank,
                     _scaled, deformation_witness, map_apply, map_combine, map_compose)


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
    _validate), so neither is computed.  A context keeps its proved ring
    and the ring's left factors (proved_ring).
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
        and raises InputError at its first failed axiom."""
        if self._proved is None:
            self._validate()
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

        The ring's generators are read off the context: those of A and of
        B, and the supports of the p'_j of gens_a and of the q_u of
        gens_b; with the support of the unit they are the rows of the
        check.  They generate by the rows
        that the check proves, and no others.  Let S be the set of x with
        (x y) z = x (y z) for all y, z: a subspace closed under products
        (deformation_witness), which holds the rows once the check
        passes.  A and B multiply in the ring as on
        their own, so S holds the words of each in its generators, which
        span it.  For x in P, the unit check gives 1_A x = x, as 1_B x =
        0 block by block, and the decomposition check 1_A = sum <p'_j,
        q'_j>_A = sum p'_j q'_j, so x = sum (p'_j q'_j) x = sum p'_j (q'_j
        x) by the row at p'_j, a combination of checked rows; q'_j x lies
        in B, so each term is a product of elements of S.  In the same
        way y = 1_B y = sum (q_u p_u) y = sum q_u (p_u y) for y in Q, by
        the row at q_u, with p_u y in A.  So S is the whole ring.  The
        check is one pass: a failed check is a true failure, and the
        error names the first one on these rows, which need not be the
        first on the rows of another generating set, as these generate
        only once every check passes.

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
        # the generators read off the context, as ring indices
        at_q = a.dim + p.dim
        gens = set(a.generators())
        gens.update(at_q + q.dim + y for y in b.generators())
        gens.update(a.dim + x for pj, _ in self.gens_a for x in pj)
        gens.update(at_q + y for qu, _ in self.gens_b for y in qu)
        ring._generators = sorted(gens)
        failure = (ring_failure(ring, "the Morita ring")
                   or _decomposition_failure(self, "a", self.pair_a, a.unit, a.labels)
                   or _decomposition_failure(self, "b", self.pair_b, b.unit, b.labels))
        if failure:
            raise InputError(failure)
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
    """The corner eCe against C, through P = eC and Q = Ce, unchecked
    (proved_ring proves it), for a coordinate idempotent e of C: e x and
    x e are x or 0 for each basis element x of C.  Both pairings are the
    product of C and gens_a is [(e, e)].  corner is the algebra read as
    eCe and gens the pairs (x e, e y) of C that decompose 1_C; without
    them eCe is built and gens_b solved as the greedy decomposition of
    1_C into the brackets of Q x P, and NotFullIdempotent is raised when
    CeC is a proper ideal.  An e that is not idempotent, or not a
    coordinate one, raises InputError, naming the first basis element
    that e moves in the second case.

    Each block holds the basis elements of C that it contains, in the
    order of C, so each product is an entry of C's table renumbered, and
    an entry with a coordinate outside its block raises InputError.

    No corner is lost up to isomorphism.  A sum of vertex idempotents of
    A, and E_11 1_A in M_n(A), are coordinate idempotents.  For an
    admissible kQ/I, every idempotent f of C = M_n(A) (n = 1 included)
    is conjugate to a sum e' of distinct E_ii e_v.  C is the direct sum
    of the E_ii e_v C, whose endomorphism rings e_v A e_v are local, so
    by Krull-Schmidt f C = e' C and (1 - f) C = (1 - e') C up to
    isomorphism for one such e', and the two isomorphisms together are
    a unit u of C with f = u e' u^-1.  The inner automorphism x -> u x
    u^-1 of C carries the context at e' onto the context at f (Anderson
    and Fuller, Rings and Categories of Modules, 1992).
    """
    fld = c.field
    e = _clean(fld, e)
    if c.mul(e, e) != e:
        raise InputError("the given element is not idempotent")
    left, right = {}, {}  # {x: its index in eC} and in Ce
    for x in range(c.dim):
        unit = {x: fld.one}
        for fixed, image in ((left, c.mul(e, unit)), (right, c.mul(unit, e))):
            if image == unit:
                fixed[x] = len(fixed)
            elif image:
                raise InputError("e is not a coordinate idempotent: e x or x e is "
                                 "neither x nor 0 for x = %s" % c.labels[x])
    at = {"a": {x: r for r, x in enumerate(x for x in left if x in right)}, "p": left,
          "q": right, "c": {x: x for x in range(c.dim)}}

    def read(name, vec):
        """The coordinates of vec in the block name."""
        pos = at[name]
        if not vec.keys() <= pos.keys():
            raise InputError("product escapes the expected subspace")
        return {pos[k]: x for k, x in vec.items()}

    def products(x, y, out):
        """{(r, s): x_r y_s read in the block out} over the nonzero
        products of the bases of the blocks x and y."""
        rows, cols = at[x], at[y]
        return {(rows[s], cols[t]): read(out, vec) for (s, t), vec in c.table.items()
                if s in rows and t in cols}

    if corner is None:
        corner = FinDimAlgebra(fld, len(at["a"]), products("a", "a", "a"), read("a", e),
                               check=False)
    p = Bimodule(corner, c, len(left), products("a", "p", "p"), products("p", "c", "p"),
                 check=False)
    q = Bimodule(c, corner, len(right), products("c", "q", "q"), products("q", "a", "q"),
                 check=False)
    pairing_b = products("q", "p", "c")
    if gens is None:
        witness = SpanSolver(fld)
        for rs, vec in sorted(pairing_b.items()):
            witness.add(vec, rs)
        combo = witness.express(c.unit)
        if combo is None:
            raise NotFullIdempotent("AeA is a proper ideal; e is not full")
        gens_b = [({r: x}, {s: fld.one}) for (r, s), x in sorted(combo.items())]
    else:
        gens_b = [(read("q", x), read("p", y)) for x, y in gens]
    return MoritaContext(corner, c, p, q, products("p", "q", "a"), pairing_b,
                         [(read("p", e), read("q", e))], gens_b, check=False)


# The largest dimension n^2 dim A of M_n(A) that matrix_context builds.
# The certificate's checks grow with the square or the cube of it:
# verify-morita on k[x]/(x^6) at n = 3 (dimension 54), with the cocycle of
# x^6 = t, takes 0.074 s end to end and 38 ms in process (medians of 20
# process runs with cached byte code and of 15 runs in process, on a
# shared 2-core machine, Python 3.11), and each doubling of the dimension
# multiplies the time in process by about 5 (8 ms at dimension 27).
MAX_MATRIX_DIM = 64


def matrix_context(alg, n):
    """A against the matrix amplification M_n(A): the corner context of
    C = M_n(A) at e = E_11 1_A (_corner_context), with eCe read as alg,
    proved as it is built (proved_ring).

    C has the basis E_rc x_g, flattened (r*n + c)*dim + g.  P = eC is the
    first row A^(1 x n) of C and Q = Ce its first column, both pairings
    are matrix products, gens_a = [(E_11, E_11)] and gens_b the matrix
    units [(E_r1, E_1r)].  Raises SizeLimitExceeded, before building
    anything, when n^2 dim A is above MAX_MATRIX_DIM.

    The generators of C are read off those of A, not searched for: the
    supports of the E_1j 1_A and E_j1 1_A, and the E_11 x_g for g in
    gens(A).  Their words span C, for a unital A.  The table of C is the
    matrix product over the table of A, so (E_rc x)(E_c'd y) is E_rd xy
    when c = c' and 0 otherwise, with no associativity used.  Summed
    with the coordinates of 1_A, the words E_1c x_u 1_C, for u in the
    support of 1_A, give E_1c 1_A; multiplying on the left by the E_11
    x_g, g in gens(A), gives E_1c w for every word w of A in its
    generators, which span A; and the E_r1 x_u, summed with the
    coordinates of 1_A, then give E_rc 1_A w = E_rc w.  A is unital by
    the check of the context's ring, which tests its unit on the block
    of C, so these words span C before any row of C is read.
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
    mat._generators = sorted({at(0, 0, g) for g in alg.generators()}
                             | {k for j in range(n) for k in (*unit(0, j), *unit(j, 0))})
    ctx = _corner_context(mat, unit(0, 0), alg, [(unit(r, 0), unit(0, r)) for r in range(n)])
    ctx.proved_ring()
    return ctx


def idempotent_context(alg, evec):
    """A against the corner algebra eAe, through P = Ae and Q = eA, for a
    coordinate idempotent e of A such as a sum of vertex idempotents: the
    swap of the corner context of A at e (_corner_context), so gens_b is
    [(e, e)] and gens_a the solved decomposition of 1_A, proved as it is
    built (proved_ring).

    Raises NotFullIdempotent when 1_A cannot be written as a sum of
    products (x e)(e y), that is when AeA is a proper ideal.
    """
    ctx = _corner_context(alg, evec).swap()
    ctx.proved_ring()
    return ctx


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

    h_l sums over chains u_0..u_(l-1) of l pairs of generator indices,
    gens_a outer.  The pair u = (j, i) gives X_u = <p'_j, q_i>_A and Y_u =
    <p_i, q'_j>_A, for gens_a = [(p'_j, q'_j)] and gens_b = [(q_i, p_i)]:

        h_l(f)(a_1..a_(n-1)) = sum X_u0 f(Y_u0 a_1 X_u1, ..., Y_u(l-3) a_(l-2) X_u(l-2),
                                         Y_u(l-2) a_(l-1), X_u(l-1), Y_u(l-1) a_l,
                                         a_(l+1), ..., a_(n-1)) Y_u(l-1),

    where the argument Y_u(l-1) a_l is there for l < n and the factor
    Y_u(l-1) on the right for l = n, and h_1 has X_u0 as its first
    argument instead of as a factor on the left.  Together with the
    transfers h satisfies h d + d h = Id - psi phi on 2-cochains.

    It is computed from the support of f, as transfer_phi is: f(v_1..v_n)
    is the sum, over the keys (k_1..k_n) of f.table, of the coordinates
    k_t of the v_t times f(x_k1..x_kn), and each argument above is a
    constant X_u or a linear function of one a_i.  So each key is pushed
    back through indexes {(k, u): [(s, c)]} of the maps a -> Y_u a and
    (for n = 3) a -> Y_u a X_v, the coordinates s of a_i and c of the
    image at k, grown one pair of the chain at a time; the zero cochain
    costs nothing.
    """
    n = f.degree
    if f.dim != ctx.a.dim:
        raise InputError("cochain lives on the wrong algebra")
    if n not in (2, 3):
        raise InputError("homotopy is implemented for degrees 2 and 3")
    fld = ctx.field
    alg = ctx.a
    if not f.table:
        return FullCochain(alg.dim, n - 1, fld)
    one, minus = fld.one, fld.neg(fld.one)
    pairs = [(ctx.pair_a(pj, qi), ctx.pair_a(pi, qj))
             for pj, qj in ctx.gens_a for qi, pi in ctx.gens_b]
    m = len(pairs)
    xs = [x for x, _ in pairs]
    # at_x[k] = [(u, coordinate k of X_u)]
    at_x = {}
    for u, x in enumerate(xs):
        for k, c in x.items():
            at_x.setdefault(k, []).append((u, c))
    # y_a[u] = the map a -> Y_u a; ya[(k, u)] and yax[(k, (u, v))] index
    # a -> Y_u a and a -> Y_u a X_v by the coordinate k of the image
    y_a = _with_factors(fld, alg.table, [y for _, y in pairs], True)
    ya = _index(enumerate(y_a))
    yax = {}
    if n == 3:
        a_x = _with_factors(fld, alg.table, xs, False)
        yax = _index(((u, v), map_compose(a_x[v], y_a[u], fld))
                     for u in range(m) for v in range(m))
    table = {}
    for key, vec in f.table.items():
        for l in range(1, n + 1):
            # partial chains (u_0 or None, last pair, [(s, c)] of each
            # argument a_i so far); h_1 has no left factor
            if l == 1:
                chains = [(None, None, [])]
            else:
                chains = [(u, u, []) for u in range(m) if xs[u]]
                for i in range(l - 2):
                    chains = [(first, v, hits + [h]) for first, u, hits in chains
                              for v in range(m) for h in (yax.get((key[i], (u, v))),) if h]
                chains = [(first, u, hits + [h]) for first, u, hits in chains
                          for h in (ya.get((key[l - 2], u)),) if h]
            sign = one if l % 2 == 0 else minus
            for first, _, hits in chains:
                for v, c in at_x.get(key[l - 1], ()):
                    args = hits
                    if l < n:
                        h = ya.get((key[l], v))
                        if not h:
                            continue
                        args = hits + [h] + [[(k, one)] for k in key[l + 1:]]
                    val = _scaled(fld, vec, fld.mul(sign, c))
                    if first is not None:
                        val = alg.mul(xs[first], val)
                    if l == n:
                        val = alg.mul(val, pairs[v][1])
                    if val:
                        for combo in product(*args):
                            coeff = one
                            for _, cs in combo:
                                coeff = fld.mul(coeff, cs)
                            _addinto(fld, table.setdefault(tuple(s for s, _ in combo), {}),
                                     val, coeff)
    return FullCochain(alg.dim, n - 1, fld, table)


def transfer_identities_hold(ctx, f, g):
    """True when the four identities that the transfer command reports
    are proved, for a 2-cochain f on A and g = phi^2(f); False when f is
    not a 2-cocycle or a check fails, and then the caller computes the
    full differentials.

    A and B are associative and unital by the context's check.  With d f
    = 0, proved on the rows of A (deformation_witness), phi^3 d f = 0 and
    h^3 d f = 0, so the identities read d g = 0 (for cocycle and
    chain-map-phi), d psi^2 g = 0, and d h^2 f = f - psi^2 phi^2 f.  The
    first is proved on the rows of B, and needs no check when g = 0; the
    third is one exact equality of 2-cochains on A.  The second follows:
    psi^2 g = f - d h^2 f, so d psi^2 g = d f - d d h^2 f = 0, as d d =
    0 on the associative A."""
    ctx.proved_ring()
    a = ctx.a
    if deformation_witness(a, f.table) is not None:
        return False
    if g.table and deformation_witness(ctx.b, g.table) is not None:
        return False
    return f - transfer_psi(ctx, g) == full_differential(homotopy_h(ctx, f), a)


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


def _with_factors(field, table, vecs, first):
    """[the sparse map z -> table(vec, z) for vec in vecs] when first,
    else z -> table(z, vec), for a bilinear map given by its table {(s, t):
    vector} and vectors without zero coordinates: one pass over the table
    groups its entries by the coordinate the vectors fill."""
    by_slot = {}
    for (s, t), prod in table.items():
        z, w = (t, s) if first else (s, t)
        by_slot.setdefault(w, []).append((z, prod))
    maps = []
    for vec in vecs:
        out = {}
        for w, c in vec.items():
            for z, prod in by_slot.get(w, ()):
                _addinto(field, out.setdefault(z, {}), prod, c)
        maps.append({z: v for z, v in out.items() if v})
    return maps


def _index(keyed):
    """{(y, k): [(x, c)]} for the pairs (k, sparse map) of keyed: the
    columns x of the map of k whose coordinate y is c."""
    out = {}
    for k, amap in keyed:
        for x, col in amap.items():
            for y, c in col.items():
                out.setdefault((y, k), []).append((x, c))
    return out


def _hat(ctx, f, g, h_left, h_right):
    """(f_tables, g_tables): the maps f_P and g_P of the deformed bimodule
    (P, P, Id, f_P, g_P) over (A_f, B_g), as DeformedBimodule takes them,
    for cocycles f on ctx.a and g on ctx.b proved by the caller.  For
    gens_a = [(p'_l, q'_l)] and gens_b = [(q_k, p_k)], they are

        f_P(e_i (x) x) = 1/2 (sum_k f(e_i, <x, q_k>) p_k
                              + sum_ll' p'_l g(<q'_l, e_i p'_l'>, <q'_l', x>)
                              + h_left(e_i) x),
        g_P(x (x) e_j) = 1/2 (sum_kk' f(<x, q_k>, <p_k e_j, q_k'>) p_k'
                              + sum_l p'_l g(<q'_l, x>, e_j) + x h_right(e_j)),

    with h_left a 1-cochain on A and h_right one on B.  They are read off
    the supports of f, g and the h: f(u, v) is the sum, over the keys (y,
    z) of f.table, of u_y v_z f(e_y, e_z), and f(e_y, e_z) = 0 off the
    keys, and so for g.  So each key is pushed once through indexes of
    the brackets, {(y, k): [(x, <x, q_k>_y)]} and the like (_index), and
    through the maps a -> a p_k and b -> p'_l b, each built once per
    generator; each term gets the same products as the defining sum, and
    the zero cochain costs nothing.  Each column is halved at the end, so
    over Q an integer stays an int."""
    fld = ctx.field
    halve = _halver(fld)
    p = ctx.p
    m, n = len(ctx.gens_b), len(ctx.gens_a)
    f_cols = [{} for _ in range(ctx.a.dim)]
    g_cols = [{} for _ in range(ctx.b.dim)]

    def add(cols, x, vec, c):
        _addinto(fld, cols.setdefault(x, {}), vec, c)

    if f.table or g.table:
        ps = [pk for _, pk in ctx.gens_b]
        p1s = [pl for pl, _ in ctx.gens_a]
        # x -> <x, q_k>_A and x -> <q'_l, x>_B on P
        x_q = _with_factors(fld, ctx.pairing_a, [qk for qk, _ in ctx.gens_b], False)
        q1_x = _with_factors(fld, ctx.pairing_b, [ql for _, ql in ctx.gens_a], True)
        # a -> a p_k, then a -> a p'_l on A; b -> p'_l b, then b -> p_k b on B
        times = _with_factors(fld, p.left, ps + p1s, False)
        by = _with_factors(fld, p.right, p1s + ps, True)
        xq, qx = _index(enumerate(x_q)), _index(enumerate(q1_x))
    if f.table:
        # <p_k e_j, q_k'>_A for each j of B, keyed (k, k')
        outer = _index(((k, k1), map_compose(x_q[k1], by[n + k], fld))
                       for k in range(m) for k1 in range(m))
        for (y, z), vec in f.table.items():
            moved = [map_apply(times[k], vec, fld) for k in range(m)]
            for k in range(m):
                # f_P at (e_y, x) for <x, q_k> with a coordinate z
                for x, c in xq.get((z, k), ()):
                    add(f_cols[y], x, moved[k], c)
                xs = xq.get((y, k))
                for k1 in range(m) if xs else ():
                    for j, c1 in outer.get((z, (k, k1)), ()):
                        for x, c in xs:
                            add(g_cols[j], x, moved[k1], fld.mul(c, c1))
    if g.table:
        # <q'_l, e_i p'_l'>_B for each i of A, keyed (l, l')
        inner = _index(((l, l1), map_compose(q1_x[l], times[m + l1], fld))
                       for l in range(n) for l1 in range(n))
        for (u, v), vec in g.table.items():
            moved = [map_apply(by[l], vec, fld) for l in range(n)]
            for l in range(n):
                # g_P at (x, e_v) for <q'_l, x> with a coordinate u
                for x, c in qx.get((u, l), ()):
                    add(g_cols[v], x, moved[l], c)
                for l1 in range(n):
                    xs = qx.get((v, l1))
                    for i, c1 in inner.get((u, (l, l1)), ()) if xs else ():
                        for x, c in xs:
                            add(f_cols[i], x, moved[l], fld.mul(c1, c))
    for (i,), hvec in h_left.table.items():
        for x, vec in map_combine([(c, p.left_map(a)) for a, c in hvec.items()], fld).items():
            add(f_cols[i], x, vec, fld.one)
    for (j,), hvec in h_right.table.items():
        for x, vec in map_combine([(c, p.right_map(b)) for b, c in hvec.items()], fld).items():
            add(g_cols[j], x, vec, fld.one)
    return ([{x: halve(vec) for x, vec in cols.items() if vec} for cols in f_cols],
            [{x: halve(vec) for x, vec in cols.items() if vec} for cols in g_cols])


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
    only its t-part w is computed.  Both terms are read off supports, as
    in _hat: each key (a, b) of f.table adds f(a, b) times the coordinate
    a of <x, q_k> and b of <p_k, y>, and each nonzero map f_P(e_i (x) -)
    adds its image of p_k to c_x times the coordinate i of <x, q_k>."""
    fld = ctx.field
    if not f.table and not any(f_tables):
        return {}
    xq = _index(enumerate(
        _with_factors(fld, ctx.pairing_a, [qk for qk, _ in ctx.gens_b], False)))
    out = {}
    if f.table:
        py = _index(enumerate(
            _with_factors(fld, ctx.pairing_a, [pk for _, pk in ctx.gens_b], True)))
        for (a, b), vec in f.table.items():
            for k in range(len(ctx.gens_b)):
                ys = py.get((b, k))
                if ys:
                    for x, c in xq.get((a, k), ()):
                        for y, c1 in ys:
                            _addinto(fld, out.setdefault((x, y), {}), vec, fld.mul(c, c1))
    c_of = {}
    for i, tab in enumerate(f_tables):
        for k, (_, pk) in enumerate(ctx.gens_b):
            xs = xq.get((i, k))
            if tab and xs:
                moved = map_apply(tab, pk, fld)
                for x, c in xs:
                    _addinto(fld, c_of.setdefault(x, {}), moved, c)
    if c_of:
        minus = fld.neg(fld.one)
        # y -> <c_x, y> for each x
        for x, c_x_y in zip(c_of, _with_factors(fld, ctx.pairing_a, list(c_of.values()), True)):
            for y, vec in c_x_y.items():
                _addinto(fld, out.setdefault((x, y), {}), vec, minus)
    return {key: vec for key, vec in out.items() if vec}


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
    first, by ctx.proved_ring() (check 1).  A triple is the first on the
    left factors of R that proved_ring keeps, the rows that decide check
    3, and is named by R's labels; a coordinate of the t-part of a
    deformed unit is named by a:t*x or b:t*y."""
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
    each side.  d g = 0 for g = phi^2(f) is proved on the rows of B
    (deformation_witness; no check when g = 0), which the context's check
    proves associative; the full d g is taken only to name the first
    tuple of a FAIL.  Both sides are one context over (A_f, B_g): the glues of
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
    if g.table and deformation_witness(ctx.b, g.table) is not None:
        # B_g is not associative, so neither hat is a bimodule over it; the
        # full d g names its first nonzero key
        dg = full_differential(g, ctx.b)
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
        from .deform import Deformation
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
