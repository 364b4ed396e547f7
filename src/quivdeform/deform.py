"""The doubled algebra twisted by a 2-cocycle, and its presentation.

For a 2-cocycle f on A the deformed algebra A_f lives on A + At with

    (a0, b0) (a1, b1) = (a0 a1, a0 b1 + b0 a1 + f(a0, a1)),

which is associative exactly because f is a cocycle: the associator is
(0, df).  Deformation is the one builder of A_f: it writes this product
as structure constants of a FinDimAlgebra on the basis (x_i, 0),
(0, x_i), for a full 2-cochain on any structure-constant algebra, and
checks only the unit.  Each command proves d f = 0 once, where it reads
the cochain.  DeformedAlgebra is the Deformation of an AlgebraBasis, the
path basis of kQ/I and a FinDimAlgebra itself, for a reduced cochain.
Elements of kQ/I and of A_f are coordinate dicts {index: scalar}, as for
every FinDimAlgebra; (a, b) in A_f has a at the indices below dim A and b
shifted by dim A.

This module also builds the path-lifting map hat_f, read from the table
of kQ/I, and a quiver presentation of the deformed algebra: every
original arrow is doubled to a hatted copy, vertices whose idempotent is
missed by the image of f get a new loop, and three relation families cut
the result down to the right size.  Everything claimed is then
re-verified by independent computation in verify_presentation, through
DeformedAlgebra.evaluation, the one evaluation of free elements in A_f.
"""

from .errors import (ComputationError, EpsilonUnresolvable, InputError,
                     NormalizationFailed, NotACocycle)
from .hochschild import (check_reduced, cobound_solve, cochain_from_paths,
                         cocycle_witness, is_cocycle)
from .linalg import FinDimAlgebra, SpanSolver, _addinto, deformation_witness, map_apply
from .quiver import FreeElement, Quiver, _standard_paths, relation_endpoints


class Deformation(FinDimAlgebra):
    """A_f for a full 2-cochain f on a FinDimAlgebra alg, which it keeps
    as base, with f as f.  Only the unit is checked.  The associator of
    A_f is (0, -d f) on the basis triples of alg, so A_f is associative
    exactly when f is a cocycle, which the caller proves.  A full cocycle
    need not be normalised (f(x, y) = c xy with c != 0 is one), and then
    (1, 0) is not the unit of A_f, which the unit check refuses.
    """

    def __init__(self, alg, f):
        if f.degree != 2 or f.dim != alg.dim:
            raise InputError("deformation needs a 2-cochain on the same algebra")
        n = alg.dim
        table = {}
        for (i, j), prod in alg.table.items():
            table[(i, j)] = dict(prod)
            table[(i, n + j)] = table[(n + i, j)] = {n + k: c for k, c in prod.items()}
        for key, value in f.table.items():
            table.setdefault(key, {}).update((n + k, c) for k, c in value.items())
        labels = list(alg.labels) + ["t*" + s for s in alg.labels]
        super().__init__(alg.field, 2 * n, table, alg.unit, labels, check=False)
        self.base, self.f = alg, f
        self.check_unit()

    def generators(self):
        """The generators (x, 0) of the base, then (0, e_u) for u in the
        support of its unit 1_A, in increasing order; kept.

        They generate A_f as a unital algebra.  The unital subalgebra T
        they generate holds the products of the (x, 0), which are (w,
        b_w) for the words w of the base's generators, with some b_w;
        these w span A, so T holds some (y, b) for every y of A.  As (0,
        e_u)(y, b) = (0, e_u y), summing with the coefficients of 1_A
        gives (0, y) in T, and then (y, 0).  So T is A_f."""
        if self._generators is None:
            n = self.base.dim
            self._generators = list(self.base.generators()) + [n + u for u in
                                                               sorted(self.base.unit)]
        return self._generators


class DeformedAlgebra(Deformation):
    """A_f for a reduced 2-cochain f on the path basis of A: the
    Deformation of the AlgebraBasis basis, which is its base.

    Basis: (gamma, 0) for gamma in the basis of A, then (0, gamma); so
    index i < n is (basis path i, 0) and n + i is (0, basis path i), for
    n = base.dim.
    """

    def __init__(self, basis, f):
        check_reduced(f, basis)
        super().__init__(basis, f)

    def evaluation(self, quiver):
        """The map sending a free element over quiver to its image in
        A_f, as coordinates: a vertex goes to its idempotent, arrow a of
        Q to (a, 0) and a loop past the arrows of Q to (0, e_v) at its
        vertex v.  quiver is Q or the quiver of a presentation, which
        lists the hatted arrows of Q first, in their order, and then the
        added loops; a quiver of any other shape is refused."""
        basis = self.base
        q = basis.quiver
        n_arrows = len(q.arrows)
        if (quiver.vertices != q.vertices
                or [a[1:] for a in quiver.arrows[:n_arrows]] != [a[1:] for a in q.arrows]
                or any(s != t for _, s, t in quiver.arrows[n_arrows:])):
            raise InputError("the quiver is not Q followed by loops")
        images = [basis.element_from_path((s, a)) for a, (_, s, _) in enumerate(q.arrows)]
        images += [{basis.dim + k: c for k, c in basis.element_from_path((s,)).items()}
                   for _, s, _ in quiver.arrows[n_arrows:]]

        def evaluate(elem):
            total = {}
            for p, c in elem.terms.items():
                cur = basis.element_from_path((p[0],))
                for a in p[1:]:
                    cur = self.mul(cur, images[a])
                _addinto(self.field, total, cur, c)
            return total

        return evaluate

    def associativity_holds(self):
        """Whether (xy)z = x(yz) on all basis triples.  The associator of
        A_f is (0, -d f) on the triples of the base and 0 on the others,
        so this is d f = 0, proved by deformation_witness on the base; its
        first failing triple (r, j, k), which is also the triple of the
        (x_i, 0) of A_f, or None, is kept as self.witness."""
        self.witness = deformation_witness(self.base, self.f.table)
        return self.witness is None


def hat_f(w, basis, f):
    """Value of the path-lifting map on a free element, as coordinates.

    On a path a_1 ... a_s this is the sum over cut points of
    f(class of a_1..a_i, class of a_{i+1}) times the class of the tail
    a_{i+2}..a_s, and zero for paths of length at most one.

    Each path is walked once, in the table of kQ/I: the prefix classes
    are a running product of the arrow classes from the left, and the
    tail classes are suffix products from the right.  These are the
    classes of the words themselves, since w -> [w] is an algebra map
    kQ -> kQ/I.
    """
    q = basis.quiver
    out = {}
    for p, c in w.terms.items():
        s = len(p) - 1
        if s <= 1:
            continue
        arrows = [basis.element_from_path((q.arrows[a][1], a)) for a in p[1:]]
        tails = [None]  # tails[m]: class of the last m arrows, None for m = 0
        for x in reversed(arrows[2:]):
            tails.append(x if tails[-1] is None else basis.mul(x, tails[-1]))
        prefix = arrows[0]
        for i in range(1, s):
            if i > 1:
                prefix = basis.mul(prefix, arrows[i - 1])
            head = f.evaluate(prefix, arrows[i])
            tail = tails[s - 1 - i]
            if head and tail is not None:
                head = basis.mul(head, tail)
            _addinto(basis.field, out, head, c)
    return out


def _hat_multiple_span(basis, f, endpoints=None):
    """SpanSolver over hat_f of u*rho*v multiples of the relations, for a
    reduced 2-cocycle f.

    Tags are (u, relation index, v) with u and v basis paths.  With
    endpoints=(i, i) only multiples starting and ending at that vertex
    are taken.

    No multiple is formed in kQ: hat_f(u rho v) = [u] hat_f(rho) [v].
    For a reduced cocycle, w -> ([w], hat_f(w)) is the algebra map
    kQ -> A_f sending a trivial path to its idempotent (e, 0) and an
    arrow a to ([a], 0), since hat_f of a path is the t-part of the
    product of its arrows in A_f; it needs A_f associative, so d f = 0.
    As [rho] = 0, the image of u rho v is ([u], hat_f(u)) (0, hat_f(rho))
    ([v], hat_f(v)) = (0, [u] hat_f(rho) [v]).  When u, rho and v do not
    compose, u rho v = 0 in kQ, and [u] hat_f(rho) [v] = 0 too, since
    hat_f(rho) lies in the corner of the endpoints of rho.
    """
    q = basis.quiver
    one = basis.field.one
    solver = SpanSolver(basis.field)
    for k, rel in enumerate(basis.relations):
        hat_rel = hat_f(rel, basis, f)
        for i, u in enumerate(basis.paths):
            if endpoints is not None and q.path_source(u) != endpoints[0]:
                continue
            left = basis.mul({i: one}, hat_rel)
            if not left:
                continue
            for j, v in enumerate(basis.paths):
                if endpoints is not None and q.path_target(v) != endpoints[1]:
                    continue
                val = basis.mul(left, {j: one})
                if val:
                    solver.add(val, (u, k, v))
    return solver


class ImageConditionReport:
    def __init__(self, ok, witnesses, failing):
        self.ok = ok
        self.witnesses = witnesses  # key pair -> {(u, rel idx, v): coeff}
        self.failing = failing      # key pairs with no expression


def check_image_condition(basis, f):
    """Is every value of f expressible through hat_f of ideal elements?

    f is a reduced 2-cocycle, which the caller proves, as for
    Deformation: hat_f of the multiples u*rho*v is read off hat_f of the
    relations by an identity that needs d f = 0 (_hat_multiple_span).
    build_presentation proves it before normalize_cocycle, and that
    proves it for its representative before the second check.
    """
    check_reduced(f, basis)
    solver = _hat_multiple_span(basis, f)
    witnesses = {}
    failing = []
    for key, value in f.table.items():
        combo = solver.express(dict(value))
        if combo is None:
            failing.append(key)
        else:
            witnesses[key] = combo
    return ImageConditionReport(not failing, witnesses, failing)


def _arrow_cuts(q, p):
    """Occurrences of arrows inside p: (left path, arrow index, right path)."""
    out = []
    src = p[0]
    arrows = p[1:]
    for i, a in enumerate(arrows):
        left = (src,) + arrows[:i]
        right_arrows = arrows[i + 1:]
        if right_arrows:
            right = (q.arrows[a][2],) + right_arrows
        else:
            right = (q.arrows[a][2],)
        out.append((left, a, right))
    return out


def _transported_cocycle(basis, f):
    """The cohomologous representative obtained by pushing f through
    the two projective resolutions (down with the contracting homotopy,
    back up with the cut-point comparison map).

    Down, the generator at (w1, w2) goes to w1 c(w2) - c(w1 w2) + c(w1) w2,
    where c(w) has one term l (x) a (x) r per occurrence of an arrow a in
    w, l and r the classes of the paths before and after it.  Up, a term
    with l the class of a path gamma goes to hat_f(gamma a - [gamma a]) r.
    In c(w1 w2) and c(w1) w2 each such gamma a is a prefix of a basis
    path, which is a standard monomial, since subwords of standard
    monomials are standard; so [gamma a] = gamma a and those terms vanish.
    Only w1 c(w2) is pushed, with l the class of w1 times the path before
    a.
    """
    q = basis.quiver
    fld = basis.field
    table = {}
    rad = [basis.paths[i] for i in basis.radical_indices]
    for w1 in rad:
        for w2 in rad:
            if q.path_target(w1) != q.path_source(w2):
                continue
            total = {}
            for left, a, right in _arrow_cuts(q, w2):
                r = basis.element_from_path(right)
                for li, lc in basis.element_from_path(q.compose(w1, left)).items():
                    gamma = basis.paths[li]
                    if len(gamma) == 1:
                        continue  # a trivial left slot contributes nothing
                    word = q.compose(gamma, (q.arrows[a][1], a))
                    if word is None:
                        continue
                    rho = (FreeElement.from_path(q, fld, word)
                           - basis.to_free(basis.element_from_path(word)))
                    if rho.is_zero():
                        continue
                    val = hat_f(rho, basis, f)
                    if val:
                        _addinto(fld, total, basis.mul(val, r), lc)
            if total:
                table[(w1, w2)] = total
    return cochain_from_paths(basis, 2, table)


def normalize_cocycle(basis, f):
    """Replace the cocycle f, which the caller proves one, by a
    cohomologous cocycle whose image condition holds.

    Returns f itself when the condition already holds.
    """
    if check_image_condition(basis, f).ok:
        return f
    f2 = _transported_cocycle(basis, f)
    if not is_cocycle(f2, basis):
        raise NormalizationFailed("transported representative is not a cocycle")
    if cobound_solve(f - f2, basis) is None:
        raise NormalizationFailed("transported representative changed the "
                                  "cohomology class")
    if not check_image_condition(basis, f2).ok:
        raise NormalizationFailed("transported representative still fails "
                                  "the image condition")
    return f2


class EpsilonEntry:
    """How the square-zero element at a vertex is realised: a fresh
    loop arrow, or a combination of lifted relations."""

    def __init__(self, kind, element, witness):
        self.kind = kind        # "arrow" or "combination"
        self.element = element  # FreeElement over the deformed quiver
        self.witness = witness  # arrow name, or {relation index: scalar}


class Presentation:
    """Quiver presentation of a deformed algebra."""

    def __init__(self, quiver, relations, origins, epsilon, dashed,
                 extended, cocycle):
        self.quiver = quiver
        self.relations = relations
        self.origins = origins
        self.epsilon = epsilon
        self.dashed = dashed            # names of the added loops
        self.extended = extended        # multiples appended to the relation set
        self.cocycle = cocycle          # the representative presented
        for r in relations:
            relation_endpoints(r)


def _hat_free(elem, quiver_f, field):
    # arrows of the deformed quiver list the hatted originals first, in
    # order, so paths carry over unchanged
    return FreeElement(quiver_f, field, dict(elem.terms))


def build_presentation(basis, f):
    """Quiver and relations presenting the deformed algebra of the
    2-cocycle f; raises NotACocycle for any other cochain, with the
    first basis tuple where d f is nonzero as its witness.

    The presentation needs every vertex idempotent in the basis of A,
    and raises InputError (exit code 2) for relations that kill one, as
    relation e(1)*e(1) does.  It needs the image condition.  When f
    fails it, the cohomologous representative of normalize_cocycle is
    presented instead, and pres.cocycle says which cocycle was
    presented.
    Returns the Presentation; pres.epsilon maps each vertex id to its
    EpsilonEntry.
    """
    witness = cocycle_witness(f, basis)
    if witness is not None:
        raise NotACocycle("the cochain does not satisfy d^2 f = 0", witness)
    f = normalize_cocycle(basis, f)
    q = basis.quiver
    fld = basis.field
    for vi, name in enumerate(q.vertices):
        if (vi,) not in basis.index:
            raise InputError("the relations kill the vertex idempotent e(%s); the "
                             "presentation needs admissible relations" % name)
    image_span = SpanSolver(fld)
    for idx, value in enumerate(f.table.values()):
        image_span.add(dict(value), idx)

    def e_vec(vi):
        return {basis.index[(vi,)]: fld.one}

    missed = [vi for vi in range(len(q.vertices))
              if not image_span.contains(e_vec(vi))]

    hat_names = {name: name + "^" for name, _, _ in q.arrows}
    arrows_f = [(hat_names[name], q.vertices[s], q.vertices[t])
                for name, s, t in q.arrows]
    loop_names = {}
    for vi in missed:
        nm = "e^" + q.vertices[vi]
        loop_names[vi] = nm
        arrows_f.append((nm, q.vertices[vi], q.vertices[vi]))
    quiver_f = Quiver(list(q.vertices), arrows_f)

    relations = [r for r in basis.relations]
    extended = []

    # resolve the square-zero element at each covered vertex
    epsilon = {}
    for vi in range(len(q.vertices)):
        if vi in loop_names:
            epsilon[q.vertices[vi]] = EpsilonEntry(
                "arrow",
                FreeElement.from_path(quiver_f, fld,
                                      quiver_f.arrow_path(loop_names[vi])),
                loop_names[vi])
            continue
        solver = SpanSolver(fld)
        candidates = []
        for k, rel in enumerate(relations):
            src, tgt = relation_endpoints(rel)
            if (src, tgt) == (vi, vi):
                val = hat_f(rel, basis, f)
                if val:
                    solver.add(val, len(candidates))
                    candidates.append(k)
        combo = solver.express(e_vec(vi))
        if combo is None:
            # allow multiples u*rho*v by basis paths; any that get used
            # are appended to the relation set
            mult_solver = _hat_multiple_span(basis, f, endpoints=(vi, vi))
            mcombo = mult_solver.express(e_vec(vi))
            if mcombo is None:
                raise EpsilonUnresolvable(
                    "vertex %s: its idempotent lies in the image of the "
                    "cocycle but cannot be expressed through lifted "
                    "multiples u*rho*v of the relations" % q.vertices[vi])
            combo = {}
            for (u, k, v), c in mcombo.items():
                m = FreeElement.from_path(q, fld, u) * relations[k] \
                    * FreeElement.from_path(q, fld, v)
                relations.append(m)
                extended.append(len(relations) - 1)
                combo[len(relations) - 1] = c
        else:
            combo = {candidates[t]: c for t, c in combo.items()}
        elem = FreeElement.zero(quiver_f, fld)
        for k, c in combo.items():
            elem = elem + _hat_free(relations[k], quiver_f, fld).scale(c)
        epsilon[q.vertices[vi]] = EpsilonEntry("combination", elem, combo)

    rels_f = []
    origins = []

    def emit(elem, origin):
        if not elem.is_zero():
            rels_f.append(elem)
            origins.append(origin)

    for vi, vid in enumerate(q.vertices):
        eps = epsilon[vid].element
        emit(eps * eps, "square-zero:%s" % vid)
    for name, s, t in q.arrows:
        alpha = FreeElement.from_path(quiver_f, fld,
                                      quiver_f.arrow_path(hat_names[name]))
        emit(epsilon[q.vertices[s]].element * alpha
             - alpha * epsilon[q.vertices[t]].element,
             "commute:%s" % name)
    for k, rel in enumerate(relations):
        src, tgt = relation_endpoints(rel)
        w_free = _hat_free(basis.to_free(hat_f(rel, basis, f)), quiver_f, fld)
        lifted = _hat_free(rel, quiver_f, fld)
        emit(lifted - w_free * epsilon[q.vertices[tgt]].element,
             "lift:%d" % k)

    return Presentation(quiver_f, rels_f, origins, epsilon, set(loop_names.values()),
                        [relations[i] for i in extended], f)


def interreduce_presentation(pres, field, max_degree=30):
    """Replace the relation list by the completed rewrite rules; the
    ideal is unchanged, the generators become canonical."""
    from .quiver import RewriteSystem
    rs = RewriteSystem(pres.quiver, field, pres.relations,
                       degree_cap=2 * max_degree)
    rels = []
    for w in sorted(rs.rules, key=lambda p: (len(p) - 1, p[1:], p[0])):
        rels.append(FreeElement.from_path(pres.quiver, field, w) - rs.rules[w])
    return Presentation(pres.quiver, rels, ["interreduced"] * len(rels),
                        pres.epsilon, pres.dashed, pres.extended, pres.cocycle)


def verify_presentation(deformed, pres, max_degree=30):
    """Three independent checks that pres presents the DeformedAlgebra
    deformed, whose cocycle must be the one pres was built for.

    Returns a list of (name, passed, detail) triples: the dimension
    count, vanishing of the relations under evaluation, and linear
    independence of the evaluated basis candidates.
    """
    if deformed.f != pres.cocycle:
        raise InputError("the presentation was built for another cocycle")
    basis = deformed.base
    fld = basis.field
    checks = []

    # only the dimension of kQ_f/I_f is read, so no product of it is formed
    dim_f = len(_standard_paths(pres.quiver, pres.relations, fld, max_degree)[1])
    ok_dim = dim_f == 2 * basis.dim
    checks.append(("dimension", ok_dim,
                   "dim kQ_f/I_f = %d, expected %d" % (dim_f, 2 * basis.dim)))

    evaluate = deformed.evaluation(pres.quiver)
    bad = []
    for k, r in enumerate(pres.relations):
        if evaluate(r):
            bad.append(k)
    detail = "%d of %d generators evaluate to zero" % (
        len(pres.relations) - len(bad), len(pres.relations))
    if bad:
        detail += "; the first that does not is %s" % pres.origins[bad[0]]
    checks.append(("relations-vanish", not bad, detail))

    # the candidates w^ and w^ * eps(v) for each basis path w ending at v,
    # named by the hatted path
    q = basis.quiver
    qf = pres.quiver
    span = SpanSolver(fld)
    dependent = []
    for p in basis.paths:
        hat = _hat_free(FreeElement.from_path(q, fld, p), qf, fld)
        vertex = q.vertices[q.path_target(p)]
        name = qf.path_str(p)
        for value, label in ((hat, name), (hat * pres.epsilon[vertex].element,
                                           "%s*eps(%s)" % (name, vertex))):
            if not span.add(evaluate(value)):
                dependent.append(label)
    detail = "rank %d of %d evaluated candidates" % (span.dim, 2 * basis.dim)
    if dependent:
        detail += "; the first in the span of the earlier ones is %s" % dependent[0]
    checks.append(("independence", not dependent, detail))
    return checks


def deformation_equivalence(f, f2, basis):
    """Explicit isomorphism phi: A_f -> A_f2, as a sparse map {index:
    coordinates}, or None when the cocycles are not cohomologous.  The
    caller has proved f and f2 to be cocycles, so A_f and A_f2 are
    associative.

    Expanding phi(x) phi(y) = phi(xy) for phi(a, b) = (a, b + g(a))
    gives f - f2 = dg, which is the equation cobound_solve solves.  The
    multiplicativity is still checked, on the structure constants, at the
    pairs (x_r, x_j) for r in R = A_f.unit_and_generators() and every
    basis index j.  That proves it on all basis pairs: T = {x : phi(xy) =
    phi(x) phi(y) for all y} is a subspace that holds R, so holds 1, and
    is closed under x -> gx for each generator g, since

        phi((gx)y) = phi(g(xy)) = phi(g) phi(xy) = phi(g) (phi(x) phi(y))
                   = (phi(g) phi(x)) phi(y) = phi(gx) phi(y)

    by the associativity of A_f and of A_f2; so T holds every word in
    the generators, as in linalg.deformation_witness.
    """
    g = cobound_solve(f - f2, basis)
    if g is None:
        return None
    d_f = DeformedAlgebra(basis, f)
    d_f2 = DeformedAlgebra(basis, f2)
    n, fld = basis.dim, basis.field
    # phi on coordinates: (x_i, 0) -> (x_i, g(x_i)) and (0, x_i) fixed
    phi = {i: {i: fld.one, **{n + k: c for k, c in g.value((i,)).items()}}
           for i in range(n)}
    phi.update((n + i, {n + i: fld.one}) for i in range(n))
    for r in d_f.unit_and_generators():
        for j in range(d_f.dim):
            if map_apply(phi, d_f.multiply_basis(r, j), fld) != d_f2.mul(phi[r], phi[j]):
                raise ComputationError(
                    "the coboundary witness is not multiplicative at the "
                    "basis pair (%s, %s)" % (d_f.labels[r], d_f.labels[j]))
    return phi
