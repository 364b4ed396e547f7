"""Quivers, the path algebra kQ, and finite-dimensional quotients kQ/I.

Paths are tuples (source_vertex_index, arrow_index, arrow_index, ...);
the trivial path at vertex v is (v,).  Arrows compose left to right, so
the path a*b traverses a first and requires t(a) = s(b).

Quotients are handled by a two-sided rewriting system: relations are
completed into a confluent set of rules (leading word -> smaller
element) under the degree-lexicographic order whose lex ties are broken
by declaration order, earlier arrow = larger.  That tie direction is
forced by the quotient conventions used throughout: with relation
a*b + q*b*a the path a*b must reduce and b*a must stay standard.

Standard monomials (paths with no rule word as a subword) then form an
exact basis of kQ/I, and every normal form is exact, not truncated: the
completion resolves all overlap ambiguities, so the diamond lemma
applies to words of every length.

AlgebraBasis is kQ/I as a FinDimAlgebra on the standard monomials: its
structure table holds the normal forms of products of basis paths, and
an element of kQ/I is, as for every FinDimAlgebra, a coordinate dict
{basis index: scalar} that multiplies through that table.
"""

from collections import deque
from itertools import count

from .errors import InputError, NotFiniteDimensional, SizeLimitExceeded
from .linalg import FinDimAlgebra, _addinto, _scaled

# The most standard monomials that compute_basis enumerates; one more
# raises SizeLimitExceeded.  On two loops with one monomial relation the
# count grows exponentially with the length bound, and a basis of a few
# thousand elements is already far too large for the cochain spaces.
MAX_BASIS_DIM = 4096

# The most reduction steps one completion of RewriteSystem takes before
# it raises SizeLimitExceeded; the tests and benchmark need at most 3,032.
MAX_REWRITE_STEPS = 400000


def path_order_key(p):
    # larger key = larger monomial: longer first, then earlier-declared
    # arrows (smaller index) win lex ties
    return (len(p) - 1, tuple(-a for a in p[1:]), -p[0])


class Quiver:
    def __init__(self, vertices, arrows):
        """vertices: list of id strings; arrows: list of (name, src_id, tgt_id)."""
        if not vertices:
            raise InputError("a quiver needs at least one vertex")
        if len(set(vertices)) != len(vertices):
            raise InputError("duplicate vertex ids")
        self.vertices = [str(v) for v in vertices]
        self.vindex = {v: i for i, v in enumerate(self.vertices)}
        names = [a[0] for a in arrows]
        if len(set(names)) != len(names):
            raise InputError("duplicate arrow names")
        if set(names) & set(self.vertices):
            raise InputError("arrow names may not collide with vertex ids")
        self.arrows = []
        for name, s, t in arrows:
            s, t = str(s), str(t)
            if s not in self.vindex or t not in self.vindex:
                raise InputError("arrow %s : %s -> %s has an unknown endpoint" % (name, s, t))
            self.arrows.append((str(name), self.vindex[s], self.vindex[t]))
        self.aindex = {a[0]: i for i, a in enumerate(self.arrows)}

    def __eq__(self, other):
        return (isinstance(other, Quiver) and self.vertices == other.vertices
                and self.arrows == other.arrows)

    def trivial_path(self, vertex_id):
        return (self.vindex[str(vertex_id)],)

    def arrow_path(self, name):
        i = self.aindex[name]
        return (self.arrows[i][1], i)

    def path_source(self, p):
        return p[0]

    def path_target(self, p):
        return self.arrows[p[-1]][2] if len(p) > 1 else p[0]

    def compose(self, p, q):
        """Concatenation p*q, or None if t(p) != s(q)."""
        if self.path_target(p) != q[0]:
            return None
        return p + q[1:]

    def vertex_seq(self, p):
        seq = [p[0]]
        for a in p[1:]:
            seq.append(self.arrows[a][2])
        return seq

    def subpath(self, p, i, j):
        """The path of the arrows i to j - 1 of p; when i == j, the trivial
        path at the vertex before arrow i."""
        if i == j:
            return (self.vertex_seq(p)[i],)
        return (self.arrows[p[1 + i]][1],) + p[1 + i:1 + j]

    def path_str(self, p):
        if len(p) == 1:
            return "e(%s)" % self.vertices[p[0]]
        return "*".join(self.arrows[a][0] for a in p[1:])

    def path_from_arrow_names(self, names):
        idxs = [self.aindex[n] for n in names]
        p = (self.arrows[idxs[0]][1],) + tuple(idxs)
        for a, b in zip(idxs, idxs[1:]):
            if self.arrows[a][2] != self.arrows[b][1]:
                raise InputError("arrows do not compose: %s" % "*".join(names))
        return p


class FreeElement:
    """A k-linear combination of paths (an element of the path algebra kQ)."""

    __slots__ = ("quiver", "field", "terms")

    def __init__(self, quiver, field, terms=None):
        self.quiver = quiver
        self.field = field
        self.terms = {}
        if terms:
            for p, c in terms.items():
                if c != field.zero:
                    self.terms[p] = c

    @classmethod
    def zero(cls, quiver, field):
        return cls(quiver, field)

    @classmethod
    def from_path(cls, quiver, field, p, coeff=None):
        return cls(quiver, field, {p: field.one if coeff is None else coeff})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, FreeElement) and self.quiver is other.quiver
                and self.terms == other.terms)

    def __add__(self, other):
        f = self.field
        return FreeElement(self.quiver, f, _addinto(f, dict(self.terms), other.terms, f.one))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.field
        return FreeElement(self.quiver, f, {p: f.neg(c) for p, c in self.terms.items()})

    def scale(self, c):
        return FreeElement(self.quiver, self.field, _scaled(self.field, self.terms, c))

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __mul__(self, other):
        if not isinstance(other, FreeElement):
            return self.scale(other)
        f = self.field
        q = self.quiver
        out = {}
        for p1, c1 in self.terms.items():
            for p2, c2 in other.terms.items():
                p = q.compose(p1, p2)
                if p is None:
                    continue
                s = f.add(out.get(p, f.zero), f.mul(c1, c2))
                if s == f.zero:
                    out.pop(p, None)
                else:
                    out[p] = s
        return FreeElement(q, f, out)

    def leading(self):
        """(path, coeff) of the largest monomial, or None."""
        if not self.terms:
            return None
        p = max(self.terms, key=path_order_key)
        return p, self.terms[p]

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for p in sorted(self.terms, key=lambda t: (len(t) - 1, t[1:], t[0])):
            c = self.terms[p]
            bits.append("%s*%s" % (self.field.to_str(c), self.quiver.path_str(p)))
        return " + ".join(bits)


def relation_endpoints(elem):
    """Common (source, target) of all terms; raises if they disagree."""
    if elem.is_zero():
        raise InputError("zero relation")
    q = elem.quiver
    ends = {(q.path_source(p), q.path_target(p)) for p in elem.terms}
    if len(ends) != 1:
        raise InputError("relation mixes sources/targets: %r" % elem)
    return next(iter(ends))


def validate_admissible_relations(relations):
    """Input-side shape check: every term a path of length >= 2."""
    for r in relations:
        relation_endpoints(r)
        for p in r.terms:
            if len(p) - 1 < 2:
                raise InputError(
                    "input relation has a term of length %d (admissible "
                    "presentations need length >= 2): %r" % (len(p) - 1, r))


class RewriteSystem:
    """Completed two-sided rewriting system for an ideal of kQ.

    Rules map a monic leading word to the element it rewrites to.  All
    overlap ambiguities (including the insertion ambiguities of rules
    whose leading word is a trivial path) are resolved, so reduction
    computes exact normal forms in every degree.

    A match is looked for among the rules that can match: those whose
    word starts with an arrow of the path, and the trivial-path rules at
    its vertices.  Of those, the rule added first wins, as if every rule
    were tried in order.
    """

    def __init__(self, quiver, field, elements, degree_cap):
        self.quiver = quiver
        self.field = field
        self.degree_cap = degree_cap
        self.rules = {}  # leading path -> FreeElement
        self._rank = {}  # leading path -> its place in the order of rules
        self._ranks = count()
        self._by_head = {}  # first arrow -> the non-trivial leading paths
        self._at_vertex = {}  # vertex -> the trivial leading path there
        pending = deque(e for e in elements if not e.is_zero())
        budget = iter(range(MAX_REWRITE_STEPS))

        def reduce(elem):
            # self.reduce, each step spending one of MAX_REWRITE_STEPS
            terms = dict(elem.terms)
            for _ in self.steps(terms):
                if next(budget, None) is None:
                    raise SizeLimitExceeded("completing the relations takes more than %d "
                                            "reduction steps" % MAX_REWRITE_STEPS)
            return FreeElement(quiver, field, terms)

        while pending:
            elem = reduce(pending.popleft())
            if elem.is_zero():
                continue
            w, c = elem.leading()
            if len(w) - 1 > degree_cap:
                raise NotFiniteDimensional(
                    "completion produced a rule of degree %d beyond the bound %d"
                    % (len(w) - 1, degree_cap))
            inv = field.inv(c)
            rhs_terms = {p: field.neg(field.mul(inv, v))
                         for p, v in elem.terms.items() if p != w}
            rhs = FreeElement(quiver, field, rhs_terms)
            # older rules whose leading word the new rule reaches must be redone
            for old in [ow for ow in self.rules if self._word_hits(w, ow)]:
                old_rhs = self._drop_rule(old)
                pending.append(FreeElement.from_path(quiver, field, old) - old_rhs)
            for other_w, other_rhs in list(self.rules.items()) + [(w, rhs)]:
                for s in self._spolys(w, rhs, other_w, other_rhs):
                    pending.append(s)
                if other_w != w:
                    for s in self._spolys(other_w, other_rhs, w, rhs):
                        pending.append(s)
            self._add_rule(w, rhs)
        # canonical form: rule right-hand sides fully reduced
        for w in list(self.rules):
            self.rules[w] = reduce(self.rules[w])

    def _add_rule(self, w, rhs):
        # w is reduced by the rules so far, so it is not one of them
        self.rules[w] = rhs
        self._rank[w] = next(self._ranks)
        if len(w) == 1:
            self._at_vertex[w[0]] = w
        else:
            self._by_head.setdefault(w[1], []).append(w)

    def _drop_rule(self, w):
        del self._rank[w]
        if len(w) == 1:
            del self._at_vertex[w[0]]
        else:
            self._by_head[w[1]].remove(w)
        return self.rules.pop(w)

    def _word_hits(self, w, target):
        """Does rule word w match somewhere inside the word `target`?"""
        if len(w) == 1:
            return w[0] in self.quiver.vertex_seq(target)
        wa, ta = w[1:], target[1:]
        n, m = len(wa), len(ta)
        return any(ta[i:i + n] == wa for i in range(m - n + 1))

    def _spolys(self, w1, r1, w2, r2):
        """Elements witnessing the ambiguities of w1 against w2."""
        q, f = self.quiver, self.field
        out = []
        a1, a2 = w1[1:], w2[1:]
        if len(a1) == 0:
            # trivial-path rule inserted at every visit of its vertex
            v = w1[0]
            seq = q.vertex_seq(w2)
            for i, u in enumerate(seq):
                if u != v:
                    continue
                left = FreeElement.from_path(q, f, q.subpath(w2, 0, i))
                right = FreeElement.from_path(q, f, q.subpath(w2, i, len(a2)))
                out.append(r2 - left * r1 * right)
            return out
        for u, z in self.overlaps(w1, w2):
            out.append(r1 * FreeElement.from_path(q, f, z)
                       - FreeElement.from_path(q, f, u) * r2)
        return out

    def overlaps(self, w1, w2):
        """The proper overlaps of the words w1 = u v and w2 = v z, where v
        has 1 to min(|w1|, |w2|) - 1 arrows, as the pairs (u, z) of paths;
        w1 = w2 gives the self-overlaps."""
        q = self.quiver
        a1, a2 = w1[1:], w2[1:]
        for k in range(1, min(len(a1), len(a2))):
            if a1[len(a1) - k:] == a2[:k]:
                yield q.subpath(w1, 0, len(a1) - k), q.subpath(w2, k, len(a2))

    def _find_match(self, p):
        """(left, word, right) splitting p around the first rule word, in
        the order of rules, that occurs in p, at its first occurrence; or
        None.  Positions are scanned left to right and a match replaces
        the one found only when its rule comes earlier."""
        q, rank = self.quiver, self._rank
        arrows = p[1:]
        best = None  # (rank, start, word, end)
        if self._at_vertex:
            for i, u in enumerate(q.vertex_seq(p)):
                w = self._at_vertex.get(u)
                if w is not None and (best is None or rank[w] < best[0]):
                    best = (rank[w], i, w, i)
        for i, a in enumerate(arrows):
            for w in self._by_head.get(a, ()):
                if (best is None or rank[w] < best[0]) and arrows[i:i + len(w) - 1] == w[1:]:
                    best = (rank[w], i, w, i + len(w) - 1)
        if best is None:
            return None
        _, i, w, j = best
        return q.subpath(p, 0, i), w, q.subpath(p, j, len(arrows))

    def steps(self, terms):
        """The rewrite steps that bring the coordinate dict terms {path: c}
        to its normal form, in place.  Each step rewrites the largest
        reducible term c*left*w*right to c*left*rules[w]*right and is
        yielded, after it is made, as (c, left, w, right)."""
        f = self.field
        q = self.quiver
        while True:
            best = None
            for p in terms:
                m = self._find_match(p)
                if m is None:
                    continue
                if best is None or path_order_key(p) > path_order_key(best[0]):
                    best = (p, m)
            if best is None:
                return
            p, (left, w, right) = best
            c = terms.pop(p)
            replaced = FreeElement.from_path(q, f, left) * self.rules[w] \
                * FreeElement.from_path(q, f, right)
            _addinto(f, terms, replaced.terms, c)
            yield c, left, w, right

    def reduce(self, elem):
        """Exact normal form of elem modulo the ideal."""
        terms = dict(elem.terms)
        for _ in self.steps(terms):
            pass
        return FreeElement(self.quiver, self.field, terms)

    def is_reducible(self, p):
        return self._find_match(p) is not None

    def standard_monomials(self, max_len):
        """All irreducible paths, certified shorter than max_len.

        Irreducible paths are closed under subwords, so if none of length
        exactly max_len exists the enumeration is complete; otherwise the
        quotient is not certified finite-dimensional and we refuse.  More
        than MAX_BASIS_DIM paths raise SizeLimitExceeded at once.

        A candidate p a extends an irreducible p, so a rule word that
        occurs in it occurs at its end: a word ending with the arrow a,
        or the trivial path at the target of a.  Only those are tried.
        """
        q = self.quiver
        out = []
        layer = []
        for v in range(len(q.vertices)):
            p = (v,)
            if not self.is_reducible(p):
                layer.append(p)
        by_target = {}
        for i, (_, s, t) in enumerate(q.arrows):
            by_target.setdefault(s, []).append(i)
        # the arrows of each non-trivial rule word, by its last arrow
        by_last = {}
        for w in self.rules:
            if len(w) > 1:
                by_last.setdefault(w[-1], []).append(w[1:])

        def reducible_at_end(cand):
            arrows = cand[1:]
            return (q.path_target(cand) in self._at_vertex
                    or any(len(w) <= len(arrows) and arrows[len(arrows) - len(w):] == w
                           for w in by_last.get(arrows[-1], ())))
        while layer:
            out.extend(layer)
            if len(layer[0]) - 1 >= max_len:
                raise NotFiniteDimensional(
                    "a standard monomial of length %d survives (bound %d); "
                    "the quotient is not certified finite-dimensional"
                    % (max_len, max_len))
            nxt = []
            for p in layer:
                for a in by_target.get(q.path_target(p), []):
                    cand = p + (a,)
                    if not reducible_at_end(cand):
                        nxt.append(cand)
                        if len(out) + len(nxt) > MAX_BASIS_DIM:
                            raise SizeLimitExceeded(
                                "more than %d standard monomials below length %d"
                                % (MAX_BASIS_DIM, max_len))
            layer = nxt
        return out


class AlgebraBasis(FinDimAlgebra):
    """kQ/I as a FinDimAlgebra on its monomial basis, with exact normal
    forms.

    paths holds the standard monomials sorted by (length, declaration
    order) and index is its inverse.  The table maps composable basis
    pairs to the coordinates of the normal form of their concatenation,
    the unit is the sum of the trivial paths and the labels are the
    path_str of the paths.  No check is needed: the rewriting system is
    complete, so by the diamond lemma every path has one normal form and
    the table is the product of kQ/I, which is associative with the
    trivial paths summing to its unit.

    The table is filled by the right action of the arrows.  A prefix q'
    of a standard monomial q = q'a is standard, since standard monomials
    are closed under subwords (standard_monomials), so it is a basis path
    of smaller index; and w -> [w] is an algebra map kQ -> kQ/I, so
    [p q] = [[p q'] a] = sum_k c_k [p_k a] for [p q'] = sum_k c_k p_k.
    Rows are filled in basis order, which is by length, so [p q'] is
    known when [p q] is needed, and each class [p_k a] is rewritten at
    most once, only when p_k a is not itself a basis path: at most
    dim * |arrows| calls to reduce in all.

    generators() are read off the paths, not searched for: the vertex
    idempotents and the arrows that are basis paths, which are the basis
    paths of length at most 1, in increasing order.  They generate kQ/I
    as a unital algebra.  A basis path p = a_1 ... a_m is a standard
    monomial, and so is each of its arrows, since standard monomials are
    closed under subwords; w -> [w] is an algebra map kQ -> kQ/I, so p =
    [p] = [a_1] ... [a_m] is a word in the arrows, and a trivial basis
    path is a vertex idempotent.
    """

    def __init__(self, quiver, field, relations, rewrite, paths):
        self.quiver = quiver
        self.relations = list(relations)
        self.rewrite = rewrite
        self.paths = paths
        self.index = {p: i for i, p in enumerate(paths)}
        self.ends = [(p[0], quiver.path_target(p)) for p in paths]  # (source, target)
        self.trivial_indices = [i for i, p in enumerate(paths) if len(p) == 1]
        self.radical_indices = [i for i, p in enumerate(paths) if len(p) > 1]
        super().__init__(field, len(paths), {},
                         {i: field.one for i in self.trivial_indices},
                         [quiver.path_str(p) for p in paths], check=False)
        # generators(), read off the paths (class docstring)
        self._generators = [i for i, p in enumerate(paths) if len(p) <= 2]
        table = self.table
        # only pairs with t(p_i) = s(p_j) have a product; the basis paths
        # at each source, in basis order, with the index of each prefix
        starting = [[] for _ in quiver.vertices]
        for j, q in enumerate(paths):
            starting[q[0]].append((j, q, None if len(q) == 1 else self.index[q[:-1]]))
        acted = {}  # p_k a -> [p_k a]
        for i, p in enumerate(paths):
            for j, q, prefix in starting[quiver.path_target(p)]:
                if prefix is None:
                    table[(i, j)] = {i: field.one}
                    continue
                prod = {}
                for k, c in table.get((i, prefix), {}).items():
                    w = paths[k] + q[-1:]
                    if w not in acted:
                        acted[w] = self.element_from_path(w)
                    _addinto(field, prod, acted[w], c)
                if prod:
                    table[(i, j)] = prod

    def element_from_path(self, p):
        # a standard monomial is irreducible, so only other words rewrite
        i = self.index.get(p)
        if i is not None:
            return {i: self.field.one}
        return self.normal_form(FreeElement.from_path(self.quiver, self.field, p))

    def normal_form(self, x):
        """Image of a free element in kQ/I, in basis coordinates.  When
        every path of x is a basis path, x is its own normal form: a
        standard monomial is irreducible, so reduce would take no step."""
        index = self.index
        if all(p in index for p in x.terms):
            return {index[p]: c for p, c in x.terms.items()}
        nf = self.rewrite.reduce(x)
        return {index[p]: c for p, c in nf.terms.items()}

    def to_free(self, vec):
        """The combination of basis paths with the coordinates vec."""
        return FreeElement(self.quiver, self.field, {self.paths[i]: c for i, c in vec.items()})

    def contains_ideal_of(self, other_relations):
        """Do all the given free elements lie in this algebra's ideal?"""
        return all(self.rewrite.reduce(r).is_zero() for r in other_relations)

    def path_source_of_index(self, i):
        return self.ends[i][0]

    def path_target_of_index(self, i):
        return self.ends[i][1]


def _standard_paths(quiver, relations, field, max_degree):
    """(rewrite, paths): the completed RewriteSystem of the relations and
    the standard monomials of kQ/<relations>, sorted by (length,
    declaration order).  len(paths) is the dimension of the quotient.

    Raises NotFiniteDimensional when a standard monomial of length
    max_degree survives or completion escapes the degree cap, and
    SizeLimitExceeded past MAX_BASIS_DIM standard monomials.
    """
    if max_degree < 2:
        raise InputError("max_degree must be at least 2")
    for r in relations:
        if not r.is_zero():
            relation_endpoints(r)
    rewrite = RewriteSystem(quiver, field, relations, degree_cap=2 * max_degree)
    paths = rewrite.standard_monomials(max_degree)
    paths.sort(key=lambda p: (len(p) - 1, p[1:], p[0]))
    return rewrite, paths


def compute_basis(quiver, relations, field, max_degree=30):
    """Standard-monomial basis of kQ/<relations>, exact, with the errors
    of _standard_paths."""
    rewrite, paths = _standard_paths(quiver, relations, field, max_degree)
    return AlgebraBasis(quiver, field, relations, rewrite, paths)

