"""Exact linear algebra over a Field, and finite-dimensional algebras.

Sparse vectors are coordinate dicts {index: scalar}; the helpers
_addinto, _scaled and _clean work on them, and _bilinear extends a
table {(i, j): vector} of basis products to them.  A sparse linear map
is a column dict {column: {row: scalar}}: column c holds the image of
basis vector c, and absent columns, rows and zero scalars are left out,
so two maps are equal exactly when their dicts are.  map_apply,
map_compose and map_combine apply, compose and linearly combine such
maps; map_inverse inverts a square one.  They take the field last.
_action combines the maps of basis elements by the coordinates of a
vector, and _differing_columns lists the columns where two maps differ.
_identity, _columns and _rows build identity maps, maps from column
lists and row slices, _map_rank gives the rank of a map and
column_kernel a basis of its kernel.  The Morita and module layers work
on sparse maps only.

SpanSolver is the one elimination: an incremental row reducer over
sparse vectors, keyed by pivot.  A row's pivot is its smallest
coordinate in natural order (coordinates are ints or int tuples), and
rows stay in echelon form without back reduction.  It clears a
coordinate by cross-multiplication, so rank and membership never
divide: over Q, integer vectors give integer rows, and no Fraction is
made.  It answers rank, membership and normal-form queries; a vector
added with a tag also carries its combination of inserted vectors,
which express returns as the witness of a membership.  After an
untagged add, express refuses.

FinDimAlgebra is the one structure-constant algebra type: a path-algebra
quotient, its deformation A_f, a matrix amplification and a corner
algebra all live in it.  Each one computes its generating set once, on
first use, for the checks that prove identities on generators, or reads
it off its structure (kQ/I, A_f, M_n(A) and the Morita ring of a
context do).  deformation_witness is the one such check: on those
generator rows it proves an algebra associative, and a 2-cochain on an
associative algebra a cocycle.
"""

from bisect import insort
from collections import defaultdict

from .errors import InputError, UntaggedSpan


def _addinto(field, acc, vec, c):
    """acc += c * vec on sparse dicts, dropping zeros."""
    if c == field.zero:
        return acc
    for k, v in vec.items():
        s = field.add(acc.get(k, field.zero), field.mul(c, v))
        if s == field.zero:
            acc.pop(k, None)
        else:
            acc[k] = s
    return acc


def _bilinear(field, table, x, y):
    """sum x_i y_j table[(i, j)] over the coordinates {i: x_i}, {j: y_j}."""
    out = {}
    for i, ci in x.items():
        for j, cj in y.items():
            prod = table.get((i, j))
            if prod:
                _addinto(field, out, prod, field.mul(ci, cj))
    return out


def _scaled(field, vec, c):
    return _addinto(field, {}, vec, c)


def _clean(field, vec):
    return {k: c for k, c in vec.items() if c != field.zero}


def map_apply(amap, vec, field):
    """The image of the sparse vector vec under the sparse map amap."""
    out = {}
    for c, x in vec.items():
        col = amap.get(c)
        if col:
            _addinto(field, out, col, x)
    return out


def map_compose(a, b, field):
    """a after b: column c is a applied to column c of b."""
    out = {}
    for c, col in b.items():
        img = map_apply(a, col, field)
        if img:
            out[c] = img
    return out


def map_combine(terms, field):
    """The sum of c * amap over the (c, amap) pairs of terms."""
    out = {}
    for c, amap in terms:
        for col, vec in amap.items():
            _addinto(field, out.setdefault(col, {}), vec, c)
    return {col: vec for col, vec in out.items() if vec}


def map_inverse(amap, n, field):
    """Inverse of a sparse map from n coordinates to n coordinates, or
    None if it is singular."""
    span = SpanSolver(field)
    for c in range(n):
        if not span.add(amap.get(c, {}), c):
            return None
    out = {}
    for r in range(n):
        col = _clean(field, span.express({r: field.one}))
        if col:
            out[r] = col
    return out


def _action(maps, vec, field):
    """The sparse map sum c * maps[k] over the coordinates {k: c} of vec,
    for a dict maps of sparse maps in which a missing k is the zero map."""
    return map_combine([(c, maps.get(k, {})) for k, c in vec.items()], field)


def _differing_columns(lhs, rhs, dim):
    """The columns m < dim on which two sparse maps differ, in order."""
    if lhs == rhs:
        return []
    return [m for m in range(dim) if lhs.get(m) != rhs.get(m)]


def _identity(n, field):
    return {m: {m: field.one} for m in range(n)}


def _columns(cols):
    """The sparse map whose column m is the vector cols[m]."""
    return {m: col for m, col in enumerate(cols) if col}


def _rows(amap, lo, hi):
    """The rows lo <= r < hi of a sparse map, renumbered from 0."""
    out = {}
    for c, col in amap.items():
        part = {r - lo: v for r, v in col.items() if lo <= r < hi}
        if part:
            out[c] = part
    return out


def _lower_block(top, low, right, cols0, rows0):
    """The sparse map [[top, 0], [low, right]] whose second block column
    starts at column cols0 and second block row at row rows0."""
    out = {}
    for c in set(top) | set(low):
        col = dict(top.get(c, {}))
        col.update((rows0 + r, v) for r, v in low.get(c, {}).items())
        out[c] = col
    for c, col in right.items():
        out[cols0 + c] = {rows0 + r: v for r, v in col.items()}
    return out


def _map_rank(amap, field):
    """The rank of a sparse map: the dimension of the span of its columns."""
    span = SpanSolver(field)
    return sum(1 for col in amap.values() if span.add(col))


def column_kernel(cols, field):
    """A basis of the kernel of the map whose columns are cols: one vector
    per column that depends on the columns before it, e_c minus that
    column's combination of the earlier independent columns.  These are the
    vectors Gauss-Jordan elimination gives for its free columns."""
    earlier = SpanSolver(field)
    kernel = []
    minus = field.neg(field.one)
    for c, col in enumerate(cols):
        combo = earlier.express(col)
        if combo is None:
            earlier.add(col, c)
        else:
            kernel.append(_addinto(field, {c: field.one}, combo, minus))
    return kernel


def _left_maps(table, field):
    """(maps, single) for a table {(i, j): vector} without zero
    coordinates: maps[i] = {j: vector}, the sparse map z -> table(x_i, z),
    and single[i][j] = m when that vector is x_m itself."""
    maps, single = defaultdict(dict), defaultdict(dict)
    for (i, j), vec in table.items():
        if vec:
            maps[i][j] = vec
            if len(vec) == 1 and field.one in vec.values():
                single[i][j], = vec
    return maps, single


def deformation_witness(alg, F=None):
    """The first triple (r, j, k), for r in R = alg.unit_and_generators()
    and j, k basis indices, in that order, where d F(x_r, x_j, x_k) != 0;
    or, when F is None, where (x_r x_j) x_k != x_r (x_j x_k).  None when
    there is none, and then d F = 0, or the product is associative, on
    all basis triples.  F is a 2-cochain on alg given by its table {(i,
    j): vector}, as FullCochain keeps it, and then alg must be
    associative.

    For each (r, j) it compares two sparse maps of z, with L(x) the left
    multiplication by x and F_x the map z -> F(x, z):

        associator:  L(x_r x_j)                against  L(x_r) L(x_j),
        d F:         L(x_r) F_j + F_r L(x_j)   against  F_(x_r x_j) + L(F(x_r, x_j)),

    the second since d F(x, y, z) = x F(y, z) - F(xy, z) + F(x, yz) -
    F(x, y) z; k is the first column where they differ.  A term that is 0
    by the supports of its factors is not formed.

    Proof that R suffices.  S = {x : (xy)z = x(yz) for all y, z} is a
    subspace.  It holds R, so it holds the unit vector, a combination of
    R.  It is closed under x -> gx for g in S, since ((gx)y)z = (g(xy))z =
    g((xy)z) = g(x(yz)) = (gx)(yz), with g in S three times and x in S
    once.  So S holds every product of elements of R, among them every
    word that generators() builds from the unit vector by multiplying
    with generators on the left.  These words span the algebra: by
    construction for the greedy set, where the unit vector is only the
    seed of the words and no unit axiom is used, and by the proofs of
    the builders that read a set off kQ/I, A_f or M_n(A).  The set read
    off a Morita ring spans by the closure of S and the unit, which the
    ring's check proves (MoritaContext._validate); until that check
    passes, a triple named on it is the first failure on its rows, not
    necessarily the first on the rows of another generating set.

    For F, apply this to the deformation A_F = A + A t, with product (a0
    + b0 t)(a1 + b1 t) = a0 a1 + (a0 b1 + b0 a1 + F(a0, a1)) t
    (Gerstenhaber, Ann. Math. 1964).  On x, y, z of A its associator is
    -d F(x, y, z) t, and on a triple with a factor in A t it is t times an
    associator of A, which is 0.  So S of A_F holds A t, and it holds x of
    A exactly when d F(x, ., .) = 0, which the rows check for x in R.
    For g and w of A in S, their product in A is their product in A_F
    minus F(g, w) t, so it is in S too; hence S holds the words of A in
    its generators, which span A, and with A t all of A_F: d F = 0.

    For a reduced cochain on kQ/I the rows at the vertex idempotents
    vanish by balance: F(e, .) = 0 and F(e y, z) = e F(y, z), so d F(e,
    y, z) = e F(y, z) - F(e y, z) = 0, and only the arrows do work.
    """
    fld = alg.field
    one = fld.one
    table = alg.table
    lmaps, basis, image = alg.left_maps()

    def over(maps, vec):
        # sum c maps[m] over the coordinates {m: c} of vec
        if len(vec) == 1:
            (m, c), = vec.items()
            if c == one:
                return maps.get(m, {})
        return _action(maps, vec, fld)

    def compose(amap, bmap, single):
        # amap bmap, column k read off column m of amap when single[k] = m
        out = {}
        for k, col in bmap.items():
            m = single.get(k)
            img = amap.get(m) if m is not None else map_apply(amap, col, fld)
            if img:
                out[k] = img
        return out

    def added(a, b):
        return map_combine([(one, a), (one, b)], fld) if a and b else a or b

    if F is None:
        def sides(r, j):
            left, prod = lmaps[r], table.get((r, j))
            if prod is None and image[j].isdisjoint(left):
                return None  # x_r x_j = 0, and L(x_r) is 0 on every x_j z
            return over(lmaps, prod or {}), compose(left, lmaps[j], basis[j])
    else:
        fmaps, f_basis = _left_maps({key: _clean(fld, vec) for key, vec in F.items()}, fld)
        f_image = {j: set().union(*cols.values()) for j, cols in fmaps.items()}

        def sides(r, j):
            left, f_left = lmaps[r], fmaps.get(r, {})
            f_j, prod, val = fmaps.get(j), table.get((r, j)), f_left.get(j)
            lhs = rhs = None
            if f_j and not f_image[j].isdisjoint(left):
                lhs = compose(left, f_j, f_basis[j])
            if f_left and not image[j].isdisjoint(f_left):
                lhs = added(lhs, compose(f_left, lmaps[j], basis[j]))
            if prod and not fmaps.keys().isdisjoint(prod):
                rhs = over(fmaps, prod)
            if val:
                rhs = added(rhs, over(lmaps, val))
            if lhs is None and rhs is None:
                return None
            return lhs or {}, rhs or {}

    for r in alg.unit_and_generators():
        for j in range(alg.dim):
            pair = sides(r, j)
            if pair is not None:
                bad = _differing_columns(*pair, alg.dim)
                if bad:
                    return (r, j, bad[0])
    return None


class SpanSolver:
    """Incremental span of sparse vectors, kept in echelon form.

    Vectors are dicts {coordinate: scalar} with mutually comparable
    coordinates (ints or int tuples).  Stored rows are keyed by pivot: a
    row's pivot is its smallest coordinate.  A row is stored divided by
    Field.primitive: over F_p its pivot entry is 1, and over Q an integer
    row keeps integer entries with no common factor.  A row is never
    reduced against later pivots, so a vector is reduced by clearing its
    smallest coordinate while that coordinate is a pivot: for the entry c
    there and the row's pivot entry p, v <- p v - c row.  Rank and
    membership divide by nothing; normal_form and express divide once, at
    the end, by the product of the p used.

    A row added with a tag keeps its combination of the tagged vectors as
    inserted, which express returns.  After an untagged add no
    combinations are kept, and express raises UntaggedSpan.
    """

    def __init__(self, field):
        self.field = field
        self.rows = {}  # pivot -> (row, combination {tag: scalar} or None)
        self._tagged = True

    def _reduce(self, vec, combo, full=False):
        """Clear pivots of vec in place, smallest coordinate first, and
        apply the same steps to combo.  Stops at the first coordinate that
        is not a pivot, or with full=True runs on past each of them, and
        returns (that coordinate, or None once vec is zero or with
        full=True; s), where s is the product of the pivot entries used:
        vec now is s times the input minus a member of the span, and combo
        is s times its input minus that member's combination."""
        f = self.field
        one = f.one
        rows = self.rows
        scale = one
        # the coordinates still to visit, in increasing order from at on;
        # a row's fresh coordinates exceed its pivot k, so they go after it
        order = sorted(vec)
        at = 0
        while at < len(order):
            k = order[at]
            at += 1
            c = vec.get(k)
            if c is None:
                continue
            hit = rows.get(k)
            if hit is None:
                if full:
                    continue
                return k, scale
            row, row_combo = hit
            p = row[k]
            if p != one:
                scale = f.mul(scale, p)
                for acc in (vec, combo or {}):
                    for j, v in acc.items():
                        acc[j] = f.mul(v, p)
            neg = f.neg(c)
            fresh = [j for j in row if j not in vec]
            _addinto(f, vec, row, neg)
            for j in fresh:
                insort(order, j, at)
            if combo is not None:
                _addinto(f, combo, row_combo, neg)
        return None, scale

    def add(self, vec, tag=None):
        """Insert a vector; returns True if it enlarged the span."""
        f = self.field
        if tag is None:
            self._tagged = False
        combo = {tag: f.one} if self._tagged else None
        vec = _clean(f, vec)
        pivot, _ = self._reduce(vec, combo)
        if pivot is None:
            return False
        if combo is None:
            self.rows[pivot] = (f.primitive(vec[pivot], [vec])[0], None)
        else:
            self.rows[pivot] = tuple(f.primitive(vec[pivot], [vec, combo]))
        return True

    def contains(self, vec):
        return self._reduce(_clean(self.field, vec), None)[0] is None

    def normal_form(self, vec):
        """vec minus the member of the span that clears every pivot."""
        vec = _clean(self.field, vec)
        _, scale = self._reduce(vec, None, full=True)
        return self._divided(vec, scale)

    def express(self, vec):
        """Combination {tag: scalar} with sum(tag_vector * scalar) = vec, or None.

        The scalars refer to the vectors as inserted, so the caller can
        rebuild the expression verbatim.
        """
        if not self._tagged:
            raise UntaggedSpan("express needs every vector added with a tag")
        f = self.field
        combo = {}
        stop, scale = self._reduce(_clean(f, vec), combo)
        if stop is not None:
            return None
        return self._divided({t: f.neg(v) for t, v in combo.items()}, scale)

    def _divided(self, vec, scale):
        f = self.field
        if scale == f.one:
            return vec
        return {k: f.div(v, scale) for k, v in vec.items()}

    @property
    def dim(self):
        return len(self.rows)


class FinDimAlgebra:
    """Associative unital algebra given by structure constants.

    table[(i, j)] = {k: c} holds the product of basis elements i and j;
    absent entries are zero.  unit is a coordinate dict.  Unless
    check=False, two-sided unitality is verified on every basis element
    and associativity on the triples of associativity_witness, which
    proves it on all basis triples.
    """

    def __init__(self, field, dim, table, unit, labels=None, check=True):
        self.field = field
        self.dim = dim
        self.table = {}
        for key, vec in table.items():
            vec = _clean(field, vec)
            if vec:
                self.table[key] = vec
        self.unit = _clean(field, unit)
        self.labels = list(labels) if labels else ["x%d" % i for i in range(dim)]
        if len(self.labels) != dim:
            raise InputError("expected %d basis labels" % dim)
        self._generators = None
        self._lmaps = None
        if check:
            self._validate()

    def multiply_basis(self, i, j):
        return self.table.get((i, j), {})

    def mul(self, x, y):
        return _bilinear(self.field, self.table, x, y)

    def left_maps(self):
        """(maps, single, image), kept, as the table does not change: maps[i]
        and single[i] of _left_maps, and image[i] the coordinates some x_i z has."""
        if self._lmaps is None:
            maps, single = _left_maps(self.table, self.field)
            maps, single = ({i: part[i] for i in range(self.dim)} for part in (maps, single))
            self._lmaps = maps, single, [set().union(*maps[i].values()) for i in range(self.dim)]
        return self._lmaps

    def generators(self):
        """Basis indices that generate the algebra as a unital algebra,
        in increasing order, kept once known: read off the structure
        where its builder knows them (kQ/I, A_f, M_n(A) and the Morita
        ring of a context do), else the greedy set, found on the first
        call.  The greedy search scans the basis in order and keeps each
        basis element outside the unital subalgebra generated so far, so
        every basis element is a combination of words in the kept ones
        and 1.  That subalgebra is the span of the words, grown by
        multiplying each new word on the left by every generator."""
        if self._generators is not None:
            return self._generators
        fld = self.field
        span = SpanSolver(fld)
        words, gens = [], []

        def close(queue):
            while queue:
                word = queue.pop()
                if span.add(word):
                    words.append(word)
                    queue.extend(self.mul({g: fld.one}, word) for g in gens)

        close([dict(self.unit)])
        for i in range(self.dim):
            e = {i: fld.one}
            if not span.contains(e):
                gens.append(i)
                close([self.mul(e, w) for w in words])
        self._generators = gens
        return gens

    def unit_and_generators(self):
        """R: the support of the unit and generators(), in increasing
        order, the left factors on which the checks on generators run."""
        return sorted(set(self.unit) | set(self.generators()))

    def associativity_witness(self):
        """The first triple where the product is not associative, or None
        (deformation_witness)."""
        return deformation_witness(self)

    def check_unit(self):
        """Raise InputError naming the first basis element on which the
        unit does not act as the identity from both sides."""
        fld = self.field
        for i in range(self.dim):
            e = {i: fld.one}
            if self.mul(self.unit, e) != e or self.mul(e, self.unit) != e:
                raise InputError("unit fails on basis element %s" % self.labels[i])

    def _validate(self):
        self.check_unit()
        bad = self.associativity_witness()
        if bad is not None:
            raise InputError("product is not associative at (%s, %s, %s)"
                             % tuple(self.labels[x] for x in bad))
