"""Exact linear algebra over a Field, and finite-dimensional algebras.

Sparse vectors are coordinate dicts {index: scalar}; the helpers
_addinto, _scaled and _clean work on them.  A sparse linear map
is a column dict {column: {row: scalar}}: column c holds the image of
basis vector c, and absent columns, rows and zero scalars are left out,
so two maps are equal exactly when their dicts are.  map_apply,
map_compose and map_combine apply, compose and linearly combine such
maps; map_inverse inverts a square one.  They take the field last.
_identity, _columns and _rows build identity maps, maps from column
lists and row slices, and _map_rank gives the rank of a map.  The Morita
and module layers work on sparse maps only.

Dense matrices (lists of row lists) remain only for rref, rank and
nullspace: plain Gauss-Jordan with exact arithmetic, which the
presentation check and the hom spaces of the module layer use.

SpanSolver is an incremental row reducer over sparsely represented
vectors (dicts keyed by arbitrary hashable coordinates).  It answers
membership queries and also returns the combination of inserted vectors
that expresses a member, which is what the witness-producing checks need.

FinDimAlgebra is the one structure-constant algebra type: a path-algebra
quotient, its deformation A_f, a matrix amplification and a corner
algebra all live in it.  Each one computes its generating set once, on
first use, for the checks that prove identities on generators.
"""

from .errors import InputError


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


def _map_rank(amap, field):
    """The rank of a sparse map: the dimension of the span of its columns."""
    span = SpanSolver(field)
    return sum(1 for col in amap.values() if span.add(col))


def rref(rows, field):
    """Reduce in place; returns the list of pivot column indices."""
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != field.zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != field.zero:
                coef = rows[i][c]
                rows[i] = [field.sub(x, field.mul(coef, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(rows, field):
    return len(rref([list(r) for r in rows], field))


def nullspace(a_rows, field):
    """Basis of ker A, deterministic: one vector per free column."""
    m = len(a_rows)
    if m == 0:
        return []
    n = len(a_rows[0])
    work = [list(r) for r in a_rows]
    pivots = rref(work, field)
    pivot_set = set(pivots)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        v = [field.zero] * n
        v[free] = field.one
        for r, c in enumerate(pivots):
            v[c] = field.neg(work[r][free])
        basis.append(v)
    return basis


class SpanSolver:
    """Incremental span membership with expression witnesses.

    Vectors are dicts {coordinate: scalar}; coordinates may be any
    hashable values.  Pivot choice follows string order of coordinates,
    which keeps runs deterministic without requiring an index map.
    """

    def __init__(self, field):
        self.field = field
        self.rows = []  # (pivot, vector dict, combo dict tag -> scalar)
        self.tags = []

    def _reduce(self, vec, combo):
        f = self.field
        vec = {k: v for k, v in vec.items() if v != f.zero}
        for pivot, row, row_combo in self.rows:
            c = vec.get(pivot)
            if c is None or c == f.zero:
                continue
            for k, v in row.items():
                newv = f.sub(vec.get(k, f.zero), f.mul(c, v))
                if newv == f.zero:
                    vec.pop(k, None)
                else:
                    vec[k] = newv
            if combo is not None:
                for t, v in row_combo.items():
                    newv = f.sub(combo.get(t, f.zero), f.mul(c, v))
                    if newv == f.zero:
                        combo.pop(t, None)
                    else:
                        combo[t] = newv
        return vec, combo

    def add(self, vec, tag=None):
        """Insert a vector; returns True if it enlarged the span."""
        f = self.field
        if tag is None:
            tag = len(self.tags)
        combo = {tag: f.one}
        vec, combo = self._reduce(dict(vec), combo)
        self.tags.append(tag)
        if not vec:
            return False
        pivot = min(vec, key=lambda k: (str(k), repr(k)))
        inv = f.inv(vec[pivot])
        vec = {k: f.mul(inv, v) for k, v in vec.items()}
        combo = {t: f.mul(inv, v) for t, v in combo.items()}
        # keep stored rows fully reduced against the new pivot
        for i, (p, row, rc) in enumerate(self.rows):
            c = row.get(pivot)
            if c is None or c == f.zero:
                continue
            for k, v in vec.items():
                newv = f.sub(row.get(k, f.zero), f.mul(c, v))
                if newv == f.zero:
                    row.pop(k, None)
                else:
                    row[k] = newv
            for t, v in combo.items():
                newv = f.sub(rc.get(t, f.zero), f.mul(c, v))
                if newv == f.zero:
                    rc.pop(t, None)
                else:
                    rc[t] = newv
        self.rows.append((pivot, vec, combo))
        return True

    def contains(self, vec):
        residue, _ = self._reduce(dict(vec), None)
        return not residue

    def express(self, vec):
        """Combination {tag: scalar} with sum(tag_vector * scalar) = vec, or None.

        The scalars refer to the vectors as inserted, so the caller can
        rebuild the expression verbatim.
        """
        f = self.field
        residue, combo = self._reduce(dict(vec), {})
        if residue:
            return None
        return {t: f.neg(v) for t, v in combo.items()}

    @property
    def dim(self):
        return len(self.rows)


class FinDimAlgebra:
    """Associative unital algebra given by structure constants.

    table[(i, j)] = {k: c} holds the product of basis elements i and j;
    absent entries are zero.  unit is a coordinate dict.  Associativity
    and two-sided unitality are verified on all basis tuples unless
    check=False.
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
        if check:
            self._validate()

    def multiply_basis(self, i, j):
        return self.table.get((i, j), {})

    def mul(self, x, y):
        fld = self.field
        out = {}
        for i, ci in x.items():
            for j, cj in y.items():
                _addinto(fld, out, self.multiply_basis(i, j), fld.mul(ci, cj))
        return out

    def generators(self):
        """Basis indices that generate the algebra as a unital algebra,
        in increasing order; computed on the first call and kept.

        Greedy: scans the basis in order and keeps each basis element
        outside the unital subalgebra generated so far, so every basis
        element is a combination of words in the kept ones and 1.  That
        subalgebra is the span of the words, grown by multiplying each
        new word on the left by every generator."""
        if self._generators is None:
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
        return self._generators

    def associativity_witness(self):
        """The first basis triple (i, j, k) with (x_i x_j) x_k != x_i (x_j x_k),
        or None when the product is associative.

        For each (i, j) only the k where a side can be nonzero are visited,
        in increasing order: x_i (x_j x_k) needs a product x_j x_k in the
        table, (x_i x_j) x_k a product x_l x_k for some l in the support of
        x_i x_j.  Every skipped triple has two zero sides, so the witness is
        the first failing triple in (i, j, k) order."""
        fld = self.field
        right_of = {}
        for l, k in self.table:
            right_of.setdefault(l, set()).add(k)
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.multiply_basis(i, j)
                ks = set(right_of.get(j, ()))
                for l in ij:
                    ks.update(right_of.get(l, ()))
                for k in sorted(ks):
                    jk = self.multiply_basis(j, k)
                    left = {}
                    for l, c in ij.items():
                        for m, d in self.multiply_basis(l, k).items():
                            left[m] = fld.add(left.get(m, fld.zero), fld.mul(c, d))
                    right = {}
                    for l, c in jk.items():
                        for m, d in self.multiply_basis(i, l).items():
                            right[m] = fld.add(right.get(m, fld.zero), fld.mul(c, d))
                    if _clean(fld, left) != _clean(fld, right):
                        return (i, j, k)
        return None

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
