"""Exact linear algebra over a Field, and finite-dimensional algebras.

Dense matrices are lists of row lists of scalars.  Row reduction is
plain Gauss-Jordan with exact arithmetic; at the sizes this library
handles (a few hundred rows) nothing fancier is warranted.  The dense
helpers (zeros, mat_add, mat_sub, mat_scale, mat_is_zero, block) take
the field last, as matmul does.

Sparse vectors are coordinate dicts {index: scalar}; the helpers
_addinto, _scaled and _clean work on them.  A sparse linear map
is a column dict {column: {row: scalar}}: column c holds the image of
basis vector c, and absent columns, rows and zero scalars are left out,
so two maps are equal exactly when their dicts are.  map_apply,
map_compose and map_combine apply, compose and linearly combine such
maps; map_inverse inverts a square one.  Like the dense helpers they
take the field last.  The Morita layer works on sparse maps only; the
dense helpers serve the module layer and the command line.

SpanSolver is an incremental row reducer over sparsely represented
vectors (dicts keyed by arbitrary hashable coordinates).  It answers
membership queries and also returns the combination of inserted vectors
that expresses a member, which is what the witness-producing checks need.

FinDimAlgebra is the one structure-constant algebra type: a path-algebra
quotient, its deformation A_f, a matrix amplification and a corner
algebra all live in it.
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


def solve(a_rows, b, field):
    """One solution x of A x = b, or None.  A is m x n, b has length m."""
    m = len(a_rows)
    n = len(a_rows[0]) if m else 0
    aug = [list(a_rows[i]) + [b[i]] for i in range(m)]
    pivots = rref(aug, field)
    x = [field.zero] * n
    for r, c in enumerate(pivots):
        if c == n:
            return None  # pivot in the constant column: inconsistent
        x[c] = aug[r][n]
    return x


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


def invert_matrix(a_rows, field):
    """Inverse of a square matrix, or None if singular."""
    n = len(a_rows)
    aug = []
    for i in range(n):
        row = list(a_rows[i]) + [field.zero] * n
        row[n + i] = field.one
        aug.append(row)
    pivots = rref(aug, field)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in aug]


def matmul(a_rows, b_rows, field):
    n = len(b_rows[0]) if b_rows else 0
    out = []
    for row in a_rows:
        acc = [field.zero] * n
        for k, x in enumerate(row):
            if x == field.zero:
                continue
            brow = b_rows[k]
            for j in range(n):
                if brow[j] != field.zero:
                    acc[j] = field.add(acc[j], field.mul(x, brow[j]))
        out.append(acc)
    return out


def matvec(a_rows, v, field):
    out = []
    for row in a_rows:
        s = field.zero
        for x, y in zip(row, v):
            if x != field.zero and y != field.zero:
                s = field.add(s, field.mul(x, y))
        out.append(s)
    return out


def identity_matrix(n, field):
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def zeros(rows, cols, field):
    return [[field.zero] * cols for _ in range(rows)]


def mat_add(a, b, field):
    return [[field.add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b, field):
    return [[field.sub(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c, field):
    return [[field.mul(c, x) for x in row] for row in a]


def mat_is_zero(a, field):
    return all(x == field.zero for row in a for x in row)


def block(tl, tr, bl, br):
    """Assemble [[tl, tr], [bl, br]] from compatible blocks."""
    return ([list(r1) + list(r2) for r1, r2 in zip(tl, tr)]
            + [list(r1) + list(r2) for r1, r2 in zip(bl, br)])


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
        self._left_mats = {}
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

    def left_matrix(self, i):
        if i not in self._left_mats:
            cols = [self.multiply_basis(i, m) for m in range(self.dim)]
            self._left_mats[i] = [[cols[m].get(r, self.field.zero)
                                   for m in range(self.dim)] for r in range(self.dim)]
        return self._left_mats[i]

    def associativity_witness(self):
        """The first basis triple (i, j, k) with (x_i x_j) x_k != x_i (x_j x_k),
        or None when the product is associative."""
        fld = self.field
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.multiply_basis(i, j)
                for k in range(self.dim):
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

    def _validate(self):
        fld = self.field
        for i in range(self.dim):
            e = {i: fld.one}
            if self.mul(self.unit, e) != e or self.mul(e, self.unit) != e:
                raise InputError("unit fails on basis element %s" % self.labels[i])
        bad = self.associativity_witness()
        if bad is not None:
            raise InputError("product is not associative at (%s, %s, %s)"
                             % tuple(self.labels[x] for x in bad))
