"""Hochschild cochains in degrees 1 to 3 and their differential.

One cochain type lives here.  `FullCochain` is a cochain of the
unreduced complex Hom(A^{(x)n}, A) of an algebra given by structure
constants, stored sparsely as an index-keyed table
{(i_1, ..., i_n): {k: c}}; transfers across a Morita context live
there.  The reduced complex relative to the vertex subalgebra is the
subcomplex of cochains that are balanced over the vertex idempotents
and vanish when an argument is one of them: a degree-n cochain is
determined by its values on composable n-tuples of non-trivial basis
paths, and the value on (g_1, ..., g_n) must land in the corner
e_{s(g_1)} A e_{t(g_n)}.  Such a cochain is the FullCochain that is
zero off those tuples.  Path-keyed input enters through
`cochain_from_paths`, which checks exactly these conditions, and every
reduced computation checks them on its index-keyed input first
(`check_reduced`), since it reads only those tuples.

So one differential serves both: `_push` sends a table forward from
its support, with left and right products by basis elements for the
outer faces and an inverse product table for the inner ones.  The
reduced differential is the full differential read on tuples of
radical indices only.

The reduced complex reads the span of non-trivial paths as the radical
of A, and the deformation layer built on it (hat_f, the presentation)
needs the relations inside the square of the arrow ideal.  Both hold
for admissible relations, under which no product of non-trivial basis
paths has a component at a vertex idempotent.  Every reduced
computation checks this on the structure table first and refuses
otherwise, naming the offending pair.
"""

from .errors import InputError
from .linalg import SpanSolver, _addinto, _clean, map_combine


def _products(table, keep):
    """Product tables of the basis elements in keep, for pushing forward:
    left[k] = [(x, e_x e_k)], right[k] = [(y, e_k e_y)], and
    inverse[k] = [(x, y, c)] with c the coefficient of e_k in e_x e_y."""
    keep = set(keep)
    left, right, inverse = {}, {}, {}
    for (x, y), prod in table.items():
        if x in keep:
            left.setdefault(y, []).append((x, prod))
        if y in keep:
            right.setdefault(x, []).append((y, prod))
            if x in keep:
                for k, c in prod.items():
                    inverse.setdefault(k, []).append((x, y, c))
    return left, right, inverse


def _push(table, n, products, field):
    """d of the degree-n cochain table {(i_1..i_n): {k: c}}, pushed forward
    from its support:

        (dF)(x_0, ..., x_n) = x_0 F(x_1, ..., x_n)
            + sum_j (-1)^(j+1) F(x_0, ..., x_j x_{j+1}, ..., x_n)
            + (-1)^(n+1) F(x_0, ..., x_{n-1}) x_n.

    Output keys use only the indices the products were built on.
    """
    left, right, inverse = products
    add, mul, neg, zero = field.add, field.mul, field.neg, field.zero
    last = field.one if n % 2 else neg(field.one)
    out = {}

    def put(key, vec, c):
        acc = out.setdefault(key, {})
        for m, v in vec.items():
            acc[m] = add(acc.get(m, zero), mul(c, v))

    for key, vec in table.items():
        for k, c in vec.items():
            for x, prod in left.get(k, ()):
                put((x,) + key, prod, c)
            for y, prod in right.get(k, ()):
                put(key + (y,), prod, mul(last, c))
        sign = field.one
        for j in range(n):
            sign = neg(sign)
            for x, y, c in inverse.get(key[j], ()):
                put(key[:j] + (x, y) + key[j + 1:], vec, mul(sign, c))
    result = {}
    for key, acc in out.items():
        acc = {m: v for m, v in acc.items() if v != zero}
        if acc:
            result[key] = acc
    return result


def _reduced_products(basis):
    """Products over the radical indices of an admissible quotient."""
    trivial = set(basis.trivial_indices)
    for (x, y), prod in basis.table.items():
        if x in trivial or y in trivial:
            continue
        for k in prod:
            if k in trivial:
                raise InputError(
                    "product of radical elements leaves the radical: %s * %s "
                    "has a component at %s; the reduced complex needs "
                    "admissible relations"
                    % (basis.labels[x], basis.labels[y], basis.labels[k]))
    return _products(basis.table, basis.radical_indices)


def _composable_tuples(basis, n):
    """Composable n-tuples of radical basis indices, in basis order."""
    by_source = {}
    for i in basis.radical_indices:
        by_source.setdefault(basis.path_source_of_index(i), []).append(i)
    tuples = [(i,) for i in basis.radical_indices]
    for _ in range(n - 1):
        tuples = [t + (i,) for t in tuples
                  for i in by_source.get(basis.path_target_of_index(t[-1]), ())]
    return tuples


def _flat(table):
    return {key + (m,): c for key, vec in table.items() for m, c in vec.items()}


def _reduced_images(basis, n):
    """((key, i), flattened d of the basis cochain key -> e_i) for every
    reduced basis cochain of degree n."""
    products = _reduced_products(basis)
    fld = basis.field
    corners = {}
    for i in range(basis.dim):
        ends = (basis.path_source_of_index(i), basis.path_target_of_index(i))
        corners.setdefault(ends, []).append(i)
    for key in _composable_tuples(basis, n):
        ends = (basis.path_source_of_index(key[0]),
                basis.path_target_of_index(key[-1]))
        for i in corners.get(ends, ()):
            yield (key, i), _flat(_push({key: {i: fld.one}}, n, products, fld))


def _is_index(basis, i):
    return isinstance(i, int) and 0 <= i < basis.dim


def _check_entry(basis, key, indices):
    """Refuse a reduced-complex entry: key must be a composable tuple of
    radical basis indices and every index of its value must be a basis
    index in the corner e_{s(g_1)} A e_{t(g_n)} of the key (g_1, ...,
    g_n)."""
    for i in key:
        if not _is_index(basis, i):
            raise InputError("cochain key %r is not a tuple of basis indices"
                             % (key,))
        if len(basis.paths[i]) == 1:
            raise InputError("cochain keys must be non-trivial paths")
    name = " | ".join(basis.labels[i] for i in key)
    for a, b in zip(key, key[1:]):
        if basis.path_target_of_index(a) != basis.path_source_of_index(b):
            raise InputError("cochain key %s is not composable" % name)
    src = basis.path_source_of_index(key[0])
    tgt = basis.path_target_of_index(key[-1])
    for i in indices:
        if not _is_index(basis, i):
            raise InputError("value of cochain at %s has index %r, not a basis index"
                             % (name, i))
        if (basis.path_source_of_index(i) != src
                or basis.path_target_of_index(i) != tgt):
            raise InputError(
                "value of cochain at %s leaves the corner e_%s A e_%s"
                % (name, basis.quiver.vertices[src], basis.quiver.vertices[tgt]))


def check_reduced(f, basis):
    """Raise InputError unless f is a cochain of the reduced complex of
    basis: zero off the composable tuples of radical indices, with each
    value in the corner of its key.  Every reduced computation reads
    only those tuples, so it calls this first."""
    if f.dim != basis.dim:
        raise InputError("the cochain lives on an algebra of another dimension")
    for key, vec in f.table.items():
        _check_entry(basis, key, vec)


def cochain_from_paths(basis, degree, table):
    """The cochain of degree 1, 2 or 3 whose value at a tuple of basis
    paths is the coordinate dict table[paths], keyed by basis indices.

    This is the one entry point for path-keyed cochains, and it checks
    what the reduced complex needs: every key is a composable tuple of
    non-trivial basis paths of the right arity, and every value lies in
    the corner e_{s(g_1)} A e_{t(g_n)} of its key (g_1, ..., g_n).
    """
    if degree not in (1, 2, 3):
        raise InputError("cochain degree must be 1, 2 or 3")
    q = basis.quiver
    out = {}
    for key, value in table.items():
        # keys are tuples of paths, also in degree 1: (path,)
        key = tuple(key)
        if len(key) != degree:
            raise InputError("cochain key %r has wrong arity" % (key,))
        for p in key:
            if p not in basis.index:
                raise InputError("cochain key path %s is not a basis path"
                                 % q.path_str(p))
        key = tuple(basis.index[p] for p in key)
        value = _clean(basis.field, value)
        _check_entry(basis, key, value)
        out[key] = value
    return FullCochain(basis.dim, degree, basis.field, out)


def cochain_from_pairs(basis, pairs):
    """Degree-2 cochain from {(path, path): FreeElement} as parsed from
    cocycle lines of an algebra file."""
    return cochain_from_paths(basis, 2, {key: basis.normal_form(value)
                                         for key, value in pairs.items()})


def differential(f, basis):
    """d f in the reduced complex; degree goes up by one.  This is the
    full differential of f, read on radical indices only."""
    if f.degree >= 3:
        raise InputError("differential supported up to degree 2 inputs")
    check_reduced(f, basis)
    return FullCochain(basis.dim, f.degree + 1, basis.field,
                       _push(f.table, f.degree, _reduced_products(basis), basis.field))


def is_cocycle(f, basis):
    if f.degree != 2:
        raise InputError("is_cocycle expects a degree-2 cochain")
    return differential(f, basis).is_zero()


def cobound_solve(f, basis):
    """One degree-1 g with dg = f, or None.  f must be a 2-cocycle.

    A cochain that is not a cocycle is never d g, since d d = 0, so d f
    is computed only when no g is found, to refuse such an f instead of
    answering None for it.
    """
    if f.degree != 2:
        raise InputError("cobound_solve expects a degree-2 cochain")
    solver = SpanSolver(basis.field)
    for tag, image in _reduced_images(basis, 1):
        solver.add(image, tag)
    combo = solver.express(_flat(f.table))
    if combo is None:
        if not is_cocycle(f, basis):
            raise InputError("cobound_solve expects a 2-cocycle")
        return None
    table = {}
    for (key, i), c in combo.items():
        table.setdefault(key, {})[i] = c
    return FullCochain(basis.dim, 1, basis.field, table)


def hh_summary(basis):
    """(dim Z^2, dim B^2, dim HH^2) on the reduced complex."""
    d1 = SpanSolver(basis.field)
    for _, image in _reduced_images(basis, 1):
        d1.add(image)
    d2 = SpanSolver(basis.field)
    dim_c2 = 0
    for _, image in _reduced_images(basis, 2):
        d2.add(image)
        dim_c2 += 1
    dim_z2 = dim_c2 - d2.dim
    return dim_z2, d1.dim, dim_z2 - d1.dim


def hh_dimension(basis):
    """dim HH^2 on the reduced complex."""
    return hh_summary(basis)[2]


class FullCochain:
    """Cochain on a structure-constant algebra of dimension dim.

    Conceptually total on all basis index tuples; stored sparsely as
    table[(i_1, ..., i_n)] = {j: c} with missing entries zero.  A reduced
    cochain is one that is zero off the composable tuples of radical
    indices.
    """

    def __init__(self, dim, degree, field, table=None):
        self.dim = dim
        self.degree = degree
        self.field = field
        self.table = {}
        if table:
            for key, vec in table.items():
                if len(key) != degree:
                    raise InputError("full cochain key of wrong arity")
                clean = {j: c for j, c in vec.items() if c != field.zero}
                if clean:
                    self.table[tuple(key)] = clean

    def value(self, key):
        return self.table.get(tuple(key), {})

    def is_zero(self):
        return not self.table

    def __eq__(self, other):
        return (isinstance(other, FullCochain) and self.dim == other.dim
                and self.degree == other.degree and self.table == other.table)

    def __add__(self, other):
        # a table has the shape of a sparse map, so map_combine adds them
        f = self.field
        return FullCochain(self.dim, self.degree, f,
                           map_combine([(f.one, self.table), (f.one, other.table)], f))

    def __sub__(self, other):
        return self + other.scale(self.field.neg(self.field.one))

    def scale(self, c):
        return FullCochain(self.dim, self.degree, self.field,
                           map_combine([(c, self.table)], self.field))

    def evaluate(self, *vecs):
        """Multilinear evaluation on coordinate dicts, returning one."""
        if len(vecs) != self.degree:
            raise InputError("expected %d arguments" % self.degree)
        f = self.field
        out = {}

        def rec(pos, key, coeff):
            if pos == len(vecs):
                _addinto(f, out, self.value(tuple(key)), coeff)
                return
            for i, c in vecs[pos].items():
                if c == f.zero:
                    continue
                key.append(i)
                rec(pos + 1, key, f.mul(coeff, c))
                key.pop()

        rec(0, [], f.one)
        return out


def full_differential(F, alg):
    """Unreduced differential; alg provides dim, field and the structure
    table {(i, j): {k: c}}."""
    table = _push(F.table, F.degree, _products(alg.table, range(alg.dim)),
                  alg.field)
    return FullCochain(alg.dim, F.degree + 1, alg.field, table)


def is_full_cocycle(F, alg):
    if F.degree != 2:
        raise InputError("is_full_cocycle expects a degree-2 cochain")
    return full_differential(F, alg).is_zero()
