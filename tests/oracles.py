"""Brute-force reference computations, kept away from library code.

Dimensions of bound quiver algebras are recomputed here by listing all
paths up to a length cap and row-reducing the span of u*r*v multiples
of the input relations, with no rewriting involved; the structure table
of kQ/I reduces each product of two basis paths against the same rows,
with the paths outside the basis as leading columns.  Hochschild numbers
are recomputed on the full bar complex Hom(A^{tensor n}, A) from raw
structure constants; only dim HH^2 is comparable with the reduced
relative complex the library uses, the Z and B dimensions differ by
design.  The three dimensions of that reduced complex are recomputed
from the structure constants and the ends of the basis elements, its
differentials written out face by face (reduced_bar_summary), and a
2-cochain is decided a coboundary by eliminating all of its C^1 (the bar
solve, brute_is_coboundary).  These
oracles use their own row reduction so that nothing under test is in
the loop.  The Hochschild differential itself is
recomputed by evaluating every face on every index tuple.  The deformed
algebra A_f is rebuilt from the pair formula on every pair of basis
indices, the path-lifting map as the t-part of products of arrows in
it, its associativity by multiplying out every basis triple (or
the triples whose first entry is a greedy generator, recomputed here
with its own echelon rows, or in the support of the unit), and
primality by trial division.  The bimodule and bimodule-uple axioms,
and the axioms of left modules, left uples and their morphisms, are
evaluated on every basis tuple, one element at a time, from the raw
action tables; the glue of an uple is written out coordinate by
coordinate, and a map between glues is tested on every basis element.
The ring [[A, P], [Q, B]] of a context, or [[A, M], [0, B]] of a
bimodule, is written out from its matrix product on every pair of basis
elements, and the ring of a deformed context from the doubled algebras,
the glues of its uples and its pairings written out in full.  M_n(A) is multiplied out as n x n matrices over A, the corner
eCe with eC and Ce is read off the basis elements that e fixes, for e a
sum of basis elements such as vertex idempotents, and a unit is
decomposed through the greedy independent brackets by dense elimination.  The axioms of a Morita context are evaluated on every basis
tuple from the raw pairing tables, its consequences on balanced products built
on all basis triples and ranked with their own echelon rows, the
transfer phi^n term by term from its defining sum, and the homotopy
h^2 and h^3 term by term from their displayed sums; the subalgebra
generated by a list of basis elements is spanned word by word and
measured with the dense rank.  Dense Gauss-Jordan elimination, with the
rank and the nullspace it gives, and dense matrix products and inverses
are here too, as the reference for the library's sparse elimination and
sparse maps.  The command line is parsed here by argparse, as the
reference for the package's own table-driven parser, and algebra and
module files are read with the regular expressions the package once
read them with, as the reference for its string methods; the reader
takes the Quiver and Field types as arguments.
"""

import argparse
import re
from itertools import product


def dense_rref(rows, width, field):
    """Gauss-Jordan elimination of a list of row lists, in place; returns
    the pivot columns, in increasing order."""
    pivots = []
    for col in range(width):
        rank = len(pivots)
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col] != field.zero:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        scale = field.inv(rows[rank][col])
        rows[rank] = [field.mul(scale, x) for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != field.zero:
                c = rows[r][col]
                rows[r] = [field.sub(a, field.mul(c, b))
                           for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
    return pivots


def dense_rank(rows, width, field):
    return len(dense_rref([list(r) for r in rows], width, field))


def dense_nullspace(rows, width, field):
    """Basis of the kernel of a dense matrix, one vector per free column
    of its reduced row echelon form."""
    work = [list(r) for r in rows]
    pivots = dense_rref(work, width, field)
    basis = []
    for free in range(width):
        if free in pivots:
            continue
        v = [field.zero] * width
        v[free] = field.one
        for r, c in enumerate(pivots):
            v[c] = field.neg(work[r][free])
        basis.append(v)
    return basis


def _enumerate_paths(quiver, max_len):
    paths = [quiver.trivial_path(v) for v in quiver.vertices]
    layer = list(paths)
    for _ in range(max_len):
        nxt = []
        for p in layer:
            tgt = quiver.path_target(p)
            for name, s, t in quiver.arrows:
                if s == tgt:
                    nxt.append(quiver.compose(p, quiver.arrow_path(name)))
        paths.extend(nxt)
        layer = nxt
    return paths


def brute_force_dimension(quiver, relations, field, max_len):
    """dim of (paths of length <= max_len) modulo the degree <= max_len
    multiples of the relations.  Agrees with dim kQ/I whenever the true
    quotient has no basis path near the cap; callers should check the
    value is stable as max_len grows."""
    paths = _enumerate_paths(quiver, max_len)
    index = {p: i for i, p in enumerate(paths)}
    rows = []
    for rel in relations:
        max_term = max(len(p) - 1 for p in rel.terms)
        for u in paths:
            for v in paths:
                if (len(u) - 1) + max_term + (len(v) - 1) > max_len:
                    continue
                row = [field.zero] * len(paths)
                touched = False
                for p, c in rel.terms.items():
                    up = quiver.compose(u, p)
                    if up is None:
                        continue
                    upv = quiver.compose(up, v)
                    if upv is None:
                        continue
                    touched = True
                    j = index[upv]
                    row[j] = field.add(row[j], c)
                if touched:
                    rows.append(row)
    return len(paths) - dense_rank(rows, len(paths), field)


def brute_structure_table(quiver, relations, field, paths, max_len):
    """Structure constants {(i, j): {k: c}} of kQ/I on the basis paths
    paths, with no rewriting: [p q] for each composable pair of basis
    paths is read off the dense row reduction of the u*r*v multiples of
    degree <= max_len, as in brute_force_dimension, with the paths
    outside the basis as the leading columns.  Reducing p q against
    those rows leaves a combination of basis paths congruent to it.

    Raises AssertionError when the rows reach a basis column (a
    combination of basis paths lies in the ideal) or leave p q off the
    basis (max_len is too small for it)."""
    listed = set(paths)
    columns = [p for p in _enumerate_paths(quiver, max_len) if p not in listed]
    lead = len(columns)
    columns += list(paths)
    index = {p: i for i, p in enumerate(columns)}
    rows = set()
    for rel in relations:
        max_term = max(len(p) - 1 for p in rel.terms)
        for u in columns:
            for v in columns:
                if (len(u) - 1) + max_term + (len(v) - 1) > max_len:
                    continue
                row = [field.zero] * len(columns)
                for p, c in rel.terms.items():
                    up = quiver.compose(u, p)
                    upv = None if up is None else quiver.compose(up, v)
                    if upv is not None:
                        row[index[upv]] = field.add(row[index[upv]], c)
                if any(x != field.zero for x in row):
                    rows.add(tuple(row))
    rows = [list(r) for r in rows]
    pivots = dense_rref(rows, len(columns), field)
    if pivots and pivots[-1] >= lead:
        raise AssertionError("a combination of the basis paths lies in the ideal")
    table = {}
    for i, p in enumerate(paths):
        for j, q in enumerate(paths):
            pq = quiver.compose(p, q)
            if pq is None:
                continue
            if len(pq) - 1 > max_len:
                raise AssertionError("%r is longer than max_len" % (pq,))
            vec = [field.zero] * len(columns)
            vec[index[pq]] = field.one
            for row, col in zip(rows, pivots):
                c = vec[col]
                if c != field.zero:
                    vec = [field.sub(a, field.mul(c, b)) for a, b in zip(vec, row)]
            if any(x != field.zero for x in vec[:lead]):
                raise AssertionError("max_len %d leaves %r off the basis" % (max_len, pq))
            prod = {k: c for k, c in enumerate(vec[lead:]) if c != field.zero}
            if prod:
                table[(i, j)] = prod
    return table


def full_bar_hh2(dim, table, field):
    """dim HH^2 on the full bar complex of the algebra with structure
    constants table[(i, j)] = {k: c} (so e_i e_j = sum of c e_k)."""
    def t(i, j):
        return table.get((i, j), {})

    def add_at(col, pos, c):
        col[pos] = field.add(col.get(pos, field.zero), c)

    # One column of d^2 per basis cochain f(e_p, e_q) = e_r, flattened
    # over output positions (i, j, k, m):
    #   (d^2 f)(i,j,k) = e_i f(j,k) - f(ij,k) + f(i,jk) - f(i,j) e_k
    d2_cols = []
    rng = range(dim)
    for p in rng:
        for q in rng:
            for r in rng:
                col = {}
                for i in rng:
                    for m, c in t(i, r).items():
                        add_at(col, ((i * dim + p) * dim + q) * dim + m, c)
                for i in rng:
                    for j in rng:
                        c = t(i, j).get(p)
                        if c is not None:
                            add_at(col, ((i * dim + j) * dim + q) * dim + r,
                                   field.neg(c))
                for j in rng:
                    for k in rng:
                        c = t(j, k).get(q)
                        if c is not None:
                            add_at(col, ((p * dim + j) * dim + k) * dim + r, c)
                for k in rng:
                    for m, c in t(r, k).items():
                        add_at(col, ((p * dim + q) * dim + k) * dim + m,
                               field.neg(c))
                d2_cols.append(col)

    # One column of d^1 per basis map g(e_p) = e_r, flattened over
    # output positions (i, j, m):
    #   (d^1 g)(i,j) = e_i g(j) - g(ij) + g(i) e_j
    d1_cols = []
    for p in rng:
        for r in rng:
            col = {}
            for i in rng:
                for m, c in t(i, r).items():
                    add_at(col, (i * dim + p) * dim + m, c)
            for i in rng:
                for j in rng:
                    c = t(i, j).get(p)
                    if c is not None:
                        add_at(col, (i * dim + j) * dim + r, field.neg(c))
            for j in rng:
                for m, c in t(r, j).items():
                    add_at(col, (p * dim + j) * dim + m, c)
            d1_cols.append(col)

    def sparse_rank(cols, height):
        dense = []
        for col in cols:
            row = [field.zero] * height
            for pos, c in col.items():
                row[pos] = c
            dense.append(row)
        return dense_rank(dense, height, field)

    rank_d2 = sparse_rank(d2_cols, dim ** 4)
    rank_d1 = sparse_rank(d1_cols, dim ** 3)
    dim_z2 = dim ** 3 - rank_d2
    return dim_z2 - rank_d1


def _reduced_bar_complex(dim, table, ends, radical, field):
    """The differentials d1 and d2 of the reduced bar complex of the
    algebra with structure constants table[(i, j)] = {k: c}, relative to
    its vertex idempotents: ends[i] = (source, target) of basis element i
    and radical lists the basis elements that are not idempotents.  A
    basis n-cochain sends one composable n-tuple of radical elements to
    one basis element e_i with the ends of the tuple, and is zero
    elsewhere.  Its differential is written out face by face,

        (d f)(x, y)    = x f(y) - f(x y) + f(x) y,
        (d f)(x, y, z) = x f(y, z) - f(x y, z) + f(x, y z) - f(x, y) z,

    on the composable radical tuples, one sparse column {tuple + (m,): c}
    per basis cochain.  Returns (d1, d2), the two lists of columns."""
    def after(x):
        return [y for y in radical if ends[y][0] == ends[x][1]]

    def before(x):
        return [y for y in radical if ends[y][1] == ends[x][0]]

    def corner(s, t):
        return [i for i in range(dim) if ends[i] == (s, t)]

    # split[k] = [(x, y, c)]: the composable radical pairs whose product
    # has c at e_k
    split = {}
    for x in radical:
        for y in after(x):
            for k, c in table.get((x, y), {}).items():
                split.setdefault(k, []).append((x, y, c))

    def put(col, key, vec, c):
        for m, v in vec.items():
            col[key + (m,)] = field.add(col.get(key + (m,), field.zero), field.mul(c, v))

    minus = field.neg(field.one)
    d1 = []
    for g in radical:
        for i in corner(*ends[g]):
            col = {}
            for x in before(g):
                put(col, (x, g), table.get((x, i), {}), field.one)
            for x, y, c in split.get(g, ()):
                put(col, (x, y), {i: c}, minus)
            for y in after(g):
                put(col, (g, y), table.get((i, y), {}), field.one)
            d1.append({k: v for k, v in col.items() if v != field.zero})
    d2 = []
    for g in radical:
        for h in after(g):
            for i in corner(ends[g][0], ends[h][1]):
                col = {}
                for x in before(g):
                    put(col, (x, g, h), table.get((x, i), {}), field.one)
                for x, y, c in split.get(g, ()):
                    put(col, (x, y, h), {i: c}, minus)
                for y, z, c in split.get(h, ()):
                    put(col, (g, y, z), {i: c}, field.one)
                for z in after(h):
                    put(col, (g, h, z), table.get((i, z), {}), minus)
                d2.append({k: v for k, v in col.items() if v != field.zero})
    return d1, d2


def reduced_bar_summary(dim, table, ends, radical, field):
    """(dim Z^2, dim B^2, dim HH^2) of the reduced bar complex (see
    _reduced_bar_complex), its columns ranked by _sparse_rank."""
    d1, d2 = _reduced_bar_complex(dim, table, ends, radical, field)
    dim_z2 = len(d2) - _sparse_rank(d2, field, None)
    dim_b2 = _sparse_rank(d1, field, None)
    return dim_z2, dim_b2, dim_z2 - dim_b2


def brute_is_coboundary(dim, table, ends, radical, field, f_table):
    """Whether the reduced 2-cochain f_table[(x, y)] = {k: c} is d g for
    a reduced 1-cochain g: the bar solve, eliminating all of the reduced
    bar C^1 (the columns of _reduced_bar_complex's d1), which holds f
    exactly when f adds nothing to the rank of its span."""
    d1, _ = _reduced_bar_complex(dim, table, ends, radical, field)
    target = {key + (m,): c for key, vec in f_table.items() for m, c in vec.items()}
    return _sparse_rank(d1 + [target], field, None) == _sparse_rank(d1, field, None)


def brute_differential(dim, table, field, cochain_table, n):
    """d of the degree-n cochain cochain_table[(i_1, ..., i_n)] = {k: c}
    on the full bar complex of the algebra with structure constants
    table[(i, j)] = {k: c}: every face is evaluated on every (n+1)-tuple
    of basis indices,

        (dF)(x_0..x_n) = x_0 F(x_1..x_n)
                         + sum_j (-1)^(j+1) F(x_0..x_j x_{j+1}..x_n)
                         + (-1)^(n+1) F(x_0..x_{n-1}) x_n.

    Returns the nonzero values {(i_0, ..., i_n): {k: c}}."""
    def add(acc, vec, c):
        for k, v in vec.items():
            acc[k] = field.add(acc.get(k, field.zero), field.mul(c, v))

    def mul(x, y):
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                add(out, table.get((i, j), {}), field.mul(a, b))
        return out

    def value(args):
        # multilinear in the coordinate dicts args
        out = {}
        for key in product(*[list(a) for a in args]):
            c = field.one
            for a, i in zip(args, key):
                c = field.mul(c, a[i])
            add(out, cochain_table.get(key, {}), c)
        return out

    minus = field.neg(field.one)
    result = {}
    for key in product(range(dim), repeat=n + 1):
        units = [{i: field.one} for i in key]
        total = mul(units[0], value(units[1:]))
        sign = field.one
        for j in range(n):
            sign = field.mul(sign, minus)
            merged = table.get((key[j], key[j + 1]), {})
            add(total, value(units[:j] + [merged] + units[j + 2:]), sign)
        add(total, mul(value(units[:-1]), units[-1]),
            field.one if n % 2 else minus)
        total = {k: c for k, c in total.items() if c != field.zero}
        if total:
            result[key] = total
    return result


def _evaluate(field, f_table, args):
    """f(args) for the cochain table f_table and coordinate dicts args: f
    is multilinear, so each key contributes its value times the product
    of the coordinates of the arguments at its indices."""
    terms = []
    for key, vec in f_table.items():
        c = field.one
        for arg, k in zip(args, key):
            c = field.mul(c, arg.get(k, field.zero))
        if c != field.zero:
            terms.append((c, vec))
    return _combo(field, *terms)


def brute_transfer(alg_b, p, q, pairing_a, pairing_b, gens_b, f_table, n, field):
    """phi^n(f) by direct evaluation of its defining sum, one term per
    n-tuple of basis elements of B and (n+1)-tuple of generator indices:

        phi(f)(y_1..y_n) = sum <q_u0, f(<p_u0, y_1 q_u1>_A, ...,
                                        <p_u(n-1), y_n q_un>_A) p_un>_B.

    alg_b is a raw algebra (dim, table, unit), p a raw (A, B)-bimodule
    and q a raw (B, A)-bimodule (dim, left, right), pairing_a[(i, j)] =
    <p_i, q_j>_A and pairing_b[(j, i)] = <q_j, p_i>_B, gens_b = [(q_u,
    p_u)] and f_table[(k_1..k_n)] = f(x_k1..x_kn).  psi^n is the same sum
    with the roles of the two sides exchanged: pass the raw A, q, p,
    pairing_b, pairing_a and gens_a.  Returns the nonzero values
    {(i_1..i_n): {k: c}}."""
    (_, pl, _), (_, ql, _) = p, q
    one = field.one
    qs = [y for y, _ in gens_b]
    ps = [x for _, x in gens_b]
    m = len(gens_b)
    # bracket[(y, u, v)] = <p_u, y q_v>_A, evaluated once for every triple
    bracket = {(y, u, v): _act(pairing_a, field, ps[u], _act(ql, field, {y: one}, qs[v]))
               for y, u, v in product(range(alg_b[0]), range(m), range(m))}
    table = {}
    for key in product(range(alg_b[0]), repeat=n):
        terms = []
        for idx in product(range(m), repeat=n + 1):
            args = [bracket[(key[t], idx[t], idx[t + 1])] for t in range(n)]
            moved = _act(pl, field, _evaluate(field, f_table, args), ps[idx[n]])
            terms.append((one, _act(pairing_b, field, qs[idx[0]], moved)))
        out = _combo(field, *terms)
        if out:
            table[key] = out
    return table


def brute_homotopy(alg_a, pairing_a, gens_a, gens_b, f_table, n, field):
    """h^n(f) for n = 2, 3 by direct evaluation of the displayed sums, on
    every (n-1)-tuple of basis elements of A.  With X_ji = <p'_j, q_i>_A
    and Y_ij = <p_i, q'_j>_A for gens_a = [(p'_j, q'_j)] and gens_b =
    [(q_i, p_i)], every sum running over all generator indices,

        h^2(f)(a) = - sum f(X_ji, Y_ij a) + sum X_j0i0 f(Y_i0j0 a, X_j1i1) Y_i1j1,
        h^3(f)(a, b) = - sum f(X_ji, Y_ij a, b)
                       + sum X_j0i0 f(Y_i0j0 a, X_j1i1, Y_i1j1 b)
                       - sum X_j0i0 f(Y_i0j0 a X_j1i1, Y_i1j1 b, X_j2i2) Y_i2j2.

    alg_a is a raw algebra (dim, table, unit), pairing_a[(i, j)] = <p_i,
    q_j>_A and f_table[(k_1..k_n)] = f(x_k1..x_kn).  Returns the nonzero
    values {(i_1..i_(n-1)): {k: c}}."""
    dim, table, _ = alg_a
    one, minus = field.one, field.neg(field.one)

    def mul(*vecs):
        out = vecs[0]
        for vec in vecs[1:]:
            out = _act(table, field, out, vec)
        return out

    def f_of(*args):
        return _evaluate(field, f_table, args)

    pairs = [(_act(pairing_a, field, pj, qi), _act(pairing_a, field, pi, qj))
             for pj, qj in gens_a for qi, pi in gens_b]
    out = {}
    for key in product(range(dim), repeat=n - 1):
        a = [{t: one} for t in key]
        terms = []
        if n == 2:
            for x, y in pairs:
                terms.append((minus, f_of(x, mul(y, a[0]))))
            for (x0, y0), (x1, y1) in product(pairs, repeat=2):
                terms.append((one, mul(x0, f_of(mul(y0, a[0]), x1), y1)))
        else:
            for x, y in pairs:
                terms.append((minus, f_of(x, mul(y, a[0]), a[1])))
            for (x0, y0), (x1, y1) in product(pairs, repeat=2):
                terms.append((one, mul(x0, f_of(mul(y0, a[0]), x1, mul(y1, a[1])))))
            for (x0, y0), (x1, y1), (x2, y2) in product(pairs, repeat=3):
                terms.append((minus, mul(x0, f_of(mul(y0, a[0], x1), mul(y1, a[1]), x2),
                                         y2)))
        value = _combo(field, *terms)
        if value:
            out[key] = value
    return out


def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def brute_deformed_table(dim, table, f_table):
    """Structure constants of A_f on the basis (x_i, 0) = i and
    (0, x_i) = dim + i, straight from the pair product

        (a, b)(c, d) = (ac, ad + bc + f(a, c)),

    for the algebra with table[(i, j)] = {k: c} and the 2-cochain
    f_table[(i, j)] = {k: c}.  Returns the nonzero products."""
    out = {}
    for x in range(2 * dim):
        for y in range(2 * dim):
            i, x_first = x % dim, x < dim
            j, y_first = y % dim, y < dim
            prod = {}
            if x_first and y_first:
                prod.update(table.get((i, j), {}))
                for k, c in f_table.get((i, j), {}).items():
                    prod[dim + k] = c
            elif x_first or y_first:
                for k, c in table.get((i, j), {}).items():
                    prod[dim + k] = c
            prod = {k: c for k, c in prod.items() if c != 0}
            if prod:
                out[(x, y)] = prod
    return out


def brute_path_lift(deformed, dim, arrows, field):
    """The t-part of (a_1, 0) (a_2, 0) ... (a_s, 0), multiplied from the
    left in the structure constants deformed of brute_deformed_table for
    an algebra of dimension dim, where arrows = [a_1, ..., a_s] are
    coordinate dicts of elements of A.  By the pair product this is

        sum_i f(a_1 ... a_i, a_{i+1}) a_{i+2} ... a_s,

    the path-lifting map on the path a_1 ... a_s.  No arrows give 0."""
    if not arrows:
        return {}
    cur = dict(arrows[0])
    for a in arrows[1:]:
        cur = _act(deformed, field, cur, a)
    return {k - dim: c for k, c in cur.items() if k >= dim}


def brute_associator(table, field, i, j, k):
    """(x_i x_j) x_k - x_i (x_j x_k) for the structure constants table,
    as a dict of its nonzero coordinates."""
    def mul(x, y):
        out = {}
        for a, ca in x.items():
            for b, cb in y.items():
                for m, c in table.get((a, b), {}).items():
                    out[m] = field.add(out.get(m, field.zero),
                                       field.mul(field.mul(ca, cb), c))
        return out

    left = mul(mul({i: field.one}, {j: field.one}), {k: field.one})
    right = mul({i: field.one}, mul({j: field.one}, {k: field.one}))
    diff = dict(left)
    for m, c in right.items():
        diff[m] = field.sub(diff.get(m, field.zero), c)
    return {m: c for m, c in diff.items() if c != field.zero}


def brute_associativity_defect(dim, table, field):
    """The first basis triple (i, j, k) whose associator is nonzero, or
    None."""
    for key in product(range(dim), repeat=3):
        if brute_associator(table, field, *key):
            return key
    return None


def _echelon_add(rows, vec, field):
    """Add vec to the span of rows {pivot: row}, kept in reduced echelon
    form with entry 1 at each pivot; True when the span grew."""
    vec = {k: c for k, c in vec.items() if c != field.zero}
    for p, row in list(rows.items()):
        if p in vec:
            vec = _combo(field, (field.one, vec), (field.neg(vec[p]), row))
    if not vec:
        return False
    p = min(vec)
    vec = _combo(field, (field.inv(vec[p]), vec))
    for q, row in list(rows.items()):
        if p in row:
            rows[q] = _combo(field, (field.one, row), (field.neg(row[p]), vec))
    rows[p] = vec
    return True


def brute_greedy_generators(dim, table, unit, field):
    """The greedy generators of the raw algebra: basis index i is one when
    x_i lies outside the span of the words that the earlier ones build
    from the unit vector.  That span is grown length by length, with its
    own echelon rows, each time a generator is added.  Each word the span
    accepts raises its rank, so a span that accepts more than dim words
    (under a broken field, say) raises AssertionError instead of growing
    without end."""
    gens, rows = [], None

    def accept(word):
        if not _echelon_add(rows, word, field):
            return False
        accepted.append(word)
        if len(accepted) > dim:
            raise AssertionError("the span accepted more than %d words" % dim)
        return True

    for i in range(dim):
        if rows is None:
            rows, accepted = {}, []
            layer = [dict(unit)] if accept(unit) else []
            while layer:
                layer = [word for w in layer for g in gens
                         for word in [_act(table, field, {g: field.one}, w)]
                         if accept(word)]
        if _echelon_add(dict(rows), {i: field.one}, field):
            gens.append(i)
            rows = None
    return gens


def brute_generator_associativity_defect(dim, table, unit, field):
    """The first triple (r, j, k) whose associator is nonzero, for r in
    the support of the unit or a greedy generator (brute_greedy_generators)
    and j, k any basis indices, or None."""
    gens = brute_greedy_generators(dim, table, unit, field)
    for r in sorted(set(unit) | set(gens)):
        for j, k in product(range(dim), repeat=2):
            if brute_associator(table, field, r, j, k):
                return (r, j, k)
    return None


def _act(table, field, x, y):
    """Bilinear extension of table[(a, b)] = {k: c} to coordinate dicts."""
    out = {}
    for a, ca in x.items():
        for b, cb in y.items():
            for k, c in table.get((a, b), {}).items():
                out[k] = field.add(out.get(k, field.zero),
                                   field.mul(field.mul(ca, cb), c))
    return {k: c for k, c in out.items() if c != field.zero}


def _combo(field, *terms):
    """sum c * vec over the (c, vec) terms, without zero coordinates."""
    out = {}
    for c, vec in terms:
        for k, v in vec.items():
            out[k] = field.add(out.get(k, field.zero), field.mul(c, v))
    return {k: c for k, c in out.items() if c != field.zero}


def brute_bimodule_defects(alg_l, alg_r, dim, left, right, field):
    """Every basis tuple at which a bimodule axiom fails, in the order
    unit (per m), left associativity, right associativity, commutation.

    alg_l and alg_r are raw algebras (dim, table, unit); left[(i, m)] is
    x_i . m_m and right[(m, j)] is m_m . x_j.  Returns (kind, tuple)
    pairs with kinds "left unit" (m,), "right unit" (m,), "left assoc"
    (i, j, m), "right assoc" (m, i, j) and "commute" (i, m, j)."""
    (dl, tl, ul), (dr, tr, ur) = alg_l, alg_r
    one = field.one
    out = []
    for m in range(dim):
        e = {m: one}
        if _act(left, field, ul, e) != e:
            out.append(("left unit", (m,)))
        if _act(right, field, e, ur) != e:
            out.append(("right unit", (m,)))
    for i, j, m in product(range(dl), range(dl), range(dim)):
        xi, xj, e = {i: one}, {j: one}, {m: one}
        if _act(left, field, _act(tl, field, xi, xj), e) != \
                _act(left, field, xi, _act(left, field, xj, e)):
            out.append(("left assoc", (i, j, m)))
    for i, j, m in product(range(dr), range(dr), range(dim)):
        xi, xj, e = {i: one}, {j: one}, {m: one}
        if _act(right, field, e, _act(tr, field, xi, xj)) != \
                _act(right, field, _act(right, field, e, xi), xj):
            out.append(("right assoc", (m, i, j)))
    for i, m, j in product(range(dl), range(dim), range(dr)):
        xi, e, xj = {i: one}, {m: one}, {j: one}
        if _act(right, field, _act(left, field, xi, e), xj) != \
                _act(left, field, xi, _act(right, field, e, xj)):
            out.append(("commute", (i, m, j)))
    return out


def brute_block_ring(alg_a, alg_b, p, q, pairing_a, pairing_b, field):
    """The raw algebra (dim, table, unit) of the ring [[A, P], [Q, B]],
    with the basis of A, then P, then Q, then B, each product of two basis
    elements evaluated from the matrix product

        (a, p, q, b)(a', p', q', b') = (a a' + <p, q'>_A, a p' + p b',
                                        q a' + b q', <q, p'>_B + b b')

    and the unit (1_A, 0, 0, 1_B).  alg_a and alg_b are raw algebras, p a
    raw (A, B)-bimodule and q a raw (B, A)-bimodule (dim, left, right),
    pairing_a[(i, j)] = <p_i, q_j>_A and pairing_b[(j, i)] = <q_j, p_i>_B.
    With q None, Q is 0: the triangular ring [[A, P], [0, B]]."""
    (da, ta, ua), (db, tb, ub) = alg_a, alg_b
    dp, pl, pr = p
    dq, ql, qr = q if q is not None else (0, {}, {})
    pairing_a, pairing_b = pairing_a or {}, pairing_b or {}
    sizes = (da, dp, dq, db)
    starts = [sum(sizes[:k]) for k in range(4)]
    one = field.one

    def element(x):
        """The basis element x of the ring as four coordinate dicts."""
        parts = [{}, {}, {}, {}]
        block = max(k for k in range(4) if starts[k] <= x and sizes[k])
        parts[block][x - starts[block]] = one
        return parts

    def add(*vecs):
        return _combo(field, *[(one, v) for v in vecs])

    table = {}
    for x, y in product(range(sum(sizes)), repeat=2):
        (a, p0, q0, b), (a1, p1, q1, b1) = element(x), element(y)
        parts = (add(_act(ta, field, a, a1), _act(pairing_a, field, p0, q1)),
                 add(_act(pl, field, a, p1), _act(pr, field, p0, b1)),
                 add(_act(qr, field, q0, a1), _act(ql, field, b, q1)),
                 add(_act(pairing_b, field, q0, p1), _act(tb, field, b, b1)))
        prod = {starts[k] + i: c for k, part in enumerate(parts) for i, c in part.items()}
        if prod:
            table[(x, y)] = prod
    unit = dict(ua)
    unit.update((starts[3] + i, c) for i, c in ub.items())
    return sum(sizes), table, unit


def brute_deformed_block_ring(alg_a, alg_b, p, q, pairing_a, pairing_b, blocks, field):
    """The raw ring [[A_f, hat P], [hat Q, B_g]] of a deformed context,
    for the raw algebras, bimodules and pairings of a plain context as in
    brute_block_ring and the eight blocks (f, f_P, g_P, g, g_Q, f_Q, w_A,
    w_B) of a 2-cochain on its ring, each keyed by the indices within its
    two factors: A_f and B_g and the glues of the uples (P, P, Id, f_P,
    g_P) and (Q, Q, Id, g_Q, f_Q) are written out by brute_uple_glue, and
    the pairing of hat P and hat Q into A_f coordinate by coordinate,

        w((x, 0), (y, 0)) = (<x, y>_A, w_A(x, y)),
        w((0, x), (y, 0)) = w((x, 0), (0, y)) = (0, <x, y>_A),
        w((0, x), (0, y)) = 0,

    and the one into B_g from <., .>_B and w_B; then brute_block_ring."""
    f, f_p, g_p, g, g_q, f_q, w_a, w_b = blocks
    one = field.one

    def doubled(pairing, w, ns, rows, cols):
        out = {}
        for x, y in product(range(rows), range(cols)):
            plain = pairing.get((x, y), {})
            out[(x, y)] = {**plain, **{ns + k: c for k, c in w.get((x, y), {}).items()}}
            out[(rows + x, y)] = out[(x, cols + y)] = {ns + k: c for k, c in plain.items()}
        return out

    glues = []
    for left, right, m, f_m, g_m, first, second in ((alg_a, alg_b, p, f_p, g_p, f, g),
                                                     (alg_b, alg_a, q, g_q, f_q, g, f)):
        ident = {k: {k: one} for k in range(m[0])}
        glues.append(brute_uple_glue(left, right, first, second, m, m, ident, f_m, g_m, field))
    (a_f, b_g, dp, pl, pr), (_, _, dq, ql, qr) = glues
    return brute_block_ring(a_f, b_g, (dp, pl, pr), (dq, ql, qr),
                            doubled(pairing_a, w_a, alg_a[0], p[0], q[0]),
                            doubled(pairing_b, w_b, alg_b[0], q[0], p[0]), field)


def brute_matrix_algebra(alg, labels, n, field):
    """M_n(A) from its definition, for the raw algebra alg = (dim, table,
    unit) with basis labels: an element is an n x n matrix of coordinate
    dicts of A, the product is the matrix product, sum_c X[r][c] Y[c][s],
    and the unit is the diagonal matrix of 1_A.  The basis element E_rc x_g
    (the matrix with x_g at row r, column c and 0 elsewhere) is flattened
    to (r*n + c)*dim + g and labelled E<r+1><c+1>*<label of x_g>.  Returns
    (dim, table, unit, labels)."""
    dim, table, unit = alg
    one = field.one
    cells = list(product(range(n), repeat=2))

    def matrix(r, c, vec):
        out = {cell: {} for cell in cells}
        out[(r, c)] = vec
        return out

    def flat(mat):
        return {(r * n + c) * dim + g: x for (r, c), vec in mat.items() for g, x in vec.items()}

    def times(x, y):
        return {(r, s): _combo(field, *((one, _act(table, field, x[(r, c)], y[(c, s)]))
                                        for c in range(n)))
                for r, s in cells}

    basis = [matrix(r, c, {g: one}) for r, c in cells for g in range(dim)]
    out = {}
    for i, j in product(range(len(basis)), repeat=2):
        prod = flat(times(basis[i], basis[j]))
        if prod:
            out[(i, j)] = prod
    diagonal = {cell: dict(unit) if cell[0] == cell[1] else {} for cell in cells}
    names = ["E%d%d*%s" % (r + 1, c + 1, labels[g]) for r, c in cells for g in range(dim)]
    return len(basis), out, flat(diagonal), names


def brute_corner(alg, e, field):
    """The corner eCe of the raw algebra alg = (dim, table, unit) of C, with
    eC and Ce, for e a sum of basis elements that fixes or kills every
    basis element on each side (a sum of vertex idempotents of a path
    algebra, say); AssertionError for any other e.  The basis of eCe is
    the basis elements x with e x e = x, that of eC those with e x = x
    and that of Ce those with x e = x, each in the order of C and
    renumbered from 0.  Every product is the product of C, read in the
    basis of the block it lands in.  Returns a dict:

        corner     eCe as a raw algebra (dim, table, unit), its unit e;
        p, q       eC as a raw (eCe, C)-bimodule and Ce as a raw
                   (C, eCe)-bimodule (dim, left, right);
        pairing_a  {(i, j): x_i y_j in eCe} for x_i in eC, y_j in Ce;
        pairing_b  {(j, i): y_j x_i in C};
        at_a, at_p, at_q  the position in eCe, eC and Ce of each basis
                   index of C that lies in it."""
    dim, table, _ = alg
    one = field.one
    fixed = {}
    for side in ("left", "right"):
        fixed[side] = set()
        for i in range(dim):
            moved = (_act(table, field, e, {i: one}) if side == "left"
                     else _act(table, field, {i: one}, e))
            assert moved in ({}, {i: one}), "e moves basis element %d" % i
            if moved:
                fixed[side].add(i)
    at_a = {i: k for k, i in enumerate(sorted(fixed["left"] & fixed["right"]))}
    at_p = {i: k for k, i in enumerate(sorted(fixed["left"]))}
    at_q = {i: k for k, i in enumerate(sorted(fixed["right"]))}
    at_c = {i: i for i in range(dim)}

    def block(left, right, out):
        """{(left[x], right[y]): x y read through out} over nonzero products."""
        got = {}
        for x, y in product(left, right):
            vec = table.get((x, y), {})
            if vec:
                got[(left[x], right[y])] = {out[k]: c for k, c in vec.items()}
        return got

    return {"corner": (len(at_a), block(at_a, at_a, at_a), {at_a[k]: c for k, c in e.items()}),
            "p": (len(at_p), block(at_a, at_p, at_p), block(at_p, at_c, at_p)),
            "q": (len(at_q), block(at_c, at_q, at_q), block(at_q, at_a, at_q)),
            "pairing_a": block(at_p, at_q, at_a), "pairing_b": block(at_q, at_p, at_c),
            "at_a": at_a, "at_p": at_p, "at_q": at_q}


def brute_greedy_decomposition(tagged, target, field):
    """The combination {tag: scalar} of the greedy independent vectors of
    tagged, a list of (tag, coordinate dict) in order, that equals target,
    or None when target is outside their span.  A vector is kept when it
    is outside the span of the ones kept before it (their own echelon
    rows); the kept vectors are independent, so the combination is unique,
    and it is read off the dense Gauss-Jordan form of [kept | target].
    Tags with scalar 0 are left out."""
    rows, kept = {}, []
    for tag, vec in tagged:
        if _echelon_add(rows, vec, field):
            kept.append((tag, vec))
    coords = sorted(set(target).union(*(vec for _, vec in kept)))
    work = [[vec.get(k, field.zero) for _, vec in kept] + [target.get(k, field.zero)]
            for k in coords]
    pivots = dense_rref(work, len(kept) + 1, field)
    if len(kept) in pivots:
        return None
    return {kept[c][0]: work[r][-1] for r, c in enumerate(pivots)
            if work[r][-1] != field.zero}


def brute_uple_defects(alg_l, alg_r, f, g, m0, m1, t, f_m, g_m, field):
    """Every failed condition of a bimodule uple (M0, M1, T, f_M, g_M),
    each evaluated element by element on every basis tuple.

    alg_l, alg_r are raw algebras (dim, table, unit); f[(i0, i1)] and
    g[(j0, j1)] the 2-cochains; m0, m1 raw bimodules (dim, left, right);
    t[m] = T(m_m); f_m[(i, m)] = f_M(x_i (x) m_m) and g_m[(m, j)] =
    g_M(m_m (x) x_j), both in M1.  Returns (kind, tuple) pairs: ("m0",
    defect) and ("m1", defect) for the bimodule defects of M0 and M1,
    ("injective", ()), ("intertwine left", (i,)), ("intertwine right",
    (j,)), ("left correction", (i0, i1)), ("right correction", (j0, j1))
    and ("compatible", (i, j))."""
    (dl, tl, _), (dr, tr, _) = alg_l, alg_r
    (n0, l0, r0), (n1, l1, r1) = m0, m1
    one, minus = field.one, field.neg(field.one)
    out = [("m0", d) for d in brute_bimodule_defects(alg_l, alg_r, n0, l0, r0, field)]
    out += [("m1", d) for d in brute_bimodule_defects(alg_l, alg_r, n1, l1, r1, field)]
    t_rows = [[t.get(m, {}).get(r, field.zero) for m in range(n0)] for r in range(n1)]
    if dense_rank(t_rows, n0, field) != n0:
        out.append(("injective", ()))

    def tmap(vec):
        return _combo(field, *[(c, t.get(m, {})) for m, c in vec.items()])

    def fm(avec, mvec):
        return _act(f_m, field, avec, mvec)

    def gm(mvec, bvec):
        return _act(g_m, field, mvec, bvec)

    basis0 = [{m: one} for m in range(n0)]
    for i in range(dl):
        xi = {i: one}
        if any(tmap(_act(l0, field, xi, e)) != _act(l1, field, xi, tmap(e)) for e in basis0):
            out.append(("intertwine left", (i,)))
    for j in range(dr):
        xj = {j: one}
        if any(tmap(_act(r0, field, e, xj)) != _act(r1, field, tmap(e), xj) for e in basis0):
            out.append(("intertwine right", (j,)))
    for i0, i1 in product(range(dl), repeat=2):
        a0, a1 = {i0: one}, {i1: one}
        for e in basis0:
            if _combo(field, (one, _act(l1, field, a0, fm(a1, e))),
                      (minus, fm(_act(tl, field, a0, a1), e)),
                      (one, fm(a0, _act(l0, field, a1, e))),
                      (minus, _act(l1, field, f.get((i0, i1), {}), tmap(e)))):
                out.append(("left correction", (i0, i1)))
                break
    for j0, j1 in product(range(dr), repeat=2):
        b0, b1 = {j0: one}, {j1: one}
        for e in basis0:
            if _combo(field, (one, _act(r1, field, tmap(e), g.get((j0, j1), {}))),
                      (one, gm(e, _act(tr, field, b0, b1))),
                      (minus, _act(r1, field, gm(e, b0), b1)),
                      (minus, gm(_act(r0, field, e, b0), b1))):
                out.append(("right correction", (j0, j1)))
                break
    for i, j in product(range(dl), range(dr)):
        a, b = {i: one}, {j: one}
        for e in basis0:
            if _combo(field, (one, _act(l1, field, a, gm(e, b))),
                      (minus, gm(_act(l0, field, a, e), b)),
                      (one, fm(a, _act(r0, field, e, b))),
                      (minus, _act(r1, field, fm(a, e), b))):
                out.append(("compatible", (i, j)))
                break
    return out


def brute_uple_glue(alg_l, alg_r, f, g, m0, m1, t, f_m, g_m, field):
    """The raw (A_f, B_g)-bimodule glued from an uple given as in
    brute_uple_defects: (A_f, B_g, dim, left, right), with A_f and B_g raw
    algebras rebuilt by brute_deformed_table and the actions written
    out coordinate by coordinate on M0 + M1 (M1 after M0):

        (a, b)(m0, m1) = (a m0, a m1 + b T(m0) + f_M(a (x) m0)),
        (m0, m1)(b, c) = (m0 b, m1 b + T(m0) c + g_M(m0 (x) b))."""
    (dl, tl, ul), (dr, tr, ur) = alg_l, alg_r
    (n0, l0, r0), (n1, l1, r1) = m0, m1

    def lower(vec):
        return {n0 + r: c for r, c in vec.items()}

    left, right = {}, {}
    for m in range(n0):
        tm = t.get(m, {})
        for i in range(dl):
            left[(i, m)] = {**l0.get((i, m), {}), **lower(f_m.get((i, m), {}))}
            left[(dl + i, m)] = lower(_act(l1, field, {i: field.one}, tm))
        for j in range(dr):
            right[(m, j)] = {**r0.get((m, j), {}), **lower(g_m.get((m, j), {}))}
            right[(m, dr + j)] = lower(_act(r1, field, tm, {j: field.one}))
    for m in range(n1):
        for i in range(dl):
            left[(i, n0 + m)] = lower(l1.get((i, m), {}))
        for j in range(dr):
            right[(n0 + m, j)] = lower(r1.get((m, j), {}))
    a_f = (2 * dl, brute_deformed_table(dl, tl, f), ul)
    b_g = (2 * dr, brute_deformed_table(dr, tr, g), ur)
    return a_f, b_g, n0 + n1, left, right


def brute_bimodule_map_defects(src, tgt, u, field):
    """Every ("left", i, m) and ("right", j, m) at which the linear map u
    fails to commute with the action of basis element i of the left
    algebra, or j of the right one, on basis vector m, for raw bimodules
    src and tgt, each (alg_l, alg_r, dim, left, right) over the same
    algebras; u[m] is the image of basis vector m."""
    (dl, _, _), (dr, _, _), dim, lx, rx = src
    _, _, _, ly, ry = tgt

    def umap(vec):
        return _combo(field, *[(c, u.get(m, {})) for m, c in vec.items()])

    out = []
    for i, m in product(range(dl), range(dim)):
        xi, e = {i: field.one}, {m: field.one}
        if umap(_act(lx, field, xi, e)) != _act(ly, field, xi, umap(e)):
            out.append(("left", i, m))
    for j, m in product(range(dr), range(dim)):
        xj, e = {j: field.one}, {m: field.one}
        if umap(_act(rx, field, e, xj)) != _act(ry, field, umap(e), xj):
            out.append(("right", j, m))
    return out


def brute_hat_tables(dim_a, dim_b, p, q, pairing_a, pairing_b, gens_a, gens_b,
                     f, g, h, field):
    """The structure maps of hat P and hat Q, each entry transcribed from
    its defining sum, halved by multiplying with the inverse of 2:

        f_P(e_i (x) x) = 1/2 (sum_k f(e_i, <x, q_k>) p_k
                              + sum_ll' p'_l g(<q'_l, e_i p'_l'>, <q'_l', x>)
                              + h(e_i) x),
        g_P(x (x) e_j) = 1/2 (sum_kk' f(<x, q_k>, <p_k e_j, q_k'>) p_k'
                              + sum_l p'_l g(<q'_l, x>, e_j)),
        g_Q(e_j (x) y) = 1/2 (sum_kk' q_k f(<p_k e_j, q_k'>, <p_k', y>)
                              + sum_l g(e_j, <y, p'_l>) q'_l),
        f_Q(y (x) e_i) = 1/2 (sum_k q_k f(<p_k, y>, e_i)
                              + sum_ll' g(<y, p'_l>, <q'_l, e_i p'_l'>) q'_l'
                              + y h(e_i)),

    for gens_a = [(p'_l, q'_l)], gens_b = [(q_k, p_k)], the 2-cochains f
    on A and g on B and the 1-cochain h on A as tables, and p and q raw
    bimodules (dim, left, right).  Returns four dicts, f_P and f_Q keyed
    (i, x) and g_P and g_Q keyed (j, x), each holding every basis pair,
    zero values included."""
    (dp, pl, pr), (dq, ql, qr) = p, q
    one = field.one
    half = field.inv(field.add(one, one))

    def pa(x, y):
        return _act(pairing_a, field, x, y)

    def pb(y, x):
        return _act(pairing_b, field, y, x)

    def ev(table, *args):
        return _evaluate(field, table, args)

    def halved(terms):
        return _combo(field, (half, _combo(field, *((one, t) for t in terms))))

    f_p, g_p, g_q, f_q = {}, {}, {}, {}
    for i, x in product(range(dim_a), range(dp)):
        ei, ex = {i: one}, {x: one}
        f_p[(i, x)] = halved(
            [_act(pl, field, ev(f, ei, pa(ex, qk)), pk) for qk, pk in gens_b]
            + [_act(pr, field, p0, ev(g, pb(q0, _act(pl, field, ei, p1)), pb(q1, ex)))
               for p0, q0 in gens_a for p1, q1 in gens_a]
            + [_act(pl, field, ev(h, ei), ex)])
    for j, x in product(range(dim_b), range(dp)):
        ej, ex = {j: one}, {x: one}
        g_p[(j, x)] = halved(
            [_act(pl, field, ev(f, pa(ex, qk), pa(_act(pr, field, pk, ej), qk1)), pk1)
             for qk, pk in gens_b for qk1, pk1 in gens_b]
            + [_act(pr, field, p0, ev(g, pb(q0, ex), ej)) for p0, q0 in gens_a])
    for j, y in product(range(dim_b), range(dq)):
        ej, ey = {j: one}, {y: one}
        g_q[(j, y)] = halved(
            [_act(qr, field, qk, ev(f, pa(_act(pr, field, pk, ej), qk1), pa(pk1, ey)))
             for qk, pk in gens_b for qk1, pk1 in gens_b]
            + [_act(ql, field, ev(g, ej, pb(ey, p0)), q0) for p0, q0 in gens_a])
    for i, y in product(range(dim_a), range(dq)):
        ei, ey = {i: one}, {y: one}
        f_q[(i, y)] = halved(
            [_act(qr, field, qk, ev(f, pa(pk, ey), ei)) for qk, pk in gens_b]
            + [_act(ql, field, ev(g, pb(ey, p0), pb(q0, _act(pl, field, ei, p1))), q1)
               for p0, q0 in gens_a for p1, q1 in gens_a]
            + [_act(qr, field, ey, ev(h, ei))])
    return f_p, g_p, g_q, f_q


def brute_generated_dimension(alg, gens, field):
    """The dimension of the unital subalgebra generated by the basis
    elements gens of the raw algebra (dim, table, unit): words in gens are
    multiplied out, longest last, until a whole length adds nothing to
    the dense rank of the words so far."""
    dim, table, unit = alg
    words = [dict(unit)]
    layer = [dict(unit)]
    rank = dense_rank([[w.get(k, field.zero) for k in range(dim)] for w in words], dim, field)
    while layer:
        grown = []
        for w in layer:
            for g in gens:
                word = _act(table, field, {g: field.one}, w)
                row = [word.get(k, field.zero) for k in range(dim)]
                rows = [[v.get(k, field.zero) for k in range(dim)] for v in words]
                if dense_rank(rows + [row], dim, field) > rank:
                    words.append(word)
                    grown.append(word)
                    rank += 1
        layer = grown
    return rank


def brute_context_defects(alg_a, alg_b, p, q, pairing_a, pairing_b, gens_a, gens_b,
                          field):
    """Every basis tuple at which an axiom of a Morita context fails.

    alg_a and alg_b are raw algebras (dim, table, unit); p is a raw
    (A, B)-bimodule and q a raw (B, A)-bimodule (dim, left, right);
    pairing_a[(i, j)] = <p_i, q_j>_A and pairing_b[(j, i)] = <q_j, p_i>_B;
    gens_a = [(p', q')] and gens_b = [(q, p)] are lists of coordinate
    dict pairs.  Returns (kind, tuple) pairs, in the order

        ("a.p,q", (t, i, j))    <x_t p_i, q_j>_A != x_t <p_i, q_j>_A
        ("p,q.a", (i, j, t))    <p_i, q_j x_t>_A != <p_i, q_j>_A x_t
        ("p.b,q", (i, s, j))    <p_i y_s, q_j>_A != <p_i, y_s q_j>_A
        ("b.q,p", (s, j, i))    <y_s q_j, p_i>_B != y_s <q_j, p_i>_B
        ("q,p.b", (j, i, s))    <q_j, p_i y_s>_B != <q_j, p_i>_B y_s
        ("q.a,p", (j, t, i))    <q_j x_t, p_i>_B != <q_j, x_t p_i>_B
        ("pqp", (i, j, k))      <p_i, q_j>_A p_k != p_i <q_j, p_k>_B
        ("qpq", (j, i, k))      <q_j, p_i>_B q_k != q_j <p_i, q_k>_A
        ("unit A", (t,))        sum <p', q'>_A != 1_A, first at coordinate t
        ("unit B", (s,))        sum <q, p>_B != 1_B, first at coordinate s

    with x_t, y_s, p_i, q_j basis elements of A, B, P and Q."""
    (da, ta, ua), (db, tb, ub) = alg_a, alg_b
    (dp, pl, pr), (dq, ql, qr) = p, q
    one = field.one
    out = []

    def pa(x, y):
        return _act(pairing_a, field, x, y)

    def pb(y, x):
        return _act(pairing_b, field, y, x)

    def e(k):
        return {k: one}

    for t, i, j in product(range(da), range(dp), range(dq)):
        if pa(_act(pl, field, e(t), e(i)), e(j)) != _act(ta, field, e(t), pa(e(i), e(j))):
            out.append(("a.p,q", (t, i, j)))
    for i, j, t in product(range(dp), range(dq), range(da)):
        if pa(e(i), _act(qr, field, e(j), e(t))) != _act(ta, field, pa(e(i), e(j)), e(t)):
            out.append(("p,q.a", (i, j, t)))
    for i, s, j in product(range(dp), range(db), range(dq)):
        if pa(_act(pr, field, e(i), e(s)), e(j)) != pa(e(i), _act(ql, field, e(s), e(j))):
            out.append(("p.b,q", (i, s, j)))
    for s, j, i in product(range(db), range(dq), range(dp)):
        if pb(_act(ql, field, e(s), e(j)), e(i)) != _act(tb, field, e(s), pb(e(j), e(i))):
            out.append(("b.q,p", (s, j, i)))
    for j, i, s in product(range(dq), range(dp), range(db)):
        if pb(e(j), _act(pr, field, e(i), e(s))) != _act(tb, field, pb(e(j), e(i)), e(s)):
            out.append(("q,p.b", (j, i, s)))
    for j, t, i in product(range(dq), range(da), range(dp)):
        if pb(_act(qr, field, e(j), e(t)), e(i)) != pb(e(j), _act(pl, field, e(t), e(i))):
            out.append(("q.a,p", (j, t, i)))
    for i, j, k in product(range(dp), range(dq), range(dp)):
        if _act(pl, field, pa(e(i), e(j)), e(k)) != _act(pr, field, e(i), pb(e(j), e(k))):
            out.append(("pqp", (i, j, k)))
    for j, i, k in product(range(dq), range(dp), range(dq)):
        if _act(ql, field, pb(e(j), e(i)), e(k)) != _act(qr, field, e(j), pa(e(i), e(k))):
            out.append(("qpq", (j, i, k)))
    minus = field.neg(one)
    for kind, pairs, unit in (("unit A", [pa(x, y) for x, y in gens_a], ua),
                              ("unit B", [pb(y, x) for y, x in gens_b], ub)):
        diff = _combo(field, (minus, unit), *[(one, vec) for vec in pairs])
        if diff:
            out.append((kind, (min(diff),)))
    return out


def _sparse_rank(rows, field, enough):
    """The rank of the sparse rows {column: scalar}, or enough once it
    gets there: echelon rows keyed by their least column, each new row
    reduced at its least column until that is free or the row is 0."""
    basis = {}
    for vec in rows:
        while vec and min(vec) in basis:
            p = min(vec)
            vec = _combo(field, (field.one, vec), (field.neg(vec[p]), basis[p]))
        if vec:
            p = min(vec)
            basis[p] = _combo(field, (field.inv(vec[p]), vec))
            if len(basis) == enough:
                break
    return len(basis)


def _pairing_bijective(x, y, middle_dim, pairing, target_dim, field):
    """Whether pairing[(i, j)] = <x_i, y_j> induces a bijection from the
    balanced product X (x) Y onto a space of dimension target_dim.

    x and y are raw bimodules (dim, left, right) over a middle algebra of
    dimension middle_dim.  X (x) Y is the space on the pairs (i, j)
    modulo one relation x_i.z_s (x) y_j - x_i (x) z_s.y_j per basis
    triple; the induced map is a well-defined bijection exactly when the
    pairing kills every relation, has dense rank target_dim and the
    relations have rank dim X dim Y - target_dim.  The pairing then has a
    kernel of that dimension, which holds every relation, so the rank of
    the relations can stop there."""
    (dx, _, xr), (dy, yl, _) = x, y
    one, minus = field.one, field.neg(field.one)
    width = dx * dy
    relations = []
    for i, s, j in product(range(dx), range(middle_dim), range(dy)):
        left = {i2 * dy + j: c for i2, c in _act(xr, field, {i: one}, {s: one}).items()}
        right = {i * dy + j2: c for j2, c in _act(yl, field, {s: one}, {j: one}).items()}
        rel = _combo(field, (one, left), (minus, right))
        if _combo(field, *[(c, pairing.get(divmod(k, dy), {})) for k, c in rel.items()]):
            return False
        relations.append(rel)
    values = [[pairing.get(divmod(k, dy), {}).get(t, field.zero) for k in range(width)]
              for t in range(target_dim)]
    return (dense_rank(values, width, field) == target_dim
            and _sparse_rank(relations, field, width - target_dim) == width - target_dim)


def brute_context_consequences(alg_a, alg_b, p, q, pairing_a, pairing_b, gens_a, gens_b,
                               field):
    """Every consequence of the axioms of a Morita context that fails,
    each computed densely from the raw tables.

    The arguments are those of brute_context_defects.  Returns (kind,
    tuple) pairs, in the order

        ("tensor A", ())         P (x)_B Q -> A is not a well-defined bijection
        ("tensor B", ())         Q (x)_A P -> B is not
        ("P from gens_b", (i,))  sum <p_i, q_k>_A p_k != p_i over gens_b
        ("P from gens_a", (i,))  sum p'_j <q'_j, p_i>_B != p_i over gens_a
        ("Q from gens_b", (j,))  sum q_k <p_k, q_j>_A != q_j over gens_b
        ("Q from gens_a", (j,))  sum <q_j, p'_j>_B q'_j != q_j over gens_a

    with p_i and q_j basis elements of P and Q."""
    (da, _, _), (db, _, _) = alg_a, alg_b
    (dp, pl, pr), (dq, ql, qr) = p, q
    one = field.one
    out = []
    if not _pairing_bijective(p, q, db, pairing_a, da, field):
        out.append(("tensor A", ()))
    if not _pairing_bijective(q, p, da, pairing_b, db, field):
        out.append(("tensor B", ()))
    for i in range(dp):
        e = {i: one}
        if _combo(field, *[(one, _act(pl, field, _act(pairing_a, field, e, y), x))
                           for y, x in gens_b]) != e:
            out.append(("P from gens_b", (i,)))
        if _combo(field, *[(one, _act(pr, field, x, _act(pairing_b, field, y, e)))
                           for x, y in gens_a]) != e:
            out.append(("P from gens_a", (i,)))
    for j in range(dq):
        e = {j: one}
        if _combo(field, *[(one, _act(qr, field, y, _act(pairing_a, field, x, e)))
                           for y, x in gens_b]) != e:
            out.append(("Q from gens_b", (j,)))
        if _combo(field, *[(one, _act(ql, field, _act(pairing_b, field, e, x), y))
                           for x, y in gens_a]) != e:
            out.append(("Q from gens_a", (j,)))
    return out


def sparse_of(rows, field):
    """The sparse map {column: {row: scalar}} of a dense matrix."""
    out = {}
    for r, row in enumerate(rows):
        for c, x in enumerate(row):
            if x != field.zero:
                out.setdefault(c, {})[r] = x
    return out


def dense_matmul(a, b, field):
    """The product of two dense matrices given as lists of rows."""
    out = []
    for row in a:
        acc = [field.zero] * (len(b[0]) if b else 0)
        for k, x in enumerate(row):
            for j, y in enumerate(b[k]):
                acc[j] = field.add(acc[j], field.mul(x, y))
        out.append(acc)
    return out


def dense_inverse(a, field):
    """The inverse of a square dense matrix by Gauss-Jordan elimination on
    [a | 1], or None if a is singular."""
    n = len(a)
    rows = [list(a[i]) + [field.one if j == i else field.zero for j in range(n)]
            for i in range(n)]
    if dense_rank([r[:n] for r in rows], n, field) != n:
        return None
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != field.zero)
        rows[col], rows[piv] = rows[piv], rows[col]
        scale = field.inv(rows[col][col])
        rows[col] = [field.mul(scale, x) for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != field.zero:
                c = rows[r][col]
                rows[r] = [field.sub(x, field.mul(c, y)) for x, y in zip(rows[r], rows[col])]
    return [r[n:] for r in rows]


def brute_module_defects(alg, dim, act, field):
    """Every failed axiom of a left module, evaluated one element at a time.

    alg is a raw algebra (dim, table, unit); act[(i, m)] is x_i . e_m on
    dim coordinates.  Returns (kind, tuple) pairs in the order ("unit",
    (m,)) where the unit moves e_m, then ("assoc", (i, j, m)) where
    (x_i x_j) . e_m != x_i . (x_j . e_m)."""
    adim, table, unit = alg
    one = field.one
    out = []
    for m in range(dim):
        e = {m: one}
        if _act(act, field, unit, e) != e:
            out.append(("unit", (m,)))
    for i, j, m in product(range(adim), range(adim), range(dim)):
        xi, xj, e = {i: one}, {j: one}, {m: one}
        if _act(act, field, _act(table, field, xi, xj), e) != \
                _act(act, field, xi, _act(act, field, xj, e)):
            out.append(("assoc", (i, j, m)))
    return out


def brute_left_uple_defects(alg, f, m0, m1, t, f_m, field):
    """Every failed condition of a left uple (M0, M1, T, f_M), each
    evaluated element by element on every basis tuple.

    alg is a raw algebra (dim, table, unit) and f[(i, j)] the 2-cochain;
    m0 and m1 are raw modules (dim, act); t[m] = T(e_m) and f_m[(i, m)] =
    f_M(x_i, e_m), both in M1.  Returns (kind, tuple) pairs in the order
    ("m0", defect) and ("m1", defect) for the module defects,
    ("injective", ()), ("intertwine", (i,)) and ("correction", (i, j)),
    the last where a f_M(b, m) - f_M(ab, m) + f_M(a, bm) - f(a, b) T m is
    nonzero for a = x_i, b = x_j and some basis vector m of M0."""
    adim, table, _ = alg
    (n0, a0), (n1, a1) = m0, m1
    one, minus = field.one, field.neg(field.one)
    out = [("m0", d) for d in brute_module_defects(alg, n0, a0, field)]
    out += [("m1", d) for d in brute_module_defects(alg, n1, a1, field)]
    t_rows = [[t.get(m, {}).get(r, field.zero) for m in range(n0)] for r in range(n1)]
    if dense_rank(t_rows, n0, field) != n0:
        out.append(("injective", ()))

    def tmap(vec):
        return _combo(field, *[(c, t.get(m, {})) for m, c in vec.items()])

    def fm(avec, mvec):
        return _act(f_m, field, avec, mvec)

    basis0 = [{m: one} for m in range(n0)]
    for i in range(adim):
        xi = {i: one}
        if any(tmap(_act(a0, field, xi, e)) != _act(a1, field, xi, tmap(e)) for e in basis0):
            out.append(("intertwine", (i,)))
    for i, j in product(range(adim), repeat=2):
        a, b = {i: one}, {j: one}
        for e in basis0:
            if _combo(field, (one, _act(a1, field, a, fm(b, e))),
                      (minus, fm(_act(table, field, a, b), e)),
                      (one, fm(a, _act(a0, field, b, e))),
                      (minus, _act(a1, field, f.get((i, j), {}), tmap(e)))):
                out.append(("correction", (i, j)))
                break
    return out


def _glued(n, uple, field):
    """(dim, act) of the module over A_f on M0 + M1 (M1 coordinates after
    those of M0) with the pair action

        (a, b)(m0, m1) = (a m0, a m1 + b T m0 + f_M(a, m0)),

    where (x_i, 0) is basis element i of A_f and (0, x_i) is n + i."""
    (n0, a0), (n1, a1), t, f_m = uple

    def lower(vec):
        return {n0 + r: c for r, c in vec.items()}

    act = {}
    for i in range(n):
        xi = {i: field.one}
        for m in range(n0):
            act[(i, m)] = {**a0.get((i, m), {}), **lower(f_m.get((i, m), {}))}
            act[(n + i, m)] = lower(_act(a1, field, xi, t.get(m, {})))
        for m in range(n1):
            act[(i, n0 + m)] = lower(a1.get((i, m), {}))
    return n0 + n1, act


def brute_map_defects(n, src, tgt, u, field):
    """Every (i, m) at which the linear map u: F(src) -> F(tgt) fails to
    commute with basis element i of A_f on basis vector m, for raw uples
    src and tgt, each (m0, m1, t, f_m) as in brute_left_uple_defects over
    an algebra of dim n, glued by the pair action; u[m] is the image of
    basis vector m.  A morphism of uples is exactly a triple whose glued
    map [[u0, 0], [u1, u2]] has no defect."""
    dx, ax = _glued(n, src, field)
    _, ay = _glued(n, tgt, field)

    def umap(vec):
        return _combo(field, *[(c, u.get(m, {})) for m, c in vec.items()])

    out = []
    for i, m in product(range(2 * n), range(dx)):
        xi, e = {i: field.one}, {m: field.one}
        if umap(_act(ax, field, xi, e)) != _act(ay, field, xi, umap(e)):
            out.append((i, m))
    return out


def build_parser():
    """The command line of quivdeform as an argparse parser.  The command
    name, under "command", stands where the package keeps its handler, so
    the namespace it gives is the package parser's attribute for attribute."""
    parser = argparse.ArgumentParser(
        prog="quivdeform",
        description="Exact deformations of bound quiver algebras.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", metavar="K", default=None,
                        help="override the field declared in the file (Q or F<p>)")
    common.add_argument("--max-degree", type=int, default=30, metavar="N",
                        help="path length cap for basis computations (default 30)")
    common.add_argument("--report", choices=("text", "json-lines"),
                        default="text", help="format of the check lines")

    for name in ("basis", "hh", "check-cocycle", "verify-deform"):
        sub.add_parser(name, parents=[common]).add_argument("file")

    p = sub.add_parser("deform", parents=[common])
    p.add_argument("file")
    p.add_argument("-o", "--output", metavar="OUT")
    p.add_argument("--dot", metavar="OUT")
    p.add_argument("--interreduce", action="store_true")

    p = sub.add_parser("equiv", parents=[common])
    p.add_argument("file")
    p.add_argument("other")

    for name in ("transfer", "verify-morita"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("file")
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument("--matrix", type=int, metavar="N")
        grp.add_argument("--idempotent", metavar="V1,V2,...")

    p = sub.add_parser("module-roundtrip", parents=[common])
    p.add_argument("file")
    p.add_argument("module")
    return parser


# ------------------------------------------------------------- file grammar

# The tokens of algebra and module files and the negative numbers of the
# command line, as regular expressions.  A line never holds "\n" (lines
# come from str.splitlines), so "$", which also matches before a final
# "\n", stands for the end of the text.
SCALAR_RE = re.compile(r"^-?\d+(/\d+)?$")
TRIVIAL_RE = re.compile(r"^e\((\w+)\)$")
NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_^]*$")
ORIGIN_RE = re.compile(r"#\s*origin:\s*(\S+)")
ARROW_RE = re.compile(r"^(\S+)\s*:\s*(\S+)\s*->\s*(\S+)$")
PARAM_RE = re.compile(r"^(\w+)\s*=\s*(\S+)$")
COCYCLE_RE = re.compile(r"^f\((.*?),(.*?)\)\s*=\s*(.*)$")
ACT_RE = re.compile(r"^act\((.*?)\)\s*=\s*(.*)$")
NEGATIVE_NUMBER_RE = re.compile(r"-\d+|-\d*\.\d+")


class ParseError(Exception):
    """A refusal of the reference reader, with the message of the
    package's InputError."""


def regex_strip_comment(line):
    """(the line before its first #, stripped; the origin tag or None)."""
    m = ORIGIN_RE.search(line)
    if "#" in line:
        line = line[:line.index("#")]
    return line.strip(), m.group(1) if m else None


def _signed_terms(text):
    text = "".join(text.split())
    if not text:
        raise ParseError("empty expression")
    terms, sign, cur = [], 1, []
    for ch in text:
        if ch in "+-":
            if cur:
                terms.append((sign, "".join(cur)))
                cur, sign = [], 1
            sign *= -1 if ch == "-" else 1
        else:
            cur.append(ch)
    if not cur:
        raise ParseError("dangling sign in expression %r" % text)
    terms.append((sign, "".join(cur)))
    return terms


def regex_parse_expression(text, quiver, field, params):
    """The terms {path: scalar} of an expression, term by term, each
    factor tested as a scalar, a param, e(v) and an arrow in that order;
    a term adds into the sum, and a sum that cancels drops its path."""
    out = {}
    for sign, term in _signed_terms(text):
        coeff = field.one if sign > 0 else field.neg(field.one)
        path = None
        for factor in term.split("*"):
            if not factor:
                raise ParseError("empty factor in term %r" % term)
            if SCALAR_RE.match(factor):
                coeff = field.mul(coeff, field.parse(factor))
                continue
            if factor in params:
                coeff = field.mul(coeff, params[factor])
                continue
            m = TRIVIAL_RE.match(factor)
            if m:
                if m.group(1) not in quiver.vindex:
                    raise ParseError("unknown vertex in %r" % factor)
                step = (quiver.vindex[m.group(1)],)
            elif factor in quiver.aindex:
                a = quiver.aindex[factor]
                step = (quiver.arrows[a][1], a)
            else:
                raise ParseError("unknown name %r in term %r" % (factor, term))
            if path is None:
                path = step
            elif (quiver.arrows[path[-1]][2] if len(path) > 1 else path[0]) != step[0]:
                raise ParseError("factors do not compose in term %r" % term)
            else:
                path += step[1:]
        if path is None:
            raise ParseError("term %r has no path factor" % term)
        if coeff != field.zero:
            total = field.add(out.get(path, field.zero), coeff)
            if total == field.zero:
                del out[path]
            else:
                out[path] = total
    return out


def regex_parse_algebra_text(text, quiver_type, field_type, field_override=None):
    """(field, quiver, relations, params, cocycle pairs, origins) of an
    algebra file, relations and values as term dicts; raises ParseError,
    or the error of quiver_type or field_type, on a malformed file."""
    field_line, vertex_ids, arrows, param_lines, relation_lines, cocycle_lines = (
        None, [], [], [], [], [])
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, origin = regex_strip_comment(raw)
        if not line:
            continue
        head = line.split()[0]
        rest = line[len(head):].strip()
        if head == "field":
            if field_line is not None:
                raise ParseError("line %d: duplicate field line" % lineno)
            field_line = (lineno, rest)
        elif head == "vertex":
            vertex_ids.extend(rest.split())
        elif head == "arrow":
            m = ARROW_RE.match(rest)
            if not m:
                raise ParseError("line %d: malformed arrow line" % lineno)
            if not NAME_RE.match(m.group(1)):
                raise ParseError("line %d: bad arrow name %r" % (lineno, m.group(1)))
            arrows.append(m.groups())
        elif head == "param":
            m = PARAM_RE.match(rest)
            if not m:
                raise ParseError("line %d: malformed param line" % lineno)
            param_lines.append((lineno,) + m.groups())
        elif head == "relation":
            relation_lines.append((lineno, rest, origin))
        elif head == "cocycle":
            cocycle_lines.append((lineno, rest))
        else:
            raise ParseError("line %d: unknown directive %r" % (lineno, head))
    if field_override is not None:
        field = field_override
    elif field_line is None:
        raise ParseError("missing field line")
    else:
        toks = field_line[1].split()
        if toks == ["Q"]:
            field = field_type.rationals()
        elif len(toks) == 2 and toks[0] == "F":
            try:
                p = int(toks[1])
            except ValueError:
                raise ParseError("line %d: malformed field line" % field_line[0])
            field = field_type.prime(p)
        else:
            raise ParseError("line %d: malformed field line" % field_line[0])
    quiver = quiver_type(vertex_ids, arrows)
    params = {}
    for lineno, name, value in param_lines:
        if name in quiver.aindex or name in quiver.vindex or SCALAR_RE.match(name):
            raise ParseError("line %d: param name %r shadows another token" % (lineno, name))
        if name in params:
            raise ParseError("line %d: duplicate param %r" % (lineno, name))
        params[name] = field.parse(value)

    def in_line(lineno, read, *args):
        try:
            return read(*args)
        except ParseError as e:
            raise ParseError("line %d: %s" % (lineno, e))

    def path_of(key):
        q = field_type.rationals()
        terms = regex_parse_expression(key, quiver, q, {})
        if len(terms) != 1:
            raise ParseError("expected a single path, got %r" % key)
        (path, coeff), = terms.items()
        if coeff != q.one:
            raise ParseError("path expression %r carries a coefficient" % key)
        return path

    relations = [in_line(lineno, regex_parse_expression, expr, quiver, field, params)
                 for lineno, expr, _ in relation_lines]
    pairs = {}
    for lineno, rest in cocycle_lines:
        m = COCYCLE_RE.match(rest)
        if not m:
            raise ParseError("line %d: malformed cocycle line" % lineno)
        key = (in_line(lineno, path_of, m.group(1)), in_line(lineno, path_of, m.group(2)))
        value = in_line(lineno, regex_parse_expression, m.group(3), quiver, field, params)
        if key in pairs:
            raise ParseError("line %d: duplicate cocycle pair" % lineno)
        pairs[key] = value
    return field, quiver, relations, params, pairs, [o for _, _, o in relation_lines]


def regex_parse_module_text(text, field):
    """(dim, actions) of a module file, each action {column: {row: scalar}};
    raises ParseError, or the field's error, on a malformed file."""
    dim, actions = None, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, _ = regex_strip_comment(raw)
        if not line:
            continue
        head = line.split()[0]
        rest = line[len(head):].strip()
        if head == "dim":
            if dim is not None:
                raise ParseError("line %d: duplicate dim line" % lineno)
            try:
                dim = int(rest)
            except ValueError:
                raise ParseError("line %d: malformed dim line" % lineno)
            if dim < 0:
                raise ParseError("line %d: negative dimension" % lineno)
        elif head.startswith("act(") or head == "act":
            m = ACT_RE.match(line)
            if not m:
                raise ParseError("line %d: malformed act line" % lineno)
            label = "".join(m.group(1).split())
            if dim is None:
                raise ParseError("line %d: act before dim" % lineno)
            rows = []
            for row_text in m.group(2).split(";"):
                entries = row_text.split()
                if len(entries) != dim:
                    raise ParseError("line %d: row of width %d, expected %d"
                                     % (lineno, len(entries), dim))
                rows.append([field.parse(tok) for tok in entries])
            if len(rows) != dim:
                raise ParseError("line %d: %d rows, expected %d" % (lineno, len(rows), dim))
            if label in actions:
                raise ParseError("line %d: duplicate act(%s)" % (lineno, label))
            actions[label] = {}
            for r, row in enumerate(rows):
                for c, x in enumerate(row):
                    if x != field.zero:
                        actions[label].setdefault(c, {})[r] = x
        else:
            raise ParseError("line %d: unknown directive %r" % (lineno, head))
    if dim is None:
        raise ParseError("missing dim line")
    return dim, actions


def plain_find_match(rules, quiver, p):
    """(left, word, right) splitting the path p around the first word of
    rules, in their order, that occurs in p, at its first occurrence; or
    None.  Every rule is tried at every position."""
    arrows = p[1:]
    seq = [p[0]] + [quiver.arrows[a][2] for a in arrows]

    def sub(i, j):
        return (seq[i],) + arrows[i:j]

    for w in rules:
        word = w[1:]
        if not word:
            if w[0] in seq:
                i = seq.index(w[0])
                return sub(0, i), w, sub(i, len(arrows))
            continue
        for i in range(len(arrows) - len(word) + 1):
            if arrows[i:i + len(word)] == word:
                return sub(0, i), w, sub(i + len(word), len(arrows))
    return None
