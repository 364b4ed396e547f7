"""Brute-force reference computations, kept away from library code.

Dimensions of bound quiver algebras are recomputed here by listing all
paths up to a length cap and row-reducing the span of u*r*v multiples
of the input relations, with no rewriting involved.  Hochschild numbers
are recomputed on the full bar complex Hom(A^{tensor n}, A) from raw
structure constants; only dim HH^2 is comparable with the reduced
relative complex the library uses, the Z and B dimensions differ by
design.  Both oracles use their own row reduction so that nothing
under test is in the loop.  The Hochschild differential itself is
recomputed by evaluating every face on every index tuple.  The deformed
algebra A_f is rebuilt from the pair formula on every pair of basis
indices, its associativity by multiplying out every basis triple, and
primality by trial division.  The bimodule and bimodule-uple axioms,
and the axioms of left modules, left uples and their morphisms, are
evaluated on every basis tuple, one element at a time, from the raw
action tables.  Dense matrix products and inverses are here too, as the
reference for the library's sparse maps.
"""

from itertools import product


def _rank(rows, width, field):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(width):
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
        rank += 1
    return rank


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
    return len(paths) - _rank(rows, len(paths), field)


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
        return _rank(dense, height, field)

    rank_d2 = sparse_rank(d2_cols, dim ** 4)
    rank_d1 = sparse_rank(d1_cols, dim ** 3)
    dim_z2 = dim ** 3 - rank_d2
    return dim_z2 - rank_d1


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


def brute_transfer(ctx, f, n):
    """phi^n by direct evaluation of its defining sum: one term per
    (n+1)-tuple of generator indices, no operator caching involved."""
    field = ctx.field
    qs = [gv for gv, _ in ctx.gens_b]
    ps = [pv for _, pv in ctx.gens_b]
    m = len(qs)

    def add(acc, vec, c):
        for k, v in vec.items():
            s = field.add(acc.get(k, field.zero), field.mul(c, v))
            if s == field.zero:
                acc.pop(k, None)
            else:
                acc[k] = s

    def tuples(width, size):
        if width == 0:
            yield ()
            return
        for head in tuples(width - 1, size):
            for last in range(size):
                yield head + (last,)

    table = {}
    for key in tuples(n, ctx.b.dim):
        out = {}
        for idx in tuples(n + 1, m):
            args = [ctx.pair_a(ps[idx[t]],
                               ctx.q.left_act({key[t]: field.one}, qs[idx[t + 1]]))
                    for t in range(n)]
            inner = f.evaluate(*args)
            if inner:
                moved = ctx.p.left_act(inner, ps[idx[n]])
                add(out, ctx.pair_b(qs[idx[0]], moved), field.one)
        if out:
            table[key] = out
    return table


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
    if _rank(t_rows, n0, field) != n0:
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
    if _rank([r[:n] for r in rows], n, field) != n:
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
    if _rank(t_rows, n0, field) != n0:
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
