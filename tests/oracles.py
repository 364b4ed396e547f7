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
primality by trial division.  The bimodule and bimodule-uple axioms are
evaluated on every basis tuple, one element at a time, from the raw
action tables.
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
