import copy
import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivdeform.errors import UntaggedSpan
from quivdeform.fields import Field
from quivdeform.linalg import (FinDimAlgebra, SpanSolver, column_kernel, map_apply,
                               map_combine, map_compose, map_inverse)

from oracles import (_act, brute_generator_associativity_defect, dense_inverse,
                     dense_matmul, dense_nullspace, dense_rank, sparse_of)

Q = Field.rationals()
F7 = Field.prime(7)


def fr(rows):
    return [[Fraction(x) for x in row] for row in rows]


def columns(rows, width, field):
    """The columns of a dense matrix as sparse vectors keyed by row, in
    order, zero columns included."""
    return [{r: row[c] for r, row in enumerate(rows) if row[c] != field.zero}
            for c in range(width)]


def rank(rows, field):
    """The rank of a dense matrix, as the dimension of its rows' span."""
    span = SpanSolver(field)
    for row in rows:
        span.add(dict(enumerate(row)))
    return span.dim


def test_pivots_and_rank():
    span = SpanSolver(Q)
    for row in fr([[1, 2, 3], [2, 4, 6], [1, 1, 1]]):
        span.add(dict(enumerate(row)))
    assert sorted(span.rows) == [0, 1]
    assert rank(fr([[1, 2], [3, 4]]), Q) == 2
    assert rank(fr([[1, 2], [2, 4]]), Q) == 1
    assert rank([], Q) == 0


def solve(a, b, field):
    """One solution x of A x = b as a dense list, or None: the module
    layer solves through SpanSolver.express over the columns of A."""
    span = SpanSolver(field)
    for c in range(len(a[0])):
        span.add({r: row[c] for r, row in enumerate(a) if row[c] != field.zero}, c)
    x = span.express({r: v for r, v in enumerate(b) if v != field.zero})
    return None if x is None else [x.get(c, field.zero) for c in range(len(a[0]))]


def test_solve_consistent_and_inconsistent():
    a = fr([[1, 1], [0, 1]])
    x = solve(a, [Fraction(3), Fraction(1)], Q)
    assert dense_matmul(a, [[v] for v in x], Q) == [[Fraction(3)], [Fraction(1)]]
    a2 = fr([[1, 1], [2, 2]])
    assert solve(a2, [Fraction(1), Fraction(3)], Q) is None
    # underdetermined systems return some solution
    a3 = fr([[1, 1, 1]])
    x3 = solve(a3, [Fraction(5)], Q)
    assert sum(x3) == Fraction(5)


def test_column_kernel():
    a = fr([[1, 2, 3], [2, 4, 6]])
    basis = column_kernel(columns(a, 3, Q), Q)
    assert len(basis) == 2
    for v in basis:
        assert dense_matmul(fr([[1, 2, 3]]), [[v.get(c, Q.zero)] for c in range(3)],
                            Q) == [[Fraction(0)]]
    assert rank([[v.get(c, Q.zero) for c in range(3)] for v in basis], Q) == 2


def test_invert_matrix():
    a = sparse_of(fr([[2, 1], [1, 1]]), Q)
    ainv = map_inverse(a, 2, Q)
    ident = {0: {0: Fraction(1)}, 1: {1: Fraction(1)}}
    assert map_compose(a, ainv, Q) == ident
    assert map_compose(ainv, a, Q) == ident
    assert map_inverse(sparse_of(fr([[1, 2], [2, 4]]), Q), 2, Q) is None


def test_prime_field_matrices():
    a = sparse_of([[3, 1], [5, 2]], F7)
    ainv = map_inverse(a, 2, F7)
    assert map_compose(a, ainv, F7) == {0: {0: 1}, 1: {1: 1}}
    assert rank([[3, 1], [6, 2]], F7) == 1


def test_span_solver_membership_and_witness():
    s = SpanSolver(Q)
    assert s.add({"x": Fraction(1), "y": Fraction(1)}, "u")
    assert s.add({"y": Fraction(1)}, "v")
    assert not s.add({"x": Fraction(2), "y": Fraction(5)}, "w")
    assert s.dim == 2
    target = {"x": Fraction(3), "y": Fraction(-1)}
    combo = s.express(target)
    assert combo is not None
    # check the witness really reconstructs the target
    rebuilt = {}
    originals = {"u": {"x": Fraction(1), "y": Fraction(1)},
                 "v": {"y": Fraction(1)}}
    for tag, c in combo.items():
        for k, val in originals[tag].items():
            rebuilt[k] = rebuilt.get(k, Fraction(0)) + c * val
    rebuilt = {k: v for k, v in rebuilt.items() if v != 0}
    assert rebuilt == target
    assert s.express({"z": Fraction(1)}) is None
    assert s.contains({"x": Fraction(1), "y": Fraction(1)})
    assert not s.contains({"z": Fraction(1)})


def test_span_solver_tuple_keys():
    s = SpanSolver(F7)
    s.add({(0, 1): 3, (2, 0): 1}, "a")
    s.add({(0, 1): 1}, "b")
    assert s.contains({(2, 0): 2})
    combo = s.express({(2, 0): 2})
    assert combo == {"a": 2, "b": 1}  # 2*a + b kills the (0, 1) slot mod 7


def test_sparse_maps_agree_with_dense_matrices():
    rng = random.Random(11)
    for field in (Q, F7):
        for _ in range(20):
            n = rng.randrange(1, 6)
            a, b = ([[field.from_int(rng.choice([0, 0, 0, 1, -1, 2, 3])) for _ in range(n)]
                     for _ in range(n)] for _ in range(2))
            v = [field.from_int(rng.randrange(-2, 3)) for _ in range(n)]
            sa, sb = sparse_of(a, field), sparse_of(b, field)
            sv = {i: x for i, x in enumerate(v) if x != field.zero}
            assert map_apply(sa, sv, field) == sparse_of(dense_matmul(a, [[x] for x in v], field),
                                                         field).get(0, {})
            assert map_compose(sa, sb, field) == sparse_of(dense_matmul(a, b, field), field)
            c = field.from_int(3)
            combined = [[field.add(x, field.mul(c, y)) for x, y in zip(ra, rb)]
                        for ra, rb in zip(a, b)]
            assert map_combine([(field.one, sa), (c, sb)], field) == sparse_of(combined, field)
            inv = dense_inverse(a, field)
            got = map_inverse(sa, n, field)
            assert (got is None) == (inv is None)
            if inv is not None:
                assert got == sparse_of(inv, field)
    # a map minus itself is the empty map, not a map of empty columns
    m = {0: {1: Q.one}, 2: {0: Fraction(3)}}
    assert map_combine([(Q.one, m), (Q.neg(Q.one), m)], Q) == {}


# ------------------------------------------- the engine against the oracle

ENTRIES = st.sampled_from([0, 0, 0, 0, 1, -1, 2, 3])


@st.composite
def known_rank(draw):
    """(field, r, M): M = L R over Q or F_7 with L (m x r) of full column
    rank and R (r x n) of full row rank, so rank M = r.  L holds the
    identity in r of its rows and R in r of its columns; the other entries
    are sparse."""
    field = draw(st.sampled_from([Q, F7]))
    m, n = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    r = draw(st.integers(0, min(m, n)))

    def unit(k):
        return [field.one if t == k else field.zero for t in range(r)]

    left = [[field.from_int(draw(ENTRIES)) for _ in range(r)] for _ in range(m)]
    for k, i in enumerate(draw(st.permutations(range(m)))[:r]):
        left[i] = unit(k)
    right_cols = [[field.from_int(draw(ENTRIES)) for _ in range(r)] for _ in range(n)]
    for k, j in enumerate(draw(st.permutations(range(n)))[:r]):
        right_cols[j] = unit(k)
    right = [[col[k] for col in right_cols] for k in range(r)]
    if r == 0:
        return field, 0, [[field.zero] * n for _ in range(m)]
    return field, r, dense_matmul(left, right, field)


def vectors(field, m):
    return st.lists(ENTRIES, min_size=m, max_size=m).map(
        lambda xs: {i: field.from_int(x) for i, x in enumerate(xs) if x})


def combine(field, terms):
    """sum c * vec over the (c, vec) pairs of terms, as a sparse vector."""
    return map_combine([(c, {0: vec}) for c, vec in terms], field).get(0, {})


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.data(), known_rank())
def test_engine_agrees_with_the_dense_oracle(data, case):
    field, r, a = case
    m, n = len(a), len(a[0])
    cols = columns(a, n, field)
    span = SpanSolver(field)
    for c, col in enumerate(cols):
        span.add(col, c)
    assert span.dim == r == dense_rank(a, n, field)
    # every row has its smallest coordinate as pivot; over F_7 with entry
    # 1, over Q as a primitive integer row, together with its combination,
    # with a positive entry there, since rank and membership never divide
    for p, (row, combo) in span.rows.items():
        assert min(row) == p
        if field.char:
            assert row[p] == field.one
        else:
            entries = list(row.values()) + list(combo.values())
            assert row[p] > 0 and all(type(v) is int for v in entries)
            assert gcd(*entries) == 1

    v = data.draw(vectors(field, m))
    member = dense_rank([[col.get(i, field.zero) for i in range(m)] for col in cols]
                   + [[v.get(i, field.zero) for i in range(m)]], m, field) == r
    assert span.contains(v) == member

    # express rebuilds a member from the inserted vectors
    x = data.draw(st.lists(ENTRIES, min_size=n, max_size=n))
    target = combine(field, [(field.from_int(c), col) for c, col in zip(x, cols)])
    assert span.contains(target)
    combo = span.express(target)
    assert combine(field, [(c, cols[t]) for t, c in combo.items()]) == target
    assert (span.express(v) is None) == (not member)

    # normal forms are idempotent, free of pivots, differ from the vector
    # by a member, and vanish exactly on the span
    nf = span.normal_form(v)
    assert span.normal_form(nf) == nf
    assert not set(nf) & set(span.rows)
    assert span.contains(combine(field, [(field.one, v), (field.neg(field.one), nf)]))
    assert (not nf) == member
    assert span.normal_form(target) == {}

    # the kernel helper gives the oracle's nullspace, vector for vector
    want = [{c: y for c, y in enumerate(vec) if y != field.zero}
            for vec in dense_nullspace(a, n, field)]
    assert column_kernel(cols, field) == want


@settings(derandomize=True, max_examples=30, deadline=None)
@given(known_rank())
def test_engine_rank_on_int_tuple_coordinates(case):
    # coordinates (i // 3, i % 3) order as i does, so the rank is unchanged
    field, r, a = case
    span = SpanSolver(field)
    for col in columns(a, len(a[0]), field):
        span.add({divmod(i, 3): x for i, x in col.items()})
    assert span.dim == r


def test_express_is_refused_after_an_untagged_add():
    span = SpanSolver(Q)
    span.add({0: Q.one}, "a")
    assert span.express({0: Fraction(2)}) == {"a": Fraction(2)}
    span.add({1: Q.one})
    assert span.contains({1: Fraction(3)})
    with pytest.raises(UntaggedSpan):
        span.express({0: Q.one})
    with pytest.raises(UntaggedSpan):
        span.express({5: Q.one})


def matrix_dual_numbers(field):
    """M_2(k[x]/(x^2)) in the basis E_rc x^g, flattened (2 r + c) 2 + g:
    every product of two basis elements is one basis element or 0."""
    table = {}
    for r, c, d, g, h in product(range(2), repeat=5):
        if g + h < 2:
            table[((2 * r + c) * 2 + g, (2 * c + d) * 2 + h)] = {(2 * r + d) * 2 + g + h: field.one}
    return table, {0: field.one, 6: field.one}


def rebased(table, unit, field, change):
    """The same algebra in the basis y_i = sum_k change[k][i] x_k."""
    dim = len(change)
    inverse = dense_inverse(change, field)

    def coords(vec):
        # y-coordinates of a vector given in x-coordinates
        out = {}
        for i in range(dim):
            c = field.zero
            for k, v in vec.items():
                c = field.add(c, field.mul(inverse[i][k], v))
            if c != field.zero:
                out[i] = c
        return out

    ys = [{k: change[k][i] for k in range(dim) if change[k][i]} for i in range(dim)]
    out = {}
    for i, j in product(range(dim), repeat=2):
        vec = coords(_act(table, field, ys[i], ys[j]))
        if vec:
            out[(i, j)] = vec
    return out, coords(unit)


def entry_kind(vec, field):
    if len(vec) > 1:
        return "several"
    return "unit" if field.one in vec.values() else "scaled"


@pytest.mark.parametrize("field", [Q, F7], ids=["Q", "F7"])
def test_witness_on_unit_scaled_and_mixed_products_matches_the_oracle(field):
    # M_2(k[x]/(x^2)) in its matrix-unit basis, rescaled, and rescaled
    # with y_0 = x_0 + x_1: the tables hold products and columns that are
    # one basis vector with coefficient 1, scaled ones and sums.  The
    # witness finds no defect, changes neither the algebra nor its table,
    # and on one planted defect per table entry names the oracle's triple;
    # the generators and left maps it keeps are made before the snapshot
    base, unit = matrix_dual_numbers(field)
    dim = 8
    scale = [field.from_int(s) for s in (1, 2, 1, -1, 3, 1, 1, 2)]
    diagonal = [[scale[i] if i == k else field.zero for i in range(dim)] for k in range(dim)]
    sheared = [list(row) for row in diagonal]
    sheared[1][0] = field.one
    found = {}
    for table, unit in [(base, unit), rebased(base, unit, field, diagonal),
                        rebased(base, unit, field, sheared)]:
        alg = FinDimAlgebra(field, dim, table, unit, check=False)
        alg.unit_and_generators()
        alg.left_maps()
        before = copy.deepcopy(vars(alg))
        assert alg.associativity_witness() is None
        assert brute_generator_associativity_defect(dim, table, unit, field) is None
        assert vars(alg) == before
        for key, vec in table.items():
            kind = entry_kind(vec, field)
            bumped = {k: dict(v) for k, v in table.items()}
            m = min(vec)
            if kind == "unit":
                bumped[key] = {(m + 1) % dim: field.one}
            else:
                bumped[key][m] = field.add(vec[m], field.one) or field.one
            bad = FinDimAlgebra(field, dim, bumped, unit, check=False).associativity_witness()
            assert bad == brute_generator_associativity_defect(dim, bumped, unit, field), key
            found.setdefault(kind, []).append(bad is not None)
    assert {kind: any(hits) for kind, hits in found.items()} == \
        {"unit": True, "scaled": True, "several": True}
