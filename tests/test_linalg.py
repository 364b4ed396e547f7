import random
from fractions import Fraction

from quivdeform.fields import Field
from quivdeform.linalg import (SpanSolver, map_apply, map_combine, map_compose,
                               map_inverse, nullspace, rank, rref)

from oracles import dense_inverse, dense_matmul, sparse_of

Q = Field.rationals()
F7 = Field.prime(7)


def fr(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rref_and_rank():
    m = fr([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    pivots = rref(m, Q)
    assert pivots == [0, 1]
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


def test_nullspace():
    a = fr([[1, 2, 3], [2, 4, 6]])
    basis = nullspace(a, Q)
    assert len(basis) == 2
    for v in basis:
        assert dense_matmul(fr([[1, 2, 3]]), [[x] for x in v], Q) == [[Fraction(0)]]
    assert rank([list(v) for v in basis], Q) == 2


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
