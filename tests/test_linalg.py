import random

import pytest

from tensorcat.fields import Field
from tensorcat.linalg import Matrix, SingularMatrix

Q = Field.rationals()
F7 = Field.prime(7)


def M(field, rows):
    return Matrix(field, [[field.scalar(x) for x in r] for r in rows])


def test_kernel_example():
    m = M(Q, [[1, 1], [1, 1]])
    ker = m.kernel_basis()
    assert len(ker) == 1
    v = ker[0]
    assert all(x.is_zero() for x in m.mul_vec(v))


def test_rank_identity():
    assert Matrix.identity(Q, 3).rank() == 3


def test_solve_mod_p():
    m = M(F7, [[2]])
    assert m.solve([F7.scalar(1)]) == [F7.scalar(4)]


def test_solve_infeasible_is_none():
    m = M(Q, [[1, 1], [1, 1]])
    assert m.solve([Q.scalar(1), Q.scalar(2)]) is None


def test_kernel_orthogonal_to_rows_random():
    rng = random.Random(2)
    for field in (Q, F7):
        for _ in range(10):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = Matrix(field, [[field.scalar(rng.randint(-3, 3))
                                for _ in range(cols)] for _ in range(rows)])
            for v in m.kernel_basis():
                assert all(x.is_zero() for x in m.mul_vec(v))
            assert m.rank() + len(m.kernel_basis()) == cols


def test_inverse_and_det():
    m = M(Q, [[1, 2], [3, 5]])
    mi = m.inv()
    assert m @ mi == Matrix.identity(Q, 2)
    assert m.det() == Q.scalar(-1)
    with pytest.raises(SingularMatrix):
        M(Q, [[1, 1], [1, 1]]).inv()


def test_rref_pivots():
    m = M(Q, [[0, 1, 2], [0, 2, 4]])
    r, pivots = m.rref()
    assert pivots == [1]
    assert r.a[0][1] == Q.one()


def test_solve_consistent_underdetermined():
    m = M(Q, [[1, 1, 0]])
    x = m.solve([Q.scalar(3)])
    assert x is not None
    got = m.mul_vec(x)
    assert got == [Q.scalar(3)]


def test_matmul_shapes():
    a = M(Q, [[1, 0], [0, 1], [1, 1]])
    b = M(Q, [[2, 1], [1, 2]])
    c = a @ b
    assert (c.rows, c.cols) == (3, 2)
    assert c.a[2][0] == Q.scalar(3)


def test_solve_many_matches_columnwise_solve():
    rng = random.Random(11)
    for field in (Q, F7):
        for _ in range(20):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = Matrix(field, [[field.scalar(rng.randint(-2, 2))
                                for _ in range(cols)] for _ in range(rows)])
            x = [field.scalar(rng.randint(-2, 2)) for _ in range(cols)]
            bs = [[field.scalar(rng.randint(-2, 2)) for _ in range(rows)]
                  for _ in range(4)]
            bs.append(m.mul_vec(x))                 # always feasible
            sols = m.solve_many(bs)
            assert sols == [m.solve(b) for b in bs]
            assert sols[-1] is not None
            for b, sol in zip(bs, sols):
                aug = Matrix(field, [r + [b[i]] for i, r in enumerate(m.a)])
                if sol is None:
                    assert aug.rank() > m.rank()
                else:
                    assert m.mul_vec(sol) == b


def test_solve_many_reports_infeasible_column():
    m = M(Q, [[1, 1], [1, 1]])
    bs = [[Q.scalar(2), Q.scalar(2)], [Q.scalar(1), Q.scalar(2)],
          [Q.scalar(0), Q.scalar(0)]]
    assert m.solve_many(bs) == [[Q.scalar(2), Q.zero()], None,
                                [Q.zero(), Q.zero()]]
    assert m.solve_many([]) == []
