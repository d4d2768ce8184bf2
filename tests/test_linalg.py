import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorcat.fields import Embedding, Field, FieldMismatch
from tensorcat.linalg import LinAlgError, Matrix, RowSpace, SingularMatrix
from tensorcat.ordalg import charpoly

Q = Field.rationals()
F7 = Field.prime(7)
F4 = Field(2, [1, 1, 1], gen_name="w")           # w^2 = w + 1
QPHI = Field(0, [-1, -1, 1], gen_name="phi")     # phi^2 = phi + 1
FIELDS = pytest.mark.parametrize("field", [Q, F7, F4, QPHI],
                                 ids=["Q", "F7", "F4", "Qphi"])


def M(field, rows):
    return Matrix(field, [[field.scalar(x) for x in r] for r in rows])


def _dense(m) -> list:
    """The entries of m as a list of rows, read through `row`."""
    return [m.row(i) for i in range(m.rows)]


def _apply(m, v):
    """m v for a column vector v."""
    return (m @ Matrix.from_cols(m.field, [v])).col(0)


def test_kernel_example():
    m = M(Q, [[1, 1], [1, 1]])
    ker = m.kernel_basis()
    assert len(ker) == 1
    v = ker[0]
    assert all(x.is_zero() for x in _apply(m, v))


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
                assert all(x.is_zero() for x in _apply(m, v))
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
    assert r[0, 1] == Q.one()


def test_solve_consistent_underdetermined():
    m = M(Q, [[1, 1, 0]])
    x = m.solve([Q.scalar(3)])
    assert x is not None
    got = _apply(m, x)
    assert got == [Q.scalar(3)]


def test_matmul_shapes():
    a = M(Q, [[1, 0], [0, 1], [1, 1]])
    b = M(Q, [[2, 1], [1, 2]])
    c = a @ b
    assert (c.rows, c.cols) == (3, 2)
    assert c[2, 0] == Q.scalar(3)


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
            bs.append(_apply(m, x))                 # always feasible
            sols = m.solve_many(bs)
            assert sols == [m.solve(b) for b in bs]
            assert sols[-1] is not None
            for b, sol in zip(bs, sols):
                aug = Matrix(field, [r + [b[i]]
                                     for i, r in enumerate(_dense(m))])
                if sol is None:
                    assert aug.rank() > m.rank()
                else:
                    assert _apply(m, sol) == b


def test_solve_many_reports_infeasible_column():
    m = M(Q, [[1, 1], [1, 1]])
    bs = [[Q.scalar(2), Q.scalar(2)], [Q.scalar(1), Q.scalar(2)],
          [Q.scalar(0), Q.scalar(0)]]
    assert m.solve_many(bs) == [[Q.scalar(2), Q.zero()], None,
                                [Q.zero(), Q.zero()]]
    assert m.solve_many([]) == []


def test_from_cols_keeps_the_width_of_rowless_columns():
    m = Matrix.from_cols(Q, [[], []])
    assert (m.rows, m.cols) == (0, 2)
    assert m.kernel_basis() == [[Q.one(), Q.zero()], [Q.zero(), Q.one()]]
    assert m.solve([]) == [Q.zero(), Q.zero()]


def test_transpose_keeps_the_shape_of_an_empty_matrix():
    t = Matrix.zeros(Q, 2, 0).transpose()
    assert (t.rows, t.cols) == (0, 2)


# -- properties of the elimination kernel --------------------------------

def matrices(field, rows, cols):
    """Matrices of the given shape strategies; small entries, so singular
    and sparse matrices are common."""
    entry = st.lists(st.integers(-2, 2), min_size=field.deg,
                     max_size=field.deg).map(field.scalar)
    return st.tuples(rows, cols).flatmap(
        lambda rc: st.lists(st.lists(entry, min_size=rc[0], max_size=rc[0]),
                            min_size=rc[1], max_size=rc[1])
        .map(lambda cols_data: Matrix.from_cols(field, cols_data)))


def small(field):
    return matrices(field, st.integers(0, 4), st.integers(1, 5))


def square(field, n):
    return matrices(field, st.just(n), st.just(n))


def is_rref(R, pivots):
    r = len(pivots)
    if pivots != sorted(set(pivots)):
        return False
    rows = _dense(R)
    for i, pc in enumerate(pivots):
        row = rows[i]
        if row[pc] != R.field.one():
            return False
        if any(not x.is_zero() for x in row[:pc]):
            return False
        if any(not rows[k][pc].is_zero() for k in range(R.rows) if k != i):
            return False
    return all(x.is_zero() for row in rows[r:] for x in row)


@FIELDS
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_rref_is_reduced_echelon_with_the_same_row_space(field, data):
    A = data.draw(small(field))
    R, pivots = A.rref()
    assert (R.rows, R.cols) == (A.rows, A.cols)
    assert is_rref(R, pivots)
    # every row of A is the combination of R's rows read off its pivots
    z = field.zero()
    for a in _dense(A):
        comb = [z] * A.cols
        for i, pc in enumerate(pivots):
            comb = [x + a[pc] * y for x, y in zip(comb, R.row(i))]
        assert comb == a
    # and every row of R is a combination of A's rows
    for row in _dense(R)[:len(pivots)]:
        y = A.transpose().solve(row)
        assert y is not None and _apply(A.transpose(), y) == row


@FIELDS
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_rows_added_in_any_order_end_in_the_rref(field, data):
    A = data.draw(small(field))
    order = data.draw(st.permutations(range(A.rows)))
    space = RowSpace(field, A.cols)
    for i in order:
        space.add(A.row(i))
    R, pivots = A.rref()
    assert space.pivots() == pivots
    assert space.basis() == _dense(R)[:len(pivots)]


@FIELDS
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_det_is_multiplicative(field, data):
    n = data.draw(st.integers(0, 4))
    A, B = data.draw(square(field, n)), data.draw(square(field, n))
    assert (A @ B).det() == A.det() * B.det()


@FIELDS
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_det_nonzero_exactly_when_inverse_exists(field, data):
    A = data.draw(square(field, data.draw(st.integers(0, 4))))
    try:
        Ai = A.inv()
    except SingularMatrix:
        assert A.det().is_zero()
        return
    assert not A.det().is_zero()
    assert A @ Ai == Matrix.identity(field, A.rows)
    assert Ai @ A == Matrix.identity(field, A.rows)


@FIELDS
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_solve_many_solves_or_reports_a_rank_increase(field, data):
    A = data.draw(small(field))
    bs = data.draw(st.lists(matrices(field, st.just(A.rows), st.just(1)),
                            max_size=3))
    bs = [b.col(0) for b in bs]
    x = data.draw(matrices(field, st.just(A.cols), st.just(1))).col(0)
    bs.append(_apply(A, x))                  # always feasible
    sols = A.solve_many(bs)
    assert sols[-1] is not None
    for b, sol in zip(bs, sols):
        if sol is None:
            aug = Matrix.from_cols(field, [A.col(j) for j in range(A.cols)]
                                   + [b])
            assert aug.rank() == A.rank() + 1
        else:
            assert _apply(A, sol) == b


def _to_sympy(sympy, A):
    return sympy.Matrix(A.rows, A.cols, [sympy.Rational(x.c[0].numerator,
                                                        x.c[0].denominator)
                                         for row in _dense(A) for x in row])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rref_and_det_match_sympy_over_q(data):
    sympy = pytest.importorskip("sympy")
    A = data.draw(small(Q))
    R, pivots = A.rref()
    sR, spivots = _to_sympy(sympy, A).rref()
    assert pivots == list(spivots)
    assert _to_sympy(sympy, R) == sR
    S = data.draw(square(Q, data.draw(st.integers(0, 4))))
    d = _to_sympy(sympy, S).det()
    assert S.det() == Q.scalar(Fraction(int(sympy.numer(d)),
                                        int(sympy.denom(d))))


# -- the coefficient-level product against Scalar arithmetic ----------------

def _naive_product(A, B):
    field = A.field
    entries = []
    for i in range(A.rows):
        for j in range(B.cols):
            acc = field.zero()
            for k in range(A.cols):
                acc = acc + A[i, k] * B[k, j]
            entries.append((i, j, acc))
    return Matrix.from_entries(field, A.rows, B.cols, entries)


def _filled(field, rows, cols, entries):
    # zeros come both as the field's shared zero and as fresh objects
    given = []
    for i in range(rows):
        for j in range(cols):
            e = next(entries)
            if e is not None:
                given.append((i, j, field.scalar(e)))
    return Matrix.from_entries(field, rows, cols, given)


@FIELDS
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_matmul_matches_a_naive_triple_loop(field, data):
    n, k, m = (data.draw(st.integers(0, 4)) for _ in range(3))
    coeff = st.one_of(st.integers(-2, 2), st.sampled_from(["1/2", "-2/3"])) \
        if field.char == 0 else st.integers(0, field.char - 1)
    entry = st.one_of(st.none(), st.lists(coeff, min_size=field.deg,
                                          max_size=field.deg))
    entries = iter(data.draw(st.lists(entry, min_size=(n + m) * k,
                                      max_size=(n + m) * k)))
    A = _filled(field, n, k, entries)
    B = _filled(field, k, m, entries)
    C = A @ B
    assert (C.rows, C.cols) == (n, m)
    assert C == _naive_product(A, B)
    for row in _dense(C):
        for x in row:
            assert x.field is field
            if x.is_zero():
                assert x is field.zero()


@FIELDS
def test_matmul_of_dense_random_matrices_matches_a_naive_triple_loop(field):
    # dense entries, so every output entry sums several products
    rng = random.Random(17)
    coeffs = [-2, -1, 1, 2, "1/2", "-3/4"] if field.char == 0 \
        else list(range(1, field.char))
    for n, k, m in [(1, 2, 1), (3, 3, 3), (2, 5, 4), (0, 3, 2), (3, 0, 2)]:
        A = _filled(field, n, k, iter([[rng.choice(coeffs)
                                        for _ in range(field.deg)]
                                       for _ in range(n * k)]))
        B = _filled(field, k, m, iter([[rng.choice(coeffs)
                                        for _ in range(field.deg)]
                                       for _ in range(k * m)]))
        assert A @ B == _naive_product(A, B)


# -- the accessors against the dense storage they hide ----------------------

def _entry(field):
    return st.lists(st.integers(-2, 2), min_size=field.deg,
                    max_size=field.deg).map(field.scalar)


@FIELDS
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_from_entries_matches_dense_writes(field, data):
    rows, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    position = st.tuples(st.integers(0, max(rows - 1, 0)),
                         st.integers(0, max(cols - 1, 0)))
    # few positions, so that some of them repeat
    entries = data.draw(st.lists(st.tuples(position, _entry(field)),
                                 max_size=8 if rows * cols else 0))
    dense = [[field.zero()] * cols for _ in range(rows)]
    for (i, j), x in entries:
        dense[i][j] = dense[i][j] + x
    got = Matrix.from_entries(field, rows, cols,
                              [(i, j, x) for (i, j), x in entries])
    assert (got.rows, got.cols) == (rows, cols)
    assert _dense(got) == dense
    if rows:
        assert got == Matrix(field, dense)


@FIELDS
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_nonzero_and_getitem_round_trip(field, data):
    A = data.draw(small(field))
    dense = _dense(A)
    nz = list(A.nonzero())
    assert all(not x.is_zero() and A[i, j] == x for i, j, x in nz)
    assert {(i, j) for i, j, _x in nz} == {
        (i, j) for i in range(A.rows) for j in range(A.cols)
        if not dense[i][j].is_zero()}
    assert [[A[i, j] for j in range(A.cols)] for i in range(A.rows)] == dense
    assert [A.col(j) for j in range(A.cols)] == [
        [dense[i][j] for i in range(A.rows)] for j in range(A.cols)]
    assert Matrix.from_entries(field, A.rows, A.cols, nz) == A


@FIELDS
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_trace_and_map_match_their_dense_definitions(field, data):
    A = data.draw(square(field, data.draw(st.integers(0, 4))))
    # the trace, read off the diagonal with m[i, i], is that of the dense
    # rows and minus the coefficient of lambda^(n-1) in charpoly
    t = field.zero()
    for i in range(A.rows):
        t = t + A[i, i]
    dense = _dense(A)
    assert t == sum((dense[i][i] for i in range(A.rows)), field.zero())
    if A.rows:
        assert charpoly(A, 1)[0] == -t
    one = field.one()

    def fn(x):
        return x * x + one

    B = A.map(fn, field)
    assert B.field is field
    assert B == Matrix(field, [[fn(x) for x in row] for row in _dense(A)])


def test_map_carries_a_matrix_into_the_target_field():
    emb = Embedding(F7, Field(7, [1, 0, 1], gen_name="i"))    # i^2 = -1
    A = M(F7, [[1, 2], [3, 4]])
    B = A.map(emb, emb.dst)
    assert B.field is emb.dst
    assert B == Matrix(emb.dst, [[emb(x) for x in row]
                                 for row in _dense(A)])



# -- linear combinations on the `@` kernel -----------------------------------

def _shaped(field, rows, cols):
    """Matrices of one fixed shape, 0 x n and n x 0 included."""
    return st.lists(_entry(field), min_size=rows * cols,
                    max_size=rows * cols).map(
        lambda xs: Matrix.from_entries(
            field, rows, cols,
            [(k // cols, k % cols, x) for k, x in enumerate(xs)]))


def _entrywise(field, coeffs, mats, rows, cols) -> list:
    """sum c_k M_k one entry at a time on Scalars, as lists of rows."""
    out = [[field.zero()] * cols for _ in range(rows)]
    for c, m in zip(coeffs, mats):
        for i in range(rows):
            for j in range(cols):
                out[i][j] = out[i][j] + c * m[i, j]
    return out


@FIELDS
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_combination_and_arithmetic_match_an_entrywise_reference(field,
                                                                  data):
    rows, cols = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    pool = data.draw(st.lists(_shaped(field, rows, cols), min_size=1,
                              max_size=3))
    # terms drawn from few matrices and few values, so both repeat
    mats = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                              max_size=5))
    values = [field.zero(), field.one(), data.draw(_entry(field))]
    coeffs = data.draw(st.lists(st.sampled_from(values),
                                min_size=len(mats), max_size=len(mats)))

    def check(got, cs, ms):
        assert got.field is field
        assert (got.rows, got.cols) == (rows, cols)
        assert _dense(got) == _entrywise(field, cs, ms, rows, cols)

    check(Matrix.combine(coeffs, mats), coeffs, mats)
    zeros = [field.zero()] * len(mats)
    check(Matrix.combine(zeros, mats), zeros, mats)
    assert Matrix.combine(zeros, mats) == Matrix.zeros(field, rows, cols)
    one, c = field.one(), coeffs[0]
    A, B = mats[0], mats[-1]
    check(A + B, [one, one], [A, B])
    check(A - B, [one, -one], [A, B])
    check(-A, [-one], [A])
    check(A.scale(c), [c], [A])
    assert (A - A).is_zero()


def test_combination_rejects_other_fields_and_shapes():
    A, C = M(Q, [[1, 2]]), M(Q, [[1], [2]])
    B = M(F7, [[1, 2]])
    one = Q.one()
    with pytest.raises(FieldMismatch):
        Matrix.combine([one, one], [A, B])
    # the field of a coefficient is checked even when it is zero
    for c in (F7.one(), F7.zero()):
        with pytest.raises(FieldMismatch):
            Matrix.combine([one, c], [A, A])
        with pytest.raises(FieldMismatch):
            A.scale(c)
    with pytest.raises(LinAlgError):
        Matrix.combine([one, one], [A, C])
    with pytest.raises(LinAlgError):
        Matrix.combine([one], [A, A])
    with pytest.raises(LinAlgError):
        Matrix.combine([], [])
    for op in (Matrix.__add__, Matrix.__sub__):
        with pytest.raises(FieldMismatch):
            op(A, B)
        with pytest.raises(LinAlgError):
            op(A, C)
