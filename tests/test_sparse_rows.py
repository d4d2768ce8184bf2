"""The sparse-row `Matrix` against an entry-wise dense reference.

Each matrix is drawn as a dense list of rows and built by `from_entries`
with every position written twice, as x - y and then y, in a shuffled
order: some intermediate sums cancel to zero, and zero positions receive
values that cancel.  The dense reference below works on lists of lists of
Scalars, one entry at a time, and knows nothing of how `linalg` stores a
matrix.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorcat.fields import Field
from tensorcat.linalg import LinAlgError, Matrix, SingularMatrix

Q = Field.rationals()
F7 = Field.prime(7)
F4 = Field(2, [1, 1, 1], gen_name="w")           # w^2 = w + 1
QPHI = Field(0, [-1, -1, 1], gen_name="phi")     # phi^2 = phi + 1
FIELDS = pytest.mark.parametrize("field", [Q, F7, F4, QPHI],
                                 ids=["Q", "F7", "F4", "Qphi"])
CASES = settings(max_examples=25, deadline=None)


# -- the dense reference -----------------------------------------------------

def d_sum(field, xs):
    acc = field.zero()
    for x in xs:
        acc = acc + x
    return acc


def d_mul(field, A, B, inner, cols):
    return [[d_sum(field, (a[t] * B[t][j] for t in range(inner)))
             for j in range(cols)] for a in A]


def d_rref(field, rows, cols):
    """Gauss-Jordan elimination with row swaps: (rows, pivot columns)."""
    R = [list(r) for r in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        p = next((i for i in range(r, len(R)) if not R[i][c].is_zero()),
                 None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        inv = R[r][c].inv()
        R[r] = [x * inv for x in R[r]]
        for i in range(len(R)):
            f = R[i][c]
            if i != r and not f.is_zero():
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
    return R, pivots


def d_det(field, rows):
    """Elimination to upper triangular form, one sign flip per swap."""
    M = [list(r) for r in rows]
    det = field.one()
    for c in range(len(M)):
        p = next((i for i in range(c, len(M)) if not M[i][c].is_zero()),
                 None)
        if p is None:
            return field.zero()
        if p != c:
            M[c], M[p] = M[p], M[c]
            det = -det
        det = det * M[c][c]
        for i in range(c + 1, len(M)):
            f = M[i][c] / M[c][c]
            M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    return det


# -- drawing matrices --------------------------------------------------------

def _scalar(field):
    return st.lists(st.integers(-2, 2), min_size=field.deg,
                    max_size=field.deg).map(field.scalar)


def _entry(field):
    # mostly zeros, so that rows are sparse and often empty
    return st.one_of(st.just(field.zero()), st.just(field.zero()),
                     _scalar(field))


@st.composite
def dense(draw, field, rows, cols):
    return [[draw(_entry(field)) for _ in range(cols)] for _ in range(rows)]


@st.composite
def built(draw, field, rows):
    """A Matrix of a nonempty dense list of rows, every position written
    twice."""
    entries = []
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            y = draw(_scalar(field))
            entries += [(i, j, x - y), (i, j, y)]
    order = draw(st.permutations(entries))
    return Matrix.from_entries(field, len(rows), len(rows[0]), order)


@st.composite
def pair(draw, field, max_rows=4, max_cols=4, rows=None, cols=None):
    """(dense rows, the same matrix built sparse), 0 x n and n x 0 too."""
    rows = draw(st.integers(0, max_rows)) if rows is None else rows
    cols = draw(st.integers(0, max_cols)) if cols is None else cols
    D = draw(dense(field, rows, cols))
    m = Matrix.from_entries(field, rows, cols, [])
    if rows:
        m = draw(built(field, D))
    return D, m


def as_dense(m) -> list:
    return [m.row(i) for i in range(m.rows)]


# -- properties --------------------------------------------------------------

@FIELDS
@CASES
@given(data=st.data())
def test_accessors_read_the_dense_entries(field, data):
    D, m = data.draw(pair(field))
    rows, cols = len(D), m.cols
    assert as_dense(m) == D
    assert all(m[i, j] == D[i][j] for i in range(rows) for j in range(cols))
    assert [m.col(j) for j in range(cols)] == [
        [D[i][j] for i in range(rows)] for j in range(cols)]
    # row-major, ascending columns inside a row, no zero entry
    assert list(m.nonzero()) == [(i, j, D[i][j]) for i in range(rows)
                                 for j in range(cols)
                                 if not D[i][j].is_zero()]
    assert all(x is field.zero() for row in as_dense(m) for x in row
               if x.is_zero())
    assert m.is_zero() == all(x.is_zero() for row in D for x in row)
    assert as_dense(m.transpose()) == [[D[i][j] for i in range(rows)]
                                       for j in range(cols)]


@FIELDS
@CASES
@given(data=st.data())
def test_equal_matrices_built_in_other_orders_hash_equal(field, data):
    D, m = data.draw(pair(field))
    again = data.draw(built(field, D)) if D else Matrix.zeros(field, 0,
                                                               m.cols)
    assert again == m and hash(again) == hash(m)
    if D:
        plain = Matrix(field, D)
        assert plain == m and hash(plain) == hash(m)
    zero = Matrix.zeros(field, len(D), m.cols)
    assert (m == zero) == m.is_zero()
    if m.is_zero():
        assert hash(m) == hash(zero)


@FIELDS
@CASES
@given(data=st.data())
def test_product_matches_the_dense_product(field, data):
    n, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
    A, a = data.draw(pair(field, rows=n, cols=k))
    B, b = data.draw(pair(field, rows=k, cols=c))
    p = a @ b
    assert (p.rows, p.cols) == (n, c)
    assert as_dense(p) == d_mul(field, A, B, k, c)


@FIELDS
@CASES
@given(data=st.data())
def test_combination_matches_the_dense_sum(field, data):
    rows, cols = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    terms = data.draw(st.lists(pair(field, rows=rows, cols=cols),
                               min_size=1, max_size=4))
    one = field.one()
    coeffs = data.draw(st.lists(
        st.one_of(st.just(field.zero()), st.just(one), st.just(-one),
                  _scalar(field)),
        min_size=len(terms), max_size=len(terms)))
    # each term again with the opposite coefficient: the sum cancels
    for cs, ts in ((coeffs, terms),
                   (coeffs + [-c for c in coeffs], terms + terms)):
        got = Matrix.combine(cs, [m for _D, m in ts])
        want = [[d_sum(field, (c * D[i][j] for c, (D, _m) in zip(cs, ts)))
                 for j in range(cols)] for i in range(rows)]
        assert (got.rows, got.cols) == (rows, cols)
        assert as_dense(got) == want
        assert got.is_zero() == all(x.is_zero() for r in want for x in r)
    assert Matrix.combine(coeffs + [-c for c in coeffs],
                          [m for _D, m in terms + terms]) == \
        Matrix.zeros(field, rows, cols)


@FIELDS
@CASES
@given(data=st.data())
def test_rref_matches_dense_elimination(field, data):
    D, m = data.draw(pair(field))
    R, pivots = m.rref()
    dR, dpivots = d_rref(field, D, m.cols)
    assert pivots == dpivots
    assert as_dense(R) == dR
    assert m.rank() == len(dpivots)


@FIELDS
@CASES
@given(data=st.data())
def test_det_and_inverse_match_dense_elimination(field, data):
    n = data.draw(st.integers(0, 4))
    D, m = data.draw(pair(field, rows=n, cols=n))
    assert m.det() == d_det(field, D)
    ident = [[field.one() if i == j else field.zero() for j in range(n)]
             for i in range(n)]
    R, pivots = d_rref(field, [r + e for r, e in zip(D, ident)], 2 * n)
    if pivots[:n] != list(range(n)):
        with pytest.raises(SingularMatrix):
            m.inv()
        assert not m.is_invertible()
        return
    assert as_dense(m.inv()) == [r[n:] for r in R]
    assert m.is_invertible()


@FIELDS
@CASES
@given(data=st.data())
def test_solve_many_matches_dense_elimination(field, data):
    D, m = data.draw(pair(field))
    rows, n = len(D), m.cols
    bs = data.draw(st.lists(dense(field, 1, rows), max_size=3))
    bs = [b[0] for b in bs]
    x = data.draw(dense(field, 1, n))[0]
    bs.append([d_sum(field, (r[j] * x[j] for j in range(n))) for r in D])
    sols = m.solve_many(bs)
    for b, sol in zip(bs, sols):
        R, pivots = d_rref(field, [r + [y] for r, y in zip(D, b)], n + 1)
        if n in pivots:
            assert sol is None
            continue
        want = [field.zero()] * n
        for r, pc in enumerate(pivots):
            want[pc] = R[r][n]
        assert sol == want
    assert sols[-1] is not None


# -- positions outside the shape ---------------------------------------------

@pytest.mark.parametrize("i, j", [(0, -1), (-1, 0), (2, 0), (0, 2),
                                  (-1, -1), (2, 2)])
def test_a_position_outside_the_shape_is_an_error(i, j):
    one = Q.one()
    with pytest.raises(LinAlgError, match="outside"):
        Matrix.from_entries(Q, 2, 2, [(0, 0, one), (i, j, one)])
    m = Matrix.identity(Q, 2)
    with pytest.raises(LinAlgError, match="outside"):
        m[i, j]


def test_an_empty_shape_has_no_position():
    with pytest.raises(LinAlgError):
        Matrix.zeros(Q, 0, 3)[0, 0]
    with pytest.raises(LinAlgError):
        Matrix.from_entries(Q, 3, 0, [(0, 0, Q.one())])
