"""Exact linear algebra behind one storage format and one elimination
kernel.

How a `Matrix` stores its entries is private to this module; today it is
a dense list of rows.  Other modules build matrices with `Matrix(field,
rows)`, `zeros`, `identity`, `from_cols` and `from_entries`, and read
them with `m[i, j]`, `row`, `col`, `nonzero`, `trace` and `map`, besides
the arithmetic and elimination methods.  `@` accumulates on coefficient
tuples and skips zero entries; `combine` computes a linear combination
sum c_k M_k as one `@` product, and sums, differences, negation and
scaling are each one `combine` call.

`RowSpace` keeps a row space in reduced echelon form as rows are added:
each new row is reduced against the stored rows, scaled so its first
nonzero entry is one, and then cleared out of the stored rows.  `rref`,
`det`, and through `rref` the rank, kernels, solves and inverses, all
add rows to one.  Each stored row carries the list of its nonzero
positions, so sparse systems eliminate quickly without a separate
sparse representation.  No floating point is used anywhere.
"""

from itertools import chain, compress, repeat
from operator import is_not

from .fields import Field, FieldMismatch, Scalar


class LinAlgError(Exception):
    pass


class SingularMatrix(LinAlgError):
    pass


class Matrix:
    """Matrix of Scalars over a fixed field."""

    __slots__ = ("field", "rows", "cols", "a")

    def __init__(self, field: Field, rows_data):
        self.field = field
        self.a = [list(r) for r in rows_data]
        self.rows = len(self.a)
        self.cols = len(self.a[0]) if self.a else 0
        for r in self.a:
            if len(r) != self.cols:
                raise LinAlgError("ragged rows")

    @staticmethod
    def _raw(field: Field, rows: int, cols: int, data: list) -> "Matrix":
        m = Matrix.__new__(Matrix)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.a = data
        return m

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return Matrix._raw(field, rows, cols,
                           [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return Matrix._raw(field, n, n,
                           [[o if i == j else z for j in range(n)]
                            for i in range(n)])

    @staticmethod
    def from_cols(field: Field, cols_data) -> "Matrix":
        if not cols_data:
            return Matrix.zeros(field, 0, 0)
        n = len(cols_data[0])
        return Matrix._raw(field, n, len(cols_data),
                           [[col[i] for col in cols_data] for i in range(n)])

    @staticmethod
    def from_entries(field: Field, rows: int, cols: int,
                     entries) -> "Matrix":
        """The rows x cols matrix with x at (i, j) for each (i, j, x) of
        `entries` and zero elsewhere; the values given for one position
        add up.  Every position must lie inside the shape."""
        z = field.zero()
        a = [[z] * cols for _ in range(rows)]
        for i, j, x in entries:
            row = a[i]
            row[j] = x if row[j] is z else row[j] + x
        return Matrix._raw(field, rows, cols, a)

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        return self.a[i][j]

    def row(self, i: int) -> list:
        return list(self.a[i])

    def col(self, j: int) -> list:
        return [row[j] for row in self.a]

    def nonzero(self):
        """The nonzero entries as (row, column, Scalar), row by row."""
        z = self.field.zero()
        for i, row in enumerate(self.a):
            for j in _support(row, z):
                yield i, j, row[j]

    def trace(self) -> Scalar:
        if self.rows != self.cols:
            raise LinAlgError("trace of a non-square matrix")
        t = self.field.zero()
        for i, row in enumerate(self.a):
            t = t + row[i]
        return t

    def map(self, fn, field: Field) -> "Matrix":
        """fn applied to every entry, such as a field embedding; the
        result lies over `field`."""
        return Matrix._raw(field, self.rows, self.cols,
                           [[fn(x) for x in r] for r in self.a])

    def transpose(self) -> "Matrix":
        return Matrix._raw(self.field, self.cols, self.rows,
                           [[self.a[i][j] for i in range(self.rows)]
                            for j in range(self.cols)])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        field = self.field
        if other.field is not field and other.field != field:
            raise FieldMismatch("matrices over different fields")
        if self.cols != other.rows:
            raise LinAlgError(f"shape mismatch {self.rows}x{self.cols} @ "
                              f"{other.rows}x{other.cols}")
        # accumulate on coefficient tuples; wrap each entry once at the end
        z = field.zero()
        zc = field._zero_c
        add, mul = field._add, field._mul
        # sparse supports of the rows of the right factor, built on demand
        rows_nz = {}
        out = []
        for arow in self.a:
            acc = {}
            for k in _support(arow, z):
                nz = rows_nz.get(k)
                if nz is None:
                    brow = other.a[k]
                    nz = rows_nz[k] = [(j, brow[j].c)
                                       for j in _support(brow, z)]
                xc = arow[k].c
                for j, yc in nz:
                    v = acc.get(j)
                    acc[j] = mul(xc, yc) if v is None else \
                        add(v, mul(xc, yc))
            orow = [z] * other.cols
            for j, v in acc.items():
                if v != zc:
                    orow[j] = Scalar(field, v)
            out.append(orow)
        return Matrix._raw(field, self.rows, other.cols, out)

    @staticmethod
    def combine(coeffs, mats) -> "Matrix":
        """sum_k coeffs[k] * mats[k], for Scalars and matrices over one
        field and of one shape, computed with `@` as the row of nonzero
        coefficients times the matrices flattened into rows."""
        if not mats or len(coeffs) != len(mats):
            raise LinAlgError("one coefficient per matrix, at least one")
        field, rows, cols = mats[0].field, mats[0].rows, mats[0].cols
        zc = field._zero_c
        cs, flat = [], []
        for c, m in zip(coeffs, mats):
            if (m.field is not field and m.field != field
                    or c.field is not field and c.field != field):
                raise FieldMismatch("operands over different fields")
            if m.rows != rows or m.cols != cols:
                raise LinAlgError("shape mismatch")
            if c.c != zc:
                cs.append(c)
                flat.append(list(chain.from_iterable(m.a)))
        # with no nonzero coefficient the product is the zero row
        out = (Matrix._raw(field, 1, len(cs), [cs])
               @ Matrix._raw(field, len(cs), rows * cols, flat)).a[0]
        return Matrix._raw(field, rows, cols,
                           [out[i * cols:(i + 1) * cols]
                            for i in range(rows)])

    def __add__(self, other):
        return Matrix.combine([self.field.one()] * 2, [self, other])

    def __sub__(self, other):
        one = self.field.one()
        return Matrix.combine([one, -one], [self, other])

    def __neg__(self):
        return Matrix.combine([-self.field.one()], [self])

    def scale(self, c: Scalar) -> "Matrix":
        return Matrix.combine([c], [self])

    def is_zero(self) -> bool:
        return all(x.is_zero() for r in self.a for x in r)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.field == self.field
                and other.rows == self.rows and other.cols == self.cols
                and all(x == y for r1, r2 in zip(self.a, other.a)
                        for x, y in zip(r1, r2)))

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(tuple(x.c for x in r) for r in self.a)))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"Matrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(repr(x) for x in r) for r in self.a)
        return f"[{body}]"

    # -- elimination ---------------------------------------------------------
    def rref(self, pivot_cols: int | None = None):
        """Reduced row echelon form; returns (matrix, pivot column list).

        With `pivot_cols` = n, pivots are sought only in the first n
        columns; the columns after them are carried along as right-hand
        sides, and the rows below the rank span the combinations of rows
        that vanish on the first n columns."""
        space = RowSpace(self.field, self.cols, pivot_cols)
        for row in self.a:
            space.add(row)
        out = space.basis() + space.rest
        z = self.field.zero()
        out += [[z] * self.cols for _ in range(self.rows - len(out))]
        return Matrix._raw(self.field, self.rows, self.cols, out), \
            space.pivots()

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list:
        """Basis of {v : A v = 0}, each vector a list of Scalars."""
        R, pivots = self.rref()
        z, o = self.field.zero(), self.field.one()
        free = [j for j in range(self.cols) if j not in pivots]
        basis = []
        for fc in free:
            v = [z] * self.cols
            v[fc] = o
            for r, pc in enumerate(pivots):
                v[pc] = -R.a[r][fc]
            basis.append(v)
        return basis

    def solve(self, b: list):
        """One solution of A x = b, or None when the system is infeasible."""
        return self.solve_many([b])[0]

    def solve_many(self, bs: list) -> list:
        """One solution of A x = b for each b in `bs` (None where that
        system is infeasible), from a single elimination of
        [A | b_1 ... b_k]."""
        n = self.cols
        for b in bs:
            if len(b) != self.rows:
                raise LinAlgError("rhs length mismatch")
        aug = Matrix._raw(self.field, self.rows, n + len(bs),
                          [row + [b[i] for b in bs]
                           for i, row in enumerate(self.a)])
        R, pivots = aug.rref(pivot_cols=n)
        out = []
        for t in range(n, n + len(bs)):
            # rows below the rank are zero on A: b_t must vanish there
            if any(not row[t].is_zero() for row in R.a[len(pivots):]):
                out.append(None)
                continue
            x = [self.field.zero()] * n
            for row, pc in zip(R.a, pivots):
                x[pc] = row[t]
            out.append(x)
        return out

    def inv(self) -> "Matrix":
        if self.rows != self.cols:
            raise SingularMatrix("only square matrices can be inverted")
        n = self.rows
        z, o = self.field.zero(), self.field.one()
        aug = Matrix._raw(self.field, n, 2 * n,
                          [row + [o if j == i else z for j in range(n)]
                           for i, row in enumerate(self.a)])
        R, pivots = aug.rref()
        if pivots != list(range(n)):
            raise SingularMatrix("matrix is singular")
        return Matrix._raw(self.field, n, n, [R.a[i][n:] for i in range(n)])

    def det(self) -> Scalar:
        """Product of the leading entries met as the rows are added to a
        row space, times the sign of the order their pivots came in."""
        if self.rows != self.cols:
            raise LinAlgError("determinant of a non-square matrix")
        space = RowSpace(self.field, self.cols)
        for row in self.a:
            if not space.add(row):
                return self.field.zero()
        det = self.field.one()
        order = []
        for piv, lead in space.leads:
            det = det * lead
            if sum(p > piv for p in order) % 2:
                det = -det
            order.append(piv)
        return det

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


def _support(row, z) -> list:
    """Positions of the nonzero entries of `row`.  Nearly every zero entry
    is the field's shared zero `z`, so the scan skips those by identity
    at C speed before testing the rest."""
    zc = z.c
    return [j for j in compress(range(len(row)), map(is_not, row, repeat(z)))
            if row[j].c != zc]


class RowSpace:
    """Row space kept in reduced echelon form as rows are added.

    Pivots are the first nonzero entry before `limit` (the whole width
    by default); a row that reduces to zero there but not after it is
    kept in `rest`.  Each stored row carries its nonzero positions after
    the pivot, and a reduction touches only those.
    """

    __slots__ = ("field", "width", "limit", "_rows", "leads", "rest")

    def __init__(self, field: Field, width: int, limit: int | None = None):
        self.field = field
        self.width = width
        self.limit = width if limit is None else limit
        self._rows = []     # [pivot, row, nonzero positions after the pivot]
        self.leads = []     # (pivot, its entry before scaling), as added
        self.rest = []

    def reduce(self, v) -> list:
        v = list(v)
        z = self.field.zero()
        for piv, row, nz in self._rows:
            c = v[piv]
            if not c.is_zero():
                v[piv] = z
                for k in nz:
                    v[k] = v[k] - c * row[k]
        return v

    def add(self, v) -> bool:
        """Reduce and insert; True if the space grew."""
        v = self.reduce(v)
        piv = next((k for k in range(self.limit) if not v[k].is_zero()),
                   None)
        if piv is None:
            if any(not x.is_zero() for x in v[self.limit:]):
                self.rest.append(v)
            return False
        lead = v[piv]
        inv = lead.inv()
        nz = [k for k in range(piv + 1, self.width) if not v[k].is_zero()]
        for k in nz:
            v[k] = v[k] * inv
        v[piv] = self.field.one()
        z = self.field.zero()
        for entry in self._rows:
            row = entry[1]
            c = row[piv]
            if c.is_zero():
                continue
            row[piv] = z
            for k in nz:
                row[k] = row[k] - c * v[k]
            entry[2] = [k for k in set(entry[2]).union(nz)
                        if not row[k].is_zero()]
        self._rows.append([piv, v, nz])
        self.leads.append((piv, lead))
        return True

    def contains(self, v) -> bool:
        return all(x.is_zero() for x in self.reduce(v))

    def dim(self) -> int:
        return len(self._rows)

    def pivots(self) -> list:
        return sorted(piv for piv, _row, _nz in self._rows)

    def basis(self) -> list:
        """The stored rows, copied, in pivot order."""
        return [list(row) for _piv, row, _nz in
                sorted(self._rows, key=lambda entry: entry[0])]
