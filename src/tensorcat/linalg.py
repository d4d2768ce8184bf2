"""Exact linear algebra on sparse rows, with one elimination kernel.

How a `Matrix` stores its entries is private to this module: each row is
a dict from column to Scalar that holds the nonzero entries only, in no
particular order, so no stored entry is zero.  Other modules build
matrices with `Matrix(field, rows)`, `zeros`, `identity`, `from_cols`
and `from_entries`, and read them with `m[i, j]`, `row`, `col`,
`row_nonzero`, `nonzero` and `map`, besides the arithmetic and
elimination methods.  `@` walks the nonzeros of each row of the left
factor into the rows of the right one, and `combine` accumulates a
linear combination sum c_k M_k row by row; both work on coefficient
tuples and wrap each entry once at the end.  Sums, differences, negation
and scaling are each one `combine` call.

`RowSpace` keeps a row space in reduced echelon form as rows are added:
each new row is reduced against the stored rows, scaled so its first
nonzero entry is one, and then cleared out of the stored rows.  Its rows
are sparse too, on coefficient tuples, so a reduction touches only
nonzeros.  `rref`, `det`, the rank, kernels, solves and inverses all add
rows to one.  No floating point is used anywhere.
"""

from .fields import Field, FieldMismatch, Scalar


class LinAlgError(Exception):
    pass


class SingularMatrix(LinAlgError):
    pass


def _outside(i, j, rows: int, cols: int) -> LinAlgError:
    return LinAlgError(f"position ({i}, {j}) outside a {rows}x{cols} matrix")


class Matrix:
    """Matrix of Scalars over a fixed field."""

    __slots__ = ("field", "rows", "cols", "_nz")

    def __init__(self, field: Field, rows_data):
        dense = [list(r) for r in rows_data]
        self.field = field
        self.rows = len(dense)
        self.cols = len(dense[0]) if dense else 0
        if any(len(r) != self.cols for r in dense):
            raise LinAlgError("ragged rows")
        zc = field._zero_c
        self._nz = [{j: x for j, x in enumerate(r) if x.c != zc}
                    for r in dense]

    @staticmethod
    def _raw(field: Field, rows: int, cols: int, nz: list) -> "Matrix":
        m = Matrix.__new__(Matrix)
        m.field, m.rows, m.cols, m._nz = field, rows, cols, nz
        return m

    @staticmethod
    def _wrap(field: Field, rows: int, cols: int, coeff_rows) -> "Matrix":
        """The matrix of sparse rows of coefficient tuples, zeros dropped."""
        zc = field._zero_c
        return Matrix._raw(field, rows, cols,
                           [{j: Scalar(field, v) for j, v in r.items()
                             if v != zc} for r in coeff_rows])

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix._raw(field, rows, cols, [{} for _ in range(rows)])

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        o = field.one()
        return Matrix._raw(field, n, n, [{i: o} for i in range(n)])

    @staticmethod
    def from_cols(field: Field, cols_data) -> "Matrix":
        if not cols_data:
            return Matrix.zeros(field, 0, 0)
        n = len(cols_data[0])
        zc = field._zero_c
        nz = [{} for _ in range(n)]
        for j, col in enumerate(cols_data):
            if len(col) != n:
                raise LinAlgError("ragged columns")
            for row, x in zip(nz, col):
                if x.c != zc:
                    row[j] = x
        return Matrix._raw(field, n, len(cols_data), nz)

    @staticmethod
    def from_entries(field: Field, rows: int, cols: int,
                     entries) -> "Matrix":
        """The rows x cols matrix with x at (i, j) for each (i, j, x) of
        `entries` and zero elsewhere; the values given for one position
        add up.  A position outside the shape is a LinAlgError."""
        zc = field._zero_c
        nz = [{} for _ in range(rows)]
        for i, j, x in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise _outside(i, j, rows, cols)
            row = nz[i]
            y = row.get(j)
            if y is not None:
                x = y + x
            if x.c != zc:
                row[j] = x
            elif y is not None:
                del row[j]
        return Matrix._raw(field, rows, cols, nz)

    def __getitem__(self, ij) -> Scalar:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise _outside(i, j, self.rows, self.cols)
        return self._nz[i].get(j, self.field.zero())

    def row(self, i: int) -> list:
        out = [self.field.zero()] * self.cols
        for j, x in self._nz[i].items():
            out[j] = x
        return out

    def col(self, j: int) -> list:
        z = self.field.zero()
        return [r.get(j, z) for r in self._nz]

    def row_nonzero(self, i: int) -> list:
        """The nonzero entries of row i as (column, Scalar), ascending."""
        return sorted(self._nz[i].items())

    def nonzero(self):
        """The nonzero entries as (row, column, Scalar), row by row and in
        ascending columns inside a row."""
        for i in range(self.rows):
            for j, x in self.row_nonzero(i):
                yield i, j, x

    def map(self, fn, field: Field) -> "Matrix":
        """fn applied to every entry, such as a field embedding; the
        result lies over `field`.  The zero entries are mapped only when
        fn moves zero."""
        zero, zc = self.field.zero(), field._zero_c
        every = fn(zero).c != zc
        out = [{j: y for j in (range(self.cols) if every else row)
                if (y := fn(row.get(j, zero))).c != zc} for row in self._nz]
        return Matrix._raw(field, self.rows, self.cols, out)

    def transpose(self) -> "Matrix":
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self._nz):
            for j, x in row.items():
                out[j][i] = x
        return Matrix._raw(self.field, self.cols, self.rows, out)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        field = self.field
        if other.field is not field and other.field != field:
            raise FieldMismatch("matrices over different fields")
        if self.cols != other.rows:
            raise LinAlgError(f"shape mismatch {self.rows}x{self.cols} @ "
                              f"{other.rows}x{other.cols}")
        add, mul = field._add, field._mul
        brows = other._nz
        out = []
        for arow in self._nz:
            acc = {}
            for k, x in arow.items():
                xc = x.c
                for j, y in brows[k].items():
                    v = acc.get(j)
                    acc[j] = mul(xc, y.c) if v is None else \
                        add(v, mul(xc, y.c))
            out.append(acc)
        return Matrix._wrap(field, self.rows, other.cols, out)

    @staticmethod
    def combine(coeffs, mats) -> "Matrix":
        """sum_k coeffs[k] * mats[k], for Scalars and matrices over one
        field and of one shape, accumulated row by row over the nonzero
        terms; a coefficient one is not multiplied out."""
        if not mats or len(coeffs) != len(mats):
            raise LinAlgError("one coefficient per matrix, at least one")
        field, rows, cols = mats[0].field, mats[0].rows, mats[0].cols
        zc, oc = field._zero_c, field.one().c
        add, mul = field._add, field._mul
        acc = [{} for _ in range(rows)]
        for c, m in zip(coeffs, mats):
            if (m.field is not field and m.field != field
                    or c.field is not field and c.field != field):
                raise FieldMismatch("operands over different fields")
            if m.rows != rows or m.cols != cols:
                raise LinAlgError("shape mismatch")
            cc = c.c
            if cc == zc:
                continue
            one = cc == oc
            for arow, mrow in zip(acc, m._nz):
                for j, x in mrow.items():
                    p = x.c if one else mul(cc, x.c)
                    v = arow.get(j)
                    arow[j] = p if v is None else add(v, p)
        return Matrix._wrap(field, rows, cols, acc)

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
        return not any(self._nz)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and other.field == self.field
                and other.rows == self.rows and other.cols == self.cols
                and other._nz == self._nz)

    def __hash__(self):
        return hash((self.rows, self.cols,
                     frozenset((i, j, x.c) for i, row in enumerate(self._nz)
                               for j, x in row.items())))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"Matrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(repr(x) for x in self.row(i))
                         for i in range(self.rows))
        return f"[{body}]"

    # -- elimination ---------------------------------------------------------
    def _space(self, extra=None, extra_cols=0) -> "RowSpace":
        """The row space of [self | extra], pivots in self's columns;
        extra[i] holds row i's coefficient tuples past them, sparse."""
        space = RowSpace(self.field, self.cols + extra_cols, self.cols)
        for i, row in enumerate(self._nz):
            v = {j: x.c for j, x in row.items()}
            if extra:
                v.update(extra[i])
            space._add(v)
        return space

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        space = self._space()
        out = space._echelon()
        out += [{} for _ in range(self.rows - len(out))]
        return Matrix._wrap(self.field, self.rows, self.cols, out), \
            space.pivots()

    def rank(self) -> int:
        return self._space().dim()

    def kernel_basis(self) -> list:
        """Basis of {v : A v = 0}, each vector a list of Scalars."""
        space, field = self._space(), self.field
        z, o = field.zero(), field.one()
        basis = {fc: [o if k == fc else z for k in range(self.cols)]
                 for fc in range(self.cols) if fc not in space._rows}
        # a stored row is zero at every other pivot, so its columns are free
        for pc, row in space._rows.items():
            for fc, c in row.items():
                basis[fc][pc] = Scalar(field, field._neg(c))
        return list(basis.values())

    def solve(self, b: list):
        """One solution of A x = b, or None when the system is infeasible."""
        return self.solve_many([b])[0]

    def solve_many(self, bs: list) -> list:
        """One solution of A x = b for each b in `bs` (None where that
        system is infeasible), from a single elimination of
        [A | b_1 ... b_k]."""
        n, field = self.cols, self.field
        zc = field._zero_c
        extra = [{} for _ in range(self.rows)]
        for t, b in enumerate(bs):
            if len(b) != self.rows:
                raise LinAlgError("rhs length mismatch")
            for row, x in zip(extra, b):
                if x.c != zc:
                    row[n + t] = x.c
        space = self._space(extra, len(bs))
        # the rows that reduce to zero on A span the combinations of rows
        # that vanish on A: b_t is feasible iff all of them vanish at t
        bad = set().union(*space.rest)
        out = [None if n + t in bad else [field.zero()] * n
               for t in range(len(bs))]
        for pc, row in space._rows.items():
            for k, c in row.items():
                if k >= n and out[k - n] is not None:
                    out[k - n][pc] = Scalar(field, c)
        return out

    def inv(self) -> "Matrix":
        if self.rows != self.cols:
            raise SingularMatrix("only square matrices can be inverted")
        n, oc = self.rows, self.field.one().c
        space = self._space([{n + i: oc} for i in range(n)], n)
        if space.dim() != n:
            raise SingularMatrix("matrix is singular")
        # every column of A is a pivot, so the stored rows live past n
        out = [{k - n: c for k, c in space._rows[i].items()}
               for i in range(n)]
        return Matrix._wrap(self.field, n, n, out)

    def det(self) -> Scalar:
        """Product of the leading entries met as the rows are added to a
        row space, times the sign of the order their pivots came in."""
        if self.rows != self.cols:
            raise LinAlgError("determinant of a non-square matrix")
        field, space = self.field, self._space()
        if space.dim() < self.rows:
            return field.zero()
        det, order = field.one().c, []
        for piv, lead in space.leads:
            det = field._mul(det, lead)
            if sum(p > piv for p in order) % 2:
                det = field._neg(det)
            order.append(piv)
        return Scalar(field, det)

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


def _sub_multiple(v: dict, c, row: dict, field: Field):
    """v -= c * row, in place, for sparse rows of coefficient tuples."""
    zc, sub, mul = field._zero_c, field._sub, field._mul
    for k, x in row.items():
        d = sub(v.get(k, zc), mul(c, x))
        if d == zc:
            del v[k]
        else:
            v[k] = d


class RowSpace:
    """Row space kept in reduced echelon form as rows are added.

    Pivots are the first nonzero entry before `limit` (the whole width
    by default); a row that reduces to zero there but not after it is
    kept in `rest`.  Rows are sparse, dicts from column to coefficient
    tuple.  A stored row leaves out its pivot, whose entry is one, and is
    zero at every other pivot, so reducing a row against the space
    touches only the stored rows at its own pivot columns.  `add` and
    `basis` take and give dense lists of Scalars.
    """

    __slots__ = ("field", "width", "limit", "_rows", "leads", "rest")

    def __init__(self, field: Field, width: int, limit: int | None = None):
        self.field, self.width = field, width
        self.limit = width if limit is None else limit
        self._rows = {}     # pivot -> the row's nonzeros after the pivot
        self.leads = []     # (pivot, its entry before scaling), as added
        self.rest = []

    def _sparse(self, v) -> dict:
        zc = self.field._zero_c
        return {k: x.c for k, x in enumerate(v) if x.c != zc}

    def _dense(self, v: dict) -> list:
        z = self.field.zero()
        return [Scalar(z.field, v[k]) if k in v else z
                for k in range(self.width)]

    def _reduce(self, v: dict) -> dict:
        """v, which this changes, minus its combination of stored rows."""
        rows = self._rows
        for piv in [k for k in v if k in rows]:
            _sub_multiple(v, v.pop(piv), rows[piv], self.field)
        return v

    def _add(self, v: dict) -> bool:
        v = self._reduce(v)
        if not v:
            return False
        piv = min(v)
        if piv >= self.limit:
            self.rest.append(v)
            return False
        field = self.field
        lead = v.pop(piv)
        if lead != field.one().c:
            inv, mul = field._inv(lead), field._mul
            v = {k: mul(x, inv) for k, x in v.items()}
        for row in self._rows.values():
            c = row.pop(piv, None)
            if c is not None:
                _sub_multiple(row, c, v, field)
        self._rows[piv] = v
        self.leads.append((piv, lead))
        return True

    def _echelon(self) -> list:
        """The stored rows with their pivots, in pivot order."""
        oc = self.field.one().c
        return [{piv: oc, **self._rows[piv]} for piv in self.pivots()]

    def add(self, v) -> bool:
        """Reduce and insert; True if the space grew."""
        return self._add(self._sparse(v))

    def dim(self) -> int:
        return len(self._rows)

    def pivots(self) -> list:
        return sorted(self._rows)

    def basis(self) -> list:
        """The stored rows as dense lists, in pivot order."""
        return [self._dense(row) for row in self._echelon()]
