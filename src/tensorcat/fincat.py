"""Skeletal homogeneous multi-fusion categories.

Data model
----------
A category presentation consists of simple labels, the subset of unit
components (the tensor unit is their direct sum, each with multiplicity
one), an involutive duality bijection on labels, fusion multiplicities
N[a,b,c], associativity matrices F[a,b,c,d], and one cup/cap coefficient
per label.

Objects are multiplicity vectors over the labels; morphisms are one
matrix block per label (every simple has scalar endomorphisms, so hom
spaces are label-diagonal).

Conventions (frozen; data files refer to them)
----------------------------------------------
* The fusion basis of X (x) Y at a label c enumerates tuples
  (a, i, b, j, mu) with i < X.mult(a), j < Y.mult(b), mu < N[a,b,c],
  ordered lexicographically by (index of a, i, index of b, j, mu).
* F[a,b,c,d] is a square invertible matrix whose rows are indexed by
  (e, mu, nu) with mu < N[a,b,e], nu < N[e,c,d], and whose columns are
  indexed by (f, rho, sigma) with rho < N[b,c,f], sigma < N[a,f,d],
  each enumerated lexicographically.  The matrix of the associator
  (a(x)b)(x)c -> a(x)(b(x)c) on the d-block is the transpose: the entry
  at row (e,mu,nu), column (f,rho,sigma) of F is the coefficient of the
  right-associated basis vector (f,rho,sigma) in the image of the
  left-associated basis vector (e,mu,nu).
* Any F block with a unit component among a, b, c is the identity
  (unit-normalized gauge) and may be omitted from data files.
* cup[a] is the single coefficient of 1 -> a^R (x) a and cap[a] the
  coefficient of a (x) a^R -> 1; both snake equations must hold exactly.
  The left-duality pair per label is derived by solving the snake
  equations, normalized so the coevaluation coefficient is one.
"""

from .fields import Field, FieldMismatch, Scalar
from .linalg import Matrix, SingularMatrix


class ValidationFailure(Exception):
    """Coherence check failed; the message carries the offending indices."""


class SnakeUnsolvable(ValidationFailure):
    """Cup/cap data admits no snake-compatible normalization."""


class ValidationReport:
    def __init__(self, name: str):
        self.name = name
        self.ok = True
        self.failures = []
        self.checks_run = 0

    def fail(self, message: str):
        self.ok = False
        self.failures.append(message)

    def raise_if_failed(self):
        if not self.ok:
            raise ValidationFailure(f"{self.name}: {self.failures[0]}")

    def __repr__(self):
        state = "pass" if self.ok else f"FAIL: {self.failures[0]}"
        return f"<validation {self.name}: {self.checks_run} checks, {state}>"


class Obj:
    """Object of a skeletal semisimple category: a multiplicity vector."""

    __slots__ = ("cat", "_mult", "key")

    def __init__(self, cat, mult: dict):
        self.cat = cat
        m = {a: int(n) for a, n in mult.items() if n}
        for a, n in m.items():
            if a not in cat.idx:
                raise ValueError(f"unknown label {a!r}")
            if n < 0:
                raise ValueError("negative multiplicity")
        self._mult = m
        self.key = tuple(sorted(((cat.idx[a], n) for a, n in m.items())))

    def mult(self, a) -> int:
        return self._mult.get(a, 0)

    @property
    def support(self) -> list:
        return sorted(self._mult, key=lambda a: self.cat.idx[a])

    def total(self) -> int:
        return sum(self._mult.values())

    def is_zero(self) -> bool:
        return not self._mult

    def __add__(self, other) -> "Obj":
        self.cat._same(other.cat)
        m = dict(self._mult)
        for a, n in other._mult.items():
            m[a] = m.get(a, 0) + n
        return Obj(self.cat, m)

    def __eq__(self, other):
        return (isinstance(other, Obj) and other.cat is self.cat
                and other.key == self.key)

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        if self.is_zero():
            return "Obj(0)"
        parts = [f"{n}*{a}" if n > 1 else str(a)
                 for a, n in sorted(self._mult.items(),
                                    key=lambda kv: self.cat.idx[kv[0]])]
        return "Obj(" + " + ".join(parts) + ")"

    def describe(self) -> dict:
        return {a: self._mult[a] for a in self.support}


class Mor:
    """Morphism: one dst.mult(a) x src.mult(a) block per shared label."""

    __slots__ = ("cat", "src", "dst", "blocks")

    def __init__(self, cat, src: Obj, dst: Obj, blocks: dict):
        self.cat = cat
        self.src = src
        self.dst = dst
        cleaned = {}
        for a, m in blocks.items():
            r, c = dst.mult(a), src.mult(a)
            if r == 0 or c == 0:
                continue
            if (m.rows, m.cols) != (r, c):
                raise ValueError(f"block {a!r} has shape {m.rows}x{m.cols}, "
                                 f"expected {r}x{c}")
            cleaned[a] = m
        self.blocks = cleaned

    def block(self, a) -> Matrix:
        if a in self.blocks:
            return self.blocks[a]
        return Matrix.zeros(self.cat.field, self.dst.mult(a), self.src.mult(a))

    def __matmul__(self, other: "Mor") -> "Mor":
        """Composition self o other (apply other first)."""
        if other.dst != self.src:
            raise ValueError("composition mismatch: middle objects differ")
        blocks = {}
        for a in self.dst.support:
            if other.src.mult(a) == 0 or self.src.mult(a) == 0:
                continue
            blocks[a] = self.block(a) @ other.block(a)
        return Mor(self.cat, other.src, self.dst, blocks)

    def __add__(self, other: "Mor") -> "Mor":
        if other.src != self.src or other.dst != self.dst:
            raise ValueError("morphism addition requires equal hom spaces")
        blocks = {a: self.block(a) + other.block(a)
                  for a in set(self.blocks) | set(other.blocks)}
        return Mor(self.cat, self.src, self.dst, blocks)

    def __sub__(self, other: "Mor") -> "Mor":
        return self + (-other)

    def __neg__(self) -> "Mor":
        return Mor(self.cat, self.src, self.dst,
                   {a: -m for a, m in self.blocks.items()})

    def scale(self, c: Scalar) -> "Mor":
        return Mor(self.cat, self.src, self.dst,
                   {a: m.scale(c) for a, m in self.blocks.items()})

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.blocks.values())

    def __eq__(self, other):
        if not isinstance(other, Mor):
            return NotImplemented
        if other.src != self.src or other.dst != self.dst:
            return False
        for a in set(self.blocks) | set(other.blocks):
            if self.block(a) != other.block(a):
                return False
        return True

    def __hash__(self):
        return hash((self.src.key, self.dst.key))

    def inv(self) -> "Mor":
        """Blockwise inverse; raises SingularMatrix if not invertible."""
        if sorted(self.src._mult.items()) != sorted(self.dst._mult.items()):
            raise SingularMatrix("source and target multiplicities differ")
        blocks = {a: self.block(a).inv() for a in self.src.support}
        return Mor(self.cat, self.dst, self.src, blocks)

    def scalar(self) -> Scalar:
        """The single entry of a morphism between total-multiplicity-one
        objects with equal support."""
        entries = [m.a[i][j] for m in self.blocks.values()
                   for i in range(m.rows) for j in range(m.cols)]
        if self.src.total() != 1 or self.dst.total() != 1:
            raise ValueError("scalar() requires 1-dimensional hom data")
        if not entries:
            return self.cat.field.zero()
        return entries[0]

    def transpose(self) -> "Mor":
        return Mor(self.cat, self.dst, self.src,
                   {a: m.transpose() for a, m in self.blocks.items()})

    def __repr__(self):
        return f"Mor({self.src!r} -> {self.dst!r})"

    # -- flat coordinates (fixed order, used by the hom solvers) ------------
    def coords(self) -> list:
        out = []
        for a, i, j in hom_coords(self.src, self.dst):
            out.append(self.block(a).a[i][j])
        return out


def hom_coords(src: Obj, dst: Obj) -> list:
    """Deterministic coordinate order on Hom(src, dst)."""
    cat = src.cat
    out = []
    for a in sorted(set(src.support) & set(dst.support), key=lambda x: cat.idx[x]):
        for i in range(dst.mult(a)):
            for j in range(src.mult(a)):
                out.append((a, i, j))
    return out


def mor_from_coords(cat, src: Obj, dst: Obj, vec) -> Mor:
    blocks = {}
    coords = hom_coords(src, dst)
    assert len(coords) == len(vec)
    for (a, i, j), val in zip(coords, vec):
        if a not in blocks:
            blocks[a] = Matrix.zeros(cat.field, dst.mult(a), src.mult(a))
        blocks[a].a[i][j] = val
    return Mor(cat, src, dst, blocks)


def hom_dim(X: Obj, Y: Obj) -> int:
    """dim Hom(X, Y) = sum_a X.mult(a) * Y.mult(a)."""
    return sum(X.mult(a) * Y.mult(a) for a in X.support)


class CategoryPres:
    """A skeletal multi-fusion category presentation."""

    def __init__(self, field: Field, labels, unit, dualR: dict,
                 fusion: dict, F: dict, cup: dict, cap: dict):
        self.field = field
        self.labels = tuple(labels)
        self.idx = {a: i for i, a in enumerate(self.labels)}
        if len(self.idx) != len(self.labels):
            raise ValidationFailure("duplicate labels")
        self.unit_components = tuple(u for u in self.labels if u in set(unit))
        if set(unit) - set(self.labels):
            raise ValidationFailure("unit components must be labels")
        if not self.unit_components:
            raise ValidationFailure("at least one unit component required")
        self.dualR = dict(dualR)
        self._N = {k: int(v) for k, v in fusion.items() if int(v) != 0}
        self._F = dict(F)
        self.cup = dict(cup)
        self.cap = dict(cap)
        # caches
        self._tensor_cache = {}
        self._basis_cache = {}
        self._index_cache = {}
        self._left_pair_cache = {}
        self._unit_left = {}
        self._unit_right = {}
        self._assoc_cache = {}
        self._assoc_inv_cache = {}
        self._finv_cache = {}
        self._comb_cache = {}

    # -- basic table access --------------------------------------------------
    def _same(self, other):
        if other is not self:
            raise FieldMismatch("objects from different categories")

    def N(self, a, b, c) -> int:
        return self._N.get((a, b, c), 0)

    def is_unit(self, a) -> bool:
        return a in set(self.unit_components)

    def unit_obj(self) -> Obj:
        return Obj(self, {e: 1 for e in self.unit_components})

    def simple(self, a) -> Obj:
        return Obj(self, {a: 1})

    def zero_obj(self) -> Obj:
        return Obj(self, {})

    def left_unit_of(self, a):
        """The unit component e with e (x) a = a."""
        if a not in self._unit_left:
            es = [e for e in self.unit_components if self.N(e, a, a) == 1]
            if len(es) != 1:
                raise ValidationFailure(f"label {a!r} lies in {len(es)} left unit sectors")
            self._unit_left[a] = es[0]
        return self._unit_left[a]

    def right_unit_of(self, a):
        if a not in self._unit_right:
            es = [e for e in self.unit_components if self.N(a, e, a) == 1]
            if len(es) != 1:
                raise ValidationFailure(f"label {a!r} lies in {len(es)} right unit sectors")
            self._unit_right[a] = es[0]
        return self._unit_right[a]

    # -- F-matrix access ------------------------------------------------------
    def f_rows(self, a, b, c, d) -> list:
        out = []
        for e in self.labels:
            n1, n2 = self.N(a, b, e), self.N(e, c, d)
            for mu in range(n1):
                for nu in range(n2):
                    out.append((e, mu, nu))
        return out

    def f_cols(self, a, b, c, d) -> list:
        out = []
        for f in self.labels:
            n1, n2 = self.N(b, c, f), self.N(a, f, d)
            for rho in range(n1):
                for sigma in range(n2):
                    out.append((f, rho, sigma))
        return out

    def f_block(self, a, b, c, d) -> Matrix:
        """The F matrix (rows (e,mu,nu), cols (f,rho,sigma))."""
        key = (a, b, c, d)
        if key in self._F:
            return self._F[key]
        rows = self.f_rows(a, b, c, d)
        cols = self.f_cols(a, b, c, d)
        if len(rows) != len(cols):
            raise ValidationFailure(
                f"fusion tables not associative at {key}: "
                f"{len(rows)} left paths vs {len(cols)} right paths")
        if self.is_unit(a) or self.is_unit(b) or self.is_unit(c):
            return Matrix.identity(self.field, len(rows))
        if not rows:
            return Matrix.zeros(self.field, 0, 0)
        raise ValidationFailure(f"missing F block at {key}")

    # -- tensor product -------------------------------------------------------
    def fusion_basis(self, X: Obj, Y: Obj) -> dict:
        """Per-label ordered list of fusion tuples (a, i, b, j, mu)."""
        key = (X.key, Y.key)
        if key not in self._basis_cache:
            basis = {}
            for a in X.support:
                for b in Y.support:
                    for c in self.labels:
                        n = self.N(a, b, c)
                        if n == 0:
                            continue
                        lst = basis.setdefault(c, [])
                        for i in range(X.mult(a)):
                            for j in range(Y.mult(b)):
                                for mu in range(n):
                                    lst.append((a, i, b, j, mu))
            for c in basis:
                basis[c].sort(key=lambda t: (self.idx[t[0]], t[1],
                                             self.idx[t[2]], t[3], t[4]))
            self._basis_cache[key] = basis
            self._index_cache[key] = {
                c: {t: i for i, t in enumerate(lst)} for c, lst in basis.items()}
        return self._basis_cache[key]

    def fusion_index(self, X: Obj, Y: Obj) -> dict:
        self.fusion_basis(X, Y)
        return self._index_cache[(X.key, Y.key)]

    def tensor(self, X: Obj, Y: Obj) -> Obj:
        key = (X.key, Y.key)
        if key not in self._tensor_cache:
            basis = self.fusion_basis(X, Y)
            self._tensor_cache[key] = Obj(self, {c: len(lst)
                                                 for c, lst in basis.items()})
        return self._tensor_cache[key]

    def tensor_mor(self, f: Mor, g: Mor) -> Mor:
        """f (x) g in the fusion bases of (f.src, g.src) and (f.dst, g.dst)."""
        src = self.tensor(f.src, g.src)
        dst = self.tensor(f.dst, g.dst)
        src_basis = self.fusion_basis(f.src, g.src)
        dst_index = self.fusion_index(f.dst, g.dst)
        blocks = {}
        for c, lst in src_basis.items():
            if dst.mult(c) == 0:
                continue
            m = Matrix.zeros(self.field, dst.mult(c), src.mult(c))
            idx = dst_index.get(c, {})
            for col, (a, i, b, j, mu) in enumerate(lst):
                fb = f.blocks.get(a)
                gb = g.blocks.get(b)
                if fb is None or gb is None:
                    continue
                for i2 in range(fb.rows):
                    x = fb.a[i2][i]
                    if x.is_zero():
                        continue
                    for j2 in range(gb.rows):
                        y = gb.a[j2][j]
                        if y.is_zero():
                            continue
                        row = idx[(a, i2, b, j2, mu)]
                        m.a[row][col] = m.a[row][col] + x * y
            blocks[c] = m
        return Mor(self, src, dst, blocks)

    def id(self, X: Obj) -> Mor:
        return Mor(self, X, X, {a: Matrix.identity(self.field, X.mult(a))
                                for a in X.support})

    def dsum(self, f: Mor, g: Mor) -> Mor:
        """Block-diagonal sum on the direct sums of sources and targets."""
        src = f.src + g.src
        dst = f.dst + g.dst
        blocks = {}
        for a in src.support:
            if dst.mult(a) == 0:
                continue
            m = Matrix.zeros(self.field, dst.mult(a), src.mult(a))
            fb, gb = f.block(a), g.block(a)
            for i in range(fb.rows):
                for j in range(fb.cols):
                    m.a[i][j] = fb.a[i][j]
            for i in range(gb.rows):
                for j in range(gb.cols):
                    m.a[fb.rows + i][fb.cols + j] = gb.a[i][j]
            blocks[a] = m
        return Mor(self, src, dst, blocks)

    # -- associator -----------------------------------------------------------
    def _f_data(self, a, b, c, d, inverse: bool):
        cache = self._finv_cache
        key = (a, b, c, d, inverse)
        if key not in cache:
            fm = self.f_block(a, b, c, d)
            if inverse and fm.rows:
                fm = fm.inv()
            rows = {t: r for r, t in enumerate(self.f_rows(a, b, c, d))}
            cols = self.f_cols(a, b, c, d)
            cache[key] = (fm, rows, cols)
        return cache[key]

    def associator(self, X: Obj, Y: Obj, Z: Obj) -> Mor:
        """Invertible (X(x)Y)(x)Z -> X(x)(Y(x)Z) assembled from F entries."""
        ckey = (X.key, Y.key, Z.key)
        if ckey in self._assoc_cache:
            return self._assoc_cache[ckey]
        XY = self.tensor(X, Y)
        YZ = self.tensor(Y, Z)
        src = self.tensor(XY, Z)
        dst = self.tensor(X, YZ)
        src_basis = self.fusion_basis(XY, Z)
        xy_basis = self.fusion_basis(X, Y)
        yz_index = self.fusion_index(Y, Z)
        dst_index = self.fusion_index(X, YZ)
        blocks = {}
        for d, lst in src_basis.items():
            if dst.mult(d) == 0:
                continue
            m = Matrix.zeros(self.field, dst.mult(d), src.mult(d))
            didx = dst_index[d]
            for col, (e, n, c, l, nu) in enumerate(lst):
                a, i, b, j, mu = xy_basis[e][n]
                fm, rowpos, cols = self._f_data(a, b, c, d, False)
                r = rowpos[(e, mu, nu)]
                frow = fm.a[r]
                for cidx, (f, rho, sigma) in enumerate(cols):
                    val = frow[cidx]
                    if val.is_zero():
                        continue
                    mpos = yz_index[f][(b, j, c, l, rho)]
                    row = didx[(a, i, f, mpos, sigma)]
                    m.a[row][col] = m.a[row][col] + val
            blocks[d] = m
        out = Mor(self, src, dst, blocks)
        self._assoc_cache[ckey] = out
        return out

    def associator_inv(self, X: Obj, Y: Obj, Z: Obj) -> Mor:
        """X(x)(Y(x)Z) -> (X(x)Y)(x)Z, assembled from the inverted F
        blocks (each per-quadruple block is small)."""
        ckey = (X.key, Y.key, Z.key)
        if ckey in self._assoc_inv_cache:
            return self._assoc_inv_cache[ckey]
        XY = self.tensor(X, Y)
        YZ = self.tensor(Y, Z)
        src = self.tensor(X, YZ)
        dst = self.tensor(XY, Z)
        dst_basis = self.fusion_basis(XY, Z)
        xy_basis = self.fusion_basis(X, Y)
        yz_index = self.fusion_index(Y, Z)
        src_index = self.fusion_index(X, YZ)
        blocks = {}
        for d, lst in dst_basis.items():
            if src.mult(d) == 0:
                continue
            m = Matrix.zeros(self.field, dst.mult(d), src.mult(d))
            sidx = src_index[d]
            for row, (e, n, c, l, nu) in enumerate(lst):
                a, i, b, j, mu = xy_basis[e][n]
                finv, rowpos, cols = self._f_data(a, b, c, d, True)
                r = rowpos[(e, mu, nu)]
                for cidx, (f, rho, sigma) in enumerate(cols):
                    val = finv.a[cidx][r]
                    if val.is_zero():
                        continue
                    mpos = yz_index[f][(b, j, c, l, rho)]
                    col = sidx[(a, i, f, mpos, sigma)]
                    m.a[row][col] = m.a[row][col] + val
            blocks[d] = m
        out = Mor(self, src, dst, blocks)
        self._assoc_inv_cache[ckey] = out
        return out

    # -- unitors ----------------------------------------------------------------
    def unitor_left(self, X: Obj) -> Mor:
        """The canonical identification 1 (x) X -> X (coefficient one)."""
        one = self.unit_obj()
        src = self.tensor(one, X)
        basis = self.fusion_basis(one, X)
        blocks = {}
        for a in X.support:
            m = Matrix.zeros(self.field, X.mult(a), src.mult(a))
            for pos, (e, _z, b, j, mu) in enumerate(basis.get(a, [])):
                if b == a and mu == 0:
                    m.a[j][pos] = self.field.one()
            blocks[a] = m
        return Mor(self, src, X, blocks)

    def unitor_right(self, X: Obj) -> Mor:
        one = self.unit_obj()
        src = self.tensor(X, one)
        basis = self.fusion_basis(X, one)
        blocks = {}
        for a in X.support:
            m = Matrix.zeros(self.field, X.mult(a), src.mult(a))
            for pos, (b, j, e, _z, mu) in enumerate(basis.get(a, [])):
                if b == a and mu == 0:
                    m.a[j][pos] = self.field.one()
            blocks[a] = m
        return Mor(self, src, X, blocks)

    def unitor_left_inv(self, X: Obj) -> Mor:
        return self.unitor_left(X).transpose()

    def unitor_right_inv(self, X: Obj) -> Mor:
        return self.unitor_right(X).transpose()

    # -- duality ------------------------------------------------------------------
    def dual_obj(self, X: Obj) -> Obj:
        return Obj(self, {self.dualR[a]: n for a, n in X._mult.items()})

    def _left_pair(self, a):
        """Derived left-duality coefficients (u', v') for the label a.

        (u', v') solve both snake equations for the pair
        u': 1 -> a (x) a^L, v': a^L (x) a -> 1, normalized u' = 1.
        """
        if a in self._left_pair_cache:
            return self._left_pair_cache[a]
        al = self.dualR[a]
        one = self.field.one()
        u = self._coev_right_raw(al, one)   # 1 -> (a^L)^R (x) a^L = a (x) a^L
        v = self._ev_right_raw(al, one)     # a^L (x) (a^L)^R = a^L (x) a -> 1
        s = self._snake1_scalar(al, u, v)
        if s.is_zero():
            raise SnakeUnsolvable(f"label {a!r}: degenerate cup/cap loop")
        vfix = one / s
        u2 = self._coev_right_raw(al, one)
        v2 = self._ev_right_raw(al, vfix)
        s2 = self._snake2_scalar(al, u2, v2)
        if s2 != one:
            raise SnakeUnsolvable(f"label {a!r}: snake equations inconsistent")
        self._left_pair_cache[a] = (one, vfix)
        return self._left_pair_cache[a]

    def _coev_right_raw(self, a, coeff: Scalar) -> Mor:
        """coeff * (1 -> a^R (x) a) in the canonical fusion basis."""
        x = self.simple(a)
        xv = self.simple(self.dualR[a])
        one = self.unit_obj()
        t = self.tensor(xv, x)
        e = self.right_unit_of(a)
        m = Matrix.zeros(self.field, t.mult(e), 1)
        pos = self.fusion_index(xv, x)[e][(self.dualR[a], 0, a, 0, 0)]
        m.a[pos][0] = coeff
        return Mor(self, one, t, {e: m})

    def _ev_right_raw(self, a, coeff: Scalar) -> Mor:
        """coeff * (a (x) a^R -> 1)."""
        x = self.simple(a)
        xv = self.simple(self.dualR[a])
        one = self.unit_obj()
        t = self.tensor(x, xv)
        e = self.left_unit_of(a)
        m = Matrix.zeros(self.field, 1, t.mult(e))
        pos = self.fusion_index(x, xv)[e][(a, 0, self.dualR[a], 0, 0)]
        m.a[0][pos] = coeff
        return Mor(self, t, one, {e: m})

    def _snake1_scalar(self, a, u: Mor, v: Mor) -> Scalar:
        """Scalar of x -> x (x) (x^R (x) x) -> (x (x) x^R) (x) x -> x."""
        x = self.simple(a)
        xv = self.simple(self.dualR[a])
        comp = (self.unitor_left(x)
                @ self.tensor_mor(v, self.id(x))
                @ self.associator_inv(x, xv, x)
                @ self.tensor_mor(self.id(x), u)
                @ self.unitor_right_inv(x))
        return comp.scalar()

    def _snake2_scalar(self, a, u: Mor, v: Mor) -> Scalar:
        """Scalar of x^R -> (x^R x) x^R -> x^R (x x^R) -> x^R."""
        x = self.simple(a)
        xv = self.simple(self.dualR[a])
        comp = (self.unitor_right(xv)
                @ self.tensor_mor(self.id(xv), v)
                @ self.associator(xv, x, xv)
                @ self.tensor_mor(u, self.id(xv))
                @ self.unitor_left_inv(xv))
        return comp.scalar()

    # compound (co)evaluations --------------------------------------------------
    def coev_right(self, X: Obj) -> Mor:
        """u_X : 1 -> X^v (x) X built from the per-label cups."""
        Xv = self.dual_obj(X)
        one = self.unit_obj()
        t = self.tensor(Xv, X)
        idxmap = self.fusion_index(Xv, X)
        blocks = {e: Matrix.zeros(self.field, t.mult(e), 1)
                  for e in self.unit_components if t.mult(e)}
        for a in X.support:
            av = self.dualR[a]
            e = self.right_unit_of(a)
            for j in range(X.mult(a)):
                pos = idxmap[e][(av, j, a, j, 0)]
                blocks[e].a[pos][0] = blocks[e].a[pos][0] + self.cup[a]
        return Mor(self, one, t, blocks)

    def ev_right(self, X: Obj) -> Mor:
        """v_X : X (x) X^v -> 1."""
        Xv = self.dual_obj(X)
        one = self.unit_obj()
        t = self.tensor(X, Xv)
        idxmap = self.fusion_index(X, Xv)
        blocks = {e: Matrix.zeros(self.field, 1, t.mult(e))
                  for e in self.unit_components if t.mult(e)}
        for a in X.support:
            av = self.dualR[a]
            e = self.left_unit_of(a)
            for j in range(X.mult(a)):
                pos = idxmap[e][(a, j, av, j, 0)]
                blocks[e].a[0][pos] = blocks[e].a[0][pos] + self.cap[a]
        return Mor(self, t, one, blocks)

    def coev_left(self, X: Obj) -> Mor:
        """u'_X : 1 -> X (x) X^v (derived left duality)."""
        Xv = self.dual_obj(X)
        one = self.unit_obj()
        t = self.tensor(X, Xv)
        idxmap = self.fusion_index(X, Xv)
        blocks = {e: Matrix.zeros(self.field, t.mult(e), 1)
                  for e in self.unit_components if t.mult(e)}
        for a in X.support:
            av = self.dualR[a]
            e = self.left_unit_of(a)
            uc, _vc = self._left_pair(a)
            for j in range(X.mult(a)):
                pos = idxmap[e][(a, j, av, j, 0)]
                blocks[e].a[pos][0] = blocks[e].a[pos][0] + uc
        return Mor(self, one, t, blocks)

    def ev_left(self, X: Obj) -> Mor:
        """v'_X : X^v (x) X -> 1 (derived left duality)."""
        Xv = self.dual_obj(X)
        one = self.unit_obj()
        t = self.tensor(Xv, X)
        idxmap = self.fusion_index(Xv, X)
        blocks = {e: Matrix.zeros(self.field, 1, t.mult(e))
                  for e in self.unit_components if t.mult(e)}
        for a in X.support:
            av = self.dualR[a]
            e = self.right_unit_of(a)
            _uc, vc = self._left_pair(a)
            for j in range(X.mult(a)):
                pos = idxmap[e][(av, j, a, j, 0)]
                blocks[e].a[0][pos] = blocks[e].a[0][pos] + vc
        return Mor(self, t, one, blocks)

    def duality(self, X: Obj):
        """(X^L, X^R, (u, v, u', v')) with all four snake identities exact."""
        Xv = self.dual_obj(X)
        return Xv, Xv, (self.coev_right(X), self.ev_right(X),
                        self.coev_left(X), self.ev_left(X))

    # -- rebracketing helper -------------------------------------------------------
    def _tree_key(self, tree):
        if isinstance(tree, Obj):
            return ("L", tree.key)
        left, right = tree
        return ("N", self._tree_key(left), self._tree_key(right))

    def _leaves(self, tree) -> list:
        if isinstance(tree, Obj):
            return [tree]
        return self._leaves(tree[0]) + self._leaves(tree[1])

    def _left_comb_iso(self, tree, unfold: bool) -> Mor:
        """The fold tree -> left comb of its leaves, or with unfold=True
        its inverse.  Each direction is built on demand, without matrix
        inversions, and cached under its own key."""
        key = (unfold, self._tree_key(tree))
        if key in self._comb_cache:
            return self._comb_cache[key]
        if isinstance(tree, Obj):
            out = self.id(tree)
        else:
            left, right = tree
            m = self.tensor_mor(self._left_comb_iso(left, unfold),
                                self._left_comb_iso(right, unfold))
            merge = self._merge_combs(self._leaves(left), self._leaves(right),
                                      unfold)
            out = m @ merge if unfold else merge @ m
        self._comb_cache[key] = out
        return out

    def _comb_obj(self, leaves):
        acc = leaves[0]
        for x in leaves[1:]:
            acc = self.tensor(acc, x)
        return acc

    def _merge_combs(self, lA, lB, unfold: bool) -> Mor:
        """comb(lA) (x) comb(lB) -> comb(lA + lB), or with unfold=True
        its inverse."""
        X = self._comb_obj(lA)
        if len(lB) == 1:
            return self.id(self.tensor(X, lB[0]))
        Y = self._comb_obj(lB[:-1])
        z = lB[-1]
        inner = self.tensor_mor(self._merge_combs(lA, lB[:-1], unfold),
                                self.id(z))
        if unfold:
            return self.associator(X, Y, z) @ inner
        return inner @ self.associator_inv(X, Y, z)

    def reassoc(self, src_tree, dst_tree) -> Mor:
        """Canonical iso between two bracketings of the same leaf sequence:
        the fold of the source tree followed by the unfold of the target."""
        if [x.key for x in self._leaves(src_tree)] \
                != [y.key for y in self._leaves(dst_tree)]:
            raise ValueError("bracketings have different leaf sequences")
        return (self._left_comb_iso(dst_tree, unfold=True)
                @ self._left_comb_iso(src_tree, unfold=False))

    # -- mates ----------------------------------------------------------------------
    def mate_right(self, h: Mor, X: Obj, Y: Obj) -> Mor:
        """h: X (x) Y -> Z  bends to  X -> Z (x) Y^v."""
        Z = h.dst
        Yv = self.dual_obj(Y)
        m = (self.tensor_mor(h, self.id(Yv))
             @ self.associator_inv(X, Y, Yv)
             @ self.tensor_mor(self.id(X), self.coev_left(Y))
             @ self.unitor_right_inv(X))
        return m

    def unmate_right(self, k: Mor, X: Obj, Y: Obj, Z: Obj) -> Mor:
        """k: X -> Z (x) Y^v  bends back to  X (x) Y -> Z."""
        Yv = self.dual_obj(Y)
        m = (self.unitor_right(Z)
             @ self.tensor_mor(self.id(Z), self.ev_left(Y))
             @ self.associator(Z, Yv, Y)
             @ self.tensor_mor(k, self.id(Y)))
        return m

    def mate_left(self, h: Mor, X: Obj, Y: Obj) -> Mor:
        """h: X (x) Y -> Z  bends to  Y -> X^v (x) Z."""
        Z = h.dst
        Xv = self.dual_obj(X)
        m = (self.tensor_mor(self.id(Xv), h)
             @ self.associator(Xv, X, Y)
             @ self.tensor_mor(self.coev_right(X), self.id(Y))
             @ self.unitor_left_inv(Y))
        return m

    def unmate_left(self, k: Mor, X: Obj, Y: Obj, Z: Obj) -> Mor:
        """k: Y -> X^v (x) Z  bends back to  X (x) Y -> Z."""
        Xv = self.dual_obj(X)
        m = (self.unitor_left(Z)
             @ self.tensor_mor(self.ev_right(X), self.id(Z))
             @ self.associator_inv(X, Xv, Z)
             @ self.tensor_mor(self.id(X), k))
        return m

    # -- base extension ---------------------------------------------------------------
    def scalar_extend(self, emb) -> "CategoryPres":
        """The same combinatorial data with every scalar embedded."""
        if emb.src != self.field:
            raise FieldMismatch("embedding source differs from category field")
        F2 = {}
        for key, m in self._F.items():
            F2[key] = Matrix(emb.dst, [[emb(x) for x in row] for row in m.a])
        out = CategoryPres(emb.dst, self.labels, self.unit_components,
                           self.dualR, self._N, F2,
                           {a: emb(c) for a, c in self.cup.items()},
                           {a: emb(c) for a, c in self.cap.items()})
        report = validate_category(out)
        report.raise_if_failed()
        return out


# -------------------------------------------------------------------------------
# validation

def validate_category(cat: CategoryPres) -> ValidationReport:
    """Check pentagon, unit normalization, F invertibility and snakes."""
    rep = ValidationReport("category")
    try:
        _validate_structure(cat, rep)
        if rep.ok:
            _validate_f_blocks(cat, rep)
        if rep.ok:
            _validate_pentagon(cat, rep)
        if rep.ok:
            _validate_snakes(cat, rep)
    except ValidationFailure as exc:
        rep.fail(str(exc))
    return rep


def _validate_structure(cat, rep):
    rep.checks_run += 1
    for a, b in cat.dualR.items():
        if a not in cat.idx or b not in cat.idx:
            rep.fail(f"dualR mentions unknown label {a!r} or {b!r}")
            return
    if sorted(cat.dualR) != sorted(cat.labels):
        rep.fail("dualR is not defined on every label")
        return
    if sorted(cat.dualR.values()) != sorted(cat.labels):
        rep.fail("dualR is not a bijection")
        return
    for a in cat.labels:
        if cat.dualR[cat.dualR[a]] != a:
            rep.fail(f"dualR is not involutive at {a!r}")
            return
    units = set(cat.unit_components)
    for ei in units:
        for ej in units:
            for el in cat.labels:
                n = cat.N(ei, ej, el)
                expect = 1 if (ei == ej == el) else 0
                if n != expect:
                    rep.fail(f"unit components not orthogonal idempotents at "
                             f"({ei},{ej},{el}): N={n}")
                    return
    for e in units:
        for a in cat.labels:
            for c in cat.labels:
                if a != c and (cat.N(e, a, c) or cat.N(a, e, c)):
                    rep.fail(f"unit component {e!r} does not act diagonally "
                             f"on {a!r}")
                    return
    for a in cat.labels:
        lsec = [e for e in cat.unit_components if cat.N(e, a, a) == 1]
        rsec = [e for e in cat.unit_components if cat.N(a, e, a) == 1]
        if len(lsec) != 1 or len(rsec) != 1:
            rep.fail(f"label {a!r} lies in {len(lsec)} left / {len(rsec)} "
                     f"right unit sectors (need exactly one of each)")
            return
    for (a, b, c), n in cat._N.items():
        if a not in cat.idx or b not in cat.idx or c not in cat.idx:
            rep.fail(f"fusion entry mentions unknown label: ({a},{b},{c})")
            return
        if n < 0:
            rep.fail(f"negative fusion multiplicity at ({a},{b},{c})")
            return


def _validate_f_blocks(cat, rep):
    for a in cat.labels:
        for b in cat.labels:
            for c in cat.labels:
                for d in cat.labels:
                    rows = cat.f_rows(a, b, c, d)
                    cols = cat.f_cols(a, b, c, d)
                    rep.checks_run += 1
                    if len(rows) != len(cols):
                        rep.fail(f"path counts differ at F[{a},{b},{c},{d}]: "
                                 f"{len(rows)} vs {len(cols)}")
                        return
                    stored = cat._F.get((a, b, c, d))
                    if stored is not None:
                        if (stored.rows, stored.cols) != (len(rows), len(cols)):
                            rep.fail(f"F[{a},{b},{c},{d}] has wrong shape")
                            return
                        if (cat.is_unit(a) or cat.is_unit(b) or cat.is_unit(c)) \
                                and stored != Matrix.identity(cat.field, len(rows)):
                            rep.fail(f"F[{a},{b},{c},{d}] must be the identity "
                                     f"(unit-normalized gauge)")
                            return
                    elif rows and not (cat.is_unit(a) or cat.is_unit(b)
                                       or cat.is_unit(c)):
                        rep.fail(f"missing F block at ({a},{b},{c},{d})")
                        return
                    if rows:
                        blk = cat.f_block(a, b, c, d)
                        if not blk.is_invertible():
                            rep.fail(f"F[{a},{b},{c},{d}] is singular")
                            return


def _validate_pentagon(cat, rep):
    for a in cat.labels:
        A = cat.simple(a)
        for b in cat.labels:
            B = cat.simple(b)
            AB = cat.tensor(A, B)
            for c in cat.labels:
                C = cat.simple(c)
                BC = cat.tensor(B, C)
                for d in cat.labels:
                    D = cat.simple(d)
                    rep.checks_run += 1
                    CD = cat.tensor(C, D)
                    lhs = cat.associator(A, B, CD) @ cat.associator(AB, C, D)
                    rhs = (cat.tensor_mor(cat.id(A), cat.associator(B, C, D))
                           @ cat.associator(A, BC, D)
                           @ cat.tensor_mor(cat.associator(A, B, C), cat.id(D)))
                    if lhs != rhs:
                        rep.fail(f"pentagon fails at ({a},{b},{c},{d})")
                        return


def _validate_snakes(cat, rep):
    one = cat.field.one()
    for a in cat.labels:
        rep.checks_run += 1
        if a not in cat.cup or a not in cat.cap:
            rep.fail(f"missing cup/cap coefficient for label {a!r}")
            return
        u = cat._coev_right_raw(a, cat.cup[a])
        v = cat._ev_right_raw(a, cat.cap[a])
        if cat._snake1_scalar(a, u, v) != one:
            rep.fail(f"right snake (1) fails at label {a!r}")
            return
        if cat._snake2_scalar(a, u, v) != one:
            rep.fail(f"right snake (2) fails at label {a!r}")
            return
        try:
            cat._left_pair(a)
        except SnakeUnsolvable as exc:
            rep.fail(str(exc))
            return
