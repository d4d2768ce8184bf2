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
  Each snake is cup[a] * cap[a] times one F entry, its loop.  The
  left-duality pair per label is derived from the loops of a^L,
  normalized so the coevaluation coefficient is one.

Structure maps
--------------
One routine of CategoryPres builds each family: `_associator` both
associator directions, `_unitor` both unitors (their inverses are the
transposes), `_pairing` every (co)evaluation; `f_entry` reads one
coefficient of an associator or its inverse, for the maps that `modcat`
and `structure` write from the F-symbols instead of composing, and for
the two snake loops of a label (`_snake_loops`).  `hom_offsets` places
each label's block in the `hom_coords` order that the hom solves write
their systems in.

What a presentation derives lives in one table, `_cache`, that only the
`_cached` decorator reads and writes: one entry per call of `_channels`
(the nonzero fusion channels of a pair of labels, which `f_rows` and
`f_cols` enumerate paths from), `_fusion` (the fusion basis, its index
and the product of two objects), `_associator`, `_f_data`, `_unit_of`,
`_left_pair` and `validation`.  The last is the one coherence check of
the presentation: whoever needs the pentagon to hold (the catalog, the
CLI loaders, `structure.analyze`) reads its report, so
`validate_category` runs once per category.  It composes no morphism:
it reads the pentagon from F entries, one sum of products per pair of
outer fusion paths, and each snake from one F entry per label.
"""

from functools import wraps
from itertools import product

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

    @staticmethod
    def combine(coeffs, mors) -> "Mor":
        """sum_k coeffs[k] * mors[k] for morphisms of one hom space: one
        Matrix.combine per label, over the terms with a block there."""
        if not mors or len(coeffs) != len(mors) or any(
                m.src != mors[0].src or m.dst != mors[0].dst for m in mors):
            raise ValueError("a combination needs one coefficient per "
                             "morphism, all of one hom space")
        terms = {}
        for c, m in zip(coeffs, mors):
            for a, blk in m.blocks.items():
                terms.setdefault(a, []).append((c, blk))
        return Mor(mors[0].cat, mors[0].src, mors[0].dst,
                   {a: Matrix.combine(*zip(*ts)) for a, ts in terms.items()})

    def __add__(self, other: "Mor") -> "Mor":
        return Mor.combine([self.cat.field.one()] * 2, [self, other])

    def __sub__(self, other: "Mor") -> "Mor":
        one = self.cat.field.one()
        return Mor.combine([one, -one], [self, other])

    def __neg__(self) -> "Mor":
        return Mor.combine([-self.cat.field.one()], [self])

    def scale(self, c: Scalar) -> "Mor":
        return Mor.combine([c], [self])

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.blocks.values())

    def __eq__(self, other):
        if not isinstance(other, Mor):
            return NotImplemented
        return (other.src == self.src and other.dst == self.dst
                and all(self.block(a) == other.block(a)
                        for a in set(self.blocks) | set(other.blocks)))

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
        if self.src.total() != 1 or self.dst.total() != 1:
            raise ValueError("scalar() requires 1-dimensional hom data")
        for m in self.blocks.values():
            return m[0, 0]
        return self.cat.field.zero()

    def transpose(self) -> "Mor":
        return Mor(self.cat, self.dst, self.src,
                   {a: m.transpose() for a, m in self.blocks.items()})

    def __repr__(self):
        return f"Mor({self.src!r} -> {self.dst!r})"

    # -- flat coordinates (fixed order, used by the hom solvers) ------------
    def coords(self) -> list:
        """The entries in hom_coords order: each shared label's block,
        row by row."""
        out = []
        for a in _shared_labels(self.src, self.dst):
            blk = self.block(a)
            out += [x for i in range(blk.rows) for x in blk.row(i)]
        return out


def _shared_labels(src: Obj, dst: Obj) -> list:
    """The labels of both supports, in presentation order."""
    cat = src.cat
    return sorted(set(src.support) & set(dst.support),
                  key=lambda x: cat.idx[x])


def hom_coords(src: Obj, dst: Obj) -> list:
    """Deterministic coordinate order on Hom(src, dst)."""
    return [(a, i, j) for a in _shared_labels(src, dst)
            for i in range(dst.mult(a)) for j in range(src.mult(a))]


def hom_offsets(src: Obj, dst: Obj) -> dict:
    """label -> the position of its block in hom_coords(src, dst): the
    coordinate (a, i, j) sits at offset[a] + i * src.mult(a) + j."""
    out, k = {}, 0
    for a in _shared_labels(src, dst):
        out[a] = k
        k += dst.mult(a) * src.mult(a)
    return out


def mor_from_coords(cat, src: Obj, dst: Obj, vec) -> Mor:
    coords = hom_coords(src, dst)
    assert len(coords) == len(vec)
    entries = {a: [] for a in _shared_labels(src, dst)}
    for (a, i, j), val in zip(coords, vec):
        entries[a].append((i, j, val))
    return Mor(cat, src, dst,
               {a: Matrix.from_entries(cat.field, dst.mult(a), src.mult(a),
                                       es) for a, es in entries.items()})


def hom_dim(X: Obj, Y: Obj) -> int:
    """dim Hom(X, Y) = sum_a X.mult(a) * Y.mult(a)."""
    return sum(X.mult(a) * Y.mult(a) for a in X.support)


def _cached(method):
    """Memoize a CategoryPres method on its positional arguments, in the
    category's one table `_cache`.  A call that raises stores nothing."""
    name = method.__name__

    @wraps(method)
    def reader(self, *args):
        key = (name, args)
        try:
            return self._cache[key]
        except KeyError:
            pass
        out = self._cache[key] = method(self, *args)
        return out
    return reader


class CategoryPres:
    """A skeletal multi-fusion category presentation."""

    def __init__(self, field: Field, labels, unit, dualR: dict,
                 fusion: dict, F: dict, cup: dict, cap: dict):
        self.field = field
        self.labels = tuple(labels)
        self.idx = {a: i for i, a in enumerate(self.labels)}
        if len(self.idx) != len(self.labels):
            raise ValidationFailure("duplicate labels")
        units = set(unit)
        if units - set(self.labels):
            raise ValidationFailure("unit components must be labels")
        self.unit_components = tuple(u for u in self.labels if u in units)
        if not self.unit_components:
            raise ValidationFailure("at least one unit component required")
        self._units = frozenset(self.unit_components)
        self.dualR = dict(dualR)
        self._N = {k: int(v) for k, v in fusion.items() if int(v) != 0}
        self._F = dict(F)
        self.cup = dict(cup)
        self.cap = dict(cap)
        # derived data, one entry per (method, arguments); see `_cached`
        self._cache = {}

    @_cached
    def validation(self) -> ValidationReport:
        """`validate_category(self)`, computed once per presentation."""
        return validate_category(self)

    # -- basic table access --------------------------------------------------
    def _same(self, other):
        if other is not self:
            raise FieldMismatch("objects from different categories")

    def N(self, a, b, c) -> int:
        return self._N.get((a, b, c), 0)

    def is_unit(self, a) -> bool:
        return a in self._units

    def unit_obj(self) -> Obj:
        return Obj(self, {e: 1 for e in self.unit_components})

    def simple(self, a) -> Obj:
        return Obj(self, {a: 1})

    def zero_obj(self) -> Obj:
        return Obj(self, {})

    def left_unit_of(self, a):
        """The unit component e with e (x) a = a."""
        return self._unit_of(a, "left")

    def right_unit_of(self, a):
        """The unit component e with a (x) e = a."""
        return self._unit_of(a, "right")

    @_cached
    def _unit_of(self, a, side: str):
        """The one unit component on the given side of a."""
        es = [e for e in self.unit_components
              if (self.N(e, a, a) if side == "left" else self.N(a, e, a)) == 1]
        if len(es) != 1:
            raise ValidationFailure(
                f"label {a!r} lies in {len(es)} {side} unit sectors")
        return es[0]

    @_cached
    def _channels(self, a, b) -> list:
        """The nonzero fusion channels of a (x) b: [(c, N[a,b,c])] over the
        labels c, in presentation order."""
        N = self._N
        return [(c, N[(a, b, c)]) for c in self.labels if (a, b, c) in N]

    # -- F-matrix access ------------------------------------------------------
    def f_rows(self, a, b, c, d) -> list:
        return [(e, mu, nu) for e, n in self._channels(a, b)
                for mu in range(n) for nu in range(self.N(e, c, d))]

    def f_cols(self, a, b, c, d) -> list:
        return [(f, rho, sigma) for f, n in self._channels(b, c)
                for rho in range(n) for sigma in range(self.N(a, f, d))]

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
    @_cached
    def _fusion(self, xkey: tuple, ykey: tuple) -> tuple:
        """(basis, index, product) of X (x) Y, from the keys of X and Y:
        per label, the fusion tuples (a, i, b, j, mu) in the frozen order,
        generated in it since a key lists labels by index; then each
        tuple's position; then the product object."""
        labels = self.labels
        xs = [(labels[ai], i) for ai, m in xkey for i in range(m)]
        ys = [(labels[bi], j) for bi, n in ykey for j in range(n)]
        basis = {}
        for (a, i), (b, j) in product(xs, ys):
            for c in labels:
                for mu in range(self.N(a, b, c)):
                    basis.setdefault(c, []).append((a, i, b, j, mu))
        index = {c: {t: r for r, t in enumerate(lst)}
                 for c, lst in basis.items()}
        return basis, index, Obj(self, {c: len(lst)
                                        for c, lst in basis.items()})

    def fusion_basis(self, X: Obj, Y: Obj) -> dict:
        """Per-label ordered list of fusion tuples (a, i, b, j, mu)."""
        return self._fusion(X.key, Y.key)[0]

    def fusion_index(self, X: Obj, Y: Obj) -> dict:
        """Per label, the position of each fusion tuple in its list."""
        return self._fusion(X.key, Y.key)[1]

    def tensor(self, X: Obj, Y: Obj) -> Obj:
        return self._fusion(X.key, Y.key)[2]

    def tensor_mor(self, f: Mor, g: Mor) -> Mor:
        """f (x) g in the fusion bases of (f.src, g.src) and (f.dst, g.dst):
        the row (a, i, b, j, mu) of the block at c is the Kronecker
        product of row i of f's block at a and row j of g's at b."""
        _, src_index, src = self._fusion(f.src.key, g.src.key)
        dst_basis, _, dst = self._fusion(f.dst.key, g.dst.key)
        field = self.field
        mul = field._mul
        frows, grows = ({a: [m.row_nonzero(i) for i in range(m.rows)]
                         for a, m in h.blocks.items()} for h in (f, g))
        blocks = {}
        for c, lst in dst_basis.items():
            if src.mult(c) == 0:
                continue
            idx = src_index[c]
            # a product of nonzeros is nonzero, and (i, j) -> column is
            # injective, so each entry gets one product
            entries = [(r, idx[(a, i, b, j, mu)], Scalar(field, mul(x.c, y.c)))
                       for r, (a, i2, b, j2, mu) in enumerate(lst)
                       if a in frows and b in grows
                       for i, x in frows[a][i2] for j, y in grows[b][j2]]
            blocks[c] = Matrix.from_entries(field, dst.mult(c), src.mult(c),
                                            entries)
        return Mor(self, src, dst, blocks)

    def id(self, X: Obj) -> Mor:
        return Mor(self, X, X, {a: Matrix.identity(self.field, X.mult(a))
                                for a in X.support})

    # -- associator -----------------------------------------------------------
    @_cached
    def _f_data(self, a, b, c, d, inverse: bool):
        """(lines, row positions, column labels): lines[r] lists the nonzero
        (column, value) pairs of row r of F, or of column r of F^-1."""
        fm = self.f_block(a, b, c, d)
        if inverse and fm.rows:
            fm = fm.inv().transpose()
        lines = [fm.row_nonzero(r) for r in range(fm.rows)]
        rows = {t: r for r, t in enumerate(self.f_rows(a, b, c, d))}
        return lines, rows, self.f_cols(a, b, c, d)

    def f_entry(self, a, b, c, d, left, right, inverse: bool) -> Scalar:
        """One coefficient of the associator of simples a, b, c at d,
        between the left-associated path `left` = (e, mu, nu) and the
        right-associated path `right` = (f, rho, sigma): F[left][right],
        the coefficient of `right` in the image of `left`, or with
        `inverse` F^-1[right][left], the coefficient of `left` in the
        image of `right`.  Zero where a path does not exist."""
        lines, rows, cols = self._f_data(a, b, c, d, inverse)
        r = rows.get(left)
        if r is not None:
            for cidx, val in lines[r]:
                if cols[cidx] == right:
                    return val
        return self.field.zero()

    def associator(self, X: Obj, Y: Obj, Z: Obj) -> Mor:
        """Invertible (X(x)Y)(x)Z -> X(x)(Y(x)Z) assembled from F entries."""
        return self._associator(X.key, Y.key, Z.key, False)

    def associator_inv(self, X: Obj, Y: Obj, Z: Obj) -> Mor:
        """X(x)(Y(x)Z) -> (X(x)Y)(x)Z, from the inverted F blocks."""
        return self._associator(X.key, Y.key, Z.key, True)

    @_cached
    def _associator(self, x: tuple, y: tuple, z: tuple, inverse: bool) -> Mor:
        """Both directions walk the left-associated fusion basis of the
        objects with keys x, y, z: the forward map puts F[r][c] at (right,
        left) and the inverse F^-1[c][r] at (left, right)."""
        xy_basis, _, XY = self._fusion(x, y)
        _, yz_index, YZ = self._fusion(y, z)
        left_basis, _, left = self._fusion(XY.key, z)
        _, right_index, right = self._fusion(x, YZ.key)
        src, dst = (right, left) if inverse else (left, right)
        blocks = {}
        for d, lst in left_basis.items():
            if right.mult(d) == 0:
                continue
            ridx = right_index[d]
            entries = []
            for lpos, (e, n, c, l, nu) in enumerate(lst):
                a, i, b, j, mu = xy_basis[e][n]
                lines, rowpos, cols = self._f_data(a, b, c, d, inverse)
                for cidx, val in lines[rowpos[(e, mu, nu)]]:
                    f, rho, sigma = cols[cidx]
                    rpos = ridx[(a, i, f, yz_index[f][(b, j, c, l, rho)],
                                 sigma)]
                    entries.append((lpos, rpos, val) if inverse
                                   else (rpos, lpos, val))
            blocks[d] = Matrix.from_entries(self.field, dst.mult(d),
                                            src.mult(d), entries)
        return Mor(self, src, dst, blocks)

    # -- unitors ----------------------------------------------------------------
    def unitor_left(self, X: Obj) -> Mor:
        """The canonical identification 1 (x) X -> X (coefficient one)."""
        return self._unitor(X, True)

    def unitor_right(self, X: Obj) -> Mor:
        """The canonical identification X (x) 1 -> X (coefficient one)."""
        return self._unitor(X, False)

    def _unitor(self, X: Obj, left: bool) -> Mor:
        one = self.unit_obj()
        pair = (one, X) if left else (X, one)
        src = self.tensor(*pair)
        basis = self.fusion_basis(*pair)
        blocks = {}
        for a in X.support:
            entries = []
            for pos, t in enumerate(basis.get(a, [])):
                b, j = t[2:4] if left else t[0:2]
                if b == a and t[4] == 0:
                    entries.append((j, pos, self.field.one()))
            blocks[a] = Matrix.from_entries(self.field, X.mult(a),
                                            src.mult(a), entries)
        return Mor(self, src, X, blocks)

    def unitor_left_inv(self, X: Obj) -> Mor:
        return self.unitor_left(X).transpose()

    def unitor_right_inv(self, X: Obj) -> Mor:
        return self.unitor_right(X).transpose()

    # -- duality ------------------------------------------------------------------
    def dual_obj(self, X: Obj) -> Obj:
        return Obj(self, {self.dualR[a]: n for a, n in X._mult.items()})

    @_cached
    def _left_pair(self, a):
        """Derived left-duality coefficients (u', v') for the label a.

        (u', v') solve both snake equations for the pair
        u': 1 -> a (x) a^L, v': a^L (x) a -> 1, normalized u' = 1; they
        are the right duality of a^L, whose loops `_snake_loops` reads.
        """
        one = self.field.one()
        loop1, loop2 = self._snake_loops(self.dualR[a])
        if loop1.is_zero():
            raise SnakeUnsolvable(f"label {a!r}: degenerate cup/cap loop")
        vfix = one / loop1
        if loop2 * vfix != one:
            raise SnakeUnsolvable(f"label {a!r}: snake equations inconsistent")
        return one, vfix

    def _snake_loops(self, a) -> tuple:
        """The two right snakes of the label a at cup = cap = 1.  Their
        unitors and (co)evaluations have one nonzero entry each, so each
        snake is one F entry, with l, r the left and right units of a:
        x -> x (x) (x^R x) -> (x x^R) (x) x -> x is F^-1[a,a^R,a,a] from
        (r,0,0) to (l,0,0), and x^R -> (x^R x) (x) x^R -> x^R (x) (x x^R)
        -> x^R is F[a^R,a,a^R,a^R] from (r,0,0) to (l,0,0).  A snake with
        cup and cap is cup * cap times its loop; a missing path reads 0."""
        ar = self.dualR[a]
        l, r = self.left_unit_of(a), self.right_unit_of(a)
        return (self.f_entry(a, ar, a, a, (l, 0, 0), (r, 0, 0), True),
                self.f_entry(ar, a, ar, ar, (r, 0, 0), (l, 0, 0), False))

    # compound (co)evaluations --------------------------------------------------
    def coev_left(self, X: Obj) -> Mor:
        """u'_X : 1 -> X (x) X^v (derived left duality)."""
        return self._pairing(X, False, False,
                             {a: self._left_pair(a)[0] for a in X.support})

    def ev_left(self, X: Obj) -> Mor:
        """v'_X : X^v (x) X -> 1 (derived left duality)."""
        return self._pairing(X, True, True,
                             {a: self._left_pair(a)[1] for a in X.support})

    def _pairing(self, X: Obj, dual_first: bool, ev: bool, coeff) -> Mor:
        """Pair each copy of a label a in X with its dual at coeff[a]:
        X^v (x) X (dual_first, over the right unit of a) or X (x) X^v (over
        its left unit) -> 1 when ev, else 1 -> it.  So a multi-fusion X
        gets one block per unit component."""
        Xv = self.dual_obj(X)
        pair = (Xv, X) if dual_first else (X, Xv)
        t = self.tensor(*pair)
        idxmap = self.fusion_index(*pair)
        entries = {}
        for a in X.support:
            av = self.dualR[a]
            e = self.right_unit_of(a) if dual_first else self.left_unit_of(a)
            es = entries.setdefault(e, [])
            for j in range(X.mult(a)):
                pos = idxmap[e][(av, j, a, j, 0) if dual_first
                                else (a, j, av, j, 0)]
                es.append((0, pos, coeff[a]) if ev else (pos, 0, coeff[a]))
        blocks = {}
        for e, es in entries.items():
            n = t.mult(e)
            blocks[e] = Matrix.from_entries(self.field, 1 if ev else n,
                                            n if ev else 1, es)
        one = self.unit_obj()
        return Mor(self, t, one, blocks) if ev else Mor(self, one, t, blocks)

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

    # -- base extension ---------------------------------------------------------------
    def scalar_extend(self, emb) -> "CategoryPres":
        """The same combinatorial data with every scalar embedded."""
        if emb.src != self.field:
            raise FieldMismatch("embedding source differs from category field")
        F2 = {key: m.map(emb, emb.dst) for key, m in self._F.items()}
        out = CategoryPres(emb.dst, self.labels, self.unit_components,
                           self.dualR, self._N, F2,
                           {a: emb(c) for a, c in self.cup.items()},
                           {a: emb(c) for a, c in self.cap.items()})
        out.validation().raise_if_failed()
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
    for key in cat._F:
        if any(x not in cat.idx for x in key):
            rep.fail(f"F block mentions unknown label: "
                     f"({','.join(map(str, key))})")
            return
    for name, table in (("cup", cat.cup), ("cap", cat.cap)):
        for a in table:
            if a not in cat.idx:
                rep.fail(f"{name} coefficient for unknown label {a!r}")
                return


def _validate_f_blocks(cat, rep):
    for a in cat.labels:
        for b in cat.labels:
            for c in cat.labels:
                unit = cat.is_unit(a) or cat.is_unit(b) or cat.is_unit(c)
                for d in cat.labels:
                    rows = cat.f_rows(a, b, c, d)
                    cols = cat.f_cols(a, b, c, d)
                    rep.checks_run += 1
                    if len(rows) != len(cols):
                        rep.fail(f"path counts differ at F[{a},{b},{c},{d}]: "
                                 f"{len(rows)} vs {len(cols)}")
                        return
                    stored = cat._F.get((a, b, c, d))
                    if stored is None:
                        # an omitted block is the identity or empty
                        if rows and not unit:
                            rep.fail(f"missing F block at ({a},{b},{c},{d})")
                            return
                    elif (stored.rows, stored.cols) != (len(rows), len(cols)):
                        rep.fail(f"F[{a},{b},{c},{d}] has wrong shape")
                        return
                    elif unit:
                        if stored != Matrix.identity(cat.field, len(rows)):
                            rep.fail(f"F[{a},{b},{c},{d}] must be the "
                                     f"identity (unit-normalized gauge)")
                            return
                    elif rows and not stored.is_invertible():
                        rep.fail(f"F[{a},{b},{c},{d}] is singular")
                        return


def _validate_pentagon(cat, rep):
    """The pentagon of the simples a, b, c, d, read from F entries
    (Etingof-Gelaki-Nikshych-Ostrik, Tensor Categories, 4.9): from each
    left-associated path (e, al; f, be; g, ga) of ((a b) c) d, the two
    routes to a (b (c d)) have one coefficient on each right-associated
    path (h, de; k, ep; ze),

        sum_la F[e,c,d,g] F[a,b,h,g]
            = sum_{m,mu,nu,rho} F[a,b,c,f] F[a,m,d,g] F[b,c,d,k],

    the entries of the composed pentagon.  The sums walk nonzero channels
    and the nonzero rows of F; the rows of F[a,b,c,f] serve every d."""
    channels = cat._channels
    for a in cat.labels:
        for b in cat.labels:
            for c in cat.labels:
                abc = [(e, al, f, be, _f_row(cat, a, b, c, f, (e, al, be)))
                       for e, n in channels(a, b) for al in range(n)
                       for f, m in channels(e, c) for be in range(m)]
                for d in cat.labels:
                    rep.checks_run += 1
                    if not all(_pentagon_holds(cat, a, b, c, d, e, al, f, be,
                                               g, ga, first)
                               for e, al, f, be, first in abc
                               for g, n in channels(f, d)
                               for ga in range(n)):
                        rep.fail(f"pentagon fails at ({a},{b},{c},{d})")
                        return


def _f_row(cat, a, b, c, d, left) -> list:
    """Row `left` of F[a,b,c,d], nonzeros only: (right path, coefficient
    tuple) pairs."""
    lines, rows, cols = cat._f_data(a, b, c, d, False)
    return [(cols[j], x.c) for j, x in lines[rows[left]]]


def _pentagon_holds(cat, a, b, c, d, e, al, f, be, g, ga, first) -> bool:
    """Whether the two sides of the pentagon agree from the left path
    (e, al; f, be; g, ga) of ((a b) c) d on every right path; `first` is
    row (e, al, be) of F[a,b,c,f]."""
    mul = cat.field._mul
    lhs = [((h, de, k, ep, ze), mul(x, y))
           for (h, de, la), x in _f_row(cat, e, c, d, g, (f, be, ga))
           for (k, ep, ze), y in _f_row(cat, a, b, h, g, (e, al, la))]
    rhs = [((h, de, k, ep, ze), mul(mul(x, y), z))
           for (m, mu, nu), x in first
           for (k, rho, ze), y in _f_row(cat, a, m, d, g, (f, nu, ga))
           for (h, de, ep), z in _f_row(cat, b, c, d, k, (m, mu, rho))]
    return _sums(cat.field, lhs) == _sums(cat.field, rhs)


def _sums(field, terms) -> dict:
    """key -> the sum of the coefficient tuples given for it in `terms`,
    nonzero sums only."""
    out = {}
    for key, x in terms:
        y = out.get(key)
        out[key] = x if y is None else field._add(y, x)
    zc = field._zero_c
    return {key: x for key, x in out.items() if x != zc}


def _validate_snakes(cat, rep):
    one = cat.field.one()
    for a in cat.labels:
        rep.checks_run += 1
        if a not in cat.cup or a not in cat.cap:
            rep.fail(f"missing cup/cap coefficient for label {a!r}")
            return
        pair = cat.cup[a] * cat.cap[a]
        loop1, loop2 = cat._snake_loops(a)
        if pair * loop1 != one:
            rep.fail(f"right snake (1) fails at label {a!r}")
            return
        if pair * loop2 != one:
            rep.fail(f"right snake (2) fails at label {a!r}")
            return
        try:
            cat._left_pair(a)
        except SnakeUnsolvable as exc:
            rep.fail(str(exc))
            return
