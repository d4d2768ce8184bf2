"""Finite-dimensional associative algebras over exact fields.

Structure constants are stored sparsely.  The radical is computed from
trace data of the left regular representation, by one Cohen-Ivanyos-Wales
chain of characteristic-polynomial-coefficient conditions in every
characteristic.  Its level 0 is the kernel of the trace form, which in
characteristic zero is the radical (Dickson), so there the chain ends.
Its level l >= 1 reads g_l(x), the coefficient of lambda^(n - p^l)
in the characteristic polynomial of x, which is p^l-semilinear on the
ideal J_{l-1} of the level before (Cohen, Ivanyos and Wales, JPAA
117-118, 1997), so linear after the inverse Frobenius (all supported
characteristic-p fields are finite, hence perfect).  A level costs one
truncated characteristic polynomial per basis vector of J_{l-1}, one
solve, and a Gram matrix built from the structure constants as the trace
form is.

Construction checks the unit law and associativity.  Associativity is
checked on the triples (i, j, l) that some nonzero structure constant
reaches: those with b_i b_j != 0 and a term b_m of it with b_m b_l != 0,
or with b_j b_l != 0 and a term b_m of it with b_i b_m != 0.  Any other
triple has both sides zero, and most triples of a sparse End algebra are
such.

The left regular representation is read off the structure constants,
one block per left ideal that a class of `OrdAlgebra._blocks` spans; on
an End algebra the classes refine the left ideals E e_j of its free
modules, which keeps characteristic polynomials small.

Separability over the ground field, which decides the
`endomorphism_separability` part of a report, is the solve for a
separability idempotent in E (x) E.  Linear systems are built as
matrices whose k-th column is the image of the k-th basis element.

Simplicity of a right ideal eps E is read from E itself: eps must kill
the radical, and the corner eps E eps, the endomorphism algebra of eps E,
must be a division algebra.

Lemma.  In Z = K_1 x ... x K_r (r >= 2) commutative semisimple over
k = Q, a number field or F_q, x has an irreducible minimal polynomial m
of degree d iff each x_i has, and then phi(x) = 0 for one nonzero linear
form phi.  In characteristic 0, phi(x) = Tr(x_1)/[K_1:k] -
Tr(x_2)/[K_2:k], each term -m_{d-1}/d.  Over F_q, phi(x) =
Tr(theta_1 x_1) - Tr(theta_2 x_2) with Tr_{K_i/L_i}(theta_i) = 1 for
L_i of degree g = gcd([K_1:k], [K_2:k]), each term (g/d)(-m_{d-1}).  So
(1) Z is a field iff every basis element has an irreducible minimal
polynomial, and (2) splitting each idempotent e by the factors of the
minimal polynomial of z e on eZ, for each basis element z in turn, ends
at the primitive idempotents.  `is_division` reads fact (1), and the
quaternion test, off one scan of the basis elements' minimal
polynomials.  Two ladder searches of small combinations remain:
`central_idempotents` tries its ladder first, since the order of the
simple modules in a report follows it, and `primitive_idempotent` splits
a simple block that `is_division` does not call a division algebra,
which no theorem here does deterministically.
"""

from fractions import Fraction
from functools import cached_property
from itertools import combinations, product

from .fields import Field, Scalar, _b_mul
from .linalg import Matrix, RowSpace
from .poly import Poly, _frob_inverse, factor


class OrdAlgebraError(Exception):
    pass


class NotSemisimple(OrdAlgebraError):
    pass


class SeparatingElementNotFound(OrdAlgebraError):
    """No element of the bounded search split a non-commutative simple
    block; reported, never guessed."""


UNDETERMINED = "undetermined"


class OrdAlgebra:
    """Associative unital algebra by sparse structure constants.

    sc_pairs[i][j] is the list of (l, coeff) with b_i b_j = sum coeff*b_l.
    The radical reads the left regular representation x -> L_x, L_x(b_k)
    = x b_k, off these constants, one block per class of `_blocks`.

    With `validate`, construction checks the unit law at each basis
    element and associativity on every triple that a nonzero structure
    constant reaches, and raises `OrdAlgebraError` at the first failure,
    the first failing triple in lexicographic order.
    The package's own builders pass `validate=False`, as their algebras
    are associative by construction: the End algebras of `modcat.EndData`
    (whose docstring gives the certificate; the tests run this check on
    every one they build) and the closed subspaces of `subalgebra_on`.
    The default stays on for every other caller.
    """

    def __init__(self, field: Field, dim: int, sc_pairs, unit,
                 validate: bool = True):
        self.field = field
        self.dim = dim
        self.sc = sc_pairs
        self.unit = list(unit)
        if validate:
            self._validate()

    def mult_vec(self, x, y):
        """Product of two coordinate vectors."""
        z = self.field.zero()
        out = [z] * self.dim
        ys = [(j, yj) for j, yj in enumerate(y) if not yj.is_zero()]
        for i, xi in enumerate(x):
            if xi.is_zero():
                continue
            sci = self.sc[i]
            for j, yj in ys:
                pairs = sci[j]
                if not pairs:
                    continue
                f = xi * yj
                for l, c in pairs:
                    out[l] = out[l] + f * c
        return out

    def basis_vec(self, i):
        v = [self.field.zero()] * self.dim
        v[i] = self.field.one()
        return v

    def is_commutative(self) -> bool:
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if sorted(self.sc[i][j]) != sorted(self.sc[j][i]):
                    bi, bj = self.basis_vec(i), self.basis_vec(j)
                    if self.mult_vec(bi, bj) != self.mult_vec(bj, bi):
                        return False
        return True

    def _validate(self):
        for i in range(self.dim):
            bi = self.basis_vec(i)
            if self.mult_vec(self.unit, bi) != bi or \
                    self.mult_vec(bi, self.unit) != bi:
                raise OrdAlgebraError(f"unit law fails at basis element {i}")
        # associativity on coefficient tuples, over the reachable triples
        # only.  nz[m] holds the (l, b_m b_l) with b_m b_l != 0, col[m]
        # the (j, l, c) with c != 0 the coefficient of b_m in b_j b_l.
        # For each i, both sides are summed per coefficient of b_t under
        # the key (j, l, t); canonical coefficients make `!=` exact.
        field = self.field
        add, mul, zc = field._add, field._mul, field._zero_c
        n = self.dim
        nz = [[(l, [(t, d.c) for t, d in pairs])
               for l, pairs in enumerate(row) if pairs] for row in self.sc]
        col = [[] for _ in range(n)]
        for j, row in enumerate(nz):
            for l, pairs in row:
                for m, c in pairs:
                    col[m].append((j, l, c))
        for i in range(n):
            left = {}
            for j, ij in nz[i]:
                for m, c in ij:
                    for l, ml in nz[m]:
                        for t, d in ml:
                            k = (j, l, t)
                            v = left.get(k)
                            left[k] = mul(c, d) if v is None else \
                                add(v, mul(c, d))
            right = {}
            for m, im in nz[i]:
                for j, l, c in col[m]:
                    for t, d in im:
                        k = (j, l, t)
                        v = right.get(k)
                        right[k] = mul(c, d) if v is None else \
                            add(v, mul(c, d))
            if left == right:
                continue
            # a sum that cancelled may be kept on one side only
            bad = [k[:2] for k in left.keys() | right.keys()
                   if left.get(k, zc) != right.get(k, zc)]
            if bad:
                j, l = min(bad)
                raise OrdAlgebraError(f"associativity fails at ({i},{j},{l})")

    # -- the left regular representation ---------------------------------------
    @cached_property
    def _blocks(self) -> list:
        """The classes of the basis under k ~ l, for b_l a term of some
        b_i b_k, each ascending and in the order of their least index.
        Each class spans a left ideal, so every L_x is block diagonal on
        them; a union-find over the nonzero structure constants."""
        parent = list(range(self.dim))

        def root(k):
            while parent[k] != k:
                parent[k] = parent[parent[k]]
                k = parent[k]
            return k
        for row in self.sc:
            for k, pairs in enumerate(row):
                for l, _c in pairs:
                    a, b = root(k), root(l)
                    if a != b:
                        parent[max(a, b)] = min(a, b)
        classes = {}
        for k in range(self.dim):
            classes.setdefault(root(k), []).append(k)
        return list(classes.values())

    def _rep_blocks_of_vec(self, x):
        """L_x on each class of `_blocks`: entry (l, k) of a block, indexed
        inside its class, is the coefficient of b_l in x b_k."""
        where = {k: (c, r) for c, cls in enumerate(self._blocks)
                 for r, k in enumerate(cls)}
        entries = [[] for _ in self._blocks]
        for i, xi in enumerate(x):
            if xi.is_zero():
                continue
            for k, pairs in enumerate(self.sc[i]):
                c, col = where[k]
                entries[c] += [(where[l][1], col, xi * v) for l, v in pairs]
        return [Matrix.from_entries(self.field, len(cls), len(cls), es)
                for cls, es in zip(self._blocks, entries)]

    def _nat_traces(self):
        """tr L_(b_i) = sum_k (the coefficient of b_k in b_i b_k)."""
        return [sum((c for k, pairs in enumerate(row) for l, c in pairs
                     if l == k), self.field.zero()) for row in self.sc]

    @cached_property
    def _radical(self) -> list:
        return _radical_chain(self)

    def serialize(self) -> dict:
        sc = []
        for i in range(self.dim):
            for j in range(self.dim):
                for l, c in self.sc[i][j]:
                    sc.append([i, j, l, c.serialize()])
        return {"dim": self.dim,
                "sc": sc,
                "unit": [c.serialize() for c in self.unit]}

    def __repr__(self):
        return f"OrdAlgebra(dim={self.dim} over {self.field!r})"


# ---------------------------------------------------------------------------
# characteristic polynomial (Hessenberg reduction, then recurrence)

def charpoly(m: Matrix, top: int | None = None) -> list:
    """Coefficients (low to high) of det(lambda*I - m), or with `top` only
    the top + 1 highest ones, those of lambda^(n - top) .. lambda^n.

    A similarity reduces m to upper Hessenberg form h; the leading
    principal minors p_k of lambda*I - h then follow the recurrence
    p_k = (lambda - h[k-1][k-1]) p_{k-1}
          - sum_{i<k} h[i-1][k-1] (h[i][i-1] ... h[k-1][k-2]) p_{i-1},
    whose i-th term enters p_k shifted down by k - i + 1 degrees.  With
    `top`, each p_k keeps only its coefficients of lambda^(k-j) for
    j <= top, and the terms shifted past `top` are never formed.  All
    arithmetic runs on coefficient tuples; the result is wrapped once."""
    n = m.rows
    field = m.field
    top = n if top is None else min(top, n)
    add, sub, mul, zc = field._add, field._sub, field._mul, field._zero_c
    # a similarity transform to upper Hessenberg form: each row operation
    # is matched by the inverse column operation, so the characteristic
    # polynomial is kept; row reduction alone (linalg.RowSpace) would not
    h = [[x.c for x in m.row(i)] for i in range(n)]
    for c in range(n - 2):
        for piv in range(c + 1, n):
            if h[piv][c] != zc:
                break
        else:
            continue
        if piv != c + 1:
            h[c + 1], h[piv] = h[piv], h[c + 1]
            for r in h:
                r[c + 1], r[piv] = r[piv], r[c + 1]
        pivot_row = h[c + 1]
        inv = field._inv(pivot_row[c])
        for i in range(c + 2, n):
            row = h[i]
            if row[c] == zc:
                continue
            f = mul(row[c], inv)
            for j in range(c, n):
                if pivot_row[j] != zc:
                    row[j] = sub(row[j], mul(f, pivot_row[j]))
            for r in h:
                if r[i] != zc:
                    r[c + 1] = add(r[c + 1], mul(f, r[i]))
    # ps[k][j] is the coefficient of lambda^(k-j) in p_k, for j <= top
    ps = [[field._one.c]]
    for k in range(1, n + 1):
        prev = ps[k - 1]
        width = min(k, top) + 1
        cur = prev[:width] + [zc] * (width - len(prev))
        d = h[k - 1][k - 1]
        if d != zc:
            for j in range(1, width):
                if prev[j - 1] != zc:
                    cur[j] = sub(cur[j], mul(d, prev[j - 1]))
        run = field._one.c
        for i in range(k - 1, max(0, k - top), -1):
            run = mul(run, h[i][i - 1])
            if run == zc:
                break
            coeff = mul(h[i - 1][k - 1], run)
            if coeff == zc:
                continue
            shift = k - i + 1
            for j, c in enumerate(ps[i - 1][:width - shift]):
                if c != zc:
                    cur[j + shift] = sub(cur[j + shift], mul(coeff, c))
        ps.append(cur)
    return [Scalar(field, c) for c in reversed(ps[n])]


def _charpoly_of_blocks(blocks, top: int) -> list:
    """charpoly(diag(blocks), top), as the product of the blocks'
    truncated characteristic polynomials: the top + 1 highest
    coefficients of a product of monic polynomials depend only on the top
    + 1 highest coefficients of its factors."""
    F = blocks[0].field
    # total[j] is the coefficient of lambda^(deg - j)
    total = [F._one.c]
    for b in blocks:
        cp = [x.c for x in reversed(charpoly(b, top))]
        total = _b_mul(total, cp, F._add, F._mul, F._zero_c)[:top + 1]
    return [Scalar(F, c) for c in reversed(total)]


# ---------------------------------------------------------------------------
# radical

def radical(E: OrdAlgebra) -> list:
    """Basis of the Jacobson radical, as coordinate vectors.

    Computed once per algebra, as `OrdAlgebra._radical`: an OrdAlgebra
    does not change after construction, and callers only read the list."""
    return E._radical


def _form(E: OrdAlgebra, w) -> Matrix:
    """The matrix T_w of the bilinear form (x, y) -> w(xy) of the
    functional w, a list of Scalars: T_w[i][j] = w(b_i b_j) =
    sum_m c_ijm w_m, read from the nonzero structure constants."""
    field = E.field
    add, mul, zc = field._add, field._mul, field._zero_c
    wc = [x.c for x in w]
    rows = []
    for sci in E.sc:
        row = {}
        for j, pairs in enumerate(sci):
            acc = zc
            for m, c in pairs:
                if wc[m] != zc:
                    acc = add(acc, mul(c.c, wc[m]))
            row[j] = acc
        rows.append(row)
    return Matrix._wrap(field, E.dim, E.dim, rows)


def _trace_form_kernel(E: OrdAlgebra) -> list:
    """Kernel of the trace form (x, y) -> tr(xy) of the left regular
    representation: the form of the functional w = the traces."""
    return _form(E, E._nat_traces()).kernel_basis()


def _radical_chain(E: OrdAlgebra) -> list:
    """Cohen-Ivanyos-Wales: the radical is the last of the spaces
    J_0 = ker(trace form) and J_l = {x in J_{l-1} : g_l(xy) = 0 for all
    y in J_{l-1}}, taken while p^l <= n = dim E; g_l(x) is the
    coefficient of lambda^(n - p^l) in charpoly(L_x), L_x the left
    regular representation, faithful as E has a unit.  In characteristic
    0 the chain ends at level 0: the kernel of the trace form is the
    radical there (Dickson).

    On an End algebra of `modcat.EndData` this is the chain of its
    natural representation on the label components of the sum of the
    P_j.  `free_module_end` and `bimodule_end_algebra` build one P_j per
    label a_j, on a simple generator, and by the unit laws every label
    of a carrier is a generator.  Restriction along the unit,
    f -> f o u_j (`EndData`'s R_ij; Tensor Categories, 7.8), carries the
    natural block at a_j onto L_x on the left ideal E e_j, a union of
    classes of `_blocks`.  So the traces, every truncated characteristic
    polynomial and n agree, and with them the trace form and every Gram
    matrix below.

    By the lemma of Cohen, Ivanyos and Wales (Finding the radical of an
    algebra of linear transformations, JPAA 117-118, 1997), g_l is
    p^l-semilinear on the ideal J_{l-1}: g_l(x + c y) = g_l(x) +
    c^(p^l) g_l(y).  So g = sigma^(-l) o g_l, sigma the Frobenius, is
    linear there and fixed by its values at the basis z_t of J_{l-1}: a
    level costs one truncated characteristic polynomial per basis vector,
    each keeping its p^l + 1 top coefficients.  Any functional w on E
    with w(z_t) = g(z_t), from one solve, gives the level's Gram matrix
    g(z_a z_b) = C T_w C^T, C the rows z_t and T_w the form of w, built
    as the trace form is (level 0 is w = the traces).  The kernel of the
    Gram matrix, times C, is J_l."""
    field = E.field
    p = field.char
    current = _trace_form_kernel(E)        # level 0
    level = 1
    while p and current and p ** level <= E.dim:
        # the coefficient of lambda^(n - p^level), made linear
        g = [_frob_inverse(_charpoly_of_blocks(E._rep_blocks_of_vec(z),
                                               p ** level)[0], level)
             for z in current]
        rows = Matrix(field, current)
        gram = rows @ _form(E, rows.solve(g)) @ rows.transpose()
        kernel = gram.kernel_basis()
        if not kernel:
            return []
        basis = Matrix(field, kernel) @ rows
        current = [basis.row(i) for i in range(basis.rows)]
        level += 1
    return current


def _lin_comb(field, vectors, coords):
    """sum_k coords[k] vectors[k], as one product: the 1 x m row of
    coefficients times the m x n matrix of the vectors."""
    return (Matrix(field, [coords]) @ Matrix(field, vectors)).row(0)


def is_semisimple(E: OrdAlgebra) -> bool:
    return not radical(E)


# ---------------------------------------------------------------------------
# center, minimal polynomials, idempotents

def center(E: OrdAlgebra) -> list:
    """Basis of the center: the kernel of x -> ([x, b_i])_i, whose column
    k holds b_k b_i - b_i b_k for every i."""
    n, sc = E.dim, E.sc

    def commutators():
        for k in range(n):
            for i in range(n):
                for l, c in sc[k][i]:
                    yield i * n + l, k, c
                for l, c in sc[i][k]:
                    yield i * n + l, k, -c
    return Matrix.from_entries(E.field, n * n, n, commutators()).kernel_basis()


def min_poly_of_element(E: OrdAlgebra, x) -> Poly:
    """Minimal polynomial of x in the algebra."""
    return _krylov_min_poly(E.field, E.unit, lambda v: E.mult_vec(v, x))


def _krylov_min_poly(field, start, step) -> Poly:
    """Monic polynomial of the first linear dependence in the sequence
    start, step(start), step(step(start)), ... of vectors."""
    v = start
    space = RowSpace(field, len(v))
    powers = []
    while space.add(v):
        powers.append(v)
        v = step(v)
    sol = Matrix.from_cols(field, powers).solve(v)
    return Poly(field, [-c for c in sol] + [field.one()])


def _eval_poly_in_algebra(E: OrdAlgebra, pol: Poly, x, unit):
    """pol(x unit) in unit E unit, for an idempotent unit commuting with x."""
    acc = [E.field.zero()] * E.dim
    for c in reversed(pol.coeffs):
        acc = E.mult_vec(acc, x)
        acc[0:E.dim] = [a + c * u for a, u in zip(acc, unit)]
    return acc


def _candidate_elements(E: OrdAlgebra, basis_vectors):
    """Deterministic ladder: basis elements, then u + c v for each pair
    and u + c v + c' w for each triple, in index order, with small c, c'."""
    yield from basis_vectors
    small = [E.field.scalar(c) for c in (1, -1, 2, -2, 3, -3)]
    for u, v in combinations(basis_vectors, 2):
        for c in small:
            yield [a + c * b for a, b in zip(u, v)]
    for u, v, w in combinations(basis_vectors, 3):
        for c1, c2 in product(small[:4], repeat=2):
            yield [a + c1 * b + c2 * d for a, b, d in zip(u, v, w)]


def central_idempotents(E: OrdAlgebra) -> list:
    """Central primitive idempotents of a semisimple algebra: split by the
    first ladder element whose minimal polynomial has degree dim Z, or
    else by each basis element of the center in turn (lemma, fact (2))."""
    if radical(E):
        raise NotSemisimple("central idempotents require a semisimple algebra")
    zc = center(E)
    for cand in _candidate_elements(E, zc):
        mu = min_poly_of_element(E, cand)
        if mu.degree == len(zc):
            return _split(E, E.unit, cand, mu)
    parts = [E.unit] if zc else []
    for z in zc:
        parts = [f for e in parts for f in _split(E, e, z, _krylov_min_poly(
            E.field, e, lambda v: E.mult_vec(v, z)))]
    return parts


def _split(E, e, x, mu) -> list:
    """The idempotents that split the central idempotent e by the factors
    of mu, the minimal polynomial of x e in eE."""
    fac = factor(mu)
    if any(m > 1 for _, m in fac):
        raise OrdAlgebraError(
            "separating element has non-squarefree minimal polynomial")
    return [_bezout_idempotent(E, e, x, mu, g) for g, _ in fac]


def _bezout_idempotent(E, e, x, mu, part) -> list:
    """The idempotent of eE[x e] = k[t]/(mu), mu the minimal polynomial
    of x e in eE, that is one modulo `part` and zero modulo mu / part,
    for `part` coprime to mu / part."""
    rest = mu // part
    return _eval_poly_in_algebra(E, rest * rest.inv_mod(part) % mu, x, e)


def lift_idempotent(E: OrdAlgebra, x) -> list:
    """Newton iteration e <- 3e^2 - 2e^3 converging to an idempotent
    congruent to x modulo the nilpotent ideal where x^2 - x lives."""
    e = list(x)
    three = E.field.scalar(3)
    two = E.field.scalar(2)
    for _ in range(E.dim.bit_length() + 2):
        sq = E.mult_vec(e, e)
        if sq == e:
            return e
        cube = E.mult_vec(sq, e)
        e = [three * a - two * b for a, b in zip(sq, cube)]
    sq = E.mult_vec(e, e)
    if sq != e:
        raise OrdAlgebraError("idempotent lifting did not converge")
    return e


def subalgebra_on(field, basis, product, unit) -> OrdAlgebra:
    """The algebra on the span of the vectors `basis`, a space closed
    under `product` that holds `unit`.  Every product and the unit are
    solved against one elimination."""
    dim = len(basis)
    sols = Matrix.from_cols(field, basis).solve_many(
        [product(x, y) for x in basis for y in basis] + [unit])
    if any(c is None for c in sols[:-1]):
        raise OrdAlgebraError("subspace is not closed under product")
    if sols[-1] is None:
        raise OrdAlgebraError("unit does not lie in the subspace")
    sc = [[[(l, c) for l, c in enumerate(sols[i * dim + j])
            if not c.is_zero()] for j in range(dim)] for i in range(dim)]
    return OrdAlgebra(field, dim, sc, sols[-1], validate=False)


# ---------------------------------------------------------------------------
# division test

def is_division(E: OrdAlgebra):
    """True / False / "undetermined", from one scan of the basis
    elements' minimal polynomials.  A commutative E is a field at a basis
    element of degree dim E, or at the end of the scan (fact (1) of the
    module docstring); a non-commutative one goes on to the quaternion
    test."""
    if E.dim == 0 or radical(E):
        return False
    commutative = E.is_commutative()
    if not commutative and E.field.char != 0:
        # Wedderburn's little theorem: finite division rings are fields
        return False
    mus = []
    for i in range(E.dim):
        mu = min_poly_of_element(E, E.basis_vec(i))
        fac = factor(mu)
        if len(fac) > 1 or fac[0][1] > 1:
            # f = gh gives g(b) h(b) = 0 with both factors nonzero: a
            # zero divisor
            return False
        if commutative and mu.degree == E.dim:
            return True
        mus.append(mu)
    if commutative:
        return True
    if len(center(E)) != 1 or E.dim != 4:
        # a center of dimension > 1 could still be that of a division
        # algebra, which the norm-form route does not cover
        return UNDETERMINED
    return _is_division_quaternion(E, mus)


def _is_division_quaternion(E: OrdAlgebra, mus):
    """Division test for a central simple E of dimension 4 in characteristic
    0, the quaternion algebra (a, b), given the minimal polynomials `mus`
    of its basis elements.  A non-central x has minimal polynomial
    t^2 + c_1 t + c_0, i = x + c_1/2 has i^2 = a = c_1^2/4 - c_0, and for
    a != 0 any j != 0 with ij = -ji has j^2 = b, minus the constant term
    of its minimal polynomial; a = 0 or b = 0 makes i or j nilpotent."""
    field = E.field
    # the first basis element that is not a scalar, so not central
    k = next(k for k, mu in enumerate(mus) if mu.degree == 2)
    x = E.basis_vec(k)
    c0, c1, _one = mus[k].coeffs
    half = c1 * field.scalar(Fraction(1, 2))
    a = half * half - c0
    if a.is_zero():
        return False
    i_el = [c + half * u for c, u in zip(x, E.unit)]
    b = -min_poly_of_element(E, _anticommutant(E, i_el)[0]).coeffs[0]
    if b.is_zero():
        return False
    if field.minpoly is not None:
        # the Hilbert symbols below are those over Q
        return UNDETERMINED
    return not _quaternion_splits(a.c[0], b.c[0])


def _anticommutant(E, i_el):
    """Basis of the j with i j = -j i: the kernel of x -> i x + x i."""
    cols = []
    for k in range(E.dim):
        bk = E.basis_vec(k)
        cols.append([v + w for v, w in zip(E.mult_vec(i_el, bk),
                                           E.mult_vec(bk, i_el))])
    return Matrix.from_cols(E.field, cols).kernel_basis()


def _quaternion_splits(a: Fraction, b: Fraction) -> bool:
    """Whether the rational quaternion algebra (a, b) is split, via Hilbert
    symbols at all places."""
    if a == 0 or b == 0:
        raise OrdAlgebraError("degenerate quaternion parameters")
    if _hilbert_infinity(a, b) == -1:
        return False
    primes = set(_prime_divisors(a)) | set(_prime_divisors(b)) | {2}
    for p in primes:
        if _hilbert_p(a, b, p) == -1:
            return False
    return True


def _prime_divisors(q: Fraction):
    out = set()
    for n in (abs(q.numerator), q.denominator):
        d = 2
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                while n % d == 0:
                    n //= d
            d += 1
        if n > 1:
            out.add(n)
    return out


def _hilbert_infinity(a, b):
    return -1 if (a < 0 and b < 0) else 1


def _val_unit(q: Fraction, p: int):
    """(v, u) with q = p^v * u, u a p-unit (as a Fraction)."""
    v = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Fraction(num, den)


def _legendre_unit(u: Fraction, p: int) -> int:
    n = (u.numerator * pow(u.denominator, -1, p)) % p
    s = pow(n, (p - 1) // 2, p)
    return -1 if s == p - 1 else 1


def _hilbert_p(a: Fraction, b: Fraction, p: int) -> int:
    al, u = _val_unit(a, p)
    be, w = _val_unit(b, p)
    if p != 2:
        eps = (p - 1) // 2
        sign = (-1) ** (al * be * eps)
        res = sign * (_legendre_unit(u, p) ** be) * (_legendre_unit(w, p) ** al)
        return 1 if res == 1 else -1
    # p = 2
    def eps2(x: Fraction) -> int:
        n = (x.numerator * pow(x.denominator, -1, 8)) % 8
        return ((n - 1) // 2) % 2

    def omega2(x: Fraction) -> int:
        n = (x.numerator * pow(x.denominator, -1, 16)) % 16
        return ((n * n - 1) // 8) % 2

    expo = eps2(u) * eps2(w) + al * omega2(w) + be * omega2(u)
    return -1 if expo % 2 == 1 else 1


# ---------------------------------------------------------------------------
# simplicity of a right ideal

def module_is_simple(E: OrdAlgebra, eps):
    """Whether the right ideal eps E of the idempotent eps is a simple
    right E-module; True/False/"undetermined", exact.

    eps E is simple iff eps J = 0 for the radical J and its endomorphism
    algebra, the corner eps E eps, is a division algebra (Lam, A First
    Course in Noncommutative Rings, 21): eps J = 0 makes eps E a module
    over the semisimple E/J, and a semisimple module is simple iff its
    endomorphism algebra is a division algebra."""
    if E.mult_vec(eps, eps) != list(eps):
        raise OrdAlgebraError("eps is not an idempotent")
    if all(c.is_zero() for c in eps):
        return False
    for r in radical(E):
        if any(not c.is_zero() for c in E.mult_vec(eps, r)):
            return False
    return is_division(corner(E, eps)[0])


def corner(E: OrdAlgebra, e) -> tuple:
    """(eEe, basis): the corner algebra of the idempotent e, with unit e,
    on the reduced echelon basis of the span of the e b_i e.  For a
    central e this is the block eE."""
    space = RowSpace(E.field, E.dim)
    for i in range(E.dim):
        space.add(E.mult_vec(e, E.mult_vec(E.basis_vec(i), e)))
    basis = space.basis()
    return subalgebra_on(E.field, basis, E.mult_vec, e), basis


def block_primitive_idempotent(E: OrdAlgebra, e) -> list:
    """A primitive idempotent of E below the idempotent e whose corner eEe
    is simple (a block zE, or a corner of a simple block): one of eEe,
    embedded back into E."""
    B, basis = corner(E, e)
    return _lin_comb(E.field, basis, primitive_idempotent(B))


def primitive_idempotent(B: OrdAlgebra) -> list:
    """A primitive idempotent of a semisimple simple block: the unit of a
    division algebra (`is_division`), else split by the first ladder
    element whose minimal polynomial mu is reducible.  A commutative
    block that is not a field is not simple.  A Bezout idempotent is
    neither 0 nor 1: it is (1, 0) in k[t]/(mu), inside B.  With mu = g^e,
    e > 1, g(x) is nonzero, since deg g < deg mu."""
    if B.dim == 1 or is_division(B) is True:
        return list(B.unit)
    if B.is_commutative():
        raise OrdAlgebraError("block is not simple (commutative splits)")
    for cand in _candidate_elements(B, [B.basis_vec(i) for i in range(B.dim)]):
        mu = min_poly_of_element(B, cand)
        fac = factor(mu)
        if len(fac) >= 2:
            g, e1 = fac[0]
            gpart = g
            for _ in range(e1 - 1):
                gpart = gpart * g
            return block_primitive_idempotent(
                B, _bezout_idempotent(B, B.unit, cand, mu, gpart))
        if len(fac) == 1 and fac[0][1] > 1:
            nil = _eval_poly_in_algebra(B, fac[0][0], cand, B.unit)
            return block_primitive_idempotent(
                B, _idempotent_from_nilpotent(B, nil))
    raise SeparatingElementNotFound(
        "bounded search found no splitting of the block")


def _idempotent_from_nilpotent(B: OrdAlgebra, z):
    """Right identity of the left ideal B z of a nonzero nilpotent z: an
    idempotent other than 0 and 1, since B z holds z and not 1.
    In a semisimple B the ideal is B f for an idempotent f, which is a
    right identity of it, so the solve below is feasible."""
    field = B.field
    ideal = RowSpace(field, B.dim)
    for i in range(B.dim):
        ideal.add(B.mult_vec(B.basis_vec(i), z))
    basis = ideal.basis()
    # e = sum c_v v in the ideal with x e = x for every basis x: column
    # k holds x v_k for every x
    cols = [[c for x in basis for c in B.mult_vec(x, v)] for v in basis]
    sol = Matrix.from_cols(field, cols).solve([c for x in basis for c in x])
    return _lin_comb(field, basis, sol)


# ---------------------------------------------------------------------------
# separability of ordinary algebras

def is_separable_over_k(E: OrdAlgebra) -> bool:
    """Whether E has a separability idempotent e = sum e_ij b_i (x) b_j:
    m(e) = 1 and b_a e = e b_a for every a (Pierce, Associative Algebras
    10.2).  Column (i, j) of the system is the image of b_i (x) b_j:
    b_i b_j, then (b_a b_i) (x) b_j - b_i (x) (b_j b_a) for each a."""
    n, sc = E.dim, E.sc

    def images():
        for i in range(n):
            for j in range(n):
                col = i * n + j
                for l, c in sc[i][j]:
                    yield l, col, c
                for a in range(n):
                    at = n + a * n * n
                    for l, c in sc[a][i]:
                        yield at + l * n + j, col, c
                    for l, c in sc[j][a]:
                        yield at + i * n + l, col, -c
    system = Matrix.from_entries(E.field, n + n ** 3, n * n, images())
    return system.solve(E.unit + [E.field.zero()] * n ** 3) is not None
