"""Modules and bimodules over an algebra inside a category presentation.

A module is a right module, x (x) A -> x, as in every criterion of the
paper; the left dual A^L of A is the right module `module_dual(A)`,
its action written from the nonzeros of the multiplication and the
F-symbols of the associators.

Everything reduces to exact linear algebra, and each map the analysis
reads is written from nonzeros through the fusion index tables, with no
morphism composed over the large tensor products: A^L's action; the
two-sided action right o (left (x) 1) of a bimodule; hom spaces between
modules, the kernels of intertwining systems assembled from the
actions' nonzeros; and the block representation of an End algebra,
each basis map's blocks placed.  The tests pin each one, matrix for
matrix, to the composed construction it replaces.  Internal homs are
the nullities of those systems through the adjunction
Hom(a, [x, y]) = Hom_A(a (x) x, y) (Etingof, Gelaki, Nikshych and
Ostrik, Tensor Categories, 7.9); and endomorphism algebras of
projective generators land in `ordalg` where radicals and idempotents
decide all structure questions.
"""

from functools import cached_property

from .algebra import AlgebraPres
from .fincat import (Mor, Obj, ValidationFailure, ValidationReport,
                     hom_coords, hom_dim, hom_offsets, mor_from_coords)
from .linalg import Matrix, SingularMatrix
from .ordalg import (NotSemisimple, OrdAlgebra, block_primitive_idempotent,
                     central_idempotents, corner, radical)


class ModulePres:
    """Right module: carrier x with action x (x) A -> x.  `generator` is
    the object a of a free module a (x) A, and None for any other module."""

    __slots__ = ("algebra", "cat", "carrier", "action", "generator")

    def __init__(self, algebra: AlgebraPres, carrier: Obj, action: Mor):
        self.generator = None
        self.algebra = algebra
        self.cat = algebra.cat
        self.carrier = carrier
        if action.src != self.cat.tensor(carrier, algebra.carrier) \
                or action.dst != carrier:
            raise ValidationFailure("module action has the wrong hom space")
        self.action = action

    def __repr__(self):
        return f"ModulePres(carrier={self.carrier!r})"

    def unit_map(self) -> Mor:
        """u: a -> a (x) A, (id (x) eta) o rho^-1, for the free module on
        a = `generator`: f -> f o u is the bijection
        Hom_A(a (x) A, y) -> Hom(a, y)."""
        cat, a = self.cat, self.generator
        return (cat.tensor_mor(cat.id(a), self.algebra.unit)
                @ cat.unitor_right_inv(a))


class BimodulePres:
    """Bimodule: carrier y with a left action A (x) y -> y and a right
    action y (x) A -> y.  `generator` is the object a of a free bimodule
    (A (x) a) (x) A, and None for any other bimodule."""

    def __init__(self, algebra: AlgebraPres, carrier: Obj,
                 left_action: Mor, right_action: Mor):
        self.generator = None
        self.algebra = algebra
        self.cat = algebra.cat
        self.carrier = carrier
        A = algebra.carrier
        if left_action.src != self.cat.tensor(A, carrier) \
                or left_action.dst != carrier:
            raise ValidationFailure("left action has the wrong hom space")
        if right_action.src != self.cat.tensor(carrier, A) \
                or right_action.dst != carrier:
            raise ValidationFailure("right action has the wrong hom space")
        self.left_action = left_action
        self.right_action = right_action

    def __repr__(self):
        return f"BimodulePres(carrier={self.carrier!r})"

    def unit_map(self) -> Mor:
        """u: a -> (A (x) a) (x) A, ((eta (x) id) (x) eta) o (lambda^-1 (x)
        id) o rho^-1, for the free bimodule on a = `generator`: f -> f o u
        is the bijection Hom_{A|A}(A (x) a (x) A, y) -> Hom(a, y)."""
        cat, a, eta = self.cat, self.generator, self.algebra.unit
        # the first two factors as one tensor product of composites
        left = cat.tensor_mor(eta, cat.id(a)) @ cat.unitor_left_inv(a)
        return cat.tensor_mor(left, eta) @ cat.unitor_right_inv(a)

    @cached_property
    def action(self) -> Mor:
        """The two-sided action (A (x) y) (x) A -> y, right o (left (x) 1),
        written once per bimodule from the two actions' nonzeros, with no
        `tensor_mor` and no composition.

        left (x) 1 sends the basis vector (d, q, z, r, nu) of (A (x) y)
        (x) A to the sum of left[q', q] times (d, q', z, r, nu) of
        y (x) A, over the nonzeros of left's block at d.  So each nonzero
        right[i, t] at e, whose column t is (d, q', z, r, nu) in the
        fusion basis of y (x) A, adds right[i, t] left[q', q] at row i
        and column (d, q, z, r, nu), for each nonzero of row q' of left's
        block at d.  Repeated positions add up, as in the product, and a
        factor one is not multiplied out."""
        cat, c, y = self.cat, self.algebra.carrier, self.carrier
        cy = cat.tensor(c, y)
        src = cat.tensor(cy, c)
        yc_basis, src_index = cat.fusion_basis(y, c), cat.fusion_index(cy, c)
        left_rows = {d: [blk.row_nonzero(q) for q in range(blk.rows)]
                     for d, blk in self.left_action.blocks.items()}
        one = cat.field.one()
        blocks = {}
        for e, blk in self.right_action.blocks.items():
            basis, index = yc_basis[e], src_index[e]
            entries = []
            for i, t, val in blk.nonzero():
                d, q2, z, r, nu = basis[t]
                if d not in left_rows:
                    continue
                row = left_rows[d][q2]
                if val != one:
                    row = [(q, val * x) for q, x in row]
                entries += [(i, index[(d, q, z, r, nu)], x) for q, x in row]
            blocks[e] = Matrix.from_entries(cat.field, y.mult(e),
                                            src.mult(e), entries)
        return Mor(cat, src, y, blocks)


def validate_module(m: ModulePres) -> ValidationReport:
    rep = ValidationReport("module")
    cat = m.cat
    A = m.algebra
    x = m.carrier
    c = A.carrier
    rep.checks_run += 1
    lhs = m.action @ cat.tensor_mor(m.action, cat.id(c))
    rhs = m.action @ cat.tensor_mor(cat.id(x), A.mult) \
        @ cat.associator(x, c, c)
    if lhs != rhs:
        rep.fail("module associativity fails")
        return rep
    rep.checks_run += 1
    if m.action @ cat.tensor_mor(cat.id(x), A.unit) != cat.unitor_right(x):
        rep.fail("module unit law fails")
    return rep


# ---------------------------------------------------------------------------
# constructions

def free_module(a: Obj, A: AlgebraPres) -> ModulePres:
    """The free module a (x) A, generated by a."""
    out = obj_tensor_module(a, algebra_as_module(A))
    out.generator = a
    return out


def algebra_as_module(A: AlgebraPres) -> ModulePres:
    return ModulePres(A, A.carrier, A.mult)


def obj_tensor_module(a: Obj, x: ModulePres) -> ModulePres:
    """The left action of the ambient category on right modules:
    a (x) x with action through the associator."""
    cat = x.cat
    c = x.algebra.carrier
    carrier = cat.tensor(a, x.carrier)
    action = (cat.tensor_mor(cat.id(a), x.action)
              @ cat.associator(a, x.carrier, c))
    return ModulePres(x.algebra, carrier, action)


def module_dual(A: AlgebraPres) -> ModulePres:
    """A^L: the right module on the left dual c^v of the carrier c of A,
    whose action c^v (x) A -> c^v transposes the multiplication m (the
    left regular action of A) through the left duality of c:

        l o (ev (x) 1) o ((1 (x) m) (x) 1) o (alpha (x) 1) o alpha^-1
          o (1 (x) coev) o r^-1  :  c^v (x) c -> c^v.

    It is written from the nonzeros of m, with no morphism composed.
    Follow the basis vector (a*, j, b, k, mu) of c^v (x) c at g through
    the chain: r^-1 and coev put each pair (x, l, x*, l) of c (x) c^v
    beside it; alpha^-1 (F^-1 at g, x, x*, g) and alpha (F at a*, b, x,
    e) bring (b, k) next to (x, l); m takes them to c at a; and ev keeps
    only row j at a with a* the dual of a, over e the right unit of a,
    which leaves e (x) x* at g: so x* = g.  Hence each nonzero
    m[j, (b, k, x, l, rho)] of m's block at a adds, at row l of the block
    at g = x* and column (a*, j, b, k, mu), for each mu,

        m[j, t] ev_a coev_x sum_nu F^-1[g, x, g, g][(u, 0, 0)][(e, nu, 0)]
                                  F[a*, b, x, e][(g, mu, nu)][(a, rho, 0)]

    with ev_a and coev_x the coefficients of (a*, j, a, j) in ev and of
    (x, l, x*, l) in coev, u the left unit of x (where coev puts that
    pair; r^-1 puts g beside the right unit of g, so the term needs the
    two to agree, and the path (u, 0, 0) exists only then), and
    nu < N(g, x, e).
    The tests pin it to the composed chain, morphism for morphism."""
    cat = A.cat
    c = A.carrier
    cv = cat.dual_obj(c)
    src = cat.tensor(cv, c)
    src_index = cat.fusion_index(cv, c)
    cc_basis = cat.fusion_basis(c, c)
    coev, coev_index = cat.coev_left(c), cat.fusion_index(c, cv)
    ev = cat.ev_left(c)
    dual, zero = cat.dualR, cat.field.zero()
    entries = {}
    for a, blk in A.mult.blocks.items():
        av, e = dual[a], cat.right_unit_of(a)
        for j, t, val in blk.nonzero():
            b, k, x, l, rho = cc_basis[a][t]
            g, u = dual[x], cat.left_unit_of(x)
            weight = (val * ev.block(e)[0, src_index[e][(av, j, a, j, 0)]]
                     * coev.block(u)[coev_index[u][(x, l, g, l, 0)], 0])
            for mu in range(cat.N(av, b, g)):
                f = sum((cat.f_entry(g, x, g, g, (e, nu, 0), (u, 0, 0), True)
                         * cat.f_entry(av, b, x, e, (g, mu, nu), (a, rho, 0),
                                       False)
                         for nu in range(cat.N(g, x, e))), zero)
                entries.setdefault(g, []).append(
                    (l, src_index[g][(av, j, b, k, mu)], weight * f))
    return ModulePres(A, cv, Mor(cat, src, cv, {
        g: Matrix.from_entries(cat.field, cv.mult(g), src.mult(g), es)
        for g, es in entries.items()}))


# ---------------------------------------------------------------------------
# hom solver

def _hom_system(x: ModulePres, y: ModulePres) -> Matrix:
    """The matrix of phi -> phi o act_x - act_y o (phi (x) 1) from
    Hom(X, Y) to Hom(X (x) c, Y), rows and columns in `hom_coords` order,
    for the carriers X, Y of x, y and c of A.

    It is written from the actions' nonzeros, with no morphism composed.
    The coordinate phi = E_(e; r, s) puts row s of act_x's block at e
    into row r of the block at e.  It also subtracts each nonzero (i, t)
    of act_y's block at f whose column t is (e, r, b, u, mu) in the
    fusion basis of Y (x) c, at row i and at the column of
    (e, s, b, u, mu) in the fusion index of X (x) c.  Repeated positions
    add up."""
    A, B = x.algebra, y.algebra
    if A is not B and (A.mult != B.mult or A.unit != B.unit):
        raise ValidationFailure("modules over different algebras")
    cat = x.cat
    X, Y, XC = x.carrier, y.carrier, x.action.src
    cols, rows = hom_offsets(X, Y), hom_offsets(XC, Y)
    entries = []
    for e, blk in x.action.blocks.items():
        if e not in cols:
            continue
        nx, nxc, c0, r0 = X.mult(e), XC.mult(e), cols[e], rows[e]
        for s, j, val in blk.nonzero():
            entries += [(r0 + r * nxc + j, c0 + r * nx + s, val)
                        for r in range(Y.mult(e))]
    yc_basis = cat.fusion_basis(Y, A.carrier)
    xc_index = cat.fusion_index(X, A.carrier)
    for f, blk in y.action.blocks.items():
        if f not in rows:
            continue
        index, basis = xc_index[f], yc_basis[f]
        nxc, r0 = XC.mult(f), rows[f]
        for i, t, val in blk.nonzero():
            e, r, b, u, mu = basis[t]
            if e not in cols:
                continue
            nx = X.mult(e)
            neg, c0 = -val, cols[e] + r * nx
            entries += [(r0 + i * nxc + index[(e, s, b, u, mu)], c0 + s, neg)
                        for s in range(nx)]
    return Matrix.from_entries(cat.field, hom_dim(XC, Y), hom_dim(X, Y),
                               entries)


def hom_basis(x: ModulePres, y: ModulePres) -> list:
    """Basis of module maps x -> y: the kernel of the constraint
    phi o act_x = act_y o (phi (x) 1), assembled by `_hom_system` from the
    actions' nonzeros through the fusion index tables.  The tests pin it,
    map for map, to the same kernel of the composed constraint."""
    return [mor_from_coords(x.cat, x.carrier, y.carrier, v)
            for v in _hom_system(x, y).kernel_basis()]


# ---------------------------------------------------------------------------
# endomorphism algebras of lists of (bi)modules

class EndData:
    """The algebra (+)_{i,j} Hom(P_j, P_i) under composition, for free
    (bi)modules P_j on simple objects a_j (their `generator`).

    basis[k] = (i, j, Mor P_j -> P_i); `algebra` is the OrdAlgebra with a
    faithful block representation.  `hom_fn(sources, dst)` gives the
    block's basis of maps P_j -> dst for each P_j of `sources`, so a hom
    function can share work between the blocks of one destination.  Maps
    are read by restriction along the unit u_j: a_j -> P_j of each
    generator (Etingof, Gelaki, Nikshych and Ostrik, Tensor Categories,
    7.8): f -> f o u_j is a bijection from the maps P_j -> P_i onto
    Hom(a_j, P_i), so the restrictions of a block's basis form a square
    invertible matrix R_ij, and the coordinates of b_1 o b_2 are R^-1
    times those of b_1 o (b_2 o u_j), a product with one column per map
    instead of a composition and a solve.  Every R_ij is computed; where
    it is the identity, because the block's basis is the preimage of the
    unit basis of Hom(a_j, P_i) (as `free_bimodule_maps` builds it:
    f_psi o u = psi), both factors are skipped and the coordinates are the
    entries of b_1 o (b_2 o u_j) themselves.

    The algebra is associative by construction, so it is built without
    the triple check of `OrdAlgebra(validate=True)` (the tests run that
    check on every End algebra they build).  The certificate, for a
    category whose pentagon holds and a valid algebra A, both of which
    `structure.analyze` checks first:

    * every basis map is a module map: `hom_basis` returns exactly the
      kernel of the module constraint, whose matrix it writes from the
      actions' nonzeros (the tests check it equal, column for column, to
      the matrix of the composed constraint), and `free_bimodule_maps`
      returns act o (1 (x) psi (x) 1), a bimodule map because the
      actions of a free bimodule are associative when A is and the
      pentagon holds;
    * composites of module maps are module maps, by the interchange law,
      so each b_1 o b_2 lies in the span of its block;
    * restriction along the unit is injective on a block, since each R_ij
      is checked per block: equal to the identity, or inverted, a
      singular one refused, so the coordinates read through R^-1 (or
      directly, where R = 1) are those of b_1 o b_2 itself.

    Hence `sc` holds the coordinates of composition, which is
    associative; the unit is the coordinate vector of the identities,
    each rebuilt from its coordinates and compared with the identity;
    and `rep`, which sends each map to its own blocks, is faithful, as
    the invertible R_ij make each block's basis linearly independent.
    """

    def __init__(self, modules, hom_fn, field):
        for p in modules:
            if p.generator is None or p.generator.total() != 1:
                raise ValidationFailure("End data needs free modules on "
                                        "simple objects")
        self.modules = modules
        self.field = field
        # the labels of the blocks of the natural representation
        self.labels = list(dict.fromkeys(a for p in modules
                                         for a in p.carrier.support))
        self._units = [p.unit_map() for p in modules]
        self.blocks = {}
        # (i, j) -> (R_ij, R_ij^-1), for each nonempty block whose
        # restrictions are not the unit basis
        self._restriction = {}
        basis = []
        for i, pi in enumerate(modules):
            for j, (pj, hs) in enumerate(zip(modules, hom_fn(modules, pi),
                                             strict=True)):
                self.blocks[(i, j)] = hs
                basis += [(i, j, m) for m in hs]
                dim = hom_dim(pj.generator, pi.carrier)
                if len(hs) != dim:
                    raise ValidationFailure(
                        f"block ({i}, {j}): {len(hs)} maps for a restriction "
                        f"space of dimension {dim}")
                if not hs:
                    continue
                rest = Matrix.from_cols(
                    field, [(m @ self._units[j]).coords() for m in hs])
                if rest == Matrix.identity(field, dim):
                    continue
                try:
                    self._restriction[(i, j)] = rest, rest.inv()
                except SingularMatrix:
                    raise ValidationFailure(
                        f"block ({i}, {j}): the restrictions along the unit "
                        "are linearly dependent") from None
        self.basis = basis
        self.algebra = self._build_algebra()

    def express(self, i, j, mor: Mor) -> list:
        """Coordinates of a module map P_j -> P_i in the chosen basis,
        read from its restriction along the unit; the map is rebuilt from
        its coordinates, so one outside the block is refused."""
        return self._read(i, j, mor, mor @ self._units[j])

    def _read(self, i, j, mor: Mor, restricted: Mor) -> list:
        """`express` for a map whose restriction mor o u_j is given."""
        hs = self.blocks[(i, j)]
        if not hs:
            if not mor.is_zero():
                raise ValidationFailure("morphism outside the hom space")
            return []
        out = restricted.coords()
        if (i, j) in self._restriction:
            inv = self._restriction[(i, j)][1]
            out = (inv @ Matrix.from_cols(self.field, [out])).col(0)
        if Mor.combine(out, hs) != mor:
            raise ValidationFailure("morphism outside the hom space")
        return out

    def diagonal_unit(self, keep) -> list:
        """The unit of E restricted to the blocks (j, j) for j in `keep`:
        the sum of the identities of those free modules."""
        zero = self.field.zero()
        return [c if i == j and j in keep else zero
                for c, (i, j, _m) in zip(self.algebra.unit, self.basis)]

    def _build_algebra(self) -> OrdAlgebra:
        field = self.field
        n = len(self.basis)
        sc = [[[] for _ in range(n)] for _ in range(n)]
        # positions of each block in the flat basis
        pos = {}
        for k, (i, j, _m) in enumerate(self.basis):
            pos.setdefault((i, j), []).append(k)
        gens = [p.generator.support[0] for p in self.modules]
        # b1 o b2 for b1 in block (i1, j1) and b2 in block (j1, j2)
        # restricts to b1 o (b2 o u_j2), on the one label of a_j2: the
        # column of b2 in R_(i1,j2)^-1 (b1 R_(j1,j2)) holds its coordinates,
        # and a block that restricts to the unit basis has R = 1
        restriction = self._restriction
        for k1, (i1, j1, b1) in enumerate(self.basis):
            for j2, a in enumerate(gens):
                if (j1, j2) not in pos or (i1, j2) not in pos:
                    continue
                prod = b1.block(a)
                if (j1, j2) in restriction:
                    prod = prod @ restriction[(j1, j2)][0]
                if (i1, j2) in restriction:
                    prod = restriction[(i1, j2)][1] @ prod
                left, right = pos[(i1, j2)], pos[(j1, j2)]
                row = sc[k1]
                for r, t, c in prod.nonzero():
                    row[right[t]].append((left[r], c))
        unit = [field.zero()] * n
        for i, p in enumerate(self.modules):
            # the identity of P_i restricts to u_i itself
            coords = self._read(i, i, p.cat.id(p.carrier), self._units[i])
            for idx, c in zip(pos[(i, i)], coords):
                unit[idx] = c
        rep = self._natural_rep()
        return OrdAlgebra(field, n, sc, unit, rep=rep, validate=False)

    def _natural_rep(self):
        """Block representation: each basis morphism as a matrix on the
        label-components of the direct sum of the underlying objects.

        A map P_j -> P_i fills, at each label a, the rows of P_i and the
        columns of P_j: its block at a is `placed` there, and a label
        where it has no block gets that label's one zero matrix."""
        field = self.field
        offsets = []
        sizes = {a: 0 for a in self.labels}
        for p in self.modules:
            offsets.append({a: sizes[a] for a in self.labels})
            for a in self.labels:
                sizes[a] += p.carrier.mult(a)
        zeros = {a: Matrix.zeros(field, n, n) for a, n in sizes.items()}
        return [[m.blocks[a].placed(sizes[a], sizes[a], offsets[i][a],
                                    offsets[j][a])
                 if a in m.blocks else zeros[a] for a in self.labels]
                for (i, j, m) in self.basis]


def end_algebra(modules) -> EndData:
    """Endomorphism data of a list of free right modules over one algebra,
    each on a simple object."""
    if not modules:
        raise ValidationFailure("need at least one module")
    field = modules[0].cat.field
    return EndData(list(modules), hom_bases, field)


def hom_bases(srcs, dst: ModulePres) -> list:
    """The `hom_basis` of each module of `srcs` into `dst`, the hom
    function of `EndData` for modules."""
    return [hom_basis(x, dst) for x in srcs]


def free_module_end(A: AlgebraPres) -> EndData:
    """Endomorphism data of the free-module generator: the nonzero free
    modules a (x) A over the simple labels a, in label order."""
    frees = [free_module(A.cat.simple(a), A) for a in A.cat.labels]
    return end_algebra([f for f in frees if not f.carrier.is_zero()])


# ---------------------------------------------------------------------------
# internal hom

def internal_hom(x: ModulePres, y: ModulePres) -> Obj:
    """The object [x, y] for right modules x, y over one algebra.

    It represents a -> Hom_A(a (x) x, y) (Etingof, Gelaki, Nikshych and
    Ostrik, Tensor Categories, 7.9), so its multiplicity at a simple a
    is the dimension of the module maps a (x) x -> y, the nullity of
    their constraint."""
    cat = x.cat
    mult = {}
    for a in cat.labels:
        m = _hom_system(obj_tensor_module(cat.simple(a), x), y)
        mult[a] = m.cols - m.rank()
    return Obj(cat, mult)


# ---------------------------------------------------------------------------
# idempotent images of modules

def split_idempotent_module(P: ModulePres, e: Mor) -> ModulePres:
    """Image of an idempotent module endomorphism, as a module."""
    cat = P.cat
    q, incl_m, proj_m = _split_idempotent_obj(cat, P.carrier, e)
    c = P.algebra.carrier
    action = proj_m @ P.action @ cat.tensor_mor(incl_m, cat.id(c))
    return ModulePres(P.algebra, q, action)


# ---------------------------------------------------------------------------
# simple modules

class SimpleModulesResult:
    def __init__(self, simples, mult_in_A, ends):
        self.simples = simples          # list of ModulePres
        self.mult_in_A = mult_in_A      # multiplicities in A
        self.ends = ends                # corners e_i E e_i


def simple_modules(end: EndData) -> SimpleModulesResult:
    """Simple right modules of a semisimple A, one per block zE of
    E = End(P) for the free generator P = (+)_j P_j; `end` is
    `free_module_end(A)`.  A non-semisimple E raises `NotSemisimple`.

    Each is x = e P_j for the first free module P_j whose identity 1_j
    the central idempotent z does not kill, and a primitive idempotent e
    below z 1_j: the corner of z 1_j in the simple block zE is simple,
    and e lies in the block (j, j) of E, the module maps P_j -> P_j.
    The simples of one block are isomorphic, so any j gives the same x.

    `ends` holds End(x) = eEe (Pierce 1982), the corner of e in E, and
    the multiplicity of x in A is dim Hom_A(A, x) / dim End(x), where
    Hom_A(A, x) = Hom(1, x) by the free-forget adjunction."""
    frees = end.modules
    A = frees[0].algebra
    E = end.algebra
    if radical(E):
        raise NotSemisimple("simple modules require a semisimple algebra")
    simples, mult_in_A, ends = [], [], []
    for z in central_idempotents(E):
        for j in range(len(frees)):
            zj = E.mult_vec(z, end.diagonal_unit({j}))
            if any(not c.is_zero() for c in zj):
                break
        e = block_primitive_idempotent(E, zj)
        coeffs = [c for c, (i, k, _m) in zip(e, end.basis) if i == k == j]
        sub = split_idempotent_module(
            frees[j], Mor.combine(coeffs, end.blocks[(j, j)]))
        simples.append(sub)
        ends.append(corner(E, e)[0])
        h = sum(sub.carrier.mult(u) for u in A.cat.unit_components)
        if h % ends[-1].dim != 0:
            raise ValidationFailure("inconsistent multiplicity count")
        mult_in_A.append(h // ends[-1].dim)
    return SimpleModulesResult(simples, mult_in_A, ends)


# ---------------------------------------------------------------------------
# bimodules over A: free generator and its endomorphism algebra

def free_bimodule(A: AlgebraPres, a: Obj) -> BimodulePres:
    """(A (x) a) (x) A with outer multiplications."""
    cat = A.cat
    c = A.carrier
    inner = cat.tensor(c, a)
    carrier = cat.tensor(inner, c)
    # right action: ((A a) A) A -> (A a) (A A) -> (A a) A
    m1 = cat.associator(inner, c, c)
    right = cat.tensor_mor(cat.id(inner), A.mult) @ m1
    # left action: A ((A a) A) -> (A (A a)) A -> (A a) A, through the
    # left action A (A a) -> (A A) a -> A a of A on A a
    inner_left = (cat.tensor_mor(A.mult, cat.id(a))
                  @ cat.associator_inv(c, c, a))
    left = (cat.tensor_mor(inner_left, cat.id(c))
            @ cat.associator_inv(c, inner, c))
    out = BimodulePres(A, carrier, left, right)
    out.generator = a
    return out


def free_bimodule_maps(srcs, dst: BimodulePres) -> list:
    """Bases of the bimodule maps out of free bimodules (A a A) -> dst,
    one list per source in `srcs`, each through the free-forget
    correspondence with Hom(a, dst.carrier).

    The map of psi in the unit basis of Hom(a, y) is act o (id (x) psi (x)
    id) for the two-sided action act = `dst.action`, so its column at the
    basis vector (d, q, z, r, nu) of (A a) A is act's column at
    (d, q', z, r, nu), where psi takes the vector q = (x, p, l, j, mu) of
    A a at d to q' = (x, p, l, i, mu) of A y.  A column of act whose
    vector of A y passes through the label l feeds the sources whose
    generator a carries l, so act's nonzeros are read once for all
    sources."""
    cat = dst.cat
    c, y, act = dst.algebra.carrier, dst.carrier, dst.action
    cy_basis = cat.fusion_basis(c, y)
    act_cols = cat.fusion_basis(cat.tensor(c, y), c)
    # label l -> (a, psi positions, fusion indices of A a and (A a) A,
    # entries per psi) for each source whose generator a carries l
    by_label = {}
    entries = []
    for src in srcs:
        a = src.generator
        psis = {lij: k for k, lij in enumerate(hom_coords(a, y))}
        entries.append([{} for _ in psis])
        feed = (a, psis, cat.fusion_index(c, a),
                cat.fusion_index(cat.tensor(c, a), c), entries[-1])
        for l in a.support:
            by_label.setdefault(l, []).append(feed)
    for e, blk in act.blocks.items():
        # column t of act feeds (entries of psi, column of its map) for
        # each of these
        feeds = []
        for d, q, z, r, nu in act_cols[e]:
            x, p, l, i, mu = cy_basis[d][q]
            feeds.append([(out[psis[(l, i, j)]], src_index[e][
                (d, ca_index[d][(x, p, l, j, mu)], z, r, nu)])
                for a, psis, ca_index, src_index, out in by_label.get(l, ())
                for j in range(a.mult(l))])
        for row, t, val in blk.nonzero():
            for blocks, s in feeds[t]:
                blocks.setdefault(e, []).append((row, s, val))
    return [[Mor(cat, src.carrier, y,
                 {e: Matrix.from_entries(cat.field, y.mult(e),
                                         src.carrier.mult(e), es)
                  for e, es in blocks.items()})
             for blocks in out]
            for src, out in zip(srcs, entries)]


def bimodule_end_algebra(A: AlgebraPres) -> EndData:
    """Endomorphisms of the bimodule projective generator
    (+)_a A (x) a (x) A; its radical decides semisimplicity of the
    bimodule category.  Hom bases come from the free-bimodule
    correspondence; composition and the radical are computed from them."""
    cat = A.cat
    gens = []
    for a in cat.labels:
        b = free_bimodule(A, cat.simple(a))
        if not b.carrier.is_zero():
            gens.append(b)
    return EndData(gens, free_bimodule_maps, cat.field)


def _split_idempotent_obj(cat, T: Obj, e: Mor):
    """(image, inclusion, projection) of the idempotent e of T: at each
    label e = C R, C the pivot columns of e and R the nonzero rows of its
    reduced echelon form, and R C = 1 because e is idempotent."""
    field = cat.field
    iblocks, pblocks = {}, {}
    mults = {}
    for a in T.support:
        m = e.block(a)
        r, pivots = m.rref()
        mults[a] = len(pivots)
        if not pivots:
            continue
        iblocks[a] = Matrix.from_cols(field, [m.col(j) for j in pivots])
        pblocks[a] = Matrix(field, [r.row(i) for i in range(len(pivots))])
    q = Obj(cat, mults)
    return q, Mor(cat, q, T, iblocks), Mor(cat, T, q, pblocks)
