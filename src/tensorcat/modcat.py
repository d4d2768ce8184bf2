"""Modules and bimodules over an algebra inside a category presentation.

A module is a right module, x (x) A -> x, as in every criterion of the
paper; the left dual A^L of A is the right module `module_dual(A)`,
built from the multiplication.

Everything reduces to exact linear algebra: hom spaces between modules
are kernels of intertwining systems, internal homs are read from their
dimensions through the adjunction Hom(a, [x, y]) = Hom_A(a (x) x, y)
(Etingof, Gelaki, Nikshych and Ostrik, Tensor Categories, 7.9), and
endomorphism algebras of projective generators land in `ordalg` where
radicals and idempotents decide all structure questions.
"""

from .algebra import AlgebraPres
from .fincat import (Mor, Obj, ValidationFailure, ValidationReport,
                     hom_coords, hom_dim, hom_unit_basis, mor_from_coords)
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
    __slots__ = ("algebra", "cat", "carrier", "left_action", "right_action",
                 "generator")

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
    """a (x) A with action id (x) mult through the associator."""
    cat = A.cat
    c = A.carrier
    x = cat.tensor(a, c)
    action = (cat.tensor_mor(cat.id(a), A.mult) @ cat.associator(a, c, c))
    out = ModulePres(A, x, action)
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
    whose action c^v (x) A -> c^v transposes the multiplication (the left
    regular action of A) through the left duality of c."""
    cat = A.cat
    c = A.carrier
    cv = cat.dual_obj(c)
    m1 = cat.unitor_right_inv(cat.tensor(cv, c))             # -> (cv c)(x) 1
    m2 = cat.tensor_mor(cat.id(cat.tensor(cv, c)),
                        cat.coev_left(c))                    # -> (cv c)(c cv)
    # -> ((cv c) c) cv -> (cv (c c)) cv
    m3 = (cat.tensor_mor(cat.associator(cv, c, c), cat.id(cv))
          @ cat.associator_inv(cat.tensor(cv, c), c, cv))
    m4 = cat.tensor_mor(cat.tensor_mor(cat.id(cv), A.mult), cat.id(cv))
    m5 = cat.tensor_mor(cat.ev_left(c), cat.id(cv))          # -> 1 (x) cv
    m6 = cat.unitor_left(cv)
    action = m6 @ m5 @ m4 @ m3 @ m2 @ m1
    return ModulePres(A, cv, action)


# ---------------------------------------------------------------------------
# hom solver

def hom_basis(x: ModulePres, y: ModulePres) -> list:
    """Basis of module maps x -> y, by exact kernel computation: the
    phi with phi o act_x = act_y o (phi (x) 1)."""
    A, B = x.algebra, y.algebra
    if A is not B and (A.mult != B.mult or A.unit != B.unit):
        raise ValidationFailure("modules over different algebras")
    cat = x.cat
    basis = hom_unit_basis(cat, x.carrier, y.carrier)
    if not basis:
        return []
    idc = cat.id(A.carrier)
    mat = Matrix.from_cols(cat.field, [
        (phi @ x.action - y.action @ cat.tensor_mor(phi, idc)).coords()
        for phi in basis])
    return [mor_from_coords(cat, x.carrier, y.carrier, v)
            for v in mat.kernel_basis()]


# ---------------------------------------------------------------------------
# endomorphism algebras of lists of (bi)modules

class EndData:
    """The algebra (+)_{i,j} Hom(P_j, P_i) under composition, for free
    (bi)modules P_j on simple objects a_j (their `generator`).

    basis[k] = (i, j, Mor P_j -> P_i); `algebra` is the OrdAlgebra with a
    faithful block representation.  Maps are read by restriction along the
    unit u_j: a_j -> P_j of each generator (Etingof, Gelaki, Nikshych and
    Ostrik, Tensor Categories, 7.8): f -> f o u_j is a bijection from the
    maps P_j -> P_i onto Hom(a_j, P_i), so the restrictions of a block's
    basis form a square invertible matrix R_ij, and the coordinates of
    b_1 o b_2 are R^-1 times those of b_1 o (b_2 o u_j), a product with one
    column per map instead of a composition and a solve.

    The algebra is associative by construction, so it is built without
    the triple check of `OrdAlgebra(validate=True)` (the tests run that
    check on every End algebra they build).  The certificate, for a
    category whose pentagon holds and a valid algebra A, both of which
    `structure.analyze` checks first:

    * every basis map is a module map: `hom_basis` returns exactly the
      kernel of the module constraint, and `free_bimodule_maps` returns
      act o (1 (x) psi (x) 1), a bimodule map because the actions of a
      free bimodule are associative when A is and the pentagon holds;
    * composites of module maps are module maps, by the interchange law,
      so each b_1 o b_2 lies in the span of its block;
    * restriction along the unit is injective on a block, since R R^-1 is
      checked per block, so the coordinates read through R^-1 are those
      of b_1 o b_2 itself.

    Hence `sc` holds the coordinates of composition, which is
    associative; the unit is the coordinate vector of the identities;
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
        # (i, j) -> (R_ij, R_ij^-1), for each nonempty block
        self._restriction = {}
        basis = []
        for i, pi in enumerate(modules):
            for j, pj in enumerate(modules):
                hs = hom_fn(pj, pi)
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
        hs = self.blocks[(i, j)]
        if not hs:
            if not mor.is_zero():
                raise ValidationFailure("morphism outside the hom space")
            return []
        rest = Matrix.from_cols(self.field, [(mor @ self._units[j]).coords()])
        out = (self._restriction[(i, j)][1] @ rest).col(0)
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
        # column of b2 in R_(i1,j2)^-1 (b1 R_(j1,j2)) holds its coordinates
        for k1, (i1, j1, b1) in enumerate(self.basis):
            for j2, a in enumerate(gens):
                if (j1, j2) not in pos or (i1, j2) not in pos:
                    continue
                rest = self._restriction[(j1, j2)][0]
                inv = self._restriction[(i1, j2)][1]
                left, right = pos[(i1, j2)], pos[(j1, j2)]
                row = sc[k1]
                for r, t, c in (inv @ (b1.block(a) @ rest)).nonzero():
                    row[right[t]].append((left[r], c))
        unit = [field.zero()] * n
        for i, p in enumerate(self.modules):
            coords = self.express(i, i, p.cat.id(p.carrier))
            for idx, c in zip(pos[(i, i)], coords):
                unit[idx] = c
        rep = self._natural_rep()
        return OrdAlgebra(field, n, sc, unit, rep=rep, validate=False)

    def _natural_rep(self):
        """Block representation: each basis morphism as a matrix on the
        label-components of the direct sum of the underlying objects."""
        field = self.field
        offsets = []
        sizes = {a: 0 for a in self.labels}
        for p in self.modules:
            offsets.append({a: sizes[a] for a in self.labels})
            for a in self.labels:
                sizes[a] += p.carrier.mult(a)
        rep = []
        for (i, j, m) in self.basis:
            mats = []
            for a in self.labels:
                oi, oj = offsets[i][a], offsets[j][a]
                mats.append(Matrix.from_entries(
                    field, sizes[a], sizes[a],
                    [(oi + r, oj + c, x) for r, c, x in m.block(a).nonzero()]))
            rep.append(mats)
        return rep


def end_algebra(modules) -> EndData:
    """Endomorphism data of a list of free right modules over one algebra,
    each on a simple object."""
    if not modules:
        raise ValidationFailure("need at least one module")
    field = modules[0].cat.field
    return EndData(list(modules), hom_basis, field)


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
    is the dimension of the module maps a (x) x -> y."""
    cat = x.cat
    return Obj(cat, {a: len(hom_basis(obj_tensor_module(cat.simple(a), x), y))
                     for a in cat.labels})


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
    # left action: A ((A a) A) -> (A (A a)) A -> ((A A) a) A -> (A a) A
    m2 = (cat.tensor_mor(cat.associator_inv(c, c, a), cat.id(c))
          @ cat.associator_inv(c, inner, c))
    left = cat.tensor_mor(cat.tensor_mor(A.mult, cat.id(a)), cat.id(c)) @ m2
    out = BimodulePres(A, carrier, left, right)
    out.generator = a
    return out


def free_bimodule_maps(src: BimodulePres, dst: BimodulePres) -> list:
    """Basis of bimodule maps out of a free bimodule (A a A) -> dst,
    through the free-forget correspondence with Hom(a, dst.carrier).

    The map of psi in the unit basis of Hom(a, y) is act o (id (x) psi (x)
    id) for the action act: (A y) A -> y, so its column at the basis
    vector (d, q, z, r, nu) of (A a) A is act's column at
    (d, q', z, r, nu), where psi takes the vector q = (x, p, l, j, mu) of
    A a at d to q' = (x, p, l, i, mu) of A y; each is read off act's
    nonzeros."""
    cat = src.cat
    c, a, y = src.algebra.carrier, src.generator, dst.carrier
    act = dst.right_action @ cat.tensor_mor(dst.left_action, cat.id(c))
    ca_index = cat.fusion_index(c, a)
    cy_basis = cat.fusion_basis(c, y)
    act_cols = cat.fusion_basis(cat.tensor(c, y), c)
    src_index = cat.fusion_index(cat.tensor(c, a), c)
    psis = {lij: k for k, lij in enumerate(hom_coords(a, y))}
    entries = [{} for _ in psis]
    for e, blk in act.blocks.items():
        # column t of act feeds (psi, column of its map) for each of these
        feeds = []
        for d, q, z, r, nu in act_cols[e]:
            x, p, l, i, mu = cy_basis[d][q]
            feeds.append([(psis[(l, i, j)], src_index[e][
                (d, ca_index[d][(x, p, l, j, mu)], z, r, nu)])
                for j in range(a.mult(l))])
        for row, t, val in blk.nonzero():
            for k, s in feeds[t]:
                entries[k].setdefault(e, []).append((row, s, val))
    return [Mor(cat, src.carrier, y,
                {e: Matrix.from_entries(cat.field, y.mult(e),
                                        src.carrier.mult(e), es)
                 for e, es in blocks.items()})
            for blocks in entries]


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
