"""Modules and bimodules over an algebra inside a category presentation.

Everything reduces to exact linear algebra: hom spaces between modules
are kernels of intertwining systems, relative tensor products are split
cokernels, and endomorphism algebras of projective generators land in
`ordalg` where radicals and idempotents decide all structure questions.
"""

from .algebra import AlgebraPres, _incl_proj, validate_algebra
from .fincat import (Mor, Obj, ValidationFailure, ValidationReport,
                     hom_coords, mor_from_coords)
from .linalg import Matrix
from .ordalg import (OrdAlgebra, OrdModule, central_idempotents,
                     lift_idempotent, primitive_idempotent, quotient_algebra,
                     radical, subalgebra_on, _Rowspace)


class ModulePres:
    """One-sided module: carrier with action x(x)A -> x (right) or
    A(x)x -> x (left)."""

    __slots__ = ("algebra", "cat", "carrier", "action", "side")

    def __init__(self, algebra: AlgebraPres, carrier: Obj, action: Mor,
                 side: str = "right"):
        if side not in ("right", "left"):
            raise ValueError("side must be 'right' or 'left'")
        self.algebra = algebra
        self.cat = algebra.cat
        self.carrier = carrier
        self.side = side
        expect_src = (self.cat.tensor(carrier, algebra.carrier)
                      if side == "right"
                      else self.cat.tensor(algebra.carrier, carrier))
        if action.src != expect_src or action.dst != carrier:
            raise ValidationFailure("module action has the wrong hom space")
        self.action = action

    def __repr__(self):
        return f"ModulePres({self.side}, carrier={self.carrier!r})"


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


def validate_module(m: ModulePres) -> ValidationReport:
    rep = ValidationReport("module")
    cat = m.cat
    A = m.algebra
    x = m.carrier
    c = A.carrier
    rep.checks_run += 1
    if m.side == "right":
        lhs = m.action @ cat.tensor_mor(m.action, cat.id(c))
        rhs = m.action @ cat.tensor_mor(cat.id(x), A.mult) \
            @ cat.associator(x, c, c)
        unit_side = m.action @ cat.tensor_mor(cat.id(x), A.unit)
        unit_ref = cat.unitor_right(x)
    else:
        lhs = m.action @ cat.tensor_mor(cat.id(c), m.action) \
            @ cat.associator(c, c, x)
        rhs = m.action @ cat.tensor_mor(A.mult, cat.id(x))
        unit_side = m.action @ cat.tensor_mor(A.unit, cat.id(x))
        unit_ref = cat.unitor_left(x)
    if lhs != rhs:
        rep.fail("module associativity fails")
        return rep
    rep.checks_run += 1
    if unit_side != unit_ref:
        rep.fail("module unit law fails")
    return rep


def validate_bimodule(m: BimodulePres) -> ValidationReport:
    rep = ValidationReport("bimodule")
    cat = m.cat
    A = m.algebra
    left = ModulePres(A, m.carrier, m.left_action, side="left")
    right = ModulePres(A, m.carrier, m.right_action, side="right")
    r1 = validate_module(left)
    if not r1.ok:
        rep.fail("left action: " + r1.failures[0])
        return rep
    r2 = validate_module(right)
    if not r2.ok:
        rep.fail("right action: " + r2.failures[0])
        return rep
    rep.checks_run += 1
    c = A.carrier
    x = m.carrier
    lhs = m.right_action @ cat.tensor_mor(m.left_action, cat.id(c))
    rhs = m.left_action @ cat.tensor_mor(cat.id(c), m.right_action) \
        @ cat.associator(c, x, c)
    if lhs != rhs:
        rep.fail("left and right actions do not commute")
    return rep


# ---------------------------------------------------------------------------
# constructions

def free_module(a: Obj, A: AlgebraPres) -> ModulePres:
    """a (x) A with action id (x) mult through the associator."""
    cat = A.cat
    c = A.carrier
    x = cat.tensor(a, c)
    action = (cat.tensor_mor(cat.id(a), A.mult) @ cat.associator(a, c, c))
    return ModulePres(A, x, action, side="right")


def algebra_as_module(A: AlgebraPres, side: str = "right") -> ModulePres:
    return ModulePres(A, A.carrier, A.mult, side=side)


def obj_tensor_module(a: Obj, x: ModulePres) -> ModulePres:
    """The left action of the ambient category on right modules:
    a (x) x with action through the associator."""
    cat = x.cat
    c = x.algebra.carrier
    carrier = cat.tensor(a, x.carrier)
    action = (cat.tensor_mor(cat.id(a), x.action)
              @ cat.associator(a, x.carrier, c))
    return ModulePres(x.algebra, carrier, action, side="right")


def module_dual(x: ModulePres, side: str) -> ModulePres:
    """Dual module of the opposite chirality.

    A right module x dualizes through side "R" to the left module on
    x^v using the right duality; a left module dualizes through side
    "L" to the right module on x^v using the left duality.
    """
    cat = x.cat
    A = x.algebra
    c = A.carrier
    xv = cat.dual_obj(x.carrier)
    xc = x.carrier
    if x.side == "right":
        if side != "R":
            raise ValueError("a right module dualizes through side 'R'")
        # A (x) xv -> xv via the right duality of the carrier
        m1 = cat.unitor_left_inv(cat.tensor(c, xv))          # -> 1 (x) (c xv)
        m2 = cat.tensor_mor(cat.coev_right(xc),
                            cat.id(cat.tensor(c, xv)))       # -> (xv x)(c xv)
        m3 = cat.reassoc(((xv, xc), (c, xv)), ((xv, (xc, c)), xv))
        m4 = cat.tensor_mor(
            cat.tensor_mor(cat.id(xv), x.action), cat.id(xv))  # ->(xv x) xv
        m5 = cat.reassoc(((xv, xc), xv), (xv, (xc, xv)))
        m6 = cat.tensor_mor(cat.id(xv), cat.ev_right(xc))    # -> xv (x) 1
        m7 = cat.unitor_right(xv)
        action = m7 @ m6 @ m5 @ m4 @ m3 @ m2 @ m1
        return ModulePres(A, xv, action, side="left")
    if side != "L":
        raise ValueError("a left module dualizes through side 'L'")
    # xv (x) A -> xv via the left duality of the carrier
    m1 = cat.unitor_right_inv(cat.tensor(xv, c))             # -> (xv c)(x) 1
    m2 = cat.tensor_mor(cat.id(cat.tensor(xv, c)),
                        cat.coev_left(xc))                   # -> (xv c)(x xv)
    m3 = cat.reassoc(((xv, c), (xc, xv)), ((xv, (c, xc)), xv))
    m4 = cat.tensor_mor(cat.tensor_mor(cat.id(xv), x.action), cat.id(xv))
    m5 = cat.tensor_mor(cat.ev_left(xc), cat.id(xv))         # -> 1 (x) xv
    m6 = cat.unitor_left(xv)
    action = m6 @ m5 @ m4 @ m3 @ m2 @ m1
    return ModulePres(A, xv, action, side="right")


# ---------------------------------------------------------------------------
# hom solver

def _module_constraint(x: ModulePres, y: ModulePres, phi: Mor) -> Mor:
    cat = x.cat
    c = x.algebra.carrier
    if x.side == "right":
        return (phi @ x.action
                - y.action @ cat.tensor_mor(phi, cat.id(c)))
    return (phi @ x.action
            - y.action @ cat.tensor_mor(cat.id(c), phi))


def hom_basis(x: ModulePres, y: ModulePres) -> list:
    """Basis of module maps x -> y, by exact kernel computation."""
    if x.algebra is not y.algebra and x.algebra.carrier != y.algebra.carrier:
        raise ValidationFailure("modules over different algebras")
    if x.side != y.side:
        raise ValidationFailure("modules of different chirality")
    cat = x.cat
    coords = hom_coords(x.carrier, y.carrier)
    if not coords:
        return []
    field = cat.field
    cols = []
    for k in range(len(coords)):
        vec = [field.zero()] * len(coords)
        vec[k] = field.one()
        phi = mor_from_coords(cat, x.carrier, y.carrier, vec)
        cols.append(_module_constraint(x, y, phi).coords())
    mat = Matrix.from_cols(field, cols)
    return [mor_from_coords(cat, x.carrier, y.carrier, v)
            for v in mat.kernel_basis()]


def _bimodule_constraint(x: BimodulePres, y: BimodulePres, phi: Mor):
    cat = x.cat
    c = x.algebra.carrier
    left = (phi @ x.left_action
            - y.left_action @ cat.tensor_mor(cat.id(c), phi))
    right = (phi @ x.right_action
             - y.right_action @ cat.tensor_mor(phi, cat.id(c)))
    return left.coords() + right.coords()


def bimodule_hom_basis(x: BimodulePres, y: BimodulePres) -> list:
    cat = x.cat
    coords = hom_coords(x.carrier, y.carrier)
    if not coords:
        return []
    field = cat.field
    cols = []
    for k in range(len(coords)):
        vec = [field.zero()] * len(coords)
        vec[k] = field.one()
        phi = mor_from_coords(cat, x.carrier, y.carrier, vec)
        cols.append(_bimodule_constraint(x, y, phi))
    mat = Matrix.from_cols(field, cols)
    return [mor_from_coords(cat, x.carrier, y.carrier, v)
            for v in mat.kernel_basis()]


# ---------------------------------------------------------------------------
# endomorphism algebras of lists of (bi)modules

class EndData:
    """The algebra (+)_{i,j} Hom(P_j, P_i) under composition.

    basis[k] = (i, j, Mor P_j -> P_i); `algebra` is the OrdAlgebra with a
    faithful block representation; solvers map morphisms to coordinates.
    """

    def __init__(self, modules, hom_fn, field):
        self.modules = modules
        self.field = field
        self.blocks = {}
        basis = []
        for i, pi in enumerate(modules):
            for j, pj in enumerate(modules):
                hs = hom_fn(pj, pi)
                self.blocks[(i, j)] = hs
                for m in hs:
                    basis.append((i, j, m))
        self.basis = basis
        self._solvers = {}
        for (i, j), hs in self.blocks.items():
            if hs:
                self._solvers[(i, j)] = Matrix.from_cols(
                    field, [m.coords() for m in hs])
        self.algebra = self._build_algebra()

    def express(self, i, j, mor: Mor) -> list:
        """Coordinates of a module map P_j -> P_i in the chosen basis."""
        return self.express_many(i, j, [mor])[0]

    def express_many(self, i, j, mors) -> list:
        """Coordinates of several module maps P_j -> P_i, from one
        elimination of the block's solver against all of them.  `mors`
        may be a generator: only the flat coordinates are kept."""
        rhs = [m.coords() for m in mors]
        if not self.blocks.get((i, j)):
            if any(not c.is_zero() for v in rhs for c in v):
                raise ValidationFailure("morphism outside the hom space")
            return [[] for _ in rhs]
        sols = self._solvers[(i, j)].solve_many(rhs)
        if any(sol is None for sol in sols):
            raise ValidationFailure("morphism outside the hom space")
        return sols

    def _build_algebra(self) -> OrdAlgebra:
        field = self.field
        n = len(self.basis)
        sc = [[[] for _ in range(n)] for _ in range(n)]
        # positions of each block in the flat basis
        pos = {}
        for k, (i, j, _m) in enumerate(self.basis):
            pos.setdefault((i, j), []).append(k)
        size = len(self.modules)
        # the products m1 o m2 landing in block (i1, j2), one block at a
        # time, so only one block's products are held at once
        for i1 in range(size):
            for j2 in range(size):
                pairs = [(k1, k2) for j1 in range(size)
                         for k1 in pos.get((i1, j1), [])
                         for k2 in pos.get((j1, j2), [])]
                if not pairs:
                    continue
                sols = self.express_many(
                    i1, j2, (self.basis[k1][2] @ self.basis[k2][2]
                             for k1, k2 in pairs))
                for (k1, k2), coords in zip(pairs, sols):
                    sc[k1][k2] = [(idx, c) for idx, c in
                                  zip(pos.get((i1, j2), []), coords)
                                  if not c.is_zero()]
        unit = [field.zero()] * n
        for i, p in enumerate(self.modules):
            ident = p.cat.id(p.carrier)
            coords = self.express(i, i, ident)
            for idx, c in zip(pos.get((i, i), []), coords):
                unit[idx] = unit[idx] + c
        rep = self._natural_rep()
        return OrdAlgebra(field, n, sc, unit, rep=rep, validate=True)

    def _natural_rep(self):
        """Block representation: each basis morphism as a matrix on the
        label-components of the direct sum of the underlying objects."""
        field = self.field
        labels = []
        seen = set()
        for p in self.modules:
            for a in p.carrier.support:
                if a not in seen:
                    seen.add(a)
                    labels.append(a)
        offsets = []
        sizes = {a: 0 for a in labels}
        for p in self.modules:
            offsets.append({a: sizes[a] for a in labels})
            for a in labels:
                sizes[a] += p.carrier.mult(a)
        rep = []
        for (i, j, m) in self.basis:
            mats = []
            for a in labels:
                big = Matrix.zeros(field, sizes[a], sizes[a])
                blk = m.block(a)
                oi, oj = offsets[i][a], offsets[j][a]
                for r in range(blk.rows):
                    for c in range(blk.cols):
                        big.a[oi + r][oj + c] = blk.a[r][c]
                mats.append(big)
            rep.append(mats)
        return rep

    def mor_of_vec(self, vec) -> dict:
        """(i, j) -> Mor for the element with the given coordinates."""
        out = {}
        for k, (i, j, m) in enumerate(self.basis):
            c = vec[k]
            if c.is_zero():
                continue
            if (i, j) in out:
                out[(i, j)] = out[(i, j)] + m.scale(c)
            else:
                out[(i, j)] = m.scale(c)
        return out


def end_algebra(modules) -> EndData:
    """Endomorphism data of a list of right modules over one algebra."""
    if not modules:
        raise ValidationFailure("need at least one module")
    field = modules[0].cat.field
    return EndData(list(modules), hom_basis, field)


def free_module_end(A: AlgebraPres) -> EndData:
    """Endomorphism data of the free-module generator: the nonzero free
    modules a (x) A over the simple labels a, in label order."""
    frees = [free_module(A.cat.simple(a), A) for a in A.cat.labels]
    return end_algebra([f for f in frees if not f.carrier.is_zero()])


def module_over_end(end: EndData, y: ModulePres) -> OrdModule:
    """Hom(P, y) = (+)_j Hom(P_j, y) as a right module over end.algebra
    (action by precomposition)."""
    field = end.field
    hom_bases = [hom_basis(pj, y) for pj in end.modules]
    flat = []
    for j, hs in enumerate(hom_bases):
        for m in hs:
            flat.append((j, m))
    dim = len(flat)
    solvers = {}
    for j, hs in enumerate(hom_bases):
        if hs:
            solvers[j] = Matrix.from_cols(field, [m.coords() for m in hs])
    offsets = {}
    off = 0
    for j, hs in enumerate(hom_bases):
        offsets[j] = off
        off += len(hs)
    action = [Matrix.zeros(field, dim, dim) for _ in end.basis]
    # the products m o bm land in Hom(P_bj, y): one solve per target bj
    for j in solvers:
        jobs = [(b, k) for b, (bi, bj, _bm) in enumerate(end.basis)
                if bj == j for k, (mj, _m) in enumerate(flat) if mj == bi]
        sols = solvers[j].solve_many(
            [(flat[k][1] @ end.basis[b][2]).coords() for b, k in jobs])
        for (b, k), coords in zip(jobs, sols):
            if coords is None:
                raise ValidationFailure("hom space not closed under action")
            for t, c in enumerate(coords):
                action[b].a[k][offsets[j] + t] = c
    return OrdModule(end.algebra, dim, action, validate=False)


# ---------------------------------------------------------------------------
# relative tensor and internal hom

def rel_tensor(x: ModulePres, y: ModulePres):
    """Coequalizer x (x)_A y of a right and a left module.

    Returns (object, projection from x (x) y)."""
    if x.side != "right" or y.side != "left":
        raise ValidationFailure("rel_tensor needs (right, left) modules")
    cat = x.cat
    c = x.algebra.carrier
    xc, yc = x.carrier, y.carrier
    f1 = cat.tensor_mor(x.action, cat.id(yc))
    f2 = cat.tensor_mor(cat.id(xc), y.action) @ cat.associator(xc, c, yc)
    diff = f1 - f2
    total = cat.tensor(xc, yc)
    field = cat.field
    blocks = {}
    mults = {}
    for a in total.support:
        img = diff.block(a)
        space = _Rowspace(field, total.mult(a))
        for j in range(img.cols):
            space.add([img.a[r][j] for r in range(img.rows)])
        free = [k for k in range(total.mult(a)) if k not in space.pivots]
        mults[a] = len(free)
        proj = Matrix.zeros(field, len(free), total.mult(a))
        for col in range(total.mult(a)):
            e = [field.zero()] * total.mult(a)
            e[col] = field.one()
            red = space.reduce(e)
            for r, k in enumerate(free):
                proj.a[r][col] = red[k]
        blocks[a] = proj
    q = Obj(cat, mults)
    proj_mor = Mor(cat, total, q, {a: m for a, m in blocks.items()
                                   if q.mult(a)})
    return q, proj_mor


def internal_hom(x: ModulePres, y: ModulePres) -> Obj:
    """The object [x, y] = (x (x)_A y^v)^v for right modules x, y."""
    yR = module_dual(y, "R")
    q, _p = rel_tensor(x, yR)
    return x.cat.dual_obj(q)


# ---------------------------------------------------------------------------
# direct sums and idempotent images of modules

def direct_sum_modules(mods) -> tuple:
    """(sum module, inclusions, projections)."""
    cat = mods[0].cat
    A = mods[0].algebra
    total = mods[0].carrier
    for m in mods[1:]:
        total = total + m.carrier
    incls, projs = [], []
    off = Obj(cat, {})
    for m in mods:
        i, p = _incl_proj(cat, off, m.carrier, total)
        incls.append(i)
        projs.append(p)
        off = off + m.carrier
    c = A.carrier
    action = None
    for m, i, p in zip(mods, incls, projs):
        term = i @ m.action @ cat.tensor_mor(p, cat.id(c))
        action = term if action is None else action + term
    return ModulePres(A, total, action, side="right"), incls, projs


def split_idempotent_module(P: ModulePres, e: Mor):
    """Image of an idempotent module endomorphism, as a module with
    inclusion and retraction."""
    cat = P.cat
    q, incl_m, proj_m = _split_idempotent_obj(cat, P.carrier, e)
    c = P.algebra.carrier
    action = proj_m @ P.action @ cat.tensor_mor(incl_m, cat.id(c))
    sub = ModulePres(P.algebra, q, action, side=P.side)
    return sub, incl_m, proj_m


# ---------------------------------------------------------------------------
# simple modules

class SimpleModulesResult:
    def __init__(self, simples, mult_in_A, semisimple):
        self.simples = simples          # list of (ModulePres, incl, retr)
        self.mult_in_A = mult_in_A      # multiplicities, or None if not ss
        self.semisimple = semisimple


def simple_modules(end: EndData) -> SimpleModulesResult:
    """Simple right modules as images of primitive idempotent endomorphisms
    of the free modules; indecomposable projectives when A is not
    semisimple (flagged).  `end` is `free_module_end(A)`."""
    frees = end.modules
    A = frees[0].algebra
    cat = A.cat
    E = end.algebra
    rad = radical(E)
    semisimple = not rad
    psum, incls, projs = direct_sum_modules(frees)
    if rad:
        Ebar, project, lift = quotient_algebra(E, rad)
    else:
        Ebar, project, lift = E, (lambda v: list(v)), (lambda v: list(v))
    simples = []
    for z in central_idempotents(Ebar):
        zideal = _Rowspace(cat.field, Ebar.dim)
        for i in range(Ebar.dim):
            zideal.add(Ebar.mult_vec(z, Ebar.basis_vec(i)))
        B, embed = subalgebra_on(Ebar, zideal.basis(), z)
        e_inner = primitive_idempotent(B)
        ebar = embed(e_inner)
        e = lift_idempotent(E, lift(ebar))
        mor_blocks = end.mor_of_vec(e)
        e_sum = None
        for (i, j), m in mor_blocks.items():
            term = incls[i] @ m @ projs[j]
            e_sum = term if e_sum is None else e_sum + term
        sub, incl, retr = split_idempotent_module(psum, e_sum)
        simples.append((sub, incl, retr))
    amod = algebra_as_module(A)
    mult_in_A = None
    if semisimple:
        mult_in_A = []
        for sub, _i, _r in simples:
            d = len(hom_basis(sub, sub))
            h = len(hom_basis(amod, sub))
            if h % d != 0:
                raise ValidationFailure("inconsistent multiplicity count")
            mult_in_A.append(h // d)
    return SimpleModulesResult(simples, mult_in_A, semisimple)


# ---------------------------------------------------------------------------
# bimodules over A: free generator and its endomorphism algebra

def free_bimodule(A: AlgebraPres, a: Obj) -> BimodulePres:
    """(A (x) a) (x) A with outer multiplications."""
    cat = A.cat
    c = A.carrier
    inner = cat.tensor(c, a)
    carrier = cat.tensor(inner, c)
    # right action: ((A a) A) A -> (A a) (A A) -> (A a) A
    m1 = cat.reassoc(((inner, c), c), (inner, (c, c)))
    right = cat.tensor_mor(cat.id(inner), A.mult) @ m1
    # left action: A ((A a) A) -> ((A A) a) A -> (A a) A
    t_src = (c, ((c, a), c))
    t_mid = (((c, c), a), c)
    m2 = cat.reassoc(t_src, t_mid)
    left = cat.tensor_mor(cat.tensor_mor(A.mult, cat.id(a)), cat.id(c)) @ m2
    out = BimodulePres(A, carrier, left, right)
    out.generator = a
    return out


def free_bimodule_maps(src: BimodulePres, dst: BimodulePres) -> list:
    """Basis of bimodule maps out of a free bimodule (A a A) -> dst,
    through the free-forget correspondence with Hom(a, dst.carrier)."""
    if src.generator is None:
        return bimodule_hom_basis(src, dst)
    cat = src.cat
    A = src.algebra
    a = src.generator
    c = A.carrier
    yc = dst.carrier
    coords = hom_coords(a, yc)
    out = []
    idc = cat.id(c)
    for k in range(len(coords)):
        vec = [cat.field.zero()] * len(coords)
        vec[k] = cat.field.one()
        psi = mor_from_coords(cat, a, yc, vec)
        phi = (dst.right_action
               @ cat.tensor_mor(dst.left_action, idc)
               @ cat.tensor_mor(cat.tensor_mor(idc, psi), idc))
        out.append(phi)
    return out


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


# ---------------------------------------------------------------------------
# internal end of a module (the algebra [x, x])

def module_section(x: ModulePres):
    """(F, eps, iota): free cover F of x, the action as a module
    surjection eps: F -> x, and a module section iota with eps o iota = id."""
    cat = x.cat
    A = x.algebra
    F = free_module(x.carrier, A)
    eps = x.action       # x.carrier (x) A -> x, a module map F -> x
    candidates = hom_basis(x, F)
    if not candidates:
        raise ValidationFailure("module has no maps into its free cover")
    field = cat.field
    target = cat.id(x.carrier).coords()
    cols = [(eps @ m).coords() for m in candidates]
    sol = Matrix.from_cols(field, cols).solve(target)
    if sol is None:
        raise ValidationFailure("module is not a retract of its free cover")
    iota = None
    for c, m in zip(sol, candidates):
        term = m.scale(c)
        iota = term if iota is None else iota + term
    return F, eps, iota


def _phi_postfix(x_free: ModulePres, a: Obj) -> Mor:
    """The fixed tail of the correspondence Hom(c, (a A) a^v) ->
    module maps c (x) F -> F: contract a^v (x) a then act."""
    cat = x_free.cat
    A = x_free.algebra
    c = A.carrier
    av = cat.dual_obj(a)
    F = x_free.carrier                     # (a, c) tensor
    t_src = (((a, c), av), (a, c))
    t_mid = ((a, c), ((av, a), c))
    m2 = cat.reassoc(t_src, t_mid)
    m3 = cat.tensor_mor(cat.id(F),
                        cat.tensor_mor(cat.ev_left(a), cat.id(c)))
    m4 = cat.tensor_mor(cat.id(F), cat.unitor_left(c))
    return x_free.action @ (m4 @ (m3 @ m2))


def _psi_prefix(x_free: ModulePres, a: Obj, csrc: Obj) -> Mor:
    """The fixed head of the inverse correspondence:
    csrc -> (csrc (x) F) (x) a^v."""
    cat = x_free.cat
    A = x_free.algebra
    av = cat.dual_obj(a)
    m1 = cat.unitor_right_inv(csrc)
    m2 = cat.tensor_mor(cat.id(csrc), cat.coev_left(a))
    m3 = cat.reassoc((csrc, (a, av)), ((csrc, a), av))
    j = cat.tensor_mor(cat.id(a), A.unit) @ cat.unitor_right_inv(a)  # a -> F
    m4 = cat.tensor_mor(cat.tensor_mor(cat.id(csrc), j), cat.id(av))
    return m4 @ (m3 @ (m2 @ m1))


def _psi_from_phi(x_free: ModulePres, a: Obj, phi: Mor, csrc: Obj) -> Mor:
    """Module maps csrc (x) F -> F  ->  Hom(csrc, (a A) a^v)."""
    cat = x_free.cat
    av = cat.dual_obj(a)
    pre = _psi_prefix(x_free, a, csrc)
    return cat.tensor_mor(phi, cat.id(av)) @ pre


def module_internal_end(x: ModulePres, cross_check: bool = False) -> AlgebraPres:
    """The algebra [x, x]: the idempotent-compressed endomorphism algebra
    of the free cover, realized on the object (carrier (x) A) (x) carrier^v.

    With cross_check=True the pairwise multiplication is compared against
    the one-shot contraction of the twisted-end multiplication."""
    cat = x.cat
    A = x.algebra
    a = x.carrier
    F, eps, iota = module_section(x)
    e = iota @ eps                              # idempotent module endo of F
    c = A.carrier
    av = cat.dual_obj(a)
    T = cat.tensor(cat.tensor(a, c), av)
    field = cat.field
    post = _phi_postfix(F, a)
    idF = cat.id(F.carrier)
    idav = cat.id(av)
    # conjugation on T, label by label
    blocks = {}
    for lab in T.support:
        n = T.mult(lab)
        mat = Matrix.zeros(field, n, n)
        csrc = cat.simple(lab)
        pre = _psi_prefix(F, a, csrc)
        ide = cat.tensor_mor(cat.id(csrc), e)
        for k in range(n):
            psi = Mor(cat, csrc, T,
                      {lab: Matrix.from_cols(
                          field, [[field.one() if r == k else field.zero()
                                   for r in range(n)]])})
            phi = post @ cat.tensor_mor(psi, idF)
            conj = e @ (phi @ ide)
            psi2 = cat.tensor_mor(conj, idav) @ pre
            col = psi2.block(lab)
            for r in range(n):
                mat.a[r][k] = col.a[r][0]
        blocks[lab] = mat
    conj_mor = Mor(cat, T, T, blocks)
    if conj_mor @ conj_mor != conj_mor:
        raise ValidationFailure("conjugation by the idempotent is not "
                                "idempotent")
    unit_T = _psi_from_phi(F, a, e @ cat.unitor_left(F.carrier),
                           cat.unit_obj())
    sub, incl, retr = _split_idempotent_obj(cat, T, conj_mor)
    # multiplication through the endomorphism correspondence: the product
    # of two elements is the name of the composite of their module maps,
    # assembled pairwise on small objects
    sq = cat.tensor(sub, sub)
    sq_basis = cat.fusion_basis(sub, sub)
    mult_blocks = {d: Matrix.zeros(field, sub.mult(d), sq.mult(d))
                   for d in sq.support if sub.mult(d)}
    phi_of = {}
    for lab1 in sub.support:
        L1 = cat.simple(lab1)
        for i in range(sub.mult(lab1)):
            vec = [field.zero()] * sub.mult(lab1)
            vec[i] = field.one()
            psi = incl @ Mor(cat, L1, sub,
                             {lab1: Matrix.from_cols(field, [vec])})
            phi_of[(lab1, i)] = post @ cat.tensor_mor(psi, idF)
    for lab1 in sub.support:
        L1 = cat.simple(lab1)
        for lab2 in sub.support:
            L2 = cat.simple(lab2)
            csrc = cat.tensor(L1, L2)
            pair_index = cat.fusion_index(L1, L2)
            for i in range(sub.mult(lab1)):
                phi1 = phi_of[(lab1, i)]
                for j in range(sub.mult(lab2)):
                    phi2 = phi_of[(lab2, j)]
                    phi12 = (phi1
                             @ cat.tensor_mor(cat.id(L1), phi2)
                             @ cat.associator(L1, L2, F.carrier))
                    q12 = retr @ _psi_from_phi(F, a, phi12, csrc)
                    for d, blk in q12.blocks.items():
                        if sub.mult(d) == 0:
                            continue
                        out = mult_blocks[d]
                        didx = cat.fusion_index(sub, sub)[d]
                        for mu in range(csrc.mult(d)):
                            col = didx[(lab1, i, lab2, j, mu)]
                            src_col = pair_index[d][(lab1, 0, lab2, 0, mu)]
                            for r in range(sub.mult(d)):
                                out.a[r][col] = blk.a[r][src_col]
    mult_q = Mor(cat, sq, sub, mult_blocks)
    if cross_check:
        direct = retr @ _twisted_end_mult_applied(
            A, a, cat.tensor_mor(incl, incl))
        if direct != mult_q:
            raise ValidationFailure(
                "pairwise and contracted multiplications disagree")
    unit_q = retr @ unit_T
    alg = AlgebraPres(cat, sub, mult_q, unit_q)
    rep = validate_algebra(alg)
    rep.raise_if_failed()
    return alg


def _twisted_end_mult_applied(A: AlgebraPres, a: Obj, thin: Mor) -> Mor:
    """Multiplication of the algebra (a A) a^v composed with a thin map
    into its source: evaluate the inner duality pair, multiply in A."""
    cat = A.cat
    c = A.carrier
    av = cat.dual_obj(a)
    F = cat.tensor(a, c)
    t_src = (((a, c), av), ((a, c), av))
    t_mid = ((((a, c), (av, a)), c), av)
    out = cat.reassoc(t_src, t_mid) @ thin
    out = cat.tensor_mor(
        cat.tensor_mor(
            cat.tensor_mor(cat.id(F), cat.ev_left(a)), cat.id(c)),
        cat.id(av)) @ out
    out = cat.tensor_mor(
        cat.tensor_mor(cat.unitor_right(F), cat.id(c)), cat.id(av)) @ out
    frees = free_module(a, A)
    return cat.tensor_mor(frees.action, cat.id(av)) @ out


def _split_idempotent_obj(cat, T: Obj, e: Mor):
    field = cat.field
    iblocks, pblocks = {}, {}
    mults = {}
    for a in T.support:
        m = e.block(a)
        _r, pivots = m.rref()
        cols = [m.col(j) for j in pivots]
        mults[a] = len(cols)
        if not cols:
            continue
        incl = Matrix.from_cols(field, cols)
        proj = Matrix.zeros(field, len(cols), T.mult(a))
        sols = incl.solve_many([m.col(j) for j in range(T.mult(a))])
        for j, coords in enumerate(sols):
            for r, cc in enumerate(coords):
                proj.a[r][j] = cc
        iblocks[a] = incl
        pblocks[a] = proj
    q = Obj(cat, mults)
    return q, Mor(cat, q, T, iblocks), Mor(cat, T, q, pblocks)
