"""References and constructions that only the tests use.

`fusion_basis_sorted` is the fusion basis of X (x) Y by enumeration
and sort: the package generates it in the frozen order instead.

`reassoc` is the general rebracketing: the canonical iso between two
bracketings of one leaf sequence, through the left comb of its leaves.
The package writes each rebracketing it needs as the one- or two-step
associator composite it stands for; by Mac Lane's coherence theorem
(Categories for the Working Mathematician, VII.2) the two agree once the
pentagon holds, and `test_rebracketing` checks that they do.

`internal_hom_reference` reads the internal hom [x, y] of right modules
as (x (x)_A y^v)^v: the relative tensor product of x with the left dual
module y^v, a cokernel whose object is read from ranks (`rel_tensor`),
dualised.  `right_module_dual` builds y^v through the compound right
(co)evaluations `coev_right` and `ev_right`, which nothing else needs.
The package has right modules only, so the left modules these
references take or return are the record `LeftModule` of this file, with
its own axiom check `validate_left_module`.
The package reads [x, y] from the adjunction
Hom(a, [x, y]) = Hom_A(a (x) x, y) instead (Etingof, Gelaki, Nikshych
and Ostrik, Tensor Categories, 7.9), one hom space per label.

The rest builds objects the analysis never needs: the algebra [x, x]
itself (the analysis reads only its carrier, from `internal_hom`), an
ordinary algebra from its structure constants, the quaternion algebra
(a, b), right modules over an ordinary algebra with their hom spaces,
simplicity and decomposition, the quotient k[x]/(x^2 + b x + c) in vec,
the direct sum of two algebras or of modules, and the bimodule axioms.

`simple_modules_reference` splits each simple module off the direct sum
of all the free modules, through the natural representation of
E = End(P).  The package splits it off one free module P_j instead.

`section_reference` decides separability by solving for a bimodule
section s: A -> A (x) A of the multiplication over all of
Hom(A, A (x) A).  The package solves for its balanced element
z = s o u in Hom(1, A (x) A) instead.

`module_is_simple_reference` decides simplicity of a module M the long
way: it spins kernel vectors of singular actions for a proper
submodule, then solves for End(M), with dim(M)^2 unknowns, and asks
whether it is a division algebra.  The package reads the same verdict
for a right ideal eps E from the corner eps E eps.
"""

from tensorcat.algebra import AlgebraPres, validate_algebra
from tensorcat.fields import Field
from tensorcat.fincat import (Mor, Obj, ValidationFailure,
                              ValidationReport, hom_dim, hom_unit_basis)
from tensorcat.linalg import Matrix, RowSpace
from tensorcat.modcat import (EndData, ModulePres, SimpleModulesResult,
                              _split_idempotent_obj, free_module, hom_basis,
                              split_idempotent_module, validate_module)
from tensorcat.ordalg import (NotSemisimple, OrdAlgebra, OrdAlgebraError,
                              _krylov_min_poly,
                              block_primitive_idempotent,
                              central_idempotents, corner, is_division,
                              radical, subalgebra_on)
from tensorcat.poly import factor


# ---------------------------------------------------------------------------
# fusion bases

def fusion_basis_sorted(cat, X: Obj, Y: Obj) -> dict:
    """Per label c, every fusion tuple (a, i, b, j, mu) with
    mu < N[a,b,c], enumerated by (a, b, c) and then sorted by (index of
    a, i, index of b, j, mu); the labels in order of first appearance."""
    basis = {}
    for a in X.support:
        for b in Y.support:
            for c in cat.labels:
                n = cat.N(a, b, c)
                if n == 0:
                    continue
                lst = basis.setdefault(c, [])
                for i in range(X.mult(a)):
                    for j in range(Y.mult(b)):
                        for mu in range(n):
                            lst.append((a, i, b, j, mu))
    for c in basis:
        basis[c].sort(key=lambda t: (cat.idx[t[0]], t[1],
                                     cat.idx[t[2]], t[3], t[4]))
    return basis


# ---------------------------------------------------------------------------
# general rebracketing

def _leaves(tree) -> list:
    if isinstance(tree, Obj):
        return [tree]
    return _leaves(tree[0]) + _leaves(tree[1])


def _left_comb_iso(cat, tree, unfold: bool) -> Mor:
    """The fold tree -> left comb of its leaves, or with unfold=True
    its inverse.  Each direction is built without matrix inversions."""
    if isinstance(tree, Obj):
        return cat.id(tree)
    left, right = tree
    m = cat.tensor_mor(_left_comb_iso(cat, left, unfold),
                       _left_comb_iso(cat, right, unfold))
    merge = _merge_combs(cat, _leaves(left), _leaves(right), unfold)
    return m @ merge if unfold else merge @ m


def _comb_obj(cat, leaves):
    acc = leaves[0]
    for x in leaves[1:]:
        acc = cat.tensor(acc, x)
    return acc


def _merge_combs(cat, lA, lB, unfold: bool) -> Mor:
    """comb(lA) (x) comb(lB) -> comb(lA + lB), or with unfold=True
    its inverse."""
    X = _comb_obj(cat, lA)
    if len(lB) == 1:
        return cat.id(cat.tensor(X, lB[0]))
    Y = _comb_obj(cat, lB[:-1])
    z = lB[-1]
    inner = cat.tensor_mor(_merge_combs(cat, lA, lB[:-1], unfold),
                           cat.id(z))
    if unfold:
        return cat.associator(X, Y, z) @ inner
    return inner @ cat.associator_inv(X, Y, z)


def reassoc(cat, src_tree, dst_tree) -> Mor:
    """Canonical iso between two bracketings of the same leaf sequence:
    the fold of the source tree followed by the unfold of the target.
    A tree is an Obj (a leaf) or a pair of trees."""
    if [x.key for x in _leaves(src_tree)] \
            != [y.key for y in _leaves(dst_tree)]:
        raise ValueError("bracketings have different leaf sequences")
    return (_left_comb_iso(cat, dst_tree, unfold=True)
            @ _left_comb_iso(cat, src_tree, unfold=False))


# ---------------------------------------------------------------------------
# the internal end [x, x] of a module

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
    return F, eps, Mor.combine(sol, candidates)


def module_internal_end(x: ModulePres) -> AlgebraPres:
    """The algebra [x, x] as the corner e'[F, F]e' of the internal end of
    the free cover F = a (x) A of x, where a is the carrier of x
    (Etingof, Gelaki, Nikshych and Ostrik, Tensor Categories, 7.9;
    Ostrik 2003).

    [F, F] is the object T = F (x) a^v; its product evaluates the inner
    a^v (x) a and acts on F, and e' is the name of the idempotent
    e = iota o eps of F."""
    cat = x.cat
    A = x.algebra
    a, c = x.carrier, A.carrier
    av = cat.dual_obj(a)
    F, eps, iota = module_section(x)
    T = cat.tensor(F.carrier, av)
    # ((a c) av)(a c) -> (a c)(av (a c)) -> (a c)((av a) c)
    rebracket = (cat.tensor_mor(cat.id(F.carrier),
                                cat.associator_inv(av, a, c))
                 @ cat.associator(F.carrier, av, F.carrier))
    # the product m: T (x) T -> T of [F, F]: evaluate a^v (x) a, act on F
    act = F.action @ cat.tensor_mor(
        cat.id(F.carrier),
        cat.unitor_left(c) @ cat.tensor_mor(cat.ev_left(a), cat.id(c))) \
        @ rebracket
    m = cat.tensor_mor(act, cat.id(av)) @ cat.associator_inv(T, F.carrier, av)
    # the name 1 -> T of e, through j: a -> F
    j = cat.tensor_mor(cat.id(a), A.unit) @ cat.unitor_right_inv(a)
    name = cat.tensor_mor(iota @ eps @ j, cat.id(av)) @ cat.coev_left(a)
    # p: t -> e' t e', the projection of T onto the corner
    idT = cat.id(T)
    left = m @ cat.tensor_mor(name, idT) @ cat.unitor_left_inv(T)
    right = m @ cat.tensor_mor(idT, name) @ cat.unitor_right_inv(T)
    p = right @ left
    if p @ p != p:
        raise ValidationFailure("conjugation by the idempotent is not "
                                "idempotent")
    sub, incl, retr = _split_idempotent_obj(cat, T, p)
    alg = AlgebraPres(cat, sub, retr @ m @ cat.tensor_mor(incl, incl),
                      retr @ name)
    validate_algebra(alg).raise_if_failed()
    return alg


# ---------------------------------------------------------------------------
# left modules and the internal hom [x, y] by duality

class LeftModule:
    """A left module: carrier x with action A (x) x -> x."""

    def __init__(self, algebra: AlgebraPres, carrier: Obj, action: Mor):
        self.algebra = algebra
        self.cat = algebra.cat
        self.carrier = carrier
        if action.src != self.cat.tensor(algebra.carrier, carrier) \
                or action.dst != carrier:
            raise ValidationFailure("left action has the wrong hom space")
        self.action = action


def left_regular_module(A: AlgebraPres) -> LeftModule:
    """A as a left module over itself."""
    return LeftModule(A, A.carrier, A.mult)


def validate_left_module(m: LeftModule) -> ValidationReport:
    """Associativity and the unit law of a left action, exactly."""
    rep = ValidationReport("left module")
    cat, A, x = m.cat, m.algebra, m.carrier
    c = A.carrier
    rep.checks_run += 1
    lhs = m.action @ cat.tensor_mor(cat.id(c), m.action) \
        @ cat.associator(c, c, x)
    if lhs != m.action @ cat.tensor_mor(A.mult, cat.id(x)):
        rep.fail("module associativity fails")
        return rep
    rep.checks_run += 1
    if m.action @ cat.tensor_mor(A.unit, cat.id(x)) != cat.unitor_left(x):
        rep.fail("module unit law fails")
    return rep


def coev_right(cat, X: Obj) -> Mor:
    """u_X : 1 -> X^v (x) X built from the per-label cups."""
    return cat._pairing(X, True, False, cat.cup)


def ev_right(cat, X: Obj) -> Mor:
    """v_X : X (x) X^v -> 1 built from the per-label caps."""
    return cat._pairing(X, False, True, cat.cap)


def right_module_dual(x: ModulePres) -> LeftModule:
    """The left module on x^v of a right module x, through the right
    duality of its carrier."""
    cat = x.cat
    A = x.algebra
    c = A.carrier
    xv = cat.dual_obj(x.carrier)
    xc = x.carrier
    m1 = cat.unitor_left_inv(cat.tensor(c, xv))          # -> 1 (x) (c xv)
    m2 = cat.tensor_mor(coev_right(cat, xc),
                        cat.id(cat.tensor(c, xv)))       # -> (xv x)(c xv)
    # -> ((xv x) c) xv -> (xv (x c)) xv
    m3 = (cat.tensor_mor(cat.associator(xv, xc, c), cat.id(xv))
          @ cat.associator_inv(cat.tensor(xv, xc), c, xv))
    m4 = cat.tensor_mor(
        cat.tensor_mor(cat.id(xv), x.action), cat.id(xv))  # ->(xv x) xv
    m5 = cat.associator(xv, xc, xv)                       # -> xv (x xv)
    m6 = cat.tensor_mor(cat.id(xv), ev_right(cat, xc))   # -> xv (x) 1
    m7 = cat.unitor_right(xv)
    action = m7 @ m6 @ m5 @ m4 @ m3 @ m2 @ m1
    return LeftModule(A, xv, action)


def rel_tensor(x: ModulePres, y: LeftModule) -> Obj:
    """The object of the coequalizer x (x)_A y of a right and a left module.

    At each label a it is the cokernel of the block at a of
    act_x (x) id - (id (x) act_y) o alpha on x (x) y, so its multiplicity
    is that of x (x) y less the rank of the block."""
    cat = x.cat
    c = x.algebra.carrier
    xc, yc = x.carrier, y.carrier
    f1 = cat.tensor_mor(x.action, cat.id(yc))
    f2 = cat.tensor_mor(cat.id(xc), y.action) @ cat.associator(xc, c, yc)
    diff = f1 - f2
    total = cat.tensor(xc, yc)
    return Obj(cat, {a: total.mult(a) - diff.block(a).rank()
                     for a in total.support})


def internal_hom_reference(x: ModulePres, y: ModulePres) -> Obj:
    """The object [x, y] = (x (x)_A y^v)^v for right modules x, y."""
    return x.cat.dual_obj(rel_tensor(x, right_module_dual(y)))


# ---------------------------------------------------------------------------
# ordinary algebras and their right modules

def algebra_from_triples(field, dim: int, triples, unit) -> OrdAlgebra:
    """Construct from sparse [i, j, l, scalar] entries."""
    sc = [[[] for _ in range(dim)] for _ in range(dim)]
    for i, j, l, c in triples:
        sc[i][j].append((l, field.scalar(c)))
    return OrdAlgebra(field, dim, sc, [field.scalar(c) for c in unit])


def quaternions(a=-1, b=-1, field=Field.rationals()):
    """The quaternion algebra (a, b): i^2 = a, j^2 = b, k = ij."""
    trips = [[0, 0, 0, 1], [0, 1, 1, 1], [0, 2, 2, 1], [0, 3, 3, 1],
             [1, 0, 1, 1], [2, 0, 2, 1], [3, 0, 3, 1],
             [1, 1, 0, a], [2, 2, 0, b], [3, 3, 0, -a * b],
             [1, 2, 3, 1], [2, 1, 3, -1],
             [1, 3, 2, a], [3, 1, 2, -a],
             [2, 3, 1, -b], [3, 2, 1, b]]
    return algebra_from_triples(field, 4, trips, [1, 0, 0, 0])


def nilpotency_index(E: OrdAlgebra, vectors) -> int:
    """Smallest m with (ideal spanned by vectors)^m = 0; raises if not nil."""
    m = 1
    cur = [list(v) for v in vectors]
    while cur:
        nxt_span = RowSpace(E.field, E.dim)
        for v in cur:
            for w in vectors:
                nxt_span.add(E.mult_vec(v, w))
        cur = nxt_span.basis()
        m += 1
        if m > E.dim + 1:
            raise OrdAlgebraError("ideal is not nilpotent")
    return m


class OrdModule:
    """Right module over an OrdAlgebra: one action matrix per basis element,
    in row-vector convention (v . b_i = v @ action[i]).  Construction does
    not check the module axioms; `_validate` does."""

    def __init__(self, algebra: OrdAlgebra, dim: int, action):
        self.algebra = algebra
        self.field = algebra.field
        self.dim = dim
        self.action = action

    def _validate(self):
        E = self.algebra
        idm = Matrix.identity(self.field, self.dim)
        unit_m = self.act_matrix(E.unit)
        if unit_m != idm:
            raise OrdAlgebraError("module unit law fails")
        for i in range(E.dim):
            for j in range(E.dim):
                lhs = self.action[i] @ self.action[j]
                rhs = self.act_matrix(E.mult_vec(E.basis_vec(i),
                                                 E.basis_vec(j)))
                if lhs != rhs:
                    raise OrdAlgebraError(
                        f"module action is not multiplicative at ({i},{j})")

    def act_matrix(self, x) -> Matrix:
        return Matrix.combine(x, self.action)

    def act_vec(self, v, x) -> list:
        """v . x = v @ act_matrix(x)."""
        return (Matrix(self.field, [v]) @ self.act_matrix(x)).row(0)

    def spin(self, v) -> list:
        """Basis of the submodule generated by v."""
        E = self.algebra
        space = RowSpace(self.field, self.dim)
        space.add(v)
        frontier = [list(v)]
        while frontier:
            nxt = []
            for w in frontier:
                for i in range(E.dim):
                    u = self.act_vec(w, E.basis_vec(i))
                    if space.add(u):
                        nxt.append(u)
            frontier = nxt
        return space.basis()


def regular_module(E: OrdAlgebra) -> OrdModule:
    """E as a right module over itself: row j of the action of b_i is
    b_j b_i."""
    basis = [E.basis_vec(i) for i in range(E.dim)]
    M = OrdModule(E, E.dim, [Matrix(E.field, [E.mult_vec(v, b)
                                              for v in basis])
                             for b in basis])
    M._validate()
    return M


def right_ideal_module(E: OrdAlgebra, support) -> OrdModule:
    """The span of the basis elements `support` as a right E-module, its
    action read from the structure constants; refused unless the span is
    a right ideal."""
    pos = {k: r for r, k in enumerate(support)}
    action = []
    for l in range(E.dim):
        entries = []
        for r, k in enumerate(support):
            for t, c in E.sc[k][l]:
                if t not in pos:
                    raise OrdAlgebraError("the span is not a right ideal")
                entries.append((r, pos[t], c))
        action.append(Matrix.from_entries(E.field, len(pos), len(pos),
                                          entries))
    return OrdModule(E, len(pos), action)


def ideal_module(E: OrdAlgebra, eps) -> OrdModule:
    """The right ideal eps E as a submodule of the regular module, on the
    reduced echelon basis of the eps b_i."""
    space = RowSpace(E.field, E.dim)
    for i in range(E.dim):
        space.add(E.mult_vec(eps, E.basis_vec(i)))
    return restrict(regular_module(E), space.basis())


def flat(m: Matrix) -> list:
    """The entries of m row by row."""
    return [x for i in range(m.rows) for x in m.row(i)]


def unflat(field, n: int, v) -> Matrix:
    """The n x n matrix whose entries, row by row, are v."""
    return Matrix(field, [list(v[i * n:(i + 1) * n]) for i in range(n)])


def matrix_subalgebra(field, n: int, mats) -> OrdAlgebra:
    """The algebra on the span of the n x n matrices `mats`, a space
    closed under products that holds the identity."""
    def product(x, y):
        return flat(unflat(field, n, x) @ unflat(field, n, y))
    return subalgebra_on(field, [flat(m) for m in mats], product,
                         flat(Matrix.identity(field, n)))


def module_hom_space(M: OrdModule, N: OrdModule) -> list:
    """Basis of intertwiners M -> N (as dim_M x dim_N matrices, row conv.)."""
    field = M.field
    E = M.algebra
    z = field.zero()
    nunk = M.dim * N.dim
    rows = []
    for i in range(E.dim):
        an_cols = [N.action[i].col(c) for c in range(N.dim)]
        # constraint: am @ Phi - Phi @ an = 0
        for r in range(M.dim):
            am_row = M.action[i].row(r)
            for c in range(N.dim):
                row = [z] * nunk
                for k, x in enumerate(am_row):
                    if not x.is_zero():
                        row[k * N.dim + c] = row[k * N.dim + c] + x
                for k, x in enumerate(an_cols[c]):
                    if not x.is_zero():
                        row[r * N.dim + k] = row[r * N.dim + k] - x
                rows.append(row)
    if not rows:
        rows = [[z] * nunk]
    ker = Matrix(field, rows).kernel_basis()
    return [Matrix(field, [[v[r * N.dim + c] for c in range(N.dim)]
                           for r in range(M.dim)]) for v in ker]


def module_is_simple_reference(E: OrdAlgebra, M: OrdModule):
    """True/False/"undetermined"; exact, no probabilistic shortcuts."""
    if M.dim == 0:
        return False
    for r in radical(E):
        if not M.act_matrix(r).is_zero():
            return False
    # witness pass: spin kernel vectors of singular basis actions
    field, n = M.field, M.dim
    for a in M.action:
        mu = _krylov_min_poly(field, flat(Matrix.identity(field, n)),
                              lambda v: flat(unflat(field, n, v) @ a))
        for g, _m in factor(mu):
            if g.degree == 0:
                continue
            powers = [Matrix.identity(field, n)]
            for _ in range(g.degree):
                powers.append(powers[-1] @ a)
            km = Matrix.combine(g.coeffs, powers)
            # the vectors v with v @ km = 0
            for v in km.transpose().kernel_basis():
                sub = M.spin(v)
                if 0 < len(sub) < n:
                    return False
    # certificate: the endomorphism algebra must be division
    return is_division(matrix_subalgebra(field, n, module_hom_space(M, M)))


def restrict(M: OrdModule, sub_basis) -> OrdModule:
    """The submodule of M on the span of `sub_basis`."""
    field = M.field
    E = M.algebra
    k = len(sub_basis)
    images = [M.act_vec(v, E.basis_vec(i))
              for i in range(E.dim) for v in sub_basis]
    coords = Matrix.from_cols(field, sub_basis).solve_many(images)
    if any(c is None for c in coords):
        raise OrdAlgebraError("subspace is not a submodule")
    action = [Matrix(field, coords[i * k:(i + 1) * k])
              for i in range(E.dim)]
    return OrdModule(E, k, action)


def decompose_module(E, M: OrdModule) -> list:
    """[(simple OrdModule, multiplicity)] for a module over a semisimple
    algebra E; `central_idempotents` refuses any other E."""
    if M.dim == 0:
        return []
    out = []
    for z in central_idempotents(E):
        pz = M.act_matrix(z)
        block_rows = RowSpace(E.field, M.dim)
        for r in range(pz.rows):
            block_rows.add(pz.row(r))
        if block_rows.dim() == 0:
            continue
        e = block_primitive_idempotent(E, z)
        me_rows = RowSpace(E.field, M.dim)
        for v in block_rows.basis():
            me_rows.add(M.act_vec(v, e))
        covered = RowSpace(E.field, M.dim)
        count = 0
        simple = None
        for v in me_rows.basis():
            # add refuses, and changes nothing, when v lies in `covered`
            if not covered.add(v):
                continue
            sub = M.spin(v)
            if simple is None:
                simple = restrict(M, sub)
            else:
                if len(sub) * (count + 1) > block_rows.dim():
                    raise OrdAlgebraError("inconsistent isotypic split")
            for w in sub:
                covered.add(w)
            count += 1
        # e is primitive, so the simples spun from M e cover the block
        if covered.dim() != block_rows.dim():
            raise OrdAlgebraError("isotypic component not exhausted")
        out.append((simple, count))
    return out


# ---------------------------------------------------------------------------
# direct sums of algebras and modules, and the bimodule axioms

def _incl_proj(cat, before: Obj, part: Obj, total: Obj):
    """Inclusion and projection for the summand `part` of `total`, placed
    after the summand `before`."""
    iblocks, pblocks = {}, {}
    one = cat.field.one()
    for a in part.support:
        off, n, t = before.mult(a), part.mult(a), total.mult(a)
        iblocks[a] = Matrix.from_entries(
            cat.field, t, n, [(off + j, j, one) for j in range(n)])
        pblocks[a] = Matrix.from_entries(
            cat.field, n, t, [(j, off + j, one) for j in range(n)])
    return Mor(cat, part, total, iblocks), Mor(cat, total, part, pblocks)


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
    action = Mor.combine([cat.field.one()] * len(mods),
                         [i @ m.action @ cat.tensor_mor(p, cat.id(c))
                          for m, i, p in zip(mods, incls, projs)])
    return ModulePres(A, total, action), incls, projs


def simple_modules_reference(end: EndData) -> SimpleModulesResult:
    """The simple modules of a semisimple A split off the direct sum of all
    the free modules: for each central idempotent z of E, the image of a
    primitive idempotent e below z, acting on that sum through the
    natural representation of E."""
    frees = end.modules
    A = frees[0].algebra
    E = end.algebra
    if radical(E):
        raise NotSemisimple("simple modules require a semisimple algebra")
    psum = direct_sum_modules(frees)[0]
    simples, mult_in_A, ends = [], [], []
    for z in central_idempotents(E):
        e = block_primitive_idempotent(E, z)
        e_sum = Mor(A.cat, psum.carrier, psum.carrier,
                    dict(zip(end.labels, E._rep_blocks_of_vec(e))))
        sub = split_idempotent_module(psum, e_sum)
        simples.append(sub)
        ends.append(corner(E, e)[0])
        h = sum(sub.carrier.mult(u) for u in A.cat.unit_components)
        if h % ends[-1].dim != 0:
            raise ValidationFailure("inconsistent multiplicity count")
        mult_in_A.append(h // ends[-1].dim)
    return SimpleModulesResult(simples, mult_in_A, ends)


def section_reference(C, A: AlgebraPres) -> bool:
    """Linear feasibility of a bimodule section s of the multiplication,
    over every s in Hom(A, A (x) A): m s = 1, and s is left and right
    linear."""
    cat = C
    c = A.carrier
    sq = cat.tensor(c, c)
    basis = hom_unit_basis(cat, c, sq)
    field = cat.field
    if not basis:
        return c.is_zero()
    lam = cat.tensor_mor(A.mult, cat.id(c)) @ cat.associator_inv(c, c, c)
    rho = cat.tensor_mor(cat.id(c), A.mult) @ cat.associator(c, c, c)
    cols = []
    for phi in basis:
        c1 = A.mult @ phi                                   # A -> A
        c2 = phi @ A.mult - lam @ cat.tensor_mor(cat.id(c), phi)
        c3 = phi @ A.mult - rho @ cat.tensor_mor(phi, cat.id(c))
        cols.append(c1.coords() + c2.coords() + c3.coords())
    rhs = (cat.id(c).coords()
           + [field.zero()] * (2 * hom_dim(sq, sq)))
    return Matrix.from_cols(field, cols).solve(rhs) is not None


def quadratic_algebra(cat, b: int, c: int) -> AlgebraPres:
    """k[x]/(x^2 + b x + c) in a one-simple category as the carrier 2*1,
    on the basis 1, x."""
    field, one = cat.field, cat.field.one()
    carrier = Obj(cat, {"1": 2})
    sq = cat.tensor(carrier, carrier)
    idx = cat.fusion_index(carrier, carrier)["1"]
    # x * x = -c * 1 - b * x; every other product of basis elements is
    # the basis element x^(i + j)
    products = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one},
                (1, 1): {0: field.scalar(-c), 1: field.scalar(-b)}}
    m = Matrix.from_entries(field, 2, sq.mult("1"),
                            [(k, idx[("1", i, "1", j, 0)], v)
                             for (i, j), out in products.items()
                             for k, v in out.items() if not v.is_zero()])
    unit = Matrix.from_entries(field, 2, 1, [(0, 0, one)])
    return AlgebraPres(cat, carrier, Mor(cat, sq, carrier, {"1": m}),
                       Mor(cat, cat.unit_obj(), carrier, {"1": unit}))


def direct_sum_algebra(A: AlgebraPres, B: AlgebraPres) -> AlgebraPres:
    """Blockwise direct sum A (+) B."""
    cat = A.cat
    ca, cb = A.carrier, B.carrier
    c = ca + cb
    ia, pa = _incl_proj(cat, cat.zero_obj(), ca, c)
    ib, pb = _incl_proj(cat, ca, cb, c)
    mult = (ia @ A.mult @ cat.tensor_mor(pa, pa)
            + ib @ B.mult @ cat.tensor_mor(pb, pb))
    unit = ia @ A.unit + ib @ B.unit
    return AlgebraPres(cat, c, mult, unit)


def validate_bimodule(m) -> ValidationReport:
    rep = ValidationReport("bimodule")
    cat = m.cat
    A = m.algebra
    left = LeftModule(A, m.carrier, m.left_action)
    right = ModulePres(A, m.carrier, m.right_action)
    r1 = validate_left_module(left)
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
