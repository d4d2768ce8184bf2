"""Decision procedures for algebras in a category presentation.

Every analysis computes each applicable criterion along several
independent routes (module-category radical, direct bimodule-section
feasibility, the adjoint-multiplication isomorphism search, the
duality-loop pairing) and hard-fails on any disagreement between
determinate verdicts: the redundancy is the test strategy.  The section
is read through its balanced element z = s o u in Hom(1, A (x) A),
which fixes a bimodule section s: A -> A (x) A (see `is_separable`).

Nonvanishing searches are deterministic: basis elements first, then
integer grids whose size certifies the verdict (a polynomial of total
degree d vanishing on a (d+1)^h grid is zero), with fixed budgets that
the environment variable TENSORCAT_BUDGET can override.  Each search
runs over the algebra's own field (see `separability_beta`).
"""

import os
from functools import cached_property
from itertools import islice, product

from .algebra import AlgebraPres, internal_end
from .fields import Embedding, Field, Scalar
from .fincat import CategoryPres, Mor, Obj, hom_dim, hom_offsets
from .linalg import Matrix
from .modcat import (EndData, ModulePres, algebra_as_module,
                     bimodule_end_algebra, free_module_end,
                     hom_basis, internal_hom, module_dual, simple_modules)
from .ordalg import (UNDETERMINED, is_semisimple, is_separable_over_k,
                     module_is_simple, radical)

DEFAULT_BUDGET = 4096


class OracleDisagreement(Exception):
    """Two determinate criteria disagreed; this is an internal error."""


class PreconditionViolated(Exception):
    pass


class NotFusion(Exception):
    """Decomposable multi-fusion data admits no diagonal reduction."""


class NotSemisimpleAlgebra(Exception):
    pass


def search_budget() -> int:
    """The budget in force: TENSORCAT_BUDGET clamped to at least 1, or the
    default; a value that is not an integer raises ValueError."""
    raw = os.environ.get("TENSORCAT_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return max(1, int(raw))
    except ValueError:
        raise ValueError(
            f"TENSORCAT_BUDGET must be an integer, got {raw!r}") from None


# ---------------------------------------------------------------------------
# helpers

_DIMENSION_DOMAIN = "a fusion category and one-dimensional hom(1, A)"


def _dimension_defined(C: CategoryPres, A: AlgebraPres) -> bool:
    """Whether dim A is defined: C is fusion and hom(1, A) is a line."""
    units = C.unit_components
    return len(units) == 1 and A.carrier.mult(units[0]) == 1


def transport_mor(dst_cat: CategoryPres, emb: Embedding, m: Mor) -> Mor:
    src = Obj(dst_cat, m.src.describe())
    dst = Obj(dst_cat, m.dst.describe())
    blocks = {a: blk.map(emb, dst_cat.field) for a, blk in m.blocks.items()}
    return Mor(dst_cat, src, dst, blocks)


def base_extend_algebra(C: CategoryPres, A: AlgebraPres, emb: Embedding):
    """Coefficient-embedded copies of the category and the algebra.  The
    extension is separable: a `Field` refuses a reducible minpoly, and
    an irreducible one over Q or F_p, both perfect, has distinct roots."""
    C2 = C.scalar_extend(emb)
    A2 = AlgebraPres(C2, Obj(C2, A.carrier.describe()),
                     transport_mor(C2, emb, A.mult),
                     transport_mor(C2, emb, A.unit))
    A2.validation.raise_if_failed()
    return C2, A2


# ---------------------------------------------------------------------------
# individual criteria

class AlgebraAnalysisContext:
    """The one cache of per-analysis facts for a (C, A) pair.

    Each fact is computed on first use and shared by every criterion
    that is handed this context:

    * `end`: E = End(P), the endomorphism data of the free-module
      generator P = (+)_a a (x) A;
    * `division`: the three-valued division verdict, whether
      Hom_A(P, A) is a simple right E-module.  A = 1 (x) A is the sum
      of the free modules on the unit components, so Hom_A(P, A) is the
      right ideal eps E, where eps is the sum of their identities: the
      unit of E on those diagonal blocks.  It is simple iff eps kills the
      radical and the corner eps E eps is a division algebra;
    * `simples`: the simple modules split off `end`, with their End
      algebras (corners of E) and multiplicities; a semisimple A only;
    * `dual_module`: A^L = `module_dual(A)`, the right module on the
      left dual of the carrier, its action built from the multiplication;
    * `to_dual`, `from_dual`: bases of the module maps A -> A^L and
      A^L -> A;
    * `internal_homs`: the objects [x_i, x_j] for all pairs of simples,
      each read from the adjunction Hom(a, [x, y]) = Hom_A(a (x) x, y)
      (Etingof, Gelaki, Nikshych and Ostrik, Tensor Categories, 7.9);
    * `sim_classes`: the partition of the simples under nonvanishing
      internal hom.

    Criteria called without a context build a fresh one.
    """

    def __init__(self, C: CategoryPres, A: AlgebraPres):
        self.C = C
        self.A = A

    @cached_property
    def end(self) -> EndData:
        return free_module_end(self.A)

    @cached_property
    def division(self):
        units = self.C.unit_components
        end = self.end
        keep = {j for j, p in enumerate(end.modules)
                if p.generator.support[0] in units}
        return module_is_simple(end.algebra, end.diagonal_unit(keep))

    @cached_property
    def simples(self):
        return simple_modules(self.end)

    @cached_property
    def dual_module(self) -> ModulePres:
        return module_dual(self.A)

    @cached_property
    def to_dual(self) -> list:
        return hom_basis(algebra_as_module(self.A), self.dual_module)

    @cached_property
    def from_dual(self) -> list:
        return hom_basis(self.dual_module, algebra_as_module(self.A))

    @cached_property
    def internal_homs(self) -> dict:
        sims = self.simples.simples
        return {(i, j): internal_hom(si, sj)
                for i, si in enumerate(sims) for j, sj in enumerate(sims)}

    @cached_property
    def sim_classes(self) -> list:
        return _sim_classes(self)


def is_semisimple_algebra(C: CategoryPres, A: AlgebraPres,
                          ctx: AlgebraAnalysisContext | None = None) -> bool:
    ctx = ctx or AlgebraAnalysisContext(C, A)
    return not radical(ctx.end.algebra)


def is_division_algebra(C: CategoryPres, A: AlgebraPres,
                        ctx: AlgebraAnalysisContext | None = None):
    """Whether A is simple as a right module over itself; three-valued."""
    ctx = ctx or AlgebraAnalysisContext(C, A)
    return ctx.division


def is_simple_algebra(C: CategoryPres, A: AlgebraPres,
                      ctx: AlgebraAnalysisContext | None = None) -> bool:
    ctx = ctx or AlgebraAnalysisContext(C, A)
    if not is_semisimple_algebra(C, A, ctx):
        return False
    return len(ctx.sim_classes) == 1


def _sim_classes(ctx) -> list:
    """Partition of the simple modules under nonvanishing internal hom.

    The relation must be an equivalence: the simples related to each
    simple include it and are related to exactly the same simples."""
    n = len(ctx.simples.simples)
    homs = ctx.internal_homs
    related = [tuple(j for j in range(n) if not homs[(i, j)].is_zero())
               for i in range(n)]
    for i, cls in enumerate(related):
        if i not in cls or any(related[j] != cls for j in cls):
            raise OracleDisagreement(
                "internal-hom relation is not an equivalence")
    return [list(cls) for cls in sorted(set(related))]


def is_separable(C: CategoryPres, A: AlgebraPres) -> bool:
    """Whether m: A (x) A -> A has an A-bimodule section, read through
    its balanced element: linear feasibility over Hom(1, A (x) A).

    Write L(z) = (m (x) 1) a^-1 (1 (x) z) r^-1 and
    R(z) = (1 (x) m) a (z (x) 1) l^-1 for z: 1 -> A (x) A, both maps
    A -> A (x) A (a the associator, l and r the unitors).  A bimodule
    section s exists iff some z has m z = u (u the unit of A) and
    L(z) = R(z); such z correspond one to one with the sections
    (Pierce, Associative Algebras, section 10; Fuchs, Runkel and
    Schweigert, hep-th/0204148).

    * From a section s, put z = s u.  Then m z = m s u = u.  The unit
      law gives 1_A = m (1 (x) u) r^-1, so left linearity of s,
      s m = (m (x) 1) a^-1 (1 (x) s), gives s = L(z); right linearity
      gives s = R(z) the same way from 1_A = m (u (x) 1) l^-1.
    * From such a z, put s = L(z).  Naturality of r and a,
      associativity of m and the pentagon and triangle axioms give
      s m = (m (x) 1) a^-1 (1 (x) s): s is left linear.  By the same
      argument R(z) is right linear, and s = R(z), so s is a bimodule
      map.  Associativity and m z = u give
      m s = m (1 (x) m z) r^-1 = m (1 (x) u) r^-1 = 1_A.

    So the unknowns are the dim Hom(1, A (x) A) coordinates of z, with
    one column per basis element: the coordinates of m z, then those of
    L(z) - R(z).  (Solving for s directly takes dim Hom(A, A (x) A)
    unknowns: k^6 against k^4 for M_k.)

    The system is written in one walk over the nonzeros of m,
    m_left = (m (x) 1) a^-1 and m_right = (1 (x) m) a, with nothing
    composed per z.  The unit basis element z at row i of the unit
    label u, which sends u to the basis vector (u, i) of A (x) A, has:

    * m z = column i of m's block at u;
    * L(z) = m_left (1 (x) z) r^-1: r^-1 sends the basis vector (a, j) of
      A to (a, j, e, 0, mu) of A (x) 1, e the right unit of a, times its
      one nonzero scalar, and 1 (x) z sends that to (a, j, u, i, mu) of
      A (x) (A (x) A) if e = u and to zero if not, since z is zero off u
      and one at (i, 0).  So L(z)'s column at (a, j) is r^-1's scalar
      times m_left's column at (a, j, u, i, mu) in the block at a, or
      zero;
    * R(z) the same from l^-1, (u, 0, a, j, mu) and m_right's column at
      (u, i, a, j, mu).

    So each nonzero of m_left (m_right) at column (a, j, u, i, mu)
    ((u, i, a, j, mu)) lands, times the unitor's scalar (negated for
    R), in the column of z = (u, i) at the coordinate of L(z) - R(z)
    that its row and j give, which is the entry of the composite."""
    c = A.carrier
    sq = C.tensor(c, c)
    if not hom_dim(C.unit_obj(), sq):
        return c.is_zero()
    rhs = A.unit.coords() + [C.field.zero()] * hom_dim(c, sq)
    return _section_system(C, A).solve(rhs) is not None


def _section_system(C: CategoryPres, A: AlgebraPres) -> Matrix:
    """The matrix of `is_separable`: the coordinates of m z, then those
    of L(z) - R(z), in the column of each unit basis element z of
    Hom(1, A (x) A), written from the nonzeros of m, m_left and m_right
    (see `is_separable`)."""
    cat = C
    c = A.carrier
    one = cat.unit_obj()
    sq = cat.tensor(c, c)
    field = cat.field
    # the unit basis element z = (u, i) is the column zcol[u] + i
    zcol = hom_offsets(one, sq)
    idc = cat.id(c)
    m_left = cat.tensor_mor(A.mult, idc) @ cat.associator_inv(c, c, c)
    m_right = cat.tensor_mor(idc, A.mult) @ cat.associator(c, c, c)
    top, rows = hom_offsets(one, c), hom_offsets(c, sq)
    height = hom_dim(one, c)
    entries = [(top[u] + r, zcol[u] + i, val)
               for u, blk in A.mult.blocks.items() if u in zcol
               for r, i, val in blk.nonzero()]
    sides = ((m_left, cat.unitor_right_inv(c), cat.fusion_basis(c, one),
              cat.fusion_index(c, sq), True, field.one()),
             (m_right, cat.unitor_left_inv(c), cat.fusion_basis(one, c),
              cat.fusion_index(sq, c), False, -field.one()))
    for m, unitor, ubasis, mindex, left, sign in sides:
        for a, ublk in unitor.blocks.items():
            if a not in m.blocks:
                continue
            # m's column at a -> (j, column of z, scalar) for each z
            # that reads it
            feeds = {}
            for pos, j, s in ublk.nonzero():
                # (a, j, u, 0, mu) of A (x) 1, or (u, 0, a, j, mu) of 1 (x) A
                t = ubasis[a][pos]
                u, mu = t[2] if left else t[0], t[4]
                for i in range(sq.mult(u)):
                    col = mindex[a][(a, j, u, i, mu) if left
                                    else (u, i, a, j, mu)]
                    feeds.setdefault(col, []).append(
                        (j, zcol[u] + i, sign * s))
            r0, nc = height + rows[a], c.mult(a)
            for r, col, val in m.blocks[a].nonzero():
                entries += [(r0 + r * nc + j, z, val * s)
                            for j, z, s in feeds.get(col, ())]
    return Matrix.from_entries(field, height + hom_dim(c, sq),
                               hom_dim(one, sq), entries)


# -- the adjoint-multiplication isomorphism search ---------------------------

def _field_elements(field: Field, count: int):
    """The first `count` field elements in a fixed enumeration."""
    if field.char == 0:
        out = []
        k = 0
        while len(out) < count:
            out.append(field.scalar(k))
            k = -k + (1 if k <= 0 else 0)
        return out
    return [field.scalar(list(digits)) for digits in
            islice(_base_p_digits(field.char, field.deg), count)]


def _base_p_digits(p: int, n: int):
    """Every n-tuple over range(p), as the base-p digits of 0, 1, 2, ...
    with the least significant digit first."""
    return (digits[::-1] for digits in product(range(p), repeat=n))


def separability_beta(C: CategoryPres, A: AlgebraPres,
                      ctx: AlgebraAnalysisContext | None = None):
    """Search for g: A^v -> A (a module map) making
    m o (id (x) g) o m' invertible, within `search_budget()` candidates.
    Returns (verdict, details).

    The search stays in the field F of A.  Write h = dim Hom_A(A^L, A)
    and d for the carrier's total multiplicity.  Over F = F_q with
    q^h > budget and q < d + 1, no grid certifies and the ladder runs;
    F_(q^m) would decide nothing more.  Its exhaustive pass needs
    q^(mh) <= budget and its grid (d+1)^h <= budget, but (d+1)^h > q^h >
    budget, so it runs the same ladder: prime-field values, the embedded
    hom basis, and ranks that do not change under field extension."""
    budget = search_budget()
    ctx = ctx or AlgebraAnalysisContext(C, A)
    cat = C
    c = A.carrier
    gs = ctx.from_dual
    details = {"hom_dim": len(gs), "budget": budget, "tested": 0}
    if not gs:
        return (False if not c.is_zero() else True), details
    mate = cat.mate_right(A.mult, c, c)       # A -> A (x) A^v
    h = len(gs)
    total_deg = c.total()
    # beta(g) is linear in g: the basis pass keeps beta(g_i), and each
    # combination's beta is the same combination of them
    betas = []

    def found(candidates) -> bool:
        """Count and test each (coefficients, beta) candidate; record the
        first beta that is invertible (None coefficients: a basis g)."""
        for tup, beta in candidates:
            details["tested"] += 1
            if all(beta.block(a).rank() == c.mult(a) for a in c.support):
                details["witness"] = ("basis" if tup is None
                                      else [s.serialize() for s in tup])
                return True
        return False

    def basis_betas():
        for g in gs:
            betas.append(A.mult @ cat.tensor_mor(cat.id(c), g) @ mate)
            yield None, betas[-1]

    def combinations(values, limit=None):
        for tup in islice(product(values, repeat=h), limit):
            yield tup, Mor.combine(tup, betas)

    # basis elements first; a combination pass runs only after this one
    # has computed every beta(g_i)
    if found(basis_betas()):
        return True, details
    field = cat.field
    if field.char != 0:
        q = field.char ** field.deg
        if q ** h <= budget:
            if found(combinations(_field_elements(field, q))):
                return True, details
            details["exhaustive"] = True
            return False, details
    if (total_deg + 1) ** h > budget:
        # bounded ladder of small-integer combinations; certifies only True.
        # In small characteristic the integers repeat as scalars, and a
        # repeated value would only spend budget on the same candidates
        small = list(dict.fromkeys(field.scalar(v)
                                   for v in (0, 1, -1, 2, -2, 3, -3)))
        if found(combinations(small, budget)):
            return True, details
        return UNDETERMINED, details
    if found(combinations(_field_elements(field, total_deg + 1))):
        return True, details
    details["certified_grid"] = (total_deg + 1) ** h
    return False, details


def separability_beta_with_escalation(C, A, ctx=None):
    """`separability_beta`, under the name that the benchmark tracer's
    `structure.beta` span wraps; the name stays only for the tracer."""
    return separability_beta(C, A, ctx)


def separability_alpha_division(C: CategoryPres, A: AlgebraPres,
                                ctx: AlgebraAnalysisContext | None = None):
    """Nonvanishing of the duality loop through a pair of module
    isomorphisms A -> A^v and A^v -> A; division algebras only."""
    ctx = ctx or AlgebraAnalysisContext(C, A)
    division = is_division_algebra(C, A, ctx)
    if division is not True:
        raise PreconditionViolated(
            f"alpha criterion requires a division algebra (got {division})")
    cat = C
    c = A.carrier
    for f in ctx.to_dual:
        for g in ctx.from_dual:
            alpha = cat.ev_left(c) @ cat.tensor_mor(f, g) @ cat.coev_left(c)
            if not alpha.is_zero():
                return True
    return False


def dim_division_algebra(C: CategoryPres, A: AlgebraPres,
                         ctx: AlgebraAnalysisContext | None = None) -> Scalar:
    """The scalar of the loop 1 -> A (x) A^v -> A^v (x) A -> 1 through an
    isomorphism f: A -> A^v of right modules and its inverse."""
    ctx = ctx or AlgebraAnalysisContext(C, A)
    if not _dimension_defined(C, A):
        raise PreconditionViolated(
            f"dimension requires {_DIMENSION_DOMAIN} (reduce multi-fusion "
            "input to a diagonal component first)")
    division = is_division_algebra(C, A, ctx)
    if division is not True:
        raise PreconditionViolated(
            f"dimension requires a division algebra (got {division})")
    cat = C
    c = A.carrier
    fs = ctx.to_dual
    if not fs:
        raise OracleDisagreement(
            "no module map A -> A^v exists for a division algebra")
    f = fs[0]
    if all(m.is_zero() for m in f.blocks.values()):
        raise OracleDisagreement("zero basis morphism")
    finv = f.inv()
    loop = cat.ev_left(c) @ cat.tensor_mor(f, finv) @ cat.coev_left(c)
    return loop.scalar() if not loop.is_zero() else cat.field.zero()


def matrix_decomposition(C: CategoryPres, A: AlgebraPres,
                         ctx: AlgebraAnalysisContext | None = None) -> dict:
    """Block data of a semisimple algebra: simple module summands with
    multiplicities, diagonal objects, connecting objects, and the
    object-level identity carrier(A) = (+)_{i,j} [x_i, x_j].

    Every object is read from the internal-hom table of the context; the
    diagonal entry of x_i is the carrier of the division algebra
    [x_i, x_i]."""
    ctx = ctx or AlgebraAnalysisContext(C, A)
    if not is_semisimple_algebra(C, A, ctx):
        raise NotSemisimpleAlgebra("matrix decomposition needs semisimplicity")
    sm = ctx.simples
    sims = sm.simples
    mults = sm.mult_in_A
    classes = ctx.sim_classes
    connecting = ctx.internal_homs
    n = len(sims)
    total = Obj(C, {})
    for i in range(n):
        for j in range(n):
            o = connecting[(i, j)]
            count = mults[i] * mults[j]
            for _ in range(count):
                total = total + o
    identity_ok = (total == A.carrier)
    out_classes = []
    for cls in classes:
        entry = {"simples": [], "diagonal": []}
        for i in cls:
            if mults[i] == 0:
                continue
            entry["simples"].append({
                "index": i,
                "carrier": sims[i].carrier.describe(),
                "multiplicity": mults[i],
            })
            entry["diagonal"].append({
                "index": i,
                "carrier": connecting[(i, i)].describe(),
            })
        out_classes.append(entry)
    return {
        "classes": out_classes,
        "connecting": {f"{i},{j}": connecting[(i, j)].describe()
                       for i in range(n) for j in range(n)},
        "object_identity_holds": identity_ok,
        "simple_count": n,
    }


def endomorphism_separability_report(C: CategoryPres, A: AlgebraPres,
                                     ctx=None) -> list:
    """Separability over the base field of the endomorphism algebra of
    each simple module."""
    ctx = ctx or AlgebraAnalysisContext(C, A)
    if not is_semisimple_algebra(C, A, ctx):
        raise NotSemisimpleAlgebra("per-module report needs semisimplicity")
    out = []
    for idx, e in enumerate(ctx.simples.ends):
        out.append({"module": idx, "end_dim": e.dim,
                    "separable_over_base": is_separable_over_k(e)})
    return out


# ---------------------------------------------------------------------------
# category-level: global dimension and the center verdict

def diagonal_component(C: CategoryPres) -> CategoryPres:
    """The fusion category e C e for the first unit component of an
    indecomposable multi-fusion presentation."""
    units = list(C.unit_components)
    if len(units) == 1:
        return C
    # linkage graph on unit components
    adj = {e: set() for e in units}
    for a in C.labels:
        el, er = C.left_unit_of(a), C.right_unit_of(a)
        adj[el].add(er)
        adj[er].add(el)
    seen = {units[0]}
    stack = [units[0]]
    while stack:
        e = stack.pop()
        for f in adj[e]:
            if f not in seen:
                seen.add(f)
                stack.append(f)
    if seen != set(units):
        raise NotFusion(
            "the presentation is a direct sum of smaller categories; "
            "analyze each summand separately")
    e0 = units[0]
    labels = [a for a in C.labels
              if C.left_unit_of(a) == e0 and C.right_unit_of(a) == e0]
    lset = set(labels)
    fusion = {k: v for k, v in C._N.items() if all(x in lset for x in k)}
    F = {k: v for k, v in C._F.items() if all(x in lset for x in k)}
    cup = {a: C.cup[a] for a in labels}
    cap = {a: C.cap[a] for a in labels}
    dualR = {a: C.dualR[a] for a in labels}
    sub = CategoryPres(C.field, labels, [e0], dualR, fusion, F, cup, cap)
    sub.validation().raise_if_failed()
    return sub


def global_dimension(C: CategoryPres) -> Scalar:
    """Sum over simple labels of the dimension of the internal end."""
    Cf = diagonal_component(C)
    total = Cf.field.zero()
    for a in Cf.labels:
        A = internal_end(Cf, Cf.simple(a))
        total = total + dim_division_algebra(Cf, A)
    return total


def center_semisimple_verdict(C: CategoryPres) -> bool:
    return not global_dimension(C).is_zero()


# ---------------------------------------------------------------------------
# the combined analysis

SCHEMA_VERSION = "1"


def _flag(v):
    if v is UNDETERMINED:
        return "undetermined"
    return bool(v)


def analyze(C: CategoryPres, A: AlgebraPres) -> dict:
    """Full analysis report for one (category, algebra) pair.

    First C's coherence (`C.validation()`, computed once per category)
    and then A's axioms (`A.validation`, computed once per algebra), both
    shared with the catalog and the CLI loaders, are checked, raising
    ValidationFailure: the End algebras below are
    associative by construction only over a valid pair (see `EndData`).

    Raises OracleDisagreement unless every determinate separability route
    gives the section's verdict, separable implies semisimple (and the
    converse holds in characteristic 0), and a semisimple A's carrier is
    the sum of its connecting objects."""
    C.validation().raise_if_failed()
    A.validation.raise_if_failed()
    ctx = AlgebraAnalysisContext(C, A)
    notes = {}

    semisimple = is_semisimple_algebra(C, A, ctx)
    separable = is_separable(C, A)
    bimod_end = bimodule_end_algebra(A)
    beta, notes["beta"] = separability_beta_with_escalation(C, A, ctx=ctx)
    routes = {"bimodule radical": is_semisimple(bimod_end.algebra),
              "adjoint-isomorphism search": beta}
    division = is_division_algebra(C, A, ctx)
    dim_value = None
    if division is True:
        routes["duality-loop pairing"] = separability_alpha_division(C, A, ctx)
        if _dimension_defined(C, A):
            dim_value = dim_division_algebra(C, A, ctx)
            routes["dimension nonvanishing"] = not dim_value.is_zero()
        else:
            notes["dimension"] = f"skipped: needs {_DIMENSION_DOMAIN}"
    for name, v in routes.items():
        if v is not UNDETERMINED and v != separable:
            raise OracleDisagreement(f"{name} ({v}) vs section ({separable})")

    # checked before the simple modules are split off, which needs a
    # semisimple A
    if separable and not semisimple:
        raise OracleDisagreement("separable but not semisimple")
    if C.field.char == 0 and semisimple and not separable:
        raise OracleDisagreement(
            "characteristic zero: semisimple must imply separable")
    simple = is_simple_algebra(C, A, ctx)

    decomposition = matrix_decomposition(C, A, ctx) if semisimple else None
    if decomposition and not decomposition["object_identity_holds"]:
        raise OracleDisagreement(
            "carrier does not match the sum of connecting objects")
    endo_report = (endomorphism_separability_report(C, A, ctx)
                   if semisimple else None)

    return {
        "schema_version": SCHEMA_VERSION,
        "field": C.field.describe(),
        "carrier": A.carrier.describe(),
        "flags": {
            "semisimple": semisimple,
            "simple": simple,
            "division": _flag(division),
            "separable": separable,
        },
        "dim_A": dim_value.serialize() if dim_value is not None else None,
        "matrix_decomposition": decomposition,
        "endomorphism_separability": endo_report,
        "oracle_agreement": {
            "semisimple_module_radical": semisimple,
            "separable_section": separable,
            "separable_bimodule_radical": routes["bimodule radical"],
            "separable_adjoint_iso": _flag(beta),
            "division": _flag(division),
            "simple": simple,
            "separable_duality_loop": routes.get(
                "duality-loop pairing", "skipped: not a division algebra"),
        },
        "notes": notes,
        "budgets": {"search_budget": search_budget()},
        "audit": {
            "module_end_algebra": ctx.end.algebra.serialize(),
            "bimodule_end_algebra": bimod_end.algebra.serialize(),
        },
    }
