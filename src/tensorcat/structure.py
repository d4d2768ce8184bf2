"""Decision procedures for algebras in a category presentation.

Every analysis computes each applicable criterion along several
independent routes (module-category radical, direct bimodule-section
feasibility, the adjoint-multiplication isomorphism search, the
duality-loop pairing) and hard-fails on any disagreement between
determinate verdicts: the redundancy is the test strategy.

Nonvanishing searches are deterministic: basis elements first, then
integer grids whose size certifies the verdict (a polynomial of total
degree d vanishing on a (d+1)^h grid is zero), with fixed budgets that
the environment variable TENSORCAT_BUDGET can override.
"""

import os
from functools import cached_property

from .algebra import AlgebraPres, validate_algebra
from .fields import Embedding, Field, Scalar
from .fincat import CategoryPres, Mor, Obj, hom_dim
from .linalg import Matrix
from .modcat import (EndData, ModulePres, algebra_as_module,
                     bimodule_end_algebra, end_algebra, free_module_end,
                     hom_basis, internal_hom, module_dual, module_internal_end,
                     module_over_end, simple_modules)
from .ordalg import (UNDETERMINED, is_semisimple, is_separable_field_ext,
                     is_separable_over_k, module_is_simple, radical)

DEFAULT_BUDGET = 4096


class OracleDisagreement(Exception):
    """Two determinate criteria disagreed; this is an internal error."""


class PreconditionViolated(Exception):
    pass


class NotFusion(Exception):
    """Decomposable multi-fusion data admits no diagonal reduction."""


class NotSemisimpleAlgebra(Exception):
    pass


class InseparableExtension(Exception):
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

def unit_multiplicity(C: CategoryPres, X: Obj) -> int:
    return sum(X.mult(e) for e in C.unit_components)


def transport_mor(dst_cat: CategoryPres, emb: Embedding, m: Mor) -> Mor:
    src = Obj(dst_cat, m.src.describe())
    dst = Obj(dst_cat, m.dst.describe())
    blocks = {a: Matrix(dst_cat.field, [[emb(x) for x in row] for row in blk.a])
              for a, blk in m.blocks.items()}
    return Mor(dst_cat, src, dst, blocks)


def base_extend_algebra(C: CategoryPres, A: AlgebraPres, emb: Embedding):
    """Coefficient-embedded copies of the category and the algebra; the
    extension must be separable (inseparable data is rejected)."""
    if emb.dst.minpoly is not None:
        from .poly import Poly
        prime = Field(emb.dst.char)
        f = Poly(prime, [prime.scalar(c) for c in emb.dst.minpoly])
        try:
            ok = is_separable_field_ext(f)
        except Exception as exc:
            raise InseparableExtension(str(exc)) from exc
        if not ok:
            raise InseparableExtension(
                "the target field is an inseparable extension")
    C2 = C.scalar_extend(emb)
    A2 = AlgebraPres(C2, Obj(C2, A.carrier.describe()),
                     transport_mor(C2, emb, A.mult),
                     transport_mor(C2, emb, A.unit))
    rep = validate_algebra(A2)
    rep.raise_if_failed()
    return C2, A2


# ---------------------------------------------------------------------------
# individual criteria

class AlgebraAnalysisContext:
    """The one cache of per-analysis facts for a (C, A) pair.

    Each fact is computed on first use and shared by every criterion
    that is handed this context:

    * `end`: the endomorphism data of the free-module generator;
    * `radical`: the radical of `end.algebra` (the module radical);
    * `division`: the three-valued division verdict;
    * `simples`: the simple modules and their multiplicities, split off
      `end`;
    * `dual_module`: A^L, the left dual of A, as a right module;
    * `to_dual`, `from_dual`: bases of the module maps A -> A^L and
      A^L -> A;
    * `internal_homs`: the objects [x_i, x_j] for all pairs of simples;
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
    def radical(self) -> list:
        return radical(self.end.algebra)

    @cached_property
    def division(self):
        M = module_over_end(self.end, algebra_as_module(self.A))
        return module_is_simple(self.end.algebra, M)

    @cached_property
    def simples(self):
        return simple_modules(self.end)

    @cached_property
    def dual_module(self) -> ModulePres:
        return module_dual(algebra_as_module(self.A, side="left"), "L")

    @cached_property
    def to_dual(self) -> list:
        return hom_basis(algebra_as_module(self.A), self.dual_module)

    @cached_property
    def from_dual(self) -> list:
        return hom_basis(self.dual_module, algebra_as_module(self.A))

    @cached_property
    def internal_homs(self) -> dict:
        sims = [s for s, _i, _r in self.simples.simples]
        return {(i, j): internal_hom(si, sj)
                for i, si in enumerate(sims) for j, sj in enumerate(sims)}

    @cached_property
    def sim_classes(self) -> list:
        return _sim_classes(self)


def is_semisimple_algebra(C: CategoryPres, A: AlgebraPres,
                          ctx: AlgebraAnalysisContext | None = None) -> bool:
    ctx = ctx or AlgebraAnalysisContext(C, A)
    return not ctx.radical


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
    """Partition of the simple modules under nonvanishing internal hom."""
    n = len(ctx.simples.simples)
    homs = ctx.internal_homs
    related = [[not homs[(i, j)].is_zero() for j in range(n)]
               for i in range(n)]
    for i in range(n):
        if not related[i][i]:
            raise OracleDisagreement("internal end of a simple module vanished")
        for j in range(n):
            if related[i][j] != related[j][i]:
                raise OracleDisagreement(
                    "internal-hom relation is not symmetric")
    seen = [False] * n
    classes = []
    for i in range(n):
        if seen[i]:
            continue
        stack, cls = [i], []
        seen[i] = True
        while stack:
            k = stack.pop()
            cls.append(k)
            for j in range(n):
                if related[k][j] and not seen[j]:
                    seen[j] = True
                    stack.append(j)
        classes.append(sorted(cls))
    for cls in classes:
        for i in cls:
            for j in range(n):
                if related[i][j] and j not in cls:
                    raise OracleDisagreement(
                        "internal-hom relation is not transitive")
    return classes


def is_separable(C: CategoryPres, A: AlgebraPres) -> bool:
    """Linear feasibility of a bimodule section of the multiplication."""
    cat = C
    c = A.carrier
    sq = cat.tensor(c, c)
    from .fincat import hom_coords, mor_from_coords
    coords = hom_coords(c, sq)
    field = cat.field
    if not coords:
        return c.is_zero()
    lam = cat.tensor_mor(A.mult, cat.id(c)) @ cat.associator_inv(c, c, c)
    rho = cat.tensor_mor(cat.id(c), A.mult) @ cat.associator(c, c, c)
    cols = []
    for k in range(len(coords)):
        vec = [field.zero()] * len(coords)
        vec[k] = field.one()
        phi = mor_from_coords(cat, c, sq, vec)
        c1 = A.mult @ phi                                   # A -> A
        c2 = phi @ A.mult - lam @ cat.tensor_mor(cat.id(c), phi)
        c3 = phi @ A.mult - rho @ cat.tensor_mor(phi, cat.id(c))
        cols.append(c1.coords() + c2.coords() + c3.coords())
    rhs = (cat.id(c).coords()
           + [field.zero()] * (2 * hom_dim(sq, sq)))
    return Matrix.from_cols(field, cols).solve(rhs) is not None


# -- the adjoint-multiplication isomorphism search ---------------------------

def _field_elements(field: Field, count: int):
    """The first `count` field elements in a fixed enumeration."""
    out = []
    if field.char == 0:
        k = 0
        while len(out) < count:
            out.append(field.scalar(k))
            k = -k + (1 if k <= 0 else 0)
        return out
    coeffs = [0] * field.deg
    while len(out) < count:
        out.append(field.scalar(list(coeffs)))
        for pos in range(field.deg):
            coeffs[pos] += 1
            if coeffs[pos] < field.char:
                break
            coeffs[pos] = 0
        else:
            break
    return out


def _tuples(values, h):
    if h == 0:
        yield ()
        return
    for rest in _tuples(values, h - 1):
        for v in values:
            yield rest + (v,)


def separability_beta(C: CategoryPres, A: AlgebraPres,
                      budget: int | None = None,
                      ctx: AlgebraAnalysisContext | None = None):
    """Search for g: A^v -> A (a module map) making
    m o (id (x) g) o m' invertible.  Returns (verdict, details)."""
    budget = budget if budget is not None else search_budget()
    ctx = ctx or AlgebraAnalysisContext(C, A)
    cat = C
    c = A.carrier
    gs = ctx.from_dual
    details = {"hom_dim": len(gs), "budget": budget, "tested": 0}
    if not gs:
        return (False if not c.is_zero() else True), details
    mate = cat.mate_right(A.mult, c, c)       # A -> A (x) A^v
    def beta_of(g: Mor) -> Mor:
        return A.mult @ cat.tensor_mor(cat.id(c), g) @ mate
    def invertible(m: Mor) -> bool:
        for a in c.support:
            if m.block(a).rank() != c.mult(a):
                return False
        return True
    h = len(gs)
    total_deg = c.total()
    # basis elements first
    for g in gs:
        details["tested"] += 1
        if invertible(beta_of(g)):
            details["witness"] = "basis"
            return True, details
    field = cat.field
    if field.char != 0:
        q = field.char ** field.deg
        if q ** h <= budget:
            for tup in _tuples(_field_elements(field, q), h):
                details["tested"] += 1
                g = _combine(gs, tup)
                if invertible(beta_of(g)):
                    details["witness"] = [s.serialize() for s in tup]
                    return True, details
            details["exhaustive"] = True
            return False, details
    grid = _field_elements(field, total_deg + 1)
    if field.char != 0 and len(grid) < total_deg + 1:
        # must escalate to a bigger field for a certifying grid
        return UNDETERMINED, details
    if (total_deg + 1) ** h > budget:
        # bounded ladder of small-integer combinations; certifies only True
        small = [field.scalar(v) for v in (0, 1, -1, 2, -2, 3, -3)]
        tested = 0
        for tup in _tuples(small, h):
            tested += 1
            if tested > budget:
                break
            g = _combine(gs, tup)
            if invertible(beta_of(g)):
                details["witness"] = [s.serialize() for s in tup]
                return True, details
        details["tested"] += tested
        return UNDETERMINED, details
    for tup in _tuples(grid, h):
        details["tested"] += 1
        g = _combine(gs, tup)
        if invertible(beta_of(g)):
            details["witness"] = [s.serialize() for s in tup]
            return True, details
    details["certified_grid"] = (total_deg + 1) ** h
    return False, details


def _combine(mors, coeffs):
    out = None
    for m, t in zip(mors, coeffs):
        term = m.scale(t)
        out = term if out is None else out + term
    return out


def separability_beta_with_escalation(C, A, budget=None, ctx=None):
    """Finite-field escalation ladder for the beta search: base-extend
    until the grid certificate applies (finite extensions of finite
    fields are separable, so separability is unchanged).  `ctx` serves
    the search over C only; each extension gets a fresh context."""
    verdict, details = separability_beta(C, A, budget, ctx)
    if verdict is not UNDETERMINED or C.field.char == 0:
        return verdict, details
    p = C.field.char
    base_deg = C.field.deg
    for m in (2, 3, 4):
        deg = base_deg * m
        K = _finite_field_of_degree(p, deg)
        emb = _embed_finite(C.field, K)
        if emb is None:
            continue
        C2, A2 = base_extend_algebra(C, A, emb)
        verdict, det2 = separability_beta(C2, A2, budget)
        det2["escalated_to_degree"] = deg
        if verdict is not UNDETERMINED:
            return verdict, det2
    return UNDETERMINED, details


def _finite_field_of_degree(p: int, deg: int) -> Field:
    """Deterministic: the lexicographically first irreducible monic of
    the given degree over F_p."""
    from .poly import Poly, is_irreducible
    prime = Field(p)
    coeffs = [0] * deg
    while True:
        f = Poly(prime, [prime.scalar(c) for c in coeffs] + [prime.one()])
        if is_irreducible(f):
            return Field(p, [c for c in coeffs] + [1], gen_name="w")
        for pos in range(deg):
            coeffs[pos] += 1
            if coeffs[pos] < p:
                break
            coeffs[pos] = 0
        else:
            raise ValueError("no irreducible polynomial found")


def _embed_finite(src: Field, dst: Field):
    """An embedding src -> dst between finite fields, if one exists."""
    if src.minpoly is None:
        return Embedding(src, dst)
    from .poly import Poly, factor
    f = Poly(dst, [dst.scalar([c]) if dst.deg > 1 else dst.scalar(c)
                   for c in src.minpoly])
    for g, _m in factor(f):
        if g.degree == 1:
            root = -g.coeffs[0]
            return Embedding(src, dst, root)
    return None


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
    if len(C.unit_components) != 1:
        raise PreconditionViolated(
            "the dimension is defined inside a fusion category "
            "(reduce multi-fusion input to a diagonal component first)")
    if unit_multiplicity(C, A.carrier) != 1:
        raise PreconditionViolated(
            "dimension requires hom(1, A) of dimension one")
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
    multiplicities, diagonal division algebras, connecting objects, and
    the object-level identity carrier(A) = (+)_{i,j} [x_i, x_j]."""
    ctx = ctx or AlgebraAnalysisContext(C, A)
    if not is_semisimple_algebra(C, A, ctx):
        raise NotSemisimpleAlgebra("matrix decomposition needs semisimplicity")
    sm = ctx.simples
    sims = [s for s, _i, _r in sm.simples]
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
        for i in cls:
            if mults[i] == 0:
                continue
            dalg = module_internal_end(sims[i])
            entry["diagonal"].append({
                "index": i,
                "carrier": dalg.carrier.describe(),
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
    for idx, (s, _i, _r) in enumerate(ctx.simples.simples):
        e = end_algebra([s]).algebra
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
    from .fincat import validate_category
    validate_category(sub).raise_if_failed()
    return sub


def global_dimension(C: CategoryPres) -> Scalar:
    """Sum over simple labels of the dimension of the internal end."""
    from .algebra import internal_end
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

    Computes every applicable criterion and raises OracleDisagreement if
    two determinate verdicts conflict."""
    from .algebra import validate_algebra
    rep = validate_algebra(A)
    rep.raise_if_failed()
    ctx = AlgebraAnalysisContext(C, A)
    verdicts = {}
    notes = {}

    semisimple = is_semisimple_algebra(C, A, ctx)
    verdicts["semisimple_module_radical"] = semisimple

    separable = is_separable(C, A)
    verdicts["separable_section"] = separable

    bimod_end = bimodule_end_algebra(A)
    bimod = is_semisimple(bimod_end.algebra)
    verdicts["separable_bimodule_radical"] = bimod
    if bimod != separable:
        raise OracleDisagreement(
            f"bimodule radical ({bimod}) vs section feasibility ({separable})")

    beta, beta_details = separability_beta_with_escalation(C, A, ctx=ctx)
    verdicts["separable_adjoint_iso"] = _flag(beta)
    notes["beta"] = beta_details
    if beta is not UNDETERMINED and beta != separable:
        raise OracleDisagreement(
            f"adjoint-isomorphism search ({beta}) vs section ({separable})")

    division = is_division_algebra(C, A, ctx)
    verdicts["division"] = _flag(division)

    # a simple algebra has a semisimple (indecomposable) module category,
    # so non-semisimple input is definitively not simple
    simple = is_simple_algebra(C, A, ctx) if semisimple else False
    verdicts["simple"] = simple

    if separable and not semisimple:
        raise OracleDisagreement("separable but not semisimple")
    if C.field.char == 0 and semisimple and not separable:
        raise OracleDisagreement(
            "characteristic zero: semisimple must imply separable")

    dim_value = None
    alpha = None
    if division is True:
        alpha = separability_alpha_division(C, A, ctx)
        verdicts["separable_duality_loop"] = alpha
        if alpha != separable:
            raise OracleDisagreement(
                f"duality-loop pairing ({alpha}) vs section ({separable})")
        if len(C.unit_components) == 1 \
                and unit_multiplicity(C, A.carrier) == 1:
            dim_value = dim_division_algebra(C, A, ctx)
            if (not dim_value.is_zero()) != separable:
                raise OracleDisagreement(
                    "dimension nonvanishing disagrees with separability")
        else:
            notes["dimension"] = "skipped: needs a fusion category and " \
                                 "one-dimensional hom(1, A)"
    else:
        verdicts["separable_duality_loop"] = "skipped: not a division algebra"

    decomposition = None
    endo_report = None
    if semisimple:
        decomposition = matrix_decomposition(C, A, ctx)
        if not decomposition["object_identity_holds"]:
            raise OracleDisagreement(
                "carrier does not match the sum of connecting objects")
        endo_report = endomorphism_separability_report(C, A, ctx)

    report = {
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
        "oracle_agreement": dict(verdicts),
        "notes": notes,
        "budgets": {"search_budget": search_budget()},
        "audit": {
            "module_end_algebra": ctx.end.algebra.serialize(),
            "bimodule_end_algebra": bimod_end.algebra.serialize(),
        },
    }
    return report
