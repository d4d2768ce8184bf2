"""The adjoint-isomorphism search with finite-field escalation, the
reference for `structure.separability_beta`.

`beta_with_escalation_reference` runs `beta_search_reference` over the
algebra's field; where that search stops `undetermined` in
characteristic p, it base-extends to F_(q^2), F_(q^3) and F_(q^4) in
turn and searches again, noting the degree as `escalated_to_degree`.
`beta_search_reference` stops `undetermined` at once where the field has
fewer than d + 1 elements (d the carrier's total multiplicity), so
that escalation can look for a certifying grid.

The package searches over the algebra's own field only.  Escalation
starts where q^h > budget and q < d + 1, and then no extension fits an
exhaustive pass or a certifying grid in the budget, so every rung runs
the same small-integer ladder the base-field search runs (see
`separability_beta`); the comparison tests check that both give the
same verdicts.
"""

from itertools import islice, product

from tensorcat.fields import Embedding, Field
from tensorcat.fincat import Mor
from tensorcat.ordalg import UNDETERMINED
from tensorcat.poly import Poly, factor, is_irreducible
from tensorcat.structure import (AlgebraAnalysisContext, _base_p_digits,
                                 _field_elements, base_extend_algebra,
                                 search_budget)


def beta_search_reference(C, A, ctx=None):
    """Search for g: A^v -> A (a module map) making
    m o (id (x) g) o m' invertible, within `search_budget()` candidates.
    Returns (verdict, details)."""
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
    grid = _field_elements(field, total_deg + 1)
    if field.char != 0 and len(grid) < total_deg + 1:
        # must escalate to a bigger field for a certifying grid
        return UNDETERMINED, details
    if (total_deg + 1) ** h > budget:
        # bounded ladder of small-integer combinations; certifies only True.
        # In small characteristic the integers repeat as scalars, and a
        # repeated value would only spend budget on the same candidates
        small = list(dict.fromkeys(field.scalar(v)
                                   for v in (0, 1, -1, 2, -2, 3, -3)))
        if found(combinations(small, budget)):
            return True, details
        return UNDETERMINED, details
    if found(combinations(grid)):
        return True, details
    details["certified_grid"] = (total_deg + 1) ** h
    return False, details


def beta_with_escalation_reference(C, A, ctx=None):
    """Finite-field escalation ladder for the beta search: base-extend
    until the grid certificate applies (finite extensions of finite
    fields are separable, so separability is unchanged).  `ctx` serves
    the search over C only; each extension gets a fresh context."""
    verdict, details = beta_search_reference(C, A, ctx)
    if verdict is not UNDETERMINED or C.field.char == 0:
        return verdict, details
    p = C.field.char
    base_deg = C.field.deg
    for m in (2, 3, 4):
        deg = base_deg * m
        K = finite_field_of_degree(p, deg)
        emb = embed_finite(C.field, K)
        if emb is None:
            continue
        C2, A2 = base_extend_algebra(C, A, emb)
        verdict, det2 = beta_search_reference(C2, A2)
        det2["escalated_to_degree"] = deg
        if verdict is not UNDETERMINED:
            return verdict, det2
    return UNDETERMINED, details


def finite_field_of_degree(p: int, deg: int) -> Field:
    """Deterministic: the lexicographically first irreducible monic of
    the given degree over F_p."""
    prime = Field(p)
    for coeffs in _base_p_digits(p, deg):
        f = Poly(prime, [prime.scalar(c) for c in coeffs] + [prime.one()])
        if is_irreducible(f):
            return Field(p, list(coeffs) + [1], gen_name="w")
    raise ValueError("no irreducible polynomial found")


def embed_finite(src: Field, dst: Field):
    """An embedding src -> dst between finite fields, if one exists."""
    if src.minpoly is None:
        return Embedding(src, dst)
    f = Poly(dst, [dst.scalar([c]) if dst.deg > 1 else dst.scalar(c)
                   for c in src.minpoly])
    for g, _m in factor(f):
        if g.degree == 1:
            root = -g.coeffs[0]
            return Embedding(src, dst, root)
    return None
