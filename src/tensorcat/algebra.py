"""Algebras internal to a category presentation.

An algebra is a carrier object with multiplication and unit morphisms in
the frozen fusion bases; validation checks associativity and both unit
laws as exact matrix identities.
"""

from .fincat import CategoryPres, Mor, Obj, ValidationFailure, ValidationReport
from .linalg import Matrix


class AlgebraPres:
    """Carrier object plus multiplication carrier(x)carrier -> carrier and
    unit 1 -> carrier."""

    __slots__ = ("cat", "carrier", "mult", "unit")

    def __init__(self, cat: CategoryPres, carrier: Obj, mult: Mor, unit: Mor):
        self.cat = cat
        self.carrier = carrier
        sq = cat.tensor(carrier, carrier)
        if mult.src != sq or mult.dst != carrier:
            raise ValidationFailure("multiplication has the wrong hom space")
        if unit.src != cat.unit_obj() or unit.dst != carrier:
            raise ValidationFailure("unit has the wrong hom space")
        self.mult = mult
        self.unit = unit

    def __repr__(self):
        return f"AlgebraPres(carrier={self.carrier!r})"


def validate_algebra(A: AlgebraPres) -> ValidationReport:
    """Associativity and unit identities, exactly."""
    rep = ValidationReport("algebra")
    cat = A.cat
    c = A.carrier
    rep.checks_run += 1
    lhs = A.mult @ cat.tensor_mor(A.mult, cat.id(c))
    rhs = A.mult @ cat.tensor_mor(cat.id(c), A.mult) @ cat.associator(c, c, c)
    if lhs != rhs:
        rep.fail("associativity fails")
        return rep
    rep.checks_run += 1
    left = A.mult @ cat.tensor_mor(A.unit, cat.id(c))
    if left != cat.unitor_left(c):
        rep.fail("left unit law fails")
        return rep
    rep.checks_run += 1
    right = A.mult @ cat.tensor_mor(cat.id(c), A.unit)
    if right != cat.unitor_right(c):
        rep.fail("right unit law fails")
        return rep
    return rep


def trivial_algebra(cat: CategoryPres) -> AlgebraPres:
    """The tensor unit with its canonical multiplication."""
    one = cat.unit_obj()
    mult = cat.unitor_left(one)        # 1 (x) 1 -> 1, coefficient one
    unit = cat.id(one)
    return AlgebraPres(cat, one, mult, unit)


def internal_end(cat: CategoryPres, a: Obj) -> AlgebraPres:
    """The algebra a (x) a^v with evaluation as multiplication."""
    av = cat.dual_obj(a)
    T = cat.tensor(a, av)
    src_tree = ((a, av), (a, av))
    mid_tree = ((a, (av, a)), av)
    m1 = cat.reassoc(src_tree, mid_tree)
    inner = cat.unitor_right(a) @ cat.tensor_mor(cat.id(a), cat.ev_left(a))
    m2 = cat.tensor_mor(inner, cat.id(av))
    mult = m2 @ m1
    unit = cat.coev_left(a)
    return AlgebraPres(cat, T, mult, unit)


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


def _incl_proj(cat, before: Obj, part: Obj, total: Obj):
    """Inclusion and projection for the summand `part` of `total`, placed
    after the summand `before`."""
    iblocks, pblocks = {}, {}
    for a in part.support:
        m = Matrix.zeros(cat.field, total.mult(a), part.mult(a))
        p = Matrix.zeros(cat.field, part.mult(a), total.mult(a))
        off = before.mult(a)
        for j in range(part.mult(a)):
            m.a[off + j][j] = cat.field.one()
            p.a[j][off + j] = cat.field.one()
        iblocks[a] = m
        pblocks[a] = p
    return Mor(cat, part, total, iblocks), Mor(cat, total, part, pblocks)
