"""Algebras internal to a category presentation.

An algebra is a carrier object with multiplication and unit morphisms in
the frozen fusion bases; validation checks associativity and both unit
laws as exact matrix identities.
"""

from functools import cached_property

from .fincat import CategoryPres, Mor, Obj, ValidationFailure, ValidationReport


class AlgebraPres:
    """Carrier object plus multiplication carrier(x)carrier -> carrier and
    unit 1 -> carrier."""

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

    @cached_property
    def validation(self) -> ValidationReport:
        """`validate_algebra(self)`, computed once per algebra."""
        return validate_algebra(self)


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
    # (a av)(a av) -> ((a av) a) av -> (a (av a)) av
    m1 = (cat.tensor_mor(cat.associator(a, av, a), cat.id(av))
          @ cat.associator_inv(T, a, av))
    inner = cat.unitor_right(a) @ cat.tensor_mor(cat.id(a), cat.ev_left(a))
    m2 = cat.tensor_mor(inner, cat.id(av))
    mult = m2 @ m1
    unit = cat.coev_left(a)
    return AlgebraPres(cat, T, mult, unit)

