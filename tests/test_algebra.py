import pytest

from construction_oracle import direct_sum_algebra
from tensorcat.algebra import internal_end, trivial_algebra, validate_algebra
from tensorcat.catalog import (CocycleObstruction, make_algebra, make_category,
                               standard_entries)
from tensorcat.fincat import Obj, hom_dim


def test_trivial_algebra_in_vec():
    cat = make_category("vec", {})
    A = trivial_algebra(cat)
    assert validate_algebra(A).ok


def test_regular_algebra_z2_untwisted():
    cat = make_category("pointed", {"n": 2})
    A = make_algebra(cat, "regular_pointed", {})
    assert validate_algebra(A).ok
    assert A.carrier.describe() == {"g0": 1, "g1": 1}


def test_zeroed_structure_constant_fails():
    cat = make_category("pointed", {"n": 2})
    A = make_algebra(cat, "regular_pointed", {})
    from tensorcat.algebra import AlgebraPres
    bad_mult = A.mult.scale(cat.field.zero())
    broken = AlgebraPres(cat, A.carrier, bad_mult, A.unit)
    rep = validate_algebra(broken)
    assert not rep.ok


def test_subgroup_algebra_obstruction():
    twisted = make_category("pointed", {"n": 2, "omega": {(1, 1, 1): -1}})
    with pytest.raises(CocycleObstruction):
        make_algebra(twisted, "regular_pointed", {})


def test_subgroup_trivial_subgroup():
    cat = make_category("pointed", {"n": 4})
    A = make_algebra(cat, "regular_pointed", {"subgroup_order": 1})
    assert A.carrier.describe() == {"g0": 1}
    assert validate_algebra(A).ok


def test_subgroup_z2_in_z4():
    cat = make_category("pointed", {"n": 4})
    A = make_algebra(cat, "regular_pointed", {"subgroup_order": 2})
    assert A.carrier.describe() == {"g0": 1, "g2": 1}
    assert validate_algebra(A).ok


def test_internal_end_trivial_object():
    cat = make_category("vec", {})
    A = internal_end(cat, cat.simple("1"))
    assert validate_algebra(A).ok
    assert A.carrier.describe() == {"1": 1}


def test_internal_end_matrix_algebra():
    cat = make_category("vec", {})
    A = internal_end(cat, Obj(cat, {"1": 2}))
    assert A.carrier.describe() == {"1": 4}
    assert validate_algebra(A).ok
    # End_A(A) = A^op of M_2 is M_2 again: dimension 4, simple
    from tensorcat.modcat import free_module_end
    from tensorcat.ordalg import center, is_semisimple
    E = free_module_end(A).algebra
    assert E.dim == 4 and is_semisimple(E) and len(center(E)) == 1


def test_internal_end_fibonacci_carrier():
    fib = make_category("fibonacci", {})
    A = internal_end(fib, fib.simple("t"))
    assert A.carrier.describe() == {"1": 1, "t": 1}
    assert validate_algebra(A).ok


def test_internal_end_validates_everywhere(cats):
    for name, cat in cats.items():
        for a in cat.labels:
            A = internal_end(cat, cat.simple(a))
            assert validate_algebra(A).ok, (name, a)


def test_internal_end_dim_consistency(cats):
    # hom(1, [a,a]) has the dimension of End(a), also for compound objects
    for name, cat in cats.items():
        one = cat.unit_obj()
        for a in cat.labels:
            x = cat.simple(a)
            A = internal_end(cat, x)
            assert hom_dim(one, A.carrier) == hom_dim(x, x)
    z2 = cats["z2"]
    x = Obj(z2, {"g0": 2, "g1": 1})
    A = internal_end(z2, x)
    assert hom_dim(z2.unit_obj(), A.carrier) == hom_dim(x, x) == 5


def test_direct_sum_algebra():
    cat = make_category("vec", {})
    t = trivial_algebra(cat)
    s = direct_sum_algebra(t, t)
    assert s.carrier.describe() == {"1": 2}
    assert validate_algebra(s).ok


def test_ordinary_group_algebra_carrier():
    from tensorcat.fields import Field
    cat = make_category("vec", {"field": Field.prime(2)})
    A = make_algebra(cat, "ordinary_group_algebra", {"n": 2})
    assert A.carrier.describe() == {"1": 2}
    assert validate_algebra(A).ok
