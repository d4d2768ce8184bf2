import random

import pytest

from tensorcat.algebra import internal_end, trivial_algebra
from tensorcat.catalog import make_algebra, make_category
from tensorcat.fincat import (Obj, ValidationFailure, hom_coords, hom_dim,
                              mor_from_coords)
from tensorcat.modcat import (algebra_as_module, bimodule_end_algebra,
                              bimodule_hom_basis, direct_sum_modules,
                              end_algebra, free_bimodule, free_bimodule_maps,
                              free_module, free_module_end, hom_basis,
                              internal_hom,
                              _module_constraint,
                              module_dual, module_internal_end,
                              module_section, obj_tensor_module, rel_tensor,
                              simple_modules, validate_bimodule,
                              validate_module)
from tensorcat.ordalg import is_semisimple


@pytest.fixture(scope="module")
def z2():
    return make_category("pointed", {"n": 2})


@pytest.fixture(scope="module")
def z2reg(z2):
    return make_algebra(z2, "regular_pointed", {})


@pytest.fixture(scope="module")
def fib():
    return make_category("fibonacci", {})


@pytest.fixture(scope="module")
def fib_end_t(fib):
    return internal_end(fib, fib.simple("t"))


def test_free_module_over_unit_is_algebra(z2, z2reg):
    f = free_module(z2.unit_obj(), z2reg)
    assert f.carrier == z2reg.carrier
    assert validate_module(f).ok


def test_free_module_carrier_z2(z2, z2reg):
    f = free_module(z2.simple("g1"), z2reg)
    assert f.carrier.describe() == {"g0": 1, "g1": 1}
    assert validate_module(f).ok


def test_free_module_fibonacci(fib, fib_end_t):
    f = free_module(fib.simple("t"), fib_end_t)
    assert f.carrier.describe() == {"1": 1, "t": 2}
    assert validate_module(f).ok


def test_hom_regular_to_itself_dimension(z2, z2reg):
    # Hom over the algebra from the algebra to itself has the dimension
    # of hom(1, A), here 1 (not 2)
    amod = algebra_as_module(z2reg)
    assert len(hom_basis(amod, amod)) == 1


def test_hom_free_to_module_dimension(cats):
    # dim Hom(free(a), y) = dim hom(a, y-carrier) across instances
    for cname in ("z2", "z3", "fibonacci", "mmf2"):
        cat = cats[cname]
        if cname.startswith("z"):
            A = make_algebra(cat, "regular_pointed", {})
        elif cname == "fibonacci":
            A = internal_end(cat, cat.simple("t"))
        else:
            A = trivial_algebra(cat)
        frees = {a: free_module(cat.simple(a), A) for a in cat.labels}
        for a, f in frees.items():
            if f.carrier.is_zero():
                continue
            for b, y in frees.items():
                if y.carrier.is_zero():
                    continue
                got = len(hom_basis(f, y))
                want = hom_dim(cat.simple(a), y.carrier)
                assert got == want, (cname, a, b)


def test_hom_contains_identity(z2, z2reg):
    amod = algebra_as_module(z2reg)
    hs = hom_basis(amod, amod)
    cat = z2
    idm = cat.id(amod.carrier)
    from tensorcat.linalg import Matrix
    cols = [m.coords() for m in hs]
    assert Matrix.from_cols(cat.field, cols).solve(idm.coords()) is not None


def test_module_dual_roundtrip(z2, z2reg):
    left = algebra_as_module(z2reg, side="left")
    al = module_dual(left, "L")
    assert al.side == "right"
    assert validate_module(al).ok
    back = module_dual(al, "R")
    assert back.side == "left"
    assert back.carrier == left.carrier


def test_module_dual_free_carrier(z2, z2reg):
    f = free_module(z2.simple("g1"), z2reg)
    d = module_dual(f, "R")
    assert d.carrier == z2.dual_obj(f.carrier)
    assert validate_module(d).ok
    with pytest.raises(ValueError):
        module_dual(f, "L")


def test_rel_tensor_regular(z2, z2reg):
    amod = algebra_as_module(z2reg)
    left = algebra_as_module(z2reg, side="left")
    q, p = rel_tensor(amod, left)
    assert q == z2reg.carrier
    assert not p.is_zero()


def test_rel_tensor_over_trivial_is_plain_tensor(z2):
    t = trivial_algebra(z2)
    x = free_module(z2.simple("g1"), t)
    y_left = module_dual(x, "R")
    q, _p = rel_tensor(x, y_left)
    assert q == z2.tensor(x.carrier, z2.dual_obj(x.carrier))


def test_rel_tensor_with_dual_rank(z2, z2reg):
    amod = algebra_as_module(z2reg)
    aleft = algebra_as_module(z2reg, side="left")
    al = module_dual(aleft, "L")          # A^L as right module
    alv = module_dual(al, "R")            # its left dual again
    q, _ = rel_tensor(amod, alv)
    assert q.total() == 2


def test_rel_tensor_absorbs_regular_bimodule(z2, z2reg, fib, fib_end_t):
    # x (x)_A A = x as objects, for every free module x
    for cat, A in ((z2, z2reg), (fib, fib_end_t)):
        aleft = algebra_as_module(A, side="left")
        for a in cat.labels:
            x = free_module(cat.simple(a), A)
            if x.carrier.is_zero():
                continue
            q, _p = rel_tensor(x, aleft)
            assert q == x.carrier, (a,)


def test_internal_hom_identities(cats):
    # [A, x] = x and [x, A^L] = x^L as objects
    for cname in ("z2", "z3", "fibonacci"):
        cat = cats[cname]
        if cname == "fibonacci":
            A = internal_end(cat, cat.simple("t"))
        else:
            A = make_algebra(cat, "regular_pointed", {})
        amod = algebra_as_module(A)
        aleft = algebra_as_module(A, side="left")
        al = module_dual(aleft, "L")
        for a in cat.labels:
            x = free_module(cat.simple(a), A)
            if x.carrier.is_zero():
                continue
            assert internal_hom(amod, x) == x.carrier, cname
            assert internal_hom(x, al) == cat.dual_obj(x.carrier), cname


def test_internal_hom_adjunction_dimension_random(cats):
    rng = random.Random(31)
    names = ["z2", "z3", "fibonacci"]
    count = 0
    while count < 50:
        cat = cats[names[count % len(names)]]
        if names[count % len(names)] == "fibonacci":
            A = internal_end(cat, cat.simple("t"))
        else:
            A = make_algebra(cat, "regular_pointed", {})
        labels = list(cat.labels)
        a = cat.simple(labels[rng.randrange(len(labels))])
        x = free_module(cat.simple(labels[rng.randrange(len(labels))]), A)
        y = free_module(cat.simple(labels[rng.randrange(len(labels))]), A)
        if x.carrier.is_zero() or y.carrier.is_zero():
            continue
        lhs = hom_dim(a, internal_hom(x, y))
        rhs = len(hom_basis(obj_tensor_module(a, x), y))
        assert lhs == rhs
        count += 1


def test_end_algebra_is_associative_and_unital(z2, z2reg):
    frees = [free_module(z2.simple(a), z2reg) for a in z2.labels]
    end = end_algebra(frees)
    # OrdAlgebra validates associativity and unit on construction
    assert end.algebra.dim == sum(
        len(hom_basis(x, y)) for x in frees for y in frees)


def test_end_algebra_of_regular_z2_over_q(z2, z2reg):
    frees = [free_module(z2.simple(a), z2reg) for a in z2.labels]
    end = end_algebra(frees)
    assert end.algebra.dim == 4
    assert is_semisimple(end.algebra)


def test_simple_modules_regular_z2(z2, z2reg):
    sm = simple_modules(free_module_end(z2reg))
    assert sm.semisimple
    assert len(sm.simples) == 1
    s = sm.simples[0][0]
    assert s.carrier.describe() == {"g0": 1, "g1": 1}
    assert sm.mult_in_A == [1]
    assert validate_module(s).ok


def test_simple_modules_m2(cats):
    vq = cats["vec_q"]
    M2 = internal_end(vq, Obj(vq, {"1": 2}))
    sm = simple_modules(free_module_end(M2))
    assert sm.semisimple
    assert len(sm.simples) == 1
    assert sm.simples[0][0].carrier.describe() == {"1": 2}
    assert sm.mult_in_A == [2]


def test_simple_modules_trivial_vec(cats):
    t = trivial_algebra(cats["vec_q"])
    sm = simple_modules(free_module_end(t))
    assert len(sm.simples) == 1
    assert sm.mult_in_A == [1]


def test_simple_modules_nonss_flag(cats):
    vf2 = cats["vec_f2"]
    A = make_algebra(vf2, "ordinary_group_algebra", {"n": 2})
    sm = simple_modules(free_module_end(A))
    assert not sm.semisimple
    assert sm.mult_in_A is None
    assert len(sm.simples) == 1          # one indecomposable projective


def test_simple_modules_group3_over_f2(cats):
    # F2[Z/3] = F2 x F4: two simples of dims 1 and 2
    vf2 = cats["vec_f2"]
    A = make_algebra(vf2, "ordinary_group_algebra", {"n": 3})
    sm = simple_modules(free_module_end(A))
    assert sm.semisimple
    dims = sorted(s.carrier.total() for s, _i, _r in sm.simples)
    assert dims == [1, 2]
    assert sorted(sm.mult_in_A) == [1, 1]


def test_simples_pairwise_nonisomorphic(cats):
    vf2 = cats["vec_f2"]
    A = make_algebra(vf2, "ordinary_group_algebra", {"n": 3})
    sm = simple_modules(free_module_end(A))
    s0, s1 = sm.simples[0][0], sm.simples[1][0]
    assert len(hom_basis(s0, s1)) == 0
    assert len(hom_basis(s1, s0)) == 0
    assert len(hom_basis(s0, s0)) >= 1


def test_bimodule_validation(z2, z2reg):
    b = free_bimodule(z2reg, z2.simple("g1"))
    assert validate_bimodule(b).ok


def test_bimodule_maps_match_solver(z2, z2reg, fib, fib_end_t):
    # the free-bimodule correspondence spans exactly the solver's space
    for cat, A in ((z2, z2reg), (fib, fib_end_t)):
        gens = [free_bimodule(A, cat.simple(a)) for a in cat.labels]
        gens = [g for g in gens if not g.carrier.is_zero()]
        for x in gens:
            for y in gens:
                fast = free_bimodule_maps(x, y)
                slow = bimodule_hom_basis(x, y)
                assert len(fast) == len(slow)
                from tensorcat.linalg import Matrix
                if fast:
                    cols = [m.coords() for m in slow]
                    solver = Matrix.from_cols(cat.field, cols)
                    for m in fast:
                        assert solver.solve(m.coords()) is not None


def test_bimodule_end_semisimple_iff_separable(z2, z2reg, cats):
    assert is_semisimple(bimodule_end_algebra(z2reg).algebra)
    zf2 = cats["z2_f2"]
    A2 = make_algebra(zf2, "regular_pointed", {})
    assert not is_semisimple(bimodule_end_algebra(A2).algebra)


def test_module_section(z2, z2reg):
    sm = simple_modules(free_module_end(z2reg))
    x = sm.simples[0][0]
    F, eps, iota = module_section(x)
    assert (eps @ iota) == z2.id(x.carrier)


def test_module_internal_end_of_free_is_algebra_sized(z2, z2reg):
    amod = algebra_as_module(z2reg)
    B = module_internal_end(amod)
    # [A, A] = A as an object
    assert B.carrier == z2reg.carrier


def test_module_internal_end_matches_heavy_path(z2, z2reg, fib, fib_end_t):
    # the pairwise multiplication must coincide with the one-shot
    # contraction of the full twisted-end multiplication
    from tensorcat.algebra import validate_algebra
    sm = simple_modules(free_module_end(z2reg))
    B = module_internal_end(sm.simples[0][0], cross_check=True)
    assert validate_algebra(B).ok
    assert B.carrier.describe() == {"g0": 1, "g1": 1}
    smf = simple_modules(free_module_end(fib_end_t))
    for s, _i, _r in smf.simples:
        module_internal_end(s, cross_check=True)


def test_direct_sum_modules(z2, z2reg):
    f0 = free_module(z2.simple("g0"), z2reg)
    f1 = free_module(z2.simple("g1"), z2reg)
    s, incls, projs = direct_sum_modules([f0, f1])
    assert s.carrier.total() == 4
    assert validate_module(s).ok
    assert (projs[0] @ incls[0]) == z2.id(f0.carrier)
    assert (projs[1] @ incls[0]).is_zero()


def test_end_express_rejects_maps_outside_the_block(z2, z2reg):
    frees = [free_module(z2.simple(a), z2reg) for a in z2.labels]
    end = end_algebra(frees)
    P = frees[0]
    field = z2.field
    n = len(hom_coords(P.carrier, P.carrier))
    hs = end.blocks[(0, 0)]
    assert 0 < len(hs) < n
    # a module map comes back as its coordinates
    two = field.scalar(2)
    inside = hs[0] + hs[-1].scale(two)
    want = [field.zero()] * len(hs)
    want[0] = want[0] + field.one()
    want[-1] = want[-1] + two
    assert end.express(0, 0, inside) == want
    # a category map that fails the module constraint is refused, alone
    # or among module maps
    outside = None
    for k in range(n):
        phi = mor_from_coords(z2, P.carrier, P.carrier,
                              [field.one() if t == k else field.zero()
                               for t in range(n)])
        if not _module_constraint(P, P, phi).is_zero():
            outside = phi
            break
    assert outside is not None
    with pytest.raises(ValidationFailure):
        end.express(0, 0, outside)
    with pytest.raises(ValidationFailure):
        end.express_many(0, 0, [inside, outside])
