import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from construction_oracle import (LeftModule, direct_sum_algebra,
                                 direct_sum_modules, internal_hom_reference,
                                 left_regular_module, module_internal_end,
                                 module_section, rel_tensor,
                                 right_module_dual, validate_bimodule,
                                 validate_left_module)
from end_oracle import bimodule_hom_basis
from tensorcat.algebra import internal_end, trivial_algebra
from tensorcat.catalog import make_algebra, make_category
from tensorcat.fileio import FormatError, module_from_json, module_to_json
from tensorcat.fincat import (Mor, Obj, ValidationFailure, hom_coords,
                              hom_dim, mor_from_coords)
from tensorcat.modcat import (BimodulePres, EndData, ModulePres,
                              algebra_as_module, bimodule_end_algebra,
                              free_bimodule, free_bimodule_maps, free_module,
                              free_module_end, hom_basis, hom_bases,
                              internal_hom, module_dual, obj_tensor_module,
                              simple_modules, validate_module)
from tensorcat.linalg import Matrix
from tensorcat.ordalg import NotSemisimple, is_semisimple


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


def test_free_module_acts_by_the_multiplication_through_the_associator(
        corpus):
    # a (x) A, built as the category's action on the regular module, has
    # the action (1 (x) m) o alpha(a, A, A) and generator a
    for name, cat, A in corpus:
        c = A.carrier
        for a in cat.labels:
            obj = cat.simple(a)
            f = free_module(obj, A)
            assert f.generator is obj, (name, a)
            assert f.carrier == cat.tensor(obj, c), (name, a)
            assert f.action == (cat.tensor_mor(cat.id(obj), A.mult)
                                @ cat.associator(obj, c, c)), (name, a)


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
    cols = [m.coords() for m in hs]
    assert Matrix.from_cols(cat.field, cols).solve(idm.coords()) is not None


def test_module_dual_roundtrip(z2, z2reg):
    al = module_dual(z2reg)
    assert isinstance(al, ModulePres)
    assert validate_module(al).ok
    back = right_module_dual(al)
    assert isinstance(back, LeftModule)
    assert validate_left_module(back).ok
    assert back.carrier == z2reg.carrier


def test_module_dual_free_carrier(z2, z2reg):
    f = free_module(z2.simple("g1"), z2reg)
    d = right_module_dual(f)
    assert d.carrier == z2.dual_obj(f.carrier)
    assert validate_left_module(d).ok


def test_rel_tensor_regular(z2, z2reg):
    amod = algebra_as_module(z2reg)
    assert rel_tensor(amod, left_regular_module(z2reg)) == z2reg.carrier


def test_rel_tensor_over_trivial_is_plain_tensor(z2):
    t = trivial_algebra(z2)
    x = free_module(z2.simple("g1"), t)
    y_left = right_module_dual(x)
    q = rel_tensor(x, y_left)
    assert q == z2.tensor(x.carrier, z2.dual_obj(x.carrier))


def test_rel_tensor_with_dual_rank(z2, z2reg):
    amod = algebra_as_module(z2reg)
    al = module_dual(z2reg)               # A^L as right module
    alv = right_module_dual(al)           # its left dual again
    assert rel_tensor(amod, alv).total() == 2


def test_rel_tensor_absorbs_regular_bimodule(z2, z2reg, fib, fib_end_t):
    # x (x)_A A = x as objects, for every free module x
    for cat, A in ((z2, z2reg), (fib, fib_end_t)):
        aleft = left_regular_module(A)
        for a in cat.labels:
            x = free_module(cat.simple(a), A)
            if x.carrier.is_zero():
                continue
            assert rel_tensor(x, aleft) == x.carrier, (a,)


def _regular_or_end(cat, cname):
    if cname == "fibonacci":
        return internal_end(cat, cat.simple("t"))
    return make_algebra(cat, "regular_pointed", {})


def test_internal_hom_identities(cats):
    # [A, x] = x and [x, A^L] = x^L as objects
    for cname in ("z2", "z3", "fibonacci"):
        cat = cats[cname]
        A = _regular_or_end(cat, cname)
        amod = algebra_as_module(A)
        al = module_dual(A)
        for a in cat.labels:
            x = free_module(cat.simple(a), A)
            if x.carrier.is_zero():
                continue
            assert internal_hom(amod, x) == x.carrier, cname
            assert internal_hom(x, al) == cat.dual_obj(x.carrier), cname


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_internal_hom_adjunction_dimension_random(cats, data):
    # the package reads [x, y] from Hom(a, [x, y]) = Hom_A(a (x) x, y) at
    # simple a; the reference dualises x (x)_A y^v.  The objects agree,
    # and the reference meets the adjunction at objects a of multiplicity
    # one or two, among free modules, A and A^L
    cname = data.draw(st.sampled_from(["z2", "z3", "fibonacci"]))
    cat = cats[cname]
    A = _regular_or_end(cat, cname)
    labels = st.sampled_from(list(cat.labels))
    modules = st.one_of(
        labels.map(lambda b: free_module(cat.simple(b), A)),
        st.just(algebra_as_module(A)),
        st.just(module_dual(A)))
    a = Obj(cat, {data.draw(labels): data.draw(st.integers(1, 2))})
    x, y = data.draw(modules), data.draw(modules)
    ref = internal_hom_reference(x, y)
    assert internal_hom(x, y) == ref
    assert hom_dim(a, ref) == len(hom_basis(obj_tensor_module(a, x), y))


def test_modules_take_no_side(cats):
    # every module is a right module: the constructors take no side, a
    # module has none, and a module file that names the left side is
    # refused.  For M_2(Q) and Q[Z/2] the left regular action, read as a
    # right one, would even meet the right-module axioms, so the loader's
    # axiom check alone would not catch it
    assert list(inspect.signature(ModulePres).parameters) == \
        ["algebra", "carrier", "action"]
    assert list(inspect.signature(algebra_as_module).parameters) == ["A"]
    assert list(inspect.signature(module_dual).parameters) == ["A"]
    vq = cats["vec_q"]
    for A in (internal_end(vq, Obj(vq, {"1": 2})),
              make_algebra(vq, "ordinary_group_algebra", {"n": 2})):
        with pytest.raises(TypeError):
            ModulePres(A, A.carrier, A.mult, side="left")
        x = algebra_as_module(A)
        assert not hasattr(x, "side")
        blob = module_to_json(x)
        assert blob["side"] == "right"
        blob["side"] = "left"
        with pytest.raises(FormatError, match="only right modules"):
            module_from_json(A, blob)


def test_hom_basis_refuses_modules_over_different_algebras(cats):
    # Q[Z/2] and Q x Q share the carrier 2*1 but not the product
    vq = cats["vec_q"]
    group = make_algebra(vq, "ordinary_group_algebra", {"n": 2})
    t = trivial_algebra(vq)
    product = direct_sum_algebra(t, t)
    assert group.carrier == product.carrier
    with pytest.raises(ValidationFailure, match="different algebras"):
        hom_basis(algebra_as_module(group), algebra_as_module(product))
    # a second copy of one algebra is the same algebra
    again = make_algebra(vq, "ordinary_group_algebra", {"n": 2})
    assert hom_basis(algebra_as_module(group), algebra_as_module(again))


def test_end_algebra_is_associative_and_unital(z2, z2reg):
    frees = [free_module(z2.simple(a), z2reg) for a in z2.labels]
    end = EndData(frees, hom_bases, z2.field)
    # OrdAlgebra validates associativity and unit on construction
    assert end.algebra.dim == sum(
        len(hom_basis(x, y)) for x in frees for y in frees)


def test_end_algebra_of_regular_z2_over_q(z2, z2reg):
    frees = [free_module(z2.simple(a), z2reg) for a in z2.labels]
    end = EndData(frees, hom_bases, z2.field)
    assert end.algebra.dim == 4
    assert is_semisimple(end.algebra)


def test_split_idempotent_obj_factors_the_idempotent_of_each_simple(
        corpus, monkeypatch):
    # at each label incl proj = e and proj incl = 1, for the idempotent
    # of every simple module of every semisimple corpus pair
    import tensorcat.modcat as modcat
    inner = modcat._split_idempotent_obj
    seen = []

    def spy(cat, T, e):
        out = inner(cat, T, e)
        seen.append((cat, T, e, out))
        return out
    monkeypatch.setattr(modcat, "_split_idempotent_obj", spy)
    pairs = splits = 0
    for name, _cat, A in corpus:
        end = free_module_end(A)
        if not is_semisimple(end.algebra):
            continue
        seen.clear()
        assert len(simple_modules(end).simples) == len(seen), name
        pairs, splits = pairs + 1, splits + len(seen)
        for cat, T, e, (q, incl, proj) in seen:
            for a in T.support:
                assert incl.block(a) @ proj.block(a) == e.block(a), name
                assert proj.block(a) @ incl.block(a) == \
                    Matrix.identity(cat.field, q.mult(a)), name
    assert (pairs, splits) == (18, 32)


def test_simple_modules_regular_z2(z2, z2reg):
    sm = simple_modules(free_module_end(z2reg))
    assert len(sm.simples) == 1
    s = sm.simples[0]
    assert s.carrier.describe() == {"g0": 1, "g1": 1}
    assert sm.mult_in_A == [1]
    assert validate_module(s).ok


def test_simple_modules_m2(cats):
    vq = cats["vec_q"]
    M2 = internal_end(vq, Obj(vq, {"1": 2}))
    sm = simple_modules(free_module_end(M2))
    assert len(sm.simples) == 1
    assert sm.simples[0].carrier.describe() == {"1": 2}
    assert sm.mult_in_A == [2]


def test_simple_modules_trivial_vec(cats):
    t = trivial_algebra(cats["vec_q"])
    sm = simple_modules(free_module_end(t))
    assert len(sm.simples) == 1
    assert sm.mult_in_A == [1]


def test_simple_modules_nonss_flag(cats):
    # F2[Z/2] has a nonzero radical: simple modules are refused
    vf2 = cats["vec_f2"]
    A = make_algebra(vf2, "ordinary_group_algebra", {"n": 2})
    with pytest.raises(NotSemisimple):
        simple_modules(free_module_end(A))


def test_simple_modules_group3_over_f2(cats):
    # F2[Z/3] = F2 x F4: two simples of dims 1 and 2
    vf2 = cats["vec_f2"]
    A = make_algebra(vf2, "ordinary_group_algebra", {"n": 3})
    sm = simple_modules(free_module_end(A))
    dims = sorted(s.carrier.total() for s in sm.simples)
    assert dims == [1, 2]
    assert sorted(sm.mult_in_A) == [1, 1]


def test_simples_pairwise_nonisomorphic(cats):
    vf2 = cats["vec_f2"]
    A = make_algebra(vf2, "ordinary_group_algebra", {"n": 3})
    sm = simple_modules(free_module_end(A))
    s0, s1 = sm.simples
    assert len(hom_basis(s0, s1)) == 0
    assert len(hom_basis(s1, s0)) == 0
    assert len(hom_basis(s0, s0)) >= 1


def test_bimodule_validation(z2, z2reg):
    b = free_bimodule(z2reg, z2.simple("g1"))
    assert validate_bimodule(b).ok


def test_bimodule_maps_match_solver(corpus):
    # the free-bimodule correspondence spans exactly the space of the
    # generic kernel solve, for every pair of free bimodules
    names = ("z2/regular", "vec_q/m2", "fibonacci/end_t", "mmf2/trivial")
    pairs = 0
    for name, cat, A in corpus:
        if name not in names:
            continue
        gens = [free_bimodule(A, cat.simple(a)) for a in cat.labels]
        gens = [g for g in gens if not g.carrier.is_zero()]
        for y in gens:
            for x, maps in zip(gens, free_bimodule_maps(gens, y),
                               strict=True):
                fast = [m.coords() for m in maps]
                slow = [m.coords() for m in bimodule_hom_basis(x, y)]
                assert len(fast) == len(slow), (name, x, y)
                pairs += 1
                if not fast:
                    continue
                assert Matrix.from_cols(cat.field, fast).rank() == len(fast)
                solver = Matrix.from_cols(cat.field, slow)
                assert all(c is not None for c in solver.solve_many(fast))
    assert pairs >= 8


def test_bimodule_end_semisimple_iff_separable(z2, z2reg, cats):
    assert is_semisimple(bimodule_end_algebra(z2reg).algebra)
    zf2 = cats["z2_f2"]
    A2 = make_algebra(zf2, "regular_pointed", {})
    assert not is_semisimple(bimodule_end_algebra(A2).algebra)


def test_module_section(z2, z2reg):
    sm = simple_modules(free_module_end(z2reg))
    x = sm.simples[0]
    F, eps, iota = module_section(x)
    assert (eps @ iota) == z2.id(x.carrier)


def test_module_internal_end_of_free_is_algebra_sized(z2, z2reg):
    amod = algebra_as_module(z2reg)
    B = module_internal_end(amod)
    # [A, A] = A as an object
    assert B.carrier == z2reg.carrier


def test_module_internal_end_of_simples_validates(z2, z2reg, fib, fib_end_t):
    from tensorcat.algebra import validate_algebra
    sm = simple_modules(free_module_end(z2reg))
    B = module_internal_end(sm.simples[0])
    assert validate_algebra(B).ok
    assert B.carrier.describe() == {"g0": 1, "g1": 1}
    smf = simple_modules(free_module_end(fib_end_t))
    for s in smf.simples:
        assert validate_algebra(module_internal_end(s)).ok


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
    end = EndData(frees, hom_bases, z2.field)
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
    # or added to a module map
    c = z2reg.carrier
    outside = None
    for k in range(n):
        phi = mor_from_coords(z2, P.carrier, P.carrier,
                              [field.one() if t == k else field.zero()
                               for t in range(n)])
        if phi @ P.action != P.action @ z2.tensor_mor(phi, z2.id(c)):
            outside = phi
            break
    assert outside is not None
    with pytest.raises(ValidationFailure):
        end.express(0, 0, outside)
    with pytest.raises(ValidationFailure):
        end.express(0, 0, inside + outside)


def test_module_and_bimodule_actions_on_the_wrong_hom_space_are_refused(
        z2, z2reg):
    # the multiplication A (x) A -> A is no action on the carrier 1: the
    # action of a module on 1 runs 1 (x) A -> 1
    with pytest.raises(ValidationFailure, match="module action has the "
                                                "wrong hom space"):
        ModulePres(z2reg, z2.unit_obj(), z2reg.mult)
    b = free_bimodule(z2reg, z2.unit_obj())
    with pytest.raises(ValidationFailure, match="left action has the "
                                                "wrong hom space"):
        BimodulePres(z2reg, b.carrier, z2reg.mult, b.right_action)
    with pytest.raises(ValidationFailure, match="right action has the "
                                                "wrong hom space"):
        BimodulePres(z2reg, b.carrier, b.left_action, z2reg.mult)
    BimodulePres(z2reg, b.carrier, b.left_action, b.right_action)


def test_a_zero_action_on_a_nonzero_carrier_fails_the_unit_law(z2, z2reg):
    # 0 is associative, so the first check passes and the unit law fails
    x = z2reg.carrier
    zero = Mor(z2, z2.tensor(x, z2reg.carrier), x, {})
    rep = validate_module(ModulePres(z2reg, x, zero))
    assert not rep.ok
    assert rep.failures == ["module unit law fails"]
    assert rep.checks_run == 2
