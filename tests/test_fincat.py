import random

import pytest

from tensorcat.catalog import make_category, standard_entries
from tensorcat.fields import Field
from tensorcat.fincat import (Obj, ValidationFailure, hom_dim,
                              validate_category)
from tensorcat.linalg import Matrix


@pytest.fixture(scope="module")
def z2():
    return make_category("pointed", {"n": 2})


@pytest.fixture(scope="module")
def fib():
    return make_category("fibonacci", {})


def test_vec_validates():
    cat = make_category("vec", {})
    assert validate_category(cat).ok


def test_twisted_z2_validates():
    cat = make_category("pointed", {"n": 2, "omega": {(1, 1, 1): -1}})
    assert validate_category(cat).ok
    g = cat.simple("g1")
    a = cat.associator(g, g, g)
    assert a.block("g1").a[0][0] == cat.field.scalar(-1)


def test_broken_fibonacci_fails_pentagon(fib):
    from tensorcat.fincat import CategoryPres
    F = dict(fib._F)
    bad = F[("t", "t", "t", "t")].copy()
    bad.a[0][0] = -bad.a[0][0]
    F[("t", "t", "t", "t")] = bad
    broken = CategoryPres(fib.field, fib.labels, fib.unit_components,
                          fib.dualR, fib._N, F, fib.cup, fib.cap)
    rep = validate_category(broken)
    assert not rep.ok
    assert "pentagon" in rep.failures[0]
    assert "t,t,t,t" in rep.failures[0].replace(" ", "")


def test_tensor_obj_fibonacci(fib):
    t = fib.simple("t")
    tt = fib.tensor(t, t)
    assert tt.describe() == {"1": 1, "t": 1}


def test_tensor_obj_vec_multiplicities():
    cat = make_category("vec", {})
    x = Obj(cat, {"1": 2})
    assert cat.tensor(x, x).describe() == {"1": 4}


def test_tensor_obj_pointed_bilinear(z2):
    x = Obj(z2, {"g0": 1, "g1": 1})
    assert z2.tensor(x, x).describe() == {"g0": 2, "g1": 2}


def test_tensor_mor_identity(z2):
    x = Obj(z2, {"g0": 2, "g1": 1})
    y = Obj(z2, {"g0": 1, "g1": 3})
    t = z2.tensor_mor(z2.id(x), z2.id(y))
    assert t == z2.id(z2.tensor(x, y))


def test_tensor_mor_scalars():
    cat = make_category("vec", {})
    one = cat.simple("1")
    two = cat.id(one).scale(cat.field.scalar(2))
    three = cat.id(one).scale(cat.field.scalar(3))
    assert cat.tensor_mor(two, three) == cat.id(one).scale(cat.field.scalar(6))


def test_associator_vec_is_identity():
    cat = make_category("vec", {})
    x = Obj(cat, {"1": 2})
    a = cat.associator(x, x, x)
    assert a == cat.id(cat.tensor(cat.tensor(x, x), x))


def test_associator_fibonacci_reads_f(fib):
    t = fib.simple("t")
    a = fib.associator(t, t, t)
    blk = a.block("t")
    f = fib._F[("t", "t", "t", "t")]
    # the associator block is the transpose of the stored F matrix
    assert blk == f.transpose()


def test_compose_dsum_id(z2):
    x = z2.simple("g0")
    f = z2.id(x)
    assert (f @ f) == f
    s = z2.dsum(f, f)
    assert s.src.describe() == {"g0": 2}
    assert s == z2.id(Obj(z2, {"g0": 2}))


def test_pentagon_on_random_objects(z2, fib):
    rng = random.Random(4)
    for cat in (z2, fib):
        for _ in range(3):
            objs = []
            for _k in range(4):
                mult = {a: rng.randint(0, 2) for a in cat.labels}
                objs.append(Obj(cat, mult))
            A, B, C, D = objs
            if any(o.is_zero() for o in objs):
                continue
            AB = cat.tensor(A, B)
            BC = cat.tensor(B, C)
            CD = cat.tensor(C, D)
            lhs = cat.associator(A, B, CD) @ cat.associator(AB, C, D)
            rhs = (cat.tensor_mor(cat.id(A), cat.associator(B, C, D))
                   @ cat.associator(A, BC, D)
                   @ cat.tensor_mor(cat.associator(A, B, C), cat.id(D)))
            assert lhs == rhs


def test_snake_on_compound_objects(fib):
    x = Obj(fib, {"1": 1, "t": 2})
    xv = fib.dual_obj(x)
    u = fib.coev_right(x)
    v = fib.ev_right(x)
    s1 = (fib.unitor_left(x)
          @ fib.tensor_mor(v, fib.id(x))
          @ fib.associator_inv(x, xv, x)
          @ fib.tensor_mor(fib.id(x), u)
          @ fib.unitor_right_inv(x))
    assert s1 == fib.id(x)
    s2 = (fib.unitor_right(xv)
          @ fib.tensor_mor(fib.id(xv), v)
          @ fib.associator(xv, x, xv)
          @ fib.tensor_mor(u, fib.id(xv))
          @ fib.unitor_left_inv(xv))
    assert s2 == fib.id(xv)


def test_left_duality_snakes_on_compounds(fib):
    x = Obj(fib, {"1": 1, "t": 1})
    xv = fib.dual_obj(x)
    u = fib.coev_left(x)          # 1 -> x (x) xv
    v = fib.ev_left(x)            # xv (x) x -> 1
    s1 = (fib.unitor_right(x)
          @ fib.tensor_mor(fib.id(x), v)
          @ fib.associator(x, xv, x)
          @ fib.tensor_mor(u, fib.id(x))
          @ fib.unitor_left_inv(x))
    assert s1 == fib.id(x)


def test_left_right_pair_proportionality(fib, z2):
    # (u', v') for a label solves the same snakes as the cup/cap of the
    # dual label, so the products agree
    for cat in (fib, z2):
        for a in cat.labels:
            al = cat.dualR[a]
            uc, vc = cat._left_pair(a)
            assert uc * vc == cat.cup[al] * cat.cap[al]


def test_functoriality_and_interchange(z2):
    rng = random.Random(9)
    field = z2.field

    def rand_mor(src, dst):
        blocks = {}
        for a in set(src.support) & set(dst.support):
            blocks[a] = Matrix(field,
                               [[field.scalar(rng.randint(-2, 2))
                                 for _ in range(src.mult(a))]
                                for _ in range(dst.mult(a))])
        from tensorcat.fincat import Mor
        return Mor(z2, src, dst, blocks)

    for _ in range(5):
        x = Obj(z2, {"g0": rng.randint(1, 2), "g1": rng.randint(1, 2)})
        y = Obj(z2, {"g0": rng.randint(1, 2), "g1": rng.randint(1, 2)})
        z = Obj(z2, {"g0": rng.randint(1, 2)})
        w = Obj(z2, {"g1": rng.randint(1, 2)})
        f = rand_mor(x, y)
        f2 = rand_mor(y, z)
        g = rand_mor(z, w)
        g2 = rand_mor(w, x)
        lhs = z2.tensor_mor(f2 @ f, g2 @ g)
        rhs = z2.tensor_mor(f2, g2) @ z2.tensor_mor(f, g)
        assert lhs == rhs


def test_duality_detects_dual_label():
    for name in ("z3", "fibonacci", "mmf2"):
        cat = standard_entries()[name]()
        one = cat.unit_obj()
        for a in cat.labels:
            for b in cat.labels:
                x = cat.tensor(cat.simple(a),
                               cat.dual_obj(cat.simple(b)))
                expected = 1 if a == b else 0
                assert hom_dim(one, x) == expected


def test_duality_examples():
    cat = make_category("pointed", {"n": 3})
    assert cat.dualR["g1"] == "g2"
    xv, xr, (u, v, ul, vl) = cat.duality(cat.simple("g1"))
    assert xv.describe() == {"g2": 1}
    fib = make_category("fibonacci", {})
    assert fib.dualR["t"] == "t"


def test_mate_roundtrip(fib, z2):
    rng = random.Random(12)
    for cat in (fib, z2):
        field = cat.field
        xs = [cat.simple(a) for a in cat.labels]
        for _ in range(4):
            X = xs[rng.randrange(len(xs))]
            Y = xs[rng.randrange(len(xs))]
            XY = cat.tensor(X, Y)
            from tensorcat.fincat import Mor
            Z = Obj(cat, {a: rng.randint(0, 2) for a in cat.labels})
            blocks = {}
            for a in set(XY.support) & set(Z.support):
                blocks[a] = Matrix(field,
                                   [[field.scalar(rng.randint(-2, 2))
                                     for _ in range(XY.mult(a))]
                                    for _ in range(Z.mult(a))])
            h = Mor(cat, XY, Z, blocks)
            k = cat.mate_right(h, X, Y)
            back = cat.unmate_right(k, X, Y, Z)
            assert back == h
            kl = cat.mate_left(h, X, Y)
            backl = cat.unmate_left(kl, X, Y, Z)
            assert backl == h


def test_mate_of_ev_is_identityish(fib):
    # bending the evaluation gives the canonical x -> x
    for a in fib.labels:
        x = fib.simple(a)
        xv = fib.dual_obj(x)
        v = fib.ev_right(x)                     # x (x) xv -> 1
        k = fib.mate_right(v, x, xv)            # x -> 1 (x) xv^v ...
        assert not k.is_zero()


def test_hom_dim_examples(fib, z2):
    one = fib.unit_obj()
    tt = fib.tensor(fib.simple("t"), fib.simple("t"))
    assert hom_dim(one, tt) == 1
    x = Obj(fib, {"1": 2})
    assert hom_dim(x, x) == 4
    assert hom_dim(z2.unit_obj(), z2.simple("g1")) == 0


def test_scalar_extend_z2():
    from tensorcat.fields import Embedding
    z2 = make_category("pointed", {"n": 2, "omega": {(1, 1, 1): -1}})
    K = Field.extension(0, [-5, 0, 1])
    emb = Embedding(z2.field, K)
    out = z2.scalar_extend(emb)
    assert out.field == K
    assert validate_category(out).ok


def test_scalar_extend_vec_f2_to_f4():
    from tensorcat.fields import Embedding
    cat = make_category("vec", {"field": Field.prime(2)})
    F4 = Field.extension(2, [1, 1, 1])
    out = cat.scalar_extend(Embedding(cat.field, F4))
    assert out.field == F4
    assert validate_category(out).ok


def test_scalar_extend_fibonacci(fib):
    # embed Q(phi) into Q(sqrt5)-containing field: phi -> (1 + s)/2 where
    # s^2 = 5; verify the pentagon survives
    from tensorcat.fields import Embedding
    K = Field.extension(0, [-5, 0, 1], gen_name="s")
    half = K.scalar("1/2")
    image = half * (K.one() + K.gen())
    emb = Embedding(fib.field, K, image)
    out = fib.scalar_extend(emb)
    assert validate_category(out).ok


def test_zero_objects_are_first_class(z2):
    zero = z2.zero_obj()
    assert zero.is_zero()
    t = z2.tensor(zero, z2.simple("g1"))
    assert t.is_zero()
    idz = z2.id(zero)
    assert idz.is_zero()
    assert z2.tensor_mor(idz, z2.id(z2.simple("g1"))).is_zero()


def test_fusion_multiplicity_indexing():
    # the data model carries N > 1: basis tuples enumerate the channel
    # index last and block shapes follow the weighted counts
    from tensorcat.fincat import CategoryPres
    Q = Field.rationals()
    fusion = {("e", "e", "e"): 1, ("e", "x", "x"): 1, ("x", "e", "x"): 1,
              ("x", "x", "e"): 1, ("x", "x", "x"): 2}
    cat = CategoryPres(Q, ["e", "x"], ["e"], {"e": "e", "x": "x"},
                       fusion, {}, {}, {})
    x = cat.simple("x")
    xx = cat.tensor(x, x)
    assert xx.describe() == {"e": 1, "x": 2}
    basis = cat.fusion_basis(x, x)
    assert basis["x"] == [("x", 0, "x", 0, 0), ("x", 0, "x", 0, 1)]
    big = Obj(cat, {"x": 2})
    bb = cat.tensor(big, big)
    assert bb.mult("x") == 8
    # lexicographic in (label, copy, label, copy, channel)
    assert cat.fusion_basis(big, big)["x"][:3] == [
        ("x", 0, "x", 0, 0), ("x", 0, "x", 0, 1), ("x", 0, "x", 1, 0)]
    # F-rows/cols enumerations count weighted paths
    rows = cat.f_rows("x", "x", "x", "x")
    cols = cat.f_cols("x", "x", "x", "x")
    assert len(rows) == len(cols) == 5   # 1*1 via e + 2*2 via x
    assert cat.tensor_mor(cat.id(x), cat.id(x)) == cat.id(xx)


def test_unit_orthogonality_validation():
    from tensorcat.fincat import CategoryPres
    Q = Field.rationals()
    # two unit components that fuse into each other: invalid
    fusion = {("e1", "e1", "e1"): 1, ("e2", "e2", "e2"): 1,
              ("e1", "e2", "e1"): 1}
    cat = CategoryPres(Q, ["e1", "e2"], ["e1", "e2"],
                       {"e1": "e1", "e2": "e2"}, fusion, {}, {}, {})
    rep = validate_category(cat)
    assert not rep.ok


def _tree_obj(cat, tree):
    if isinstance(tree, Obj):
        return tree
    return cat.tensor(_tree_obj(cat, tree[0]), _tree_obj(cat, tree[1]))


@pytest.mark.parametrize("name", ["fibonacci", "ising"])
def test_reassoc_three_leaves_is_the_associator(name):
    cat = make_category(name, {})
    x = cat.simple(cat.labels[-1])
    y = Obj(cat, {a: 1 for a in cat.labels})
    for (p, q, r) in ((x, x, x), (x, y, x), (y, x, y)):
        assert cat.reassoc(((p, q), r), (p, (q, r))) \
            == cat.associator(p, q, r)
        assert cat.reassoc((p, (q, r)), ((p, q), r)) \
            == cat.associator_inv(p, q, r)


@pytest.mark.parametrize("name", ["fibonacci", "ising"])
def test_reassoc_four_leaves_round_trips(name):
    cat = make_category(name, {})
    w = cat.simple(cat.labels[-1])
    x = Obj(cat, {a: 1 for a in cat.labels})
    y, z = w, cat.simple(cat.labels[1])
    trees = [(((w, x), y), z), ((w, x), (y, z)), ((w, (x, y)), z),
             (w, ((x, y), z)), (w, (x, (y, z)))]
    nontrivial = 0
    for s in trees:
        for t in trees:
            there = cat.reassoc(s, t)
            back = cat.reassoc(t, s)
            assert there @ back == cat.id(_tree_obj(cat, t))
            assert back @ there == cat.id(_tree_obj(cat, s))
            nontrivial += there != cat.id(_tree_obj(cat, s))
    assert nontrivial > 0
    with pytest.raises(ValueError):
        cat.reassoc(trees[0], (((x, w), y), z))
