import pytest

from tensorcat.algebra import direct_sum_algebra, internal_end, trivial_algebra
from tensorcat.catalog import make_algebra, make_category
from tensorcat.fields import Embedding, Field
from tensorcat.fincat import Obj
from tensorcat.modcat import (free_module_end, module_internal_end,
                              simple_modules)
from tensorcat.ordalg import UNDETERMINED
from tensorcat.structure import (AlgebraAnalysisContext, NotFusion,
                                 PreconditionViolated, analyze,
                                 base_extend_algebra,
                                 center_semisimple_verdict,
                                 diagonal_component, dim_division_algebra,
                                 global_dimension, is_division_algebra,
                                 is_semisimple_algebra, is_separable,
                                 is_simple_algebra, matrix_decomposition,
                                 separability_alpha_division,
                                 separability_beta,
                                 separability_beta_with_escalation,
                                 endomorphism_separability_report)


def test_semisimple_examples(cats):
    vq = cats["vec_q"]
    assert is_semisimple_algebra(vq, trivial_algebra(vq)) is True
    zf2 = cats["z2_f2"]
    A = make_algebra(zf2, "regular_pointed", {})
    assert is_semisimple_algebra(zf2, A) is True
    vf2 = cats["vec_f2"]
    G = make_algebra(vf2, "ordinary_group_algebra", {"n": 2})
    assert is_semisimple_algebra(vf2, G) is False


def test_simple_examples(cats):
    vq = cats["vec_q"]
    M2 = internal_end(vq, Obj(vq, {"1": 2}))
    assert is_simple_algebra(vq, M2) is True
    two = direct_sum_algebra(trivial_algebra(vq), trivial_algebra(vq))
    assert is_simple_algebra(vq, two) is False
    z2 = cats["z2"]
    A = make_algebra(z2, "regular_pointed", {})
    assert is_simple_algebra(z2, A) is True


def test_division_examples(cats):
    vq = cats["vec_q"]
    assert is_division_algebra(vq, trivial_algebra(vq)) is True
    M2 = internal_end(vq, Obj(vq, {"1": 2}))
    assert is_division_algebra(vq, M2) is False
    zf3 = cats["z3_f3"]
    A = make_algebra(zf3, "regular_pointed", {})
    assert is_division_algebra(zf3, A) is True


def test_separable_examples(cats):
    z3 = cats["z3"]
    assert is_separable(z3, make_algebra(z3, "regular_pointed", {})) is True
    zf3 = cats["z3_f3"]
    assert is_separable(zf3, make_algebra(zf3, "regular_pointed", {})) is False
    vq = cats["vec_q"]
    assert is_separable(vq, trivial_algebra(vq)) is True


def test_beta_examples(cats):
    vq = cats["vec_q"]
    verdict, _ = separability_beta(vq, trivial_algebra(vq))
    assert verdict is True
    z2 = cats["z2"]
    verdict, _ = separability_beta(z2, make_algebra(z2, "regular_pointed", {}))
    assert verdict is True
    zf2 = cats["z2_f2"]
    verdict, details = separability_beta(
        zf2, make_algebra(zf2, "regular_pointed", {}))
    assert verdict is False
    assert details.get("exhaustive") or details.get("certified_grid")


def test_alpha_examples(cats):
    vq = cats["vec_q"]
    assert separability_alpha_division(vq, trivial_algebra(vq)) is True
    zf3 = cats["z3_f3"]
    A = make_algebra(zf3, "regular_pointed", {})
    assert separability_alpha_division(zf3, A) is False
    z2 = cats["z2"]
    B = make_algebra(z2, "regular_pointed", {})
    assert separability_alpha_division(z2, B) is True


def test_alpha_requires_division(cats):
    vq = cats["vec_q"]
    M2 = internal_end(vq, Obj(vq, {"1": 2}))
    with pytest.raises(PreconditionViolated):
        separability_alpha_division(vq, M2)


def test_dim_examples(cats):
    vq = cats["vec_q"]
    one = vq.field.one()
    assert dim_division_algebra(vq, trivial_algebra(vq)) == one
    for n, name in ((2, "z2"), (3, "z3"), (4, "z4")):
        cat = cats[name]
        A = make_algebra(cat, "regular_pointed", {})
        assert dim_division_algebra(cat, A) == cat.field.scalar(n)
    for name in ("z2_f2", "z3_f3"):
        cat = cats[name]
        A = make_algebra(cat, "regular_pointed", {})
        assert dim_division_algebra(cat, A).is_zero()


def test_dim_invariant_under_rescaling(cats):
    # computed through any nonzero f; scaling f leaves the loop unchanged
    z3 = cats["z3"]
    A = make_algebra(z3, "regular_pointed", {})
    d1 = dim_division_algebra(z3, A)
    d2 = dim_division_algebra(z3, A)
    assert d1 == d2 == z3.field.scalar(3)


def test_dim_refuses_large_unit_hom(cats):
    vq = cats["vec_q"]
    two = direct_sum_algebra(trivial_algebra(vq), trivial_algebra(vq))
    with pytest.raises(PreconditionViolated):
        dim_division_algebra(vq, two)


def test_matrix_decomposition_m2(cats):
    vq = cats["vec_q"]
    M2 = internal_end(vq, Obj(vq, {"1": 2}))
    md = matrix_decomposition(vq, M2)
    assert md["object_identity_holds"] is True
    assert len(md["classes"]) == 1
    assert md["classes"][0]["simples"][0]["multiplicity"] == 2
    # 2x2 blocks of [x,x] = 1: total four copies of the unit
    assert md["connecting"]["0,0"] == {"1": 1}


def test_matrix_decomposition_direct_sum(cats):
    vq = cats["vec_q"]
    two = direct_sum_algebra(trivial_algebra(vq), trivial_algebra(vq))
    md = matrix_decomposition(vq, two)
    assert len(md["classes"]) == 2
    assert md["object_identity_holds"] is True


def test_matrix_decomposition_trivial(cats):
    vq = cats["vec_q"]
    md = matrix_decomposition(vq, trivial_algebra(vq))
    assert len(md["classes"]) == 1
    assert md["classes"][0]["simples"][0]["multiplicity"] == 1


def test_global_dimension_values(cats):
    assert global_dimension(cats["vec_q"]) == cats["vec_q"].field.one()
    for name, n in (("z2", 2), ("z3", 3), ("z4", 4)):
        cat = cats[name]
        assert global_dimension(cat) == cat.field.scalar(n)
    assert global_dimension(cats["z2_f2"]).is_zero()
    assert global_dimension(cats["z3_f3"]).is_zero()
    fib = cats["fibonacci"]
    # (5 + sqrt5)/2 = 2 + phi in Q(phi)
    assert global_dimension(fib) == fib.field.scalar([2, 1])
    isg = cats["ising"]
    assert global_dimension(isg) == isg.field.scalar(4)
    assert global_dimension(cats["z2_twisted"]) == \
        cats["z2_twisted"].field.scalar(2)


def test_center_verdicts(cats):
    assert center_semisimple_verdict(cats["z2_f2"]) is False
    assert center_semisimple_verdict(cats["z3_f3"]) is False
    assert center_semisimple_verdict(cats["fibonacci"]) is True
    assert center_semisimple_verdict(cats["z2"]) is True
    assert center_semisimple_verdict(cats["mmf2"]) is True


def test_diagonal_component_mmf(cats):
    mmf = cats["mmf2"]
    sub = diagonal_component(mmf)
    assert len(sub.labels) == 1
    assert global_dimension(mmf) == mmf.field.one()


def test_decomposable_category_rejected():
    # direct sum of two vec copies: unit components never linked
    from tensorcat.fincat import CategoryPres, validate_category
    Q = Field.rationals()
    fusion = {("e1", "e1", "e1"): 1, ("e2", "e2", "e2"): 1}
    cat = CategoryPres(Q, ["e1", "e2"], ["e1", "e2"],
                       {"e1": "e1", "e2": "e2"}, fusion, {},
                       {"e1": Q.one(), "e2": Q.one()},
                       {"e1": Q.one(), "e2": Q.one()})
    assert validate_category(cat).ok
    with pytest.raises(NotFusion):
        global_dimension(cat)


def test_endomorphism_separability(cats):
    z2 = cats["z2"]
    A = make_algebra(z2, "regular_pointed", {})
    rep = endomorphism_separability_report(z2, A)
    assert all(e["separable_over_base"] for e in rep)
    zf3 = cats["z3_f3"]
    B = make_algebra(zf3, "regular_pointed", {})
    rep2 = endomorphism_separability_report(zf3, B)
    # every End(x) is the base field: separable, while B itself is not;
    # the center of the ambient category is not semisimple, so the
    # biconditional does not apply
    assert all(e["separable_over_base"] for e in rep2)
    assert is_separable(zf3, B) is False
    assert center_semisimple_verdict(zf3) is False


def test_base_extension_invariance_f2_to_f4(cats):
    vf2 = cats["vec_f2"]
    A = make_algebra(vf2, "ordinary_group_algebra", {"n": 2})
    F4 = Field.extension(2, [1, 1, 1])
    C2, A2 = base_extend_algebra(vf2, A, Embedding(vf2.field, F4))
    assert is_separable(C2, A2) is False
    assert is_semisimple_algebra(C2, A2) is False


def test_base_extension_invariance_q_to_sqrt5(cats):
    z2 = cats["z2"]
    A = make_algebra(z2, "regular_pointed", {})
    K = Field.extension(0, [-5, 0, 1])
    C2, A2 = base_extend_algebra(z2, A, Embedding(z2.field, K))
    assert is_separable(C2, A2) is True
    assert dim_division_algebra(C2, A2) == K.scalar(2)


def test_identity_embedding_keeps_verdicts(cats):
    z2 = cats["z2"]
    A = make_algebra(z2, "regular_pointed", {})
    C2, A2 = base_extend_algebra(z2, A, Embedding.identity(z2.field))
    assert is_separable(C2, A2) is is_separable(z2, A) is True


def test_morita_invariance_via_module_ends(cats):
    # internal end of each simple module is separable iff the algebra is
    cases = [
        (cats["z2"], make_algebra(cats["z2"], "regular_pointed", {})),
        (cats["z2_f2"], make_algebra(cats["z2_f2"], "regular_pointed", {})),
        (cats["vec_q"], internal_end(cats["vec_q"],
                                     Obj(cats["vec_q"], {"1": 2}))),
        (cats["fibonacci"], internal_end(cats["fibonacci"],
                                         cats["fibonacci"].simple("t"))),
    ]
    for cat, A in cases:
        want = is_separable(cat, A)
        sm = simple_modules(free_module_end(A))
        for s, _i, _r in sm.simples:
            B = module_internal_end(s)
            assert is_separable(cat, B) is want


def test_division_witness_exists(cats):
    # Hom(A, A^L) is nonzero for division algebras
    from tensorcat.modcat import algebra_as_module, hom_basis, module_dual
    for name, cat, alg in [
        ("z2", cats["z2"], make_algebra(cats["z2"], "regular_pointed", {})),
        ("z3_f3", cats["z3_f3"],
         make_algebra(cats["z3_f3"], "regular_pointed", {})),
    ]:
        amod = algebra_as_module(alg)
        al = module_dual(algebra_as_module(alg, side="left"), "L")
        assert len(hom_basis(amod, al)) > 0, name


def test_analyze_flagship(cats):
    zf2 = cats["z2_f2"]
    A = make_algebra(zf2, "regular_pointed", {})
    rep = analyze(zf2, A)
    assert rep["flags"] == {"semisimple": True, "simple": True,
                            "division": True, "separable": False}
    assert rep["dim_A"] == ["0"]
    assert rep["schema_version"] == "1"


def test_analyze_mmf_corner_division(cats):
    mmf = cats["mmf2"]
    A = make_algebra(mmf, "internal_end", {"obj": {"e12": 1}})
    rep = analyze(mmf, A)
    assert rep["flags"]["division"] is True
    assert rep["flags"]["separable"] is True
    assert rep["dim_A"] is None          # multi-fusion ambient: skipped


def test_beta_escalation_path(cats):
    zf2 = cats["z2_f2"]
    A = make_algebra(zf2, "regular_pointed", {})
    verdict, details = separability_beta_with_escalation(zf2, A)
    assert verdict is False


def test_budget_env_override(cats, monkeypatch):
    monkeypatch.setenv("TENSORCAT_BUDGET", "32")
    from tensorcat.structure import search_budget
    assert search_budget() == 32
    monkeypatch.delenv("TENSORCAT_BUDGET")
    assert search_budget() == 4096


def test_finite_field_escalation_helpers():
    from tensorcat.structure import _embed_finite, _finite_field_of_degree
    F4 = _finite_field_of_degree(2, 2)
    assert F4.char == 2 and F4.deg == 2
    F16 = _finite_field_of_degree(2, 4)
    emb = _embed_finite(F4, F16)
    assert emb is not None
    x = F4.gen()
    assert emb(x * x + x) == emb(x) * emb(x) + emb(x)
    prime = Field.prime(3)
    emb2 = _embed_finite(prime, _finite_field_of_degree(3, 2))
    assert emb2(prime.scalar(2)) == emb2.dst.scalar(2)


def test_three_way_equivalence_char_zero_division(corpus_reports):
    # over characteristic-zero homogeneous catalog categories, a division
    # algebra is simple iff separable iff its dimension does not vanish
    checked = 0
    for name, cat, _alg, rep in corpus_reports:
        if cat.field.char != 0:
            continue
        flags = rep["flags"]
        if flags["division"] is not True:
            continue
        assert flags["simple"] == flags["separable"], name
        if rep["dim_A"] is not None:
            dim_nonzero = any(c != "0" for c in rep["dim_A"])
            assert dim_nonzero == flags["separable"], name
        checked += 1
    assert checked >= 4


def test_analyze_computes_each_shared_fact_once(cats, monkeypatch):
    # the division verdict feeds three criteria, the module radical four
    # and the internal-hom table two; the analysis context computes each
    # of them once
    import tensorcat.structure as structure
    calls = {"module_is_simple": 0, "radical": 0, "internal_hom": 0}

    def counted(name):
        inner = getattr(structure, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(structure, name, counted(name))
    z3 = cats["z3"]
    rep = analyze(z3, make_algebra(z3, "regular_pointed", {}))
    assert rep["flags"]["division"] is True
    assert rep["oracle_agreement"]["separable_duality_loop"] is True
    n = rep["matrix_decomposition"]["simple_count"]
    assert calls == {"module_is_simple": 1, "radical": 1,
                     "internal_hom": n * n}


def test_budget_env_must_be_an_integer(monkeypatch):
    from tensorcat.structure import search_budget
    monkeypatch.setenv("TENSORCAT_BUDGET", "abc")
    with pytest.raises(ValueError, match="TENSORCAT_BUDGET"):
        search_budget()
    monkeypatch.setenv("TENSORCAT_BUDGET", "-5")
    assert search_budget() == 1


def test_analyze_builds_free_end_and_dual_once(cats, monkeypatch):
    # the simple modules are split off the context's End data, and the
    # beta, alpha and dimension routes share one A^L and its hom bases
    import tensorcat.modcat as modcat
    import tensorcat.structure as structure
    calls = {"free_module_end": 0, "module_dual_L": 0}
    end_inner = structure.free_module_end
    dual_inner = structure.module_dual

    def free_module_end(A):
        calls["free_module_end"] += 1
        return end_inner(A)

    def module_dual(x, side):
        calls["module_dual_L"] += side == "L"
        return dual_inner(x, side)

    monkeypatch.setattr(structure, "free_module_end", free_module_end)
    for mod in (structure, modcat):
        monkeypatch.setattr(mod, "module_dual", module_dual)
    z3 = cats["z3"]
    rep = analyze(z3, make_algebra(z3, "regular_pointed", {}))
    assert rep["flags"]["semisimple"] is True
    assert rep["oracle_agreement"]["separable_duality_loop"] is True
    assert rep["dim_A"] is not None
    assert calls == {"free_module_end": 1, "module_dual_L": 1}
