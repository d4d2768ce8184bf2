import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from construction_oracle import (direct_sum_algebra, module_internal_end,
                                 quadratic_algebra)
from tensorcat.algebra import AlgebraPres, internal_end, trivial_algebra
from tensorcat.catalog import make_algebra, make_category
from tensorcat.cli import main
from tensorcat.fields import Embedding, Field
from tensorcat.fileio import (algebra_to_json, category_to_json,
                              dumps_canonical, save_json)
from tensorcat.fincat import (CategoryPres, Mor, Obj, ValidationFailure,
                              hom_dim, validate_category)
from tensorcat.linalg import Matrix
from tensorcat.modcat import EndData, free_module_end, simple_modules
from tensorcat.ordalg import UNDETERMINED
from tensorcat.structure import (AlgebraAnalysisContext, NotFusion,
                                 OracleDisagreement,
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


def _loop(C, A, f):
    """The scalar of ev o (f (x) f^-1) o coev for an isomorphism f."""
    c = A.carrier
    loop = C.ev_left(c) @ C.tensor_mor(f, f.inv()) @ C.coev_left(c)
    return loop.scalar() if not loop.is_zero() else C.field.zero()


def test_dim_invariant_under_rescaling(cats):
    # the loop is the same through any isomorphism f: A -> A^v: through
    # rescalings of one basis map, and through every basis map of
    # Hom_A(A, A^v) and their sum when that space is not a line
    z3 = cats["z3"]
    A = make_algebra(z3, "regular_pointed", {})
    three = z3.field.scalar(3)
    assert dim_division_algebra(z3, A) == three
    f = AlgebraAnalysisContext(z3, A).to_dual[0]
    for k in (z3.field.scalar(2), z3.field.scalar(-1) / three):
        assert _loop(z3, A, f.scale(k)) == three
    vq = cats["vec_q"]
    # Q(i) = Q[x]/(x^2 + 1) has dimension 2; hom(1, Q(i)) is not a line,
    # so dim_division_algebra itself refuses it
    gaussian = quadratic_algebra(vq, 0, 1)
    two = vq.field.scalar(2)
    fs = AlgebraAnalysisContext(vq, gaussian).to_dual
    assert len(fs) == 2
    for g in fs + [fs[0] + fs[1]]:
        assert _loop(vq, gaussian, g) == two


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
        for s in sm.simples:
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
        al = module_dual(alg)
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


def test_beta_is_exhaustive_over_f2_for_the_graded_z2_algebra(cats):
    # q^h = 2 candidates fit the budget: every combination over F_2 is
    # tested, and none gives an invertible beta
    zf2 = cats["z2_f2"]
    A = make_algebra(zf2, "regular_pointed", {})
    verdict, details = separability_beta_with_escalation(zf2, A)
    assert verdict is False
    assert details["exhaustive"]


def test_budget_env_override(cats, monkeypatch):
    monkeypatch.setenv("TENSORCAT_BUDGET", "32")
    from tensorcat.structure import search_budget
    assert search_budget() == 32
    monkeypatch.delenv("TENSORCAT_BUDGET")
    assert search_budget() == 4096


def test_finite_field_escalation_helpers():
    # the fields and embeddings of the escalating reference search
    from beta_oracle import embed_finite, finite_field_of_degree
    F4 = finite_field_of_degree(2, 2)
    assert F4.char == 2 and F4.deg == 2
    F16 = finite_field_of_degree(2, 4)
    emb = embed_finite(F4, F16)
    assert emb is not None
    x = F4.gen()
    assert emb(x * x + x) == emb(x) * emb(x) + emb(x)
    prime = Field.prime(3)
    emb2 = embed_finite(prime, finite_field_of_degree(3, 2))
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
    # the division verdict feeds three criteria and the internal-hom
    # table two; the analysis context computes each of them once (the
    # radical is kept by each algebra: see the next test)
    import tensorcat.structure as structure
    calls = {"module_is_simple": 0, "internal_hom": 0}

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
    assert calls == {"module_is_simple": 1, "internal_hom": n * n}


@pytest.mark.parametrize("cat_name,kind,params", [
    ("vec_q", "ordinary_group_algebra", {"n": 4}),
    ("z4", "regular_pointed", {}), ("z3_f3", "regular_pointed", {})])
def test_analyze_computes_each_radical_once(cats, monkeypatch, cat_name,
                                            kind, params):
    # the analysis context, is_semisimple, simple_modules,
    # module_is_simple, is_division and central_idempotents all ask for
    # radicals; each distinct algebra computes its own once.  Every
    # radical computation, in any characteristic, starts from one kernel
    # of the trace form
    import tensorcat.ordalg as ordalg
    seen = []
    inner = ordalg._trace_form_kernel

    def counted(E):
        seen.append(E)
        return inner(E)
    monkeypatch.setattr(ordalg, "_trace_form_kernel", counted)
    C = cats[cat_name]
    analyze(C, make_algebra(C, kind, params))
    assert len(seen) >= 2
    assert len({id(E) for E in seen}) == len(seen)


def test_analyze_builds_no_dual_of_a_simple(cats, monkeypatch):
    # Q[Z/4] has three simple modules; the internal-hom table reads them
    # through the adjunction, so the one dual module is A^L, for the beta,
    # alpha and dimension routes
    import tensorcat.modcat as modcat
    import tensorcat.structure as structure
    calls = []
    inner = modcat.module_dual

    def module_dual(x):
        calls.append(x.carrier)
        return inner(x)

    for mod in (structure, modcat):
        monkeypatch.setattr(mod, "module_dual", module_dual)
    vq = cats["vec_q"]
    A = make_algebra(vq, "ordinary_group_algebra", {"n": 4})
    rep = analyze(vq, A)
    assert rep["matrix_decomposition"]["simple_count"] == 3
    assert calls == [A.carrier]


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
    calls = {"free_module_end": 0, "module_dual": 0}
    end_inner = structure.free_module_end
    dual_inner = structure.module_dual

    def free_module_end(A):
        calls["free_module_end"] += 1
        return end_inner(A)

    def module_dual(x):
        calls["module_dual"] += 1
        return dual_inner(x)

    monkeypatch.setattr(structure, "free_module_end", free_module_end)
    for mod in (structure, modcat):
        monkeypatch.setattr(mod, "module_dual", module_dual)
    z3 = cats["z3"]
    rep = analyze(z3, make_algebra(z3, "regular_pointed", {}))
    assert rep["flags"]["semisimple"] is True
    assert rep["oracle_agreement"]["separable_duality_loop"] is True
    assert rep["dim_A"] is not None
    assert calls == {"free_module_end": 1, "module_dual": 1}


def test_analyze_takes_each_hom_basis_once(cats, monkeypatch):
    # outside the internal homs, hom bases are taken only for the blocks
    # of the free-module End and for A -> A^L and A^L -> A: the simples'
    # End algebras are corners of that End, their multiplicities read
    # Hom(1, x_i), and the division verdict reads Hom_A(P, A) as a right
    # ideal eps E of it, through the corner eps E eps.  Each [x_i, x_j]
    # reads the nullity of one module-map system, Hom_A(a (x) x_i, x_j),
    # per simple label a, and builds no basis
    import tensorcat.modcat as modcat
    import tensorcat.structure as structure
    pairs, inside_internal_hom = [], []
    inner = modcat.hom_basis
    inner_system = modcat._hom_system
    inner_internal_hom = modcat.internal_hom

    def hom_basis(x, y):
        assert not inside_internal_hom, "internal_hom built a hom basis"
        pairs.append((x, y))
        return inner(x, y)

    def hom_system(x, y):
        if inside_internal_hom:
            inside_internal_hom[-1].append((x, y))
        return inner_system(x, y)

    def internal_hom(x, y):
        inside_internal_hom.append([])
        out = inner_internal_hom(x, y)
        seen = inside_internal_hom.pop()
        assert [m.carrier for m, _y in seen] == \
            [vq.tensor(vq.simple(a), x.carrier) for a in vq.labels]
        assert all(m.algebra is x.algebra and z is y for m, z in seen)
        return out

    for mod in (structure, modcat):
        monkeypatch.setattr(mod, "hom_basis", hom_basis)
    monkeypatch.setattr(modcat, "_hom_system", hom_system)
    monkeypatch.setattr(structure, "internal_hom", internal_hom)
    vq = cats["vec_q"]
    A = make_algebra(vq, "ordinary_group_algebra", {"n": 4})
    rep = analyze(vq, A)
    assert rep["matrix_decomposition"]["simple_count"] == 3
    assert len(rep["endomorphism_separability"]) == 3
    assert len({(id(x), id(y)) for x, y in pairs}) == len(pairs) == 2
    # vec has one simple label, so the free-module End has one block;
    # the other pair is A -> A^L or A^L -> A
    free, other = sorted(pairs, key=lambda p: p[0].generator is None)
    assert free[0] is free[1] and free[0].generator is not None
    assert [m.action is A.mult for m in other].count(True) == 1


def test_decomposition_builds_no_module_internal_end(cats, tmp_path, capsys):
    # the diagonal objects come from the internal-hom table, so neither
    # analyze nor the CLI decompose builds the algebra [x_i, x_i]: only
    # the tests construct it, and no module of the package defines it
    import sys
    from tensorcat.cli import main
    assert not [name for name, mod in sys.modules.items()
                if name.startswith("tensorcat")
                and hasattr(mod, "module_internal_end")]
    z4 = cats["z4"]
    rep = analyze(z4, make_algebra(z4, "regular_pointed", {}))
    assert rep["matrix_decomposition"]["object_identity_holds"] is True
    cat_p, alg_p = str(tmp_path / "c.json"), str(tmp_path / "a.json")
    assert main(["catalog", "emit", "z4", "--out", cat_p]) == 0
    assert main(["catalog", "emit", "z4/regular", "--out", alg_p]) == 0
    capsys.readouterr()
    assert main(["decompose", cat_p, alg_p, "--report", "json"]) == 0
    assert json.loads(capsys.readouterr().out)[
        "matrix_decomposition"]["object_identity_holds"] is True


def test_diagonal_objects_match_module_internal_end(corpus_reports):
    # two constructions of [x_i, x_i]: the internal hom (x (x)_A x^v)^v
    # of the analysis, and the corner e'[F, F]e' of the free cover's
    # internal end; Hom(1, [x, x]) = End_A(x), the corner e_i E e_i
    checked = 0
    for name, cat, alg, rep in corpus_reports:
        if not rep["flags"]["semisimple"]:
            continue
        ctx = AlgebraAnalysisContext(cat, alg)
        for i, s in enumerate(ctx.simples.simples):
            B = module_internal_end(s)
            assert B.carrier == ctx.internal_homs[(i, i)], (name, i)
            assert hom_dim(cat.unit_obj(), B.carrier) == \
                ctx.simples.ends[i].dim, (name, i)
            checked += 1
    assert checked >= 15


@pytest.mark.parametrize("copies, budget, tested, witness", [
    (2, 1, 3, None),                      # 2 basis + 1 ladder candidate
    (3, 63, 61, [["1"]] * 3),             # 3 basis + 58 ladder candidates
])
def test_beta_ladder_counts_every_candidate(cats, monkeypatch, copies,
                                            budget, tested, witness):
    # Q^n in vec_q: no basis element gives an invertible beta and the
    # certifying grid exceeds the budget, so the bounded ladder runs
    monkeypatch.setenv("TENSORCAT_BUDGET", str(budget))
    vq = cats["vec_q"]
    A = trivial_algebra(vq)
    for _ in range(copies - 1):
        A = direct_sum_algebra(A, trivial_algebra(vq))
    # the hom basis is solved before the spy goes in, so that only the
    # ladder's candidates are counted, not the sums of the constraints
    ctx = AlgebraAnalysisContext(vq, A)
    assert len(ctx.from_dual) == copies
    combined = []
    inner = Mor.combine

    def combine(coeffs, mors):
        combined.append(coeffs)
        return inner(coeffs, mors)

    monkeypatch.setattr(Mor, "combine", staticmethod(combine))
    verdict, details = separability_beta(vq, A, ctx=ctx)
    assert details["hom_dim"] == copies
    assert details["tested"] == copies + len(combined) == tested
    assert details.get("witness") == witness
    assert verdict is (UNDETERMINED if witness is None else True)


@lru_cache(maxsize=None)
def _beta_setting(name):
    """(A, basis g_i of Hom_A(A^L, A), mate) for the beta search of a
    group algebra in vec."""
    field, n = {"vec_f5/group5": (Field.prime(5), 5),
                "vec_q/group3": (None, 3)}[name]
    cat = make_category("vec", {"field": field} if field else {})
    A = make_algebra(cat, "ordinary_group_algebra", {"n": n})
    ctx = AlgebraAnalysisContext(cat, A)
    return A, ctx.from_dual, cat.mate_right(A.mult, A.carrier, A.carrier)


def _beta(A, g, mate):
    cat = A.cat
    return A.mult @ cat.tensor_mor(cat.id(A.carrier), g) @ mate


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(["vec_f5/group5", "vec_q/group3"]),
       data=st.data())
def test_beta_of_a_combination_is_the_combination_of_betas(name, data):
    # the beta search tests Mor.combine(tup, betas) in place of the beta
    # of Mor.combine(tup, gs)
    A, gs, mate = _beta_setting(name)
    field = A.cat.field
    tup = [field.scalar(v) for v in data.draw(
        st.lists(st.integers(-4, 4), min_size=len(gs), max_size=len(gs)))]
    betas = [_beta(A, g, mate) for g in gs]
    assert Mor.combine(tup, betas) == _beta(A, Mor.combine(tup, gs), mate)


def _stub_context(n, pairs):
    """A context whose n simples have nonvanishing internal hom exactly on
    the diagonal and on the given pairs, in both orders."""
    from types import SimpleNamespace
    related = set(pairs) | {(j, i) for i, j in pairs}
    homs = {(i, j): SimpleNamespace(
        is_zero=lambda nz=(i == j or (i, j) in related): not nz)
        for i in range(n) for j in range(n)}
    return SimpleNamespace(simples=SimpleNamespace(simples=[None] * n),
                           internal_homs=homs)


def test_sim_classes_need_an_equivalence():
    from tensorcat.structure import _sim_classes
    assert _sim_classes(_stub_context(4, [(0, 2)])) == [[0, 2], [1], [3]]
    # 0 ~ 1 and 1 ~ 2 but not 0 ~ 2: no partition has this relation
    with pytest.raises(OracleDisagreement, match="equivalence"):
        _sim_classes(_stub_context(3, [(0, 1), (1, 2)]))


def test_beta_ladder_skips_repeated_scalars(monkeypatch):
    # in F_5 the ladder values -1, 2, -2, 3, -3 are 4, 2, 3, 3, 2: each
    # repeated scalar once cost a candidate, and the budget ran out one
    # short of the witness (1, 1)
    monkeypatch.setenv("TENSORCAT_BUDGET", "8")
    v5 = make_category("vec", {"field": Field.prime(5)})
    A = direct_sum_algebra(trivial_algebra(v5), trivial_algebra(v5))
    verdict, details = separability_beta(v5, A)
    assert verdict is True
    assert details["witness"] == [["1"], ["1"]]
    assert details["tested"] == 9        # 2 basis + 7 ladder candidates


def _negated(real):
    return lambda *args, **kw: not real(*args, **kw)


def _beta_negated(real):
    def beta(*args, **kw):
        verdict, details = real(*args, **kw)
        return not verdict, details
    return beta


def _dim_zeroed(real):
    return lambda C, *args: C.field.zero()


def _dim_one(real):
    return lambda C, *args: C.field.one()


def _beta_true(real):
    return lambda *args, **kw: (True, real(*args, **kw)[1])


def _identity_broken(real):
    return lambda *args: {**real(*args), "object_identity_holds": False}


@pytest.mark.parametrize("route, flip, algebra, message", [
    ("is_semisimple", _negated, "trivial", "bimodule radical"),
    ("separability_beta_with_escalation", _beta_negated, "trivial",
     "adjoint-isomorphism search"),
    ("separability_alpha_division", _negated, "trivial", "duality-loop"),
    ("dim_division_algebra", _dim_zeroed, "trivial",
     "dimension nonvanishing"),
    ("is_semisimple_algebra", _negated, "trivial",
     "separable but not semisimple"),
    ("is_semisimple_algebra", _negated, "dual_numbers",
     "semisimple must imply separable"),
    ("matrix_decomposition", _identity_broken, "trivial",
     "sum of connecting objects"),
], ids=["bimodule-radical", "beta", "duality-loop", "dim", "sep-ss",
        "char0-ss-sep", "object-identity"])
def test_analyze_raises_when_one_route_disagrees(cats, monkeypatch, route,
                                                 flip, algebra, message):
    import tensorcat.structure as structure
    vq = cats["vec_q"]
    # k[x]/(x^2) is not semisimple
    A = (trivial_algebra(vq) if algebra == "trivial"
         else quadratic_algebra(vq, 0, 0))
    # the routes agree before the flip
    assert analyze(vq, A)["flags"]["semisimple"] is (algebra == "trivial")
    monkeypatch.setattr(structure, route, flip(getattr(structure, route)))
    with pytest.raises(OracleDisagreement, match=message):
        analyze(vq, A)


@pytest.mark.parametrize("route, flip, message", [
    ("is_semisimple", _negated, "bimodule radical"),
    ("separability_beta_with_escalation", _beta_true,
     "adjoint-isomorphism search"),
    ("separability_alpha_division", _negated, "duality-loop"),
    ("dim_division_algebra", _dim_one, "dimension nonvanishing"),
], ids=["bimodule-radical", "beta", "duality-loop", "dim"])
def test_analyze_raises_when_one_route_claims_separable(cats, monkeypatch,
                                                       route, flip, message):
    # the reverse direction: F_2[Z/2] graded over Z/2 is a division
    # algebra of dimension 0 that is not separable, and one route turned
    # to True disagrees with the section
    import tensorcat.structure as structure
    zf2 = cats["z2_f2"]
    A = make_algebra(zf2, "regular_pointed", {})
    rep = analyze(zf2, A)
    assert rep["flags"]["division"] is True
    assert rep["flags"]["separable"] is False
    assert rep["dim_A"] == ["0"]
    monkeypatch.setattr(structure, route, flip(getattr(structure, route)))
    with pytest.raises(OracleDisagreement, match=message):
        analyze(zf2, A)


def _direct_power(cat, n):
    A = trivial_algebra(cat)
    for _ in range(n - 1):
        A = direct_sum_algebra(A, trivial_algebra(cat))
    return A


# commutative End algebras with no central element of distinct values in
# the ladder of small combinations: k^n over a small field or with many
# blocks, and the unit algebra of the n x n multi-fusion category
@pytest.mark.parametrize("cat_name, cat_params, copies", [
    ("vec", {"field": 2}, 3),
    ("vec", {"field": 3}, 4),
    ("vec", {}, 5),
    ("matrix_multifusion", {"n": 2, "field": 2}, None),
    ("matrix_multifusion", {"n": 2, "field": 3}, None),
    ("matrix_multifusion", {"n": 3, "field": 2}, None),
    ("matrix_multifusion", {"n": 3, "field": 3}, None)],
    ids=["F2^3", "F3^4", "Q^5", "mmf2_f2/trivial", "mmf2_f3/trivial",
         "mmf3_f2/trivial", "mmf3_f3/trivial"])
def test_analyze_splits_commutative_ends_past_the_ladder(cat_name,
                                                         cat_params, copies):
    cat = make_category(cat_name, cat_params)
    A = _direct_power(cat, copies) if copies else \
        make_algebra(cat, "trivial")
    rep = analyze(cat, A)
    assert rep["flags"] == {"semisimple": True, "simple": False,
                            "division": False, "separable": True}
    assert rep["matrix_decomposition"]["object_identity_holds"] is True


def _z2_by_hand(omega):
    """Z/2 over Q built directly as a `CategoryPres`, with the one F-symbol
    not fixed by the unit gauge, F[g1, g1, g1, g1], set to omega; the
    pentagon at (g1, g1, g1, g1) demands omega^2 = 1."""
    Q = Field(0)
    one = Q.one()
    fusion = {("g0", "g0", "g0"): 1, ("g0", "g1", "g1"): 1,
              ("g1", "g0", "g1"): 1, ("g1", "g1", "g0"): 1}
    F = {("g1", "g1", "g1", "g1"): Matrix(Q, [[Q.scalar(omega)]])}
    return CategoryPres(Q, ["g0", "g1"], ["g0"], {"g0": "g0", "g1": "g1"},
                        fusion, F, {"g0": one, "g1": one},
                        {"g0": one, "g1": one})


def test_analyze_refuses_a_category_whose_pentagon_fails(monkeypatch):
    # the End algebras are associative by construction only over a
    # category whose pentagon holds, so analyze checks it before any is
    # built
    good, bad = _z2_by_hand(1), _z2_by_hand(2)
    assert validate_category(good).ok
    assert analyze(good, trivial_algebra(good))["flags"]["separable"] is True
    builds = []
    init = EndData.__init__

    def spy(self, *args):
        builds.append(args)
        init(self, *args)

    monkeypatch.setattr(EndData, "__init__", spy)
    with pytest.raises(ValidationFailure,
                       match=r"^category: pentagon fails at \(g1,g1,g1,g1\)"):
        analyze(bad, trivial_algebra(bad))
    assert builds == []


def test_each_category_is_validated_once(monkeypatch, tmp_path, capsys):
    # the catalog build, every analyze and the CLI loader read one cached
    # report per category
    import tensorcat.fincat as fincat
    validated = []
    inner = fincat.validate_category

    def spy(cat):
        validated.append(cat)
        return inner(cat)

    monkeypatch.setattr(fincat, "validate_category", spy)
    cat = make_category("pointed", {"n": 3})
    alg = make_algebra(cat, "regular_pointed", {})
    assert validated == [cat]
    report = analyze(cat, alg)
    assert analyze(cat, alg) == report
    assert validated == [cat]
    cat_p, alg_p = str(tmp_path / "cat.json"), str(tmp_path / "alg.json")
    save_json(cat_p, category_to_json(cat))
    save_json(alg_p, algebra_to_json(alg))
    assert main(["analyze", cat_p, alg_p, "--report", "json"]) == 0
    assert capsys.readouterr().out == dumps_canonical(report)
    assert len(validated) == 2 and validated[1] is not cat


def test_each_algebra_is_validated_once(monkeypatch, tmp_path, capsys):
    # the catalog build and every analyze read one cached report per
    # algebra, and so do the CLI loader and its analyze
    import tensorcat.algebra as algebra
    validated = []
    inner = algebra.validate_algebra

    def spy(A):
        validated.append(A)
        return inner(A)

    monkeypatch.setattr(algebra, "validate_algebra", spy)
    cat = make_category("pointed", {"n": 3})
    alg = make_algebra(cat, "regular_pointed", {})
    assert validated == [alg]
    report = analyze(cat, alg)
    assert analyze(cat, alg) == report
    assert validated == [alg]
    cat_p, alg_p = str(tmp_path / "cat.json"), str(tmp_path / "alg.json")
    save_json(cat_p, category_to_json(cat))
    save_json(alg_p, algebra_to_json(alg))
    assert main(["analyze", cat_p, alg_p, "--report", "json"]) == 0
    assert capsys.readouterr().out == dumps_canonical(report)
    assert len(validated) == 2 and validated[1] is not alg
