"""`EndData` reads End-algebra products by restriction along the unit of
each free generator; `end_oracle.KernelSolveEnd` composes each pair of
basis maps and solves the result against its block.  Both take the same
hom bases, so their structure constants and units agree entry for entry.

`free_bimodule_maps` reads one destination's two actions once for all
sources; `end_oracle.pairwise_free_bimodule_maps` reads its composed
two-sided action once per source, and both give the same maps.  Those maps restrict to the unit
basis, so `EndData` multiplies by no restriction matrix on the bimodule
End; the free-module End still has blocks that need one.
"""

import inspect

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from construction_oracle import hom_unit_basis
from end_oracle import (KernelSolveEnd, associativity_reference,
                        pairwise_free_bimodule_maps, verdict)
from tensorcat.algebra import AlgebraPres, validate_algebra
from tensorcat.catalog import make_algebra, make_category, standard_entries
from tensorcat.fincat import Mor, Obj, ValidationFailure
from tensorcat.linalg import Matrix
from tensorcat.ordalg import OrdAlgebra, OrdAlgebraError
from tensorcat import modcat
from tensorcat.modcat import (EndData, algebra_as_module,
                              bimodule_end_algebra, free_bimodule,
                              free_bimodule_maps, free_module,
                              free_module_end, hom_bases, hom_basis)


def _assert_same_algebra(end, ref, name):
    assert [(i, j) for i, j, _m in end.basis] == \
        [(i, j) for i, j, _m in ref.basis], name
    assert end.algebra.sc == ref.algebra.sc, name
    assert end.algebra.unit == ref.algebra.unit, name


def _assert_both_ends_match_the_kernel_solve(A, name):
    end = free_module_end(A)
    ref = KernelSolveEnd(end.modules, hom_bases, A.cat.field)
    _assert_same_algebra(end, ref, name)
    end = bimodule_end_algebra(A)
    ref = KernelSolveEnd(end.modules, free_bimodule_maps, A.cat.field)
    _assert_same_algebra(end, ref, name)


def test_restriction_matches_the_kernel_solve_on_the_corpus(corpus):
    for name, _cat, alg in corpus:
        _assert_both_ends_match_the_kernel_solve(alg, name)


@lru_cache(maxsize=None)
def _menu(field_name):
    """Small algebras over one field: name -> algebra.  M_2(Q) is left to
    the corpus: moved along a dense g, its End algebras take seconds to
    validate."""
    cats = {name: mk() for name, mk in standard_entries().items()}
    if field_name == "Q":
        vq, z2 = cats["vec_q"], cats["z2"]
        return {"vec_q/group2": make_algebra(
                    vq, "ordinary_group_algebra", {"n": 2}),
                "vec_q/group3": make_algebra(
                    vq, "ordinary_group_algebra", {"n": 3}),
                "z2/regular": make_algebra(z2, "regular_pointed", {})}
    if field_name == "F_2":
        vf2, zf2 = cats["vec_f2"], cats["z2_f2"]
        return {"vec_f2/group2": make_algebra(
                    vf2, "ordinary_group_algebra", {"n": 2}),
                "vec_f2/group3": make_algebra(
                    vf2, "ordinary_group_algebra", {"n": 3}),
                "z2_f2/regular": make_algebra(zf2, "regular_pointed", {})}
    if field_name == "F_3":
        vf3, zf3 = cats["vec_f3"], cats["z3_f3"]
        return {"vec_f3/group2": make_algebra(
                    vf3, "ordinary_group_algebra", {"n": 2}),
                "vec_f3/group3": make_algebra(
                    vf3, "ordinary_group_algebra", {"n": 3}),
                "z3_f3/regular": make_algebra(zf3, "regular_pointed", {})}
    fib = cats["fibonacci"]
    return {"fibonacci/end_t": make_algebra(
                fib, "internal_end", {"obj": {"t": 1}}),
            "fibonacci/trivial": make_algebra(fib, "trivial")}


@st.composite
def _transported(draw, field_name):
    """A menu algebra moved along a drawn automorphism g of its carrier:
    the product g m (g^-1 (x) g^-1) and the unit g eta.  Each block of g is
    a unit lower times a unit upper triangular matrix, so g is invertible,
    and its entries make the structure constants dense."""
    menu = _menu(field_name)
    name = draw(st.sampled_from(sorted(menu)))
    A = menu[name]
    cat, c = A.cat, A.carrier
    field = cat.field
    coeff = st.lists(st.integers(-1, 1), min_size=field.deg,
                     max_size=field.deg).map(field.scalar)
    blocks = {}
    for a in c.support:
        n = c.mult(a)
        lower = Matrix.from_entries(field, n, n, [
            (i, j, field.one() if i == j else draw(coeff))
            for i in range(n) for j in range(i + 1)])
        upper = Matrix.from_entries(field, n, n, [
            (i, j, field.one() if i == j else draw(coeff))
            for i in range(n) for j in range(i, n)])
        blocks[a] = lower @ upper
    g = Mor(cat, c, c, blocks)
    gi = g.inv()
    B = AlgebraPres(cat, c, g @ A.mult @ cat.tensor_mor(gi, gi), g @ A.unit)
    assert validate_algebra(B).ok
    return name, B


@pytest.mark.parametrize("field_name", ["Q", "F_2", "F_3", "Q(phi)"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_restriction_matches_the_kernel_solve_on_drawn_algebras(field_name,
                                                                data):
    name, B = data.draw(_transported(field_name))
    _assert_both_ends_match_the_kernel_solve(B, name)


def test_end_data_refuses_a_module_without_a_simple_generator(cats):
    vq = cats["vec_q"]
    A = make_algebra(vq, "ordinary_group_algebra", {"n": 2})
    for P in (algebra_as_module(A), free_module(Obj(vq, {"1": 2}), A)):
        with pytest.raises(ValidationFailure, match="free modules"):
            EndData([P], hom_bases, vq.field)


def test_end_data_refuses_a_hom_basis_short_of_one_map(cats):
    z2 = cats["z2"]
    A = make_algebra(z2, "regular_pointed", {})
    frees = [free_module(z2.simple(a), A) for a in z2.labels]

    def short(srcs, y):
        return [hom_basis(x, y)[1:] for x in srcs]
    assert all(hom_basis(y, x) for x in frees for y in frees)
    with pytest.raises(ValidationFailure, match="restriction space"):
        EndData(frees, short, z2.field)


def test_end_data_refuses_a_hom_basis_that_restricts_to_a_dependent_set(
        cats):
    # a repeated basis map keeps R square but makes it singular
    vq = cats["vec_q"]
    A = make_algebra(vq, "ordinary_group_algebra", {"n": 2})
    frees = [free_module(vq.simple("1"), A)]

    def repeated(srcs, y):
        return [hs[:-1] + hs[:1] for hs in hom_bases(srcs, y)]
    with pytest.raises(ValidationFailure, match="linearly dependent"):
        EndData(frees, repeated, vq.field)


def test_free_bimodule_maps_restrict_to_their_psi(corpus):
    checked = 0
    for name, cat, alg in corpus:
        gens = [free_bimodule(alg, cat.simple(a)) for a in cat.labels]
        gens = [b for b in gens if not b.carrier.is_zero()]
        for dst in gens:
            for src, maps in zip(gens, free_bimodule_maps(gens, dst),
                                 strict=True):
                u = src.unit_map()
                psis = hom_unit_basis(cat, src.generator, dst.carrier)
                assert len(maps) == len(psis), name
                for f, psi in zip(maps, psis):
                    assert f @ u == psi, name
                    checked += 1
    assert checked > 100


# the regular algebras over Q and over F_p beyond the corpus, as
# (category, its parameters, algebra, its parameters)
_LARGER = [("pointed", {"n": 3}, "regular_pointed", {}),
           ("pointed", {"n": 4}, "regular_pointed", {}),
           ("pointed", {"n": 5}, "regular_pointed", {}),
           ("vec", {}, "ordinary_group_algebra", {"n": 3}),
           ("vec", {}, "ordinary_group_algebra", {"n": 4}),
           ("vec", {"field": 2}, "ordinary_group_algebra", {"n": 4}),
           ("vec", {"field": 5}, "ordinary_group_algebra", {"n": 5}),
           ("pointed", {"n": 4, "field": 3}, "regular_pointed", {}),
           ("vec", {"field": 3}, "internal_end", {"obj": {"1": 2}})]


def test_end_algebras_pass_the_full_associativity_loop(corpus):
    # every End algebra that the analysis builds passes the loop over all
    # n^3 triples; with one constant of a product of two basis maps
    # outside the unit's support deleted, the check fails exactly where
    # that loop does, or both accept
    algebras = [(name, alg) for name, _cat, alg in corpus]
    for cat_name, cat_params, alg_name, alg_params in _LARGER:
        cat = make_category(cat_name, dict(cat_params))
        algebras.append((f"{cat_name}{cat_params}/{alg_name}{alg_params}",
                         make_algebra(cat, alg_name, dict(alg_params))))
    rejected = 0
    for name, A in algebras:
        for end in (free_module_end(A), bimodule_end_algebra(A)):
            E = end.algebra
            assert verdict(associativity_reference, E) is None, name
            outside = {k for k, c in enumerate(E.unit) if c.is_zero()}
            pairs = [(i, j) for i in sorted(outside) for j in sorted(outside)
                     if E.sc[i][j]]
            if not pairs:
                continue
            i, j = pairs[-1]
            sc = [[list(p) for p in row] for row in E.sc]
            sc[i][j] = sc[i][j][1:]
            bad = OrdAlgebra(E.field, E.dim, sc, E.unit, validate=False)
            expected = verdict(associativity_reference, bad)
            assert verdict(OrdAlgebra._validate, bad) == expected, name
            rejected += expected is not None
    assert rejected >= 40


def _free_bimodules(A):
    cat = A.cat
    gens = [free_bimodule(A, cat.simple(a)) for a in cat.labels]
    return [b for b in gens if not b.carrier.is_zero()]


def _assert_grouped_equals_pairwise(A, name):
    gens = _free_bimodules(A)
    for dst in gens:
        grouped = free_bimodule_maps(gens, dst)
        assert len(grouped) == len(gens), name
        for src, maps in zip(gens, grouped):
            assert maps == pairwise_free_bimodule_maps(src, dst), \
                (name, src, dst)


def test_grouped_free_bimodule_maps_equal_the_pairwise_walk(corpus):
    for name, _cat, alg in corpus:
        _assert_grouped_equals_pairwise(alg, name)


@pytest.mark.parametrize("field_name", ["Q", "F_2", "F_3", "Q(phi)"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_grouped_free_bimodule_maps_equal_the_pairwise_walk_on_drawn_algebras(
        field_name, data):
    name, B = data.draw(_transported(field_name))
    _assert_grouped_equals_pairwise(B, name)


def _restrictions(end):
    """(i, j) -> the columns (b o u_j).coords() of the block's maps b."""
    units = [p.unit_map() for p in end.modules]
    return {(i, j): [(m @ units[j]).coords() for m in hs]
            for (i, j), hs in end.blocks.items() if hs}


def _is_unit_basis(cols):
    field = cols[0][0].field
    return cols == [[field.one() if r == t else field.zero()
                     for r in range(len(cols))] for t in range(len(cols))]


def test_every_bimodule_end_block_restricts_to_the_unit_basis(corpus):
    # f_psi o u = psi for the maps of the free-forget correspondence, so
    # the bimodule End multiplies by no restriction matrix
    algebras = [(name, alg) for name, _cat, alg in corpus]
    for cat_name, cat_params, alg_name, alg_params in _LARGER:
        cat = make_category(cat_name, dict(cat_params))
        algebras.append((f"{cat_name}{cat_params}/{alg_name}{alg_params}",
                         make_algebra(cat, alg_name, dict(alg_params))))
    blocks = 0
    for name, A in algebras:
        end = bimodule_end_algebra(A)
        for ij, cols in _restrictions(end).items():
            assert _is_unit_basis(cols), (name, ij)
            blocks += 1
        assert end._restriction == {}, name
    assert blocks >= 140


def test_free_module_ends_keep_blocks_off_the_unit_basis(cats):
    # the kernel basis of `hom_basis` need not restrict to the unit
    # basis, so the free-module End still multiplies by R and R^-1
    for name, A in (("vec_q/group3", _menu("Q")["vec_q/group3"]),
                    ("fibonacci/end_t", make_algebra(
                        cats["fibonacci"], "internal_end",
                        {"obj": {"t": 1}}))):
        end = free_module_end(A)
        off = {ij for ij, cols in _restrictions(end).items()
               if not _is_unit_basis(cols)}
        assert off, name
        assert set(end._restriction) == off, name


def test_pointed_z5_walks_each_action_once_and_multiplies_nothing(
        monkeypatch):
    A = make_algebra(make_category("pointed", {"n": 5}), "regular_pointed",
                     {})
    inner = modcat.free_bimodule_maps
    calls = []

    def counting(srcs, dst):
        calls.append(dst)
        return inner(srcs, dst)
    monkeypatch.setattr(modcat, "free_bimodule_maps", counting)
    end = bimodule_end_algebra(A)
    assert len(end.modules) == 5
    assert len(calls) == 5
    assert {id(b) for b in calls} == {id(b) for b in end.modules}
    # the build without the suite's check of the result
    build = inspect.unwrap(EndData._build_algebra)
    matmul = Matrix.__matmul__
    products = []

    def counting_matmul(self, other):
        products.append((self.rows, other.cols))
        return matmul(self, other)
    monkeypatch.setattr(Matrix, "__matmul__", counting_matmul)
    E = build(end)
    monkeypatch.undo()
    assert products == []
    assert E.sc == end.algebra.sc and E.unit == end.algebra.unit
