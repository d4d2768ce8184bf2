"""The facts the analysis reads from E = End(P), against kernel solves on
module carriers.

`simple_modules` takes each simple's End algebra as the corner eEe of its
primitive idempotent e, and its multiplicity in A from Hom(1, x); the
division verdict reads Hom_A(P, A) as the right ideal eps E and decides
its simplicity from eps J = 0 and the corner eps E eps.  The references
build the same objects from hom bases of module carriers: the End data
of each simple module on its own (by the kernel solve of `end_oracle`,
since a simple module is not free), Hom_A(A, x), and Hom_A(P, A) as a
module over E by precomposition, whose simplicity
`module_is_simple_reference` decides by spinning submodules and solving
for its endomorphism algebra.  `simple_modules` splits each simple off one
free module; `simple_modules_reference` splits it off the direct sum of
all of them, and the two agree on every fact the analysis reads.  The
table of internal homs [x_i, x_j], read from the adjunction
Hom(a, [x, y]) = Hom_A(a (x) x, y), matches `internal_hom_reference`,
the dual of x_i (x)_A x_j^v, on the reference simples.
"""

import pytest

from construction_oracle import (OrdModule, internal_hom_reference,
                                 module_is_simple_reference,
                                 simple_modules_reference)
from end_oracle import KernelSolveEnd
from tensorcat.catalog import make_algebra, make_category
from tensorcat.linalg import Matrix
from tensorcat.modcat import (EndData, algebra_as_module, hom_bases,
                              hom_basis, validate_module)
from tensorcat.ordalg import NotSemisimple, is_separable_over_k, radical
from tensorcat.structure import AlgebraAnalysisContext


def _hom_module(end: EndData, y) -> OrdModule:
    """Hom(P, y) = (+)_j Hom(P_j, y) as a right module over end.algebra,
    acting by precomposition; every product is solved against the hom
    basis of its block."""
    field = end.field
    flat = [(j, m) for j, pj in enumerate(end.modules)
            for m in hom_basis(pj, y)]
    offsets, solvers = {}, {}
    for k, (j, m) in enumerate(flat):
        offsets.setdefault(j, k)
    for j in offsets:
        solvers[j] = Matrix.from_cols(
            field, [m.coords() for jj, m in flat if jj == j])
    entries = [[] for _ in end.basis]
    for b, (bi, bj, bm) in enumerate(end.basis):
        if bj not in solvers:
            continue
        for k, (mj, m) in enumerate(flat):
            if mj != bi:
                continue
            coords = solvers[bj].solve((m @ bm).coords())
            assert coords is not None, "hom space not closed under action"
            entries[b] += [(k, offsets[bj] + t, c)
                           for t, c in enumerate(coords)]
    action = [Matrix.from_entries(field, len(flat), len(flat), es)
              for es in entries]
    M = OrdModule(end.algebra, len(flat), action)
    M._validate()
    return M


def test_corners_and_multiplicities_match_the_hom_solves(corpus):
    checked = 0
    for name, cat, alg in corpus:
        ctx = AlgebraAnalysisContext(cat, alg)
        if radical(ctx.end.algebra):
            continue
        sm = ctx.simples
        amod = algebra_as_module(alg)
        for sub, corner, mult in zip(sm.simples, sm.ends, sm.mult_in_A):
            ref = KernelSolveEnd([sub], hom_bases, cat.field).algebra
            assert corner.dim == ref.dim, name
            assert is_separable_over_k(corner) is \
                is_separable_over_k(ref), name
            h = len(hom_basis(amod, sub))
            assert h % ref.dim == 0 and mult == h // ref.dim, name
            checked += 1
    assert checked >= 20


def test_division_reads_the_same_module_as_hom_into_A(corpus):
    verdicts = set()
    for name, cat, alg in corpus:
        ctx = AlgebraAnalysisContext(cat, alg)
        ref = _hom_module(ctx.end, algebra_as_module(alg))
        verdict = ctx.division
        assert module_is_simple_reference(ctx.end.algebra, ref) == verdict, \
            name
        verdicts.add(verdict)
    assert verdicts == {True, False}


def _vec(**params):
    return ("vec", params)


def _end(obj):
    return ("internal_end", {"obj": obj})


def _group(n):
    return ("ordinary_group_algebra", {"n": n})


REGULAR = ("regular_pointed", {})

# the benchmark's ladder_q and charp inputs that the corpus lacks, then
# inputs it leaves out: name -> (category, algebra), each (name, params)
MORE_INPUTS = {
    "pointed5/regular": (("pointed", {"n": 5}), REGULAR),
    "vec_q/group3": (_vec(), _group(3)),
    "vec_q/group4": (_vec(), _group(4)),
    "vec_f2/group4": (_vec(field=2), _group(4)),
    "vec_f5/group5": (_vec(field=5), _group(5)),
    "z4_f3/regular": (("pointed", {"n": 4, "field": 3}), REGULAR),
    "vec_f3/m2": (_vec(field=3), _end({"1": 2})),
    "vec_q/m3": (_vec(), _end({"1": 3})),
    "vec_q/group6": (_vec(), _group(6)),
    "vec_q/group8": (_vec(), _group(8)),
    "vec_f3/group6": (_vec(field=3), _group(6)),
    "z4_f2/regular": (("pointed", {"n": 4, "field": 2}), REGULAR),
    "fibonacci/end_1+t": (("fibonacci", {}), _end({"1": 1, "t": 1})),
    "ising/end_1+sig": (("ising", {}), _end({"1": 1, "sig": 1})),
    "ising/end_psi": (("ising", {}), _end({"psi": 1})),
    "z2/end_2g1": (("pointed", {"n": 2}), _end({"g1": 2})),
    "mmf2/end_e11+e12": (("matrix_multifusion", {"n": 2}),
                         _end({"e11": 1, "e12": 1})),
}


@pytest.mark.parametrize("name", list(MORE_INPUTS))
def test_corner_verdict_matches_the_reference(name):
    (cat_name, cat_params), (kind, params) = MORE_INPUTS[name]
    cat = make_category(cat_name, dict(cat_params))
    alg = make_algebra(cat, kind, dict(params))
    ctx = AlgebraAnalysisContext(cat, alg)
    ref = _hom_module(ctx.end, algebra_as_module(alg))
    assert ctx.division == module_is_simple_reference(ctx.end.algebra, ref)


def _check_simples_against_the_direct_sum(name, cat, alg) -> bool:
    """Whether A is semisimple; if so, the carriers, multiplicities, End
    algebras and [x_i, x_j] of the simples match those split off the
    direct sum of the free modules, [x_i, x_j] by duality there, and each
    simple is a module."""
    ctx = AlgebraAnalysisContext(cat, alg)
    if radical(ctx.end.algebra):
        with pytest.raises(NotSemisimple):
            ctx.simples
        with pytest.raises(NotSemisimple):
            simple_modules_reference(ctx.end)
        return False
    sm, ref = ctx.simples, simple_modules_reference(ctx.end)
    assert [x.carrier for x in sm.simples] == \
        [x.carrier for x in ref.simples], name
    assert sm.mult_in_A == ref.mult_in_A, name
    assert [(B.dim, is_separable_over_k(B)) for B in sm.ends] == \
        [(B.dim, is_separable_over_k(B)) for B in ref.ends], name
    assert ctx.internal_homs == {
        (i, j): internal_hom_reference(x, y)
        for i, x in enumerate(ref.simples)
        for j, y in enumerate(ref.simples)}, name
    assert all(validate_module(x).ok for x in sm.simples), name
    return True


def test_simples_match_the_direct_sum_split(corpus):
    semisimple = sum(_check_simples_against_the_direct_sum(name, cat, alg)
                     for name, cat, alg in corpus)
    assert semisimple >= 18


@pytest.mark.parametrize("name", list(MORE_INPUTS))
def test_simples_match_the_direct_sum_split_beyond_the_corpus(name):
    (cat_name, cat_params), (kind, params) = MORE_INPUTS[name]
    cat = make_category(cat_name, dict(cat_params))
    alg = make_algebra(cat, kind, dict(params))
    _check_simples_against_the_direct_sum(name, cat, alg)
