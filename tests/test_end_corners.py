"""The facts the analysis reads from E = End(P), against kernel solves on
module carriers.

`simple_modules` takes each simple's End algebra as the corner eEe of its
primitive idempotent e, and its multiplicity in A from Hom(1, x); the
division verdict reads Hom_A(P, A) as the right ideal eps E.  The
references build the same objects from hom bases of module carriers: the
End data of each simple module on its own (by the kernel solve of
`end_oracle`, since a simple module is not free), Hom_A(A, x), and
Hom_A(P, A) as a module over E by precomposition.
"""

from end_oracle import KernelSolveEnd
from tensorcat.linalg import Matrix
from tensorcat.modcat import EndData, algebra_as_module, hom_basis
from tensorcat.ordalg import (OrdModule, is_separable_over_k,
                              module_is_simple, radical)
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
            ref = KernelSolveEnd([sub], hom_basis, cat.field).algebra
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
        assert module_is_simple(ctx.end.algebra, ref) == verdict, name
        verdicts.add(verdict)
    assert verdicts == {True, False}
