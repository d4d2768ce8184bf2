"""Three constructions written from nonzeros, each equal to its composed
reference, and the left regular representation read off the structure
constants, equivalent to the natural one it replaces.

* `structure._section_system` writes the section system from the
  nonzeros of m, m_left and m_right; `section_system_by_composition`
  composes L(z) - R(z) for each unit basis element z.
* `modcat.module_dual` writes the action of A^L from the nonzeros of the
  multiplication and the F-symbols; `module_dual_reference` composes the
  six-stage chain through (c^v (x) c) (x) (c (x) c^v).
* `modcat.free_bimodule_maps` writes the maps out of each free bimodule
  straight from the nonzeros of the target's two actions;
  `end_oracle.product_bimodule_maps` composes
  right o (left (x) 1) o (1 (x) psi (x) 1) for each psi, and
  `end_oracle.two_step_free_bimodule_maps` writes the two-sided action
  over (A y) A first (`end_oracle.two_sided_action`, itself equal to the
  composed `two_sided_action_reference`) and reads the maps off it.
* `OrdAlgebra._rep_blocks_of_vec` reads L_x off the structure constants
  of an End algebra, one block per class of `OrdAlgebra._blocks`;
  `natural_rep_reference` builds the natural block representation, one
  matrix of entries per map and label.  The radical reads the same data
  from both: the traces (`OrdAlgebra._nat_traces`) are equal, dim E is
  the sum of the natural blocks' sizes, and for drawn vectors x the
  product of the natural blocks' characteristic polynomials is that of
  the classes' blocks.

Each pair is compared exactly, matrix for matrix and morphism for
morphism (the representations polynomial for polynomial), on both End
algebras of every corpus pair and on drawn algebras: quadratic algebras
over Q, F_2, F_3 and F_5, direct sums of two of them, and internal ends
in Fibonacci and Ising.  The F-blocks that A^L reads are their own
inverses in all of these, so internal ends in Z/3 with a cocycle of
order three, over F_7, check that A^L reads F^-1 where the chain has
the inverse associator.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from construction_oracle import (direct_sum_algebra, module_dual_reference,
                                 natural_rep_reference, natural_traces,
                                 quadratic_algebra,
                                 section_by_composition,
                                 section_system_by_composition,
                                 two_sided_action_reference)
from end_oracle import (product_bimodule_maps, two_sided_action,
                        two_step_free_bimodule_maps)
from tensorcat.catalog import make_algebra, make_category
from tensorcat.fields import Field
from tensorcat.fincat import hom_dim
from tensorcat.linalg import Matrix
from tensorcat.modcat import (bimodule_end_algebra, free_bimodule,
                              free_bimodule_maps, free_module_end,
                              module_dual)
from tensorcat.ordalg import _charpoly_of_blocks
from tensorcat.structure import _section_system, is_separable


def _check_representations(end, rng) -> None:
    """The radical's data from the left regular representation of
    end.algebra equal that from the natural representation: the traces,
    the dimension, and the characteristic polynomial of three vectors."""
    E, field = end.algebra, end.field
    rep = natural_rep_reference(end)
    assert E._nat_traces() == natural_traces(field, rep)
    assert sorted(k for cls in E._blocks for k in cls) == list(range(E.dim))
    if not E.dim:
        return
    assert E.dim == sum(m.rows for m in rep[0])
    for x in (E.unit, [field.scalar(rng.randint(-2, 2)) for _ in rep],
              [field.scalar(rng.randint(0, 1)) for _ in rep]):
        natural = [Matrix.combine(x, mats) for mats in zip(*rep)]
        assert _charpoly_of_blocks(E._rep_blocks_of_vec(x), E.dim) == \
            _charpoly_of_blocks(natural, E.dim)


def _check(A) -> int:
    """Compare the three builds of A with their references, and the two
    representations of both its End algebras; the number of free
    bimodules compared."""
    cat, c = A.cat, A.carrier
    assert hom_dim(cat.unit_obj(), cat.tensor(c, c))
    assert _section_system(cat, A) == section_system_by_composition(cat, A)
    assert is_separable(cat, A) is section_by_composition(cat, A)
    new, old = module_dual(A), module_dual_reference(A)
    assert new.carrier == old.carrier
    assert new.action == old.action
    gens = [free_bimodule(A, cat.simple(a)) for a in cat.labels]
    gens = [b for b in gens if not b.carrier.is_zero()]
    for b in gens:
        assert two_sided_action(b) == two_sided_action_reference(b), b
        maps = free_bimodule_maps(gens, b)
        assert maps == two_step_free_bimodule_maps(gens, b), b
        for src, ms in zip(gens, maps, strict=True):
            assert ms == product_bimodule_maps(src, b), (src, b)
    rng = random.Random(len(gens))
    for end in (free_module_end(A), bimodule_end_algebra(A)):
        _check_representations(end, rng)
    return len(gens)


def test_every_corpus_pair_matches_its_references(corpus):
    count = sum(_check(alg) for _name, _cat, alg in corpus)
    assert count >= 30


_VEC = {field: make_category("vec", {"field": field})
        for field in (Field.rationals(), Field.prime(2), Field.prime(3),
                      Field.prime(5))}
_COEFF = st.integers(-3, 3)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(field=st.sampled_from(list(_VEC)), b=_COEFF, c=_COEFF)
def test_quadratic_algebras_match_their_references(field, b, c):
    _check(quadratic_algebra(_VEC[field], b, c))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(field=st.sampled_from(list(_VEC)),
       coeffs=st.tuples(_COEFF, _COEFF, _COEFF, _COEFF))
def test_direct_sums_match_their_references(field, coeffs):
    cat = _VEC[field]
    b1, c1, b2, c2 = coeffs
    _check(direct_sum_algebra(quadratic_algebra(cat, b1, c1),
                              quadratic_algebra(cat, b2, c2)))


_FUSION = {name: make_category(name) for name in ("fibonacci", "ising")}


@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data(), name=st.sampled_from(list(_FUSION)))
def test_internal_ends_match_their_references(data, name):
    cat = _FUSION[name]
    mults = data.draw(st.lists(st.integers(0, 2), min_size=len(cat.labels),
                               max_size=len(cat.labels))
                      .filter(lambda ms: 1 <= sum(ms) <= 2))
    obj = {a: n for a, n in zip(cat.labels, mults) if n}
    _check(make_algebra(cat, "internal_end", {"obj": obj}))


# the 3-cocycle omega(a, b, c) = zeta^(a (b + c - [b + c]) / 3) of Z/3, for
# the cube root of unity zeta = 2 of F_7; [k] is k mod 3
_OMEGA = {(a, b, c): 2 ** (a * (b + c - (b + c) % 3) // 3)
          for a in (1, 2) for b in (1, 2) for c in (1, 2)}
_Z3_OMEGA = make_category("pointed", {"n": 3, "field": 7, "omega": _OMEGA})


def test_internal_ends_under_a_cocycle_of_order_three_match():
    # F[g2, g1, g2, g2] = omega(2, 1, 2) = 4, whose inverse is 2
    assert _Z3_OMEGA.f_entry("g2", "g1", "g2", "g2", ("g0", 0, 0),
                             ("g0", 0, 0), False) != \
        _Z3_OMEGA.f_entry("g2", "g1", "g2", "g2", ("g0", 0, 0),
                          ("g0", 0, 0), True)
    for obj in ({"g1": 1}, {"g1": 1, "g2": 1}, {"g0": 1, "g1": 1},
                {"g1": 2}):
        _check(make_algebra(_Z3_OMEGA, "internal_end", {"obj": obj}))
