"""The section route against the full solve for a section.

`is_separable` solves for the balanced element z = s o u of a bimodule
section s, in Hom(1, A (x) A); `section_reference` solves for s itself,
in Hom(A, A (x) A).  Both decide whether m has a bimodule section, so
their verdicts agree on every input: the benchmark's pairs, their base
extensions to F_4 and F_9, algebras in the 2 x 2 multi-fusion category
(whose unit is a sum of two unit components) and drawn algebras.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from construction_oracle import (direct_sum_algebra, quadratic_algebra,
                                 section_reference)
from tensorcat.catalog import make_algebra, make_category
from tensorcat.fields import Embedding, Field
from tensorcat.fincat import hom_dim
from tensorcat.linalg import Matrix
from tensorcat.structure import base_extend_algebra, is_separable

Q = Field.rationals()
F2, F3, F5 = Field.prime(2), Field.prime(3), Field.prime(5)
F4 = Field.extension(2, [1, 1, 1])          # w^2 = w + 1
F9 = Field.extension(3, [1, 0, 1])          # i^2 = -1


def _end(obj):
    return ("internal_end", {"obj": obj})


def _group(n):
    return ("ordinary_group_algebra", {"n": n})


REGULAR = ("regular_pointed", {})

# the benchmark's ladder_q and charp pairs that the corpus lacks:
# name -> (category, algebra), each (name, params)
LADDER_AND_CHARP = {
    "pointed5/regular": (("pointed", {"n": 5}), REGULAR),
    "vec_q/group3": (("vec", {}), _group(3)),
    "vec_q/group4": (("vec", {}), _group(4)),
    "vec_f2/group4": (("vec", {"field": 2}), _group(4)),
    "vec_f5/group5": (("vec", {"field": 5}), _group(5)),
    "z4_f3/regular": (("pointed", {"n": 4, "field": 3}), REGULAR),
    "vec_f3/m2": (("vec", {"field": 3}), _end({"1": 2})),
}

# the char-p pairs of the corpus and the benchmark, with the field of
# p^2 elements each is extended to
CHAR_P = {
    "vec_f2/group2": (("vec", {"field": 2}), _group(2), F4),
    "vec_f2/group3": (("vec", {"field": 2}), _group(3), F4),
    "vec_f2/group4": (("vec", {"field": 2}), _group(4), F4),
    "z2_f2/regular": (("graded_char_p", {"p": 2}), REGULAR, F4),
    "vec_f3/group3": (("vec", {"field": 3}), _group(3), F9),
    "z3_f3/regular": (("graded_char_p", {"p": 3}), REGULAR, F9),
    "z4_f3/regular": (("pointed", {"n": 4, "field": 3}), REGULAR, F9),
    "vec_f3/m2": (("vec", {"field": 3}), _end({"1": 2}), F9),
}

# algebras in the 2 x 2 multi-fusion category, where 1 = e11 + e22
MMF2_OBJECTS = [{"e12": 1}, {"e11": 1, "e12": 1}, {"e11": 1, "e21": 1},
                {"e12": 1, "e21": 1}, {"e11": 2},
                {"e11": 1, "e12": 1, "e21": 1, "e22": 1}]


def _agree(cat, alg) -> bool:
    verdict = is_separable(cat, alg)
    assert verdict is section_reference(cat, alg)
    return verdict


def test_the_corpus_verdicts_match_the_full_solve(corpus):
    verdicts = {name: _agree(cat, alg) for name, cat, alg in corpus}
    assert set(verdicts.values()) == {True, False}


@pytest.mark.parametrize("name", list(LADDER_AND_CHARP))
def test_the_benchmark_verdicts_match_the_full_solve(name):
    (cat_name, cat_params), (kind, params) = LADDER_AND_CHARP[name]
    cat = make_category(cat_name, dict(cat_params))
    _agree(cat, make_algebra(cat, kind, dict(params)))


@pytest.mark.parametrize("name", list(CHAR_P))
def test_base_extended_verdicts_match_the_full_solve(name):
    (cat_name, cat_params), (kind, params), field = CHAR_P[name]
    cat = make_category(cat_name, dict(cat_params))
    alg = make_algebra(cat, kind, dict(params))
    C2, A2 = base_extend_algebra(cat, alg, Embedding(cat.field, field))
    # a separable extension keeps the verdict
    assert _agree(C2, A2) is is_separable(cat, alg)


@pytest.mark.parametrize("field", [None, 2, 3])
def test_multifusion_verdicts_match_the_full_solve(field):
    params = {"n": 2} if field is None else {"n": 2, "field": field}
    cat = make_category("matrix_multifusion", params)
    assert len(cat.unit_components) == 2
    assert _agree(cat, make_algebra(cat, "trivial"))
    for obj in MMF2_OBJECTS:
        assert _agree(cat, make_algebra(cat, "internal_end", {"obj": obj}))


_VEC = {field: make_category("vec", {"field": field})
        for field in (Q, F2, F3, F5)}
_COEFF = st.integers(-3, 3)


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(list(_VEC)), b=_COEFF, c=_COEFF)
def test_quadratic_verdicts_match_the_full_solve(field, b, c):
    cat = _VEC[field]
    _agree(cat, quadratic_algebra(cat, b, c))


@settings(max_examples=20, deadline=None)
@given(field=st.sampled_from(list(_VEC)),
       coeffs=st.tuples(_COEFF, _COEFF, _COEFF, _COEFF))
def test_direct_sum_verdicts_match_the_full_solve(field, coeffs):
    cat = _VEC[field]
    b1, c1, b2, c2 = coeffs
    _agree(cat, direct_sum_algebra(quadratic_algebra(cat, b1, c1),
                                   quadratic_algebra(cat, b2, c2)))


_FUSION = {name: make_category(name) for name in ("fibonacci", "ising")}


@settings(max_examples=12, deadline=None)
@given(data=st.data(), name=st.sampled_from(list(_FUSION)))
def test_internal_end_verdicts_match_the_full_solve(data, name):
    cat = _FUSION[name]
    mults = data.draw(st.lists(st.integers(0, 2), min_size=len(cat.labels),
                               max_size=len(cat.labels))
                      .filter(lambda ms: 1 <= sum(ms) <= 2))
    obj = {a: n for a, n in zip(cat.labels, mults) if n}
    assert _agree(cat, make_algebra(cat, "internal_end", {"obj": obj}))


# -- the reach of the balanced element ----------------------------------------

def test_the_system_has_one_column_per_element_of_hom_1_AA(monkeypatch):
    cat = make_category("vec")
    alg = make_algebra(cat, "internal_end", {"obj": {"1": 3}})   # M_3(Q)
    c = alg.carrier
    sq = cat.tensor(c, c)
    shapes = []
    from_entries = Matrix.from_entries

    def spy(field, rows, cols, entries):
        shapes.append((rows, cols))
        return from_entries(field, rows, cols, entries)

    monkeypatch.setattr(Matrix, "from_entries", staticmethod(spy))
    assert is_separable(cat, alg) is True
    # the system is the last matrix built before the solve: the
    # coordinates of m z and of L(z) - R(z), one column per z
    height = hom_dim(cat.unit_obj(), c) + hom_dim(c, sq)
    assert shapes[-1] == (height, hom_dim(cat.unit_obj(), sq))
    assert hom_dim(cat.unit_obj(), sq) == 81
    # the solve for the section itself has one column per element of
    # Hom(A, A (x) A)
    assert hom_dim(c, sq) == 729


def test_m4_over_q_is_separable():
    cat = make_category("vec")
    assert is_separable(cat, make_algebra(cat, "internal_end",
                                          {"obj": {"1": 4}})) is True


def test_q_of_z13_is_separable():
    cat = make_category("vec")
    assert is_separable(cat, make_algebra(cat, "ordinary_group_algebra",
                                          {"n": 13})) is True
