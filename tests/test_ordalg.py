from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tensorcat.fields import Field
from tensorcat.linalg import Matrix
from tensorcat.ordalg import (NotSemisimple, OrdAlgebra, OrdModule,
                              UNDETERMINED, algebra_from_triples,
                              center, central_idempotents, charpoly,
                              decompose_module, is_division, is_semisimple,
                              is_separable_field_ext, is_separable_over_k,
                              module_hom_space, module_is_simple,
                              nilpotency_index, radical, _quaternion_splits)

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)
QPHI = Field(0, [-1, -1, 1], gen_name="phi")     # phi^2 = phi + 1


def group_algebra(field, n):
    trips = [[i, j, (i + j) % n, 1] for i in range(n) for j in range(n)]
    return algebra_from_triples(field, n, trips, [1] + [0] * (n - 1))


def matrix_algebra(field, n):
    units = {}
    k = 0
    for i in range(n):
        for j in range(n):
            units[(i, j)] = k
            k += 1
    trips = []
    for (a, b), i in units.items():
        for (c, d), j in units.items():
            if b == c:
                trips.append([i, j, units[(a, d)], 1])
    unit = [0] * n * n
    for i in range(n):
        unit[units[(i, i)]] = 1
    return algebra_from_triples(field, n * n, trips, unit)


def quaternions(a=-1, b=-1):
    """The quaternion algebra (a, b) over Q: i^2 = a, j^2 = b, k = ij."""
    trips = [[0, 0, 0, 1], [0, 1, 1, 1], [0, 2, 2, 1], [0, 3, 3, 1],
             [1, 0, 1, 1], [2, 0, 2, 1], [3, 0, 3, 1],
             [1, 1, 0, a], [2, 2, 0, b], [3, 3, 0, -a * b],
             [1, 2, 3, 1], [2, 1, 3, -1],
             [1, 3, 2, a], [3, 1, 2, -a],
             [2, 3, 1, -b], [3, 2, 1, b]]
    return algebra_from_triples(Q, 4, trips, [1, 0, 0, 0])


def regular_module(E):
    return OrdModule(E, E.dim, [E.right_action_matrix(E.basis_vec(i))
                                for i in range(E.dim)])


def test_radical_of_semisimple_sum():
    E = algebra_from_triples(Q, 2, [[0, 0, 0, 1], [1, 1, 1, 1]], [1, 1])
    assert radical(E) == []
    assert is_semisimple(E)


def test_radical_f2_z2():
    E = group_algebra(F2, 2)
    r = radical(E)
    assert len(r) == 1
    v = r[0]
    assert [str(c) for c in v] == ["1", "1"]


def test_radical_upper_triangular():
    trips = [[0, 0, 0, 1], [0, 1, 1, 1], [1, 2, 1, 1], [2, 2, 2, 1]]
    E = algebra_from_triples(Q, 3, trips, [1, 0, 1])
    assert len(radical(E)) == 1


def test_radical_is_nilpotent_ideal():
    for E in (group_algebra(F2, 2), group_algebra(F3, 3)):
        r = radical(E)
        assert r
        idx = nilpotency_index(E, r)
        assert idx <= E.dim + 1
        # ideal: closed under left and right multiplication
        span = Matrix.from_cols(E.field, r)
        for v in r:
            for i in range(E.dim):
                for prod in (E.mult_vec(v, E.basis_vec(i)),
                             E.mult_vec(E.basis_vec(i), v)):
                    assert span.solve(prod) is not None


def test_radical_matrix_algebras_char_p():
    assert radical(matrix_algebra(F2, 2)) == []
    assert radical(matrix_algebra(F3, 2)) == []


def test_central_idempotents_q_z2():
    E = group_algebra(Q, 2)
    ci = central_idempotents(E)
    reprs = sorted([tuple(str(c) for c in e) for e in ci])
    assert reprs == [("1/2", "-1/2"), ("1/2", "1/2")]
    # orthogonal, sum to one, fixed by the center
    z = E.field.zero()
    total = [z, z]
    for e in ci:
        assert E.mult_vec(e, e) == e
        total = [a + b for a, b in zip(total, e)]
    assert total == E.unit
    assert E.mult_vec(ci[0], ci[1]) == [z, z]


def test_central_idempotents_m2():
    E = matrix_algebra(Q, 2)
    assert is_semisimple(E)
    assert len(center(E)) == 1
    assert len(central_idempotents(E)) == 1


def test_central_idempotents_commute_with_center():
    for E in (group_algebra(Q, 2), group_algebra(Q, 3), matrix_algebra(Q, 2),
              group_algebra(F2, 3)):
        zc = center(E)
        for e in central_idempotents(E):
            for z in zc:
                assert E.mult_vec(e, z) == E.mult_vec(z, e)


def test_central_idempotents_require_semisimple():
    with pytest.raises(NotSemisimple):
        central_idempotents(group_algebra(F2, 2))


def test_is_division_examples():
    f4 = algebra_from_triples(
        F2, 2, [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1],
                [1, 1, 0, 1], [1, 1, 1, 1]], [1, 0])
    assert is_division(f4) is True
    assert is_division(matrix_algebra(F3, 2)) is False
    assert is_division(quaternions()) is True
    assert is_division(group_algebra(Q, 2)) is False     # splits
    assert is_division(group_algebra(F2, 2)) is False    # not semisimple


def _squarefree(n):
    return all(n % (d * d) for d in range(2, abs(n) + 1))


def _has_rational_point(a, b):
    """Whether z^2 = a x^2 + b y^2 has a nonzero integer solution with
    |x| <= sqrt|b|, |y| <= sqrt|a| and |z| <= sqrt|ab|.  For squarefree
    coprime a, b, Holzer's theorem says any solution implies one inside
    this box."""
    for x in range(isqrt(abs(b)) + 1):
        for y in range(isqrt(abs(a)) + 1):
            zz = a * x * x + b * y * y
            if (x or y) and 0 <= zz <= abs(a * b) and isqrt(zz) ** 2 == zz:
                return True
    return False


def test_quaternion_splitting_matches_holzer_search():
    values = [n for n in range(-30, 31) if n and _squarefree(n)]
    pairs = [(a, b) for a in values for b in values if gcd(a, b) == 1]
    assert len(pairs) > 500
    for a, b in pairs:
        assert _quaternion_splits(Fraction(a), Fraction(b)) \
            == _has_rational_point(a, b), (a, b)


def test_quaternion_division_over_q():
    for a, b in ((-1, -3), (2, 3), (3, -7)):
        assert is_division(quaternions(a, b)) is True, (a, b)
    for a, b in ((5, -1), (1, 7)):
        assert is_division(quaternions(a, b)) is False, (a, b)


def test_split_quaternion_like_detected():
    # (1, 1): i^2 = j^2 = +1 gives a split algebra (isomorphic to M2)
    trips = [[0, 0, 0, 1], [0, 1, 1, 1], [0, 2, 2, 1], [0, 3, 3, 1],
             [1, 0, 1, 1], [2, 0, 2, 1], [3, 0, 3, 1],
             [1, 1, 0, 1], [2, 2, 0, 1], [3, 3, 0, -1],
             [1, 2, 3, 1], [2, 1, 3, -1],
             [1, 3, 2, 1], [3, 1, 2, -1],
             [2, 3, 1, -1], [3, 2, 1, 1]]
    E = algebra_from_triples(Q, 4, trips, [1, 0, 0, 0])
    assert is_division(E) is False


def test_module_simplicity():
    E = matrix_algebra(Q, 2)
    reg = regular_module(E)
    dec = decompose_module(E, reg)
    assert len(dec) == 1
    simple, mult = dec[0]
    assert (simple.dim, mult) == (2, 2)
    assert module_is_simple(E, simple) is True
    assert module_is_simple(E, reg) is False


def test_regular_module_of_field_is_simple():
    f4 = algebra_from_triples(
        F2, 2, [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1],
                [1, 1, 0, 1], [1, 1, 1, 1]], [1, 0])
    assert module_is_simple(f4, regular_module(f4)) is True


def test_decompose_q_z2():
    E = group_algebra(Q, 2)
    dec = decompose_module(E, regular_module(E))
    assert sorted((s.dim, m) for s, m in dec) == [(1, 1), (1, 1)]


def test_decompose_zero_module():
    E = group_algebra(Q, 2)
    zero = OrdModule(E, 0, [Matrix.zeros(Q, 0, 0) for _ in range(E.dim)])
    assert decompose_module(E, zero) == []


def test_decompose_reconstructs_dimension():
    for E in (group_algebra(Q, 4), matrix_algebra(Q, 2), group_algebra(F2, 3)):
        reg = regular_module(E)
        dec = decompose_module(E, reg)
        assert sum(s.dim * m for s, m in dec) == E.dim


def test_decompose_f2_z3():
    # F2[Z/3] = F2 x F4
    E = group_algebra(F2, 3)
    dec = decompose_module(E, regular_module(E))
    assert sorted(s.dim for s, _m in dec) == [1, 2]


def test_module_hom_space():
    E = group_algebra(Q, 2)
    dec = decompose_module(E, regular_module(E))
    s0, s1 = dec[0][0], dec[1][0]
    assert len(module_hom_space(s0, s0)) == 1
    assert len(module_hom_space(s0, s1)) == 0


def test_separability_over_k():
    assert is_separable_over_k(group_algebra(Q, 2)) is True
    assert is_separable_over_k(group_algebra(F2, 2)) is False
    nilp = algebra_from_triples(F2, 2, [[0, 0, 0, 1], [0, 1, 1, 1],
                                        [1, 0, 1, 1]], [1, 0])
    assert is_separable_over_k(nilp) is False
    assert is_separable_over_k(matrix_algebra(Q, 2)) is True
    assert is_separable_over_k(group_algebra(F2, 3)) is True


def test_separable_implies_semisimple_on_corpus():
    algebras = [group_algebra(Q, 2), group_algebra(Q, 3),
                group_algebra(F2, 2), group_algebra(F2, 3),
                group_algebra(F3, 3), matrix_algebra(Q, 2),
                matrix_algebra(F2, 2), quaternions()]
    for E in algebras:
        if is_separable_over_k(E):
            assert is_semisimple(E)


def test_separable_field_extension():
    from tensorcat.poly import Poly, Reducible
    f = Poly.from_ints(Q, [-5, 0, 1])
    assert is_separable_field_ext(f) is True
    g = Poly.from_ints(F2, [1, 1, 1])
    assert is_separable_field_ext(g) is True
    with pytest.raises(Reducible):
        is_separable_field_ext(Poly.from_ints(Q, [-1, 0, 1]))


def test_charpoly_examples():
    m = Matrix(Q, [[Q.scalar(2), Q.scalar(1)], [Q.scalar(0), Q.scalar(3)]])
    cp = charpoly(m)
    # (x-2)(x-3) = 6 - 5x + x^2
    assert [str(c) for c in cp] == ["6", "-5", "1"]
    n = Matrix(F2, [[F2.scalar(0), F2.scalar(1)],
                    [F2.scalar(1), F2.scalar(1)]])
    cp2 = charpoly(n)
    assert [str(c) for c in cp2] == ["1", "1", "1"]


def test_undetermined_is_a_value():
    assert UNDETERMINED == "undetermined"


@pytest.mark.parametrize("field", [Q, F3, QPHI], ids=["Q", "F3", "Qphi"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_act_vec_equals_row_times_act_matrix(field, data):
    M = regular_module(matrix_algebra(field, 2))
    coeff = st.lists(st.integers(-3, 3), min_size=field.deg,
                     max_size=field.deg).map(field.scalar)
    vec = st.lists(coeff, min_size=M.dim, max_size=M.dim)
    v, x = data.draw(vec), data.draw(vec)
    assume(sum(not c.is_zero() for c in x) >= 2)
    assert M.act_vec(v, x) == (Matrix(field, [v]) @ M.act_matrix(x)).a[0]
