from fractions import Fraction
from itertools import product
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from construction_oracle import (OrdModule, algebra_from_triples,
                                 decompose_module, flat, ideal_module,
                                 matrix_subalgebra, module_hom_space,
                                 module_is_simple_reference,
                                 nilpotency_index, quadratic_algebra,
                                 quaternions, regular_module,
                                 right_ideal_module)
from end_oracle import associativity_reference, validate_reference, verdict
from ordalg_oracle import (central_idempotents_ladder, ciw_g,
                           cohen_ivanyos_wales_chain,
                           is_field_commutative_reference, is_field_ladder,
                           primitive_idempotent_reference,
                           quaternion_is_division_ladder,
                           radical_chain_on, radical_charp_pairwise)
from tensorcat.algebra import AlgebraPres
from tensorcat.catalog import make_algebra, make_category
from tensorcat.fields import Embedding, Field
from tensorcat.fincat import Mor, Obj
from tensorcat.linalg import Matrix, RowSpace
from tensorcat.modcat import bimodule_end_algebra, free_module_end
from tensorcat.ordalg import (NotSemisimple, OrdAlgebra, OrdAlgebraError,
                              SeparatingElementNotFound, UNDETERMINED,
                              center, central_idempotents, charpoly,
                              corner, is_division,
                              is_semisimple, is_separable_over_k,
                              module_is_simple, primitive_idempotent,
                              radical,
                              min_poly_of_element, subalgebra_on,
                              _anticommutant, _charpoly_of_blocks,
                              _is_division_quaternion, _lin_comb,
                              _quaternion_splits, _trace_form_kernel)
from tensorcat.poly import Poly, _frob_inverse
from tensorcat.structure import base_extend_algebra
from tensorcat import ordalg

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)
F5 = Field.prime(5)
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


def truncated_poly(field, n):
    """k[x]/(x^n) in the basis 1, x, ..., x^(n-1)."""
    trips = [[i, j, i + j, 1] for i in range(n) for j in range(n)
             if i + j < n]
    return algebra_from_triples(field, n, trips, [1] + [0] * (n - 1))


def direct_sum(E, F):
    n = E.dim
    trips = _triples(E) + [[i + n, j + n, l + n, c]
                           for i, j, l, c in _triples(F)]
    return algebra_from_triples(E.field, n + F.dim, trips,
                                list(E.unit) + list(F.unit))


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


def test_quaternions_over_a_number_field_are_undetermined():
    # the norm-form test reads Hilbert symbols over Q only: (phi, -1)
    # has a degenerate rational part, and (3 + phi, 3) is not (3, 3)
    phi, three_plus_phi = QPHI.gen(), QPHI.scalar([3, 1])
    for a, b in ((phi, QPHI.scalar(-1)), (three_plus_phi, QPHI.scalar(3))):
        assert is_division(quaternions(a, b, QPHI)) == UNDETERMINED


def test_matrix_algebra_with_a_zero_divisor_in_its_basis_is_not_division():
    # M_3(Q) has a centre of dimension 1 but dimension 9, past the
    # quaternion route; e_11 has the reducible minimal polynomial t^2 - t
    assert is_division(matrix_algebra(Q, 3)) is False
    assert is_division(quaternions(1, 1)) is False


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
    assert module_is_simple_reference(E, simple) is True
    assert module_is_simple_reference(E, reg) is False


def test_regular_module_of_field_is_simple():
    f4 = algebra_from_triples(
        F2, 2, [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1],
                [1, 1, 0, 1], [1, 1, 1, 1]], [1, 0])
    assert module_is_simple_reference(f4, regular_module(f4)) is True
    assert module_is_simple(f4, f4.unit) is True


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


def test_corner_of_an_idempotent():
    # in M_3, e = E_11 + E_22 cuts out M_2, and the identity all of M_3
    E = matrix_algebra(Q, 3)
    e = [Q.zero()] * 9
    e[0] = e[4] = Q.one()
    B, basis = corner(E, e)
    assert B.dim == len(basis) == 4 and B.unit == [Q.one(), Q.zero(),
                                                   Q.zero(), Q.one()]
    assert is_semisimple(B) and len(central_idempotents(B)) == 1
    assert corner(E, E.unit)[0].dim == 9


def test_corner_of_a_central_idempotent_is_its_block():
    # z b z = z b for central z, so the corner spans the ideal zE
    for E in (group_algebra(Q, 4), group_algebra(F2, 3)):
        for z in central_idempotents(E):
            _B, basis = corner(E, z)
            block = RowSpace(E.field, E.dim)
            for i in range(E.dim):
                block.add(E.mult_vec(z, E.basis_vec(i)))
            assert basis == block.basis()


def test_right_ideal_module():
    # E_11 M_2 spans E_11, E_12: the simple module of M_2
    E = matrix_algebra(Q, 2)
    row = right_ideal_module(E, [0, 1])
    assert row.dim == 2 and module_is_simple_reference(E, row) is True
    row._validate()
    with pytest.raises(OrdAlgebraError, match="right ideal"):
        right_ideal_module(E, [0])


def test_corner_verdict_on_upper_triangular():
    # T_2 in the basis e11, e12, e22: e11 T_2 spans e11, e12 and e11 kills
    # no radical element e12; e22 T_2 is the line of e22, a simple module
    for field in (Q, F2):
        E = upper_triangular(field, 2)
        z, one = field.zero(), field.one()
        e11, e22 = [one, z, z], [z, z, one]
        assert module_is_simple(E, e11) is False
        assert module_is_simple_reference(
            E, right_ideal_module(E, [0, 1])) is False
        assert module_is_simple(E, e22) is True
        assert module_is_simple_reference(
            E, right_ideal_module(E, [2])) is True


def test_module_is_simple_refuses_a_non_idempotent():
    E = matrix_algebra(Q, 2)
    with pytest.raises(OrdAlgebraError, match="idempotent"):
        module_is_simple(E, [Q.scalar(2), Q.zero(), Q.zero(), Q.zero()])
    assert module_is_simple(E, [Q.zero()] * 4) is False


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_corner_verdict_matches_the_reference_on_drawn_algebras(data):
    E = _drawn_algebra(data)
    idempotents = [E.unit]
    if is_semisimple(E):
        idempotents += central_idempotents(E)
    for eps in idempotents:
        assert module_is_simple(E, eps) == \
            module_is_simple_reference(E, ideal_module(E, eps))


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
    # k[x]/(x^n) is separable only for n = 1; k[Z/n] exactly when the
    # characteristic does not divide n
    for field in (Q, F2, F3, F5):
        for n in (1, 2, 3):
            assert is_separable_over_k(truncated_poly(field, n)) is (n == 1)
            assert is_separable_over_k(group_algebra(field, n)) \
                is (field.char == 0 or n % field.char != 0)
        assert is_separable_over_k(matrix_algebra(field, 2)) is True
        assert is_separable_over_k(direct_sum(matrix_algebra(field, 2),
                                              truncated_poly(field, 1)))


def test_separable_implies_semisimple_on_corpus():
    algebras = [group_algebra(Q, 2), group_algebra(Q, 3),
                group_algebra(F2, 2), group_algebra(F2, 3),
                group_algebra(F3, 3), matrix_algebra(Q, 2),
                matrix_algebra(F2, 2), quaternions()]
    for E in algebras:
        if is_separable_over_k(E):
            assert is_semisimple(E)


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
    assert M.act_vec(v, x) == (Matrix(field, [v]) @ M.act_matrix(x)).row(0)


# -- construction checks the unit law and full associativity ---------------

def _triples(E):
    return [[i, j, l, c] for i, row in enumerate(E.sc)
            for j, pairs in enumerate(row) for l, c in pairs]


@pytest.mark.parametrize("field,coeff", [(Q, "1/2"), (Q, 2), (F3, 2)],
                         ids=["Q-half", "Q-two", "F3"])
@pytest.mark.parametrize("make", [lambda f: group_algebra(f, 4),
                                  lambda f: matrix_algebra(f, 2)],
                         ids=["Z4", "M2"])
def test_construction_rejects_a_perturbed_structure_constant(make, field,
                                                             coeff):
    # scale one product of two basis elements outside the unit's support,
    # so that the unit law still holds and only associativity can fail
    E = make(field)
    unit = list(E.unit)
    outside = {i for i, c in enumerate(unit) if c.is_zero()}
    trips = _triples(E)
    algebra_from_triples(field, E.dim, trips, unit)
    perturbed = 0
    for t, (i, j, l, c) in enumerate(trips):
        if i not in outside or j not in outside:
            continue
        bad = list(trips)
        bad[t] = [i, j, l, c * field.scalar(coeff)]
        with pytest.raises(OrdAlgebraError, match="associativity"):
            algebra_from_triples(field, E.dim, bad, unit)
        perturbed += 1
    assert perturbed >= 2


@pytest.mark.parametrize("field", [Q, F3], ids=["Q", "F3"])
def test_construction_rejects_a_wrong_unit(field):
    for E in (group_algebra(field, 3), matrix_algebra(field, 2)):
        trips = _triples(E)
        n = E.dim
        for unit in ([0, 1] + [0] * (n - 2), [2] + [0] * (n - 1),
                     [1, 1] + [0] * (n - 2), [0] * n):
            with pytest.raises(OrdAlgebraError, match="unit law"):
                algebra_from_triples(field, n, trips, unit)


def _rebased(E, P):
    """Structure constants and unit of E in the basis of the rows of P."""
    field = E.field
    Pinv = P.inv()

    def coords(v):
        return (Matrix(field, [v]) @ Pinv).row(0)

    sc = [[[(l, c) for l, c in enumerate(coords(E.mult_vec(P.row(i), P.row(j))))
            if not c.is_zero()]
           for j in range(E.dim)] for i in range(E.dim)]
    return sc, coords(E.unit)


@pytest.mark.parametrize("field", [Q, F3], ids=["Q", "F3"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_construction_accepts_the_algebra_in_any_basis(field, data):
    # in a random basis the products are sums of several terms, some of
    # which cancel; the algebra still passes, and twice its unit does not
    E = matrix_algebra(field, 2) if data.draw(st.booleans()) \
        else group_algebra(field, 3)
    n = E.dim
    rows = data.draw(st.lists(st.lists(st.integers(-1, 1), min_size=n,
                                       max_size=n), min_size=n, max_size=n))
    P = Matrix(field, [[field.scalar(x) for x in r] for r in rows])
    assume(P.is_invertible())
    sc, unit = _rebased(E, P)
    OrdAlgebra(field, n, sc, unit)
    with pytest.raises(OrdAlgebraError, match="unit law"):
        OrdAlgebra(field, n, sc, [c + c for c in unit])


def test_primitive_idempotent_from_nilpotent(monkeypatch):
    # M_2(Q) in the basis (1, E12, E21, E11): the unit's minimal polynomial
    # does not split it, E12 is nilpotent, so the idempotent comes from the
    # left ideal B E12
    from tensorcat import ordalg
    trips = [[0, j, j, 1] for j in range(4)] + [[i, 0, i, 1] for i in (1, 2, 3)]
    trips += [[1, 2, 3, 1],                      # E12 E21 = E11
              [2, 1, 0, 1], [2, 1, 3, -1],       # E21 E12 = E22 = 1 - E11
              [2, 3, 2, 1],                      # E21 E11 = E21
              [3, 1, 1, 1],                      # E11 E12 = E12
              [3, 3, 3, 1]]                      # E11 E11 = E11
    B = algebra_from_triples(Q, 4, trips, [1, 0, 0, 0])
    calls = []
    real = ordalg._idempotent_from_nilpotent

    def spy(B_, z):
        out = real(B_, z)
        calls.append(out)
        return out

    monkeypatch.setattr(ordalg, "_idempotent_from_nilpotent", spy)
    e = ordalg.primitive_idempotent(B)
    assert calls and calls[0] is not None
    zero = [Q.zero()] * 4
    assert B.mult_vec(e, e) == e
    assert e != zero and e != list(B.unit)
    corner = RowSpace(Q, 4)
    for i in range(4):
        corner.add(B.mult_vec(e, B.mult_vec(B.basis_vec(i), e)))
    assert corner.dim() == 1


def _sc_of(dim, trips):
    sc = [[[] for _ in range(dim)] for _ in range(dim)]
    for i, j, l, c in trips:
        sc[i][j].append((l, c))
    return sc


def _left_terms(E, i, j, l) -> int:
    """The number of products c_ij^m c_ml^t that (b_i b_j) b_l sums."""
    return sum(len(E.sc[m][l]) for m, _c in E.sc[i][j])


@pytest.mark.parametrize("make", [lambda: matrix_algebra(Q, 2),
                                  lambda: group_algebra(Q, 4)],
                         ids=["M2", "Z4"])
def test_construction_rejects_a_deleted_product(make):
    # delete one nonzero product b_i b_j of two basis elements outside the
    # unit's support: the unit law still holds, and the left side of each
    # (i, j, l) has no term left, while the right side may have some
    E = make()
    unit = list(E.unit)
    outside = [i for i, c in enumerate(unit) if c.is_zero()]
    deleted = left_empty = 0
    for i in outside:
        for j in outside:
            if not E.sc[i][j]:
                continue
            sc = [[list(pairs) for pairs in row] for row in E.sc]
            sc[i][j] = []
            bad = OrdAlgebra(Q, E.dim, sc, unit, validate=False)
            with pytest.raises(OrdAlgebraError,
                               match=r"associativity fails at \(") as ref:
                associativity_reference(bad)
            with pytest.raises(OrdAlgebraError) as got:
                OrdAlgebra(Q, E.dim, sc, unit)
            assert str(got.value) == str(ref.value)
            triple = str(ref.value).split("(")[1].rstrip(")")
            left_empty += _left_terms(bad, *map(int, triple.split(","))) == 0
            deleted += 1
    assert deleted >= 2
    assert left_empty >= 1


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_associativity_check_matches_the_full_loop(data):
    # the check over reachable triples and the loop over all n^3 triples
    # accept the same algebras and name the same first failure, after one
    # structure constant is scaled, added or deleted; products of basis
    # elements outside the unit's support are perturbed where there are
    # any, so that the unit law holds and associativity decides
    E = _drawn_algebra(data)
    field, n = E.field, E.dim
    trips = _triples(E)
    outside = [k for k, c in enumerate(E.unit) if c.is_zero()]
    inner = [t for t, (i, j, _l, _c) in enumerate(trips)
             if i in outside and j in outside] or range(len(trips))
    small = [field.scalar(k) for k in range(1, 7)]
    nonzero = [c for c in small if not c.is_zero()]
    factors = [c for c in nonzero if c != field.one()]
    kind = data.draw(st.sampled_from(
        ["none", "add", "delete"] + (["scale"] if factors else [])))
    if kind == "scale":
        t = data.draw(st.sampled_from(inner))
        i, j, l, c = trips[t]
        trips[t] = [i, j, l, c * data.draw(st.sampled_from(factors))]
    elif kind == "add":
        index = st.sampled_from(outside or range(n))
        trips.append([data.draw(index), data.draw(index),
                      data.draw(st.integers(0, n - 1)),
                      data.draw(st.sampled_from(nonzero))])
    elif kind == "delete":
        del trips[data.draw(st.sampled_from(inner))]
    F = OrdAlgebra(field, n, _sc_of(n, trips), list(E.unit), validate=False)
    assert verdict(OrdAlgebra._validate, F) == \
        verdict(validate_reference, F)


# -- each system built from basis images equals its row-built reference -----

def _small_algebra(data, field, max_dim):
    kind = data.draw(st.sampled_from(["group", "truncated", "m2"]))
    if kind == "m2" and max_dim >= 4:
        return matrix_algebra(field, 2)
    n = data.draw(st.integers(1, min(3, max_dim)))
    return (group_algebra if kind == "group" else truncated_poly)(field, n)


def _drawn_algebra(data):
    """A group algebra, k[x]/(x^n), M_2 or a direct sum of two of them,
    over Q, F_2, F_3 or F_5, possibly rewritten in a random basis."""
    field = data.draw(st.sampled_from([Q, F2, F3, F5]))
    E = _small_algebra(data, field, 4)
    if E.dim < 4 and data.draw(st.booleans()):
        E = direct_sum(E, _small_algebra(data, field, 4 - E.dim))
    return _in_random_basis(data, E) if data.draw(st.booleans()) else E


def _in_random_basis(data, E):
    """E rewritten in the basis of the rows of P = L U, L and U
    unitriangular with entries in {-1, 0, 1}, so P is invertible over
    every field."""
    field, n = E.field, E.dim
    entries = st.lists(st.integers(-1, 1), min_size=n * n, max_size=n * n)

    def unitriangular(lower):
        vals = data.draw(entries)
        return Matrix(field, [[field.scalar(
            1 if i == j else vals[i * n + j] if (j < i) == lower else 0)
            for j in range(n)] for i in range(n)])
    sc, unit = _rebased(E, unitriangular(True) @ unitriangular(False))
    return OrdAlgebra(field, n, sc, unit)


def _section_solve_reference(E):
    """Separability as the feasibility of a bimodule section phi of the
    multiplication, with n^3 unknowns phi(b_l) = sum phi_lij b_i (x) b_j."""
    field = E.field
    n = E.dim
    z = field.zero()
    nunk = n * n * n

    def unk(l, i, j):
        return (l * n + i) * n + j
    rows, rhs = [], []
    # m(phi(b_l)) = b_l
    for l in range(n):
        for t in range(n):
            row = [z] * nunk
            for i in range(n):
                for j in range(n):
                    for tt, c in E.sc[i][j]:
                        if tt == t:
                            row[unk(l, i, j)] = row[unk(l, i, j)] + c
            rows.append(row)
            rhs.append(field.one() if t == l else z)
    # left linearity: phi(b_a b_l) = b_a phi(b_l)
    for a in range(n):
        for l in range(n):
            for i2 in range(n):
                for j in range(n):
                    row = [z] * nunk
                    for m, c in E.sc[a][l]:
                        row[unk(m, i2, j)] = row[unk(m, i2, j)] + c
                    for i in range(n):
                        for tt, c in E.sc[a][i]:
                            if tt == i2:
                                row[unk(l, i, j)] = row[unk(l, i, j)] - c
                    rows.append(row)
                    rhs.append(z)
    # right linearity: phi(b_l b_a) = phi(b_l) b_a
    for a in range(n):
        for l in range(n):
            for i in range(n):
                for j2 in range(n):
                    row = [z] * nunk
                    for m, c in E.sc[l][a]:
                        row[unk(m, i, j2)] = row[unk(m, i, j2)] + c
                    for j in range(n):
                        for tt, c in E.sc[j][a]:
                            if tt == j2:
                                row[unk(l, i, j)] = row[unk(l, i, j)] - c
                    rows.append(row)
                    rhs.append(z)
    return Matrix(field, rows).solve(rhs) is not None


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_separability_idempotent_matches_section_solve(data):
    E = _drawn_algebra(data)
    assert is_separable_over_k(E) is _section_solve_reference(E)


def _center_reference(E):
    z = E.field.zero()
    rows = []
    for i in range(E.dim):
        # commutator with b_i, coordinate l: sum_j x_j (c_{ji}^l - c_{ij}^l)
        for l in range(E.dim):
            row = [z] * E.dim
            touched = False
            for j in range(E.dim):
                acc = z
                for ll, c in E.sc[j][i]:
                    if ll == l:
                        acc = acc + c
                for ll, c in E.sc[i][j]:
                    if ll == l:
                        acc = acc - c
                if not acc.is_zero():
                    touched = True
                row[j] = acc
            if touched:
                rows.append(row)
    if not rows:
        return [E.basis_vec(i) for i in range(E.dim)]
    return Matrix(E.field, rows).kernel_basis()


def _anticommutant_reference(E, i_el):
    rows = []
    for l in range(E.dim):
        row = []
        for jx in range(E.dim):
            bi = E.basis_vec(jx)
            v = E.mult_vec(i_el, bi)
            w = E.mult_vec(bi, i_el)
            row.append(v[l] + w[l])
        rows.append(row)
    return Matrix(E.field, rows).kernel_basis()


def _left_mult_reference(E, x):
    z = E.field.zero()
    cols = []
    for j in range(E.dim):
        col = [z] * E.dim
        for i, xi in enumerate(x):
            if xi.is_zero():
                continue
            for l, c in E.sc[i][j]:
                col[l] = col[l] + xi * c
        cols.append(col)
    return Matrix.from_cols(E.field, cols)


def _endo_algebra_reference(M, end_basis):
    field = M.field
    dimE = len(end_basis)
    solver = Matrix.from_cols(field, [flat(m) for m in end_basis])
    rhs = [flat(end_basis[i] @ end_basis[j])
           for i in range(dimE) for j in range(dimE)]
    rhs.append(flat(Matrix.identity(field, M.dim)))
    sols = solver.solve_many(rhs)
    sc = [[[(l, c) for l, c in enumerate(sols[i * dimE + j])
            if not c.is_zero()] for j in range(dimE)] for i in range(dimE)]
    return OrdAlgebra(field, dimE, sc, sols[-1], validate=False)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_image_built_systems_match_row_built_references(data):
    E = _drawn_algebra(data)
    field = E.field
    assert center(E) == _center_reference(E)
    x = data.draw(st.lists(st.integers(-2, 2), min_size=E.dim,
                           max_size=E.dim).map(
        lambda cs: [field.scalar(c) for c in cs]))
    blocks = E._rep_blocks_of_vec(x)
    assert [b.rows for b in blocks] == [len(cls) for cls in E._blocks]
    assert Matrix.from_entries(field, E.dim, E.dim, [
        (cls[r], cls[c], v) for cls, b in zip(E._blocks, blocks)
        for r, c, v in b.nonzero()]) == _left_mult_reference(E, x)
    assert _anticommutant(E, x) == _anticommutant_reference(E, x)
    M = regular_module(E)
    end_basis = module_hom_space(M, M)
    B = matrix_subalgebra(field, M.dim, end_basis)
    ref = _endo_algebra_reference(M, end_basis)
    assert (B.sc, B.unit) == (ref.sc, ref.unit)


def test_anticommutant_matches_reference_on_noncommutative_algebras():
    # pin the units of two quaternion algebras and of M_2, where an
    # anticommutant exists
    for E in (quaternions(), quaternions(2, 3), matrix_algebra(Q, 2)):
        for k in range(1, E.dim):
            i_el = E.basis_vec(k)
            ker = _anticommutant(E, i_el)
            assert ker == _anticommutant_reference(E, i_el)
            for j_el in ker:
                assert E.mult_vec(i_el, j_el) == \
                    [-c for c in E.mult_vec(j_el, i_el)]


# -- charpoly: the determinant, its top coefficients, block products --------

F4 = Field(2, [1, 1, 1], gen_name="w")           # w^2 = w + 1
CHARPOLY_FIELDS = [F2, F3, F4, Q, QPHI]
CHARPOLY_IDS = ["F2", "F3", "F4", "Q", "Qphi"]


def _points(field):
    """Every element of a finite field; several of Q and Q(phi)."""
    if field.char:
        return [field.scalar(list(cs))
                for cs in product(range(field.char), repeat=field.deg)]
    extra = [field.gen(), field.scalar(["1/2", -2])] if field.deg > 1 else []
    return [field.scalar(c) for c in (0, 1, -1, 3, "1/2", "-5/3")] + extra


def _drawn_scalars(data, field, count):
    # zero entries are frequent, so pivots are missing or need a swap
    entry = st.one_of(st.just([0]), st.lists(st.integers(-2, 2),
                                             min_size=field.deg,
                                             max_size=field.deg))
    cs = data.draw(st.lists(entry, min_size=count, max_size=count))
    return [field.scalar(c) for c in cs]


def _drawn_square(data, field, n):
    cs = _drawn_scalars(data, field, n * n)
    return Matrix(field, [cs[i * n:(i + 1) * n] for i in range(n)])


def _evaluate(coeffs, c):
    acc = c.field.zero()
    for a in reversed(coeffs):
        acc = acc * c + a
    return acc


@pytest.mark.parametrize("field", CHARPOLY_FIELDS, ids=CHARPOLY_IDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_charpoly_evaluates_to_the_determinant(field, data):
    n = data.draw(st.integers(1, 6))
    m = _drawn_square(data, field, n)
    cp = charpoly(m)
    assert len(cp) == n + 1 and cp[-1] == field.one()
    for c in _points(field):
        assert _evaluate(cp, c) == \
            (Matrix.identity(field, n).scale(c) - m).det()


@pytest.mark.parametrize("field", CHARPOLY_FIELDS, ids=CHARPOLY_IDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_truncated_charpoly_is_the_top_of_the_full_one(field, data):
    n = data.draw(st.integers(0, 7))
    m = _drawn_square(data, field, n)
    full = charpoly(m)
    for top in range(n + 2):
        assert charpoly(m, top) == full[max(0, n - top):]


@pytest.mark.parametrize("field", CHARPOLY_FIELDS, ids=CHARPOLY_IDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_charpoly_of_blocks_is_that_of_the_block_diagonal(field, data):
    sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    blocks = [_drawn_square(data, field, n) for n in sizes]
    entries, offset = [], 0
    for b in blocks:
        entries += [(offset + i, offset + j, x) for i, j, x in b.nonzero()]
        offset += b.rows
    diag = Matrix.from_entries(field, offset, offset, entries)
    for top in range(offset + 2):
        assert _charpoly_of_blocks(blocks, top) == charpoly(diag, top)


@pytest.mark.parametrize("field", [Q, F2, F4, QPHI],
                         ids=["Q", "F2", "F4", "Qphi"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_lin_comb_is_the_scalar_sum(field, data):
    m, n = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    vectors = [_drawn_scalars(data, field, n) for _ in range(m)]
    coords = _drawn_scalars(data, field, m)
    want = [sum((c * v[j] for c, v in zip(coords, vectors)), field.zero())
            for j in range(n)]
    assert _lin_comb(field, vectors, coords) == want


# -- the char-p radical against brute force and the full-Gram routine -------

def _brute_force_radical(E):
    """{x : a x is nilpotent for every a in E} over a prime field, by
    enumerating all p^dim elements as tuples of residues."""
    p, n = E.field.char, E.dim
    sc = [[[(l, c.c[0]) for l, c in pairs] for pairs in row] for row in E.sc]
    elems = list(product(range(p), repeat=n))

    def left(a):
        out = [[0] * n for _ in range(n)]
        for i, ai in enumerate(a):
            if ai:
                for j in range(n):
                    for l, c in sc[i][j]:
                        out[l][j] = (out[l][j] + ai * c) % p
        return out

    def apply(m, x):
        return tuple(sum(r * xj for r, xj in zip(row, x)) % p for row in m)

    lefts = [left(a) for a in elems]
    zero = (0,) * n
    nilpotent = set()
    for z, lz in zip(elems, lefts):
        w = z
        for _ in range(n):
            w = apply(lz, w)
        if w == zero:
            nilpotent.add(z)
    return {x for x in elems if all(apply(la, x) in nilpotent
                                    for la in lefts)}


def _span(p, n, vectors):
    """Every combination of `vectors` in F_p^n, as tuples of residues."""
    rows = [[c.c[0] for c in v] for v in vectors]
    return {tuple(sum(c * r[k] for c, r in zip(cs, rows)) % p
                  for k in range(n))
            for cs in product(range(p), repeat=len(rows))}


def _assert_radical_is_brute_force(E):
    J = _brute_force_radical(E)
    r = radical(E)
    assert len(J) == E.field.char ** len(r)
    assert _span(E.field.char, E.dim, r) == J


def upper_triangular(field, n):
    """T_n(k) in the basis e_ij, i <= j, ordered by (i, j): for n = 2,
    e11, e12, e22."""
    units = [(i, j) for i in range(n) for j in range(i, n)]
    index = {u: k for k, u in enumerate(units)}
    trips = [[index[(a, b)], index[(c, d)], index[(a, d)], 1]
             for a, b in units for c, d in units if b == c]
    return algebra_from_triples(field, len(units), trips,
                                [int(i == j) for i, j in units])


@pytest.mark.parametrize("make", [
    lambda: group_algebra(F2, 4), lambda: group_algebra(F3, 3),
    lambda: matrix_algebra(F2, 2), lambda: upper_triangular(F2, 2),
    lambda: upper_triangular(F3, 2), lambda: truncated_poly(F3, 4),
    lambda: direct_sum(group_algebra(F2, 2), upper_triangular(F2, 2))],
    ids=["F2[Z4]", "F3[Z3]", "M2(F2)", "T2(F2)", "T2(F3)", "F3[x]_mod_x4",
         "F2[Z2]+T2(F2)"])
def test_radical_is_the_brute_force_radical(make):
    _assert_radical_is_brute_force(make())


def _generated_algebra(field, gens):
    """The algebra of matrices spanned by the words in `gens`, and its
    natural representation: each basis element as its own matrix."""
    n = gens[0].rows
    space, basis = RowSpace(field, n * n), []
    todo = [Matrix.identity(field, n)]
    while todo:
        m = todo.pop()
        if space.add(flat(m)):
            basis.append(m)
            todo += [m @ g for g in gens]
    E = matrix_subalgebra(field, n, basis)
    return E, [[b] for b in basis]


@pytest.mark.parametrize("field,n,max_dim", [(F2, 3, 7), (F3, 2, 4)],
                         ids=["F2", "F3"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_radical_of_a_matrix_algebra_is_the_brute_force_radical(
        field, n, max_dim, data):
    gens = [_drawn_square(data, field, n)
            for _ in range(data.draw(st.integers(1, 2)))]
    regular, natural = _generated_algebra(field, gens)
    assume(regular.dim <= max_dim)
    _assert_radical_is_brute_force(regular)
    assert radical_chain_on(regular, natural) == radical(regular)


def _charpoly_reference(m):
    """The full characteristic polynomial on Scalars: the same Hessenberg
    reduction and recurrence, without truncation."""
    n, field = m.rows, m.field
    if n == 0:
        return [field.one()]
    h = [m.row(i) for i in range(n)]
    for c in range(n - 2):
        piv = None
        for i in range(c + 1, n):
            if not h[i][c].is_zero():
                piv = i
                break
        if piv is None:
            continue
        if piv != c + 1:
            h[c + 1], h[piv] = h[piv], h[c + 1]
            for r in range(n):
                h[r][c + 1], h[r][piv] = h[r][piv], h[r][c + 1]
        inv = h[c + 1][c].inv()
        for i in range(c + 2, n):
            f = h[i][c]
            if f.is_zero():
                continue
            f = f * inv
            for j in range(c, n):
                if not h[c + 1][j].is_zero():
                    h[i][j] = h[i][j] - f * h[c + 1][j]
            for r in range(n):
                if not h[r][i].is_zero():
                    h[r][c + 1] = h[r][c + 1] + f * h[r][i]
    z, one = field.zero(), field.one()
    ps = [[one]]
    for mi in range(1, n + 1):
        d = h[mi - 1][mi - 1]
        prev = ps[mi - 1]
        cur = [z] * (len(prev) + 1)
        for k, c in enumerate(prev):
            cur[k + 1] = cur[k + 1] + c
            cur[k] = cur[k] - d * c
        run = one
        for k in range(mi - 1, 0, -1):
            run = run * h[k][k - 1]
            coeff = h[k - 1][mi - 1] * run
            if coeff.is_zero():
                continue
            for t, c in enumerate(ps[k - 1]):
                cur[t] = cur[t] - coeff * c
        ps.append(cur)
    return ps[n]


def _radical_charp_reference(E):
    """Cohen-Ivanyos-Wales with the whole Gram matrix of every level and
    the full characteristic polynomial of every entry."""
    p, field = E.field.char, E.field
    current = _trace_form_kernel(E)
    level = 1
    while current and p ** level <= E.dim:
        rows = []
        for y in current:
            row = []
            for x in current:
                cp = Poly.one(field)
                for b in E._rep_blocks_of_vec(E.mult_vec(x, y)):
                    cp = cp * Poly(field, _charpoly_reference(b))
                row.append(_frob_inverse(cp.coeffs[E.dim - p ** level],
                                         level))
            rows.append(row)
        current = [_lin_comb(field, current, coords)
                   for coords in Matrix(field, rows).kernel_basis()]
        level += 1
    return current


def _z2_f2_regular_over_f4(cats):
    C = cats["z2_f2"]
    return base_extend_algebra(C, make_algebra(C, "regular_pointed"),
                               Embedding(C.field, F4))[1]


@pytest.mark.parametrize("make", [
    lambda cats: make_algebra(cats["z2_f2"], "regular_pointed"),
    lambda cats: make_algebra(cats["vec_f2"], "ordinary_group_algebra",
                              {"n": 2}),
    lambda cats: make_algebra(cats["vec_f2"], "ordinary_group_algebra",
                              {"n": 4}),
    lambda cats: make_algebra(cats["z3_f3"], "regular_pointed"),
    lambda cats: make_algebra(make_category("vec", {"field": F5}),
                              "ordinary_group_algebra", {"n": 5}),
    _z2_f2_regular_over_f4],
    ids=["z2_f2/regular", "vec_f2/group2", "vec_f2/group4",
         "z3_f3/regular", "vec_f5/group5", "z2_f2/regular_over_F4"])
def test_radical_matches_the_full_gram_reference(cats, make):
    E = bimodule_end_algebra(make(cats)).algebra
    ref = _radical_charp_reference(E)
    assert ref
    assert radical(E) == ref


def test_the_chain_ends_at_level_0_in_characteristic_0(cats, monkeypatch):
    # level 0, the kernel of the trace form, is the radical in
    # characteristic 0 (Dickson), so no g_l is read there; Q[x]/(x^2) has
    # a nonzero radical, so only that stop ends its chain
    calls = []

    def counted(blocks, top):
        assert blocks[0].field.char, "g_l read in characteristic 0"
        calls.append(top)
        return _charpoly_of_blocks(blocks, top)

    monkeypatch.setattr(ordalg, "_charpoly_of_blocks", counted)
    E = free_module_end(quadratic_algebra(cats["vec_q"], 0, 0)).algebra
    assert len(radical(E)) == 1
    assert calls == []
    for name, n in (("vec_f2", 2), ("vec_f3", 3)):
        E = free_module_end(make_algebra(
            cats[name], "ordinary_group_algebra", {"n": n})).algebra
        assert radical(E)
        assert calls, name
        calls.clear()


# -- the linear form of each level against the pairwise chain ---------------

CHARP_FIELDS = [F2, F3, F4, F5]
CHARP_IDS = ["F2", "F3", "F4", "F5"]


def _repeated_factor_quotient(field, g, e, h):
    """k[x]/(g^e h) for monic g and h given low to high."""
    f = Poly(field, h)
    for _ in range(e):
        f = f * Poly(field, g)
    return _quotient_algebra(field, f.coeffs)


def _charp_algebras(field):
    """Small algebras with a nonzero radical: k[x]/(g^e h), e >= 2;
    T_n; k[Z/n] with p | n."""
    p = field.char
    return st.one_of(
        st.builds(_repeated_factor_quotient, st.just(field),
                  _monic(field, 2), st.integers(2, 3), _monic(field, 1)),
        st.integers(2, 3).map(lambda n: upper_triangular(field, n)),
        st.integers(1, 8 // p).map(lambda m: group_algebra(field, p * m)))


def _in_vec(E):
    """E as an algebra in vec over its field, on the carrier dim * 1."""
    field, n = E.field, E.dim
    cat = make_category("vec", {"field": field})
    carrier = Obj(cat, {"1": n})
    sq = cat.tensor(carrier, carrier)
    idx = cat.fusion_index(carrier, carrier)["1"]
    mult = Matrix.from_entries(field, n, sq.mult("1"), [
        (l, idx[("1", i, "1", j, 0)], c)
        for i in range(n) for j in range(n) for l, c in E.sc[i][j]])
    unit = Matrix.from_cols(field, [E.unit])
    return AlgebraPres(cat, carrier, Mor(cat, sq, carrier, {"1": mult}),
                       Mor(cat, cat.unit_obj(), carrier, {"1": unit}))


def _drawn_charp_algebra(data, field):
    """A drawn algebra, or the bimodule End of one of dimension <= 4."""
    E = data.draw(_charp_algebras(field))
    if E.dim <= 4 and data.draw(st.booleans()):
        E = bimodule_end_algebra(_in_vec(E)).algebra
    return E


@pytest.mark.parametrize("field", CHARP_FIELDS, ids=CHARP_IDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_radical_is_the_pairwise_chains_radical(field, data):
    E = _drawn_charp_algebra(data, field)
    assert radical(E) == radical_charp_pairwise(E)


@pytest.mark.parametrize("field", CHARP_FIELDS, ids=CHARP_IDS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_g_l_is_p_to_the_l_semilinear_on_the_previous_level(field, data):
    # the lemma of Cohen, Ivanyos and Wales that `_radical_chain` rests
    # on, at every level the chain reaches: g_l(x + c y) =
    # g_l(x) + c^(p^l) g_l(y) for x, y in J_{l-1}
    E = _drawn_charp_algebra(data, field)
    chain = cohen_ivanyos_wales_chain(E)
    points = _points(field)
    for level, prev in enumerate(chain[:-1], start=1):
        x, y = (_lin_comb(field, prev, data.draw(st.lists(
            st.sampled_from(points), min_size=len(prev),
            max_size=len(prev)))) for _ in range(2))
        c = data.draw(st.sampled_from(points))
        xcy = [a + c * b for a, b in zip(x, y)]
        assert ciw_g(E, level, xcy) == ciw_g(E, level, x) + \
            c ** (field.char ** level) * ciw_g(E, level, y)


def test_radical_reads_one_charpoly_per_basis_vector_of_each_level(
        monkeypatch):
    # F_5[Z/5]: bimodule End of dim 25, radical of dim 24.  The pairwise
    # chain reads 650 characteristic polynomials; the linear form of
    # each level reads one per basis vector of J_{l-1}
    import tensorcat.ordalg as ordalg
    C = make_category("vec", {"field": F5})
    E = bimodule_end_algebra(
        make_algebra(C, "ordinary_group_algebra", {"n": 5})).algebra
    calls = []
    inner = ordalg.charpoly

    def counted(m, top=None):
        calls.append(top)
        return inner(m, top)
    monkeypatch.setattr(ordalg, "charpoly", counted)
    assert len(radical(E)) == 24
    monkeypatch.undo()
    chain = cohen_ivanyos_wales_chain(E)
    assert len(calls) <= sum(len(J) for J in chain[:-1]) == 50


# -- the commutative lemma and the quaternion test, against the ladders ------

def _no_candidates(E, basis_vectors):
    return iter(())


def _quotient_algebra(field, f):
    """k[x]/(f) in the basis 1, x, ..., x^(n-1), for f monic of degree n
    given by its coefficients, low to high."""
    n = len(f) - 1
    F = Poly(field, [field.scalar(c) for c in f])
    trips = []
    for i in range(n):
        for j in range(n):
            r = Poly(field, [field.zero()] * (i + j) + [field.one()]) % F
            trips += [[i, j, l, c] for l, c in enumerate(r.coeffs)
                      if not c.is_zero()]
    return algebra_from_triples(field, n, trips, [1] + [0] * (n - 1))


def _sum_of_quotients(field, fs):
    E = _quotient_algebra(field, fs[0])
    for f in fs[1:]:
        E = direct_sum(E, _quotient_algebra(field, f))
    return E


def _monic(field, max_degree):
    """Monic f of degree 1..max_degree, coefficients from `_points`."""
    return st.integers(1, max_degree).flatmap(lambda d: st.lists(
        st.sampled_from(_points(field)), min_size=d, max_size=d).map(
        lambda cs: cs + [field.one()]))


def _irreducible(field, f) -> bool:
    """Irreducibility of the monic f over `field`: by trial division by
    every monic polynomial of at most half its degree over a finite
    field, by sympy over Q and Q(phi)."""
    d = len(f) - 1
    if field.char:
        F = Poly(field, f)
        return not any(
            (F % Poly(field, list(g) + [field.one()])).is_zero()
            for k in range(1, d // 2 + 1)
            for g in product(_points(field), repeat=k))
    sympy = pytest.importorskip("sympy")
    x, root5 = sympy.symbols("x"), sympy.sqrt(5)
    phi = (1 + root5) / 2

    def to_sympy(c):
        q = [sympy.Rational(str(v)) for v in c.c]
        return q[0] + (q[1] * phi if len(q) > 1 else 0)
    expr = sum(to_sympy(c) * x ** k for k, c in enumerate(f))
    ext = {"extension": root5} if field.minpoly is not None else \
        {"domain": "QQ"}
    return sympy.Poly(expr, x, **ext).is_irreducible


@pytest.mark.parametrize("field", CHARPOLY_FIELDS, ids=CHARPOLY_IDS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_field_test_reads_the_basis(field, data):
    # k[x]/(f_1) (+) ... in a random basis is a field iff there is one
    # summand and f_1 is irreducible; the ladder agrees where it answers
    fs = data.draw(st.lists(_monic(field, 3), min_size=1, max_size=2))
    E = _in_random_basis(data, _sum_of_quotients(field, fs))
    verdict = is_division(E)
    assert verdict is (len(fs) == 1 and _irreducible(field, fs[0]))
    assert is_field_commutative_reference(E) is verdict
    ladder = is_field_ladder(E)
    assert ladder == UNDETERMINED or ladder is verdict


def _bench_end_algebras():
    """E = End(P) of the benchmark's ladder_q and charp inputs that the
    corpus lacks."""
    specs = [(("pointed", {"n": 3}), ("regular_pointed", {})),
             (("pointed", {"n": 4}), ("regular_pointed", {})),
             (("pointed", {"n": 5}), ("regular_pointed", {})),
             (("vec", {}), ("ordinary_group_algebra", {"n": 3})),
             (("vec", {}), ("ordinary_group_algebra", {"n": 4})),
             (("vec", {"field": 2}), ("ordinary_group_algebra", {"n": 4})),
             (("vec", {"field": 5}), ("ordinary_group_algebra", {"n": 5})),
             (("pointed", {"n": 4, "field": 3}), ("regular_pointed", {})),
             (("vec", {"field": 3}), ("internal_end", {"obj": {"1": 2}}))]
    for (cat_name, cat_params), (kind, params) in specs:
        cat = make_category(cat_name, cat_params)
        yield free_module_end(make_algebra(cat, kind, params)).algebra


def test_split_by_the_center_basis_matches_the_ladder(corpus, monkeypatch):
    from tensorcat import ordalg
    ends = [free_module_end(alg).algebra for _n, _c, alg in corpus]
    checked = 0
    for E in ends + list(_bench_end_algebras()):
        if radical(E):
            continue
        ladder = central_idempotents_ladder(E)
        # the ladder is taken first, so the order of the blocks is its own
        assert central_idempotents(E) == ladder
        with monkeypatch.context() as m:
            m.setattr(ordalg, "_candidate_elements", _no_candidates)
            split = central_idempotents(E)
        assert len(split) == len(ladder)
        assert set(map(tuple, split)) == set(map(tuple, ladder))
        checked += 1
    assert checked >= 24


def _primitive_idempotents_by_brute_force(E):
    """Every primitive idempotent of the center of E over a finite field:
    the nonzero idempotents e with no other nonzero idempotent f = fe."""
    zc = center(E)
    idem = []
    for cs in product(_points(E.field), repeat=len(zc)):
        e = _lin_comb(E.field, zc, list(cs))
        if E.mult_vec(e, e) == e and any(not c.is_zero() for c in e):
            idem.append(tuple(e))
    return {e for e in idem
            if not any(f != e and E.mult_vec(list(f), list(e)) == list(f)
                       for f in idem)}


@pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_split_finds_every_primitive_idempotent_of_the_center(field, data):
    # commutative summands k[x]/(f), f squarefree, and at most one M_2,
    # with dim Z <= 6, in a random basis
    fs = data.draw(st.lists(_monic(field, 3), min_size=1, max_size=3))
    E = _sum_of_quotients(field, fs)
    if E.dim <= 5 and data.draw(st.booleans()):
        E = direct_sum(E, matrix_algebra(field, 2))
    assume(not radical(E) and len(center(E)) <= 6)
    E = _in_random_basis(data, E)
    expected = _primitive_idempotents_by_brute_force(E)
    from tensorcat import ordalg
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ordalg, "_candidate_elements", _no_candidates)
        split = central_idempotents(E)
    assert len(split) == len(expected)
    assert set(map(tuple, split)) == expected
    assert set(map(tuple, central_idempotents(E))) == expected


@pytest.mark.parametrize("ladder", [True, False], ids=["ladder", "split"])
def test_split_refuses_a_non_squarefree_minimal_polynomial(monkeypatch,
                                                           ladder):
    # Q[x]/(x^2) passed off as semisimple: x has minimal polynomial t^2
    from tensorcat import ordalg
    monkeypatch.setattr(ordalg, "radical", lambda E: [])
    if not ladder:
        monkeypatch.setattr(ordalg, "_candidate_elements", _no_candidates)
    with pytest.raises(OrdAlgebraError, match="non-squarefree"):
        central_idempotents(truncated_poly(Q, 2))


def test_the_zero_algebra_has_no_central_idempotents():
    assert central_idempotents(OrdAlgebra(Q, 0, [], [])) == []


def _basis_min_polys(E):
    return [min_poly_of_element(E, E.basis_vec(i)) for i in range(E.dim)]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_quaternion_verdict_in_a_random_basis(data):
    # (a, b) or M_2(Q) = (1, 1): the first basis element need not be the
    # unit, so completing the square has work to do
    if data.draw(st.booleans()):
        nonzero = st.integers(-6, 6).filter(bool)
        a, b = data.draw(nonzero), data.draw(nonzero)
        E = quaternions(a, b)
    else:
        a = b = 1
        E = matrix_algebra(Q, 2)
    E = _in_random_basis(data, E)
    expected = not _quaternion_splits(Fraction(a), Fraction(b))
    assert is_division(E) is expected
    assert _is_division_quaternion(E, _basis_min_polys(E)) is expected
    assert quaternion_is_division_ladder(E) is expected


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_quaternions_over_qphi_stay_undetermined_in_a_random_basis(data):
    # a, b < 0 under both real embeddings of Q(phi): a division algebra,
    # so every basis element passes and the Hilbert symbols over Q do not
    # apply
    negative = st.sampled_from([-1, -2, -3, -5, -7])
    a, b = data.draw(negative), data.draw(negative)
    E = _in_random_basis(data, quaternions(a, b, QPHI))
    assert is_division(E) == UNDETERMINED
    assert quaternion_is_division_ladder(E) == UNDETERMINED


def test_quaternion_test_reads_a_nilpotent_i_or_j():
    # M_2(Q) in the basis (1, E12, E21, E11): the first non-scalar basis
    # element E12 gives i = E12, i^2 = 0
    unit_first = [[0, j, j, 1] for j in range(4)] + \
        [[i, 0, i, 1] for i in (1, 2, 3)]
    trips = unit_first + [[1, 2, 3, 1], [2, 1, 0, 1], [2, 1, 3, -1],
                          [2, 3, 2, 1], [3, 1, 1, 1], [3, 3, 3, 1]]
    E = algebra_from_triples(Q, 4, trips, [1, 0, 0, 0])
    assert _is_division_quaternion(E, _basis_min_polys(E)) is False
    # in the basis (1, H, E12, E21), H = E11 - E22: i = H, i^2 = 1, and
    # the anticommutant of H is spanned by E12 and E21, with j = E12
    half = Fraction(1, 2)
    trips = unit_first + [[1, 1, 0, 1], [1, 2, 2, 1], [2, 1, 2, -1],
                          [1, 3, 3, -1], [3, 1, 3, 1],
                          [2, 3, 0, half], [2, 3, 1, half],
                          [3, 2, 0, half], [3, 2, 1, -half]]
    E = algebra_from_triples(Q, 4, trips, [1, 0, 0, 0])
    assert _anticommutant(E, E.basis_vec(1))[0] == E.basis_vec(2)
    assert _is_division_quaternion(E, _basis_min_polys(E)) is False


def _biquadratic(field, p, q):
    """k[a, b]/(a^2 - p, b^2 - q) in the basis 1, a, b, ab."""
    trips = [[0, j, j, 1] for j in range(4)] + \
        [[i, 0, i, 1] for i in (1, 2, 3)]
    trips += [[1, 1, 0, p], [2, 2, 0, q], [3, 3, 0, p * q],
              [1, 2, 3, 1], [2, 1, 3, 1], [1, 3, 2, p], [3, 1, 2, p],
              [2, 3, 1, q], [3, 2, 1, q]]
    return algebra_from_triples(field, 4, trips, [1, 0, 0, 0])


def test_field_test_needs_no_primitive_basis_element():
    # Q(sqrt2, sqrt3) in the basis 1, a, b, ab: every basis element has
    # degree <= 2 < 4, all irreducible, so fact (1) answers where no
    # basis element generates; Q(sqrt2) (x) Q(sqrt2) = Q(sqrt2)^2 has
    # ab with minimal polynomial t^2 - 4
    for (p, q), field in (((2, 3), True), ((2, 2), False), ((-1, 3), True)):
        E = _biquadratic(Q, p, q)
        assert is_field_commutative_reference(E) is field, (p, q)
        assert is_division(E) is field, (p, q)
        assert is_field_ladder(E) is field, (p, q)


def test_division_is_undetermined_past_the_quaternion_route():
    # (-1, -1) (x) Q(sqrt2) as an algebra over Q, basis element 2 q + s
    # for q in 1, i, j, k and s in 1, sqrt2: a division algebra of
    # dimension 8 whose center Q(sqrt2) is not the ground field
    two = Q.scalar(2)
    trips = [[2 * i + s, 2 * j + t, 2 * l + (s ^ t), c * two if s & t else c]
             for i, j, l, c in _triples(quaternions())
             for s in (0, 1) for t in (0, 1)]
    E = algebra_from_triples(Q, 8, trips, [1] + [0] * 7)
    assert len(center(E)) == 2
    assert is_division(E) == UNDETERMINED


def test_a_commutative_block_that_splits_is_refused():
    with pytest.raises(OrdAlgebraError, match="not simple"):
        primitive_idempotent(group_algebra(Q, 2))


def test_primitive_idempotent_of_a_division_quaternion_algebra_is_the_unit():
    # no element of the ladder splits (-1, -1), and it is a division
    # algebra: the block is its own primitive idempotent
    B = quaternions(-1, -1)
    assert primitive_idempotent(B) == list(B.unit)


def test_limit_the_ladder_gives_up_on_the_split_quaternions_13_13():
    # (13, 13) is M_2(Q), yet no element of the ladder has a reducible
    # minimal polynomial, so the bounded search gives up.  This pins a
    # stated limit of the engine: a change that splits every
    # non-commutative block turns this test around
    assert _quaternion_splits(Fraction(13), Fraction(13))
    with pytest.raises(SeparatingElementNotFound):
        primitive_idempotent(quaternions(13, 13))


def test_the_division_verdict_reads_each_minimal_polynomial_once(monkeypatch):
    # (-1, -1): the scan reads the four basis elements and the quaternion
    # test one more, for j; the block is a division algebra, so
    # primitive_idempotent runs no ladder
    calls = []
    real = ordalg.min_poly_of_element

    def counted(E, x):
        calls.append(x)
        return real(E, x)

    monkeypatch.setattr(ordalg, "min_poly_of_element", counted)
    assert is_division(quaternions(-1, -1)) is True
    assert len(calls) == 5
    calls.clear()
    B = quaternions(-1, -1)
    assert primitive_idempotent(B) == list(B.unit)
    assert len(calls) == 5


def _outcome(fn, B):
    """fn(B), or the type of the exception it raises."""
    try:
        return fn(B)
    except OrdAlgebraError as exc:
        return type(exc)


def _drawn_block(data, kind):
    if kind in ("quotient_q", "quotient_f3"):
        field = Q if kind == "quotient_q" else F3
        return _quotient_algebra(field, data.draw(_monic(field, 3)))
    if kind == "quaternion":
        nonzero = st.integers(-6, 6).filter(bool)
        return quaternions(data.draw(nonzero), data.draw(nonzero))
    field, n = {"m2_q": (Q, 2), "m3_q": (Q, 3), "m2_f3": (F3, 2)}[kind]
    return matrix_algebra(field, n)


@pytest.mark.parametrize("kind", ["m2_q", "m3_q", "quaternion", "quotient_q",
                                  "quotient_f3", "m2_f3"])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_primitive_idempotent_matches_the_ladder_first_reference(kind, data):
    # simple blocks, and quotients k[x]/(f) that are not, in a random
    # basis: asking the division verdict first finds the idempotent the
    # ladder-first reference finds, or raises as it does
    B = _in_random_basis(data, _drawn_block(data, kind))
    expected = _outcome(primitive_idempotent_reference, B)
    assert _outcome(primitive_idempotent, B) == expected
    if B.is_commutative():
        assert is_division(B) is is_field_commutative_reference(B)


def test_a_repeated_factor_splits_by_its_full_power(monkeypatch):
    # M_3(Q) with J_2(1) (+) 0 first in its basis, the ladder's first
    # candidate: its minimal polynomial is (t - 1)^2 t, and the
    # idempotent is 1 modulo (t - 1)^2, E_11 + E_22, split further in
    # its corner M_2(Q)
    E = matrix_algebra(Q, 3)
    rows = [[1 if i == j else 0 for j in range(9)] for i in range(9)]
    rows[0] = [1, 1, 0, 0, 1, 0, 0, 0, 0]
    B = OrdAlgebra(Q, 9, *_rebased(E, Matrix(Q, [[Q.scalar(c) for c in r]
                                                  for r in rows])))
    parts = []
    real = ordalg._bezout_idempotent

    def spy(B_, e, x, mu, part):
        parts.append(part)
        return real(B_, e, x, mu, part)

    monkeypatch.setattr(ordalg, "_bezout_idempotent", spy)
    e = primitive_idempotent(B)
    t_minus_1 = Poly(Q, [Q.scalar(-1), Q.one()])
    assert parts[0] == t_minus_1 * t_minus_1
    assert B.mult_vec(e, e) == e
    assert corner(B, e)[0].dim == 1
    monkeypatch.undo()
    assert primitive_idempotent_reference(B) == e


def test_subalgebra_on_refuses_an_open_span_and_a_missing_unit():
    # M_2(Q) with E11, E12, E21, E22 at 0..3: E12 E21 = E11 leaves the
    # span of 1, E12 and E21; the span of E12 is closed (E12^2 = 0) but
    # does not hold the unit
    E = matrix_algebra(Q, 2)
    one, e12, e21 = list(E.unit), E.basis_vec(1), E.basis_vec(2)
    with pytest.raises(OrdAlgebraError, match="not closed under product"):
        subalgebra_on(Q, [one, e12, e21], E.mult_vec, E.unit)
    with pytest.raises(OrdAlgebraError, match="unit does not lie"):
        subalgebra_on(Q, [e12], E.mult_vec, E.unit)
    assert subalgebra_on(Q, [one, e12], E.mult_vec, E.unit).dim == 2


@pytest.mark.parametrize("a,b", [(0, 1), (3, 0), (0, 0)])
def test_degenerate_quaternion_parameters_are_refused(a, b):
    with pytest.raises(OrdAlgebraError, match="degenerate"):
        _quaternion_splits(Fraction(a), Fraction(b))
