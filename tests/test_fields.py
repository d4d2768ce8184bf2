import random
from fractions import Fraction
from itertools import product
from operator import mul, sub

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tensorcat.fields import (DivisionByZero, Embedding, Field, FieldError,
                              FieldMismatch, NotAnEmbedding, Scalar,
                              _b_divmod, _b_inv_mod, embed)

Q = Field.rationals()
F7 = Field.prime(7)


def test_inverse_in_f7():
    assert F7.scalar(3).inv() == F7.scalar(5)
    assert F7.scalar(3) * F7.scalar(5) == F7.one()


def test_rational_addition():
    assert Q.scalar("1/2") + Q.scalar("1/3") == Q.scalar("5/6")


def test_inverse_in_quadratic_extension():
    K = Field.extension(0, [-5, 0, 1])          # Q[a]/(a^2 - 5)
    a = K.gen()
    inv = a.inv()
    assert a * inv == K.one()
    assert inv == K.scalar([0, "1/5"])


def test_inv_zero_raises():
    with pytest.raises(DivisionByZero):
        Q.zero().inv()


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        Q.one() + F7.one()


def test_characteristic_must_be_prime():
    with pytest.raises(FieldError):
        Field(6)


def test_is_prime_matches_trial_division():
    from tensorcat.fields import is_prime

    def by_trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(-3, 5000) if is_prime(n)] == \
        [n for n in range(-3, 5000) if by_trial(n)]


def test_is_prime_on_strong_pseudoprimes_and_the_bound():
    from tensorcat.fields import _MR_BOUND, is_prime
    # strong pseudoprimes to the prime bases up to 7, 23 and 37
    for n, p in [(3215031751, 151), (3825123056546413051, 149491),
                 (318665857834031151167461, 399165290221)]:
        assert n % p == 0 and not is_prime(n)
    assert is_prime(2 ** 61 - 1) and is_prime(10 ** 18 + 3)
    # the largest prime below the bound
    assert is_prime(3317044064679887385961813)
    assert not any(is_prime(n) for n in range(3317044064679887385961815,
                                              _MR_BOUND, 2))
    with pytest.raises(FieldError, match="too large"):
        is_prime(_MR_BOUND)
    with pytest.raises(FieldError):
        Field(10 ** 25 + 13)


@pytest.mark.parametrize("field,text", [
    (Q, "1/0"), (Q, "-3/0"), (Field.prime(3), "1/3"), (Field.prime(3), "2/-6"),
    (Field(2, [1, 1, 1]), "1/2")], ids=["Q", "Q_negative", "F3", "F3_negative",
                                        "F4"])
def test_zero_denominator_is_a_field_error(field, text):
    with pytest.raises(FieldError, match="denominator of .* is zero"):
        field.scalar(text)
    with pytest.raises(FieldError, match="denominator of .* is zero"):
        field.scalar([text])


def test_reducible_minpoly_rejected():
    with pytest.raises(FieldError):
        Field.extension(0, [-1, 0, 1])          # t^2 - 1 splits


def _random_scalar(field, rng):
    if field.char == 0:
        num = rng.randint(-20, 20)
        den = rng.randint(1, 9)
        base = [f"{num}/{den}" for _ in range(field.deg)]
        return field.scalar([f"{rng.randint(-20, 20)}/{rng.randint(1, 9)}"
                             for _ in range(field.deg)])
    return field.scalar([rng.randrange(field.char)
                         for _ in range(field.deg)])


@pytest.mark.parametrize("field", [
    Q, F7, Field.prime(2),
    Field.extension(0, [-5, 0, 1]),
    Field.extension(2, [1, 1, 1]),              # F_4
    Field.extension(0, [-1, -1, 1], gen_name="phi"),
])
def test_field_axioms_random(field):
    rng = random.Random(7)
    for _ in range(40):
        a, b, c = (_random_scalar(field, rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if a:
            assert a * a.inv() == field.one()
        assert a + (-a) == field.zero()


def test_embed_f2_into_f4():
    F2 = Field.prime(2)
    F4 = Field.extension(2, [1, 1, 1])
    e = Embedding(F2, F4)
    assert e(F2.one()) == F4.one()


def test_embed_galois_conjugate():
    K = Field.extension(0, [-5, 0, 1])
    a = K.gen()
    e = Embedding(K, K, -a)                     # a -> -a
    assert e(a) == -a
    x = K.scalar([1, 2])
    assert e(x) == K.scalar([1, -2])


def test_embed_f4_into_f16():
    from tensorcat.poly import Poly, factor
    F4 = Field.extension(2, [1, 1, 1])
    F16 = Field.extension(2, [1, 1, 0, 0, 1])   # t^4 + t + 1
    f = Poly(F16, [F16.scalar(c) for c in F4.minpoly])
    roots = [(-g.coeffs[0]) for g, _ in factor(f) if g.degree == 1]
    assert roots, "minpoly of F4 must split in F16"
    e = Embedding(F4, F16, roots[0])
    rng = random.Random(3)
    for _ in range(20):
        x = _random_scalar(F4, rng)
        y = _random_scalar(F4, rng)
        assert e(x + y) == e(x) + e(y)
        assert e(x * y) == e(x) * e(y)


def test_embed_rejects_non_root():
    K = Field.extension(0, [-5, 0, 1])
    with pytest.raises(NotAnEmbedding):
        Embedding(K, K, K.one())
    with pytest.raises(NotAnEmbedding):
        embed(Q.one(), Q, F7)


def test_embed_preserves_ops_randomized():
    K = Field.extension(0, [-5, 0, 1])
    e = Embedding(K, K, K.gen())
    rng = random.Random(11)
    for _ in range(25):
        x, y = _random_scalar(K, rng), _random_scalar(K, rng)
        assert e(x * y) == e(x) * e(y)
        assert e(x + y) == e(x) + e(y)


def test_scalar_serialization_roundtrip():
    K = Field.extension(0, [-1, -1, 1])
    x = K.scalar(["3/2", "-7/5"])
    assert K.scalar(x.serialize()) == x
    F3 = Field.prime(3)
    y = F3.scalar(2)
    assert F3.scalar(y.serialize()) == y


# -- coefficient representation: int when integral, Fraction otherwise ----

QPHI = Field.extension(0, [-1, -1, 1], gen_name="phi")
F5 = Field.prime(5)


def _canonical(x):
    for c in x.c:
        assert type(c) in (int, Fraction), c
        if x.field.char == 0:
            assert (type(c) is int) == (Fraction(c).denominator == 1), c


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
coeff = st.one_of(st.integers(-60, 60), rationals,
                  rationals.map(lambda q: f"{q.numerator}/{q.denominator}"))


def scalars(field):
    return st.lists(coeff, min_size=field.deg, max_size=field.deg).map(
        field.scalar)


@pytest.mark.parametrize("field", [Q, QPHI], ids=["Q", "Qphi"])
@given(data=st.data())
def test_coefficients_are_int_exactly_when_integral(field, data):
    a, b = data.draw(scalars(field)), data.draw(scalars(field))
    n = data.draw(st.integers(-3, 3))
    results = [a, b, a + b, a - b, -a, a * b, a ** abs(n)]
    if b:
        results += [a / b, b.inv(), b ** n]
    for x in results:
        _canonical(x)
        # equal values have equal coefficients, hashes and serializations
        y = field.scalar([Fraction(c) for c in x.c])
        assert y == x and y.c == x.c
        assert hash(y) == hash(x) and y.serialize() == x.serialize()
        assert field.scalar(x.serialize()).c == x.c


@pytest.mark.parametrize("field", [Q, Field.prime(2), F7],
                         ids=["Q", "F2", "F7"])
@given(data=st.data())
def test_degree_one_arithmetic_is_the_base_arithmetic(field, data):
    # a degree-1 field adds, subtracts and multiplies its one coefficient
    # inline; the result is the base-coefficient helpers' to the type
    values = st.one_of(st.integers(-60, 60), rationals) if field.char == 0 \
        else st.integers(-60, 60)
    a, b = (field.scalar(data.draw(values)).c for _ in range(2))
    for fast, base in ((field._add, field._badd), (field._sub, field._bsub),
                       (field._mul, field._bmul)):
        out = fast(a, b)
        expected = base(a[0], b[0])
        assert out == (expected,) and type(out[0]) is type(expected)
        _canonical(Scalar(field, out))


@pytest.mark.parametrize("value", [2, Fraction(6, 3), "6/3", "2", [2]])
def test_integral_inputs_parse_to_int(value):
    x = Q.scalar(value)
    assert x.c == (2,) and type(x.c[0]) is int


def test_integral_and_fractional_forms_agree():
    half = Q.scalar("1/2")
    assert type(half.c[0]) is Fraction
    two = half + Q.scalar("3/2")
    assert two.c == (2,) and type(two.c[0]) is int
    assert hash(two) == hash(Q.scalar(2)) and repr(two) == "2"
    assert two.serialize() == ["2"] and half.serialize() == ["1/2"]
    assert type(Q.zero().c[0]) is int and type(Q.one().c[0]) is int
    assert all(type(c) is int for c in QPHI.minpoly)


def test_mismatched_fields_still_raise():
    for op in (lambda x, y: x + y, lambda x, y: x - y,
               lambda x, y: x * y, lambda x, y: x / y):
        with pytest.raises(FieldMismatch):
            op(Q.scalar(2), F5.scalar(2))
        with pytest.raises(FieldMismatch):
            op(F5.scalar(3), Q.scalar("1/3"))
    with pytest.raises(FieldMismatch):
        Q.scalar(F5.one())


def test_separately_built_fields_combine():
    Q2 = Field(0)
    assert Q2 is not Q and Q2 == Q
    x = Q.scalar("1/2") + Q2.scalar("1/2")
    assert x == Q.one() and x.c == (1,) and type(x.c[0]) is int
    assert Q2.scalar(3) * Q.scalar("1/3") == Q2.one()
    K2 = Field.extension(0, [-1, -1, 1], gen_name="phi")
    assert (K2.gen() * QPHI.gen()).c == (1, 1)


def test_rational_inputs_reduce_into_f_p():
    F3 = Field.prime(3)
    for value in (Fraction(1, 2), "1/2", Fraction(-5, 4), "-5/4"):
        x = F3.scalar(value)
        assert x * F3.scalar(Fraction(value).denominator) \
            == F3.scalar(Fraction(value).numerator)
        assert type(x.c[0]) is int and 0 <= x.c[0] < 3
    assert F5.scalar(Fraction(7, 1)).c == (2,)
    assert F5.scalar(True).c == (1,)


# -- the extended Euclid on coefficient lists shared with `poly` ------------

def _ops(field):
    return field._bsub, field._bmul, field._binv


def test_b_inv_mod_refuses_lists_that_are_not_coprime():
    F5 = Field.prime(5)
    # (t + 1)(t + 2) over F_5 against t + 1, 3t + 3 and 0
    for a in ([1, 1], [3, 3], []):
        with pytest.raises(FieldError):
            _b_inv_mod(a, [2, 3, 1], *_ops(F5))
    # t^2 - 1/4 over Q against t + 1/2, and against 2t^2 - 2 = 2(t^2 - 1)
    # modulo t^2 - 1
    with pytest.raises(FieldError):
        _b_inv_mod([Fraction(1, 2), 1], [Fraction(-1, 4), 0, 1], *_ops(Q))
    with pytest.raises(FieldError):
        _b_inv_mod([-2, 0, 2], [-1, 0, 1], *_ops(Q))


def test_b_inv_mod_reduces_a_of_any_degree():
    F5 = Field.prime(5)
    # t^3 + 2 = 1 modulo t + 1, the way the Hensel lift passes cofactors
    assert _b_inv_mod([2, 0, 0, 1], [1, 1], *_ops(F5)) == [1]
    # t (-t) = 1 modulo t^2 + 1 over Q
    assert _b_inv_mod([0, 1], [1, 0, 1], *_ops(Q)) == [0, -1]


def test_b_divmod_by_a_monic_list_never_inverts():
    # over the integers, as `poly`'s recombination divides; the quotient
    # of t^2 + t + 0 t^3 by t + 1 comes back trimmed
    assert _b_divmod([2, 3, 1], [1, 1], sub, mul, None) == ([2, 1], [])
    assert _b_divmod([0, 1, 1, 0], [1, 1], sub, mul, None) == ([0, 1], [])
    assert _b_divmod([3, 3, 1], [1, 1], sub, mul, None) == ([2, 1], [1])


@pytest.mark.parametrize("char,minpoly", [
    (2, [1, 1, 1]), (2, [1, 1, 0, 1]), (3, [1, 0, 1]), (5, [2, 0, 1]),
], ids=["F4", "F8", "F9", "F25"])
def test_every_nonzero_element_times_its_inverse_is_one(char, minpoly):
    K = Field.extension(char, minpoly)
    for cs in product(range(char), repeat=K.deg):
        x = K.scalar(list(cs))
        if x:
            assert x * x.inv() == K.one()
