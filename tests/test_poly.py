import random
from fractions import Fraction
from itertools import product
from math import isqrt
from operator import add, mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from norm_oracle import norm_by_resultants
from poly_oracle import (bezout_reference, divmod_reference, mul_reference,
                         quadratic_hensel_reference, yun_squarefree_reference)
from tensorcat.fields import Field, FieldError, _b_mul, is_prime
from tensorcat.poly import (DegreeTooLarge, Poly, PolynomialError,
                            _factor_ff_squarefree, _hensel_lift, _norm_poly,
                            factor, gcd, is_irreducible,
                            squarefree_decomposition)

Q = Field.rationals()
F2 = Field.prime(2)
F3 = Field.prime(3)


def P(field, *ints):
    return Poly.from_ints(field, list(ints))


def test_gcd_examples():
    assert gcd(P(Q, -1, 0, 1), P(Q, -1, 1)) == P(Q, -1, 1)
    # derivative of t^2 vanishes over F_2
    f = P(F2, 0, 0, 1)
    assert f.derivative().is_zero()
    assert gcd(f, f.derivative()) == f.monic()
    assert gcd(P(Q, -5, 0, 1), P(Q, -1, 1, 1)) == Poly.one(Q)


def test_gcd_with_zero():
    f = P(Q, 2, 4)
    assert gcd(f, Poly.zero(Q)) == f.monic()


def test_factor_rational_quadratic():
    fac = factor(P(Q, -1, 0, 1))
    assert fac == [(P(Q, -1, 1), 1), (P(Q, 1, 1), 1)]


def test_factor_rational_with_huge_coefficients():
    # a coefficient norm beyond the range of a float: the Mignotte bound
    # stays in integers
    big = 10 ** 400
    assert factor(P(Q, big, 1, 1)) == [(P(Q, big, 1, 1), 1)]
    assert factor(P(Q, big, big + 1, 1)) == [(P(Q, 1, 1), 1),
                                             (P(Q, big, 1), 1)]


def test_factor_f2_frobenius_square():
    fac = factor(P(F2, 1, 0, 1))
    assert fac == [(P(F2, 1, 1), 2)]


def test_factor_over_number_field():
    K = Field.extension(0, [-5, 0, 1])
    a = K.gen()
    f = Poly(K, [K.scalar(-5), K.zero(), K.one()])
    fac = factor(f)
    assert len(fac) == 2
    prod = Poly.one(K)
    for g, m in fac:
        assert g.degree == 1
        for _ in range(m):
            prod = prod * g
    assert prod == f.monic()
    roots = sorted([repr(-g.coeffs[0]) for g, _ in fac])
    assert roots == sorted([repr(a), repr(-a)])


@pytest.mark.parametrize("field,ints", [
    (Q, [6, 5, 1]),
    (Q, [-2, 0, 1]),
    (Q, [1, 2, 3, 4, 5]),
    (Q, [0, 0, 1, 1]),
    (F2, [1, 1, 0, 0, 1, 1]),
    (F3, [2, 1, 0, 1]),
    (F3, [0, 1, 0, 0, 2, 1]),
])
def test_factor_product_reconstructs_monic(field, ints):
    f = Poly.from_ints(field, ints)
    fac = factor(f)
    prod = Poly.one(field)
    for g, m in fac:
        assert g.lc() == field.one()
        assert is_irreducible(g)
        for _ in range(m):
            prod = prod * g
    assert prod == f.monic()


def test_factor_corpus_random():
    rng = random.Random(5)
    for field in (Q, F2, F3, Field.extension(2, [1, 1, 1])):
        for _ in range(8):
            deg = rng.randint(1, 5)
            if field.char == 0:
                ints = [rng.randint(-4, 4) for _ in range(deg)] + [1]
                f = Poly.from_ints(field, ints)
            else:
                coeffs = [field.scalar([rng.randrange(field.char)
                                        for _ in range(field.deg)])
                          for _ in range(deg)] + [field.one()]
                f = Poly(field, coeffs)
            if f.degree < 1:
                continue
            prod = Poly.one(field)
            for g, m in factor(f):
                for _ in range(m):
                    prod = prod * g
            assert prod == f.monic()


def test_cz_seed_determinism():
    f = Poly.from_ints(F3, [1, 0, 1, 0, 1, 1, 2, 1])
    assert factor(f) == factor(f)


def test_degree_cap_for_rationals():
    f = Poly.from_ints(Q, [1] * 14)
    with pytest.raises(DegreeTooLarge):
        factor(f)


# -- rationals: the linear Hensel lift, and factoring against sympy --------

def _first_good_prime(ints):
    """The prime rational factoring picks for a monic squarefree integer
    polynomial: the first modulo which it stays squarefree."""
    p = 2
    while True:
        if is_prime(p):
            f_p = Poly.from_ints(Field.prime(p), ints)
            if gcd(f_p, f_p.derivative()).degree == 0:
                return p, f_p
        p += 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_linear_hensel_lift_is_the_quadratic_trees_lift(data):
    # f is a product of 2-4 distinct random monic integer polynomials, of
    # degree <= 12, lifted modulo its first good prime to the modulus
    # p^(2^k) > 2 * bound that the tree reaches
    degrees = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)
                        .filter(lambda ds: sum(ds) <= 12))
    factors = [Poly.from_ints(Q, data.draw(st.lists(
        st.integers(-9, 9), min_size=d, max_size=d)) + [1]) for d in degrees]
    assume(len(set(factors)) == len(factors))
    f = Poly.one(Q)
    for g in factors:
        f = f * g
    assume(gcd(f, f.derivative()) == Poly.one(Q))
    ints = [c.c[0] for c in f.coeffs]
    p, f_p = _first_good_prime(ints)
    modular = _factor_ff_squarefree(f_p)
    bound = (1 << f.degree) * (isqrt(sum(c * c for c in ints)) + 1)
    m = p
    while m <= 2 * bound:
        m *= m
    lifted = _hensel_lift(ints, modular, p, m)
    assert lifted == quadratic_hensel_reference(
        [c % m for c in ints], modular, p, m, f_p.field)
    prod = [1]
    for u, u0 in zip(lifted, modular):
        assert [c % p for c in u] == [c.c[0] for c in u0.coeffs]
        prod = _b_mul(prod, u, add, mul)
    assert [c % m for c in prod] == [c % m for c in ints]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_rational_factor_matches_sympy(data):
    sympy = pytest.importorskip("sympy")
    # f = c g_1^e_1 ... g_k^e_k of degree <= 12: c rational, g_i integer
    # with any nonzero leading coefficient, coefficients up to 10^6
    coeff = st.integers(-10 ** 6, 10 ** 6)
    c = Fraction(data.draw(coeff.filter(bool)),
                 data.draw(st.integers(1, 10 ** 6)))
    f = Poly(Q, [Q.scalar(c)])
    for _ in range(data.draw(st.integers(1, 4))):
        d, e = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        if f.degree + d * e > 12:
            break
        g = Poly.from_ints(Q, data.draw(st.lists(coeff, min_size=d,
                                                 max_size=d))
                           + [data.draw(coeff.filter(bool))])
        for _ in range(e):
            f = f * g
    assume(f.degree > 0)
    t = sympy.Symbol("t")
    sp = sympy.Poly([sympy.Rational(str(x.c[0])) for x in reversed(f.coeffs)],
                    t, domain="QQ")
    theirs = sorted((tuple(Fraction(str(x)) for x in
                           reversed(h.monic().all_coeffs())), e)
                    for h, e in sympy.factor_list(sp)[1])
    ours = sorted((tuple(Fraction(x.c[0]) for x in g.coeffs), e)
                  for g, e in factor(f))
    assert ours == theirs


_FF_FIELDS = {"F_2": F2, "F_3": F3, "F_5": Field.prime(5)}
_IRREDUCIBLES = {}


def _irreducibles(K, d) -> list:
    """Every monic irreducible polynomial of degree d over the prime field
    K, in the order of their coefficient tuples."""
    if (K, d) not in _IRREDUCIBLES:
        monics = (Poly(K, [K.scalar(c) for c in cs] + [K.one()])
                  for cs in product(range(K.char), repeat=d))
        _IRREDUCIBLES[(K, d)] = [g for g in monics if is_irreducible(g)]
    return _IRREDUCIBLES[(K, d)]


@pytest.mark.parametrize("name", sorted(_FF_FIELDS))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_finite_field_factor_matches_sympy(name, data):
    # a product of distinct monic irreducibles of one degree d is a single
    # part of the distinct-degree factorization, so the equal-degree split
    # must separate them: over F_2 through the trace map
    sympy = pytest.importorskip("sympy")
    K = _FF_FIELDS[name]
    d = data.draw(st.sampled_from([
        d for d in range(1, 5)
        if K.char ** d <= 125 and len(_irreducibles(K, d)) >= 2]))
    irr = _irreducibles(K, d)
    picks = data.draw(st.lists(st.sampled_from(range(len(irr))), unique=True,
                               min_size=2, max_size=min(3, len(irr))))
    f = Poly(K, [K.scalar(data.draw(st.integers(1, K.char - 1)))])
    for i in picks:
        for _ in range(data.draw(st.integers(1, 2))):
            f = f * irr[i]
    galoistools = pytest.importorskip("sympy.polys.galoistools")
    _lc, fac = galoistools.gf_factor([c.c[0] for c in reversed(f.coeffs)],
                                     K.char, sympy.ZZ)
    theirs = sorted((tuple(int(x) for x in reversed(h)), e) for h, e in fac)
    ours = sorted((tuple(x.c[0] for x in g.coeffs), e) for g, e in factor(f))
    assert ours == theirs


def test_squarefree_decomposition():
    f = P(Q, -1, 1) * P(Q, -1, 1) * P(Q, 1, 1)
    parts = dict((g, m) for g, m in squarefree_decomposition(f))
    assert parts[P(Q, -1, 1)] == 2
    assert parts[P(Q, 1, 1)] == 1


SQUAREFREE_FIELDS = {
    "Q": Q,
    "Q(phi)": Field.extension(0, [-1, -1, 1]),
    "Q(sqrt2)": Field.extension(0, [-2, 0, 1]),
    "F_2": F2,
    "F_3": F3,
    "F_4": Field.extension(2, [1, 1, 1]),
}


def _sympy_squarefree(sympy, f):
    """sympy's squarefree parts of f over Q or a prime field, as monic
    Polys with their multiplicities."""
    K = f.field
    domain = {"modulus": K.char} if K.char else {"domain": "QQ"}
    sp = sympy.Poly([sympy.Rational(str(c.c[0])) for c in reversed(f.coeffs)],
                    sympy.Symbol("t"), **domain)
    return {(Poly(K, [K.scalar(str(x))
                      for x in reversed(g.all_coeffs())]).monic(), e)
            for g, e in sp.sqf_list()[1]}


@pytest.mark.parametrize("name", sorted(SQUAREFREE_FIELDS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_squarefree_decomposition_matches_yun_and_sympy(name, data):
    # f = c g_1^e_1 ... g_k^e_k with k <= 3, e <= 4 and monic g of degree
    # <= 2; over F_2, F_3 and F_4 an exponent divisible by p reaches the
    # p-th-root step
    K = SQUAREFREE_FIELDS[name]
    coeff = st.lists(st.integers(-2, 2), min_size=K.deg,
                     max_size=K.deg).map(K.scalar)
    f = Poly(K, [data.draw(coeff.filter(lambda c: not c.is_zero()))])
    for _ in range(data.draw(st.integers(1, 3))):
        g = Poly(K, data.draw(st.lists(coeff, min_size=1, max_size=2))
                 + [K.one()])
        for _ in range(data.draw(st.integers(1, 4))):
            f = f * g
    parts = squarefree_decomposition(f)
    assert parts == sorted(parts, key=lambda gm: gm[0].sort_key())
    rebuilt = Poly.one(K)
    for g, m in parts:
        assert g == g.monic() and gcd(g, g.derivative()) == Poly.one(K)
        for _ in range(m):
            rebuilt = rebuilt * g
    assert rebuilt == f.monic()
    if K.char == 0:
        assert set(parts) == set(yun_squarefree_reference(f.monic()))
    if K.minpoly is None:
        sympy = pytest.importorskip("sympy")
        assert set(parts) == _sympy_squarefree(sympy, f)


KERNEL_FIELDS = {
    "Q": Q,
    "F_2": F2,
    "F_5": Field.prime(5),
    "F_4": Field.extension(2, [1, 1, 1]),
    "F_9": Field.extension(3, [1, 0, 1]),
    "Q(phi)": Field.extension(0, [-1, -1, 1]),
    "Q(sqrt2)": Field.extension(0, [-2, 0, 1]),
}


def _polys(K, max_degree, min_degree=-1):
    base = st.integers(-3, 3)
    if K.char == 0:
        base = st.builds(Fraction, base, st.integers(1, 3))
    coeff = st.lists(base, min_size=K.deg, max_size=K.deg).map(K.scalar)
    return st.lists(coeff, max_size=max_degree + 1).map(
        lambda cs: Poly(K, cs)).filter(lambda f: f.degree >= min_degree)


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_poly_arithmetic_matches_the_scalar_references(name, data):
    # the product, division and modular inverse run on `fields`'s
    # coefficient-list kernel; the references loop over Scalars
    K = KERNEL_FIELDS[name]
    a = data.draw(_polys(K, 6))
    b = data.draw(_polys(K, 4, min_degree=0))
    assert a * b == mul_reference(a, b)
    assert divmod(a, b) == divmod_reference(a, b)
    if b.degree >= 1 and gcd(a, b) == Poly.one(K):
        inv = a.inv_mod(b)
        s, _t = bezout_reference(a, b)
        assert inv == divmod_reference(s, b)[1]
        assert inv.degree < b.degree
        assert a * inv % b == Poly.one(K)


@pytest.mark.parametrize("name", ["F_5", "Q(phi)"])
def test_inv_mod_refuses_polynomials_that_are_not_coprime(name):
    K = KERNEL_FIELDS[name]
    root = K.gen() if K.minpoly else K.scalar(2)
    g = Poly(K, [-root, K.one()])
    for a, b in ((g * P(K, 1, 1), g * P(K, 3, 0, 1)), (g * g, g),
                 (Poly.zero(K), g), (P(K, 1, 1), Poly.zero(K))):
        with pytest.raises(PolynomialError) as info:
            a.inv_mod(b)
        # the CLI reads a FieldError as input at fault
        assert not isinstance(info.value, FieldError)


@pytest.mark.parametrize("name", ["F_5", "Q(phi)"])
def test_inv_mod_reduces_a_of_any_degree(name):
    K = KERNEL_FIELDS[name]
    # t^3 + 2 = 1 modulo t + 1
    assert P(K, 2, 0, 0, 1).inv_mod(P(K, 1, 1)) == Poly.one(K)
    # t^3 = -t modulo t^2 + 1, whose inverse is t
    assert P(K, 0, 0, 0, 1).inv_mod(P(K, 1, 0, 1)) == P(K, 0, 1)


def test_eval_and_compose():
    f = P(Q, 1, 2, 1)
    assert f.eval(Q.scalar(2)) == Q.scalar(9)
    g = f.compose(P(Q, 1, 1))
    assert g.eval(Q.scalar(1)) == f.eval(Q.scalar(2))


# -- number fields: Q(phi), Q(i), Q(cbrt 2) ---------------------------------

# minimal polynomial of the generator, and the generator in sympy
NUMBER_FIELDS = {
    "phi": ([-1, -1, 1], lambda sympy: (1 + sympy.sqrt(5)) / 2),
    "i": ([1, 0, 1], lambda sympy: sympy.I),
    "cbrt2": ([-2, 0, 0, 1], lambda sympy: sympy.cbrt(2)),
}


def _monic(draw, K, degree):
    coeff = st.lists(st.integers(-2, 2), min_size=K.deg,
                     max_size=K.deg).map(K.scalar)
    return Poly(K, draw(st.lists(coeff, min_size=degree, max_size=degree))
                + [K.one()])


@st.composite
def monic_factors(draw, K):
    """One to three random monic factors of degree <= 3, with
    K.deg * (total degree) <= 12, below the rational degree cap."""
    cap = 12 // K.deg
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 3))
        if sum(g.degree for g in factors) + n > cap:
            break
        factors.append(_monic(draw, K, n))
    return factors


@pytest.mark.parametrize("name", sorted(NUMBER_FIELDS))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_norm_is_the_resultant_norm(name, data):
    K = Field.extension(0, NUMBER_FIELDS[name][0])
    f = _monic(data.draw, K, data.draw(st.integers(1, 12 // K.deg)))
    s = data.draw(st.sampled_from([1, -1, 2, -2, 3, -3]))
    norm = _norm_poly(f, s)
    assert norm == norm_by_resultants(f, s)
    assert norm.degree == K.deg * f.degree


@pytest.mark.parametrize("name", sorted(NUMBER_FIELDS))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_number_field_factor_matches_sympy(name, data):
    sympy = pytest.importorskip("sympy")
    minpoly, generator = NUMBER_FIELDS[name]
    K = Field.extension(0, minpoly)
    alpha = generator(sympy)
    # a sympy Poly over QQ<alpha> factors as `extension=alpha` would
    domain = sympy.QQ.algebraic_field(alpha)
    a = domain.from_sympy(alpha)
    t = sympy.Symbol("t")

    def to_sympy(g):
        coeffs = [sum((domain.convert(sympy.Rational(x)) * a ** j
                       for j, x in enumerate(c.c)), domain.zero)
                  for c in reversed(g.coeffs)]
        return sympy.Poly.from_list(coeffs, t, domain=domain)

    f = Poly.one(K)
    for g in data.draw(monic_factors(K)):
        f = f * g
    ours = sorted((repr(to_sympy(g).rep), m) for g, m in factor(f))
    _, theirs = sympy.factor_list(to_sympy(f))
    assert ours == sorted((repr(h.monic().rep), m) for h, m in theirs)
