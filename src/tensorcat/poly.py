"""Univariate polynomials over exact fields, with complete factorization.

`Poly`'s product, division and modular inverse run on `fields`'s
coefficient-list kernel, over the field's coefficient tuples.

Factorization first splits f into squarefree parts by one gcd loop that
serves every field; its p-th-root step runs only where a derivative
vanishes, which in characteristic 0 never happens.  The parts come out
sorted by `sort_key`, and each is factored by its field's route:
  * finite fields (prime or extension): distinct-degree splitting,
    Cantor-Zassenhaus equal-degree splitting with a fixed seed so runs
    are reproducible;
  * Q: clear denominators, factor modulo a good prime, lift all modular
    factors together one p-adic digit at a time (linear Hensel lifting)
    to the first power of p past twice the Mignotte bound, then
    brute-force recombination (Zassenhaus), on `fields`'s coefficient-list
    kernel over F_p and the integers.  Degrees above 12 are rejected with
    an explicit error;
  * number fields Q(a): Trager's norm method, reduced to the Q route;
    the norm of f(t - s*a) is the characteristic polynomial over Q of
    multiplication by t on Q(a)[t]/(f(t - s*a)).
"""

import random
from itertools import combinations
from math import isqrt
from operator import add, mul, sub

from .fields import (Field, FieldError, FieldMismatch, Scalar, _b_divmod,
                     _b_inv_mod, _b_mul, _b_trim, is_prime)
from .linalg import Matrix

_CZ_SEED = 0x5EED


class PolynomialError(Exception):
    pass


class DegreeTooLarge(PolynomialError):
    """Rational factorization is only supported up to degree 12."""


class Poly:
    """Dense univariate polynomial; empty coefficient tuple is zero."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @staticmethod
    def from_ints(field: Field, ints) -> "Poly":
        return Poly(field, [field.scalar(c) for c in ints])

    @staticmethod
    def zero(field: Field) -> "Poly":
        return Poly(field, [])

    @staticmethod
    def one(field: Field) -> "Poly":
        return Poly(field, [field.one()])

    @staticmethod
    def x(field: Field) -> "Poly":
        return Poly(field, [field.zero(), field.one()])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> Scalar:
        if self.is_zero():
            raise PolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv = self.lc().inv()
        return Poly(self.field, [c * inv for c in self.coeffs])

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch("polynomials over different fields")

    def __add__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        z = self.field.zero()
        a = list(self.coeffs) + [z] * (n - len(self.coeffs))
        b = list(other.coeffs) + [z] * (n - len(other.coeffs))
        return Poly(self.field, [x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return Poly(self.field, [c * other for c in self.coeffs])
        self._check(other)
        F = self.field
        return _wrap(F, _b_mul(_cs(self), _cs(other), F._add, F._mul,
                               F._zero_c))

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        F = self.field
        q, r = _b_divmod(_cs(self), _cs(other), F._sub, F._mul, F._inv,
                         F._zero_c, F._one.c)
        return _wrap(F, q), _wrap(F, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def inv_mod(self, modulus) -> "Poly":
        """The inverse of self modulo `modulus`, of degree below its;
        PolynomialError if the two are not coprime."""
        self._check(modulus)
        F = self.field
        try:
            s = _b_inv_mod(_cs(self), _cs(modulus), F._sub, F._mul, F._inv,
                           F._zero_c, F._one.c)
        except FieldError as exc:
            raise PolynomialError("polynomials are not coprime") from exc
        return _wrap(F, s)

    def pow_mod(self, n: int, modulus) -> "Poly":
        result = Poly.one(self.field)
        base = self % modulus
        while n:
            if n & 1:
                result = (result * base) % modulus
            base = (base * base) % modulus
            n >>= 1
        return result

    def derivative(self) -> "Poly":
        f = self.field
        return Poly(f, [f.scalar(i) * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x: Scalar) -> Scalar:
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        acc = Poly.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly(self.field, [c])
        return acc

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if i == 0:
                terms.append(f"({c!r})")
            elif i == 1:
                terms.append(f"({c!r})*t")
            else:
                terms.append(f"({c!r})*t^{i}")
        return " + ".join(terms)

    def sort_key(self):
        return (self.degree, [s.c for s in self.coeffs])


def _cs(f: Poly) -> list:
    """f's coefficient tuples, the lists `fields`'s kernel works on."""
    return [c.c for c in f.coeffs]


def _wrap(field: Field, cs) -> Poly:
    return Poly(field, [Scalar(field, c) for c in cs])


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor; gcd(f, 0) = monic(f)."""
    if f.field != g.field:
        raise FieldMismatch("polynomials over different fields")
    while not g.is_zero():
        f, g = g, f % g
    return f.monic() if not f.is_zero() else f


def _random_poly(field: Field, max_deg: int, rng: random.Random) -> Poly:
    """Uniform element of the polynomials of degree <= max_deg over a
    finite field."""
    def rc():
        return field.scalar([rng.randrange(field.char)
                             for _ in range(field.deg)])
    return Poly(field, [rc() for _ in range(max_deg + 1)])


# ---------------------------------------------------------------------------
# squarefree decomposition

def _frob_inverse(x: Scalar, i: int) -> Scalar:
    """p^i-th root in F_{p^d}, where Frobenius has order d."""
    f = x.field
    return x ** (f.char ** ((-i) % f.deg))


def _pth_root_poly(f: Poly) -> Poly:
    p = f.field.char
    cs = []
    for i in range(0, len(f.coeffs), p):
        cs.append(_frob_inverse(f.coeffs[i], 1))
    return Poly(f.field, cs)


def squarefree_decomposition(f: Poly) -> list:
    """List of (squarefree monic factor, multiplicity), sorted by
    `sort_key`, over any exact field.

    One gcd loop serves every characteristic: with c = gcd(f, f') and
    w = f / c, step i splits off z_i = w / gcd(w, c), the product of the
    irreducible factors of multiplicity i not divisible by p, and divides
    both w and c by gcd(w, c).  What is left of c is a p-th power; its
    p-th root is decomposed in turn, its multiplicities times p.  That
    step runs only where a derivative vanishes (f' = 0 gives c = f and
    w = 1), so never in characteristic 0, where c ends at 1."""
    if f.is_zero():
        raise PolynomialError("zero polynomial")
    f = f.monic()
    if f.degree == 0:
        return []
    out = []
    c = gcd(f, f.derivative())
    w = f // c
    i = 1
    while w.degree > 0:
        y = gcd(w, c)
        z = w // y
        if z.degree > 0:
            out.append((z.monic(), i))
        i += 1
        w = y
        c = c // y
    if c.degree > 0:
        p = f.field.char
        out += [(g, m * p)
                for g, m in squarefree_decomposition(_pth_root_poly(c))]
    return sorted(out, key=lambda gm: gm[0].sort_key())


# ---------------------------------------------------------------------------
# finite fields: distinct-degree + Cantor-Zassenhaus

def _factor_ff_squarefree(f: Poly) -> list:
    field = f.field
    q = field.char ** field.deg
    out = []
    h = Poly.x(field)
    x = Poly.x(field)
    v = f.monic()
    d = 0
    while v.degree > 0:
        d += 1
        if 2 * d > v.degree:
            out.append(v)
            break
        h = h.pow_mod(q, v)
        g = gcd(h - x, v)
        if g.degree > 0:
            out.extend(_equal_degree_split(g, d))
            v = v // g
            h = h % v
    return sorted((p.monic() for p in out), key=lambda p: p.sort_key())


def _equal_degree_split(f: Poly, d: int) -> list:
    field = f.field
    if f.degree == d:
        return [f]
    q = field.char ** field.deg
    rng = random.Random(_CZ_SEED + f.degree * 1000 + d)
    one = Poly.one(field)
    while True:
        u = _random_poly(field, f.degree - 1, rng)
        if u.degree < 1:
            continue
        if field.char == 2:
            # trace map over F_(2^m): sum of u^(2^i) for i < d*m
            w = Poly.zero(field)
            t = u % f
            for _ in range(d * field.deg):
                w = w + t
                t = (t * t) % f
            g = gcd(w, f)
        else:
            w = u.pow_mod((q ** d - 1) // 2, f)
            g = gcd(w - one, f)
        if 0 < g.degree < f.degree:
            return _equal_degree_split(g, d) + _equal_degree_split(f // g, d)


# ---------------------------------------------------------------------------
# rationals: Hensel lifting + Zassenhaus recombination

def _int_content_primitive(f: Poly):
    """Scale a Q-polynomial to a primitive integer coefficient list."""
    from math import gcd as igcd
    nums = [c.c[0] for c in f.coeffs]
    den = 1
    for x in nums:
        den = den * x.denominator // igcd(den, x.denominator)
    ints = [int(x * den) for x in nums]
    g = 0
    for x in ints:
        g = igcd(g, abs(x))
    if g:
        ints = [x // g for x in ints]
    return ints


def _hensel_lift(f, modular, p, m):
    """Lift the monic, pairwise coprime factors `modular` (Polys over F_p)
    of a monic integer coefficient list f to factors modulo m, a power of
    p, one p-adic digit at a time (Zassenhaus, J. Number Theory 1, 1969).

    With s_i = (f/u_i)^-1 mod u_i, sum_i s_i f/u_i = 1 mod p, so adding
    p^k (d s_i mod u_i) to each u_i, where d = (f - prod u_i)/p^k mod p,
    makes the product agree with f modulo p^(k+1)."""
    F = modular[0].field
    ops = (F._bsub, F._bmul, F._binv)
    base = [[c.c[0] for c in u.coeffs] for u in modular]
    f_p = [c % p for c in f]
    inverses = [_b_inv_mod(_b_divmod(f_p, u, *ops)[0], u, *ops) for u in base]
    lifted = [list(u) for u in base]
    pk = p
    while pk < m:
        prod = [1]
        for u in lifted:
            prod = _b_mul(prod, u, add, mul)
        d = _b_trim([(x - y) // pk % p for x, y in zip(f, prod)])
        for u, u0, s in zip(lifted, base, inverses):
            v = _b_divmod(_b_mul(d, s, F._badd, F._bmul), u0, *ops)[1]
            for j, x in enumerate(v):
                u[j] += pk * x
        pk *= p
    return lifted


def _sym(x, m):
    x %= m
    return x - m if 2 * x > m else x


def _factor_q_squarefree_monic_int(ints) -> list:
    """Factor a squarefree monic integer polynomial into monic Q-irreducibles."""
    QQ = Field.rationals()
    n = len(ints) - 1
    if n == 1:
        return [Poly.from_ints(QQ, ints)]
    # choose a prime keeping f squarefree mod p
    p = 2
    while True:
        if is_prime(p) and ints[-1] % p != 0:
            fp = Field.prime(p)
            f_p = Poly.from_ints(fp, ints)
            if f_p.degree == n and gcd(f_p, f_p.derivative()).degree == 0:
                break
        p += 1
    modular = _factor_ff_squarefree(f_p.monic())
    if len(modular) == 1:
        return [Poly.from_ints(QQ, ints)]
    # Mignotte-style bound on factor coefficients
    norm2 = 0
    for c in ints:
        norm2 += c * c
    bound = (1 << n) * (isqrt(norm2) + 1)
    m = p
    while m <= 2 * bound:
        m *= p
    lifted = _hensel_lift(ints, modular, p, m)
    # recombination: the candidates are monic, so a zero remainder over
    # the integers is the whole test; the subset of all remaining factors
    # always divides
    remaining = list(range(len(lifted)))
    f_cur = list(ints)
    out = []
    size = 1
    while remaining:
        for subset in combinations(remaining, size):
            prod = [1]
            for i in subset:
                prod = _b_mul(prod, lifted[i], add, mul)
            cand = [_sym(c, m) for c in prod]
            q, r = _b_divmod(f_cur, cand, sub, mul, None)
            if not r:
                out.append(Poly.from_ints(QQ, cand))
                f_cur = q
                remaining = [i for i in remaining if i not in subset]
                break
        else:
            size += 1
    return sorted(out, key=lambda g: g.sort_key())


def _factor_q_squarefree(f: Poly) -> list:
    """Factor a squarefree monic Q-polynomial into monic Q-irreducibles."""
    if f.degree > 12:
        raise DegreeTooLarge(
            f"rational factorization supports degree <= 12, got {f.degree}")
    ints = _int_content_primitive(f)
    lc, n = ints[-1], len(ints) - 1
    # monicize: g(y) = lc^(n-1) f(y/lc), the identity when lc = 1
    monic = [ints[i] * lc ** (n - 1 - i) for i in range(n)] + [1]
    QQ = f.field
    lcq = QQ.scalar(lc)
    out = [Poly(QQ, [c * lcq ** i for i, c in enumerate(g.coeffs)]).monic()
           for g in _factor_q_squarefree_monic_int(monic)]
    return sorted(out, key=lambda g: g.sort_key())


# ---------------------------------------------------------------------------
# number fields: Trager's norm method, the norm as a characteristic
# polynomial over Q

def _norm_poly(f: Poly, s: int) -> Poly:
    """N_{K/Q}(g) for g = f(t - s*gen), f monic over K = Q(gen) of degree d:
    the characteristic polynomial over Q of multiplication by t on
    K[t]/(g) (Cohen, A Course in Computational Algebraic Number Theory,
    1993).  Its matrix is g's companion matrix with each entry c replaced
    by the d x d matrix of multiplication by c on 1, gen, ..., gen^(d-1)."""
    from .ordalg import charpoly  # ordalg imports this module
    K = f.field
    QQ = Field.rationals()
    g = f.compose(Poly(K, [K.scalar([0, -s]), K.one()]))  # f(t - s*gen)
    n, d, gen = g.degree, K.deg, K.gen()
    # t * t^(r-1) = t^r on the subdiagonal of identity blocks
    entries = [(r * d + u, (r - 1) * d + u, QQ.one())
               for r in range(1, n) for u in range(d)]
    # t * t^(n-1) = -(g_0 + g_1 t + ... + g_(n-1) t^(n-1)) in the last column
    for r, c in enumerate(g.coeffs[:n]):
        x = -c
        for v in range(d):
            entries += [(r * d + u, (n - 1) * d + v, QQ.scalar(y))
                        for u, y in enumerate(x.c) if y]
            x = x * gen
    return Poly(QQ, charpoly(Matrix.from_entries(QQ, n * d, n * d, entries)))


def _factor_numberfield_squarefree(f: Poly) -> list:
    K = f.field
    for s in [1, -1, 2, -2, 3, -3, 4, -4, 5, -5]:
        norm = _norm_poly(f, s)
        if gcd(norm, norm.derivative()).degree == 0:
            factors_q = _factor_q_squarefree(norm)
            out = []
            sK = K.scalar(s)
            gen = K.gen()
            for h in factors_q:
                hK = Poly(K, [K.scalar(c.c[0]) for c in h.coeffs])
                # h(t + s*gen)
                shifted = hK.compose(Poly(K, [sK * gen, K.one()]))
                g = gcd(f, shifted)
                if g.degree > 0:
                    out.append(g.monic())
            total = sum(g.degree for g in out)
            if total == f.degree:
                return sorted(out, key=lambda g: g.sort_key())
    raise PolynomialError("no squarefree norm found; widen the shift ladder")


# ---------------------------------------------------------------------------
# entry point

def factor(f: Poly) -> list:
    """Complete factorization into monic irreducibles with multiplicities.

    The product of the factors (with multiplicity) reconstructs monic(f).
    """
    if f.is_zero():
        raise PolynomialError("cannot factor the zero polynomial")
    if f.degree == 0:
        return []
    out = []
    for g, mult in squarefree_decomposition(f):
        if g.field.char != 0:
            irreducibles = _factor_ff_squarefree(g)
        elif g.field.minpoly is None:
            irreducibles = _factor_q_squarefree(g)
        else:
            irreducibles = _factor_numberfield_squarefree(g)
        for h in irreducibles:
            out.append((h, mult))
    return sorted(out, key=lambda gm: gm[0].sort_key())


def is_irreducible(f: Poly) -> bool:
    if f.degree < 1:
        return False
    fac = factor(f)
    return len(fac) == 1 and fac[0][1] == 1
