"""Univariate polynomials over exact fields, with complete factorization.

Factorization routes:
  * finite fields (prime or extension): squarefree decomposition,
    distinct-degree splitting, Cantor-Zassenhaus equal-degree splitting
    with a fixed seed so runs are reproducible;
  * Q: clear denominators, factor modulo a good prime, Hensel lift,
    brute-force recombination (Zassenhaus).  Degrees above 12 are
    rejected with an explicit error;
  * number fields Q(a): Trager's norm method, reduced to the Q route;
    the norm of f(t - s*a) is the characteristic polynomial over Q of
    multiplication by t on Q(a)[t]/(f(t - s*a)).
"""

import random
from itertools import combinations
from math import isqrt

from .fields import Field, FieldMismatch, Scalar, is_prime
from .linalg import Matrix

_CZ_SEED = 0x5EED


class PolynomialError(Exception):
    pass


class DegreeTooLarge(PolynomialError):
    """Rational factorization is only supported up to degree 12."""


class Reducible(PolynomialError):
    """An irreducible polynomial was required."""


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
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.field)
        z = self.field.zero()
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if x.is_zero():
                continue
            for j, y in enumerate(other.coeffs):
                if y.is_zero():
                    continue
                out[i + j] = out[i + j] + x * y
        return Poly(self.field, out)

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn, dd = self.degree, other.degree
        if dn < dd:
            return Poly.zero(self.field), self
        z = self.field.zero()
        q = [z] * (dn - dd + 1)
        inv_lc = other.lc().inv()
        for i in range(dn - dd, -1, -1):
            c = rem[i + dd] * inv_lc
            if c.is_zero():
                continue
            q[i] = c
            for j, d in enumerate(other.coeffs):
                rem[i + j] = rem[i + j] - c * d
        return Poly(self.field, q), Poly(self.field, rem[:dd])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def mul_mod(self, other, modulus) -> "Poly":
        return (self * other) % modulus

    def pow_mod(self, n: int, modulus) -> "Poly":
        result = Poly.one(self.field)
        base = self % modulus
        while n:
            if n & 1:
                result = result.mul_mod(base, modulus)
            base = base.mul_mod(base, modulus)
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


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor; gcd(f, 0) = monic(f)."""
    if f.field != g.field:
        raise FieldMismatch("polynomials over different fields")
    while not g.is_zero():
        f, g = g, f % g
    return f.monic() if not f.is_zero() else f


def _random_poly(field: Field, max_deg: int, rng: random.Random) -> Poly:
    """Uniform element of the polynomials of degree <= max_deg."""
    def rc():
        if field.char == 0:
            return field.scalar(rng.randint(-9, 9))
        cs = [rng.randrange(field.char) for _ in range(field.deg)]
        return field.scalar(cs)
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
    """List of (squarefree monic factor, multiplicity), any exact field."""
    if f.is_zero():
        raise PolynomialError("zero polynomial")
    f = f.monic()
    if f.degree == 0:
        return []
    if f.field.char == 0:
        return _squarefree_char0(f)
    return _squarefree_charp(f)


def _squarefree_char0(f: Poly) -> list:
    # Yun's algorithm
    out = []
    df = f.derivative()
    a = gcd(f, df)
    b = f // a
    c = df // a
    i = 1
    while b.degree > 0:
        d = c - b.derivative()
        g = gcd(b, d)
        if g.degree > 0:
            out.append((g.monic(), i))
        b = b // g
        c = d // g
        i += 1
    return out


def _squarefree_charp(f: Poly) -> list:
    p = f.field.char
    out = []
    df = f.derivative()
    if df.is_zero():
        root = _pth_root_poly(f)
        return [(g, m * p) for g, m in squarefree_decomposition(root)]
    c = gcd(f, df)
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
        root = _pth_root_poly(c)
        for g, m in squarefree_decomposition(root):
            out.append((g, m * p))
    # merge duplicate factors (can arise from the p-th-root branch)
    merged = {}
    for g, m in out:
        merged[g] = merged.get(g, 0) + m if g in merged else m
    return sorted(merged.items(), key=lambda gm: gm[0].sort_key())


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
                w = (w + t) % f
                t = t.mul_mod(t, f)
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


def _zp_divmod(num, den, m):
    """Division of integer coefficient lists modulo m, den monic."""
    num = list(num)
    assert den[-1] % m == 1
    q = [0] * max(0, len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] % m
        if c:
            q[i] = c
            for j, d in enumerate(den):
                num[i + j] = (num[i + j] - c * d) % m
    r = [x % m for x in num[: len(den) - 1]]
    while r and r[-1] == 0:
        r.pop()
    while q and q[-1] == 0:
        q.pop()
    return q, r


def _zp_mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % m
    while out and out[-1] == 0:
        out.pop()
    return out


def _zp_add(a, b, m):
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % m
           for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _zp_sub(a, b, m):
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % m
           for i in range(n)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _hensel_pair(f, g, h, s, t, p, target):
    """Lift f = g*h from mod p to mod target, a power p^(2^k) of p; all
    monic except s,t.

    Quadratic lifting; maintains s*g + t*h = 1 at each precision.
    """
    m = p
    while m < target:
        m2 = m * m
        e = _zp_sub(f, _zp_mul(g, h, m2), m2)
        q, r = _zp_divmod(_zp_mul(s, e, m2), h, m2)
        g = _zp_add(g, _zp_add(_zp_mul(t, e, m2), _zp_mul(q, g, m2), m2), m2)
        h = _zp_add(h, r, m2)
        b = _zp_sub(_zp_add(_zp_mul(s, g, m2), _zp_mul(t, h, m2), m2), [1], m2)
        c, d = _zp_divmod(_zp_mul(s, b, m2), h, m2)
        s = _zp_sub(s, d, m2)
        t = _zp_sub(t, _zp_add(_zp_mul(t, b, m2), _zp_mul(c, g, m2), m2), m2)
        m = m2
    return g, h


def _lift_tree(f_ints, factors_mod_p, p, m, fp: Field):
    """Hensel-lift a list of coprime monic factors of monic f to mod m,
    a power p^(2^k) of p."""
    if len(factors_mod_p) == 1:
        return [[c % m for c in f_ints]]
    half = len(factors_mod_p) // 2
    gs, hs = factors_mod_p[:half], factors_mod_p[half:]
    gp = Poly.one(fp)
    for u in gs:
        gp = gp * u
    hp = Poly.one(fp)
    for u in hs:
        hp = hp * u
    # Bezout over F_p
    s, t = _poly_bezout(gp, hp)
    to_int = lambda poly: [c.c[0] for c in poly.coeffs]
    g_l, h_l = _hensel_pair(f_ints, to_int(gp), to_int(hp),
                            to_int(s), to_int(t), p, m)
    return _lift_tree(g_l, gs, p, m, fp) + _lift_tree(h_l, hs, p, m, fp)


def _poly_bezout(a: Poly, b: Poly):
    """s, t with s*a + t*b = 1 for coprime a, b over a field."""
    f = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(f), Poly.zero(f)
    t0, t1 = Poly.zero(f), Poly.one(f)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.degree != 0:
        raise PolynomialError("polynomials are not coprime")
    c = r0.coeffs[0].inv()
    return s0 * c, t0 * c


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
        m *= m
    lifted = _lift_tree([c % m for c in ints], modular, p, m, fp)
    # recombination
    remaining = list(range(len(lifted)))
    f_cur = list(ints)
    out = []
    size = 1
    while remaining and size <= len(remaining):
        found = False
        for subset in combinations(remaining, size):
            prod = [1]
            for i in subset:
                prod = _zp_mul(prod, lifted[i], m)
            cand = [_sym(c, m) for c in prod]
            q = _int_exact_div(f_cur, cand)
            if q is not None:
                out.append(Poly.from_ints(QQ, cand))
                f_cur = q
                remaining = [i for i in remaining if i not in subset]
                found = True
                break
        if not found:
            size += 1
    if len(f_cur) > 1:
        out.append(Poly.from_ints(QQ, f_cur))
    return sorted(out, key=lambda g: g.sort_key())


def _int_exact_div(num, den):
    """Exact division of integer polynomials, or None."""
    if len(den) > len(num):
        return None
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1] != 0:
            return None
        c //= den[-1]
        q[i] = c
        for j, d in enumerate(den):
            num[i + j] -= c * d
    if any(num[: len(den) - 1]):
        return None
    return q


def _factor_q_squarefree(f: Poly) -> list:
    """Factor a squarefree monic Q-polynomial into monic Q-irreducibles."""
    if f.degree > 12:
        raise DegreeTooLarge(
            f"rational factorization supports degree <= 12, got {f.degree}")
    ints = _int_content_primitive(f)
    lc = ints[-1]
    if lc != 1:
        # monicize: g(y) = lc^(n-1) f(y/lc)
        n = len(ints) - 1
        monic = [ints[i] * lc ** (n - 1 - i) for i in range(n)] + [1]
        gs = _factor_q_squarefree_monic_int(monic)
        out = []
        QQ = f.field
        lcq = QQ.scalar(lc)
        for g in gs:
            cs = [c * lcq ** i for i, c in enumerate(g.coeffs)]
            out.append(Poly(QQ, cs).monic())
        return sorted(out, key=lambda g: g.sort_key())
    return _factor_q_squarefree_monic_int(ints)


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


def is_separable_irreducible(f: Poly) -> bool:
    """gcd(f, f') = 1 for an irreducible f; raises Reducible otherwise."""
    if not is_irreducible(f):
        raise Reducible("separability test requires an irreducible polynomial")
    return gcd(f, f.derivative()).degree == 0
