"""References for `poly`: `Poly`'s product, division and Bezout pair on
`Scalar`s, Yun's squarefree decomposition and the quadratic Hensel
lifting tree.

The product, the division and the Bezout pair are the references for
`Poly.__mul__`, `Poly.__divmod__` and `Poly.inv_mod`, which run on
`fields`'s coefficient-list kernel.  They loop over `Scalar`s instead,
and the Bezout pair runs its extended Euclid on this product and
division, keeping both cofactors.

Yun's algorithm is the characteristic-0 reference for
`poly.squarefree_decomposition`.

The package runs one gcd loop in every characteristic, whose p-th-root
step never fires in characteristic 0.  Yun's algorithm (Yun, On
square-free decomposition algorithms, SYMSAC 1976) reaches the same
parts another way: with a = gcd(f, f'), b = f / a and c = f' / a, each
step takes g_i = gcd(b, c - b'), the product of the factors of
multiplicity i, and divides it out of b and of c - b'.  It lists the
parts by multiplicity; compare the two as sets.

The quadratic tree is the reference for `poly._hensel_lift`.  It splits
the modular factors into two halves, lifts that one factorization with
quadratic Hensel steps, keeping a Bezout pair s g + t h = 1 alongside, to
a modulus p^(2^k), and recurses into each half.  Hensel lifts of monic
pairwise coprime factors are unique, so both give the same lists when
lifted to the same modulus.
"""

from tensorcat.fields import Field
from tensorcat.poly import Poly, PolynomialError, gcd


def mul_reference(a: Poly, b: Poly) -> Poly:
    """a * b, a Scalar product at a time."""
    if a.is_zero() or b.is_zero():
        return Poly.zero(a.field)
    z = a.field.zero()
    out = [z] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x.is_zero():
            continue
        for j, y in enumerate(b.coeffs):
            if y.is_zero():
                continue
            out[i + j] = out[i + j] + x * y
    return Poly(a.field, out)


def divmod_reference(a: Poly, b: Poly):
    """divmod(a, b) for b nonzero, a Scalar product at a time."""
    rem = list(a.coeffs)
    dn, dd = a.degree, b.degree
    if dn < dd:
        return Poly.zero(a.field), a
    z = a.field.zero()
    q = [z] * (dn - dd + 1)
    inv_lc = b.lc().inv()
    for i in range(dn - dd, -1, -1):
        c = rem[i + dd] * inv_lc
        if c.is_zero():
            continue
        q[i] = c
        for j, d in enumerate(b.coeffs):
            rem[i + j] = rem[i + j] - c * d
    return Poly(a.field, q), Poly(a.field, rem[:dd])


def bezout_reference(a: Poly, b: Poly):
    """s, t with s*a + t*b = 1 for coprime a, b over a field."""
    f = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(f), Poly.zero(f)
    t0, t1 = Poly.zero(f), Poly.one(f)
    while not r1.is_zero():
        q, r = divmod_reference(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - mul_reference(q, s1)
        t0, t1 = t1, t0 - mul_reference(q, t1)
    if r0.degree != 0:
        raise PolynomialError("polynomials are not coprime")
    c = r0.coeffs[0].inv()
    return s0 * c, t0 * c


def yun_squarefree_reference(f: Poly) -> list:
    """(squarefree monic factor, multiplicity) pairs of a monic f of
    positive degree over a field of characteristic 0, in order of
    multiplicity."""
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


def quadratic_hensel_reference(f_ints, factors_mod_p, p, m, fp: Field):
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
    s, t = bezout_reference(gp, hp)
    to_int = lambda poly: [c.c[0] for c in poly.coeffs]
    g_l, h_l = _hensel_pair(f_ints, to_int(gp), to_int(hp),
                            to_int(s), to_int(t), p, m)
    return (quadratic_hensel_reference(g_l, gs, p, m, fp)
            + quadratic_hensel_reference(h_l, hs, p, m, fp))
