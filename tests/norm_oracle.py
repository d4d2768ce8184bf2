"""The number-field norm by resultants, the reference for `poly._norm_poly`.

N_{K/Q}(g) for g(t) over K = Q(a) is the resultant in z of the minimal
polynomial m(z) of a and g(t, z), g's coefficients written as
polynomials in a.  `norm_by_resultants` evaluates that resultant as a
Sylvester determinant at d * deg g + 1 rational points t and
interpolates.  The package reads the same polynomial as the
characteristic polynomial of multiplication by t on K[t]/(g).
"""

from tensorcat.fields import Field
from tensorcat.linalg import Matrix
from tensorcat.poly import Poly


def sylvester_det(field, mz, gz):
    """Resultant_z(mz, gz) of fixed shape via the Sylvester determinant.

    mz, gz: coefficient lists (low to high) of scalars of `field`;
    the shape is taken from the list lengths even if leading entries vanish.
    """
    dm = len(mz) - 1
    dg = len(gz) - 1
    n = dm + dg
    z = field.zero()
    rows = []
    for i in range(dg):
        row = [z] * n
        for j, c in enumerate(reversed(mz)):
            row[i + j] = c
        rows.append(row)
    for i in range(dm):
        row = [z] * n
        for j, c in enumerate(reversed(gz)):
            row[i + j] = c
        rows.append(row)
    return Matrix(field, rows).det()


def lagrange(field, pts, vals) -> Poly:
    out = Poly.zero(field)
    for i, (xi, yi) in enumerate(zip(pts, vals)):
        if yi.is_zero():
            continue
        num = Poly.one(field)
        den = field.one()
        for j, xj in enumerate(pts):
            if j == i:
                continue
            num = num * Poly(field, [-xj, field.one()])
            den = den * (xi - xj)
        out = out + num * (yi / den)
    return out


def norm_by_resultants(f: Poly, s: int) -> Poly:
    """Norm to Q of f(t - s*gen) for f over a number field Q(gen)."""
    K = f.field
    QQ = Field.rationals()
    # substitute t -> t - s*gen, then view coefficients as polys in z (the gen)
    shift = Poly(K, [K.scalar([0, -s]), K.one()])  # t - s*gen
    g = f.compose(shift)
    dm = K.deg
    dz = dm - 1
    # evaluate the Sylvester determinant at interpolation points
    deg_bound = dm * max(g.degree, 0)
    pts = []
    vals = []
    r = 0
    mz = [QQ.scalar(c) for c in K.minpoly]
    while len(pts) <= deg_bound:
        x = QQ.scalar(r)
        gz = [QQ.zero()] * (dz + 1)
        for i, c in enumerate(g.coeffs):
            xi = x ** i
            for j in range(dm):
                gz[j] = gz[j] + QQ.scalar(c.c[j]) * xi
        vals.append(sylvester_det(QQ, mz, gz))
        pts.append(x)
        r = -r + (1 if r <= 0 else 0)  # 0, 1, -1, 2, -2, ...
    return lagrange(QQ, pts, vals)
