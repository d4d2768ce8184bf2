"""Yun's squarefree decomposition, the characteristic-0 reference for
`poly.squarefree_decomposition`.

The package runs one gcd loop in every characteristic, whose p-th-root
step never fires in characteristic 0.  Yun's algorithm (Yun, On
square-free decomposition algorithms, SYMSAC 1976) reaches the same
parts another way: with a = gcd(f, f'), b = f / a and c = f' / a, each
step takes g_i = gcd(b, c - b'), the product of the factors of
multiplicity i, and divides it out of b and of c - b'.  It lists the
parts by multiplicity; compare the two as sets.
"""

from tensorcat.poly import Poly, gcd


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
