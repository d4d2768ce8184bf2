"""The composed pentagon and the label-scan path enumerations.

`fincat._validate_pentagon` reads each quadruple's pentagon from F
entries, summing over nonzero fusion channels.
`composed_pentagon_reference` is the check it replaced: for the simples
a, b, c, d it composes the five associators of the pentagon as `Mor`s
and compares the two composites.  It takes the same arguments and
writes the same report: one check per quadruple, and the same message at
the first quadruple that fails.

`f_rows_reference` and `f_cols_reference` enumerate the paths of F
[a,b,c,d] by scanning every label for each intermediate object, as the
package did before it read the nonzero channels of each pair.
"""

from tensorcat.fields import Field
from tensorcat.linalg import Matrix


def composed_pentagon_reference(cat, rep):
    for a in cat.labels:
        A = cat.simple(a)
        for b in cat.labels:
            B = cat.simple(b)
            AB = cat.tensor(A, B)
            for c in cat.labels:
                C = cat.simple(c)
                BC = cat.tensor(B, C)
                for d in cat.labels:
                    D = cat.simple(d)
                    rep.checks_run += 1
                    CD = cat.tensor(C, D)
                    lhs = cat.associator(A, B, CD) @ cat.associator(AB, C, D)
                    rhs = (cat.tensor_mor(cat.id(A), cat.associator(B, C, D))
                           @ cat.associator(A, BC, D)
                           @ cat.tensor_mor(cat.associator(A, B, C), cat.id(D)))
                    if lhs != rhs:
                        rep.fail(f"pentagon fails at ({a},{b},{c},{d})")
                        return


def f_rows_reference(cat, a, b, c, d) -> list:
    return [(e, mu, nu) for e in cat.labels
            for mu in range(cat.N(a, b, e))
            for nu in range(cat.N(e, c, d))]


def f_cols_reference(cat, a, b, c, d) -> list:
    return [(f, rho, sigma) for f in cat.labels
            for rho in range(cat.N(b, c, f))
            for sigma in range(cat.N(a, f, d))]


# -- Rep(A_4): a fusion category with a multiplicity two ----------------------

def _kron(A: Matrix, B: Matrix) -> Matrix:
    return Matrix(A.field, [[x * y for x in A.row(i) for y in B.row(k)]
                            for i in range(A.rows) for k in range(B.rows)])


def _intertwiners(field, ra, rb, rc) -> list:
    """A basis of Hom(c, a (x) b) for representations given as lists of
    generator matrices, each map a (dim a * dim b) x (dim c) Matrix."""
    rab = [_kron(x, y) for x, y in zip(ra, rb)]
    n, m = rab[0].rows, rc[0].rows
    zero = field.zero()
    eqs = []
    # (R X - X rho_c)[r, q] = 0, X[p, q] the unknown at p * m + q
    for R, C in zip(rab, rc):
        for r in range(n):
            for q in range(m):
                eq = [zero] * (n * m)
                for p in range(n):
                    eq[p * m + q] = eq[p * m + q] + R[r, p]
                for s in range(m):
                    eq[r * m + s] = eq[r * m + s] - C[s, q]
                eqs.append(eq)
    return [Matrix(field, [v[p * m:(p + 1) * m] for p in range(n)])
            for v in Matrix(field, eqs).kernel_basis()]


def rep_a4():
    """Rep(A_4) over Q(w), w^2 + w + 1 = 0: the labels 1, w, ww (the
    characters through A_4 -> Z/3) and x (the 3-dimensional irreducible),
    with x (x) x = 1 + w + ww + 2x.  A_4 is generated by s = (01)(23) and
    t = (012); x is its action on the vectors of Q^4 with coordinate sum
    zero.  The inclusions of c into a (x) b are the intertwiner bases of
    `_intertwiners`, the canonical ones where a or b is the unit, and F
    expresses each left-associated inclusion of d into a (x) b (x) c
    through the right-associated ones.  The strict associator of vector
    spaces makes the pentagon hold exactly."""
    from tensorcat.catalog import _finish
    field = Field.extension(0, [1, 1, 1], gen_name="w")
    one, w = field.one(), field.gen()
    z = field.zero()

    def perm3(g):
        # v_i = e_i - e_3 for i < 3, so g v_i = v_g(i) - v_g(3), v_3 = 0
        cols = []
        for i in range(3):
            col = [z, z, z]
            if g[i] < 3:
                col[g[i]] = col[g[i]] + one
            if g[3] < 3:
                col[g[3]] = col[g[3]] - one
            cols.append(col)
        return Matrix.from_cols(field, cols)

    s, t = (1, 0, 3, 2), (1, 2, 0, 3)
    reps = {"1": [Matrix(field, [[one]])] * 2,
            "w": [Matrix(field, [[one]]), Matrix(field, [[w]])],
            "ww": [Matrix(field, [[one]]), Matrix(field, [[w * w]])],
            "x": [perm3(s), perm3(t)]}
    labels = ["1", "w", "ww", "x"]
    incl = {}
    for a in labels:
        for b in labels:
            for c in labels:
                if "1" in (a, b):
                    maps = ([Matrix.identity(field, reps[c][0].rows)]
                            if c == (b if a == "1" else a) else [])
                else:
                    maps = _intertwiners(field, reps[a], reps[b], reps[c])
                if maps:
                    incl[(a, b, c)] = maps
    fusion = {k: len(v) for k, v in incl.items()}
    dim = {a: reps[a][0].rows for a in labels}

    def vec(m):
        return [x for i in range(m.rows) for x in m.row(i)]

    F = {}
    for a in labels:
        for b in labels:
            for c in labels:
                if "1" in (a, b, c):
                    continue
                for d in labels:
                    left = [_kron(ab, Matrix.identity(field, dim[c])) @ ec
                            for e in labels
                            for ab in incl.get((a, b, e), [])
                            for ec in incl.get((e, c, d), [])]
                    right = [_kron(Matrix.identity(field, dim[a]), bc) @ af
                             for f in labels
                             for bc in incl.get((b, c, f), [])
                             for af in incl.get((a, f, d), [])]
                    if not left:
                        continue
                    sols = Matrix.from_cols(field, [vec(r) for r in right]) \
                        .solve_many([vec(m) for m in left])
                    F[(a, b, c, d)] = Matrix(field, sols)
    return _finish(field, labels, ["1"], {"1": "1", "w": "ww", "ww": "w",
                                          "x": "x"}, fusion, F)
