"""Kernel solves, the references for the maps out of free (bi)modules.

`EndData` reads every product of basis maps by restriction along the unit
of a free generator, and `free_bimodule_maps` gives bimodule maps by the
free-forget correspondence, read off the action's nonzeros;
`product_bimodule_maps` builds the same maps as full compositions.
`KernelSolveEnd` composes each pair of basis maps in full and solves the
result against the flat coordinates of its block, so it needs no
generator and serves any list of modules;
`bimodule_hom_basis` solves both intertwining systems for the maps between
any two bimodules.

`OrdAlgebra` checks associativity over the triples (i, j, l) that a
nonzero structure constant reaches; `associativity_reference` visits all
n^3 of them, and `validate_reference` puts the unit law before it, with
products summed over every pair of coordinates.
"""

from tensorcat.fincat import (ValidationFailure, hom_unit_basis,
                              mor_from_coords)
from tensorcat.linalg import Matrix
from tensorcat.modcat import EndData
from tensorcat.ordalg import OrdAlgebra, OrdAlgebraError


def bimodule_hom_basis(x, y) -> list:
    """Basis of the bimodule maps x -> y, as the kernel of the left and
    right intertwining constraints on Hom(x.carrier, y.carrier)."""
    cat = x.cat
    idc = cat.id(x.algebra.carrier)

    def constraint(phi):
        left = (phi @ x.left_action
                - y.left_action @ cat.tensor_mor(idc, phi))
        right = (phi @ x.right_action
                 - y.right_action @ cat.tensor_mor(phi, idc))
        return left.coords() + right.coords()
    basis = hom_unit_basis(cat, x.carrier, y.carrier)
    if not basis:
        return []
    mat = Matrix.from_cols(cat.field, [constraint(phi) for phi in basis])
    return [mor_from_coords(cat, x.carrier, y.carrier, v)
            for v in mat.kernel_basis()]


def product_bimodule_maps(src, dst) -> list:
    """The maps of `free_bimodule_maps` as compositions
    act o (id (x) psi (x) id), for the action act: (A y) A -> y and each
    psi of the unit basis of Hom(a, y)."""
    cat = src.cat
    idc = cat.id(src.algebra.carrier)
    act = dst.right_action @ cat.tensor_mor(dst.left_action, idc)
    return [act @ cat.tensor_mor(cat.tensor_mor(idc, psi), idc)
            for psi in hom_unit_basis(cat, src.generator, dst.carrier)]


class KernelSolveEnd(EndData):
    """(+)_{i,j} Hom(P_j, P_i) under composition, with the same basis,
    block representation and `express` contract as `EndData`."""

    def __init__(self, modules, hom_fn, field):
        self.modules = modules
        self.field = field
        self.labels = list(dict.fromkeys(a for p in modules
                                         for a in p.carrier.support))
        self.blocks = {(i, j): hom_fn(pj, pi)
                       for i, pi in enumerate(modules)
                       for j, pj in enumerate(modules)}
        self.basis = [(i, j, m) for (i, j), hs in self.blocks.items()
                      for m in hs]
        self._solvers = {ij: Matrix.from_cols(field, [m.coords() for m in hs])
                         for ij, hs in self.blocks.items() if hs}
        self.algebra = self._build_algebra()

    def express(self, i, j, mor) -> list:
        return self.express_many(i, j, [mor])[0]

    def express_many(self, i, j, mors) -> list:
        rhs = [m.coords() for m in mors]
        if not self.blocks[(i, j)]:
            if any(not c.is_zero() for v in rhs for c in v):
                raise ValidationFailure("morphism outside the hom space")
            return [[] for _ in rhs]
        sols = self._solvers[(i, j)].solve_many(rhs)
        if any(sol is None for sol in sols):
            raise ValidationFailure("morphism outside the hom space")
        return sols

    def _build_algebra(self) -> OrdAlgebra:
        field = self.field
        n = len(self.basis)
        sc = [[[] for _ in range(n)] for _ in range(n)]
        pos = {}
        for k, (i, j, _m) in enumerate(self.basis):
            pos.setdefault((i, j), []).append(k)
        size = len(self.modules)
        for i1 in range(size):
            for j2 in range(size):
                pairs = [(k1, k2) for j1 in range(size)
                         for k1 in pos.get((i1, j1), [])
                         for k2 in pos.get((j1, j2), [])]
                if not pairs:
                    continue
                sols = self.express_many(
                    i1, j2, [self.basis[k1][2] @ self.basis[k2][2]
                             for k1, k2 in pairs])
                for (k1, k2), coords in zip(pairs, sols):
                    sc[k1][k2] = [(idx, c) for idx, c in
                                  zip(pos.get((i1, j2), []), coords)
                                  if not c.is_zero()]
        unit = [field.zero()] * n
        for i, p in enumerate(self.modules):
            coords = self.express(i, i, p.cat.id(p.carrier))
            for idx, c in zip(pos.get((i, i), []), coords):
                unit[idx] = c
        return OrdAlgebra(field, n, sc, unit, rep=self._natural_rep(),
                          validate=True)


def associativity_reference(E) -> None:
    """(b_i b_j) b_l = b_i (b_j b_l) for every triple, in lexicographic
    order, on coefficient tuples; OrdAlgebraError at the first that
    fails."""
    field = E.field
    add, mul, zc = field._add, field._mul, field._zero_c
    sc = [[[(t, d.c) for t, d in pairs] for pairs in row] for row in E.sc]
    for i in range(E.dim):
        sci = sc[i]
        for j in range(E.dim):
            ij = sci[j]
            for l in range(E.dim):
                left = {}
                for m, c in ij:
                    for t, d in sc[m][l]:
                        v = left.get(t)
                        left[t] = mul(c, d) if v is None else \
                            add(v, mul(c, d))
                right = {}
                for m, c in sc[j][l]:
                    for t, d in sci[m]:
                        v = right.get(t)
                        right[t] = mul(c, d) if v is None else \
                            add(v, mul(c, d))
                if left == right:
                    continue
                # a sum that cancelled may be kept on one side only
                for t in left.keys() | right.keys():
                    if left.get(t, zc) != right.get(t, zc):
                        raise OrdAlgebraError(
                            f"associativity fails at ({i},{j},{l})")


def verdict(check, E):
    """The message of the OrdAlgebraError that check(E) raises, or None."""
    try:
        check(E)
    except OrdAlgebraError as e:
        return str(e)
    return None


def _dense_product(E, x, y) -> list:
    out = [E.field.zero()] * E.dim
    for i in range(E.dim):
        for j in range(E.dim):
            for l, c in E.sc[i][j]:
                out[l] = out[l] + x[i] * y[j] * c
    return out


def validate_reference(E) -> None:
    """The checks of `OrdAlgebra` construction, in its order: the
    representation's length, the unit law at each basis element, then
    associativity."""
    if E.rep is not None and len(E.rep) != E.dim:
        raise OrdAlgebraError("representation has wrong length")
    for i in range(E.dim):
        bi = E.basis_vec(i)
        if _dense_product(E, E.unit, bi) != bi or \
                _dense_product(E, bi, E.unit) != bi:
            raise OrdAlgebraError(f"unit law fails at basis element {i}")
    associativity_reference(E)
