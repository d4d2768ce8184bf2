"""Kernel solves, the references for module maps and for the maps out of
free (bi)modules.

`hom_basis` writes its constraint matrix from the actions' nonzeros;
`module_hom_basis_reference` composes phi o act_x - act_y o (phi (x) 1)
for each unit-basis map phi and solves the same kernel.
`EndData` reads every product of basis maps by restriction along the unit
of a free generator, and `free_bimodule_maps` gives bimodule maps by the
free-forget correspondence, read straight off one destination's two
actions for all sources at once.  `two_step_free_bimodule_maps` first
writes the two-sided action right o (left (x) 1) over (A y) A from the
two actions' nonzeros (`two_sided_action`) and then reads the maps off
it; `pairwise_free_bimodule_maps` reads the composed two-sided action
once per source and destination, and `product_bimodule_maps` builds the
same maps as full compositions.
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

from construction_oracle import hom_unit_basis, two_sided_action_reference
from tensorcat.fincat import (Mor, ValidationFailure, hom_coords,
                              mor_from_coords)
from tensorcat.linalg import Matrix
from tensorcat.modcat import EndData
from tensorcat.ordalg import OrdAlgebra, OrdAlgebraError


def module_hom_basis_reference(x, y) -> list:
    """Basis of the module maps x -> y, as the kernel of the constraint
    phi o act_x - act_y o (phi (x) 1), one composed column per map phi of
    the unit basis of Hom(x.carrier, y.carrier)."""
    cat = x.cat
    basis = hom_unit_basis(cat, x.carrier, y.carrier)
    if not basis:
        return []
    idc = cat.id(x.algebra.carrier)
    mat = Matrix.from_cols(cat.field, [
        (phi @ x.action - y.action @ cat.tensor_mor(phi, idc)).coords()
        for phi in basis])
    return [mor_from_coords(cat, x.carrier, y.carrier, v)
            for v in mat.kernel_basis()]


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


def two_sided_action(b) -> Mor:
    """The two-sided action (A (x) y) (x) A -> y, right o (left (x) 1),
    written from the two actions' nonzeros, with no `tensor_mor` and no
    composition.

    left (x) 1 sends the basis vector (d, q, z, r, nu) of (A (x) y)
    (x) A to the sum of left[q', q] times (d, q', z, r, nu) of
    y (x) A, over the nonzeros of left's block at d.  So each nonzero
    right[i, t] at e, whose column t is (d, q', z, r, nu) in the
    fusion basis of y (x) A, adds right[i, t] left[q', q] at row i
    and column (d, q, z, r, nu), for each nonzero of row q' of left's
    block at d.  Repeated positions add up, as in the product."""
    cat, c, y = b.cat, b.algebra.carrier, b.carrier
    cy = cat.tensor(c, y)
    src = cat.tensor(cy, c)
    yc_basis, src_index = cat.fusion_basis(y, c), cat.fusion_index(cy, c)
    left_rows = {d: [blk.row_nonzero(q) for q in range(blk.rows)]
                 for d, blk in b.left_action.blocks.items()}
    blocks = {}
    for e, blk in b.right_action.blocks.items():
        basis, index = yc_basis[e], src_index[e]
        entries = []
        for i, t, val in blk.nonzero():
            d, q2, z, r, nu = basis[t]
            if d not in left_rows:
                continue
            entries += [(i, index[(d, q, z, r, nu)], val * x)
                        for q, x in left_rows[d][q2]]
        blocks[e] = Matrix.from_entries(cat.field, y.mult(e), src.mult(e),
                                        entries)
    return Mor(cat, src, y, blocks)


def _maps_off_the_action(srcs, dst, act) -> list:
    """The maps of `free_bimodule_maps` read off a two-sided action act of
    `dst`, in one walk over act's nonzeros for all sources.

    The map of psi in the unit basis of Hom(a, y) is act o (id (x) psi (x)
    id), so its column at the basis vector (d, q, z, r, nu) of (A a) A is
    act's column at (d, q', z, r, nu), where psi takes the vector
    q = (x, p, l, j, mu) of A a at d to q' = (x, p, l, i, mu) of A y.  A
    column of act whose vector of A y passes through the label l feeds
    the sources whose generator a carries l."""
    cat = dst.cat
    c, y = dst.algebra.carrier, dst.carrier
    cy_basis = cat.fusion_basis(c, y)
    act_cols = cat.fusion_basis(cat.tensor(c, y), c)
    # label l -> (a, psi positions, fusion indices of A a and (A a) A,
    # entries per psi) for each source whose generator a carries l
    by_label = {}
    entries = []
    for src in srcs:
        a = src.generator
        psis = {lij: k for k, lij in enumerate(hom_coords(a, y))}
        entries.append([{} for _ in psis])
        feed = (a, psis, cat.fusion_index(c, a),
                cat.fusion_index(cat.tensor(c, a), c), entries[-1])
        for l in a.support:
            by_label.setdefault(l, []).append(feed)
    for e, blk in act.blocks.items():
        # column t of act feeds (entries of psi, column of its map) for
        # each of these
        feeds = []
        for d, q, z, r, nu in act_cols[e]:
            x, p, l, i, mu = cy_basis[d][q]
            feeds.append([(out[psis[(l, i, j)]], src_index[e][
                (d, ca_index[d][(x, p, l, j, mu)], z, r, nu)])
                for a, psis, ca_index, src_index, out in by_label.get(l, ())
                for j in range(a.mult(l))])
        for row, t, val in blk.nonzero():
            for blocks, s in feeds[t]:
                blocks.setdefault(e, []).append((row, s, val))
    return [[Mor(cat, src.carrier, y,
                 {e: Matrix.from_entries(cat.field, y.mult(e),
                                         src.carrier.mult(e), es)
                  for e, es in blocks.items()})
             for blocks in out]
            for src, out in zip(srcs, entries)]


def two_step_free_bimodule_maps(srcs, dst) -> list:
    """The maps of `free_bimodule_maps` in two steps: the two-sided action
    of `dst` written from the nonzeros of its two actions, then the maps
    read off its nonzeros for all sources."""
    return _maps_off_the_action(srcs, dst, two_sided_action(dst))


def pairwise_free_bimodule_maps(src, dst) -> list:
    """The maps of `free_bimodule_maps` for the one source `src`, read off
    the nonzeros of the composed two-sided action
    `two_sided_action_reference(dst)`, with a walk of it per source."""
    return _maps_off_the_action([src], dst,
                                two_sided_action_reference(dst))[0]


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
    """(+)_{i,j} Hom(P_j, P_i) under composition, with the same basis
    and `express` contract as `EndData`."""

    def __init__(self, modules, hom_fn, field):
        self.modules = modules
        self.field = field
        self.blocks = {(i, j): hs
                       for i, pi in enumerate(modules)
                       for j, hs in enumerate(hom_fn(modules, pi))}
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
        return OrdAlgebra(field, n, sc, unit, validate=True)


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
    """The checks of `OrdAlgebra` construction, in its order: the unit
    law at each basis element, then associativity."""
    for i in range(E.dim):
        bi = E.basis_vec(i)
        if _dense_product(E, E.unit, bi) != bi or \
                _dense_product(E, bi, E.unit) != bi:
            raise OrdAlgebraError(f"unit law fails at basis element {i}")
    associativity_reference(E)
