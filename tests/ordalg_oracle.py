"""References for what `ordalg` decides by theorem.

The ladder searches are the references for the commutative and
quaternion questions.  Each tries the basis, then pairs and triples of
basis elements with small coefficients (`ordalg._candidate_elements`),
and gives up when the ladder runs out: `central_idempotents_ladder`
raises `SeparatingElementNotFound`, `is_field_ladder` and
`quaternion_is_division_ladder` return "undetermined".  Where they give
an answer, the package must give the same one.

`cohen_ivanyos_wales_chain` is the reference for the characteristic-p
radical: it fills every level's Gram matrix entry by entry, one truncated
characteristic polynomial per pair, and so does not use the
semilinearity of g_l that `ordalg._radical_chain` rests on.  Both start
from level 0, the kernel of the trace form; in characteristic 0 that
kernel is the radical (Dickson), and `_radical_chain` ends there.

`is_field_commutative_reference` and `primitive_idempotent_reference`
are the field test and `primitive_idempotent` as the package ran them
before `is_division` decided the division question once: a field test
apart from `is_division`, and a block split by the ladder before the
division verdict is asked.  They must find the same answers, the same
idempotent or the same kind of refusal.

`radical_chain_on` is `_radical_chain` on a stored faithful block
representation, as the package ran it on the natural representation of
an End algebra before it read the left regular one off the structure
constants.  Any faithful representation gives the radical.
"""

from fractions import Fraction

from construction_oracle import natural_traces
from tensorcat.linalg import Matrix
from tensorcat.ordalg import (UNDETERMINED, OrdAlgebraError,
                              SeparatingElementNotFound,
                              _anticommutant, _bezout_idempotent,
                              _candidate_elements, _charpoly_of_blocks,
                              _eval_poly_in_algebra, _form,
                              _idempotent_from_nilpotent, _lin_comb,
                              _quaternion_splits, _trace_form_kernel,
                              center, corner, is_division,
                              min_poly_of_element, radical)
from tensorcat.poly import _frob_inverse, factor


def ciw_g(E, level, x):
    """g_l(x): the coefficient of lambda^(n - p^l) in the characteristic
    polynomial of L_x, n = dim E."""
    return _charpoly_of_blocks(E._rep_blocks_of_vec(x),
                               E.field.char ** level)[0]


def cohen_ivanyos_wales_chain(E) -> list:
    """[J_0, J_1, ...] of a characteristic-p algebra, the radical last:
    J_0 is the kernel of the trace form, and J_l the x in J_{l-1} with
    g_l(xy) = 0 for every y in J_{l-1}, read through the inverse
    Frobenius, while p^l is at most dim E.
    rho(xy) and rho(yx) have one characteristic polynomial, so each
    level's Gram matrix is symmetric and its entries on and above the
    diagonal are computed, each from the product of its pair."""
    p, field = E.field.char, E.field
    chain = [_trace_form_kernel(E)]
    level = 1
    while chain[-1] and p ** level <= E.dim:
        current = chain[-1]
        size = len(current)
        rows = [[None] * size for _ in range(size)]
        for a, y in enumerate(current):
            for b in range(a, size):
                coeff = ciw_g(E, level, E.mult_vec(current[b], y))
                rows[a][b] = rows[b][a] = _frob_inverse(coeff, level)
        chain.append([_lin_comb(field, current, coords)
                      for coords in Matrix(field, rows).kernel_basis()])
        level += 1
    return chain


def radical_chain_on(E, rep) -> list:
    """The radical of E by the chain of `ordalg._radical_chain`, read on
    the faithful block representation `rep`: per basis element of E, one
    square matrix per block.  n is the representation's dimension, the
    traces and each rho(x) are read from `rep`."""
    field = E.field
    p = field.char
    n_rep = sum(m.rows for m in rep[0])
    current = _form(E, natural_traces(field, rep)).kernel_basis()  # level 0
    level = 1
    while p and current and p ** level <= n_rep:
        # the coefficient of lambda^(n_rep - p^level), made linear
        g = [_frob_inverse(_charpoly_of_blocks(
            [Matrix.combine(z, mats) for mats in zip(*rep)],
            p ** level)[0], level) for z in current]
        rows = Matrix(field, current)
        gram = rows @ _form(E, rows.solve(g)) @ rows.transpose()
        kernel = gram.kernel_basis()
        if not kernel:
            return []
        basis = Matrix(field, kernel) @ rows
        current = [basis.row(i) for i in range(basis.rows)]
        level += 1
    return current


def radical_charp_pairwise(E) -> list:
    """The radical by `cohen_ivanyos_wales_chain`."""
    return cohen_ivanyos_wales_chain(E)[-1]


def central_idempotents_ladder(E) -> list:
    """The split of E's unit by the first ladder element of its center
    whose minimal polynomial has degree dim Z."""
    assert not radical(E)
    zc = center(E)
    for cand in _candidate_elements(E, zc):
        mu = min_poly_of_element(E, cand)
        if mu.degree == len(zc):
            fac = factor(mu)
            assert all(m == 1 for _, m in fac)
            return [_bezout_idempotent(E, E.unit, cand, mu, g)
                    for g, _ in fac]
    raise SeparatingElementNotFound(
        f"no separating central element among the bounded search "
        f"(center dimension {len(zc)})")


def is_field_ladder(E):
    """Field test of a commutative semisimple E: False at the first
    ladder element with a reducible minimal polynomial, True at the first
    one of degree dim E."""
    for cand in _candidate_elements(E, [E.basis_vec(i) for i in range(E.dim)]):
        mu = min_poly_of_element(E, cand)
        fac = factor(mu)
        if len(fac) > 1 or any(m > 1 for _, m in fac):
            return False
        if mu.degree == E.dim:
            return True
    return UNDETERMINED


def _min_poly_over_center(E, zc_vectors, x):
    """alpha, beta in the center with x^2 = alpha + beta*x, or None."""
    field = E.field
    cols = list(zc_vectors) + [E.mult_vec(z, x) for z in zc_vectors]
    sol = Matrix.from_cols(field, cols).solve(E.mult_vec(x, x))
    if sol is None:
        return None
    k = len(zc_vectors)
    return (_lin_comb(field, zc_vectors, sol[:k]),
            _lin_comb(field, zc_vectors, sol[k:]))


def _is_central(E, x):
    return all(E.mult_vec(x, b) == E.mult_vec(b, x)
               for b in map(E.basis_vec, range(E.dim)))


def quaternion_is_division_ladder(E):
    """Division test of a central simple E of dimension 4 in
    characteristic 0: i = x - beta/2 for the first non-central ladder
    element x with x^2 = alpha + beta x, and j from the anticommutant of
    i; a square of i or j outside the center skips to the next element."""
    field = E.field
    half = field.scalar(Fraction(1, 2))
    unit = Matrix.from_cols(field, [E.unit])
    for cand in _candidate_elements(E, [E.basis_vec(i) for i in range(E.dim)]):
        mp = _min_poly_over_center(E, [E.unit], cand)
        if mp is None:
            continue
        i_el = [c - half * bv for c, bv in zip(cand, mp[1])]
        coords = unit.solve(E.mult_vec(i_el, i_el))
        if coords is None:
            continue
        a = coords[0]
        if a.is_zero():
            return False
        if _is_central(E, i_el):
            continue
        ker = _anticommutant(E, i_el)
        if not ker:
            continue
        coords = unit.solve(E.mult_vec(ker[0], ker[0]))
        if coords is None:
            continue
        b = coords[0]
        if b.is_zero():
            return False
        if field.minpoly is not None:
            return UNDETERMINED
        return not _quaternion_splits(a.c[0], b.c[0])
    return UNDETERMINED


def is_field_commutative_reference(E) -> bool:
    """Field test for a commutative semisimple algebra: by fact (1) of the
    `ordalg` docstring, a field iff every basis element has an irreducible
    minimal polynomial."""
    for i in range(E.dim):
        mu = min_poly_of_element(E, E.basis_vec(i))
        fac = factor(mu)
        if len(fac) > 1 or fac[0][1] > 1:
            return False          # zero divisors
        if mu.degree == E.dim:
            return True           # primitive element with irreducible minpoly
    return True


def primitive_idempotent_reference(B) -> list:
    """A primitive idempotent of a semisimple simple block: the unit of a
    field, else split by the first ladder element whose minimal
    polynomial is reducible, else the unit if the block is a division
    algebra once the ladder has run out."""
    if B.dim == 1:
        return list(B.unit)
    if B.is_commutative():
        if is_field_commutative_reference(B):
            return list(B.unit)
        raise OrdAlgebraError("block is not simple (commutative splits)")
    for cand in _candidate_elements(B, [B.basis_vec(i) for i in range(B.dim)]):
        mu = min_poly_of_element(B, cand)
        fac = factor(mu)
        if len(fac) >= 2:
            g, e1 = fac[0]
            gpart = g
            for _ in range(e1 - 1):
                gpart = gpart * g
            return _block_primitive_idempotent_reference(
                B, _bezout_idempotent(B, B.unit, cand, mu, gpart))
        if len(fac) == 1 and fac[0][1] > 1:
            nil = _eval_poly_in_algebra(B, fac[0][0], cand, B.unit)
            return _block_primitive_idempotent_reference(
                B, _idempotent_from_nilpotent(B, nil))
    if is_division(B) is True:
        return list(B.unit)
    raise SeparatingElementNotFound(
        "bounded search found no splitting of the block")


def _block_primitive_idempotent_reference(E, e) -> list:
    """`primitive_idempotent_reference` of the corner eEe, embedded back
    into E."""
    B, basis = corner(E, e)
    return _lin_comb(E.field, basis, primitive_idempotent_reference(B))
