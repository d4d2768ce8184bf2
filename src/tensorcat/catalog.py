"""Built-in example categories and algebras.

Every generated presentation passes validation at construction time.
Cup/cap coefficients are not hard-coded: the generator sets the cup to
one and solves the snake equations for the cap, so the shipped data is
snake-exact by construction in whatever gauge the F tables use.

The golden-ratio category ships in a pentagon-solved gauge with entries
in Q(phi), phi^2 = phi + 1 (no square roots of phi); the square-root-of-2
category ships over Q(s), s^2 = 2.  F entries are gauge-dependent but all
analysis outputs are gauge-invariant.
"""

from .algebra import AlgebraPres, internal_end, trivial_algebra
from .fields import Field
from .fincat import CategoryPres, Mor, Obj, ValidationFailure
from .linalg import Matrix


class UnknownEntry(Exception):
    pass


class CocycleInvalid(ValidationFailure):
    pass


class CocycleObstruction(ValidationFailure):
    """A twisted subgroup algebra is obstructed by the cocycle."""


CATEGORY_NAMES = ("vec", "pointed", "fibonacci", "ising", "graded_char_p",
                  "matrix_multifusion")
ALGEBRA_NAMES = ("trivial", "regular_pointed", "internal_end",
                 "ordinary_group_algebra")


def _finish(field, labels, unit, dualR, fusion, F) -> CategoryPres:
    """Solve cup/cap from the snake equations and validate."""
    tmp = CategoryPres(field, labels, unit, dualR, fusion, F, {}, {})
    one = field.one()
    cup, cap = {}, {}
    for a in labels:
        s = tmp._snake1_scalar(a, one, one)
        if s.is_zero():
            raise ValidationFailure(f"degenerate duality loop at {a!r}")
        cup[a] = one
        cap[a] = one / s
    cat = CategoryPres(field, labels, unit, dualR, fusion, F, cup, cap)
    cat.validation().raise_if_failed()
    return cat


def _field_from_param(params):
    f = params.get("field")
    if isinstance(f, Field):
        return f
    if f is None:
        return Field(0)
    if isinstance(f, int):
        return Field(f)
    raise UnknownEntry(f"unrecognized field parameter {f!r}")


# ---------------------------------------------------------------------------
# categories

def make_vec(params) -> CategoryPres:
    field = _field_from_param(params)
    return _finish(field, ["1"], ["1"], {"1": "1"}, {("1", "1", "1"): 1}, {})


def make_pointed(params) -> CategoryPres:
    """Z/n-graded lines with an optional 3-cocycle table.

    params: n (group order), field, omega: dict (i,j,k) -> scalar-like
    on nonzero exponents (defaults to 1; must be gauge-normalized).
    """
    n = int(params["n"])
    field = _field_from_param(params)
    omega = params.get("omega") or {}
    labels = [f"g{i}" for i in range(n)]
    fusion = {}
    for i in range(n):
        for j in range(n):
            fusion[(labels[i], labels[j], labels[(i + j) % n])] = 1
    dualR = {labels[i]: labels[(-i) % n] for i in range(n)}
    F = {}
    for i in range(1, n):
        for j in range(1, n):
            for k in range(1, n):
                w = omega.get((i, j, k), 1)
                ws = field.scalar(w)
                if ws.is_zero():
                    raise CocycleInvalid(f"cocycle vanishes at ({i},{j},{k})")
                d = labels[(i + j + k) % n]
                F[(labels[i], labels[j], labels[k], d)] = Matrix(field, [[ws]])
    try:
        return _finish(field, labels, [labels[0]], dualR, fusion, F)
    except ValidationFailure as exc:
        raise CocycleInvalid(f"cocycle table violates the pentagon: {exc}") from exc


def make_fibonacci(params) -> CategoryPres:
    """Two simples 1, t with t (x) t = 1 + t, over Q(phi)."""
    field = params.get("field")
    if field is None:
        field = Field.extension(0, [-1, -1, 1], gen_name="phi")
    phi = field.gen()
    one = field.one()
    inv = one / phi
    labels = ["1", "t"]
    fusion = {("1", "1", "1"): 1, ("1", "t", "t"): 1, ("t", "1", "t"): 1,
              ("t", "t", "1"): 1, ("t", "t", "t"): 1}
    dualR = {"1": "1", "t": "t"}
    F = {
        ("t", "t", "t", "t"): Matrix(field, [[inv, inv], [one, -inv]]),
        ("t", "t", "t", "1"): Matrix(field, [[one]]),
    }
    return _finish(field, labels, ["1"], dualR, fusion, F)


def make_ising(params) -> CategoryPres:
    """Three simples 1, psi, sig with sig (x) sig = 1 + psi, over Q(s), s^2=2."""
    field = params.get("field")
    if field is None:
        field = Field.extension(0, [-2, 0, 1], gen_name="s")
    s = field.gen()
    one = field.one()
    h = one / s                       # 1/sqrt(2)
    labels = ["1", "psi", "sig"]
    fusion = {("1", "1", "1"): 1}
    for a in ("psi", "sig"):
        fusion[("1", a, a)] = 1
        fusion[(a, "1", a)] = 1
    fusion[("psi", "psi", "1")] = 1
    fusion[("psi", "sig", "sig")] = 1
    fusion[("sig", "psi", "sig")] = 1
    fusion[("sig", "sig", "1")] = 1
    fusion[("sig", "sig", "psi")] = 1
    dualR = {a: a for a in labels}
    m1 = lambda v: Matrix(field, [[field.scalar(v) if isinstance(v, int) else v]])
    F = {
        ("psi", "psi", "psi", "psi"): m1(1),
        ("psi", "psi", "sig", "sig"): m1(1),
        ("psi", "sig", "psi", "sig"): m1(-1),
        ("sig", "psi", "psi", "sig"): m1(1),
        ("psi", "sig", "sig", "1"): m1(1),
        ("psi", "sig", "sig", "psi"): m1(1),
        ("sig", "sig", "psi", "1"): m1(1),
        ("sig", "sig", "psi", "psi"): m1(1),
        ("sig", "psi", "sig", "1"): m1(1),
        ("sig", "psi", "sig", "psi"): m1(-1),
        ("sig", "sig", "sig", "sig"): Matrix(field, [[h, h], [h, -h]]),
    }
    return _finish(field, labels, ["1"], dualR, fusion, F)


def make_graded_char_p(params) -> CategoryPres:
    """Z/p-graded vector spaces over a field of characteristic p."""
    p = int(params["p"])
    field = params.get("field") or Field.prime(p)
    if field.char != p:
        raise UnknownEntry("graded_char_p requires a field of characteristic p")
    return make_pointed({"n": p, "field": field})


def make_matrix_multifusion(params) -> CategoryPres:
    """The n x n multi-fusion category: simples e_ij, unit = (+)_i e_ii."""
    n = int(params["n"])
    field = _field_from_param(params)
    labels = [f"e{i}{j}" for i in range(1, n + 1) for j in range(1, n + 1)]
    unit = [f"e{i}{i}" for i in range(1, n + 1)]
    fusion = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                fusion[(f"e{i}{j}", f"e{j}{k}", f"e{i}{k}")] = 1
    dualR = {f"e{i}{j}": f"e{j}{i}" for i in range(1, n + 1)
             for j in range(1, n + 1)}
    F = {}
    units = set(unit)
    one = Matrix(field, [[field.one()]])
    for a in labels:
        for b in labels:
            for c in labels:
                if a in units or b in units or c in units:
                    continue
                if a[2] != b[1] or b[2] != c[1]:
                    continue
                d = f"e{a[1]}{c[2]}"
                F[(a, b, c, d)] = one
    return _finish(field, labels, unit, dualR, fusion, F)


_CATEGORY_MAKERS = {
    "vec": make_vec,
    "pointed": make_pointed,
    "fibonacci": make_fibonacci,
    "ising": make_ising,
    "graded_char_p": make_graded_char_p,
    "matrix_multifusion": make_matrix_multifusion,
}


def make_category(name: str, params: dict | None = None) -> CategoryPres:
    if name not in _CATEGORY_MAKERS:
        raise UnknownEntry(f"unknown category {name!r}; "
                           f"known: {sorted(_CATEGORY_MAKERS)}")
    return _CATEGORY_MAKERS[name](params or {})


# ---------------------------------------------------------------------------
# algebras

def make_regular_pointed(cat: CategoryPres, params) -> AlgebraPres:
    """Group algebra of a subgroup H of Z/n inside the pointed category.

    params: subgroup_order (a divisor of n; defaults to n).  The cocycle
    must restrict trivially to H; otherwise CocycleObstruction.
    """
    n = len(cat.labels)
    h = int(params.get("subgroup_order", n))
    if h < 1 or n % h != 0:
        raise UnknownEntry(f"subgroup order {h} does not divide {n}")
    step = n // h
    members = [cat.labels[(step * i) % n] for i in range(h)]
    carrier = Obj(cat, {g: 1 for g in members})
    sq = cat.tensor(carrier, carrier)
    idxmap = cat.fusion_index(carrier, carrier)
    field = cat.field
    one = field.one()
    entries = {g: [] for g in members}
    for ga in members:
        for gb in members:
            ia, ib = cat.idx[ga], cat.idx[gb]
            gc = cat.labels[(ia + ib) % n]
            entries[gc].append((0, idxmap[gc][(ga, 0, gb, 0, 0)], one))
    mult = Mor(cat, sq, carrier,
               {g: Matrix.from_entries(field, 1, sq.mult(g), es)
                for g, es in entries.items()})
    ub = Matrix(field, [[one]])
    unit = Mor(cat, cat.unit_obj(), carrier, {cat.labels[0]: ub})
    A = AlgebraPres(cat, carrier, mult, unit)
    rep = A.validation
    if not rep.ok:
        raise CocycleObstruction(
            f"cocycle does not restrict trivially to the subgroup: "
            f"{rep.failures[0]}")
    return A


def make_ordinary_group_algebra(cat: CategoryPres, params) -> AlgebraPres:
    """k[Z/n] embedded in vec as the carrier n*1."""
    n = int(params["n"])
    if cat.labels != ("1",):
        raise UnknownEntry("ordinary_group_algebra lives in vec")
    field = cat.field
    carrier = Obj(cat, {"1": n})
    sq = cat.tensor(carrier, carrier)
    idxmap = cat.fusion_index(carrier, carrier)
    one = field.one()
    m = Matrix.from_entries(field, n, sq.mult("1"),
                            [((i + j) % n, idxmap["1"][("1", i, "1", j, 0)],
                              one) for i in range(n) for j in range(n)])
    mult = Mor(cat, sq, carrier, {"1": m})
    ub = Matrix.from_entries(field, n, 1, [(0, 0, one)])
    unit = Mor(cat, cat.unit_obj(), carrier, {"1": ub})
    A = AlgebraPres(cat, carrier, mult, unit)
    A.validation.raise_if_failed()
    return A


def make_algebra(cat: CategoryPres, name: str, params: dict | None = None) -> AlgebraPres:
    params = params or {}
    if name == "trivial":
        return trivial_algebra(cat)
    if name == "regular_pointed":
        return make_regular_pointed(cat, params)
    if name == "internal_end":
        obj = params["obj"]
        if not isinstance(obj, Obj):
            obj = Obj(cat, obj)
        return internal_end(cat, obj)
    if name == "ordinary_group_algebra":
        return make_ordinary_group_algebra(cat, params)
    raise UnknownEntry(f"unknown algebra {name!r}; known: {ALGEBRA_NAMES}")


# ---------------------------------------------------------------------------
# named instances for the CLI and the test corpus

def standard_entries() -> dict:
    """name -> zero-argument constructor for every shipped category."""
    F2, F3 = Field.prime(2), Field.prime(3)
    return {
        "vec_q": lambda: make_category("vec", {}),
        "vec_f2": lambda: make_category("vec", {"field": F2}),
        "vec_f3": lambda: make_category("vec", {"field": F3}),
        "z2": lambda: make_category("pointed", {"n": 2}),
        "z2_twisted": lambda: make_category(
            "pointed", {"n": 2, "omega": {(1, 1, 1): -1}}),
        "z3": lambda: make_category("pointed", {"n": 3}),
        "z4": lambda: make_category("pointed", {"n": 4}),
        "z2_f2": lambda: make_category("graded_char_p", {"p": 2}),
        "z3_f3": lambda: make_category("graded_char_p", {"p": 3}),
        "fibonacci": lambda: make_category("fibonacci", {}),
        "ising": lambda: make_category("ising", {}),
        "mmf2": lambda: make_category("matrix_multifusion", {"n": 2}),
    }
