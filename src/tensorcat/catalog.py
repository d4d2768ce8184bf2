"""Built-in example categories and algebras.

Every generated presentation passes validation at construction time.
Cup/cap coefficients are not hard-coded: the generator sets the cup to
one and the cap to the inverse of the first snake loop, one F entry per
label (`CategoryPres._snake_loops`), so the shipped data is snake-exact
by construction in whatever gauge the F tables use.

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


ALGEBRA_NAMES = ("trivial", "regular_pointed", "internal_end",
                 "ordinary_group_algebra")


def _finish(field, labels, unit, dualR, fusion, F) -> CategoryPres:
    """Set each cup to one and each cap to the inverse of the label's
    first snake loop, then validate."""
    cat = CategoryPres(field, labels, unit, dualR, fusion, F, {}, {})
    one = field.one()
    for a in labels:
        loop = cat._snake_loops(a)[0]
        if loop.is_zero():
            raise ValidationFailure(f"degenerate duality loop at {a!r}")
        cat.cup[a] = one
        cat.cap[a] = one / loop
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

def _cyclic_group_algebra(cat: CategoryPres, carrier: Obj,
                          elements) -> AlgebraPres:
    """The group algebra of Z/h on `carrier`, g_i g_j = g_(i+j mod h) with
    unit g_0, for g_i at the position (label, index) elements[i] of the
    carrier; not yet validated."""
    field = cat.field
    one = field.one()
    sq = cat.tensor(carrier, carrier)
    idxmap = cat.fusion_index(carrier, carrier)
    h = len(elements)
    entries = {a: [] for a, _r in elements}
    for i, (a, r) in enumerate(elements):
        for j, (b, s) in enumerate(elements):
            c, t = elements[(i + j) % h]
            entries[c].append((t, idxmap[c][(a, r, b, s, 0)], one))
    mult = Mor(cat, sq, carrier,
               {c: Matrix.from_entries(field, carrier.mult(c), sq.mult(c), es)
                for c, es in entries.items()})
    u, k = elements[0]
    unit = Mor(cat, cat.unit_obj(), carrier,
               {u: Matrix.from_entries(field, carrier.mult(u), 1,
                                       [(k, 0, one)])})
    return AlgebraPres(cat, carrier, mult, unit)


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
    A = _cyclic_group_algebra(cat, Obj(cat, {g: 1 for g in members}),
                              [(g, 0) for g in members])
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
    A = _cyclic_group_algebra(cat, Obj(cat, {"1": n}),
                              [("1", i) for i in range(n)])
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
