"""JSON file formats for categories, algebras, modules and reports.

Scalars are serialized as coefficient vectors over the prime field, each
coefficient a string ("num/den" or an integer string).  Sparse structure
constants refer to the frozen fusion-basis enumeration: the flat index of
a pair (X, Y) runs over labels in presentation order, concatenating the
per-label fusion bases; object coordinates run over labels in order,
multiplicities consecutively.
"""

import json

from .algebra import AlgebraPres
from .fields import Field, FieldError, Scalar
from .fincat import CategoryPres, Mor, Obj
from .linalg import Matrix
from .modcat import ModulePres


class FormatError(Exception):
    pass


def _integer(v, what) -> int:
    """v, which must be a JSON integer: no boolean, float or string."""
    if type(v) is not int:
        raise FormatError(f"{what} must be an integer, got {v!r}")
    return v


def _label(v, what) -> str:
    if type(v) is not str:
        raise FormatError(f"{what} must be a string label, got {v!r}")
    return v


def _mapping(v, what) -> dict:
    if not isinstance(v, dict):
        raise FormatError(f"{what} must be a JSON object, got {v!r}")
    return v


def _obj(cat: CategoryPres, v, what) -> Obj:
    """The object of a JSON object of label multiplicities."""
    return Obj(cat, {a: _integer(n, f"{what} multiplicity")
                     for a, n in _mapping(v, what).items()})


# ---------------------------------------------------------------------------
# scalars and fields

def scalar_to_json(s: Scalar) -> list:
    return s.serialize()


def scalar_from_json(field: Field, v) -> Scalar:
    """An integer, a 'num/den' string, or a list of these coefficients;
    a JSON boolean is none of them.  A coefficient the field cannot read
    (a zero denominator, too many coefficients) is a `FormatError`."""
    if not all(type(c) in (str, int) for c in
               (v if isinstance(v, list) else [v])):
        raise FormatError(f"cannot parse scalar from {v!r}")
    try:
        return field.scalar(v)
    except FieldError as exc:
        raise FormatError(str(exc)) from exc


def field_to_json(f: Field) -> dict:
    return f.describe()


def field_from_json(d) -> Field:
    if not isinstance(d, dict) or "char" not in d:
        raise FormatError("field descriptor must be {'char': ..., 'minpoly'?}")
    char = _integer(d["char"], "field char")
    mp = d.get("minpoly")
    if mp is None:
        return Field(char)
    return Field.extension(char, mp, gen_name=d.get("gen", "a"))


# ---------------------------------------------------------------------------
# categories

def category_to_json(cat: CategoryPres) -> dict:
    fusion = sorted(([a, b, c, n] for (a, b, c), n in cat._N.items()),
                    key=lambda t: (cat.idx[t[0]], cat.idx[t[1]], cat.idx[t[2]]))
    fs = []
    for (a, b, c, d) in sorted(cat._F,
                               key=lambda k: tuple(cat.idx[x] for x in k)):
        m = cat._F[(a, b, c, d)]
        fs.append({
            "abcd": [a, b, c, d],
            "rows": [list(t) for t in cat.f_rows(a, b, c, d)],
            "cols": [list(t) for t in cat.f_cols(a, b, c, d)],
            "entries": [[scalar_to_json(x) for x in m.row(i)]
                        for i in range(m.rows)],
        })
    return {
        "field": field_to_json(cat.field),
        "labels": list(cat.labels),
        "unit": list(cat.unit_components),
        "dualR": {a: cat.dualR[a] for a in cat.labels},
        "fusion": fusion,
        "F": fs,
        "cup": {a: scalar_to_json(cat.cup[a]) for a in cat.labels},
        "cap": {a: scalar_to_json(cat.cap[a]) for a in cat.labels},
    }


def category_from_json(d) -> CategoryPres:
    try:
        field = field_from_json(d["field"])
        labels = [_label(a, "label") for a in d["labels"]]
        unit = [_label(a, "unit component") for a in d["unit"]]
        dualR = {a: _label(b, "dualR value")
                 for a, b in _mapping(d["dualR"], "dualR").items()}
        fusion = {}
        for a, b, c, n in d.get("fusion", []):
            key = tuple(_label(x, "fusion label") for x in (a, b, c))
            fusion[key] = _integer(n, "fusion multiplicity")
        F = {}
        tmp = CategoryPres(field, labels, unit, dualR, fusion, {}, {}, {})
        for blk in d.get("F", []):
            a, b, c, dd = blk["abcd"]
            rows = [tuple(t) for t in blk["rows"]]
            cols = [tuple(t) for t in blk["cols"]]
            want_rows = tmp.f_rows(a, b, c, dd)
            want_cols = tmp.f_cols(a, b, c, dd)
            if rows != want_rows or cols != want_cols:
                raise FormatError(
                    f"F[{a},{b},{c},{dd}]: row/column enumeration does not "
                    f"match the frozen fusion-basis order")
            entries = blk["entries"]
            if len(entries) != len(rows) or any(len(r) != len(cols)
                                                for r in entries):
                raise FormatError(f"F[{a},{b},{c},{dd}]: entry shape mismatch")
            F[(a, b, c, dd)] = Matrix(
                field, [[scalar_from_json(field, x) for x in row]
                        for row in entries])
        cup = {a: scalar_from_json(field, v)
               for a, v in _mapping(d["cup"], "cup").items()}
        cap = {a: scalar_from_json(field, v)
               for a, v in _mapping(d["cap"], "cap").items()}
        return CategoryPres(field, labels, unit, dualR, fusion, F, cup, cap)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed category file: {exc}") from exc


# ---------------------------------------------------------------------------
# flat index helpers

def flat_pair_basis(cat: CategoryPres, X: Obj, Y: Obj) -> list:
    """Global enumeration [(label, within-label position)] of the fusion
    basis of X (x) Y, labels in presentation order."""
    basis = cat.fusion_basis(X, Y)
    out = []
    for c in sorted(basis, key=lambda a: cat.idx[a]):
        for pos in range(len(basis[c])):
            out.append((c, pos))
    return out


def flat_obj_coords(cat: CategoryPres, X: Obj) -> list:
    out = []
    for a in X.support:
        for i in range(X.mult(a)):
            out.append((a, i))
    return out


def _index(i, size: int, entry) -> int:
    """i, an integer that must lie in range(size)."""
    k = _integer(i, f"index in {entry!r}")
    if not 0 <= k < size:
        raise FormatError(f"index {i!r} in {entry!r} lies outside "
                          f"range({size})")
    return k


def _put_once(block: dict, pos: tuple, x, entry):
    if pos in block:
        raise FormatError(f"entry {entry!r} repeats a position")
    block[pos] = x


def _mor_from_entries(cat, src: Obj, dst: Obj, entries: dict) -> Mor:
    """The morphism with blocks label -> {(row, col): value}."""
    return Mor(cat, src, dst, {
        a: Matrix.from_entries(cat.field, dst.mult(a), src.mult(a),
                               [(r, c, x) for (r, c), x in es.items()])
        for a, es in entries.items()})


def _mor_from_triples(cat, src: Obj, dst: Obj, triples, field,
                      src_flat, dst_flat) -> Mor:
    entries = {a: {} for a in dst.support if src.mult(a)}
    for t in triples:
        if len(t) != 3:
            raise FormatError(f"expected [in, out, scalar], got {t!r}")
        i_in, i_out, sv = t
        a_in, pos_in = src_flat[_index(i_in, len(src_flat), t)]
        a_out, pos_out = dst_flat[_index(i_out, len(dst_flat), t)]
        if a_in != a_out:
            raise FormatError(
                f"entry {t!r} crosses labels {a_in!r} -> {a_out!r}; "
                f"morphism blocks are label-diagonal")
        _put_once(entries[a_out], (pos_out, pos_in),
                  scalar_from_json(field, sv), t)
    return _mor_from_entries(cat, src, dst, entries)


def _mor_to_triples(cat, m: Mor, src_flat, dst_flat) -> list:
    src_pos = {lp: i for i, lp in enumerate(src_flat)}
    dst_pos = {lp: i for i, lp in enumerate(dst_flat)}
    out = []
    for a in sorted(m.blocks, key=lambda x: cat.idx[x]):
        for r, c, x in m.blocks[a].nonzero():
            out.append([src_pos[(a, c)], dst_pos[(a, r)], scalar_to_json(x)])
    return out


# ---------------------------------------------------------------------------
# algebras and modules

def algebra_to_json(A: AlgebraPres) -> dict:
    cat = A.cat
    sq_flat = flat_pair_basis(cat, A.carrier, A.carrier)
    car_flat = flat_obj_coords(cat, A.carrier)
    unit = []
    for e in cat.unit_components:
        blk = A.unit.blocks.get(e)
        if blk is None:
            continue
        for r, _c, x in blk.nonzero():
            unit.append([e, r, scalar_to_json(x)])
    return {
        "carrier": A.carrier.describe(),
        "mult": _mor_to_triples(cat, A.mult, sq_flat, car_flat),
        "unit": unit,
    }


def algebra_from_json(cat: CategoryPres, d) -> AlgebraPres:
    try:
        carrier = _obj(cat, d["carrier"], "carrier")
        sq = cat.tensor(carrier, carrier)
        sq_flat = flat_pair_basis(cat, carrier, carrier)
        car_flat = flat_obj_coords(cat, carrier)
        mult = _mor_from_triples(cat, sq, carrier, d["mult"], cat.field,
                                 sq_flat, car_flat)
        uentries = {}
        for entry in d["unit"]:
            if len(entry) == 2:
                e, sv = entry
                row = 0
            else:
                e, row, sv = entry
            if not cat.is_unit(e):
                raise FormatError(f"unit entry names non-unit label {e!r}")
            _put_once(uentries.setdefault(e, {}),
                      (_index(row, carrier.mult(e), entry), 0),
                      scalar_from_json(cat.field, sv), entry)
        unit = _mor_from_entries(cat, cat.unit_obj(), carrier, uentries)
        return AlgebraPres(cat, carrier, mult, unit)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed algebra file: {exc}") from exc


def module_to_json(m: ModulePres) -> dict:
    cat = m.cat
    if m.side == "right":
        src = cat.tensor(m.carrier, m.algebra.carrier)
        src_flat = flat_pair_basis(cat, m.carrier, m.algebra.carrier)
    else:
        src = cat.tensor(m.algebra.carrier, m.carrier)
        src_flat = flat_pair_basis(cat, m.algebra.carrier, m.carrier)
    car_flat = flat_obj_coords(cat, m.carrier)
    return {
        "carrier": m.carrier.describe(),
        "action": _mor_to_triples(cat, m.action, src_flat, car_flat),
        "side": m.side,
    }


def module_from_json(A: AlgebraPres, d) -> ModulePres:
    cat = A.cat
    try:
        carrier = _obj(cat, d["carrier"], "carrier")
        side = d.get("side", "right")
        if side == "right":
            src = cat.tensor(carrier, A.carrier)
            src_flat = flat_pair_basis(cat, carrier, A.carrier)
        else:
            src = cat.tensor(A.carrier, carrier)
            src_flat = flat_pair_basis(cat, A.carrier, carrier)
        car_flat = flat_obj_coords(cat, carrier)
        action = _mor_from_triples(cat, src, carrier, d["action"], cat.field,
                                   src_flat, car_flat)
        return ModulePres(A, carrier, action, side=side)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed module file: {exc}") from exc


# ---------------------------------------------------------------------------
# reports

def dumps_canonical(obj) -> str:
    """Deterministic JSON: sorted keys, fixed separators, newline at end."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True) + "\n"


REPORT_SCHEMA = {
    "schema_version": "1",
    "type": "object",
    "required": ["schema_version", "field", "carrier", "flags",
                 "oracle_agreement", "budgets"],
    "properties": {
        "schema_version": {"type": "string", "const": "1"},
        "field": {"type": "object",
                  "properties": {"char": {"type": "integer"},
                                 "minpoly": {"type": "array",
                                             "items": {"type": "string"}}}},
        "carrier": {"type": "object",
                    "additionalProperties": {"type": "integer"}},
        "flags": {
            "type": "object",
            "properties": {
                "semisimple": {"type": ["boolean", "string"]},
                "simple": {"type": ["boolean", "string"]},
                "division": {"type": ["boolean", "string"]},
                "separable": {"type": ["boolean", "string"]},
            },
        },
        "dim_A": {"type": ["array", "null"],
                  "items": {"type": "string"},
                  "description": "coefficient vector over the prime field"},
        "matrix_decomposition": {"type": ["object", "null"]},
        "endomorphism_separability": {"type": ["array", "null"]},
        "oracle_agreement": {
            "type": "object",
            "additionalProperties": {"type": ["boolean", "string"]},
        },
        "notes": {"type": "object"},
        "budgets": {"type": "object",
                    "properties": {"search_budget": {"type": "integer"}}},
        "audit": {"type": "object"},
    },
}


def report_schema() -> dict:
    return REPORT_SCHEMA


def save_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(obj))


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
