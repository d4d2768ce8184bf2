"""The pentagon on F entries against the composed pentagon.

`validate_category` reads the pentagon from F entries over the nonzero
fusion channels; `composed_pentagon_reference` composes the five
associators of each quadruple of simples.  Every comparison runs the
whole validation twice, once with each pentagon, on fresh presentations
of the same data, and compares the verdict, the failure message and
`checks_run`.
"""

import json
import random
from itertools import product
from unittest import mock

import pytest

from pentagon_oracle import (composed_pentagon_reference, f_cols_reference,
                             f_rows_reference, rep_a4)
from tensorcat import fincat
from tensorcat.catalog import _finish, make_category, standard_entries
from tensorcat.cli import main
from tensorcat.fields import Field
from tensorcat.fileio import category_to_json
from tensorcat.fincat import CategoryPres, validate_category
from tensorcat.linalg import Matrix

MUTATED = ("z2_twisted", "fibonacci", "ising", "mmf2")


def _data(cat) -> dict:
    return dict(field=cat.field, labels=cat.labels,
                unit=cat.unit_components, dualR=cat.dualR, fusion=cat._N,
                F=cat._F, cup=cat.cup, cap=cat.cap)


def _summary(rep) -> tuple:
    return rep.ok, rep.failures, rep.checks_run


def _both(data: dict) -> tuple:
    """The summaries of `validate_category` with the F-entry pentagon and
    with the composed one, each on its own presentation of `data`."""
    new = validate_category(CategoryPres(**data))
    with mock.patch.object(fincat, "_validate_pentagon",
                           composed_pentagon_reference):
        old = validate_category(CategoryPres(**data))
    return _summary(new), _summary(old)


def _blocks(cat):
    """The stored F blocks, keys in presentation order."""
    return sorted(cat._F.items(),
                  key=lambda kv: tuple(cat.idx[x] for x in kv[0]))


def _replace(m: Matrix, i: int, j: int, x) -> Matrix:
    return Matrix(m.field, [[x if (r, k) == (i, j) else y
                             for k, y in enumerate(m.row(r))]
                            for r in range(m.rows)])


@pytest.mark.parametrize("name", sorted(standard_entries()))
def test_both_pentagons_accept_the_catalog(cats, name):
    new, old = _both(_data(cats[name]))
    assert new == old
    assert new[0]


@pytest.mark.parametrize("n", [5, 6])
def test_both_pentagons_accept_larger_pointed_categories(n):
    new, old = _both(_data(make_category("pointed", {"n": n})))
    assert new == old
    assert new[0]


@pytest.mark.parametrize("name", MUTATED)
def test_one_entry_mutants_get_the_same_report(cats, name):
    # each entry x in turn becomes x + 1 or x + 3: on z2_twisted, -1 + 1
    # makes the block singular and -1 + 3 breaks the pentagon
    cat = cats[name]
    mutants = refused = 0
    for key, m in _blocks(cat):
        for i in range(m.rows):
            for j in range(m.cols):
                for shift in (1, 3):
                    F = dict(cat._F)
                    F[key] = _replace(m, i, j,
                                      m[i, j] + cat.field.scalar(shift))
                    new, old = _both({**_data(cat), "F": F})
                    assert new == old, (key, i, j, shift)
                    mutants += 1
                    refused += any("pentagon" in f for f in new[1])
    assert mutants and refused


def _gauged(cat, rng):
    """F of `cat` in a random unit-normalised gauge: each channel (a, b, c)
    with neither a nor b a unit component scales by a random u(a, b, c),
    and F[a,b,c,d] at (e, f) by u(a,b,e) u(e,c,d) / u(b,c,f) u(a,f,d)."""
    field = cat.field
    u = {}
    for (a, b, c) in cat._N:
        u[(a, b, c)] = (field.one() if cat.is_unit(a) or cat.is_unit(b)
                        else field.scalar(rng.choice([-3, -2, -1, 2, 3, 5])))
    F = {}
    for (a, b, c, d), m in cat._F.items():
        rows = cat.f_rows(a, b, c, d)
        cols = cat.f_cols(a, b, c, d)
        F[(a, b, c, d)] = Matrix(field, [
            [m[r, k] * u[(a, b, e)] * u[(e, c, d)] / (u[(b, c, f)]
                                                      * u[(a, f, d)])
             for k, (f, _, _) in enumerate(cols)]
            for r, (e, _, _) in enumerate(rows)])
    return F


@pytest.mark.parametrize("name", ["fibonacci", "ising"])
@pytest.mark.parametrize("seed", range(4))
def test_gauge_transforms_pass_both_pentagons(cats, name, seed):
    cat = cats[name]
    F = _gauged(cat, random.Random(seed))
    assert F != cat._F
    # the gauge moves the snake scalars: solve cup and cap again
    gauged = _finish(cat.field, cat.labels, cat.unit_components, cat.dualR,
                     cat._N, F)
    new, old = _both(_data(gauged))
    assert new == old
    assert new[0]


def _multiplicity_ring(field, F) -> dict:
    """The fusion ring x^2 = 1 + 2x with the F blocks `F`."""
    one = field.one()
    fusion = {("1", "1", "1"): 1, ("1", "x", "x"): 1, ("x", "1", "x"): 1,
              ("x", "x", "1"): 1, ("x", "x", "x"): 2}
    return dict(field=field, labels=("1", "x"), unit=("1",),
                dualR={"1": "1", "x": "x"}, fusion=fusion, F=F,
                cup={"1": one, "x": one}, cap={"1": one, "x": one})


def _random_invertible(field, n, rng) -> Matrix:
    while True:
        m = Matrix(field, [[field.scalar(rng.randint(-2, 2))
                            for _ in range(n)] for _ in range(n)])
        if m.is_invertible():
            return m


@pytest.mark.parametrize("char", [0, 3])
@pytest.mark.parametrize("seed", range(5))
def test_multiplicity_two_fails_at_the_same_quadruple(char, seed):
    # x^2 = 1 + 2x has no fusion category (Ostrik, Fusion categories of
    # rank 2), so every choice of F fails somewhere.  A quadruple with a
    # unit component holds for any unit-normalised F once the paths are
    # read right, multiplicity indices included, so both checks first
    # fail at (x,x,x,x), the last quadruple.
    field = Field(char)
    rng = random.Random(seed)
    F = {("x", "x", "x", "1"): _random_invertible(field, 2, rng),
         ("x", "x", "x", "x"): _random_invertible(field, 5, rng)}
    new, old = _both(_multiplicity_ring(field, F))
    assert new == old
    assert new[1] == ["pentagon fails at (x,x,x,x)"]
    assert new[2] == 1 + 16 + 16


@pytest.fixture(scope="module")
def a4():
    return rep_a4()


def test_both_pentagons_accept_rep_a4(a4):
    assert a4.N("x", "x", "x") == 2
    new, old = _both(_data(a4))
    assert new == old
    assert new[0]


def test_one_entry_mutants_with_multiplicity_two(a4):
    # the blocks F[x,x,x,d] read both channels x (x) x -> x; a mutant
    # there is seen only on the paths through the channel it changes
    mutants = refused = 0
    for key, m in _blocks(a4):
        if key[:3] != ("x", "x", "x"):
            continue
        for i in range(m.rows):
            for j in range(m.cols):
                F = {**a4._F, key: _replace(m, i, j, m[i, j] + a4.field.one())}
                new, old = _both({**_data(a4), "F": F})
                assert new == old, (key, i, j)
                mutants += 1
                refused += any("pentagon" in f for f in new[1])
    assert mutants == 61 and refused


def _left_paths(cat, a, b, c, d) -> list:
    """The left-associated paths (e, al, f, be, g, ga) of ((a b) c) d,
    read off the fusion bases of the composed objects."""
    AB = cat.tensor(cat.simple(a), cat.simple(b))
    ABC = cat.tensor(AB, cat.simple(c))
    inner = cat.fusion_basis(AB, cat.simple(c))
    return sorted((e, al, f, be, g, ga)
                  for g, lst in cat.fusion_basis(ABC, cat.simple(d)).items()
                  for f, n, _, _, ga in lst
                  for e, al, _, _, be in [inner[f][n]])


@pytest.mark.parametrize("name", ["rep_a4", "ising", "mmf2"])
def test_the_pentagon_visits_every_left_path(a4, cats, monkeypatch, name):
    # the pentagon's equations are redundant, so a check that skipped
    # the paths through one channel index would still refuse the mutants
    cat = a4 if name == "rep_a4" else cats[name]
    holds, seen = fincat._pentagon_holds, {}

    def spy(cat, a, b, c, d, *path):
        seen.setdefault((a, b, c, d), []).append(path[:6])
        return holds(cat, a, b, c, d, *path)

    monkeypatch.setattr(fincat, "_pentagon_holds", spy)
    assert validate_category(CategoryPres(**_data(cat))).ok
    for quadruple in product(cat.labels, repeat=4):
        assert (sorted(seen.get(quadruple, []))
                == _left_paths(cat, *quadruple)), quadruple


# -- the channel table --------------------------------------------------------

@pytest.mark.parametrize("name", sorted(standard_entries()))
def test_paths_match_the_label_scan(cats, name):
    cat = cats[name]
    for a in cat.labels:
        for b in cat.labels:
            for c in cat.labels:
                for d in cat.labels:
                    assert (cat.f_rows(a, b, c, d)
                            == f_rows_reference(cat, a, b, c, d))
                    assert (cat.f_cols(a, b, c, d)
                            == f_cols_reference(cat, a, b, c, d))


def test_paths_match_the_label_scan_with_an_unknown_label():
    # the file loader enumerates paths on an unvalidated presentation,
    # whose fusion table and F keys may name labels it does not have
    Q = Field.rationals()
    fusion = {("e", "e", "e"): 1, ("e", "x", "x"): 1, ("x", "e", "x"): 1,
              ("x", "x", "e"): 1, ("x", "x", "zz"): 1, ("zz", "x", "x"): 2,
              ("x", "zz", "e"): 1, ("zz", "zz", "zz"): 1}
    cat = CategoryPres(Q, ["e", "x"], ["e"], {"e": "e", "x": "x"}, fusion,
                       {}, {}, {})
    names = ["e", "x", "zz"]
    for a in names:
        for b in names:
            for c in names:
                for d in names:
                    assert (cat.f_rows(a, b, c, d)
                            == f_rows_reference(cat, a, b, c, d))
                    assert (cat.f_cols(a, b, c, d)
                            == f_cols_reference(cat, a, b, c, d))
    assert cat.f_rows("zz", "x", "x", "e") == [("x", 0, 0), ("x", 1, 0)]


# -- keys that name no label --------------------------------------------------

def test_stray_keys_are_refused(cats):
    z2 = cats["z2"]
    assert validate_category(CategoryPres(**_data(z2))).checks_run == 35
    zero = Matrix.zeros(z2.field, 0, 0)
    F = {**z2._F, ("zz", "zz", "zz", "zz"): zero}
    rep = validate_category(CategoryPres(**{**_data(z2), "F": F}))
    assert rep.failures == ["F block mentions unknown label: (zz,zz,zz,zz)"]
    for table in ("cup", "cap"):
        data = _data(z2)
        data[table] = {**data[table], "zz": z2.field.one()}
        rep = validate_category(CategoryPres(**data))
        assert rep.failures == [f"{table} coefficient for unknown label 'zz'"]


@pytest.mark.parametrize("stray", ["F", "cup", "cap"])
def test_cli_refuses_stray_keys(cats, tmp_path, capsys, stray):
    blob = category_to_json(cats["z2"])
    if stray == "F":
        blob["F"].append({"abcd": ["zz"] * 4, "rows": [], "cols": [],
                          "entries": []})
    else:
        blob[stray]["zz"] = "1"
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(blob))
    assert main(["validate", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("category: FAIL: ") and "zz" in out
