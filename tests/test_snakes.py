"""The snake loops on F entries against the composed snakes.

`CategoryPres._snake_loops` reads each right snake of a label at
cup = cap = 1 as one F entry; `snake1_scalar` and `snake2_scalar` in
`pentagon_oracle` compose its five maps as `Mor`s.  The comparisons run
on the catalog, on Z/3 with a cocycle of order three over Q(w), on
Rep(A_4) (labels that are not self-dual, a fusion multiplicity two) and
on the 3 x 3 matrix multi-fusion category (nine unit sectors).  The
snake check of `validate_category` is compared with the composed one on
cup/cap mutants of whole presentations, and on its own on F mutants
that the pentagon would refuse first.
"""

import functools
import json
from itertools import permutations
from unittest import mock

import pytest

from pentagon_oracle import (composed_left_pair, composed_snakes_reference,
                             rep_a4, snake1_scalar, snake2_scalar,
                             z3_order_three)
from tensorcat import fincat
from tensorcat.catalog import make_category, standard_entries
from tensorcat.cli import main
from tensorcat.fileio import category_to_json
from tensorcat.fincat import (CategoryPres, SnakeUnsolvable,
                              ValidationReport, validate_category)
from tensorcat.linalg import Matrix

MUTATED = ("fibonacci", "ising", "mmf2")


@functools.cache
def _extra() -> dict:
    return {"z3_w": z3_order_three(), "rep_a4": rep_a4(),
            "mmf3": make_category("matrix_multifusion", {"n": 3})}


def _cat(cats, name):
    return cats[name] if name in cats else _extra()[name]


NAMES = sorted(standard_entries()) + ["z3_w", "rep_a4", "mmf3"]


def _data(cat) -> dict:
    return dict(field=cat.field, labels=cat.labels,
                unit=cat.unit_components, dualR=cat.dualR, fusion=cat._N,
                F=cat._F, cup=cat.cup, cap=cat.cap)


def _summary(rep) -> tuple:
    return rep.ok, rep.failures, rep.checks_run


def test_the_cocycle_has_order_three():
    # F[g1, g2, g1, g1] = w: the loop of g1 is not a sign
    cat = _extra()["z3_w"]
    w = cat.field.gen()
    assert cat._snake_loops("g1")[0] == cat.field.one() / w


@pytest.mark.parametrize("name", NAMES)
def test_loops_equal_the_composed_snakes(cats, name):
    cat = _cat(cats, name)
    field = cat.field
    one, two, three = (field.scalar(k) for k in (1, 2, 3))
    for a in cat.labels:
        loop1, loop2 = cat._snake_loops(a)
        for cup, cap in ((cat.cup[a], cat.cap[a]), (one, one), (two, -three)):
            assert cup * cap * loop1 == snake1_scalar(cat, a, cup, cap)
            assert cup * cap * loop2 == snake2_scalar(cat, a, cup, cap)


@pytest.mark.parametrize("name", NAMES)
def test_left_pair_equals_the_composed_one(cats, name):
    cat = _cat(cats, name)
    for a in cat.labels:
        assert cat._left_pair(a) == composed_left_pair(cat, a)


def _both(data: dict) -> tuple:
    """The summaries of `validate_category` with the F-entry snakes and
    with the composed ones, each on its own presentation of `data`."""
    new = validate_category(CategoryPres(**data))
    with mock.patch.object(fincat, "_validate_snakes",
                           composed_snakes_reference):
        old = validate_category(CategoryPres(**data))
    return _summary(new), _summary(old)


def _cup_cap_mutants(cat):
    """The data of `cat` with cap * 2, cup -> -cup, cap -> 0 or no cap at
    one label, each in turn."""
    zero, two = cat.field.zero(), cat.field.scalar(2)
    for a in cat.labels:
        for table, f in (("cap", lambda x: x * two), ("cup", lambda x: -x),
                         ("cap", lambda x: zero), ("cap", None)):
            data = _data(cat)
            data[table] = dict(data[table])
            if f is None:
                del data[table][a]
            else:
                data[table][a] = f(data[table][a])
            yield data


@pytest.mark.parametrize("name", MUTATED)
def test_cup_cap_mutants_get_the_same_report(cats, name):
    cat = cats[name]
    new, old = _both(_data(cat))
    assert new == old and new[0]
    messages = set()
    for data in _cup_cap_mutants(cat):
        new, old = _both(data)
        assert new == old
        assert not new[0]
        messages.add(new[1][0].split(" at ")[0].split(" for ")[0])
    assert messages == {"right snake (1) fails", "missing cup/cap coefficient"}


def _snakes_alone(data: dict) -> tuple:
    """Both snake checks on their own, each on a fresh presentation."""
    out = []
    for check in (fincat._validate_snakes, composed_snakes_reference):
        rep = ValidationReport("category")
        check(CategoryPres(**data), rep)
        out.append(_summary(rep))
    return tuple(out)


def _f_mutants(cat):
    """Each stored F entry x -> x + 1 and x -> 0 where the block stays
    invertible, with the presentation's cup/cap and with cup = 1 and each
    cap solved from the mutant's first loop (so the second loop decides)."""
    zero, one = cat.field.zero(), cat.field.one()
    for key, m in sorted(cat._F.items(),
                         key=lambda kv: tuple(cat.idx[x] for x in kv[0])):
        for i, j, y in ((i, j, y) for i in range(m.rows)
                        for j in range(m.cols)
                        for y in (m[i, j] + one, zero)):
            m2 = Matrix(m.field, [[y if (r, k) == (i, j) else x
                                   for k, x in enumerate(m.row(r))]
                                  for r in range(m.rows)])
            if not m2.is_invertible():
                continue
            data = _data(cat)
            data["F"] = {**cat._F, key: m2}
            yield data
            loops = CategoryPres(**data)._snake_loops
            first = {a: loops(a)[0] for a in cat.labels}
            if not any(x.is_zero() for x in first.values()):
                yield {**data, "cup": {a: one for a in cat.labels},
                       "cap": {a: one / first[a] for a in cat.labels}}


F_MUTATED = ("z2_twisted", "fibonacci", "ising", "z3_w")


def test_f_mutants_get_the_same_snake_report(cats):
    messages = set()
    for name in F_MUTATED:
        for data in _f_mutants(_cat(cats, name)):
            new, old = _snakes_alone(data)
            assert new == old
            if not new[0]:
                messages.add(new[1][0].split(" fails")[0])
    assert messages == {"right snake (1)", "right snake (2)"}


def _left_pairs(cat, pair) -> list:
    """`pair(a)` for each label a, or the message of its refusal."""
    out = []
    for a in cat.labels:
        try:
            out.append(pair(a))
        except SnakeUnsolvable as exc:
            out.append(str(exc))
    return out


def test_f_mutants_get_the_same_left_pair(cats):
    refusals = set()
    for name in F_MUTATED:
        for data in _f_mutants(_cat(cats, name)):
            cat, ref = CategoryPres(**data), CategoryPres(**data)
            new = _left_pairs(cat, cat._left_pair)
            assert new == _left_pairs(ref,
                                      lambda a: composed_left_pair(ref, a))
            refusals |= {x.split(": ")[1] for x in new if isinstance(x, str)}
    # both refusals of the left pair are reached
    assert refusals == {"degenerate cup/cap loop",
                        "snake equations inconsistent"}


def _involutions(labels):
    for p in permutations(labels):
        d = dict(zip(labels, p))
        if all(d[d[a]] == a for a in labels):
            yield d


@pytest.mark.parametrize("name", ["z3", "z4", "ising", "mmf2"])
def test_validate_refuses_every_wrong_duality(tmp_path, capsys, cats, name):
    cat = cats[name]
    blob = category_to_json(cat)
    path = tmp_path / "cat.json"
    wrong = 0
    for dual in _involutions(list(cat.labels)):
        path.write_text(json.dumps({**blob, "dualR": dual}))
        rc = main(["validate", str(path)])
        out = capsys.readouterr().out
        if dual == cat.dualR:
            assert (rc, out) == (0, f"category: pass "
                                    f"({cat.validation().checks_run} "
                                    f"checks)\n")
        else:
            wrong += 1
            assert rc == 1 and out.startswith("category: FAIL: "), out
    assert wrong == {"z3": 3, "z4": 9, "ising": 3, "mmf2": 9}[name]
