"""Every committed `BENCH_*.json` is a complete benchmark record.

A record compares a parent tree with a change on the workloads of
`BENCHMARK.json`: `pairs` maps a workload to runs of both sides, each
side carrying every end-to-end metric.  A run that failed an input shows
as an `ok_share` below 1, and a `correct` flag, wherever one is
recorded, must be true.  A claimed gain names one workload and
end-to-end metric, on which the change won at least 9 of at least 10
pairs.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
METRICS = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _flags(node):
    """Every value recorded under a key `correct`, at any depth."""
    if isinstance(node, dict):
        for k, v in node.items():
            if k == "correct":
                yield v
            yield from _flags(v)
    elif isinstance(node, list):
        for v in node:
            yield from _flags(v)


def _won(side, other, better):
    return side < other if better == "lower" else side > other


def test_the_records_are_found():
    assert len(RECORDS) >= 13
    assert len(METRICS) == 6


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_is_complete(path):
    rec = json.loads(path.read_text())
    for key in ("parent", "command", "conditions", "claim", "pairs"):
        assert key in rec, key
    assert rec["pairs"] and set(rec["pairs"]) <= WORKLOADS
    for workload, pairs in rec["pairs"].items():
        assert pairs, workload
        for pair in pairs:
            for side in ("parent", "change"):
                assert set(METRICS) <= set(pair[side]), (workload, side)
                assert pair[side]["ok_share"] == 1.0, (workload, side)
    assert all(flag is True for flag in _flags(rec))


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_claim_is_won_on_nine_of_ten_pairs(path):
    rec = json.loads(path.read_text())
    claim = rec["claim"]
    if claim == "none":
        return
    workload, metric = claim.split("/")
    assert workload in WORKLOADS and metric in METRICS, claim
    pairs = rec["pairs"][workload]
    wins = sum(_won(p["change"][metric], p["parent"][metric],
                    METRICS[metric]) for p in pairs)
    assert len(pairs) >= 10 and wins >= 9, (claim, wins, len(pairs))
