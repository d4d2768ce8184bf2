"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

They use a few cheap inputs and start at most one child process.
"""

import sys
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

run.import_tensorcat()

CHEAP = ("vec_q/trivial", "z2/regular", "fibonacci/trivial", "vec_q/group2")


@pytest.fixture(scope="module")
def expected():
    return run.load_expected("corpus")


def cheap_inputs():
    return run.build_inputs([s for s in workloads.CORPUS if s.id in CHEAP])


def far_deadline():
    return perf_counter() + 600


def test_traced_and_untraced_reports_are_byte_identical(expected):
    order = list(range(len(CHEAP)))
    plain = run.run_in_process_pass(cheap_inputs(), order, expected,
                                    far_deadline(), [])
    inputs = cheap_inputs()
    tracer = Tracer()
    with tracer:
        traced = run.run_in_process_pass(inputs, order, expected,
                                         far_deadline(), [], tracer)
    assert plain.failures == [] and traced.failures == []
    assert plain.digests == traced.digests
    assert set(plain.digests) == set(CHEAP)
    metrics = tracer.metrics()
    assert metrics["linalg.rref_calls"] > 0
    assert metrics["fields.scalar_ops"] > 0
    assert {s[-1] for s in tracer.spans} == set(CHEAP)


def test_tracer_restores_every_binding():
    import tensorcat.modcat
    import tensorcat.ordalg
    import tensorcat.structure
    from tensorcat.fields import Scalar
    from tensorcat.linalg import Matrix
    before = (tensorcat.structure.radical, tensorcat.modcat.radical,
              tensorcat.ordalg.radical, Matrix.rref, Scalar.__add__)
    tracer = Tracer().install()
    try:
        assert tensorcat.structure.radical is tensorcat.modcat.radical
        assert tensorcat.structure.radical is not before[0]
    finally:
        tracer.uninstall()
    after = (tensorcat.structure.radical, tensorcat.modcat.radical,
             tensorcat.ordalg.radical, Matrix.rref, Scalar.__add__)
    assert after == before


def test_input_past_its_cap_fails_instead_of_hanging(expected, monkeypatch):
    # a cap that is still positive once the input starts, so the alarm has
    # to interrupt an analysis that is already running
    monkeypatch.setattr(run, "INPUT_CAP_S", 0.01)
    inputs = run.build_inputs([s for s in workloads.CORPUS
                               if s.id == "z4/regular"])
    tracer = Tracer()
    with tracer:
        result = run.run_in_process_pass(inputs, [0], expected,
                                         far_deadline(), [], tracer)
    assert [f[0] for f in result.failures] == ["z4/regular"]
    assert "exceeded its cap of 0.01 s" in result.failures[0][1]
    assert result.times[0] < 1.0
    assert any(s[0] == "structure.analyze" for s in tracer.spans)


def test_cli_command_past_its_cap_is_killed(tmp_path):
    spec = next(s for s in workloads.CLI if s.id == "validate/mmf2")
    run.write_cli_files(tmp_path)
    t0 = perf_counter()
    result = run.run_cli_pass([spec], [0], tmp_path,
                              run.load_expected("cli"), perf_counter() + 0.02)
    assert perf_counter() - t0 < 5.0
    assert [f[0] for f in result.failures] == ["validate/mmf2"]
    assert "exceeded" in result.failures[0][1]


def test_seed_changes_order_but_not_digests(expected):
    groups = run.Workload("corpus", None, None).groups
    a = next(run.pass_orders(1, groups))
    b = next(run.pass_orders(2, groups))
    assert a != b and sorted(a) == sorted(b) == list(range(len(a)))
    assert next(run.pass_orders(1, groups)) == a
    for order in (a, b):            # a shared category's inputs are adjacent
        keys = [groups[i] for i in order]
        for key in set(keys):
            pos = [p for p, k in enumerate(keys) if k == key]
            assert pos == list(range(pos[0], pos[0] + len(pos)))
    n = len(CHEAP)
    first = run.run_in_process_pass(cheap_inputs(), list(range(n)),
                                    expected, far_deadline(), [])
    second = run.run_in_process_pass(cheap_inputs(), list(reversed(range(n))),
                                     expected, far_deadline(), [])
    assert first.failures == [] and second.failures == []
    assert first.digests == second.digests


def test_cli_output_checks():
    ok = {"exit": 0, "center_semisimple": True}
    cmd = ("global-dim", "fib.json", "--report", "text")
    assert run.check_cli_output(cmd, ok, 0, "center semisimple: True\n") is None
    assert run.check_cli_output(cmd, ok, 0, "center semisimple: False\n")
    assert run.check_cli_output(cmd, ok, 1, "center semisimple: True\n")
    text = "flags:\n  semisimple: True\n  simple: False\n  division: False\n" \
           "  separable: True\ncriteria:\n  division: False\n"
    assert run._text_flags(text) == [workloads.SPLIT_COMMUTATIVE]
