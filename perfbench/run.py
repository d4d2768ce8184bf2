#!/usr/bin/env python3
"""tensorcat benchmark: time to a verdict, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 22 --trace 0

A run sets up its workload (imports, catalog construction and, for `cli`,
the input JSON files), then runs whole passes over the inputs in an order
drawn from the seed.  It starts another pass only while the previous
pass's time still fits in --seconds, so a run always makes at least one
pass.  Every pass checks each input's flags against a hand-made table and
its canonical report against the SHA-256 digest recorded in
`expected.json`; a mismatch, an exception, a wrong exit code or an input
past its time cap counts as a failed input, and the pass goes on.

Times are corrected for host-speed drift (see hostspeed.py); the raw
times are printed on the line before the result.  With --trace 0 the last
line holds the end-to-end metrics.  With --trace 1 the run makes one
untraced pass and one traced pass and the last line holds the per-layer
metrics; the spans go to `.perfbench/trace-<workload>-seed<seed>.jsonl`.
"""

import argparse
import ctypes
import gc
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

T_START = perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"

sys.path.insert(0, str(HERE))
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

INPUT_CAP_S = 60.0       # one input (all its commands) may take this long
RUN_DEADLINE_S = 170.0   # no input starts past this point of a run
SETUP_PROBES = 4         # fresh-interpreter set-ups timed per run
STARTUP_PROBES = 5       # interpreter starts timed for cli.startup_s


try:
    _malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
except (OSError, AttributeError):      # not glibc
    _malloc_trim = None


def settle():
    """Collect the garbage the last input left and hand freed heap back
    to the system, so that the next input's time and the peak memory
    depend less on which input ran before it."""
    gc.collect()
    if _malloc_trim is not None:
        _malloc_trim(0)


class CapExceeded(BaseException):
    """Raised by the alarm inside an input that ran past its cap.  Not an
    Exception, so no handler in the library swallows it."""


class SetupError(Exception):
    pass


@dataclass
class Pass:
    by_input: dict = field(default_factory=dict)     # id -> corrected s
    raw_times: list = field(default_factory=list)    # measured seconds
    failures: list = field(default_factory=list)     # (input id, reason)
    digests: dict = field(default_factory=dict)      # input id -> sha256

    @property
    def times(self):
        return list(self.by_input.values())

    @property
    def wall(self):
        return sum(self.by_input.values())

    def add_time(self, input_id, samples, t0, t1):
        self.raw_times.append(t1 - t0)
        self.by_input[input_id] = (t1 - t0) * hostspeed.factor(samples, t0, t1)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("TENSORCAT_BUDGET", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def _remaining(deadline):
    return min(INPUT_CAP_S, deadline - perf_counter())


@contextmanager
def time_cap(seconds):
    def on_alarm(_signum, _frame):
        raise CapExceeded()
    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def import_tensorcat():
    """Import the package from this checkout's `src`, never another copy."""
    if not (SRC / "tensorcat" / "__init__.py").is_file():
        raise SetupError(f"no tensorcat sources under {SRC}")
    os.environ.pop("TENSORCAT_BUDGET", None)
    sys.path.insert(0, str(SRC))
    import tensorcat
    if Path(tensorcat.__file__).resolve().parent != SRC / "tensorcat":
        raise SetupError(f"imported tensorcat from {tensorcat.__file__}")
    import tensorcat.cli  # noqa: F401  (every layer, as the CLI loads them)
    return tensorcat


# ---------------------------------------------------------------------------
# in-process workloads

def build_inputs(specs, shared=True):
    """(spec, category, algebra) for each spec.  With `shared`, specs that
    name the same category get the same category object."""
    from tensorcat.catalog import make_algebra, make_category
    cats = {}
    out = []
    for spec in specs:
        key = repr(spec.category) if shared else spec.id
        if key not in cats:
            name, params = spec.category
            cats[key] = make_category(name, dict(params))
        name, params = spec.algebra
        out.append((spec, cats[key], make_algebra(cats[key], name,
                                                  dict(params))))
    return out


def run_in_process_pass(inputs, order, expected, deadline, samples,
                        tracer=None):
    """Analyze each input in `order`; `samples` is the running sampler's
    list, read to correct each input's time."""
    from tensorcat.fileio import dumps_canonical
    from tensorcat.structure import analyze
    result = Pass()
    for idx in order:
        # drop each input once analysed, so that what stays alive, and so
        # the peak memory, depends little on the order
        spec, cat, alg = inputs[idx]
        inputs[idx] = None
        if tracer is not None:
            tracer.input_id = spec.id
        settle()
        cap = _remaining(deadline)
        reason = None
        t0 = perf_counter()
        try:
            if cap <= 0:
                raise CapExceeded()
            with time_cap(cap):
                text = dumps_canonical(analyze(cat, alg))
        except CapExceeded:
            reason = f"exceeded its cap of {cap:.3g} s"
        except Exception:                      # the pass goes on
            reason = "raised:\n" + traceback.format_exc()
        t1 = perf_counter()
        cat = alg = None
        hostspeed.take_samples(samples, 2)     # in case no timer sample fell
        result.add_time(spec.id, samples, t0, t1)
        if reason is None:
            digest = _sha256(text.encode())
            result.digests[spec.id] = digest
            reason = check_report(spec, json.loads(text), digest, expected)
        if reason is not None:
            result.failures.append((spec.id, reason))
    return result


def check_report(spec, report, digest, expected):
    if report["flags"] != spec.flags:
        return f"flags {report['flags']} differ from {spec.flags}"
    return check_digest(spec.id, digest, expected)


def check_digest(input_id, digest, expected):
    if input_id not in expected:
        return "no recorded digest"
    if digest != expected[input_id]:
        return f"report digest {digest} differs from the recorded one"
    return None


# ---------------------------------------------------------------------------
# the cli workload

def write_cli_files(workdir: Path):
    """Write every category and algebra file the cli commands read."""
    from tensorcat.catalog import make_algebra, make_category
    from tensorcat.fileio import algebra_to_json, category_to_json, save_json
    workdir.mkdir(parents=True, exist_ok=True)
    cats = {}
    for stem, (first, second) in workloads.CLI_FILES.items():
        if isinstance(second, dict):            # (category name, params)
            cats[stem] = make_category(first, dict(second))
            doc = category_to_json(cats[stem])
        else:                                   # (category stem, algebra)
            name, params = second
            doc = algebra_to_json(make_algebra(cats[first], name,
                                               dict(params)))
        save_json(str(workdir / f"{stem}.json"), doc)


def _word(text):
    return {"True": True, "False": False}.get(text, text)


def _text_flags(out: str) -> list:
    lines = out.splitlines()
    tables = []
    for i, line in enumerate(lines):
        if line == "flags:":
            rows = [ln.split(":", 1) for ln in lines[i + 1:i + 5]]
            tables.append({k.strip(): _word(v.strip()) for k, v in rows})
    return tables


def _text_value(out: str, prefix: str):
    for line in out.splitlines():
        if line.startswith(prefix):
            return _word(line[len(prefix):].strip())
    return None


def check_cli_output(cmd, expect, returncode, stdout: str):
    """None if the command's exit code and output match `expect`."""
    if returncode != expect["exit"]:
        return f"exit code {returncode}, expected {expect['exit']}"
    as_json = cmd[-2:] == ("--report", "json")
    docs = ([json.loads(ln) for ln in stdout.splitlines() if ln]
            if as_json else None)
    if "flags" in expect:
        got = [d["flags"] for d in docs] if as_json else _text_flags(stdout)
        if got != expect["flags"]:
            return f"flags {got} differ from {expect['flags']}"
    if "center_semisimple" in expect:
        got = (docs[0]["center_semisimple"] if as_json
               else _text_value(stdout, "center semisimple:"))
        if got != expect["center_semisimple"]:
            return f"center_semisimple {got}"
    if "object_identity" in expect:
        got = (docs[0]["matrix_decomposition"]["object_identity_holds"]
               if as_json else _text_value(stdout, "object identity holds:"))
        if got != expect["object_identity"]:
            return f"object identity {got}"
    return None


def run_cli_pass(specs, order, workdir, expected, deadline, tracer=None):
    """Each command in a fresh `child.py` process; its host-speed samples
    and, when `tracer` is given, its spans come back in a file."""
    env = _child_env()
    samples = []
    result = Pass()
    out_file = workdir / ".child-out.json"
    for idx in order:
        spec = specs[idx]
        for name in spec.writes:
            (workdir / name).unlink(missing_ok=True)
        outputs = []
        reason = None
        hostspeed.take_samples(samples, 2)     # in case no child sample came
        t0 = perf_counter()
        for cmd, expect in zip(spec.commands, spec.expect):
            cap = min(_remaining(deadline), INPUT_CAP_S - (perf_counter() - t0))
            if cap <= 0:
                reason = "exceeded its cap before the command started"
                break
            argv = [sys.executable, str(HERE / "child.py"), "--out",
                    str(out_file)]
            if tracer is not None:
                argv += ["--trace", spec.id]
            out_file.unlink(missing_ok=True)
            try:
                proc = subprocess.run(argv + ["--"] + list(cmd), cwd=workdir,
                                      env=env, capture_output=True,
                                      timeout=cap)
            except subprocess.TimeoutExpired:
                reason = f"exceeded its cap of {cap:.3g} s"
                break
            if out_file.exists():
                with open(out_file, encoding="utf-8") as fh:
                    child = json.load(fh)
                samples += map(tuple, child["samples"])
                if tracer is not None and child["trace"]:
                    tracer.absorb(child["trace"])
            outputs.append(proc.stdout)
            reason = check_cli_output(cmd, expect, proc.returncode,
                                      proc.stdout.decode())
            if reason is not None:
                reason += "; stderr: " + proc.stderr.decode()[-2000:]
                break
        result.add_time(spec.id, samples, t0, perf_counter())
        if reason is None:
            outputs += [(workdir / name).read_bytes() for name in spec.writes]
            digest = _sha256(b"".join(outputs))
            result.digests[spec.id] = digest
            reason = check_digest(spec.id, digest, expected)
        if reason is not None:
            result.failures.append((spec.id, reason))
    return result


# ---------------------------------------------------------------------------
# one workload

class Workload:
    """Set-up and passes of one named workload."""

    def __init__(self, name, workdir: Path, sampler):
        self.name = name
        self.workdir = workdir
        self.sampler = sampler
        self.specs = (workloads.CLI if name == "cli"
                      else workloads.IN_PROCESS[name])
        self.shared = workloads.SHARED_CATEGORIES.get(name, False)
        # inputs that share a category run next to each other, so that one
        # category's caches at most are alive while another's are built
        self.groups = [repr(s.category) if self.shared else s.id
                       for s in self.specs]
        self.inputs = None

    def setup(self):
        if self.name == "cli":
            write_cli_files(self.workdir)
        else:
            self.prepare()

    def prepare(self):
        """Fresh categories and algebras for the next pass, so that no pass
        reuses what an earlier one left in the categories' caches.  Every
        cli command starts cold anyway."""
        if self.name != "cli" and self.inputs is None:
            self.inputs = build_inputs(self.specs, self.shared)

    def run_pass(self, order, expected, deadline, tracer=None):
        if self.name == "cli":
            return run_cli_pass(self.specs, order, self.workdir, expected,
                                deadline, tracer)
        inputs, self.inputs = self.inputs, None
        return run_in_process_pass(inputs, order, expected, deadline,
                                   self.sampler.samples, tracer)


def calibrate() -> float:
    """The host-drift reading: 200 runs of the fixed host-speed kernel."""
    samples = []
    hostspeed.take_samples(samples, 200)
    return sum(d for _t, d in samples)


def _probe_times(argv, count) -> list:
    """Wall time of `count` fresh processes running argv."""
    out = []
    for _ in range(count):
        t0 = perf_counter()
        subprocess.run(argv, env=_child_env(), check=True,
                       stdout=subprocess.DEVNULL)
        out.append(perf_counter() - t0)
    return out


def setup_probes(workload, count) -> list:
    """(corrected, raw) set-up times of `count` fresh interpreters, as each
    one measured itself."""
    out = []
    for k in range(count):
        probe_dir = workload.workdir.parent / f"{workload.workdir.name}-probe{k}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload.name, "--workdir", str(probe_dir)],
            env=_child_env(), check=True, capture_output=True)
        shutil.rmtree(probe_dir, ignore_errors=True)
        out.append(tuple(json.loads(proc.stdout.decode().splitlines()[-1])))
    return out


def cli_startup_s() -> float:
    """Interpreter start plus `import tensorcat.cli`, minus a bare start."""
    bare = _probe_times([sys.executable, "-c", "pass"], STARTUP_PROBES)
    full = _probe_times([sys.executable, "-c", "import tensorcat.cli"],
                        STARTUP_PROBES)
    return statistics.median(full) - statistics.median(bare)


def load_expected(name):
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh).get(name, {})


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "fileio.bytes_out":
        return "bytes"
    return "count"


def pass_orders(seed, groups):
    """The input order of each pass, drawn from the seed.  `groups` holds
    a key per input; inputs with the same key stay next to each other, and
    both the groups and the inputs inside each group are shuffled."""
    rng = random.Random(seed)
    members = {}
    for idx, key in enumerate(groups):
        members.setdefault(key, []).append(idx)
    blocks = list(members.values())
    while True:
        rng.shuffle(blocks)
        order = []
        for block in blocks:
            rng.shuffle(block)
            order += block
        yield order


def measure(workload, seed, seconds, deadline, expected):
    """Untraced passes until --seconds is used, and the peak memory."""
    passes = []
    t_measure = perf_counter()
    for order in pass_orders(seed, workload.groups):
        workload.prepare()
        passes.append(workload.run_pass(order, expected, deadline))
        last = sum(passes[-1].raw_times)
        if perf_counter() - t_measure + last > seconds \
                or perf_counter() + last > deadline:
            break
    if workload.name == "cli":
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return passes, peak_kib / 1024


def measure_traced(workload, seed, deadline, expected):
    """One untraced pass, then the same order traced; the per-layer metrics."""
    order = next(pass_orders(seed, workload.groups))
    workload.prepare()
    plain = workload.run_pass(order, expected, deadline)
    workload.prepare()
    tracer = Tracer()
    if workload.name == "cli":          # the spans are recorded in children
        traced = workload.run_pass(order, expected, deadline, tracer)
    else:
        with tracer:
            traced = workload.run_pass(order, expected, deadline, tracer)
    for input_id, digest in plain.digests.items():
        if traced.digests.get(input_id) not in (None, digest):
            traced.failures.append(
                (input_id, "traced report differs from the untraced one"))
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = traced.wall / plain.wall
    metrics["cli.startup_s"] = (cli_startup_s() if workload.name == "cli"
                                else 0.0)
    return [plain, traced], metrics, tracer


def input_times(passes) -> dict:
    """Each input's corrected time: its median over the passes."""
    return {k: statistics.median(p.by_input[k] for p in passes)
            for k in sorted(passes[0].by_input)}


def end_to_end(passes, setups, peak_mib) -> dict:
    """wall_s is the median over passes; input_p50_s and input_max_s are
    the median and the maximum of `input_times`."""
    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    med = statistics.median
    per_input = input_times(passes).values()
    return {
        "wall_s": _metric(med(p.wall for p in passes), "s"),
        "input_p50_s": _metric(med(per_input), "s"),
        "input_max_s": _metric(max(per_input), "s"),
        "setup_s": _metric(med(s for s, _raw in setups), "s"),
        "peak_rss_mib": _metric(peak_mib, "MiB"),
        "ok_share": _metric((attempted - failed) / attempted, "ratio"),
    }


def run(args, sampler) -> int:
    tensorcat = import_tensorcat()
    OUT.mkdir(exist_ok=True)
    workdir = Path(args.workdir) if args.workdir else \
        OUT / f"work-{args.workload}-{os.getpid()}"
    workload = Workload(args.workload, workdir, sampler)
    setup_tracer = Tracer().install() if args.trace else None
    try:
        try:
            workload.setup()
        finally:
            if setup_tracer is not None:
                setup_tracer.uninstall()
        t_ready = perf_counter()
        sampler.burst(8)
        raw = t_ready - T_START
        setup = (raw * hostspeed.factor(sampler.samples, T_START, t_ready), raw)
        if args.setup_probe:
            print(json.dumps(setup))
            return 0
        return measure_and_report(args, tensorcat, workload, setup,
                                  setup_tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_and_report(args, tensorcat, workload, setup, setup_tracer):
    expected = load_expected(args.workload)
    deadline = T_START + RUN_DEADLINE_S
    context = {"workload": args.workload, "seed": args.seed,
               "python": sys.version.split()[0], "cores": os.cpu_count(),
               "tensorcat": tensorcat.__version__,
               "inputs_per_pass": len(workload.specs),
               "calibration_s": [calibrate()]}
    if args.trace:
        passes, layer, tracer = measure_traced(workload, args.seed, deadline,
                                               expected)
        setup_layer = setup_tracer.metrics()
        for key in ("catalog.build_s", "catalog.self_s"):
            layer[key] += setup_layer[key]
        tracer.write_jsonl(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        metrics = {k: _metric(v, _unit(k)) for k, v in sorted(layer.items())}
    else:
        passes, peak_mib = measure(workload, args.seed, args.seconds,
                                   deadline, expected)
        setups = [setup] + setup_probes(workload, SETUP_PROBES)
        context["setup_s"] = [s for s, _raw in setups]
        context["raw_setup_s"] = [raw for _s, raw in setups]
        metrics = end_to_end(passes, setups, peak_mib)
    context["calibration_s"].append(calibrate())
    context["passes"] = len(passes)
    context["wall_s"] = [p.wall for p in passes]
    context["raw_wall_s"] = [sum(p.raw_times) for p in passes]
    context["input_s"] = input_times(passes)
    failures = [f for p in passes for f in p.failures]
    for input_id, reason in failures:
        sys.stderr.write(f"FAILED {args.workload}/{input_id}: {reason}\n")
    attempted = sum(len(p.times) for p in passes)
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=22.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    sampler = hostspeed.Sampler().start()
    try:
        return run(parse_args(argv), sampler)
    except SetupError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        sampler.stop()


if __name__ == "__main__":
    sys.exit(main())
