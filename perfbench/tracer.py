"""Span recorder that measures tensorcat's layers from outside.

`Tracer.install()` wraps public functions and methods of each layer.
A module-level function is rebound in every `tensorcat` module that holds
it by name (``structure`` and ``modcat`` each keep their own binding of
``ordalg.radical``, for example); a method is patched once, on its class.
`Tracer.uninstall()` puts every original back.

A span records name, start, end, parent span and input id.  Spans stay
in memory until `write_jsonl` and `metrics` read them at the end.  Scalar
arithmetic and field comparisons are only counted: a span around each
would cost more than the operation.
"""

import json
import sys
from time import perf_counter

# span name -> [(module, attribute)], or [(module, class, method)]
SPANS = {
    "structure.analyze": [("structure", "analyze")],
    "structure.module_radical": [("structure", "is_semisimple_algebra")],
    "structure.section": [("structure", "is_separable")],
    "structure.bimodule_end": [("modcat", "bimodule_end_algebra")],
    "structure.beta": [("structure", "separability_beta_with_escalation")],
    "structure.division": [("structure", "is_division_algebra")],
    "structure.simple": [("structure", "is_simple_algebra")],
    "structure.alpha": [("structure", "separability_alpha_division")],
    "structure.dim": [("structure", "dim_division_algebra")],
    "structure.decomposition": [("structure", "matrix_decomposition")],
    "structure.endo_report": [("structure",
                               "endomorphism_separability_report")],
    "structure.global_dim": [("structure", "global_dimension")],
    "modcat.end_build": [("modcat", "EndData", "__init__")],
    "modcat.express": [("modcat", "EndData", "express")],
    "modcat.hom_basis": [("modcat", "hom_basis")],
    "modcat.free_bimodule_maps": [("modcat", "free_bimodule_maps")],
    "modcat.simple_modules": [("modcat", "simple_modules")],
    "modcat.internal_hom": [("modcat", "internal_hom")],
    "ordalg.radical": [("ordalg", "radical")],
    "ordalg.charpoly": [("ordalg", "charpoly")],
    "ordalg.idempotents": [("ordalg", "central_idempotents"),
                           ("ordalg", "primitive_idempotent"),
                           ("ordalg", "lift_idempotent")],
    "ordalg.module_is_simple": [("ordalg", "module_is_simple")],
    "linalg.rref": [("linalg", "Matrix", "rref")],
    "linalg.solve": [("linalg", "Matrix", "solve")],
    "linalg.matmul": [("linalg", "Matrix", "__matmul__")],
    "linalg.det_inv": [("linalg", "Matrix", "det"),
                       ("linalg", "Matrix", "inv")],
    "fincat.compose": [("fincat", "Mor", "__matmul__")],
    "fincat.tensor_mor": [("fincat", "CategoryPres", "tensor_mor")],
    "fincat.associator": [("fincat", "CategoryPres", "associator"),
                          ("fincat", "CategoryPres", "associator_inv")],
    "fincat.validate_category": [("fincat", "validate_category")],
    "poly.factor": [("poly", "factor"), ("poly", "is_irreducible")],
    "algebra.validate_algebra": [("algebra", "validate_algebra")],
    "algebra.internal_end": [("algebra", "internal_end")],
    "catalog.build": [("catalog", "make_category"),
                      ("catalog", "make_algebra")],
    "fileio.parse": [("fileio", "load_json"),
                     ("fileio", "category_from_json"),
                     ("fileio", "algebra_from_json")],
    "fileio.dump": [("fileio", "dumps_canonical"), ("fileio", "save_json"),
                    ("fileio", "category_to_json"),
                    ("fileio", "algebra_to_json")],
    "cli.main": [("cli", "main")],
}

# only this module's binding: `structure.is_semisimple` is the bimodule
# radical route of `analyze`, while `ordalg.is_semisimple` serves others
LOCAL_SPANS = {
    "structure.bimodule_radical": ("structure", "is_semisimple"),
}

# counter name -> [(module, class, method)]
COUNTERS = {
    "fields.scalar_ops": [("fields", "Scalar", m) for m in
                          ("__add__", "__sub__", "__neg__", "__mul__",
                           "__truediv__", "inv", "__pow__")],
    "fields.inv_calls": [("fields", "Field", "_inv")],
    "fields.field_eq_calls": [("fields", "Field", "__eq__")],
}

# per-layer metrics: every span name gives <name>_s; these also give calls
CALL_COUNTS = {
    "modcat.end_build": "modcat.end_builds",
    "modcat.express": "modcat.express_calls",
    "modcat.hom_basis": "modcat.hom_basis_calls",
    "ordalg.radical": "ordalg.radical_calls",
    "ordalg.charpoly": "ordalg.charpoly_calls",
    "linalg.rref": "linalg.rref_calls",
    "linalg.solve": "linalg.solve_calls",
    "linalg.matmul": "linalg.matmul_calls",
    "fincat.compose": "fincat.compose_calls",
    "fincat.tensor_mor": "fincat.tensor_mor_calls",
}
SELF_LAYERS = ("structure", "modcat", "ordalg", "linalg", "fincat", "poly",
               "algebra", "catalog", "fileio", "cli")
# counts recorded by the wrappers themselves, besides COUNTERS
EXTRA_COUNTS = ("linalg.rref_cells", "fileio.bytes_out",
                "structure.beta_candidates", "structure.beta_witnesses")


def _module(name):
    return sys.modules[f"tensorcat.{name}"]


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        # (name, start, end, parent index, outermost of its name, input id)
        self.spans = []
        self.counts = dict.fromkeys(
            list(COUNTERS) + list(EXTRA_COUNTS), 0)
        self.input_id = None
        self._stack = []
        self._active = {}
        self._undo = []

    # -- recording ---------------------------------------------------------
    def _span(self, name, fn, on_return=None):
        spans, stack, active = self.spans, self._stack, self._active

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            depth = active.get(name, 0)
            active[name] = depth + 1
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(args, out)
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                active[name] = depth
                spans[idx] = (name, t0, t1, parent, depth == 0, self.input_id)
        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_rref_cells(self, args, _out):
        m = args[0]
        self.counts["linalg.rref_cells"] += m.rows * m.cols

    def _count_bytes(self, _args, out):
        if isinstance(out, str):
            self.counts["fileio.bytes_out"] += len(out.encode())

    def _count_beta(self, _args, report):
        beta = report.get("notes", {}).get("beta", {})
        self.counts["structure.beta_candidates"] += beta.get("tested", 0)
        self.counts["structure.beta_witnesses"] += "witness" in beta

    # -- patching ----------------------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname == "tensorcat" or modname.startswith("tensorcat."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        import tensorcat.cli  # noqa: F401  (loads every layer)
        hooks = {"linalg.rref": self._count_rref_cells,
                 "fileio.dump": self._count_bytes,
                 "structure.analyze": self._count_beta}
        for name, targets in SPANS.items():
            for target in targets:
                if len(target) == 3:
                    cls = getattr(_module(target[0]), target[1])
                    fn = vars(cls)[target[2]]
                    self._set(cls, target[2],
                              self._span(name, fn, hooks.get(name)))
                else:
                    fn = getattr(_module(target[0]), target[1])
                    self._rebind_everywhere(
                        fn, self._span(name, fn, hooks.get(name)))
        for name, (modname, attr) in LOCAL_SPANS.items():
            mod = _module(modname)
            self._set(mod, attr, self._span(name, getattr(mod, attr)))
        for key, targets in COUNTERS.items():
            for modname, clsname, meth in targets:
                cls = getattr(_module(modname), clsname)
                self._set(cls, meth, self._counter(key, vars(cls)[meth]))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- output ------------------------------------------------------------
    def absorb(self, data):
        """Append spans and counts recorded by another process."""
        base = len(self.spans)
        for span in data["spans"]:
            if span is not None:
                name, t0, t1, parent, outer, input_id = span
                span = (name, t0, t1, parent + base if parent >= 0 else -1,
                        outer, input_id)
            self.spans.append(span)
        for key, value in data["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}

    def write_jsonl(self, path):
        keys = ("name", "start", "end", "parent", "outermost", "input")
        with open(path, "w", encoding="utf-8") as fh:
            for idx, span in enumerate(self.spans):
                if span is not None:
                    rec = {"id": idx, **dict(zip(keys, span))}
                    fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")

    def metrics(self) -> dict:
        """Per-layer numbers: inclusive time of each span name (outermost
        calls only, so recursion is not counted twice), call counts, and
        self time per layer (span time minus its child spans)."""
        total = dict.fromkeys(list(SPANS) + list(LOCAL_SPANS), 0.0)
        calls = dict.fromkeys(total, 0)
        # a span stays None when a time cap interrupts it before it starts
        spans = [(i, s) for i, s in enumerate(self.spans) if s is not None]
        child = [0.0] * len(self.spans)
        for _idx, (name, t0, t1, parent, outer, _input) in spans:
            calls[name] += 1
            if outer:
                total[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        self_time = dict.fromkeys(SELF_LAYERS, 0.0)
        for idx, (name, t0, t1, *_rest) in spans:
            layer = name.split(".", 1)[0]
            if layer in self_time:
                self_time[layer] += (t1 - t0) - child[idx]
        out = {f"{name}_s": t for name, t in total.items()
               if name != "structure.analyze"}
        out.update({metric: calls[name] for name, metric in CALL_COUNTS.items()})
        out.update({f"{layer}.self_s": t for layer, t in self_time.items()})
        out.update({k: v for k, v in self.counts.items()
                    if k != "structure.beta_witnesses"})
        tested = self.counts["structure.beta_candidates"]
        out["structure.beta_useful_ratio"] = (
            self.counts["structure.beta_witnesses"] / tested if tested else 0.0)
        return out
