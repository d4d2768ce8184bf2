"""Command-line front end.

Exit codes: 0 success; 1 invalid input data (parse or validation
failures, bad flags); 2 analysis completed but some verdict is
undetermined; 3 internal error (a bug, never expected on valid data).

No library exception ends in a traceback.  Exit 1, the input is at
fault: `FieldError`, `NotFusion`, `NotSemisimpleAlgebra`,
`InseparableExtension`.  Exit 2, a bounded search gave up:
`SeparatingElementNotFound` (no element among the candidates searched
splits a non-commutative simple block, as for the split quaternion
algebra (13, 13) = M_2(Q) in vec; never guessed),
`DegreeTooLarge` (a minimal polynomial whose rational factorization
passes degree 12, a stated limit of the factorizer).  Exit 3, the
engine is at fault: `OracleDisagreement`, `LinAlgError` (with
`SingularMatrix`), `PreconditionViolated` (a criterion run outside its
domain), any other `OrdAlgebraError` or `PolynomialError`.

The environment variable TENSORCAT_BUDGET overrides the deterministic
search budgets (default 4096 candidate evaluations).  It is checked
before any command runs: a value that is not an integer exits 1, and
integers below 1 count as 1.
"""

import argparse
import math
import sys

from .catalog import UnknownEntry, make_algebra, standard_entries
from .fields import Embedding, FieldError, NotAnEmbedding
from .fincat import ValidationFailure
from .fileio import (FormatError, algebra_from_json, algebra_to_json,
                     category_from_json, category_to_json, dumps_canonical,
                     field_from_json, load_json, report_schema, save_json)
from .linalg import LinAlgError
from .ordalg import OrdAlgebraError, SeparatingElementNotFound
from .poly import DegreeTooLarge, PolynomialError
from .structure import (InseparableExtension, NotFusion, NotSemisimpleAlgebra,
                        OracleDisagreement, PreconditionViolated, analyze,
                        base_extend_algebra, global_dimension,
                        matrix_decomposition, search_budget)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNDETERMINED = 2
EXIT_DISAGREEMENT = 3


class CLIError(Exception):
    pass


# what reading an input file raises when the file is at fault
_FILE_ERRORS = (OSError, ValueError, FormatError, FieldError,
                ValidationFailure)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CLIError(message)


def _approximate(scalar) -> str | None:
    """Decimal rendering under every real embedding of the field; for
    human readers only, the engine never touches floats.  None where a
    coefficient does not fit a float or a value comes out non-finite."""
    field = scalar.field
    if field.char != 0:
        return None
    try:
        coeffs = [float(c) for c in scalar.c]
        mp = [float(c) for c in field.minpoly or ()]
    except OverflowError:
        return None
    if field.minpoly is None:
        return f"{coeffs[0]:.6g}"

    def f(x):
        acc = 0.0
        for c in reversed(mp):
            acc = acc * x + c
        return acc
    roots = []
    prev = None
    x = -64.0
    while x <= 64.0:
        y = f(x)
        if prev is not None and prev[1] * y <= 0 and (prev[1] or y):
            lo, hi = prev[0], x
            for _ in range(80):
                mid = (lo + hi) / 2
                if f(lo) * f(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            roots.append((lo + hi) / 2)
        prev = (x, y)
        x += 0.25
    if not roots:
        return None
    vals = []
    for root in roots:
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * root + c
        if not math.isfinite(acc):
            return None
        vals.append(f"{acc:.6g}")
    return " or ".join(vals)


def _render_scalar(scalar) -> str:
    exact = repr(scalar)
    approx = _approximate(scalar)
    if approx is not None and approx != exact:
        return f"{exact} (~ {approx}, approximate)"
    return exact


def _load_category(path):
    try:
        cat = category_from_json(load_json(path))
    except _FILE_ERRORS as exc:
        raise CLIError(f"{path}: {exc}") from exc
    return cat


def _load_validated_category(path):
    cat = _load_category(path)
    rep = cat.validation()
    if not rep.ok:
        raise CLIError(f"{path}: {rep.failures[0]}")
    return cat


def _load_algebra(cat, path):
    try:
        alg = algebra_from_json(cat, load_json(path))
    except _FILE_ERRORS as exc:
        raise CLIError(f"{path}: {exc}") from exc
    rep = alg.validation
    if not rep.ok:
        raise CLIError(f"{path}: {rep.failures[0]}")
    return alg


def _save(path, obj) -> None:
    try:
        save_json(path, obj)
    except OSError as exc:
        raise CLIError(f"cannot write {path}: {exc.strerror or exc}") \
            from exc


def _report_text(report: dict, out) -> None:
    flags = report["flags"]
    out.write("flags:\n")
    for k in ("semisimple", "simple", "division", "separable"):
        out.write(f"  {k}: {flags[k]}\n")
    if report.get("dim_A") is not None:
        out.write(f"dim A (coefficient vector): {report['dim_A']}\n")
    md = report.get("matrix_decomposition")
    if md:
        out.write(f"matrix decomposition: {len(md['classes'])} class(es), "
                  f"{md['simple_count']} simple module(s); "
                  f"object identity holds: {md['object_identity_holds']}\n")
    es = report.get("endomorphism_separability")
    if es:
        for entry in es:
            out.write(f"  module {entry['module']}: End dim "
                      f"{entry['end_dim']}, separable over base: "
                      f"{entry['separable_over_base']}\n")
    out.write("criteria:\n")
    for k, v in report["oracle_agreement"].items():
        out.write(f"  {k}: {v}\n")


def _has_undetermined(report: dict) -> bool:
    for v in report["flags"].values():
        if v == "undetermined":
            return True
    for v in report["oracle_agreement"].values():
        if v == "undetermined":
            return True
    return False


# ---------------------------------------------------------------------------
# subcommands

def _cmd_validate(args, out) -> int:
    cat = _load_category(args.category)
    rep = cat.validation()
    if not rep.ok:
        out.write(f"category: FAIL: {rep.failures[0]}\n")
        return EXIT_INVALID
    out.write(f"category: pass ({rep.checks_run} checks)\n")
    if args.algebra:
        alg = None
        try:
            alg = algebra_from_json(cat, load_json(args.algebra))
        except _FILE_ERRORS as exc:
            out.write(f"algebra: FAIL: {exc}\n")
            return EXIT_INVALID
        arep = alg.validation
        if not arep.ok:
            out.write(f"algebra: FAIL: {arep.failures[0]}\n")
            return EXIT_INVALID
        out.write(f"algebra: pass ({arep.checks_run} checks)\n")
    return EXIT_OK


def _analyze_one(cat_path: str, alg_path: str) -> dict:
    cat = _load_validated_category(cat_path)
    alg = _load_algebra(cat, alg_path)
    return analyze(cat, alg)


def _cmd_analyze(args, out) -> int:
    if args.jobs < 1:
        raise CLIError(f"--jobs must be at least 1, got {args.jobs}")
    paths = [(args.category, a) for a in args.algebras]
    if args.jobs > 1 and len(paths) > 1:
        import concurrent.futures as cf
        with cf.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            cats, algs = zip(*paths)
            reports = list(pool.map(_analyze_one, cats, algs))
    else:
        reports = [_analyze_one(c, a) for c, a in paths]
    rc = EXIT_OK
    for (cpath, apath), report in zip(paths, reports):
        if args.report == "json":
            out.write(dumps_canonical(report))
        else:
            out.write(f"== {cpath} / {apath} ==\n")
            _report_text(report, out)
        if _has_undetermined(report):
            rc = max(rc, EXIT_UNDETERMINED)
    return rc


def _cmd_global_dim(args, out) -> int:
    cat = _load_validated_category(args.category)
    try:
        d = global_dimension(cat)
    except NotFusion as exc:
        raise CLIError(str(exc)) from exc
    verdict = not d.is_zero()
    if args.report == "json":
        out.write(dumps_canonical({
            "schema_version": "1",
            "global_dimension": d.serialize(),
            "center_semisimple": verdict,
        }))
    else:
        out.write(f"global dimension: {_render_scalar(d)}\n")
        out.write(f"center semisimple: {verdict}\n")
    return EXIT_OK


def _cmd_decompose(args, out) -> int:
    cat = _load_validated_category(args.category)
    alg = _load_algebra(cat, args.algebra)
    try:
        md = matrix_decomposition(cat, alg)
    except NotSemisimpleAlgebra as exc:
        raise CLIError(str(exc)) from exc
    if args.report == "json":
        out.write(dumps_canonical({"schema_version": "1",
                                   "matrix_decomposition": md}))
    else:
        out.write(f"classes: {len(md['classes'])}\n")
        for k, cls in enumerate(md["classes"]):
            simples = ", ".join(
                f"#{s['index']} carrier {s['carrier']} x{s['multiplicity']}"
                for s in cls["simples"])
            out.write(f"  class {k}: {simples}\n")
        out.write(f"object identity holds: {md['object_identity_holds']}\n")
    return EXIT_OK


def _cmd_base_extend(args, out) -> int:
    cat = _load_validated_category(args.category)
    base_field = cat.field
    try:
        mp = [c.strip() for c in args.minpoly.split(",")]
        dst = field_from_json({"char": base_field.char, "minpoly": mp})
        gen_image = None
        if base_field.minpoly is not None:
            if not args.map:
                raise CLIError("--map is required when the source field is "
                               "an extension")
            gen_image = dst.scalar([c.strip() for c in args.map.split(",")])
        emb = Embedding(base_field, dst, gen_image)
    except (ValueError, NotAnEmbedding) as exc:
        raise CLIError(f"bad embedding: {exc}") from exc
    if args.algebra:
        alg = _load_algebra(cat, args.algebra)
        try:
            cat2, alg2 = base_extend_algebra(cat, alg, emb)
        except InseparableExtension as exc:
            raise CLIError(str(exc)) from exc
        _save(args.out_category, category_to_json(cat2))
        _save(args.out_algebra, algebra_to_json(alg2))
        out.write(f"wrote {args.out_category} and {args.out_algebra}\n")
    else:
        cat2 = cat.scalar_extend(emb)
        _save(args.out_category, category_to_json(cat2))
        out.write(f"wrote {args.out_category}\n")
    return EXIT_OK


def _catalog_algebras(name: str, cat) -> dict:
    """Algebra constructors available for a catalog category."""
    out = {"trivial": lambda: make_algebra(cat, "trivial")}
    if name.startswith(("z", "mmf")) and name != "mmf2":
        n = len(cat.labels)
        out["regular"] = lambda: make_algebra(cat, "regular_pointed", {})
        for h in range(2, n):
            if n % h == 0:
                out[f"sub{h}"] = (lambda hh: lambda: make_algebra(
                    cat, "regular_pointed", {"subgroup_order": hh}))(h)
    if name.startswith("vec"):
        for n in (2, 3):
            out[f"group{n}"] = (lambda nn: lambda: make_algebra(
                cat, "ordinary_group_algebra", {"n": nn}))(n)
    for a in cat.labels:
        out[f"end_{a}"] = (lambda aa: lambda: make_algebra(
            cat, "internal_end", {"obj": {aa: 1}}))(a)
    return out


def _cmd_catalog(args, out) -> int:
    entries = standard_entries()
    if args.action == "list":
        for name in entries:
            cat = entries[name]()
            algs = ", ".join(sorted(_catalog_algebras(name, cat)))
            out.write(f"{name}: algebras [{algs}]\n")
        return EXIT_OK
    # emit
    target = args.name
    if target is None:
        raise CLIError("catalog emit requires a name (see 'catalog list')")
    if "/" in target:
        cname, aname = target.split("/", 1)
    else:
        cname, aname = target, None
    if cname not in entries:
        raise CLIError(f"unknown catalog entry {cname!r}")
    try:
        cat = entries[cname]()
    except (UnknownEntry, ValidationFailure) as exc:
        raise CLIError(str(exc)) from exc
    if aname is None:
        _save(args.out, category_to_json(cat))
        out.write(f"wrote {args.out}\n")
        return EXIT_OK
    algs = _catalog_algebras(cname, cat)
    if aname not in algs:
        raise CLIError(f"unknown algebra {aname!r} for {cname!r}; "
                       f"known: {sorted(algs)}")
    try:
        alg = algs[aname]()
    except (UnknownEntry, ValidationFailure) as exc:
        raise CLIError(str(exc)) from exc
    _save(args.out, algebra_to_json(alg))
    out.write(f"wrote {args.out}\n")
    return EXIT_OK


def _cmd_schema(args, out) -> int:
    out.write(dumps_canonical(report_schema()))
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="tensorcat",
                description="exact structure analysis of algebras in "
                            "skeletal multi-fusion categories")
    sub = p.add_subparsers(dest="verb", required=True)

    v = sub.add_parser("validate", help="coherence-check a category file")
    v.add_argument("category")
    v.add_argument("algebra", nargs="?", default=None)

    a = sub.add_parser("analyze", help="full analysis of (category, algebra)")
    a.add_argument("category")
    a.add_argument("algebras", nargs="+")
    a.add_argument("--report", choices=("json", "text"), default="text")
    a.add_argument("--jobs", type=int, default=1)

    g = sub.add_parser("global-dim", help="global dimension and the "
                                          "center-semisimplicity verdict")
    g.add_argument("category")
    g.add_argument("--report", choices=("json", "text"), default="text")

    d = sub.add_parser("decompose", help="matrix decomposition of a "
                                         "semisimple algebra")
    d.add_argument("category")
    d.add_argument("algebra")
    d.add_argument("--report", choices=("json", "text"), default="text")

    b = sub.add_parser("base-extend", help="embed all coefficients into a "
                                           "separable field extension")
    b.add_argument("category")
    b.add_argument("algebra", nargs="?", default=None)
    b.add_argument("--minpoly", required=True,
                   help="comma-separated minpoly coefficients, low to high")
    b.add_argument("--map", default=None,
                   help="comma-separated image of the source generator")
    b.add_argument("--out-category", required=True)
    b.add_argument("--out-algebra", default=None)

    c = sub.add_parser("catalog", help="list or emit built-in examples")
    c.add_argument("action", choices=("list", "emit"))
    c.add_argument("name", nargs="?", default=None)
    c.add_argument("--out", default=None)

    s = sub.add_parser("schema", help="print the analysis report schema")
    return p


def main(argv=None) -> int:
    out = sys.stdout
    try:
        args = build_parser().parse_args(argv)
    except CLIError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    try:
        try:
            search_budget()
        except ValueError as exc:
            raise CLIError(str(exc)) from exc
        if args.verb == "validate":
            return _cmd_validate(args, out)
        if args.verb == "analyze":
            return _cmd_analyze(args, out)
        if args.verb == "global-dim":
            return _cmd_global_dim(args, out)
        if args.verb == "decompose":
            return _cmd_decompose(args, out)
        if args.verb == "base-extend":
            if args.algebra and not args.out_algebra:
                raise CLIError("--out-algebra is required when an algebra "
                               "file is given")
            return _cmd_base_extend(args, out)
        if args.verb == "catalog":
            if args.action == "emit" and not args.out:
                raise CLIError("catalog emit requires --out")
            return _cmd_catalog(args, out)
        if args.verb == "schema":
            return _cmd_schema(args, out)
        raise CLIError(f"unknown verb {args.verb!r}")
    except CLIError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except (FormatError, ValidationFailure, UnknownEntry, FieldError,
            NotFusion, NotSemisimpleAlgebra, InseparableExtension) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except (SeparatingElementNotFound, DegreeTooLarge) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_UNDETERMINED
    except OracleDisagreement as exc:
        sys.stderr.write(f"internal oracle disagreement: {exc}\n")
        return EXIT_DISAGREEMENT
    except (LinAlgError, PreconditionViolated, OrdAlgebraError,
            PolynomialError) as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_DISAGREEMENT


if __name__ == "__main__":
    sys.exit(main())
