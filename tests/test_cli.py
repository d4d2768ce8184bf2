import io
import json
import os
import sys

import pytest

from construction_oracle import quadratic_algebra, quaternions
from tensorcat.catalog import make_algebra, make_category
from tensorcat.cli import main
from tensorcat.fileio import (algebra_from_json, algebra_to_json,
                              category_from_json, category_to_json,
                              dumps_canonical, module_from_json,
                              module_to_json, report_schema)
from tensorcat.fincat import validate_category
from tensorcat.algebra import validate_algebra


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_category_roundtrip(tmp_path):
    for name in ("z2", "fibonacci", "mmf2"):
        cat = make_category(*{
            "z2": ("pointed", {"n": 2}),
            "fibonacci": ("fibonacci", {}),
            "mmf2": ("matrix_multifusion", {"n": 2}),
        }[name])
        blob = category_to_json(cat)
        again = category_from_json(json.loads(dumps_canonical(blob)))
        assert validate_category(again).ok
        assert category_to_json(again) == blob


def test_algebra_roundtrip():
    cat = make_category("pointed", {"n": 3})
    A = make_algebra(cat, "regular_pointed", {})
    blob = algebra_to_json(A)
    again = algebra_from_json(cat, json.loads(dumps_canonical(blob)))
    assert validate_algebra(again).ok
    assert algebra_to_json(again) == blob


def test_module_roundtrip():
    from tensorcat.modcat import free_module, validate_module
    cat = make_category("pointed", {"n": 2})
    A = make_algebra(cat, "regular_pointed", {})
    m = free_module(cat.simple("g1"), A)
    blob = module_to_json(m)
    again = module_from_json(A, blob)
    assert validate_module(again).ok
    assert module_to_json(again) == blob


def test_module_file_breaking_the_axioms_is_refused():
    # the regular module of Z/2 with any one coefficient of its action
    # doubled breaks the module axioms, and the loader says so
    from tensorcat.fincat import ValidationFailure
    from tensorcat.modcat import algebra_as_module
    cat = make_category("pointed", {"n": 2})
    A = make_algebra(cat, "regular_pointed", {})
    blob = module_to_json(algebra_as_module(A))
    assert module_from_json(A, blob).carrier == A.carrier
    assert blob["action"]
    for k in range(len(blob["action"])):
        bad = json.loads(json.dumps(blob))
        bad["action"][k][2] = ["2"]
        with pytest.raises(ValidationFailure, match="^module: module"):
            module_from_json(A, bad)


def test_cross_label_triple_rejected():
    from tensorcat.fileio import FormatError
    cat = make_category("pointed", {"n": 2})
    A = make_algebra(cat, "regular_pointed", {})
    blob = algebra_to_json(A)
    bad = json.loads(dumps_canonical(blob))
    # mult entry [in, out, scalar]: force a label-crossing out index
    entry = list(bad["mult"][0])
    entry[1] = (entry[1] + 1) % 2
    bad["mult"][0] = entry
    with pytest.raises(FormatError):
        algebra_from_json(cat, bad)


@pytest.mark.parametrize("value", [True, [True]], ids=["bare", "in_list"])
def test_scalar_from_json_rejects_booleans(value):
    # JSON gives each coefficient as an integer or a string; a boolean
    # would otherwise read as 1
    from tensorcat.fields import Field
    from tensorcat.fileio import FormatError, scalar_from_json
    with pytest.raises(FormatError, match="cannot parse scalar"):
        scalar_from_json(Field(0), value)


# z2/regular is {"carrier": {"g0": 1, "g1": 1}, "mult": [[0, 0, ["1"]],
# [1, 0, ["1"]], [2, 1, ["1"]], [3, 1, ["1"]]], "unit": [["g0", 0, ["1"]]]}
@pytest.mark.parametrize("blob", [
    # a negative flat index, which Python indexing would wrap around
    {"carrier": {"g0": 1, "g1": 1},
     "mult": [[0, 0, ["1"]], [1, 0, ["1"]], [2, 1, ["1"]], [-1, 1, ["1"]]],
     "unit": [["g0", 0, ["1"]]]},
    # a unit row past the multiplicity of its label in the carrier
    {"carrier": {"g0": 1, "g1": 1},
     "mult": [[0, 0, ["1"]], [1, 0, ["1"]], [2, 1, ["1"]], [3, 1, ["1"]]],
     "unit": [["g0", 5, ["1"]]]},
    # a unit entry on a unit label that the carrier does not contain
    {"carrier": {"g1": 1}, "mult": [], "unit": [["g0", 0, ["1"]]]},
    # one position given twice
    {"carrier": {"g0": 1, "g1": 1},
     "mult": [[0, 0, ["1"]], [0, 0, ["1"]], [1, 0, ["1"]], [2, 1, ["1"]],
              [3, 1, ["1"]]],
     "unit": [["g0", 0, ["1"]]]},
    # a float index, which int() would truncate
    {"carrier": {"g0": 1, "g1": 1},
     "mult": [[0, 0, ["1"]], [1.5, 0, ["1"]], [2, 1, ["1"]], [3, 1, ["1"]]],
     "unit": [["g0", 0, ["1"]]]},
], ids=["negative_index", "unit_row_past_carrier", "unit_label_not_in_carrier",
        "repeated_position", "float_index"])
def test_cli_rejects_flat_indices_out_of_range(tmp_path, capsys, blob):
    cat_p, alg_p = str(tmp_path / "cat.json"), str(tmp_path / "alg.json")
    run_cli(capsys, "catalog", "emit", "z2", "--out", cat_p)
    with open(alg_p, "w") as fh:
        json.dump(blob, fh)
    rc, out, err = run_cli(capsys, "validate", cat_p, alg_p)
    assert rc == 1 and err == ""
    assert out.splitlines()[-1].startswith("algebra: FAIL:")
    rc, out, err = run_cli(capsys, "analyze", cat_p, alg_p)
    assert rc == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def _emitted(tmp_path, capsys, name, edit, fname):
    """Path of the catalog file `name`, with `edit` applied to its JSON."""
    path = str(tmp_path / fname)
    run_cli(capsys, "catalog", "emit", name, "--out", path)
    with open(path) as fh:
        blob = json.load(fh)
    edit(blob)
    with open(path, "w") as fh:
        json.dump(blob, fh)
    return path


def _set(key, value):
    return lambda blob: blob.__setitem__(key, value)


@pytest.mark.parametrize("edit,words", [
    (_set("cup", [["1"], ["1"]]), "cup must be a JSON object"),
    (_set("field", {"char": 2.5}), "char must be an integer"),
    (_set("field", {"char": True}), "char must be an integer"),
    (_set("field", {"char": "2"}), "char must be an integer"),
    (lambda blob: blob["fusion"][0].__setitem__(3, 1.0),
     "fusion multiplicity must be an integer"),
    (_set("field", {"char": 10 ** 25}), "too large"),
], ids=["cup_list", "char_float", "char_bool", "char_string",
        "fusion_float", "char_past_primality_bound"])
def test_cli_rejects_malformed_category(tmp_path, capsys, edit, words):
    cat_p = _emitted(tmp_path, capsys, "z2", edit, "cat.json")
    rc, out, err = run_cli(capsys, "validate", cat_p)
    assert rc == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert words in err


@pytest.mark.parametrize("carrier,words", [
    ([1, 1], "carrier must be a JSON object"),
    ({"g0": 1.5, "g1": 1}, "carrier multiplicity must be an integer"),
    ({"g0": True, "g1": 1}, "carrier multiplicity must be an integer"),
], ids=["carrier_list", "mult_float", "mult_bool"])
def test_cli_rejects_malformed_carrier(tmp_path, capsys, carrier, words):
    cat_p = _emitted(tmp_path, capsys, "z2", lambda blob: None, "cat.json")
    alg_p = _emitted(tmp_path, capsys, "z2/regular",
                     _set("carrier", carrier), "alg.json")
    rc, out, err = run_cli(capsys, "validate", cat_p, alg_p)
    assert rc == 1 and err == ""
    assert out.splitlines()[-1].startswith(f"algebra: FAIL: {words}")
    rc, out, err = run_cli(capsys, "analyze", cat_p, alg_p)
    assert rc == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert words in err


def test_cli_names_the_file_of_a_field_error(tmp_path, capsys):
    # a FieldError while a file is read is an input fault of that file
    cat_p = _emitted(tmp_path, capsys, "vec_q", _set("field", {"char": 4}),
                     "v4.json")
    rc, out, err = run_cli(capsys, "validate", cat_p)
    assert (rc, out) == (1, "")
    assert err == f"error: {cat_p}: characteristic must be 0 or prime, " \
                  "got 4\n"
    # a coefficient vector longer than the degree of Q
    cat_p = _emitted(tmp_path, capsys, "z2", lambda blob: None, "cat.json")
    alg_p = _emitted(tmp_path, capsys, "z2/regular",
                     lambda blob: blob["unit"][0].__setitem__(2, ["1", "0"]),
                     "alg.json")
    rc, out, err = run_cli(capsys, "analyze", cat_p, alg_p)
    assert (rc, out) == (1, "")
    assert err == f"error: {alg_p}: coefficient vector longer than field " \
                  "degree\n"
    rc, out, err = run_cli(capsys, "validate", cat_p, alg_p)
    assert (rc, err) == (1, "")
    assert out.splitlines()[-1] == \
        "algebra: FAIL: coefficient vector longer than field degree"


@pytest.mark.parametrize("cat_name,text,field", [
    ("z2", "1/0", "Q"), ("z3_f3", "1/3", "F_3")], ids=["Q", "F3"])
def test_cli_names_the_file_of_a_zero_denominator(tmp_path, capsys, cat_name,
                                                  text, field):
    cat_p = _emitted(tmp_path, capsys, cat_name, lambda blob: None,
                     "cat.json")
    alg_p = _emitted(tmp_path, capsys, f"{cat_name}/regular",
                     lambda blob: blob["mult"].__setitem__(0, [0, 0, [text]]),
                     "a.json")
    words = f"denominator of '{text}' is zero in {field}"
    rc, out, err = run_cli(capsys, "analyze", cat_p, alg_p)
    assert (rc, out) == (1, "")
    assert err == f"error: {alg_p}: {words}\n"
    rc, out, err = run_cli(capsys, "validate", cat_p, alg_p)
    assert (rc, err) == (1, "")
    assert out.splitlines()[-1] == f"algebra: FAIL: {words}"


def test_cli_validates_a_large_prime_characteristic(tmp_path, capsys):
    from time import perf_counter
    cat_p = _emitted(tmp_path, capsys, "vec_q",
                     _set("field", {"char": 1000000000000000003}), "cat.json")
    start = perf_counter()
    rc, out, _err = run_cli(capsys, "validate", cat_p)
    assert perf_counter() - start < 1.0
    assert rc == 0 and out.startswith("category: pass")


def test_cli_catalog_list(capsys):
    # the pointed entries list their regular algebra and its proper
    # subgroups; mmf2 lists neither
    rc, out, _ = run_cli(capsys, "catalog", "list")
    assert rc == 0
    assert out == (
        "vec_q: algebras [end_1, group2, group3, trivial]\n"
        "vec_f2: algebras [end_1, group2, group3, trivial]\n"
        "vec_f3: algebras [end_1, group2, group3, trivial]\n"
        "z2: algebras [end_g0, end_g1, regular, trivial]\n"
        "z2_twisted: algebras [end_g0, end_g1, regular, trivial]\n"
        "z3: algebras [end_g0, end_g1, end_g2, regular, trivial]\n"
        "z4: algebras [end_g0, end_g1, end_g2, end_g3, regular, sub2, "
        "trivial]\n"
        "z2_f2: algebras [end_g0, end_g1, regular, trivial]\n"
        "z3_f3: algebras [end_g0, end_g1, end_g2, regular, trivial]\n"
        "fibonacci: algebras [end_1, end_t, trivial]\n"
        "ising: algebras [end_1, end_psi, end_sig, trivial]\n"
        "mmf2: algebras [end_e11, end_e12, end_e21, end_e22, trivial]\n")


def test_cli_catalog_validate_analyze(tmp_path, capsys):
    cat_p = str(tmp_path / "c.json")
    alg_p = str(tmp_path / "a.json")
    rc, _, _ = run_cli(capsys, "catalog", "emit", "z2_f2", "--out", cat_p)
    assert rc == 0
    rc, _, _ = run_cli(capsys, "catalog", "emit", "z2_f2/regular",
                       "--out", alg_p)
    assert rc == 0
    rc, out, _ = run_cli(capsys, "validate", cat_p, alg_p)
    assert rc == 0
    assert "pass" in out
    rc, out, _ = run_cli(capsys, "analyze", cat_p, alg_p, "--report", "json")
    assert rc == 0
    rep = json.loads(out)
    assert rep["flags"] == {"semisimple": True, "simple": True,
                            "division": True, "separable": False}
    assert rep["dim_A"] == ["0"]


def test_cli_analyzes_a_quadratic_field_with_a_huge_constant(tmp_path,
                                                            capsys):
    # Q[x]/(x^2 + x + 10^400) is a field: factoring its minimal
    # polynomial meets coefficient norms no float can hold
    cat_p = str(tmp_path / "c.json")
    alg_p = str(tmp_path / "a.json")
    rc, _, _ = run_cli(capsys, "catalog", "emit", "vec_q", "--out", cat_p)
    assert rc == 0
    vq = make_category("vec", {})
    with open(alg_p, "w") as fh:
        fh.write(dumps_canonical(algebra_to_json(
            quadratic_algebra(vq, 1, 10 ** 400))))
    rc, out, err = run_cli(capsys, "analyze", cat_p, alg_p, "--report",
                           "json")
    assert (rc, err) == (0, "")
    assert json.loads(out)["flags"] == {"semisimple": True, "simple": True,
                                        "division": True, "separable": True}


def test_cli_analyze_deterministic_bytes(tmp_path, capsys):
    cat_p = str(tmp_path / "c.json")
    alg_p = str(tmp_path / "a.json")
    run_cli(capsys, "catalog", "emit", "z2", "--out", cat_p)
    run_cli(capsys, "catalog", "emit", "z2/regular", "--out", alg_p)
    rc1, out1, _ = run_cli(capsys, "analyze", cat_p, alg_p,
                           "--report", "json")
    rc2, out2, _ = run_cli(capsys, "analyze", cat_p, alg_p,
                           "--report", "json")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_cli_global_dim(tmp_path, capsys):
    cat_p = str(tmp_path / "fib.json")
    run_cli(capsys, "catalog", "emit", "fibonacci", "--out", cat_p)
    rc, out, _ = run_cli(capsys, "global-dim", cat_p, "--report", "json")
    assert rc == 0
    rep = json.loads(out)
    assert rep["global_dimension"] == ["2", "1"]      # 2 + phi
    assert rep["center_semisimple"] is True
    rc, out, _ = run_cli(capsys, "global-dim", cat_p)
    assert "approximate" in out


def test_cli_decompose(tmp_path, capsys):
    cat_p = str(tmp_path / "c.json")
    alg_p = str(tmp_path / "a.json")
    run_cli(capsys, "catalog", "emit", "vec_q", "--out", cat_p)
    run_cli(capsys, "catalog", "emit", "vec_q/end_1", "--out", alg_p)
    rc, out, _ = run_cli(capsys, "decompose", cat_p, alg_p, "--report", "json")
    assert rc == 0
    rep = json.loads(out)
    assert rep["matrix_decomposition"]["object_identity_holds"] is True


def test_cli_base_extend(tmp_path, capsys):
    cat_p = str(tmp_path / "c.json")
    alg_p = str(tmp_path / "a.json")
    out_c = str(tmp_path / "c4.json")
    out_a = str(tmp_path / "a4.json")
    run_cli(capsys, "catalog", "emit", "vec_f2", "--out", cat_p)
    run_cli(capsys, "catalog", "emit", "vec_f2/group2", "--out", alg_p)
    rc, out, _ = run_cli(capsys, "base-extend", cat_p, alg_p,
                         "--minpoly", "1,1,1",
                         "--out-category", out_c, "--out-algebra", out_a)
    assert rc == 0
    rc, out, _ = run_cli(capsys, "analyze", out_c, out_a, "--report", "json")
    assert rc == 0
    rep = json.loads(out)
    assert rep["flags"]["separable"] is False
    assert rep["field"] == {"char": 2, "minpoly": ["1", "1", "1"], "gen": "a"}


@pytest.mark.parametrize("with_algebra", [False, True],
                         ids=["category", "category_and_algebra"])
def test_cli_base_extend_refuses_a_reducible_minpoly(tmp_path, capsys,
                                                     with_algebra):
    # x^2 over F_2 is x * x: no field, so one error line and exit 1,
    # with or without an algebra to carry along
    cat_p = str(tmp_path / "c.json")
    alg_p = str(tmp_path / "a.json")
    out_c = str(tmp_path / "c4.json")
    out_a = str(tmp_path / "a4.json")
    run_cli(capsys, "catalog", "emit", "vec_f2", "--out", cat_p)
    run_cli(capsys, "catalog", "emit", "vec_f2/group2", "--out", alg_p)
    argv = ["base-extend", cat_p] + ([alg_p] if with_algebra else []) + \
        ["--minpoly", "0,0,1", "--out-category", out_c]
    if with_algebra:
        argv += ["--out-algebra", out_a]
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err == "error: extension minpoly is reducible\n"
    assert not os.path.exists(out_c) and not os.path.exists(out_a)


@pytest.mark.parametrize("target,reason", [
    ("nodir/x.json", "No such file or directory"),
    (".", "Is a directory")], ids=["missing_dir", "directory"])
def test_cli_reports_an_output_it_cannot_write(tmp_path, capsys, target,
                                               reason):
    # catalog emit and base-extend report an unwritable output path on one
    # line and exit 1, for a missing directory and for a directory
    path = str(tmp_path / target)
    rc, out, err = run_cli(capsys, "catalog", "emit", "z2", "--out", path)
    assert (rc, out) == (1, "")
    assert err == f"error: cannot write {path}: {reason}\n"
    cat_p = str(tmp_path / "c.json")
    run_cli(capsys, "catalog", "emit", "vec_f2", "--out", cat_p)
    rc, out, err = run_cli(capsys, "base-extend", cat_p, "--minpoly",
                           "1,1,1", "--out-category", path)
    assert (rc, out) == (1, "")
    assert err == f"error: cannot write {path}: {reason}\n"


def test_cli_validate_broken_file(tmp_path, capsys):
    cat_p = str(tmp_path / "broken.json")
    run_cli(capsys, "catalog", "emit", "fibonacci", "--out", cat_p)
    blob = json.load(open(cat_p))
    for fblk in blob["F"]:
        if fblk["abcd"] == ["t", "t", "t", "t"]:
            fblk["entries"][0][0] = ["-1", "-1"]
    json.dump(blob, open(cat_p, "w"))
    rc, out, _ = run_cli(capsys, "validate", cat_p)
    assert rc == 1
    assert "pentagon" in out


def test_cli_unknown_flag_is_error(capsys):
    rc, _, err = run_cli(capsys, "analyze", "x.json", "y.json", "--bogus")
    assert rc == 1


def test_cli_unknown_catalog_entry(capsys):
    rc, _, err = run_cli(capsys, "catalog", "emit", "nope", "--out", "/tmp/x")
    assert rc == 1
    assert "unknown" in err


def test_cli_missing_file(capsys):
    rc, _, err = run_cli(capsys, "validate", "/nonexistent/file.json")
    assert rc == 1


def test_cli_schema_roundtrip(capsys, tmp_path):
    rc, out, _ = run_cli(capsys, "schema")
    assert rc == 0
    schema = json.loads(out)
    assert schema["schema_version"] == "1"
    assert schema == report_schema()
    # every golden report satisfies the schema's required-key contract
    cat_p = str(tmp_path / "c.json")
    alg_p = str(tmp_path / "a.json")
    run_cli(capsys, "catalog", "emit", "z2", "--out", cat_p)
    run_cli(capsys, "catalog", "emit", "z2/trivial", "--out", alg_p)
    rc, out, _ = run_cli(capsys, "analyze", cat_p, alg_p, "--report", "json")
    rep = json.loads(out)
    for key in schema["required"]:
        assert key in rep
    assert json.loads(dumps_canonical(rep)) == rep


def test_cli_jobs_parallel(tmp_path, capsys):
    cat_p = str(tmp_path / "c.json")
    a1 = str(tmp_path / "a1.json")
    a2 = str(tmp_path / "a2.json")
    run_cli(capsys, "catalog", "emit", "z2", "--out", cat_p)
    run_cli(capsys, "catalog", "emit", "z2/trivial", "--out", a1)
    run_cli(capsys, "catalog", "emit", "z2/regular", "--out", a2)
    rc_seq, out_seq, _ = run_cli(capsys, "analyze", cat_p, a1, a2,
                                 "--report", "json")
    rc_par, out_par, _ = run_cli(capsys, "analyze", cat_p, a1, a2,
                                 "--report", "json", "--jobs", "2")
    assert rc_seq == rc_par == 0
    assert out_seq == out_par


def test_cli_jobs_starts_no_more_workers_than_inputs(tmp_path, capsys,
                                                     monkeypatch):
    # a forked pool starts all max_workers processes at the first submit;
    # a fake executor records the request and runs the analyses in turn,
    # so no process is started whatever --jobs asks for
    import concurrent.futures as cf
    asked = []

    class Recorder:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cf, "ProcessPoolExecutor", Recorder)
    cat_p = str(tmp_path / "c.json")
    a1 = str(tmp_path / "a1.json")
    a2 = str(tmp_path / "a2.json")
    run_cli(capsys, "catalog", "emit", "z2", "--out", cat_p)
    run_cli(capsys, "catalog", "emit", "z2/trivial", "--out", a1)
    run_cli(capsys, "catalog", "emit", "z2/regular", "--out", a2)
    _, out_seq, _ = run_cli(capsys, "analyze", cat_p, a1, a2)
    for jobs, workers in (("2", 2), ("3", 2), ("100000", 2)):
        rc, out, err = run_cli(capsys, "analyze", cat_p, a1, a2,
                               "--jobs", jobs)
        assert (rc, out, err) == (0, out_seq, "")
        assert asked.pop() == workers
    assert asked == []


def test_cli_twisted_regular_obstruction(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "catalog", "emit", "z2_twisted/regular",
                         "--out", str(tmp_path / "x.json"))
    assert rc == 1
    assert "cocycle" in err.lower()


def test_cli_exit_2_on_undetermined(tmp_path, capsys, monkeypatch):
    # with a starved search budget the adjoint-isomorphism criterion on a
    # two-block algebra cannot certify either way: every hom-basis element
    # is a one-block projection with singular beta
    from construction_oracle import direct_sum_algebra
    from tensorcat.algebra import trivial_algebra
    from tensorcat.fileio import save_json
    cat = make_category("vec", {})
    two = direct_sum_algebra(trivial_algebra(cat), trivial_algebra(cat))
    cat_p = str(tmp_path / "c.json")
    alg_p = str(tmp_path / "a.json")
    save_json(cat_p, category_to_json(cat))
    save_json(alg_p, algebra_to_json(two))
    monkeypatch.setenv("TENSORCAT_BUDGET", "1")
    rc, out, _ = run_cli(capsys, "analyze", cat_p, alg_p, "--report", "json")
    monkeypatch.delenv("TENSORCAT_BUDGET")
    assert rc == 2
    rep = json.loads(out)
    assert rep["oracle_agreement"]["separable_adjoint_iso"] == "undetermined"
    rc, out, _ = run_cli(capsys, "analyze", cat_p, alg_p, "--report", "json")
    assert rc == 0
    assert json.loads(out)["oracle_agreement"]["separable_adjoint_iso"] is True


def test_cli_exit_0_where_the_ladder_finds_no_separating_element(tmp_path,
                                                                 capsys):
    # the unit algebra of the 2x2 multi-fusion category over F_2 has a
    # commutative End with a 4-dimensional center: no single central
    # element separates its blocks over a field of 2 elements, so the
    # unit is split by each basis element of the center in turn
    cat = make_category("matrix_multifusion", {"n": 2, "field": 2})
    cat_p = str(tmp_path / "c.json")
    alg_p = str(tmp_path / "a.json")
    with open(cat_p, "w") as fh:
        fh.write(dumps_canonical(category_to_json(cat)))
    with open(alg_p, "w") as fh:
        fh.write(dumps_canonical(algebra_to_json(make_algebra(cat,
                                                              "trivial"))))
    rc, out, err = run_cli(capsys, "analyze", cat_p, alg_p, "--report", "json")
    assert (rc, err) == (0, "")
    assert json.loads(out)["flags"] == {"semisimple": True, "simple": False,
                                        "division": False, "separable": True}
    rc, out, err = run_cli(capsys, "decompose", cat_p, alg_p, "--report",
                           "json")
    assert (rc, err) == (0, "")
    md = json.loads(out)["matrix_decomposition"]
    assert md["object_identity_holds"] is True


def test_cli_exit_2_where_the_ladder_gives_up_on_the_quaternions_13_13(
        tmp_path, capsys):
    # the split quaternion algebra (13, 13) = M_2(Q) in vec: no element
    # of the bounded search splits its End, a stated limit of the engine
    E = quaternions(13, 13)
    mult = [[4 * i + j, l, c.serialize()] for i in range(4)
            for j in range(4) for l, c in E.sc[i][j]]
    cat_p = str(tmp_path / "c.json")
    alg_p = str(tmp_path / "a.json")
    with open(cat_p, "w") as fh:
        fh.write(dumps_canonical(category_to_json(make_category("vec", {}))))
    with open(alg_p, "w") as fh:
        fh.write(dumps_canonical({"carrier": {"1": 4}, "mult": mult,
                                  "unit": [["1", 0, 1]]}))
    rc, out, err = run_cli(capsys, "analyze", cat_p, alg_p)
    assert (rc, out) == (2, "")
    assert err == "error: bounded search found no splitting of the block\n"


def test_cli_exit_2_when_the_rational_degree_cap_is_met(tmp_path, capsys):
    # Q[Z/13]: the minimal polynomial of a central element has degree 13,
    # past the rational factorizer's stated limit of 12
    cat = make_category("vec", {})
    cat_p = str(tmp_path / "c.json")
    alg_p = str(tmp_path / "a.json")
    with open(cat_p, "w") as fh:
        fh.write(dumps_canonical(category_to_json(cat)))
    alg = make_algebra(cat, "ordinary_group_algebra", {"n": 13})
    with open(alg_p, "w") as fh:
        fh.write(dumps_canonical(algebra_to_json(alg)))
    rc, out, err = run_cli(capsys, "decompose", cat_p, alg_p)
    assert rc == 2
    assert out == "" and "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "degree <= 12" in err


def test_cli_global_dim_text_with_coefficients_past_a_float(tmp_path,
                                                             capsys):
    # Q(a) with a^2 = 10^400 + 1: the minimal polynomial does not fit a
    # float, but its real roots are isolated exactly, so the value is
    # rendered under both embeddings, as in ising
    from tensorcat.fields import Field
    field = Field(0, [-(10 ** 400 + 1), 0, 1])
    cat_p = str(tmp_path / "c.json")
    with open(cat_p, "w") as fh:
        fh.write(dumps_canonical(category_to_json(
            make_category("vec", {"field": field}))))
    rc, out, err = run_cli(capsys, "global-dim", cat_p)
    assert (rc, err) == (0, "")
    assert out.splitlines() == [
        "global dimension: 1 (~ 1 or 1, approximate)",
        "center semisimple: True"]


def test_a_generator_past_a_float_squared_is_rendered_at_each_root():
    from tensorcat.cli import _approximate, _render_scalar
    from tensorcat.fields import Field
    a = Field(0, [-(10 ** 400 + 1), 0, 1]).gen()
    assert _render_scalar(a) == "a (~ -1e+200 or 1e+200, approximate)"
    # roots of size 10^350 do not fit a float: the exact value alone
    b = Field(0, [-(10 ** 700 + 1), 0, 1]).gen()
    assert _approximate(b) is None
    assert _render_scalar(b) == repr(b)


def test_decimal_rendering_gives_way_to_the_exact_value():
    from tensorcat.cli import _render_scalar
    from tensorcat.fields import Field
    Q = Field.rationals()
    sqrt2 = Field(0, [-2, 0, 1])
    assert _render_scalar(Q.scalar(10 ** 400)) == repr(Q.scalar(10 ** 400))
    # 1.5e308 fits a float, 1.5e308 sqrt(2) does not
    big = sqrt2.scalar([0, 15 * 10 ** 307])
    assert _render_scalar(big) == repr(big)
    small = sqrt2.scalar([0, 3])
    assert _render_scalar(small).endswith(
        "(~ -4.24264 or 4.24264, approximate)")


def test_decimal_rendering_lists_every_real_embedding():
    from fractions import Fraction
    from tensorcat.cli import _approximate
    from tensorcat.fields import Field
    # a root past 64, a pair past 64 in absolute value, two roots 0.006
    # apart, and roots 10^24 apart in size: each is isolated and refined
    # exactly, to a precision relative to its own size
    cases = [([301, -203, Fraction(-199, 2), 1],
              ["-2.97008", "0.998746", "101.471"]),
             ([-5000, 0, 1], ["-70.7107", "70.7107"]),
             ([Fraction(35999, 100000), Fraction(-6, 5), 1],
              ["0.596838", "0.603162"]),
             ([-1, -10 ** 12, 1], ["-1e-12", "1e+12"]),
             ([-1, -1, 1], ["-0.618034", "1.61803"])]
    for minpoly, roots in cases:
        assert _approximate(Field(0, minpoly).gen()).split(" or ") == roots
    # Q(i) has no real embedding; Q has one, F_p none
    assert _approximate(Field(0, [1, 0, 1]).gen()) is None
    assert _approximate(Field(0).scalar(Fraction(-1, 3))) == "-0.333333"
    assert _approximate(Field(5).scalar(2)) is None


def test_cli_global_dim_text_renders_both_embeddings(tmp_path, capsys):
    lines = {"ising": "global dimension: 4 (~ 4 or 4, approximate)",
             "fibonacci": "global dimension: 2 + phi "
                          "(~ 1.38197 or 3.61803, approximate)"}
    for name, line in lines.items():
        cat_p = str(tmp_path / f"{name}.json")
        run_cli(capsys, "catalog", "emit", name, "--out", cat_p)
        rc, out, _ = run_cli(capsys, "global-dim", cat_p)
        assert rc == 0
        assert out.splitlines()[0] == line


def test_cli_rejects_non_integer_budget(capsys, monkeypatch):
    monkeypatch.setenv("TENSORCAT_BUDGET", "abc")
    for argv in (("schema",), ("analyze", "c.json", "a.json")):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 1
        assert out == ""
        assert err.startswith("error:") and "TENSORCAT_BUDGET" in err
        assert len(err.splitlines()) == 1
    monkeypatch.setenv("TENSORCAT_BUDGET", "0")     # clamped to 1, accepted
    rc, _, _ = run_cli(capsys, "schema")
    assert rc == 0


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_cli_rejects_jobs_below_one(capsys, jobs):
    rc, out, err = run_cli(capsys, "analyze", "c.json", "a.json",
                           "--jobs", jobs)
    assert rc == 1
    assert out == ""
    assert "--jobs" in err and "Traceback" not in err


def _library_errors():
    from tensorcat.fields import FieldError
    from tensorcat.linalg import LinAlgError, SingularMatrix
    from tensorcat.ordalg import OrdAlgebraError, SeparatingElementNotFound
    from tensorcat.poly import DegreeTooLarge, PolynomialError
    from tensorcat.structure import (NotFusion, NotSemisimpleAlgebra,
                                     OracleDisagreement,
                                     PreconditionViolated)
    analyze = ("_cmd_analyze", ("analyze", "c.json", "a.json"))
    return [
        (FieldError("bad field data"), analyze, 1),
        (LinAlgError("shape mismatch"), analyze, 3),
        (SingularMatrix("matrix is singular"), analyze, 3),
        (PreconditionViolated("needs a division algebra"), analyze, 3),
        (NotFusion("a direct sum"), analyze, 1),
        (NotSemisimpleAlgebra("needs semisimplicity"),
         ("_cmd_decompose", ("decompose", "c.json", "a.json")), 1),
        (FieldError("extension minpoly is reducible"),
         ("_cmd_base_extend", ("base-extend", "c.json", "--minpoly", "1,0,1",
                               "--out-category", "x.json")), 1),
        (OracleDisagreement("section vs bimodule radical"), analyze, 3),
        (SeparatingElementNotFound("no separating central element"),
         analyze, 2),
        (OrdAlgebraError("idempotent lifting did not converge"), analyze, 3),
        (DegreeTooLarge("rational factorization supports degree <= 12"),
         analyze, 2),
        (PolynomialError("no squarefree norm found"), analyze, 3),
    ]


@pytest.mark.parametrize("exc,command,code", _library_errors(),
                         ids=lambda v: type(v).__name__
                         if isinstance(v, Exception) else None)
def test_cli_maps_library_errors_to_exit_codes(capsys, monkeypatch, exc,
                                               command, code):
    import tensorcat.cli as cli

    def boom(args, out):
        raise exc
    name, argv = command
    monkeypatch.setattr(cli, name, boom)
    rc, _, err = run_cli(capsys, *argv)
    assert rc == code
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and str(exc) in err


def test_cli_text_reports(tmp_path, capsys):
    cat_p = str(tmp_path / "c.json")
    alg_p = str(tmp_path / "a.json")
    run_cli(capsys, "catalog", "emit", "z2_f2", "--out", cat_p)
    run_cli(capsys, "catalog", "emit", "z2_f2/regular", "--out", alg_p)
    rc, out, _ = run_cli(capsys, "analyze", cat_p, alg_p, "--report", "json")
    rep = json.loads(out)
    rc_text, text, _ = run_cli(capsys, "analyze", cat_p, alg_p)
    assert rc_text == rc == 0
    lines = text.splitlines()
    assert lines[0] == f"== {cat_p} / {alg_p} =="
    assert lines[1] == "flags:"
    for k in ("semisimple", "simple", "division", "separable"):
        assert f"  {k}: {rep['flags'][k]}" in lines
    assert "criteria:" in lines
    assert rep["oracle_agreement"]
    for k, v in rep["oracle_agreement"].items():
        assert f"  {k}: {v}" in lines

    run_cli(capsys, "catalog", "emit", "vec_q", "--out", cat_p)
    run_cli(capsys, "catalog", "emit", "vec_q/end_1", "--out", alg_p)
    rc, out, _ = run_cli(capsys, "decompose", cat_p, alg_p, "--report", "json")
    md = json.loads(out)["matrix_decomposition"]
    rc_text, text, _ = run_cli(capsys, "decompose", cat_p, alg_p)
    assert rc_text == rc == 0
    lines = text.splitlines()
    assert lines[0] == f"classes: {len(md['classes'])}"
    assert [ln.split(":")[0] for ln in lines[1:-1]] == \
        [f"  class {k}" for k in range(len(md["classes"]))]
    assert lines[-1] == "object identity holds: True"

    run_cli(capsys, "catalog", "emit", "fibonacci", "--out", cat_p)
    rc, text, _ = run_cli(capsys, "global-dim", cat_p)
    assert rc == 0
    lines = text.splitlines()
    assert lines[0].startswith("global dimension: ")
    assert lines[1] == "center semisimple: True"


@pytest.mark.parametrize("name", ["vec_q", "z2", "mmf2"])
def test_cli_analyzes_and_decomposes_the_zero_algebra(tmp_path, capsys, name):
    cat_p, alg_p = str(tmp_path / "cat.json"), str(tmp_path / "zero.json")
    run_cli(capsys, "catalog", "emit", name, "--out", cat_p)
    with open(alg_p, "w") as fh:
        json.dump({"carrier": {}, "mult": [], "unit": []}, fh)
    rc, out, err = run_cli(capsys, "validate", cat_p, alg_p)
    assert rc == 0 and err == ""
    assert out.splitlines()[-1] == "algebra: pass (3 checks)"
    rc, out, err = run_cli(capsys, "analyze", cat_p, alg_p, "--report",
                           "json")
    assert rc == 0 and err == ""
    report = json.loads(out)
    assert report["flags"] == {"semisimple": True, "simple": False,
                               "division": False, "separable": True}
    assert report["matrix_decomposition"]["classes"] == []
    rc, out, err = run_cli(capsys, "decompose", cat_p, alg_p)
    assert (rc, err) == (0, "")
    assert out == "classes: 0\nobject identity holds: True\n"
