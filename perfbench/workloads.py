"""The benchmark's inputs: four named workloads and their expected answers.

Every input is built from the shipped catalog, so the program under test
receives only generated categories and algebras.  The lists are copied
here on purpose: an edit to the test suite cannot change the benchmark.

Expected flags are derived from the mathematics, not from tensorcat
output:

* k[G] for a finite group G in Vec_k is semisimple iff char k does not
  divide |G| (Maschke).  A commutative k[G] with |G| > 1 has nontrivial
  idempotents or nilpotents, so it is neither simple nor division.  Over
  a perfect field (Q, F_p) semisimple implies separable.
* A p-group algebra in characteristic p is local with a nonzero radical:
  nothing holds.
* M_n(k) is simple, semisimple and separable, and not division for n > 1.
* The regular algebra of a subgroup H of G in Vec_G (trivial cocycle on
  H) is a division algebra in the category: each graded piece is a line
  of invertible elements, so its module category is semisimple and
  indecomposable (simple), and A is simple as a module over itself.  It
  is separable iff |H| is invertible in k.
* The internal end [X, X] of a simple object X is Morita equivalent to
  the unit: simple, semisimple and division; separable iff dim X != 0,
  which holds for every simple of the shipped categories in char 0.
* The unit algebra of the 2x2 multi-fusion category has a decomposable
  module category (one summand per unit component): semisimple and
  separable, but neither simple nor division.
"""

from dataclasses import dataclass, field

T, F = True, False


def flags(semisimple, simple, division, separable) -> dict:
    return {"semisimple": semisimple, "simple": simple,
            "division": division, "separable": separable}


ALL = flags(T, T, T, T)
GRADED_CHAR_P = flags(T, T, T, F)        # |G| = 0 in k: division, not separable
SPLIT_COMMUTATIVE = flags(T, F, F, T)    # k[G], char k coprime to |G|
MODULAR_GROUP = flags(F, F, F, F)        # k[G], char k divides |G|
MATRIX = flags(T, T, F, T)               # M_n(k), n > 1


@dataclass(frozen=True)
class AlgSpec:
    """One in-process input: a category and an algebra inside it."""
    id: str
    category: tuple            # (catalog category name, params)
    algebra: tuple             # (catalog algebra name, params)
    flags: dict


def _cat(name, **params):
    return (name, params)


VEC_Q = _cat("vec")
VEC_F2 = _cat("vec", field=2)
VEC_F3 = _cat("vec", field=3)
VEC_F5 = _cat("vec", field=5)
Z2 = _cat("pointed", n=2)
Z2_TWISTED = _cat("pointed", n=2, omega={(1, 1, 1): -1})
Z3 = _cat("pointed", n=3)
Z4 = _cat("pointed", n=4)
Z5 = _cat("pointed", n=5)
Z2_F2 = _cat("graded_char_p", p=2)
Z3_F3 = _cat("graded_char_p", p=3)
Z4_F3 = _cat("pointed", n=4, field=3)
FIB = _cat("fibonacci")
ISING = _cat("ising")
MMF2 = _cat("matrix_multifusion", n=2)

TRIVIAL = ("trivial", {})
REGULAR = ("regular_pointed", {})


def _end(obj):
    return ("internal_end", {"obj": obj})


def _group(n):
    return ("ordinary_group_algebra", {"n": n})


CORPUS = [
    AlgSpec("vec_q/trivial", VEC_Q, TRIVIAL, ALL),
    AlgSpec("vec_q/m2", VEC_Q, _end({"1": 2}), MATRIX),
    AlgSpec("vec_q/group2", VEC_Q, _group(2), SPLIT_COMMUTATIVE),
    AlgSpec("vec_f2/group2", VEC_F2, _group(2), MODULAR_GROUP),
    AlgSpec("vec_f2/group3", VEC_F2, _group(3), SPLIT_COMMUTATIVE),
    AlgSpec("vec_f3/group3", VEC_F3, _group(3), MODULAR_GROUP),
    AlgSpec("z2/regular", Z2, REGULAR, ALL),
    AlgSpec("z2/trivial", Z2, TRIVIAL, ALL),
    AlgSpec("z2_twisted/trivial", Z2_TWISTED, TRIVIAL, ALL),
    AlgSpec("z2_twisted/end_g1", Z2_TWISTED, _end({"g1": 1}), ALL),
    AlgSpec("z3/regular", Z3, REGULAR, ALL),
    AlgSpec("z4/regular", Z4, REGULAR, ALL),
    AlgSpec("z4/sub2", Z4, ("regular_pointed", {"subgroup_order": 2}), ALL),
    AlgSpec("z2_f2/regular", Z2_F2, REGULAR, GRADED_CHAR_P),
    AlgSpec("z3_f3/regular", Z3_F3, REGULAR, GRADED_CHAR_P),
    AlgSpec("fibonacci/end_t", FIB, _end({"t": 1}), ALL),
    AlgSpec("fibonacci/trivial", FIB, TRIVIAL, ALL),
    AlgSpec("ising/end_sig", ISING, _end({"sig": 1}), ALL),
    AlgSpec("mmf2/trivial", MMF2, TRIVIAL, flags(T, F, F, T)),
    AlgSpec("mmf2/end_e12", MMF2, _end({"e12": 1}), ALL),
]

LADDER_Q = [
    # sparse rungs: n labels of multiplicity one
    AlgSpec("pointed3/regular", Z3, REGULAR, ALL),
    AlgSpec("pointed4/regular", Z4, REGULAR, ALL),
    AlgSpec("pointed5/regular", Z5, REGULAR, ALL),
    # dense rungs: one label with multiplicity n
    AlgSpec("vec_q/group3", VEC_Q, _group(3), SPLIT_COMMUTATIVE),
    AlgSpec("vec_q/group4", VEC_Q, _group(4), SPLIT_COMMUTATIVE),
    AlgSpec("vec_q/m2", VEC_Q, _end({"1": 2}), MATRIX),
]

CHARP = [
    AlgSpec("z3_f3/regular", Z3_F3, REGULAR, GRADED_CHAR_P),
    AlgSpec("vec_f2/group4", VEC_F2, _group(4), MODULAR_GROUP),
    AlgSpec("vec_f5/group5", VEC_F5, _group(5), MODULAR_GROUP),
    AlgSpec("z4_f3/regular", Z4_F3, REGULAR, ALL),
    AlgSpec("vec_f3/m2", VEC_F3, _end({"1": 2}), MATRIX),
]

IN_PROCESS = {"corpus": CORPUS, "ladder_q": LADDER_Q, "charp": CHARP}

# Whether the inputs of a pass share category objects, and so their caches.
# The corpus does, as one user session would.  The rungs of a ladder do not:
# a rung's time must not depend on which rungs ran before it.
SHARED_CATEGORIES = {"corpus": True, "ladder_q": False, "charp": False}


# ---------------------------------------------------------------------------
# the cli workload: commands run as their own processes on JSON files

# file stem -> category spec, or (category stem, algebra spec)
CLI_FILES = {
    "fib": FIB,
    "fib_end_t": ("fib", _end({"t": 1})),
    "ising": ISING,
    "ising_end_sig": ("ising", _end({"sig": 1})),
    "z2": Z2,
    "z2_regular": ("z2", REGULAR),
    "z3": Z3,
    "z3_regular": ("z3", REGULAR),
    "z2_f2": Z2_F2,
    "z2_f2_regular": ("z2_f2", REGULAR),
    "z3_f3": Z3_F3,
    "z3_f3_regular": ("z3_f3", REGULAR),
    "mmf2": MMF2,
    "mmf2_trivial": ("mmf2", TRIVIAL),
    "mmf2_end_e12": ("mmf2", _end({"e12": 1})),
    "vec_q": VEC_Q,
    "vec_q_m2": ("vec_q", _end({"1": 2})),
    "vec_q_group2": ("vec_q", _group(2)),
}


@dataclass(frozen=True)
class CliSpec:
    """One cli input: commands run in order, each in a fresh process.

    `expect` holds, per command, the exit code and the properties the
    output must show: a list of flag tables for `analyze`, one per
    algebra file; `center_semisimple` for `global-dim`;
    `object_identity` for `decompose`."""
    id: str
    commands: tuple
    expect: tuple
    writes: tuple = field(default=())


def _f(stem):
    return f"{stem}.json"


def _analyze(cat, algs, report, expected_flags):
    return (("analyze", _f(cat), *map(_f, algs), "--report", report),
            {"exit": 0, "flags": expected_flags})


def _global_dim(cat, report, center):
    return (("global-dim", _f(cat), "--report", report),
            {"exit": 0, "center_semisimple": center})


def _one(spec_id, cmd_expect):
    cmd, expect = cmd_expect
    return CliSpec(spec_id, (cmd,), (expect,))


CLI = [
    _one("validate/fib", (("validate", _f("fib"), _f("fib_end_t")), {"exit": 0})),
    _one("validate/ising", (("validate", _f("ising"), _f("ising_end_sig")),
                            {"exit": 0})),
    _one("validate/z3", (("validate", _f("z3"), _f("z3_regular")), {"exit": 0})),
    _one("validate/mmf2", (("validate", _f("mmf2")), {"exit": 0})),
    _one("validate/z3_f3", (("validate", _f("z3_f3"), _f("z3_f3_regular")),
                            {"exit": 0})),
    _one("analyze/z3_regular.json",
         _analyze("z3", ["z3_regular"], "json", [ALL])),
    _one("analyze/fib_end_t.json",
         _analyze("fib", ["fib_end_t"], "json", [ALL])),
    _one("analyze/z2_f2_regular.json",
         _analyze("z2_f2", ["z2_f2_regular"], "json", [GRADED_CHAR_P])),
    _one("analyze/ising_end_sig.text",
         _analyze("ising", ["ising_end_sig"], "text", [ALL])),
    _one("analyze/mmf2_two.json",
         _analyze("mmf2", ["mmf2_end_e12", "mmf2_trivial"], "json",
                  [ALL, flags(T, F, F, T)])),
    _one("analyze/vec_q_two.text",
         _analyze("vec_q", ["vec_q_m2", "vec_q_group2"], "text",
                  [MATRIX, SPLIT_COMMUTATIVE])),
    # global dimensions: 2 + phi, 4, 3, 2 = 0 in F_2, 1 (diagonal component)
    _one("global-dim/fib.json", _global_dim("fib", "json", True)),
    _one("global-dim/ising.text", _global_dim("ising", "text", True)),
    _one("global-dim/z3.json", _global_dim("z3", "json", True)),
    _one("global-dim/z2_f2.json", _global_dim("z2_f2", "json", False)),
    _one("global-dim/mmf2.json", _global_dim("mmf2", "json", True)),
    _one("decompose/fib_end_t.json",
         (("decompose", _f("fib"), _f("fib_end_t"), "--report", "json"),
          {"exit": 0, "object_identity": True})),
    _one("decompose/vec_q_m2.text",
         (("decompose", _f("vec_q"), _f("vec_q_m2"), "--report", "text"),
          {"exit": 0, "object_identity": True})),
    _one("decompose/z2_regular.json",
         (("decompose", _f("z2"), _f("z2_regular"), "--report", "json"),
          {"exit": 0, "object_identity": True})),
    # F_4 = F_2[w]/(w^2 + w + 1); extending the field keeps separability
    CliSpec("base-extend+analyze/z2_f2_regular_f4",
            (("base-extend", _f("z2_f2"), _f("z2_f2_regular"),
              "--minpoly", "1,1,1", "--out-category", "f4.json",
              "--out-algebra", "f4_regular.json"),
             ("analyze", "f4.json", "f4_regular.json", "--report", "json")),
            ({"exit": 0}, {"exit": 0, "flags": [GRADED_CHAR_P]}),
            writes=("f4.json", "f4_regular.json")),
]

WORKLOADS = ("corpus", "ladder_q", "charp", "cli")
