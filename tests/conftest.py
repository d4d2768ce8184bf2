import functools

import pytest
from hypothesis import settings

from construction_oracle import natural_rep_reference, natural_traces
from tensorcat.catalog import make_algebra, standard_entries
from tensorcat.algebra import internal_end
from tensorcat.fincat import Obj
from tensorcat.modcat import EndData
from tensorcat.ordalg import OrdAlgebraError

# the same examples on every machine, and no example database on disk
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


def check_end_algebra(end, E) -> None:
    """The checks `EndData` leaves to its certificate: the unit law and
    associativity on every reachable triple (`OrdAlgebra._validate`), and
    the traces the radical reads off the structure constants equal to
    those of the natural block representation of `end`."""
    E._validate()
    if E._nat_traces() != natural_traces(E.field, natural_rep_reference(end)):
        raise OrdAlgebraError("the traces are not the natural "
                              "representation's")


@pytest.fixture(scope="session", autouse=True)
def end_algebras_checked():
    """Every End algebra that `EndData` builds in the suite passes
    `check_end_algebra`; the library builds them without it, as
    associative by construction."""
    build = EndData._build_algebra

    @functools.wraps(build)
    def checked(self):
        E = build(self)
        check_end_algebra(self, E)
        return E

    EndData._build_algebra = checked
    yield
    EndData._build_algebra = build


@pytest.fixture(scope="session")
def cats():
    return {name: mk() for name, mk in standard_entries().items()}


def corpus_algebras(cats):
    """The (name, category, algebra) corpus used by the acceptance suite."""
    out = []

    def add(name, cat, alg):
        out.append((name, cat, alg))

    vq, vf2, vf3 = cats["vec_q"], cats["vec_f2"], cats["vec_f3"]
    add("vec_q/trivial", vq, make_algebra(vq, "trivial"))
    add("vec_q/m2", vq, internal_end(vq, Obj(vq, {"1": 2})))
    add("vec_q/group2", vq, make_algebra(vq, "ordinary_group_algebra", {"n": 2}))
    add("vec_f2/group2", vf2,
        make_algebra(vf2, "ordinary_group_algebra", {"n": 2}))
    add("vec_f2/group3", vf2,
        make_algebra(vf2, "ordinary_group_algebra", {"n": 3}))
    add("vec_f3/group3", vf3,
        make_algebra(vf3, "ordinary_group_algebra", {"n": 3}))
    z2 = cats["z2"]
    add("z2/regular", z2, make_algebra(z2, "regular_pointed", {}))
    add("z2/trivial", z2, make_algebra(z2, "trivial"))
    z2t = cats["z2_twisted"]
    add("z2_twisted/trivial", z2t, make_algebra(z2t, "trivial"))
    add("z2_twisted/end_g1", z2t,
        make_algebra(z2t, "internal_end", {"obj": {"g1": 1}}))
    z3 = cats["z3"]
    add("z3/regular", z3, make_algebra(z3, "regular_pointed", {}))
    z4 = cats["z4"]
    add("z4/regular", z4, make_algebra(z4, "regular_pointed", {}))
    add("z4/sub2", z4,
        make_algebra(z4, "regular_pointed", {"subgroup_order": 2}))
    zf2 = cats["z2_f2"]
    add("z2_f2/regular", zf2, make_algebra(zf2, "regular_pointed", {}))
    zf3 = cats["z3_f3"]
    add("z3_f3/regular", zf3, make_algebra(zf3, "regular_pointed", {}))
    fib = cats["fibonacci"]
    add("fibonacci/end_t", fib,
        make_algebra(fib, "internal_end", {"obj": {"t": 1}}))
    add("fibonacci/trivial", fib, make_algebra(fib, "trivial"))
    isg = cats["ising"]
    add("ising/end_sig", isg,
        make_algebra(isg, "internal_end", {"obj": {"sig": 1}}))
    mmf = cats["mmf2"]
    add("mmf2/trivial", mmf, make_algebra(mmf, "trivial"))
    add("mmf2/end_e12", mmf,
        make_algebra(mmf, "internal_end", {"obj": {"e12": 1}}))
    return out


@pytest.fixture(scope="session")
def corpus(cats):
    return corpus_algebras(cats)


@pytest.fixture(scope="session")
def corpus_reports(corpus):
    """One full analysis per corpus pair, computed once per session."""
    from tensorcat.structure import analyze
    return [(name, cat, alg, analyze(cat, alg))
            for name, cat, alg in corpus]
