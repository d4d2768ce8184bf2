"""The adjoint-isomorphism search runs over the algebra's own field.

`beta_oracle.beta_with_escalation_reference` is the search that, in
characteristic p, base-extends to F_(q^2), F_(q^3) and F_(q^4) where
the field has too few elements for a certifying grid.  The package
searches in F_q alone and runs its small-integer ladder there.  Over
small algebras in characteristic p and a range of budgets both give the
same verdict; where the reference escalated to True, the package tests
as many candidates and finds the same witness in base-field
coefficients.
"""

import beta_oracle
from beta_oracle import (beta_with_escalation_reference, embed_finite,
                         finite_field_of_degree)
from construction_oracle import direct_sum_algebra, quadratic_algebra
from tensorcat import structure
from tensorcat.algebra import internal_end, trivial_algebra
from tensorcat.catalog import make_algebra, make_category
from tensorcat.fields import Field
from tensorcat.fincat import Obj
from tensorcat.structure import (AlgebraAnalysisContext,
                                 separability_beta_with_escalation)

BUDGETS = (1, 2, 3, 5, 8, 13, 20, 40, 60, 100, 1000)


def _power(cat, n):
    A = trivial_algebra(cat)
    for _ in range(n - 1):
        A = direct_sum_algebra(A, trivial_algebra(cat))
    return A


def _small_char_p_inputs():
    """(name, C, A): F_p^n, F_p[Z/n] and every F_p[x]/(x^2 + b x + c)
    for p = 2, 3, 5, then F_4^n, the graded Z/2 and Z/3 algebras and
    the regular algebra of pointed Z/4 over F_2."""
    out = []
    for p in (2, 3, 5):
        vp = make_category("vec", {"field": p})
        out += [(f"F_{p}^{n}", vp, _power(vp, n)) for n in (2, 3, 4)]
        out += [(f"F_{p}[Z/{n}]", vp,
                 make_algebra(vp, "ordinary_group_algebra", {"n": n}))
                for n in (2, 3, 4)]
        out += [(f"F_{p}[x]/(x^2+{b}x+{c})", vp, quadratic_algebra(vp, b, c))
                for b in range(p) for c in range(p)]
    v4 = make_category("vec", {"field": Field.extension(2, [1, 1, 1])})
    out += [(f"F_4^{n}", v4, _power(v4, n)) for n in (2, 3, 4, 5)]
    for p in (2, 3):
        zp = make_category("graded_char_p", {"p": p})
        out.append((f"z{p}_f{p}/regular", zp,
                    make_algebra(zp, "regular_pointed", {})))
    z4 = make_category("pointed", {"n": 4, "field": 2})
    out.append(("pointed Z/4 over F_2", z4,
                make_algebra(z4, "regular_pointed", {})))
    return out


def _benchmark_extras():
    """The benchmark's in-process inputs that the corpus leaves out."""
    z5 = make_category("pointed", {"n": 5})
    z4_f3 = make_category("pointed", {"n": 4, "field": 3})
    vq, v2, v3, v5 = (make_category("vec", {"field": p} if p else {})
                      for p in (None, 2, 3, 5))

    def group(cat, n):
        return make_algebra(cat, "ordinary_group_algebra", {"n": n})

    return [("pointed5/regular", z5, make_algebra(z5, "regular_pointed", {})),
            ("z4_f3/regular", z4_f3,
             make_algebra(z4_f3, "regular_pointed", {})),
            ("vec_q/group3", vq, group(vq, 3)),
            ("vec_q/group4", vq, group(vq, 4)),
            ("vec_f2/group4", v2, group(v2, 4)),
            ("vec_f5/group5", v5, group(v5, 5)),
            ("vec_f3/m2", v3, internal_end(v3, Obj(v3, {"1": 2})))]


class _Spies:
    """Counts the reference's base extensions, and the extension fields
    and base extensions made through `structure` while `watching`."""

    def __init__(self, monkeypatch):
        self.reference_extensions = 0
        self.watching = False
        self.extension_fields = []
        self.package_extensions = 0
        ref_extend = beta_oracle.base_extend_algebra
        pkg_extend = structure.base_extend_algebra
        field_init = Field.__init__

        def ref_spy(*args):
            self.reference_extensions += 1
            return ref_extend(*args)

        def pkg_spy(*args):
            self.package_extensions += 1
            return pkg_extend(*args)

        def init_spy(field, char, minpoly=None, **kw):
            if self.watching and minpoly is not None:
                self.extension_fields.append((char, minpoly))
            field_init(field, char, minpoly, **kw)

        monkeypatch.setattr(beta_oracle, "base_extend_algebra", ref_spy)
        monkeypatch.setattr(structure, "base_extend_algebra", pkg_spy)
        monkeypatch.setattr(Field, "__init__", init_spy)

    def reference(self, C, A, ctx):
        before = self.reference_extensions
        verdict, details = beta_with_escalation_reference(C, A, ctx)
        return verdict, details, self.reference_extensions > before

    def package(self, C, A, ctx):
        self.watching = True
        try:
            return separability_beta_with_escalation(C, A, ctx)
        finally:
            self.watching = False


def _embedded(witness, base, deg):
    """A base-field witness in the coefficients of the reference's
    extension of degree `deg`."""
    emb = embed_finite(base, finite_field_of_degree(base.char, deg))
    return [emb(base.scalar(s)).serialize() for s in witness]


def test_the_search_in_its_own_field_matches_the_escalating_reference(
        monkeypatch):
    spies = _Spies(monkeypatch)
    escalated = escalated_true = 0
    for name, C, A in _small_char_p_inputs():
        ctx = AlgebraAnalysisContext(C, A)
        for budget in BUDGETS:
            monkeypatch.setenv("TENSORCAT_BUDGET", str(budget))
            ref, ref_details, extended = spies.reference(C, A, ctx)
            verdict, details = spies.package(C, A, ctx)
            where = (name, budget)
            assert verdict is ref, where
            assert spies.extension_fields == [], where
            assert spies.package_extensions == 0, where
            if not extended:
                assert details == ref_details, where
                continue
            escalated += 1
            if ref is True:
                escalated_true += 1
                assert details["tested"] == ref_details["tested"], where
                assert _embedded(details["witness"], C.field,
                                 ref_details["escalated_to_degree"]) \
                    == ref_details["witness"], where
    # the reference escalated often enough, and found witnesses there,
    # for the comparison to mean something
    assert escalated >= 100
    assert escalated_true >= 5


def test_no_benchmark_input_escalates(monkeypatch, corpus):
    spies = _Spies(monkeypatch)
    monkeypatch.delenv("TENSORCAT_BUDGET", raising=False)
    for name, C, A in corpus + _benchmark_extras():
        ctx = AlgebraAnalysisContext(C, A)
        ref, ref_details, extended = spies.reference(C, A, ctx)
        assert not extended, name
        assert spies.package(C, A, ctx) == (ref, ref_details), name

