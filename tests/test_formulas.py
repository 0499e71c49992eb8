"""Formula language tests: parsing, printing, valuation, validity, the
edge-possibility and resource-preservation reports, and the bounded
convexity predicate."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qrtmodal import corpus
from qrtmodal.config import DEFAULT_P_SAMPLES
from qrtmodal.errors import FormulaSyntaxError, UnknownSymbolError
from qrtmodal.formulas import (
    Atom,
    Box,
    ConvexCombination,
    Diamond,
    DomainWarning,
    Implies,
    Not,
    PredicateFormula,
    conversion_possibility_report,
    convexity_report,
    evaluate,
    is_resource_preserving,
    is_valid,
    parse,
    print_formula,
)
from qrtmodal.generate import random_formula, random_model
from qrtmodal.kripke import KripkeModel
from qrtmodal.qrt import node_name
from qrtmodal.translate import to_model


class TestParse:
    def test_implication_with_diamond(self):
        assert parse("(A.rho -> <> B.sigma)") == Implies(
            Atom("A.rho"), Diamond(Atom("B.sigma"))
        )

    def test_box_over_implication(self):
        assert parse("[] (p -> q)") == Box(Implies(Atom("p"), Atom("q")))

    def test_negated_box_equals_diamond_everywhere(self):
        rng = np.random.default_rng(1)
        long_form = parse("~ [] ~ p")
        short_form = parse("<> p")
        for _ in range(20):
            m = random_model(rng, 4, 3)
            if "a0" not in m.domain:
                continue
            f1 = Not(Box(Not(Atom("a0"))))
            f2 = Diamond(Atom("a0"))
            for w in m.worlds:
                assert evaluate(m, f1, w, warn_domains=False) == evaluate(
                    m, f2, w, warn_domains=False
                )
        assert long_form == Not(Box(Not(Atom("p"))))
        assert short_form == Diamond(Atom("p"))

    def test_sugar_desugars(self):
        p, q = Atom("p"), Atom("q")
        assert parse("(p & q)") == Not(Implies(p, Not(q)))
        assert parse("(p | q)") == Implies(Not(p), q)
        assert parse("(p <-> q)") == Not(
            Implies(Implies(p, q), Not(Implies(q, p)))
        )

    def test_qualified_atom_names(self):
        assert parse("AB.bell") == Atom("AB.bell")

    @pytest.mark.parametrize(
        "text",
        ["", "(p ->)", "(p q)", "p)", "(p -> q", "~", "p -> q", "3x", "(p -> q))"],
    )
    def test_syntax_errors_carry_position(self, text):
        with pytest.raises(FormulaSyntaxError) as err:
            parse(text)
        assert err.value.position >= 0

    def test_round_trip_small(self):
        rng = np.random.default_rng(2)
        atoms = ["p", "q", "A.rho"]
        for _ in range(200):
            f = random_formula(rng, atoms, max_depth=8)
            assert parse(print_formula(f)) == f


_atoms = st.sampled_from(["p", "q", "r2", "A.rho", "AB.bell"]).map(Atom)
_formulas = st.recursive(
    _atoms,
    lambda children: st.one_of(
        children.map(Not),
        children.map(Box),
        children.map(Diamond),
        st.tuples(children, children).map(lambda t: Implies(*t)),
    ),
    max_leaves=30,
)


@given(_formulas)
def test_print_parse_round_trip(f):
    assert parse(print_formula(f)) == f


class TestEvaluate:
    def small(self):
        return KripkeModel(
            ["w", "u"],
            [("w", "w"), ("u", "u"), ("w", "u")],
            ["p", "q"],
            {"w": {"p"}, "u": {"q"}},
            {"p": 1, "q": 0},
        )

    def test_atom_reads_global_interp(self):
        m = self.small()
        assert evaluate(m, Atom("p"), "w") == 1
        with pytest.warns(DomainWarning):
            assert evaluate(m, Atom("p"), "u") == 1

    def test_box_vacuous_without_successors(self):
        m = KripkeModel(
            ["w", "u"], [("u", "u"), ("u", "w")], ["p"],
            {"w": {"p"}, "u": set()}, {"p": 0},
        )
        assert evaluate(m, Box(Atom("p")), "w", warn_domains=False) == 1
        assert evaluate(m, Diamond(Atom("p")), "w", warn_domains=False) == 0

    def test_diamond_via_successor(self):
        m = self.small()
        rec_like = Diamond(Atom("q"))
        assert evaluate(m, rec_like, "w", warn_domains=False) == 0  # q is false
        flipped = KripkeModel(
            m.worlds, m.access, m.domain, m.domains, {"p": 1, "q": 1}
        )
        assert evaluate(flipped, rec_like, "w", warn_domains=False) == 1

    def test_diamond_at_source_world_of_conversion(self):
        rec = to_model(corpus.chain_qrt())
        # the channel out of A hits the free target, so possibility holds at A
        assert evaluate(rec.model, Diamond(Atom("B.sigma")), "A", warn_domains=False) == 1

    def test_unknown_world_and_atom(self):
        m = self.small()
        with pytest.raises(UnknownSymbolError):
            evaluate(m, Atom("p"), "nope")
        with pytest.raises(UnknownSymbolError):
            evaluate(m, Atom("zz"), "w")


class TestIsValid:
    def test_tautology(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = random_model(rng, 3, 3)
            atom = sorted(m.domain)[0]
            ok, _ = is_valid(m, parse(f"({atom} -> {atom})"), warn_domains=False)
            assert ok

    def test_k_axiom_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = random_model(rng, 4, 4)
            atoms = sorted(m.domain)
            p, q = atoms[0], atoms[-1]
            k = parse(f"([] ({p} -> {q}) -> ([] {p} -> [] {q}))")
            ok, _ = is_valid(m, k, warn_domains=False)
            assert ok

    def test_false_atom_gives_witness(self):
        m = KripkeModel(["w"], [("w", "w")], ["p"], {"w": {"p"}}, {"p": 0})
        ok, witness = is_valid(m, Atom("p"))
        assert not ok and witness == "w"

    def test_necessitation_on_random_models(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(300):
            m = random_model(rng, 4, 4)
            f = random_formula(rng, sorted(m.domain), 4)
            ok, _ = is_valid(m, f, warn_domains=False)
            if ok:
                boxed_ok, _ = is_valid(m, Box(f), warn_domains=False)
                assert boxed_ok
                checked += 1
        assert checked > 10

    def test_duality(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            m = random_model(rng, 4, 4)
            f = random_formula(rng, sorted(m.domain), 4)
            for w in sorted(m.worlds):
                d = evaluate(m, Diamond(f), w, warn_domains=False)
                b = evaluate(m, Box(Not(f)), w, warn_domains=False)
                assert d == 1 - b


class TestS4AxiomsInImages:
    def test_t_and_four_valid_for_every_atom(self):
        from qrtmodal.generate import GeneratorConfig, generate_qrt

        cfg = GeneratorConfig(seed=8, n_systems=3, dims=(1, 2), states_per_system=3)
        for idx in range(6):
            rec = to_model(generate_qrt(cfg, index=idx))
            for atom in sorted(rec.model.domain):
                t_axiom = parse(f"([] {atom} -> {atom})")
                four = parse(f"([] {atom} -> [] [] {atom})")
                assert is_valid(rec.model, t_axiom, warn_domains=False)[0]
                assert is_valid(rec.model, four, warn_domains=False)[0]


class TestPreservationBiconditional:
    def test_preserving_iff_no_resource_to_free_edge(self):
        from qrtmodal.generate import GeneratorConfig, generate_qrt

        cfg = GeneratorConfig(seed=9, n_systems=3, dims=(1, 2), states_per_system=3)
        builds = [lambda i=i: generate_qrt(cfg, index=i) for i in range(6)]
        builds += [corpus.entanglement_qrt, corpus.resource_destroying_qrt]
        for build in builds:
            q = build()
            rec = to_model(q)
            ok, witnesses = is_resource_preserving(rec)
            # independent scan of the edge truth values
            direct = [
                (src, dst)
                for (src, dst, _) in q.edges
                if rec.model.interp[node_name(src)] == 0
                and rec.model.interp[node_name(dst)] == 1
            ]
            assert ok == (not direct)
            assert {(a, b) for a, b, _ in witnesses} == {
                (node_name(s), node_name(d)) for s, d in direct
            }


class TestConversionPossibility:
    def test_chain(self):
        rep = conversion_possibility_report(to_model(corpus.chain_qrt()))
        assert rep["ok"]
        assert any(
            e["edge"][:2] == ["A.rho", "B.sigma"] for e in rep["instances"]
        )

    def test_entanglement(self):
        rep = conversion_possibility_report(to_model(corpus.entanglement_qrt()))
        assert rep["ok"]

    def test_vacuous_for_resources(self):
        rec = to_model(corpus.resource_destroying_qrt())
        rep = conversion_possibility_report(rec)
        # the erase edge starts at a resource: antecedent false, still valid
        assert rep["ok"]


class TestResourcePreservation:
    def test_identity_only(self):
        ok, witnesses = is_resource_preserving(to_model(corpus.trivial_qrt()))
        assert ok and witnesses == []

    def test_erasure_detected(self):
        ok, witnesses = is_resource_preserving(
            to_model(corpus.resource_destroying_qrt())
        )
        assert not ok
        assert ("A.a1", "A.a0", "erase") in witnesses

    def test_all_resource_theory_is_vacuously_preserving(self):
        x, _ = corpus.injectivity_gap_pair()  # no trivial system: nothing free
        ok, _ = is_resource_preserving(to_model(x))
        assert ok


class TestConvexity:
    def test_predicate_validation(self):
        with pytest.raises(ValueError):
            ConvexCombination(1.5, "r1", "r2")
        with pytest.raises(ValueError):
            PredicateFormula(("r1",), ConvexCombination(0.5, "r1", "r2"))
        with pytest.raises(ValueError):
            PredicateFormula(("r1", "r1"), ConvexCombination(0.5, "r1", "r1"))

    def test_convex_closed_example_holds_everywhere(self):
        q = corpus.convex_closed_qrt()
        reports = convexity_report(q, to_model(q), DEFAULT_P_SAMPLES)
        for rep in reports:
            assert rep["ok"], rep
            assert not rep["indeterminate"]

    def test_endpoints_never_indeterminate(self):
        for build in (
            corpus.convex_closed_qrt,
            corpus.convexity_demo_qrt,
            corpus.entanglement_qrt,
        ):
            q = build()
            for rep in convexity_report(q, to_model(q), (0.0, 1.0)):
                assert not rep["indeterminate"]
                assert rep["ok"]

    def test_named_midpoint_holds(self):
        q = corpus.convexity_demo_qrt()
        (rep,) = convexity_report(q, to_model(q), (0.5,))
        assert ("A.q0", "A.q1") in rep["holds"]
        assert rep["ok"]

    def test_unnamed_combination_is_indeterminate_not_false(self):
        q = corpus.convexity_demo_qrt()
        (rep,) = convexity_report(q, to_model(q), (0.25,))
        assert ("A.q0", "A.q1") in rep["indeterminate"]
        assert rep["ok"]  # indeterminate is distinct from failure

    def test_resource_argument_satisfies_clause_two(self):
        q = corpus.resource_destroying_qrt()
        for rep in convexity_report(q, to_model(q), DEFAULT_P_SAMPLES):
            assert ("A.a0", "A.a1") in rep["holds"]
            assert rep["ok"]
