"""Each model's index for the model-side checks: the valuation, the
sub-model test, the image conditions, the unit-world candidates and the
category's arrow rows read it, and give what the per-call reference code
in ``helpers`` gives on seeded random models (S4 and not), the corpus
models and the translations of a built family. The index is built at
most once per model."""

import itertools
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

from qrtmodal import corpus, kripke, smc
from qrtmodal.formulas import Atom, Box, Diamond, DomainWarning, Iff, Implies, Not, conj, evaluate, is_valid
from qrtmodal.generate import random_formula
from qrtmodal.harness import build_family, run_theorems
from qrtmodal.kripke import KripkeModel, StarredModel, is_sub_model
from qrtmodal.relations import reflexive_transitive_closure
from qrtmodal.translate import image_conditions, to_model, unit_world_candidates

from helpers import (
    random_model,
    reference_arrow_rows,
    reference_evaluate,
    reference_image_conditions,
    reference_is_sub_model,
    reference_is_valid,
    reference_unit_world_candidates,
)

CORPUS_THEORIES = ("trivial_qrt", "chain_qrt", "entanglement_qrt", "resource_destroying_qrt", "convex_closed_qrt")


def random_starred(seed: int, s4: bool) -> StarredModel:
    rng = np.random.default_rng([seed, 77])
    m = random_model(rng, max_worlds=5, max_atoms=5, s4=s4)
    atoms = sorted(m.domain)
    pairs = {(a, b) for a in atoms for b in atoms if rng.random() < 0.3}
    return StarredModel(m, reflexive_transitive_closure(pairs, atoms))


def corpus_starred() -> list:
    out = [(name, to_model(getattr(corpus, name)()).starred) for name in CORPUS_THEORIES]
    out.append(("broken_smc_model", corpus.broken_smc_model()))
    preorder = lambda m: frozenset((a, a) for a in m.domain)  # noqa: E731
    for name in ("broken_monotone_model", "broken_no_unit_model"):
        m = getattr(corpus, name)()
        out.append((name, StarredModel(m, preorder(m))))
    return out


INPUT_SETS = {
    "random": lambda: [(f"seed{s}", random_starred(s, s4=s % 2 == 0)) for s in range(24)],
    "corpus": corpus_starred,
    "family": lambda: [(label, to_model(q).starred) for label, q in build_family(1, 20)],
}


def fresh(m: KripkeModel, access=None) -> KripkeModel:
    return KripkeModel(m.worlds, m.access if access is None else access, m.domain, m.domains, m.interp)


def recorded(call):
    """call()'s value, or the type of what it raised, and the ordered
    DomainWarning messages it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = call()
        except Exception as exc:  # both sides must raise the same type
            value = type(exc)
    assert all(w.category is DomainWarning for w in caught)
    return value, [str(w.message) for w in caught]


@pytest.mark.parametrize("inputs", sorted(INPUT_SETS))
def test_valuation_matches_the_reference(inputs):
    rng = np.random.default_rng(5)
    for _, sm in INPUT_SETS[inputs]():
        m = sm.model
        atoms = sorted(m.domain)
        for _ in range(12):
            f = random_formula(rng, atoms, max_depth=4)
            for warn in (True, False):
                assert recorded(lambda: is_valid(m, f, warn)) == recorded(lambda: reference_is_valid(m, f, warn))
                for w in sorted(m.worlds):
                    got = recorded(lambda: evaluate(m, f, w, warn))
                    assert got == recorded(lambda: reference_evaluate(m, f, w, warn))


def drawn_biconditional(rng, atoms: list, levels: int):
    """A draw of ``random_formula`` joined by <-> with a fresh draw, on
    either side, at each of the levels, some levels under a box or a
    diamond."""
    f = random_formula(rng, atoms, max_depth=3)
    for _ in range(levels):
        g = random_formula(rng, atoms, max_depth=3)
        f = Iff(f, g) if rng.random() < 0.5 else Iff(g, f)
        if rng.random() < 0.3:
            f = (Box if rng.random() < 0.5 else Diamond)(f)
    return f


def desugared(f):
    """f with each biconditional (a <-> b) written as ((a -> b) & (b -> a))."""
    if isinstance(f, Iff):
        a, b = desugared(f.left), desugared(f.right)
        return conj(Implies(a, b), Implies(b, a))
    if isinstance(f, Implies):
        return Implies(desugared(f.left), desugared(f.right))
    if isinstance(f, (Not, Box, Diamond)):
        return type(f)(desugared(f.sub))
    return f


@pytest.mark.parametrize("inputs", sorted(INPUT_SETS))
def test_biconditionals_match_the_reference_and_their_desugared_truth(inputs):
    rng = np.random.default_rng(9)
    for _, sm in INPUT_SETS[inputs]():
        m = sm.model
        atoms = sorted(m.domain)
        for _ in range(6):
            f = drawn_biconditional(rng, atoms, 3)
            assert recorded(lambda: is_valid(m, f)) == recorded(lambda: reference_is_valid(m, f))
            for w in sorted(m.worlds):
                got = recorded(lambda: evaluate(m, f, w))
                assert got == recorded(lambda: reference_evaluate(m, f, w))
                assert got[0] == evaluate(m, desugared(f), w, warn_domains=False)


def test_a_biconditional_walks_each_side_once_left_first():
    # both atoms are outside w's domain; the desugared form walked p, q, p
    m = KripkeModel(["w"], [("w", "w")], ["p", "q"], {"w": set()}, {"p": 0, "q": 1})
    messages = [f"atom {a} evaluated at world w outside its domain" for a in ("p", "q")]
    assert recorded(lambda: evaluate(m, Iff(Atom("p"), Atom("q")), "w")) == (0, messages)
    assert recorded(lambda: is_valid(m, Iff(Atom("q"), Atom("p")))) == ((False, "w"), messages[::-1])


@pytest.mark.parametrize("inputs", sorted(INPUT_SETS))
def test_sub_models_match_the_reference(inputs):
    for _, sm in INPUT_SETS[inputs]():
        m = sm.model
        worlds = sorted(m.worlds)
        checked = Counter()
        for size in range(1, len(worlds) + 1):
            for keep in itertools.combinations(worlds, size):
                access = {(a, b) for a, b in m.access if a in keep and b in keep}
                sub = KripkeModel(keep, access, m.domain, {w: m.domains[w] for w in keep}, m.interp)
                cuts = [sub] + [fresh(sub, access - {pair}) for pair in sorted(access)[:3]]
                for s in cuts:
                    got = is_sub_model(s, m)
                    assert got == reference_is_sub_model(s, m)
                    assert is_sub_model(m, s) == reference_is_sub_model(m, s)
                    checked[got] += 1
        assert checked[True] == 2 ** len(worlds) - 1  # each restriction, and no copy with an edge dropped
        assert checked[False] or not m.access


@pytest.mark.parametrize("inputs", sorted(INPUT_SETS))
def test_image_conditions_and_unit_worlds_match_the_reference(inputs):
    for _, sm in INPUT_SETS[inputs]():
        m = sm.model
        assert image_conditions(m) == reference_image_conditions(m)
        assert unit_world_candidates(m) == reference_unit_world_candidates(m)


@pytest.mark.parametrize("inputs", sorted(INPUT_SETS))
def test_arrow_rows_match_the_reference(inputs):
    for _, sm in INPUT_SETS[inputs]():
        index = {a: i for i, a in enumerate(sorted(sm.model.domain))}
        assert smc._arrow_rows(sm, index) == reference_arrow_rows(sm, index)


def test_the_inputs_cover_s4_and_other_models_and_failing_conditions():
    subjects = [sm.model for build in INPUT_SETS.values() for _, sm in build()]
    s4 = Counter(kripke.is_s4(m)[0] for m in subjects)
    conditions = Counter((c["i"], c["ii"]) for c in map(image_conditions, subjects))
    assert s4[True] and s4[False]
    assert conditions[(True, True)] and conditions[(False, True)] and conditions[(True, False)]


def test_each_model_builds_its_index_once(monkeypatch):
    """Over one run, no model builds its index twice, whichever module
    asks for it."""
    real = kripke._index
    built, models = Counter(), []  # the models stay alive, so no id is reused

    def counted(m):
        if m._rows is None:
            models.append(m)
            built[id(m)] += 1
        return real(m)

    readers = [mod for name, mod in sys.modules.items() if name.startswith("qrtmodal") and getattr(mod, "_index", None) is real]
    assert {mod.__name__ for mod in readers} >= {"qrtmodal.kripke", "qrtmodal.formulas", "qrtmodal.translate", "qrtmodal.smc"}
    for mod in readers:
        monkeypatch.setattr(mod, "_index", counted)
    assert run_theorems(seed=1, count=20)["status"] == 0
    assert built and max(built.values()) == 1


# -- the DomainWarning rule ---------------------------------------------------

# one warning each time the walk evaluates an atom at a world outside that
# world's domain: worlds and successors in sorted order, an antecedent
# before its consequent, and each quantifier stops at the first successor
# that settles it


def test_a_box_stops_warning_at_its_first_falsifying_successor():
    # q is outside w0's domain, p outside both successors'; p is false
    m = KripkeModel(
        ["w0", "w2", "w1"], [("w0", "w2"), ("w0", "w1")], ["p", "q"],
        {"w0": {"p"}, "w1": {"q"}, "w2": set()}, {"p": 0, "q": 1},
    )
    f = Implies(Atom("q"), Box(Atom("p")))
    messages = ["atom q evaluated at world w0 outside its domain", "atom p evaluated at world w1 outside its domain"]
    assert recorded(lambda: evaluate(m, f, "w0")) == (0, messages)
    assert recorded(lambda: is_valid(m, f)) == ((False, "w0"), messages)


def test_a_diamond_stops_warning_at_its_first_satisfying_successor():
    # p is true and outside both successors' domains; q is false and outside w0's
    m = KripkeModel(
        ["w0", "u2", "u1"], [("w0", "u1"), ("w0", "u2")], ["p", "q"],
        {"w0": {"p"}, "u1": {"q"}, "u2": {"q"}}, {"p": 1, "q": 0},
    )
    f = Implies(Diamond(Atom("p")), Atom("q"))
    messages = ["atom p evaluated at world u1 outside its domain", "atom q evaluated at world w0 outside its domain"]
    assert recorded(lambda: evaluate(m, f, "w0")) == (0, messages)
    # u1 and u2 have no successors, so the diamond fails there and the implication holds
    assert recorded(lambda: is_valid(m, f)) == ((False, "w0"), messages)
    assert recorded(lambda: evaluate(m, Diamond(Atom("p")), "w0")) == (1, messages[:1])
