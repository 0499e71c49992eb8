"""Kripke model tests: well-formedness, S4, sub-models, isomorphism
search (including oracle equivalence for the pruned search)."""

import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrtmodal import config
from qrtmodal.errors import ResourceLimitError, StructuralError
from qrtmodal.relations import reflexive_transitive_closure
from qrtmodal.translate import to_starred_model
from qrtmodal.kripke import (
    KripkeModel,
    StarredModel,
    is_s4,
    is_sub_model,
    models_isomorphic,
    starred_isomorphic,
)

from helpers import random_model


def small_model(**overrides):
    base = dict(
        worlds=["w", "u"],
        access=[("w", "w"), ("u", "u"), ("w", "u")],
        domain=["p", "q"],
        domains={"w": {"p"}, "u": {"q"}},
        interp={"p": 1, "q": 0},
    )
    base.update(overrides)
    return KripkeModel(**base)


def isomorphic_exhaustive(a, b):
    """The oracle that certifies the pruned search: an unpruned search
    over all world and atom bijections. Given two starred models, the atom
    bijection must also carry one preorder exactly onto the other."""
    order_a = order_b = frozenset()
    if isinstance(a, StarredModel):
        a, order_a, b, order_b = a.model, a.order, b.model, b.order
    if len(a.worlds) != len(b.worlds) or len(a.domain) != len(b.domain):
        return False
    aw, ad = sorted(a.worlds), sorted(a.domain)
    for wperm in itertools.permutations(sorted(b.worlds)):
        wmap = dict(zip(aw, wperm))
        if {(wmap[u], wmap[v]) for u, v in a.access} != b.access:
            continue
        for dperm in itertools.permutations(sorted(b.domain)):
            dmap = dict(zip(ad, dperm))
            if (
                all(a.interp[p] == b.interp[dmap[p]] for p in ad)
                and {(dmap[p], dmap[q]) for p, q in order_a} == order_b
                and all({dmap[p] for p in a.domains[w]} == b.domains[wmap[w]] for w in aw)
            ):
                return True
    return False


class TestWellFormedness:
    def test_empty_worlds(self):
        with pytest.raises(StructuralError):
            KripkeModel([], [], ["p"], {}, {"p": 1})

    def test_access_outside_worlds(self):
        with pytest.raises(StructuralError):
            small_model(access=[("w", "v")])

    def test_domain_not_subset(self):
        with pytest.raises(StructuralError):
            small_model(domains={"w": {"zzz"}, "u": set()})

    def test_domain_of_an_unknown_world(self):
        with pytest.raises(StructuralError, match="^domain given for world ghost, which is not in the world set$"):
            small_model(domains={"w": {"p"}, "u": {"q"}, "ghost": {"p"}})

    def test_interp_not_total(self):
        with pytest.raises(StructuralError):
            small_model(interp={"p": 1})

    @pytest.mark.parametrize("value", [True, 1.0])
    def test_truth_value_must_be_the_int_0_or_1(self, value):
        message = f"truth value of atom p is {value!r}, not 0 or 1"
        with pytest.raises(StructuralError, match=f"^{re.escape(message)}$"):
            small_model(interp={"p": value, "q": 0})

    @pytest.mark.parametrize("pair", [("p", "z"), ("z", "p")])
    def test_order_pair_with_one_end_outside_the_domain(self, pair):
        with pytest.raises(StructuralError, match=rf"^order pair \({pair[0]}, {pair[1]}\) leaves the domain$"):
            StarredModel(small_model(), [("p", "p"), ("q", "q"), pair])

    def test_models_are_immutable(self):
        m = small_model()
        for obj in (m, StarredModel(m, [("p", "p"), ("q", "q")])):
            with pytest.raises(AttributeError, match=f"^{type(obj).__name__} is immutable$"):
                obj.model = m

    def test_starred_models_built_apart_are_equal_and_hash_alike(self):
        order = [("p", "p"), ("q", "q"), ("p", "q")]
        a, b = StarredModel(small_model(), order), StarredModel(small_model(), reversed(order))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != StarredModel(small_model(), order[:2]) and a != a.model

    def test_order_must_be_preorder(self):
        m = small_model()
        with pytest.raises(StructuralError):
            StarredModel(m, [("p", "q")])  # not reflexive
        with pytest.raises(StructuralError):
            StarredModel(
                m, [("p", "p"), ("q", "q"), ("p", "q"), ("q", "p2")]
            )


class TestIsS4:
    def test_single_reflexive_world(self):
        m = KripkeModel(["w"], [("w", "w")], ["p"], {"w": {"p"}}, {"p": 1})
        ok, witness = is_s4(m)
        assert ok and witness is None

    def test_missing_reflexive_loop(self):
        m = small_model(access=[("w", "u"), ("u", "u")])
        ok, witness = is_s4(m)
        assert not ok
        assert witness == "w"

    def test_transitivity_witness(self):
        m = KripkeModel(
            ["w", "u", "v"],
            [("w", "w"), ("u", "u"), ("v", "v"), ("w", "u"), ("u", "v")],
            ["p"],
            {"w": set(), "u": set(), "v": {"p"}},
            {"p": 1},
        )
        ok, witness = is_s4(m)
        assert not ok
        assert witness == ("w", "u", "v")


class TestSubModel:
    def test_reflexive(self):
        m = small_model()
        assert is_sub_model(m, m)

    def test_truth_may_be_lost(self):
        m = small_model()
        weaker = small_model(interp={"p": 0, "q": 0})
        assert is_sub_model(weaker, m)

    def test_truth_may_not_be_gained(self):
        m = small_model()
        stronger = small_model(interp={"p": 1, "q": 1})
        assert not is_sub_model(stronger, m)

    def test_restriction_is_sub_model(self):
        m = small_model()
        sub = KripkeModel(["w"], [("w", "w")], ["p"], {"w": {"p"}}, {"p": 1})
        assert is_sub_model(sub, m)

    def test_access_must_be_full_restriction(self):
        m = small_model()
        sub = KripkeModel(
            ["w", "u"], [("w", "w"), ("u", "u")], ["p", "q"],
            {"w": {"p"}, "u": {"q"}}, {"p": 1, "q": 0},
        )
        assert not is_sub_model(sub, m)  # the (w, u) edge vanished

    def test_global_domain_may_not_grow(self):
        m = small_model()
        sub = small_model(domain=["p", "q", "r"], interp={"p": 1, "q": 0, "r": 0})
        assert not is_sub_model(sub, m)

    def test_world_domains_must_agree(self):
        m = small_model()
        sub = small_model(domains={"w": {"p"}, "u": {"p", "q"}})
        assert not is_sub_model(sub, m)

    def test_mutual_sub_models_with_same_carrier_are_isomorphic(self):
        a = small_model()
        b = small_model()
        assert is_sub_model(a, b) and is_sub_model(b, a)
        ok, _ = models_isomorphic(a, b)
        assert ok


class TestModelsIsomorphic:
    def test_relabeled(self):
        a = small_model()
        b = KripkeModel(
            ["x", "y"],
            [("x", "x"), ("y", "y"), ("x", "y")],
            ["r", "s"],
            {"x": {"r"}, "y": {"s"}},
            {"r": 1, "s": 0},
        )
        ok, witness = models_isomorphic(a, b)
        assert ok
        wmap, dmap = witness
        assert wmap == {"w": "x", "u": "y"}
        assert dmap == {"p": "r", "q": "s"}

    def test_world_count_mismatch(self):
        a = small_model()
        b = KripkeModel(["x"], [("x", "x")], ["r"], {"x": {"r"}}, {"r": 1})
        assert models_isomorphic(a, b) == (False, None)

    def test_interp_mismatch(self):
        a = small_model()
        b = small_model(interp={"p": 0, "q": 0})
        ok, _ = models_isomorphic(a, b)
        assert not ok

    def test_search_cap(self, monkeypatch):
        a = small_model()
        monkeypatch.setattr(config, "MAX_ISO_NODES", 1)
        with pytest.raises(ResourceLimitError):
            models_isomorphic(a, a)


class TestStarredIsomorphic:
    def test_identical(self):
        sm = StarredModel(small_model(), [("p", "p"), ("q", "q"), ("p", "q")])
        ok, witness = starred_isomorphic(sm, sm)
        assert ok and witness is not None

    def test_order_sizes_differ(self):
        m = small_model()
        a = StarredModel(m, [("p", "p"), ("q", "q"), ("p", "q")])
        b = StarredModel(m, [("p", "p"), ("q", "q")])
        assert starred_isomorphic(a, b) == (False, None)

    def test_chain_versus_antichain(self):
        m = KripkeModel(
            ["w"], [("w", "w")], ["a", "b", "c"],
            {"w": {"a", "b", "c"}}, {"a": 0, "b": 0, "c": 0},
        )
        diag = [(x, x) for x in "abc"]
        chain = StarredModel(m, diag + [("a", "b"), ("b", "c"), ("a", "c")])
        antichain = StarredModel(m, diag)
        ok, _ = models_isomorphic(m, m)
        assert ok  # the underlying models agree
        assert starred_isomorphic(chain, antichain) == (False, None)

    def test_order_respecting_witness(self):
        m1 = KripkeModel(
            ["w"], [("w", "w")], ["a", "b"], {"w": {"a", "b"}}, {"a": 0, "b": 0}
        )
        m2 = KripkeModel(
            ["w"], [("w", "w")], ["x", "y"], {"w": {"x", "y"}}, {"x": 0, "y": 0}
        )
        a = StarredModel(m1, [("a", "a"), ("b", "b"), ("a", "b")])
        b = StarredModel(m2, [("x", "x"), ("y", "y"), ("y", "x")])
        ok, witness = starred_isomorphic(a, b)
        assert ok
        _, dmap = witness
        assert dmap == {"a": "y", "b": "x"}


class TestPruningSoundness:
    """The pruned search must agree with the unpruned exhaustive oracle."""

    def test_on_random_pairs(self):
        rng = np.random.default_rng(101)
        models = [random_model(rng, max_worlds=4, max_atoms=6) for _ in range(14)]
        pairs = [(a, b) for a in models for b in models]
        hits = 0
        for a, b in pairs:
            fast, _ = models_isomorphic(a, b)
            slow = isomorphic_exhaustive(a, b)
            assert fast == slow
            hits += fast
        assert hits >= len(models)  # at least the diagonal

    def test_on_relabeled_pairs(self):
        rng = np.random.default_rng(103)
        for _ in range(10):
            a = random_model(rng, max_worlds=4, max_atoms=5)
            worlds = sorted(a.worlds)
            atoms = sorted(a.domain)
            wmap = dict(zip(worlds, [f"W{i}" for i in rng.permutation(len(worlds))]))
            dmap = dict(zip(atoms, [f"D{i}" for i in rng.permutation(len(atoms))]))
            b = KripkeModel(
                [wmap[w] for w in worlds],
                [(wmap[x], wmap[y]) for x, y in a.access],
                [dmap[d] for d in atoms],
                {wmap[w]: {dmap[d] for d in a.domains[w]} for w in worlds},
                {dmap[d]: a.interp[d] for d in atoms},
            )
            ok, _ = models_isomorphic(a, b)
            assert ok and isomorphic_exhaustive(a, b)


class TestEquivalenceRelation:
    def test_spot_checks(self):
        rng = np.random.default_rng(107)
        ms = [random_model(rng, 3, 4) for _ in range(6)]
        for m in ms:
            ok, _ = models_isomorphic(m, m)
            assert ok
        for a in ms:
            for b in ms:
                ab, _ = models_isomorphic(a, b)
                ba, _ = models_isomorphic(b, a)
                assert ab == ba
        for a in ms:
            for b in ms:
                for c in ms:
                    ab, _ = models_isomorphic(a, b)
                    bc, _ = models_isomorphic(b, c)
                    if ab and bc:
                        ac, _ = models_isomorphic(a, c)
                        assert ac


# -- the shared engine against the exhaustive oracle ---------------------------


def relabel(sm: StarredModel, rng: random.Random) -> StarredModel:
    """A copy of a starred model with worlds and atoms renamed at random."""
    m = sm.model
    ws, ds = sorted(m.worlds), sorted(m.domain)
    wmap = dict(zip(ws, rng.sample([f"W{i}" for i in range(len(ws))], len(ws))))
    dmap = dict(zip(ds, rng.sample([f"D{i}" for i in range(len(ds))], len(ds))))
    model = KripkeModel(
        [wmap[w] for w in ws],
        [(wmap[u], wmap[v]) for u, v in m.access],
        [dmap[p] for p in ds],
        {wmap[w]: {dmap[p] for p in m.domains[w]} for w in ws},
        {dmap[p]: m.interp[p] for p in ds},
    )
    return StarredModel(model, [(dmap[p], dmap[q]) for p, q in sm.order])


def maps_structure(a: StarredModel, b: StarredModel, witness, starred: bool) -> bool:
    """The witness is a pair of bijections carrying access, domains, truth
    and, when ``starred``, the preorder of a exactly onto b's."""
    (wmap, dmap), ma, mb = witness, a.model, b.model
    return (
        set(wmap) == ma.worlds
        and set(wmap.values()) == mb.worlds
        and set(dmap) == ma.domain
        and set(dmap.values()) == mb.domain
        and {(wmap[u], wmap[v]) for u, v in ma.access} == mb.access
        and all({dmap[p] for p in ma.domains[w]} == mb.domains[wmap[w]] for w in ma.worlds)
        and all(ma.interp[p] == mb.interp[dmap[p]] for p in ma.domain)
        and (not starred or {(dmap[p], dmap[q]) for p, q in a.order} == b.order)
    )


def assert_agrees_with_oracle(a: StarredModel, b: StarredModel, label: str = "") -> None:
    ok, witness = models_isomorphic(a.model, b.model)
    assert ok == isomorphic_exhaustive(a.model, b.model), label
    assert witness is None if not ok else maps_structure(a, b, witness, False), label
    ok, witness = starred_isomorphic(a, b)
    assert ok == isomorphic_exhaustive(a, b), label
    assert witness is None if not ok else maps_structure(a, b, witness, True), label


@st.composite
def starred_models(draw, max_worlds: int = 3, max_atoms: int = 4) -> StarredModel:
    worlds = [f"w{i}" for i in range(draw(st.integers(1, max_worlds)))]
    atoms = [f"a{i}" for i in range(draw(st.integers(1, max_atoms)))]
    pairs = lambda xs: st.sets(st.tuples(st.sampled_from(xs), st.sampled_from(xs)))
    model = KripkeModel(
        worlds,
        draw(pairs(worlds)),
        atoms,
        {w: draw(st.sets(st.sampled_from(atoms))) for w in worlds},
        {p: draw(st.integers(0, 1)) for p in atoms},
    )
    return StarredModel(model, reflexive_transitive_closure(draw(pairs(atoms)), atoms))


class TestSearchAgainstExhaustiveOracle:
    @settings(max_examples=150, deadline=None)
    @given(starred_models(), starred_models())
    def test_drawn_pairs(self, a, b):
        assert_agrees_with_oracle(a, b)

    @settings(max_examples=100, deadline=None)
    @given(starred_models(4, 5), st.randoms(use_true_random=False))
    def test_drawn_relabelings(self, a, rng):
        b = relabel(a, rng)
        assert models_isomorphic(a.model, b.model)[0] and starred_isomorphic(a, b)[0]
        assert_agrees_with_oracle(a, b)

    def test_edge_direction(self):
        # the same in- and out-degree multisets, so only the direction of
        # each link tells the two apart
        worlds = ["w0", "w1", "w2", "w3"]
        one = [("w0", "w1"), ("w1", "w3"), ("w2", "w1"), ("w2", "w3"), ("w3", "w0"), ("w3", "w2")]
        two = [("w0", "w1"), ("w1", "w3"), ("w2", "w0"), ("w2", "w3"), ("w3", "w0"), ("w3", "w2")]
        a, b = (KripkeModel(worlds, r, ["p"], {}, {"p": 0}) for r in (one, two))
        assert not isomorphic_exhaustive(a, b)
        assert models_isomorphic(a, b) == (False, None)

    def test_translated_pairs(self, theory_pairs):
        for label, x, y in theory_pairs:
            a, b = to_starred_model(x).starred, to_starred_model(y).starred
            assert_agrees_with_oracle(a, b, label)


def cycles_model(sizes: list, truth: int) -> StarredModel:
    """Worlds on disjoint cycles, consecutive worlds sharing one atom. Each
    world has only its self-loop and two atoms of one truth value, so every
    world and every atom looks alike to a degree count."""
    worlds, atoms, domains = [], [], {}
    for k in sizes:
        ws = [f"w{len(worlds) + i}" for i in range(k)]
        ats = [f"a{len(atoms) + i}" for i in range(k)]
        domains.update((w, {ats[i], ats[(i + 1) % k]}) for i, w in enumerate(ws))
        worlds += ws
        atoms += ats
    model = KripkeModel(
        worlds, [(w, w) for w in worlds], atoms, domains, {p: truth for p in atoms}
    )
    return StarredModel(model, [(p, p) for p in atoms])


class TestCycleSearch:
    """One 8-cycle against a 3-cycle and a 5-cycle: a search over worlds
    alone lists all 8! world maps before it looks at an atom."""

    @pytest.fixture(autouse=True)
    def node_guard(self, monkeypatch):
        monkeypatch.setattr(config, "MAX_ISO_NODES", 10_000)

    def test_long_cycle_against_two_short_ones(self):
        one, two = cycles_model([8], 1), cycles_model([3, 5], 1)
        assert models_isomorphic(one.model, two.model) == (False, None)
        assert starred_isomorphic(one, two) == (False, None)

    def test_relabelled_long_cycle(self):
        one = cycles_model([8], 0)
        other = relabel(one, random.Random(8))
        ok, witness = models_isomorphic(one.model, other.model)
        assert ok and maps_structure(one, other, witness, False)
        ok, witness = starred_isomorphic(one, other)
        assert ok and maps_structure(one, other, witness, True)


class TestBudget:
    def test_one_node_is_not_enough(self, monkeypatch):
        a = small_model()
        sa = StarredModel(a, [("p", "p"), ("q", "q")])
        message = r"^isomorphism search exceeded 1 nodes$"
        monkeypatch.setattr(config, "MAX_ISO_NODES", 1)
        with pytest.raises(ResourceLimitError, match=message):
            models_isomorphic(a, a)
        with pytest.raises(ResourceLimitError, match=message):
            starred_isomorphic(sa, sa)
