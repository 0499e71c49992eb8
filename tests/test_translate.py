"""Translation tests: the model construction, its starred variant, the
isomorphism conditions, the image conditions, functor laws, and the
starred-injectivity sweep."""

import itertools

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import qrtmodal.kripke as kripke_module
import qrtmodal.qrt as qrt_module
from qrtmodal import config, corpus
from qrtmodal.errors import ResourceLimitError, StructuralError
from qrtmodal.generate import (
    GeneratorConfig,
    generate_qrt,
    random_relabeling,
    random_renaming,
    random_sub_qrt,
)
from qrtmodal.harness import build_family, default_family_config
from qrtmodal.kripke import is_s4, is_sub_model, models_isomorphic, starred_isomorphic
from qrtmodal.linalg import basis_state, function_channel, preparation_channel, scalar_one
from qrtmodal.qrt import ChannelDecl, Qrt, SystemDecl, complete_composition, node_name
from qrtmodal.translate import (
    image_conditions,
    iso_conditions,
    to_model,
    to_starred_model,
    verify_functoriality,
    verify_starred_injectivity,
)

from helpers import plant_mirrored_truth


class TestToModel:
    def test_trivial_theory(self):
        rec = to_model(corpus.trivial_qrt())
        assert rec.model.worlds == {"c"}
        assert rec.model.access == {("c", "c")}
        assert rec.model.interp == {"c.one": 1}  # the unit axiom
        assert rec.c_world == "c"
        assert len(rec.model.domains["c"]) == 1

    def test_identity_only_two_systems(self):
        q = complete_composition(
            Qrt(
                [
                    SystemDecl("A", 2, {"a0": basis_state(2, 0)}),
                    SystemDecl("B", 2, {"b0": basis_state(2, 0)}),
                ]
            )
        )
        rec = to_model(q)
        assert rec.model.access == {("A", "A"), ("B", "B")}
        assert rec.c_world is None

    def test_entanglement_unique_false_atom(self):
        rec = to_model(corpus.entanglement_qrt())
        false_atoms = [a for a, v in rec.model.interp.items() if v == 0]
        assert false_atoms == ["AB.bell"]

    def test_worlds_are_systems_and_atoms_are_states(self):
        q = corpus.entanglement_qrt()
        rec = to_model(q)
        assert rec.model.worlds == {s.id for s in q.systems}
        assert rec.model.domain == {node_name(n) for n in q.nodes}
        assert len(rec.model.domain) == len(q.nodes)

    def test_invalid_source_rejected(self):
        with pytest.raises(StructuralError):
            to_model(corpus.broken_tp_qrt())

    def test_incomplete_source_rejected(self):
        from qrtmodal.linalg import constant_channel

        a0, sigma = basis_state(2, 0), basis_state(2, 1)
        q = Qrt(
            [
                SystemDecl("c", 1, {"one": scalar_one()}),
                SystemDecl("A", 2, {"rho": a0}),
                SystemDecl("B", 2, {"sigma": sigma}),
            ],
            [
                ChannelDecl("prep", "c", "A", preparation_channel(a0)),
                ChannelDecl("fwd", "A", "B", constant_channel(sigma, 2)),
            ],
        )
        with pytest.raises(StructuralError):
            to_model(q)  # the composite preparation is missing

    def test_always_s4(self):
        cfg = GeneratorConfig(seed=11, n_systems=4, dims=(1, 2, 3), states_per_system=4)
        for idx in range(10):
            rec = to_model(generate_qrt(cfg, index=idx))
            ok, witness = is_s4(rec.model)
            assert ok, witness


class TestDeriveOnce:
    def test_translation_is_memoised(self):
        q = corpus.entanglement_qrt()
        assert to_model(q) is to_model(q)
        assert to_starred_model(q) is to_starred_model(q)
        assert to_starred_model(q).model is to_model(q).model

    def test_s4_check_runs_once_per_theory(self, monkeypatch):
        # validation is the S4 check, so it runs with the one translation
        import qrtmodal.translate as translate_module

        calls = []
        original = translate_module._translate

        def counting(q):
            calls.append(q)
            return original(q)

        monkeypatch.setattr(translate_module, "_translate", counting)
        q = corpus.chain_qrt()
        to_model(q)
        to_starred_model(q)
        to_model(q)
        assert len(calls) == 1
        # the identity law compares two independent derivations
        (rep,) = verify_functoriality([(q, (), ())])
        assert rep["identity"]
        assert len(calls) == 2

    def test_translated_theory_is_not_a_reference_cycle(self):
        # the memo holds its theories weakly, so a record must not point back
        import gc
        import weakref

        gc.disable()
        try:
            q = corpus.chain_qrt()
            alive = weakref.ref(q)
            rec = to_starred_model(q)
            del q
            assert alive() is None
            assert rec.edges
        finally:
            gc.enable()

    def test_starred_model_is_built_once(self):
        q = corpus.entanglement_qrt()
        rec = to_starred_model(q)
        assert rec.starred is rec.starred
        assert to_model(q) is to_starred_model(q)

    def test_failed_translation_raises_again(self):
        q = corpus.broken_tp_qrt()
        for _ in range(2):
            with pytest.raises(StructuralError, match="invalid"):
                to_model(q)


class TestToStarredModel:
    def test_identity_only_order_is_diagonal(self):
        q = complete_composition(Qrt([SystemDecl("A", 2, {"a0": basis_state(2, 0)})]))
        rec = to_starred_model(q)
        assert rec.order == frozenset({("A.a0", "A.a0")})

    def test_single_conversion_pair(self):
        from qrtmodal.linalg import constant_channel

        a0, a1 = basis_state(2, 0), basis_state(2, 1)
        q = complete_composition(
            Qrt(
                [SystemDecl("A", 2, {"a": a0, "b": a1})],
                [ChannelDecl("f", "A", "A", constant_channel(a1, 2))],
            )
        )
        rec = to_starred_model(q)
        strict = {p for p in rec.order if p[0] != p[1]}
        assert strict == {("A.a", "A.b")}

    def test_entanglement_bell_below_free_image(self):
        rec = to_starred_model(corpus.entanglement_qrt())
        assert ("AB.bell", "AB.pmix") in rec.order
        assert rec.model.interp["AB.pmix"] == 1
        assert rec.model.interp["AB.bell"] == 0

    def test_atom_truth_monotone_along_edges(self):
        cfg = GeneratorConfig(seed=13, n_systems=3, dims=(1, 2), states_per_system=3)
        for idx in range(8):
            q = generate_qrt(cfg, index=idx)
            rec = to_starred_model(q)
            for (src, dst, _) in q.edges:
                if rec.model.interp[node_name(src)] == 1:
                    assert rec.model.interp[node_name(dst)] == 1


class TestIsoConditions:
    def test_self_pair(self):
        q = corpus.chain_qrt()
        assert iso_conditions(q, q) == {"i": True, "ii": True, "iii": True}

    def test_free_set_difference_breaks_ii(self):
        x, _ = corpus.xi_pair()
        # same shape, but one state loses its preparation and hence its freeness
        r0, r1 = basis_state(2, 0), basis_state(2, 1)
        systems = [
            SystemDecl("c", 1, {"one": scalar_one()}),
            SystemDecl("A", 2, {"r0": r0, "r1": r1}),
            SystemDecl("B", 2, {"s0": r0, "s1": r1}),
        ]
        channels = [
            ChannelDecl("prep_r0", "c", "A", preparation_channel(r0)),
            ChannelDecl("prep_s0", "c", "B", preparation_channel(r0)),
            ChannelDecl("prep_s1", "c", "B", preparation_channel(r1)),
            ChannelDecl("cross", "A", "B", function_channel([0, 1], 2, 2)),
        ]
        y = complete_composition(Qrt(systems, channels))
        assert len(y.free_states) < len(x.free_states)
        cond = iso_conditions(x, y)
        assert not cond["ii"]

    def test_twisted_pair_conditions_hold(self):
        x, y = corpus.xi_pair()
        cond = iso_conditions(x, y)
        assert cond == {"i": True, "ii": True, "iii": True}
        # the channel matrices genuinely differ
        fx = next(d for d in x.channels if d.id == "cross").channel
        fy = next(d for d in y.channels if d.id == "cross").channel
        assert not all(
            np.allclose(a, b) for a, b in zip(fx.kraus_ops, fy.kraus_ops)
        )
        ok, _ = models_isomorphic(to_model(x).model, to_model(y).model)
        assert ok

    def test_gap_pair_fails_iii_but_models_agree(self):
        x, y = corpus.iso_gap_pair()
        cond = iso_conditions(x, y)
        assert cond["i"] and cond["ii"] and not cond["iii"]
        ok, _ = models_isomorphic(to_model(x).model, to_model(y).model)
        assert ok  # the documented desk-scale gap in the equivalence

    def test_dim_mismatch_reports_relative_best(self):
        a = complete_composition(Qrt([SystemDecl("A", 2, {"a0": basis_state(2, 0)})]))
        b = complete_composition(Qrt([SystemDecl("B", 3, {"b0": basis_state(3, 0)})]))
        cond = iso_conditions(a, b)
        assert not cond["i"]
        assert cond["ii"] and cond["iii"]  # relative to the count-matching bijection

    def test_equivalence_over_small_family(self):
        cfg = GeneratorConfig(seed=17, n_systems=3, dims=(1, 2), states_per_system=2)
        qs = [generate_qrt(cfg, index=i) for i in range(5)]
        qs.append(random_relabeling(qs[0], np.random.default_rng(0)))
        recs = [to_model(q) for q in qs]
        for i, x in enumerate(qs):
            for j, y in enumerate(qs):
                cond = iso_conditions(x, y)
                conj = cond["i"] and cond["ii"] and cond["iii"]
                oracle, _ = models_isomorphic(recs[i].model, recs[j].model)
                assert conj == oracle, (i, j, cond, oracle)


def _state_bijections(x: Qrt, y: Qrt, sys_map: dict):
    """Per-system state bijections preserving the truth value of atoms
    (freeness, with the unit atom true)."""

    def truth(q: Qrt, sid: str, st: str) -> int:
        node = (sid, st)
        if node == q.trivial_node:
            return 1
        return 1 if node in q.free_states else 0

    per_system: list[list[dict]] = []
    for a, b in sys_map.items():
        sa, sb = x.system(a), y.system(b)
        if len(sa.states) != len(sb.states):
            return
        xs_by = {0: [], 1: []}
        ys_by = {0: [], 1: []}
        for st in sorted(sa.states):
            xs_by[truth(x, a, st)].append(st)
        for st in sorted(sb.states):
            ys_by[truth(y, b, st)].append(st)
        if any(len(xs_by[v]) != len(ys_by[v]) for v in (0, 1)):
            return
        options = []
        for perm0 in itertools.permutations(ys_by[0]):
            for perm1 in itertools.permutations(ys_by[1]):
                options.append(
                    dict(zip(xs_by[0], perm0)) | dict(zip(xs_by[1], perm1))
                )
        per_system.append(options)
    sys_ids = list(sys_map)
    for combo in itertools.product(*per_system):
        yield dict(zip(sys_ids, combo))


def _image_cover_ok(x: Qrt, y: Qrt, sys_map: dict, smaps: dict) -> bool:
    """Every induced function's image set must be exactly a union of
    image sets of functions in the other theory, both directions, under
    the given bijections."""

    def covers(src: Qrt, dst: Qrt, fwd_sys: dict, fwd_states: dict) -> bool:
        for (a, b), fns in src.functions.items():
            a2, b2 = fwd_sys[a], fwd_sys[b]
            dst_fns = dst.functions.get((a2, b2), {})
            dst_images = [frozenset(img for _, img in key) for key in dst_fns]
            for key in fns:
                target = frozenset(fwd_states[b][img] for _, img in key)
                union: set = set()
                for im in dst_images:
                    if im <= target:
                        union |= im
                if union != target:
                    return False
        return True

    inv_sys = {v: k for k, v in sys_map.items()}
    inv_states = {
        sys_map[a]: {v: k for k, v in smap.items()} for a, smap in smaps.items()
    }
    return covers(x, y, sys_map, smaps) and covers(y, x, inv_sys, inv_states)


def reference_iso_conditions(x: Qrt, y: Qrt) -> dict:
    """The enumeration iso_conditions used before its search was shared:
    all system permutations, then every truth-preserving state bijection
    of each, with no pruning and no budget."""
    xs = sorted(s.id for s in x.systems)
    ys = sorted(s.id for s in y.systems)
    out = {"i": False, "ii": False, "iii": False}
    if len(xs) != len(ys):
        return out

    def bijections(match_dims: bool):
        for perm in itertools.permutations(ys):
            m = dict(zip(xs, perm))
            if match_dims and any(
                x.system(a).dim != y.system(b).dim for a, b in m.items()
            ):
                continue
            yield m

    out["i"] = any(True for _ in bijections(match_dims=True))
    pool = list(bijections(match_dims=True)) or list(bijections(match_dims=False))
    for sys_map in pool:
        for smaps in _state_bijections(x, y, sys_map):
            out["ii"] = True
            if _image_cover_ok(x, y, sys_map, smaps):
                out["iii"] = True
                return out
    return out


class TestIsoConditionsAgainstReference:
    def test_differential_pairs(self, theory_pairs):
        seen = set()
        for label, x, y in theory_pairs:
            cond = iso_conditions(x, y)
            assert cond == reference_iso_conditions(x, y), label
            seen.add(tuple(cond.values()))
        # every verdict pattern that the conditions can take here occurs
        assert {(True, False, False), (True, True, False), (True, True, True)} <= seen
        assert any(not i for i, _, _ in seen)

    def test_one_node_is_not_enough(self, monkeypatch):
        q = corpus.chain_qrt()
        monkeypatch.setattr(config, "MAX_ISO_NODES", 1)
        with pytest.raises(ResourceLimitError, match=r"^isomorphism search exceeded 1 nodes$"):
            iso_conditions(q, q)


@pytest.fixture(scope="module")
def restriction_pool(theory_families) -> list:
    """The labeled form of every theory of the families, the dims 1-3
    family and the corpus included, and each of its restrictions to a
    non-empty set of its systems."""
    pool = []
    for _, family in theory_families:
        for _, q in family:
            ids = [s.id for s in q.systems]
            for n in range(1, len(ids) + 1):
                pool += (q.labeled.restricted(keep) for keep in itertools.combinations(ids, n))
    return pool


def renamed(q, seed: int | None):
    """q under the renaming drawn from seed, or q itself for None."""
    return q if seed is None else q.relabeled(*random_renaming(q, np.random.default_rng(seed)))


_seeds = st.none() | st.integers(0, 2**32 - 1)


class TestFlowKey:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_unequal_flow_keys_leave_no_iii_bijection(self, restriction_pool, data):
        """x and y are drawn from one class of the dims-free view key,
        each renamed or not, so that (ii) often holds."""
        x = renamed(data.draw(st.sampled_from(restriction_pool)), data.draw(_seeds))
        peers = [q for q in restriction_pool if q._view(False)[0] == x._view(False)[0]]
        y = renamed(data.draw(st.sampled_from(peers)), data.draw(_seeds))
        dims = sorted(s.dim for s in x.systems) == sorted(s.dim for s in y.systems)
        # the dims-free key, by which the harness buckets, is the coarser one
        if x.flow_key(False) != y.flow_key(False):
            assert x.flow_key(dims) != y.flow_key(dims)
        if x.flow_key(dims) != y.flow_key(dims):
            event("unequal flow keys" + (", equal view keys" if x._view(dims)[0] == y._view(dims)[0] else ""))
            # the enumeration has no key shortcut
            assert not reference_iso_conditions(x, y)["iii"]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_a_relabeled_copy_has_its_source_flow_key(self, restriction_pool, data, seed):
        x = renamed(data.draw(st.sampled_from(restriction_pool)), data.draw(_seeds))
        copy = renamed(x, seed)
        assert [copy.flow_key(d) for d in (True, False)] == [x.flow_key(d) for d in (True, False)]

    @pytest.mark.parametrize("stateless", [False, True], ids=["constants", "stateless-source"])
    def test_a_pair_meeting_iii_that_is_no_relabeling_has_equal_flow_keys(self, stateless):
        """Two theories over A and B, two states each, whose functions
        A -> B are the two constants, and the constants and a bijection;
        or, with A stateless, none and one. They differ in the number of
        functions on (A, B), yet (iii) holds by enumeration, so the flow
        keys agree and (iii) is searched."""
        r0, r1 = basis_state(2, 0), basis_state(2, 1)
        a = SystemDecl("A", 2, {} if stateless else {"a0": r0, "a1": r1})
        b = SystemDecl("B", 2, {"b0": r0, "b1": r1})
        base = [] if stateless else [ChannelDecl(f"k{i}", "A", "B", function_channel([i, i], 2, 2)) for i in (0, 1)]
        bij = ChannelDecl("bij", "A", "B", function_channel([0, 1], 2, 2))
        x, y = (complete_composition(Qrt([a, b], chans)).labeled for chans in (base, [*base, bij]))
        assert len(x.functions.get(("A", "B"), {})) < len(y.functions[("A", "B")])
        assert reference_iso_conditions(x, y) == {"i": True, "ii": True, "iii": True}
        assert x.flow_key(True) == y.flow_key(True)
        assert iso_conditions(x, y) == {"i": True, "ii": True, "iii": True}

    def test_unequal_flow_keys_settle_iii_without_a_search(self, theory_families, monkeypatch):
        """On family1, gen12 and gen14 agree on the view key and differ on
        the flow key: (iii) is false within a cap of one node, where the
        search overruns a cap of 10."""
        family = dict(dict(theory_families)["family1"])
        x, y = family["gen12"].labeled, family["gen14"].labeled
        assert x._view(True)[0] == y._view(True)[0] and x.flow_key(True) != y.flow_key(True)
        monkeypatch.setattr(config, "MAX_ISO_NODES", 1)
        assert iso_conditions(x, y) == {"i": True, "ii": True, "iii": False}
        monkeypatch.setattr(config, "MAX_ISO_NODES", 10)
        monkeypatch.setattr(type(x), "flow_key", lambda q, match_dims: ())
        with pytest.raises(ResourceLimitError):
            iso_conditions(x, y)


class TestImageConditions:
    def test_translated_images_satisfy_both(self):
        for build in (corpus.chain_qrt, corpus.entanglement_qrt, corpus.trivial_qrt):
            rec = to_model(build())
            cond = image_conditions(rec.model)
            assert cond["i"] and cond["ii"]
            assert cond["c_world"] == "c"

    def test_broken_monotone_flagged(self):
        cond = image_conditions(corpus.broken_monotone_model())
        assert not cond["i"]
        assert cond["witness_i"] == ("w", "u")

    def test_broken_no_unit_flagged(self):
        cond = image_conditions(corpus.broken_no_unit_model())
        assert cond["i"] and not cond["ii"]
        assert cond["c_world"] is None


class TestVerifyFunctoriality:
    def test_relabelings_and_subs(self):
        rng = np.random.default_rng(23)
        q = corpus.entanglement_qrt()
        rels = [random_renaming(q, rng) for _ in range(2)]
        subs = [random_sub_qrt(q, rng) for _ in range(2)]
        (rep,) = verify_functoriality([(q, rels, subs)])
        assert rep["ok"], rep
        assert rep["identity"]
        assert all(rep["relabelings"]) and all(rep["sub_models"])
        assert rep["nested"] in (True, None)

    def test_sub_model_follows_restriction(self):
        q = corpus.chain_qrt()
        sub = q.labeled.restricted(["c", "A"])
        assert is_sub_model(to_model(sub).model, to_model(q).model)

    def test_a_renaming_that_moves_the_mirror_fails_the_mirrored_truth(self, monkeypatch):
        q = generate_qrt(default_family_config(1), 10)  # gen10 of build_family(1, 20)
        assert sorted(st for sid, st in q.true_nodes if sid == "B") == ["s1"]
        plant_mirrored_truth(monkeypatch)
        # a swap of B's two least states moves its one true atom off the
        # mirror's centre; the identity and a reversal commute with it
        swap, reversal = ({}, {"B": {"s0": "s1", "s1": "s0"}}), ({}, {"B": {"s0": "s2", "s2": "s0"}})
        (rep,) = verify_functoriality([(q, [({}, {}), swap, reversal], ())])
        assert rep["identity"] and rep["relabelings"] == [True, False, True]
        assert not rep["ok"]
        # the swapped copy is still isomorphic to the planted model: a search finds no defect
        copy = to_model(q.labeled.relabeled(*swap))
        assert models_isomorphic(to_model(q).model, copy.model)[0]

    def test_an_inherited_outcome_fails_the_identity_law(self):
        s0, s1 = basis_state(2, 0), basis_state(2, 1)
        prep = ChannelDecl("prep", "c", "A", preparation_channel(s0))
        q = Qrt([SystemDecl("c", 1, {"one": scalar_one()}), SystemDecl("A", 2, {"s0": s0, "s1": s1})], [prep])
        q._induced[prep] = {"one": "s1"}  # stale: prep prepares s0
        assert q.validate().ok
        # the rebuilt theory derives prep afresh, so its model differs
        (rep,) = verify_functoriality([(q, [({}, {})], [])])
        assert rep == {"identity": False, "relabelings": [True], "sub_models": [], "nested": None, "ok": False}

    def test_a_renaming_that_merges_names_is_an_error(self):
        q = corpus.chain_qrt()
        (rep,) = verify_functoriality([(q, [({"A": "B"}, {})], ())])
        assert rep == {"ok": False, "error": "relabeling maps systems A and B both to B"}

    def test_decided_without_a_search(self, monkeypatch):
        family = build_family(1, 12)
        searched = []
        for module in (kripke_module, qrt_module):
            monkeypatch.setattr(module, "bijection", lambda *args: searched.append(args))
        monkeypatch.setattr(config, "MAX_ISO_NODES", 1)
        rng = np.random.default_rng(3)
        reports = verify_functoriality(
            (q, [random_renaming(q, rng) for _ in range(2)], [random_sub_qrt(q, rng)]) for _, q in family
        )
        assert searched == []
        assert all(rep["ok"] and rep["relabelings"] == [True, True] for rep in reports)
        assert all("inconclusive" not in rep for rep in reports)

    def test_every_transported_pass_is_an_isomorphism(self, theory_families):
        """models_isomorphic, kept as an oracle: a copy whose translation is
        the transported one is isomorphic to the source's, starred too."""
        rng = np.random.default_rng(31)
        for name, family in theory_families:
            renamings = [[random_renaming(q, rng) for _ in range(2)] for _, q in family]
            reports = verify_functoriality((q, rns, ()) for (_, q), rns in zip(family, renamings))
            for (label, q), rns, rep in zip(family, renamings, reports):
                assert rep["ok"] and rep["relabelings"] == [True, True], (name, label, rep)
                for rn in rns:
                    copy = to_model(q.labeled.relabeled(*rn))
                    assert models_isomorphic(to_model(q).model, copy.model)[0], (name, label)
                    assert starred_isomorphic(to_model(q).starred, copy.starred)[0], (name, label)


class TestStarredInjectivity:
    def test_relabeled_pair_consistent(self):
        rng = np.random.default_rng(29)
        q = corpus.chain_qrt()
        rep = verify_starred_injectivity([("chain", q, random_relabeling(q, rng))])
        assert rep["falsifications"] == 0
        assert rep["entries"][0]["verdict"] == "consistent"
        assert rep["entries"][0]["starred_isomorphic"]

    def test_different_free_sizes_non_isomorphic(self):
        x = corpus.chain_qrt()
        y = corpus.convex_closed_qrt()
        rep = verify_starred_injectivity([("chain|convex", x, y)])
        assert rep["entries"][0]["verdict"] == "consistent"
        assert not rep["entries"][0]["starred_isomorphic"]

    def test_twisted_sweep_tabulated(self):
        rep = verify_starred_injectivity(corpus.xi_sweep())
        assert rep["falsifications"] == 0
        assert len(rep["entries"]) == 3
        assert all(e["verdict"] == "consistent" for e in rep["entries"])

    def test_gap_pair_flagged(self):
        rep = verify_starred_injectivity([("gap", *corpus.injectivity_gap_pair())])
        assert rep["falsifications"] == 1
        assert rep["ok"] is False
        entry = rep["entries"][0]
        assert entry["verdict"] == "falsification-candidate"
        assert entry["starred_isomorphic"] and not entry["sources_isomorphic"]
        assert "witness" in entry
