"""Translation tests: the model construction, its starred variant, the
isomorphism conditions, the image conditions, functor laws, and the
starred-injectivity sweep."""

import itertools

import numpy as np
import pytest

from qrtmodal import corpus
from qrtmodal.errors import ResourceLimitError, StructuralError
from qrtmodal.generate import (
    GeneratorConfig,
    generate_qrt,
    random_relabeling,
    random_sub_qrt,
)
from qrtmodal.kripke import is_s4, is_sub_model, models_isomorphic
from qrtmodal.linalg import basis_state, preparation_channel, scalar_one
from qrtmodal.qrt import ChannelDecl, Qrt, SystemDecl, complete_composition, node_name
from qrtmodal.translate import (
    image_conditions,
    iso_conditions,
    to_model,
    to_starred_model,
    verify_functoriality,
    verify_starred_injectivity,
)


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
        import qrtmodal.translate as translate_module

        calls = []
        original = translate_module.is_s4

        def counting(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(translate_module, "is_s4", counting)
        q = corpus.chain_qrt()
        to_model(q)
        to_starred_model(q)
        to_model(q)
        assert len(calls) == 1
        # the identity law compares two independent derivations
        rep = verify_functoriality(q)
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
        from qrtmodal.linalg import function_channel

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

    def test_one_node_is_not_enough(self):
        q = corpus.chain_qrt()
        with pytest.raises(ResourceLimitError, match=r"^isomorphism search exceeded 1 nodes$"):
            iso_conditions(q, q, max_nodes=1)


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
        rels = [random_relabeling(q, rng) for _ in range(2)]
        subs = [random_sub_qrt(q, rng) for _ in range(2)]
        rep = verify_functoriality(q, rels, subs)
        assert rep["ok"], rep
        assert rep["identity"]
        assert all(rep["relabelings"]) and all(rep["sub_models"])
        assert rep["nested"] in (True, None)

    def test_sub_model_follows_restriction(self):
        q = corpus.chain_qrt()
        from qrtmodal.qrt import sub_qrt

        sub = sub_qrt(q, ["c", "A"])
        assert is_sub_model(to_model(sub).model, to_model(q).model)

    def test_wrong_claimed_relabeling_flagged(self):
        rep = verify_functoriality(
            corpus.chain_qrt(), relabelings=[corpus.convex_closed_qrt()]
        )
        assert not rep["ok"]
        assert rep["relabelings"] == [False]


class TestStarredInjectivity:
    def test_relabeled_pair_consistent(self):
        rng = np.random.default_rng(29)
        q = corpus.chain_qrt()
        rep = verify_starred_injectivity([(q, random_relabeling(q, rng))])
        assert rep["falsifications"] == 0
        assert rep["entries"][0]["verdict"] == "consistent"
        assert rep["entries"][0]["starred_isomorphic"]

    def test_different_free_sizes_non_isomorphic(self):
        x = corpus.chain_qrt()
        y = corpus.convex_closed_qrt()
        rep = verify_starred_injectivity([(x, y)])
        assert rep["entries"][0]["verdict"] == "consistent"
        assert not rep["entries"][0]["starred_isomorphic"]

    def test_twisted_sweep_tabulated(self):
        pairs = [(a, b) for _, a, b in corpus.xi_sweep()]
        labels = [name for name, _, _ in corpus.xi_sweep()]
        rep = verify_starred_injectivity(pairs, labels=labels)
        assert rep["falsifications"] == 0
        assert len(rep["entries"]) == 3
        assert all(e["verdict"] == "consistent" for e in rep["entries"])

    def test_gap_pair_flagged(self):
        rep = verify_starred_injectivity([corpus.injectivity_gap_pair()])
        assert rep["falsifications"] == 1
        entry = rep["entries"][0]
        assert entry["verdict"] == "falsification-candidate"
        assert entry["starred_isomorphic"] and not entry["sources_isomorphic"]
        assert "witness" in entry
