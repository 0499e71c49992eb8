"""Theory-level tests: validation, composition closure, free and resource
states, convertibility, sub-theories, labeled isomorphism."""

import itertools
from collections import Counter

import numpy as np
import pytest

import qrtmodal.qrt as qrt_module
from qrtmodal import corpus
from qrtmodal.errors import ResourceLimitError, StructuralError
from qrtmodal.generate import GeneratorConfig, generate_qrt, random_relabeling
from qrtmodal.linalg import (
    DensityMatrix,
    KrausChannel,
    basis_state,
    constant_channel,
    function_channel,
    preparation_channel,
    scalar_one,
    trace_distance,
)
from qrtmodal.qrt import (
    ChannelDecl,
    Qrt,
    SystemDecl,
    complete_composition,
    is_sub_qrt,
    qrt_isomorphic,
    relabel_qrt,
    sub_qrt,
)


def two_qubit_shell():
    """Four systems, identities only."""
    return Qrt(
        [
            SystemDecl("c", 1, {"one": scalar_one()}),
            SystemDecl("A", 2, {"a0": basis_state(2, 0)}),
            SystemDecl("B", 2, {"b0": basis_state(2, 0)}),
            SystemDecl("AB", 4, {"p00": DensityMatrix(np.diag([1, 0, 0, 0.0]))}),
        ]
    )


class TestValidate:
    def test_trivial_theory(self):
        assert corpus.trivial_qrt().validate().ok

    def test_four_system_shell_with_identities(self):
        assert two_qubit_shell().validate().ok

    def test_state_closure_violation_named(self):
        # a rotation moves the only named state off the named universe
        theta = 0.3
        u = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
            dtype=complex,
        )
        q = Qrt(
            [SystemDecl("A", 2, {"a0": basis_state(2, 0)})],
            [ChannelDecl("rot", "A", "A", KrausChannel([u]))],
        )
        report = q.validate()
        assert not report.ok
        assert any(i.code == "state-closure" and i.subject == "rot" for i in report.issues)

    def test_non_cptp_named(self):
        report = corpus.broken_tp_qrt().validate()
        assert any(
            i.code == "non-cptp" and i.subject == "inflate" for i in report.issues
        )

    def test_identity_inserted_automatically(self):
        q = two_qubit_shell()
        assert all(
            any(d.src == s.id and d.dst == s.id for d in q.channels)
            for s in q.systems
        )

    def test_composition_closure_reported(self):
        a0 = basis_state(2, 0)
        a1 = basis_state(2, 1)
        q = Qrt(
            [
                SystemDecl("A", 2, {"a0": a0, "a1": a1}),
                SystemDecl("B", 2, {"b0": a0, "b1": a1}),
            ],
            [
                ChannelDecl("f", "A", "B", function_channel([0, 1], 2, 2)),
                ChannelDecl("g", "B", "A", function_channel([1, 0], 2, 2)),
            ],
        )
        report = q.validate()
        assert any(i.code == "composition-closure" for i in report.issues)
        closed = complete_composition(q)
        assert closed.validate().ok

    def test_ambiguous_states_flagged(self):
        eps = 1e-10  # below the matching radius
        near = DensityMatrix(np.diag([1 - eps, eps]).astype(complex))
        q = Qrt([SystemDecl("A", 2, {"a0": basis_state(2, 0), "a1": near})])
        report = q.validate()
        assert any(i.code == "ambiguous-states" for i in report.issues)

    def test_two_trivial_systems_rejected(self):
        q = Qrt(
            [
                SystemDecl("c1", 1, {"one": scalar_one()}),
                SystemDecl("c2", 1, {"one": scalar_one()}),
            ]
        )
        assert any(i.code == "bad-trivial" for i in q.validate().issues)


class TestCompleteComposition:
    def test_two_step_chain_gains_composite(self):
        a0 = basis_state(2, 0)
        plus = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
        q = Qrt(
            [
                SystemDecl("c", 1, {"one": scalar_one()}),
                SystemDecl("A", 2, {"rho": a0}),
                SystemDecl("B", 2, {"sigma": plus}),
            ],
            [
                ChannelDecl("prep", "c", "A", preparation_channel(a0)),
                ChannelDecl("fwd", "A", "B", constant_channel(plus, 2)),
            ],
        )
        closed = complete_composition(q)
        assert ("c", "B") in closed.functions
        # the synthesized preparation hits exactly the forwarded image
        decl = next(d for d in closed.channels if d.src == "c" and d.dst == "B")
        from qrtmodal.linalg import apply_channel

        assert trace_distance(apply_channel(decl.channel, scalar_one()), plus) < 1e-9

    def test_idempotent_on_function_sets(self):
        q = corpus.chain_qrt()
        again = complete_composition(q)
        assert {k: set(v) for k, v in q.functions.items()} == {
            k: set(v) for k, v in again.functions.items()
        }

    def test_cap_enforced(self):
        a0, a1 = basis_state(2, 0), basis_state(2, 1)
        q = Qrt(
            [
                SystemDecl("A", 2, {"a0": a0, "a1": a1}),
                SystemDecl("B", 2, {"b0": a0, "b1": a1}),
            ],
            [
                ChannelDecl("f", "A", "B", function_channel([0, 1], 2, 2)),
                ChannelDecl("g", "B", "A", function_channel([1, 0], 2, 2)),
            ],
        )
        # identities plus f and g already sit at the cap, so the first
        # synthesized composite must overflow it
        with pytest.raises(ResourceLimitError):
            complete_composition(q, max_channels=4)


class TestFreeAndResourceStates:
    def test_single_preparation(self):
        a0 = basis_state(2, 0)
        q = complete_composition(
            Qrt(
                [
                    SystemDecl("c", 1, {"one": scalar_one()}),
                    SystemDecl("A", 2, {"rho": a0, "tau": basis_state(2, 1)}),
                ],
                [ChannelDecl("prep", "c", "A", preparation_channel(a0))],
            )
        )
        assert q.free_states == {("A", "rho")}
        assert q.resource_states == {("A", "tau")}

    def test_two_step_reachability(self):
        q = corpus.chain_qrt()
        # independent oracle: breadth-first search over recomputed edges
        from qrtmodal.linalg import apply_channel

        edges = set()
        for d in q.channels:
            for st, dm in q.system(d.src).states.items():
                img = apply_channel(d.channel, dm)
                for st2, named in q.system(d.dst).states.items():
                    if trace_distance(img, named) <= 1e-9:
                        edges.add(((d.src, st), (d.dst, st2)))
        start = ("c", "one")
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = [b for a, b in edges if a in [f for f in frontier] and b not in seen]
            seen.update(nxt)
            frontier = nxt
        assert q.free_states == frozenset(seen - {start})
        assert q.free_states == {("A", "rho"), ("B", "sigma")}

    def test_no_preparations_all_resources(self):
        q = complete_composition(
            Qrt(
                [
                    SystemDecl("c", 1, {"one": scalar_one()}),
                    SystemDecl("A", 2, {"a0": basis_state(2, 0)}),
                ]
            )
        )
        assert q.free_states == frozenset()
        assert q.resource_states == {("A", "a0")}

    def test_entanglement_resource_is_bell(self):
        q = corpus.entanglement_qrt()
        assert q.resource_states == {("AB", "bell")}

    def test_all_free_theory_has_no_resources(self):
        q, _ = corpus.xi_pair()  # every named state is prepared or reached
        assert q.resource_states == frozenset()

    def test_unresolved_trivial_is_structural_error(self):
        q = Qrt(
            [
                SystemDecl("c1", 1, {"one": scalar_one()}),
                SystemDecl("c2", 1, {"one": scalar_one()}),
                SystemDecl("A", 2, {"a0": basis_state(2, 0)}),
            ],
            [ChannelDecl("prep", "c1", "A", preparation_channel(basis_state(2, 0)))],
        )
        with pytest.raises(StructuralError):
            q.free_states


class TestConvertibility:
    def test_identity_only_is_diagonal(self):
        q = two_qubit_shell()
        assert q.preorder == frozenset((n, n) for n in q.nodes)

    def test_single_channel_gives_one_strict_pair(self):
        a0, a1 = basis_state(2, 0), basis_state(2, 1)
        q = complete_composition(
            Qrt(
                [SystemDecl("A", 2, {"a": a0, "b": a1})],
                [ChannelDecl("f", "A", "A", constant_channel(a1, 2))],
            )
        )
        strict = {p for p in q.preorder if p[0] != p[1]}
        assert strict == {(("A", "a"), ("A", "b"))}
        assert (("A", "b"), ("A", "a")) not in q.preorder

    def test_resources_closed_downward(self):
        # if sigma is a resource and rho converts to sigma, rho is a resource
        for build in (corpus.entanglement_qrt, corpus.resource_destroying_qrt):
            q = build()
            for rho, sigma in q.preorder:
                if sigma in q.resource_states and rho != q.trivial_node:
                    assert rho in q.resource_states


class TestSubQrt:
    def test_reflexive(self):
        q = corpus.chain_qrt()
        assert is_sub_qrt(q, q)

    def test_dropping_a_system(self):
        q = corpus.chain_qrt()
        sub = sub_qrt(q, ["c", "A"])
        assert is_sub_qrt(sub, q)

    def test_extra_channel_defeats_restriction(self):
        q = corpus.chain_qrt()
        extra = complete_composition(
            Qrt(
                q.systems,
                list(q.channels)
                + [
                    ChannelDecl(
                        "extra",
                        "B",
                        "A",
                        constant_channel(q.system("A").states["rho"], 2),
                    )
                ],
                q.trivial_id,
            )
        )
        assert not is_sub_qrt(extra, q)
        assert is_sub_qrt(q, q)

    def test_sub_of_sub_is_sub(self):
        q = corpus.entanglement_qrt()
        s1 = sub_qrt(q, ["c", "A", "B"])
        s2 = sub_qrt(s1, ["c", "A"])
        assert is_sub_qrt(s1, q) and is_sub_qrt(s2, s1) and is_sub_qrt(s2, q)

    def test_antisymmetric_up_to_isomorphism(self):
        cfg = GeneratorConfig(seed=21, n_systems=3, dims=(1, 2), states_per_system=2)
        qs = [generate_qrt(cfg, index=i) for i in range(4)]
        for a in qs:
            for b in qs:
                if is_sub_qrt(a, b) and is_sub_qrt(b, a):
                    ok, _ = qrt_isomorphic(a, b)
                    assert ok


class TestQrtIsomorphic:
    def test_relabeling_found_with_witness(self):
        rng = np.random.default_rng(19)
        q = corpus.chain_qrt()
        r = random_relabeling(q, rng)
        ok, witness = qrt_isomorphic(q, r)
        assert ok
        sys_map, node_map = witness
        assert set(sys_map) == {s.id for s in q.systems}
        # the witness transports free states onto free states
        for node, image in node_map.items():
            assert (node in q.free_states) == (image in r.free_states)

    def test_dimension_mismatch(self):
        a = Qrt([SystemDecl("A", 2, {"a0": basis_state(2, 0)})])
        b = Qrt([SystemDecl("B", 3, {"b0": basis_state(3, 0)})])
        assert qrt_isomorphic(a, b) == (False, None)

    def test_twisted_pair_is_labeled_isomorphic(self):
        # the flip twist is absorbed by relabeling the target states
        x, y = corpus.xi_pair()
        ok, _ = qrt_isomorphic(x, y)
        assert ok

    def test_gap_pair_is_not_isomorphic(self):
        x, y = corpus.injectivity_gap_pair()
        ok, _ = qrt_isomorphic(x, y)
        assert not ok

    def test_search_cap(self):
        q = corpus.chain_qrt()
        with pytest.raises(ResourceLimitError):
            qrt_isomorphic(q, q, max_nodes=1)


def carries(x: Qrt, y: Qrt, sys_map: dict, node_map: dict) -> bool:
    """The maps are bijections of systems (equal dims) and of named states
    (each into its system's image) that carry x's free set and induced
    function table exactly onto y's."""
    systems_y = {s.id for s in y.systems}
    if set(sys_map) != {s.id for s in x.systems} or set(sys_map.values()) != systems_y:
        return False
    if any(x.system(a).dim != y.system(b).dim for a, b in sys_map.items()):
        return False
    if set(node_map) != set(x.nodes) or set(node_map.values()) != set(y.nodes):
        return False
    if any(node_map[n][0] != sys_map[n[0]] for n in x.nodes):
        return False
    if {node_map[n] for n in x.free_states} != y.free_states:
        return False
    table_x = {
        (sys_map[a], sys_map[b]): {
            tuple(sorted((node_map[(a, s)][1], node_map[(b, i)][1]) for s, i in key))
            for key in fns
        }
        for (a, b), fns in x.functions.items()
    }
    return table_x == {pair: set(fns) for pair, fns in y.functions.items()}


def labeled_isomorphic_reference(x: Qrt, y: Qrt):
    """Unpruned oracle for qrt_isomorphic: tries every system bijection and
    every per-system bijection of named states, and returns the first
    (sys_map, node_map) that carries x onto y, or None."""
    xs = [s.id for s in x.systems]
    if len(xs) != len(y.systems):
        return None
    for perm in itertools.permutations([s.id for s in y.systems]):
        sys_map = dict(zip(xs, perm))
        per_system = [
            [
                {(a, s): (b, t) for s, t in zip(sorted(x.system(a).states), image)}
                for image in itertools.permutations(sorted(y.system(b).states))
            ]
            for a, b in sys_map.items()
            if len(x.system(a).states) == len(y.system(b).states)
        ]
        if len(per_system) != len(xs):
            continue
        for combo in itertools.product(*per_system):
            node_map = {k: v for part in combo for k, v in part.items()}
            if carries(x, y, sys_map, node_map):
                return sys_map, node_map
    return None


class TestQrtIsomorphicAgainstReference:
    def test_differential_pairs(self, theory_pairs):
        for label, x, y in theory_pairs:
            ok, witness = qrt_isomorphic(x, y)
            assert ok == (labeled_isomorphic_reference(x, y) is not None), label
            assert witness is None if not ok else carries(x, y, *witness), label

    def test_relabelings(self):
        rng = np.random.default_rng(31)
        for build in (corpus.chain_qrt, corpus.entanglement_qrt, corpus.convexity_demo_qrt):
            q = build()
            r = random_relabeling(q, rng)
            ok, witness = qrt_isomorphic(q, r)
            assert ok and carries(q, r, *witness)

    def test_one_node_is_not_enough(self):
        q = corpus.chain_qrt()
        with pytest.raises(ResourceLimitError, match=r"^isomorphism search exceeded 1 nodes$"):
            qrt_isomorphic(q, q, max_nodes=1)


class TestGeneratedFamilyProperties:
    def test_free_states_monotone_under_channel_addition(self):
        cfg = GeneratorConfig(seed=5, n_systems=3, dims=(1, 2), states_per_system=2)
        for idx in range(6):
            q = generate_qrt(cfg, index=idx)
            targets = [s for s in q.systems if s.dim > 1]
            if not targets:
                continue
            tgt = targets[0]
            extra = ChannelDecl(
                "added",
                q.trivial_id,
                tgt.id,
                preparation_channel(tgt.states[sorted(tgt.states)[0]]),
            )
            bigger = complete_composition(
                Qrt(q.systems, list(q.channels) + [extra], q.trivial_id)
            )
            assert q.free_states <= bigger.free_states

    def test_preorder_reflexive_transitive(self):
        cfg = GeneratorConfig(seed=6, n_systems=3, dims=(1, 2), states_per_system=3)
        for idx in range(6):
            q = generate_qrt(cfg, index=idx)
            pre = q.preorder
            for n in q.nodes:
                assert (n, n) in pre
            for a, b in pre:
                for c, d in pre:
                    if b == c:
                        assert (a, d) in pre

    def test_free_states_never_map_to_resources(self):
        cfg = GeneratorConfig(seed=7, n_systems=3, dims=(1, 2), states_per_system=3)
        for idx in range(8):
            q = generate_qrt(cfg, index=idx)
            for a, b, _ in q.edges:
                if a in q.free_states:
                    assert b in q.free_states or b == q.trivial_node

    def test_relabel_round_trip(self):
        q = corpus.chain_qrt()
        renamed = relabel_qrt(
            q, {"A": "Z"}, {"A": {"rho": "zeta"}}
        )
        assert ("Z", "zeta") in renamed.nodes
        ok, _ = qrt_isomorphic(q, renamed)
        assert ok


def _count_applications(monkeypatch):
    """Patch the channel application the theory layer uses; returns a
    Counter of (channel object id, state object id) applications."""
    applied = Counter()
    original = qrt_module.apply_channel

    def counting(c, rho, *args, **kwargs):
        applied[(id(c), id(rho))] += 1
        return original(c, rho, *args, **kwargs)

    monkeypatch.setattr(qrt_module, "apply_channel", counting)
    return applied


class TestDeriveOnce:
    def test_validation_report_is_memoised(self):
        q = two_qubit_shell()
        assert q.validate() is q.validate()

    def test_each_channel_state_pair_applied_once(self, monkeypatch):
        from qrtmodal.translate import to_starred_model

        made = generate_qrt(GeneratorConfig(seed=3, n_systems=3), index=0)
        q = Qrt(made.systems, made.channels, made.trivial_id, made.tol)
        applied = _count_applications(monkeypatch)
        assert q.validate().ok
        q.functions
        q.edges
        q.free_states
        to_starred_model(q)
        assert q.is_composition_complete()
        expected = Counter(
            (id(d.channel), id(dm))
            for d in q.channels
            for dm in q.system(d.src).states.values()
        )
        assert applied == expected

    def test_closure_derives_only_new_channels(self, monkeypatch):
        a0, a1 = basis_state(2, 0), basis_state(2, 1)
        q = Qrt(
            [
                SystemDecl("A", 2, {"a0": a0, "a1": a1}),
                SystemDecl("B", 2, {"b0": a0, "b1": a1}),
            ],
            [
                ChannelDecl("f", "A", "B", function_channel([0, 1], 2, 2)),
                ChannelDecl("g", "B", "A", function_channel([1, 0], 2, 2)),
            ],
        )
        applied = _count_applications(monkeypatch)
        q.validate()
        before = sum(applied.values())
        assert before == 2 * len(q.channels)
        closed = complete_composition(q)
        assert closed.validate().ok
        new = [d for d in closed.channels if d not in q.channels]
        assert new
        assert sum(applied.values()) - before == 2 * len(new)

    def test_ambiguous_match_raises_on_every_use(self):
        eps = 1e-10  # below the matching radius
        near = DensityMatrix(np.diag([1 - eps, eps]).astype(complex))
        q = Qrt([SystemDecl("A", 2, {"a0": basis_state(2, 0), "a1": near})])
        report = q.validate()
        assert any(
            i.code == "state-closure" and "ambiguous match" in i.message
            for i in report.issues
        )
        for _ in range(2):
            with pytest.raises(StructuralError, match="ambiguous match"):
                q.functions
