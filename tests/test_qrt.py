"""Theory-level tests: validation, composition closure, free and resource
states, convertibility, sub-theories, labeled isomorphism."""

import itertools
from collections import Counter
from functools import cache, cached_property, partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qrtmodal.linalg as linalg_module
import qrtmodal.qrt as qrt_module
from qrtmodal import config, corpus
from qrtmodal.config import DEFAULT_TOL
from qrtmodal.errors import (
    GenerationError,
    NumericalError,
    QrtModalError,
    ResourceLimitError,
    ShapeError,
    StructuralError,
)
from qrtmodal.generate import GeneratorConfig, generate_qrt, random_relabeling, random_renaming, random_sub_qrt
from qrtmodal.harness import run_theorems
from qrtmodal.linalg import (
    DensityMatrix,
    KrausChannel,
    apply_channel,
    basis_state,
    constant_channel,
    function_channel,
    identity_channel,
    maximally_mixed,
    preparation_channel,
    scalar_one,
    trace_channel,
    trace_distance,
)
from qrtmodal.qrt import (
    ChannelDecl,
    Qrt,
    SystemDecl,
    complete_composition,
    qrt_isomorphic,
)
from qrtmodal.translate import iso_conditions, to_model, verify_functoriality

from helpers import (
    induced_map,
    is_composition_complete,
    is_sub_qrt,
    reference_choi_matrix,
    reference_compose,
    reference_cptp_verdict,
    reference_induced_map,
    reference_missing_composites,
    reference_near_states,
    resource_states,
    sub_qrt,
    within_trace_distance,
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


# what reads the trivial node of a theory, directly or through its free states
UNDECLARED_TRIVIAL_READS = {
    "trivial_node": lambda q: q.trivial_node,
    "free_states": lambda q: q.free_states,
    "qrt_isomorphic": lambda q: qrt_isomorphic(q, q),
    "iso_conditions": lambda q: iso_conditions(q, q),
    "run_theorems": lambda q: run_theorems(family=[("x", q)]),
}


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

    def test_added_identity_takes_a_free_name(self):
        a = {"a0": basis_state(2, 0), "a1": basis_state(2, 1)}
        q = Qrt([SystemDecl("A", 2, a)], [ChannelDecl("id_A", "A", "A", constant_channel(a["a0"], 2))])
        assert [(d.id, qrt_module._matrix_is_identity(d.channel)) for d in q.channels] == [
            ("id_A", False),
            ("id_A_", True),
        ]
        assert q.validate().ok

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

    def test_ambiguous_pairs_are_reported_in_name_order_across_dims(self):
        eps = 1e-10
        near = DensityMatrix(np.diag([1 - eps, eps]).astype(complex))
        states = {"d": maximally_mixed(3), "a": basis_state(2, 0), "c": near, "b": maximally_mixed(3), "e": basis_state(2, 0)}
        report = Qrt([SystemDecl("A", 2, states)]).validate()
        got = [i.subject for i in report.issues if i.code == "ambiguous-states"]
        assert got == ["A.a/c", "A.a/e", "A.b/d", "A.c/e"]

    @pytest.mark.parametrize("read", ["functions", "edges", "preorder", "complete_composition"])
    def test_an_undeclared_endpoint_is_a_structural_error(self, read):
        q = Qrt(
            [SystemDecl("A", 2, {"a0": basis_state(2, 0)})],
            [ChannelDecl("x", "A", "Z", identity_channel(2))],
        )
        derive = partial(complete_composition, q) if read == "complete_composition" else partial(getattr, q, read)
        for _ in range(2):  # the memoised outcome raises again
            with pytest.raises(StructuralError, match=r"^channel x: endpoints A->Z undeclared$"):
                derive()
        assert [(i.code, i.message) for i in q.validate().issues] == [
            ("unknown-system", "endpoints A->Z undeclared")
        ]

    @pytest.mark.parametrize("read", sorted(UNDECLARED_TRIVIAL_READS))
    def test_an_undeclared_trivial_id_is_a_structural_error(self, read):
        q = Qrt([SystemDecl("A", 2, {"a0": basis_state(2, 0)})], trivial="c")
        assert q.validate().text() == "[bad-trivial] c: trivial system not declared"
        with pytest.raises(StructuralError, match=r"^trivial system c not declared$"):
            UNDECLARED_TRIVIAL_READS[read](q)

    def test_two_trivial_systems_rejected(self):
        q = Qrt(
            [
                SystemDecl("c1", 1, {"one": scalar_one()}),
                SystemDecl("c2", 1, {"one": scalar_one()}),
            ]
        )
        assert any(i.code == "bad-trivial" for i in q.validate().issues)

    def test_trivial_system_without_states_rejected(self):
        q = Qrt([SystemDecl("c", 1, {})])
        assert q.validate().text() == "[bad-trivial] c: the trivial system must have exactly one state"


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

    def test_a_channel_leaving_the_named_universe_is_a_structural_error(self):
        q = Qrt(
            [SystemDecl("A", 2, {"a0": basis_state(2, 0)})],
            [ChannelDecl("mix", "A", "A", constant_channel(maximally_mixed(2), 2))],
        )
        with pytest.raises(StructuralError, match=r"^channel mix does not preserve the named universe$"):
            complete_composition(q)

    def test_cap_enforced(self, monkeypatch):
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
        monkeypatch.setattr(qrt_module, "MAX_CHANNELS", 4)
        with pytest.raises(ResourceLimitError):
            complete_composition(q)


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
        assert resource_states(q) == {("A", "tau")}

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
        assert resource_states(q) == {("A", "a0")}

    def test_entanglement_resource_is_bell(self):
        q = corpus.entanglement_qrt()
        assert resource_states(q) == {("AB", "bell")}

    def test_all_free_theory_has_no_resources(self):
        q, _ = corpus.xi_pair()  # every named state is prepared or reached
        assert resource_states(q) == frozenset()

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
                if sigma in resource_states(q) and rho != q.trivial_node:
                    assert rho in resource_states(q)


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

    def test_search_cap(self, monkeypatch):
        q = corpus.chain_qrt()
        monkeypatch.setattr(config, "MAX_ISO_NODES", 1)
        with pytest.raises(ResourceLimitError):
            qrt_isomorphic(q, q)


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

    def test_one_node_is_not_enough(self, monkeypatch):
        q = corpus.chain_qrt()
        monkeypatch.setattr(config, "MAX_ISO_NODES", 1)
        with pytest.raises(ResourceLimitError, match=r"^isomorphism search exceeded 1 nodes$"):
            qrt_isomorphic(q, q)


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
        renamed = q.relabeled({"A": "Z"}, {"A": {"rho": "zeta"}})
        assert ("Z", "zeta") in renamed.nodes
        ok, _ = qrt_isomorphic(q, renamed)
        assert ok


def _count_applications(monkeypatch):
    """Patch the channel application the theory layer uses, the grouped
    kernel; returns a Counter of (channel object id, state object id)
    applications, one per (channel, state) pair."""
    applied = Counter()
    grouped = qrt_module.apply_channels

    def counting_grouped(channels, stacks, *args, **kwargs):
        for c, states in zip(channels, stacks):
            applied.update((id(c), id(rho)) for rho in states)
        return grouped(channels, stacks, *args, **kwargs)

    monkeypatch.setattr(qrt_module, "apply_channels", counting_grouped)
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
        assert is_composition_complete(q)
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

    def test_a_failing_channel_is_derived_once(self, monkeypatch):
        q = built_theories()["non_cptp"]
        inflate = next(d for d in q.channels if d.id == "inflate")
        applied = _count_applications(monkeypatch)
        texts = []
        for _ in range(2):
            with pytest.raises(ShapeError) as exc:
                q._function(inflate)
            texts.append(str(exc.value))
        assert texts == ["not a density matrix: trace is 1.210000, not 1"] * 2
        assert applied == Counter(
            (id(d.channel), id(dm))
            for d in q.channels
            for dm in q.system(d.src).states.values()
        )

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


    def test_functoriality_checks_each_channel_once(self, monkeypatch):
        from qrtmodal.harness import build_family

        made = build_family(1, 5)[0][1]
        # fresh channel objects: no verdict is kept on them yet
        q = Qrt(
            made.systems,
            [ChannelDecl(d.id, d.src, d.dst, KrausChannel(d.channel.kraus_ops)) for d in made.channels],
            made.trivial_id,
            made.tol,
        )
        checked = Counter()
        original = linalg_module._settle_group

        def counting(channels, tol):
            checked.update((id(c), tol) for c in channels)
            return original(channels, tol)

        monkeypatch.setattr(linalg_module, "_settle_group", counting)
        rng = np.random.default_rng(5)
        rel, sub = random_renaming(q, rng), sub_qrt(q, [s.id for s in q.systems][:2])
        assert verify_functoriality([(q, [rel], [sub])])[0]["ok"]
        assert checked == Counter({(id(d.channel), q.tol): 1 for d in q.channels})

    def test_functoriality_rederives_the_rebuilt_theory(self, monkeypatch):
        from qrtmodal.harness import build_family

        q = build_family(1, 5)[0][1]
        to_model(q)  # the theory's own record is kept; the rebuilt one is not
        applied = _count_applications(monkeypatch)
        assert verify_functoriality([(q, (), ())])[0]["ok"]
        assert applied == Counter(
            (id(d.channel), id(dm))
            for d in q.channels
            for dm in q.system(d.src).states.values()
        )

    def test_functoriality_derives_only_the_rebuilt_theory(self, monkeypatch):
        from qrtmodal.harness import build_family

        q = build_family(1, 5)[0][1]
        to_model(q)
        rng = np.random.default_rng(5)
        rel, sub = random_renaming(q, rng), q.labeled.restricted([s.id for s in q.systems][:2])
        applied = _count_applications(monkeypatch)
        (report,) = verify_functoriality([(q, [rel], [sub])])
        assert report["ok"] and report["nested"] is not None
        # the label copies and the nested restriction derive nothing: only
        # the rebuilt theory applies q's channels, each to each state once
        assert applied == Counter(
            (id(d.channel), id(dm))
            for d in q.channels
            for dm in q.system(d.src).states.values()
        )


def test_identity_rule_is_allclose_with_atol_1e12():
    near = KrausChannel([np.diag([1 + 5e-6, 1 + 5e-6])])
    assert qrt_module._matrix_is_identity(near)
    off = np.eye(2, dtype=complex)
    off[0, 1] = 1e-11
    assert not qrt_module._matrix_is_identity(KrausChannel([off]))
    # so a theory adds its own identity beside the second channel only
    a = {"a0": basis_state(2, 0), "a1": basis_state(2, 1)}
    for k, has_own in ((near.kraus_ops[0], False), (off, True)):
        q = Qrt([SystemDecl("A", 2, a)], [ChannelDecl("e", "A", "A", KrausChannel([k]))])
        assert any(d.id == "id_A" for d in q.channels) is has_own
    # numpy's allclose rule, kept as the oracle
    rng = np.random.default_rng(59)
    for _ in range(300):
        dim = int(rng.integers(1, 4))
        scale = 10.0 ** rng.uniform(-13, -3)
        k = np.eye(dim) + scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        if rng.random() < 0.5:
            k = np.diag(np.diag(k))
        want = bool(np.allclose(k, np.eye(dim), atol=1e-12))
        assert qrt_module._matrix_is_identity(KrausChannel([k])) is want


# -- the certified predicate against the scalar rule on the theories ------------


def corpus_theories() -> list:
    return [q for q in corpus.corpus_entries().values() if isinstance(q, Qrt)]


def named_state_pairs(q: Qrt):
    """Every (image, named state) pair of q, with each image taken under
    loose tolerances so that a broken channel's images count too, and
    every pair of named states of one system."""
    loose = 1.0
    for d in q.channels:
        src, dst = q.system(d.src), q.system(d.dst)
        try:
            images = [apply_channel(d.channel, rho, loose) for rho in src.states.values()]
        except QrtModalError:
            continue
        for image in images:
            yield from ((image, named) for named in dst.states.values() if named.dim == image.dim)
    for s in q.systems:
        states = list(s.states.values())
        yield from ((a, b) for a, b in itertools.combinations(states, 2) if a.dim == b.dim)


def test_certified_matching_agrees_with_scalar_rule():
    from qrtmodal.harness import build_family

    theories = corpus_theories() + [q for _, q in build_family(1, 40)]
    assert len(theories) == 15 + 40
    radii = sorted(
        {r for tol in (DEFAULT_TOL, 0, 0.2) for r in (tol, 2 * tol)}
    )
    checked = 0
    for q in theories:
        for a, b in named_state_pairs(q):
            d = trace_distance(a, b)
            for eps in radii:
                assert within_trace_distance(a, b, eps) == (d <= eps), (d, eps)
                checked += 1
    assert checked > 5000


# -- the composition closure against its first implementation -------------------


def fixpoint_closure(q: Qrt, max_channels: int = qrt_module.MAX_CHANNELS) -> Qrt:
    """The closure as first written, a fixpoint over one dict keyed by
    (src, dst, function key): the oracle for complete_composition."""
    decls = list(q.channels)
    by_fn: dict = {}
    for d in decls:
        fn = q._function(d)
        if fn is None:
            raise StructuralError(f"channel {d.id} breaks state closure")
        by_fn[(d.src, d.dst, tuple(sorted(fn.items())))] = d
    counter = 0
    changed = True
    while changed:
        changed = False
        items = sorted(by_fn.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2]))
        for (a, b, fkey), fd in items:
            for (b2, c, gkey), gd in items:
                if b2 != b:
                    continue
                f, g = dict(fkey), dict(gkey)
                comp_key = tuple(sorted((s, g[f[s]]) for s in f))
                if (a, c, comp_key) in by_fn:
                    continue
                if len(by_fn) + 1 > max_channels:
                    raise ResourceLimitError(
                        f"composition closure exceeds {max_channels} functions"
                    )
                cid = f"comp_{counter}"
                counter += 1
                existing = {d.id for d in by_fn.values()}
                while cid in existing:
                    cid = f"comp_{counter}"
                    counter += 1
                by_fn[(a, c, comp_key)] = ChannelDecl(
                    cid, a, c, qrt_module.compose(gd.channel, fd.channel)
                )
                changed = True
    order = {d.id: i for i, d in enumerate(decls)}
    out = sorted(by_fn.values(), key=lambda d: (order.get(d.id, len(order)), d.id))
    return Qrt(q.systems, out, q.trivial_id, q.tol)


def closure_outcome(close, q: Qrt):
    """Channel ids, endpoints and Kraus matrices in order, or the error type."""
    try:
        closed = close(q)
    except QrtModalError as exc:
        return type(exc)
    return [
        (d.id, d.src, d.dst, [k.tobytes() for k in d.channel.kraus_ops])
        for d in closed.channels
    ]


def open_variants(q: Qrt) -> list:
    """Channel sets to close, from q: its own channels, without its
    synthesized composites in declaration order and reversed, those declared
    twice under fresh ids (so a function's last declared channel is not its
    first), and every other channel, so that a pass synthesizes composites
    out of several functions per system pair."""
    base = [d for d in q.channels if not d.id.startswith("comp_")]
    twice = base + [ChannelDecl(f"{d.id}_again", d.src, d.dst, d.channel) for d in base]
    return [
        Qrt(q.systems, chans, q.trivial_id, q.tol)
        for chans in (q.channels, base, base[::-1], twice, q.channels[::2], q.channels[1::2])
    ]


def generated_open_theories(monkeypatch) -> list:
    """The theories generate_qrt hands to its closure, for seeds 1-3, 3 or 4
    systems, dims (1, 2) or (1, 2, 3) and indices 0-3."""
    import qrtmodal.generate as generate_module

    handed = []

    def capture(q):
        handed.append(q)
        return fixpoint_closure(q)

    monkeypatch.setattr(generate_module, "complete_composition", capture)
    for seed in (1, 2, 3):
        for n_systems in (3, 4):
            for dims in ((1, 2), (1, 2, 3)):
                cfg = GeneratorConfig(seed=seed, n_systems=n_systems, dims=dims)
                for index in range(4):
                    generate_qrt(cfg, index=index)
    return handed


class TestClosureAgainstFixpoint:
    def test_corpus(self):
        theories = [getattr(corpus, n)() for n in (
            "trivial_qrt", "chain_qrt", "entanglement_qrt", "resource_destroying_qrt",
            "convex_closed_qrt", "convexity_demo_qrt", "broken_tp_qrt",
        )]
        for pair in (corpus.xi_pair(), corpus.xi_collapse_pair(), corpus.iso_gap_pair(),
                     corpus.injectivity_gap_pair()):
            theories += pair
        for q in theories:
            for variant in open_variants(q):
                assert closure_outcome(complete_composition, variant) == closure_outcome(
                    fixpoint_closure, variant
                )

    def test_generated(self, monkeypatch):
        handed = generated_open_theories(monkeypatch)
        assert len(handed) == 48
        grew = 0
        for q in handed:
            for variant in [q, *open_variants(fixpoint_closure(q))]:
                ours = closure_outcome(complete_composition, variant)
                assert ours == closure_outcome(fixpoint_closure, variant)
                grew += len(ours) > len(variant.channels)
        assert grew  # the closures do synthesize composites

    def test_cap(self, monkeypatch):
        a0, a1 = basis_state(2, 0), basis_state(2, 1)
        q = Qrt(
            [
                SystemDecl("A", 2, {"a0": a0, "a1": a1}),
                SystemDecl("B", 2, {"b0": a0, "b1": a1}),
            ],
            [
                ChannelDecl("f", "A", "B", function_channel([0, 1], 2, 2)),
                ChannelDecl("g", "B", "A", function_channel([1, 1], 2, 2)),
            ],
        )
        for cap in range(4, 9):
            monkeypatch.setattr(qrt_module, "MAX_CHANNELS", cap)
            assert closure_outcome(complete_composition, q) == (
                closure_outcome(partial(fixpoint_closure, max_channels=cap), q)
            )

    def test_composites_numbered_in_abfcg_order(self):
        # two functions A -> B, each followed by B -> C and by B -> D: four new
        # composites, numbered f1 then C before D, then f2
        s0, s1 = basis_state(2, 0), basis_state(2, 1)
        q = Qrt(
            [SystemDecl(sid, 2, {"s0": s0, "s1": s1}) for sid in "ABCD"],
            [
                ChannelDecl("f1", "A", "B", function_channel([0, 1], 2, 2)),
                ChannelDecl("f2", "A", "B", function_channel([1, 0], 2, 2)),
                ChannelDecl("h", "B", "C", function_channel([0, 1], 2, 2)),
                ChannelDecl("g", "B", "D", function_channel([0, 1], 2, 2)),
            ],
        )
        closed = complete_composition(q)
        made = {d.id: (d.dst, closed._function(d)["s0"]) for d in closed.channels}
        assert [made[f"comp_{n}"] for n in range(4)] == [
            ("C", "s0"), ("D", "s0"), ("C", "s1"), ("D", "s1"),
        ]
        assert closure_outcome(complete_composition, q) == closure_outcome(fixpoint_closure, q)

    def test_comp_ids_skip_taken_ids(self):
        a0, a1 = basis_state(2, 0), basis_state(2, 1)
        q = Qrt(
            [
                SystemDecl("A", 2, {"a0": a0, "a1": a1}),
                SystemDecl("B", 2, {"b0": a0, "b1": a1}),
            ],
            [
                ChannelDecl("comp_0", "A", "B", function_channel([0, 1], 2, 2)),
                ChannelDecl("comp_2", "B", "A", function_channel([1, 0], 2, 2)),
            ],
        )
        closed = complete_composition(q)
        assert [d.id for d in closed.channels][:2] == ["comp_0", "comp_2"]
        assert closure_outcome(complete_composition, q) == closure_outcome(fixpoint_closure, q)


def test_composition_issues_listed_in_abfcg_order():
    # two functions f1 < f2 from A to B, each followed by B -> A and B -> C:
    # the issues run A->B->A, A->B->C for f1, then the same for f2
    s0, s1 = basis_state(2, 0), basis_state(2, 1)
    q = Qrt(
        [SystemDecl(sid, 2, {"s0": s0, "s1": s1}) for sid in ("A", "B", "C")],
        [
            ChannelDecl("f1", "A", "B", function_channel([0, 1], 2, 2)),
            ChannelDecl("f2", "A", "B", function_channel([1, 0], 2, 2)),
            ChannelDecl("h", "B", "A", function_channel([0, 0], 2, 2)),
            ChannelDecl("g", "B", "C", function_channel([0, 0], 2, 2)),
        ],
    )
    subjects = [i.subject for i in q.validate().issues if i.code == "composition-closure"]
    assert subjects == [
        "A->B->A", "A->B->C", "A->B->A", "A->B->C", "B->A->B", "B->A->B",
    ]
    assert complete_composition(q).validate().ok


def test_induced_map_miss_and_ambiguity():
    a0, a1 = basis_state(2, 0), basis_state(2, 1)
    src = SystemDecl("A", 2, {"a0": a0, "a1": a1})
    swap = function_channel([1, 0], 2, 2)
    assert induced_map(swap, src, src) == {"a0": "a1", "a1": "a0"}
    assert induced_map(swap, src, SystemDecl("B", 2, {"b1": a1})) is None
    near_a1 = DensityMatrix(np.diag([1e-10, 1 - 1e-10]).astype(complex))
    crowded = SystemDecl("B", 2, {"b0": a0, "b1": a1, "c1": near_a1})
    with pytest.raises(StructuralError, match="ambiguous match in system B"):
        induced_map(swap, src, crowded)


def test_induced_map_outcome_is_that_of_the_first_unmatched_state():
    # |0> passes diag(1, 1.1) to itself, which B does not name; |1> comes
    # out with trace 1.21, which is no state
    inflate = KrausChannel([np.diag([1.0, 1.1])])
    a0, a1 = basis_state(2, 0), basis_state(2, 1)
    only_b1 = SystemDecl("B", 2, {"b1": a1})
    assert induced_map(inflate, SystemDecl("A", 2, {"a0": a0, "a1": a1}), only_b1) is None
    with pytest.raises(ShapeError, match="trace is 1.210000"):
        induced_map(inflate, SystemDecl("A", 2, {"a1": a1, "a0": a0}), only_b1)
    crowded = SystemDecl("B", 2, {"b0": a0, "c0": a0})
    with pytest.raises(StructuralError, match="ambiguous match"):
        induced_map(inflate, SystemDecl("A", 2, {"a0": a0, "a1": a1}), crowded)


# -- the grouped derivation against the per-channel path ----------------------

GUARD = linalg_module._GUARD


def outcome(call):
    """A derivation's outcome: ("map", its items in order), ("map", None),
    or the type and text of what it raised."""
    try:
        fn = call()
    except QrtModalError as exc:
        return type(exc), str(exc)
    return "map", None if fn is None else list(fn.items())


def fits(q: Qrt) -> list:
    """(channel, whether it fits its systems) for every channel in order:
    the theory applies only the channels that fit, and a per-channel
    reference is called only on them."""
    return [(d, misfit is None) for d, _, misfit in q._checked]


def derivation_pairs(q: Qrt):
    """(grouped, one-channel) outcome of every channel of a fresh copy of
    q: the theory's own derivation, and ``induced_map`` of the channel
    alone, or None for a channel that does not fit its systems. Also the
    count of channels that the first derivation's pass settled."""
    fresh = Qrt(q.systems, q.channels, q.trivial_id, q.tol)
    outcome(partial(fresh._function, fresh.channels[0]))
    settled = len(fresh._induced)
    pairs = [
        (
            outcome(partial(fresh._function, d)),
            outcome(partial(induced_map, d.channel, fresh.system(d.src), fresh.system(d.dst), fresh.tol)) if fit else None,
        )
        for d, fit in fits(fresh)
    ]
    return pairs, settled


def image_bits_and_verdicts(q: Qrt) -> int:
    """Apply the channels of q into each output dim with one
    ``apply_channels``, as the theory does, and compare every image with
    the state's own ``apply_channel``: a failing image must raise the same
    error alone, and where the bits of a passing one differ, its verdicts
    against the named states must not. Returns the count of images
    compared."""
    groups: dict = {}
    for d in q.channels:
        src, dst = q.system(d.src), q.system(d.dst)
        if all(r.dim == d.channel.in_dim for r in src.states.values()) and all(
            r.dim == d.channel.out_dim for r in dst.states.values()
        ):
            groups.setdefault(d.channel.out_dim, []).append(d)
    compared = 0
    for decls in groups.values():
        stacks = [tuple(q.system(d.src).states.values()) for d in decls]
        images, errors = linalg_module.apply_channels([d.channel for d in decls], stacks, q.tol)
        row = 0
        for d, states in zip(decls, stacks):
            named = q.system(d.dst).states.values()
            for i, rho in enumerate(states, row):
                compared += 1
                try:
                    alone = apply_channel(d.channel, rho, q.tol)
                except QrtModalError as exc:
                    assert i in errors and (type(errors[i]), str(errors[i])) == (type(exc), str(exc))
                    continue
                assert i not in errors
                if images[i].tobytes() != alone.mat.tobytes():
                    grouped_image = DensityMatrix._checked(images[i])
                    assert [within_trace_distance(grouped_image, n, q.tol) for n in named] == [
                        within_trace_distance(alone, n, q.tol) for n in named
                    ]
            row += len(states)
    return compared


# the theories the iso benchmark decides: four systems of dims 1 and 2,
# four states each
ISO_CONFIG = GeneratorConfig(seed=1, n_systems=4, dims=(1, 2), states_per_system=4)


def iso_pool() -> list:
    """The theories of ``ISO_CONFIG`` at indices 0 to 47, skipping an
    index that generates none."""
    pool = []
    for index in range(48):
        try:
            pool.append(generate_qrt(ISO_CONFIG, index=index))
        except GenerationError:
            continue
    return pool


def scalar_map(channel: KrausChannel, src: SystemDecl, dst: SystemDecl, tol: float) -> dict | None:
    """induced_map by the plain rules, one state at a time: each image by
    apply_channel, each verdict by trace_distance."""
    out = {}
    for st, rho in src.states.items():
        image = apply_channel(channel, rho, tol)
        hits = [name for name, named in dst.states.items() if trace_distance(image, named) <= tol]
        if len(hits) > 1:
            raise StructuralError(f"ambiguous match in system {dst.id}: {sorted(hits)}")
        if not hits:
            return None
        out[st] = hits[0]
    return out


def built_theories() -> dict:
    """Theories made to reach each branch of the grouped pass."""
    a0, a1 = basis_state(2, 0), basis_state(2, 1)
    eye = identity_channel(2)
    base = maximally_mixed(2)
    # states at eps + k g from base, where eps is the matching radius: the
    # bounds decide k = -10, the eigensolve k = 0, 1 and 10, and k = -1
    # sits on the hit bound
    near = [DensityMatrix(base.mat + np.diag([t, -t])) for t in (DEFAULT_TOL + k * GUARD for k in (-10, -1, 0, 1, 10))]
    guard = Qrt(
        [SystemDecl("B", 2, {"mid": base})]
        + [SystemDecl(f"N{i}", 2, {"s": s}) for i, s in enumerate(near)],
        [ChannelDecl(f"to_b{i}", f"N{i}", "B", eye) for i in range(len(near))]
        + [ChannelDecl(f"from_b{i}", "B", f"N{i}", eye) for i in range(len(near))],
    )
    src = SystemDecl("A", 2, {"a0": a0, "a1": a1})
    # |0> matches nothing in C, |1> matches two named states
    crowded = SystemDecl("C", 2, {"c1": a1, "c1_near": DensityMatrix(np.diag([1e-10, 1 - 1e-10]).astype(complex))})
    order = Qrt(
        [src, crowded],
        [
            ChannelDecl("miss_first", "A", "C", function_channel([0, 1], 2, 2)),
            ChannelDecl("ambiguous_first", "A", "C", function_channel([1, 0], 2, 2)),
        ],
    )
    dst = SystemDecl("B", 2, {"b0": a0, "b1": a1})
    good = [
        ChannelDecl("keep", "A", "B", function_channel([0, 1], 2, 2)),
        ChannelDecl("swap", "A", "B", function_channel([1, 0], 2, 2)),
    ]

    def beside_good(decl: ChannelDecl, *systems: SystemDecl) -> Qrt:
        return Qrt([src, dst, *systems], [good[0], decl, good[1]])

    wide = SystemDecl("W", 2, {"w0": a0, "w3": basis_state(3, 0)})  # a state of the wrong dim
    return {
        "guard": guard,
        "order": order,
        "non_cptp": beside_good(ChannelDecl("inflate", "A", "B", KrausChannel([np.diag([1.0, 1.1])]))),
        "non_finite": beside_good(ChannelDecl("huge", "A", "B", KrausChannel([1e200 * np.eye(2)]))),
        # finite images whose distances to the named states would overflow
        "overflowing": beside_good(ChannelDecl("large", "A", "B", KrausChannel([1e80 * np.eye(2)]))),
        "misdimensioned": beside_good(ChannelDecl("to_wide", "A", "W", eye), wide),
    }


def check_grouped_against_per_channel(q: Qrt) -> tuple[list, int, int]:
    """The grouped outcome of each channel of q that fits its systems
    equals induced_map's and the plain rules', any other channel's is a
    StructuralError, and each grouped image equals its one-channel image
    or gets the same verdicts. Returns the (grouped, per-channel) outcome
    pairs, the count of channels the grouped pass settled itself and the
    count of images compared."""
    pairs, settled = derivation_pairs(q)
    for (d, fit), (grouped, single) in zip(fits(q), pairs):
        if fit:
            rule = outcome(partial(scalar_map, d.channel, q.system(d.src), q.system(d.dst), q.tol))
            assert grouped == single == rule, d.id
        else:
            assert grouped[0] is StructuralError and grouped[1].startswith(f"channel {d.id}: "), d.id
    return pairs, settled, image_bits_and_verdicts(q)


def applied_rows(applied: Counter, decl: ChannelDecl) -> int:
    """The (channel, state) rows of decl's channel among the applications
    ``_count_applications`` counted."""
    return sum(n for (c, _), n in applied.items() if c == id(decl.channel))


def check_as_without(q: Qrt, bad: set) -> None:
    """The channels of q but those with an id in bad settle the outcomes
    they settle in a copy of q without them, and q's validation issues are
    that copy's beside the bad channels' own."""
    without = Qrt(q.systems, [d for d in q.channels if d.id not in bad], q.trivial_id, q.tol)
    mine, _ = derivation_pairs(q)
    alone, _ = derivation_pairs(without)
    assert {d.id: grouped for d, (grouped, _) in zip(without.channels, alone)} == {
        d.id: grouped for d, (grouped, _) in zip(q.channels, mine) if d.id not in bad
    }
    assert [i for i in q.validate().issues if i.subject not in bad] == list(without.validate().issues)


def check_settles_every_channel(theories: list) -> None:
    """The grouped pass settles every channel and agrees with the
    one-channel derivation and the plain rules."""
    compared = 0
    for q in theories:
        pairs, settled, images = check_grouped_against_per_channel(q)
        compared += images
        assert settled == len(q.channels)
    assert compared > 0


class TestGroupedDerivation:
    def test_corpus(self):
        check_settles_every_channel(corpus_theories())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_family(self, seed):
        from qrtmodal.harness import build_family

        check_settles_every_channel([q for _, q in build_family(seed, 40)])

    def test_iso_pool(self):
        pool = iso_pool()
        assert len(pool) >= 32
        check_settles_every_channel(pool)

    def test_guard_band(self, monkeypatch):
        q = built_theories()["guard"]
        calls = Counter()
        original = linalg_module.trace_distance

        def counting(a, b):
            calls["trace_distance"] += 1
            return original(a, b)

        monkeypatch.setattr(linalg_module, "trace_distance", counting)
        settled = qrt_module._induced_maps([(d.channel, q.system(d.src), q.system(d.dst)) for d in q.channels], q.tol)
        monkeypatch.undo()
        assert len(settled) == len(q.channels) and not any(isinstance(o, tuple) for o in settled)
        # k = 0, 1 and 10 lie between the bounds, in each direction; k = -1
        # sits on the hit bound, where rounding decides which side
        assert calls["trace_distance"] >= 6
        pairs, _, _ = check_grouped_against_per_channel(q)
        hits = {d.id: grouped[1] is not None for d, (grouped, _) in zip(q.channels, pairs)}
        for way in ("to_b", "from_b"):
            # k = 0 is a distance of eps up to rounding, so it may go either way
            assert [hits[f"{way}{i}"] for i in (0, 1, 3, 4)] == [True, True, False, False]

    def test_first_miss_or_ambiguity_in_state_order_decides(self):
        q = built_theories()["order"]
        pairs, settled, _ = check_grouped_against_per_channel(q)
        assert settled == len(q.channels)
        outcomes = {d.id: grouped for d, (grouped, _) in zip(q.channels, pairs)}
        assert outcomes["miss_first"] == ("map", None)
        assert outcomes["ambiguous_first"] == (
            StructuralError, "ambiguous match in system C: ['c1', 'c1_near']"
        )

    def test_a_state_of_another_dim_is_read_in_state_order(self, monkeypatch):
        # a channel from a system that holds a state of another dim fits no
        # systems: whichever state comes first, it is never applied and
        # settles as the StructuralError that names the system
        mixed, qutrit = maximally_mixed(2), basis_state(3, 0)
        dst = SystemDecl("B", 2, {"b0": basis_state(2, 0), "b1": basis_state(2, 1)})
        swap = ChannelDecl("swap", "B", "B", function_channel([1, 0], 2, 2))  # a group-mate in (2, 2)
        applied = _count_applications(monkeypatch)
        for states in ({"m": mixed, "q": qutrit}, {"q": qutrit, "m": mixed}):
            from_w = ChannelDecl("from_w", "W", "B", identity_channel(2))
            q = Qrt([SystemDecl("W", 2, states), dst], [from_w, swap])
            pairs, settled, _ = check_grouped_against_per_channel(q)
            assert settled == len(q.channels)
            assert pairs[0][0] == (StructuralError, "channel from_w: system W holds a state of another dim")
            assert applied_rows(applied, from_w) == 0 and applied_rows(applied, swap) > 0
            check_as_without(q, {"from_w"})

    @pytest.mark.parametrize(
        "name, bad, error",
        [
            ("non_cptp", "inflate", (ShapeError, "not a density matrix: trace is 1.210000, not 1")),
            ("non_finite", "huge", (ShapeError, "matrix has a non-finite (NaN or infinite) entry")),
            ("overflowing", "large", (ShapeError, f"not a density matrix: trace is {1e80 ** 2:.6f}, not 1")),
            ("misdimensioned", "to_wide", (StructuralError, "channel to_wide: system W holds a state of another dim")),
        ],
    )
    def test_a_failing_channel_settles_in_its_group_beside_unchanged_group_mates(self, monkeypatch, name, bad, error):
        q = built_theories()[name]
        applied = _count_applications(monkeypatch)
        pairs, settled, _ = check_grouped_against_per_channel(q)
        assert settled == len(q.channels)
        outcomes = {d.id: grouped for d, (grouped, _) in zip(q.channels, pairs)}
        assert outcomes[bad] == error
        assert outcomes["keep"] == ("map", [("a0", "b0"), ("a1", "b1")])
        assert outcomes["swap"] == ("map", [("a0", "b1"), ("a1", "b0")])
        # its group-mates read as they do without it
        without = Qrt(q.systems, [d for d in q.channels if d.id != bad], q.trivial_id, q.tol)
        alone, _ = derivation_pairs(without)
        assert {d.id: grouped for d, (grouped, _) in zip(without.channels, alone)} == {
            k: v for k, v in outcomes.items() if k != bad
        }
        # only a channel that fits its systems is applied; the one into a
        # system holding a state of another dim adds no validation issue
        decl = next(d for d in q.channels if d.id == bad)
        assert (applied_rows(applied, decl) == 0) == (name == "misdimensioned")
        if name == "misdimensioned":
            assert q.validate().issues == without.validate().issues


# -- label copies against fresh numeric copies ---------------------------------


@cache
def copy_sources() -> tuple:
    """The valid corpus theories and the families of seeds 1 to 3 at
    count 20."""
    from qrtmodal.harness import build_family

    theories = [q for q in corpus_theories() if q.validate().ok]
    return tuple(theories + [q for seed in (1, 2, 3) for _, q in build_family(seed, 20)])


def check_label_copy(fresh: Qrt, copy) -> None:
    """A numeric copy, derived fresh, has the label copy as its labels,
    and both translate to one model and order."""
    assert fresh.labeled == copy
    a, b = to_model(fresh), to_model(copy)
    assert a.model == b.model and a.order == b.order


def renaming(draw, names: list, fresh: str) -> dict:
    """An injective renaming of names, drawn as a permutation of them and
    as many other names: some keep their name, some swap, some are new."""
    pool = draw(st.permutations(list(dict.fromkeys(names + [f"{fresh}{i}" for i in range(2 * len(names))]))))
    return dict(zip(names, pool))


RELABELINGS = {"numeric": Qrt.relabeled, "labeled": lambda q, sys_map, state_maps: q.labeled.relabeled(sys_map, state_maps)}


class TestLabelCopies:
    def test_seeded_copies_are_the_labels_of_fresh_copies(self):
        for q in copy_sources():
            seed = len(q.channels)
            fresh, copy = random_relabeling(q, np.random.default_rng(seed)), random_relabeling(q.labeled, np.random.default_rng(seed))
            check_label_copy(fresh, copy)
            # the label readers take either type, and read the same of both
            assert qrt_isomorphic(q, copy)[0] and copy._view(True)[0] == fresh._view(True)[0]
            sub = random_sub_qrt(q, np.random.default_rng(seed))
            check_label_copy(sub_qrt(q, [s.id for s in sub.systems]), sub)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_drawn_copies_are_the_labels_of_fresh_copies(self, data):
        q = data.draw(st.sampled_from(copy_sources()))
        sys_map = renaming(data.draw, [s.id for s in q.systems], "X")
        state_maps = {s.id: renaming(data.draw, list(s.states), "t") for s in q.systems}
        keep = data.draw(st.lists(st.sampled_from([s.id for s in q.systems]), min_size=1, unique=True))
        rel = q.labeled.relabeled(sys_map, state_maps)
        check_label_copy(q.relabeled(sys_map, state_maps), rel)
        check_label_copy(sub_qrt(q, keep), q.labeled.restricted(keep))
        # a restriction of a relabeling, and a relabeling of a restriction
        moved = [sys_map[sid] for sid in keep]
        check_label_copy(sub_qrt(q.relabeled(sys_map, state_maps), moved), rel.restricted(moved))
        check_label_copy(sub_qrt(q, keep).relabeled(sys_map, state_maps), q.labeled.restricted(keep).relabeled(sys_map, state_maps))

    def test_a_restriction_to_no_system_raises(self):
        with pytest.raises(StructuralError, match=r"^a sub-theory needs at least one system$"):
            corpus.chain_qrt().labeled.restricted([])

    @pytest.mark.parametrize("kind", sorted(RELABELINGS))
    def test_relabeling_two_states_onto_one_name_raises(self, kind):
        from qrtmodal.harness import build_family

        relabel = RELABELINGS[kind]
        q = next(q for _, q in build_family(1, 10) if len(q.system("A").states) == 2)
        with pytest.raises(StructuralError, match=r"^relabeling maps two states of system A to s1$"):
            relabel(q, {}, {"A": {"s0": "s1"}})
        # a swap is injective, and keeps every state
        swapped = relabel(q, {}, {"A": {"s0": "s1", "s1": "s0"}})
        assert set(swapped.nodes) == set(q.nodes)

    @pytest.mark.parametrize("kind", sorted(RELABELINGS))
    def test_relabeling_two_systems_onto_one_name_raises(self, kind):
        relabel = RELABELINGS[kind]
        q = corpus.chain_qrt()
        a, b = (s.id for s in q.systems[:2])
        with pytest.raises(StructuralError, match=rf"^relabeling maps systems {a} and {b} both to {b}$"):
            relabel(q, {a: b}, {})
        with pytest.raises(StructuralError, match=rf"^relabeling maps systems {a} and {b} both to Z$"):
            relabel(q, {a: "Z", b: "Z"}, {})

    def test_only_the_rebuilt_theories_validate(self, monkeypatch):
        from qrtmodal.harness import build_family

        family = [q for _, q in build_family(1, 20)]
        for q in family:
            q.labeled
        ran = []
        original = Qrt._report.func

        def counting(q):
            ran.append(q)
            return original(q)

        prop = cached_property(counting)
        prop.__set_name__(Qrt, "_report")
        monkeypatch.setattr(Qrt, "_report", prop)
        rng = np.random.default_rng(7)
        cases = [
            (q, [random_renaming(q, rng)], [random_sub_qrt(q, rng)] if len(q.systems) > 1 else [])
            for q in family
        ]
        assert all(report["ok"] for report in verify_functoriality(cases))
        assert len(ran) == len(family)
        assert not {id(q) for q in ran} & {id(q) for q in family}
        # a label copy translates without validating anything
        ran.clear()
        to_model(random_relabeling(family[0].labeled, rng))
        assert ran == []


def test_a_zero_output_dim_is_its_own_dim_mismatch(monkeypatch):
    # KrausChannel accepts an output dim of 0; no image of it is a state,
    # and no system has that dim, so the channel fits none
    a = SystemDecl("A", 2, {"a0": basis_state(2, 0)})
    empty = SystemDecl("E", 2, {})
    zero = KrausChannel([np.zeros((0, 2))])
    z = ChannelDecl("z", "A", "A", zero)
    mates = [ChannelDecl("from_e", "E", "A", zero), ChannelDecl("keep", "A", "A", identity_channel(2))]
    q = Qrt([a, empty], [z, *mates])
    applied = _count_applications(monkeypatch)
    assert [(i.code, i.subject) for i in q.validate().issues] == [("dim-mismatch", "z"), ("dim-mismatch", "from_e")]
    outcomes = {d.id: q._outcome(d) for d in q.channels}
    assert outcomes["z"] == (StructuralError, "channel z: kraus shape 0x2 != 2x2")
    assert applied_rows(applied, z) == 0 and applied_rows(applied, mates[1]) == 1
    # the group-mate in (2, 0), the rest and the validation issues read as
    # they do without it
    without = Qrt([a, empty], mates)
    assert {d.id: without._outcome(d) for d in without.channels} == {
        k: v for k, v in outcomes.items() if k != "z"
    }
    check_as_without(q, {"z"})
    with pytest.raises(ShapeError, match="dim at least 1, got 0"):
        apply_channel(zero, basis_state(2, 0))


# -- one Kraus array per channel, on the theories -------------------------------


def differential_theories() -> list:
    """The corpus and the families of seeds 1 and 2 at size 40."""
    from qrtmodal.harness import build_family

    return corpus_theories() + [q for seed in (1, 2) for _, q in build_family(seed, 40)]


def test_channel_kernels_have_the_bits_of_the_per_operator_code():
    theories = differential_theories()
    channels = list({id(d.channel): d.channel for q in theories for d in q.channels}.values())
    assert len(channels) > 500
    for tol in (DEFAULT_TOL, 1e-6, 0.0):
        fresh = [KrausChannel(c.kraus_ops) for c in channels]
        assert linalg_module.settle_cptp(fresh, tol) == {}
        assert [c._cptp[tol] for c in fresh] == [reference_cptp_verdict(c, tol) for c in channels]
    composed = 0
    for q in theories:
        by_src: dict = {}
        for d in q.channels:
            by_src.setdefault(d.src, []).append(d.channel)
        for d in q.channels:
            assert reference_choi_matrix(d.channel).tobytes() == linalg_module.choi_matrix(d.channel).tobytes()
            for g in by_src.get(d.dst, [])[:3]:
                ours = linalg_module.compose(g, d.channel).kraus_ops
                want = np.array(reference_compose(g, d.channel))
                assert ours.shape == want.shape and ours.tobytes() == want.tobytes()
                composed += 1
    assert composed > 1000


def test_validation_settles_each_reached_channel_in_one_group_pass(monkeypatch):
    q = built_theories()["non_cptp"]
    fresh = Qrt(q.systems, [ChannelDecl(d.id, d.src, d.dst, KrausChannel(d.channel.kraus_ops)) for d in q.channels])
    passes = []
    original = linalg_module._settle_group

    def counting(channels, tol):
        passes.append(sorted(id(c) for c in channels))
        return original(channels, tol)

    monkeypatch.setattr(linalg_module, "_settle_group", counting)
    report = fresh.validate()
    assert [i.code for i in report.issues] == ["non-cptp"]
    # every channel is 2x2, so one pass settles them all
    assert passes == [sorted(id(d.channel) for d in fresh.channels)]


def test_a_failed_choi_eigensolve_raises_out_of_validation_for_its_channel(monkeypatch):
    rng = np.random.default_rng(101)
    a = {"a0": basis_state(2, 0), "a1": basis_state(2, 1)}
    bad = linalg_module.random_cptp_channel(rng, 2, 2)
    q = Qrt(
        [SystemDecl("A", 2, a)],
        [ChannelDecl("flip", "A", "A", function_channel([1, 0], 2, 2)), ChannelDecl("bad", "A", "A", bad)],
    )
    target = linalg_module.hermitian_part(reference_choi_matrix(bad))
    original = linalg_module._eigh

    def planted(m, vectors=False):
        if any(np.array_equal(x, target) for x in (m if m.ndim == 3 else m[None])):
            raise NumericalError("eigenvalue solve failed: planted")
        return original(m, vectors)

    monkeypatch.setattr(linalg_module, "_eigh", planted)
    with pytest.raises(NumericalError, match="planted"):
        q.validate()
    assert [DEFAULT_TOL in d.channel._cptp for d in q.channels] == [True, False, True]


class TestMissingCompositesAgainstReference:
    def test_theories(self):
        checked = 0
        for q in differential_theories():
            for variant in open_variants(q):
                try:
                    table = variant.functions
                except QrtModalError:  # a broken theory has no function table
                    continue
                assert qrt_module._missing_composites(table) == reference_missing_composites(table)
                checked += 1
        assert checked > 300

    def test_every_pass_of_the_closure(self, monkeypatch):
        original = qrt_module._missing_composites
        passes = Counter()

        def checked(table):
            got = original(table)
            assert got == reference_missing_composites(table)
            passes[bool(got)] += 1
            return got

        monkeypatch.setattr(qrt_module, "_missing_composites", checked)
        handed = generated_open_theories(monkeypatch)
        for q in handed + corpus_theories():
            for variant in open_variants(q):
                closure_outcome(complete_composition, variant)
        assert passes[True] > 50 and passes[False] > 50


# -- many theories derived in one batch ------------------------------------------


def fresh_copy(q: Qrt, tol: float | None = None) -> Qrt:
    """A theory over q's systems and channel ids with new channel objects,
    so that it shares no outcome and no CPTP verdict with q or another
    copy."""
    return Qrt(
        q.systems,
        [ChannelDecl(d.id, d.src, d.dst, KrausChannel(d.channel.kraus_ops)) for d in q.channels],
        q.trivial_id,
        q.tol if tol is None else tol,
    )


def settled_outcomes(q: Qrt) -> list:
    """(channel id, outcome, CPTP verdict) of each channel in order, read
    without deriving anything: the map's items in state order, None or
    (error type, message), and the verdict kept at q's tolerance, or None
    when there is none."""
    out = []
    for d in q.channels:
        o = q._induced[d]
        out.append((d.id, list(o.items()) if isinstance(o, dict) else o, d.channel._cptp.get(q.tol)))
    return out


def check_alone_and_batched(theories: list) -> int:
    """Fresh copies of each theory at tolerance 1e-9 and at 1e-3, each
    derived alone, against fresh copies of all of them derived in one
    ``derive`` call beside a twin of each that shares its copy's system
    and channel objects: every channel settles the same outcome and keeps
    the same CPTP verdict, and every theory the same near named states.
    Returns the count of channels compared."""
    cases = [(q, tol) for q in theories for tol in (DEFAULT_TOL, 1e-3)]
    alone = []
    for q, tol in cases:
        copy = fresh_copy(q, tol)
        qrt_module.derive([copy])
        alone.append((settled_outcomes(copy), copy._near))
    batch = [fresh_copy(q, tol) for q, tol in cases]
    twins = [Qrt(c.systems, c.channels, c.trivial_id, c.tol) for c in batch]
    qrt_module.derive([x for pair in zip(batch, twins) for x in pair])
    for want, copy, twin in zip(alone, batch, twins):
        assert (settled_outcomes(copy), copy._near) == (settled_outcomes(twin), twin._near) == want
    return sum(len(outcomes) for outcomes, _ in alone)


_MENU = {
    "c": SystemDecl("c", 1, {"one": scalar_one()}),
    "A": SystemDecl("A", 2, {"a0": basis_state(2, 0), "a1": basis_state(2, 1)}),
    "B": SystemDecl("B", 2, {"b0": basis_state(2, 0), "b1": basis_state(2, 1)}),
    # |1> matches both of its states: an ambiguous match
    "C": SystemDecl("C", 2, {"c1": basis_state(2, 1), "c1_near": DensityMatrix(np.diag([1e-10, 1 - 1e-10]).astype(complex))}),
    # a state of another dim than the system's
    "W": SystemDecl("W", 2, {"w0": basis_state(2, 0), "w3": basis_state(3, 0)}),
    "Q": SystemDecl("Q", 3, {"q0": basis_state(3, 0), "q2": basis_state(3, 2)}),
}
_KINDS = {
    "keep": lambda: function_channel([0, 1], 2, 2),
    "swap": lambda: function_channel([1, 0], 2, 2),
    "inflate": lambda: KrausChannel([np.diag([1.0, 1.1])]),  # not CPTP, and its images are no states
    "shrink": lambda: KrausChannel([np.diag([1.0, 0.5])]),  # not CPTP; |1> leaves the named states
    "mix": lambda: constant_channel(maximally_mixed(2), 2),  # a miss on A, B and C
    "prepare": lambda: preparation_channel(basis_state(2, 1)),
    "discard": lambda: trace_channel(2),
    "widen": lambda: function_channel([0, 2], 2, 3),
    "narrow": lambda: function_channel([0, 1, 1], 3, 2),
}


@st.composite
def failing_theories(draw) -> Qrt:
    """A theory over a few systems of ``_MENU`` whose channels, of the
    kinds of ``_KINDS``, may fail CPTP, miss, match ambiguously, fit no
    dims, meet a state of another dim, or name an undeclared system."""
    names = draw(st.lists(st.sampled_from(sorted(_MENU)), min_size=1, max_size=4, unique=True))
    ends = st.sampled_from([*names, "Z"])
    specs = draw(st.lists(st.tuples(st.sampled_from(sorted(_KINDS)), ends, ends), max_size=6))
    channels = [ChannelDecl(f"ch{i}", src, dst, _KINDS[kind]()) for i, (kind, src, dst) in enumerate(specs)]
    return Qrt([_MENU[n] for n in names], channels)


class TestBatchedDerivation:
    def test_corpus_and_built_theories(self):
        theories = corpus_theories() + list(built_theories().values())
        assert check_alone_and_batched(theories) > 100

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_family(self, seed):
        from qrtmodal.harness import build_family

        assert check_alone_and_batched([q for _, q in build_family(seed, 40)]) > 300

    @settings(max_examples=60, deadline=None)
    @given(st.lists(failing_theories(), min_size=1, max_size=4))
    def test_failing_channels(self, theories):
        check_alone_and_batched(theories)

    def test_the_drawn_theories_reach_every_failure(self, monkeypatch):
        # the kinds and systems the strategy draws from settle each failure
        theories = [
            Qrt([_MENU["A"], _MENU["B"], _MENU["C"], _MENU["W"], _MENU["Q"]], [
                ChannelDecl("inflate", "A", "B", _KINDS["inflate"]()),
                ChannelDecl("mix", "A", "B", _KINDS["mix"]()),
                ChannelDecl("ambiguous", "A", "C", _KINDS["swap"]()),
                ChannelDecl("away", "A", "Z", _KINDS["keep"]()),
                ChannelDecl("other_dim", "W", "A", _KINDS["keep"]()),
                ChannelDecl("misfit", "A", "Q", _KINDS["keep"]()),
            ]),
        ]
        check_alone_and_batched(theories)
        q = fresh_copy(theories[0])
        applied = _count_applications(monkeypatch)
        qrt_module.derive([q])
        outcomes = {d.id: q._induced[d] for d in q.channels}
        assert outcomes["inflate"] == (ShapeError, "not a density matrix: trace is 1.210000, not 1")
        assert outcomes["mix"] is None
        assert outcomes["ambiguous"] == (StructuralError, "ambiguous match in system C: ['c1', 'c1_near']")
        assert outcomes["away"] == (StructuralError, "channel away: endpoints A->Z undeclared")
        assert outcomes["other_dim"] == (StructuralError, "channel other_dim: system W holds a state of another dim")
        assert outcomes["misfit"] == (StructuralError, "channel misfit: kraus shape 2x2 != 3x2")
        verdicts = {d.id: d.channel._cptp.get(q.tol) for d in q.channels}
        assert verdicts["inflate"][0] is False and verdicts["mix"] == (True, None)
        # a channel that fits no systems is neither checked nor applied
        misfits = {"away", "other_dim", "misfit"}
        for d in q.channels:
            assert (verdicts[d.id] is None) == (applied_rows(applied, d) == 0) == (d.id in misfits or d.id == "id_W"), d.id
        check_as_without(q, misfits)

    def test_one_pass_of_each_kernel_per_tolerance(self, monkeypatch):
        from qrtmodal.harness import build_family

        theories = [fresh_copy(q, tol) for _, q in build_family(1, 12) for tol in (DEFAULT_TOL, 1e-3)]
        calls = Counter()
        maps, cptp = qrt_module._induced_maps, qrt_module.settle_cptp

        def counting_maps(derivations, tol):
            calls["maps", tol] += 1
            return maps(derivations, tol)

        def counting_cptp(channels, tol):
            calls["cptp", tol] += 1
            return cptp(channels, tol)

        monkeypatch.setattr(qrt_module, "_induced_maps", counting_maps)
        monkeypatch.setattr(qrt_module, "settle_cptp", counting_cptp)
        qrt_module.derive(theories)
        assert calls == Counter({(kind, tol): 1 for kind in ("maps", "cptp") for tol in (DEFAULT_TOL, 1e-3)})
        # validation finds everything settled: no theory derives again
        calls.clear()
        assert all(q.validate().ok for q in theories)
        assert not any(n for (kind, _), n in calls.items() if kind == "maps")


# -- one pass per output dim, and one per decision -------------------------------


def _count_calls(monkeypatch, *names: str) -> Counter:
    """Patch each named kernel the theory layer calls to count its calls."""
    calls = Counter()
    for name in names:
        original = getattr(qrt_module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(qrt_module, name, counting)
    return calls


def three_dim_theory() -> Qrt:
    """Systems of dims 1, 2 and 3, with a channel from each into each."""
    return Qrt(
        [
            SystemDecl("t", 1, {"one": scalar_one()}),
            SystemDecl("A", 2, {"a0": basis_state(2, 0), "a1": basis_state(2, 1)}),
            SystemDecl("B", 3, {"b0": basis_state(3, 0), "b2": basis_state(3, 2)}),
        ],
        [
            ChannelDecl("prep_a", "t", "A", preparation_channel(basis_state(2, 0))),
            ChannelDecl("prep_b", "t", "B", preparation_channel(basis_state(3, 0))),
            ChannelDecl("widen", "A", "B", function_channel([0, 2], 2, 3)),
            ChannelDecl("narrow", "B", "A", function_channel([0, 1, 1], 3, 2)),
            ChannelDecl("drop_a", "A", "t", trace_channel(2)),
            ChannelDecl("drop_b", "B", "t", trace_channel(3)),
        ],
    )


def _count_passes(monkeypatch) -> Counter:
    """Patch the kernels a theorems run reaches to count its match passes
    (``_matches``), its near-state passes (the ``within_trace_distances``
    calls at radius 2 tol), its draws and the state checks
    (``_state_errors``) that it makes outside its channels' derivations,
    wherever they come from."""
    import qrtmodal.generate as generate_module

    calls, inside = Counter(), Counter()

    def patch(module, name, count):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            if count(*args):
                calls[name] += 1
            inside[name] += 1
            try:
                return original(*args, **kwargs)
            finally:
                inside[name] -= 1

        monkeypatch.setattr(module, name, counting)

    patch(qrt_module, "_matches", lambda *args: True)
    patch(qrt_module, "within_trace_distances", lambda a, b, eps, *rows: eps == 2 * DEFAULT_TOL)
    patch(qrt_module, "apply_channels", lambda *args: False)
    patch(generate_module, "_declared_qrt", lambda *args: True)
    patch(linalg_module, "_state_errors", lambda *args: not inside["apply_channels"])
    return calls


class TestOnePassPerOutputDim:
    def test_a_lone_theory_applies_and_matches_once_per_out_dim(self, monkeypatch):
        q = fresh_copy(complete_composition(three_dim_theory()))
        assert {(d.channel.in_dim, d.channel.out_dim) for d in q.channels} == set(itertools.product((1, 2, 3), repeat=2))
        calls = _count_calls(monkeypatch, "apply_channels", "_matches", "within_trace_distances")
        assert q.validate().ok
        # a match pass per output dim, and a near-state pass for each of dims
        # 2 and 3, the dims of a system with two named states
        assert calls == Counter({"apply_channels": 3, "_matches": 3, "within_trace_distances": 5})
        # six destination systems of one dim share one match pass; no
        # system has two named states
        guard = fresh_copy(built_theories()["guard"])
        assert len({d.dst for d in guard.channels}) == 6
        calls.clear()
        guard.validate()
        assert calls == Counter({"apply_channels": 1, "_matches": 1, "within_trace_distances": 1})
        monkeypatch.undo()
        check_settles_every_channel([q, guard])

    def test_a_theorems_run_makes_one_pass_per_batch(self, monkeypatch):
        # the stock states are made and checked once per process, so no
        # check of theirs falls in the run
        scalar_one()
        corpus._qubit_basis()
        calls = _count_passes(monkeypatch)
        run_theorems(seed=1, count=40)
        # one call per destination system, per system and per drawn state
        # would make 337 match passes, 135 near-state passes and 137 checks
        assert calls == Counter({"_declared_qrt": 45, "_state_errors": 45, "_matches": 27, "within_trace_distances": 7})

    @pytest.mark.parametrize("decide", [qrt_isomorphic, iso_conditions])
    def test_a_decision_derives_both_fresh_operands_in_one_pass(self, monkeypatch, decide):
        q = generate_qrt(ISO_CONFIG, index=0)
        x, y = fresh_copy(q), random_relabeling(fresh_copy(q), np.random.default_rng(7))
        calls = _count_calls(monkeypatch, "_induced_maps")
        decide(x, y)
        assert calls == Counter({"_induced_maps": 1})
        assert all(d in t._induced for t in (x, y) for d in t.channels)
        # a decision validates neither operand
        assert "_report" not in vars(x) and "_report" not in vars(y)

    @pytest.mark.parametrize(
        "decide", [lambda q: qrt_module.derive([q, q]), lambda q: qrt_isomorphic(q, q), lambda q: iso_conditions(q, q)]
    )
    def test_a_theory_given_twice_applies_each_pair_once(self, monkeypatch, decide):
        q = fresh_copy(generate_qrt(ISO_CONFIG, index=0))
        applied = _count_applications(monkeypatch)
        decide(q)
        assert applied == Counter((id(d.channel), id(dm)) for d in q.channels for dm in q.system(d.src).states.values())

    @pytest.mark.parametrize("decide", [qrt_isomorphic, iso_conditions])
    def test_labeled_operands_derive_nothing(self, monkeypatch, decide):
        q = generate_qrt(ISO_CONFIG, index=0)
        x = fresh_copy(q).labeled
        y = random_relabeling(x, np.random.default_rng(7))
        calls = _count_calls(monkeypatch, "_induced_maps")
        decide(x, y)
        assert not calls
        # beside a labeled operand, a fresh theory derives alone
        z = fresh_copy(q)
        applied = _count_applications(monkeypatch)
        decide(z, y)
        assert calls == Counter({"_induced_maps": 1})
        assert applied == Counter((id(d.channel), id(dm)) for d in z.channels for dm in z.system(d.src).states.values())


# -- the one-pass matching and near states against the per-system passes ---------


def _settled_map(o):
    """An outcome with a map's items in state order."""
    return list(o.items()) if isinstance(o, dict) else o


def check_against_per_destination(theories: list) -> int:
    """Fresh copies of the theories at tolerance 1e-9 and at 1e-3, derived
    in one ``derive`` call, against the passes the one-pass ones replaced:
    every channel that fits its systems settles the outcome of
    ``reference_induced_map`` (a map, a miss, an ambiguous match or a
    failed image), and every theory keeps the near pairs of
    ``reference_near_states``. Returns the count of channels compared."""
    batch = [fresh_copy(q, tol) for q in theories for tol in (DEFAULT_TOL, 1e-3)]
    qrt_module.derive(batch)
    compared = 0
    for q in batch:
        assert q._near == reference_near_states(q)
        for d, fit in fits(q):
            if fit:
                want = reference_induced_map(d.channel, q.system(d.src), q.system(d.dst), q.tol)
                assert _settled_map(q._induced[d]) == _settled_map(want), d.id
                compared += 1
    return compared


@st.composite
def near_theories(draw) -> Qrt:
    """Systems of one dim holding a base state and states at trace
    distance tol or 2 tol from it, give or take up to ten guard bands,
    with identity channels between some of them: matches, misses,
    ambiguous matches and near pairs on either side of each radius."""
    dim = draw(st.sampled_from([2, 3]))
    base = maximally_mixed(dim)
    pool = {"mid": base}
    offsets = st.tuples(st.sampled_from([1, 2]), st.sampled_from([-10, -1, 0, 1, 10]))
    for i, (radii, k) in enumerate(draw(st.lists(offsets, min_size=1, max_size=5))):
        t = radii * DEFAULT_TOL + k * GUARD
        pool[f"n{i}"] = DensityMatrix(base.mat + np.diag([t, -t] + [0.0] * (dim - 2)))
    held = draw(st.lists(st.lists(st.sampled_from(sorted(pool)), min_size=1, max_size=4, unique=True), min_size=1, max_size=4))
    systems = [SystemDecl(f"S{j}", dim, {n: pool[n] for n in names}) for j, names in enumerate(held)]
    ends = st.sampled_from([s.id for s in systems])
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=6))
    return Qrt(systems, [ChannelDecl(f"id{i}", a, b, identity_channel(dim)) for i, (a, b) in enumerate(pairs)])


class TestOnePassAgainstPerDestination:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_family(self, seed):
        from qrtmodal.harness import build_family

        assert check_against_per_destination([q for _, q in build_family(seed, 40)]) > 300

    def test_corpus_iso_pool_and_built_theories(self):
        theories = corpus_theories() + iso_pool() + [three_dim_theory()] + list(built_theories().values())
        assert check_against_per_destination(theories) > 300

    def test_guard_band_reaches_each_outcome(self):
        q = built_theories()["guard"]
        check_against_per_destination([q])
        # the pass reaches both a hit and a miss within the guard band
        fresh = fresh_copy(q)
        qrt_module.derive([fresh])
        assert {fresh._induced[d] is None for d in fresh.channels} == {True, False}

    @settings(max_examples=80, deadline=None)
    @given(st.lists(near_theories(), min_size=1, max_size=3))
    def test_states_near_the_radii(self, theories):
        check_against_per_destination(theories)

    def test_hand_built_states_near_the_radii(self):
        # a system holding the base state and states at tol and 2 tol off
        # it, each copied into the others by an identity
        base = maximally_mixed(2)
        at = {k: DensityMatrix(base.mat + np.diag([k * DEFAULT_TOL, -k * DEFAULT_TOL])) for k in (0.5, 1.5, 3)}
        systems = [
            SystemDecl("M", 2, {"mid": base, "far": at[3]}),
            SystemDecl("N", 2, {"half": at[0.5]}),
            SystemDecl("F", 2, {"one_half": at[1.5]}),
            SystemDecl("X", 2, {"mid": base, "half": at[0.5]}),
        ]
        ids = [s.id for s in systems]
        q = Qrt(systems, [ChannelDecl(f"{a}_{b}", a, b, identity_channel(2)) for a in ids for b in ids if a != b])
        check_against_per_destination([q])
        fresh = fresh_copy(q)
        qrt_module.derive([fresh])
        outcomes = {d.id: fresh._induced[d] for d in fresh.channels}
        assert outcomes["N_M"] == {"half": "mid"} and outcomes["F_M"] is None
        assert outcomes["N_X"] == (StructuralError, "ambiguous match in system X: ['half', 'mid']")
        assert fresh._near == [[], [], [], [("half", "mid")]]


# -- the closed theory reuses its closure's last sweep ---------------------------


def _chain_to_close() -> Qrt:
    a0, a1 = basis_state(2, 0), basis_state(2, 1)
    return Qrt(
        [SystemDecl("A", 2, {"a0": a0, "a1": a1}), SystemDecl("B", 2, {"b0": a0, "b1": a1})],
        [
            ChannelDecl("f", "A", "B", function_channel([0, 0], 2, 2)),
            ChannelDecl("g", "B", "A", function_channel([1, 0], 2, 2)),
        ],
    )


class TestClosureHandsOverItsSweep:
    def test_a_closed_theory_does_not_sweep_again(self, monkeypatch):
        sweeps = Counter()
        original = qrt_module._missing_composites

        def counting(table):
            sweeps["sweeps"] += 1
            return original(table)

        monkeypatch.setattr(qrt_module, "_missing_composites", counting)
        closed = complete_composition(_chain_to_close())
        before = sweeps["sweeps"]
        assert closed.validate().ok
        assert sweeps["sweeps"] == before
        # a copy of the closed theory is not the closure's: it sweeps
        assert Qrt(closed.systems, closed.channels, closed.trivial_id, closed.tol).validate().ok
        assert sweeps["sweeps"] == before + 1

    def test_a_composite_inducing_another_function_is_swept(self, monkeypatch):
        # every composite realises the constant map onto the second state,
        # so the closed table differs from the closure's own
        real = qrt_module.compose

        def planted(g, f):
            real(g, f)
            return function_channel([1] * f.in_dim, f.in_dim, g.out_dim)

        monkeypatch.setattr(qrt_module, "compose", planted)
        closed = complete_composition(_chain_to_close())
        keys = {pair: set(fns) for pair, fns in closed.functions.items()}
        assert keys != {pair: set(fns) for pair, fns in closed._closure_keys.items()}
        direct = qrt_module._missing_composites(closed.functions)
        assert direct
        issues = [(i.code, i.subject) for i in closed.validate().issues]
        assert issues == [("composition-closure", f"{a}->{b}->{c}") for a, b, _, c, _, _ in direct]
