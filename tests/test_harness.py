"""Harness tests: family assembly, consolidated report, status codes."""

import hashlib
import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import qrtmodal.kripke as kripke
import qrtmodal.qrt as qrt_module
from qrtmodal import config, corpus, generate, harness, io, translate
from qrtmodal.cli import main
from qrtmodal.corpus import (
    broken_monotone_model,
    broken_no_unit_model,
    broken_smc_model,
    chain_qrt,
    entanglement_qrt,
    injectivity_gap_pair,
    iso_gap_pair,
    resource_destroying_qrt,
    xi_sweep,
)
from qrtmodal.errors import GenerationError, QrtModalError, ResourceLimitError, StructuralError
from qrtmodal.generate import GeneratorConfig
from qrtmodal.harness import build_family, run_theorems
from qrtmodal.kripke import KripkeModel, StarredModel, models_isomorphic, starred_isomorphic
from qrtmodal.linalg import KrausChannel, basis_state, function_channel, scalar_one
from qrtmodal.qrt import (
    ChannelDecl,
    LabeledTheory,
    Qrt,
    SystemDecl,
    complete_composition,
    node_name,
    qrt_isomorphic,
)
from qrtmodal.translate import iso_conditions, to_model

from helpers import plant_mirrored_truth, reference_build_family, reference_iso_sweep


def test_family_members_are_pairwise_fresh(monkeypatch):
    monkeypatch.setattr(harness, "_N_RELABELED", 2)
    fam = build_family(seed=4, count=10)
    assert len(fam) == 10
    base = [(l, q) for l, q in fam if not l.endswith("_relabeled")]
    models = [to_model(q).model for _, q in base]
    for i, a in enumerate(models):
        for b in models[i + 1:]:
            ok, _ = models_isomorphic(a, b)
            assert not ok
    # relabeled members are isomorphic to their originals by construction
    by_label = dict(fam)
    for label, q in fam:
        if label.endswith("_relabeled"):
            orig = by_label[label.removesuffix("_relabeled")]
            ok, _ = models_isomorphic(to_model(orig).model, to_model(q).model)
            assert ok


def test_clean_run_status_zero():
    rep = run_theorems(seed=5, count=6)
    assert rep["status"] == 0
    assert rep["inconclusive"] == 0
    assert rep["starred_injectivity"]["falsifications"] == 0


def test_negative_seed_is_rejected_before_any_section(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "build_family", lambda *a, **k: calls.append(a))
    with pytest.raises(StructuralError, match=r"^the seed must be at least 0, got -1$"):
        run_theorems(seed=-1, count=4)
    assert not calls


def test_injected_broken_models_falsify():
    rep = run_theorems(
        seed=5,
        count=4,
        injected_models=[
            ("monotone", broken_monotone_model()),
            ("smc", broken_smc_model()),
        ],
    )
    assert rep["status"] == 1
    flagged = [e for e in rep["image_conditions"]["entries"] if e.get("injected")]
    assert any(not e["i"] for e in flagged)
    smc_flagged = [e for e in rep["smc"]["entries"] if e.get("injected")]
    assert smc_flagged and not smc_flagged[0]["laws_ok"]


def test_tiny_search_cap_is_inconclusive_not_falsified(monkeypatch):
    family = build_family(5, 4)  # the family dedup would overrun the lowered cap
    monkeypatch.setattr(config, "MAX_ISO_NODES", 1)
    rep = run_theorems(family=family, seed=5, include_corpus=False)
    assert rep["inconclusive"] > 0
    assert rep["status"] == 3


def test_report_bytes_pinned():
    # the same digest as "6:1" in bench/theorems_sha256.json
    import hashlib

    from qrtmodal import io

    text = io.dumps(run_theorems(seed=1, count=6))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "46e47d01c4e9c78a"


def test_inconclusive_iso_conditions_pairs_named(monkeypatch):
    family = build_family(1, 4)
    monkeypatch.setattr(config, "MAX_ISO_NODES", 3)
    rep = run_theorems(family=family, seed=1)
    named = rep["iso_conditions"]["inconclusive"]
    assert len(named) == 4
    assert all(len(e["pair"]) == 2 and "exceeded 3" in e["reason"] for e in named)
    # functoriality runs no search, so the cap leaves every entry decided
    entries = rep["functoriality"]["entries"]
    assert entries == [{"label": label, "ok": True} for label, _ in family]
    assert rep["inconclusive"] == 10  # 4 iso-condition and 6 injectivity entries
    assert rep["status"] == 3


def test_duplicate_family_labels_keep_their_own_records():
    rep = run_theorems(family=[("x", chain_qrt()), ("x", entanglement_qrt())], include_corpus=False)
    assert rep["iso_conditions"]["mismatches"] == []
    assert "uncovered" not in rep["possibility"]
    assert rep["status"] == 0


def with_trivial_system(q: Qrt) -> Qrt:
    """q with a trivial system c prepended, closed under composition again."""
    return complete_composition(Qrt([SystemDecl("c", 1, {"one": scalar_one()}), *q.systems], q.channels))


def test_injectivity_gap_fails_only_the_injectivity_section():
    x, y = map(with_trivial_system, injectivity_gap_pair())
    assert x.validate().ok and y.validate().ok
    rep = run_theorems(family=[("x", x), ("y", y)], include_corpus=False)
    assert rep["starred_injectivity"]["falsifications"] == 1
    assert [k for k in harness.SECTIONS if not rep[k]["ok"]] == ["starred_injectivity"]
    assert rep["status"] == 1


def no_unit_starred_model():
    return StarredModel(corpus.broken_no_unit_model(), [("a", "a"), ("b", "b")])


def test_injected_model_without_unit_is_flagged():
    rep = run_theorems(
        family=[("chain", corpus.chain_qrt())],
        injected_models=[("no_unit", no_unit_starred_model())],
        include_corpus=False,
    )
    (entry,) = [e for e in rep["smc"]["entries"] if e.get("injected")]
    assert entry["laws_ok"] is False
    assert "unit" in entry["error"]
    assert rep["status"] == 1


def test_programming_error_in_injected_law_sweep_propagates(monkeypatch):
    injected = broken_smc_model()
    real = harness.SmcCategory

    def failing(m, cap):
        if m is injected:
            raise TypeError("a bug, not a verdict")
        return real(m, cap)

    monkeypatch.setattr(harness, "SmcCategory", failing)
    with pytest.raises(TypeError, match="a bug"):
        run_theorems(
            family=[("chain", corpus.chain_qrt())],
            injected_models=[("smc", injected)],
            include_corpus=False,
        )


def test_a_build_error_on_a_family_theory_fails_smc(monkeypatch):
    # a planted translation defect: the first resource atom of each model reads true
    real = translate._translate

    def planted(q):
        rec = real(q)
        m = rec.model
        resource = sorted(a for a, v in m.interp.items() if v == 0)
        if not resource:
            return rec
        model = KripkeModel(m.worlds, m.access, m.domain, m.domains, {**m.interp, resource[0]: 1})
        return translate.TranslationRecord(rec.edges, model, rec.order, rec.c_world)

    monkeypatch.setattr(translate, "_translate", planted)
    rep = run_theorems(seed=1, count=6)
    assert rep["status"] == 1
    assert [k for k in harness.SECTIONS if not rep[k]["ok"]] == ["functoriality", "image_conditions", "smc"]
    failed = [e for e in rep["smc"]["entries"] if not e["laws_ok"]]
    assert [e["label"] for e in failed] == ["gen0", "gen0_relabeled"]
    assert all(e["error"] == "no unit world: the model cannot host the category" for e in failed)


def injected():
    return [
        ("mono", broken_monotone_model()),
        ("nounit", broken_no_unit_model()),
        ("smc", broken_smc_model()),
    ]


def corpus_family():
    return [
        ("chain", chain_qrt()),
        ("ent", entanglement_qrt()),
        ("dest", resource_destroying_qrt()),
    ]


# first 16 hex digits of the SHA-256 of io.dumps(report); the 6:n digests
# are the same as in bench/theorems_sha256.json
@pytest.mark.parametrize(
    "make_kwargs, cap, status, digest",
    [
        (lambda: dict(seed=2, count=6), None, 0, "5def05f679a06bf7"),
        (lambda: dict(seed=3, count=6), None, 0, "8e045db3de012d07"),
        (lambda: dict(seed=4, count=6), None, 0, "286740c23c3327cb"),
        (lambda: dict(seed=1, count=6, injected_models=injected()), None, 1, "50ed7e2d8ab2e593"),
        (lambda: dict(family=build_family(1, 4), seed=1), 3, 3, "ba0f83f5c749558a"),
        (
            lambda: dict(family=corpus_family(), injected_models=injected(), include_corpus=False),
            None,
            1,
            "1265050570c77010",
        ),
    ],
    ids=["6:2", "6:3", "6:4", "status1", "status3", "file-family"],
)
def test_report_paths_pinned(make_kwargs, cap, status, digest, monkeypatch):
    kwargs = make_kwargs()  # any family is built before the search cap is lowered
    if cap is not None:
        monkeypatch.setattr(config, "MAX_ISO_NODES", cap)
    report = run_theorems(**kwargs)
    assert report["status"] == status
    assert hashlib.sha256(io.dumps(report).encode()).hexdigest()[:16] == digest


# -- the bucketed iso sweep against the all-pairs loop -------------------------

MIXED_DIMS = GeneratorConfig(seed=4, n_systems=3, dims=(1, 2, 3), states_per_system=2)


def plant_strict_iii(monkeypatch) -> None:
    """Plant a mismatch: (iii) holds only for a theory with itself, so
    every pair of distinct isomorphic theories (a relabeled copy and its
    source) disagrees with the model oracle."""
    real = harness.iso_conditions

    def strict(x, y):
        cond = real(x, y)
        return {**cond, "iii": cond["iii"] and x == y}

    monkeypatch.setattr(harness, "iso_conditions", strict)


def flow_gap_family() -> list:
    """Two theories over a trivial system c and systems A and B of two
    states, whose one function A -> B is a constant in the first and a
    bijection in the second. Their models are isomorphic, but their flow
    keys differ (one state of B hit, or two), so (iii) fails: a mismatch
    that only the model side's bucket brings to a decider."""
    r0, r1 = basis_state(2, 0), basis_state(2, 1)
    systems = [SystemDecl("c", 1, {"one": scalar_one()}), *(SystemDecl(n, 2, {f"{n}0": r0, f"{n}1": r1}) for n in "AB")]
    return [
        (label, complete_composition(Qrt(systems, [ChannelDecl("f", "A", "B", function_channel(f, 2, 2))])))
        for label, f in (("const", [0, 0]), ("bij", [0, 1]))
    ]


def stateless_gap_family() -> list:
    """Two theories over a trivial system c, a system A with no named
    state and a system B of two, the second with a channel A -> B. Their
    flow keys agree and (i)-(iii) hold, since a function from A has the
    empty image, but only the second model has the access pair (A, B): a
    mismatch that only the theory side's bucket brings to a decider."""
    r0, r1 = basis_state(2, 0), basis_state(2, 1)
    systems = [SystemDecl("c", 1, {"one": scalar_one()}), SystemDecl("A", 2, {}), SystemDecl("B", 2, {"b0": r0, "b1": r1})]
    bij = ChannelDecl("f", "A", "B", function_channel([0, 1], 2, 2))
    return [(label, complete_composition(Qrt(systems, chans))) for label, chans in (("none", []), ("one", [bij]))]


def dims_gap_family() -> list:
    """Two theories over a trivial system c and a system A with one named
    basis state, of dim 2 in the first and 3 in the second. A translation
    forgets dims, so their models are isomorphic while (i) fails: the
    scope note on dims in README "Scope notes"."""
    trivial = SystemDecl("c", 1, {"one": scalar_one()})
    return [(f"dim{d}", complete_composition(Qrt([trivial, SystemDecl("A", d, {"a0": basis_state(d, 0)})]))) for d in (2, 3)]


# the relabeled copies of build_family(1, 20) and their sources, in both orders
COPY_PAIRS = [[f"gen{k}", f"gen{k}_relabeled"] for k in range(3)] + [[f"gen{k}_relabeled", f"gen{k}"] for k in range(3)]


@pytest.mark.parametrize(
    "make_kwargs, cap, plant, status, mismatched",
    [
        *((lambda s=s: dict(family=build_family(s, 20), seed=s), None, None, 0, []) for s in (1, 2, 3)),
        (lambda: dict(family=build_family(4, 12, config=MIXED_DIMS), seed=4), 6, None, 3, []),
        (lambda: dict(family=corpus_family(), injected_models=injected(), include_corpus=False), None, None, 1, []),
        (lambda: dict(family=build_family(1, 20), seed=1), None, plant_strict_iii, 1, COPY_PAIRS),
        (lambda: dict(family=flow_gap_family(), include_corpus=False), None, None, 1, [["const", "bij"], ["bij", "const"]]),
        (lambda: dict(family=stateless_gap_family(), include_corpus=False), None, None, 1, [["none", "one"], ["one", "none"]]),
        (lambda: dict(family=dims_gap_family(), include_corpus=False), None, None, 1, [["dim2", "dim3"], ["dim3", "dim2"]]),
        (lambda: dict(family=build_family(1, 4), seed=1), 3, None, 3, []),
    ],
    ids=["family1", "family2", "family3", "mixed-dims-capped", "file-family", "planted-mismatch", "flow-gap",
         "stateless-gap", "dims-gap", "status3"],
)
def test_the_bucketed_iso_sweep_reports_as_the_all_pairs_loop(make_kwargs, cap, plant, status, mismatched, monkeypatch):
    kwargs = make_kwargs()  # any family is built before the search cap is lowered
    if cap is not None:
        monkeypatch.setattr(config, "MAX_ISO_NODES", cap)
    if plant is not None:
        plant(monkeypatch)
    got = run_theorems(**kwargs)
    monkeypatch.setattr(harness, "_iso_sweep", reference_iso_sweep)
    want = run_theorems(**kwargs)
    assert io.dumps(got) == io.dumps(want)
    assert got["status"] == status
    section = got["iso_conditions"]
    assert [e["pair"] for e in section["mismatches"]] == mismatched
    assert bool(section.get("inconclusive")) == (cap is not None)


def test_the_dims_gap_fails_only_condition_i():
    entries = run_theorems(family=dims_gap_family(), include_corpus=False)["iso_conditions"]["mismatches"]
    assert entries == [
        {"pair": pair, "conditions": {"i": False, "ii": True, "iii": True}, "models_isomorphic": True}
        for pair in (["dim2", "dim3"], ["dim3", "dim2"])
    ]


def test_the_iso_sweep_calls_its_deciders_only_within_a_bucket(monkeypatch):
    """On build_family(1, 40), 46 of the 1 600 ordered pairs share a key on
    some side: the 40 diagonal pairs and both orders of the 3 relabeled
    copies. Only those call the deciders. Starred injectivity calls its
    decider only on pairs whose starred models share a key: 46 of its
    823, the 40 diagonal pairs, the 3 copies with their sources and the 3
    xi pairs of the corpus."""
    family = build_family(1, 40)
    calls = Counter()

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    counting(harness, "iso_conditions")
    counting(harness, "models_isomorphic")
    counting(translate, "starred_isomorphic")
    report = run_theorems(family=family)
    assert report["status"] == 0
    assert report["iso_conditions"]["pairs_checked"] == 1600
    assert calls == {"iso_conditions": 46, "models_isomorphic": 46, "starred_isomorphic": 46}


# {"<count>:<seed>": SHA-256 of io.dumps(run_theorems(seed, count))}, the
# reports the benchmark's theorems workload checks; read, never written
PINS_FILE = Path(__file__).resolve().parent.parent / "bench" / "theorems_sha256.json"
PINS = json.loads(PINS_FILE.read_text()) if PINS_FILE.exists() else {}


@pytest.mark.parametrize(
    "pin", list(PINS) or [pytest.param(None, marks=pytest.mark.skip(reason="no bench/theorems_sha256.json in this checkout"))]
)
def test_every_pinned_report(pin):
    count, seed = map(int, pin.split(":"))
    report = run_theorems(seed=seed, count=count)
    assert hashlib.sha256(io.dumps(report).encode()).hexdigest() == PINS[pin]


# each oracle the harness calls, replaced by one that always says "false"
FALSE_ORACLES = {
    "s4": ("is_s4", lambda m: (False, "w")),
    "functoriality": ("verify_functoriality", lambda cases: [{"ok": False} for _ in cases]),
    "iso_conditions": ("iso_conditions", lambda a, b: {"i": False, "ii": False, "iii": False}),
    "image_conditions": ("image_conditions", lambda m: {"i": False, "ii": True}),
    "possibility": ("conversion_possibility_report", lambda rec: {"instances": [], "ok": False}),
    "monotonicity": ("monotone_violations", lambda rec: [(("A", "a0"), ("B", "b0"), "f")]),
    "starred_injectivity": (
        "verify_starred_injectivity",
        lambda pairs: {
            "entries": [], "falsifications": 1, "inconclusive": 0, "ok": False
        },
    ),
    "smc": ("verify_smc_laws", lambda cat: {"ok": False}),
}


@pytest.mark.parametrize("section", sorted(FALSE_ORACLES))
def test_false_oracle_falsifies_exactly_its_section(section, monkeypatch, capsys):
    name, oracle = FALSE_ORACLES[section]
    monkeypatch.setattr(harness, name, oracle)
    assert main(["theorems", "--seed", "1", "--count", "4", "--no-corpus"]) == 1
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines() if "FALSIFIED" in line] == [section]
    assert out.endswith("status: 1\n")


# -- keys cached on the operands against fresh operands -----------------------


def fresh_model(m: KripkeModel) -> KripkeModel:
    return KripkeModel(m.worlds, m.access, m.domain, m.domains, m.interp)


def fresh_theory(q) -> LabeledTheory:
    lab = q.labeled
    return LabeledTheory(lab.systems, lab.trivial_id, lab.rows)


# each decider with the operands it takes of a theory: (cached, fresh)
DECIDERS = {
    "iso_conditions": (iso_conditions, lambda q: q.labeled, fresh_theory),
    "qrt_isomorphic": (qrt_isomorphic, lambda q: q.labeled, fresh_theory),
    "models_isomorphic": (models_isomorphic, lambda q: to_model(q).model, lambda q: fresh_model(to_model(q).model)),
    "starred_isomorphic": (
        starred_isomorphic,
        lambda q: to_model(q).starred,
        lambda q: StarredModel(fresh_model(to_model(q).model), to_model(q).order),
    ),
}


def test_cached_keys_give_the_verdicts_of_fresh_operands(theory_pairs, monkeypatch):
    """On each pair, each decider's verdict and witness from operands
    whose caches earlier calls filled equal those from fresh operands. The
    keys settle most pairs, and leave some to each search."""
    calls = []  # one per bijection call: whether its two view keys agree, so that it searches

    def counting(search):
        def counted(view_x, view_y, *args):
            calls.append(view_x[0] == view_y[0])
            return search(view_x, view_y, *args)
        return counted

    for module in (kripke, qrt_module):
        monkeypatch.setattr(module, "bijection", counting(module.bijection))
    searched = Counter()
    for label, x, y in theory_pairs:
        for name, (decide, cached, fresh) in DECIDERS.items():
            before = len(calls)
            verdict = decide(cached(x), cached(y))
            searched[name] += any(calls[before:])
            assert verdict == decide(fresh(x), fresh(y)), (name, label)
    for name in DECIDERS:
        assert 0 < searched[name] < len(theory_pairs) / 2, searched


def test_each_operand_builds_its_keys_once(monkeypatch):
    """Over a run, each model object builds its colours and links at most
    once per order, and each theory object its search view at most once
    per dim rule."""
    family = build_family(1, 20)
    built, operands = Counter(), []  # the operands stay alive, so no id is reused

    def counting(part, build):
        def counted(operand, *rule):
            operands.append(operand)
            built[(part, id(operand), rule)] += 1
            return build(operand, *rule)
        return counted

    monkeypatch.setattr(kripke, "_colours", counting("colours", kripke._colours))
    monkeypatch.setattr(kripke, "_links", counting("links", kripke._links))
    monkeypatch.setattr(qrt_module, "_search_view", counting("theory view", qrt_module._search_view))
    assert run_theorems(family=family)["status"] == 0
    assert {part for part, _, _ in built} == {"colours", "links", "theory view"}
    assert [key for key, n in built.items() if n > 1] == []


# the least MAX_ISO_NODES at which each theory decider answers on the labeled
# forms, (qrt_isomorphic, iso_conditions): a change of search order shows here
LEAST_CAPS = {
    "xi identity": (8, 8),
    "xi flip": (10, 8),
    "xi flip-collapse": (15, 8),
    "iso_gap_pair": (3, 3),
    "injectivity_gap_pair": (16, 4),
}


def least_cap(decide, x, y, monkeypatch) -> int | None:
    for cap in range(1, 100):
        monkeypatch.setattr(config, "MAX_ISO_NODES", cap)
        try:
            decide(x, y)
            return cap
        except ResourceLimitError:
            pass
    return None


def test_theory_deciders_answer_at_pinned_least_caps(monkeypatch):
    pairs = {f"xi {name}": (a, b) for name, a, b in xi_sweep()}
    pairs |= {"iso_gap_pair": iso_gap_pair(), "injectivity_gap_pair": injectivity_gap_pair()}
    got = {
        label: tuple(least_cap(d, a.labeled, b.labeled, monkeypatch) for d in (qrt_isomorphic, iso_conditions))
        for label, (a, b) in pairs.items()
    }
    assert got == LEAST_CAPS


@pytest.mark.parametrize(
    "seed, count, config",
    [
        *((1, count, None) for count in (3, 4, 5, 6, 10, 12, 20, 40)),
        *((seed, 6, None) for seed in (2, 3, 4)),  # the 6:n digests
        *((seed, 20, None) for seed in (2, 3)),  # conftest.theory_pairs
        *((seed, 40, None) for seed in (2, 3, 4, 5, 6)),  # the theorems benchmark's pool
        (4, 12, GeneratorConfig(seed=4, n_systems=3, dims=(1, 2, 3), states_per_system=2)),
    ],
)
def test_family_buckets_keep_the_same_sequence(seed, count, config):
    want = reference_build_family(seed, count, config)
    got = build_family(seed, count, config)
    assert [label for label, _ in got] == [label for label, _ in want]
    assert [to_model(q).model for _, q in got] == [to_model(q).model for _, q in want]


# -- batched generation: the error raised and the indices drawn ----------------


def plant_generation(monkeypatch, draw=(), close=(), invalid=()) -> list:
    """Plant a failure in each phase of generation at the given indices:
    a draw that raises GenerationError, a closure that raises
    ResourceLimitError (StructuralError at an odd index), and a closed
    theory with a channel that is not CPTP, which fails validation.
    Returns the list that records each index drawn, in order."""
    drawn = []
    index_of = {}
    real_draw, real_close = generate._declared_qrt, generate.complete_composition

    def drawing(cfg, index):
        drawn.append(index)
        if index in draw:
            raise GenerationError(f"planted draw failure at index {index}")
        q = real_draw(cfg, index)
        index_of[q] = index
        return q

    def closing(q):
        index = index_of[q]
        if index in close:
            error = StructuralError if index % 2 else ResourceLimitError
            raise error(f"planted closure failure at index {index}")
        closed = real_close(q)
        if index in invalid:
            s = closed.systems[-1]
            bad = ChannelDecl(f"planted_at_index_{index}", s.id, s.id, KrausChannel([2 * np.eye(s.dim)]))
            closed = Qrt(closed.systems, [*closed.channels, bad], closed.trivial_id, closed.tol)
        return closed

    monkeypatch.setattr(generate, "_declared_qrt", drawing)
    monkeypatch.setattr(generate, "complete_composition", closing)
    return drawn


def raised(build) -> tuple | None:
    try:
        build()
    except QrtModalError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "plants, first",
    [
        ({}, None),
        ({"draw": {5}}, 5),
        ({"close": {3}, "draw": {7}}, 3),
        ({"close": {4}}, 4),
        ({"invalid": {9}, "close": {12}}, 9),
        ({"draw": {2}, "invalid": {10}}, 2),
        ({"invalid": {0, 1}}, 0),
        ({"close": {38}, "invalid": {39}}, 38),
        ({"invalid": {"last"}}, "last"),
        ({"draw": {"last"}}, "last"),
    ],
)
def test_batched_generation_raises_and_draws_as_the_sequential_loop(monkeypatch, plants, first):
    seed, count = 1, 40
    unplanted = plant_generation(monkeypatch)
    reference_build_family(seed, count)
    reach = sorted(unplanted)
    # the family drops duplicates, so its draws run past the first batch
    assert reach == list(range(len(reach))) and len(reach) > count - harness._N_RELABELED + 3
    monkeypatch.undo()
    # the last index the family draws, in its last batch
    plants = {phase: {reach[-1] if i == "last" else i for i in idx} for phase, idx in plants.items()}
    first = reach[-1] if first == "last" else first

    want_drawn = plant_generation(monkeypatch, **plants)
    want = raised(lambda: reference_build_family(seed, count))
    monkeypatch.undo()
    got_drawn = plant_generation(monkeypatch, **plants)
    got = raised(lambda: build_family(seed, count))
    assert got == want
    assert (want is None) == (first is None)
    if want is not None:
        assert re.search(rf"index[ _]{first}\b", want[1]), want
        assert max(want_drawn) == first
    # each index drawn once, and none beyond the unplanted family's reach
    assert len(set(got_drawn)) == len(got_drawn)
    assert set(got_drawn) <= set(reach)
    if not plants:
        assert got_drawn == want_drawn
    if plants.get("draw") and min(plants["draw"]) == first:
        # a failed draw ends its batch's draws
        assert max(got_drawn) == first


# -- edge coverage of the possibility section -----------------------------------


def test_a_dropped_function_edge_fails_only_possibility(monkeypatch):
    # a planted translation defect: the first record built loses one edge
    # of a representative channel between two systems
    real = translate._translate
    dropped = []

    def planted(q):
        rec = real(q)
        if dropped:
            return rec
        reps = {(a, b, cid) for (a, b), fns in q.functions.items() for cid in fns.values()}
        edge = min(e for e in rec.edges if (e[0][0], e[1][0], e[2]) in reps and e[0][0] != e[1][0])
        dropped.append([node_name(edge[0]), node_name(edge[1]), edge[2]])
        return translate.TranslationRecord(rec.edges - {edge}, rec.model, rec.order, rec.c_world)

    monkeypatch.setattr(translate, "_translate", planted)
    rep = run_theorems(seed=1, count=6)
    assert rep["status"] == 1
    assert [k for k in harness.SECTIONS if not rep[k]["ok"]] == ["possibility"]
    assert rep["possibility"]["failures"] == ["gen0"]
    assert rep["possibility"]["uncovered"] == [{"label": "gen0", "edge": dropped[0]}]


def test_covering_records_add_no_uncovered_key():
    assert "uncovered" not in run_theorems(seed=1, count=6)["possibility"]


# -- defects planted in one translation record ---------------------------------


def _reversed_order(rec):
    return rec.model, frozenset((b, a) for a, b in rec.order)


def _dropped_strict_pair(rec):
    """The order without a strict pair that no third atom lies between, so
    that what is left stays transitive."""
    order = rec.order
    pair = next(
        (a, b)
        for a, b in sorted(order)
        if a != b and not any((a, c) in order and (c, b) in order for c in rec.model.domain if c not in (a, b))
    )
    return rec.model, order - {pair}


def _true_resource_atom(rec):
    m = rec.model
    atom = min(a for a, v in m.interp.items() if v == 0)
    return KripkeModel(m.worlds, m.access, m.domain, m.domains, {**m.interp, atom: 1}), rec.order


def _dropped_access_pair(rec):
    m = rec.model
    pair = min((w, u) for w, u in m.access if w != u)
    return KripkeModel(m.worlds, m.access - {pair}, m.domain, m.domains, m.interp), rec.order


def _false_converted_atom(rec):
    """The model with the target of the least conversion edge from a true
    atom onto another true atom, not the unit atom, made false."""
    m = rec.model
    true = {a for a, v in m.interp.items() if v == 1}
    atom = min(
        node_name(b) for a, b, _ in rec.edges
        if a != b and b[0] != rec.c_world and node_name(a) in true and node_name(b) in true
    )
    return KripkeModel(m.worlds, m.access, m.domain, m.domains, {**m.interp, atom: 0}), rec.order


def _dropped_implied_pair(rec):
    """The order without its least strict pair that transitivity implies,
    so that the starred model does not build."""
    order = rec.order
    pair = min(
        (a, b)
        for a, b in order
        if a != b and any((a, c) in order and (c, b) in order for c in rec.model.domain if c not in (a, b))
    )
    return rec.model, order - {pair}


def plant_in_one_record(monkeypatch, target, plant):
    translate_one = translate._translate

    def planted(q):
        rec = translate_one(q)
        if q is not target:
            return rec
        model, order = plant(rec)
        return translate.TranslationRecord(rec.edges, model, order, rec.c_world)

    monkeypatch.setattr(translate, "_translate", planted)
    monkeypatch.setattr(translate, "_records", type(translate._records)())


# each plant, the theory of build_family(1, 12) it is planted in, and every section it fails
PLANTED_RECORDS = [
    (_reversed_order, "gen0", ["functoriality"]),
    (_dropped_strict_pair, "gen0", ["functoriality"]),
    (_true_resource_atom, "gen0", ["functoriality", "iso_conditions", "image_conditions", "smc"]),
    (_dropped_access_pair, "gen0", ["functoriality", "iso_conditions"]),
    (_false_converted_atom, "gen3", ["functoriality", "image_conditions", "possibility", "monotonicity", "smc"]),
]


@pytest.mark.parametrize("plant, label, failing", PLANTED_RECORDS, ids=[p.__name__ for p, _, _ in PLANTED_RECORDS])
def test_a_defect_planted_in_one_record_fails_functoriality(plant, label, failing, monkeypatch):
    family = build_family(1, 12)
    plant_in_one_record(monkeypatch, dict(family)[label], plant)
    report = run_theorems(family=family, seed=1, include_corpus=False)
    assert report["status"] == 1
    assert [k for k in harness.SECTIONS if not report[k]["ok"]] == failing
    assert [e["label"] for e in report["functoriality"]["entries"] if not e["ok"]] == [label]
    violating = {v["label"] for v in report["monotonicity"]["violations"]}
    assert violating == ({label} if "monotonicity" in failing else set())


def test_mirrored_truth_fails_functoriality_where_the_drawn_renaming_moves_the_mirror(monkeypatch):
    """Each relabeled copy's planted model is compared with the source's
    renamed by the drawn renaming, so the defect shows wherever that
    renaming reorders a system's states and moves a true atom."""
    family = build_family(1, 20)  # built, and deduplicated, before the plant
    plant_mirrored_truth(monkeypatch)
    report = run_theorems(family=family, seed=1, include_corpus=False)
    assert report["status"] == 1
    assert [e["label"] for e in report["functoriality"]["entries"] if not e["ok"]] == ["gen10", "gen12", "gen14", "gen16"]


def test_a_record_whose_starred_model_does_not_build_fails_every_section(monkeypatch):
    family = build_family(1, 12)
    plant_in_one_record(monkeypatch, dict(family)["gen1"], _dropped_implied_pair)
    report = run_theorems(family=family, seed=1, include_corpus=False)
    assert report["status"] == 1
    error = {"label": "gen1", "error": "order is not transitive, witness ('A.s0', 'c.one', 'B.s1')"}
    assert [k for k in harness.SECTIONS if not report[k]["ok"]] == list(harness.SECTIONS)
    assert all(report[k]["errors"] == [error] for k in harness.SECTIONS)
    # the other theories are checked as before
    assert len(report["functoriality"]["entries"]) == len(family) - 1
    assert report["iso_conditions"]["pairs_checked"] == (len(family) - 1) ** 2
    assert all(e["ok"] for e in report["functoriality"]["entries"])


def test_a_translation_that_does_not_build_is_a_failing_entry_not_an_input_error(monkeypatch, tmp_path, capsys):
    # every record loses its least strict order pair that transitivity implies
    real = translate._translate

    def planted(q):
        rec = real(q)
        try:
            model, order = _dropped_implied_pair(rec)
        except ValueError:  # no such pair
            return rec
        return translate.TranslationRecord(rec.edges, model, order, rec.c_world)

    monkeypatch.setattr(translate, "_translate", planted)
    monkeypatch.setattr(translate, "_records", type(translate._records)())
    path = tmp_path / "chain.qrt.json"
    io.save_json(path, io.qrt_to_dict(chain_qrt()))
    assert main(["theorems", str(path), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    message = "order is not transitive, witness ('c.one', 'A.rho', 'B.sigma')"
    assert all(report[k]["errors"] == [{"label": str(path), "error": message}] for k in harness.SECTIONS)
    # the corpus pairs translate under the same plant, and fail as entries too
    errors = [e for e in report["starred_injectivity"]["entries"] if e["verdict"] == "error"]
    assert [e["pair"] for e in errors] == [f"xi:{name}" for name, _, _ in xi_sweep()]
    assert all(e["error"].startswith("order is not transitive") for e in errors)


def test_an_error_that_is_not_a_qrtmodal_error_propagates_from_a_record(monkeypatch):
    def planted(q):
        raise TypeError("a bug, not a verdict")

    monkeypatch.setattr(translate, "_translate", planted)
    monkeypatch.setattr(translate, "_records", type(translate._records)())
    with pytest.raises(TypeError, match="a bug"):
        run_theorems(family=[("chain", chain_qrt())], include_corpus=False)


def plant_in_label_copies(monkeypatch, error: Exception) -> None:
    """Make every translation of a LabeledTheory raise error; a Qrt
    translates as before."""
    real = translate._translate

    def planted(q):
        if isinstance(q, LabeledTheory):
            raise error
        return real(q)

    monkeypatch.setattr(translate, "_translate", planted)
    monkeypatch.setattr(translate, "_records", type(translate._records)())


def test_a_case_whose_copies_do_not_translate_fails_functoriality(monkeypatch, tmp_path, capsys):
    plant_in_label_copies(monkeypatch, StructuralError("planted: a label copy does not translate"))
    report = run_theorems(family=[("chain", chain_qrt())], include_corpus=False)
    assert report["functoriality"] == {
        "ok": False,
        "entries": [{"label": "chain", "ok": False, "error": "planted: a label copy does not translate"}],
    }
    assert [k for k in harness.SECTIONS if not report[k]["ok"]] == ["functoriality"]
    assert report["status"] == 1
    # the command reports it and exits 1, not 2
    path = tmp_path / "chain.qrt.json"
    io.save_json(path, io.qrt_to_dict(chain_qrt()))
    assert main(["theorems", str(path), "--json"]) == 1
    entries = json.loads(capsys.readouterr().out)["functoriality"]["entries"]
    assert entries == [{"label": str(path), "ok": False, "error": "planted: a label copy does not translate"}]


def test_an_error_that_is_not_a_qrtmodal_error_propagates_from_a_functoriality_case(monkeypatch):
    plant_in_label_copies(monkeypatch, TypeError("a bug, not a verdict"))
    with pytest.raises(TypeError, match="a bug"):
        run_theorems(family=[("chain", chain_qrt())], include_corpus=False)
    with pytest.raises(TypeError, match="a bug"):
        translate.verify_functoriality([(chain_qrt(), [({}, {})], [])])
