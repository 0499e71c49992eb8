"""Harness tests: family assembly, consolidated report, status codes."""

import pytest

from qrtmodal import corpus, harness
from qrtmodal.corpus import broken_monotone_model, broken_smc_model
from qrtmodal.harness import build_family, run_theorems
from qrtmodal.kripke import StarredModel, models_isomorphic
from qrtmodal.translate import to_model


def test_family_members_are_pairwise_fresh():
    fam = build_family(seed=4, count=10, n_relabeled=2)
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


def test_tiny_search_cap_is_inconclusive_not_falsified():
    rep = run_theorems(seed=5, count=4, include_corpus=False, iso_cap=1)
    assert rep["inconclusive"] > 0
    assert rep["status"] == 3


def test_report_bytes_pinned():
    # the same digest as "6:1" in bench/theorems_sha256.json
    import hashlib

    from qrtmodal import io

    text = io.dumps(run_theorems(seed=1, count=6))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "46e47d01c4e9c78a"


def test_inconclusive_iso_conditions_pairs_named():
    rep = run_theorems(seed=1, count=4, iso_cap=3)
    named = rep["iso_conditions"]["inconclusive"]
    assert len(named) == 4
    assert all(len(e["pair"]) == 2 and "exceeded 3" in e["reason"] for e in named)
    assert rep["status"] == 3


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
    real = harness.build_smc

    def failing(m, cap):
        if m is injected:
            raise TypeError("a bug, not a verdict")
        return real(m, cap)

    monkeypatch.setattr(harness, "build_smc", failing)
    with pytest.raises(TypeError, match="a bug"):
        run_theorems(
            family=[("chain", corpus.chain_qrt())],
            injected_models=[("smc", injected)],
            include_corpus=False,
        )
