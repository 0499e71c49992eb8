"""Corpus coherence: every shipped example validates (or is broken in
exactly the advertised way) and the twisted-pair family shows the
intended verdicts."""

from qrtmodal import corpus
from qrtmodal.io import qrt_to_dict
from qrtmodal.kripke import models_isomorphic, starred_isomorphic
from qrtmodal.qrt import Qrt, qrt_isomorphic
from qrtmodal.translate import iso_conditions, to_model, to_starred_model

from helpers import is_composition_complete, reference_xi_theory


def test_positive_examples_validate():
    for name, obj in corpus.corpus_entries().items():
        if not isinstance(obj, Qrt) or name.startswith("broken"):
            continue
        assert obj.validate().ok, name
        assert is_composition_complete(obj), name


def test_broken_tp_is_broken_as_advertised():
    report = corpus.broken_tp_qrt().validate()
    assert not report.ok
    assert [i.code for i in report.issues] == ["non-cptp"]


def test_chain_models_the_two_step_story():
    q = corpus.chain_qrt()
    rec = to_starred_model(q)
    assert rec.model.interp == {"c.one": 1, "A.rho": 1, "B.sigma": 1}
    assert ("c", "B") in rec.model.access  # the synthesized composite


def test_xi_identity_member_collapses_to_base():
    x, y = corpus.xi_pair(twisted=False)
    # with the identity twist the two theories induce the same functions
    assert {k: set(v) for k, v in x.functions.items()} == {
        k: set(v) for k, v in y.functions.items()
    }


def test_xi_flip_pair_shows_noninjectivity():
    x, y = corpus.xi_pair()
    # translations isomorphic although the theories' channel sets differ
    ok, _ = models_isomorphic(to_model(x).model, to_model(y).model)
    assert ok
    cond = iso_conditions(x, y)
    assert cond["iii"]
    # the starred level also identifies them, consistently with the
    # labeled isomorphism found by relabeling the flipped states
    s_ok, _ = starred_isomorphic(
        to_starred_model(x).starred, to_starred_model(y).starred
    )
    q_ok, _ = qrt_isomorphic(x, y)
    assert s_ok and q_ok


def test_xi_collapse_pair_verdicts():
    x, y = corpus.xi_collapse_pair()
    ok, _ = models_isomorphic(to_model(x).model, to_model(y).model)
    assert ok
    s_ok, _ = starred_isomorphic(
        to_starred_model(x).starred, to_starred_model(y).starred
    )
    q_ok, _ = qrt_isomorphic(x, y)
    assert s_ok == q_ok  # consistency is the claim; both verdicts computed


def test_the_batched_twisted_theories_are_their_lone_builds():
    sweep = corpus.xi_sweep()
    built = [
        (corpus.xi_pair(), ((0, False), (1, False))),
        (corpus.xi_pair(twisted=False), ((0, False), (0, False))),
        (corpus.xi_collapse_pair(), ((0, True), (1, True))),
        *zip((pair for _, *pair in sweep), (((0, False), (0, False)), ((0, False), (1, False)), ((0, True), (1, True)))),
    ]
    for pair, variants in built:
        for q, variant in zip(pair, variants, strict=True):
            lone = reference_xi_theory(*variant)
            assert qrt_to_dict(q) == qrt_to_dict(lone), variant
            assert q.labeled == lone.labeled, variant
    # five theories: the identity pair holds two separately built bases,
    # and the flip pair reuses the first
    (_, base, copy), (_, flip_base, _), _ = sweep
    assert [name for name, *_ in sweep] == ["identity", "flip", "flip-collapse"]
    assert base is not copy and flip_base is base
    assert len({id(q) for _, *pair in sweep for q in pair}) == 5


def test_injectivity_gap_pair_is_the_documented_falsification():
    x, y = corpus.injectivity_gap_pair()
    s_ok, _ = starred_isomorphic(
        to_starred_model(x).starred, to_starred_model(y).starred
    )
    q_ok, _ = qrt_isomorphic(x, y)
    assert s_ok and not q_ok


def test_iso_gap_pair_is_the_documented_mismatch():
    x, y = corpus.iso_gap_pair()
    cond = iso_conditions(x, y)
    ok, _ = models_isomorphic(to_model(x).model, to_model(y).model)
    assert ok and not (cond["i"] and cond["ii"] and cond["iii"])


def test_write_corpus_is_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    first = corpus.write_corpus(d1)
    second = corpus.write_corpus(d2)
    assert len(first) == len(second) == len(corpus.corpus_entries())
    for p1, p2 in zip(first, second):
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()
