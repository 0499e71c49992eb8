"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with its measured numbers (run with -s to see them).

All checks are property- and oracle-based at desk scale; tolerances are
pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

from qrtmodal import corpus
from qrtmodal.formulas import (
    Box,
    Diamond,
    Implies,
    Not,
    conversion_possibility_report,
    convexity_report,
    evaluate,
    is_resource_preserving,
    is_valid,
    parse,
    print_formula,
)
from qrtmodal.generate import (
    GeneratorConfig,
    generate_qrt,
    random_formula,
    random_relabeling,
    random_sub_qrt,
)
from qrtmodal.harness import build_family
from qrtmodal.kripke import is_s4, models_isomorphic
from qrtmodal.linalg import (
    KrausChannel,
    choi_matrix,
    identity_channel,
    is_cptp,
    random_cptp_channel,
)
from qrtmodal.qrt import node_name
from qrtmodal.smc import build_smc, free_objects, verify_smc_laws
from qrtmodal.translate import (
    image_conditions,
    iso_conditions,
    to_model,
    to_starred_model,
    verify_functoriality,
    verify_starred_injectivity,
)

from helpers import P_SAMPLES, depolarizing_channel, random_model


@pytest.fixture(scope="module")
def family20():
    """The 20-theory harness family: |W| <= 4, |D| <= 8, deduplicated by
    translation isomorphism plus three relabeled members."""
    fam = build_family(seed=1, count=20)
    assert len(fam) == 20
    for _, q in fam:
        assert len(q.systems) <= 4
        assert len(q.nodes) <= 8
    return fam


def _report(name: str, detail: str):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_s4_guarantee_across_200_generated_theories():
    start = time.monotonic()
    n = 0
    for k in range(200):
        cfg = GeneratorConfig(
            seed=1000 + k % 40,
            n_systems=1 + k % 4,
            dims=(1, 2, 3),
            states_per_system=1 + (k // 4) % 4,
            channel_density=0.2 + 0.15 * (k % 5),
        )
        rec = to_model(generate_qrt(cfg, index=k))
        ok, witness = is_s4(rec.model)
        assert ok, (k, witness)
        n += 1
    elapsed = time.monotonic() - start
    assert n == 200
    assert elapsed < 30.0
    _report("s4-guarantee", f"200 translated models S4 in {elapsed:.1f}s")


def test_functoriality_relabelings_and_restrictions():
    rng = np.random.default_rng(2024)
    passed = 0
    for k in range(50):
        cfg = GeneratorConfig(
            seed=2000 + k,
            n_systems=2 + k % 3,
            dims=(1, 2),
            states_per_system=1 + k % 3,
            channel_density=0.5,
        )
        q = generate_qrt(cfg)
        rels = [random_relabeling(q, rng) for _ in range(3)]
        subs = [random_sub_qrt(q, rng) for _ in range(2)] if len(q.systems) > 1 else []
        (rep,) = verify_functoriality([(q, rels, subs)])
        assert rep["ok"], (k, rep)
        passed += 1
    assert passed == 50
    _report("functoriality", "50 theories x (3 relabelings + 2 restrictions), 100%")


def test_iso_condition_equivalence_on_family(family20):
    mismatches = []
    checked = 0
    recs = {label: to_model(q) for label, q in family20}
    for la, qa in family20:
        for lb, qb in family20:
            cond = iso_conditions(qa, qb)
            conj = cond["i"] and cond["ii"] and cond["iii"]
            oracle, _ = models_isomorphic(recs[la].model, recs[lb].model)
            if conj != oracle:
                mismatches.append((la, lb, cond, oracle))
            checked += 1
    assert not mismatches, mismatches
    _report("iso-condition-equivalence", f"{checked} ordered pairs, zero mismatches")


def test_image_conditions_necessity_and_negatives(family20):
    for label, q in family20:
        cond = image_conditions(to_model(q).model)
        assert cond["i"] and cond["ii"], (label, cond)
    broken_i = image_conditions(corpus.broken_monotone_model())
    broken_ii = image_conditions(corpus.broken_no_unit_model())
    assert not broken_i["i"]
    assert not broken_ii["ii"]
    _report(
        "image-conditions",
        f"{len(family20)} images satisfy (i)+(ii); both negatives flagged",
    )


def test_edge_possibility_validity(family20):
    instances = 0
    for label, q in family20:
        rep = conversion_possibility_report(to_model(q))
        assert rep["ok"], label
        instances += len(rep["instances"])
    assert instances > 0
    _report("edge-possibility", f"{instances} edge formulas all valid")


def test_resource_monotonicity_and_destroying_negative(family20):
    edges = 0
    for label, q in family20:
        rec = to_model(q)
        for (src, dst, cid) in q.edges:
            edges += 1
            if rec.model.interp[node_name(src)] == 1:
                assert rec.model.interp[node_name(dst)] == 1, (label, src, dst)
    ok, witnesses = is_resource_preserving(to_model(corpus.resource_destroying_qrt()))
    assert not ok and witnesses
    _report(
        "resource-monotonicity",
        f"{edges} edges keep truth monotone; destroying negative detected",
    )


def test_starred_injectivity_consistency(family20):
    items = list(family20)
    pairs = [(f"{la}|{lb}", qa, qb) for i, (la, qa) in enumerate(items) for lb, qb in items[i:]]
    pairs += ((f"xi:{name}", qa, qb) for name, qa, qb in corpus.xi_sweep())
    rep = verify_starred_injectivity(pairs)
    assert rep["falsifications"] == 0, rep
    assert rep["inconclusive"] == 0
    _report(
        "starred-injectivity",
        f"{len(pairs)} pairs, zero falsifications, zero inconclusive",
    )


def test_smc_laws_and_free_object_correspondence(family20):
    images = 0
    for label, q in family20:
        rec = to_starred_model(q)
        cat = build_smc(rec.starred, object_cap=5)
        laws = verify_smc_laws(cat)
        assert laws["ok"], (label, laws)
        singles = {next(iter(s)) for s in free_objects(cat) if len(s) == 1}
        expected = {
            a for a, v in rec.model.interp.items() if v == 1 and a != cat.unit_atom
        }
        assert singles == expected, label
        images += 1
    _report("smc-laws", f"{images} starred images, all laws + free atoms exact")


def test_cptp_numerics():
    ok_dep, _ = is_cptp(depolarizing_channel())
    ok_id, _ = is_cptp(identity_channel(2))
    assert ok_dep and ok_id
    bad, why = is_cptp(KrausChannel([np.diag([1.0, 1.1])]))
    assert not bad and "trace" in why
    rng = np.random.default_rng(7)
    floor = 0.0
    for _ in range(100):
        din = int(rng.integers(2, 5))
        dout = int(rng.integers(2, 5))
        c = random_cptp_channel(rng, din, dout, env_dim=int(rng.integers(1, 4)))
        j = choi_matrix(c)
        eigs = np.linalg.eigvalsh((j + j.conj().T) / 2)
        floor = min(floor, float(eigs.min()))
        assert eigs.min() >= -1e-9
    _report("cptp-numerics", f"100 random channels, Choi floor {floor:.2e} >= -1e-9")


def test_logic_kernel():
    rng = np.random.default_rng(99)
    k_checked = nec_checked = dual_checked = 0
    for _ in range(100):
        m = random_model(rng, 4, 5)
        atoms = sorted(m.domain)
        for _ in range(100):
            phi = random_formula(rng, atoms, 3)
            psi = random_formula(rng, atoms, 3)
            k = Implies(Box(Implies(phi, psi)), Implies(Box(phi), Box(psi)))
            ok, witness = is_valid(m, k, warn_domains=False)
            assert ok, witness
            k_checked += 1
        phi = random_formula(rng, atoms, 4)
        ok, _ = is_valid(m, phi, warn_domains=False)
        if ok:
            boxed, _ = is_valid(m, Box(phi), warn_domains=False)
            assert boxed
            nec_checked += 1
        for w in sorted(m.worlds):
            d = evaluate(m, Diamond(phi), w, warn_domains=False)
            b = evaluate(m, Box(Not(phi)), w, warn_domains=False)
            assert d == 1 - b
            dual_checked += 1
    failures = 0
    rng2 = np.random.default_rng(100)
    for _ in range(1000):
        f = random_formula(rng2, ["p", "q", "A.rho", "B.sigma"], 8)
        if parse(print_formula(f)) != f:
            failures += 1
    assert failures == 0
    _report(
        "logic-kernel",
        f"{k_checked} K instances, {nec_checked} necessitations, "
        f"{dual_checked} duality points, 1000 round-trips, zero failures",
    )


def test_convexity_schema():
    q = corpus.convex_closed_qrt()
    rec = to_model(q)
    reports = convexity_report(q, rec, P_SAMPLES)
    assert [r["p"] for r in reports] == list(P_SAMPLES)
    for r in reports:
        assert r["ok"] and not r["fails"], r
        assert not r["indeterminate"]
    # endpoints never report closure-indeterminate, on any shipped input
    swept = 0
    for name, obj in corpus.corpus_entries().items():
        from qrtmodal.qrt import Qrt

        if not isinstance(obj, Qrt) or name.startswith("broken"):
            continue
        r0, r1 = convexity_report(obj, to_model(obj), (0.0, 1.0))
        assert not r0["indeterminate"] and not r1["indeterminate"], name
        swept += 1
    _report(
        "convexity",
        f"convex-closed example holds at all {len(P_SAMPLES)} weights; "
        f"endpoints determinate on {swept} inputs",
    )
