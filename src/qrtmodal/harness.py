"""The reproducibility harness: runs every theorem oracle over a seeded
family (plus the shipped twisted-pair corpus and any injected inputs) and
aggregates one consolidated, deterministic report.

Exit status contract: 0 all checks pass, 1 some check falsified,
3 inconclusive entries only (a search cap was hit), 2 is reserved for
input errors and raised by the CLI layer.
"""

from __future__ import annotations

import numpy as np

from .config import MAX_ISO_NODES, OBJECT_CAP
from .errors import QrtModalError, ResourceLimitError
from .formulas import conversion_possibility_report, is_resource_preserving
from .generate import (
    GeneratorConfig,
    generate_qrt,
    random_relabeling,
    random_sub_qrt,
)
from .kripke import KripkeModel, StarredModel, is_s4, models_isomorphic
from .qrt import Qrt
from .smc import build_smc, check_object_cap, free_objects, verify_smc_laws
from .translate import (
    image_conditions,
    iso_conditions,
    to_model,
    to_starred_model,
    verify_functoriality,
    verify_starred_injectivity,
)


def default_family_config(seed: int) -> GeneratorConfig:
    """Family sized so translated models stay within |W| <= 4, |D| <= 8;
    non-trivial systems share one dimension so that labeled-level checks
    are not confounded by dimension relabeling."""
    return GeneratorConfig(
        seed=seed,
        n_systems=3,
        dims=(1, 2),
        states_per_system=3,
        channel_density=0.5,
        ensure_trivial=True,
    )


def build_family(
    seed: int, count: int = 20, n_relabeled: int = 3, config: GeneratorConfig | None = None
) -> list[tuple[str, Qrt]]:
    """count theories: fresh generations deduplicated by translation
    isomorphism, then relabeled copies of the first few (so the sweep
    exercises true positives with non-trivial witnesses)."""
    cfg = config or default_family_config(seed)
    rng = np.random.default_rng([seed, 999])
    base: list[tuple[str, Qrt]] = []
    models = []
    idx = 0
    want = count - n_relabeled
    while len(base) < want and idx < want * 10:
        q = generate_qrt(cfg, index=idx)
        m = to_model(q).model
        if not any(models_isomorphic(m, prev)[0] for prev in models):
            base.append((f"gen{idx}", q))
            models.append(m)
        idx += 1
    out = list(base)
    for k in range(min(n_relabeled, len(base))):
        out.append((f"{base[k][0]}_relabeled", random_relabeling(base[k][1], rng)))
    return out


def run_theorems(
    family: list[tuple[str, Qrt]] | None = None,
    injected_models: list[tuple[str, KripkeModel | StarredModel]] | None = None,
    seed: int = 1,
    count: int = 20,
    include_corpus: bool = True,
    smc_cap: int = OBJECT_CAP,
    iso_cap: int = MAX_ISO_NODES,
) -> dict:
    """Run every oracle; returns the consolidated report with a 'status'
    field following the exit-code contract."""
    check_object_cap(smc_cap)  # an input error: reject it before any section runs
    if family is None:
        family = build_family(seed, count)
    injected_models = injected_models or []
    rng = np.random.default_rng([seed, 1234])
    report: dict = {
        "seed": seed,
        "family": [
            {
                "label": label,
                "systems": len(q.systems),
                "states": len(q.nodes),
                "functions": q.function_count(),
            }
            for label, q in family
        ],
    }
    falsified = False
    inconclusive = 0

    records = {label: to_starred_model(q) for label, q in family}

    # S4 form of every translated model
    s4_failures = []
    for label, q in family:
        ok, witness = is_s4(records[label].model)
        if not ok:
            s4_failures.append({"label": label, "witness": witness})
    report["s4"] = {"ok": not s4_failures, "failures": s4_failures}
    falsified |= bool(s4_failures)

    # functor laws: relabelings and restrictions
    funct_entries = []
    for label, q in family:
        rel = [random_relabeling(q, rng)]
        subs = [random_sub_qrt(q, rng)] if len(q.systems) > 1 else []
        r = verify_functoriality(q, rel, subs)
        funct_entries.append({"label": label, "ok": r["ok"]})
        falsified |= not r["ok"]
    report["functoriality"] = {
        "ok": all(e["ok"] for e in funct_entries),
        "entries": funct_entries,
    }

    # equivalence of the isomorphism conditions with the model oracle
    mismatches = []
    iso_inconclusive = []
    pairs_checked = 0
    for la, qa in family:
        for lb, qb in family:
            pairs_checked += 1
            try:
                cond = iso_conditions(qa, qb, iso_cap)
                conj = cond["i"] and cond["ii"] and cond["iii"]
                oracle, _ = models_isomorphic(
                    records[la].model, records[lb].model, iso_cap
                )
            except ResourceLimitError as exc:
                iso_inconclusive.append({"pair": [la, lb], "reason": str(exc)})
                continue
            if conj != oracle:
                mismatches.append(
                    {"pair": [la, lb], "conditions": cond, "models_isomorphic": oracle}
                )
    report["iso_conditions"] = {
        "ok": not mismatches,
        "pairs_checked": pairs_checked,
        "mismatches": mismatches,
    }
    # only when non-empty, so that reports without cap hits keep their bytes
    if iso_inconclusive:
        report["iso_conditions"]["inconclusive"] = iso_inconclusive
    falsified |= bool(mismatches)
    inconclusive += len(iso_inconclusive)

    # conditions every translation image must satisfy, plus injected models
    image_entries = []
    for label, q in family:
        cond = image_conditions(records[label].model)
        entry_ok = cond["i"] and cond["ii"]
        image_entries.append({"label": label, "i": cond["i"], "ii": cond["ii"]})
        falsified |= not entry_ok
    for label, m in injected_models:
        base = m.model if isinstance(m, StarredModel) else m
        cond = image_conditions(base)
        entry_ok = cond["i"] and cond["ii"]
        image_entries.append(
            {"label": label, "i": cond["i"], "ii": cond["ii"], "injected": True}
        )
        falsified |= not entry_ok
    report["image_conditions"] = {
        "ok": all(e["i"] and e["ii"] for e in image_entries),
        "entries": image_entries,
    }

    # every conversion edge validates (rho -> <> sigma)
    possibility_failures = []
    n_instances = 0
    for label, q in family:
        rep = conversion_possibility_report(records[label])
        n_instances += len(rep["instances"])
        if not rep["ok"]:
            possibility_failures.append(label)
        falsified |= not rep["ok"]
    report["possibility"] = {
        "ok": not possibility_failures,
        "instances": n_instances,
        "failures": possibility_failures,
    }

    # truth is monotone along edges: free never maps to resource
    monotone_violations = []
    destroying = []
    for label, q in family:
        rec = records[label]
        for (src, dst, cid) in sorted(q.state_graph.edges):
            if (
                rec.model.interp[rec.atom_of[src]] == 1
                and rec.model.interp[rec.atom_of[dst]] == 0
            ):
                monotone_violations.append({"label": label, "edge": [src, dst, cid]})
        preserving, witnesses = is_resource_preserving(rec)
        if not preserving:
            destroying.append({"label": label, "edges": witnesses})
    report["monotonicity"] = {
        "ok": not monotone_violations,
        "violations": monotone_violations,
    }
    report["resource_preservation"] = {"destroying": destroying}
    falsified |= bool(monotone_violations)

    # starred injectivity over family pairs (and the twisted-pair corpus)
    pairs = []
    labels = []
    items = list(family)
    for i, (la, qa) in enumerate(items):
        for lb, qb in items[i:]:
            pairs.append((qa, qb))
            labels.append(f"{la}|{lb}")
    if include_corpus:
        from .corpus import xi_sweep

        for name, qa, qb in xi_sweep():
            pairs.append((qa, qb))
            labels.append(f"xi:{name}")
    inj = verify_starred_injectivity(pairs, iso_cap, labels)
    report["starred_injectivity"] = inj
    falsified |= inj["falsifications"] > 0
    inconclusive += inj["inconclusive"]

    # monoidal category laws on every starred image, plus injected starred models
    smc_entries = []
    for label, q in family:
        cat = build_smc(records[label].starred, smc_cap)
        laws = verify_smc_laws(cat)
        frees = {frozenset(x) for x in free_objects(cat) if len(x) == 1}
        expected = {
            frozenset({atom})
            for atom, v in records[label].model.interp.items()
            if v == 1 and atom != cat.unit_atom
        }
        atoms_match = frees == expected
        smc_entries.append(
            {"label": label, "laws_ok": laws["ok"], "free_atoms_match": atoms_match}
        )
        falsified |= not (laws["ok"] and atoms_match)
    for label, m in injected_models:
        if isinstance(m, StarredModel):
            try:
                laws = verify_smc_laws(build_smc(m, smc_cap))
                smc_entries.append(
                    {"label": label, "laws_ok": laws["ok"], "injected": True}
                )
                falsified |= not laws["ok"]
            except QrtModalError as exc:  # a model that cannot host the category is flagged
                smc_entries.append(
                    {"label": label, "laws_ok": False, "error": str(exc), "injected": True}
                )
                falsified = True
    report["smc"] = {
        "ok": all(e["laws_ok"] and e.get("free_atoms_match", True) for e in smc_entries),
        "entries": smc_entries,
    }

    report["inconclusive"] = inconclusive
    report["status"] = 1 if falsified else (3 if inconclusive else 0)
    return report
