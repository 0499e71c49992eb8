"""The reproducibility harness: runs every theorem oracle over a seeded
family (plus the shipped twisted-pair corpus and any injected inputs) and
aggregates one consolidated, deterministic report.

Exit status contract, read off the sections named in SECTIONS: 1 if any
section's "ok" is false, else 3 if an isomorphism search hit its cap (the
iso-conditions or injectivity section counted an inconclusive entry),
else 0. 2 is reserved for input errors and raised by the CLI layer.
"""

from __future__ import annotations

import numpy as np

from .config import MAX_ISO_NODES, OBJECT_CAP
from .errors import QrtModalError, ResourceLimitError, StructuralError
from .formulas import conversion_possibility_report, is_resource_preserving
from .generate import (
    GeneratorConfig,
    generate_qrt,
    random_relabeling,
    random_sub_qrt,
)
from .kripke import KripkeModel, StarredModel, is_s4, models_isomorphic
from .qrt import Qrt, node_name
from .smc import build_smc, check_object_cap, free_objects, verify_smc_laws
from .translate import (
    image_conditions,
    iso_conditions,
    to_model,
    to_starred_model,
    verify_functoriality,
    verify_starred_injectivity,
)


# the report sections that carry a verdict, in the order `theorems` prints them
SECTIONS = (
    "s4",
    "functoriality",
    "iso_conditions",
    "image_conditions",
    "possibility",
    "monotonicity",
    "starred_injectivity",
    "smc",
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
    for label, q in family:  # the unit world every check below relies on
        if q.trivial_node is None:
            raise StructuralError(f"{label}: the theorems need a trivial system, and it has none")
    rng = np.random.default_rng([seed, 1234])
    report: dict = {
        "seed": seed,
        "family": [
            {
                "label": label,
                "systems": len(q.systems),
                "states": len(q.nodes),
                "functions": sum(map(len, q.functions.values())),
            }
            for label, q in family
        ],
    }

    records = {label: to_starred_model(q) for label, q in family}
    # the family's starred images, then the injected models as negative controls
    subjects = [(label, records[label].starred, {}) for label, _ in family] + [
        (label, m, {"injected": True}) for label, m in injected_models or []
    ]

    # S4 form of every translated model
    s4_failures = []
    for label, _ in family:
        ok, witness = is_s4(records[label].model)
        if not ok:
            s4_failures.append({"label": label, "witness": witness})
    report["s4"] = {"ok": not s4_failures, "failures": s4_failures}

    # functor laws: relabelings and restrictions
    funct_entries = []
    for label, q in family:
        rel = [random_relabeling(q, rng)]
        subs = [random_sub_qrt(q, rng)] if len(q.systems) > 1 else []
        funct_entries.append({"label": label, "ok": verify_functoriality(q, rel, subs)["ok"]})
    report["functoriality"] = {"ok": all(e["ok"] for e in funct_entries), "entries": funct_entries}

    # equivalence of the isomorphism conditions with the model oracle
    mismatches = []
    iso_inconclusive = []
    for la, qa in family:
        for lb, qb in family:
            try:
                cond = iso_conditions(qa, qb, iso_cap)
                conj = cond["i"] and cond["ii"] and cond["iii"]
                oracle, _ = models_isomorphic(records[la].model, records[lb].model, iso_cap)
            except ResourceLimitError as exc:
                iso_inconclusive.append({"pair": [la, lb], "reason": str(exc)})
                continue
            if conj != oracle:
                mismatches.append(
                    {"pair": [la, lb], "conditions": cond, "models_isomorphic": oracle}
                )
    report["iso_conditions"] = {
        "ok": not mismatches,
        "pairs_checked": len(family) ** 2,
        "mismatches": mismatches,
    }
    # only when non-empty, so that reports without cap hits keep their bytes
    if iso_inconclusive:
        report["iso_conditions"]["inconclusive"] = iso_inconclusive

    # conditions every translation image must satisfy
    image_entries = []
    for label, m, mark in subjects:
        cond = image_conditions(m.model if isinstance(m, StarredModel) else m)
        image_entries.append({"label": label, "i": cond["i"], "ii": cond["ii"], **mark})
    report["image_conditions"] = {
        "ok": all(e["i"] and e["ii"] for e in image_entries),
        "entries": image_entries,
    }

    # every conversion edge validates (rho -> <> sigma)
    possibility_failures = []
    n_instances = 0
    for label, _ in family:
        rep = conversion_possibility_report(records[label])
        n_instances += len(rep["instances"])
        if not rep["ok"]:
            possibility_failures.append(label)
    report["possibility"] = {
        "ok": not possibility_failures,
        "instances": n_instances,
        "failures": possibility_failures,
    }

    # truth is monotone along edges: free never maps to resource
    monotone_violations = []
    destroying = []
    for label, _ in family:
        rec = records[label]
        truth = rec.model.interp
        for (src, dst, cid) in sorted(rec.edges):
            if truth[node_name(src)] == 1 and truth[node_name(dst)] == 0:
                monotone_violations.append({"label": label, "edge": [src, dst, cid]})
        preserving, witnesses = is_resource_preserving(rec)
        if not preserving:
            destroying.append({"label": label, "edges": witnesses})
    report["monotonicity"] = {"ok": not monotone_violations, "violations": monotone_violations}
    report["resource_preservation"] = {"destroying": destroying}

    # starred injectivity over family pairs (and the twisted-pair corpus)
    pairs = []
    labels = []
    for i, (la, qa) in enumerate(family):
        for lb, qb in family[i:]:
            pairs.append((qa, qb))
            labels.append(f"{la}|{lb}")
    if include_corpus:
        from .corpus import xi_sweep

        for name, qa, qb in xi_sweep():
            pairs.append((qa, qb))
            labels.append(f"xi:{name}")
    report["starred_injectivity"] = verify_starred_injectivity(pairs, iso_cap, labels)

    # monoidal category laws on every starred model; a plain injected model has none
    smc_entries = []
    for label, m, mark in subjects:
        if not isinstance(m, StarredModel):
            continue
        entry = {"label": label, **mark}
        try:
            cat = build_smc(m, smc_cap)
            entry["laws_ok"] = verify_smc_laws(cat)["ok"]
        except QrtModalError as exc:  # flags an injected model; a family theory is an input error
            if not mark:
                raise
            entry.update(laws_ok=False, error=str(exc))
        else:
            if not mark:  # the singleton free objects are the true atoms but the unit
                singles = {a for x in free_objects(cat) if len(x) == 1 for a in x}
                true = {a for a, v in m.model.interp.items() if v == 1}
                entry["free_atoms_match"] = singles == true - {cat.unit_atom}
        smc_entries.append(entry)
    report["smc"] = {
        "ok": all(e["laws_ok"] and e.get("free_atoms_match", True) for e in smc_entries),
        "entries": smc_entries,
    }

    report["inconclusive"] = len(iso_inconclusive) + report["starred_injectivity"]["inconclusive"]
    all_ok = all(report[k]["ok"] for k in SECTIONS)
    report["status"] = (3 if report["inconclusive"] else 0) if all_ok else 1
    return report
