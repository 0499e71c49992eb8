"""The reproducibility harness: runs every theorem oracle over a seeded
family (plus the shipped twisted-pair corpus and any injected inputs) and
aggregates one consolidated, deterministic report.

Exit status contract, read off the sections named in SECTIONS: 1 if any
section's "ok" is false, else 3 if an isomorphism search hit its cap (the
iso-conditions or injectivity section counted an inconclusive entry),
else 0. 2 is reserved for input errors and raised by the CLI layer.
Functoriality runs no search: it checks each relabeling by transport.

The iso-conditions section counts every ordered pair of translated
theories in ``pairs_checked``, but calls ``iso_conditions`` and
``models_isomorphic`` only on a pair whose theories share a dims-free
``flow_key`` or whose models share a ``model_key``: on any other pair
both deciders are false without a search. Starred injectivity calls
``starred_isomorphic`` only on a pair whose starred models share a
``model_key``.
"""

from __future__ import annotations

import numpy as np

from .config import OBJECT_CAP
from .errors import QrtModalError, ResourceLimitError, StructuralError
from .formulas import conversion_possibility_report, is_resource_preserving
from .generate import (
    GeneratorConfig,
    generate_qrts,
    random_relabeling,
    random_renaming,
    random_sub_qrt,
)
from .kripke import KripkeModel, StarredModel, is_s4, model_key, models_isomorphic
from .qrt import Qrt, derive, node_name
from .smc import SmcCategory, check_object_cap, verify_smc_laws
from .translate import (
    image_conditions,
    iso_conditions,
    monotone_violations,
    to_model,
    verify_functoriality,
    verify_starred_injectivity,
)


# relabeled copies appended to a built family
_N_RELABELED = 3

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
    seed: int, count: int = 20, config: GeneratorConfig | None = None
) -> list[tuple[str, Qrt]]:
    """At most count theories: up to count - _N_RELABELED fresh generations
    deduplicated by translation isomorphism, then relabeled copies of the
    first min(_N_RELABELED, fresh) of them (so the sweep exercises true
    positives with non-trivial witnesses). A count of at most _N_RELABELED
    yields no theory; below 2 _N_RELABELED, fewer than count.

    The generations come in batches (``generate_qrts``), each of as many
    indices as the family still lacks theories, and no more than the
    want * 10 limit leaves: every index of a batch is one that drawing
    one index at a time would reach, so the family and the error raised
    are the same."""
    cfg = config or default_family_config(seed)
    rng = np.random.default_rng([seed, 999])
    base: list[tuple[str, Qrt]] = []
    kept: dict = {}  # model_key -> the kept models with that key; no other can be isomorphic
    idx = 0
    want = count - _N_RELABELED
    while len(base) < want and idx < want * 10:
        for q in generate_qrts(cfg, range(idx, idx + min(want - len(base), want * 10 - idx))):
            m = to_model(q).model
            bucket = kept.setdefault(model_key(m), [])
            if not any(models_isomorphic(m, prev)[0] for prev in bucket):
                base.append((f"gen{idx}", q))
                bucket.append(m)
            idx += 1
    copies = [(f"{label}_relabeled", random_relabeling(q, rng)) for label, q in base[:_N_RELABELED]]
    derive(q for _, q in copies)  # one batch, not each copy alone on its first read
    return base + copies


def _function_edges(q: Qrt) -> set:
    """(source atom, target atom, channel id) for each state pair of each
    function of q's table, under the function's representative channel."""
    return {
        (node_name((a, st)), node_name((b, img)), cid)
        for (a, b), fns in q.functions.items()
        for key, cid in fns.items()
        for st, img in key
    }


def _buckets(keys: list) -> list:
    """The ordered pairs (i, j) of positions whose keys are equal."""
    groups: dict = {}
    for i, k in enumerate(keys):
        groups.setdefault(k, []).append(i)
    return [(i, j) for g in groups.values() for i in g for j in g]


def _iso_sweep(translated: list) -> tuple[list, list]:
    """The iso-conditions section's mismatches and inconclusive entries
    over every ordered pair of the translated theories, in family order.
    Each side buckets its own operands by a key it caches: the theories
    by their dims-free ``flow_key``, the models by ``model_key``. Only a
    pair that shares a bucket on some side calls the two deciders. On any
    other pair both are false without a search, so the pair agrees and
    adds no entry: unequal model keys leave no model isomorphism, and
    unequal dims-free flow keys leave unequal the flow keys that
    ``iso_conditions`` compares under either dim rule, so (iii) is false
    before any search."""
    pairs = sorted(
        set(_buckets([q.labeled.flow_key(False) for _, q, _ in translated]))
        | set(_buckets([model_key(rec.model) for _, _, rec in translated]))
    )
    mismatches, inconclusive = [], []
    for i, j in pairs:
        (la, qa, ra), (lb, qb, rb) = translated[i], translated[j]
        try:
            cond = iso_conditions(qa.labeled, qb.labeled)
            conj = cond["i"] and cond["ii"] and cond["iii"]
            oracle = models_isomorphic(ra.model, rb.model)[0]
        except ResourceLimitError as exc:
            inconclusive.append({"pair": [la, lb], "reason": str(exc)})
            continue
        if conj != oracle:
            mismatches.append({"pair": [la, lb], "conditions": cond, "models_isomorphic": oracle})
    return mismatches, inconclusive


def run_theorems(
    family: list[tuple[str, Qrt]] | None = None,
    injected_models: list[tuple[str, KripkeModel | StarredModel]] | None = None,
    seed: int = 1,
    count: int = 20,
    include_corpus: bool = True,
    smc_cap: int = OBJECT_CAP,
) -> dict:
    """Run every oracle; returns the consolidated report with a 'status'
    field following the exit-code contract."""
    # input errors: reject them before any section runs
    check_object_cap(smc_cap)
    if seed < 0:
        raise StructuralError(f"the seed must be at least 0, got {seed}")
    if family is None:
        family = build_family(seed, count)
    if not family:  # build_family yields none for a count of at most _N_RELABELED
        raise StructuralError(f"the family is empty (count {count}): the theorems need a theory")
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

    # (label, theory, record) of each family theory that translates, in
    # family order, and the starred images, then the injected models as
    # negative controls; a theory whose record or starred model does not
    # build is left out of the sections and fails each of them (below)
    translated, subjects, build_errors = [], [], []
    for label, q in family:
        try:
            rec = to_model(q)
            subjects.append((label, rec.starred, {}))
            translated.append((label, q, rec))
        except QrtModalError as exc:
            build_errors.append({"label": label, "error": str(exc)})
    subjects += [(label, m, {"injected": True}) for label, m in injected_models or []]

    # S4 form of every translated model
    s4_failures = []
    for label, _, rec in translated:
        ok, witness = is_s4(rec.model)
        if not ok:
            s4_failures.append({"label": label, "witness": witness})
    report["s4"] = {"ok": not s4_failures, "failures": s4_failures}

    # functor laws: a renaming and a restriction, drawn for every theory in
    # family order before any is checked, so that the rebuilt theories
    # derive in one batch; no list here holds the copies past their check
    reports = verify_functoriality(
        (q, [random_renaming(q, rng)], [random_sub_qrt(q, rng)] if len(q.systems) > 1 else [])
        for _, q, _ in translated
    )
    # the error key only where a case has one, so that other reports keep their bytes
    funct_entries = [
        {"label": label, "ok": rep["ok"], **({"error": rep["error"]} if "error" in rep else {})}
        for (label, _, _), rep in zip(translated, reports)
    ]
    report["functoriality"] = {"ok": all(e["ok"] for e in funct_entries), "entries": funct_entries}

    # equivalence of the isomorphism conditions with the model oracle
    mismatches, iso_inconclusive = _iso_sweep(translated)
    report["iso_conditions"] = {
        "ok": not mismatches,
        "pairs_checked": len(translated) ** 2,
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

    # every conversion edge validates (rho -> <> sigma), and the instances
    # cover every edge the theory's function table induces
    possibility_failures = []
    uncovered = []
    n_instances = 0
    for label, q, rec in translated:
        rep = conversion_possibility_report(rec)
        n_instances += len(rep["instances"])
        covered = {tuple(inst["edge"]) for inst in rep["instances"]}
        missed = sorted(_function_edges(q) - covered)
        uncovered += ({"label": label, "edge": list(edge)} for edge in missed)
        if not rep["ok"] or missed:
            possibility_failures.append(label)
    report["possibility"] = {
        "ok": not possibility_failures,
        "instances": n_instances,
        "failures": possibility_failures,
    }
    # only when non-empty, so that reports of covering records keep their bytes
    if uncovered:
        report["possibility"]["uncovered"] = uncovered

    # truth is monotone along edges: free never maps to resource. A record
    # the library translates satisfies it by construction (an edge out of
    # a free or unit state lands on a free or unit state), so only a
    # defective record fails it
    violations = []
    destroying = []
    for label, _, rec in translated:
        violations += ({"label": label, "edge": list(edge)} for edge in monotone_violations(rec))
        preserving, witnesses = is_resource_preserving(rec)
        if not preserving:
            destroying.append({"label": label, "edges": witnesses})
    report["monotonicity"] = {"ok": not violations, "violations": violations}
    report["resource_preservation"] = {"destroying": destroying}

    # starred injectivity over family pairs (and the twisted-pair corpus)
    pairs = [(f"{la}|{lb}", qa, qb) for i, (la, qa, _) in enumerate(translated) for lb, qb, _ in translated[i:]]
    if include_corpus:
        from .corpus import xi_sweep

        pairs += ((f"xi:{name}", qa, qb) for name, qa, qb in xi_sweep())
    report["starred_injectivity"] = verify_starred_injectivity(pairs)

    # monoidal category laws on every starred model; a plain injected model has none
    smc_entries = []
    for label, m, mark in subjects:
        if not isinstance(m, StarredModel):
            continue
        entry = {"label": label, **mark}
        try:
            cat = SmcCategory(m, smc_cap)
            entry["laws_ok"] = verify_smc_laws(cat)["ok"]
        except QrtModalError as exc:  # fails the laws, for any subject
            entry.update(laws_ok=False, error=str(exc))
        else:
            if not mark:  # the singleton free objects are the true atoms but the unit
                singles = {a for x in cat.free_objects() if len(x) == 1 for a in x}
                true = {a for a, v in m.model.interp.items() if v == 1}
                entry["free_atoms_match"] = singles == true - {cat.unit_atom}
        smc_entries.append(entry)
    report["smc"] = {
        "ok": all(e["laws_ok"] and e.get("free_atoms_match", True) for e in smc_entries),
        "entries": smc_entries,
    }

    # only when non-empty, so that reports of theories that translate keep their bytes
    for key in SECTIONS if build_errors else ():
        report[key].update(ok=False, errors=build_errors)

    report["inconclusive"] = len(iso_inconclusive) + report["starred_injectivity"]["inconclusive"]
    all_ok = all(report[k]["ok"] for k in SECTIONS)
    report["status"] = (3 if report["inconclusive"] else 0) if all_ok else 1
    return report
