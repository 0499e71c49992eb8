"""The four benchmark workloads.

Each workload turns a seed into rounds of op specs made only of plain data
(dicts, lists, strings, formula text), runs one op from a spec by building
fresh program objects, and checks the op's output against an oracle that
does not share code with the path it checks.

A round is the unit of the workload's input mix, and the rounds that
``build`` returns are one pass over the seed's inputs: a run measures whole
passes, so every run sees the same inputs in the same proportions however
fast the box is. The first ``trace_rounds`` rounds are what the traced run
replays.

Where op cost hangs on which theories a seed draws (theorems, ingest, and
the theory decisions of iso), the theories are the same for every run and
the run's seed relabels them or orders them. With theories drawn from the
run's seed, the median op spread 0.18 (ingest) and 0.19 (iso) over ten
seeds, much of it from which theories were drawn.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np

from qrtmodal import formulas, generate, harness, io, kripke, qrt, smc, translate
from qrtmodal.errors import GenerationError

import oracles


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


class Check:
    """Outcome of checking one op: ok, the oracles used, and a digest of
    the output that the traced and untraced runs must agree on."""

    __slots__ = ("ok", "oracles", "digest", "why")

    def __init__(self, digest: str):
        self.ok = True
        self.oracles: list[str] = []
        self.digest = digest
        self.why = ""

    def expect(self, oracle: str, cond: bool, why: str = "") -> None:
        self.oracles.append(oracle)
        if not cond and self.ok:
            self.ok = False
            self.why = f"{oracle}: {why}" if why else oracle


# -- theorems --------------------------------------------------------------------


class Theorems:
    """One op is ``qrtmodal theorems --count 40 --json``: run_theorems with
    no prebuilt family, then the canonical JSON dump. The harness seeds are
    the first ``pass_ops`` of a pool whose report digests are pinned, in an
    order the run's seed shuffles. Every run makes the same reports: one
    costs 2.0 to 3.4 s at the reference speed depending on its harness
    seed, and when each run drew its own five from the pool, the median op
    spread 0.16 over five seeds."""

    name = "theorems"
    kernels = ("python", "numpy")  # speed calibration, see speed.py
    trace_rounds = 1
    pass_ops = 6

    def __init__(self, smoke: bool):
        self.count = 6 if smoke else 40
        self.pinned = oracles.pinned_digests()
        self.pool = sorted(
            int(k.split(":")[1]) for k in self.pinned if int(k.split(":")[0]) == self.count
        )[:self.pass_ops]

    def build(self, seed: int) -> list:
        order = list(self.pool)
        random.Random(seed).shuffle(order)
        return [[{"seed": s, "count": self.count}] for s in order]

    def warmup(self, seed: int) -> list:
        return [{"seed": random.Random(seed).choice(self.pool), "count": 3}]

    def op(self, spec):
        report = harness.run_theorems(seed=spec["seed"], count=spec["count"])
        return report["status"], io.dumps(report)

    def check(self, spec, out) -> Check:
        status, text = out
        sha = hashlib.sha256(text.encode()).hexdigest()
        c = Check(sha[:16])
        c.expect("theorems.status", status == 0, f"status {status}")
        pinned = self.pinned.get(f"{spec['count']}:{spec['seed']}")
        c.expect("theorems.sha256", pinned == sha, f"report digest {sha[:16]}")
        return c


# -- ingest ----------------------------------------------------------------------


def _strip_compositions(theory: dict) -> dict:
    return {**theory, "channels": [c for c in theory["channels"] if not c["id"].startswith("comp_")]}


def _model_data(model, order=None) -> dict:
    return {
        "worlds": sorted(model.worlds),
        "access": sorted(model.access),
        "domains": {w: sorted(model.domains[w]) for w in sorted(model.worlds)},
        "interp": dict(sorted(model.interp.items())),
        "order": sorted(order) if order is not None else None,
    }


class Ingest:
    """The cold derive-once path of one theory file: parse, validate, close
    under composition, validate, translate (starred), build the monoidal
    category and sweep its laws at object cap 5.

    Theories come from generate_qrt (4 systems, dims 1-3, up to 4 states)
    with the comp_* channels stripped, so closure has to rebuild them. The
    law sweep costs about objects^3 and objects grow with the named-state
    count, so the draw is stratified: every round holds one theory of each
    count from 5 to 11 atoms. An unstratified draw swings with whether a
    12-atom theory (1024 objects, seconds per op) happens to appear.

    The theories are the first of each count from generator seed
    POOL_SEED, the same for every run; the run's seed relabels each one and
    shuffles every round. The median op falls among the 8-atom theories,
    whose cost spans 3x, so a per-seed draw of ten of them moved it by
    0.12 of itself over seeds. Generator seed 2 fills the strata within
    98 indices, about as soon as seeds 3-6 do; seed 1 needs 322, which
    tripled the set-up."""

    name = "ingest"
    # most of its time is the law sweep over fresh arrays of tens of MB,
    # which the small-op kernels do not track
    kernels = ("memory",)
    trace_rounds = 1
    POOL_SEED = 2

    def __init__(self, smoke: bool):
        if smoke:
            self.quota = {5: 1, 6: 1, 7: 1}
        else:
            # few distinct theories where they are rare and cost is set by
            # the object count; many where the median op falls
            self.quota = {5: 10, 6: 10, 7: 10, 8: 10, 9: 10, 10: 3, 11: 3}
        self.n_rounds = max(self.quota.values())
        self._expected: dict = {}

    def _draw(self, pool_seed: int, seed: int, quota: dict) -> dict:
        """The first quota[n] theories with n atoms from generator seed
        pool_seed, each relabelled by the run's seed."""
        cfg = generate.GeneratorConfig(seed=pool_seed, n_systems=4, dims=(1, 2, 3), states_per_system=4)
        rng = np.random.default_rng([seed, 5])
        pool = {n: [] for n in quota}
        index = 0
        while any(len(pool[n]) < k for n, k in quota.items()):
            if index > 20_000:
                raise RuntimeError("could not fill the named-state strata")
            try:
                q = generate.generate_qrt(cfg, index=index)
            except GenerationError:
                index += 1
                continue
            n = len(q.nodes)
            if n in pool and len(pool[n]) < quota[n]:
                full = io.qrt_to_dict(generate.random_relabeling(q, rng))
                pool[n].append({"id": f"{pool_seed}:{index}", "atoms": n, "full": full,
                                "stripped": _strip_compositions(full)})
            index += 1
        return pool

    def build(self, seed: int) -> list:
        pool = self._draw(self.POOL_SEED, seed, self.quota)
        rng = random.Random(seed)
        rounds = []
        for r in range(self.n_rounds):
            specs = [pool[n][r % len(pool[n])] for n in sorted(pool)]
            rng.shuffle(specs)
            rounds.append(specs)
        return rounds

    def warmup(self, seed: int) -> list:
        pool = self._draw(self.POOL_SEED + 1, seed, {5: 1, 6: 1, 7: 1})
        return [pool[n][0] for n in sorted(pool)]

    def op(self, spec):
        q = io.qrt_from_dict(spec["stripped"])
        before = q.validate()
        closed = qrt.complete_composition(q)
        after = closed.validate()
        rec = translate.to_starred_model(closed)
        cat = smc.build_smc(rec.starred, 5)
        laws = smc.verify_smc_laws(cat)
        return before, after, rec, cat, laws

    def _expect(self, spec) -> dict:
        """The starred model of the unstripped original, as plain data."""
        if spec["id"] not in self._expected:
            rec = translate.to_starred_model(io.qrt_from_dict(spec["full"]))
            self._expected[spec["id"]] = _model_data(rec.model, rec.order)
        return self._expected[spec["id"]]

    def check(self, spec, out) -> Check:
        before, after, rec, cat, laws = out
        got = _model_data(rec.model, rec.order)
        c = Check(_digest((got, laws["ok"])))
        codes = {i.code for i in before.issues}
        c.expect("ingest.validate_stripped", codes <= {"composition-closure"}, str(sorted(codes)))
        c.expect("ingest.validate_closed", after.ok, after.text())
        want = self._expect(spec)
        c.expect("ingest.starred_model", got == want, "rebuilt model differs from the original's")
        c.expect("ingest.laws", laws["ok"], "law sweep failed")
        # the unit is whichever singleton-domain world the category picked
        # (a one-state free system can qualify as well as the trivial one)
        unit = cat.unit_atom
        c.expect("ingest.unit_atom", want["interp"].get(unit) == 1
                 and [unit] in want["domains"].values(), f"unit atom {unit}")
        free = {a for a, v in want["interp"].items() if v == 1 and a != unit}
        singles = {next(iter(x)) for x in smc.free_objects(cat) if len(x) == 1}
        c.expect("ingest.free_atoms", singles == free, "free singleton objects differ")
        return c


# -- modelcheck ------------------------------------------------------------------


def _closure(worlds: list, edges: set) -> list:
    """Reflexive-transitive closure (Warshall), as a sorted pair list."""
    reach = {w: {w} for w in worlds}
    for a, b in edges:
        reach[a].add(b)
    for k in worlds:
        for i in worlds:
            if k in reach[i]:
                reach[i] |= reach[k]
    return sorted((a, b) for a in worlds for b in reach[a])


def _from_program_formula(f) -> tuple:
    if isinstance(f, formulas.Atom):
        return ("atom", f.name)
    if isinstance(f, formulas.Not):
        return ("not", _from_program_formula(f.sub))
    if isinstance(f, formulas.Box):
        return ("box", _from_program_formula(f.sub))
    if isinstance(f, formulas.Diamond):
        return ("dia", _from_program_formula(f.sub))
    return ("imp", _from_program_formula(f.left), _from_program_formula(f.right))


class Modelcheck:
    """One op is ``qrtmodal check``: load an S4 model from plain data,
    parse the formula text, decide validity. Models are chains and sparse
    random preorders of 8 or 16 worlds; formulas have modal depth 1-4 and
    are random formulas, [] chains over a tautology and negated <> chains
    over a contradiction. The last two are valid, so the evaluator visits
    every world and cannot short-circuit; they expose the |W|^depth cost."""

    name = "modelcheck"
    kernels = ("python", "numpy")  # speed calibration, see speed.py
    trace_rounds = 16
    kinds = ("chain", "sparse")
    sizes = (8, 16)
    depths = (1, 2, 3, 4)
    shapes = ("random", "box_tautology", "not_diamond_contradiction")

    def __init__(self, smoke: bool):
        self.n_rounds = 2 if smoke else 24
        if smoke:
            self.sizes = (4,)
            self.depths = (1, 2)
            self.trace_rounds = 1
        self._expected: dict = {}

    def _model(self, rng, kind: str, n: int) -> dict:
        worlds = [f"w{i}" for i in range(n)]
        atoms = [f"p{i}" for i in range(6)]
        if kind == "chain":
            edges = {(worlds[i], worlds[i + 1]) for i in range(n - 1)}
        else:
            edges = {(worlds[i], worlds[j]) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 1.5 / n}
        return {
            "worlds": worlds,
            "access": [list(p) for p in _closure(worlds, edges)],
            "domain": atoms,
            "domains": {w: [a for a in atoms if rng.random() < 0.6] for w in worlds},
            "interp": {a: int(rng.integers(2)) for a in atoms},
        }

    def _formula(self, rng, shape: str, depth: int, atoms: list) -> tuple:
        p = ("atom", atoms[int(rng.integers(len(atoms)))])
        if shape == "box_tautology":
            f = ("or", p, ("not", p))
            for _ in range(depth):
                f = ("box", f)
            return f
        if shape == "not_diamond_contradiction":
            f = ("and", p, ("not", p))
            for _ in range(depth):
                f = ("dia", f)
            return ("not", f)
        while True:
            f = _from_program_formula(generate.random_formula(rng, atoms, max_depth=depth + 2))
            if oracles.modal_depth(f) == depth:
                return f

    def build(self, seed: int) -> list:
        rng = np.random.default_rng([seed, 7])
        rounds = []
        for r in range(self.n_rounds):
            specs = []
            for kind in self.kinds:
                for n in self.sizes:
                    model = self._model(rng, kind, n)
                    for depth in self.depths:
                        for shape in self.shapes:
                            f = self._formula(rng, shape, depth, model["domain"])
                            specs.append({"id": (r, len(specs)), "model": model,
                                          "formula": f, "text": oracles.to_text(f)})
            rounds.append(specs)
        return rounds

    def warmup(self, seed: int) -> list:
        rng = np.random.default_rng([seed, 1_000_003])
        model = self._model(rng, "sparse", 8)
        specs = []
        for shape in self.shapes:
            f = self._formula(rng, shape, 2, model["domain"])
            specs.append({"id": ("warmup", shape), "model": model, "formula": f, "text": oracles.to_text(f)})
        return specs

    def op(self, spec):
        m = io.model_from_dict(spec["model"])
        f = formulas.parse(spec["text"])
        return formulas.is_valid(m, f, warn_domains=False)

    def check(self, spec, out) -> Check:
        valid, witness = out
        got = (bool(valid), witness)
        c = Check(_digest(got))
        key = spec["id"]
        if key not in self._expected:
            self._expected[key] = oracles.validity(oracles.with_successors(spec["model"]), spec["formula"])
        want = self._expected[key]
        c.expect("modelcheck.labelling", got == want, f"got {got}, labelling says {want}")
        return c


# -- iso -------------------------------------------------------------------------


def _relabel_model(rng, model: dict) -> dict:
    wmap = dict(zip(model["worlds"], [f"v{i}" for i in rng.permutation(len(model["worlds"]))]))
    amap = dict(zip(model["domain"], [f"b{i}" for i in rng.permutation(len(model["domain"]))]))
    out = {
        "worlds": sorted(wmap.values()),
        "access": sorted([wmap[a], wmap[b]] for a, b in model["access"]),
        "domain": sorted(amap.values()),
        "domains": {wmap[w]: sorted(amap[a] for a in d) for w, d in model["domains"].items()},
        "interp": {amap[a]: v for a, v in model["interp"].items()},
    }
    if "order" in model:
        out["order"] = sorted([amap[a], amap[b]] for a, b in model["order"])
    return out


def _cycles_model(rng, sizes: list, truth: int) -> dict:
    """Worlds on disjoint cycles; consecutive worlds share one atom. Every
    world has two atoms, only its self-loop and the same truth, so all
    worlds look alike to a signature test: one n-cycle and two shorter
    cycles with equal truth are indistinguishable until a full bijection
    is tried."""
    worlds, domains, atoms = [], {}, []
    base = 0
    for k in sizes:
        ws = [f"w{base + i}" for i in range(k)]
        ats = [f"a{base + i}" for i in range(k)]
        for i, w in enumerate(ws):
            domains[w] = [ats[i], ats[(i + 1) % k]]
        worlds += ws
        atoms += ats
        base += k
    model = {
        "worlds": worlds,
        "access": [[w, w] for w in worlds],
        "domain": atoms,
        "domains": domains,
        "interp": {a: truth for a in atoms},
        "order": [[a, a] for a in atoms],
    }
    return _relabel_model(rng, model)


def _search_specs(a: dict, b: dict, expect: bool) -> list:
    """A models_isomorphic decision on the plain models and a
    starred_isomorphic decision on the models with their preorders."""
    plain = [{k: v for k, v in m.items() if k != "order"} for m in (a, b)]
    return [{"kind": "models", "a": plain[0], "b": plain[1], "expect": expect},
            {"kind": "starred", "a": a, "b": b, "expect": expect}]


class Iso:
    """Each op is one isomorphism decision between two structures loaded
    from plain data: models_isomorphic and starred_isomorphic on relabelled
    random S4 models (6-10 worlds, isomorphic by construction) and on one
    shared-atom cycle against two (5-8 worlds, equal signatures, not
    isomorphic by construction); qrt_isomorphic and iso_conditions on
    generated 4-system theories against a relabelling (isomorphic) and
    against another family member (checked by an exhaustive labeled search
    and, for the conditions, against the translations).

    The theory decisions hold the median op. Their theories are a fixed
    family from generator seed POOL_SEED, and every round decides all of
    its pairs, relabelled afresh by the run's seed: a theory decision takes
    milliseconds against seconds for the cycle searches, and the median
    needs that many samples to settle. The models and cycles are drawn
    from the run's seed."""

    name = "iso"
    # the cycle searches are interpreted Python, the theory decisions lean
    # on small matrices; with per-op scaling over five seeds all three
    # kernels tracked both best (spread 0.03 on op_p50_ms, 0.05 on
    # ops_per_s, against 0.06 and 0.07 with the small-matrix kernel alone)
    kernels = ("python", "numpy", "memory")
    trace_rounds = 1
    POOL_SEED = 1

    def __init__(self, smoke: bool):
        self.n_rounds = 1 if smoke else 3
        self.model_sizes = (4, 5) if smoke else (6, 7, 8, 9, 10)
        self.cycle_sizes = (4, 5) if smoke else (5, 6, 7, 8)
        self.n_theories = 2 if smoke else 16
        self._expected: dict = {}

    def _s4(self, rng, n: int) -> dict:
        worlds = [f"w{i}" for i in range(n)]
        atoms = [f"a{i}" for i in range(8)]
        edges = {(worlds[i], worlds[j]) for i in range(n) for j in range(n) if i < j and rng.random() < 0.25}
        order_edges = {(atoms[i], atoms[j]) for i in range(8) for j in range(8) if i != j and rng.random() < 0.1}
        return {
            "worlds": worlds,
            "access": [list(p) for p in _closure(worlds, edges)],
            "domain": atoms,
            "domains": {w: [a for a in atoms if rng.random() < 0.4] for w in worlds},
            "interp": {a: int(rng.integers(2)) for a in atoms},
            "order": [list(p) for p in _closure(atoms, order_edges)],
        }

    def build(self, seed: int) -> list:
        rng = np.random.default_rng([seed, 11])
        cfg = generate.GeneratorConfig(seed=self.POOL_SEED, n_systems=4, dims=(1, 2), states_per_system=4)
        family = []
        index = 0
        while len(family) < 2 * self.n_theories:
            try:
                family.append(generate.generate_qrt(cfg, index=index))
            except GenerationError:
                pass
            index += 1
        rounds = []
        for r in range(self.n_rounds):
            specs = []
            for n in self.model_sizes:
                base = self._s4(rng, n)
                specs += _search_specs(base, _relabel_model(rng, base), True)
            for n in self.cycle_sizes:
                k, truth = int(rng.integers(2, n // 2 + 1)), int(rng.integers(2))
                specs += _search_specs(_cycles_model(rng, [n], truth), _cycles_model(rng, [k, n - k], truth), False)
            for i in range(self.n_theories):
                q = generate.random_relabeling(family[i], rng)
                partner = generate.random_relabeling(family[self.n_theories + i], rng)
                a = io.qrt_to_dict(q)
                relabelled = io.qrt_to_dict(generate.random_relabeling(q, rng))
                member = io.qrt_to_dict(partner)
                pair_id = i  # the verdict does not depend on the labels
                for kind in ("qrt", "conditions"):
                    specs.append({"kind": kind, "a": a, "b": relabelled, "expect": True})
                    specs.append({"kind": kind, "a": a, "b": member, "expect": None, "id": pair_id})
            rng.shuffle(specs)
            rounds.append(specs)
        return rounds

    def warmup(self, seed: int) -> list:
        rng = np.random.default_rng([seed, 1_000_003])
        base = self._s4(rng, 5)
        return _search_specs(base, _relabel_model(rng, base), True)

    def op(self, spec):
        kind = spec["kind"]
        if kind in ("models", "starred"):
            a, b = io.model_from_dict(spec["a"]), io.model_from_dict(spec["b"])
            search = kripke.starred_isomorphic if kind == "starred" else kripke.models_isomorphic
            return search(a, b), a, b
        a, b = io.qrt_from_dict(spec["a"]), io.qrt_from_dict(spec["b"])
        if kind == "qrt":
            return qrt.qrt_isomorphic(a, b), a, b
        return translate.iso_conditions(a, b), a, b

    def _reference(self, spec, a, b) -> bool:
        """The verdict for a pair not built to be (non-)isomorphic: an
        exhaustive labeled search for qrt_isomorphic; for iso_conditions
        the paper's theorem, that the three conditions hold exactly when
        the translations are isomorphic."""
        key = (spec["kind"], spec["id"])
        if key not in self._expected:
            if spec["kind"] == "qrt":
                verdict = oracles.labeled_isomorphic(a, b)
            else:
                verdict, _ = kripke.models_isomorphic(translate.to_model(a).model, translate.to_model(b).model)
            self._expected[key] = bool(verdict)
        return self._expected[key]

    def check(self, spec, out) -> Check:
        result, a, b = out
        kind = spec["kind"]
        if kind == "conditions":
            verdict = bool(result["i"] and result["ii"] and result["iii"])
        else:
            verdict = bool(result[0])
        c = Check(_digest((kind, verdict)))
        if spec["expect"] is None:
            oracle = "iso.exhaustive_labeled" if kind == "qrt" else "iso.translation_theorem"
            c.expect(oracle, verdict == self._reference(spec, a, b), f"{kind} said {verdict}")
        else:
            c.expect("iso.construction", verdict == spec["expect"], f"{kind} said {verdict}")
        if kind in ("models", "starred") and verdict:
            wmap, amap = result[1]
            if kind == "starred":
                ok = oracles.kripke_witness_ok(a.model, b.model, wmap, amap, a.order, b.order)
            else:
                ok = oracles.kripke_witness_ok(a, b, wmap, amap)
            c.expect("iso.witness", ok, "witness does not map the structure")
        return c


WORKLOADS = {w.name: w for w in (Theorems, Ingest, Modelcheck, Iso)}
