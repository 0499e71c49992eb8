"""Test inputs and readings shared by several test modules: a stock
channel, random Kripke models, the convexity weights the acceptance
criteria name, derived facts of theories and categories that only the
tests ask for, the reference formula parser, the reference family
builder, the all-pairs isomorphism-condition sweep, the per-operator
channel kernels, the reference composite sweep, the one-pair
trace-distance test over the stacked kernel, the one-channel induced
map over the grouped derivation kernel, the per-destination matching and
per-system near-state passes that the one-pass ones are checked against,
the lone build of a twisted corpus theory and the per-pair convexity
verdict that the batched ones are checked against, the numeric restriction and
sub-theory test that the label restriction
(``LabeledTheory.restricted``) is checked against, the per-call
model-side checks that read no model index, and a translation defect
that only the transported functoriality check sees."""

import warnings

import numpy as np

from qrtmodal import corpus, harness, translate
from qrtmodal.config import DEFAULT_TOL
from qrtmodal.errors import FormulaSyntaxError, ResourceLimitError, ShapeError, StructuralError
from qrtmodal.errors import UnknownSymbolError
from qrtmodal.formulas import Atom, Box, Diamond, DomainWarning, Formula, Iff, Implies, Not, _require_atoms, conj, disj
from qrtmodal.generate import generate_qrt, random_relabeling
from qrtmodal.kripke import KripkeModel, StarredModel, models_isomorphic
from qrtmodal.linalg import (
    _KRAUS_CUTOFF,
    DensityMatrix,
    KrausChannel,
    _check_dim_cap,
    apply_channels,
    _eigh,
    as_matrix,
    hermitian_part,
    isometry_channel,
    random_density_matrix,
    random_isometry,
    within_trace_distances,
)
from qrtmodal.qrt import Qrt, SystemDecl, _induced_maps, _matches, _missing_composites, _settled, complete_composition
from qrtmodal.qrt import node_name
from qrtmodal.relations import reflexive_transitive_closure
from qrtmodal.smc import SmcCategory
from qrtmodal.translate import to_model

# the weights p in [0, 1] at which the convexity schema is checked
P_SAMPLES = (0.0, 0.25, 0.5, 0.75, 1.0)


def depolarizing_channel() -> KrausChannel:
    """The fully depolarizing qubit channel, Kraus (1/2){I, X, Y, Z}."""
    i2 = np.eye(2, dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    return KrausChannel([0.5 * i2, 0.5 * x, 0.5 * y, 0.5 * z])


def random_density(rng: np.random.Generator, dim: int, pure: bool = False) -> DensityMatrix:
    """A random state of dim: ``random_density_matrix``, checked."""
    return DensityMatrix(random_density_matrix(rng, dim, pure))


def random_kraus_channel(rng: np.random.Generator, in_dim: int, out_dim: int, n_ops: int) -> KrausChannel:
    """A random CPTP channel of n_ops Kraus operators, or of the fewest
    that a channel between the dims has if that is more: the Stinespring
    channel of a random isometry, drawn as ``random_cptp_channel`` draws
    its own two-operator one."""
    env = max(n_ops, -(-in_dim // out_dim))
    return isometry_channel(random_isometry(rng, out_dim * env, in_dim), out_dim)


def random_model(
    rng: np.random.Generator,
    max_worlds: int = 4,
    max_atoms: int = 6,
    s4: bool = False,
) -> KripkeModel:
    """A seeded model of 1 to max_worlds worlds and 1 to max_atoms atoms;
    with s4, its access relation is closed to a preorder."""
    n_w = int(rng.integers(1, max_worlds + 1))
    n_a = int(rng.integers(1, max_atoms + 1))
    worlds = [f"w{i}" for i in range(n_w)]
    atoms = [f"a{i}" for i in range(n_a)]
    access = {
        (w, u) for w in worlds for u in worlds if rng.random() < 0.4
    }
    if s4:
        access = set(reflexive_transitive_closure(access, worlds))
    domains = {
        w: frozenset(a for a in atoms if rng.random() < 0.6) for w in worlds
    }
    interp = {a: int(rng.integers(2)) for a in atoms}
    return KripkeModel(worlds, access, atoms, domains, interp)


def wide_starred_model(k: int) -> StarredModel:
    """A starred model of k non-unit atoms, all held at one world beside
    the unit world, ordered only by identity."""
    atoms = [f"a{i:03d}" for i in range(k)]
    model = KripkeModel(
        ["c0", "w"], [("c0", "c0"), ("w", "w"), ("c0", "w")], [*atoms, "p"],
        {"c0": ["p"], "w": atoms}, {**dict.fromkeys(atoms, 0), "p": 1},
    )
    return StarredModel(model, [(a, a) for a in model.domain])


def is_composition_complete(q: Qrt) -> bool:
    """Every composite of two of q's induced functions is induced."""
    return not _missing_composites(q.functions)


def sub_qrt(q: Qrt, keep) -> Qrt:
    """The restriction of q to the given systems, a fresh theory that
    derives its induced functions itself: channels with any dropped
    endpoint are removed."""
    kept = set(keep)
    systems = [s for s in q.systems if s.id in kept]
    if not systems:
        raise StructuralError("a sub-theory needs at least one system")
    channels = [d for d in q.channels if d.src in kept and d.dst in kept]
    return Qrt(systems, channels, q.trivial_id if q.trivial_id in kept else None, q.tol)


def within_trace_distance(a: DensityMatrix, b: DensityMatrix, eps: float) -> bool:
    """Whether trace_distance(a, b) <= eps, for two states of one dim:
    ``within_trace_distances`` of the one pair."""
    return bool(within_trace_distances(a.mat[None], b.mat[None], eps)[0, 0])


def induced_map(channel: KrausChannel, src: SystemDecl, dst: SystemDecl, tol: float = DEFAULT_TOL) -> dict | None:
    """The map named state -> named state that channel realizes from src to
    dst, whose named states have the channel's dims: ``_induced_maps`` of
    the one triple. None when an image matches no named state,
    StructuralError when one matches several, or what applying the channel
    to a state raises, whichever comes first in state order. The
    per-channel reference for the grouped pass."""
    (outcome,) = _induced_maps([(channel, src, dst)], tol)
    return _settled(outcome)


def reference_matches(dst: SystemDecl, images: np.ndarray, tol: float) -> list:
    """The outcome of matching each image of the (n, d, d) stack to the
    named states of dst alone, each of dim d, in order: the one named
    state within trace distance tol, None when there is none, or
    (StructuralError, message) when there are several. The one-destination
    pass that ``qrt._matches`` replaced."""
    dim = images.shape[-1]
    names = list(dst.states)
    named = np.array([dm.mat for dm in dst.states.values()]).reshape(len(names), dim, dim)
    hit = within_trace_distances(images, named, tol)
    out = []
    for row in hit:
        hits = [names[j] for j in np.flatnonzero(row)]
        if len(hits) > 1:
            out.append((StructuralError, f"ambiguous match in system {dst.id}: {sorted(hits)}"))
        else:
            out.append(hits[0] if hits else None)
    return out


def reference_induced_map(channel: KrausChannel, src: SystemDecl, dst: SystemDecl, tol: float):
    """The ``_induced_maps`` outcome of one triple, its images matched by
    ``reference_matches``: the map, None, or (error type, message) for the
    first state in order whose image fails, misses or matches ambiguously."""
    images, errors = apply_channels((channel,), (tuple(src.states.values()),), tol)
    images = images.copy()
    images[list(errors)] = 0  # a failing image is never read
    matched = reference_matches(dst, images, tol)
    fn = {}
    for r, st in enumerate(src.states):
        m = (type(errors[r]), str(errors[r])) if r in errors else matched[r]
        if not isinstance(m, str):
            return m
        fn[st] = m
    return fn


def reference_near_states(q: Qrt) -> list:
    """Per system of q, in order: the pairs (st1, st2), st1 < st2, of its
    named states of one dim within trace distance 2 tol, from one
    all-pairs test per system and dim. The per-system check that
    ``qrt._near_states`` replaced."""
    out = []
    for s in q.systems:
        by_dim: dict = {}
        for st in sorted(s.states):
            by_dim.setdefault(s.states[st].dim, []).append(st)
        near = []
        for names in by_dim.values():
            if len(names) > 1:
                stack = np.array([s.states[st].mat for st in names])
                rows = within_trace_distances(stack, stack, 2 * q.tol).tolist()
                for i, st1 in enumerate(names):
                    near += ((st1, st2) for st2, hit in zip(names[i + 1:], rows[i][i + 1:]) if hit)
        out.append(near)
    return out


def reference_xi_theory(shift: int, with_collapse: bool) -> Qrt:
    """One twisted theory built alone: ``corpus._xi_declared`` closed by
    ``complete_composition``, deriving on its first read. The lone build
    that ``corpus._xi_built`` replaced."""
    return complete_composition(corpus._xi_declared(shift, with_collapse))


def reference_convexity_report(q: Qrt, rec, p_samples) -> list[dict]:
    """``formulas.convexity_report`` one pair at a time: the combination of
    each pair of free states built as its own ``DensityMatrix`` and
    matched by a one-image ``_matches``. The per-pair verdict that the
    stacked report replaced."""

    def verdict(sid: str, st1: str, st2: str, p: float) -> str:
        a1, a2 = node_name((sid, st1)), node_name((sid, st2))
        if rec.model.interp[a1] == 0 or rec.model.interp[a2] == 0:
            return "holds"  # one argument is not free
        m1, m2 = q.system(sid).states[st1], q.system(sid).states[st2]
        combo = DensityMatrix(p * m1.mat + (1 - p) * m2.mat, q.tol)
        (hit,) = _matches(combo.mat[None], [(q.system(sid), 1)], q.tol)
        hit = _settled(hit)
        if hit is None:
            return "closure-indeterminate"
        return "holds" if rec.model.interp[node_name((sid, hit))] == 1 else "fails"

    out = []
    for p in map(float, p_samples):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p}")
        holds, fails, indet = [], [], []
        for s in q.systems:
            for st1 in sorted(s.states):
                for st2 in sorted(s.states):
                    bucket = {"holds": holds, "fails": fails}.get(verdict(s.id, st1, st2, p), indet)
                    bucket.append((f"{s.id}.{st1}", f"{s.id}.{st2}"))
        out.append({"p": p, "holds": holds, "fails": fails, "indeterminate": indet, "ok": not fails})
    return out


def is_sub_qrt(x: Qrt, y: Qrt) -> bool:
    """x's systems embed by id into y's, and x's induced-function set is
    exactly y's restricted to those systems."""
    for s in x.systems:
        t = next((u for u in y.systems if u.id == s.id), None)
        if t is None or t.dim != s.dim or set(t.states) != set(s.states):
            return False
        for st in s.states:
            if not within_trace_distance(s.states[st], t.states[st], x.tol):
                return False
    kept = {s.id for s in x.systems}
    restricted = {(a, b): set(fns) for (a, b), fns in y.functions.items() if a in kept and b in kept}
    return {pair: set(fns) for pair, fns in x.functions.items()} == restricted


def resource_states(q: Qrt) -> frozenset:
    """The named states that are neither free nor the trivial state."""
    return frozenset(set(q.nodes) - q.free_states - {q.trivial_node})


def arrow(cat: SmcCategory, a: str, b: str) -> bool:
    """The one-component arrow condition between atoms (unit included),
    read off the category's arrow rows."""
    return bool(cat._out[cat._index[a]] >> cat._index[b] & 1)


_PUNCT = ("<->", "->", "[]", "<>", "~", "(", ")", "&", "|")


def reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        matched = False
        for p in _PUNCT:
            if text.startswith(p, i):
                out.append((p, p, i))
                i += len(p)
                matched = True
                break
        if matched:
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            if j < n and text[j] == ".":
                k = j + 1
                if k < n and (text[k].isalpha() or text[k] == "_"):
                    m = k
                    while m < n and (text[m].isalnum() or text[m] == "_"):
                        m += 1
                    name = text[i:m]
                    j = m
                else:
                    raise FormulaSyntaxError("expected identifier after '.'", j)
            out.append(("IDENT", name, i))
            i = j
            continue
        raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    return out


def reference_parse(text: str) -> Formula:
    """The character-by-character scanner and the parser that
    ``formulas.parse`` replaced, kept as its differential oracle."""
    toks = reference_tokenize(text)

    def peek(idx: int):
        return toks[idx] if idx < len(toks) else (None, None, len(text))

    def formula(idx: int) -> tuple[Formula, int]:
        kind, value, pos = peek(idx)
        if kind is None:
            raise FormulaSyntaxError("unexpected end of input", pos)
        if kind == "IDENT":
            return Atom(value), idx + 1
        if kind == "~":
            sub, nxt = formula(idx + 1)
            return Not(sub), nxt
        if kind == "[]":
            sub, nxt = formula(idx + 1)
            return Box(sub), nxt
        if kind == "<>":
            sub, nxt = formula(idx + 1)
            return Diamond(sub), nxt
        if kind == "(":
            left, nxt = formula(idx + 1)
            op_kind, _, op_pos = peek(nxt)
            if op_kind not in ("->", "&", "|", "<->"):
                raise FormulaSyntaxError("expected a binary connective", op_pos)
            right, nxt2 = formula(nxt + 1)
            close, _, close_pos = peek(nxt2)
            if close != ")":
                raise FormulaSyntaxError("expected ')'", close_pos)
            built = {
                "->": Implies,
                "&": conj,
                "|": disj,
                "<->": Iff,
            }[op_kind](left, right)
            return built, nxt2 + 1
        raise FormulaSyntaxError(f"unexpected token {value!r}", pos)

    tree, end = formula(0)
    if end != len(toks):
        raise FormulaSyntaxError("unexpected trailing input", toks[end][2])
    return tree


def reference_build_family(seed: int, count: int, config=None) -> list:
    """``harness.build_family`` with its dedup as a search against every
    kept model, not only those of the new model's key: the differential
    oracle of its key buckets."""
    cfg = config or harness.default_family_config(seed)
    rng = np.random.default_rng([seed, 999])
    base, models = [], []
    idx = 0
    want = count - harness._N_RELABELED
    while len(base) < want and idx < want * 10:
        q = generate_qrt(cfg, index=idx)
        m = to_model(q).model
        if not any(models_isomorphic(m, prev)[0] for prev in models):
            base.append((f"gen{idx}", q))
            models.append(m)
        idx += 1
    out = list(base)
    for k in range(min(harness._N_RELABELED, len(base))):
        out.append((f"{base[k][0]}_relabeled", random_relabeling(base[k][1], rng)))
    return out


def reference_iso_sweep(translated: list) -> tuple[list, list]:
    """``harness._iso_sweep`` as a loop over every ordered pair, each of
    which calls both deciders: the differential oracle of its key
    buckets. It reads the deciders off ``harness``, so that a defect
    planted there reaches both sweeps."""
    mismatches, inconclusive = [], []
    for la, qa, ra in translated:
        for lb, qb, rb in translated:
            try:
                cond = harness.iso_conditions(qa.labeled, qb.labeled)
                conj = cond["i"] and cond["ii"] and cond["iii"]
                oracle = harness.models_isomorphic(ra.model, rb.model)[0]
            except ResourceLimitError as exc:
                inconclusive.append({"pair": [la, lb], "reason": str(exc)})
                continue
            if conj != oracle:
                mismatches.append({"pair": [la, lb], "conditions": cond, "models_isomorphic": oracle})
    return mismatches, inconclusive


def reference_kraus_ops(kraus_ops) -> tuple:
    """The operators as ``KrausChannel`` checked and copied them one at a
    time before it held them as one array; raises what it raised."""
    ops = tuple(as_matrix(k) for k in kraus_ops)
    if not ops:
        raise ShapeError("a channel needs at least one Kraus operator")
    out_dim, in_dim = ops[0].shape
    for k in ops[1:]:
        if k.shape != (out_dim, in_dim):
            raise ShapeError(f"inconsistent Kraus shapes: {k.shape} vs {(out_dim, in_dim)}")
    _check_dim_cap(max(in_dim, out_dim))
    return tuple(k.copy() for k in ops)


def reference_choi_matrix(c: KrausChannel) -> np.ndarray:
    """The Choi matrix summed one Kraus operator at a time, as
    ``linalg.choi_matrix`` did before it read the channel's one array."""
    d = c.in_dim * c.out_dim
    j = np.zeros((d, d), dtype=complex)
    for k in c.kraus_ops:
        v = k.T.reshape(-1)
        j += np.outer(v, v.conj())
    return j


def reference_cptp_verdict(c: KrausChannel, tol: float) -> tuple:
    """The one-channel CPTP verdict of the per-operator code that
    ``linalg.settle_cptp`` replaced."""
    acc = np.zeros((c.in_dim, c.in_dim), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in c.kraus_ops:
            acc += k.conj().T @ k
        tp_defect = float(np.max(np.abs(acc - np.eye(c.in_dim))))
    if not tp_defect <= tol:
        return False, f"not trace preserving (defect {tp_defect:.3e})"
    lo = float(_eigh(hermitian_part(reference_choi_matrix(c))).min())
    if not lo >= -tol:
        return False, f"not completely positive (Choi eigenvalue {lo:.3e})"
    return True, None


def reference_reduce_kraus(c: KrausChannel) -> list:
    """The Kraus operators ``linalg.reduce_kraus`` keeps, picked one
    eigenvector at a time."""
    vals, vecs = _eigh(hermitian_part(reference_choi_matrix(c)), vectors=True)
    scale = max(float(vals.max()), 1.0)
    ops = [np.sqrt(lam) * v.reshape(c.in_dim, c.out_dim).T for lam, v in zip(vals, vecs.T) if lam > _KRAUS_CUTOFF * scale]
    return ops or [np.zeros((c.out_dim, c.in_dim), dtype=complex)]


def reference_compose(g: KrausChannel, f: KrausChannel) -> list:
    """The Kraus operators of ``linalg.compose(g, f)``, one product at a
    time."""
    ops = [gi @ fj for gi in g.kraus_ops for fj in f.kraus_ops]
    if len(ops) > f.in_dim * g.out_dim:
        ops = reference_reduce_kraus(KrausChannel(ops))
    return ops


def reference_missing_composites(table) -> list:
    """``qrt._missing_composites`` as it was before its rows were built
    once per call: every function map rebuilt and every key list sorted
    again for each function."""
    missing = []
    pairs = sorted(table)
    for a, b in pairs:
        fns = table[(a, b)]
        after = [(c, table[(b2, c)]) for b2, c in pairs if b2 == b]
        for fkey in sorted(fns):
            f = dict(fkey)
            for c, gns in after:
                have = table.get((a, c), {})
                for gkey in sorted(gns):
                    g = dict(gkey)
                    comp = tuple(sorted((s, g[f[s]]) for s in f))
                    if comp not in have:
                        missing.append((a, b, fns[fkey], c, gns[gkey], comp))
    return missing


# -- the model-side checks as they were before each model kept an index ---------


def reference_value(m: KripkeModel, f: Formula, w: str, warn_domains: bool) -> int:
    """``formulas._value`` that sorts every world and tests each pair's
    membership in the access set at each box and diamond step."""
    if isinstance(f, Atom):
        if warn_domains and f.name not in m.domains[w]:
            warnings.warn(f"atom {f.name} evaluated at world {w} outside its domain", DomainWarning, stacklevel=2)
        return m.interp[f.name]
    if isinstance(f, Not):
        return 1 - reference_value(m, f.sub, w, warn_domains)
    if isinstance(f, Implies):
        if reference_value(m, f.left, w, warn_domains) == 0:
            return 1
        return reference_value(m, f.right, w, warn_domains)
    if isinstance(f, Iff):
        left = reference_value(m, f.left, w, warn_domains)
        return 1 if left == reference_value(m, f.right, w, warn_domains) else 0
    if isinstance(f, Box):
        for u in sorted(m.worlds):
            if (w, u) in m.access and reference_value(m, f.sub, u, warn_domains) == 0:
                return 0
        return 1
    if isinstance(f, Diamond):
        for u in sorted(m.worlds):
            if (w, u) in m.access and reference_value(m, f.sub, u, warn_domains) == 1:
                return 1
        return 0
    raise TypeError(f"not a formula node: {f!r}")


def reference_evaluate(m: KripkeModel, f: Formula, w: str, warn_domains: bool = True) -> int:
    """``formulas.evaluate`` over ``reference_value``."""
    if w not in m.worlds:
        raise UnknownSymbolError(f"unknown world {w!r}")
    _require_atoms(m, f)
    return reference_value(m, f, w, warn_domains)


def reference_is_valid(m: KripkeModel, f: Formula, warn_domains: bool = True) -> tuple:
    """``formulas.is_valid`` over ``reference_value``."""
    _require_atoms(m, f)
    for w in sorted(m.worlds):
        if reference_value(m, f, w, warn_domains) == 0:
            return False, w
    return True, None


def reference_is_sub_model(sub: KripkeModel, sup: KripkeModel) -> bool:
    """``kripke.is_sub_model`` that compares sub's access set with sup's
    access restricted to sub's worlds."""
    if not sub.worlds <= sup.worlds:
        return False
    restricted = frozenset((a, b) for a, b in sup.access if a in sub.worlds and b in sub.worlds)
    if sub.access != restricted or not sub.domain <= sup.domain:
        return False
    if any(sub.domains[w] != sup.domains[w] for w in sub.worlds):
        return False
    return all(sup.interp[atom] == 1 for atom in sub.domain if sub.interp[atom] == 1)


def reference_true_atoms(m: KripkeModel, w: str) -> frozenset:
    return frozenset(p for p in m.domains[w] if m.interp[p] == 1)


def reference_unit_world_candidates(m: KripkeModel) -> list:
    """``translate.unit_world_candidates`` with each world's true atoms
    rebuilt per test and every pair of domains intersected."""
    needy = [w for w in m.worlds if reference_true_atoms(m, w)]
    out = []
    for c in sorted(m.worlds):
        if len(m.domains[c]) != 1:
            continue
        if any(m.domains[c] & m.domains[w] for w in m.worlds if w != c):
            continue
        if all((c, w) in m.access for w in needy):
            out.append(c)
    return out


def reference_image_conditions(m: KripkeModel) -> dict:
    """``translate.image_conditions`` over the sorted access pairs."""
    witness = None
    for w, u in sorted(m.access):
        if not reference_true_atoms(m, u) and reference_true_atoms(m, w):
            witness = (w, u)
            break
    candidates = reference_unit_world_candidates(m)
    c_world = candidates[0] if candidates else None
    return {"i": witness is None, "ii": c_world is not None, "c_world": c_world, "witness_i": witness}


def reference_arrow_rows(sm: StarredModel, index: dict) -> tuple:
    """``smc._arrow_rows`` with each world's onward reach rebuilt from the
    access pairs."""
    m = sm.model
    hosts: dict = {a: {w for w in m.worlds if a in m.domains[w]} for a in m.domain}
    reach: dict = {}
    for w, u in m.access:
        reach.setdefault(w, set()).add(u)
    onward = {a: set().union(*(reach.get(w, ()) for w in ws)) for a, ws in hosts.items()}
    out, into = [0] * len(index), [0] * len(index)
    for a, b in sm.order:
        if not onward[a].isdisjoint(hosts[b]):
            out[index[a]] |= 1 << index[b]
            into[index[b]] |= 1 << index[a]
    return tuple(out), tuple(into)


def plant_mirrored_truth(monkeypatch) -> None:
    """Plant a defect in every translation record: each atom reads the
    truth of its mirror among its world's atoms in sorted order (the first
    that of the last, and so on). A relabeling that keeps or reverses the
    order of each system's states commutes with the mirror, and any other
    may not; the planted model is often still isomorphic to the copy's."""
    real = translate._translate

    def planted(q):
        rec = real(q)
        m = rec.model
        interp = dict(m.interp)
        for dom in m.domains.values():
            atoms = sorted(dom)
            interp.update(zip(atoms, (m.interp[a] for a in reversed(atoms))))
        model = KripkeModel(m.worlds, m.access, m.domain, m.domains, interp)
        return translate.TranslationRecord(rec.edges, model, rec.order, rec.c_world)

    monkeypatch.setattr(translate, "_translate", planted)
    monkeypatch.setattr(translate, "_records", type(translate._records)())
