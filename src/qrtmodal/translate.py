"""Translation of finite theories into variable-domain S4 models.

Worlds are the systems, atoms are the qualified named states, accessibility
records channel existence, and an atom is true exactly when its state is
free. The starred translation is the same model with the convertibility
preorder carried onto the global domain. The unit axiom is enforced on every
generated model: when a trivial system exists, its unique atom is true.

Translation reads only a theory's ``labeled`` form, so a ``Qrt`` validates
there and a ``LabeledTheory`` copy translates as it is. The isomorphism
conditions validate nothing: they read the search view and the flow key
each theory caches (``_view``, ``flow_key``), whose keys settle (ii),
and many a failing (iii), before (iii) searches. All
theorem-condition oracles in this module work at the labeled
(named-state) level; reports should be read with that scope in mind.
"""

from __future__ import annotations

import weakref
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import QrtModalError, ResourceLimitError
from .kripke import (
    KripkeModel,
    StarredModel,
    _index,
    is_sub_model,
    model_key,
    starred_isomorphic,
)
from .qrt import (
    LabeledTheory,
    Qrt,
    _derive_maps,
    _labeled_bijection,
    _renaming,
    derive,
    node_name,
    qrt_isomorphic,
)


@dataclass(frozen=True)
class TranslationRecord:
    """A translated theory: its S4 model, the convertibility preorder on
    its atoms and the source theory's conversion edges. A world id is its
    system's id and an atom id is its state's ``node_name``, so no name
    maps are kept. The record holds no reference to its theory, so the
    memo in ``to_model`` frees both once the theory is dropped."""

    edges: frozenset      # (source node, target node, channel id)
    model: KripkeModel
    order: frozenset      # (atom, atom) pairs of the preorder
    c_world: str | None

    @cached_property
    def starred(self) -> StarredModel:
        """The starred model, built and validated on first access."""
        return StarredModel(self.model, self.order)


# theory (a Qrt by identity, a LabeledTheory by value) -> its record; an entry goes when its key is freed
_records: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def to_model(q: Qrt | LabeledTheory) -> TranslationRecord:
    """The translation of a valid, composition-complete theory, with the
    preorder on atoms. The record is built once per theory and shared by
    later calls; a build that raises memoises nothing."""
    try:
        return _records[q]
    except KeyError:
        rec = _records[q] = _translate(q)
        return rec


def to_starred_model(q: Qrt | LabeledTheory) -> TranslationRecord:
    """to_model's record, whose ``starred`` is the starred model: an alias
    kept for the benchmark and the tests."""
    return to_model(q)


def _translate(q: Qrt | LabeledTheory) -> TranslationRecord:
    # a valid theory's model is S4: missing-identity gives reflexivity, composition-closure transitivity
    lab = q.labeled
    true = lab.true_nodes
    model = KripkeModel(
        {s.id for s in lab.systems},
        set(lab.functions),
        {node_name(n) for n in lab.nodes},
        {s.id: frozenset(node_name((s.id, st)) for st in s.states) for s in lab.systems},
        {node_name(n): int(n in true) for n in lab.nodes},
    )
    order = frozenset((node_name(a), node_name(b)) for a, b in lab.preorder)
    c_world = lab.trivial_id if lab.trivial_node is not None else None
    return TranslationRecord(lab.edges, model, order, c_world)


# -- conditions under which two translations are isomorphic -------------------


def _covered(targets: list, images: list) -> bool:
    """Each target set is exactly the union of the images inside it."""
    return all(t == set().union(*(im for im in images if im <= t)) for t in targets)


def iso_conditions(x: Qrt | LabeledTheory, y: Qrt | LabeledTheory) -> dict:
    """Evaluate, at the labeled level, the three conditions that govern
    when two theories have isomorphic translations:

      i   a system bijection with matching dimensions exists,
      ii  some such bijection also matches named-state counts and carries
          the free set (atom truth values) onto the other free set,
      iii under a bijection found in (ii), every induced function's image
          is exactly a union of images of the other theory's functions on
          the corresponding system pair (checked in both directions; true
          if at least one candidate bijection works).

    (i) and (ii) are multiset tests: of dims, and of (dim, state count,
    true-atom count) per system, the key of the view each theory caches
    (``_view``). When (i) fails, (ii) and (iii) range over all system
    bijections and (ii) drops the dim. Only (iii) searches, and only when
    the two ``flow_key``s agree: a theory's flow key adds to each system's
    profile its out- and in-degree in the relation "some function runs
    a -> b, with a != b and a holding a named state", and the number of
    its states that functions from other systems hit.

    Unequal flow keys leave no bijection that meets (iii). Let m meet
    (iii), and take a != b. Each x-image on (a, b) is a union of y-images
    on (m(a), m(b)), so the union of x's images on (a, b) maps into the
    union of y's on the mapped pair, and the converse holds the same way:
    m carries the one union onto the other. So b and m(b) have equally
    many states hit from other systems. A function from a system with a
    named state has a non-empty image, so it covers a non-empty union,
    and the mapped pair has a function too, whose source m(a) has as
    many named states as a; the converse holds the same way. So m keeps
    the relation, and with it each system's degrees. (A function from a
    stateless system has the empty image, which the other side need not
    match, so such a function is not in the relation.) m keeps each
    system's profile, so the keys are equal.

    Scope: access out of a system with no named state is invisible to
    (i)-(iii). Two theories that differ only by a channel out of such a
    system meet all three while their translations differ by that access
    pair, so the conditions speak only for theories in which every
    channel's source holds a named state; ``tests/test_harness.py``
    pins the counterexample (``stateless_gap_family``). A translation
    forgets dims, so (i) is not necessary for isomorphic models
    (``dims_gap_family``).

    The operands that are ``Qrt``s derive in one pass before either is
    read; nothing is validated."""

    def image_cover(a: str, b: str, m: dict) -> bool:
        fx = x.functions.get((a, b), {})
        fy = y.functions.get((m[(a,)][0], m[(b,)][0]), {})
        images_x = [frozenset(m[(b, img)][1] for _, img in key) for key in fx]
        images_y = [frozenset(img for _, img in key) for key in fy]
        return _covered(images_x, images_y) and _covered(images_y, images_x)

    _derive_maps(t for t in (x, y) if isinstance(t, Qrt))
    dims = sorted(s.dim for s in x.systems) == sorted(s.dim for s in y.systems)
    view_x, view_y = x._view(dims), y._view(dims)
    if view_x[0] != view_y[0]:
        return {"i": dims, "ii": False, "iii": False}
    if x.flow_key(dims) != y.flow_key(dims):
        return {"i": dims, "ii": True, "iii": False}
    return {"i": dims, "ii": True, "iii": _labeled_bijection(view_x, view_y, image_cover) is not None}


# -- conditions a model must satisfy to be a translation image ----------------


def unit_world_candidates(m: KripkeModel) -> list:
    """Worlds that can play the unit role: singleton domain, disjoint
    from every other domain, with an edge to every world carrying a true
    atom. Sorted; possibly empty."""
    succ, true = _index(m)
    needy = {w for w, atoms in true.items() if atoms}
    held = Counter(p for dom in m.domains.values() for p in dom)
    return [
        c for c, row in succ.items()
        if len(m.domains[c]) == 1 and held[min(m.domains[c])] == 1 and needy.issubset(row)
    ]


def image_conditions(m: KripkeModel) -> dict:
    """Necessary conditions for a model to be the translation of some
    theory:

      i   truth is monotone along accessibility: an edge never leads from
          a world with true atoms to one with none,
      ii  a unit world exists: singleton domain, disjoint from every other
          domain, with an edge to every world carrying a true atom.

    Returns {"i": bool, "ii": bool, "c_world": world or None, "witness_i": ...}.
    """
    succ, true = _index(m)
    witness = next(((w, u) for w, row in succ.items() for u in row if true[w] and not true[u]), None)
    candidates = unit_world_candidates(m)
    c_world = candidates[0] if candidates else None
    return {"i": witness is None, "ii": c_world is not None, "c_world": c_world, "witness_i": witness}


def monotone_violations(rec: TranslationRecord) -> list:
    """The conversion edges (source node, target node, channel id) of rec,
    sorted, that lead from a true atom to an untrue one: a free state
    converted into a resource, which monotonicity of truth forbids."""
    truth = rec.model.interp
    return [
        (src, dst, cid)
        for src, dst, cid in sorted(rec.edges)
        if truth[node_name(src)] == 1 and truth[node_name(dst)] == 0
    ]


# -- functor laws --------------------------------------------------------------


def verify_functoriality(cases: Iterable[tuple[Qrt, Sequence, Sequence]]) -> list[dict]:
    """For each case (x, renamings, sub-theories), check that translation
    respects identity, relabeling and inclusion. One report per case, in
    order.

    A renaming is the (sys_map, state_maps) pair that ``relabeled`` takes.
    The copy ``x.labeled.relabeled(*renaming)`` must translate to x's
    model and order with each world and atom renamed as the renaming says:
    a functor sends the relabeling to that one map, so the law is an
    equation, decided without a search. Restrictions must give sub-models,
    and the nested restriction an inclusion into both.

    Copies of ``x.labeled`` (``relabeled``, ``restricted``; the nested
    restriction is one) translate without validating or deriving: the
    check is of the translation, not of the numerics. Each case's
    ``rebuilt``, a fresh theory over x's declarations derived with those
    of the other cases in one batch (``derive``), is the one independent
    derivation: it shares no outcome and no record with x, and the
    identity law compares its model and its order with x's.

    A case whose theories do not all translate, or whose renaming gives
    two systems or two states of one system one name, reports ``ok``
    false and the ``error`` raised (a QrtModalError); any other exception
    propagates."""
    pending = deque((x, Qrt(x.systems, x.channels, x.trivial_id, x.tol), rns, subs) for x, rns, subs in cases)
    derive(rebuilt for _, rebuilt, _, _ in pending)
    reports = []
    while pending:  # a case goes once reported, so the records of its theories do not pile up
        reports.append(_functor_laws(*pending.popleft()))
    return reports


def _transported(rec: TranslationRecord, new: dict) -> tuple[KripkeModel, frozenset]:
    """rec's model and order with each world and atom renamed as ``new``,
    a ``_renaming`` map, renames its system and state."""
    world = {sid: w for sid, (w, _) in new.items()}
    atom = {
        node_name((sid, st)): node_name((w, t)) for sid, (w, states) in new.items() for st, t in states.items()
    }
    m = rec.model
    model = KripkeModel(
        (world[w] for w in m.worlds),
        ((world[u], world[v]) for u, v in m.access),
        (atom[p] for p in m.domain),
        {world[w]: [atom[p] for p in dom] for w, dom in m.domains.items()},
        {atom[p]: v for p, v in m.interp.items()},
    )
    return model, frozenset((atom[a], atom[b]) for a, b in rec.order)


def _functor_laws(x: Qrt, rebuilt: Qrt, renamings: Sequence, sub_qrts: Sequence) -> dict:
    """``verify_functoriality``'s report of one case, with its rebuilt
    theory."""
    subs = list(sub_qrts)
    # a composite of two inclusions is itself an inclusion
    s = next((s for s in subs if len(s.systems) > 1), None)
    try:
        base, again, lab = to_model(x), to_model(rebuilt), x.labeled
        relabeled = [(to_model(lab.relabeled(*rn)), _transported(base, _renaming(lab.systems, *rn))) for rn in renamings]
        restricted = [to_model(t).model for t in subs]
        inner = None if s is None else to_model(s.labeled.restricted([t.id for t in s.systems][:-1])).model
    except QrtModalError as exc:
        return {"ok": False, "error": str(exc)}
    report: dict = {
        # two independent derivations are compared
        "identity": again.model == base.model and again.order == base.order,
        "relabelings": [(rec.model, rec.order) == want for rec, want in relabeled],
        "sub_models": [bool(is_sub_model(m, base.model)) for m in restricted],
        "nested": None,
    }
    if s is not None:
        report["nested"] = bool(is_sub_model(inner, to_model(s).model) and is_sub_model(inner, base.model))
    # a nested None, no nested inclusion, fails no law
    report["ok"] = False not in [report["identity"], *report["sub_models"], *report["relabelings"], report["nested"]]
    return report


def verify_starred_injectivity(pairs: Iterable[tuple[str, Qrt | LabeledTheory, Qrt | LabeledTheory]]) -> dict:
    """For each (label, a, b): starred-isomorphic translations must come
    from labeled-isomorphic sources, decided on their ``labeled`` forms,
    which translating them has made. Reports every violation as a
    falsification candidate; search-cap overruns are recorded as
    inconclusive, and a pair whose translation or starred model does not
    build as an error, which fails the sweep. Each entry names its pair
    by its label."""
    entries = []
    falsifications = 0
    inconclusive = 0
    for label, a, b in pairs:
        entry: dict = {"pair": label}
        try:
            star_a = to_model(a).starred
            star_b = to_model(b).starred
            # unequal cached keys leave no isomorphism, so no call is made
            keyed = model_key(star_a) == model_key(star_b)
            star_ok, star_wit = starred_isomorphic(star_a, star_b) if keyed else (False, None)
            entry["starred_isomorphic"] = bool(star_ok)
            if star_ok:
                src_ok = qrt_isomorphic(a.labeled, b.labeled)[0]
                entry["sources_isomorphic"] = bool(src_ok)
                if not src_ok:
                    entry["verdict"] = "falsification-candidate"
                    entry["witness"] = {
                        "world_map": star_wit[0],
                        "atom_map": star_wit[1],
                    }
                    falsifications += 1
                else:
                    entry["verdict"] = "consistent"
            else:
                entry["verdict"] = "consistent"
        except ResourceLimitError as exc:
            entry["verdict"] = "inconclusive"
            entry["reason"] = str(exc)
            inconclusive += 1
        except QrtModalError as exc:
            entry.update(verdict="error", error=str(exc))
        entries.append(entry)
    return {
        "entries": entries,
        "falsifications": falsifications,
        "inconclusive": inconclusive,
        "ok": falsifications == 0 and all(e["verdict"] != "error" for e in entries),
    }
