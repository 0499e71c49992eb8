"""Translation of finite theories into variable-domain S4 models.

Worlds are the systems, atoms are the qualified named states, accessibility
records channel existence, and an atom is true exactly when its state is
free. The starred translation is the same model with the convertibility
preorder carried onto the global domain. The unit axiom is enforced on every
generated model: when a trivial system exists, its unique atom is true.

All theorem-condition oracles in this module work at the labeled
(named-state) level; reports should be read with that scope in mind.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .config import MAX_ISO_NODES
from .errors import ResourceLimitError, StructuralError
from .kripke import (
    KripkeModel,
    StarredModel,
    is_s4,
    is_sub_model,
    models_isomorphic,
    starred_isomorphic,
)
from .qrt import Qrt, _labeled_bijections, node_name, qrt_isomorphic, sub_qrt
from .relations import Budget


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


# theory -> its record; an entry goes when its theory is freed
_records: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def to_model(q: Qrt) -> TranslationRecord:
    """The translation of a valid, composition-complete theory, with the
    preorder on atoms. The record is built once per theory and shared by
    later calls; a build that raises memoises nothing."""
    try:
        return _records[q]
    except KeyError:
        rec = _records[q] = _translate(q)
        return rec


def to_starred_model(q: Qrt) -> TranslationRecord:
    """to_model's record, whose ``starred`` is the starred model."""
    return to_model(q)


def _true_nodes(q: Qrt) -> frozenset:
    """The states whose atoms are true: the free states, and the trivial
    state by the unit axiom."""
    return q.free_states | {q.trivial_node} if q.trivial_node else q.free_states


def _translate(q: Qrt) -> TranslationRecord:
    # validate reports composition-closure issues, so ok implies complete
    report = q.validate()
    if not report.ok:
        raise StructuralError(f"source theory is invalid: {report.text()}")
    true = _true_nodes(q)
    model = KripkeModel(
        {s.id for s in q.systems},
        set(q.functions),
        {node_name(n) for n in q.nodes},
        {s.id: frozenset(node_name((s.id, st)) for st in s.states) for s in q.systems},
        {node_name(n): int(n in true) for n in q.nodes},
    )
    ok, witness = is_s4(model)
    if not ok:
        raise StructuralError(f"translated model is not S4 (witness {witness})")
    order = frozenset((node_name(a), node_name(b)) for a, b in q.preorder)
    c_world = q.trivial_id if q.trivial_node is not None else None
    return TranslationRecord(q.edges, model, order, c_world)


# -- conditions under which two translations are isomorphic -------------------


def _covered(targets: list, images: list) -> bool:
    """Each target set is exactly the union of the images inside it."""
    return all(t == set().union(*(im for im in images if im <= t)) for t in targets)


def iso_conditions(
    x: Qrt, y: Qrt, max_nodes: int = MAX_ISO_NODES
) -> dict:
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
    true-atom count) per system. When (i) fails, (ii) and (iii) range over
    all system bijections and (ii) drops the dim. Only (iii) searches."""

    def image_cover(a: str, b: str, m: dict) -> bool:
        fx = x.functions.get((a, b), {})
        fy = y.functions.get((m[(a,)][0], m[(b,)][0]), {})
        images_x = [frozenset(m[(b, img)][1] for _, img in key) for key in fx]
        images_y = [frozenset(img for _, img in key) for key in fy]
        return _covered(images_x, images_y) and _covered(images_y, images_x)

    dims = sorted(s.dim for s in x.systems) == sorted(s.dim for s in y.systems)
    found = _labeled_bijections(
        x, y, _true_nodes(x), _true_nodes(y), dims, image_cover, Budget(max_nodes)
    )
    return {
        "i": dims,
        "ii": found is not None,
        "iii": found is not None and next(found, None) is not None,
    }


# -- conditions a model must satisfy to be a translation image ----------------


def true_atoms(m: KripkeModel, w: str) -> frozenset:
    return frozenset(p for p in m.domains[w] if m.interp[p] == 1)


def unit_world_candidates(m: KripkeModel) -> list:
    """Worlds that can play the unit role: singleton domain, disjoint
    from every other domain, with an edge to every world carrying a true
    atom. Sorted; possibly empty."""
    needy = [w for w in m.worlds if true_atoms(m, w)]
    out = []
    for c in sorted(m.worlds):
        if len(m.domains[c]) != 1:
            continue
        if any(m.domains[c] & m.domains[w] for w in m.worlds if w != c):
            continue
        if all((c, w) in m.access for w in needy):
            out.append(c)
    return out


def image_conditions(m: KripkeModel) -> dict:
    """Necessary conditions for a model to be the translation of some
    theory:

      i   truth is monotone along accessibility: an edge never leads from
          a world with true atoms to one with none,
      ii  a unit world exists: singleton domain, disjoint from every other
          domain, with an edge to every world carrying a true atom.

    Returns {"i": bool, "ii": bool, "c_world": world or None, "witness_i": ...}.
    """
    witness = None
    ok_i = True
    for (w, u) in sorted(m.access):
        if not true_atoms(m, u) and true_atoms(m, w):
            ok_i = False
            witness = (w, u)
            break
    candidates = unit_world_candidates(m)
    c_world = candidates[0] if candidates else None
    return {"i": ok_i, "ii": c_world is not None, "c_world": c_world, "witness_i": witness}


# -- functor laws --------------------------------------------------------------


def verify_functoriality(
    x: Qrt, relabelings: Sequence[Qrt] = (), sub_qrts: Sequence[Qrt] = ()
) -> dict:
    """Check that translation respects identity, isomorphism, and
    inclusion: relabeled sources give isomorphic models, restrictions give
    sub-models, and the identity inclusion is preserved."""
    base = to_model(x)
    report: dict = {"identity": False, "relabelings": [], "sub_models": [], "nested": None}
    # a fresh theory, so that two independent derivations are compared
    rebuilt = to_model(Qrt(x.systems, x.channels, x.trivial_id, x.tol))
    report["identity"] = rebuilt.model == base.model and is_sub_model(base.model, base.model)
    for r in relabelings:
        ok, _ = models_isomorphic(base.model, to_model(r).model)
        report["relabelings"].append(bool(ok))
    subs = list(sub_qrts)
    for s in subs:
        report["sub_models"].append(bool(is_sub_model(to_model(s).model, base.model)))
    # a composite of two inclusions is itself an inclusion
    for s in subs:
        if len(s.systems) > 1:
            inner = sub_qrt(s, [t.id for t in s.systems][:-1])
            report["nested"] = bool(
                is_sub_model(to_model(inner).model, to_model(s).model)
                and is_sub_model(to_model(inner).model, base.model)
            )
            break
    oks = [report["identity"], *report["relabelings"], *report["sub_models"]]
    if report["nested"] is not None:
        oks.append(report["nested"])
    report["ok"] = all(oks)
    return report


def verify_starred_injectivity(
    pairs: Iterable[tuple[Qrt, Qrt]],
    max_nodes: int = MAX_ISO_NODES,
    labels: Sequence[str] | None = None,
) -> dict:
    """For each pair: starred-isomorphic translations must come from
    labeled-isomorphic sources. Reports every violation as a falsification
    candidate; search-cap overruns are recorded as inconclusive."""
    entries = []
    falsifications = 0
    inconclusive = 0
    for idx, (a, b) in enumerate(pairs):
        label = labels[idx] if labels else str(idx)
        entry: dict = {"pair": label}
        try:
            star_a = to_starred_model(a).starred
            star_b = to_starred_model(b).starred
            star_ok, star_wit = starred_isomorphic(star_a, star_b, max_nodes)
            entry["starred_isomorphic"] = bool(star_ok)
            if star_ok:
                src_ok, src_wit = qrt_isomorphic(a, b, max_nodes)
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
        entries.append(entry)
    return {
        "entries": entries,
        "falsifications": falsifications,
        "inconclusive": inconclusive,
        "ok": falsifications == 0,
    }
