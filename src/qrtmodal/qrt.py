"""Finite quantum resource theories over a named state universe.

A theory is a set of named systems (each with finitely many named states),
a set of CPTP channels between them, and an optional trivial
one-dimensional system. Free states are never supplied: they are computed
as the states convertible from the trivial system's unique state.

Channels are identified extensionally by the function they induce on the
named universe; matching an output matrix to a named state uses the
nearest-within-eps_match rule, with ambiguity treated as a validation
error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES, MAX_CHANNELS, MAX_ISO_NODES, Tolerances
from .errors import ResourceLimitError, StructuralError
from .linalg import (
    DensityMatrix,
    KrausChannel,
    apply_channel,
    compose,
    identity_channel,
    is_cptp,
    trace_distance,
)
from .relations import Budget, bijections, reflexive_transitive_closure

ID_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

Node = tuple  # (system id, state id)


def node_name(node: Node) -> str:
    """The globally unique qualified name, 'system.state'."""
    return f"{node[0]}.{node[1]}"


@dataclass(frozen=True, eq=False)
class SystemDecl:
    id: str
    dim: int
    states: Mapping[str, DensityMatrix] = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class ChannelDecl:
    id: str
    src: str
    dst: str
    channel: KrausChannel


@dataclass(frozen=True)
class Issue:
    code: str
    subject: str
    message: str

    def to_dict(self) -> dict:
        return {"code": self.code, "subject": self.subject, "message": self.message}


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple

    @property
    def ok(self) -> bool:
        return not self.issues

    def to_dict(self) -> dict:
        return {"ok": self.ok, "issues": [i.to_dict() for i in self.issues]}

    def text(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(f"[{i.code}] {i.subject}: {i.message}" for i in self.issues)


def _matrix_is_identity(c: KrausChannel) -> bool:
    if c.in_dim != c.out_dim or len(c.kraus_ops) != 1:
        return False
    return bool(np.allclose(c.kraus_ops[0], np.eye(c.in_dim), atol=1e-12))


class Qrt:
    """An immutable finite theory.

    Every derived artifact (the induced function of each channel, the
    validation report, the edges, the preorder and the free states) is
    computed at most once per instance and memoised on it. Changing a
    ``SystemDecl.states`` mapping after construction is therefore
    unsupported: the memos would go stale."""

    def __init__(
        self,
        systems: Sequence[SystemDecl],
        channels: Sequence[ChannelDecl] = (),
        trivial: str | None = None,
        tol: Tolerances = DEFAULT_TOLERANCES,
    ):
        self._systems = tuple(systems)
        self._by_id = {s.id: s for s in self._systems}
        chans = list(channels)
        taken = {c.id for c in chans}
        # the identity channel on every system is mandatory; add it when absent
        for s in self._systems:
            if any(
                c.src == s.id and c.dst == s.id and _matrix_is_identity(c.channel)
                for c in chans
            ):
                continue
            cid = f"id_{s.id}"
            while cid in taken:
                cid += "_"
            taken.add(cid)
            chans.append(ChannelDecl(cid, s.id, s.id, identity_channel(s.dim)))
        self._channels = tuple(chans)
        if trivial is None:
            ones = [s.id for s in self._systems if s.dim == 1]
            trivial = ones[0] if len(ones) == 1 else None
        self._trivial = trivial
        self.tol = tol
        # ChannelDecl -> induced function, None (an image misses the named
        # universe) or the message of an ambiguous match
        self._induced: dict = {}

    # immutability is by convention: derived data is memoised per instance,
    # so neither the declarations nor their state mappings may change

    @property
    def systems(self) -> tuple:
        return self._systems

    @property
    def channels(self) -> tuple:
        return self._channels

    @property
    def trivial_id(self) -> str | None:
        return self._trivial

    def system(self, sid: str) -> SystemDecl:
        return self._by_id[sid]

    @cached_property
    def nodes(self) -> tuple:
        return tuple(
            (s.id, st) for s in self._systems for st in sorted(s.states)
        )

    def match_named(self, sid: str, dm: DensityMatrix) -> str | None:
        """The unique named state of system sid within eps_match, or None.

        Raises StructuralError when more than one named state matches."""
        hits = [
            st
            for st, named in self._by_id[sid].states.items()
            if trace_distance(dm, named) <= self.tol.eps_match
        ]
        if len(hits) > 1:
            raise StructuralError(
                f"ambiguous match in system {sid}: {sorted(hits)}"
            )
        return hits[0] if hits else None

    def _function(self, decl: ChannelDecl) -> dict | None:
        """The map named-state -> named-state realized by the channel, or
        None when some image misses the named universe. Derived once per
        channel and shared, so readers must not change it.

        Raises StructuralError when an image matches more than one named
        state, on every call."""
        try:
            fn = self._induced[decl]
        except KeyError:
            fn = self._induced[decl] = self._derive_function(decl)
        if isinstance(fn, str):
            raise StructuralError(fn)
        return fn

    def _derive_function(self, decl: ChannelDecl) -> dict | str | None:
        # an ambiguity is kept as its message: a stored exception would keep
        # its traceback's frames alive
        out: dict[str, str] = {}
        for st, dm in self._by_id[decl.src].states.items():
            image = apply_channel(decl.channel, dm, self.tol)
            try:
                hit = self.match_named(decl.dst, image)
            except StructuralError as exc:
                return str(exc)
            if hit is None:
                return None
            out[st] = hit
        return out

    @cached_property
    def functions(self) -> dict:
        """{(src, dst): {function key: representative channel id}} with
        extensional deduplication. Function keys are sorted item tuples."""
        table: dict = {}
        for decl in self._channels:
            fn = self._function(decl)
            if fn is None:
                raise StructuralError(
                    f"channel {decl.id} does not preserve the named universe"
                )
            key = tuple(sorted(fn.items()))
            table.setdefault((decl.src, decl.dst), {}).setdefault(key, decl.id)
        return table

    @cached_property
    def edges(self) -> frozenset:
        """The conversion edges: (source node, target node, channel id) for
        every channel and named source state."""
        edges = set()
        for decl in self._channels:
            fn = self._function(decl)
            if fn is None:
                raise StructuralError(
                    f"channel {decl.id} does not preserve the named universe"
                )
            for st, img in fn.items():
                edges.add(((decl.src, st), (decl.dst, img), decl.id))
        return frozenset(edges)

    @cached_property
    def trivial_node(self) -> Node | None:
        if self._trivial is None:
            return None
        states = sorted(self._by_id[self._trivial].states)
        if len(states) != 1:
            return None
        return (self._trivial, states[0])

    # -- validation -----------------------------------------------------------

    def validate(self) -> ValidationReport:
        """The validation report, computed once per instance."""
        return self._report

    @cached_property
    def _report(self) -> ValidationReport:
        issues: list[Issue] = []
        seen_sys: set[str] = set()
        for s in self._systems:
            if not ID_RE.match(s.id):
                issues.append(Issue("bad-id", s.id, "system id is not an identifier"))
            if s.id in seen_sys:
                issues.append(Issue("duplicate-id", s.id, "duplicate system id"))
            seen_sys.add(s.id)
            for st, dm in s.states.items():
                if not ID_RE.match(st):
                    issues.append(
                        Issue("bad-id", f"{s.id}.{st}", "state id is not an identifier")
                    )
                if dm.dim != s.dim:
                    issues.append(
                        Issue(
                            "dim-mismatch",
                            f"{s.id}.{st}",
                            f"state dim {dm.dim} != system dim {s.dim}",
                        )
                    )
            # ambiguity: two named states closer than the matching radius allows
            names = sorted(s.states)
            for i, st1 in enumerate(names):
                for st2 in names[i + 1:]:
                    if s.states[st1].dim != s.states[st2].dim:
                        continue
                    d = trace_distance(s.states[st1], s.states[st2])
                    if d <= 2 * self.tol.eps_match:
                        issues.append(
                            Issue(
                                "ambiguous-states",
                                f"{s.id}.{st1}/{st2}",
                                f"named states only {d:.3e} apart",
                            )
                        )

        ones = [s for s in self._systems if s.dim == 1]
        if len(ones) > 1:
            issues.append(
                Issue("bad-trivial", ",".join(s.id for s in ones), "more than one one-dimensional system")
            )
        for s in ones:
            if len(s.states) != 1:
                issues.append(
                    Issue("bad-trivial", s.id, "the trivial system must have exactly one state")
                )
        if self._trivial is not None:
            t = self._by_id.get(self._trivial)
            if t is None:
                issues.append(Issue("bad-trivial", self._trivial, "trivial system not declared"))
            elif t.dim != 1:
                issues.append(Issue("bad-trivial", self._trivial, "trivial system must have dim 1"))

        seen_ch: set[str] = set()
        closure_ok = True
        for decl in self._channels:
            if decl.id in seen_ch:
                issues.append(Issue("duplicate-id", decl.id, "duplicate channel id"))
            seen_ch.add(decl.id)
            if decl.src not in self._by_id or decl.dst not in self._by_id:
                issues.append(
                    Issue("unknown-system", decl.id, f"endpoints {decl.src}->{decl.dst} undeclared")
                )
                closure_ok = False
                continue
            src, dst = self._by_id[decl.src], self._by_id[decl.dst]
            if decl.channel.in_dim != src.dim or decl.channel.out_dim != dst.dim:
                issues.append(
                    Issue(
                        "dim-mismatch",
                        decl.id,
                        f"kraus shape {decl.channel.out_dim}x{decl.channel.in_dim} "
                        f"!= {dst.dim}x{src.dim}",
                    )
                )
                closure_ok = False
                continue
            ok, why = is_cptp(decl.channel, self.tol)
            if not ok:
                issues.append(Issue("non-cptp", decl.id, why))
                closure_ok = False
                continue
            try:
                fn = self._function(decl)
            except StructuralError as exc:
                issues.append(Issue("state-closure", decl.id, str(exc)))
                closure_ok = False
                continue
            if fn is None:
                issues.append(
                    Issue(
                        "state-closure",
                        decl.id,
                        "some named state's image matches no named state",
                    )
                )
                closure_ok = False

        if closure_ok:
            for s in self._systems:
                fns = self.functions.get((s.id, s.id), {})
                ident = tuple(sorted((st, st) for st in s.states))
                if ident not in fns:
                    issues.append(
                        Issue("missing-identity", s.id, "no channel induces the identity")
                    )
            for (a, b, c), key in self._missing_compositions:
                issues.append(
                    Issue(
                        "composition-closure",
                        f"{a}->{b}->{c}",
                        "composite state function is not induced by any channel",
                    )
                )
        return ValidationReport(tuple(issues))

    @cached_property
    def _missing_compositions(self) -> list:
        """Composable function pairs whose composite is not in the table."""
        missing = []
        table = self.functions
        for (a, b), fns in sorted(table.items()):
            for (b2, c), gns in sorted(table.items()):
                if b2 != b:
                    continue
                have = table.get((a, c), {})
                for fkey in sorted(fns):
                    f = dict(fkey)
                    for gkey in sorted(gns):
                        g = dict(gkey)
                        comp = tuple(sorted((s, g[f[s]]) for s in f))
                        if comp not in have:
                            missing.append(((a, b, c), comp))
        return missing

    def is_composition_complete(self) -> bool:
        return not self._missing_compositions

    # -- derived structure ----------------------------------------------------

    @cached_property
    def free_states(self) -> frozenset:
        """Named states convertible from the trivial state: its up-set in
        the preorder. The trivial state itself is excluded (it is neither
        free nor a resource)."""
        start = self.trivial_node
        if start is None:
            if any(
                self._by_id[d.src].dim == 1 for d in self._channels if d.src in self._by_id
            ):
                raise StructuralError("preparations declared but no trivial system")
            return frozenset()
        return frozenset(b for a, b in self.preorder if a == start and b != start)

    @cached_property
    def resource_states(self) -> frozenset:
        start = self.trivial_node
        out = set(self.nodes) - self.free_states
        if start is not None:
            out.discard(start)
        return frozenset(out)

    @cached_property
    def preorder(self) -> frozenset:
        """Convertibility: reflexive-transitive reachability over edges."""
        return reflexive_transitive_closure(((a, b) for a, b, _ in self.edges), self.nodes)


def complete_composition(q: Qrt, max_channels: int = MAX_CHANNELS) -> Qrt:
    """Close the channel set under composition at the induced-function
    level. New channels are synthesized by Kraus composition and
    deduplicated extensionally; idempotent on already-closed theories."""
    decls = list(q.channels)
    by_fn: dict = {}
    for d in decls:
        fn = q._function(d)
        if fn is None:
            raise StructuralError(f"channel {d.id} breaks state closure")
        by_fn[(d.src, d.dst, tuple(sorted(fn.items())))] = d
    counter = 0
    changed = True
    while changed:
        changed = False
        items = sorted(by_fn.items(), key=lambda kv: (kv[0][0], kv[0][1], kv[0][2]))
        for (a, b, fkey), fd in items:
            for (b2, c, gkey), gd in items:
                if b2 != b:
                    continue
                f, g = dict(fkey), dict(gkey)
                comp_key = tuple(sorted((s, g[f[s]]) for s in f))
                if (a, c, comp_key) in by_fn:
                    continue
                if len(by_fn) + 1 > max_channels:
                    raise ResourceLimitError(
                        f"composition closure exceeds {max_channels} functions"
                    )
                cid = f"comp_{counter}"
                counter += 1
                existing = {d.id for d in by_fn.values()}
                while cid in existing:
                    cid = f"comp_{counter}"
                    counter += 1
                new = ChannelDecl(cid, a, c, compose(gd.channel, fd.channel))
                by_fn[(a, c, comp_key)] = new
                changed = True
    order = {d.id: i for i, d in enumerate(decls)}
    out = sorted(
        by_fn.values(), key=lambda d: (order.get(d.id, len(order)), d.id)
    )
    closed = Qrt(q.systems, out, q.trivial_id, q.tol)
    # same systems and tolerances: q's kept channels induce the same functions
    closed._induced.update((d, q._induced[d]) for d in out if d in q._induced)
    return closed


def is_sub_qrt(x: Qrt, y: Qrt) -> bool:
    """x's systems embed by id into y's, and x's induced-function set is
    exactly y's restricted to those systems."""
    for s in x.systems:
        t = next((u for u in y.systems if u.id == s.id), None)
        if t is None or t.dim != s.dim or set(t.states) != set(s.states):
            return False
        for st in s.states:
            if trace_distance(s.states[st], t.states[st]) > x.tol.eps_match:
                return False
    kept = {s.id for s in x.systems}
    restricted: dict = {}
    for (a, b), fns in y.functions.items():
        if a in kept and b in kept:
            restricted[(a, b)] = set(fns)
    mine = {pair: set(fns) for pair, fns in x.functions.items()}
    return mine == restricted


def _labeled_bijections(
    x: Qrt, y: Qrt, marked_x: frozenset, marked_y: frozenset, match_dims: bool,
    pair_ok: Callable, budget: Budget,
) -> Iterator[dict] | None:
    """The bijections, each one map on the vertices (system,) and (system,
    state), that keep each system's profile (dim if ``match_dims``, state
    count, marked-state count), send each state into its system's image
    and marked states onto marked ones, and satisfy ``pair_ok(a, b, m)``
    on every ordered pair of x's systems once both are complete. None,
    with no search, when the multisets of profiles differ."""

    def profiles(q: Qrt, marked: frozenset) -> dict:
        held: dict = {}
        for sid, _ in marked:
            held[sid] = held.get(sid, 0) + 1
        return {
            s.id: (s.dim if match_dims else 0, len(s.states), held.get(s.id, 0))
            for s in q.systems
        }

    profile_x, profile_y = profiles(x, marked_x), profiles(y, marked_y)
    if sorted(profile_x.values()) != sorted(profile_y.values()):
        return None

    def structure(q: Qrt, profile: dict, marked: frozenset) -> tuple[dict, dict]:
        colour, links = {}, {}
        for s in q.systems:
            colour[(s.id,)], links[(s.id,)] = profile[s.id], {}
            for st in sorted(s.states):
                colour[(s.id, st)] = (profile[s.id], (s.id, st) in marked)
                links[(s.id,)][(s.id, st)] = 1
                links[(s.id, st)] = {(s.id,): 1}
        return colour, links

    members = {s.id: [(s.id,), *((s.id, st) for st in s.states)] for s in x.systems}

    def fits(v, w, m) -> bool:
        done = [b for b, vs in members.items() if all(u in m for u in vs)]
        a = v[0]
        return a not in done or all(pair_ok(a, b, m) and pair_ok(b, a, m) for b in done)

    colour_x, links_x = structure(x, profile_x, marked_x)
    colour_y, links_y = structure(y, profile_y, marked_y)
    return bijections(colour_x, colour_y, links_x, links_y, fits, budget)


def qrt_isomorphic(
    x: Qrt, y: Qrt, max_nodes: int = MAX_ISO_NODES
) -> tuple[bool, tuple[dict, dict] | None]:
    """Labeled-structure isomorphism: a bijection of systems (matching
    dims) plus per-system bijections of named states that carry x's
    induced state functions and free set onto y's.

    A positive answer certifies isomorphism of the induced labeled
    structures only; whether the bijection lifts to Hilbert-space
    isomorphisms intertwining the channel matrices is not decided here."""

    def transported(a: str, b: str, m: dict) -> bool:
        fx = x.functions.get((a, b), {})
        fy = y.functions.get((m[(a,)][0], m[(b,)][0]), {})
        return len(fx) == len(fy) and {
            tuple(sorted((m[(a, s)][1], m[(b, i)][1]) for s, i in key)) for key in fx
        } == fy.keys()

    found = _labeled_bijections(
        x, y, x.free_states, y.free_states, True, transported, Budget(max_nodes)
    )
    for m in found or ():
        sys_map = {v[0]: w[0] for v, w in m.items() if len(v) == 1}
        return True, (sys_map, {v: w for v, w in m.items() if len(v) == 2})
    return False, None


def relabel_qrt(q: Qrt, sys_map: Mapping[str, str], state_maps: Mapping[str, Mapping[str, str]]) -> Qrt:
    """A copy of q with systems and states renamed. Channel matrices and
    structure are untouched."""
    systems = []
    for s in q.systems:
        smap = state_maps.get(s.id, {})
        systems.append(
            SystemDecl(
                sys_map.get(s.id, s.id),
                s.dim,
                {smap.get(st, st): dm for st, dm in s.states.items()},
            )
        )
    channels = [
        ChannelDecl(d.id, sys_map.get(d.src, d.src), sys_map.get(d.dst, d.dst), d.channel)
        for d in q.channels
    ]
    trivial = sys_map.get(q.trivial_id, q.trivial_id) if q.trivial_id else None
    return Qrt(systems, channels, trivial, q.tol)


def sub_qrt(q: Qrt, keep: Iterable[str]) -> Qrt:
    """The restriction of q to the given systems: channels with any
    dropped endpoint are removed."""
    kept = set(keep)
    systems = [s for s in q.systems if s.id in kept]
    if not systems:
        raise StructuralError("a sub-theory needs at least one system")
    channels = [d for d in q.channels if d.src in kept and d.dst in kept]
    trivial = q.trivial_id if q.trivial_id in kept else None
    return Qrt(systems, channels, trivial, q.tol)
