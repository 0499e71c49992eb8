"""The shipped example corpus.

Positive examples: the trivial theory, a preparation chain, a two-qubit
entanglement theory whose only resource is a Bell state, a convexity
demonstration pair, and the automorphism-twisted pair family that makes
the plain translation non-injective.

Negative controls: a non-trace-preserving channel, models violating the
image conditions, a starred model whose category is not closed under
composition, a theory pair on which the isomorphism conditions and the
model oracle disagree, and a pair that the starred-injectivity checker
must flag.
"""

from __future__ import annotations

import math

import numpy as np

from .kripke import KripkeModel, StarredModel
from .linalg import (
    DensityMatrix,
    KrausChannel,
    basis_state,
    constant_channel,
    function_channel,
    maximally_mixed,
    preparation_channel,
    scalar_one,
)
from .qrt import ChannelDecl, Qrt, SystemDecl, complete_composition


def _prep(cid: str, dst: str, rho: DensityMatrix) -> ChannelDecl:
    return ChannelDecl(cid, "c", dst, preparation_channel(rho))


def trivial_qrt() -> Qrt:
    return complete_composition(
        Qrt([SystemDecl("c", 1, {"one": scalar_one()})])
    )


def chain_qrt() -> Qrt:
    """Preparation into A, then a channel on to B: free = {A.rho, B.sigma}."""
    rho = basis_state(2, 0)
    plus = DensityMatrix(np.full((2, 2), 0.5, dtype=complex))
    systems = [
        SystemDecl("c", 1, {"one": scalar_one()}),
        SystemDecl("A", 2, {"rho": rho}),
        SystemDecl("B", 2, {"sigma": plus}),
    ]
    channels = [
        _prep("prep_rho", "A", rho),
        ChannelDecl("fwd", "A", "B", constant_channel(plus, 2)),
    ]
    return complete_composition(Qrt(systems, channels))


def entanglement_qrt() -> Qrt:
    """Two qubits with separable preparations and local channels; the
    named Bell state is the unique resource."""
    a0, a1 = basis_state(2, 0), basis_state(2, 1)
    b0, b1 = basis_state(2, 0), basis_state(2, 1)
    products = {
        f"p{i}{j}": DensityMatrix(np.kron(basis_state(2, i).mat, basis_state(2, j).mat))
        for i in range(2)
        for j in range(2)
    }
    bell_vec = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    bell = DensityMatrix(np.outer(bell_vec, bell_vec.conj()))
    pmix = DensityMatrix(np.diag([0.5, 0, 0, 0.5]).astype(complex))
    systems = [
        SystemDecl("c", 1, {"one": scalar_one()}),
        SystemDecl("A", 2, {"a0": a0, "a1": a1}),
        SystemDecl("B", 2, {"b0": b0, "b1": b1}),
        SystemDecl("AB", 4, {**products, "bell": bell, "pmix": pmix}),
    ]
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    xx = KrausChannel([np.kron(x, x)])  # local flip on both halves; fixes the Bell state
    # local dephasing in the computational basis: diagonal states are fixed,
    # the Bell state collapses onto the (prepared, hence free) even mixture
    dephase = KrausChannel([np.diag(row).astype(complex) for row in np.eye(4)])
    channels = [
        _prep("prep_a0", "A", a0),
        _prep("prep_a1", "A", a1),
        _prep("prep_b0", "B", b0),
        _prep("prep_b1", "B", b1),
        *[
            _prep(f"prep_{name}", "AB", dm)
            for name, dm in sorted(products.items())
        ],
        _prep("prep_pmix", "AB", pmix),
        ChannelDecl("flip_both", "AB", "AB", xx),
        ChannelDecl("dephase", "AB", "AB", dephase),
        ChannelDecl("signal", "A", "B", constant_channel(b0, 2)),
    ]
    return complete_composition(Qrt(systems, channels))


def resource_destroying_qrt() -> Qrt:
    """An erasure channel maps the unprepared (resource) state onto the
    freely prepared one."""
    a0, a1 = basis_state(2, 0), basis_state(2, 1)
    systems = [
        SystemDecl("c", 1, {"one": scalar_one()}),
        SystemDecl("A", 2, {"a0": a0, "a1": a1}),
    ]
    channels = [
        _prep("prep_a0", "A", a0),
        ChannelDecl("erase", "A", "A", constant_channel(a0, 2)),
    ]
    return complete_composition(Qrt(systems, channels))


def convex_closed_qrt() -> Qrt:
    """Convexity holds at every p: the only both-free pairs are diagonal."""
    a0, a1 = basis_state(2, 0), basis_state(2, 1)
    systems = [
        SystemDecl("c", 1, {"one": scalar_one()}),
        SystemDecl("A", 2, {"a0": a0, "a1": a1}),
        SystemDecl("B", 2, {"b0": basis_state(2, 0)}),
    ]
    channels = [_prep("prep_a0", "A", a0), _prep("prep_b0", "B", basis_state(2, 0))]
    return complete_composition(Qrt(systems, channels))


def convexity_demo_qrt() -> Qrt:
    """Three free states whose midpoint is named: the even mixture of the
    basis pair. Combinations at other weights leave the named universe."""
    q0, q1, qmid = basis_state(2, 0), basis_state(2, 1), maximally_mixed(2)
    systems = [
        SystemDecl("c", 1, {"one": scalar_one()}),
        SystemDecl("A", 2, {"q0": q0, "q1": q1, "qmid": qmid}),
    ]
    channels = [
        _prep("prep_q0", "A", q0),
        _prep("prep_q1", "A", q1),
        _prep("prep_qmid", "A", qmid),
    ]
    return complete_composition(Qrt(systems, channels))


# -- the automorphism-twisted family --------------------------------------------


def _xi_base(shift: int, with_collapse: bool) -> Qrt:
    """Both qubits fully prepared; the cross channel maps basis to basis,
    composed with a flip when shift=1. The free set is flip-invariant."""
    r0, r1 = basis_state(2, 0), basis_state(2, 1)
    s0, s1 = basis_state(2, 0), basis_state(2, 1)
    systems = [
        SystemDecl("c", 1, {"one": scalar_one()}),
        SystemDecl("A", 2, {"r0": r0, "r1": r1}),
        SystemDecl("B", 2, {"s0": s0, "s1": s1}),
    ]
    f = [0 ^ shift, 1 ^ shift]
    channels = [
        _prep("prep_r0", "A", r0),
        _prep("prep_r1", "A", r1),
        _prep("prep_s0", "B", s0),
        _prep("prep_s1", "B", s1),
        ChannelDecl("cross", "A", "B", function_channel(f, 2, 2)),
    ]
    if with_collapse:
        channels = [c for c in channels if not c.id.startswith("prep_s")]
        channels.append(ChannelDecl("collapse", "B", "B", constant_channel(s0, 2)))
    return complete_composition(Qrt(systems, channels))


def xi_pair(twisted: bool = True) -> tuple[Qrt, Qrt]:
    """The base theory and its twist by the basis-flip automorphism of the
    target qubit. The flip leaves the free set invariant, so the plain
    translations are isomorphic although the channel matrices differ."""
    return _xi_base(0, False), _xi_base(1 if twisted else 0, False)


def xi_collapse_pair() -> tuple[Qrt, Qrt]:
    """Twist variant with a collapse channel on the target instead of
    target preparations."""
    return _xi_base(0, True), _xi_base(1, True)


def xi_sweep() -> list[tuple[str, Qrt, Qrt]]:
    return [
        ("identity", *xi_pair(twisted=False)),
        ("flip", *xi_pair(twisted=True)),
        ("flip-collapse", *xi_collapse_pair()),
    ]


# -- negative controls -----------------------------------------------------------


def broken_tp_qrt() -> Qrt:
    """A channel that inflates the trace; validation must name it."""
    a0, a1 = basis_state(2, 0), basis_state(2, 1)
    systems = [
        SystemDecl("c", 1, {"one": scalar_one()}),
        SystemDecl("A", 2, {"a0": a0, "a1": a1}),
    ]
    bad = KrausChannel([np.diag([1.0, 1.1]).astype(complex)])
    channels = [_prep("prep_a0", "A", a0), ChannelDecl("inflate", "A", "A", bad)]
    return Qrt(systems, channels)


def iso_gap_pair() -> tuple[Qrt, Qrt]:
    """Identical translations, but one theory has a constant channel whose
    image set no function of the other covers: the isomorphism conditions
    fail although the models are isomorphic."""
    t0, t1 = basis_state(2, 0), basis_state(2, 1)
    base = [
        SystemDecl("c", 1, {"one": scalar_one()}),
        SystemDecl("A", 2, {"t0": t0, "t1": t1}),
    ]
    x = complete_composition(Qrt(base, [_prep("prep_t0", "A", t0)]))
    y = complete_composition(
        Qrt(
            base,
            [
                _prep("prep_t0", "A", t0),
                ChannelDecl("const", "A", "A", constant_channel(t0, 2)),
            ],
        )
    )
    return x, y


def injectivity_gap_pair() -> tuple[Qrt, Qrt]:
    """Same reachability preorder and translation, yet the induced
    function monoids are non-isomorphic (a two-step chain versus a
    one-step chain plus a constant): the starred-injectivity checker must
    flag this pair at the labeled level."""
    states = {f"t{k}": basis_state(3, k) for k in range(3)}
    sysdecl = [SystemDecl("T", 3, dict(states))]
    x = complete_composition(
        Qrt(sysdecl, [ChannelDecl("step", "T", "T", function_channel([1, 2, 2], 3, 3))])
    )
    y = complete_composition(
        Qrt(
            sysdecl,
            [
                ChannelDecl("halfstep", "T", "T", function_channel([1, 1, 2], 3, 3)),
                ChannelDecl("floor", "T", "T", function_channel([2, 2, 2], 3, 3)),
            ],
        )
    )
    return x, y


def broken_monotone_model() -> KripkeModel:
    """An edge leads from a world with a true atom into one with none."""
    return KripkeModel(
        ["w", "u"],
        [("w", "w"), ("u", "u"), ("w", "u")],
        ["a", "b"],
        {"w": {"a"}, "u": {"b"}},
        {"a": 1, "b": 0},
    )


def broken_no_unit_model() -> KripkeModel:
    """S4 but without any singleton-domain world."""
    return KripkeModel(
        ["w", "u"],
        [("w", "w"), ("u", "u")],
        ["a", "b"],
        {"w": {"a", "b"}, "u": {"a", "b"}},
        {"a": 1, "b": 0},
    )


def broken_smc_model() -> StarredModel:
    """An atom shared by two worlds splices two accessibility hops that do
    not compose: the arrows a -> b -> d have no composite, so the law
    sweep finds the category not closed under composition."""
    worlds = ["c0", "x", "y1", "y2", "z"]
    access = [(w, w) for w in worlds] + [("x", "y1"), ("y2", "z")]
    domains = {"c0": {"p"}, "x": {"a"}, "y1": {"b"}, "y2": {"b"}, "z": {"d"}}
    interp = {"p": 1, "a": 0, "b": 0, "d": 0}
    model = KripkeModel(worlds, access, ["p", "a", "b", "d"], domains, interp)
    atoms = ["p", "a", "b", "d"]
    order = [(t, t) for t in atoms] + [("a", "b"), ("b", "d"), ("a", "d")]
    return StarredModel(model, order)


# -- corpus files -----------------------------------------------------------------


def corpus_entries() -> dict:
    """Name -> object for everything the corpus ships."""
    xi_a, xi_b = xi_pair()
    col_a, col_b = xi_collapse_pair()
    gap_x, gap_y = iso_gap_pair()
    inj_x, inj_y = injectivity_gap_pair()
    return {
        "trivial.qrt.json": trivial_qrt(),
        "chain.qrt.json": chain_qrt(),
        "entanglement.qrt.json": entanglement_qrt(),
        "resource_destroying.qrt.json": resource_destroying_qrt(),
        "convex_closed.qrt.json": convex_closed_qrt(),
        "convexity_demo.qrt.json": convexity_demo_qrt(),
        "xi_base.qrt.json": xi_a,
        "xi_flip.qrt.json": xi_b,
        "xi_collapse_base.qrt.json": col_a,
        "xi_collapse_flip.qrt.json": col_b,
        "iso_gap_x.qrt.json": gap_x,
        "iso_gap_y.qrt.json": gap_y,
        "injectivity_gap_x.qrt.json": inj_x,
        "injectivity_gap_y.qrt.json": inj_y,
        "broken_tp.qrt.json": broken_tp_qrt(),
        "broken_monotone.model.json": broken_monotone_model(),
        "broken_no_unit.model.json": broken_no_unit_model(),
        "broken_smc.model.json": broken_smc_model(),
    }


def write_corpus(directory) -> list[str]:
    """Write every corpus file into the directory; returns the paths."""
    import os

    from .io import model_to_dict, qrt_to_dict, save_json

    os.makedirs(directory, exist_ok=True)
    written = []
    for name, obj in sorted(corpus_entries().items()):
        path = os.path.join(directory, name)
        if isinstance(obj, Qrt):
            save_json(path, qrt_to_dict(obj))
        elif isinstance(obj, StarredModel):
            save_json(path, model_to_dict(obj.model, obj.order))
        else:
            save_json(path, model_to_dict(obj))
        written.append(path)
    return written
