"""Shared fixtures."""

import pytest

from qrtmodal import corpus
from qrtmodal.generate import GeneratorConfig
from qrtmodal.harness import build_family

CORPUS_THEORIES = (
    "trivial_qrt",
    "chain_qrt",
    "entanglement_qrt",
    "resource_destroying_qrt",
    "convex_closed_qrt",
    "convexity_demo_qrt",
)


@pytest.fixture(scope="session")
def theory_families() -> list:
    """(name, [(label, theory), ...]): build_family(seed, 20) for seeds
    1-3, a 12-theory family with dims 1-3, and the corpus theories."""
    mixed = GeneratorConfig(seed=4, n_systems=3, dims=(1, 2, 3), states_per_system=2)
    families = [(f"family{seed}", build_family(seed, 20)) for seed in (1, 2, 3)]
    families.append(("mixed", build_family(4, 12, config=mixed)))
    families.append(("corpus", [(n, getattr(corpus, n)()) for n in CORPUS_THEORIES]))
    return families


@pytest.fixture(scope="session")
def theory_pairs(theory_families) -> list:
    """(label, x, y) for every pair on which an isomorphism search is
    checked against its oracle: all ordered pairs of each of
    ``theory_families`` (the dims 1-3 family so that some pairs fail
    condition (i)), and the xi sweep and the two gap pairs in both
    orders."""
    pairs = []
    for name, family in theory_families:
        pairs += [(f"{name}:{la}|{lb}", qa, qb) for la, qa in family for lb, qb in family]
    named = [(f"xi:{n}", a, b) for n, a, b in corpus.xi_sweep()]
    named += [(n, *getattr(corpus, n)()) for n in ("iso_gap_pair", "injectivity_gap_pair")]
    for label, a, b in named:
        pairs += [(label, a, b), (f"{label}:reversed", b, a)]
    return pairs
