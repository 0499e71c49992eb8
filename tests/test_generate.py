"""Generator tests: determinism, config bounds, structural guarantees,
and the resampling budget."""

import hashlib

import numpy as np
import pytest

from qrtmodal import generate
from qrtmodal.errors import GenerationError
from qrtmodal.generate import (
    GeneratorConfig,
    generate_qrt,
    random_relabeling,
    random_renaming,
    random_sub_qrt,
)
from qrtmodal.io import dumps, qrt_to_dict
from qrtmodal.linalg import identity_channel
from qrtmodal.kripke import is_s4
from helpers import is_composition_complete, is_sub_qrt, random_model, sub_qrt


class TestConfig:
    def test_bounds(self):
        with pytest.raises(ValueError):
            GeneratorConfig(seed=1, n_systems=5)
        with pytest.raises(ValueError):
            GeneratorConfig(seed=1, dims=(4,))
        with pytest.raises(ValueError):
            GeneratorConfig(seed=1, dims=())
        with pytest.raises(ValueError):
            GeneratorConfig(seed=1, states_per_system=9)
        with pytest.raises(ValueError):
            GeneratorConfig(seed=1, channel_density=1.5)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be at least 0$"):
            GeneratorConfig(seed=-1)


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        cfg = GeneratorConfig(seed=1)
        fam1 = [generate_qrt(cfg, index=i) for i in range(4)]
        fam2 = [generate_qrt(cfg, index=i) for i in range(4)]
        for a, b in zip(fam1, fam2):
            assert dumps(qrt_to_dict(a)) == dumps(qrt_to_dict(b))

    def test_different_seeds_differ(self):
        a = generate_qrt(GeneratorConfig(seed=1))
        b = generate_qrt(GeneratorConfig(seed=2))
        assert dumps(qrt_to_dict(a)) != dumps(qrt_to_dict(b))

    @pytest.mark.parametrize("labeled", [False, True], ids=["qrt", "labeled"])
    def test_a_relabeling_is_the_copy_of_its_drawn_renaming(self, labeled):
        q = generate_qrt(GeneratorConfig(seed=3, states_per_system=4))
        q = q.labeled if labeled else q
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        copy, again = random_relabeling(q, rng_a), q.relabeled(*random_renaming(q, rng_b))
        assert type(copy) is type(again) is type(q)
        assert copy.labeled == again.labeled != q.labeled
        # the same draws in the same order: both generators are left alike
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestStructure:
    def test_ensure_trivial(self):
        cfg = GeneratorConfig(seed=3, ensure_trivial=True)
        for i in range(5):
            q = generate_qrt(cfg, index=i)
            assert q.trivial_id is not None
            assert q.system(q.trivial_id).dim == 1

    def test_no_trivial_when_disabled(self):
        cfg = GeneratorConfig(seed=3, ensure_trivial=False)
        q = generate_qrt(cfg)
        assert q.trivial_id is None

    def test_zero_density_gives_identity_only(self):
        cfg = GeneratorConfig(seed=4, channel_density=0.0)
        q = generate_qrt(cfg)
        for (a, b), fns in q.functions.items():
            assert a == b
            for key in fns:
                assert all(s == img for s, img in key)

    def test_generated_theories_validate_and_complete(self):
        cfg = GeneratorConfig(seed=5, n_systems=4, dims=(1, 2, 3), states_per_system=4)
        for i in range(8):
            q = generate_qrt(cfg, index=i)
            assert q.validate().ok
            assert is_composition_complete(q)

    def test_budget_exhaustion_raises(self, monkeypatch):
        cfg = GeneratorConfig(seed=6, n_systems=3, dims=(1, 2), channel_density=1.0)
        monkeypatch.setattr(generate, "_MAX_RESAMPLES", 0)
        monkeypatch.setattr(generate, "_RAW_PROBABILITY", 1.0)
        with pytest.raises(GenerationError, match=r"^resampling budget of 0 rejections exhausted$"):
            generate_qrt(cfg)

    def test_a_raw_draw_that_induces_a_map_is_kept(self, monkeypatch):
        real = generate.random_cptp_channel
        monkeypatch.setattr(generate, "_RAW_PROBABILITY", 1.0)
        monkeypatch.setattr(
            generate, "random_cptp_channel", lambda rng, i, o: identity_channel(i) if i == o else real(rng, i, o)
        )
        q = generate_qrt(GeneratorConfig(seed=3, dims=(1, 2), channel_density=1.0))
        kept = {d.id: (d.src, d.dst) for d in q.channels if d.src == d.dst != "c" and d.id.startswith("ch")}
        assert kept == {"ch4": ("A", "A"), "ch8": ("B", "B")}
        # the kept draws are the identities, so none is added beside them
        assert not {"id_A", "id_B"} & {d.id for d in q.channels}
        assert q.validate().ok

    def test_random_sub_is_sub(self):
        rng = np.random.default_rng(8)
        cfg = GeneratorConfig(seed=7)
        for i in range(5):
            q = generate_qrt(cfg, index=i)
            sub = random_sub_qrt(q, rng)
            fresh = sub_qrt(q, [s.id for s in sub.systems])
            assert is_sub_qrt(fresh, q) and fresh.labeled == sub


class TestRandomModels:
    def test_s4_flag(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = random_model(rng, 4, 5, s4=True)
            ok, _ = is_s4(m)
            assert ok

    def test_plain_models_well_formed(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            m = random_model(rng, 4, 5)
            assert m.worlds and m.domain


def test_generated_theory_files_pinned():
    # computed before the closure and the named-state matching were each
    # reduced to one implementation; a changed byte anywhere moves it
    pinned = "a49aea5044667dda7efe7d6a1570b415b53470e3bb7a095b489d67ca626a2d7c"
    h = hashlib.sha256()
    for seed in (1, 2, 3):
        for n_systems in (3, 4):
            for dims in ((1, 2), (1, 2, 3)):
                cfg = GeneratorConfig(seed=seed, n_systems=n_systems, dims=dims)
                for index in range(8):
                    h.update(dumps(qrt_to_dict(generate_qrt(cfg, index=index))).encode())
    assert h.hexdigest() == pinned


def test_draws_pinned_across_configs():
    # every config knob, then every index the benchmark's ingest pool (seed
    # 2, warm-up seed 3) and iso pool (seed 1) read; each index is hashed as
    # drawn and as closed, so a changed rng call anywhere moves the digest
    pinned = "155334f97a976871074e5432baa62f11520a6d11376d7e31d28d9739595bcdef"
    grid = [
        (GeneratorConfig(seed, n, dims, states, density, trivial), 0)
        for seed in (1, 2, 3)
        for trivial in (True, False)
        for n in (1, 2, 4)
        for states in (1, 4)
        for density in (0.0, 0.5, 1.0)
        for dims in ((1,), (2, 3), (1, 2, 3))
    ]
    pools = [
        (GeneratorConfig(seed=2, n_systems=4, dims=(1, 2, 3), states_per_system=4), 98),
        (GeneratorConfig(seed=3, n_systems=4, dims=(1, 2, 3), states_per_system=4), 7),
        (GeneratorConfig(seed=1, n_systems=4, dims=(1, 2), states_per_system=4), 32),
    ]
    grid += [(cfg, index) for cfg, n in pools for index in range(n)]
    h = hashlib.sha256()
    for cfg, index in grid:
        for draw in (generate._declared_qrt, generate_qrt):
            h.update(dumps(qrt_to_dict(draw(cfg, index))).encode())
    assert h.hexdigest() == pinned
