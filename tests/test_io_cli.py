"""File format and CLI tests: codecs, round trips, exit codes,
report determinism."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrtmodal import corpus
from qrtmodal.cli import main
from qrtmodal.config import max_dim
from qrtmodal.io import (
    FormatError,
    decode_matrix,
    dumps,
    encode_matrix,
    model_from_dict,
    model_to_dict,
    qrt_from_dict,
    qrt_to_dict,
    record_to_dict,
)
from qrtmodal.kripke import StarredModel, models_isomorphic
from qrtmodal.translate import to_model, to_starred_model


class TestCodecs:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        assert np.allclose(decode_matrix(encode_matrix(m)), m)

    def test_matrix_entries_are_re_im_pairs(self):
        data = encode_matrix(np.array([[1 + 2j]]))
        assert data == [[[1.0, 2.0]]]

    def test_ragged_matrix_rejected(self):
        with pytest.raises(FormatError):
            decode_matrix([[[1, 0]], [[1, 0], [0, 0]]])

    def test_qrt_round_trip_preserves_functions(self):
        q = corpus.entanglement_qrt()
        q2 = qrt_from_dict(json.loads(dumps(qrt_to_dict(q))))
        assert q2.validate().ok
        assert {k: set(v) for k, v in q.functions.items()} == {
            k: set(v) for k, v in q2.functions.items()
        }
        assert q2.trivial_id == q.trivial_id

    def test_model_round_trip(self):
        rec = to_starred_model(corpus.chain_qrt())
        loaded = model_from_dict(json.loads(dumps(model_to_dict(rec.model, rec.order))))
        assert isinstance(loaded, StarredModel)
        assert loaded.model == rec.model
        assert loaded.order == rec.order

    def test_malformed_qrt_rejected(self):
        with pytest.raises(FormatError):
            qrt_from_dict({"systems": [{"id": "A"}]})

    def test_translation_round_trip_isomorphic(self):
        rec = to_model(corpus.entanglement_qrt())
        loaded = model_from_dict(json.loads(dumps(record_to_dict(rec))))
        ok, _ = models_isomorphic(loaded, rec.model)
        assert ok


@pytest.fixture()
def corpus_dir(tmp_path):
    out = tmp_path / "corpus"
    corpus.write_corpus(out)
    return out


class TestCli:
    def test_validate_ok(self, corpus_dir, capsys):
        assert main(["validate", str(corpus_dir / "trivial.qrt.json")]) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_broken_names_channel(self, corpus_dir, capsys):
        code = main(["validate", str(corpus_dir / "broken_tp.qrt.json")])
        assert code == 1
        assert "inflate" in capsys.readouterr().out

    def test_validate_entanglement(self, corpus_dir):
        assert main(["validate", str(corpus_dir / "entanglement.qrt.json")]) == 0

    def test_validate_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == 2

    def test_validate_json_flag(self, corpus_dir, capsys):
        assert main(["validate", "--json", str(corpus_dir / "trivial.qrt.json")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True

    def test_translate_trivial(self, corpus_dir, capsys):
        assert main(["translate", str(corpus_dir / "trivial.qrt.json")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["interp"] == {"c.one": 1}
        assert payload["worlds"] == ["c"]

    def test_translate_star_adds_order(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "chain.model.json"
        assert main(
            ["translate", str(corpus_dir / "chain.qrt.json"), "--star", "--out", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        assert ["c.one", "B.sigma"] in payload["order"]
        assert payload["c_world"] == "c"

    def test_translate_entanglement_resource_atom(self, corpus_dir, capsys):
        assert main(["translate", str(corpus_dir / "entanglement.qrt.json")]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["interp"]["AB.bell"] == 0

    def test_check_valid_and_invalid(self, corpus_dir, tmp_path, capsys):
        model = tmp_path / "m.json"
        assert main(
            ["translate", str(corpus_dir / "chain.qrt.json"), "--out", str(model)]
        ) == 0
        capsys.readouterr()
        assert main(["check", str(model), "(A.rho -> <> B.sigma)"]) == 0
        assert "valid" in capsys.readouterr().out
        k = "([] (A.rho -> B.sigma) -> ([] A.rho -> [] B.sigma))"
        assert main(["check", str(model), k]) == 0
        assert main(["check", str(model), "~ A.rho"]) == 1
        assert "invalid at world" in capsys.readouterr().out

    def test_check_syntax_error(self, corpus_dir, tmp_path, capsys):
        model = tmp_path / "m.json"
        main(["translate", str(corpus_dir / "trivial.qrt.json"), "--out", str(model)])
        assert main(["check", str(model), "(p -> "]) == 2

    def test_validate_nan_kraus_entry_is_input_error(self, tmp_path, capsys):
        data = qrt_to_dict(corpus.chain_qrt())
        data["channels"][0]["kraus"][0][0][0] = [float("nan"), 0.0]
        path = tmp_path / "nan.qrt.json"
        path.write_text(json.dumps(data))
        assert main(["validate", str(path)]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_theorems_cap_below_one_is_input_error(self, cap, capsys):
        assert main(["theorems", "--count", "6", "--cap", cap]) == 2
        assert "cap" in capsys.readouterr().err

    def test_theorems_cap_checked_before_the_family_is_built(self, monkeypatch, capsys):
        from qrtmodal import harness

        calls = []
        monkeypatch.setattr(harness, "build_family", lambda *a, **k: calls.append(a))
        assert main(["theorems", "--count", "6", "--cap", "0"]) == 2
        assert "cap" in capsys.readouterr().err
        assert not calls

    def test_theorems_file_without_trivial_system_is_input_error(
        self, corpus_dir, monkeypatch, capsys
    ):
        from qrtmodal import harness

        calls = []
        monkeypatch.setattr(harness, "to_starred_model", lambda q: calls.append(q))
        gap = str(corpus_dir / "injectivity_gap_x.qrt.json")
        assert main(["theorems", str(corpus_dir / "chain.qrt.json"), gap]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {gap}: ") and "trivial" in err
        assert out == ""
        assert not calls

    def test_theorems_default_passes(self, capsys):
        assert main(["theorems", "--seed", "2", "--count", "5"]) == 0

    def test_theorems_broken_model_exits_one(self, corpus_dir, capsys):
        code = main(
            [
                "theorems",
                "--seed",
                "2",
                "--count",
                "4",
                "--models",
                str(corpus_dir / "broken_monotone.model.json"),
                str(corpus_dir / "broken_no_unit.model.json"),
            ]
        )
        assert code == 1

    def test_theorems_json_deterministic(self, capsys):
        assert main(["theorems", "--seed", "3", "--count", "4", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["theorems", "--seed", "3", "--count", "4", "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["status"] == 0

    def test_theorems_json_deterministic_across_processes(self, tmp_path):
        # fresh interpreters get different hash seeds; output must not care
        import subprocess
        import sys
        from pathlib import Path

        import qrtmodal

        # the package need not be installed: hand the children the absolute
        # directory this process imported it from, and run them away from
        # the repo so nothing else on their path can supply it
        package_root = str(Path(qrtmodal.__file__).resolve().parent.parent)
        cmd = [sys.executable, "-m", "qrtmodal.cli", "theorems",
               "--seed", "4", "--count", "4", "--json"]
        runs = [
            subprocess.run(
                cmd, capture_output=True, text=True, cwd=tmp_path,
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
                     "PYTHONPATH": package_root},
            )
            for seed in ("1", "7")
        ]
        for run in runs:
            assert run.returncode == 0, run.stderr
        assert json.loads(runs[0].stdout)["status"] == 0
        assert runs[0].stdout == runs[1].stdout

    def test_theorems_on_files(self, corpus_dir, capsys):
        code = main(
            [
                "theorems",
                str(corpus_dir / "chain.qrt.json"),
                str(corpus_dir / "entanglement.qrt.json"),
                "--no-corpus",
            ]
        )
        assert code == 0

    def test_generate_writes_deterministic_files(self, tmp_path, capsys):
        out1, out2 = tmp_path / "f1", tmp_path / "f2"
        assert main(["generate", "--seed", "9", "--count", "2", "--out", str(out1)]) == 0
        assert main(["generate", "--seed", "9", "--count", "2", "--out", str(out2)]) == 0
        for name in ("qrt_9_0.qrt.json", "qrt_9_1.qrt.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_examples_command(self, tmp_path, capsys):
        assert main(["examples", "--out", str(tmp_path / "ex")]) == 0
        assert (tmp_path / "ex" / "trivial.qrt.json").exists()


# `qrtmodal translate FILE [--star]` on every corpus theory file:
# (file, --star, exit code, first 16 hex digits of the stdout's SHA-256)
TRANSLATE_PINS = [
    ("broken_tp.qrt.json", False, 1, "e3b0c44298fc1c14"),
    ("broken_tp.qrt.json", True, 1, "e3b0c44298fc1c14"),
    ("chain.qrt.json", False, 0, "f04741f0bd6ef6ad"),
    ("chain.qrt.json", True, 0, "ff2127e96dcacfbc"),
    ("convex_closed.qrt.json", False, 0, "bfbf5f5686d0e9c3"),
    ("convex_closed.qrt.json", True, 0, "d10cebbf8e9f8d6d"),
    ("convexity_demo.qrt.json", False, 0, "bc22716202d2ac95"),
    ("convexity_demo.qrt.json", True, 0, "f24b74b87b412de9"),
    ("entanglement.qrt.json", False, 0, "ce9c7e7133ab757e"),
    ("entanglement.qrt.json", True, 0, "98c3c0d1e5169b7b"),
    ("injectivity_gap_x.qrt.json", False, 0, "8e08da49f02a7113"),
    ("injectivity_gap_x.qrt.json", True, 0, "7e56f243df44bcb3"),
    ("injectivity_gap_y.qrt.json", False, 0, "8e08da49f02a7113"),
    ("injectivity_gap_y.qrt.json", True, 0, "7e56f243df44bcb3"),
    ("iso_gap_x.qrt.json", False, 0, "66f8dabe87cb7b1f"),
    ("iso_gap_x.qrt.json", True, 0, "ec14bb3c8722855c"),
    ("iso_gap_y.qrt.json", False, 0, "66f8dabe87cb7b1f"),
    ("iso_gap_y.qrt.json", True, 0, "f52fe194bb7f665e"),
    ("resource_destroying.qrt.json", False, 0, "839e249c566a7715"),
    ("resource_destroying.qrt.json", True, 0, "955e2cd01d9574a1"),
    ("trivial.qrt.json", False, 0, "1b024760d037bc00"),
    ("trivial.qrt.json", True, 0, "a123fe079f8989f0"),
    ("xi_base.qrt.json", False, 0, "e684080bdc4c2c91"),
    ("xi_base.qrt.json", True, 0, "bee3c05d26ebc216"),
    ("xi_collapse_base.qrt.json", False, 0, "e684080bdc4c2c91"),
    ("xi_collapse_base.qrt.json", True, 0, "6fff88a5a14f5873"),
    ("xi_collapse_flip.qrt.json", False, 0, "e684080bdc4c2c91"),
    ("xi_collapse_flip.qrt.json", True, 0, "db363d4f869e6090"),
    ("xi_flip.qrt.json", False, 0, "e684080bdc4c2c91"),
    ("xi_flip.qrt.json", True, 0, "76944964cbee5795"),
]


@pytest.fixture(scope="module")
def pinned_corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    corpus.write_corpus(out)
    return out


def test_translate_pins_cover_the_corpus(pinned_corpus_dir):
    names = {p.name for p in pinned_corpus_dir.glob("*.qrt.json")}
    assert {name for name, *_ in TRANSLATE_PINS} == names
    assert len(TRANSLATE_PINS) == 2 * len(names)


@pytest.mark.parametrize("name, star, code, digest", TRANSLATE_PINS)
def test_translate_bytes_pinned(name, star, code, digest, pinned_corpus_dir, capsys):
    argv = ["translate", str(pinned_corpus_dir / name)] + (["--star"] if star else [])
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def small_model_dict() -> dict:
    return {
        "worlds": ["w", "u"],
        "access": [["w", "w"], ["u", "u"], ["w", "u"]],
        "domain": ["p", "q"],
        "domains": {"w": ["p"], "u": ["q"]},
        "interp": {"p": 1, "q": 0},
    }


class TestModelInput:
    def test_well_formed_model_accepted(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(small_model_dict()))
        assert main(["check", str(path), "p"]) == 0
        assert main(["check", str(path), "q"]) == 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("interp", {"p": 1.7, "q": 0}),
            ("interp", {"p": 0.5, "q": 0}),
            ("interp", {"p": "1", "q": 0}),
            ("interp", {"p": True, "q": 0}),
            ("interp", {"p": float("nan"), "q": 0}),
            ("interp", ["p", "q"]),
            ("worlds", "wu"),
            ("worlds", ["w", 1]),
            ("domain", "pq"),
            ("access", "wu"),
            ("access", [["w", "w", "u"]]),
            ("domains", {"w": "p", "u": ["q"]}),
            ("domains", ["w", "u"]),
        ],
    )
    def test_malformed_model_is_input_error(self, field, value, tmp_path, capsys):
        data = small_model_dict() | {field: value}
        with pytest.raises(FormatError):
            model_from_dict(data)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        assert main(["check", str(path), "p"]) == 2
        assert capsys.readouterr().err.startswith("error: malformed model file")
        assert main(["theorems", "--no-corpus", "--models", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: malformed model file")


def chain_dict() -> dict:
    return qrt_to_dict(corpus.chain_qrt())


def edit_system(field, value):
    def edit(data):
        data["systems"][1][field] = value  # system A, a qubit with one named state

    return edit


def edit_entry(value):
    def edit(data):
        data["systems"][1]["states"]["rho"][0][0] = value

    return edit


class TestTheoryInput:
    @pytest.mark.parametrize(
        "edit",
        [
            edit_system("states", []),
            edit_system("states", "ab"),
            edit_system("dim", 0),
            edit_system("dim", -2),
            edit_system("dim", 1.7),
            edit_system("dim", True),
            edit_system("dim", max_dim() + 1),
            edit_system("id", 3),
            edit_entry([1, 0, 5]),
            edit_entry([1]),
            edit_entry([True, 0]),
            edit_entry([0, False]),
            lambda data: data.update(trivial=["c"]),
            lambda data: data.update(trivial=5),
            lambda data: data["channels"][0].update({"from": 3}),
            lambda data: data.update(systems={}),
        ],
    )
    def test_malformed_theory_is_input_error(self, edit, tmp_path, capsys):
        data = chain_dict()
        edit(data)
        with pytest.raises(FormatError):
            qrt_from_dict(data)
        path = tmp_path / "t.json"
        path.write_text(json.dumps(data))
        for command in ("validate", "translate"):
            assert main([command, str(path)]) == 2
            assert capsys.readouterr().err.startswith("error: malformed")

    def test_well_formed_theory_accepted(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(chain_dict()))
        assert main(["validate", str(path)]) == 0


_junk = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 2), st.floats(allow_nan=True), st.text(max_size=2)
)
_names = st.sampled_from(["w", "u", "p", "q"])
_ids = st.one_of(_names, _junk)
_id_lists = st.one_of(st.lists(_ids, max_size=4), _junk)
_pair_lists = st.one_of(st.lists(st.lists(_ids, max_size=3), max_size=5), _junk)
_model_dicts = st.fixed_dictionaries(
    {},
    optional={
        "worlds": _id_lists,
        "access": _pair_lists,
        "domain": _id_lists,
        "domains": st.one_of(st.dictionaries(_names, _id_lists, max_size=3), _junk),
        "interp": st.one_of(
            st.dictionaries(_names, st.one_of(st.integers(0, 1), _junk), max_size=4), _junk
        ),
        "order": _pair_lists,
    },
)


@settings(max_examples=200, deadline=None)
@given(data=st.one_of(_model_dicts, st.lists(_junk, max_size=2), _junk))
def test_check_on_malformed_model_files_never_raises(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "m.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path), "p"]) in {0, 1, 2, 3}


_numbers = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.integers(-1, 1))
_entries = st.one_of(
    st.lists(_numbers, min_size=2, max_size=2),
    st.lists(_numbers, max_size=3),
    st.sampled_from([[True, 0], [0, False]]),
    _junk,
)
# NaN, inf and boolean entries, ragged, empty and wrongly sized matrices
_matrices = st.one_of(st.lists(st.lists(_entries, max_size=3), max_size=3), _junk)
_states = st.one_of(
    st.lists(_matrices, max_size=2), st.dictionaries(_names, _matrices, max_size=2), _junk
)
_kraus = st.one_of(st.lists(_matrices, max_size=2), _junk)
_bad_ids = st.one_of(_junk, st.lists(_names, max_size=2))
# at most max_dim() + 1, so that a missed cap check allocates little
_dims = st.one_of(st.integers(-2, max_dim() + 1), st.floats(allow_nan=True), _junk)


@st.composite
def _theory_dicts(draw):
    """The chain theory with one field replaced by a drawn bad value."""
    data = chain_dict()
    system = draw(st.sampled_from(data["systems"]))
    channel = draw(st.sampled_from(data["channels"]))
    target, key, value = draw(
        st.one_of(
            st.tuples(st.just(data), st.just("trivial"), _bad_ids),
            st.tuples(st.just(data), st.sampled_from(["systems", "channels"]), _junk),
            st.tuples(st.just(system), st.just("id"), _bad_ids),
            st.tuples(st.just(system), st.just("dim"), _dims),
            st.tuples(st.just(system), st.just("states"), _states),
            st.tuples(st.just(system["states"]), st.sampled_from(sorted(system["states"])), _matrices),
            st.tuples(st.just(channel), st.sampled_from(["id", "from", "to"]), _bad_ids),
            st.tuples(st.just(channel), st.just("kraus"), _kraus),
        )
    )
    target[key] = value
    return data


@settings(max_examples=100, deadline=None)
@given(data=_theory_dicts())
def test_theory_commands_on_malformed_theory_files_never_raise(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "t.json"
    path.write_text(json.dumps(data))
    for argv in (["validate"], ["translate"], ["theorems", "--no-corpus", "--json"]):
        assert main([argv[0], str(path), *argv[1:]]) in {0, 1, 2, 3}
