"""The benchmark's own test: a smoke-size run of every workload, untraced
and traced, checking the output contract, the metric names and units
against BENCHMARK.json, and that every oracle was exercised.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

ORACLES = {
    "theorems": {"theorems.status", "theorems.sha256"},
    "ingest": {"ingest.validate_stripped", "ingest.validate_closed", "ingest.starred_model",
               "ingest.laws", "ingest.unit_atom", "ingest.free_atoms"},
    "modelcheck": {"modelcheck.labelling"},
    "iso": {"iso.construction", "iso.exhaustive_labeled", "iso.translation_theorem", "iso.witness"},
}


def _run(cwd, workload, trace, *extra):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), *extra]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(ORACLES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(ORACLES))
def test_smoke_run(workload, trace):
    proc = _run(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(v["value"], (int, float)) for v in last["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in last["metrics"].values())
        for name in ("op_p90_ms", "failed_ratio"):
            assert name in proc.stdout
    result = json.loads((ROOT / ".bench_out" / "results" / f"{workload}-seed1-trace{trace}-smoke.json").read_text())
    assert ORACLES[workload] <= {k for k, n in result["oracles"].items() if n > 0}
    if trace:
        assert result["traced_matches_untraced"] is True
        assert last["metrics"]["trace_overhead"]["value"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "theorems", 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_compare_verdicts():
    from compare import verdict

    parent = {s: 10.0 + 0.1 * (s % 3) for s in range(10)}
    assert verdict(parent, {s: v * 0.5 for s, v in parent.items()}, "lower", 0.1) == "gain"
    assert verdict(parent, {s: v * 1.5 for s, v in parent.items()}, "lower", 0.1) == "regression"
    assert verdict(parent, dict(parent), "lower", 0.1) == "same"
    assert verdict(parent, {s: v * 0.5 for s, v in parent.items()}, "higher", 0.1) == "regression"
