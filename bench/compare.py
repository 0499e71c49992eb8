"""Compare two sets of benchmark results, parent against change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the results files bench/run.py writes to
.bench_out/results/ (one per workload, seed and trace mode), made with the
same benchmark code and --seconds on both commits. Runs pair up by
workload and seed. For every workload and end-to-end metric it prints each
side's median and quartiles, and a verdict:

  gain        the change wins at least 9 in 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              interquartile range
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  the parent's own spread is wider than the bound, and not
              every change run beats every parent run
  same        none of the above

Per-layer metrics from traced runs are printed as medians, without a
verdict: they have no bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory) -> dict:
    """{(workload, trace): {seed: {metric: value}}} from results files."""
    out: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        res = json.loads(path.read_text())
        if res.get("smoke"):
            continue
        runs = out.setdefault((res["workload"], res["trace"]), {})
        runs[res["seed"]] = {k: v["value"] for k, v in res["metrics"].items()}
    return out


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    """parent/change: {seed: value}. See the module docstring."""
    sign = 1 if better == "higher" else -1
    p_vals, c_vals = list(parent.values()), list(change.values())
    p_q1, p_med, p_q3 = quartiles(p_vals)
    _, c_med, _ = quartiles(c_vals)
    pairs = [(parent[s], change[s]) for s in parent if s in change]
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if pairs and wins >= 0.9 * len(pairs) and sign * (c_med - p_med) > p_q3 - p_q1:
        return "gain"
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "regression"
    all_better = all(sign * (c - p) > 0 for c in c_vals for p in p_vals)
    if p_med and (p_q3 - p_q1) / abs(p_med) > bound and not all_better:
        return "unresolved"
    return "same"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = load(argv[0]), load(argv[1])
    regressions = 0
    for key in sorted(set(parent) | set(change)):
        workload, trace = key
        p_runs, c_runs = parent.get(key, {}), change.get(key, {})
        print(f"== {workload} (trace {trace}): {len(p_runs)} parent runs, {len(c_runs)} change runs")
        names = sorted({m for r in list(p_runs.values()) + list(c_runs.values()) for m in r})
        for name in names:
            p = {s: r[name] for s, r in p_runs.items() if name in r}
            c = {s: r[name] for s, r in c_runs.items() if name in r}
            if not p or not c:
                continue
            pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
            line = (f"  {name:<36} parent {pq[1]:12.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                    f"  change {cq[1]:12.6g} [{cq[0]:.6g}, {cq[2]:.6g}]")
            if name in e2e and trace == 0:
                v = verdict(p, c, e2e[name]["better"], e2e[name]["bound"])
                regressions += v == "regression"
                line += f"  {v}"
            print(line)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
