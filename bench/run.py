"""qrtmodal benchmark launcher.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the package is imported from
./src. One process, one caller, closed loop: the next op starts when the
previous one has returned. Every op is checked against its oracle. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A results file with the environment, sample
counts and (traced) per-function figures goes to .bench_out/.

Timings are reported at a reference CPU speed (bench/speed.py): fixed
kernels are timed between ops and around each set-up. Each op's time is
scaled by the kernels' reference time over their median measured time in
the samples nearest to the op; set-up times by the samples around the
set-ups. The results file keeps the raw wall-clock figures.

--trace 0 reports the end-to-end metrics; nothing is wrapped.
--trace 1 first measures untraced for --seconds, then runs the workload's
first rounds once more untraced and once traced through bench/tracer.py,
and reports the per-layer metrics and the tracing overhead on those ops.
"""

import os

# pinned before numpy loads: one BLAS/OpenMP thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5  # an import probe costs a fraction of a second, a build up to seconds
P90_MIN_OPS = 100  # ten samples beyond the 90th percentile
CALIBRATION_INTERVAL_S = 0.25  # op time between speed samples inside a round
LOCAL_SAMPLES = 2  # speed samples on each side of an op that set its scale

# (metric, layer, function label or None for the whole layer, field)
PER_LAYER = [
    ("apply_channel.calls", "linalg", "apply_channel", "calls"),
    ("apply_channel.self_s", "linalg", "apply_channel", "self_s"),
    ("trace_distance.calls", "linalg", "trace_distance", "calls"),
    ("trace_distance.self_s", "linalg", "trace_distance", "self_s"),
    ("is_cptp.calls", "linalg", "is_cptp", "calls"),
    ("is_cptp.self_s", "linalg", "is_cptp", "self_s"),
    ("compose.calls", "linalg", "compose", "calls"),
    ("DensityMatrix.calls", "linalg", "DensityMatrix", "calls"),
    ("linalg.self_s", "linalg", None, "self_s"),
    ("Qrt.validate.calls", "qrt", "Qrt.validate", "calls"),
    ("Qrt.validate.self_s", "qrt", "Qrt.validate", "self_s"),
    ("Qrt.validate.distinct_ratio", "qrt", "Qrt.validate", "distinct_ratio"),
    ("Qrt.induced_function.calls", "qrt", "Qrt.induced_function", "calls"),
    ("Qrt.induced_function.self_s", "qrt", "Qrt.induced_function", "self_s"),
    ("Qrt.match_named.calls", "qrt", "Qrt.match_named", "calls"),
    ("complete_composition.self_s", "qrt", "complete_composition", "self_s"),
    ("qrt_isomorphic.calls", "qrt", "qrt_isomorphic", "calls"),
    ("qrt_isomorphic.self_s", "qrt", "qrt_isomorphic", "self_s"),
    ("qrt.self_s", "qrt", None, "self_s"),
    ("qrt.cap_hits", "qrt", None, "cap_hits"),
    ("to_model.calls", "translate", "to_model", "calls"),
    ("to_model.self_s", "translate", "to_model", "self_s"),
    ("to_model.distinct_ratio", "translate", "to_model", "distinct_ratio"),
    ("iso_conditions.calls", "translate", "iso_conditions", "calls"),
    ("iso_conditions.self_s", "translate", "iso_conditions", "self_s"),
    ("verify_starred_injectivity.self_s", "translate", "verify_starred_injectivity", "self_s"),
    ("translate.self_s", "translate", None, "self_s"),
    ("translate.cap_hits", "translate", None, "cap_hits"),
    ("models_isomorphic.calls", "kripke", "models_isomorphic", "calls"),
    ("models_isomorphic.self_s", "kripke", "models_isomorphic", "self_s"),
    ("starred_isomorphic.calls", "kripke", "starred_isomorphic", "calls"),
    ("starred_isomorphic.self_s", "kripke", "starred_isomorphic", "self_s"),
    ("is_s4.calls", "kripke", "is_s4", "calls"),
    ("kripke.self_s", "kripke", None, "self_s"),
    ("kripke.cap_hits", "kripke", None, "cap_hits"),
    ("parse.calls", "formulas", "parse", "calls"),
    ("parse.self_s", "formulas", "parse", "self_s"),
    ("evaluate.calls", "formulas", "evaluate", "calls"),
    ("evaluate.self_s", "formulas", "evaluate", "self_s"),
    ("evaluate.distinct_ratio", "formulas", "evaluate", "distinct_ratio"),
    ("is_valid.calls", "formulas", "is_valid", "calls"),
    ("is_valid.self_s", "formulas", "is_valid", "self_s"),
    ("formulas.self_s", "formulas", None, "self_s"),
    ("build_smc.self_s", "smc", "build_smc", "self_s"),
    ("verify_smc_laws.calls", "smc", "verify_smc_laws", "calls"),
    ("verify_smc_laws.self_s", "smc", "verify_smc_laws", "self_s"),
    ("SmcCategory.canonical_morphism.calls", "smc", "SmcCategory.canonical_morphism", "calls"),
    ("smc.self_s", "smc", None, "self_s"),
    ("qrt_from_dict.self_s", "io", "qrt_from_dict", "self_s"),
    ("dumps.self_s", "io", "dumps", "self_s"),
    ("io.self_s", "io", None, "self_s"),
    ("generate_qrt.self_s", "generate", "generate_qrt", "self_s"),
    ("build_family.self_s", "harness", "build_family", "self_s"),
    ("run_theorems.self_s", "harness", "run_theorems", "self_s"),
]
FIELD_UNITS = {"calls": "calls/op", "self_s": "s/op", "distinct_ratio": "ratio", "cap_hits": "count"}

speed = None  # bench/speed.py; main() imports it once bench/ is on sys.path


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    return p.parse_args(argv)


IMPORT_PROBE = """\
import sys
from time import perf_counter
sys.path[:0] = sys.argv[1:]
t = perf_counter()
import numpy, qrtmodal, speed, tracer, workloads
print(perf_counter() - t)
"""


def _import_seconds(src: Path) -> float:
    """Seconds to import numpy, the program and the benchmark's modules in
    a fresh interpreter. This process imports them only once, and a single
    import time swings by a quarter from run to run."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src), str(BENCH)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _environment(args) -> dict:
    import numpy

    return {
        "cpu": _cpu_model(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": args.seed,
        "git_commit": _git_commit(),
    }


class _Failed:
    """Check result of an op that raised."""

    ok = False
    oracles: list = []

    def __init__(self, exc: BaseException):
        from qrtmodal.errors import ResourceLimitError

        kind = "cap hit" if isinstance(exc, ResourceLimitError) else "raised"
        self.digest = f"error:{type(exc).__name__}"
        self.why = f"{kind}: {type(exc).__name__}: {exc}"


class Phase:
    """Op times, checks and per-round figures of one closed-loop phase."""

    def __init__(self):
        self.times: list[float] = []        # raw op seconds
        self.checks: list = []
        self.round_sizes: list[int] = []
        self.round_times: list[float] = []  # raw seconds of op time per round
        self.speed: list[dict] = []         # calibrate() samples: at the start, between ops, after every round
        self.op_speed: list[int] = []       # per op, the index in speed of the last sample before it

    @property
    def scale(self) -> float:
        """Factor to the reference speed for the phase as a whole."""
        return speed.scale(self.speed)

    def raw_ops_per_s(self) -> float:
        return statistics.median(n / t for n, t in zip(self.round_sizes, self.round_times))

    @functools.cached_property
    def scaled(self) -> list[float]:
        """Op seconds at the reference speed. Each op is scaled by the
        LOCAL_SAMPLES calibrations on either side of it: the box's speed
        drifts within a run, and one factor for the whole phase leaves
        that drift in the figures."""
        k = LOCAL_SAMPLES
        return [t * speed.scale(self.speed[max(0, i - k + 1):i + k + 1])
                for t, i in zip(self.times, self.op_speed)]

    def ops_per_s(self) -> float:
        """Median over rounds of the round's ops per second, at the reference speed."""
        rates, start = [], 0
        for n in self.round_sizes:
            rates.append(n / sum(self.scaled[start:start + n]))
            start += n
        return statistics.median(rates)


def _run_rounds(wl, rounds, seconds=None, n_rounds=None, min_rounds=1, tracer=None) -> Phase:
    """Closed loop over whole rounds. Runs n_rounds rounds, or whole passes
    over `rounds` (at least min_rounds rounds) and stops at the pass
    boundary nearest to `seconds` of summed op time. A run thus measures
    every input of the pass equally often, however fast the box is at the
    time: stopping mid-pass would let the box's speed pick which inputs
    set the median. Only the op itself is timed; output checks and the
    speed calibration run between ops and between rounds."""
    ph = Phase()
    total = 0.0
    r = 0
    ph.speed.append(speed.calibrate(wl.kernels))
    since_calibration = 0.0
    while True:
        specs = rounds[r % len(rounds)]
        round_time = 0.0
        for spec in specs:
            if since_calibration >= CALIBRATION_INTERVAL_S:
                ph.speed.append(speed.calibrate(wl.kernels))
                since_calibration = 0.0
            ph.op_speed.append(len(ph.speed) - 1)
            if tracer is not None:
                tracer.begin_op(len(ph.times))
            start = perf_counter()
            try:
                out = wl.op(spec)
                exc = None
            except Exception as err:  # a failed op is counted, the run goes on
                out, exc = None, err
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.end_op()
            ph.times.append(elapsed)
            round_time += elapsed
            since_calibration += elapsed
            if exc is not None:
                ph.checks.append(_Failed(exc))
                traceback.print_exception(exc, file=sys.stderr)
            else:
                try:
                    ph.checks.append(wl.check(spec, out))
                except Exception as err:
                    ph.checks.append(_Failed(err))
                    traceback.print_exception(err, file=sys.stderr)
            out = None  # no program object survives into the next op
        ph.speed.append(speed.calibrate(wl.kernels))
        since_calibration = 0.0
        ph.round_sizes.append(len(specs))
        ph.round_times.append(round_time)
        total += round_time
        r += 1
        if n_rounds is not None:
            if r >= n_rounds:
                break
        elif r % len(rounds) == 0 and r >= min_rounds:
            per_pass = total / (r // len(rounds))
            if total + per_pass / 2 >= seconds:
                break
    return ph


def _inputs_digest(rounds) -> str:
    h = hashlib.sha256()
    for chunk in json.JSONEncoder(sort_keys=True, default=repr).iterencode(rounds):
        h.update(chunk.encode())
    return h.hexdigest()


def _per_layer(tracer, n_ops: int, scale: float) -> dict:
    """The per_layer metrics of BENCHMARK.json: counts and self times per
    op (self times at the reference speed), ratios, and cap hits."""
    layer_self = tracer.layer_self_s()
    out = {}
    for metric, layer, label, field in PER_LAYER:
        if field == "cap_hits":
            value = tracer.cap_hits[layer]
        elif field == "distinct_ratio":
            value = tracer.distinct_ratio(label)
        elif label is None:
            value = layer_self[layer] * scale / n_ops
        else:
            calls, self_s = tracer.lookup(layer, label)
            value = (calls if field == "calls" else self_s * scale) / n_ops
        out[metric] = {"value": value, "unit": FIELD_UNITS[field]}
    return out


def main(argv=None) -> int:
    global speed
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "qrtmodal" / "__init__.py").is_file():
        print(f"error: no qrtmodal sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    sys.path.insert(0, str(src))

    import qrtmodal
    import speed
    import workloads
    from tracer import Tracer

    if not Path(qrtmodal.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported qrtmodal from {qrtmodal.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.smoke)

    # set-up: imports and input generation, each repeated, with speed
    # samples between them; the inputs must repeat exactly
    import_s, build_s, setup_speed, digests = [], [], [speed.calibrate(wl.kernels)], set()
    for _ in range(IMPORT_REPEATS):
        import_s.append(_import_seconds(src))
        setup_speed.append(speed.calibrate(wl.kernels))
    for _ in range(SETUP_REPEATS):
        rounds = None  # let the previous build go before the next one
        t = perf_counter()
        rounds = wl.build(args.seed)
        build_s.append(perf_counter() - t)
        setup_speed.append(speed.calibrate(wl.kernels))
        digests.add(_inputs_digest(rounds))
    deterministic = len(digests) == 1
    setup_s = (statistics.median(import_s) + statistics.median(build_s)) * speed.scale(setup_speed)

    # warm-up on inputs of another seed: code paths and allocator, no shared objects
    _run_rounds(wl, [wl.warmup(args.seed)], n_rounds=1)

    main_phase = _run_rounds(wl, rounds, seconds=args.seconds,
                             min_rounds=wl.trace_rounds if args.trace else 1)
    times = main_phase.times
    result: dict = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "smoke": args.smoke, "env": _environment(args)}

    if args.trace:
        n_traced = sum(len(rounds[r % len(rounds)]) for r in range(wl.trace_rounds))
        # the traced ops run once more untraced right before, so that the
        # overhead compares the same ops under the same load
        baseline = _run_rounds(wl, rounds, n_rounds=wl.trace_rounds)
        tracer = Tracer()
        tracer.install()
        try:
            traced = _run_rounds(wl, rounds, n_rounds=wl.trace_rounds, tracer=tracer)
        finally:
            tracer.uninstall()
        outputs = [c.digest for c in baseline.checks]
        matches = outputs == [c.digest for c in main_phase.checks[:n_traced]] == [c.digest for c in traced.checks]
        all_checks = main_phase.checks + baseline.checks + traced.checks
        overhead = sum(baseline.scaled) / sum(traced.scaled)
        metrics = _per_layer(tracer, n_traced, traced.scale)
        metrics["trace_overhead"] = {"value": overhead, "unit": "ratio"}
        traced_total = sum(traced.times)
        result["traced_ops"] = n_traced
        result["traced_matches_untraced"] = matches
        result["layer_share"] = {k: v / traced_total for k, v in tracer.layer_self_s().items()}
        result["functions"] = {k: {"calls": c, "self_s": s} for k, (c, s) in sorted(tracer.function_stats().items())}
        spans_path = OUT / "spans" / f"{wl.name}-seed{args.seed}{'-smoke' if args.smoke else ''}.npz"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.save_spans(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["spans_dropped"] = tracer.spans_dropped
    else:
        matches = True
        all_checks = main_phase.checks
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            # median over rounds: a burst that the calibration misses slows
            # a few rounds, not the figure
            "ops_per_s": {"value": main_phase.ops_per_s(), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(main_phase.scaled) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }

    attempted = len(all_checks)
    failed = sum(1 for c in all_checks if not c.ok)
    oracle_counts: dict = {}
    for c in all_checks:
        for name in c.oracles:
            oracle_counts[name] = oracle_counts.get(name, 0) + 1
    correct = failed == 0 and deterministic and matches

    # figures reported beside the gated metrics, each with its sample count;
    # raw_* are plain wall-clock values, not scaled to the reference speed
    samples = {
        "setup_s": {"n": [IMPORT_REPEATS, SETUP_REPEATS], "raw_import_s": import_s, "raw_build_s": build_s},
        "ops": len(times),
        "rounds": len(main_phase.round_sizes),
        "speed_scale": main_phase.scale,
        "kernel_median_s": {k: statistics.median(x[k] for x in main_phase.speed) for k in wl.kernels},
        "setup_kernel_median_s": {k: statistics.median(x[k] for x in setup_speed) for k in wl.kernels},
        "raw_ops_per_s_rounds": main_phase.raw_ops_per_s(),
        "raw_ops_per_s": len(times) / sum(times),
        "raw_op_p50_ms": statistics.median(times) * 1e3,
        "failed_ratio": {"value": failed / attempted, "unit": "ratio", "n": attempted},
    }
    if len(times) >= P90_MIN_OPS:
        samples["op_p90_ms"] = {"value": statistics.quantiles(main_phase.scaled, n=10)[-1] * 1e3,
                                "unit": "ms", "n": len(times)}
    result.update({
        "correct": correct, "attempted": attempted, "failed": failed,
        "deterministic_inputs": deterministic, "oracles": oracle_counts,
        "failures": [c.why for c in all_checks if not c.ok][:20],
        "metrics": metrics, "samples": samples,
    })
    res_path = OUT / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    res_path.parent.mkdir(parents=True, exist_ok=True)
    res_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    _print_summary(result)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _print_summary(result: dict) -> None:
    s = result["samples"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"ops {s['ops']}  env {json.dumps(result['env'], sort_keys=True)}")
    if not result["trace"]:
        m = result["metrics"]
        n_ops = s["ops"]
        rows = [
            ("setup_s", m["setup_s"], f"median of {IMPORT_REPEATS} imports + median of {SETUP_REPEATS} builds"),
            ("ops_per_s", m["ops_per_s"], f"median of n={s['rounds']} rounds, {n_ops} ops, raw {s['raw_ops_per_s']:.4f}/s"),
            ("op_p50_ms", m["op_p50_ms"], f"n={n_ops} ops, raw {s['raw_op_p50_ms']:.4f} ms"),
        ]
        rows.append(("op_p90_ms", s.get("op_p90_ms"), f"n={n_ops} ops, needs >= {P90_MIN_OPS}"))
        rows.append(("failed_ratio", s["failed_ratio"], f"n={s['failed_ratio']['n']} ops"))
        rows.append(("peak_rss_mb", m["peak_rss_mb"], "n=1 process"))
        for name, v, note in rows:
            value, unit = (f"{v['value']:12.4f}", v["unit"]) if v else (f"{'n/a':>12}", "ms")
            print(f"  {name:<14} {value} {unit:<9} {note}")
    else:
        print(f"  traced ops {result['traced_ops']}, overhead (traced/untraced ops_per_s) "
              f"{result['metrics']['trace_overhead']['value']:.3f}, outputs match untraced: "
              f"{result['traced_matches_untraced']}")
        for layer, share in sorted(result["layer_share"].items(), key=lambda kv: -kv[1]):
            print(f"  self-time share {layer:<10} {share:7.1%}")
    print(f"  oracles {json.dumps(result['oracles'], sort_keys=True)}")
    for why in result["failures"]:
        print(f"  FAILED {why}")


if __name__ == "__main__":
    sys.exit(main())
