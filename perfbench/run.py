"""Benchmark of the harmonic_knapsack package: one command, three workloads.

    python3 perfbench/run.py --workload {optimum,pack,cli} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --self-check

Run it from the repository root; it builds nothing and imports the package
from src/. Each workload runs in its own worker process (worker.py) as a
single closed-loop client: no threads, one subprocess at a time. The seed
makes every input; the program only ever sees the generated inputs.

Workloads, and why each was chosen:

- optimum: solve(HarmonicParams(k, mu), "auto") + to_decimal(opt, 8) for
  k in 10..14 and mu = a/b < 1 with b <= 12. ip_model's depth-first search
  does nearly all the work, which is what a branch-and-bound solver would
  replace; classify and the packer never run.
- pack: adversarial_instance + harmonic_pack, and seeded random sizes
  wrapped in KnapsackInstance + harmonic_pack, about 1000 items per op.
  classify and the Fraction work in binpack dominate; the two kinds of
  arrivals differ, so a fast path for only one of them shows.
- cli: README commands plus the largest closed-form, sylvester and
  to_decimal cases as `python -m harmonic_knapsack` subprocesses.
  Interpreter start and import dominate, so import bloat and regressions in
  the big-number paths show here while optimum bypasses them.

End-to-end metrics (--trace 0), from the worker run with tracing off. The
machine this was built on is shared, and its speed drifts by up to 1.7 times
over tens of seconds, so raw latencies of identical runs spread by 12 to
40%. A calibration runs before every op (speed.py) and each op's latency is
rescaled to a nominal machine speed; the gated metrics use those nominal
latencies:

    nominal_ops_per_s       ops completed per second of nominal timed time
    nominal_latency_p50_ms  median nominal op latency
    nominal_latency_p90_ms  90th percentile; each run has at least 100 ops,
                            so ten or more lie beyond it
    setup_s                 process start to the first timed op (imports,
                            input generation, expected data, warm-up); the
                            median of SETUP_RUNS worker processes, raw time
    peak_rss_mib            ru_maxrss of the worker, of its children for cli

Printed beside them and stored in the results file, ungated: the raw
ops_per_s, latency_p50_ms and latency_p90_ms, the median calibration time,
error_rate (failed / attempted ops) and, for pack, items_per_s. The failure
count also reaches the result line as `attempted` and `failed`.

Per-layer metrics (--trace 1) come from one worker that runs half the
seconds untraced and half with spans around the package's public functions
(tracing.py); cli runs its commands in-process there, through cli.run.
trace.overhead_ratio is the traced over the untraced mean nominal op
latency. Layers, where they are measured, and what they should move
(nominal_ left out of the names):

    layer metric                                      workload      moves
    ip_model.solve_brute.self_ms/.nodes/.leaf_ratio   optimum       ops_per_s, latency_p90_ms
    solvers.solve.self_ms, exactnum.to_decimal.self_ms optimum, cli latency_p50_ms
    harmonic.classify.us_per_call,                    pack          items_per_s
      harmonic.KnapsackInstance.self_ms,
      binpack.harmonic_pack.us_per_item
    binpack.adversarial_instance.self_ms,             pack          latency_p50_ms, peak_rss_mib
      solvers.greedy_solution.self_ms,
      analysis.build_witness.self_ms
    binpack.bins_used, binpack.fill_ratio             pack          counts only, must not move
    process.interpreter_ms, process.import_ms,        cli           latency_p50_ms
      cli.run_ms
    sylvester.sylvester_table.self_ms,                cli           latency_p90_ms
      solvers.solve_closed_form.self_ms,
      analysis.tinf_bracket.self_ms
    trace.overhead_ratio                              all           none

self_ms is a layer's self time per op, in raw time. process.interpreter_ms
(`python -c pass`) and process.import_ms (`import harmonic_knapsack.cli`,
less the interpreter) are the best of 15 subprocess runs; cli.run_ms is the
mean untraced in-process command. Counts (nodes, leaf_ratio, bins_used,
fill_ratio) cover the first 100 traced ops, so they repeat exactly for a
seed. Every per-layer metric is printed for every workload; one whose layer
did not run there reads 0, and a layer whose function no longer exists is
listed as missing.

The last stdout line is the result object; the lines before it list every
metric with its unit. Metadata and raw samples go to perfbench/results/.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("optimum", "pack", "cli")
SETUP_RUNS = 7
SETUP_TIMEOUT_S = 40
RUN_TIMEOUT_S = 150


class WorkerFailed(Exception):
    pass


def pinned_env(pycache: Path) -> dict:
    """The caller's environment minus PYTHON*/HARMONIC_* settings, plus ours.

    PYTHONDONTWRITEBYTECODE would make every cli subprocess recompile the
    package, HARMONIC_BRUTE_CAP would change the solver's cap; bytecode goes
    to a private cache so src/ stays clean.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "HARMONIC_"))}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONPYCACHEPREFIX=str(pycache), PYTHONHASHSEED="0")
    return env


def spawn(args, workdir: Path, index: int, extra=(), timeout=RUN_TIMEOUT_S):
    """Run one worker; return (monotonic time at spawn, its JSON report).

    Workers of one run share a bytecode cache, so only the first compiles.
    """
    run_dir = workdir / f"worker-{index}"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(run_dir), *extra,
    ]
    if args.corrupt:
        cmd.append("--corrupt")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, env=pinned_env(workdir / "pycache"), cwd=ROOT,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker timed out after {timeout} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return start, json.loads(proc.stdout.splitlines()[-1])


def run_workload(args, workdir: Path):
    """Workers for one run; returns the main worker's report with setup samples.

    With tracing off, an unmeasured setup fills the bytecode cache first, as
    an installed package would have it. Then setup-only workers run before
    and after the measuring worker, so the SETUP_RUNS set-up times (the
    measuring worker's included) span the whole run.
    """
    samples = []

    def setup_only(index):
        start, report = spawn(args, workdir, index, ["--setup-only"], SETUP_TIMEOUT_S)
        samples.append(report["setup_done"] - start)

    probes = SETUP_RUNS - 1 if args.trace == 0 else 0
    if probes:
        spawn(args, workdir, 0, ["--setup-only"], SETUP_TIMEOUT_S)
    for i in range(1, probes // 2 + 1):
        setup_only(i)
    start, report = spawn(args, workdir, SETUP_RUNS)
    samples.append(report["setup_done"] - start)
    for i in range(probes // 2 + 1, probes + 1):
        setup_only(i)
    report["setup_samples_s"] = samples
    return report


def end_to_end(report):
    """Gated values, and the ungated ones printed and stored beside them."""
    summary = dict(report["summary"])
    values = {
        "setup_s": statistics.median(report["setup_samples_s"]),
        "peak_rss_mib": report["rss_kib"] / 1024,
    }
    for name in ("nominal_ops_per_s", "nominal_latency_p50_ms", "nominal_latency_p90_ms"):
        values[name] = summary.pop(name)
    units = {"_ms": "ms", "ops_per_s": "ops/s", "items_per_s": "items/s"}
    extra = {name: (value, next(u for end, u in units.items() if name.endswith(end)))
             for name, value in summary.items()}
    extra["error_rate"] = (report["failed"] / len(report["latencies_ms"]), "ratio")
    return values, extra


def metadata(args):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": commit,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def measure(args):
    """One benchmark run; prints the metric listing and the result line."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        report = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    if args.trace == 0:
        wanted = spec["end_to_end"]
        values, extra = end_to_end(report)
    else:
        wanted = spec["per_layer"]
        values, extra = report["layers"], {}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted = len(report["latencies_ms"])
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"attempted={attempted} failed={report['failed']}")
    for name, metric in metrics.items():
        note = "  (not exercised on this workload)" if args.trace and not metric["value"] else ""
        print(f"  {name:40s} {metric['value']:14.6f} {metric['unit']}{note}")
    for name, (value, unit) in extra.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    for layer in report.get("missing", []):
        print(f"  MISSING layer {layer}")
    for error in report["errors"]:
        print(f"  FAILED {error}")

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    record = {
        "meta": metadata(args),
        "metrics": metrics,
        "extra": {name: {"value": v, "unit": u} for name, (v, u) in extra.items()},
        "raw": {
            "setup_s": report["setup_samples_s"],
            "latencies_ms": report["latencies_ms"],
            "calibration_ms": report["cal_ms"],
        },
        "errors": report["errors"],
    }
    if args.trace:
        record.update(layers=report["layers"], calls=report["calls"], missing=report["missing"],
                      spans=report["spans"])
    out.write_text(json.dumps(record))
    print(f"  results in {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": attempted,
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


def self_check():
    """Short runs of every workload: metric names and units, repeatable
    counts, and a corrupted expected value reported as a failed op."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    def result(workload, trace, *extra):
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace), *extra]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            problems.append(f"{workload} trace={trace} {extra}: exit {proc.returncode}\n{proc.stderr}")
            return None
        return json.loads(proc.stdout.splitlines()[-1])

    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = result(workload, trace)
            if res is None:
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != want:
                problems.append(f"{workload} trace={trace}: metrics {sorted(got)} != {sorted(want)}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{workload} trace={trace}: {res['failed']} failed ops")
            print(f"{workload} trace={trace}: attempted={res['attempted']} failed={res['failed']}")
            for name, m in res["metrics"].items():
                print(f"  {name:40s} {m['value']:14.6f} {m['unit']}")
            if trace:
                again = result(workload, 1)
                for name in ("ip_model.solve_brute.nodes", "binpack.bins_used", "binpack.fill_ratio"):
                    if again and again["metrics"][name] != res["metrics"][name]:
                        problems.append(f"{workload}: {name} differs between two traced runs")
        res = result(workload, 0, "--corrupt")
        if res is not None and (res["correct"] or res["failed"] < 1):
            problems.append(f"{workload}: a corrupted expected value was not reported as a failed op")
        elif res is not None:
            print(f"{workload} with a corrupted expected value: failed={res['failed']} correct={res['correct']}")
    for problem in problems:
        print(f"SELF-CHECK PROBLEM: {problem}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-check", action="store_true", help="short runs that test the benchmark itself")
    parser.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "harmonic_knapsack" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'harmonic_knapsack'}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if None in (args.workload, args.seed, args.seconds, args.trace) or args.seconds < 1:
        parser.error("--workload, --seed, --seconds (>= 1) and --trace are required")
    try:
        return measure(args)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
