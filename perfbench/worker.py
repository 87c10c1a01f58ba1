"""One workload process: set up, run timed ops in a closed loop, check each op.

run.py starts this file with a pinned environment (PYTHONPATH=src, a
private PYTHONPYCACHEPREFIX) and reads the single JSON object it prints:

    python3 perfbench/worker.py --workload optimum --seed 1 --seconds 20 \
        --trace 0 --workdir DIR [--setup-only] [--corrupt]

Ops run one after another with no threads; the cli workload runs one
subprocess at a time. Ops come in rounds whose mix of op kinds is fixed, so
the seed changes the inputs and their order, never the mix, and a run only
stops at the end of a round. Every op's output is checked outside its timed
region; a wrong output, an exception or a non-zero exit counts as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import reference
import tracing
from speed import nominal_latencies, packing_calibration, search_calibration, spawn_calibration

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
# Each timed phase completes at least this many ops, so at least ten latency
# samples lie beyond the 90th percentile.
MIN_OPS = 100
CLI_TIMEOUT_S = 60


class Optimum:
    """Exact optimum queries in the mu < 1 corner: solve(..., "auto") + to_decimal.

    Every query goes to the depth-first search of ip_model.solve_brute, whose
    cost depends on k alone (about 2 ms at k=10, 80 ms at k=14). One round
    asks one query per k level, so the k mix is uniform: the median then
    sits in the middle of the k=12 block and the 90th percentile in the
    middle of the k=14 block, away from the jumps between levels.
    """

    K_LEVELS = (10, 11, 12, 13, 14)
    calibrate = staticmethod(search_calibration)
    MAX_DEN = 12
    DIGITS = 8

    @classmethod
    def pool(cls):
        """The 230 (k, mu) pairs: k in K_LEVELS, mu = a/b in [0, 1), b <= MAX_DEN."""
        mus = sorted({Fraction(a, b) for b in range(1, cls.MAX_DEN + 1) for a in range(b)})
        return [(k, mu) for k in cls.K_LEVELS for mu in mus]

    def __init__(self, seed, workdir):
        from harmonic_knapsack import exactnum, harmonic, solvers

        self.exactnum, self.solvers = exactnum, solvers
        self.seed = seed
        rows = json.loads((EXPECTED / "optimum.json").read_text())["rows"]
        self.expected = {}
        for row in rows:
            key = (row["k"], Fraction(row["mu"]))
            opt, argmax = Fraction(row["opt"]), tuple(row["argmax"])
            problem = reference.knapsack_check(key[0], key[1], argmax, opt)
            if problem:
                raise ValueError(f"expected table, k={key[0]} mu={key[1]}: {problem}")
            self.expected[key] = (opt, argmax, row["decimal"])
        if sorted(self.expected) != self.pool():
            raise ValueError("expected/optimum.json does not cover the query pool")
        self.params = {key: harmonic.HarmonicParams(*key) for key in self.expected}

    def corrupt(self):
        key = next(self.rounds())[0]
        opt, argmax, decimal = self.expected[key]
        self.expected[key] = (opt + 1, argmax, decimal)

    def rounds(self):
        rng = random.Random(self.seed)
        mus = sorted({mu for _, mu in self.pool()})
        while True:
            batch = [(k, rng.choice(mus)) for k in self.K_LEVELS]
            rng.shuffle(batch)
            yield batch

    def warm_up(self):
        # every k takes the same code path, so the cheapest one warms it
        key = (self.K_LEVELS[0], Fraction(0))
        error = self.check(key, self.run(key))
        if error:
            raise ValueError(f"warm-up query {key}: {error}")

    def run(self, key):
        outcome = self.solvers.solve(self.params[key], "auto")
        return outcome, self.exactnum.to_decimal(outcome.opt, self.DIGITS)

    inproc = run

    def check(self, key, out):
        outcome, decimal = out
        opt, argmax, expected_decimal = self.expected[key]
        if outcome.opt != opt:
            return f"opt {outcome.opt} != expected {opt}"
        if tuple(outcome.counts) != argmax:
            return f"argmax {outcome.counts} != expected {argmax}"
        if decimal != expected_decimal:
            return f"decimal {decimal} != expected {expected_decimal}"
        return reference.knapsack_check(key[0], key[1], tuple(outcome.counts), outcome.opt)


class Pack:
    """Online packing as `simulate` does it, about ITEMS_PER_OP items per op.

    Half the ops build adversarial_instance (class-sorted copies of one
    witness bundle: few distinct sizes with small denominators) and pack it;
    the other half pack seeded uniform sizes p/10^6, which spread over every
    class with large denominators. A fast path that helps only one kind of
    arrival therefore shows. Checks go to an independent integer packer and
    never read PackingResult.bins.
    """

    FAMILY_KS = (("lee", 3), ("lee", 7), ("lee", 12), ("lee", 44),
                 ("caprara", 5), ("caprara", 9), ("caprara", 14), ("caprara", 100))
    ITEMS_PER_OP = 1000
    calibrate = staticmethod(packing_calibration)
    EPS = Fraction(1, 100_000)
    RANDOM_DEN = 10**6

    def __init__(self, seed, workdir):
        from harmonic_knapsack import analysis, binpack, harmonic

        self.binpack, self.harmonic = binpack, harmonic
        self.seed = seed
        self.corrupted = False
        self.params = [harmonic.HarmonicParams(k, analysis.mu_for(fam, k)) for fam, k in self.FAMILY_KS]
        self.bundles = []
        for params in self.params:
            bundle = len(binpack.adversarial_instance(params, 1, self.EPS))
            self.bundles.append(max(1, round(self.ITEMS_PER_OP / bundle)))
        self.sizes = []  # exact total size of each checked op, in order
        self.items = 0  # items packed by the ops checked so far

    def corrupt(self):
        self.corrupted = True

    def rounds(self):
        rng = random.Random(self.seed)
        den = self.RANDOM_DEN
        while True:
            batch = [("adversarial", i, None) for i in range(len(self.params))]
            for i in range(len(self.params)):
                units = [rng.randint(1, den) for _ in range(self.ITEMS_PER_OP)]
                batch.append(("random", i, units))
            rng.shuffle(batch)
            yield batch

    def warm_up(self):
        for kind in ("adversarial", "random"):
            units = [self.RANDOM_DEN // 3] * 10 if kind == "random" else None
            op = self.prepare((kind, 0, units))
            error = self.check(op, self.run(op))
            if error:
                raise ValueError(f"warm-up {kind} op: {error}")
        self.sizes.clear()
        self.items = 0

    def prepare(self, op):
        """Untimed input generation: the Fraction sizes of a random op."""
        kind, i, units = op
        if kind == "random":
            return kind, i, [Fraction(u, self.RANDOM_DEN) for u in units], units
        return kind, i, None, None

    def run(self, op):
        kind, i, sizes, _ = op
        params = self.params[i]
        if kind == "adversarial":
            instance = self.binpack.adversarial_instance(params, self.bundles[i], self.EPS)
        else:
            instance = self.harmonic.KnapsackInstance(tuple(sizes))
        return instance, self.binpack.harmonic_pack(params, instance)

    inproc = run

    def check(self, op, out):
        kind, i, _, units = op
        instance, result = out
        k = self.params[i].k
        if kind == "adversarial":
            units, scale = reference.to_units(instance.items)
            expected = reference.reference_pack(k, units, scale)
            if expected["total"] != self.bundles[i]:
                return f"adversarial instance totals {expected['total']}, not {self.bundles[i]} bundles"
        else:
            expected = reference.reference_pack(k, units, self.RANDOM_DEN)
        if self.corrupted and not self.sizes:
            expected["bins_used"] += 1
        self.sizes.append(expected["total"])
        self.items += len(units)
        field = reference.packing_mismatch(result, expected)
        if field:
            return f"{field}: {getattr(result, field)} != reference {expected[field]}"
        return None


class Cli:
    """README commands, and the largest sizes of the big-number paths, as
    `python -m harmonic_knapsack` subprocesses (the package is not installed).

    Interpreter start and package import dominate every command here except
    `simulate --adversarial`, so this workload catches import bloat and the
    closed-form, sylvester and to_decimal paths at their largest sizes. The
    weights put the median inside the block of quick commands and the 90th
    percentile inside the block of big-number commands (about 64% and 96%
    of a round are below their upper ends), away from block edges.
    """

    GOOGOL = str(10**100)
    calibrate = staticmethod(spawn_calibration)
    # (command line as written, runs per round)
    COMMANDS = (
        ("eval --k 4 --mu 4/3 --x 2/7", 2),
        ("ip-opt --k 10 --mu 80/71 --explain", 2),
        ("ip-opt --k 12 --family lee", 2),
        ("table --family lee --k-min 2 --k-max 12", 2),
        ("sylvester --count 7", 2),
        ("limit --terms 10", 2),
        ("witness --k 4 --mu 4/3 --eps 1/100", 2),
        ("simulate --k 3 --mu 3/2 --items sizes.json --shuffle 7", 2),
        ("table --family refined --k-min 3 --k-max 50 --format json", 2),
        ("sylvester --count 14", 2),
        ("limit --terms 12 --digits 4000", 2),
        ("ip-opt --k 10**100 --family lee --explain", 2),
        ("simulate --k 12 --adversarial 1000 --eps 1/1000", 1),
    )

    def __init__(self, seed, workdir):
        self.seed = seed
        write_sizes(workdir / "sizes.json")
        self.golden = json.loads((EXPECTED / "cli.json").read_text())
        if sorted(self.golden) != sorted(line for line, _ in self.COMMANDS):
            raise ValueError("expected/cli.json does not cover the command list")
        self.cli = None

    def corrupt(self):
        self.golden[next(self.rounds())[0]] = "0" * 64

    @classmethod
    def argv(cls, line):
        return line.replace("10**100", cls.GOOGOL).split()

    def rounds(self):
        rng = random.Random(self.seed)
        while True:
            batch = [line for line, weight in self.COMMANDS for _ in range(weight)]
            rng.shuffle(batch)
            yield batch

    def warm_up(self):
        # compiles the package into the private bytecode cache
        line = self.COMMANDS[0][0]
        error = self.check(line, self.run(line))
        if error:
            raise ValueError(f"warm-up command {line!r}: {error}")

    def run(self, line):
        return run_cli_subprocess(self.argv(line))

    def inproc(self, line):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.cli.run(self.argv(line))
        return code, buf.getvalue().encode()

    def check(self, line, out):
        code, stdout = out
        if code != 0:
            return f"exit code {code}"
        if hashlib.sha256(stdout).hexdigest() != self.golden[line]:
            return "stdout differs from the golden capture"
        return None

    def pre_trace(self):
        """Interpreter start and package import, as the best of 15 subprocess runs."""
        from harmonic_knapsack import cli

        self.cli = cli

        def best_ms(code, runs=15):
            samples = []
            for _ in range(runs):
                start = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, timeout=CLI_TIMEOUT_S)
                samples.append((time.perf_counter() - start) * 1000)
            return min(samples)

        interpreter = best_ms("pass")
        imported = best_ms("import harmonic_knapsack.cli")
        return {"process.interpreter_ms": interpreter, "process.import_ms": imported - interpreter}


def write_sizes(path):
    """The fixed item file the README's `simulate --items sizes.json` reads."""
    path.write_text(json.dumps([f"{p}/1009" for p in range(1, 1009, 5)]))


def run_cli_subprocess(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "harmonic_knapsack", *argv],
        capture_output=True,
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


WORKLOADS = {"optimum": Optimum, "pack": Pack, "cli": Cli}


def measure(workload, run, seconds, calibrate, tracer=None):
    """Closed loop over whole rounds until `seconds` and MIN_OPS are both reached.

    A calibration (speed.py) runs before every op, outside its timed region,
    to tell the machine speed each op saw.
    """
    prepare = getattr(workload, "prepare", lambda op: op)
    latencies, cal, errors = [], [], []
    failed = 0
    deadline = time.perf_counter() + seconds
    for batch in workload.rounds():
        for op in batch:
            op = prepare(op)
            op_id = len(latencies)
            cal.append(calibrate())
            start = time.perf_counter()
            try:
                out = tracer.run_op(op_id, run, op) if tracer else run(op)
            except Exception as exc:  # the op failed; keep measuring
                out, error = None, f"{type(exc).__name__}: {exc}"
            else:
                error = None
            latencies.append((time.perf_counter() - start) * 1000)
            if error is None:
                try:
                    error = workload.check(op, out)
                except Exception as exc:  # malformed output counts as a failure
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error:
                failed += 1
                if len(errors) < 10:
                    errors.append(f"op {op_id}: {error}")
        if time.perf_counter() >= deadline and len(latencies) >= MIN_OPS:
            return {
                "latencies_ms": latencies,
                "cal_ms": cal,
                "calibration": calibrate.__name__,
                "failed": failed,
                "errors": errors,
            }


def percentiles(lat):
    return statistics.median(lat), statistics.quantiles(lat, n=10, method="inclusive")[8]


def summarize(phase):
    """End-to-end latency statistics of one untraced phase, rescaled and raw."""
    done = len(phase["latencies_ms"]) - phase["failed"]
    stats = {}
    for prefix, lat in (("nominal_", nominal_latencies(phase)), ("", phase["latencies_ms"])):
        p50, p90 = percentiles(lat)
        stats.update({
            prefix + "ops_per_s": done / (sum(lat) / 1000),
            prefix + "latency_p50_ms": p50,
            prefix + "latency_p90_ms": p90,
        })
    stats["calibration_ms"] = statistics.median(phase["cal_ms"])
    return stats


def layer_metrics(workload, tracer, base, traced, extra):
    """Per-layer values; a layer that never ran reads 0."""
    ops = len(traced["latencies_ms"])
    metrics = dict(extra)
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_ms"] = tracer.self_ns(layer) / ops / 1e6
    brute = tracer.window.get("ip_model.solve_brute", {})
    metrics["ip_model.solve_brute.nodes"] = brute.get("nodes", 0)
    metrics["ip_model.solve_brute.leaf_ratio"] = brute.get("leaves", 0) / brute["nodes"] if brute.get("nodes") else 0
    calls = tracer.calls("harmonic.classify")
    metrics["harmonic.classify.us_per_call"] = tracer.incl_ns("harmonic.classify") / calls / 1e3 if calls else 0
    items = tracer.overall.get("binpack.harmonic_pack", {}).get("items", 0)
    metrics["binpack.harmonic_pack.us_per_item"] = tracer.self_ns("binpack.harmonic_pack") / items / 1e3 if items else 0
    bins = tracer.window.get("binpack.harmonic_pack", {}).get("bins", 0)
    metrics["binpack.bins_used"] = bins
    sizes = getattr(workload, "sizes", [])
    metrics["binpack.fill_ratio"] = float(sum(sizes[: tracing.COUNT_OPS]) / bins) if bins and sizes else 0
    metrics.setdefault("process.interpreter_ms", 0)
    metrics.setdefault("process.import_ms", 0)
    metrics["cli.run_ms"] = statistics.fmean(base["latencies_ms"]) if isinstance(workload, Cli) else 0
    metrics["trace.overhead_ratio"] = statistics.fmean(nominal_latencies(traced)) / statistics.fmean(nominal_latencies(base))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--corrupt", action="store_true", help="corrupt one expected value (self-check)")
    args = parser.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(args.workdir)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.warm_up()
    report = {"setup_done": time.monotonic()}
    if args.corrupt:
        workload.corrupt()
    if args.setup_only:
        print(json.dumps(report))
        return 0

    if args.trace == 0:
        phase = measure(workload, workload.run, args.seconds, workload.calibrate)
        who = resource.RUSAGE_CHILDREN if isinstance(workload, Cli) else resource.RUSAGE_SELF
        report.update(phase, summary=summarize(phase), rss_kib=resource.getrusage(who).ru_maxrss)
        if isinstance(workload, Pack):
            report["summary"]["items_per_s"] = workload.items / (sum(phase["latencies_ms"]) / 1000)
    else:
        extra = workload.pre_trace() if hasattr(workload, "pre_trace") else {}
        half = args.seconds / 2
        # in-process ops, so cli calibrates in-process here too
        calibrate = packing_calibration if isinstance(workload, Cli) else workload.calibrate
        base = measure(workload, workload.inproc, half, calibrate)
        if hasattr(workload, "sizes"):
            workload.sizes.clear()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = measure(workload, workload.inproc, half, calibrate, tracer)
        finally:
            tracer.uninstall()
        report.update(
            latencies_ms=base["latencies_ms"] + traced["latencies_ms"],
            cal_ms=base["cal_ms"] + traced["cal_ms"],
            failed=base["failed"] + traced["failed"],
            errors=base["errors"] + traced["errors"],
            layers=layer_metrics(workload, tracer, base, traced, extra),
            missing=tracer.missing,
            calls={name: totals[0] for name, totals in tracer.totals.items()},
            spans=tracer.spans,
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
