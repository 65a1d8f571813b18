"""ptspectra benchmark.

    python3 perfbench/run.py --workload canonical|sweep|tabulate \
        --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from src/. One
process, one thread, closed loop with one client: each operation starts
when the previous one has returned and been checked. Workloads and their
operations are defined in workloads.py; every output is checked against
census.py, which does not call the library.

--trace 0 prints the end-to-end metrics:
  setup_s      median over SETUP_PROBES fresh interpreters plus this one of
               the time to import ptspectra, build the inputs and make one
               warm-up call
  op_ms_p50/90 latency of one operation (a verify_family call, a CLI
               invocation, or one batch of oracle pairs)
  ops_per_s    operations per second of timed operation time
  levels_per_s analytic levels verified (canonical, sweep) or tabulated
               (tabulate) per second of timed operation time
  peak_rss_mb  peak resident set size of this process
--trace 1 runs every operation twice, once plain and once with the span
tracer of spans.py installed (alternating which goes first), prints the
per-layer metrics of the traced calls, and writes the spans to
.bench_out/spans-<workload>-seed<N>.json.

Runs end on a whole pass over the workload's pool (workloads.WINDOW), so
every run has the same mix of operations. The verdict figures
(level_pass_frac, abs_dE_p50, abs_dE_max), the sweep and grid counts and
error_frac are printed on every run; the first three and the counts are
taken over the first pass and are exact for a seed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import os

# BLAS and OpenMP pools are pinned here, before numpy loads, so this process
# and the set-up probes it starts run single-threaded; the library sets none.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 6
PROBE_TIMEOUT_S = 120
MAX_REPORTED_PROBLEMS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("canonical", "sweep", "tabulate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time set-up once in this process, print it and exit")
    return p.parse_args(argv)


def setup(workload, seed, out_dir):
    """Import ptspectra, build the inputs and make one warm-up call.
    Returns (seconds taken, operation pool, workloads module)."""
    t0 = time.perf_counter()
    import workloads  # imports ptspectra
    pool, warmup = workloads.build(workload, seed)
    warmup.check(warmup.run(out_dir))
    return time.perf_counter() - t0, pool, workloads


def probe_setup(workload, seed):
    """Set-up time of a fresh interpreter running this file with --setup-probe."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def call(op, out_dir, i, tracer=None):
    """(seconds, result) of one operation, traced when `tracer` is given."""
    if tracer is None:
        t0 = time.perf_counter()
        result = op.run(out_dir)
        return time.perf_counter() - t0, result
    with tracer.installed(), tracer.operation(i):
        t0 = time.perf_counter()
        result = op.run(out_dir)
        dt = time.perf_counter() - t0
    return dt, result


class Run:
    """Latencies, failures and window outcomes of one sequence of operations."""

    def __init__(self, window):
        self.window = window
        self.attempted = 0
        self.failed = 0
        self.latencies = []
        self.levels = 0
        self.window_outcomes = []

    def step(self, op, out_dir, i, tracer=None):
        self.attempted += 1
        try:
            dt, result = call(op, out_dir, i, tracer)
            problems = op.check(result)
            outcome = op.outcome(result)
        except Exception:  # a raising operation is a counted failure; the run goes on
            problems, outcome = [traceback.format_exc()], None
        if problems:
            self.failed += 1
            if self.failed <= MAX_REPORTED_PROBLEMS:
                sys.stderr.write(f"perfbench: operation {i} {json.dumps(op.describe())} "
                                 f"failed:\n  " + "\n  ".join(problems) + "\n")
        else:
            self.latencies.append(dt)
            self.levels += outcome["levels"]
        if i < self.window and outcome is not None:
            self.window_outcomes.append(outcome)


def drive(pool, window, seconds, body):
    """Call body(i, op) for i = 0, 1, ... in whole passes of `window`
    operations until `seconds` have passed. Returns the count."""
    t_end = time.perf_counter() + seconds
    i = 0
    while True:
        body(i, pool[i % len(pool)])
        i += 1
        if i % window == 0 and time.perf_counter() >= t_end:
            return i


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run, setup_samples):
    lat = run.latencies
    busy = sum(lat)
    return {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "op_ms_p50": metric(statistics.median(lat) * 1e3, "ms"),
        "op_ms_p90": metric(statistics.quantiles(lat, n=10)[-1] * 1e3, "ms"),
        "ops_per_s": metric(len(lat) / busy, "1/s"),
        "levels_per_s": metric(run.levels / busy, "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def report(args, env, pool, n_ops, runs, verdict, metrics, sample_note):
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(env))
    print("inputs " + json.dumps({"workload": args.workload, "seed": args.seed,
                                  "operations": n_ops,
                                  "pool": [op.describe() for op in pool]}))
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:<22.6g} {m['unit']}")
    print(f"  samples: {sample_note}")
    print(f"  verdict over the first {runs[0].window} operations: "
          f"levels={verdict['levels']} level_pass_frac={verdict['level_pass_frac']:.6g} "
          f"abs_dE_p50={verdict['abs_dE_p50']:.6g} abs_dE_max={verdict['abs_dE_max']:.6g} "
          f"sweeps={verdict['sweeps']} grid_points/level={verdict['grid_points']:.6g}")
    print(f"  error_frac={failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ptspectra" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no ptspectra package under {SRC}; "
                         f"run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as out_dir:
        if args.setup_probe:
            print(setup(args.workload, args.seed, out_dir)[0])
            return 0
        setup_samples = [probe_setup(args.workload, args.seed)
                         for _ in range(SETUP_PROBES if not args.trace else 0)]
        own_setup, pool, workloads = setup(args.workload, args.seed, out_dir)
        setup_samples.append(own_setup)
        window = workloads.WINDOW[args.workload]
        env = environment()
        if not args.trace:
            run = Run(window)
            n_ops = drive(pool, window, args.seconds,
                          lambda i, op: run.step(op, out_dir, i))
            verdict = workloads.verdict(run.window_outcomes)
            metrics = end_to_end(run, setup_samples)
            note = (f"{len(run.latencies)} timed operations, "
                    f"{len(setup_samples)} set-up samples")
            report(args, env, pool, n_ops, [run], verdict, metrics, note)
            return 0

        import spans
        tracer = spans.Tracer()
        plain, traced = Run(window), Run(window)

        def both(i, op):
            first, second = (plain, None), (traced, tracer)
            for r, t in ((first, second) if i % 2 == 0 else (second, first)):
                r.step(op, out_dir, i, t)

        n_ops = drive(pool, window, args.seconds, both)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        verdict = workloads.verdict(traced.window_outcomes)
        bytes_out = sum(o["bytes_out"] for o in traced.window_outcomes)
        metrics = spans.layer_metrics(tracer, n_ops, window, verdict, bytes_out)
        metrics["trace.overhead_frac"] = metric(
            sum(traced.latencies) / sum(plain.latencies) - 1, "ratio")
        note = f"{n_ops} operations, each run plain and traced"
        report(args, env, pool, n_ops, [plain, traced], verdict, metrics, note)
        return 0


if __name__ == "__main__":
    sys.exit(main())
