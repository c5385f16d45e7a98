"""capdist benchmark: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload random-small|gaussian|bc-regions|all
                             --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the library is imported from the
checkout's `src/`.  Each workload runs in fresh Python processes started by
worker.py, with one BLAS thread.

--trace 0 (end-to-end): `setup_s` is the median over several fresh
processes of the time from process start to `capdist` imported and the
inputs built.  `run_ratio` is the job time of the checkout's capdist over
that of a pinned reference copy of the library (perfbench/ref/capdist_ref,
capdist as it was when this benchmark was written), both run in one process,
step by step and back to back, for about `--seconds`: the machine's speed
drifts by tens of percent over minutes, which a paired ratio cancels and a
wall time does not.  `peak_rss_mb` is the peak RSS of that process after its
first job, before the reference is loaded.  The wall times of both sides are
printed in the table.

--trace 1 (per-layer): an untraced process and a traced one run one job each;
the traced one wraps the library's public functions (see worker.py) and the
per-layer metrics come from its spans.  `job.wall_s` is the untraced job's
wall time and `tracing.overhead_s` the traced job time minus it.

Every job's outputs are checked by value; the last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.  The
exact counts (solves, BA iterations, oracle lattice points, region samples,
CLI output bytes) must repeat for the same code and seed: between jobs of one
process, between the untraced and traced processes, and against the counts
an earlier run of the same code and seed left in `.perfbench_out/counts/`.
A mismatch stops the benchmark with exit code 1 and no result line.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("random-small", "gaussian", "bc-regions")
SETUP_SAMPLES = 4            # set-up-only processes per run, plus the main one
DEADLINE_S = 175             # per workload, from the start of this process


class BenchError(Exception):
    pass


def declared_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def code_digest():
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed, digest):
    # the ceiling keeps git from finding a repository above the checkout
    git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=git_env,
                                text=True, capture_output=True,
                                timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    caches = {}
    try:
        conf = subprocess.run(["getconf", "-a"], text=True, capture_output=True,
                              timeout=10).stdout.splitlines()
    except (OSError, subprocess.SubprocessError):
        conf = []
    for line in conf:
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE"):
            caches[parts[0]] = parts[1]
    return {"python": platform.python_version(), "machine": platform.machine(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "caches_bytes": caches, "commit": commit or "unknown (not a git checkout)",
            "code_sha256": digest, "seed": seed}


class Worker:
    """Starts worker.py processes and reads their results."""

    def __init__(self, workload, seed, run_dir, deadline):
        self.base = [sys.executable, str(HERE / "worker.py"),
                     "--workload", workload, "--seed", str(seed),
                     "--out-dir", str(run_dir)]
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def start(self, *extra):
        """Run one process; returns (seconds until `ready`, result or None)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time limit reached")
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.base + list(extra), cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, text=True)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            ready = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if code != 0 or first.strip() != "ready":
            raise BenchError(f"worker {' '.join(extra)} failed with exit code {code}")
        lines = rest.splitlines()
        return ready, (json.loads(lines[-1]) if lines else None)


def check_counts(workload, seed, digest, counts):
    """Compare the exact counts with an earlier run of the same code and seed."""
    path = OUT / "counts" / f"{workload}-seed{seed}-{digest[:16]}.json"
    if path.exists():
        before = json.loads(path.read_text(encoding="utf-8"))
        if before != counts:
            raise BenchError(f"{workload}: exact counts {counts} differ from "
                             f"{before} recorded by an earlier run ({path})")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")


def run_workload(workload, seed, seconds, trace, digest):
    """One workload; returns (attempted, failed, failures, metrics, result).

    `result` is the last worker's result line.
    """
    e2e_units, layer_units = declared_metrics()
    run_dir = OUT / f"{workload}-seed{seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    worker = Worker(workload, seed, run_dir, time.monotonic() + DEADLINE_S)
    try:
        if trace:
            worker.start("--mode", "setup")      # fills caches; not measured
            _, base = worker.start("--mode", "once")
            _, res = worker.start("--mode", "traced")
            if base["counts"] != res["counts"]:
                raise BenchError(f"{workload}: exact counts differ between the "
                                 f"untraced ({base['counts']}) and traced "
                                 f"({res['counts']}) processes")
            values = dict(res["diagnostics"], **res["layers"])
            values["job.wall_s"] = base["run_s"][0]
            values["tracing.overhead_s"] = res["run_s"][0] - base["run_s"][0]
            units, runs = layer_units, (base, res)
        else:
            setups = [worker.start("--mode", "setup")[0]
                      for _ in range(SETUP_SAMPLES)]
            ready, res = worker.start("--mode", "paired", "--seconds", str(seconds))
            values = {"setup_s": statistics.median(setups + [ready]),
                      "run_ratio": res["ratio"],
                      "peak_rss_mb": res["peak_rss_mb"]}
            units, runs = e2e_units, (res,)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    check_counts(workload, seed, digest, res["counts"])
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {}
    for name, unit in units.items():
        # layers a workload does not reach read 0 (see perfbench/NOTES.md)
        metrics[name] = {"value": values.get(name, 0.0), "unit": unit}
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    failed = sum(r["failed"] for r in runs)
    return attempted, failed, failures, metrics, res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind so that the running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "capdist" / "__init__.py").is_file():
        print(f"error: no capdist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    digest = code_digest()
    env = environment(args.seed, digest)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    total_attempted = total_failed = 0
    all_metrics = {}
    for name in names:
        try:
            attempted, failed, failures, metrics, result = run_workload(
                name, args.seed, args.seconds, args.trace, digest)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        env.update(result["versions"])
        total_attempted += attempted
        total_failed += failed
        for failure in failures:
            print(f"{name}: check failed: {failure}", file=sys.stderr)
        print(f"== {name} (seed {args.seed}, trace {args.trace})")
        for metric, m in metrics.items():
            value = m["value"]
            text = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
            print(f"  {metric:28s} {text} {m['unit']}")
        print(f"  {'fail_ratio':28s} {failed / attempted:>14.6g} ratio"
              f"  ({failed} of {attempted} checked operations)")
        if not args.trace:
            print(f"  job wall time, median of {len(result['run_s'])} cycles: "
                  f"{statistics.median(result['run_s']):.4g} s with this capdist, "
                  f"{statistics.median(result['ref_s']):.4g} s with the reference")
        if args.trace:
            print("  (a layer this workload does not reach reads 0; "
                  "solver.thread2_speedup is measured on gaussian only)")
        all_metrics.update(metrics if len(names) == 1 else
                           {f"{name}.{k}": v for k, v in metrics.items()})
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": total_failed == 0, "attempted": total_attempted,
                      "failed": total_failed, "metrics": all_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
