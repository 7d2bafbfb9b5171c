"""crcontact benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload ex51-study --seed 0 --seconds 30 --trace 0

The workloads are defined, with the reason for each, in workloads.py. The
seed generates the workload's INI config; crcontact receives only that file.
One caller runs the workload in a closed loop: each run is a fresh process
(worker.py) started after the previous one has ended, until ``--seconds``
have passed, with BLAS and OpenMP pinned to one thread.

``--trace 0`` prints the end-to-end metrics:
  wall_s       median wall time of one run, from process start to the result
  setup_s      median time from process start until the first level starts
               solving (import, config parsing, mesh chain); besides the
               measured runs, SETUP_SAMPLES processes do only this part
  peak_rss_mb  median peak RSS of a run's own process (getrusage)
``--trace 1`` alternates untraced and traced runs and prints the per-layer
metrics of the traced ones (spans.py), including the tracing overhead as
traced minus untraced median wall time. Spans go to .bench_work/.

Every run checks its outputs (worker.py); a run that raises or fails a
check counts in ``failed``, and the fail rate is failed / attempted. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 4
DEADLINE_S = 170.0  # every run of this script ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
REFERENCES = {("ex51-study", 0): os.path.join(HERE, "reference", "ex51-study-seed0.json")}


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        **{var: "1" for var in THREAD_VARS},
    }


class Runner:
    """Starts worker processes one at a time and collects their results."""

    def __init__(self, workload: str, seed: int, workdir: str, config: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.config = config
        self.started = time.monotonic()
        self.env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"),
                    "PYTHONHASHSEED": "0", **{var: "1" for var in THREAD_VARS}}
        self.results: list[dict] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def run(self, mode: str, trace: bool) -> dict:
        run_id = f"{self.workload}-s{self.seed}-{len(self.results)}"
        base = os.path.join(self.workdir, run_id)
        job = {
            "run_id": run_id, "root": ROOT, "config": self.config,
            "kind": workloads.WORKLOADS[self.workload].kind, "mode": mode,
            "trace": trace, "seed": self.seed,
            "reference": REFERENCES.get((self.workload, self.seed)),
            "result": base + ".result.json", "spans": base + ".spans.jsonl",
        }
        job["t0"] = time.monotonic()
        with open(base + ".job.json", "w") as f:
            json.dump(job, f)
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), base + ".job.json"],
                                  cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.remaining()))
            stderr = proc.stderr
        except subprocess.TimeoutExpired as exc:
            stderr = f"timed out after {exc.timeout:.0f} s"
        try:
            with open(job["result"]) as f:
                result = json.load(f)
        except (OSError, ValueError):
            result = {"run_id": run_id, "mode": mode, "trace": trace, "ok": False, "checks": {}}
        if not result["ok"]:
            result["stderr"] = stderr[-2000:]
        result["spans_path"] = job["spans"] if trace else None
        self.results.append(result)
        status = "ok" if result["ok"] else "FAILED"
        times = " ".join(f"{k} {result[k]:.4f}" for k in ("setup_s", "wall_s", "peak_rss_mb")
                         if k in result)
        print(f"run {run_id} mode={mode} trace={int(trace)} {times} {status}", flush=True)
        if not result["ok"]:
            failed = [f"{name}: {c['detail']}" for name, c in result["checks"].items() if not c["ok"]]
            print("\n".join(["  " + line for line in failed]
                            + [result.get("exception") or result["stderr"]]), file=sys.stderr)
        return result

    def window(self, seconds: float, trace: bool) -> None:
        """Closed loop: the next run starts when the previous ends, for ``seconds``."""
        start = time.monotonic()
        while True:
            t = time.monotonic()
            self.run("full", trace=False)
            if trace:
                self.run("full", trace=True)
            last = time.monotonic() - t
            if time.monotonic() - start >= seconds or self.remaining() < 1.2 * last + 5.0:
                break


def median_of(results, key):
    values = [r[key] for r in results if r["ok"] and key in r]
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "crcontact", "__init__.py")):
        print(f"error: no crcontact sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    config = os.path.join(workdir, "config.ini")
    with open(config, "w") as f:
        f.write(workloads.config_text(args.workload, args.seed))
    env = environment()
    print("env " + json.dumps(env), flush=True)
    print(f"config {os.path.relpath(config, ROOT)}", flush=True)

    runner = Runner(args.workload, args.seed, workdir, config)
    # warm-up: compiles bytecode and fills the file cache; not measured
    runner.run("setup", trace=False)
    # set-up samples before and after the window, so that one slow spell
    # of a shared machine does not move all of them
    setup_samples = 0 if args.trace else SETUP_SAMPLES // 2
    for _ in range(setup_samples):
        runner.run("setup", trace=False)
    runner.window(args.seconds, trace=bool(args.trace))
    for _ in range(setup_samples):
        if runner.remaining() < 10.0:
            break
        runner.run("setup", trace=False)

    results = runner.results
    measured = [r for r in results[1:] if r["mode"] == "full"]
    untraced = [r for r in measured if not r["trace"]]
    traced = [r for r in measured if r["trace"]]
    attempted = len(results)
    failed = sum(not r["ok"] for r in results)
    print(f"fail_rate {failed}/{attempted}", flush=True)

    if args.trace:
        per_run = [spans.layer_metrics(spans.load(r["spans_path"])) for r in traced if r["ok"]]
        computed = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]} \
            if per_run else {}
        wall_traced, wall_untraced = median_of(traced, "wall_s"), median_of(untraced, "wall_s")
        if computed and wall_traced is not None and wall_untraced is not None:
            computed["trace.overhead_s"] = wall_traced - wall_untraced
            print(f"trace wall_s traced {wall_traced:.4f} untraced {wall_untraced:.4f}")
        kind = workloads.WORKLOADS[args.workload].kind
        for name, why in spans.ABSENT[kind].items():
            print(f"absent {name}: {why}; reported as 0")
        for layer in spans.LAYERS:
            if f"{layer}.self_s" in computed:
                print(f"self_s {layer} {computed[f'{layer}.self_s']:.4f}")
        print("spans " + " ".join(os.path.relpath(r["spans_path"], ROOT) for r in traced))
        wanted = bench["per_layer"]
    else:
        setup_runs = [r for r in results[1:] if r["mode"] == "setup"] + untraced
        computed = {
            "wall_s": median_of(untraced, "wall_s"),
            "setup_s": median_of(setup_runs, "setup_s"),
            "peak_rss_mb": median_of(untraced, "peak_rss_mb"),
        }
        computed = {k: v for k, v in computed.items() if v is not None}
        wanted = bench["end_to_end"]

    with open(os.path.join(workdir, "result.json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "env": env, "attempted": attempted, "failed": failed,
                   "metrics": computed, "runs": results}, f, indent=1)

    names = [m["name"] for m in wanted]
    missing = [n for n in names if n not in computed]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    extra = sorted(set(computed) - set(names))
    if extra:
        print(f"error: computed metrics not in BENCHMARK.json: {', '.join(extra)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
