"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sweep-frac --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
A run is a sequence of passes, each in a fresh worker process
(``worker.py``): set-up, then the whole task list once.  Workers are started
one after another while the next one still fits in ``--seconds`` (at least
``MIN_PASSES``), so ``setup_s`` and ``peak_rss_mb`` belong to this workload
alone and no cache outlives a pass.  Load is a closed loop from one client:
the next task starts when the previous one returns.  ``TALBOT_THREADS`` is
removed from the workers' environment, so the package runs at its default
of one worker thread.

Every time of a pass is scaled to nominal host speed by the workload's
reference kernel (``hostref``), then each task's time is its median over
the passes.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a run whose passes
alternate traced and untraced, and the spans go to ``.bench_out/``.  Lines
before it (prefixed ``#``) give the environment, the generated inputs and a
readable metric table.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostref
import tracing

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3         # untraced passes per run, whatever --seconds says
RUN_DEADLINE_S = 170   # the whole run, set-ups included
WORKLOADS = ("sweep-frac", "sweep-oblique", "slice-fractal", "solver")


def _environment(versions: dict) -> dict:
    env = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
           **versions, "cpu_model": None, "llc_bytes": None}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        sizes = []
        for index in caches.glob("index*"):
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
            mult = {"K": 1 << 10, "M": 1 << 20}.get(text[-1], 1)
            sizes.append((level, int(text.rstrip("KM")) * mult))
        if sizes:
            env["llc_bytes"] = max(sizes)[1]
    except (OSError, ValueError):
        pass
    return env


def _worker(args, deep: bool, deadline: float, trace_out: str | None):
    """Run one pass in a fresh worker and wait for it; return (seconds from
    spawn to READY, result).  A worker still running at the deadline is
    killed."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)]
    if deep:
        cmd.append("--deep")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    env = {k: v for k, v in os.environ.items() if k != "TALBOT_THREADS"}
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        result = None
        for line in proc.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0 or result is None:
        raise RuntimeError(f"worker failed (exit code {code})")
    return setup_s, result


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def _speed(res: dict) -> float:
    """The factor that scales this pass's times to nominal host speed."""
    return hostref.NOMINAL_S[res["reference"]] / statistics.median(res["ref_s"])


def _per_task(passes: list[tuple[float, dict]], key: str) -> list[float]:
    """Each task's median over the passes of its scaled time."""
    scaled = [[t * _speed(res) for t in res[key]] for _, res in passes]
    return [statistics.median(times) for times in zip(*scaled)]


def _end_to_end(passes: list[tuple[float, dict]]) -> tuple[dict, dict]:
    walls = _per_task(passes, "task_wall_s")
    p90 = _quantile(walls, 90)
    per_task = f"{len(walls)} tasks, each its median of {len(passes)} passes"
    metrics = {
        "setup_s": {"value": statistics.median(setup * _speed(res) for setup, res in passes),
                    "unit": "s"},
        "wall_s": {"value": sum(walls), "unit": "s"},
        "cpu_s": {"value": sum(_per_task(passes, "task_cpu_s")), "unit": "s"},
        "task_p50_s": {"value": statistics.median(walls), "unit": "s"},
        "task_p90_s": {"value": p90, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(res["peak_rss_mb"] for _, res in passes),
                        "unit": "MiB"},
    }
    notes = {"setup_s": f"median of {len(passes)} set-ups", "wall_s": per_task,
             "cpu_s": per_task, "task_p50_s": per_task,
             "task_p90_s": f"{per_task}; {sum(t > p90 for t in walls)} beyond",
             "peak_rss_mb": f"median of {len(passes)} workers"}
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "talbot" / "__init__.py").is_file():
        print(f"error: run from the root of a talbot checkout (no src/talbot under {root})",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    start = time.perf_counter()
    untraced, traced = [], []
    try:
        while True:
            # in a traced run, traced and untraced passes alternate, traced first
            tracing_this = args.trace and len(traced) == len(untraced)
            trace_out = None
            if tracing_this:
                trace_out = str(root / ".bench_out"
                                / f"spans-{args.workload}-{args.seed}-{len(traced)}.json")
            first = not (traced or untraced)
            (traced if tracing_this else untraced).append(
                _worker(args, first, deadline, trace_out))
            elapsed = time.perf_counter() - start
            done = len(traced) + len(untraced)
            if len(untraced) >= MIN_PASSES and elapsed + elapsed / done > args.seconds:
                break
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    everything = traced + untraced
    res0 = everything[0][1]
    env = _environment(res0["versions"])
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("# environment " + json.dumps(env))
    print("# inputs " + json.dumps({"seed": args.seed, "workload": args.workload,
                                    "inputs": res0["inputs"]}))
    attempted = sum(res["attempted"] for _, res in everything)
    failed = sum(res["failed"] for _, res in everything)
    for _, res in everything:
        for f in res["failures"]:
            print(f"# FAILED {f}")

    refs = [statistics.median(res["ref_s"]) for _, res in untraced]
    print("# measured " + json.dumps({
        "passes": len(untraced), "traced_passes": len(traced),
        "reference": res0["reference"], "ref_median_s": refs,
        "nominal_ref_s": hostref.NOMINAL_S[res0["reference"]],
        "setup_s": [setup for setup, _ in untraced],
        "pass_wall_s": [sum(res["task_wall_s"]) for _, res in untraced]}))
    if args.trace:
        layers = [res["layers"] for _, res in traced]
        metrics = {name: {"value": statistics.median(lay[name] for lay in layers),
                          "unit": tracing.layer_unit(name)} for name in layers[0]}
        overhead = sum(_per_task(traced, "task_wall_s")) / sum(_per_task(untraced, "task_wall_s"))
        metrics["trace.overhead_frac"] = {"value": overhead - 1.0, "unit": "ratio"}
        notes = {}
    else:
        metrics, notes = _end_to_end(untraced)
    for name, m in metrics.items():
        print(f"# {name:40s} {m['value']:<14.6g} {m['unit']:6s} {notes.get(name, '')}")
    print(f"# {'error_rate':40s} {failed / max(1, attempted):<14.6g} {'ratio':6s} "
          f"{failed} failed / {attempted} checks")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
