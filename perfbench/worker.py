"""One pass of one workload in a fresh process: set-up, the timed pass,
checks, result.

Started by ``run.py`` from the root of a checkout; imports the package from
``src/`` of that checkout only.  Each pass runs in its own process, so any
cache the package keeps across calls starts cold, as it does for a user who
runs the experiment once.  Protocol on stdout: a ``READY`` line once the
package is imported and first-call set-up is done, then one
``RESULT <json>`` line.  Exits non-zero if the package source is missing or
the package would be imported from anywhere else.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import hostref


def _import_package(root: Path) -> None:
    src = root / "src"
    if not (src / "talbot" / "__init__.py").is_file():
        raise SystemExit(f"no package source under {src}")
    sys.path.insert(0, str(src))
    import talbot
    if not Path(talbot.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"talbot imported from {talbot.__file__}, not from {src}")


def _run_pass(tasks, reference: str, tracer=None):
    """Run the task list closed-loop; return the outcomes, each task's wall
    and CPU seconds, and the seconds of the ``reference`` kernel, sampled
    between tasks every ``hostref.EVERY_S`` and once after the last task."""
    outcomes, walls, cpus, refs = [], [], [], []
    last_ref = -hostref.EVERY_S
    for task in tasks:
        if time.perf_counter() - last_ref >= hostref.EVERY_S:
            refs.append(hostref.sample(reference))
            last_ref = time.perf_counter()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.begin("task")
        try:
            outcomes.append((task, task.run(), None))
        except Exception as exc:  # a raised exception is a failed task, not a crash
            outcomes.append((task, None, exc))
        finally:
            if tracer is not None:
                tracer.end()
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
    refs.append(hostref.sample(reference))
    return outcomes, walls, cpus, refs


def _check(outcomes, deep: bool, tally: dict) -> None:
    for task, output, exc in outcomes:
        if exc is not None:
            results = [("task raised " + type(exc).__name__, False)]
            traceback.print_exception(exc, file=sys.stderr)
        else:
            try:
                results = task.check(output, deep)
            except Exception as err:  # a check that cannot run counts as failed
                traceback.print_exception(err, file=sys.stderr)
                results = [("check raised " + type(err).__name__, False)]
        for label, ok in results:
            tally["attempted"] += 1
            if not ok:
                tally["failed"] += 1
                if len(tally["failures"]) < 20:
                    tally["failures"].append(f"{task.label}: {label}")


def _versions() -> dict:
    import numpy
    import scipy
    return {"numpy": numpy.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--deep", action="store_true", help="also run the costly oracles")
    ap.add_argument("--trace-out", default=None, help="trace this pass; write its spans here")
    args = ap.parse_args(argv)

    _import_package(Path.cwd())
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    print("READY", flush=True)

    tracer = tracing.Tracer() if args.trace_out else None
    installation = tracing.install(tracer) if tracer is not None else None
    try:
        outcomes, walls, cpus, refs = _run_pass(wl.tasks(), wl.reference, tracer)
    finally:
        if installation is not None:
            installation.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally = {"attempted": 0, "failed": 0, "failures": []}
    _check(outcomes, args.deep, tally)

    result = {"task_wall_s": walls, "task_cpu_s": cpus, "reference": wl.reference,
              "ref_s": refs, "peak_rss_mb": rss_mb,
              **tally, "inputs": wl.inputs, "versions": _versions()}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.write(Path(args.trace_out))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
