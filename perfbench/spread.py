"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload solver --seeds 1-10 [--json out.json]

Runs ``run.py`` once per seed (untraced, at ``run_seconds`` from
BENCHMARK.json) and prints, per metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the interquartile range as a
share of the median, beside the metric's bound.  Exits 1 if a run fails or
reports a failed check.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--json", default=None, help="write values and summary here")
    args = ap.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                               "--trace", "0"], capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout, file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)

    summary = {}
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        summary[name] = {"median": median, "q1": q1, "q3": q3, "iqr_over_median": spread,
                         "bound": bounds.get(name)}
        print(f"{name:12s} median {median:<10.5g} q1 {q1:<10.5g} q3 {q3:<10.5g} "
              f"iqr/median {spread:.4f}  bound {bounds.get(name)}")
    if args.json:
        Path(args.json).write_text(json.dumps({"workload": args.workload, "values": values,
                                               "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
