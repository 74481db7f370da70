"""Command-line experiment driver binding all modules.

Subcommands
-----------
sweep       sup/L2/L4 norms of dyadic blocks across scales, with exponent fits
dimension   sample a slice; report box dimension, Holder exponent, Besov decay
quantize    exact translate reconstruction at rational theta vs truncated series
l4count     exact resonant-quadruple counts with a quadrature cross-check
nls, kdv    split-step solves with a smoothing-residual regularity report
bounds      exact rational bound tables
acceptance  the numbered acceptance experiments

Every run emits a JSON report whose ``config`` block echoes the resolved
configuration (flags merged over an optional ``--config`` JSON file), the
library version, and any seeds; wall-clock timestamps appear only in that
report, never in CSV artifacts, so identical configurations produce
byte-identical CSV.  Threshold flags (``--max-slope``, ``--min-holder``,
...) turn measurements into pass/fail checks.

Exit codes: 0 -- all requested thresholds met; 1 -- a threshold failed
(reports are still written); 2 -- configuration error.

The environment variable TALBOT_THREADS caps worker threads for sweeps; a
value that is not an integer >= 1 is a configuration error (exit 2).
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import __version__
from ._fftsum import grid_values, next_pow2
from .bounds import (bound_table, exponent_pair_bound, format_bound,
                     frac_nls_beta, heath_brown_exponent, oblique_interval,
                     strichartz_lower, t32_dimension_interval, t32_exponent,
                     vdc_beta, vinogradov_interval, weyl_exponent)
from .acceptance import run_acceptance
from .dispersion import TimePoint, parse_relation, parse_theta
from .evolution import SliceSpec, evolve_slice, parse_slice, quantize_verify
from .expsum import l4_quadruple_oracle, sup_norm_sweep
from .fractal import besov_profile, box_dimension, holder_exponent
from .initial_data import parse_datum
from .nonlinear import (BlowUpError, kdv_solve, nls_wick_solve,
                        smoothing_residual, write_snapshot_csv)

#: Largest FFT grid the l4count quadrature cross-check will allocate.
QUADRATURE_GRID_CAP = 1 << 22


class ConfigError(Exception):
    """A problem with flags or the config file (exit code 2)."""


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """The resolved options of one run; ``to_dict()``, saved as a ``--config``
    file, reproduces the run."""

    subcommand: str
    options: dict

    def to_dict(self) -> dict:
        return {"subcommand": self.subcommand, "options": dict(self.options)}


def _resolve(args: argparse.Namespace, defaults: dict) -> ExperimentConfig:
    """Merge CLI flags over the optional config file over hard defaults.

    Flags are declared with default None ("not given"); a JSON config file
    supplies values for flags the user did not pass; remaining holes are
    filled from ``defaults``.
    """
    file_cfg: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if isinstance(file_cfg, dict) and file_cfg.get("subcommand"):
            file_cfg = dict(file_cfg.get("options", {}))
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys for this subcommand: {sorted(unknown)}")
    options = {}
    for key, hard_default in defaults.items():
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            options[key] = cli_value
        elif key in file_cfg:
            options[key] = file_cfg[key]
        else:
            options[key] = hard_default
    return ExperimentConfig(subcommand=args.subcommand, options=options)


def _parse_scales(text: str) -> list[int]:
    """Either "lo..hi" (dyadic exponents, inclusive) or comma-separated Ns."""
    text = text.strip()
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        lo, hi = int(lo_text), int(hi_text)
        if not 0 <= lo <= hi <= 20:
            raise ConfigError(f"scale exponents must satisfy 0 <= lo <= hi <= 20, got {text!r}")
        return [1 << j for j in range(lo, hi + 1)]
    try:
        scales = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad scale list {text!r}") from exc
    if not scales:
        raise ConfigError("empty scale list")
    return scales


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad integer list {text!r}") from exc


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad number list {text!r}") from exc


def _parse_drop(text: str) -> tuple[int, int]:
    parts = _parse_int_list(text)
    if len(parts) != 2:
        raise ConfigError(f"--drop needs two integers, got {text!r}")
    return parts[0], parts[1]


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational {text!r}") from exc


def _write_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, default=str)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _report(config: ExperimentConfig, body: dict, failures: list[str]) -> dict:
    return {
        "subcommand": config.subcommand,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": config.to_dict(),
        **body,
        "failures": failures,
        "passed": not failures,
    }


def _finish(config: ExperimentConfig, body: dict, failures: list[str],
            out: str | None) -> int:
    _write_json(_report(config, body, failures), out)
    for line in failures:
        print(f"threshold failed: {line}", file=sys.stderr)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_DEFAULTS = {
    "rel": None, "at": None, "seeds": None, "oblique": None,
    "scales": "8..16", "grid": None, "no_refine": False,
    "weight": "unit", "sign": "+", "threads": None,
    "min_slope": None, "max_slope": None, "csv": None, "out": None,
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _resolve(args, SWEEP_DEFAULTS)
    opt = config.options
    if opt["rel"] is None:
        raise ConfigError("sweep needs --rel")
    if (opt["at"] is None) == (opt["seeds"] is None):
        raise ConfigError("sweep needs exactly one of --at or --seeds")
    rel = parse_relation(opt["rel"])
    scales = _parse_scales(opt["scales"])

    if opt["seeds"] is not None:
        seeds = _parse_int_list(str(opt["seeds"]))
        at_specs = [f"rand:{s}" for s in seeds]
    else:
        at_specs = [opt["at"]]
    oblique = None
    if opt["oblique"] is not None:
        k_text, _, ell_text = str(opt["oblique"]).partition("/")
        try:
            oblique = (int(k_text), int(ell_text or "1"))
        except ValueError as exc:
            raise ConfigError(f"bad --oblique {opt['oblique']!r}") from exc

    results = []
    failures: list[str] = []
    csv_lines = ["at,N,sup_abs,l2,l4,grid,refined"]
    for spec in at_specs:
        tp = parse_theta(str(spec))
        at = SliceSpec.oblique(tp, *oblique) if oblique else tp
        sweep = sup_norm_sweep(rel, at, scales, grid=opt["grid"],
                               refine=not opt["no_refine"], weight=opt["weight"],
                               sign=opt["sign"], threads=opt["threads"])
        degenerate = isinstance(at, TimePoint) and at.is_rational and at.theta == 0
        entry = sweep.fit_payload()
        entry["degenerate_control"] = degenerate
        results.append(entry)
        for row in sweep.rows:
            csv_lines.append(f"{sweep.at},{row.N},{row.sup_abs!r},{row.l2!r},"
                             f"{row.l4!r},{row.grid},{int(row.refined)}")
        slope = sweep.sup_fit().slope
        if opt["min_slope"] is not None and slope < float(opt["min_slope"]):
            failures.append(f"at={sweep.at}: sup slope {slope:.4f} < {opt['min_slope']}")
        if opt["max_slope"] is not None and slope > float(opt["max_slope"]):
            failures.append(f"at={sweep.at}: sup slope {slope:.4f} > {opt['max_slope']}")
    if opt["csv"]:
        with open(opt["csv"], "w", encoding="utf-8") as fh:
            fh.write("\n".join(csv_lines) + "\n")
    return _finish(config, {"results": results}, failures, opt["out"])


# ---------------------------------------------------------------------------
# dimension
# ---------------------------------------------------------------------------

DIMENSION_DEFAULTS = {
    "rel": None, "data": "step:0,pi", "slice": None,
    "truncation": 1 << 14, "length": 1 << 18, "drop": "2,2",
    "lag_min": 32, "lag_max": 1024,
    "min_dim": None, "max_dim": None, "min_holder": None,
    "csv": None, "out": None,
}


def _cmd_dimension(args: argparse.Namespace) -> int:
    config = _resolve(args, DIMENSION_DEFAULTS)
    opt = config.options
    if opt["rel"] is None or opt["slice"] is None:
        raise ConfigError("dimension needs --rel and --slice")
    rel = parse_relation(opt["rel"])
    g = parse_datum(opt["data"])
    slc = parse_slice(opt["slice"])
    drop = _parse_drop(str(opt["drop"]))
    sg = evolve_slice(rel, g, slc, M=int(opt["truncation"]), length=int(opt["length"]))

    parts = {"re": sg.samples.real, "im": sg.samples.imag}
    body: dict = {"provenance": sg.provenance, "parts": {}}
    dims, holders = {}, {}
    for name, arr in parts.items():
        box = box_dimension(arr, drop=drop)
        hold = holder_exponent(arr, lag_min=int(opt["lag_min"]),
                               lag_max=int(opt["lag_max"]))
        dims[name] = box.dimension
        holders[name] = hold.slope
        body["parts"][name] = {"box_dimension": box.dimension,
                               "box_fit": box.fit.payload(),
                               "holder": hold.payload()}
    prof = besov_profile(sg.samples)
    body["besov_gamma"] = {"1": prof.gamma(1), "2": prof.gamma(2),
                           "inf": prof.gamma(math.inf)}
    body["box_dimension"] = max(dims.values())
    body["holder_exponent"] = min(holders.values())

    failures: list[str] = []
    if opt["min_dim"] is not None and body["box_dimension"] < float(opt["min_dim"]):
        failures.append(f"box dimension {body['box_dimension']:.4f} < {opt['min_dim']}")
    if opt["max_dim"] is not None and body["box_dimension"] > float(opt["max_dim"]):
        failures.append(f"box dimension {body['box_dimension']:.4f} > {opt['max_dim']}")
    if opt["min_holder"] is not None and body["holder_exponent"] < float(opt["min_holder"]):
        failures.append(f"Holder exponent {body['holder_exponent']:.4f} < {opt['min_holder']}")
    if opt["csv"]:
        write_snapshot_csv(sg, opt["csv"])
    return _finish(config, body, failures, opt["out"])


# ---------------------------------------------------------------------------
# quantize
# ---------------------------------------------------------------------------

QUANTIZE_DEFAULTS = {
    "rel": None, "data": "step:0,pi", "a": None, "q": None,
    "truncation": 1 << 12, "length": 1 << 13, "max_deviation": 2e-3,
    "csv": None, "out": None,
}


def _cmd_quantize(args: argparse.Namespace) -> int:
    config = _resolve(args, QUANTIZE_DEFAULTS)
    opt = config.options
    if opt["rel"] is None or opt["a"] is None or opt["q"] is None:
        raise ConfigError("quantize needs --rel, --a and --q")
    rel = parse_relation(opt["rel"])
    g = parse_datum(opt["data"])
    check = quantize_verify(rel, g, int(opt["a"]), int(opt["q"]),
                            M=int(opt["truncation"]), length=int(opt["length"]))
    mass = float(np.sum(np.abs(check.coefficients) ** 2))
    body = {
        "theta": f"{opt['a']}/{opt['q']}",
        "deviation": check.deviation,
        "compared": check.compared,
        "excluded": check.excluded,
        "coefficient_mass": mass,
        "coefficients": [[c.real, c.imag] for c in check.coefficients.tolist()],
        "reconstruction_pieces": check.reconstruction.pieces,
    }
    failures: list[str] = []
    if check.deviation > float(opt["max_deviation"]):
        failures.append(f"off-jump deviation {check.deviation:.3e} > {opt['max_deviation']}")
    if abs(mass - 1.0) > 1e-12:
        failures.append(f"coefficient mass {mass!r} differs from 1 by more than 1e-12")
    if opt["csv"]:
        with open(opt["csv"], "w", encoding="utf-8") as fh:
            fh.write("m,re,im\n")
            for m, c in enumerate(check.coefficients.tolist()):
                fh.write(f"{m},{c.real!r},{c.imag!r}\n")
    return _finish(config, body, failures, opt["out"])


# ---------------------------------------------------------------------------
# l4count
# ---------------------------------------------------------------------------

L4COUNT_DEFAULTS = {
    "h": None, "K": "16,32,64", "max_slope": None, "skip_quadrature": False,
    "csv": None, "out": None,
}


def _l4_quadrature(h, K: int) -> float | None:
    """(1/2pi) int |sum_{n in [K,2K)} e^{i h(n) x}|^4 dx on an alias-free
    grid; equals the quadruple count exactly.  None when the grid would
    exceed the cap."""
    hv = [h.omega_int(n) for n in range(K, 2 * K)]
    span = max(hv) - min(hv)
    G = next_pow2(2 * span + 2)
    if G > QUADRATURE_GRID_CAP:
        return None
    vals = grid_values(hv, np.ones(len(hv), dtype=np.complex128), G)
    return float(np.mean(np.abs(vals) ** 4))


def _cmd_l4count(args: argparse.Namespace) -> int:
    config = _resolve(args, L4COUNT_DEFAULTS)
    opt = config.options
    if opt["h"] is None:
        raise ConfigError("l4count needs --h (an integer-valued frequency map)")
    h = parse_relation(opt["h"])
    Ks = _parse_int_list(str(opt["K"]))
    rows = []
    failures: list[str] = []
    for K in Ks:
        oracle = l4_quadruple_oracle(h, K)
        quad = None if opt["skip_quadrature"] else _l4_quadrature(h, K)
        rel_err = None if quad is None else abs(quad - oracle.count) / oracle.count
        rows.append({"K": K, "count": oracle.count,
                     "nontrivial_resonances": oracle.nontrivial,
                     "quadrature": quad, "relative_error": rel_err})
        if rel_err is not None and rel_err > 1e-9:
            failures.append(f"K={K}: quadrature {quad!r} vs count {oracle.count}, "
                            f"relative error {rel_err:.3e} > 1e-9")
    body: dict = {"h": h.spec, "rows": rows}
    if len(Ks) >= 2:
        slope = float(np.polyfit(np.log2(Ks), np.log2([r["count"] for r in rows]), 1)[0])
        body["count_slope"] = slope
        if opt["max_slope"] is not None and slope > float(opt["max_slope"]):
            failures.append(f"count slope {slope:.4f} > {opt['max_slope']}")
    if opt["csv"]:
        with open(opt["csv"], "w", encoding="utf-8") as fh:
            fh.write("K,count,quadrature,relative_error\n")
            for r in rows:
                fh.write(f"{r['K']},{r['count']},{r['quadrature']!r},"
                         f"{r['relative_error']!r}\n")
    return _finish(config, body, failures, opt["out"])


# ---------------------------------------------------------------------------
# nls / kdv
# ---------------------------------------------------------------------------

SOLVER_DEFAULTS = {
    "data": "step:0,pi", "M": 1 << 10, "dt": 1e-4, "t_max": 0.5,
    "sign": 1, "snapshots": None, "residual_length": 1 << 12,
    "min_holder": None, "max_l2_drift": None,
    "csv": None, "residual_csv": None, "out": None,
}


def _cmd_solver(args: argparse.Namespace) -> int:
    config = _resolve(args, SOLVER_DEFAULTS)
    opt = config.options
    kind = config.subcommand
    g = parse_datum(opt["data"])
    snapshots = () if opt["snapshots"] is None else tuple(
        _parse_float_list(str(opt["snapshots"])))
    try:
        if kind == "nls":
            traj = nls_wick_solve(g, sign=int(opt["sign"]), M=int(opt["M"]),
                                  dt=float(opt["dt"]), t_max=float(opt["t_max"]),
                                  snapshot_times=snapshots)
        else:
            traj = kdv_solve(g, M=int(opt["M"]), dt=float(opt["dt"]),
                             t_max=float(opt["t_max"]), snapshot_times=snapshots)
    except BlowUpError as exc:
        body = {"blow_up": {"kind": exc.kind, "step": exc.step, "time": exc.time,
                            "linf": exc.linf, "l2": exc.l2}}
        return _finish(config, body, [f"solution blew up at t={exc.time:.6f}"],
                       opt["out"])

    residual = smoothing_residual(traj, length=int(opt["residual_length"]))
    if kind == "nls":
        holder = min(holder_exponent(residual.samples.real).slope,
                     holder_exponent(residual.samples.imag).slope)
    else:
        holder = holder_exponent(residual.samples).slope
    body = {
        "run": traj.run_manifest(),
        "residual_holder": holder,
        "residual_rms": float(np.sqrt(np.mean(np.abs(residual.samples) ** 2))),
    }
    failures: list[str] = []
    if opt["min_holder"] is not None and holder < float(opt["min_holder"]):
        failures.append(f"residual Holder {holder:.4f} < {opt['min_holder']}")
    if opt["max_l2_drift"] is not None and traj.l2_drift > float(opt["max_l2_drift"]):
        failures.append(f"L2 drift {traj.l2_drift:.3e} > {opt['max_l2_drift']}")
    if opt["csv"]:
        write_snapshot_csv(traj.final, opt["csv"])
    if opt["residual_csv"]:
        write_snapshot_csv(residual, opt["residual_csv"])
    return _finish(config, body, failures, opt["out"])


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

BOUNDS_DEFAULTS = {
    "theorem": None, "table": False, "d": None, "alpha": None, "r": None,
    "k": None, "ell": None, "r0": None, "s": None, "q": None, "out": None,
}


#: theorem -> (calculator, the flags it takes in argument order); --d and
#: --r are integers, every other flag an exact rational.
THEOREMS: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "oblique": (oblique_interval, ("d",)),
    "weyl": (weyl_exponent, ("d",)),
    "vinogradov": (vinogradov_interval, ("d",)),
    "vdc": (vdc_beta, ("alpha",)),
    "fracnls": (frac_nls_beta, ("alpha",)),
    "heathbrown": (heath_brown_exponent, ("alpha", "d")),
    "exppair": (exponent_pair_bound, ("k", "ell", "alpha")),
    "strichartz": (strichartz_lower, ("r0", "s", "q")),
    "t32": (t32_exponent, ("r",)),
    "t32dim": (t32_dimension_interval, ()),
}


def _cmd_bounds(args: argparse.Namespace) -> int:
    config = _resolve(args, BOUNDS_DEFAULTS)
    opt = config.options
    if bool(opt["table"]) == (opt["theorem"] is not None):
        raise ConfigError("bounds needs exactly one of --theorem or --table")
    if opt["table"]:
        rows = [r.payload() for r in bound_table()]
        for row in rows:
            print(f"{row['name']}: {row.get('value', row.get('interval'))}")
        if opt["out"]:
            _write_json(_report(config, {"rows": rows}, []), opt["out"])
        return 0

    theorem = str(opt["theorem"])
    if theorem not in THEOREMS:
        raise ConfigError(f"unknown theorem {theorem!r}")
    calculator, keys = THEOREMS[theorem]
    missing = [k for k in keys if opt[k] is None]
    if missing:
        flags = ", ".join(f"--{k}" for k in missing)
        raise ConfigError(f"bounds --theorem {theorem} needs {flags}")
    value = calculator(*(int(opt[k]) if k in ("d", "r") else _fraction(str(opt[k]))
                         for k in keys))
    print(format_bound(value))
    if opt["out"]:
        _write_json(_report(config, {"value": format_bound(value)}, []), opt["out"])
    return 0


# ---------------------------------------------------------------------------
# acceptance
# ---------------------------------------------------------------------------

ACCEPTANCE_DEFAULTS = {"only": None, "out": None}


def _cmd_acceptance(args: argparse.Namespace) -> int:
    config = _resolve(args, ACCEPTANCE_DEFAULTS)
    opt = config.options
    numbers = None if opt["only"] is None else _parse_int_list(str(opt["only"]))
    try:
        report = run_acceptance(numbers, echo=lambda line: print(line, file=sys.stderr))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    failures = [f"criterion {r.number} ({r.title})"
                for r in report.results if not r.passed]
    return _finish(config, report.payload(), failures, opt["out"])


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="talbot",
        description="Dispersive evolutions on the torus: exponential-sum sweeps, "
                    "fractal dimensions, quantization, solvers, and bound tables.",
        epilog="Exit codes: 0 thresholds met, 1 threshold failed, 2 config error.")
    parser.add_argument("--version", action="version", version=f"talbot {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    raw = argparse.RawDescriptionHelpFormatter

    def add(name: str, help_text: str, epilog: str) -> argparse.ArgumentParser:
        sub = subs.add_parser(name, help=help_text, epilog=epilog, formatter_class=raw)
        sub.add_argument("--config", help="JSON file supplying defaults for any flag")
        sub.add_argument("--out", help="write the JSON report here instead of stdout")
        return sub

    sweep = add("sweep", "block-sum norms across dyadic scales",
                "CSV columns: at, N, sup_abs, l2, l4, grid, refined")
    sweep.add_argument("--rel", help="dispersion relation (poly:..., frac:a/b, "
                                     "boussinesq, bo, gravity, gravcap)")
    sweep.add_argument("--at", help="theta spec: rat:a/q, kl:name, rand:seed, or decimal")
    sweep.add_argument("--seeds", help="comma list of seeds, each swept at rand:seed")
    sweep.add_argument("--oblique", metavar="K/ELL",
                       help="sweep the oblique slice with this slope instead of a fixed time")
    sweep.add_argument("--scales", help="dyadic exponent range lo..hi or comma list of Ns "
                                        "(default 8..16)")
    sweep.add_argument("--grid", type=int,
                       help="quadrature grid override (power of two, 2..2^20)")
    sweep.add_argument("--no-refine", action="store_true", default=None,
                       help="skip golden-section refinement of the supremum")
    sweep.add_argument("--weight", choices=("unit", "reciprocal"), help="mode weights")
    sweep.add_argument("--sign", choices=("+", "-", "both"), help="block sign")
    sweep.add_argument("--threads", type=int,
                       help="worker threads, at least 1 (default: TALBOT_THREADS if set, "
                            "which must also be at least 1; else 1)")
    sweep.add_argument("--min-slope", type=float, help="fail if a sup slope is below this")
    sweep.add_argument("--max-slope", type=float, help="fail if a sup slope is above this")
    sweep.add_argument("--csv", help="write per-scale norms here")
    sweep.set_defaults(handler=_cmd_sweep)

    dim = add("dimension", "slice samples and fractal estimators",
              "CSV columns: x, re, im (slice samples)")
    dim.add_argument("--rel", help="dispersion relation spec")
    dim.add_argument("--data", help="datum spec (default step:0,pi)")
    dim.add_argument("--slice", help="horiz:<theta> | vert:<x0>:<t0>,<t1> | "
                                     "obliq:<c>:<k>/<ell>")
    dim.add_argument("--truncation", type=int, help="mode cutoff M (default 16384)")
    dim.add_argument("--length", type=int, help="sample count (default 262144)")
    dim.add_argument("--drop", help="box-count fit window trim 'large,small' (default 2,2)")
    dim.add_argument("--lag-min", type=int, help="smallest Holder lag in samples (default 32)")
    dim.add_argument("--lag-max", type=int, help="largest Holder lag in samples (default 1024)")
    dim.add_argument("--min-dim", type=float, help="fail if max(re,im) box dimension is below")
    dim.add_argument("--max-dim", type=float, help="fail if max(re,im) box dimension is above")
    dim.add_argument("--min-holder", type=float, help="fail if min(re,im) Holder is below")
    dim.add_argument("--csv", help="write slice samples here")
    dim.set_defaults(handler=_cmd_dimension)

    quant = add("quantize", "rational-time translate reconstruction",
                "CSV columns: m, re, im (translate weights)")
    quant.add_argument("--rel", help="integer-polynomial relation spec")
    quant.add_argument("--data", help="step datum spec (default step:0,pi)")
    quant.add_argument("--a", type=int, help="theta numerator")
    quant.add_argument("--q", type=int, help="theta denominator")
    quant.add_argument("--truncation", type=int, help="series cutoff M (default 4096)")
    quant.add_argument("--length", type=int, help="comparison grid (default 8192)")
    quant.add_argument("--max-deviation", type=float,
                       help="off-jump deviation threshold (default 2e-3)")
    quant.add_argument("--csv", help="write translate weights here")
    quant.set_defaults(handler=_cmd_quantize)

    l4c = add("l4count", "resonant quadruple counts vs quadrature",
              "CSV columns: K, count, quadrature, relative_error")
    l4c.add_argument("--h", help="integer-valued frequency map, e.g. poly:1,1,0")
    l4c.add_argument("--K", help="comma list of dyadic block sizes (default 16,32,64)")
    l4c.add_argument("--max-slope", type=float, help="fail if the count slope exceeds this")
    l4c.add_argument("--skip-quadrature", action="store_true", default=None,
                     help="skip the FFT cross-check")
    l4c.add_argument("--csv", help="write per-K rows here")
    l4c.set_defaults(handler=_cmd_l4count)

    for name, help_text in (("nls", "Wick-ordered cubic solver + smoothing residual"),
                            ("kdv", "quadratic solver + smoothing residual")):
        sol = add(name, help_text, "CSV columns: x, re, im (field or residual samples)")
        sol.add_argument("--data", help="step datum spec (default step:0,pi)")
        sol.add_argument("--M", type=int, help="mode cutoff (default 1024)")
        sol.add_argument("--dt", type=float, help="time step (default 1e-4)")
        sol.add_argument("--t-max", type=float, help="final time (default 0.5)")
        if name == "nls":
            sol.add_argument("--sign", type=int, choices=(1, -1),
                             help="nonlinearity sign (default +1, defocusing)")
        sol.add_argument("--snapshots", help="comma list of snapshot times")
        sol.add_argument("--residual-length", type=int,
                         help="residual sample count (default 4096)")
        sol.add_argument("--min-holder", type=float,
                         help="fail if the residual Holder exponent is below this")
        sol.add_argument("--max-l2-drift", type=float, help="fail if L2 drift exceeds this")
        sol.add_argument("--csv", help="write final-field samples here")
        sol.add_argument("--residual-csv", help="write residual samples here")
        sol.set_defaults(handler=_cmd_solver)

    bnd = add("bounds", "exact rational bound tables",
              "Prints the exact value; intervals as [lower, upper].")
    bnd.add_argument("--theorem", choices=tuple(THEOREMS))
    bnd.add_argument("--table", action="store_true", default=None,
                     help="print every headline row")
    bnd.add_argument("--d", type=int, help="polynomial degree")
    bnd.add_argument("--alpha", help="fractional exponent (rational, e.g. 3/2)")
    bnd.add_argument("--r", type=int, help="dual-sum order r >= 3")
    bnd.add_argument("--k", help="exponent-pair k")
    bnd.add_argument("--ell", help="exponent-pair ell")
    bnd.add_argument("--r0", help="datum regularity")
    bnd.add_argument("--s", help="smoothing gain")
    bnd.add_argument("--q", help="time-integrability index q > 2")
    bnd.set_defaults(handler=_cmd_bounds)

    acc = add("acceptance", "run the numbered acceptance experiments",
              "Progress lines go to stderr; the JSON report to stdout or --out.")
    acc.add_argument("--only", help="comma list of criterion numbers (default: all)")
    acc.set_defaults(handler=_cmd_acceptance)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler: Callable[[argparse.Namespace], int] = args.handler
    try:
        return handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
