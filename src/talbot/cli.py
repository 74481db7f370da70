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

Every subcommand but ``bounds`` emits a JSON report, to stdout or ``--out``,
whose ``config`` block echoes the resolved configuration (flags merged over
an optional ``--config`` JSON file), the library version, and any seeds;
``bounds`` prints the exact value and writes that report only with
``--out``.  The wall-clock timestamp and the run's wall seconds
(``elapsed_s``) appear only in the report, never in CSV artifacts, which
``_write_csv`` writes (a float cell as ``repr(float(v))``, any other as
``str(v)``), so identical configurations produce byte-identical CSV.
Threshold flags (``--max-slope``, ``--min-holder``, ...) turn measurements
into pass/fail checks, each verdict by ``_gate``.

Exit codes: 0 -- all requested thresholds met; 1 -- a threshold failed
(reports are still written); 2 -- configuration error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from . import __version__
from ._fftsum import l4_quadrature
from .bounds import (bound_table, exponent_pair_bound, format_bound,
                     frac_nls_beta, heath_brown_exponent, oblique_interval,
                     strichartz_lower, t32_dimension_interval, t32_exponent,
                     vdc_beta, vinogradov_interval, weyl_exponent)
from .acceptance import run_acceptance
from .dispersion import oblique_frequencies, parse_relation
from .evolution import evolve_slice, parse_slice, quantize_verify
from .expsum import MAX_BLOCK, fit_exponent, l4_quadruple_oracle, sup_norm_sweep
from .fractal import MIN_SAMPLES, besov_profile, box_dimension, holder_exponent, measured_parts
from .initial_data import parse_datum
from .nonlinear import (BlowUpError, check_residual_length, kdv_solve, nls_wick_solve,
                        smoothing_residual)


class ConfigError(Exception):
    """A problem with flags or the config file (exit code 2)."""


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

#: Namespace entries that are not options of a run.
_NOT_OPTIONS = ("handler", "subcommand", "config", "started")


def _options(args: argparse.Namespace) -> dict:
    """The resolved options of a run; saved as a ``--config`` file inside
    ``{"subcommand", "options"}``, they reproduce it."""
    return {k: v for k, v in vars(args).items() if k not in _NOT_OPTIONS}


def _config_argv(path: str, known: dict) -> list[str]:
    """The options a ``--config`` file sets, from its flat form or from its
    ``{"subcommand", "options"}`` form, as the flags that set them:
    ``--key=value``, a bare ``--key`` for true, nothing for null or false.
    Each key must be one of ``known``."""
    try:
        with open(path, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if isinstance(file_cfg, dict) and file_cfg.get("subcommand"):
        file_cfg = file_cfg.get("options", {})
    if not isinstance(file_cfg, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(file_cfg) - set(known)
    if unknown:
        raise ConfigError(f"unknown config keys for this subcommand: {sorted(unknown)}")
    return ["--" + key.replace("_", "-") + ("" if value is True else f"={value}")
            for key, value in file_cfg.items() if value is not None and value is not False]


def _parse_list(text: str, kind: type, what: str) -> list:
    """The values of a comma list, each read by ``kind``; blank tokens are
    skipped, and a bad token or an empty list is a ConfigError naming the
    list by ``what``."""
    try:
        values = [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad {what} list {text!r}") from exc
    if not values:
        raise ConfigError(f"empty {what} list")
    return values


def _distinct(values: list, what: str) -> list:
    """``values``, or a ConfigError naming the first that repeats: each is
    one point of a fit, and a repeat would count as an independent one."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{what} {value} is repeated in {values}")
    return values


def _parse_scales(text: str) -> list[int]:
    """Either "lo..hi" (dyadic exponents, inclusive) or comma-separated Ns."""
    text = text.strip()
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        lo, hi = int(lo_text), int(hi_text)
        top = MAX_BLOCK.bit_length() - 1
        if not 0 <= lo <= hi <= top:
            raise ConfigError(f"scale exponents must satisfy 0 <= lo <= hi <= {top}, got {text!r}")
        return [1 << j for j in range(lo, hi + 1)]
    return _parse_list(text, int, "scale")


def _threshold(text: str) -> float:
    """A threshold flag's value: a finite number.  Every comparison with NaN
    is false, so a NaN threshold would never fail."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational {text!r}") from exc


def _gate(what: str, value: float, fmt: str, lo: float | None = None,
          hi: float | None = None) -> list[str]:
    """The verdicts of a threshold flag pair: ``value`` (formatted by
    ``fmt``) below ``lo`` or above ``hi``; an unset flag is None."""
    failures = []
    if lo is not None and value < lo:
        failures.append(f"{what} {value:{fmt}} < {lo}")
    if hi is not None and value > hi:
        failures.append(f"{what} {value:{fmt}} > {hi}")
    return failures


def _write_csv(path: str, header: str, rows) -> None:
    """A CSV table: each float cell as ``repr(float(v))`` (numpy 2 reprs a
    numpy scalar as ``np.float64(...)``), any other cell as ``str(v)``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _sample_rows(samples: np.ndarray, period: float) -> Iterator[tuple[float, float, float]]:
    """The rows x, re, im of uniform samples over [0, period), where sample
    j sits at x = j * (period / len)."""
    vals = np.asarray(samples, dtype=np.complex128)
    xs = np.arange(len(vals)) * (period / len(vals))
    return zip(xs.tolist(), vals.real.tolist(), vals.imag.tolist())


def _write_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, default=str)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _report(args: argparse.Namespace, body: dict, failures: list[str]) -> dict:
    return {
        "subcommand": args.subcommand,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "elapsed_s": round(time.perf_counter() - args.started, 3),
        "config": {"subcommand": args.subcommand, "options": _options(args)},
        **body,
        "failures": failures,
        "passed": not failures,
    }


def _finish(args: argparse.Namespace, body: dict, failures: list[str]) -> int:
    _write_json(_report(args, body, failures), args.out)
    for line in failures:
        print(f"threshold failed: {line}", file=sys.stderr)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.rel is None:
        raise ConfigError("sweep needs --rel")
    if (args.at is None) == (args.seeds is None):
        raise ConfigError("sweep needs exactly one of --at or --seeds")
    rel = parse_relation(args.rel)
    scales = _distinct(_parse_scales(args.scales), "scale")
    if len(scales) < 4:
        raise ConfigError(f"the sup exponent fit needs at least four distinct scales, got {scales}")

    ats = ([args.at] if args.seeds is None
           else [f"rand:{s}" for s in _parse_list(args.seeds, int, "seed")])
    slices = [parse_slice(f"horiz:{at}" if args.oblique is None
                          else f"obliq:{at}:{args.oblique}") for at in ats]

    results = []
    failures: list[str] = []
    csv_rows = []
    for slc in slices:
        sweep = sup_norm_sweep(rel, slc, scales, weight=args.weight, sign=args.sign)
        entry = sweep.fit_payload()
        entry["degenerate_control"] = (slc.kind == "horizontal" and slc.t.is_rational
                                       and slc.t.theta == 0)
        results.append(entry)
        csv_rows += [(sweep.at, row.N, row.sup_abs, row.l2, row.l4, row.grid, 1)
                     for row in sweep.rows]
        failures += _gate(f"at={sweep.at}: sup slope", sweep.sup_fit().slope, ".4f",
                          args.min_slope, args.max_slope)
    if args.csv:
        _write_csv(args.csv, "at,N,sup_abs,l2,l4,grid,refined", csv_rows)
    return _finish(args, {"results": results}, failures)


# ---------------------------------------------------------------------------
# dimension
# ---------------------------------------------------------------------------

def _cmd_dimension(args: argparse.Namespace) -> int:
    if args.rel is None or args.slice is None:
        raise ConfigError("dimension needs --rel and --slice")
    rel = parse_relation(args.rel)
    g = parse_datum(args.data)
    slc = parse_slice(args.slice)
    drop = tuple(_parse_list(args.drop, int, "drop"))
    if len(drop) != 2:
        raise ConfigError(f"--drop needs two integers, got {args.drop!r}")
    sg = evolve_slice(rel, g, slc, M=args.truncation, length=args.length)

    measured, skipped = measured_parts(sg.samples)
    body: dict = {"provenance": sg.provenance, "parts": {}}
    dims, holders = {}, {}
    for name in ("re", "im"):
        if name in skipped:
            body["parts"][name] = {"box_dimension": None, "box_fit": None, "holder": None,
                                   "skipped": skipped[name]}
            continue
        arr = measured[name]
        box = box_dimension(arr, drop=drop)
        hold = holder_exponent(arr, lag_min=args.lag_min, lag_max=args.lag_max)
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

    failures = (_gate("box dimension", body["box_dimension"], ".4f", args.min_dim, args.max_dim)
                + _gate("Holder exponent", body["holder_exponent"], ".4f", args.min_holder))
    if args.csv:
        _write_csv(args.csv, "x,re,im", _sample_rows(sg.samples, sg.period))
    return _finish(args, body, failures)


# ---------------------------------------------------------------------------
# quantize
# ---------------------------------------------------------------------------

def _cmd_quantize(args: argparse.Namespace) -> int:
    if args.rel is None or args.a is None or args.q is None:
        raise ConfigError("quantize needs --rel, --a and --q")
    rel = parse_relation(args.rel)
    g = parse_datum(args.data)
    check = quantize_verify(rel, g, args.a, args.q, M=args.truncation, length=args.length)
    mass = float(np.sum(np.abs(check.coefficients) ** 2))
    body = {
        "theta": f"{args.a}/{args.q}",
        "deviation": check.deviation,
        "compared": check.compared,
        "excluded": check.excluded,
        "coefficient_mass": mass,
        "coefficients": [[c.real, c.imag] for c in check.coefficients.tolist()],
        "reconstruction_pieces": check.reconstruction.pieces,
    }
    failures = _gate("off-jump deviation", check.deviation, ".3e", hi=args.max_deviation)
    if abs(mass - 1.0) > 1e-12:
        failures.append(f"coefficient mass {mass!r} differs from 1 by more than 1e-12")
    if args.csv:
        rows = ((m, c.real, c.imag) for m, c in enumerate(check.coefficients.tolist()))
        _write_csv(args.csv, "m,re,im", rows)
    return _finish(args, body, failures)


# ---------------------------------------------------------------------------
# l4count
# ---------------------------------------------------------------------------

def _cmd_l4count(args: argparse.Namespace) -> int:
    if args.h is None:
        raise ConfigError("l4count needs --h (an integer-valued frequency map)")
    h = parse_relation(args.h)
    Ks = _distinct(_parse_list(args.K, int, "block size"), "block size")
    if args.max_slope is not None and len(Ks) < 2:
        raise ConfigError("--max-slope gates the count slope, which needs at least two "
                          f"block sizes, got {Ks}")
    rows = []
    failures: list[str] = []
    for K in Ks:
        oracle = l4_quadruple_oracle(h, K)
        quad = None
        if not args.skip_quadrature:
            quad = l4_quadrature(oblique_frequencies(h, -1, 0, np.arange(K, 2 * K)), np.ones(K))
        rel_err = None if quad is None else abs(quad - oracle.count) / oracle.count
        rows.append({"K": K, "count": oracle.count,
                     "nontrivial_resonances": oracle.nontrivial,
                     "quadrature": quad, "relative_error": rel_err})
        if rel_err is not None and rel_err > 1e-9:
            failures.append(f"K={K}: quadrature {quad!r} vs count {oracle.count}, "
                            f"relative error {rel_err:.3e} > 1e-9")
    body: dict = {"h": h.spec, "rows": rows}
    if len(Ks) >= 2:
        slope = fit_exponent(Ks, [r["count"] for r in rows]).slope
        body["count_slope"] = slope
        failures += _gate("count slope", slope, ".4f", hi=args.max_slope)
    if args.csv:
        _write_csv(args.csv, "K,count,quadrature,relative_error",
                   ((r["K"], r["count"], r["quadrature"], r["relative_error"]) for r in rows))
    return _finish(args, body, failures)


# ---------------------------------------------------------------------------
# nls / kdv
# ---------------------------------------------------------------------------

def _cmd_solver(args: argparse.Namespace) -> int:
    g = parse_datum(args.data)
    snapshots = (() if args.snapshots is None
                 else tuple(_parse_list(args.snapshots, float, "snapshot time")))
    check_residual_length(args.residual_length, args.M)
    if args.residual_length < MIN_SAMPLES:
        raise ConfigError(f"--residual-length {args.residual_length} is below the {MIN_SAMPLES} "
                          "samples of the residual's Holder exponent")
    try:
        if args.subcommand == "nls":
            traj = nls_wick_solve(g, sign=args.sign, M=args.M, dt=args.dt,
                                  t_max=args.t_max, snapshot_times=snapshots)
        else:
            traj = kdv_solve(g, M=args.M, dt=args.dt, t_max=args.t_max,
                             snapshot_times=snapshots)
    except BlowUpError as exc:
        body = {"blow_up": {"kind": exc.kind, "step": exc.step, "time": exc.time,
                            "linf": exc.linf, "l2": exc.l2}}
        return _finish(args, body, [f"solution blew up at t={exc.time:.6f}"])

    residual = smoothing_residual(traj, length=args.residual_length)
    holder = min(holder_exponent(part).slope
                 for part in measured_parts(residual.samples)[0].values())
    body = {
        "run": traj.run_manifest(),
        "residual_holder": holder,
        "residual_rms": float(np.sqrt(np.mean(np.abs(residual.samples) ** 2))),
    }
    failures = (_gate("residual Holder", holder, ".4f", args.min_holder)
                + _gate("L2 drift", traj.l2_drift, ".3e", hi=args.max_l2_drift))
    if args.csv:
        _write_csv(args.csv, "x,re,im", _sample_rows(traj.final.values(), 2.0 * math.pi))
    if args.residual_csv:
        _write_csv(args.residual_csv, "x,re,im", _sample_rows(residual.samples, residual.period))
    return _finish(args, body, failures)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

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
    if bool(args.table) == (args.theorem is not None):
        raise ConfigError("bounds needs exactly one of --theorem or --table")
    if args.table:
        rows = [r.payload() for r in bound_table()]
        for row in rows:
            print(f"{row['name']}: {row.get('value', row.get('interval'))}")
        if args.out:
            _write_json(_report(args, {"rows": rows}, []), args.out)
        return 0

    calculator, keys = THEOREMS[args.theorem]
    opt = vars(args)
    missing = [k for k in keys if opt[k] is None]
    if missing:
        flags = ", ".join(f"--{k}" for k in missing)
        raise ConfigError(f"bounds --theorem {args.theorem} needs {flags}")
    value = calculator(*(opt[k] if k in ("d", "r") else _fraction(opt[k]) for k in keys))
    print(format_bound(value))
    if args.out:
        _write_json(_report(args, {"value": format_bound(value)}, []), args.out)
    return 0


# ---------------------------------------------------------------------------
# acceptance
# ---------------------------------------------------------------------------

def _cmd_acceptance(args: argparse.Namespace) -> int:
    numbers = None if args.only is None else _parse_list(args.only, int, "criterion")
    try:
        report = run_acceptance(numbers, echo=lambda line: print(line, file=sys.stderr))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    failures = [f"criterion {r.number} ({r.title})"
                for r in report.results if not r.passed]
    return _finish(args, report.payload(), failures)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The parser; every flag default is declared here and nowhere else."""
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
        sub.add_argument("--config", help="JSON file setting any flag; the command line wins")
        sub.add_argument("--out", help="write the JSON report here instead of stdout")
        return sub

    sweep = add("sweep", "block-sum norms across dyadic scales",
                "CSV columns: at, N, sup_abs, l2, l4, grid, refined\n"
                "Each block is sampled on a grid of 16*N points (oblique rows: capped\n"
                "at 2^20), and every supremum is refined, so the refined column is\n"
                "always 1.")
    sweep.add_argument("--rel", help="dispersion relation (poly:..., frac:a/b, "
                                     "boussinesq, bo, gravity, gravcap)")
    sweep.add_argument("--at", help="theta spec: rat:a/q, kl:name, rand:seed, or decimal")
    sweep.add_argument("--seeds", help="comma list of seeds, each swept at rand:seed")
    sweep.add_argument("--oblique", metavar="K/ELL",
                       help="sweep the oblique slice obliq:<at>:K/ELL instead of a fixed time")
    sweep.add_argument("--scales", default="8..16",
                       help="dyadic exponent range lo..hi or comma list of Ns "
                            "(default %(default)s)")
    sweep.add_argument("--weight", choices=("unit", "reciprocal"), default="unit",
                       help="mode weights (default %(default)s)")
    sweep.add_argument("--sign", choices=("+", "-", "both"), default="+",
                       help="block sign (default %(default)s)")
    sweep.add_argument("--min-slope", type=_threshold, help="fail if a sup slope is below this")
    sweep.add_argument("--max-slope", type=_threshold, help="fail if a sup slope is above this")
    sweep.add_argument("--csv", help="write per-scale norms here")
    sweep.set_defaults(handler=_cmd_sweep)

    dim = add("dimension", "slice samples and fractal estimators",
              "CSV columns: x, re, im (slice samples)")
    dim.add_argument("--rel", help="dispersion relation spec")
    dim.add_argument("--data", default="step:0,pi", help="datum spec (default %(default)s)")
    dim.add_argument("--slice", help="horiz:<theta> | obliq:<c>:<k>/<ell> | vert:<x0>:<t0>,<t1> "
                                     "(a folded line sum: integer omega, rational t0 < t1, "
                                     "length * denominator(t1 - t0) <= 2^22)")
    dim.add_argument("--truncation", type=int, default=1 << 14,
                     help="mode cutoff M (default %(default)s)")
    dim.add_argument("--length", type=int, default=1 << 18,
                     help="sample count (default %(default)s)")
    dim.add_argument("--drop", default="2,2",
                     help="box-count fit window trim 'large,small' (default %(default)s)")
    dim.add_argument("--lag-min", type=int, default=32,
                     help="smallest Holder lag in samples (default %(default)s)")
    dim.add_argument("--lag-max", type=int, default=1024,
                     help="largest Holder lag in samples (default %(default)s)")
    dim.add_argument("--min-dim", type=_threshold, help="fail if max(re,im) box dimension is below")
    dim.add_argument("--max-dim", type=_threshold, help="fail if max(re,im) box dimension is above")
    dim.add_argument("--min-holder", type=_threshold, help="fail if min(re,im) Holder is below")
    dim.add_argument("--csv", help="write slice samples here")
    dim.set_defaults(handler=_cmd_dimension)

    quant = add("quantize", "rational-time translate reconstruction",
                "CSV columns: m, re, im (translate weights)")
    quant.add_argument("--rel", help="integer-polynomial relation spec")
    quant.add_argument("--data", default="step:0,pi",
                       help="step datum spec (default %(default)s)")
    quant.add_argument("--a", type=int, help="theta numerator")
    quant.add_argument("--q", type=int, help="theta denominator")
    quant.add_argument("--truncation", type=int, default=1 << 12,
                       help="series cutoff M (default %(default)s)")
    quant.add_argument("--length", type=int, default=1 << 13,
                       help="comparison grid (default %(default)s)")
    quant.add_argument("--max-deviation", type=_threshold, default=2e-3,
                       help="off-jump deviation threshold (default %(default)s)")
    quant.add_argument("--csv", help="write translate weights here")
    quant.set_defaults(handler=_cmd_quantize)

    l4c = add("l4count", "resonant quadruple counts vs quadrature",
              "CSV columns: K, count, quadrature, relative_error")
    l4c.add_argument("--h", help="integer-valued frequency map, e.g. poly:1,1,0")
    l4c.add_argument("--K", default="16,32,64",
                     help="comma list of dyadic block sizes (default %(default)s)")
    l4c.add_argument("--max-slope", type=_threshold, help="fail if the count slope exceeds this")
    l4c.add_argument("--skip-quadrature", action="store_true", help="skip the FFT cross-check")
    l4c.add_argument("--csv", help="write per-K rows here")
    l4c.set_defaults(handler=_cmd_l4count)

    for name, help_text, datum in (
            ("nls", "Wick-ordered cubic solver + smoothing residual", "step:0,pi"),
            ("kdv", "quadratic solver + smoothing residual", "step:0,pi:0.5,-0.5")):
        sol = add(name, help_text, "CSV columns: x, re, im (field or residual samples)")
        sol.add_argument("--data", default=datum, help="step datum spec (default %(default)s)")
        sol.add_argument("--M", type=int, default=1 << 10, help="mode cutoff (default %(default)s)")
        sol.add_argument("--dt", type=float, default=1e-4, help="time step (default %(default)s)")
        sol.add_argument("--t-max", type=float, default=0.5, help="final time (default %(default)s)")
        if name == "nls":
            sol.add_argument("--sign", type=int, choices=(1, -1), default=1,
                             help="nonlinearity sign (default %(default)s, defocusing)")
        sol.add_argument("--snapshots", help="comma list of snapshot times, each a multiple of dt")
        sol.add_argument("--residual-length", type=int, default=1 << 12,
                         help="residual sample count (default %(default)s)")
        sol.add_argument("--min-holder", type=_threshold,
                         help="fail if the residual Holder exponent is below this")
        sol.add_argument("--max-l2-drift", type=_threshold, help="fail if L2 drift exceeds this")
        sol.add_argument("--csv", help="write final-field samples here")
        sol.add_argument("--residual-csv", help="write residual samples here")
        sol.set_defaults(handler=_cmd_solver)

    bnd = add("bounds", "exact rational bound tables",
              "Prints the exact value; intervals as [lower, upper].")
    bnd.add_argument("--theorem", choices=tuple(THEOREMS))
    bnd.add_argument("--table", action="store_true", help="print every headline row")
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


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Parse argv; with ``--config FILE``, parse it again with the file's
    flags placed right after the subcommand name, so that each value is
    parsed like the same flag and the command line's own flags win."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        argv = list(argv)
        at = argv.index(args.subcommand) + 1
        argv[at:at] = _config_argv(args.config, _options(args))
        args = parser.parse_args(argv)
    return args


def main(argv: Sequence[str] | None = None) -> int:
    started = time.perf_counter()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse_args(argv)
        args.started = started  # the report's elapsed_s counts from here
        return args.handler(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
