"""Outside-in tracing of the talbot layers for the benchmark's traced runs.

The package binds its functions with ``from .x import y``, so a layer's entry
point lives under the same name in several module namespaces.  ``install``
rebinds every talbot namespace that holds the original object, and the numpy /
scipy FFT entry points, to timing wrappers; ``uninstall`` restores them.  No
package code changes, and untraced passes run the original functions.

Spans record (id, parent, name, start, end) plus self time, i.e. the span
minus the child spans it encloses.  Two kinds of hot leaf calls are counted
without a span of their own: ``fixedpoint.iroot`` (a layer: its time is
subtracted from the enclosing span's self time) and the FFT entry points (an
attribute: their calls and time are credited to the innermost open span).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

_now = time.perf_counter_ns


class Tracer:
    """In-memory span recorder; written out once, at exit."""

    def __init__(self) -> None:
        self.origin = _now()
        self.spans: list[tuple] = []   # (id, parent, name, start, end, self, fft_calls, fft_ns)
        self._open: list[list] = []    # [id, parent, name, start, child_ns, fft_calls, fft_ns]
        self._next_id = 0
        self.leaves: dict[str, list[int]] = defaultdict(lambda: [0, 0])  # name -> [calls, ns]
        self.counts: dict[str, float] = defaultdict(float)

    def begin(self, name: str) -> None:
        self._next_id += 1
        parent = self._open[-1][0] if self._open else 0
        self._open.append([self._next_id, parent, name, _now(), 0, 0, 0])

    def end(self) -> None:
        stop = _now()
        sid, parent, name, start, child, fft_calls, fft_ns = self._open.pop()
        duration = stop - start
        if self._open:
            self._open[-1][4] += duration
        self.spans.append((sid, parent, name, start, stop, duration - child, fft_calls, fft_ns))

    def leaf(self, name: str, ns: int, exclusive: bool) -> None:
        rec = self.leaves[name]
        rec[0] += 1
        rec[1] += ns
        if self._open:
            top = self._open[-1]
            if exclusive:
                top[4] += ns
            else:
                top[5] += 1
                top[6] += ns

    def write(self, path: Path) -> None:
        rows = [[sid, parent, name, start - self.origin, stop - self.origin, self_ns, fc, fns]
                for sid, parent, name, start, stop, self_ns, fc, fns in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"columns": ["id", "parent", "name", "start_ns", "end_ns", "self_ns",
                               "fft_calls", "fft_ns"],
                   "spans": rows,
                   "leaves": {k: {"calls": v[0], "ns": v[1]} for k, v in self.leaves.items()},
                   "counts": dict(self.counts)}
        path.write_text(json.dumps(payload))


# ---------------------------------------------------------------------------
# what each span counts, read from the arguments and the result
# ---------------------------------------------------------------------------

def _binder(fn):
    sig = inspect.signature(fn)

    def bind(args, kwargs) -> dict:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return bind


def _count_phase(c, a, result) -> None:
    rel, theta, n = a["rel"], a["theta"], len(result)
    if isinstance(theta, Fraction) and rel.integer_valued:
        path = "rational"
    elif rel.integer_valued:
        path = "fixed_int"
    else:
        path = "fixed_nonint"
    c["dispersion.phase.modes"] += n
    c[f"dispersion.phase.modes_{path}"] += n


def _count_grid(c, a, result) -> None:
    G = int(a["G"])
    c["fftsum.grid.points"] += G
    # spectrum, transform and scaled copy, 16-byte complex each: computed, not measured
    c["fftsum.grid.bytes_computed"] += 3 * 16 * G


def _count_refine(c, a, result) -> None:
    grid_max = float(a["absvals"].max())
    c["fftsum.refine.useful"] += result > grid_max
    c["fftsum.refine.lift"] += result / grid_max - 1.0 if grid_max > 0 else 0.0


def _count_sweep(c, a, result) -> None:
    c["expsum.sweep.cells"] += len(result.rows)


def _count_slice(c, a, result) -> None:
    c["evolution.slice.samples"] += len(result.samples)


def _count_samples(c, a, result) -> None:
    s = a["samples"]
    c["fractal.samples"] += len(s.samples if hasattr(s, "samples") else s)


def _count_besov(c, a, result) -> None:
    _count_samples(c, a, result)
    c["fractal.besov.blocks"] += len(result.Ns)


def _count_steps(prefix):
    def count(c, a, result) -> None:
        c[f"{prefix}.steps"] += int(round(a["t_max"] / a["dt"]))
    return count


# (span name, module, function, counter); ``install`` fails if a later
# version of the package no longer has one of these functions.
SPANS = (
    ("expsum.sweep", "talbot.expsum", "sup_norm_sweep", _count_sweep),
    ("dispersion.phase", "talbot.dispersion", "theta_omega_frac_array", _count_phase),
    ("fftsum.grid", "talbot._fftsum", "grid_values", _count_grid),
    ("fftsum.refine", "talbot._fftsum", "refine_supremum", _count_refine),
    ("evolution.slice", "talbot.evolution", "evolve_slice", _count_slice),
    ("evolution.quantize", "talbot.evolution", "quantize_verify", None),
    ("fractal.box", "talbot.fractal", "box_dimension", _count_samples),
    ("fractal.holder", "talbot.fractal", "holder_exponent", _count_samples),
    ("fractal.besov", "talbot.fractal", "besov_profile", _count_besov),
    ("nonlinear.nls", "talbot.nonlinear", "nls_wick_solve", _count_steps("nonlinear.nls")),
    ("nonlinear.kdv", "talbot.nonlinear", "kdv_solve", _count_steps("nonlinear.kdv")),
    ("nonlinear.residual", "talbot.nonlinear", "smoothing_residual", None),
)
SPAN_NAMES = tuple(s[0] for s in SPANS)

FFT_FUNCS = ("fft", "ifft", "rfft", "irfft")


def _span_wrapper(tracer: Tracer, name: str, fn, counter):
    bind = _binder(fn) if counter is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if counter is not None:
            counter(tracer.counts, bind(args, kwargs), result)
        return result
    return wrapper


def _leaf_wrapper(tracer: Tracer, name: str, fn, exclusive: bool):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.leaf(name, _now() - start, exclusive)
    return wrapper


class Installation:
    """The rebindings made by ``install``; ``uninstall`` reverts them."""

    def __init__(self) -> None:
        self.saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, original, wrapper, namespaces) -> None:
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.replace(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self.saved):
            setattr(mod, attr, original)
        self.saved.clear()


def _talbot_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "talbot" or name.startswith("talbot."))]


class MissingEntryPoint(LookupError):
    """A traced entry point is gone from the package: update ``SPANS``."""


def _entry_point(modname: str, attr: str):
    fn = getattr(importlib.import_module(modname), attr, None)
    if fn is None:
        raise MissingEntryPoint(f"{modname}.{attr} not found; the span table needs updating")
    return fn


def install(tracer: Tracer) -> Installation:
    """Wrap every entry point in ``SPANS``, ``iroot`` and the FFTs.  Raises
    ``MissingEntryPoint`` if the package no longer has one of them, so that a
    renamed layer fails the traced run instead of reading as zero."""
    inst = Installation()
    for name, modname, fname, counter in SPANS:
        fn = _entry_point(modname, fname)
        inst.rebind(fn, _span_wrapper(tracer, name, fn, counter), _talbot_modules())

    dispersion = importlib.import_module("talbot.dispersion")
    iroot = _entry_point("talbot.dispersion", "iroot")
    inst.replace(dispersion, "iroot", _leaf_wrapper(tracer, "fixedpoint.iroot", iroot, exclusive=True))

    call = _entry_point("talbot._fftsum", "AnchoredEvaluator").__call__

    @functools.wraps(call)
    def counted_call(self, j, delta):
        tracer.counts["fftsum.refine.direct_terms"] += self.coeffs.size
        return call(self, j, delta)
    inst.replace(importlib.import_module("talbot._fftsum").AnchoredEvaluator, "__call__", counted_call)

    mods = _talbot_modules()
    fft_modules = [sys.modules[m] for m in ("numpy.fft", "scipy.fft") if m in sys.modules]
    for fmod in fft_modules:
        for fname in FFT_FUNCS:
            fn = getattr(fmod, fname, None)
            if fn is not None:
                inst.rebind(fn, _leaf_wrapper(tracer, "fft", fn, exclusive=False),
                            [fmod] + mods)
    return inst


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass, with self-time shares of task time."""
    agg = {name: [0, 0, 0, 0, 0] for name in SPAN_NAMES + ("task",)}  # calls, busy, self, fft calls, fft ns
    for _sid, _parent, name, start, stop, self_ns, fc, fns in tracer.spans:
        rec = agg.setdefault(name, [0, 0, 0, 0, 0])
        rec[0] += 1
        rec[1] += stop - start
        rec[2] += self_ns
        rec[3] += fc
        rec[4] += fns
    c = tracer.counts
    iroot_calls, iroot_ns = tracer.leaves["fixedpoint.iroot"]
    total_ns = agg["task"][1] or 1

    def calls(n):
        return agg[n][0]

    def busy(n):
        return agg[n][1] / 1e9

    def self_s(n):
        return agg[n][2] / 1e9

    def fft_s(n):
        return agg[n][4] / 1e9

    def share(*names):
        return sum(agg[n][2] for n in names) / total_ns

    def per(count, ns, scale):
        return ns / count * scale if count else 0.0

    modes = c["dispersion.phase.modes"]
    points = c["fftsum.grid.points"]
    refine_calls = agg["fftsum.refine"][0]
    m = {
        "dispersion.phase.calls": calls("dispersion.phase"),
        "dispersion.phase.modes": modes,
        "dispersion.phase.busy_s": busy("dispersion.phase"),
        "dispersion.phase.ns_per_mode": per(modes, agg["dispersion.phase"][1], 1.0),
        "dispersion.phase.modes_rational": c["dispersion.phase.modes_rational"],
        "dispersion.phase.modes_fixed_int": c["dispersion.phase.modes_fixed_int"],
        "dispersion.phase.modes_fixed_nonint": c["dispersion.phase.modes_fixed_nonint"],
        "fixedpoint.iroot.calls": iroot_calls,
        "fixedpoint.iroot.busy_s": iroot_ns / 1e9,
        "fftsum.grid.calls": calls("fftsum.grid"),
        "fftsum.grid.points": points,
        "fftsum.grid.busy_s": busy("fftsum.grid"),
        "fftsum.grid.ns_per_point": per(points, agg["fftsum.grid"][1], 1.0),
        "fftsum.grid.bytes_computed": c["fftsum.grid.bytes_computed"],
        "fftsum.grid.fft_s": fft_s("fftsum.grid"),
        "fftsum.refine.calls": calls("fftsum.refine"),
        "fftsum.refine.busy_s": busy("fftsum.refine"),
        "fftsum.refine.direct_terms": c["fftsum.refine.direct_terms"],
        "fftsum.refine.useful_ratio": c["fftsum.refine.useful"] / refine_calls if refine_calls else 0.0,
        "fftsum.refine.mean_lift": c["fftsum.refine.lift"] / refine_calls if refine_calls else 0.0,
        "expsum.sweep.cells": c["expsum.sweep.cells"],
        "expsum.sweep.busy_s": busy("expsum.sweep"),
        "expsum.sweep.self_s": self_s("expsum.sweep"),
        "evolution.slice.calls": calls("evolution.slice"),
        "evolution.slice.samples": c["evolution.slice.samples"],
        "evolution.slice.busy_s": busy("evolution.slice"),
        "evolution.slice.self_s": self_s("evolution.slice"),
        "evolution.quantize.calls": calls("evolution.quantize"),
        "evolution.quantize.busy_s": busy("evolution.quantize"),
        "evolution.quantize.self_s": self_s("evolution.quantize"),
        "fractal.box.calls": calls("fractal.box"),
        "fractal.box.busy_s": busy("fractal.box"),
        "fractal.holder.calls": calls("fractal.holder"),
        "fractal.holder.busy_s": busy("fractal.holder"),
        "fractal.besov.calls": calls("fractal.besov"),
        "fractal.besov.busy_s": busy("fractal.besov"),
        "fractal.besov.blocks": c["fractal.besov.blocks"],
        "fractal.besov.fft_s": fft_s("fractal.besov"),
        "fractal.samples": c["fractal.samples"],
    }
    for kind in ("nls", "kdv"):
        n = f"nonlinear.{kind}"
        steps = c[f"{n}.steps"]
        m[f"{n}.steps"] = steps
        m[f"{n}.busy_s"] = busy(n)
        m[f"{n}.us_per_step"] = per(steps, agg[n][1], 1e-3)
        m[f"{n}.fft_calls"] = agg[n][3]
        m[f"{n}.fft_s"] = fft_s(n)
    m["nonlinear.residual.busy_s"] = busy("nonlinear.residual")

    # self-time shares of traced task time; they sum to 1 with bench.share
    for name in SPAN_NAMES:
        m[f"{name}.share"] = share(name)
    m["fixedpoint.iroot.share"] = iroot_ns / total_ns
    m["fftsum.share"] = share("fftsum.grid", "fftsum.refine")
    m["evolution.share"] = share("evolution.slice", "evolution.quantize")
    m["fractal.share"] = share("fractal.box", "fractal.holder", "fractal.besov")
    m["nonlinear.share"] = share("nonlinear.nls", "nonlinear.kdv", "nonlinear.residual")
    m["bench.share"] = share("task")
    return m


LAYER_UNITS = {"calls": "count", "modes": "count", "points": "count", "cells": "count",
               "samples": "count", "steps": "count", "blocks": "count", "direct_terms": "count",
               "fft_calls": "count", "bytes_computed": "B", "ns_per_mode": "ns",
               "ns_per_point": "ns", "us_per_step": "us", "useful_ratio": "ratio",
               "mean_lift": "ratio", "share": "ratio", "overhead_frac": "ratio"}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.startswith("modes_"):
        return "count"
    if last.endswith("_s"):
        return "s"
    return LAYER_UNITS[last]
