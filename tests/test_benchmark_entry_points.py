"""The package entry points that perfbench's tracer wraps must still exist.

perfbench/tracing.py rebinds the functions in its SPANS table, talbot's
``iroot`` and ``AnchoredEvaluator.__call__``, and its counters read named
arguments of the wrapped calls.  A rename or deletion would otherwise first
show up as a failed traced benchmark run; these tests read the tracer
without changing it and fail fast instead.
"""
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

#: argument names each counter reads, by wrapped function
COUNTED_ARGUMENTS = {
    ("talbot.dispersion", "theta_omega_frac_array"): ("rel", "theta"),
    ("talbot._fftsum", "grid_values"): ("G",),
    ("talbot._fftsum", "refine_supremum"): ("absvals",),
    ("talbot.nonlinear", "nls_wick_solve"): ("dt", "t_max"),
    ("talbot.nonlinear", "kdv_solve"): ("dt", "t_max"),
    ("talbot.fractal", "box_dimension"): ("samples",),
    ("talbot.fractal", "holder_exponent"): ("samples",),
    ("talbot.fractal", "besov_profile"): ("samples",),
}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(modname: str, attr: str):
    return getattr(importlib.import_module(modname), attr)


def test_every_span_entry_point_resolves():
    for _name, modname, fname, _counter in _tracing().SPANS:
        assert callable(_resolve(modname, fname)), f"{modname}.{fname}"


def test_leaf_entry_points_resolve():
    assert callable(_resolve("talbot.dispersion", "iroot"))
    evaluator = _resolve("talbot._fftsum", "AnchoredEvaluator")
    assert list(inspect.signature(evaluator.__call__).parameters) == ["self", "j", "delta"]
    # counted_call adds self.coeffs.size, the N terms of each probe
    freqs = np.arange(-5, 12) ** 2
    instance = evaluator(freqs, np.ones(freqs.size, dtype=complex), 64)
    assert instance.coeffs.size == freqs.size


@pytest.mark.parametrize("key, names", sorted(COUNTED_ARGUMENTS.items()))
def test_counted_arguments_are_parameters(key, names):
    params = inspect.signature(_resolve(*key)).parameters
    for name in names:
        assert name in params, f"{key[0]}.{key[1]} lost parameter {name!r}"


def test_argument_table_covers_the_tracer():
    spans = {(modname, fname) for _name, modname, fname, _counter in _tracing().SPANS}
    assert set(COUNTED_ARGUMENTS) <= spans
    read = set(re.findall(r'\ba\["(\w+)"\]', TRACING.read_text()))
    listed = {name for names in COUNTED_ARGUMENTS.values() for name in names}
    assert read == listed


def _count_iroot(monkeypatch) -> list[int]:
    """Rebind talbot.dispersion.iroot, as the traced run does, and return the
    list its calls append their radicands to."""
    dispersion = importlib.import_module("talbot.dispersion")
    calls = []
    real = dispersion.iroot

    def counting(x, k):
        calls.append(x)
        return real(x, k)

    monkeypatch.setattr(dispersion, "iroot", counting)
    return calls


@pytest.mark.parametrize("spec, ns, fallbacks", [
    ("frac:9/5", range(-40, 41), 1),  # n = 0 has no root form: the one mode that falls back
    ("frac:3/2", range(-40, 41), 0),  # q = 2: a fallback root is isqrt
    ("gravity", range(70, 200), 0),  # tanh saturated: isqrt
    ("gravity", range(-200, -69), 0),
])
def test_phase_path_calls_iroot_through_the_traced_name(monkeypatch, spec, ns, fallbacks):
    # modes that pass the double-double kernel's rounding test never take a root
    calls = _count_iroot(monkeypatch)
    dispersion = importlib.import_module("talbot.dispersion")
    dispersion.theta_omega_frac_array(dispersion.parse_relation(spec), dispersion.seeded_theta(1).theta, ns)
    assert len(calls) == fallbacks


def test_modes_outside_the_proven_range_reach_iroot(monkeypatch):
    # frac:9/5 is m * (m^4)^(1/5); m^4 >= 2^99 is not exact in double-double,
    # so n = 0 and |n| = 2^25 take the big-integer root and nothing else does
    calls = _count_iroot(monkeypatch)
    dispersion = importlib.import_module("talbot.dispersion")
    ns = [3, 0, 1 << 25, -17, -(1 << 25), 1 << 24]
    dispersion.theta_omega_frac_array(dispersion.parse_relation("frac:9/5"), dispersion.seeded_theta(1).theta, ns)
    frac_bits = importlib.import_module("talbot.fixedpoint").FRAC_BITS
    assert sorted(calls) == sorted(abs(n) ** 9 << (5 * frac_bits) for n in (0, 1 << 25, -(1 << 25)))
