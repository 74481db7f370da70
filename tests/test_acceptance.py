"""The eleven acceptance criteria, one test each.

Each test runs one criterion through ``run_acceptance``, as ``talbot
acceptance --only N`` does.  A criterion measures a frozen quantity (an exact
value, a fitted exponent with a pinned window, or a budgeted discrepancy) and
records every sub-check with its observed and required values.  A failure
here prints the full check table of the offending criterion.

The observed strings of every criterion are also kept in a ledger,
``acceptance_observed.json``, by criterion and label; a value that moves
fails its criterion's test, naming the label and the old and new value.
The ledger sets no threshold.  A change that moves a value on purpose
regenerates it with ``PYTHONPATH=src python tests/test_acceptance.py``.
"""
import json
from pathlib import Path

import pytest

from talbot import acceptance

LEDGER = Path(__file__).with_name("acceptance_observed.json")


def _observed(result) -> dict:
    return {chk.label: chk.observed for chk in result.checks}


def _assert_passed(result):
    lines = [f"criterion {result.number}: {result.title}"]
    for chk in result.checks:
        mark = "pass" if chk.passed else "FAIL"
        lines.append(f"  [{mark}] {chk.label}: observed {chk.observed}, "
                     f"required {chk.required}")
    assert result.passed, "\n".join(lines)
    kept = json.loads(LEDGER.read_text(encoding="utf-8")).get(str(result.number), {})
    got = _observed(result)
    moved = [f"  {label}: {kept.get(label, '(absent)')} -> {got.get(label, '(absent)')}"
             for label in [*kept, *(label for label in got if label not in kept)]
             if kept.get(label) != got.get(label)]
    assert not moved, "\n".join([f"criterion {result.number}: observed values moved "
                                  f"from {LEDGER.name}", *moved])


def test_criterion_1_rational_time_quantization():
    _assert_passed(acceptance.run_acceptance([1]).results[0])


def test_criterion_2_time_slice_graph_dimensions():
    _assert_passed(acceptance.run_acceptance([2]).results[0])


def test_criterion_3_oblique_slice_sup_growth():
    _assert_passed(acceptance.run_acceptance([3]).results[0])


def test_criterion_4_quadratic_oblique_dimension_and_besov():
    _assert_passed(acceptance.run_acceptance([4]).results[0])


def test_criterion_5_cubic_l4_norms_and_identity():
    _assert_passed(acceptance.run_acceptance([5]).results[0])


def test_criterion_6_quadruple_count_growth():
    _assert_passed(acceptance.run_acceptance([6]).results[0])


def test_criterion_7_fractional_sup_saving():
    _assert_passed(acceptance.run_acceptance([7]).results[0])


def test_criterion_8_dual_sum_budget():
    _assert_passed(acceptance.run_acceptance([8]).results[0])


def test_criterion_9_calibration_family():
    _assert_passed(acceptance.run_acceptance([9]).results[0])


def test_criterion_10_nonlinear_smoothing():
    _assert_passed(acceptance.run_acceptance([10]).results[0])


def test_criterion_11_exact_bound_table():
    _assert_passed(acceptance.run_acceptance([11]).results[0])


def test_run_acceptance_rejects_unknown_numbers():
    with pytest.raises(ValueError):
        acceptance.run_acceptance([12])


def test_run_acceptance_rejects_an_empty_selection():
    # an empty selection would pass having run nothing
    with pytest.raises(ValueError, match="no criteria selected"):
        acceptance.run_acceptance([])


def test_registry_is_complete():
    numbers = [num for num, _, _ in acceptance.CRITERIA]
    assert numbers == list(range(1, 12))


if __name__ == "__main__":
    report = acceptance.run_acceptance()
    ledger = {str(result.number): _observed(result) for result in report.results}
    LEDGER.write_text(json.dumps(ledger, indent=2) + "\n", encoding="utf-8")
