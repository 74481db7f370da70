"""The README's command-line examples, and what each prints, in a ledger.

Every ``talbot`` command of the README's Examples block runs in process,
through ``talbot.cli.main``, in a fresh directory, except those of
``SKIPPED``.  Its exit code, stdout, stderr and every CSV it writes are
compared with ``readme_observed.json``, by command: JSON reports less
``timestamp`` and ``elapsed_s``, and CSV tables whole, or past
``WHOLE_ROWS`` rows their header, row count and first and last rows.  Ints,
strings and booleans must match exactly, floats to 1e-12 relative (1e-15
absolute near zero), so that another CPU's rounding does not fail a value.
A value that moves fails its example's test, naming each value with its old
and new value.  The ledger sets no threshold.  A change that moves a value
on purpose, or edits an example, regenerates the file with
``PYTHONPATH=src python tests/test_readme_examples.py``.
"""
import contextlib
import io
import itertools
import json
import math
import os
import shlex
import tempfile
from pathlib import Path

import pytest

from talbot.cli import main

ROOT = Path(__file__).resolve().parents[1]
LEDGER = Path(__file__).with_name("readme_observed.json")

#: Subcommands whose examples are not run here, with the reason.
SKIPPED = {
    "kdv": "its 50,000 steps take 13 s",
    "acceptance": "tests/test_acceptance.py keeps each criterion's numbers",
}
#: Tables longer than this keep only their first and last rows.
WHOLE_ROWS = 100
_ABSENT = "(absent)"


def _examples() -> list[str]:
    """The README's example commands, one line each, in order."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = line.split("#", 1)[0].split()
        if words[:1] == ["talbot"] and words[1] not in SKIPPED:
            commands.append(" ".join(words))
    return commands


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _table(path: Path) -> dict:
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    kept = lines if len(lines) <= WHOLE_ROWS else [lines[0], lines[-1]]
    return {"header": header, "count": len(lines),
            "rows": [[_cell(c) for c in line.split(",")] for line in kept]}


def _observe(command: str, workdir: Path) -> dict:
    """Exit code, stdout, stderr and CSV tables of one run in ``workdir``."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(shlex.split(command)[1:])
    finally:
        os.chdir(here)
    try:
        stdout = json.loads(out.getvalue())
        stdout.pop("timestamp")
        stdout.pop("elapsed_s")
    except ValueError:
        stdout = out.getvalue().splitlines()
    return {"code": code, "stdout": stdout, "stderr": err.getvalue().splitlines(),
            "files": {p.name: _table(p) for p in sorted(workdir.glob("*.csv"))}}


def _same(kept, got) -> bool:
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (kept, got))
    if numbers and float in (type(kept), type(got)):
        return math.isclose(kept, got, rel_tol=1e-12, abs_tol=1e-15)
    return type(kept) is type(got) and kept == got


def _moved(kept, got, where: str) -> list[str]:
    """'where: old -> new' for every value of ``got`` that moved from ``kept``."""
    if isinstance(kept, dict) and isinstance(got, dict):
        keys = [*kept, *(key for key in got if key not in kept)]
        return [line for key in keys for line in
                _moved(kept.get(key, _ABSENT), got.get(key, _ABSENT), f"{where}.{key}")]
    if isinstance(kept, list) and isinstance(got, list):
        pairs = itertools.zip_longest(kept, got, fillvalue=_ABSENT)
        return [line for i, (a, b) in enumerate(pairs) for line in _moved(a, b, f"{where}[{i}]")]
    return [] if _same(kept, got) else [f"  {where}: {kept!r} -> {got!r}"]


def _ledger() -> dict:
    return json.loads(LEDGER.read_text(encoding="utf-8"))


def test_ledger_holds_the_readme_examples():
    assert list(_ledger()) == _examples(), f"regenerate {LEDGER.name}: the README examples changed"


@pytest.mark.parametrize("command", _examples(), ids=lambda command: command.split()[1])
def test_readme_example_prints_its_ledger_values(tmp_path, command):
    kept = _ledger().get(command, {})
    moved = _moved(kept, _observe(command, tmp_path), "")
    assert not moved, "\n".join([f"{command}: values moved from {LEDGER.name}", *moved])


if __name__ == "__main__":
    ledger = {}
    for command in _examples():
        with tempfile.TemporaryDirectory() as tmp:
            ledger[command] = _observe(command, Path(tmp))
    LEDGER.write_text(json.dumps(ledger, indent=2) + "\n", encoding="utf-8")
