"""The README env-var table and the source tree must agree.

README.md documents every ``REPRO_*`` knob with its default and range.
This test greps the source for every variable actually read and parses
the table, in both directions: an undocumented knob fails, and so does
a documented knob no code reads anymore (table rot).
"""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")

#: directories whose .py files may read REPRO_* variables
_SOURCE_DIRS = ("src", "benchmarks", "tests")
_VAR = re.compile(r"REPRO_[A-Z0-9_]+")


def _source_vars() -> set[str]:
    found: set[str] = set()
    for rel in _SOURCE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, rel)):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for name in filenames:
                if not name.endswith(".py"):
                    continue
                with open(os.path.join(dirpath, name),
                          encoding="utf-8") as fh:
                    found.update(_VAR.findall(fh.read()))
    with open(os.path.join(ROOT, "conftest.py"), encoding="utf-8") as fh:
        found.update(_VAR.findall(fh.read()))
    # Trailing-underscore matches are prefix mentions in prose
    # ("the REPRO_SERVICE_* knobs"), not variables.
    return {v for v in found if not v.endswith("_")}


def _documented_vars() -> set[str]:
    """Variables from the README table (rows whose first cell is a
    backticked REPRO_ name)."""
    documented: set[str] = set()
    with open(README, encoding="utf-8") as fh:
        for line in fh:
            match = re.match(r"\|\s*`(REPRO_[A-Z0-9_]+)`\s*\|", line)
            if match:
                documented.add(match.group(1))
    return documented


def test_table_exists_with_required_columns():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    assert "## Environment variables" in text
    header = re.search(r"\| variable \| default \| range / values \| "
                       r"effect \|", text)
    assert header, "env table header row missing or reworded"


def test_every_source_var_is_documented():
    missing = _source_vars() - _documented_vars()
    assert not missing, (
        f"REPRO_* variables read in code but absent from the README "
        f"'Environment variables' table: {sorted(missing)}")


def test_every_documented_var_is_read_somewhere():
    stale = _documented_vars() - _source_vars()
    assert not stale, (
        f"README documents REPRO_* variables nothing reads anymore: "
        f"{sorted(stale)}")


def test_service_knobs_documented():
    """The service's own knobs (this PR's surface) are all present."""
    documented = _documented_vars()
    for var in ("REPRO_SERVICE_ROOT", "REPRO_SERVICE_WORKERS",
                "REPRO_SERVICE_EXECUTORS", "REPRO_SERVICE_MAX_QUEUE",
                "REPRO_SERVICE_TENANT_QUEUE",
                "REPRO_SERVICE_MAX_JOB_SECONDS",
                "REPRO_SERVICE_MAX_OUTSTANDING_SECONDS",
                "REPRO_SERVICE_TENANTS", "REPRO_SERVICE_QUANTUM"):
        assert var in documented, var



def test_readme_table_is_the_knob_table():
    """The README table is ``repro.knobs.markdown_table()`` verbatim, so
    every row's default, range and effect cells are the knob table's
    (``python -m repro.knobs`` prints it to paste)."""
    from repro.knobs import markdown_table

    with open(README, encoding="utf-8") as fh:
        assert markdown_table() in fh.read()
