"""The knob table: every entry parses, range-checks and documents itself.

The bad and boundary values are derived from each entry's README range
cell, so the documented range and the enforced one cannot drift apart:
a value just outside the range must raise :class:`ConfigError` naming
the variable, and the boundary value must be accepted, whether the
range lives in the table or in the owning constructor.
"""

import importlib
import inspect
import re

import pytest

from repro import knobs
from repro.knobs import KNOBS, ConfigError

_NUMERIC = re.compile(r"(int|float) (≥|>) (-?\d+)")
_CHOICES = re.compile(r"`([a-z]+)`")


def _cases(knob) -> tuple[list[str], list[str]]:
    """(accepted, rejected) sample values for one knob."""
    rng = knob.range
    if match := _NUMERIC.match(rng):
        kind, op, low = match.group(1), match.group(2), int(match.group(3))
        edge = low if op == "≥" else low + 0.5
        bad = str(low - 1) if op == "≥" else str(low)
        rejected = [bad, "many"] + (["1.5"] if kind == "int" else [])
        return [str(edge)], rejected
    if rng == "1024–65535":
        return ["1024", "65535"], ["1023", "65536", "http"]
    if knob.parse is knobs.boolean:
        return ["1", "off"], ["maybe", "2"]
    if rng == "`repro codecs` names":
        return ["zlib", "null"], ["martian"]
    if knob.parse is knobs.tenants:
        return ["a:2:4,b:1:2:1048576"], ["a:x:1", "a:1"]
    if rng == "path":
        return ["/tmp/anywhere"], []
    choices = _CHOICES.findall(rng)
    assert choices, f"{knob.env}: no sample values for range {rng!r}"
    return choices, ["carrier-pigeon"]


@pytest.mark.parametrize("name", list(KNOBS))
def test_documented_range_is_enforced(monkeypatch, name):
    knob = KNOBS[name]
    accepted, rejected = _cases(knob)
    for raw in accepted:
        monkeypatch.setenv(name, raw)
        knobs.get(name)
    for raw in rejected:
        monkeypatch.setenv(name, raw)
        with pytest.raises(ConfigError) as err:
            knobs.get(name)
        assert f"{name}={raw!r}" in str(err.value)
    monkeypatch.setenv(name, "")
    assert knobs.get(name) == knob.default


def _owner(knob):
    module, _, attr = knob.owner.partition(":")
    cls, _, field = attr.partition(".")
    return getattr(importlib.import_module(module), cls), field


@pytest.mark.parametrize("name", [n for n, k in KNOBS.items() if k.owner])
def test_owned_knob_defaults_match_owner(name):
    """A knob its owner checks has no table check, and (except the R2
    harness's larger skip budget) the owner's default."""
    knob = KNOBS[name]
    assert knob.check is None
    cls, field = _owner(knob)
    default = inspect.signature(cls).parameters[field].default
    if name == "REPRO_SKIP_BUDGET":
        assert default < knob.default
    else:
        assert default == knob.default


@pytest.mark.parametrize("command", ["run", "serve", "tune"])
def test_help_lists_every_flagged_knob(capsys, command):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = " ".join(capsys.readouterr().out.split())
    for knob in KNOBS.values():
        if knob.flag and command in knob.commands:
            assert f"{knob.flag} " in out and f"[{knob.env};" in out


@pytest.mark.parametrize("argv,var", [
    (["serve", "--workers", "0"], "REPRO_SERVICE_WORKERS"),
    (["run", "F7", "--max-host-reexecs", "-1"], "REPRO_MAX_HOST_REEXECS"),
    (["run", "F7", "--memory-budget", "255"], "REPRO_MEMORY_BUDGET"),
    (["run", "F7", "--recovery-dir", "d", "--runner", "serial"],
     "REPRO_RECOVERY_DIR"),
])
def test_bad_flag_is_usage_error_naming_variable(capsys, monkeypatch,
                                                 argv, var):
    from repro.cli import main

    monkeypatch.delenv(var, raising=False)
    with pytest.raises(SystemExit):
        main(argv)
    assert var in capsys.readouterr().err
