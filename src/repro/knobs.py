"""Every documented ``REPRO_*`` setting, declared once.

Each :class:`Knob` in :data:`KNOBS` names one environment variable: its
parser, default, CLI flag (if any), doc string and at most one range
check.  Every reader goes through :func:`get`, which raises
:class:`ConfigError` naming the variable; ``repro run/serve/tune``
build their flags from the table and resolve them through :func:`get`
too; :data:`RULES` holds the cross-knob rules; and the README table is
:func:`markdown_table` (``python -m repro.knobs``).

A range is enforced in exactly one place.  A knob that configures an
object whose constructor checks it names that ``owner``, and
:func:`get` validates by building the owner with just that field; only
knobs with no owning object carry a ``check`` here.  Stdlib only and
free of argparse: the job path imports this module.
"""

from __future__ import annotations

import importlib
import os
from typing import Any, Callable, Mapping, NamedTuple

__all__ = ["ConfigError", "Knob", "KNOBS", "RULES", "boolean", "tenants",
           "get", "given", "check_rules", "markdown_table"]


class ConfigError(ValueError):
    """A configuration value is malformed or out of range.

    Raised instead of a bare ``ValueError`` so a typo in an environment
    variable or CLI flag surfaces as one readable sentence naming the
    offending setting, not a traceback from ``int()``.
    """


def boolean(raw: str) -> bool:
    """Parse a boolean value (``1/0/true/false/yes/no/on/off``)."""
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


boolean.__name__ = "boolean (1/0/true/false/yes/no/on/off)"


def tenants(raw: str) -> dict[str, tuple[float, int, int | None]]:
    """``name:weight:quota[:membytes],...`` -> {name: (weight, quota, mem)};
    an omitted ``membytes`` leaves the tenant to the global memory cap."""
    out: dict[str, tuple[float, int, int | None]] = {}
    for part in filter(None, (p.strip() for p in raw.split(","))):
        fields = part.split(":")
        try:
            if len(fields) not in (3, 4):
                raise ValueError("not name:weight:quota[:membytes]")
            name, weight, quota = fields[:3]
            mem = int(fields[3]) if len(fields) == 4 else None
            out[name] = (float(weight), int(quota), mem)
        except ValueError as exc:
            raise ValueError(f"tenant entry {part!r}: {exc}") from None
    return out


tenants.__name__ = "tenant list"


def _check(ok: Callable[[Any], bool], problem: str):
    def check(value: Any) -> None:
        if not ok(value):
            raise ValueError(problem)
    return check


def _at_least(low: int):
    return _check(lambda v: v >= low, f"must be >= {low}")


def _above(low: int):
    return _check(lambda v: v > low, f"must be > {low}")


def _known_codec(name: str) -> None:
    from repro.mapreduce.codecs import available_codecs

    if name not in available_codecs():
        raise ValueError(f"available codecs: {', '.join(available_codecs())}"
                         f" (see 'repro codecs')")


class Knob(NamedTuple):
    """One ``REPRO_*`` variable: the single source of its wiring."""

    env: str
    #: text -> value; a ``ValueError`` means the text does not parse
    parse: Callable[[str], Any]
    #: the value when the variable is unset or empty
    default: Any
    #: README "range / values" cell
    range: str
    #: README "effect" cell, and the flag's ``--help`` text
    doc: str
    flag: str | None = None
    #: subcommands that take ``flag``
    commands: tuple[str, ...] = ("run",)
    #: flag that sets a boolean knob off (``flag`` sets it on)
    off_flag: str | None = None
    #: range check for a knob no object owns (raises ``ValueError``)
    check: Callable[[Any], None] | None = None
    #: ``"module:Class.field"`` whose constructor checks the range
    owner: str | None = None
    #: README "default" cell when ``default`` does not say it
    shown_default: str | None = None

    @property
    def default_cell(self) -> str:
        if self.shown_default is not None:
            return self.shown_default
        if self.default is None:
            return "unset (none)"
        if self.default is False:
            return "off"
        if isinstance(self.default, float):
            return f"`{self.default:g}`"
        return f"`{self.default}`"


_RT = "repro.mapreduce.runtime."
_SHUFFLE = _RT + "shuffle:ShuffleConfig."
_ADMISSION = _RT + "service.admission:AdmissionConfig."
_CLIENTS = ("serve", "submit", "status", "events", "jobs", "cancel",
            "shutdown")

#: every documented variable, in README order
KNOBS: dict[str, Knob] = {k.env: k for k in (
    Knob("REPRO_RUNNER", str.lower, "serial", "`serial` / `parallel`",
         "execution backend the harnesses use", flag="--runner",
         check=_check(lambda v: v in ("serial", "local", "parallel"),
                      "must be serial, local or parallel")),
    Knob("REPRO_WORKERS", int, None, "int ≥ 1",
         "worker processes for the parallel runner", flag="--workers",
         check=_at_least(1), shown_default="CPU count"),
    Knob("REPRO_TASK_TIMEOUT", float, None, "float > 0 seconds",
         "per-attempt deadline; breaching attempts are killed and retried",
         flag="--task-timeout",
         owner=_RT + "scheduler:TaskScheduler.task_timeout"),
    Knob("REPRO_RECOVERY_DIR", str, None, "path",
         "durable job-manifest directory (checkpoint/resume)",
         flag="--recovery-dir"),
    Knob("REPRO_RESUME", boolean, False, "`1`/`true`/...",
         "adopt completed tasks from the manifest in `REPRO_RECOVERY_DIR`",
         flag="--resume"),
    Knob("REPRO_SKIP_BUDGET", int, 4096, "int ≥ 1",
         "max records a task may quarantine in skipping scenarios (R2)",
         flag="--skip-budget",
         owner="repro.mapreduce.job:SkipPolicy.skip_budget"),
    Knob("REPRO_QUARANTINE_DIR", str, None, "path",
         "where quarantine side-files land", flag="--quarantine-dir",
         shown_default="unset (temp dirs)"),
    Knob("REPRO_NUM_HOSTS", int, 2, "int ≥ 1",
         "simulated hosts tasks/segment servers spread over",
         flag="--num-hosts", owner=_RT + "hosts:HostRegistry.num_hosts"),
    Knob("REPRO_MAX_HOST_REEXECS", int, 2, "int ≥ 0",
         "completed maps re-executed per lost host before the job fails",
         flag="--max-host-reexecs",
         owner=_RT + "policy:RecoveryPolicy.max_host_reexecs"),
    Knob("REPRO_TRANSPORT", str, "direct",
         "`direct` / `channel` / `network`",
         "shuffle transport reducers fetch through", flag="--transport",
         owner=_SHUFFLE + "transport"),
    Knob("REPRO_WIRE_CODEC", str, "null", "`repro codecs` names",
         "on-the-wire segment compression (`network` transport)",
         flag="--wire-codec", check=_known_codec),
    Knob("REPRO_SHUFFLE_PORT_BASE", int, None, "1024–65535",
         "first TCP port for network shuffle servers",
         flag="--shuffle-port-base", owner=_SHUFFLE + "port_base",
         shown_default="unset (ephemeral)"),
    Knob("REPRO_FETCH_RETRIES", int, 3, "int ≥ 0",
         "extra fetch attempts per segment after the first failure",
         flag="--fetch-retries", owner=_SHUFFLE + "fetch_retries"),
    Knob("REPRO_FETCH_TIMEOUT", float, None, "float > 0 seconds",
         "per-fetch-attempt deadline", flag="--fetch-timeout",
         owner=_SHUFFLE + "fetch_timeout"),
    Knob("REPRO_PIPELINE", boolean, False, "boolean",
         "pipelined shuffle (reducers overlap late maps)",
         flag="--pipeline", off_flag="--no-pipeline"),
    Knob("REPRO_STARVATION_THRESHOLD", int, 2, "int ≥ 1",
         "missing-producer count that triggers starved-reducer "
         "speculation", flag="--starvation-threshold",
         owner=_SHUFFLE + "starvation_threshold"),
    Knob("REPRO_MEMORY_BUDGET", int, None, "int ≥ 256 bytes",
         "per-task memory-ledger capacity; OOM-killed attempts retry with "
         "halved knobs", flag="--memory-budget",
         owner=_SHUFFLE + "memory_budget"),
    Knob("REPRO_MAX_INFLIGHT_BYTES", int, None, "int ≥ 1",
         "reduce-side fetch byte window (backpressure on in-flight "
         "shuffle bytes)", flag="--max-inflight-bytes",
         owner=_SHUFFLE + "max_inflight_bytes"),
    Knob("REPRO_MAX_MEMORY_RETRIES", int, 2, "int ≥ 1",
         "OOM deaths a task may degrade through before the job fails",
         flag="--max-memory-retries",
         owner=_SHUFFLE + "max_memory_retries"),
    Knob("REPRO_WORKER_RLIMIT_BYTES", int, None, "int ≥ 1",
         "real `RLIMIT_AS` cap applied to forked parallel workers (Linux)",
         flag="--worker-rlimit", check=_at_least(1)),
    Knob("REPRO_SERVICE_ROOT", str, "./.repro-service", "path",
         "job daemon state directory (`repro serve` et al.)",
         flag="--root", commands=_CLIENTS),
    Knob("REPRO_SERVICE_WORKERS", int, None, "int ≥ 1",
         "worker slots in the daemon's shared pool", flag="--workers",
         commands=("serve",), check=_at_least(1),
         shown_default="CPU count"),
    Knob("REPRO_SERVICE_EXECUTORS", int, 2, "int ≥ 1",
         "concurrently executing jobs in the daemon", flag="--executors",
         commands=("serve",), check=_at_least(1)),
    Knob("REPRO_SERVICE_MAX_QUEUE", int, 16, "int ≥ 1",
         "global queued-job bound (beyond: `OVERLOADED` 429)",
         owner=_ADMISSION + "max_queued"),
    Knob("REPRO_SERVICE_TENANT_QUEUE", int, 8, "int ≥ 1",
         "per-tenant queued-job bound (beyond: `TENANT_OVERLOADED` 429)",
         owner=_ADMISSION + "max_queued_per_tenant"),
    Knob("REPRO_SERVICE_MAX_JOB_SECONDS", float, 600.0, "float > 0",
         "per-job predicted-cost cap (beyond: `JOB_TOO_LARGE` 413)",
         owner=_ADMISSION + "max_job_seconds"),
    Knob("REPRO_SERVICE_MAX_OUTSTANDING_SECONDS", float, 3600.0,
         "float > 0",
         "cap on predicted seconds of admitted-but-unfinished work",
         owner=_ADMISSION + "max_outstanding_seconds"),
    Knob("REPRO_SERVICE_MAX_MEMORY", int, None, "int ≥ 1 bytes",
         "cap on predicted peak memory of admitted-but-unfinished jobs "
         "(beyond: `OVERCOMMITTED_MEMORY` 429)", flag="--max-memory",
         commands=("serve",),
         owner=_ADMISSION + "max_outstanding_memory_bytes"),
    Knob("REPRO_SERVICE_TENANTS", tenants, None,
         "`name:weight:quota[:membytes],...`",
         "per-tenant DRR weights, concurrent-task quotas, and peak-memory "
         "quotas", flag="--tenants", commands=("serve",),
         shown_default="unset (weight 1, no quota)"),
    Knob("REPRO_SERVICE_QUANTUM", float, 5.0, "float > 0",
         "DRR quantum in predicted seconds per round",
         owner=_RT + "service.fairshare:DeficitScheduler.quantum_seconds"),
    Knob("REPRO_SCALE", float, None, "float > 0",
         "workload scale (1.0 = paper scale)", flag="--scale",
         commands=("run", "tune"), check=_above(0),
         shown_default="harness-specific"),
    Knob("REPRO_CHAOS_SEEDS", int, 20, "int ≥ 1",
         "R1 chaos-soak fault schedules", check=_at_least(1)),
    Knob("REPRO_R2_FUZZ", int, 6, "int ≥ 0", "R2 poison-fuzz seeds",
         check=_at_least(0)),
    Knob("REPRO_R2_SECONDS", float, None, "float > 0",
         "R2 fuzz wall-clock cap", check=_above(0)),
    Knob("REPRO_R3_FUZZ", int, 4, "int ≥ 0", "R3 shuffle-fuzz seeds",
         check=_at_least(0)),
    Knob("REPRO_R3_SECONDS", float, 120.0, "float > 0",
         "R3 fuzz wall-clock cap", check=_above(0)),
    Knob("REPRO_R4_FUZZ", int, 3, "int ≥ 0", "R4 network-fuzz seeds",
         check=_at_least(0)),
    Knob("REPRO_R4_SECONDS", float, 120.0, "float > 0",
         "R4 fuzz wall-clock cap", check=_above(0)),
    Knob("REPRO_R5_FUZZ", int, 3, "int ≥ 0", "R5 host-fuzz seeds",
         check=_at_least(0)),
    Knob("REPRO_R5_SECONDS", float, 120.0, "float > 0",
         "R5 fuzz wall-clock cap", check=_above(0)),
    Knob("REPRO_R7_FUZZ", int, 3, "int ≥ 0", "R7 memory-fuzz seeds",
         check=_at_least(0)),
    Knob("REPRO_R7_SECONDS", float, 120.0, "float > 0",
         "R7 fuzz wall-clock cap", check=_above(0)),
    Knob("REPRO_P3_FUZZ", int, 3, "int ≥ 0", "P3 straggler-fuzz seeds",
         check=_at_least(0)),
    Knob("REPRO_P3_SECONDS", float, 120.0, "float > 0",
         "P3 fuzz wall-clock cap", check=_above(0)),
    Knob("REPRO_R6_SECONDS", float, 240.0, "float > 0",
         "R6 service-chaos recovery-wait budget", check=_above(0)),
    # conftest.py reads this one itself: it runs before the package is
    # necessarily importable.
    Knob("REPRO_TEST_TIMEOUT", float, 300.0, "float ≥ 0 (0 = off)",
         "per-test wall-clock kill switch (conftest)", check=_at_least(0)),
)}

#: cross-knob rules: setting the first knob (to anything but off)
#: requires the second to have the given value (``None``: to be set)
RULES: tuple[tuple[str, str, Any], ...] = (
    ("REPRO_TASK_TIMEOUT", "REPRO_RUNNER", "parallel"),
    ("REPRO_RECOVERY_DIR", "REPRO_RUNNER", "parallel"),
    ("REPRO_RESUME", "REPRO_RUNNER", "parallel"),
    ("REPRO_WORKER_RLIMIT_BYTES", "REPRO_RUNNER", "parallel"),
    ("REPRO_RESUME", "REPRO_RECOVERY_DIR", None),
    ("REPRO_WIRE_CODEC", "REPRO_TRANSPORT", "network"),
    ("REPRO_SHUFFLE_PORT_BASE", "REPRO_TRANSPORT", "network"),
    ("REPRO_STARVATION_THRESHOLD", "REPRO_PIPELINE", True),
)


def get(name: str, environ: Mapping[str, str] | None = None) -> Any:
    """The value of knob ``name``: parsed and range-checked, or its
    default when the variable is unset or empty.

    ``environ`` defaults to ``os.environ``.  A value that does not parse
    or is out of range raises :class:`ConfigError` naming the variable.
    """
    knob = KNOBS[name]
    raw = (os.environ if environ is None else environ).get(name, "")
    if not raw:
        return knob.default
    try:
        value = knob.parse(raw)
    except ValueError as exc:
        raise ConfigError(f"invalid {name}={raw!r}: expected "
                          f"{knob.parse.__name__} ({exc})") from exc
    try:
        if knob.check is not None:
            knob.check(value)
        elif knob.owner is not None:
            module, _, attr = knob.owner.partition(":")
            cls, _, field = attr.partition(".")
            getattr(importlib.import_module(module), cls)(**{field: value})
    except ValueError as exc:
        raise ConfigError(f"invalid {name}={raw!r}: {exc}") from exc
    return value


def given(**fields: str) -> dict[str, Any]:
    """``{keyword: get(name)}`` for each ``keyword=name`` whose variable
    is set, so an unset knob leaves the consumer's own default alone."""
    return {key: get(name) for key, name in fields.items()
            if os.environ.get(name)}


def _label(name: str, value: Any = None) -> str:
    flag = KNOBS[name].flag
    if value is not None:
        name = f"{name}={1 if value is True else value}"
    return f"{name} ({flag})" if flag else name


def check_rules(environ: Mapping[str, str] | None = None) -> None:
    """Raise :class:`ConfigError` for the first violated :data:`RULES`
    entry (e.g. a parallel-only knob under the serial runner)."""
    env = os.environ if environ is None else environ
    for name, needs, value in RULES:
        if not env.get(name) or get(name, env) is False:
            continue
        have = get(needs, env)
        if have is None if value is None else have != value:
            raise ConfigError(
                f"{_label(name)} requires {_label(needs, value)}")


def markdown_table() -> str:
    """The README "Environment variables" table, generated."""
    rows = ["| variable | default | range / values | effect |",
            "|---|---|---|---|"]
    rows += [f"| `{k.env}` | {k.default_cell} | {k.range} | {k.doc} |"
             for k in KNOBS.values()]
    return "\n".join(rows)


if __name__ == "__main__":  # pragma: no cover - doc helper
    print(markdown_table())
