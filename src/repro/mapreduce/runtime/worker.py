"""The task attempt body, and what runs inside one worker process.

:func:`run_attempt` is the one attempt body both runners execute: it
applies the attempt's injected fault, arms its memory budget, and runs
the strict, skipping or pipelined task function
(:func:`repro.mapreduce.engine.run_map_task` /
:func:`~repro.mapreduce.engine.run_reduce_task` and friends).  The
serial runner calls it inline; :func:`worker_entry` wraps it for a
worker process and hands the pickled result back to the scheduler
through a file on shared disk.  The result file is committed durably
(tmp + fsync + rename), so the scheduler observes either a complete
result or none at all -- a worker killed mid-task simply leaves no
result, which is the retry signal; :func:`load_result` additionally
treats a torn or truncated pickle as "no result" rather than crashing
the scheduler.

While the task runs, a daemon **heartbeat thread** touches
``<attempt_dir>/_heartbeat`` every ``heartbeat_interval`` seconds.  The
scheduler uses the file's mtime to detect a worker that is *alive but
wedged* (e.g. stopped by the kernel, or stuck in uninterruptible I/O):
``is_alive()`` still says yes, but the heartbeat goes stale and the
attempt is killed and retried.

Process-level faults (``kill``, ``stall``) only ever fire inside a
worker process, so an injected ``kill`` can never take down the
scheduler; the serial runner refuses them.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import time
import traceback
from typing import Any, Callable

from repro.mapreduce.engine import run_map_task, run_reduce_task
from repro.mapreduce.runtime.fault import Fault, corrupt_file, poisoned_job
from repro.mapreduce.runtime.hosts import provision_failover_workdir
from repro.mapreduce.runtime.pipeline import (
    PipelinePlan,
    drain_refs,
    run_reduce_task_pipelined,
)
from repro.mapreduce.runtime.policy import OTHER, Failure, classify
from repro.mapreduce.runtime.skipping import (
    run_map_task_skipping,
    run_reduce_task_skipping,
)
from repro.util.fsio import fsync_file, replace_durably

__all__ = ["run_attempt", "worker_entry", "load_result", "HEARTBEAT_NAME"]

#: heartbeat filename inside an attempt directory
HEARTBEAT_NAME = "_heartbeat"


def _apply_rlimit(rlimit_bytes: int | None) -> None:
    """Cap this worker's address space with a *real* ``RLIMIT_AS``.

    Opt-in (``REPRO_WORKER_RLIMIT_BYTES``), POSIX-only; anywhere the
    ``resource`` module is missing or the kernel refuses, the cap is
    silently skipped -- the simulated budget still governs.
    """
    if not rlimit_bytes:
        return
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return
    try:
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        limit = int(rlimit_bytes)
        if hard != resource.RLIM_INFINITY:
            limit = min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    except (ValueError, OSError):  # pragma: no cover - kernel said no
        pass


def arm_budget(task_id: str, attempt: int, shuffle: Any,
               fault: Fault | None, on_kill: Callable[[str], None]) -> Any:
    """Build this attempt's memory ledger, with any oom fault armed.

    A budget exists when the job configured ``memory_budget`` *or* an
    oom fault targets this attempt -- the clean, unbudgeted path stays
    allocation-free.  An armed ``kill`` op calls ``on_kill(message)``
    when the site crosses its threshold: a worker process dies the way
    the kernel OOM killer would, an inline attempt raises
    ``MemoryError``.
    """
    capacity = getattr(shuffle, "memory_budget", None)
    oom = fault is not None and fault.mode == "oom"
    if capacity is None and not oom:
        return None
    from repro.mapreduce.runtime.memory import MemoryBudget
    budget = MemoryBudget(capacity, name=f"{task_id}.{attempt}")
    if oom:
        site = fault.where
        if fault.op == "raise":
            budget.fail_next(site)
        elif fault.op == "alloc":
            budget.alloc_next(site, fault.record)
        else:
            budget.kill_above(fault.record, lambda nbytes: on_kill(
                f"simulated oom kill: {site} charged {nbytes} bytes "
                f"over threshold"), site=site)
    return budget


def _raise_oom(message: str) -> None:
    raise MemoryError(message)


def run_attempt(
    task_id: str,
    kind: str,
    attempt: int,
    workdir: str,
    job: Any,
    dataset: Any,
    payload: Any,
    fault: Fault | None,
    *,
    skip_mode: bool = False,
    shuffle: Any = None,
    fetch_faults: Any = None,
    host: str | None = None,
    disk_fault: Fault | None = None,
    keep_files: bool = False,
    on_oom_kill: Callable[[str], None] = _raise_oom,
) -> tuple[Any, Any]:
    """Run one task attempt; returns ``(value, memory budget or None)``.

    The attempt body both runners share: the worker process runs it
    inside :func:`worker_entry`, the serial runner calls it inline.
    It applies the attempt's injected fault, arms the memory budget,
    fails the workdir over when ``disk_fault`` hits the task's host,
    and dispatches to the strict, skipping or pipelined task body.

    ``payload`` is an ``InputSplit`` for map tasks and a ``(partition,
    segments)`` pair for reduce tasks, where ``segments`` is a list of
    segment refs or a :class:`~repro.mapreduce.runtime.pipeline.
    PipelinePlan`.  With ``skip_mode`` the task body runs in
    record-level skipping mode.  ``shuffle`` and ``fetch_faults`` (the
    reduce task's slice of the fetch plan) go to the reduce body.
    """
    budget = arm_budget(task_id, attempt, shuffle, fault, on_oom_kill)
    if disk_fault is not None:
        # Only spills and segments fail over; a worker's heartbeat and
        # result file stay in its attempt directory.
        workdir = provision_failover_workdir(workdir, task_id, host or "",
                                             disk_fault)
    if fault is not None:
        if fault.mode == "kill":
            # Abrupt death: no result file, no cleanup, no goodbye.
            os._exit(fault.exit_code)
        if fault.mode == "crash":
            raise RuntimeError(
                f"injected crash in {task_id} attempt {attempt}")
        if fault.mode == "hang":
            time.sleep(fault.seconds)
        if fault.mode == "stall":
            # Freeze every thread (heartbeat included): the process
            # stays alive but its heartbeat goes stale -- the case only
            # the scheduler's staleness check can catch.
            os.kill(os.getpid(), signal.SIGSTOP)
        if fault.mode == "poison":
            job = poisoned_job(job, fault, kind)

    if kind == "map":
        if skip_mode:
            value: Any = run_map_task_skipping(job, payload, dataset, workdir)
        else:
            value = run_map_task(job, payload, dataset, workdir,
                                 memory=budget)
        if fault is not None and fault.mode == "corrupt" \
                and fault.where == "map-output":
            # The task *believes* it succeeded; the damage is only
            # discoverable by a reducer's checksum verification.
            target = (fault.segment if fault.segment in value.segments
                      else min(value.segments))
            corrupt_file(value.segments[target][0], fault.offset_frac,
                         fault.op)
        return value, budget
    if kind != "reduce":
        raise ValueError(f"unknown task kind {kind!r}")
    part, segments = payload
    pipelined = isinstance(segments, PipelinePlan)
    corrupt_input = (fault is not None and fault.mode == "corrupt"
                     and fault.where == "reduce-input")
    if pipelined and not skip_mode and not corrupt_input:
        return run_reduce_task_pipelined(
            job, part, segments, workdir, keep_files,
            shuffle=shuffle, fetch_faults=fetch_faults,
            memory=budget), budget
    if pipelined:
        # Skipping mode and corrupt-input targeting need the full
        # segment list up front; wait for every producer to commit
        # (barrier semantics for this one attempt, byte-identical by
        # definition).
        segments = drain_refs(segments, part)
    if corrupt_input and segments:
        index = fault.segment if fault.segment is not None else 0
        corrupt_file(segments[index % len(segments)].path,
                     fault.offset_frac, fault.op)
    if skip_mode:
        return run_reduce_task_skipping(
            job, part, segments, workdir, keep_files,
            shuffle=shuffle, fetch_faults=fetch_faults), budget
    return run_reduce_task(job, part, segments, workdir, keep_files,
                           shuffle=shuffle, fetch_faults=fetch_faults,
                           memory=budget), budget


def _start_heartbeat(attempt_dir: str, interval: float) -> None:
    """Touch the attempt's heartbeat file on a cadence, forever.

    Runs as a daemon thread so it dies with the process; any OSError
    (e.g. the scheduler already deleted the attempt directory while
    killing us) silently ends the beat -- a missing heartbeat is the
    *signal*, never an error.
    """
    path = os.path.join(attempt_dir, HEARTBEAT_NAME)

    def beat() -> None:
        while True:
            try:
                with open(path, "a"):
                    os.utime(path)
            except OSError:
                return
            time.sleep(interval)

    threading.Thread(target=beat, daemon=True, name="heartbeat").start()


def _write_result(result_path: str, result: dict[str, Any]) -> None:
    tmp = f"{result_path}.tmp"
    with open(tmp, "wb") as fh:
        pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
        fsync_file(fh)
    replace_durably(tmp, result_path)


def load_result(result_path: str) -> dict[str, Any] | None:
    """Read a worker's result file; ``None`` if absent or torn.

    A torn pickle cannot appear through the durable-commit path, but a
    hostile filesystem (or a pre-durability manifest left on disk) may
    still surface one; treating it as "no result" turns it into an
    ordinary retry instead of a scheduler crash.
    """
    if not os.path.exists(result_path):
        return None
    try:
        with open(result_path, "rb") as fh:
            return pickle.load(fh)
    except (EOFError, pickle.UnpicklingError, ValueError):
        return None


def _error_result(exc: BaseException, failure: Failure) -> dict[str, Any]:
    return {"status": "error", "error_type": type(exc).__name__,
            "message": str(exc), "traceback": traceback.format_exc(),
            "failure": failure}


def worker_entry(
    task_id: str,
    kind: str,
    attempt: int,
    attempt_dir: str,
    result_path: str,
    job: Any,
    dataset: Any,
    payload: Any,
    fault: Fault | None,
    heartbeat_interval: float = 0.25,
    skip_mode: bool = False,
    shuffle: Any = None,
    fetch_faults: Any = None,
    host: str | None = None,
    disk_fault: Fault | None = None,
    rlimit_bytes: int | None = None,
) -> None:
    """Process target: run one task attempt and persist its result.

    Wraps :func:`run_attempt` (same arguments) with the heartbeat, the
    optional real ``RLIMIT_AS`` cap and the durable result file.  A
    failed attempt's result carries its :class:`~repro.mapreduce.
    runtime.policy.Failure`, already classified, for the scheduler's
    recovery policy.  An armed oom ``kill`` writes an oom result and
    dies with ``os._exit(137)`` -- the SIGKILL exit the kernel OOM
    killer would produce, but with a deterministic signal instead of a
    missing result file.
    """
    _start_heartbeat(attempt_dir, heartbeat_interval)
    _apply_rlimit(rlimit_bytes)

    def oom_killed(message: str) -> None:
        exc = MemoryError(message)
        _write_result(result_path, _error_result(exc, classify(exc, job)))
        os._exit(137)

    try:
        value, budget = run_attempt(
            task_id, kind, attempt, attempt_dir, job, dataset, payload,
            fault, skip_mode=skip_mode, shuffle=shuffle,
            fetch_faults=fetch_faults, host=host, disk_fault=disk_fault,
            on_oom_kill=oom_killed)
        result = {"status": "ok", "value": value,
                  "memory": budget.stats() if budget is not None else None}
    except BaseException as exc:
        result = _error_result(exc, classify(exc, job))
    try:
        _write_result(result_path, result)
    except BaseException as exc:  # e.g. unpicklable user output
        _write_result(result_path, _error_result(exc, Failure(
            OTHER, f"failed to serialize task result: {exc}")))
