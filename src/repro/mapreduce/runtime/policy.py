"""The recovery policy: every failure decision, for both runners.

A task attempt fails; something must decide what happens next -- retry
it, requeue it without charging its retry budget, re-run it in record
skipping mode, repair a corrupt input segment first, re-execute the map
whose segments cannot be fetched, or give up.  This module is the one
place those decisions are made.  It performs no I/O, starts no process
and reads no clock: it turns *events* into :class:`Decision` objects,
and an executor carries them out --

* :class:`~repro.mapreduce.engine.LocalJobRunner` inline, one attempt
  at a time, with ``max_retries=0`` (a charged failure re-raises the
  original exception);
* :class:`~repro.mapreduce.runtime.scheduler.TaskScheduler` across
  worker processes, with backoff, speculation and deadlines of its own.

Events and their decisions (bounds in brackets)::

    attempt failed, oom      -> requeue uncharged at degrade level+1
                                [max_memory_retries per task]
    attempt failed, fetch(M) -> strike M; at fetch_failure_threshold
                                strikes re-execute M at epoch+1
                                [max_map_reexecs per map]; requeue
                                uncharged
    attempt failed, skip     -> enter skip mode, requeue uncharged
                                [once per task]
    attempt failed, corrupt  -> repair the segment, requeue uncharged
                                [once per (task, producing map): at
                                most the number of maps]
    any other failure        -> retry charged after backoff
                                [max_retries per task]
    host DEAD                -> re-execute its completed maps
                                [max_host_reexecs maps per host]
    attempt won              -> task done

A bound that runs out turns the decision into ``fail``.  When a rival
attempt of the same task is still running or queued (speculation), the
executor passes ``covered=True``: side effects still happen, but the
rival *is* the retry, so the decision is ``wait`` -- and exhausting a
budget only fails the task once no rival is left.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, replace as dc_replace
from typing import Any, Iterable

from repro.mapreduce.ifile import IFileCorruptError
from repro.mapreduce.runtime.shuffle import FetchFailedError
from repro.mapreduce.runtime.skipping import is_skip_eligible

__all__ = [
    "OOM", "FETCH", "CORRUPT", "SKIP", "OTHER",
    "RETRY", "REQUEUE", "WAIT", "REEXEC", "FAIL",
    "Failure", "Decision", "RecoveryPolicy",
    "classify", "degraded", "map_of_segment",
]

#: failure kinds (:attr:`Failure.kind`)
OOM, FETCH, CORRUPT, SKIP, OTHER = "oom", "fetch", "corrupt", "skip", "other"
#: decision actions (:attr:`Decision.action`)
RETRY, REQUEUE, WAIT, REEXEC, FAIL = (
    "retry", "requeue", "wait", "reexec", "fail")


@dataclass(frozen=True)
class Failure:
    """Why one attempt died, sorted into the kinds the policy acts on.

    Plain picklable data: a worker process ships it back to the
    scheduler inside its result file.
    """

    kind: str
    detail: str
    #: ``fetch``: the map whose segments stayed unfetchable;
    #: ``corrupt``: the map that produced the corrupt segment
    map_id: str | None = None
    #: ``corrupt``: the damaged segment file
    path: str | None = None


@dataclass(frozen=True)
class Decision:
    """What an executor must do about one event.

    ``action`` says what becomes of the task; the other fields are side
    effects the executor performs first, in field order: re-execute
    ``reexec`` maps at a bumped epoch, ``repair`` a segment, switch the
    task to skip mode, launch it at degrade level ``degrade``.
    """

    action: str
    task_id: str
    reexec: tuple[str, ...] = ()
    repair: str | None = None
    skip: bool = False
    degrade: int = 0
    #: backoff ordinal and jitter key for ``retry``/``requeue``
    backoff: int = 0
    key: str = ""
    #: why an uncharged requeue happened (trace detail)
    reason: str = ""
    #: ``fail``: attempts spent and the error detail
    attempts: int = 0
    detail: str = ""

    def retry_note(self, delay: float) -> str:
        """Trace detail for the ``retried`` event this decision causes."""
        if self.action == RETRY:
            return f"backoff {delay:.3f}s"
        return (f"{self.reason}, backoff {delay:.3f}s "
                f"(retry budget uncharged)")


def map_of_segment(path: str) -> str | None:
    """The map task that wrote a final segment (``<map>-out-p<n>``), or
    ``None`` for any other file (a spill, a merge pass)."""
    name = os.path.basename(path)
    return name.split("-out-")[0] if "-out-" in name else None


def classify(exc: BaseException, job: Any) -> Failure:
    """Sort an attempt's exception into the kind the policy acts on.

    Out-of-memory first (any ``MemoryError``, including a budget
    overrun), then an exhausted fetch naming its map, then -- only under
    a job ``SkipPolicy`` -- failures that localize to records, then
    corruption of a final map segment, which re-running its map can
    repair.  Block-local damage under a skip policy is skipping's to
    salvage, not repair's.
    """
    detail = f"{type(exc).__name__}: {exc}"
    if isinstance(exc, MemoryError):
        return Failure(OOM, detail)
    if isinstance(exc, FetchFailedError):
        return Failure(FETCH, detail, map_id=exc.map_id)
    if getattr(job, "skipping", None) is not None and is_skip_eligible(exc):
        return Failure(SKIP, detail)
    map_id = (map_of_segment(exc.path)
              if isinstance(exc, IFileCorruptError) and exc.path else None)
    if map_id is not None:
        return Failure(CORRUPT, detail, map_id=map_id, path=exc.path)
    return Failure(OTHER, detail)


def degraded(job: Any, shuffle: Any, level: int) -> tuple[Any, Any]:
    """The job and shuffle config an attempt runs with after ``level``
    OOM deaths: each level halves the sort buffer (floored at the Job
    minimum) and the fetch byte window."""
    if not level:
        return job, shuffle
    job = dc_replace(job, sort_buffer_bytes=max(
        1024, job.sort_buffer_bytes >> level))
    window = getattr(shuffle, "max_inflight_bytes", None)
    if window is not None:
        shuffle = dc_replace(shuffle,
                             max_inflight_bytes=max(1, window >> level))
    return job, shuffle


class RecoveryPolicy:
    """Per-task, per-map and per-host recovery state for one job.

    Feed it events (:meth:`on_failure`, :meth:`on_host_dead`,
    :meth:`on_won`); query it when launching an attempt
    (:meth:`degrade_level`, :meth:`skip_mode`).  The job-level tallies
    (:attr:`maps_reexecuted`, :attr:`hosts_lost`, :attr:`host_reexecs`,
    :attr:`oom_events`) become the job's recovery counters.
    """

    def __init__(self, *, max_retries: int = 2,
                 fetch_failure_threshold: int = 2,
                 max_map_reexecs: int = 2,
                 max_memory_retries: int = 2,
                 max_host_reexecs: int = 2) -> None:
        for name, value, floor in (
                ("max_retries", max_retries, 0),
                ("fetch_failure_threshold", fetch_failure_threshold, 1),
                ("max_map_reexecs", max_map_reexecs, 0),
                ("max_memory_retries", max_memory_retries, 0),
                ("max_host_reexecs", max_host_reexecs, 0)):
            if value < floor:
                raise ValueError(f"{name} must be >= {floor}, got {value}")
        self.max_retries = max_retries
        self.fetch_failure_threshold = fetch_failure_threshold
        self.max_map_reexecs = max_map_reexecs
        self.max_memory_retries = max_memory_retries
        self.max_host_reexecs = max_host_reexecs
        self._charged: Counter[str] = Counter()
        self._requeues: Counter[tuple[str, str]] = Counter()
        self._degrade: Counter[str] = Counter()
        self._skipping: set[str] = set()
        self._repaired: set[tuple[str, str]] = set()
        self._strikes: Counter[str] = Counter()
        self._map_reexecs: Counter[str] = Counter()
        self._host_reexecs: Counter[str] = Counter()
        self.won: set[str] = set()
        #: maps re-executed for fetch failures or a host lost mid-wave
        self.maps_reexecuted = 0
        self.hosts_lost = 0
        #: maps re-executed because their host died
        self.host_reexecs = 0
        #: OOM deaths that earned a degraded retry
        self.oom_events = 0

    # ------------------------------------------------------------ queries

    def degrade_level(self, task_id: str) -> int:
        return self._degrade[task_id]

    def skip_mode(self, task_id: str) -> bool:
        return task_id in self._skipping

    def map_reexecs(self, map_id: str) -> int:
        return self._map_reexecs[map_id]

    # ------------------------------------------------------------- events

    def on_failure(self, task_id: str, failure: Failure, *,
                   covered: bool = False) -> Decision:
        """An attempt of ``task_id`` died with ``failure``."""
        if failure.kind == OOM:
            level = self._degrade[task_id] = self._degrade[task_id] + 1
            if level > self.max_memory_retries:
                return self._give_up(
                    task_id, level, covered,
                    f"{failure.detail} (exhausted "
                    f"{self.max_memory_retries} memory retries)")
            self.oom_events += 1
            return self._requeue(task_id, "oom", covered, key="oom",
                                 degrade=level, backoff=level)
        if failure.kind == FETCH:
            map_id = failure.map_id
            self._strikes[map_id] += 1
            reexec: tuple[str, ...] = ()
            if self._strikes[map_id] >= self.fetch_failure_threshold:
                refused = self._charge_reexec(map_id, failure.detail)
                if refused is not None:
                    return refused
                reexec = (map_id,)
            return self._requeue(task_id, "fetch failure", covered,
                                 key="fetch", reexec=reexec)
        if failure.kind == SKIP and task_id not in self._skipping:
            self._skipping.add(task_id)
            return self._requeue(task_id, "skip mode", covered, key="skip",
                                 skip=True)
        if failure.kind == CORRUPT \
                and (task_id, failure.map_id) not in self._repaired:
            self._repaired.add((task_id, failure.map_id))
            return self._requeue(task_id, "segment repaired", covered,
                                 key="repair", repair=failure.path)
        failed = self._charged[task_id] = self._charged[task_id] + 1
        if failed > self.max_retries:
            return self._give_up(task_id, failed + 1, covered, failure.detail)
        if covered:
            return Decision(WAIT, task_id)
        return Decision(RETRY, task_id, backoff=failed, key=task_id)

    def on_host_dead(self, host: str, lost: Iterable[str], *,
                     charge_maps: bool = False) -> Decision:
        """``host`` died holding the only copies of ``lost`` maps' output.

        With ``charge_maps`` (a death discovered mid-wave) each map's
        re-execution also counts against ``max_map_reexecs``, exactly
        like a fetch-failure re-execution.
        """
        lost = tuple(lost)
        self.hosts_lost += 1
        self.host_reexecs += len(lost)
        self._host_reexecs[host] += len(lost)
        if self._host_reexecs[host] > self.max_host_reexecs:
            return Decision(
                FAIL, host, attempts=self._host_reexecs[host],
                detail=(f"{host} lost {self._host_reexecs[host]} completed "
                        f"maps, exceeding "
                        f"max_host_reexecs={self.max_host_reexecs}"))
        if charge_maps:
            for map_id in lost:
                refused = self._charge_reexec(
                    map_id, f"{host} died holding its segments")
                if refused is not None:
                    return refused
        return Decision(REEXEC, host, reexec=lost)

    def on_won(self, task_id: str) -> None:
        """An attempt of ``task_id`` finished; the task is done."""
        self.won.add(task_id)

    # ------------------------------------------------------------ helpers

    def _charge_reexec(self, map_id: str, detail: str) -> Decision | None:
        """Count one re-execution of ``map_id``; a ``fail`` decision when
        the map has used up ``max_map_reexecs``."""
        count = self._map_reexecs[map_id] + 1
        if count > self.max_map_reexecs:
            return Decision(
                FAIL, map_id, attempts=count,
                detail=(f"map re-executed {self.max_map_reexecs} time(s) "
                        f"and its segments remain unfetchable: {detail}"))
        self._map_reexecs[map_id] = count
        self._strikes[map_id] = 0
        self.maps_reexecuted += 1
        return None

    def _requeue(self, task_id: str, reason: str, covered: bool, *,
                 key: str, backoff: int = 0,
                 **effects: Any) -> Decision:
        """An uncharged requeue (or ``wait`` when a rival covers it)."""
        if covered:
            return Decision(WAIT, task_id, **effects)
        if not backoff:
            self._requeues[task_id, key] += 1
            backoff = self._requeues[task_id, key]
        return Decision(REQUEUE, task_id, backoff=backoff,
                        key=f"{task_id}:{key}", reason=reason, **effects)

    @staticmethod
    def _give_up(task_id: str, attempts: int, covered: bool,
                 detail: str) -> Decision:
        if covered:
            return Decision(WAIT, task_id)  # a speculative rival may win
        return Decision(FAIL, task_id, attempts=attempts, detail=detail)
