"""Job-level state both runners share: map outputs, host faults, result.

:class:`MapOutputs` holds every completed map's segments and epoch, and
is the one place a completed map is produced again -- re-executed at a
bumped epoch after fetch failures or a lost host (:meth:`MapOutputs.
reexec`), or re-run in place to repair a corrupt segment
(:meth:`MapOutputs.repair`).  The recovery policy decides *when*; this
module only carries the decision out, identically for the serial and
the parallel runner.
"""

from __future__ import annotations

import os
import shutil
from typing import Any, Sequence

from repro.mapreduce.engine import JobResult, MapTaskOutput, run_map_task
from repro.mapreduce.ifile import IFileStats
from repro.mapreduce.metrics import C, Counters
from repro.mapreduce.runtime.hosts import (
    HostLostError,
    expand_host_partition,
    host_for,
)
from repro.mapreduce.runtime.netshuffle import ShuffleService
from repro.mapreduce.runtime.pipeline import (
    COMMITS_DIRNAME,
    CommitLog,
    CommitRecord,
    aggregate_pipeline_stats,
)
from repro.mapreduce.runtime.policy import FAIL, map_of_segment
from repro.mapreduce.runtime.recovery import file_crc32
from repro.mapreduce.runtime.shuffle import SegmentRef

__all__ = ["MapOutputs", "prepare_host_faults", "make_service",
           "new_memory_tally", "note_memory", "assemble_result"]


class MapOutputs:
    """Completed map outputs of one job, in map task order.

    ``reexec_dir`` is where re-executions write (one fresh
    ``<map>.reexec<epoch>`` directory each, so straggling readers of
    the old epoch never see half-rewritten files); ``None`` re-runs a
    map in place over its old segments.  ``service`` (network
    transport), ``commitlog`` (pipelined shuffle), ``trace`` and
    ``manifest`` (checkpointing) are each optional and kept in step on
    every (re-)publication.
    """

    def __init__(self, job: Any, dataset: Any,
                 splits: Sequence[Any], *,
                 reexec_dir: str | None = None,
                 trace: Any = None, manifest: Any = None) -> None:
        self.job = job
        self.dataset = dataset
        self.splits = {f"m{s.split_id:05d}": s for s in splits}
        self.results: dict[str, MapTaskOutput] = {}
        self.epochs = {map_id: 0 for map_id in self.splits}
        self.reexec_dir = reexec_dir
        self.service: ShuffleService | None = None
        self.commitlog: CommitLog | None = None
        self.trace = trace
        self.manifest = manifest

    def start_service(self, service: ShuffleService | None) -> None:
        """Serve segments through ``service`` (``None``: in-process)."""
        self.service = service
        if service is not None:
            service.start()

    def open_commitlog(self, run_dir: str) -> None:
        """Start an empty commit log under ``run_dir`` (pipelined runs)."""
        commit_dir = os.path.join(run_dir, COMMITS_DIRNAME)
        shutil.rmtree(commit_dir, ignore_errors=True)
        self.commitlog = CommitLog(commit_dir)

    def publish(self, map_id: str, mo: MapTaskOutput, attempt: int = 0,
                detail: str = "") -> None:
        """Record one map's output and announce it at its current epoch.

        Registration with the segment service precedes the commit record
        so ``address_for`` reflects a server revived by the registration
        itself.
        """
        self.results[map_id] = mo
        epoch = self.epochs[map_id]
        service = self.service
        if service is not None:
            service.register_map_output(
                map_id, [path for path, _ in mo.segments.values()],
                epoch=epoch)
        if self.commitlog is not None:
            self.commitlog.commit(CommitRecord(
                map_id=map_id, epoch=epoch, segments=dict(mo.segments),
                address=(service.address_for(map_id)
                         if service is not None else None)))
            if self.trace is not None:
                self.trace.record(map_id, attempt, "map", "pipeline_commit",
                                  detail or f"epoch {epoch}")

    def refs(self, part: int) -> list[SegmentRef]:
        """Partition ``part``'s segment refs, in map task order."""
        service = self.service
        refs = []
        for map_id in self.splits:
            path, stats = self.results[map_id].segments[part]
            refs.append(SegmentRef(
                map_id=map_id, path=path, stats=stats,
                epoch=self.epochs[map_id],
                address=(service.address_for(map_id)
                         if service is not None else None)))
        return refs

    def homed_on(self, host: str, num_hosts: int) -> list[str]:
        """Completed maps whose only segment copies live on ``host``."""
        return sorted(m for m in self.results
                      if host_for(m, num_hosts) == host)

    def reexec(self, map_id: str) -> MapTaskOutput:
        """Re-execute a completed map at epoch+1.

        Drains the old epoch (its fetches get a clean transient
        rejection), re-runs the map without injected faults, deletes
        the old segments, and re-publishes.  A checkpoint of the map
        now points at deleted files, so it is dropped: a resume re-runs
        the map instead of adopting it.
        """
        if self.service is not None:
            self.service.invalidate(map_id)
        self.epochs[map_id] += 1
        epoch = self.epochs[map_id]
        old = self.results[map_id]
        if self.reexec_dir is None:
            workdir = os.path.dirname(next(iter(old.segments.values()))[0])
        else:
            workdir = os.path.join(self.reexec_dir,
                                   f"{map_id}.reexec{epoch}")
            os.makedirs(workdir, exist_ok=True)
        mo = run_map_task(self.job, self.splits[map_id], self.dataset,
                          workdir)
        fresh = {path for path, _ in mo.segments.values()}
        for path, _ in old.segments.values():
            if path not in fresh:
                try:
                    os.unlink(path)
                except OSError:
                    pass  # e.g. the missing segment that started this
        self.publish(map_id, mo, attempt=epoch,
                     detail=f"republished at epoch {epoch}")
        if self.trace is not None:
            self.trace.set_profile(map_id, mo.profile)
        manifest = self.manifest
        if manifest is not None and map_id in manifest.tasks:
            del manifest.tasks[map_id]
            manifest.save()
        return mo

    def repair(self, path: str) -> None:
        """Re-generate a corrupt final map segment in place.

        Map tasks are deterministic, so re-running the producer into the
        segment's directory recreates it (and its siblings) at the same
        paths with the same bytes; the reduce retry reads them without
        re-routing.  Faults are never applied here, so the plan that
        broke a segment cannot break its repair.
        """
        map_id = map_of_segment(path)
        split = self.splits.get(map_id)
        if split is None:
            raise RuntimeError(f"corrupt segment {path} matches no map task")
        mo = run_map_task(self.job, split, self.dataset,
                          os.path.dirname(path))
        self.results[map_id] = mo
        if self.trace is not None:
            self.trace.set_profile(map_id, mo.profile)
            self.trace.record(map_id, 0, "map", "repaired", path)
        manifest = self.manifest
        if manifest is not None and map_id in manifest.tasks:
            # The repaired bytes are identical on a healthy filesystem,
            # but the checkpoint must describe what is on disk *now*.
            record = manifest.tasks[map_id]
            record.files = {p: file_crc32(p) for p in record.files
                            if os.path.exists(p)}
            manifest.record_task(record)

    def crash_host(self, host: str, policy: Any, num_hosts: int,
                   monitor: Any = None, reason: str = "host crash") -> None:
        """Lose ``host`` whole: its segment server and the only copies of
        its maps' segments die with it, and the recovery policy decides
        whether every completed map homed there may be re-executed."""
        if monitor is not None:
            monitor.declare_dead(host, reason)
        service = self.service
        if service is not None:
            index = int(host.removeprefix("host"))
            if index < service.num_servers:
                # Re-registration by the re-executions revives it.
                service.kill_server(index)
        decision = policy.on_host_dead(host, self.homed_on(host, num_hosts))
        if decision.action == FAIL:
            raise HostLostError(decision.detail)
        for map_id in decision.reexec:
            self.reexec(map_id)


def prepare_host_faults(injector: Any, shuffle: Any, map_ids: Sequence[str],
                        reduce_ids: Sequence[str],
                        num_hosts: int) -> dict[str, Any]:
    """Snapshot the host-level fault plan, expanding partitions.

    ``host_partition`` faults become deterministic per-link fetch drops,
    clamped to the transport's retry budget so every link heals
    in-attempt.  Call it before anything snapshots the fetch plan (the
    network shuffle service copies it at start-up), so retry counters
    are pure functions of the plan.
    """
    if injector is None or not hasattr(injector, "host_plan"):
        return {}
    host_plan = injector.host_plan()
    retries = getattr(shuffle, "fetch_retries", 3)
    for host, fault in sorted(host_plan.items()):
        if fault.mode == "host_partition":
            expand_host_partition(injector, host, map_ids, reduce_ids,
                                  num_hosts,
                                  drops=min(max(1, fault.record), retries))
    return host_plan


def make_service(shuffle: Any, injector: Any,
                 trace: Any = None) -> ShuffleService | None:
    """Loopback segment servers for the network transport (not yet
    started), or ``None`` for the in-process transports."""
    if getattr(shuffle, "transport", "") != "network":
        return None
    return ShuffleService.from_config(
        shuffle, faults=injector.fetch_plan() if injector is not None
        else None, trace=trace)


def new_memory_tally() -> dict[str, Any]:
    """Ledger telemetry of a job's winning attempts (see
    :func:`note_memory`)."""
    return {"peak_bytes": 0, "backpressure_waits": 0, "used_budget": False}


def note_memory(tally: dict[str, Any], stats: dict | None) -> None:
    """Fold one winning attempt's ``MemoryBudget.stats()`` into ``tally``."""
    if not stats:
        return
    tally["used_budget"] = True
    tally["peak_bytes"] = max(tally["peak_bytes"], stats.get("peak", 0))
    tally["backpressure_waits"] += stats.get("backpressure_waits", 0)


def assemble_result(job: Any, maps: MapOutputs, reduces: Sequence[Any],
                    policy: Any, tally: dict[str, Any],
                    host_plan: dict[str, Any], num_hosts: int,
                    shuffle: Any, trace: Any = None) -> JobResult:
    """Fold per-task results into a :class:`JobResult`.

    Map counters and profiles in map task order, then reduces in
    partition order; counter merging commutes, so the bytes are the
    same whichever runner (or checkpoint) produced each task.  The
    recovery events are job-level counters: a re-executed task's own
    counters are identical to its first run's by determinism.
    """
    counters = Counters()
    profiles = []
    map_stats = IFileStats()
    for map_id in maps.splits:
        mo = maps.results[map_id]
        counters.merge(mo.counters)
        profiles.append(mo.profile)
        for _, stats in mo.segments.values():
            map_stats.merge(stats)
    output: list[tuple[Any, Any]] = []
    for rr in reduces:
        output.extend(rr.output)
        counters.merge(rr.counters)
        profiles.append(rr.profile)
    if trace is not None:
        for profile in profiles:
            trace.set_profile(profile.task_id, profile)

    if policy.maps_reexecuted:
        counters.incr(C.MAPS_REEXECUTED, policy.maps_reexecuted)
    if policy.hosts_lost:
        counters.incr(C.HOSTS_LOST, policy.hosts_lost)
    if policy.host_reexecs:
        counters.incr(C.MAPS_REEXECUTED_HOST, policy.host_reexecs)
    disk_hosts = {h for h, f in host_plan.items() if f.mode == "disk_fault"}
    # One failover per task homed on a disk-faulted host: a pure
    # function of the plan, whichever host an attempt was placed on.
    failovers = sum(
        1 for t in [*maps.splits, *(rr.task_id for rr in reduces)]
        if host_for(t, num_hosts) in disk_hosts)
    if failovers:
        counters.incr(C.DISK_FAILOVERS, failovers)
    if policy.oom_events:
        # Every OOM death that earned a retry ran the next attempt
        # degraded, so the two counters move together.
        counters.incr(C.MEMORY_OOM_EVENTS, policy.oom_events)
        counters.incr(C.MEMORY_DEGRADED_ATTEMPTS, policy.oom_events)
    memory_stats = None
    if tally["used_budget"]:
        memory_stats = {
            "budget": getattr(shuffle, "memory_budget", None),
            "peak_bytes": tally["peak_bytes"],
            "backpressure_waits": tally["backpressure_waits"],
            "oom_events": policy.oom_events,
            "degraded_attempts": policy.oom_events,
        }
    return JobResult(
        output=output,
        counters=counters,
        task_profiles=profiles,
        map_output_stats=map_stats,
        num_map_tasks=len(maps.splits),
        num_reduce_tasks=job.num_reducers,
        trace=trace,
        pipeline_stats=aggregate_pipeline_stats(
            [rr.pipeline for rr in reduces]),
        memory_stats=memory_stats,
    )
