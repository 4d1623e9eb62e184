"""Multiprocess drop-in replacement for the serial job runner.

``ParallelJobRunner.run(job, dataset, splits)`` has the same signature
and returns the same :class:`~repro.mapreduce.engine.JobResult` as
:class:`~repro.mapreduce.engine.LocalJobRunner.run` -- with
byte-identical :class:`~repro.mapreduce.metrics.Counters`, because both
runners execute the *same* attempt body
(:func:`~repro.mapreduce.runtime.worker.run_attempt`) over the *same*
IFile/codec data path and obey the *same*
:class:`~repro.mapreduce.runtime.policy.RecoveryPolicy`; only the
execution vehicle changes (a
:class:`~repro.mapreduce.runtime.scheduler.TaskScheduler` driving
worker processes over segments on shared disk, instead of a loop).

The job DAG is two waves with a shuffle barrier: every map task runs
first, writing one final IFile segment per reducer partition into its
attempt directory; reduce tasks then receive their partition's segment
*paths* and fetch the bytes themselves.  Speculative execution and
attempt deadlines are the scheduler's department; the resulting
:class:`~repro.mapreduce.runtime.trace.RuntimeTrace` is attached to the
job result as ``result.trace``.

**Durable recovery.**  With ``recovery_dir`` set, the runner executes
inside that directory instead of a throwaway temp dir and maintains a
:class:`~repro.mapreduce.runtime.recovery.JobManifest` there: the job
fingerprint, wave membership, and a checkpoint record (attempt dir,
result file, per-file CRC32s) for every completed task, each committed
atomically.  If the runner process dies mid-job, constructing the next
runner with the same ``recovery_dir`` and ``resume=True`` validates
the manifest and **adopts** every intact completed task -- the job
restarts from the last durable state transition instead of from
scratch.  Counters and output of a resumed run are byte-identical to
an uninterrupted one (the chaos soak harness pins this down).
"""

from __future__ import annotations

import functools
import os
import shutil
import signal
import tempfile
import threading
from typing import Any, Sequence

from repro.mapreduce.engine import JobResult
from repro.mapreduce.job import Job
from repro.mapreduce.runtime.fault import FaultInjector
from repro.mapreduce.runtime.hosts import HostHealthMonitor, HostRegistry
from repro.mapreduce.runtime.jobstate import (
    MapOutputs,
    assemble_result,
    make_service,
    prepare_host_faults,
)
from repro.mapreduce.runtime.pipeline import PipelinePlan
from repro.mapreduce.runtime.recovery import (
    MANIFEST_NAME,
    JobManifest,
    TaskRecord,
    file_crc32,
    job_fingerprint,
)
from repro.mapreduce.runtime.pool import WorkerPool
from repro.mapreduce.runtime.scheduler import TaskScheduler, TaskSpec
from repro.mapreduce.runtime.shuffle import ShuffleConfig
from repro.mapreduce.runtime.trace import RuntimeTrace
from repro.mapreduce.runtime.worker import load_result
from repro.scidata.dataset import Dataset
from repro.scidata.splits import ArraySplitter, InputSplit

__all__ = ["ParallelJobRunner"]


class ParallelJobRunner:
    """Run jobs on a bounded pool of worker processes.

    Constructor keywords mirror :class:`TaskScheduler`'s knobs; runner
    lifecycle (workdir ownership, ``keep_files``, context-manager
    cleanup) mirrors :class:`~repro.mapreduce.engine.LocalJobRunner`.

    ``recovery_dir`` enables durable checkpointing there; ``resume``
    additionally adopts any valid completed work a previous (killed)
    run left in that directory.  ``resume=True`` requires
    ``recovery_dir``.

    ``pool``/``tenant`` borrow worker slots from a shared
    :class:`~repro.mapreduce.runtime.pool.WorkerPool` (the job
    service's warm pool) instead of owning a private one;
    ``cancel_event`` aborts the run cooperatively -- every in-flight
    worker is killed, segment servers stop, and a recovery-enabled
    run leaves its manifest behind for a later ``resume=True``.
    ``run()`` also wires SIGTERM/SIGINT to that event when called on
    the main thread, so a terminated standalone run drains cleanly
    instead of leaking children.
    """

    def __init__(
        self,
        workdir: str | None = None,
        keep_files: bool = False,
        *,
        max_workers: int | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        retry_backoff_max: float = 2.0,
        fetch_failure_threshold: int = 2,
        max_map_reexecs: int = 2,
        shuffle: ShuffleConfig | None = None,
        speculation: bool = True,
        straggler_factor: float = 3.0,
        min_straggler_seconds: float = 1.0,
        speculation_min_completed: int = 2,
        task_timeout: float | None = None,
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: float | None = None,
        wave_deadline: float | None = None,
        recovery_dir: str | None = None,
        resume: bool = False,
        start_method: str | None = None,
        pool: WorkerPool | None = None,
        tenant: str = "default",
        cancel_event: threading.Event | None = None,
        fault_injector: FaultInjector | None = None,
        num_hosts: int = 2,
        max_host_reexecs: int = 2,
        worker_rlimit_bytes: int | None = None,
    ) -> None:
        if resume and recovery_dir is None:
            raise ValueError("resume=True requires recovery_dir")
        if num_hosts < 1:
            raise ValueError(f"num_hosts must be >= 1, got {num_hosts}")
        if max_host_reexecs < 0:
            raise ValueError(
                f"max_host_reexecs must be >= 0, got {max_host_reexecs}")
        self.num_hosts = num_hosts
        self.max_host_reexecs = max_host_reexecs
        self._own_workdir = workdir is None
        self.workdir = workdir or tempfile.mkdtemp(prefix="repro-mrp-")
        self.keep_files = keep_files
        os.makedirs(self.workdir, exist_ok=True)
        self.max_workers = max_workers
        self.recovery_dir = recovery_dir
        self.resume = resume
        self.pool = pool
        self.tenant = tenant
        self.cancel_event = (cancel_event if cancel_event is not None
                             else threading.Event())
        self._scheduler_kwargs = dict(
            max_workers=max_workers,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            retry_backoff_max=retry_backoff_max,
            fetch_failure_threshold=fetch_failure_threshold,
            max_map_reexecs=max_map_reexecs,
            shuffle=shuffle,
            speculation=speculation,
            straggler_factor=straggler_factor,
            min_straggler_seconds=min_straggler_seconds,
            speculation_min_completed=speculation_min_completed,
            task_timeout=task_timeout,
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout,
            wave_deadline=wave_deadline,
            start_method=start_method,
            pool=pool,
            tenant=tenant,
            fault_injector=fault_injector,
            worker_rlimit_bytes=worker_rlimit_bytes,
        )
        #: trace of the most recent run (also on ``JobResult.trace``)
        self.last_trace: RuntimeTrace | None = None
        #: tasks adopted from the manifest in the most recent run
        self.last_adopted: int = 0
        #: host health monitor of the most recent run
        self.last_hosts: HostHealthMonitor | None = None

    def __enter__(self) -> "ParallelJobRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Remove an owned workdir (no-op for caller-supplied dirs)."""
        if self._own_workdir and os.path.isdir(self.workdir):
            shutil.rmtree(self.workdir, ignore_errors=True)

    def cancel(self) -> None:
        """Abort the in-flight run cooperatively (thread-safe).

        The scheduler's poll loop observes the event, kills every
        worker, and raises :class:`~repro.mapreduce.runtime.scheduler.
        JobCancelledError`; a recovery-enabled run keeps its manifest
        so ``resume=True`` continues from the interrupt.
        """
        self.cancel_event.set()

    # ------------------------------------------------------------------ run

    def run(
        self,
        job: Job,
        dataset: Dataset,
        splits: Sequence[InputSplit] | None = None,
    ) -> JobResult:
        """Execute ``job`` over ``dataset``; returns outputs and metrics."""
        os.makedirs(self.workdir, exist_ok=True)
        if splits is None:
            variables = (list(job.input_variables)
                         if job.input_variables is not None else None)
            splits = ArraySplitter(job.num_map_tasks).split(dataset, variables)
        if not splits:
            raise ValueError("job has no input splits")

        trace = RuntimeTrace()
        monitor = HostHealthMonitor(
            HostRegistry(self.num_hosts), trace=trace,
            max_host_reexecs=self.max_host_reexecs)
        self.last_hosts = monitor
        scheduler = TaskScheduler(trace=trace, hosts=monitor,
                                  cancel_event=self.cancel_event,
                                  **self._scheduler_kwargs)
        self.last_adopted = 0

        # Graceful termination: SIGTERM/SIGINT set the cancel event so
        # the scheduler drains (kills workers, stops segment servers via
        # the wave's ``finally``) and the manifest survives for resume.
        # Signal handlers only work on the main thread; service executor
        # threads use per-job cancel events instead.
        previous_handlers: dict[int, Any] = {}
        if threading.current_thread() is threading.main_thread():
            def _on_signal(signum: int, frame: Any) -> None:
                self.cancel_event.set()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    previous_handlers[sig] = signal.signal(sig, _on_signal)
                except (ValueError, OSError):  # pragma: no cover
                    pass

        if self.recovery_dir is None:
            run_dir = tempfile.mkdtemp(prefix="run-", dir=self.workdir)
            manifest, adopted = None, {}
        else:
            run_dir = self.recovery_dir
            manifest, adopted = self._open_manifest(job, splits, run_dir,
                                                    trace)

        completed = False
        try:
            result = self._run_waves(job, dataset, splits, scheduler,
                                     trace, run_dir, manifest, adopted,
                                     monitor)
            completed = True
        finally:
            # A failed recovery run keeps its directory: the manifest and
            # checkpoints *are* the resume state.  A completed one is
            # emptied (the caller-supplied directory itself survives,
            # like a caller-supplied workdir).
            if not self.keep_files:
                if self.recovery_dir is None:
                    shutil.rmtree(run_dir, ignore_errors=True)
                elif completed:
                    self._clear_stale_attempts(run_dir)
                    try:
                        os.unlink(os.path.join(run_dir, MANIFEST_NAME))
                    except OSError:  # pragma: no cover - already gone
                        pass
            if (self._own_workdir and os.path.isdir(self.workdir)
                    and not os.listdir(self.workdir)):
                shutil.rmtree(self.workdir, ignore_errors=True)
            for sig, handler in previous_handlers.items():
                try:
                    signal.signal(sig, handler)
                except (ValueError, OSError):  # pragma: no cover
                    pass
        self.last_trace = trace
        return result

    # ------------------------------------------------------------- recovery

    def _open_manifest(
        self,
        job: Job,
        splits: Sequence[InputSplit],
        run_dir: str,
        trace: RuntimeTrace | None = None,
    ) -> tuple[JobManifest, dict[str, TaskRecord]]:
        """Create or adopt the manifest for a recovery-enabled run.

        Returns the live manifest plus the validated records of a prior
        run (empty unless ``resume=True`` and the on-disk manifest
        matches this job's fingerprint).  A corrupt or truncated
        manifest is *not* an error: it is traced as ``manifest_corrupt``
        and the run falls back to a clean restart, clearing the stale
        checkpoints it can no longer vouch for.
        """
        os.makedirs(run_dir, exist_ok=True)
        fingerprint = job_fingerprint(job, splits)
        path = os.path.join(run_dir, MANIFEST_NAME)
        previous = None
        if self.resume:
            previous, problem = JobManifest.load_verified(path)
            if problem is not None:
                if trace is not None:
                    trace.record("manifest", 0, "job", "manifest_corrupt",
                                 problem)
                # The checkpoints may be fine, but without a trustworthy
                # manifest nothing vouches for them: clean restart.
                self._clear_stale_attempts(run_dir)
        if previous is not None and previous.job_hash != fingerprint:
            previous = None  # different job: nothing is adoptable

        manifest = JobManifest(path, fingerprint)
        adopted: dict[str, TaskRecord] = {}
        if previous is not None:
            map_ids = previous.waves.get("map", [])
            adopted.update(previous.adoptable("map", map_ids))
            reduce_ids = previous.waves.get("reduce", [])
            adopted.update(previous.adoptable("reduce", reduce_ids))
            # Carry the validated records into the fresh manifest so a
            # second interruption still sees them.
            for record in adopted.values():
                manifest.tasks[record.task_id] = record
        if not self.resume:
            # A deliberate fresh start invalidates any stale checkpoints.
            self._clear_stale_attempts(run_dir)
        manifest.save()
        return manifest, adopted

    @staticmethod
    def _clear_stale_attempts(run_dir: str) -> None:
        for name in os.listdir(run_dir):
            path = os.path.join(run_dir, name)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
            elif name != MANIFEST_NAME:
                try:
                    os.unlink(path)
                except OSError:  # pragma: no cover - already gone
                    pass

    @staticmethod
    def _load_adopted(records: dict[str, TaskRecord],
                      kind: str) -> dict[str, Any]:
        """Reload checkpointed task values for one wave.

        Records already passed CRC validation; a result that still fails
        to load (e.g. deleted between validation and here) is simply
        dropped so the scheduler re-runs the task.
        """
        values: dict[str, Any] = {}
        for task_id, record in records.items():
            if record.kind != kind:
                continue
            result = load_result(record.result_path)
            if result is not None and result.get("status") == "ok":
                values[task_id] = result["value"]
        return values

    @staticmethod
    def _checkpoint(manifest: JobManifest, spec: TaskSpec, attempt: int,
                    attempt_dir: str, result_path: str, value: Any) -> None:
        """Record one freshly completed task in the manifest."""
        files = {result_path: file_crc32(result_path)}
        if spec.kind == "map":
            for path, _ in value.segments.values():
                files[path] = file_crc32(path)
        manifest.record_task(TaskRecord(
            task_id=spec.task_id,
            kind=spec.kind,
            attempt=attempt,
            attempt_dir=attempt_dir,
            result_path=result_path,
            files=files,
        ))

    # ---------------------------------------------------------------- waves

    def _run_waves(
        self,
        job: Job,
        dataset: Dataset,
        splits: Sequence[InputSplit],
        scheduler: TaskScheduler,
        trace: RuntimeTrace,
        run_dir: str,
        manifest: JobManifest | None,
        adopted: dict[str, TaskRecord],
        monitor: HostHealthMonitor,
    ) -> JobResult:
        """Run the job's waves and fold their results.

        Barrier mode runs two waves: reducers receive their partition's
        segment refs once every map is done, and the network segment
        servers start at the barrier.  Pipelined mode runs one
        *combined* wave: each completed map is published into the run's
        commit log -- the completion-event stream pipelined reducers
        poll -- and reducers fetch and merge segments as their producers
        commit; a map re-executed at a bumped epoch is re-published,
        which re-points its readers.  Output and counters are
        byte-identical either way; overlap measurements land in
        ``JobResult.pipeline_stats``, never in counters.

        An injected ``host_crash`` fires once every map homed on the
        host has completed: at the barrier -- exactly where Hadoop's
        lost-tasktracker handling runs -- or, pipelined, the moment the
        host's last map commits.
        """
        injector = self._scheduler_kwargs.get("fault_injector")
        shuffle_cfg = self._scheduler_kwargs.get("shuffle")
        pipelined = getattr(shuffle_cfg, "pipeline", False)
        reduce_ids = [f"r{part:05d}" for part in range(job.num_reducers)]
        host_plan = prepare_host_faults(
            injector, shuffle_cfg, [f"m{s.split_id:05d}" for s in splits],
            reduce_ids, self.num_hosts)
        maps = MapOutputs(job, dataset, splits, reexec_dir=run_dir,
                          trace=trace, manifest=manifest)
        map_specs = [TaskSpec(map_id, "map", split)
                     for map_id, split in maps.splits.items()]
        crash_pending = {h for h, f in host_plan.items()
                         if f.mode == "host_crash"}
        adopted_maps = self._load_adopted(adopted, "map")
        adopted_reduces = self._load_adopted(adopted, "reduce")
        self.last_adopted = len(adopted_maps) + len(adopted_reduces)

        def crash_hosts(where: str) -> None:
            crashed = [host for host in sorted(crash_pending)
                       if all(m in maps.results for m in maps.splits
                              if monitor.host_for(m) == host)]
            for host in crashed:
                crash_pending.discard(host)
                maps.crash_host(host, scheduler.policy, self.num_hosts,
                                monitor, f"injected host_crash {where}")
            # These deaths are fully handled; drain exactly them so the
            # scheduler's sweep neither re-executes the maps a second
            # time nor swallows an organic death queued behind them.
            monitor.take_newly_dead(only=set(crashed))

        def on_complete(spec, attempt, attempt_dir, result_path, value):
            if manifest is not None:
                self._checkpoint(manifest, spec, attempt, attempt_dir,
                                 result_path, value)
            if not pipelined:
                return
            if spec.kind == "map":
                maps.publish(spec.task_id, value, attempt=attempt)
                crash_hosts("mid-pipeline")
            elif getattr(value, "pipeline", None):
                stats = value.pipeline
                trace.record(
                    spec.task_id, attempt, "reduce", "pipeline_drain",
                    f"overlapped {stats.get('overlapped_fetches', 0)} "
                    f"fetch(es), waited "
                    f"{stats.get('wait_seconds', 0.0):.3f}s")

        wave = functools.partial(
            scheduler.run_wave, job=job, wave_dir=run_dir,
            on_complete=on_complete, keep_result_files=manifest is not None)
        if manifest is not None:
            manifest.record_wave("map", [s.task_id for s in map_specs])
            manifest.record_wave("reduce", reduce_ids)
        try:
            if pipelined:
                # Stale records from an interrupted run may point at
                # attempt directories the manifest no longer vouches
                # for; adopted maps are re-published from their
                # validated checkpoints (they never fire on_complete).
                maps.open_commitlog(run_dir)
                maps.start_service(make_service(shuffle_cfg, injector, trace))
                for map_id in sorted(adopted_maps):
                    maps.publish(map_id, adopted_maps[map_id],
                                 detail="adopted from checkpoint")
                crash_hosts("mid-pipeline")
                plan = PipelinePlan(commit_dir=maps.commitlog.directory,
                                    map_ids=tuple(maps.splits))
                results = wave(
                    map_specs + [TaskSpec(r, "reduce", (part, plan))
                                 for part, r in enumerate(reduce_ids)],
                    dataset=dataset, maps=maps,
                    precomputed={**adopted_maps, **adopted_reduces},
                    pipeline=True)
            else:
                map_results = wave(map_specs, dataset=dataset,
                                   precomputed=adopted_maps)
                maps.start_service(make_service(shuffle_cfg, injector, trace))
                for spec in map_specs:
                    maps.publish(spec.task_id, map_results[spec.task_id])
                crash_hosts("at barrier")
                results = wave(
                    [TaskSpec(r, "reduce", (part, maps.refs(part)))
                     for part, r in enumerate(reduce_ids)],
                    dataset=None, maps=maps, precomputed=adopted_reduces)
        finally:
            if maps.service is not None:
                maps.service.stop()
        return assemble_result(
            job, maps, [results[r] for r in reduce_ids], scheduler.policy,
            scheduler.memory_tally, host_plan, self.num_hosts, shuffle_cfg,
            trace)
