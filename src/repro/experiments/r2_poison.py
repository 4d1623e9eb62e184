"""R2 -- poison-safe pipeline: skipping mode, quarantine, salvage.

Not a paper figure: this is the record-level robustness analogue of R1.
Where R1 kills *processes*, R2 damages *data* -- poison user records
(Hadoop's SkipBadRecords scenario) and hostile bytes (bit flips,
truncations, splices) injected into map outputs and reduce inputs --
and checks the failure ladder lands every scenario on the right rung:

* clean runs with a :class:`~repro.mapreduce.job.SkipPolicy` attached
  stay **byte-identical** to the no-policy baseline (skipping engages
  only after a strict attempt fails: zero clean-path overhead);
* poison records are bisected out in skipping mode and **quarantined**
  -- the job completes and its output is exactly the baseline minus
  the poison records' contributions, with the loss surfaced in the
  ``records_skipped`` / ``quarantine_records`` counters;
* a flipped or spliced byte inside a *chunked* (per-block CRC) segment
  is **salvaged** around: only the damaged block's records are lost,
  and every lost record is accounted for in the quarantine side-file
  (none silently dropped, none duplicated);
* damage that destroys a whole segment (truncation past the footer) is
  **repaired** by re-running the producing map task -- output identical
  to baseline, nothing skipped;
* a skip budget too small for the damage **fails the job** -- skipping
  must never silently eat unbounded data loss;
* every scenario runs through both the serial
  :class:`~repro.mapreduce.engine.LocalJobRunner` and the parallel
  :class:`~repro.mapreduce.runtime.ParallelJobRunner`, and the two must
  agree byte-for-byte on output, counters, and quarantine contents.

A seeded fuzz tail draws random (query, fault, position) combinations
on top of the deterministic matrix; ``REPRO_R2_FUZZ`` bounds the seed
count and ``REPRO_R2_SECONDS`` the wall-clock (CI's fuzz-smoke job pins
a 60-second slice).  The bench (``benchmarks/bench_r2_poison.py``)
asserts the outcome column never reads DRIFT.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
import time

from repro import knobs
from repro.experiments.common import ExperimentResult, scaled
from repro.mapreduce.codecs import NullCodec
from repro.mapreduce.engine import LocalJobRunner
from repro.mapreduce.ifile import IFileReader
from repro.mapreduce.job import Job, SkipPolicy
from repro.mapreduce.metrics import C
from repro.mapreduce.runtime import FaultInjector, ParallelJobRunner
from repro.queries.histogram import HistogramQuery
from repro.queries.subset import BoxSubsetQuery
from repro.scidata.generator import integer_grid
from repro.scidata.slab import Slab
from repro.util.rng import make_rng

__all__ = ["run"]

#: queries the matrix and the fuzz tail draw from
_QUERIES = ("subset-plain", "subset-agg", "histogram")
#: block size for chunked-segment scenarios: small enough that the tiny
#: harness grids still produce multiple blocks per segment
_BLOCK_BYTES = 512


def _build(grid, query: str, side: int, num_map_tasks: int,
           num_reducers: int, *, policy: SkipPolicy | None = None,
           block_bytes: int | None = None) -> Job:
    """One query job, optionally with a skip policy / chunked segments."""
    var = grid.names[0]
    if query == "subset-plain":
        box = Slab((1, 1), (side - 2, side - 2))
        job = BoxSubsetQuery(grid, var, box).build_job(
            "plain", num_map_tasks=num_map_tasks, num_reducers=num_reducers)
    elif query == "subset-agg":
        box = Slab((1, 1), (side - 2, side - 2))
        job = BoxSubsetQuery(grid, var, box).build_job(
            "aggregate", variable_mode="index",
            num_map_tasks=num_map_tasks, num_reducers=num_reducers)
    elif query == "histogram":
        job = HistogramQuery(grid, var, bins=16).build_job(
            "plain", num_map_tasks=num_map_tasks, num_reducers=num_reducers)
    else:  # pragma: no cover - guarded by _QUERIES
        raise ValueError(f"unknown query {query!r}")
    overrides: dict = {}
    if policy is not None:
        overrides["skipping"] = policy
    if block_bytes is not None:
        overrides["ifile_block_bytes"] = block_bytes
    return dataclasses.replace(job, **overrides) if overrides else job


def _read_quarantine(directory: str) -> list[tuple[bytes, bytes]]:
    """All quarantined records under ``directory``, in task-id order."""
    records: list[tuple[bytes, bytes]] = []
    if not os.path.isdir(directory):
        return records
    for name in sorted(os.listdir(directory)):
        if name.endswith("-quarantine"):
            records.extend(
                IFileReader(os.path.join(directory, name),
                            NullCodec()).read_all())
    return records


class _RunOutcome:
    """One runner's view of one scenario: result or failure, quarantine."""

    def __init__(self, result, error: BaseException | None,
                 quarantine: list[tuple[bytes, bytes]]) -> None:
        self.result = result
        self.error = error
        self.quarantine = quarantine

    @property
    def skipped(self) -> int:
        return (self.result.counters.get(C.RECORDS_SKIPPED)
                if self.result is not None else 0)

    @property
    def accounted(self) -> bool:
        """Quarantine file contents match the counters exactly --
        nothing silently dropped, nothing duplicated."""
        if self.result is None:
            return True
        return (len(self.quarantine)
                == self.result.counters.get(C.QUARANTINE_RECORDS))


def _run_one(runner_name: str, grid, job_factory, fault_factory,
             quarantine_root: str | None) -> _RunOutcome:
    """Run one scenario through one runner into a fresh quarantine dir."""
    if quarantine_root is not None:
        qdir = os.path.join(quarantine_root, runner_name)
        os.makedirs(qdir, exist_ok=True)
        cleanup = False
    else:
        qdir = tempfile.mkdtemp(prefix=f"repro-r2-{runner_name}-")
        cleanup = True
    try:
        job = job_factory(qdir)
        injector = fault_factory() if fault_factory is not None else None
        result, error = None, None
        try:
            if runner_name == "parallel":
                with ParallelJobRunner(
                        max_workers=2, max_retries=2, retry_backoff=0.01,
                        speculation=False,
                        fault_injector=injector) as runner:
                    result = runner.run(job, grid)
            else:
                with LocalJobRunner(fault_injector=injector) as runner:
                    result = runner.run(job, grid)
        except Exception as exc:
            error = exc
        return _RunOutcome(result, error, _read_quarantine(qdir))
    finally:
        if cleanup:
            shutil.rmtree(qdir, ignore_errors=True)


def _agree(serial: _RunOutcome, parallel: _RunOutcome) -> bool:
    """Serial and parallel must fail together or match byte-for-byte."""
    if (serial.error is None) != (parallel.error is None):
        return False
    if serial.error is not None:
        return True
    return (serial.result.output == parallel.result.output
            and serial.result.counters == parallel.result.counters
            and serial.quarantine == parallel.quarantine)


def _scenario(grid, job_factory, fault_factory,
              quarantine_root: str | None) -> tuple[_RunOutcome, _RunOutcome]:
    serial = _run_one("serial", grid, job_factory, fault_factory,
                      quarantine_root)
    parallel = _run_one("parallel", grid, job_factory, fault_factory,
                        quarantine_root)
    return serial, parallel


def run(num_fuzz: int | None = None, seconds: float | None = None,
        side: int | None = None, num_map_tasks: int = 4,
        num_reducers: int = 2) -> ExperimentResult:
    """Poison/corruption matrix plus a seeded fuzz tail, both runners.

    ``num_fuzz`` random scenarios (default 6, or ``REPRO_R2_FUZZ``)
    after the deterministic matrix; ``seconds`` (or
    ``REPRO_R2_SECONDS``) caps the fuzz tail's wall clock.  Quarantine
    side-files are written under ``REPRO_QUARANTINE_DIR`` when set
    (and left there for inspection), else throwaway temp dirs.
    """
    if num_fuzz is None:
        num_fuzz = knobs.get("REPRO_R2_FUZZ")
    if seconds is None:
        seconds = knobs.get("REPRO_R2_SECONDS")
    if side is None:
        side = max(8, scaled(12, default_scale=1.0))
    budget = knobs.get("REPRO_SKIP_BUDGET")
    quarantine_root = knobs.get("REPRO_QUARANTINE_DIR")

    grid = integer_grid((side, side), seed=7, low=0, high=500)
    baselines = {
        q: LocalJobRunner().run(
            _build(grid, q, side, num_map_tasks, num_reducers), grid)
        for q in _QUERIES
    }
    #: a map-input record inside the query box, owned by map task m00000
    poison_cell = side + 1

    result = ExperimentResult(
        experiment="R2",
        title=f"poison-safe pipeline, {side}^2 grid "
              f"({num_map_tasks} maps, {num_reducers} reducers), "
              f"skip_budget={budget}, both runners per scenario",
        columns=["scenario", "query", "fault", "skipped", "quarantined",
                 "q_bytes", "outcome"],
    )

    def policy_for(qdir: str, skip_budget: int = budget) -> SkipPolicy:
        return SkipPolicy(skip_budget=skip_budget, quarantine_dir=qdir)

    def add_row(scenario: str, query: str, fault: str,
                serial: _RunOutcome, parallel: _RunOutcome,
                outcome: str) -> None:
        result.add(
            scenario=scenario, query=query, fault=fault,
            skipped=serial.skipped,
            quarantined=len(serial.quarantine),
            q_bytes=(serial.result.counters.get(C.QUARANTINE_BYTES)
                     if serial.result is not None else 0),
            outcome=outcome,
        )

    def qroot(scenario: str, query: str) -> str | None:
        if quarantine_root is None:
            return None
        path = os.path.join(quarantine_root, f"{scenario}-{query}")
        os.makedirs(path, exist_ok=True)
        return path

    def classify(serial: _RunOutcome, parallel: _RunOutcome,
                 expect: str, baseline, lost: int | None) -> str:
        """The outcome label, or DRIFT when any invariant is broken."""
        if not _agree(serial, parallel):
            return "DRIFT"
        if expect == "failed":
            return "failed" if serial.error is not None else "DRIFT"
        if serial.error is not None:
            return "DRIFT"
        if not serial.accounted or not parallel.accounted:
            return "DRIFT"
        out = serial.result.output
        if expect == "identical":
            ok = (out == baseline.output and serial.skipped == 0
                  and serial.result.counters == baseline.counters)
            return "identical" if ok else "DRIFT"
        if expect == "repaired":
            ok = out == baseline.output and serial.skipped == 0
            return "repaired" if ok else "DRIFT"
        # skipped / salvaged: output shrinks by exactly the known loss
        if serial.skipped < 1:
            return "DRIFT"
        if lost is not None and len(out) != len(baseline.output) - lost:
            return "DRIFT"
        return expect

    # ------------------------------------------------- deterministic matrix

    for query in _QUERIES:
        serial, parallel = _scenario(
            grid,
            lambda qdir, q=query: _build(grid, q, side, num_map_tasks,
                                         num_reducers,
                                         policy=policy_for(qdir)),
            None, qroot("clean", query))
        add_row("clean", query, "none", serial, parallel,
                classify(serial, parallel, "identical",
                         baselines[query], None))

    for query in ("subset-plain", "subset-agg"):
        serial, parallel = _scenario(
            grid,
            lambda qdir, q=query: _build(grid, q, side, num_map_tasks,
                                         num_reducers,
                                         policy=policy_for(qdir)),
            lambda: FaultInjector().poison("m00000", record=poison_cell),
            qroot("poison-map", query))
        add_row("poison-map", query, f"poison m00000#{poison_cell}",
                serial, parallel,
                classify(serial, parallel, "skipped", baselines[query], 1))

    for query, lost in (("subset-plain", 1), ("histogram", 1)):
        serial, parallel = _scenario(
            grid,
            lambda qdir, q=query: _build(grid, q, side, num_map_tasks,
                                         num_reducers,
                                         policy=policy_for(qdir)),
            lambda: FaultInjector().poison("r00000", record=1),
            qroot("poison-reduce", query))
        add_row("poison-reduce", query, "poison r00000#1", serial, parallel,
                classify(serial, parallel, "skipped", baselines[query],
                         lost if query == "subset-plain" else None))

    for op, query in (("flip", "subset-plain"), ("splice", "subset-plain"),
                      ("flip", "subset-agg")):
        serial, parallel = _scenario(
            grid,
            lambda qdir, q=query: _build(grid, q, side, num_map_tasks,
                                         num_reducers,
                                         policy=policy_for(qdir),
                                         block_bytes=_BLOCK_BYTES),
            lambda o=op: FaultInjector().corrupt("m00001", op=o,
                                                 offset_frac=0.4),
            qroot(f"corrupt-{op}", query))
        lost = (serial.skipped if query == "subset-plain"
                and serial.skipped else None)
        add_row(f"corrupt-{op}", query, f"{op} m00001 out @0.4",
                serial, parallel,
                classify(serial, parallel, "salvaged",
                         baselines[query], lost))

    serial, parallel = _scenario(
        grid,
        lambda qdir: _build(grid, "subset-plain", side, num_map_tasks,
                            num_reducers, policy=policy_for(qdir),
                            block_bytes=_BLOCK_BYTES),
        lambda: FaultInjector().corrupt("r00000", where="reduce-input",
                                        op="flip", offset_frac=0.4),
        qroot("corrupt-reduce-in", "subset-plain"))
    lost = serial.skipped if serial.skipped else None
    add_row("corrupt-reduce-in", "subset-plain", "flip r00000 in @0.4",
            serial, parallel,
            classify(serial, parallel, "salvaged",
                     baselines["subset-plain"], lost))

    serial, parallel = _scenario(
        grid,
        lambda qdir: _build(grid, "subset-plain", side, num_map_tasks,
                            num_reducers, policy=policy_for(qdir),
                            block_bytes=_BLOCK_BYTES),
        lambda: FaultInjector().corrupt("m00001", op="truncate",
                                        offset_frac=0.5),
        qroot("corrupt-truncate", "subset-plain"))
    add_row("corrupt-truncate", "subset-plain", "truncate m00001 out @0.5",
            serial, parallel,
            classify(serial, parallel, "repaired",
                     baselines["subset-plain"], None))

    serial, parallel = _scenario(
        grid,
        lambda qdir: _build(grid, "subset-plain", side, num_map_tasks,
                            num_reducers,
                            policy=policy_for(qdir, skip_budget=1),
                            block_bytes=_BLOCK_BYTES),
        lambda: FaultInjector().corrupt("m00001", op="flip",
                                        offset_frac=0.4),
        qroot("budget", "subset-plain"))
    add_row("budget", "subset-plain", "flip, skip_budget=1",
            serial, parallel,
            classify(serial, parallel, "failed",
                     baselines["subset-plain"], None))

    serial, parallel = _scenario(
        grid,
        lambda qdir: _build(grid, "histogram", side, num_map_tasks,
                            num_reducers, policy=policy_for(qdir)),
        lambda: FaultInjector().poison("m00000", record=poison_cell),
        qroot("poison-map-unsupported", "histogram"))
    add_row("poison-map-unsupported", "histogram",
            f"poison m00000#{poison_cell} (no map_range)",
            serial, parallel,
            classify(serial, parallel, "failed",
                     baselines["histogram"], None))

    # ------------------------------------------------------------ fuzz tail

    started = time.monotonic()
    fuzz_ran = 0
    cells_per_split = (side * side) // num_map_tasks
    for seed in range(num_fuzz):
        if seconds is not None and time.monotonic() - started > seconds:
            break
        rng = make_rng(1000 + seed)
        query = _QUERIES[int(rng.integers(0, len(_QUERIES)))]
        kinds = ["poison-reduce", "corrupt"]
        if query != "histogram":
            kinds.append("poison-map")
        kind = kinds[int(rng.integers(0, len(kinds)))]
        block_bytes = None
        if kind == "poison-map":
            task = f"m{int(rng.integers(0, num_map_tasks)):05d}"
            record = int(rng.integers(0, cells_per_split))
            desc = f"poison {task}#{record}"
            fault_factory = (lambda t=task, r=record:
                             FaultInjector().poison(t, record=r))
        elif kind == "poison-reduce":
            task = f"r{int(rng.integers(0, num_reducers)):05d}"
            record = int(rng.integers(0, 8))
            desc = f"poison {task}#{record}"
            fault_factory = (lambda t=task, r=record:
                             FaultInjector().poison(t, record=r))
        else:
            block_bytes = _BLOCK_BYTES
            op = ("flip", "splice", "truncate")[int(rng.integers(0, 3))]
            where = ("map-output", "reduce-input")[int(rng.integers(0, 2))]
            if where == "map-output":
                task = f"m{int(rng.integers(0, num_map_tasks)):05d}"
            else:
                task = f"r{int(rng.integers(0, num_reducers)):05d}"
            frac = 0.15 + 0.7 * float(rng.random())
            desc = f"{op} {task} {where} @{frac:.2f}"
            fault_factory = (lambda t=task, w=where, o=op, f=frac:
                             FaultInjector().corrupt(t, where=w, op=o,
                                                     offset_frac=f))
        serial, parallel = _scenario(
            grid,
            lambda qdir, q=query, b=block_bytes: _build(
                grid, q, side, num_map_tasks, num_reducers,
                policy=policy_for(qdir), block_bytes=b),
            fault_factory, qroot(f"fuzz{seed}", query))
        agree = (_agree(serial, parallel) and serial.accounted
                 and parallel.accounted)
        if serial.error is not None:
            outcome = "agree-failed" if agree else "DRIFT"
        else:
            outcome = "agree" if agree else "DRIFT"
        add_row(f"fuzz{seed}", query, desc, serial, parallel, outcome)
        fuzz_ran += 1

    n_drift = sum(1 for v in result.column("outcome") if v == "DRIFT")
    result.note(f"{len(result.rows) - fuzz_ran} deterministic scenarios + "
                f"{fuzz_ran}/{num_fuzz} fuzz seeds; {n_drift} DRIFT rows "
                f"(must be 0); every scenario ran through both runners and "
                f"must agree on output, counters, and quarantine bytes")
    result.note("ladder: strict attempt -> repair whole-segment damage -> "
                "record-level skipping (bisect poison, salvage corrupt "
                "blocks) -> quarantine side-file, bounded by the skip "
                "budget; clean runs with a SkipPolicy attached are "
                "byte-identical to the no-policy baseline")
    if seconds is not None and fuzz_ran < num_fuzz:
        result.note(f"fuzz tail truncated by REPRO_R2_SECONDS={seconds:g} "
                    f"after {fuzz_ran} seeds")
    return result
