"""The three job workloads: their shapes and how each is built from a seed.

Every workload runs one closed-loop client: a single process submits one
job, waits for its :class:`~repro.mapreduce.engine.JobResult`, then
submits the next.  The program sees only the generated dataset; the seed
stays in the benchmark.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.mapreduce.codecs import get_codec
from repro.mapreduce.engine import LocalJobRunner
from repro.mapreduce.metrics import C
from repro.mapreduce.runtime import ParallelJobRunner, ShuffleConfig
from repro.queries.sliding_mean import SlidingMeanQuery
from repro.queries.sliding_median import SlidingMedianQuery
from repro.scidata.generator import integer_grid, windspeed_field
from repro.scidata.splits import ArraySplitter

__all__ = ["Workload", "WORKLOADS", "Setup", "generate", "make_query",
           "make_splits", "build_job", "make_runner", "setup",
           "oracle_runner", "output_digest", "exact_counts"]

#: worker processes a parallel runner may use (the benchmark host's nproc)
MAX_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    query: str          # "sliding-median" | "sliding-mean"
    key_mode: str       # "plain" (per-cell keys) | "aggregate" (§IV ranges)
    field: str          # "windspeed1" float32 | "values" int32
    side: int           # cube side: the grid is side x side x side
    runner: str         # "parallel" | "serial"
    transport: str
    wire_codec: str
    pipeline: bool
    maps: int = 4
    reducers: int = 2
    window: int = 3
    #: layers on the job's path
    loads: tuple[str, ...] = ()
    #: layers the job never calls
    bypasses: tuple[str, ...] = ()

    def shuffle_config(self) -> ShuffleConfig:
        return ShuffleConfig(transport=self.transport,
                             wire_codec=self.wire_codec,
                             pipeline=self.pipeline)

    def describe(self) -> dict:
        return {
            "query": f"{self.query} window {self.window}",
            "key_mode": self.key_mode,
            "field": self.field,
            "grid_side": self.side,
            "runner": (f"ParallelJobRunner(max_workers={MAX_WORKERS})"
                       if self.runner == "parallel" else "LocalJobRunner"),
            "transport": self.transport,
            "wire_codec": self.wire_codec,
            "pipeline": self.pipeline,
            "maps": self.maps,
            "reducers": self.reducers,
            "why": self.why,
            "loads": list(self.loads),
            "bypasses": list(self.bypasses),
        }


WORKLOADS = {w.name: w for w in (
    Workload(
        name="wire-median",
        why=("per-cell sliding-median keys over the network shuffle with the"
             " paper's Sec. III fastpred+zlib wire codec and pipelining: the"
             " codec and socket hop carry the job"),
        query="sliding-median", key_mode="plain", field="windspeed1",
        side=16, runner="parallel", transport="network",
        wire_codec="fastpred+zlib", pipeline=True,
        loads=("scidata", "queries", "mapreduce.engine", "core.stride",
               "mapreduce.codecs", "runtime.netshuffle", "runtime.pipeline",
               "runtime.scheduler", "runtime.memory"),
        bypasses=("core.aggregation", "sfc", "combiner"),
    ),
    Workload(
        name="agg-median",
        why=("sliding median under Sec. IV Z-order range keys on the serial "
             "runner: aggregation and sfc dominate, no codec, socket or "
             "worker process"),
        query="sliding-median", key_mode="aggregate", field="values",
        side=12, runner="serial", transport="direct", wire_codec="null",
        pipeline=False,
        loads=("scidata", "queries", "mapreduce.engine", "core.aggregation",
               "sfc", "runtime.shuffle", "runtime.memory"),
        bypasses=("core.stride", "mapreduce.codecs", "runtime.netshuffle",
                  "runtime.pipeline", "runtime.scheduler"),
    ),
    Workload(
        name="plain-mean",
        why=("sliding mean with the combiner on the parallel runner: "
             "columnar map/sort/combine and the scheduler carry the job"),
        query="sliding-mean", key_mode="plain", field="values",
        side=20, runner="parallel", transport="direct", wire_codec="null",
        pipeline=False,
        loads=("scidata", "queries", "mapreduce.engine", "runtime.shuffle",
               "runtime.scheduler", "runtime.memory"),
        bypasses=("core.stride", "mapreduce.codecs", "runtime.netshuffle",
                  "runtime.pipeline", "core.aggregation", "sfc"),
    ),
)}


def generate(w: Workload, seed: int):
    """The workload's dataset; the same seed gives byte-identical data."""
    shape = (w.side,) * 3
    if w.field == "windspeed1":
        return windspeed_field(shape, seed=seed)
    return integer_grid(shape, name=w.field, seed=seed)


def make_query(w: Workload, dataset):
    if w.query == "sliding-median":
        return SlidingMedianQuery(dataset, w.field, window=w.window)
    return SlidingMeanQuery(dataset, w.field, window=w.window)


def make_splits(w: Workload, dataset):
    return ArraySplitter(w.maps).split(dataset, [w.field])


def build_job(w: Workload, query):
    return query.build_job(w.key_mode, num_map_tasks=w.maps,
                           num_reducers=w.reducers)


def make_runner(w: Workload, workdir: str):
    if w.runner == "serial":
        return LocalJobRunner(workdir=workdir, shuffle=w.shuffle_config())
    return ParallelJobRunner(workdir=workdir, max_workers=MAX_WORKERS,
                             shuffle=w.shuffle_config())


@dataclass
class Setup:
    dataset: object
    splits: list
    job: object
    runner: object


def setup(w: Workload, seed: int, workdir: str) -> Setup:
    """Everything a job needs before ``runner.run`` (the ``setup_s`` work)."""
    dataset = generate(w, seed)
    splits = make_splits(w, dataset)
    job = build_job(w, make_query(w, dataset))
    # The program imports the stride codecs on the first lookup.  Left to
    # the first job, that import can run in a segment-server thread while
    # the runner forks a worker, which then inherits the held import lock
    # and hangs (see README, *Per-job deadline*); resolved here, it runs
    # before any thread or fork.
    get_codec(w.wire_codec)
    return Setup(dataset, splits, job, make_runner(w, workdir))


def oracle_runner(workdir: str) -> LocalJobRunner:
    """The reference execution: serial, direct transport, null wire
    codec, pipelining off."""
    return LocalJobRunner(workdir=workdir, shuffle=ShuffleConfig())


def output_digest(output) -> str:
    """SHA-256 over the job output, in the order the runner returned it."""
    h = hashlib.sha256()
    for key, value in output:
        h.update(repr((key, value)).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def exact_counts(counters) -> dict[str, int]:
    """Counters that must repeat exactly across every run of one seed."""
    return {
        "shuffle_bytes": counters.get(C.MAP_OUTPUT_MATERIALIZED_BYTES),
        "wire_bytes": counters.get(C.SHUFFLE_WIRE_BYTES),
        "map_output_records": counters.get(C.MAP_OUTPUT_RECORDS),
        "key_splits": counters.get(C.KEY_SPLITS),
    }
