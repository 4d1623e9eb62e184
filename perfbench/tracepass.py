"""The traced pass: one job's inputs pushed through each layer's public
functions by the benchmark itself, with a span around every call.

End-to-end numbers never come from here.  The pass calls, in order:
dataset generation, splitting and job build; ``run_map_task`` once per
split; a :class:`ShuffleService` plus ``NetworkTransport.fetch`` and
``DirectTransport.fetch`` once per segment; ``run_reduce_task`` once per
partition; the codecs and the stride transform on the produced segments;
the §IV aggregation and ``sfc`` calls on the split data; and one
``runner.run`` that yields the program's own trace, pipeline and memory
statistics.  Pure-function layers (codecs, stride, aggregation, sfc,
both transports) are measured on every workload's own data, also where
the workload's job bypasses them; ``README.md`` lists which layers each
job loads.  Runner-reported statistics are zero where the runner does
not produce them (no scheduler in the serial runner, no pipeline stats
without pipelining).  The ``share.*`` metrics put each claimed layer's
time over the untraced median ``job_s``; ``trace.overhead_s`` is what
the pass's own spans cost.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np

from repro.core.aggregation import (
    AggregateShufflePlugin,
    Aggregator,
    cells_of_group,
)
from repro.core.stride.fast import (
    DEFAULT_CHUNK,
    fast_forward_transform,
    fast_inverse_transform,
    select_stride,
)
from repro.mapreduce.codecs import get_codec
from repro.mapreduce.engine import run_map_task, run_reduce_task
from repro.mapreduce.metrics import C, Counters
from repro.mapreduce.runtime import (
    DirectTransport,
    SegmentRef,
    ShuffleConfig,
)
from repro.mapreduce.runtime.memory import MemoryBudget
from repro.mapreduce.runtime.netshuffle import NetworkTransport, ShuffleService
from repro.mapreduce.sort import group_by_key, sort_records
from repro.queries.base import shifted_cells
from repro.util.timing import Deadline

from perfbench.spans import SpanRecorder, span_cost
from perfbench.workloads import (
    MAX_WORKERS,
    Workload,
    build_job,
    exact_counts,
    generate,
    make_query,
    make_runner,
    make_splits,
    output_digest,
)

__all__ = ["traced_pass", "scheduler_stats", "shares"]

#: codecs measured on the segments, by metric name
CODECS = (("null", "null"), ("zlib", "zlib"),
          ("fastpred+zlib", "fastpred_zlib"))
#: task-profile categories reported per phase
MAP_PHASES = ("read", "map", "sort", "combine", "merge")
REDUCE_PHASES = ("shuffle", "merge", "reduce")
#: events that end a running attempt
_ATTEMPT_ENDS = ("finished", "failed", "killed", "timeout", "discarded")


class _Collector:
    """Stands in for a MapContext: keeps what an Aggregator emits."""

    def __init__(self) -> None:
        self.records: list[tuple[bytes, bytes]] = []

    def emit_serialized(self, key_bytes: bytes, value_bytes: bytes) -> None:
        self.records.append((key_bytes, value_bytes))


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def scheduler_stats(trace) -> dict[str, float]:
    """Queue wait, busy time, attempts and useful-attempt ratio from a
    :class:`~repro.mapreduce.runtime.trace.RuntimeTrace` (all zero for
    ``None``, the serial runner's trace)."""
    out = {"scheduler.queue_wait_s": 0.0, "scheduler.task_busy_s": 0.0,
           "scheduler.attempts": 0, "scheduler.useful_attempt_ratio": 0.0,
           "scheduler.pool_start_s": 0.0}
    if trace is None:
        return out
    queued: dict[str, float] = {}
    first_start: dict[str, float] = {}
    running: dict[tuple[str, int], float] = {}
    busy = 0.0
    attempts = winners = 0
    for e in trace.events:
        if e.event == "queued":
            queued.setdefault(e.task_id, e.timestamp)
        elif e.event == "started":
            attempts += 1
            running[(e.task_id, e.attempt)] = e.timestamp
            first_start.setdefault(e.task_id, e.timestamp)
        elif e.event in _ATTEMPT_ENDS:
            start = running.pop((e.task_id, e.attempt), None)
            if start is not None:
                busy += e.timestamp - start
            winners += e.event == "finished"
    out["scheduler.queue_wait_s"] = sum(
        t - queued[task] for task, t in first_start.items() if task in queued)
    out["scheduler.task_busy_s"] = busy
    out["scheduler.attempts"] = attempts
    out["scheduler.useful_attempt_ratio"] = _rate(winners, attempts)
    out["scheduler.pool_start_s"] = min(first_start.values(), default=0.0)
    return out


def _engine(w, rec, job, dataset, splits, workdir):
    """Map tasks, both transports, then reduce tasks, one span per call."""
    counters = Counters()
    budgets: list[MemoryBudget] = []
    map_outputs = []
    for split in splits:
        budgets.append(MemoryBudget(None))
        with rec.span("engine.run_map_task"):
            mo = run_map_task(job, split, dataset, workdir,
                              memory=budgets[-1])
        map_outputs.append(mo)
        counters.merge(mo.counters)

    def refs(part: int, service=None) -> list[SegmentRef]:
        return [SegmentRef(mo.task_id, *mo.segments[part], epoch=0,
                           address=(service.address_for(mo.task_id)
                                    if service is not None else None))
                for mo in map_outputs]

    net_config = ShuffleConfig(transport="network",
                               wire_codec=w.wire_codec)
    service = ShuffleService.from_config(net_config)
    output = []
    reduce_profiles = []
    fetched = 0
    with rec.span("netshuffle.start"):
        service.start()
    try:
        for mo in map_outputs:
            service.register_map_output(
                mo.task_id, [path for path, _ in mo.segments.values()])
        transport = NetworkTransport(net_config)
        try:
            for part in range(w.reducers):
                for ref in refs(part, service):
                    with rec.span("netshuffle.fetch"):
                        blob = transport.fetch(ref, 0, Deadline(None))
                    fetched += len(blob)
        finally:
            transport.close()
        direct = DirectTransport()
        for part in range(w.reducers):
            for ref in refs(part):
                with rec.span("shuffle.direct_fetch"):
                    direct.fetch(ref, 0, Deadline(None))
        for part in range(w.reducers):
            budgets.append(MemoryBudget(None))
            part_refs = refs(part, service if w.transport == "network"
                             else None)
            with rec.span("engine.run_reduce_task"):
                rr = run_reduce_task(job, part, part_refs, workdir,
                                     shuffle=w.shuffle_config(),
                                     memory=budgets[-1])
            output.extend(rr.output)
            counters.merge(rr.counters)
            reduce_profiles.append(rr.profile)
    finally:
        service.stop()

    def phase(profiles, name):
        return sum(p.cpu_seconds.get(name, 0.0) for p in profiles)

    map_profiles = [mo.profile for mo in map_outputs]
    metrics = {
        "engine.map_task_s": rec.self_total("engine.run_map_task"),
        "engine.map_output_records": counters.get(C.MAP_OUTPUT_RECORDS),
        "engine.spilled_records": counters.get(C.SPILLED_RECORDS),
        "engine.reduce_task_s": rec.self_total("engine.run_reduce_task"),
        "engine.reduce_output_records":
            counters.get(C.REDUCE_OUTPUT_RECORDS),
        "netshuffle.fetch_s": rec.total("netshuffle.fetch"),
        "netshuffle.fetch_MBps": _rate(fetched / 1e6,
                                       rec.total("netshuffle.fetch")),
        "shuffle.direct_fetch_s": rec.total("shuffle.direct_fetch"),
        "memory.peak_bytes": max(b.peak for b in budgets),
    }
    for name in MAP_PHASES:
        metrics[f"engine.map.{name}_s"] = phase(map_profiles, name)
    for name in REDUCE_PHASES:
        metrics[f"engine.reduce.{name}_s"] = phase(reduce_profiles, name)
    segments = [path for mo in map_outputs
                for path, _ in mo.segments.values()]
    return metrics, counters, output, segments


def _codecs_and_stride(rec, segment_paths) -> dict[str, float]:
    """Every codec and the stride transform over the produced segments."""
    blobs = []
    for path in segment_paths:
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob:
            blobs.append(blob)
    raw = sum(len(b) for b in blobs) / 1e6
    metrics: dict[str, float] = {}
    for codec_name, label in CODECS:
        codec = get_codec(codec_name)
        wire = 0
        for blob in blobs:
            with rec.span(f"codecs.{label}.compress"):
                comp = codec.compress(blob)
            with rec.span(f"codecs.{label}.decompress"):
                back = codec.decompress(comp)
            if back != blob:
                raise RuntimeError(f"codec {codec_name} did not round-trip")
            wire += len(comp)
        metrics[f"codecs.{label}.compress_MBps"] = _rate(
            raw, rec.total(f"codecs.{label}.compress"))
        metrics[f"codecs.{label}.decompress_MBps"] = _rate(
            raw, rec.total(f"codecs.{label}.decompress"))
        metrics[f"codecs.{label}.wire_ratio"] = _rate(wire / 1e6, raw)
    for blob in blobs:
        with rec.span("stride.forward"):
            residual = fast_forward_transform(blob)
        with rec.span("stride.inverse"):
            back = fast_inverse_transform(residual)
        if back != blob:
            raise RuntimeError("stride transform did not round-trip")
        # the forward transform picks each chunk's stride from the
        # previous chunk; repeat exactly those calls to price them
        x = np.frombuffer(blob, dtype=np.uint8)
        for off in range(DEFAULT_CHUNK, x.shape[0], DEFAULT_CHUNK):
            with rec.span("stride.select_stride"):
                select_stride(x[off - DEFAULT_CHUNK:off], 100)
    forward = rec.total("stride.forward")
    metrics["stride.forward_MBps"] = _rate(raw, forward)
    metrics["stride.inverse_MBps"] = _rate(raw, rec.total("stride.inverse"))
    metrics["stride.select_share"] = _rate(
        rec.total("stride.select_stride"), forward)
    return metrics


def _aggregation_and_sfc(w, rec, dataset, query, splits) -> dict[str, float]:
    """§IV aggregation on the split data, and the Z-order curve it uses."""
    config = query.aggregation_config()
    plugin = AggregateShufflePlugin(config)
    origin = np.asarray(query.extent.corner, dtype=np.int64)
    collector = _Collector()
    ranges = 0
    all_cells = []
    for split in splits:
        values = dataset[split.variable].read(split.slab).ravel()
        coords = split.slab.coords()
        batches = []
        for offset in query.offsets:
            shifted, kept = shifted_cells(coords, values, offset,
                                          query.extent)
            if shifted.shape[0]:
                batches.append((shifted - origin, kept))
        all_cells.extend(cells for cells, _ in batches)
        with rec.span("aggregation.aggregate"):
            agg = Aggregator(config, w.field, collector)
            for cells, kept in batches:
                agg.add(cells, kept)
            agg.close()
        ranges += agg.emitted_ranges
    parts: dict[int, list] = defaultdict(list)
    with rec.span("aggregation.route"):
        for kb, vb in collector.records:
            for part, k2, v2 in plugin.route(kb, vb, w.reducers):
                parts[part].append((k2, v2))
    key_serde, block_serde = config.key_serde(), config.block_serde()
    for part in sorted(parts):
        merged = sort_records(parts[part])
        with rec.span("aggregation.split"):
            split_records = plugin.prepare_reduce(merged)
        groups = [(key_serde.from_bytes(kb), block_serde.read_batch(vbs))
                  for kb, vbs in group_by_key(split_records)]
        with rec.span("aggregation.expand"):
            for key, blocks in groups:
                for _ in cells_of_group(key, blocks):
                    pass
    curve = config.make_curve()
    cells = np.concatenate(all_cells)
    with rec.span("sfc.encode"):
        indices = curve.encode(cells)
    with rec.span("sfc.decode"):
        decoded = curve.decode(indices)
    if not np.array_equal(decoded, cells):
        raise RuntimeError("Z-order decode(encode(x)) != x")
    mcells = cells.shape[0] / 1e6
    return {
        "aggregation.aggregate_s": rec.total("aggregation.aggregate"),
        "aggregation.route_s": rec.total("aggregation.route"),
        "aggregation.split_s": rec.total("aggregation.split"),
        "aggregation.expand_s": rec.total("aggregation.expand"),
        "aggregation.range_records": ranges,
        "sfc.encode_Mcells_s": _rate(mcells, rec.total("sfc.encode")),
        "sfc.decode_Mcells_s": _rate(mcells, rec.total("sfc.decode")),
    }


def shares(w: Workload, rec: SpanRecorder, metrics: dict,
           job_s: float) -> dict[str, float]:
    """What each workload's claimed layers cost, over the untraced
    median ``job_s``; zero for a layer the workload's job bypasses.
    ``share.map_sort_combine`` sums CPU seconds of map tasks that run in
    parallel, so it can exceed 1.

    ``share.scheduler_occupancy`` is the workers' busy time in the traced
    ``runner.run`` over that run's wall clock times the worker count:
    low occupancy means fixed per-job costs (forks, service and pool
    start) carry the job.
    """
    codec = dict(CODECS)[w.wire_codec]
    occupancy = _rate(metrics["scheduler.task_busy_s"],
                      rec.total("runner.run") * MAX_WORKERS)
    spent = {
        "share.wire_codec": ("mapreduce.codecs",
                             rec.total(f"codecs.{codec}.compress")
                             + rec.total(f"codecs.{codec}.decompress")),
        "share.stride": ("core.stride", rec.total("stride.forward")
                         + rec.total("stride.inverse")),
        "share.aggregation": ("core.aggregation", sum(
            metrics[f"aggregation.{n}_s"]
            for n in ("aggregate", "route", "split", "expand"))),
        "share.sfc": ("sfc", rec.total("sfc.encode")
                      + rec.total("sfc.decode")),
        "share.map_sort_combine": ("mapreduce.engine", sum(
            metrics[f"engine.map.{n}_s"]
            for n in ("map", "sort", "combine"))),
    }
    out = {name: 0.0 if layer in w.bypasses else _rate(seconds, job_s)
           for name, (layer, seconds) in spent.items()}
    out["share.scheduler_occupancy"] = (
        0.0 if "runtime.scheduler" in w.bypasses else occupancy)
    return out


def traced_pass(w: Workload, seed: int, workdir: str,
                untraced_job_s: float) -> dict:
    """Run the pass; returns per-layer metrics, exact counts, digests and
    the span recorder (the caller writes the spans out)."""
    rec = SpanRecorder(job=f"{w.name}-seed{seed}")
    with rec.span("trace.pass"):
        with rec.span("scidata.generate"):
            dataset = generate(w, seed)
        with rec.span("scidata.split"):
            splits = make_splits(w, dataset)
        with rec.span("queries.build_job"):
            query = make_query(w, dataset)
            job = build_job(w, query)
        tasks_dir = os.path.join(workdir, "tasks")
        os.makedirs(tasks_dir, exist_ok=True)
        metrics, task_counters, task_output, segments = _engine(
            w, rec, job, dataset, splits, tasks_dir)
        metrics.update(_codecs_and_stride(rec, segments))
        metrics.update(_aggregation_and_sfc(w, rec, dataset, query, splits))
        with make_runner(w, os.path.join(workdir, "runner")) as runner:
            with rec.span("runner.run"):
                result = runner.run(job, dataset, splits)
    pipeline = result.pipeline_stats or {}
    memory = result.memory_stats or {}
    metrics.update({
        "scidata.generate_s": rec.total("scidata.generate"),
        "scidata.split_s": rec.total("scidata.split"),
        "queries.build_job_s": rec.total("queries.build_job"),
        "shuffle.fetches": result.counters.get(C.SHUFFLE_FETCHES),
        "shuffle.retries": result.counters.get(C.SHUFFLE_RETRIES),
        "shuffle.failed_fetches":
            result.counters.get(C.SHUFFLE_FAILED_FETCHES),
        "shuffle.wire_bytes": result.counters.get(C.SHUFFLE_WIRE_BYTES),
        "pipeline.first_fetch_ms":
            pipeline.get(C.REDUCE_FIRST_FETCH_MS) or 0.0,
        "pipeline.overlapped_fetches": pipeline.get(C.PIPELINE_OVERLAP, 0),
        "pipeline.wait_s": pipeline.get("wait_seconds", 0.0),
        "aggregation.key_splits": result.counters.get(C.KEY_SPLITS),
        # what the spans themselves cost: the pass's span count times
        # the measured cost of one empty span
        "trace.overhead_s": len(rec.spans) * span_cost(),
    })
    metrics["memory.peak_bytes"] = max(metrics["memory.peak_bytes"],
                                       memory.get("peak_bytes", 0))
    metrics.update(scheduler_stats(result.trace))
    metrics.update(shares(w, rec, metrics, untraced_job_s))
    return {
        "metrics": metrics,
        "task_counts": exact_counts(task_counters),
        "run_counts": exact_counts(result.counters),
        "task_digest": output_digest(task_output),
        "run_digest": output_digest(result.output),
        "recorder": rec,
    }
