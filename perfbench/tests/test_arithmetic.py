"""The benchmark's own arithmetic: self time, layer shares, summary
statistics, seeding.

    python3 -m pytest perfbench/tests -q
"""

import os
import statistics
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.spans import (  # noqa: E402
    Span, SpanRecorder, self_times, union_length)
from perfbench.stats import median, quartiles, tail_percentile  # noqa: E402
from perfbench.tracepass import shares  # noqa: E402
from perfbench.workloads import WORKLOADS, generate  # noqa: E402


def _span(i, start, end, parent=None):
    return Span(i, f"s{i}", start, end, parent, "job")


def test_union_length_merges_overlaps_and_skips_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3)]) == 3.0
    assert union_length([(0, 4), (1, 2), (3, 4)]) == 4.0
    assert union_length([(5, 5), (1, 0)]) == 0.0


def test_self_time_subtracts_overlapping_children_once():
    spans = [_span(0, 0.0, 10.0),
             _span(1, 1.0, 4.0, parent=0),
             _span(2, 3.0, 6.0, parent=0),   # overlaps span 1 on [3, 4]
             _span(3, 8.0, 9.0, parent=0)]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 + 1.0))
    assert own[1] == pytest.approx(3.0)


def test_self_time_counts_only_direct_children_of_nested_spans():
    spans = [_span(0, 0.0, 10.0),
             _span(1, 2.0, 8.0, parent=0),
             _span(2, 3.0, 5.0, parent=1)]
    own = self_times(spans)
    assert own[0] == pytest.approx(4.0)
    assert own[1] == pytest.approx(4.0)
    assert own[2] == pytest.approx(2.0)


def test_self_time_clips_a_child_that_outlives_its_parent():
    own = self_times([_span(0, 0.0, 2.0), _span(1, 1.0, 5.0, parent=0)])
    assert own[0] == pytest.approx(1.0)


def test_recorder_nests_spans_by_with_blocks():
    rec = SpanRecorder("job-1")
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        with rec.span("inner"):
            pass
    outer = next(s for s in rec.spans if s.name == "outer")
    inners = [s for s in rec.spans if s.name == "inner"]
    assert len(inners) == 2
    assert all(s.parent == outer.id and s.job == "job-1" for s in inners)
    assert outer.parent is None
    assert rec.self_total("outer") == pytest.approx(
        outer.duration - sum(s.duration for s in inners))


def _recorder(durations):
    rec = SpanRecorder("job")
    rec.spans = [Span(i, name, 0.0, d, None, "job")
                 for i, (name, d) in enumerate(durations.items())]
    return rec


def test_shares_divide_by_job_s_and_zero_bypassed_layers():
    rec = _recorder({"codecs.fastpred_zlib.compress": 0.3,
                     "codecs.fastpred_zlib.decompress": 0.1,
                     "stride.forward": 0.2, "stride.inverse": 0.1,
                     "sfc.encode": 0.05, "sfc.decode": 0.05,
                     "runner.run": 4.0})
    metrics = {"aggregation.aggregate_s": 0.1, "aggregation.route_s": 0.1,
               "aggregation.split_s": 0.1, "aggregation.expand_s": 0.1,
               "engine.map.map_s": 0.3, "engine.map.sort_s": 0.1,
               "engine.map.combine_s": 0.1, "scheduler.task_busy_s": 1.6}
    wire = shares(WORKLOADS["wire-median"], rec, metrics, job_s=2.0)
    assert wire["share.wire_codec"] == pytest.approx(0.2)
    assert wire["share.stride"] == pytest.approx(0.15)
    assert wire["share.map_sort_combine"] == pytest.approx(0.25)
    # busy time over the traced run's own wall clock, 2 workers
    assert wire["share.scheduler_occupancy"] == pytest.approx(0.2)
    assert wire["share.aggregation"] == wire["share.sfc"] == 0.0
    agg = shares(WORKLOADS["agg-median"], rec, metrics, job_s=2.0)
    assert agg["share.aggregation"] == pytest.approx(0.2)
    assert agg["share.sfc"] == pytest.approx(0.05)
    assert agg["share.stride"] == agg["share.scheduler_occupancy"] == 0.0
    # agg-median's wire codec is null, whose spans this recorder lacks
    assert agg["share.wire_codec"] == 0.0


def test_median_and_quartiles_match_statistics():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    assert median(values) == statistics.median(values)
    q1, q2, q3 = quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
    with pytest.raises(ValueError):
        median([])


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(19))) is None
    # 20 samples: the median (rank 10) leaves exactly 10 beyond it
    assert tail_percentile(list(range(1, 21))) == (50.0, 10.0)
    # 100 samples: p90 (rank 90) leaves 10, p95 only 5
    assert tail_percentile(list(range(1, 101))) == (90.0, 90.0)
    # 1000 samples: p99 (rank 990) leaves 10, p99.9 only 1
    assert tail_percentile(list(range(1, 1001))) == (99.0, 990.0)
    # order of the input does not matter
    assert tail_percentile(list(range(100, 0, -1))) == (90.0, 90.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_dataset_other_seed_other_dataset(name):
    w = WORKLOADS[name]

    def data(seed):
        return generate(w, seed)[w.field].data

    first, again, other = data(7), data(7), data(8)
    assert first.tobytes() == again.tobytes()
    assert first.shape == other.shape and first.dtype == other.dtype
    assert not np.array_equal(first, other)
