"""The recovery policy on its own: no processes, files or clocks.

Property tests drive :class:`RecoveryPolicy` with hypothesis-drawn event
sequences -- attempt failures of every kind, fetch strikes, host deaths
and wins -- replayed cyclically so a world that never lets a task win
keeps failing it.  Whatever the sequence, the policy must end in "every
task won" or in exactly one ``fail`` within a bounded number of
decisions, and never exceed one of its bounds on the way.  A failing
sequence shrinks to a minimal reproducer.
"""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.mapreduce.ifile import IFileBlockCorruptError, IFileCorruptError
from repro.mapreduce.job import SkipPolicy
from repro.mapreduce.runtime.fault import PoisonRecordError
from repro.mapreduce.runtime.hosts import host_for
from repro.mapreduce.runtime.memory import MemoryBudgetExceeded
from repro.mapreduce.runtime.policy import (
    CORRUPT,
    FAIL,
    FETCH,
    OOM,
    OTHER,
    REEXEC,
    REQUEUE,
    RETRY,
    SKIP,
    WAIT,
    Failure,
    RecoveryPolicy,
    classify,
    degraded,
)
from repro.mapreduce.runtime.shuffle import FetchFailedError, ShuffleConfig
from tests.mapreduce.test_engine import make_job

KINDS = (OOM, FETCH, CORRUPT, SKIP, OTHER)


def failure(kind: str, map_id: str) -> Failure:
    if kind == FETCH:
        return Failure(FETCH, "fetch", map_id=map_id)
    if kind == CORRUPT:
        return Failure(CORRUPT, "crc", map_id=map_id,
                       path=f"/w/{map_id}-out-p0")
    return Failure(kind, kind)


@st.composite
def worlds(draw):
    bounds = dict(
        max_retries=draw(st.integers(0, 3)),
        fetch_failure_threshold=draw(st.integers(1, 3)),
        max_map_reexecs=draw(st.integers(0, 2)),
        max_memory_retries=draw(st.integers(0, 2)),
        max_host_reexecs=draw(st.integers(0, 3)),
    )
    maps = [f"m{i:05d}" for i in range(draw(st.integers(1, 4)))]
    reduces = [f"r{i:05d}" for i in range(draw(st.integers(1, 3)))]
    num_hosts = draw(st.integers(1, 3))
    tasks = maps + reduces
    event = st.one_of(
        st.tuples(st.just("fail"), st.sampled_from(tasks),
                  st.sampled_from(KINDS), st.sampled_from(maps)),
        st.tuples(st.just("won"), st.sampled_from(tasks)),
        st.tuples(st.just("host"), st.integers(0, num_hosts - 1),
                  st.booleans()),
    )
    events = draw(st.lists(event, min_size=1, max_size=30))
    return bounds, maps, tasks, num_hosts, events


def decision_bound(bounds, maps, tasks, num_hosts) -> int:
    """Most decisions any event sequence can draw before the end."""
    per_task = (bounds["max_retries"] + 1 + bounds["max_memory_retries"] + 1
                + 1 + len(maps) + 1)
    per_map = bounds["fetch_failure_threshold"] * (
        bounds["max_map_reexecs"] + 1)
    return len(tasks) * per_task + len(maps) * per_map + num_hosts


def replay(bounds, maps, tasks, num_hosts, events):
    """Feed ``events`` to a fresh policy, cyclically, until every task
    won or the policy fails; checks every bound after each decision."""
    policy = RecoveryPolicy(**bounds)
    won: set[str] = set()
    dead: set[str] = set()
    retries, skips, repairs, host_maps = Counter(), Counter(), Counter(), \
        Counter()
    decisions = []
    limit = decision_bound(bounds, maps, tasks, num_hosts)
    stream = itertools.cycle(events)
    idle = 0  # consecutive events that no longer apply
    while len(won) < len(tasks) and len(decisions) <= limit:
        if idle > len(events):
            # Nothing left in the cycle applies: the rest win in order.
            task = next(t for t in tasks if t not in won)
            event = ("won", task)
        else:
            event = next(stream)
        if event[0] == "won":
            if event[1] in won:
                idle += 1
                continue
            policy.on_won(event[1])
            won.add(event[1])
            idle = 0
            continue
        if event[0] == "host":
            host = f"host{event[1]}"
            if host in dead:
                idle += 1
                continue
            dead.add(host)
            lost = [m for m in maps if host_for(m, num_hosts) == host]
            decision = policy.on_host_dead(host, lost, charge_maps=event[2])
            if decision.action == REEXEC:
                host_maps[host] += len(decision.reexec)
        else:
            _, task, kind, map_id = event
            if task in won:
                idle += 1
                continue
            decision = policy.on_failure(task, failure(kind, map_id))
            retries[task] += decision.action == RETRY
            skips[task] += decision.skip
            repairs[task] += decision.repair is not None
            assert decision.degrade <= bounds["max_memory_retries"]
            assert decision.action in (RETRY, REQUEUE, FAIL)
        idle = 0
        decisions.append(decision)
        assert all(n <= bounds["max_retries"] for n in retries.values())
        assert all(n <= 1 for n in skips.values())
        assert all(n <= len(maps) for n in repairs.values())
        assert all(policy.map_reexecs(m) <= bounds["max_map_reexecs"]
                   for m in maps)
        assert all(n <= bounds["max_host_reexecs"]
                   for n in host_maps.values())
        if decision.action == FAIL:
            break
    return policy, won, decisions, limit


class TestPolicyProperties:
    @settings(max_examples=300, deadline=None)
    @given(worlds())
    def test_terminates_within_bounds(self, world):
        bounds, maps, tasks, num_hosts, events = world
        policy, won, decisions, limit = replay(*world)
        fails = [d for d in decisions if d.action == FAIL]
        assert len(decisions) <= limit
        assert len(fails) <= 1
        if fails:
            assert decisions[-1] is fails[0]
        else:
            assert won == set(tasks) == policy.won

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 3), st.sampled_from(KINDS))
    def test_a_never_winning_task_fails_exactly_once(self, retries, kind):
        policy = RecoveryPolicy(max_retries=retries)
        outcomes = []
        for _ in range(100):
            decision = policy.on_failure("r00000", failure(kind, "m00000"))
            outcomes.append(decision.action)
            if decision.action == FAIL:
                break
        assert outcomes[-1] == FAIL
        assert outcomes.count(RETRY) <= retries


class TestDecisions:
    def test_skip_and_repair_are_uncharged_once(self):
        policy = RecoveryPolicy(max_retries=0)
        skip = policy.on_failure("r0", Failure(SKIP, "poison"))
        assert (skip.action, skip.skip) == (REQUEUE, True)
        assert policy.skip_mode("r0")
        repair = policy.on_failure("r0", failure(CORRUPT, "m1"))
        assert repair.action == REQUEUE
        assert repair.repair == "/w/m1-out-p0"
        # each only once: the second time is a charged failure
        assert policy.on_failure("r0", failure(CORRUPT, "m1")).action == FAIL

    def test_repairs_bounded_per_producing_map(self):
        policy = RecoveryPolicy(max_retries=0)
        for m in ("m0", "m1", "m2"):
            assert policy.on_failure("r0", failure(CORRUPT, m)).repair
        assert policy.on_failure("r1", failure(CORRUPT, "m0")).repair

    def test_fetch_strikes_escalate_to_one_reexec(self):
        policy = RecoveryPolicy(fetch_failure_threshold=2, max_map_reexecs=1)
        first = policy.on_failure("r0", failure(FETCH, "m3"))
        assert (first.action, first.reexec) == (REQUEUE, ())
        second = policy.on_failure("r1", failure(FETCH, "m3"))
        assert second.reexec == ("m3",)
        assert policy.map_reexecs("m3") == 1 and policy.maps_reexecuted == 1
        policy.on_failure("r0", failure(FETCH, "m3"))
        exhausted = policy.on_failure("r0", failure(FETCH, "m3"))
        assert (exhausted.action, exhausted.task_id) == (FAIL, "m3")
        assert "unfetchable" in exhausted.detail

    def test_oom_degrades_then_fails(self):
        policy = RecoveryPolicy(max_retries=5, max_memory_retries=2)
        levels = [policy.on_failure("m0", Failure(OOM, "oom")).degrade
                  for _ in range(2)]
        assert levels == [1, 2] and policy.degrade_level("m0") == 2
        final = policy.on_failure("m0", Failure(OOM, "oom"))
        assert final.action == FAIL
        assert "exhausted 2 memory retries" in final.detail
        assert policy.oom_events == 2

    def test_covered_failure_waits_for_the_rival(self):
        policy = RecoveryPolicy(max_retries=0)
        assert policy.on_failure(
            "m0", Failure(OTHER, "x"), covered=True).action == WAIT
        assert policy.on_failure("m0", Failure(OTHER, "x")).action == FAIL

    def test_charged_retry_note(self):
        policy = RecoveryPolicy(max_retries=1)
        retry = policy.on_failure("m0", Failure(OTHER, "x"))
        assert retry.retry_note(0.5) == "backoff 0.500s"
        oom = policy.on_failure("m0", Failure(OOM, "x"))
        assert oom.retry_note(0.25) == (
            "oom, backoff 0.250s (retry budget uncharged)")

    def test_mid_wave_host_death_charges_map_reexecs(self):
        policy = RecoveryPolicy(max_map_reexecs=0, max_host_reexecs=5)
        decision = policy.on_host_dead("host0", ["m0"], charge_maps=True)
        assert (decision.action, decision.task_id) == (FAIL, "m0")
        barrier = RecoveryPolicy(max_map_reexecs=0, max_host_reexecs=5)
        assert barrier.on_host_dead("host0", ["m0"]).reexec == ("m0",)
        assert barrier.maps_reexecuted == 0 and barrier.host_reexecs == 1

    def test_rejects_negative_bounds(self):
        with pytest.raises(ValueError, match="fetch_failure_threshold"):
            RecoveryPolicy(fetch_failure_threshold=0)
        with pytest.raises(ValueError, match="max_retries"):
            RecoveryPolicy(max_retries=-1)


class TestClassify:
    def test_kinds(self):
        job = make_job()
        skipping = make_job(skipping=SkipPolicy())
        assert classify(MemoryBudgetExceeded("over"), skipping).kind == OOM
        fetch = classify(FetchFailedError("m00001", "r00000", 3, "drop"), job)
        assert (fetch.kind, fetch.map_id) == (FETCH, "m00001")
        corrupt = classify(IFileCorruptError("crc", path="/d/m00002-out-p1"),
                           job)
        assert (corrupt.kind, corrupt.map_id) == (CORRUPT, "m00002")
        assert classify(IFileCorruptError("crc"), job).kind == OTHER
        # a damaged spill is not a map output segment a re-run can repair
        assert classify(IFileCorruptError("crc", path="/d/m00002-spill0-p1"),
                        job).kind == OTHER
        assert classify(PoisonRecordError("p"), job).kind == OTHER
        assert classify(PoisonRecordError("p"), skipping).kind == SKIP
        # block-local damage under a skip policy is skipping's to salvage
        block = IFileBlockCorruptError("crc", block_index=1)
        block.path = "/d/m00002-out-p1"
        assert classify(block, skipping).kind == SKIP
        assert classify(ValueError("bad"), job).detail == "ValueError: bad"


class TestDegraded:
    def test_level_zero_is_identity(self):
        job, shuffle = make_job(), ShuffleConfig(max_inflight_bytes=4096)
        assert degraded(job, shuffle, 0) == (job, shuffle)

    def test_halves_buffer_and_window_with_floors(self):
        job = make_job(sort_buffer_bytes=8192)
        shuffle = ShuffleConfig(max_inflight_bytes=4096)
        small_job, small_shuffle = degraded(job, shuffle, 2)
        assert small_job.sort_buffer_bytes == 2048
        assert small_shuffle.max_inflight_bytes == 1024
        floored, _ = degraded(job, None, 10)
        assert floored.sort_buffer_bytes == 1024
        assert degraded(job, None, 1)[1] is None
