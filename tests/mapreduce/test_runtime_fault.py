"""Fault-injection coverage for the parallel task runtime.

Each test breaks the runtime in one specific way and asserts two
things: the job still completes with results byte-identical to a clean
serial run, and the trace shows the scheduler took the intended
recovery path (retry, speculation, or segment repair).
"""

import glob
import os

import pytest

from repro.mapreduce import FaultInjector, LocalJobRunner, ParallelJobRunner
from repro.mapreduce.runtime import TaskFailedError
from repro.mapreduce.runtime.fault import Fault
from repro.scidata import integer_grid
from tests.mapreduce.test_engine import make_job


@pytest.fixture
def grid():
    return integer_grid((8, 8), seed=11, low=0, high=100)


@pytest.fixture
def serial(grid):
    return LocalJobRunner().run(make_job(num_map_tasks=4, num_reducers=2), grid)


def run_parallel(grid, injector, tmp_path, **runner_kwargs):
    runner_kwargs.setdefault("max_workers", 2)
    runner_kwargs.setdefault("retry_backoff", 0.01)
    runner = ParallelJobRunner(workdir=str(tmp_path), fault_injector=injector,
                               **runner_kwargs)
    result = runner.run(make_job(num_map_tasks=4, num_reducers=2), grid)
    return result


class TestKill:
    def test_killed_map_worker_is_retried(self, grid, serial, tmp_path):
        """A worker dying abruptly (no result, no traceback) is retried
        and the job completes with correct, byte-identical output."""
        result = run_parallel(grid, FaultInjector().kill("m00001"), tmp_path)
        assert result.counters == serial.counters
        assert result.output == serial.output
        assert result.trace.count("retried") == 1
        assert result.trace.attempts("m00001") == 2

    def test_killed_reduce_worker_is_retried(self, grid, serial, tmp_path):
        result = run_parallel(grid, FaultInjector().kill("r00001"), tmp_path)
        assert result.counters == serial.counters
        assert result.output == serial.output
        assert result.trace.attempts("r00001") == 2

    def test_multiple_kills_across_phases(self, grid, serial, tmp_path):
        injector = FaultInjector().kill("m00000").kill("m00002").kill("r00000")
        result = run_parallel(grid, injector, tmp_path)
        assert result.counters == serial.counters
        assert result.output == serial.output
        assert result.trace.count("retried") == 3


class TestCrash:
    def test_crashing_task_is_retried(self, grid, serial, tmp_path):
        result = run_parallel(grid, FaultInjector().crash("m00003"), tmp_path)
        assert result.counters == serial.counters
        assert result.output == serial.output
        failed = [e for e in result.trace.events if e.event == "failed"]
        assert any("injected crash" in e.detail for e in failed)

    def test_retry_budget_exhaustion_fails_the_job(self, grid, tmp_path):
        injector = (FaultInjector()
                    .crash("m00001", attempt=0)
                    .crash("m00001", attempt=1)
                    .crash("m00001", attempt=2))
        with pytest.raises(TaskFailedError, match="m00001"):
            run_parallel(grid, injector, tmp_path, max_retries=2,
                         speculation=False)

    def test_job_survives_up_to_retry_budget(self, grid, serial, tmp_path):
        injector = FaultInjector().crash("m00001", attempt=0).crash(
            "m00001", attempt=1)
        result = run_parallel(grid, injector, tmp_path, max_retries=2)
        assert result.counters == serial.counters
        assert result.trace.attempts("m00001") == 3


class TestCorruptSegment:
    def test_corrupt_map_output_repaired_via_reexecution(
            self, grid, serial, tmp_path):
        """Silent map output corruption surfaces as a reducer checksum
        failure; the producing map is re-executed in place and the
        reduce retry succeeds (Hadoop's fetch-failure protocol)."""
        result = run_parallel(grid, FaultInjector().corrupt("m00002"), tmp_path)
        assert result.counters == serial.counters
        assert result.output == serial.output
        assert result.trace.count("repaired") == 1
        failed = [e for e in result.trace.events if e.event == "failed"]
        assert any("checksum" in e.detail for e in failed)
        repaired = [e for e in result.trace.events if e.event == "repaired"]
        assert repaired[0].task_id == "m00002"

    def test_repair_is_uncharged_on_both_runners(
            self, grid, serial, tmp_path):
        """A segment repair spends no retry budget: with
        ``max_retries=0`` both runners still repair and finish
        byte-identical to the clean serial run."""
        job = make_job(num_map_tasks=4, num_reducers=2)
        inline = LocalJobRunner(
            fault_injector=FaultInjector().corrupt("m00002")).run(job, grid)
        parallel = run_parallel(grid, FaultInjector().corrupt("m00002"),
                                tmp_path, max_retries=0)
        for result in (inline, parallel):
            assert result.output == serial.output
            assert result.counters == serial.counters
        assert parallel.trace.count("repaired") == 1
        assert parallel.trace.count("retried") == 1


class TestSpeculation:
    def test_straggler_triggers_speculative_execution(
            self, grid, serial, tmp_path):
        """A hanging task exceeds the straggler threshold, a duplicate
        attempt launches, wins, and the loser's output is discarded."""
        injector = FaultInjector().hang("m00003", seconds=20.0)
        result = run_parallel(
            grid, injector, tmp_path, max_workers=4,
            straggler_factor=2.0, min_straggler_seconds=0.2,
            speculation_min_completed=1)
        assert result.counters == serial.counters
        assert result.output == serial.output
        assert result.trace.count("speculated") == 1
        assert result.trace.count("killed") == 1
        assert result.trace.count("discarded") >= 1
        spec_events = [e for e in result.trace.events if e.event == "speculated"]
        assert spec_events[0].task_id == "m00003"
        # the whole job finished long before the 20s hang would have
        assert result.trace.wall_clock < 10.0

    def test_no_speculation_when_disabled(self, grid, serial, tmp_path):
        injector = FaultInjector().hang("m00003", seconds=0.5)
        result = run_parallel(
            grid, injector, tmp_path, max_workers=4, speculation=False)
        assert result.trace.count("speculated") == 0
        assert result.counters == serial.counters


class TestNoLeaks:
    def test_faulty_runs_leak_no_directories(self, grid, tmp_path):
        before = set(glob.glob("/tmp/repro-mr*"))
        injector = (FaultInjector().kill("m00000").crash("r00000")
                    .corrupt("m00001"))
        runner = ParallelJobRunner(workdir=str(tmp_path),
                                   fault_injector=injector,
                                   max_workers=2, retry_backoff=0.01)
        runner.run(make_job(num_map_tasks=4, num_reducers=2), grid)
        # the caller-supplied workdir survives, but holds no debris
        assert os.listdir(tmp_path) == []
        assert set(glob.glob("/tmp/repro-mr*")) == before


class TestFaultValidation:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            Fault("explode")

    def test_duplicate_fault_rejected(self):
        injector = FaultInjector().kill("m00000")
        with pytest.raises(ValueError):
            injector.crash("m00000", attempt=0)

    def test_lookup(self):
        injector = FaultInjector().hang("m00001", seconds=2.0, attempt=1)
        assert injector.fault_for("m00001", 0) is None
        fault = injector.fault_for("m00001", 1)
        assert fault.mode == "hang" and fault.seconds == 2.0
        assert len(injector) == 1
