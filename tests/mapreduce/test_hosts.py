"""Host failure domains: the health state machine and its helpers.

Property-style pins on the transition rules (the thresholds are looped
over, not spot-checked):

* SUSPECT -> DEAD requires *both* kinds of evidence -- missed
  heartbeats AND fetch strikes; strikes against a heartbeating host
  never kill it (partition-vs-death rule), and silence alone never
  does either;
* blacklisting benches a host, probation reinstates it after the
  configured number of clean attempts, and a failure during probation
  re-benches it with a grown (capped) backoff;
* the recovery policy bounds cascade re-execution at
  ``max_host_reexecs`` completed maps per lost host;
* placement prefers the stable-hash home host and rebalances around
  unusable hosts in ring order;
* ``expand_host_partition`` rewrites a partition into deterministic,
  idempotent per-link fetch drops;
* ``provision_failover_workdir`` quarantines the primary and drops a
  deterministic, path-free side-file (the byte-identical artifact the
  R5 harness compares between runners).
"""

import errno
import json
import os

import pytest

from repro.mapreduce.runtime.fault import Fault, FaultInjector
from repro.mapreduce.runtime.hosts import (
    DISK_MARKER,
    HostHealthMonitor,
    HostRegistry,
    expand_host_partition,
    host_for,
    provision_failover_workdir,
)
from repro.mapreduce.runtime.policy import FAIL, REEXEC, RecoveryPolicy


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


def make_monitor(num_hosts: int = 3, **kwargs) -> tuple[HostHealthMonitor,
                                                        FakeClock]:
    clock = FakeClock()
    kwargs.setdefault("clock", clock)
    return HostHealthMonitor(HostRegistry(num_hosts), **kwargs), clock


class TestHostFor:
    def test_stable_and_in_range(self):
        for n in (1, 2, 3, 7):
            for i in range(20):
                host = host_for(f"m{i:05d}", n)
                assert host == host_for(f"m{i:05d}", n)
                assert host in HostRegistry(n).names()

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError, match="num_hosts"):
            host_for("m00000", 0)


class TestSuspectDeadRule:
    @pytest.mark.parametrize("misses", [1, 2, 4])
    @pytest.mark.parametrize("strikes", [1, 2, 4])
    def test_dead_requires_both_evidence_kinds(self, misses, strikes):
        """DEAD needs silence (SUSPECT) *and* unfetchability, in order."""
        monitor, _ = make_monitor(suspect_heartbeat_misses=misses,
                                  dead_fetch_strikes=strikes)
        # Strikes alone, however many: the host keeps heartbeating and
        # must never die (a partition looks exactly like this).
        for _ in range(strikes * 3):
            monitor.record_fetch_strike("host0")
        assert monitor.registry.get("host0").state == "ALIVE"
        # Silence alone, however long: SUSPECT at the threshold, never
        # DEAD (dead needs the fetch evidence too).
        for _ in range(misses * 3):
            monitor.record_missed_heartbeat("host1")
        assert monitor.registry.get("host1").state == "SUSPECT"
        # Both: silence to SUSPECT, then strikes to the dead threshold.
        for _ in range(misses):
            monitor.record_missed_heartbeat("host2")
        assert monitor.registry.get("host2").state == "SUSPECT"
        for _ in range(strikes):
            monitor.record_fetch_strike("host2")
        assert monitor.registry.get("host2").state == "DEAD"
        assert monitor.hosts_lost == 1
        assert monitor.take_newly_dead() == ["host2"]
        assert monitor.take_newly_dead() == []  # drained exactly once

    def test_heartbeat_clears_suspicion_but_not_strikes(self):
        monitor, _ = make_monitor(suspect_heartbeat_misses=2,
                                  dead_fetch_strikes=3)
        for _ in range(2):
            monitor.record_missed_heartbeat("host0")
        monitor.record_fetch_strike("host0")
        monitor.record_fetch_strike("host0")
        monitor.record_heartbeat("host0")
        assert monitor.registry.get("host0").state == "ALIVE"
        # The strike budget did not refresh: going silent again, one
        # more strike finishes the job.
        for _ in range(2):
            monitor.record_missed_heartbeat("host0")
        monitor.record_fetch_strike("host0")
        assert monitor.registry.get("host0").state == "DEAD"

    def test_pre_suspect_strikes_count_once_suspect(self):
        monitor, _ = make_monitor(suspect_heartbeat_misses=2,
                                  dead_fetch_strikes=2)
        monitor.record_fetch_strike("host0")
        monitor.record_missed_heartbeat("host0")
        monitor.record_missed_heartbeat("host0")
        monitor.record_fetch_strike("host0")
        assert monitor.registry.get("host0").state == "DEAD"


class TestBlacklistProbation:
    @pytest.mark.parametrize("failures", [1, 3])
    @pytest.mark.parametrize("clean", [1, 2, 3])
    def test_probation_reinstates_after_clean_attempts(self, failures,
                                                       clean):
        monitor, clock = make_monitor(
            blacklist_failures=failures, probation_clean_attempts=clean,
            reinstate_backoff=0.5, reinstate_backoff_max=4.0)
        for _ in range(failures):
            monitor.record_task_failure("host0", "boom")
        h = monitor.registry.get("host0")
        assert h.state == "BLACKLISTED"
        assert not monitor.placeable("host0")  # benched
        # Successes during the bench are ignored -- probation has not
        # started yet.
        monitor.record_task_success("host0")
        assert h.state == "BLACKLISTED"
        clock.now = h.blacklist_until + 0.01
        assert monitor.placeable("host0")  # probation work allowed
        for i in range(clean):
            assert h.state == "BLACKLISTED"
            monitor.record_task_success("host0")
        assert h.state == "ALIVE"
        assert h.task_failures == 0

    def test_probation_failure_rebenches_with_grown_backoff(self):
        monitor, clock = make_monitor(
            blacklist_failures=2, probation_clean_attempts=2,
            reinstate_backoff=0.5, reinstate_backoff_max=60.0)
        monitor.record_task_failure("host0", "a")
        monitor.record_task_failure("host0", "b")
        h = monitor.registry.get("host0")
        first_bench = h.blacklist_until - clock.now
        assert h.blacklist_count == 1
        clock.now = h.blacklist_until + 0.01
        monitor.record_task_success("host0")
        monitor.record_task_failure("host0", "relapse")
        assert h.state == "BLACKLISTED"
        assert h.blacklist_count == 2
        assert h.probation_successes == 0
        second_bench = h.blacklist_until - clock.now
        assert second_bench > first_bench  # capped-exponential growth

    def test_success_resets_failure_streak(self):
        monitor, _ = make_monitor(blacklist_failures=3)
        for _ in range(5):
            monitor.record_task_failure("host0", "flaky")
            monitor.record_task_success("host0")
        assert monitor.registry.get("host0").state == "ALIVE"


class TestReexecBudget:
    """The per-host re-execution budget lives in the recovery policy."""

    @pytest.mark.parametrize("budget", [0, 1, 3])
    def test_budget_bounds_cascade(self, budget):
        policy = RecoveryPolicy(max_host_reexecs=budget)
        lost = [f"m{i:05d}" for i in range(budget + 1)]
        decision = policy.on_host_dead("host0", lost)
        assert decision.action == FAIL
        assert "max_host_reexecs" in decision.detail
        assert policy.host_reexecs == budget + 1
        at_line = RecoveryPolicy(max_host_reexecs=budget)
        decision = at_line.on_host_dead("host0", lost[:budget])
        assert decision.action == REEXEC
        assert decision.reexec == tuple(lost[:budget])

    def test_budget_is_per_host(self):
        policy = RecoveryPolicy(max_host_reexecs=2)
        assert policy.on_host_dead("host0", ["m0", "m1"]).action == REEXEC
        # a fresh budget per host
        assert policy.on_host_dead("host1", ["m2", "m3"]).action == REEXEC
        assert policy.host_reexecs == 4
        assert policy.hosts_lost == 2


class TestPlacement:
    def test_home_host_wins_when_usable(self):
        monitor, _ = make_monitor(num_hosts=3)
        for i in range(12):
            task = f"m{i:05d}"
            assert monitor.place(task) == host_for(task, 3)

    def test_dead_host_rebalances_in_ring_order(self):
        monitor, _ = make_monitor(num_hosts=3)
        task = "m00000"
        home = host_for(task, 3)
        monitor.declare_dead(home, "test")
        placed = monitor.place(task)
        names = monitor.registry.names()
        assert placed == names[(names.index(home) + 1) % 3]

    def test_fully_dead_fleet_falls_back_to_home(self):
        monitor, _ = make_monitor(num_hosts=2)
        monitor.declare_dead("host0", "test")
        monitor.declare_dead("host1", "test")
        assert monitor.place("m00000") == host_for("m00000", 2)


class TestExpandHostPartition:
    def test_deterministic_and_idempotent(self):
        map_ids = [f"m{i:05d}" for i in range(4)]
        reduce_ids = ["r00000", "r00001"]
        host = host_for("m00000", 3)
        mine = [m for m in map_ids if host_for(m, 3) == host]
        a, b = FaultInjector(), FaultInjector()
        added_a = expand_host_partition(a, host, map_ids, reduce_ids, 3, 2)
        added_b = expand_host_partition(b, host, map_ids, reduce_ids, 3, 2)
        assert added_a == added_b == len(mine) * len(reduce_ids) * 2
        assert a.fetch_plan() == b.fetch_plan()
        # Re-expansion (both runners prepare the same injector) is a
        # no-op, not a double plan.
        assert expand_host_partition(a, host, map_ids, reduce_ids, 3, 2) == 0

    def test_only_links_out_of_the_host_drop(self):
        map_ids = [f"m{i:05d}" for i in range(4)]
        host = host_for("m00000", 3)
        inj = FaultInjector()
        expand_host_partition(inj, host, map_ids, ["r00000"], 3, 2)
        plan = inj.fetch_plan()
        assert plan  # the host holds at least m00000
        for key, faults in plan.items():
            map_id = key.split("->")[0]
            assert host_for(map_id, 3) == host
            assert [f.attempt for f in faults] == [0, 1]
            assert all(f.op == "drop" and f.epoch is None for f in faults)


class TestDiskFailover:
    def fault(self, op="enospc"):
        return Fault("disk_fault", op=op)

    def test_provisions_spare_and_quarantines_primary(self, tmp_path):
        primary = str(tmp_path / "work")
        os.makedirs(primary)
        spare = provision_failover_workdir(primary, "m00001", "host2",
                                           self.fault())
        assert spare == os.path.join(primary, "spare")
        assert os.path.isdir(spare)
        marker = os.path.join(primary, DISK_MARKER)
        with open(marker, encoding="utf-8") as fh:
            note = json.load(fh)
        assert note["error"] == errno.errorcode[errno.ENOSPC]
        assert note["host"] == "host2"

    @pytest.mark.parametrize("op,code", [("enospc", errno.ENOSPC),
                                         ("eio", errno.EIO)])
    def test_side_file_is_deterministic_and_path_free(self, tmp_path,
                                                      monkeypatch, op,
                                                      code):
        qdir = str(tmp_path / "quarantine")
        monkeypatch.setenv("REPRO_QUARANTINE_DIR", qdir)
        for workdir in ("a", "b"):  # different primaries, same side-file
            primary = str(tmp_path / workdir)
            os.makedirs(primary)
            provision_failover_workdir(primary, "m00001", "host2",
                                       self.fault(op))
        side = os.path.join(qdir, "m00001-disk.json")
        with open(side, encoding="utf-8") as fh:
            record = json.loads(fh.read())
        assert record == {"error": errno.errorcode[code], "host": "host2",
                          "task_id": "m00001"}

    def test_idempotent_for_rival_attempts(self, tmp_path):
        primary = str(tmp_path / "work")
        os.makedirs(primary)
        first = provision_failover_workdir(primary, "r00000", "host1",
                                           self.fault("eio"))
        second = provision_failover_workdir(primary, "r00000", "host1",
                                            self.fault("eio"))
        assert first == second
