#!/usr/bin/env python3
"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload wire-median --seed 1 \
        --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.
A run has four stages; the forked ones each run in their own process
group:

1. **oracle** -- one serial job (direct transport, null wire codec,
   pipelining off) gives the reference output digest and exact counters;
2. **executor** -- after its set-up and one untimed warm-up job, a
   closed loop submits one job at a time for ``--seconds`` seconds.
   Between jobs, spread over the window, the parent makes the cold
   set-ups whose median is ``setup_s``, each in a fresh interpreter
   (``coldsetup.py``).
   Every job gets a deadline: a job past it has every process's stacks
   dumped (``faulthandler`` on SIGUSR1) into ``perfbench/out/``, its
   process group killed, and counts as failed; the loop then resumes in
   a fresh executor, until the window is over and one timed job has
   completed (within ``LOOP_BUDGET_S``);
3. **tracer** (``--trace 1``) -- the traced pass of ``tracepass.py``;
4. the parent checks every output and counter and prints one summary
   line per metric, then the result as one JSON line.

Exit code 0 means the run completed (``failed`` may still be non-zero);
1 means a counter that must repeat exactly did not, or a stage broke;
2 means bad arguments or no program to run.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import math
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

#: wall-clock budget of one job before it is declared hung (a job
#: takes about 1-2 s)
JOB_DEADLINE_S = 15.0
#: budget of the whole closed loop, restarts after hung jobs included;
#: it runs past ``--seconds`` only until one timed job has completed
LOOP_BUDGET_S = 100.0
#: pause after each process's stack dump, so dumps do not interleave
DUMP_PAUSE_S = 0.3
#: budget of the oracle job and of the traced pass
STAGE_DEADLINE_S = 90.0
#: cold set-ups per run; ``setup_s`` is their median.  One sample
#: spreads by about 20% on a shared host, and the host's speed drifts
#: over tens of seconds, so they are spread over the timed window.
SETUP_REPS = 15
#: budget of one cold set-up (one takes about 0.3 s)
SETUP_DEADLINE_S = 10.0
#: units of every end-to-end metric the run prints
E2E_UNITS = {"job_s": "s", "cpu_s": "s", "setup_s": "s",
             "peak_rss_mb": "MiB", "shuffle_bytes": "B", "wire_bytes": "B",
             "failed_frac": "ratio"}


class BenchError(RuntimeError):
    """The run cannot vouch for its numbers."""


# ------------------------------------------------------------- child stages


def _oracle(conn, wname: str, seed: int, workdir: str) -> None:
    from perfbench.workloads import (
        WORKLOADS, build_job, exact_counts, generate, make_query,
        make_splits, oracle_runner, output_digest)
    w = WORKLOADS[wname]
    dataset = generate(w, seed)
    job = build_job(w, make_query(w, dataset))
    with oracle_runner(workdir) as runner:
        result = runner.run(job, dataset, make_splits(w, dataset))
    conn.send(("oracle", {"digest": output_digest(result.output),
                          "counts": exact_counts(result.counters)}))


def _executor(conn, wname: str, seed: int, workdir: str) -> None:
    """Run jobs until the parent answers a job's sample with "stop"."""
    from perfbench.host import cpu_seconds, peak_rss_mib
    from perfbench.workloads import (
        WORKLOADS, exact_counts, output_digest, setup)
    st = setup(WORKLOADS[wname], seed, workdir)
    conn.send(("ready", None))
    with st.runner as runner:
        # the first job warms caches and lazy imports: checked, not timed
        warmup = True
        while True:
            cpu0 = cpu_seconds()
            start = time.perf_counter()
            try:
                result = runner.run(st.job, st.dataset, st.splits)
            except Exception as exc:  # a failed job is a sample, not a crash
                sample = {"error": f"{type(exc).__name__}: {exc}"}
            else:
                job_s = time.perf_counter() - start
                cpu_s = cpu_seconds() - cpu0
                sample = {"job_s": job_s, "cpu_s": cpu_s,
                          "digest": output_digest(result.output),
                          "counts": exact_counts(result.counters)}
            sample["warmup"] = warmup
            warmup = False
            conn.send(("job", sample))
            if conn.recv() == "stop":
                break
    conn.send(("done", {"peak_rss_mb": peak_rss_mib()}))


def _tracer(conn, wname: str, seed: int, workdir: str,
            untraced_job_s: float, spans_path: str) -> None:
    from perfbench.tracepass import traced_pass
    from perfbench.workloads import WORKLOADS
    out = traced_pass(WORKLOADS[wname], seed, workdir, untraced_job_s)
    out.pop("recorder").write(spans_path)
    conn.send(("trace", out))


def _child_main(target, conn, stacks_path: str, *args) -> None:
    os.setpgid(0, 0)
    # append mode: the parent writes a header before each process's dump
    with open(stacks_path, "a", encoding="utf-8") as stacks:
        # registered before the runner forks, so every worker inherits it
        faulthandler.register(signal.SIGUSR1, file=stacks, all_threads=True)
        try:
            target(conn, *args)
        except BaseException:
            conn.send(("error", traceback.format_exc()))
            raise
        finally:
            conn.close()


class Child:
    """A forked stage in its own process group, reporting over a pipe.

    The parent starts no threads, so forking it is safe.
    """

    def __init__(self, target, stacks_path: str, *args) -> None:
        self.stacks_path = stacks_path
        ctx = multiprocessing.get_context("fork")
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(target=_child_main,
                                args=(target, child_conn, stacks_path) + args)
        self.proc.start()
        child_conn.close()
        try:  # closes the race with the child's own setpgid
            os.setpgid(self.proc.pid, self.proc.pid)
        except OSError:
            pass

    def recv(self, timeout: float):
        """The next message, ``None`` past ``timeout``; EOFError if the
        stage died without one."""
        if not self.conn.poll(timeout):
            return None
        return self.conn.recv()

    def send(self, msg) -> None:
        try:
            self.conn.send(msg)
        except OSError:  # the stage died; the next recv says so
            pass

    def _signal_group(self, sig: int) -> None:
        try:
            os.killpg(self.proc.pid, sig)
        except ProcessLookupError:
            pass

    def _group_pids(self) -> list[int]:
        """Live processes of this stage's process group (Linux /proc)."""
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", encoding="utf-8") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:  # exited meanwhile
                continue
            if int(fields[2]) == self.proc.pid:
                pids.append(int(entry))
        return sorted(pids)

    def kill(self, dump_stacks: bool) -> None:
        """Stop the whole process group, dumping its stacks first."""
        if dump_stacks:
            for pid in self._group_pids():
                with open(self.stacks_path, "a", encoding="utf-8") as fh:
                    fh.write(f"\n==== pid {pid} ====\n")
                try:
                    os.kill(pid, signal.SIGUSR1)
                except ProcessLookupError:
                    continue
                time.sleep(DUMP_PAUSE_S)
        self._signal_group(signal.SIGKILL)
        self.proc.join()
        self.conn.close()

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc_info) -> None:
        # idempotent after join/kill; on an exception (SIGTERM included)
        # it stops the group the parent would otherwise leave running
        self.kill(dump_stacks=False)

    def join(self) -> None:
        self.proc.join(timeout=10.0)
        if self.proc.is_alive():
            self.kill(dump_stacks=True)
        else:
            # stray workers of a finished stage must not outlive it
            self._signal_group(signal.SIGKILL)
            self.conn.close()


def _stage(target, label: str, deadline: float, *args):
    """Run a one-message stage to completion under ``deadline``."""
    with Child(target, _stacks_path(label), *args) as child:
        try:
            msg = child.recv(deadline)
        except EOFError:
            msg = ("error", f"{label} stage died without a result")
        if msg is None:
            child.kill(dump_stacks=True)
            raise BenchError(f"{label} stage passed its {deadline:g}s "
                             f"deadline; stacks in {_stacks_path(label)}")
        child.join()
    kind, payload = msg
    if kind == "error":
        raise BenchError(f"{label} stage failed:\n{payload}")
    return payload


def _cold_setup(wname: str, seed: int, workdir: str) -> dict:
    """One cold set-up in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, ROOT]),
               TMPDIR=tempfile.gettempdir())
    try:
        done = subprocess.run(
            [sys.executable, "-m", "perfbench.coldsetup", wname, str(seed),
             os.path.join(workdir, "cold")],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=SETUP_DEADLINE_S, check=True)
    except subprocess.SubprocessError as exc:
        raise BenchError(f"cold set-up failed: {exc}") from exc
    return json.loads(done.stdout.strip().splitlines()[-1])


def _stacks_path(label: str) -> str:
    return os.path.join(OUT, f"stacks-{label}.txt")


# ------------------------------------------------------------------- a run


def run_workload(wname: str, seed: int, seconds: float, trace: bool,
                 workdir: str) -> dict:
    from perfbench.host import host_record
    from perfbench.stats import median, summarize
    from perfbench.workloads import WORKLOADS

    label = f"{wname}-seed{seed}"
    record = {"workload": wname, "shape": WORKLOADS[wname].describe(),
              "host": host_record(seed), "seconds": seconds, "trace": trace}
    oracle = _stage(_oracle, f"{label}-oracle", STAGE_DEADLINE_S, wname,
                    seed, os.path.join(workdir, "oracle"))
    probes: list[dict] = []

    jobs: list[dict] = []
    failures = {"raised": 0, "timeout": 0, "wrong_output": 0}
    peaks: list[float] = []
    loop_end = time.monotonic() + LOOP_BUDGET_S
    window_end = None  # set when the first (warm-up) job ends
    timed_ok = False  # a timed job has completed
    restarts = 0
    while True:
        stage_label = f"{label}-executor{restarts}"
        stacks = _stacks_path(stage_label)
        with Child(_executor, stacks, wname, seed,
                   os.path.join(workdir, f"executor{restarts}")) as child:
            ready = finished = False
            while True:
                try:
                    msg = child.recv(JOB_DEADLINE_S)
                except EOFError:
                    msg = ("error", "executor died without a result")
                kind, payload = msg if msg is not None else ("timeout", None)
                if kind == "ready":
                    ready = True
                elif kind == "job":
                    jobs.append(payload)
                    now = time.monotonic()
                    if window_end is None:
                        window_end = now + seconds
                    if "error" in payload:
                        failures["raised"] += 1
                    elif payload["digest"] != oracle["digest"]:
                        failures["wrong_output"] += 1
                    elif not payload["warmup"]:
                        timed_ok = True
                    # the cold set-ups run here, while the executor
                    # waits: spread over the window, they meet the host
                    # as the jobs do, and as the parent's children they
                    # stay out of the executor's CPU and RSS
                    share = 1.0 - (window_end - now) / seconds
                    while len(probes) < min(SETUP_REPS,
                                            math.ceil(SETUP_REPS * share)):
                        probes.append(_cold_setup(wname, seed, workdir))
                    stop = now >= loop_end or (timed_ok and now >= window_end)
                    child.send("stop" if stop else "more")
                elif kind == "done":
                    peaks.append(payload["peak_rss_mb"])
                    child.join()
                    finished = True
                    break
                else:  # a job passed its deadline, or the executor died
                    child.kill(dump_stacks=kind == "timeout")
                    if not ready:
                        raise BenchError(f"executor set-up failed ({kind}); "
                                         f"stacks in {stacks}:\n{payload}")
                    if kind == "timeout":
                        failures["timeout"] += 1
                        payload = (f"passed the {JOB_DEADLINE_S:g}s job "
                                   f"deadline; stacks in {stacks}")
                    else:
                        failures["raised"] += 1
                    jobs.append({"error": payload})
                    if window_end is None:
                        window_end = time.monotonic() + seconds
                    break
        if finished:
            break
        restarts += 1
        # a fresh executor continues the window; past the window it
        # still runs until one timed job has completed
        now = time.monotonic()
        if now >= loop_end or (timed_ok and now >= window_end):
            break
    while len(probes) < SETUP_REPS:  # a hung job cut the window short
        probes.append(_cold_setup(wname, seed, workdir))
    setup_times = [p["setup_s"] for p in probes]
    good = [j for j in jobs if "error" not in j]
    if not good:
        raise BenchError(f"no job of {wname} completed: {jobs[:1]}")
    counts = good[0]["counts"]
    for j in good:
        if j["counts"] != counts:
            raise BenchError(f"exact counters moved between jobs: "
                             f"{counts} vs {j['counts']}")
    for name in ("shuffle_bytes", "map_output_records", "key_splits"):
        if counts[name] != oracle["counts"][name]:
            raise BenchError(f"{name} differs from the serial oracle: "
                             f"{counts[name]} vs {oracle['counts'][name]}")

    attempted = len(jobs)
    failed = sum(failures.values())
    timed = [j for j in good
             if not j["warmup"] and j["digest"] == oracle["digest"]]
    job_times = [j["job_s"] for j in timed]
    cpu_times = [j["cpu_s"] for j in timed]
    if not job_times:
        raise BenchError(f"no timed job of {wname} completed with the "
                         f"right output")
    samples = {"job_s": job_times, "cpu_s": cpu_times,
               "setup_s": setup_times}
    e2e = {name: median(values) for name, values in samples.items()}
    e2e.update(peak_rss_mb=max(peaks) if peaks else 0.0,
               shuffle_bytes=counts["shuffle_bytes"],
               wire_bytes=counts["wire_bytes"],
               failed_frac=failed / attempted)
    record.update(oracle=oracle, failures=failures, restarts=restarts,
                  jobs=jobs, cold_setups=probes, peaks=peaks,
                  summaries={k: summarize(v) for k, v in samples.items()},
                  end_to_end=e2e)

    layers = None
    if trace:
        spans_path = os.path.join(OUT, f"spans-{label}.json")
        out = _stage(_tracer, f"{label}-tracer", STAGE_DEADLINE_S, wname,
                     seed, os.path.join(workdir, "tracer"), e2e["job_s"],
                     spans_path)
        for kind in ("task_counts", "run_counts"):
            if out[kind] != counts:
                raise BenchError(f"traced {kind} {out[kind]} differ from "
                                 f"the untraced run's {counts}")
        traced_ok = (out["task_digest"] == out["run_digest"]
                     == oracle["digest"])
        layers = out["metrics"]
        record.update(per_layer=layers, spans=spans_path,
                      traced_output_ok=traced_ok)

    record["correct"] = (failures["wrong_output"] == 0
                         and record.get("traced_output_ok", True))
    with open(os.path.join(OUT, f"run-{label}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    return {"correct": record["correct"], "attempted": attempted,
            "failed": failed, "e2e": e2e, "layers": layers,
            "summaries": record["summaries"], "host": record["host"],
            "failures": failures}


def _print_summary(wname: str, res: dict) -> None:
    host = res["host"]
    print(f"== {wname}  seed={host['seed']} nproc={host['nproc']} "
          f"loadavg={host['loadavg'][0]:.2f} "
          f"calibration={host['calibration_s']:.3f}s")
    for name, unit in E2E_UNITS.items():
        value = res["e2e"][name]
        line = f"{name:<14} {value:>14.6g} {unit:<5}"
        summary = res["summaries"].get(name)
        if summary is not None:
            tail = summary["tail"]
            line += (f" n={summary['n']} q1={summary['q1']:.6g} "
                     f"q3={summary['q3']:.6g}")
            if tail is not None:
                line += f" p{tail['p']:g}={tail['value']:.6g}"
        elif name == "failed_frac":
            line += (f" n={res['attempted']} "
                     + " ".join(f"{k}={v}" for k, v in
                                res["failures"].items()))
        print(line)
    for name, value in sorted((res["layers"] or {}).items()):
        print(f"  {name:<36} {value:>14.6g}")


def _metrics(res: dict, spec: dict, trace: bool) -> dict:
    names = spec["per_layer"] if trace else spec["end_to_end"]
    source = res["layers"] if trace else res["e2e"]
    out = {}
    for metric in names:
        if metric["name"] not in source:
            raise BenchError(f"run produced no {metric['name']}")
        out[metric["name"]] = {"value": source[metric["name"]],
                               "unit": metric["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    # SIGTERM unwinds like an exception, so every stage is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    from perfbench.workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}; "
                     f"have {sorted(WORKLOADS)} or 'all'")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    # every temp dir the program makes stays inside the checkout too
    tempfile.tempdir = workdir
    try:
        results = {}
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace),
                                         os.path.join(workdir, name))
            _print_summary(name, results[name])
        if len(names) == 1:
            metrics = _metrics(results[names[0]], spec, bool(args.trace))
        else:
            metrics = {f"{n}.{k}": v for n in names
                       for k, v in _metrics(results[n], spec,
                                            bool(args.trace)).items()}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        for path in os.listdir(OUT):
            full = os.path.join(OUT, path)
            if path.startswith("stacks-") and os.path.getsize(full) == 0:
                os.unlink(full)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
