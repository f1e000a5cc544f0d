#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the Extractocol reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads, their flags and every metric's layer are in perfbench/spec.json;
names, units, bounds and the gated workloads are in BENCHMARK.json.

--trace 0  times the real `extractocol --all` binary, untraced, over and
           over for --seconds and reports the end-to-end metrics: medians
           over those runs.  Throughput is taken over the wall time the
           run had the machine's CPUs: wall time less the time the
           hypervisor ran other guests on them (steal).  A run's set-up
           time is read off its own journal: from the spawn to the stamp
           of the first app record; SETUP_PROBES extra runs, stopped
           there, add set-up samples.
--trace 1  rebuilds the workload in-process with perfbench/trace.exe,
           which calls each layer's public function in the runner's order
           and times it, for --seconds (at least two passes), and reports
           the per-layer metrics.

Both modes check, outside the timed part: the correctness oracle
(perfbench/oracle.exe: request counts per (app, method) against the
generator spec and Table 1; concrete runtime traffic against the static
signatures), that every run's report envelope is byte-identical to the
first run's, that the traced pass rebuilds that envelope byte for byte,
and that every work counter repeats exactly across passes.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
`attempted`/`failed` count app analyses.  Exits non-zero, printing no
result, when the program cannot be built or run.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, "_build", "default")
EXE = os.path.join(BUILD, "bin", "extractocol.exe")
ORACLE = os.path.join(BUILD, "perfbench", "oracle.exe")
TRACE = os.path.join(BUILD, "perfbench", "trace.exe")

RUN_TIMEOUT_S = 120  # one binary run; the slowest takes ~10 s
MIN_RUNS = 3  # timed runs per invocation, whatever --seconds says
MIN_PASSES = 2  # traced passes: the counters must repeat across them
SETUP_PROBES = 16  # extra set-ups per invocation, on top of the timed runs


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(1)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def last_json_line(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        fail("helper printed nothing")
    return json.loads(lines[-1])


def stolen_s():
    """Seconds the hypervisor has run other guests on this machine's CPUs,
    per CPU: the steal column of /proc/stat.  0 where there is none.

    On a shared host a run stalls for whole seconds while its virtual
    CPUs wait for a physical one; that time says nothing about the
    program, and over a run it is the largest source of noise."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return 0.0
    if len(fields) < 9 or fields[0] != "cpu":
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") / os.cpu_count()


def spawn(argv, timeout=RUN_TIMEOUT_S):
    """Run argv to completion; return (exit code, start, wall s, stolen s,
    rusage), `start` on the clock the journal stamps records with and
    `stolen` the steal per CPU over the run.

    The rusage is wait4's: the child plus every descendant it reaped, so
    CPU time includes the pool workers and ru_maxrss is the largest peak
    resident set of any of them.  The child gets its own process group,
    killed whole on timeout."""
    start = time.time()
    steal0 = stolen_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, cwd=ROOT,
                            start_new_session=True)
    timer = threading.Timer(timeout, lambda: os.killpg(proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    stolen = stolen_s() - steal0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, start, wall, stolen, ru


def stop_group(proc, sig):
    """Signal proc's process group and wait until every member has ended."""
    try:
        os.killpg(proc.pid, sig)
        proc.wait(timeout=10)
    except ProcessLookupError:
        pass
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    # Members the leader left behind; bounded, since a zombie nobody
    # reaps would stay in the group.
    for _ in range(500):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def helper(argv):
    """Run one of the benchmark's OCaml helpers; return its JSON line."""
    p = subprocess.run(argv, stdout=subprocess.PIPE, cwd=ROOT,
                       timeout=RUN_TIMEOUT_S, text=True)
    if p.returncode != 0:
        fail(f"{os.path.basename(argv[0])} {argv[1]} exited {p.returncode}")
    return last_json_line(p.stdout)


def build(trace):
    targets = ["./bin/extractocol.exe", "./perfbench/oracle.exe"]
    if trace:
        targets.append("./perfbench/trace.exe")
    # No shared dune cache: the build writes only under the checkout.
    p = subprocess.run(["dune", "build", "--root", ROOT, "--cache=disabled"] + targets, cwd=ROOT,
                       stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if p.returncode != 0:
        fail("build failed")


class Workload:
    """One workload's binary runs, each with a fresh journal and the
    cache directory its shape demands, in a scratch directory of its own."""

    def __init__(self, spec, seed, work):
        self.cache = spec["cache"]
        self.apps = spec["apps"]
        self.work = work
        # The corpus flags; the helpers take them too.
        self.corpus = ["--gen", str(self.apps), "--gen-seed", str(seed)] if spec["gen"] else []
        self.flags = spec["flags"] + self.corpus
        self.filled = os.path.join(work, "filled-cache")
        self.n = 0

    def fresh(self, stem):
        self.n += 1
        return os.path.join(self.work, f"{stem}-{self.n}")

    def cache_args(self):
        """Cache and journal flags for one run, as a list and the journal
        path; the warm workload reads the cache filled by `fill`, the
        cold one starts empty."""
        journal = self.fresh("journal") + ".jsonl"
        args = ["--journal", journal]
        if self.cache is not None:
            cache = self.filled if self.cache == "warm" else self.fresh("cache")
            args += ["--cache-dir", cache]
        return args, journal

    def run(self, extra=(), jobs=None):
        """One binary run; returns (record, envelope path)."""
        flags = list(self.flags)
        if jobs is not None:
            flags[flags.index("--jobs") + 1] = str(jobs)
        envelope = self.fresh("envelope") + ".json"
        args, journal = self.cache_args()
        argv = [EXE] + flags + args + ["--report-out", envelope] + list(extra)
        code, start, wall, stolen, ru = spawn(argv)
        first = first_app_stamp(journal)
        return {
            "exit": code,
            "wall_s": wall,
            "stolen_s": stolen,
            "setup_s": None if first is None else first - start,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "peak_rss_mb": ru.ru_maxrss / 1024.0,
            "failed": self.failed_apps(envelope),
        }, envelope

    def probe(self):
        """One more set-up sample: the workload's command, stopped with
        SIGTERM as soon as its journal holds an app record."""
        args, journal = self.cache_args()
        start = time.time()
        proc = subprocess.Popen([EXE] + self.flags + args, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, cwd=ROOT, start_new_session=True)
        deadline = time.monotonic() + RUN_TIMEOUT_S
        first = None
        while first is None and proc.poll() is None and time.monotonic() < deadline:
            # A coarse poll: the sample is the journal's stamp, so the
            # poll's period only delays the stop, and it spares the CPU.
            time.sleep(0.02)
            first = first_app_stamp(journal)
        stop_group(proc, signal.SIGTERM)
        first = first_app_stamp(journal)
        return None if first is None else first - start

    def failed_apps(self, envelope):
        """Quarantined, degraded and missing apps; all of them when the
        run died without an envelope."""
        if not os.path.exists(envelope):
            return self.apps
        apps = load_json(envelope).get("apps", [])
        bad = sum(1 for a in apps if a.get("status") != "ok")
        return bad + max(0, self.apps - len(apps))

    def fill(self):
        if self.cache == "warm":
            rec, _ = self.run()
            if rec["exit"] != 0:
                fail(f"cache fill exited {rec['exit']}")

    def drop(self, path):
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.remove(path)

    def tidy(self, keep):
        """Delete run artifacts except `keep` and the filled cache."""
        for f in os.listdir(self.work):
            p = os.path.join(self.work, f)
            if p not in keep and p != self.filled:
                self.drop(p)


def first_app_stamp(journal):
    """The stamp of the journal's first app record, the first line after
    the run-started header; None if the run wrote none."""
    if not os.path.exists(journal):
        return None
    with open(journal) as f:
        f.readline()
        line = f.readline()
    return json.loads(line).get("t") if line.endswith("\n") else None


def same_bytes(a, b):
    if not os.path.exists(b):
        return False
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def oracle(w, envelope):
    o = helper([ORACLE, "check"] + w.corpus + ["--envelope", envelope])
    log(f"oracle: {o['wrong_cells']:.0f}/{o['cells']:.0f} wrong cells, "
        f"{o['unmatched_msgs']:.0f}/{o['msgs']:.0f} unmatched messages, "
        f"envelope rebuilt byte for byte: {bool(o['envelope_identical'])}")
    return o


def oracle_ok(o):
    return o["wrong_cells"] == 0 and o["unmatched_msgs"] == 0 and o["envelope_identical"] == 1


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def end_to_end(w, seconds):
    w.fill()
    runs, ref, same = [], None, True
    deadline = time.monotonic() + seconds
    while True:
        rec, envelope = w.run()
        runs.append(rec)
        if ref is None:
            if not os.path.exists(envelope):
                fail(f"the first run exited {rec['exit']} without a report")
            ref = envelope
        else:
            same = same and same_bytes(ref, envelope)
            w.drop(envelope)
        w.tidy(keep={ref})
        left = deadline - time.monotonic()
        if len(runs) >= MIN_RUNS and left < statistics.median(r["wall_s"] for r in runs):
            break
    if not same:
        log("a run's report envelope differs from the first run's")
    probes = []
    for _ in range(SETUP_PROBES):
        probes.append(w.probe())
        w.tidy(keep={ref})
    setups = [x for x in [r["setup_s"] for r in runs] + probes if x is not None]
    if len(setups) < len(runs) + len(probes):
        fail("a run or probe journaled no app")
    o = oracle(w, ref)
    attempted = w.apps * len(runs)
    failed = sum(r["failed"] for r in runs)
    walls = [r["wall_s"] for r in runs]
    had = [r["wall_s"] - r["stolen_s"] for r in runs]
    log(f"{len(runs)} runs: wall median {statistics.median(walls):.3f} s, "
        f"spread {spread(walls):.3f}; " + " ".join(f"{x:.3f}" for x in walls))
    log(f"less steal: median {statistics.median(had):.3f} s, "
        f"spread {spread(had):.3f}; " + " ".join(f"{x:.3f}" for x in had))
    log(f"set-up median {statistics.median(setups):.4f} s, spread {spread(setups):.3f}; "
        + " ".join(f"{x:.4f}" for x in setups))
    med = lambda k: statistics.median(r[k] for r in runs)
    metrics = {
        "apps_per_s": statistics.median(w.apps / x for x in had),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "setup_s": statistics.median(setups),
        "cells_correct_ratio": 1.0 - o["wrong_cells"] / o["cells"],
        "msgs_matched_ratio": 1.0 - o["unmatched_msgs"] / max(1.0, o["msgs"]),
        "apps_ok_ratio": 1.0 - failed / attempted,
    }
    return oracle_ok(o) and same, attempted, failed, metrics


# Per-layer values that are timed (medians over passes); every other one
# is a count that must repeat exactly.
TIMINGS = ("_s", "_ms", "trace.coverage")


def pool_metrics(path):
    """pool.* from the binary's own --metrics-out snapshot; 0 for the
    sequential loop, which has no pool."""
    busy = idle = 0.0
    p50 = p99 = 0.0
    if os.path.exists(path):
        for m in load_json(path)["metrics"]:
            if m["name"] == "pool.worker.busy_us":
                busy += m["sum"]
            elif m["name"] == "pool.worker.idle_us":
                idle += m["sum"]
            elif m["name"] == "pool.dispatch.latency_us":
                p50, p99 = m.get("p50", 0.0), m.get("p99", 0.0)
    return {
        "pool.busy_ratio": busy / (busy + idle) if busy + idle > 0 else 0.0,
        "pool.dispatch_p50_us": p50,
        "pool.dispatch_p99_us": p99,
    }


def per_layer(w, seconds):
    w.fill()
    snapshot = w.fresh("metrics") + ".json"
    rec, ref = w.run(extra=["--metrics-out", snapshot])
    if rec["exit"] != 0:
        fail(f"reference run exited {rec['exit']}")
    pool = pool_metrics(snapshot)
    # The untraced baseline of the overhead ratio: the binary on the same
    # corpus and cache shape, sequential like the traced pass.
    untraced, seq = w.run(jobs=1)
    same = same_bytes(ref, seq)
    if not same:
        log("the --jobs 1 envelope differs from the workload's own")
    w.tidy(keep={ref})
    passes = []
    deadline = time.monotonic() + seconds
    while len(passes) < MIN_PASSES or time.monotonic() < deadline:
        out = helper([TRACE, "run"] + w.corpus + ["--envelope", ref]
                     + w.cache_args()[0])
        passes.append(out)
        w.tidy(keep={ref})
    rebuilt = all([p.pop("envelope_identical") == 1 for p in passes])
    if not rebuilt:
        log("the traced pass did not rebuild the binary's envelope")
    counters = [{k: v for k, v in p.items() if not k.endswith(TIMINGS)} for p in passes]
    repeat = all(c == counters[0] for c in counters)
    if not repeat:
        log("work counters differ between traced passes")
    o = oracle(w, ref)
    walls = [p.pop("trace.wall_s") for p in passes]
    metrics = {k: (statistics.median(p[k] for p in passes) if k.endswith(TIMINGS) else v)
               for k, v in passes[0].items()}
    metrics.update(pool)
    metrics["trace.overhead_ratio"] = statistics.median(walls) / untraced["wall_s"]
    log(f"{len(passes)} traced passes, coverage {metrics['trace.coverage']:.4f}")
    ok = oracle_ok(o) and same and rebuilt and repeat
    return ok, w.apps * (2 + len(passes)), rec["failed"] + untraced["failed"], metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    bench = os.path.join(ROOT, "BENCHMARK.json")
    for need in (bench, os.path.join(ROOT, "dune-project"),
                 os.path.join(ROOT, "bin", "extractocol.ml")):
        if not os.path.exists(need):
            fail(f"{os.path.relpath(need, ROOT)} missing: run from a checkout of the repository")
    spec = load_json(os.path.join(BENCH, "spec.json"))
    wspec = spec["workloads"].get(a.workload)
    if wspec is None:
        fail(f"unknown workload {a.workload}")
    build(a.trace)

    scratch = os.path.join(ROOT, ".bench_work")
    work = os.path.join(scratch, f"{a.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        w = Workload(wspec, a.seed, work)
        measure = per_layer if a.trace else end_to_end
        correct, attempted, failed, values = measure(w, a.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(scratch):
            os.rmdir(scratch)

    declared = load_json(bench)["per_layer" if a.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        fail("measured metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(units) - set(values))}, "
             f"undeclared {sorted(set(values) - set(units))}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))


if __name__ == "__main__":
    main()
