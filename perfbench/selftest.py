#!/usr/bin/env python3
"""Small-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs perfbench/run.py at --size small (about a second per run) and asserts:

- every end-to-end metric (--trace 0) and every per-layer metric (--trace 1)
  of BENCHMARK.json is emitted, with its unit, on every workload, and the run
  is correct;
- the layers a workload exercises read non-zero there, and the loss path
  (Impair/Reliable) reads zero on churn-resident, which bypasses it;
- a wrong expected digest (fleet-lossy, churn-resident) or verdict (every
  workload with one, at the default seed and at seed 7, where no digest is
  recorded) makes the run fail: exit 1 and "correct": false;
- daemon-bridge accepts a satisfied STATUS verdict, reads again only on the
  known transient VIOLATED verdict, and takes any other verdict for a wrong
  output;
- --size crash is refused on every workload but daemon-bridge, and there it
  runs into the daemon's fd-leak crash, counts the cycles after it as
  failed and leaves no daemon or socket behind;
- a run in a directory holding only BENCHMARK.json and perfbench/ exits
  non-zero without printing a result.

Exits 1 on the first failed assertion.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench_run  # noqa: E402

# Per-layer metrics that must read non-zero on each workload.
EXERCISED = {
    "fleet-lossy": ["session.create_us", "session.build_us", "session.boot_us", "drive.ns_per_event",
                    "drive.minor_words_per_event", "netsys.deliveries", "slot.transitions", "trace.entries",
                    "impair.drops", "reliable.retransmissions", "reliable.acks", "analyze.metrics_us",
                    "analyze.monitor_us", "analyze.judge_us", "fleet.merge_us", "gc.minor_words_per_event"],
    "churn-resident": ["session.create_us", "session.boot_us", "drive.ns_per_event", "netsys.deliveries",
                       "churn.launch_us", "churn.retire_us", "trace.append_us", "gc.top_heap_mb",
                       "spool.pool_slots", "churn.peak_resident"],
    "check-star": ["mc.successors_ns", "mc.fanout", "mc.pack_ns", "mc.key_bytes", "mc.explore_self_s",
                   "mc.temporal_s", "mc.states", "mc.transitions", "mc.new_state_frac", "mc.states_per_s",
                   "mc.minor_words_per_state"],
    "daemon-bridge": ["ctl.dial_ms", "ctl.wait_flowing_ms", "ctl.teardown_ms", "ctl.wait_closed_ms",
                      "ctl.status_ms", "daemon.fds_per_call"],
}
# Per-layer metrics that must read zero on each workload (bypassed layers).
BYPASSED = {
    "churn-resident": ["impair.drops", "impair.dups", "reliable.retransmissions", "reliable.acks",
                       "reliable.dup_suppressed"],
    "check-star": ["session.create_us", "drive.ns_per_event", "ctl.dial_ms"],
    "daemon-bridge": ["session.create_us", "mc.states"],
}

checks = 0


def ok(cond, what):
    global checks
    if not cond:
        print(f"selftest: FAILED: {what}")
        sys.exit(1)
    checks += 1


def daemons_left():
    exe = os.path.realpath(os.path.join(ROOT, bench_run.DAEMON_EXE))
    left = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            if os.path.realpath(f"/proc/{pid}/exe") == exe:
                left.append(pid)
        except OSError:
            pass
    return left


def run(cwd, *extra):
    argv = ["python3", "perfbench/run.py", "--size", "small", "--seconds", "1", *extra]
    p = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return p.returncode, result, p


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in [x["name"] for x in bench["workloads"]]:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            code, res, p = run(ROOT, "--workload", w, "--seed", "1", "--trace", trace)
            ok(code == 0 and res is not None and res["correct"],
               f"{w} trace {trace} is correct (exit {code})\n{p.stdout[-2000:]}{p.stderr[-2000:]}")
            ok(sorted(res) == ["attempted", "correct", "failed", "metrics"], f"{w}: result keys")
            ok(res["attempted"] >= 1, f"{w}: attempted at least 1")
            want = {m["name"]: m["unit"] for m in bench[kind]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            ok(got == want, f"{w} trace {trace}: metrics and units {sorted(set(got) ^ set(want))}")
            values = {k: v["value"] for k, v in res["metrics"].items()}
            ok(all(isinstance(v, (int, float)) for v in values.values()), f"{w}: numeric values")
            if kind == "end_to_end":
                ok(all(v > 0 for v in values.values()), f"{w}: end-to-end metrics are never 0: {values}")
            else:
                for m in EXERCISED[w]:
                    ok(values[m] > 0, f"{w}: {m} reads non-zero")
                for m in BYPASSED.get(w, []):
                    ok(values[m] == 0, f"{w}: bypassed {m} reads zero")
    for w, seed, flag, wrong in (("fleet-lossy", "1", "--expect-digest", "0" * 32),
                                 ("churn-resident", "1", "--expect-digest", "0" * 32),
                                 ("check-star", "1", "--expect-verdict", "unsafe/holds"),
                                 ("fleet-lossy", "7", "--expect-verdict", "failing"),
                                 ("churn-resident", "7", "--expect-verdict", "failing")):
        code, res, _ = run(ROOT, "--workload", w, "--seed", seed, "--trace", "0", flag, wrong)
        ok(code == 1 and res is not None and res["correct"] is False,
           f"{w} seed {seed}: a wrong {flag} fails the run")
    cid = "c12"
    status = lambda v: [f"CALL {cid} unix:b open open {v}", "OK"]
    ok(bench_run.status_satisfied(cid, status("satisfied")) is True, "daemon: satisfied STATUS")
    ok(bench_run.status_satisfied(cid, status(
        f"VIOLATED: protocol violation: {cid}.0: inconsistent quiescent states (L:{cid}=closing, R:{cid}=closed)"))
       is False, "daemon: the known transient is read again")
    for v in (f"VIOLATED: protocol violation: {cid}.0: inconsistent quiescent states (L:{cid}=closed, R:{cid}=closing)",
              "VIOLATED: anything else", "undetermined at cutoff: flowing"):
        try:
            bench_run.status_satisfied(cid, status(v))
            ok(False, f"daemon: {v!r} is a wrong output")
        except bench_run.BadReply:
            ok(True, "")
    code, res, _ = run(ROOT, "--workload", "fleet-lossy", "--size", "crash")
    ok(code == 2 and res is None, "--size crash is refused on fleet-lossy")
    code, res, p = run(ROOT, "--workload", "daemon-bridge", "--size", "crash", "--trace", "0")
    ok(code == 0 and res is not None and res["correct"] and 0 < res["failed"] < res["attempted"],
       f"daemon-bridge --size crash counts the cycles after the crash as failed\n{p.stdout[-2000:]}")
    ok(not daemons_left(), "no daemon outlives a crashed run")
    ok(not [f for f in os.listdir(os.path.join(ROOT, ".perfbench")) if f.endswith((".sock", ".log"))],
       "a crashed run removes its sockets and logs")
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        code, res, _ = run(bare, "--workload", "fleet-lossy")
        ok(code != 0 and res is None, "a tree without the program is refused without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"selftest: {checks} checks passed")


if __name__ == "__main__":
    main()
