#!/usr/bin/env python3
"""One run of the mediactl benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: fleet-lossy, churn-resident, check-star (measured by the OCaml
program perfbench/perfbench.ml) and daemon-bridge (two mediactl_daemon
processes driven over their control socket from here).  The run builds both
programs from source with dune, measures for S seconds, checks the outputs,
and prints as its last stdout line one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1.  The lines before it give
the host facts and the end-to-end figures under the workload's own names.

A wrong output (a digest or verdict other than the recorded one, an ERR reply
from a live daemon, a traced run that does not reproduce its untraced twin)
makes the run print "correct": false and exit 1.  Options for the self-test:
--size small, --expect-digest, --expect-verdict; --size crash runs
daemon-bridge episodes past the daemon's fd-leak crash.
"""

import argparse
import ctypes
import json
import os
import re
import select
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = ".perfbench"  # sockets and daemon logs, relative to ROOT
BENCH_EXE = "_build/default/perfbench/perfbench.exe"
DAEMON_EXE = "_build/default/bin/mediactl_daemon.exe"
DEFAULT_SEED = 1
SETUP_SAMPLES = 15
# Figures printed on the "# figures" line but not metrics of BENCHMARK.json:
# a sample count, and a latency only daemon-bridge has.
REPORTED_ONLY = {"latency_samples", "status_ms_p50"}

# Call cycles per daemon-bridge episode, each on a fresh daemon pair.  The
# current daemon leaks one fd per bridged call on each side and dies near
# 1,020 calls, when select() passes FD_SETSIZE (README, daemon defect 1);
# an episode stops short of that so that no cycle of the seed tree fails,
# and daemon.fds_per_call measures the leak.  "crash" runs past it, to
# reproduce the defect; the cycles after the crash count as failed.
DAEMON_CYCLES = {"full": 800, "small": 40, "crash": 1200}
# STATUS reads after the first that may still give the known transient
# verdict (README, daemon defect 2) before it counts as a wrong output.
# On the seed tree a second or third read is always satisfied.
STATUS_REREADS = 20


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


WORKLOADS = ("fleet-lossy", "churn-resident", "check-star", "daemon-bridge")
# Every workload runs on one core (perfbench.ml's [jobs]); a host with
# fewer cores than this is refused.
JOBS = 1


class Refused(Exception):
    """The run cannot start here; exit non-zero without a result."""


def load_json(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def die_with_parent():
    """Child pre-exec hook: SIGKILL the child when this process dies, so an
    interrupted run leaves no daemon behind."""
    try:
        ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except OSError:
        pass


def cores(n):
    """The last n cores this process may run on.  Measured processes are
    pinned there: on a shared two-core host an unpinned single-domain run's
    rounds ranged over 17-22% of their median, pinned ones over 5-15%."""
    return set(sorted(os.sched_getaffinity(0))[-n:])


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        raise Refused("no mediactl source tree (dune-project, lib/) beside perfbench/")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet", "--cache", "disabled", "./" + BENCH_EXE[len("_build/default/"):],
           "./" + DAEMON_EXE[len("_build/default/"):]]
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise Refused(f"build failed: {e}")
    if r.returncode != 0:
        raise Refused("build failed:\n" + r.stdout.decode(errors="replace")[-4000:])


# ---------------------------------------------------------------------------
# OCaml workloads


def spawn_until_ready(argv):
    """Start the measuring program on JOBS cores; return it and its set-up
    time (process start to its first measured operation)."""
    def pre_exec():
        die_with_parent()
        os.sched_setaffinity(0, cores(JOBS))

    t0 = time.time()
    p = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, preexec_fn=pre_exec)
    line = p.stdout.readline().decode()
    if not line.startswith("perfbench-ready "):
        p.kill()
        p.wait()
        raise RuntimeError("measuring program failed before its first operation")
    return p, float(line.split()[1]) - t0


def run_ocaml(args):
    argv = [os.path.join(ROOT, BENCH_EXE), args.workload, "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--trace", str(args.trace), "--size", args.size]
    setups = []
    for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
        p, s = spawn_until_ready(argv + ["--probe-setup"])
        p.wait()
        setups.append(s)
    p, s = spawn_until_ready(argv)
    setups.append(s)
    try:
        out, _ = p.communicate(timeout=170)
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
    if p.returncode != 0:
        raise RuntimeError(f"measuring program exited {p.returncode}")
    res = json.loads(out.decode().strip().splitlines()[-1])
    res["setup_s"] = statistics.median(setups)
    return res


def check_ocaml(args, res):
    """Errors in the program's outputs against the recorded ones: the
    verdict at every seed, the fleet or churn digest at the default seed."""
    errors = list(res["errors"])
    expected = load_json("expected.json")[args.workload]
    want = args.expect_verdict or expected["verdict"]
    if res["verdict"] != want:
        errors.append(f"verdict {res['verdict']!r}, expected {want!r}")
    if args.workload != "check-star":
        want = args.expect_digest
        if want is None and args.seed == DEFAULT_SEED:
            want = expected[args.size]
        if want is not None and res["digest"] != want:
            errors.append(f"digest {res['digest']}, expected {want} for seed {args.seed}")
    return errors


# ---------------------------------------------------------------------------
# daemon-bridge


class BadReply(Exception):
    pass


class Ctl:
    """One control connection: newline requests, OK/ERR answers, STATUS's
    CALL lines before its OK."""

    def __init__(self, path, timeout=10.0):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self.f = self.sock.makefile("rb")

    def req(self, line):
        self.sock.sendall((line + "\n").encode())
        out = []
        while True:
            got = self.f.readline()
            if not got:
                raise EOFError("connection closed")
            got = got.decode().rstrip("\n")
            out.append(got)
            if not got.startswith("CALL "):
                if not got.startswith("OK"):
                    raise BadReply(f"{line!r} -> {got!r}")
                return out

    def close(self):
        try:
            self.f.close()
            self.sock.close()
        except OSError:
            pass


def proc_sample(pid):
    """(cpu seconds, open fds, VmRSS kB, VmHWM kB) of a live process, or None."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        cpu = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
        fds = len(os.listdir(f"/proc/{pid}/fd"))
        mem = {}
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(("VmRSS:", "VmHWM:")):
                    mem[line.split(":")[0]] = float(line.split()[1])
        return (cpu, fds, mem["VmRSS"], mem["VmHWM"])
    except (OSError, IndexError, KeyError, ValueError):
        return None


class DaemonPair:
    """Daemons A and B on fresh Unix sockets.  Always reaped and their
    sockets removed on exit, including after a crash."""

    def __init__(self, tag):
        os.makedirs(os.path.join(ROOT, RUN_DIR), exist_ok=True)
        self.socks = [f"{RUN_DIR}/{os.getpid()}-{tag}-{x}.sock" for x in "ab"]
        self.procs = []

    def __enter__(self):
        try:
            return self._start()
        except BaseException:
            self.__exit__(None, None, None)
            raise

    def _start(self):
        t0 = time.time()
        for s in self.socks:
            self._unlink(s)
            log = open(os.path.join(ROOT, s[:-5] + ".log"), "wb")
            self.procs.append(subprocess.Popen(
                [os.path.join(ROOT, DAEMON_EXE), "--listen", "unix:" + s, "-n", "0", "-c", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=log, preexec_fn=die_with_parent))
            log.close()
        for p in self.procs:
            ready, _, _ = select.select([p.stdout], [], [], 10.0)
            if not ready or not p.stdout.readline().startswith(b"listening"):
                raise RuntimeError("daemon did not start listening")
        self.ctl = Ctl(os.path.join(ROOT, self.socks[0]))
        self.ctl.req("PING")
        peer = Ctl(os.path.join(ROOT, self.socks[1]))
        peer.req("PING")
        peer.close()
        self.setup_s = time.time() - t0
        return self

    def alive(self):
        return all(p.poll() is None for p in self.procs)

    def sample(self):
        got = [proc_sample(p.pid) for p in self.procs]
        return None if None in got else got

    @staticmethod
    def _unlink(rel):
        try:
            os.unlink(os.path.join(ROOT, rel))
        except FileNotFoundError:
            pass

    def __exit__(self, *exc):
        if hasattr(self, "ctl"):
            self.ctl.close()
        for p, s in zip(self.procs, self.socks):
            if p.poll() is None:
                try:
                    c = Ctl(os.path.join(ROOT, s), timeout=2.0)
                    c.req("QUIT")
                    c.close()
                except (OSError, EOFError, BadReply):
                    pass
        for p in self.procs:
            try:
                p.wait(timeout=3.0)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
            p.stdout.close()
        self.logs = []
        for s in self.socks:
            self._unlink(s)
            try:
                with open(os.path.join(ROOT, s[:-5] + ".log"), errors="replace") as f:
                    self.logs.append(f.read().strip())
            except OSError:
                self.logs.append("")
            self._unlink(s[:-5] + ".log")
        return False


def transient_verdict(cid):
    """The one non-satisfied verdict the benchmark reads again: a STATUS
    read right after `WAIT closed` that catches the bridged call still
    settling (README, daemon defect 2)."""
    c = re.escape(cid)
    return re.compile(rf"VIOLATED: protocol violation: {c}\.\d+: inconsistent quiescent states "
                      rf"\(L:{c}=closing, R:{c}=closed\)")


def status_satisfied(cid, reply):
    """True for a satisfied STATUS verdict for [cid], False for the known
    transient; any other reply is a wrong output."""
    calls = [x.split(" ", 5) for x in reply if x.startswith(f"CALL {cid} ")]
    if len(calls) != 1 or len(calls[0]) != 6:
        raise BadReply(f"STATUS {cid} -> {reply!r}: no CALL line for the call")
    verdict = calls[0][5]
    if verdict == "satisfied":
        return True
    if transient_verdict(cid).fullmatch(verdict):
        return False
    raise BadReply(f"STATUS {cid} -> {verdict!r}: not satisfied")


def episode(tag, cycles, sample_every, traced):
    """One closed loop of call cycles over a fresh daemon pair."""
    ep = {"cycles": cycles, "completed": 0, "failed": 0, "errors": [], "flowing": [], "status": [], "rereads": 0,
          "verbs": {v: [] for v in ("dial", "wait_flowing", "teardown", "wait_closed", "status")},
          "samples": []}
    with DaemonPair(tag) as d:
        ep["setup_s"] = d.setup_s
        dead = False
        t_loop = time.perf_counter()
        for i in range(cycles):
            if dead:
                ep["failed"] += 1  # the daemon is gone: the cycle counts as failed
                continue
            if i % sample_every == 0:
                s = d.sample()
                if s:
                    ep["samples"].append((ep["completed"], s))
            cid = f"c{i}"
            steps = [("dial", f"DIAL {cid} unix:{d.socks[1]} open open"),
                     ("wait_flowing", f"WAIT {cid} flowing 5000"), ("teardown", f"TEARDOWN {cid}"),
                     ("wait_closed", f"WAIT {cid} closed 5000"), ("status", f"STATUS {cid}")]
            try:
                t_dial = time.perf_counter()
                for verb, line in steps:
                    t0 = time.perf_counter()
                    reply = d.ctl.req(line)
                    t1 = time.perf_counter()
                    if traced:
                        ep["verbs"][verb].append((t1 - t0) * 1000.0)
                    if verb == "wait_flowing":
                        ep["flowing"].append((t1 - t_dial) * 1000.0)
                    elif verb == "status":
                        ep["status"].append((t1 - t0) * 1000.0)
                # The known transient is read again until it settles; one
                # that does not is a wrong output.
                for _ in range(STATUS_REREADS):
                    if status_satisfied(cid, reply):
                        break
                    ep["rereads"] += 1
                    reply = d.ctl.req(f"STATUS {cid}")
                if not status_satisfied(cid, reply):
                    raise BadReply(f"STATUS {cid}: still {reply!r} after {STATUS_REREADS} more reads")
                ep["completed"] += 1
            except (OSError, EOFError):
                ep["failed"] += 1
                dead = True
            except BadReply as e:
                if d.alive():
                    ep["errors"].append(str(e))
                    break
                ep["failed"] += 1
                dead = True
            if not d.alive():
                dead = True
        ep["wall"] = time.perf_counter() - t_loop
        s = d.sample()
        if s:
            ep["samples"].append((ep["completed"], s))
    # Exit codes after reaping: 0 for a daemon that obeyed QUIT.
    ep["exit_codes"] = [p.returncode for p in d.procs]
    ep["logs"] = [x.splitlines()[-1].strip() if x else "" for x in d.logs]
    return ep


def pct(xs, p):
    """Closest-rank interpolation, as perfbench.ml's percentile."""
    if not xs:
        return 0.0
    s = sorted(xs)
    r = p * (len(s) - 1)
    lo = int(r)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (r - lo)


def growth(xs):
    k = max(1, len(xs) // 10)
    first = pct(xs[:k], 0.5)
    return pct(xs[-k:], 0.5) / first if first > 0 else 0.0


def run_daemon(args):
    # The client and both daemons share one core: the closed loop has one
    # request in flight, so nothing runs in parallel, and on a shared
    # two-core host letting the scheduler spread three processes over two
    # cores swung throughput between runs by a third.
    os.sched_setaffinity(0, cores(1))
    cycles = DAEMON_CYCLES[args.size]
    res = {"errors": [], "attempted": 0, "failed": 0, "values": {}, "spans": [], "ocaml": None, "episodes": []}
    eps = []

    def add(ep):
        eps.append(ep)
        res["attempted"] += ep["cycles"]
        res["failed"] += ep["failed"]
        res["errors"] += ep["errors"]
        res["episodes"].append({k: ep[k] for k in ("cycles", "completed", "failed", "rereads", "exit_codes", "logs")})

    v = res["values"]
    if not args.trace:
        t0 = time.time()
        while True:
            add(episode(len(eps), cycles, 50, False))
            if res["errors"] or time.time() - t0 >= args.seconds:
                break
        setups = [ep["setup_s"] for ep in eps]
        while len(setups) < SETUP_SAMPLES:
            with DaemonPair(f"s{len(setups)}") as d:
                setups.append(d.setup_s)
        res["setup_s"] = statistics.median(setups)
        # Figures over the whole run, as perfbench.ml takes them: the
        # cycles of all episodes over their summed wall time, percentiles
        # over every episode's samples.
        res["per_round"] = [ep["completed"] / ep["wall"] for ep in eps]
        v["throughput_per_s"] = sum(ep["completed"] for ep in eps) / sum(ep["wall"] for ep in eps)
        flowing = [x for ep in eps for x in ep["flowing"]]
        v["latency_ms_p50"] = pct(flowing, 0.5)
        v["latency_ms_p99"] = pct(flowing, 0.99)
        v["latency_samples"] = len(flowing)
        v["status_ms_p50"] = pct([x for ep in eps for x in ep["status"]], 0.5)
        hwm = [sum(s[3] for s in ep["samples"][-1][1]) for ep in eps if ep["samples"]]
        v["peak_rss_mb"] = statistics.median(hwm) / 1024.0 if hwm else 0.0
        res["rounds"] = len(eps)
        return res
    # Traced: a warm-up episode, an untraced twin for the overhead, then
    # the timed verbs and /proc samples every 10 cycles.
    add(episode("w", cycles, 50, False))
    plain = episode("u", cycles, 50, False)
    add(plain)
    ep = episode("t", cycles, 10, True)
    add(ep)
    res["rounds"] = 1
    for verb, xs in ep["verbs"].items():
        v[f"ctl.{verb}_ms"] = pct(xs, 0.5)
    samples = ep["samples"]
    if len(samples) >= 2 and samples[-1][0] > samples[0][0]:
        (c0, (a0, b0)), (c1, (a1, b1)) = samples[0], samples[-1]
        n = c1 - c0
        v["daemon.cpu_us_per_call_a"] = (a1[0] - a0[0]) * 1e6 / n
        v["daemon.cpu_us_per_call_b"] = (b1[0] - b0[0]) * 1e6 / n
        v["daemon.fds_per_call"] = (a1[1] + b1[1] - a0[1] - b0[1]) / n
        v["daemon.rss_kb_per_call"] = (a1[2] + b1[2] - a0[2] - b0[2]) / n
    v["daemon.status_rereads_per_call"] = ep["rereads"] / max(1, ep["completed"])
    v["daemon.flowing_growth"] = growth(ep["flowing"])
    v["daemon.status_growth"] = growth(ep["status"])
    verb_s = sum(sum(xs) for xs in ep["verbs"].values()) / 1000.0
    v["ledger.unattributed_frac"] = (ep["wall"] - verb_s) / ep["wall"]
    per_call = lambda e: e["wall"] / max(1, e["completed"])
    v["ledger.trace_overhead_frac"] = per_call(ep) / per_call(plain) - 1.0
    res["spans"] = [{"name": f"ctl.{verb}", "count": len(xs), "total_s": sum(xs) / 1000.0,
                     "self_s": sum(xs) / 1000.0} for verb, xs in ep["verbs"].items()]
    return res


# ---------------------------------------------------------------------------
# Reporting

# The end-to-end figures under the names the workloads' users know them by.
def named_figures(workload, res):
    v = res["values"]
    out = {}
    if "throughput_per_s" in v:
        if workload == "check-star":
            out["check_s"] = (v["latency_ms_p50"] / 1000.0, "s")
            out["check_s_p99"] = (v["latency_ms_p99"] / 1000.0, "s")
        else:
            lat = {"fleet-lossy": "session", "churn-resident": "arrival", "daemon-bridge": "flowing"}[workload]
            out["calls_per_s" if workload == "daemon-bridge" else "sessions_per_s"] = (v["throughput_per_s"], "1/s")
            out[f"{lat}_ms_p50"] = (v["latency_ms_p50"], "ms")
            out[f"{lat}_ms_p99"] = (v["latency_ms_p99"], "ms")
            out[f"{lat}_samples"] = (v["latency_samples"], "count")
        if workload == "daemon-bridge":
            out["status_ms_p50"] = (v["status_ms_p50"], "ms")
        out["setup_s"] = (res["setup_s"], "s")
        out["peak_rss_mb"] = (v["peak_rss_mb"], "MB")
    out["failed_frac"] = (res["failed"] / max(1, res["attempted"]), "1")
    return {k: {"value": x, "unit": u} for k, (x, u) in out.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small", "crash"), default="full")
    ap.add_argument("--expect-digest", default=None)
    ap.add_argument("--expect-verdict", default=None)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        bench = spec()
        if args.size == "crash" and args.workload != "daemon-bridge":
            raise Refused("--size crash applies to daemon-bridge only")
        if JOBS > nproc():
            raise Refused(f"{args.workload} at {JOBS} jobs needs {JOBS} cores; this host has {nproc()}")
        build()
        if args.workload == "daemon-bridge":
            res = run_daemon(args)
            errors = res["errors"]
        else:
            res = run_ocaml(args)
            errors = check_ocaml(args, res)
    except Refused as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    print("# host " + json.dumps({"workload": args.workload, "seed": args.seed, "jobs": JOBS, "nproc": nproc(),
                                  "ocaml": res.get("ocaml") or ocaml_version(), "size": args.size,
                                  "trace": args.trace, "rounds": res.get("rounds"),
                                  "round_throughput": res.get("per_round")}))
    print("# figures " + json.dumps(named_figures(args.workload, res)))
    for s in res.get("spans", []):
        print(f"# span {s['name']:<18} n={s['count']:<8} total={s['total_s']:.4f}s self={s['self_s']:.4f}s")
    for ep in res.get("episodes", []):
        print("# episode " + json.dumps(ep))

    values = dict(res["values"])
    if args.trace:
        # A layer the workload bypasses reads 0: the bypass check.
        wanted = bench["per_layer"]
        values = {m["name"]: values.get(m["name"], 0.0) for m in wanted} | values
    else:
        wanted = bench["end_to_end"]
        values["setup_s"] = res["setup_s"]
    known = {m["name"] for m in wanted} | REPORTED_ONLY
    errors += [f"metric {k} is not in BENCHMARK.json" for k in values if k not in known]
    errors += [f"metric {m['name']} was not measured" for m in wanted if m["name"] not in values]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values}
    for e in errors:
        print(f"# ERROR {e}")
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


def ocaml_version():
    try:
        return subprocess.run(["ocamlopt", "-version"], capture_output=True, text=True).stdout.strip() or None
    except OSError:
        return None


if __name__ == "__main__":
    sys.exit(main())
