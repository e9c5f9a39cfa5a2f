#!/usr/bin/env python3
"""Benchmark runner for the relativistic hash table and its memcached server.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload get_pipelined --seed 1 --seconds 10 --trace 0

It builds the server and the benchmark programs with dune, runs one
workload, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 it makes the separate traced run and the
metrics are the per-layer ones. A line before it ("detail ...") records
the pinning, the generator's own cost and the sample counts.

Workloads (see perfbench/NOTES.md for why each exists):
  get_pipelined  GETs over a Unix socket to `memcached_server --event-loop`
  set_evict_mix  50/50 SET/GET, Zipf keys, a cache 4x too small
  table_resize   Rp_ht lookups in process while a second domain resizes
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

RUN_DIR = ".pb_run"
SOCK = os.path.join(RUN_DIR, "mc.sock")
PB = os.path.join("_build", "default", "perfbench", "pb.exe")
SERVER = os.path.join("_build", "default", "bin", "memcached_server.exe")
SERVER_BASE = ["--backend", "rp", "--event-loop", "--workers", "1"]
SERVER_FLAGS = {
    "get_pipelined": ["-m", "64"],
    "set_evict_mix": ["-m", "32", "--guard", "false"],
    # Only the traced run of table_resize starts a server: it replays the
    # table's lookups as GETs through every cache layer.
    "table_resize": ["-m", "64"],
}
SETUP_REPS = {"get_pipelined": 3, "set_evict_mix": 3, "table_resize": 5}
children = []


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def stop_proc(p, timeout=5.0):
    if p.poll() is None:
        p.send_signal(signal.SIGTERM)
        try:
            p.wait(timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
    if p in children:
        children.remove(p)


def cleanup():
    for p in reversed(children):
        stop_proc(p, timeout=2.0)
    if os.path.exists(SOCK):
        os.unlink(SOCK)


def on_signal(signum, _frame):
    cleanup()
    sys.exit(128 + signum)


def spawn(cmd, **kw):
    p = subprocess.Popen(cmd, **kw)
    children.append(p)
    return p


def kill_leftovers():
    """Kill servers or benchmark programs an earlier run in this checkout
    left alive; each would take a CPU from every later run."""
    here = os.path.realpath(".")
    killed = []
    for d in os.listdir("/proc"):
        if not d.isdigit() or int(d) == os.getpid():
            continue
        try:
            with open("/proc/%s/cmdline" % d, "rb") as f:
                cmd = f.read().split(b"\0")
            cwd = os.path.realpath("/proc/%s/cwd" % d)
        except OSError:
            continue
        exe = os.path.basename(cmd[0].decode(errors="replace")) if cmd else ""
        if cwd == here and exe in ("memcached_server.exe", "pb.exe"):
            os.kill(int(d), signal.SIGKILL)
            killed.append(int(d))
    for pid in killed:
        deadline = time.time() + 5
        while os.path.exists("/proc/%d" % pid) and time.time() < deadline:
            time.sleep(0.01)
    return len(killed)


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    home = os.path.expanduser("~/.opam")
    if os.path.isdir(home):
        for sw in sorted(os.listdir(home)):
            cand = os.path.join(home, sw, "bin", "dune")
            if os.path.exists(cand):
                return cand
    fail("dune not found")


def declared_metrics(trace):
    """Name -> unit of the metrics BENCHMARK.json declares for this kind
    of run: the end-to-end ones, or with tracing the per-layer ones."""
    if not os.path.exists("BENCHMARK.json"):
        fail("BENCHMARK.json not found", 2)
    with open("BENCHMARK.json") as f:
        b = json.load(f)
    return {m["name"]: m["unit"] for m in b["per_layer" if trace else "end_to_end"]}


def build():
    if not (os.path.exists("dune-project") and os.path.exists("bin/memcached_server.ml")):
        fail("run from the root of a source checkout (no dune-project / bin/)", 2)
    r = subprocess.run(
        [find_dune(), "build", "--root", ".", "./" + PB, "./" + SERVER],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail("build failed")


def steal_ticks():
    """Total and stolen CPU ticks of the machine so far (/proc/stat)."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:]]
    return sum(v[:8]), v[7]


def pinning():
    """Server on one CPU, generator on another, when there are two."""
    taskset = shutil.which("taskset") or "/usr/bin/taskset"
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2 and os.path.exists(taskset):
        return ([taskset, "-c", str(cpus[0])], [taskset, "-c", str(cpus[1])],
                "server cpu %d, generator cpu %d" % (cpus[0], cpus[1]))
    return [], [], "none (%d cpu)" % len(cpus)


def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def read_json_line(p, prefix=""):
    line = p.stdout.readline()
    if not line.startswith(prefix):
        stop_proc(p)
        fail("unexpected output from %s: %r" % (p.args, line))
    return json.loads(line[len(prefix):])


def socket_session(workload, seed, seconds, reps):
    """Start the server and set it up [reps] times, measuring each for
    [seconds] / [reps]. Returns per set-up: its record, its window's
    record and the server's peak RSS."""
    pin_srv, pin_gen, _ = pinning()
    runs = []
    for _ in range(reps):
        if os.path.exists(SOCK):
            os.unlink(SOCK)
        t0 = time.monotonic()
        log = open(os.path.join(RUN_DIR, "server.log"), "w")
        srv = spawn(pin_srv + [SERVER] + SERVER_BASE + SERVER_FLAGS[workload]
                    + ["--socket", SOCK], stdout=log, stderr=subprocess.STDOUT)
        log.close()
        gen = spawn(pin_gen + [PB, "gen", "--workload", workload, "--socket", SOCK,
                               "--seed", str(seed), "--server-pid", str(srv.pid),
                               "--seconds", str(seconds / reps)],
                    stdout=subprocess.PIPE, text=True)
        ready = read_json_line(gen, "ready ")
        ready["setup_s"] = time.monotonic() - t0
        window = read_json_line(gen)
        gen.wait()
        children.remove(gen)
        if srv.poll() is not None:
            fail("server exited during the run")
        runs.append((ready, window, vm_hwm_mb(srv.pid)))
        stop_proc(srv)
    return runs


def pooled(runs, key):
    """Median over the slices of every set-up's window."""
    return statistics.median(v for _, w, _ in runs for v in w[key] if v is not None)


def latencies(runs):
    """p50/p90/p99 in us of GETs and, when the window has any, of SETs,
    pooled over set-ups."""
    out = {}
    for op in ("get", "set"):
        if sum(w["%s_n" % op] for _, w, _ in runs) > 0:
            for q in ("p50", "p90", "p99"):
                out["%s_%s_us" % (op, q)] = pooled(runs, "%s_%s_ns" % (op, q)) / 1e3
    return out


def end_to_end_socket(workload, seed, seconds):
    runs = socket_session(workload, seed, seconds, SETUP_REPS[workload])
    total = lambda key: sum(w[key] for _, w, _ in runs)
    lat = latencies(runs)
    metrics = {
        "cpu_us_per_op": pooled(runs, "cpu_us_per_op"),
        "hit_ratio": total("hits") / total("gets"),
        "peak_rss_mb": statistics.median(rss for _, _, rss in runs),
        "setup_s": statistics.median(r["setup_s"] for r, _, _ in runs),
    }
    attempted = total("attempted") + sum(r["setup_attempted"] for r, _, _ in runs)
    failed = total("failed") + sum(r["setup_failed"] for r, _, _ in runs)
    detail = dict(lat)
    detail.update({
        "ops_per_s": pooled(runs, "ops_per_s"),
        "gen_cpu_us_per_op": total("gen_cpu_s") * 1e6 / total("ok_in_window"),
        "server_busy_share": total("server_cpu_s") / total("window_s"),
        "slices": sum(len(w["ops_per_s"]) for _, w, _ in runs),
        "get_samples": total("get_n"), "set_samples": total("set_n"),
        "setup_s_reps": [r["setup_s"] for r, _, _ in runs],
        "warmup_evictions_per_set": [r["warmup_evictions_per_set"] for r, _, _ in runs],
        "guard_shed_total": total("guard_shed_total"),
        "pinning": pinning()[2],
    })
    return failed == 0, attempted, failed, metrics, detail


def end_to_end_table(workload, seed, seconds):
    p = spawn([PB, "table", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)], stdout=subprocess.PIPE, text=True)
    r = read_json_line(p)
    p.wait()
    children.remove(p)
    detail = {k: r[k] for k in ("ops_per_s", "get_p50_us", "get_p90_us", "get_p99_us", "get_n",
                                "slices", "resizes_per_s", "validate")}
    return r["correct"], r["attempted"], r["failed"], r, detail


def traced(workload, seed, seconds):
    """The per-layer run: in-process stages with spans around each layer
    call, then the full server with its own counters read at the edges of
    the window."""
    memory_mb = SERVER_FLAGS[workload][SERVER_FLAGS[workload].index("-m") + 1]
    p = spawn([PB, "ledger", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds / 2), "--memory-mb", memory_mb],
              stdout=subprocess.PIPE, text=True)
    layers = read_json_line(p)
    p.wait()
    children.remove(p)
    runs = socket_session(workload, seed, seconds / 2, 1)
    (setup, w, _), = runs
    lat = latencies(runs)
    ok = w["ok_in_window"]
    reqs = max(1.0, w["cmd_get"] + w["cmd_set"])
    cpu_ns = w["server_cpu_s"] * 1e9 / ok
    conn_ns = (layers["conn.fill_ns_per_req"] + layers["conn.dispatch_ns_per_req"]
               + layers["conn.flush_ns_per_req"])
    layers.update({
        "evloop.reqs_per_wakeup": w["server_batch_requests_sum"] / max(1.0, w["server_worker_wakeups_total"]),
        "evloop.read_syscalls_per_req": w["server_read_syscalls_total"] / reqs,
        "evloop.write_syscalls_per_req": w["server_write_syscalls_total"] / reqs,
        "server.user_us_per_op": w["server_user_s"] * 1e6 / ok,
        "server.sys_us_per_op": w["server_sys_s"] * 1e6 / ok,
        "server.busy_share": w["server_cpu_s"] / w["window_s"],
        "server.get_p50_us": lat["get_p50_us"],
        "server.get_p99_us": lat["get_p99_us"],
        "ledger.unattributed_share": 1.0 - conn_ns / cpu_ns,
        "gen.cpu_us_per_op": w["gen_cpu_s"] * 1e6 / ok,
        "trace.ops_per_s": pooled(runs, "ops_per_s"),
    })
    attempted = layers.pop("attempted") + w["attempted"] + setup["setup_attempted"]
    failed = layers.pop("failed") + w["failed"] + setup["setup_failed"]
    correct = layers.pop("correct") and failed == 0
    detail = {"spans_dropped": layers.pop("spans_dropped"), "pinning": pinning()[2]}
    return correct, attempted, failed, layers, detail


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(SERVER_FLAGS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    units = declared_metrics(a.trace)
    build()
    os.makedirs(RUN_DIR, exist_ok=True)
    leftovers = kill_leftovers()
    total0, steal0 = steal_ticks()
    try:
        if a.trace:
            run = traced
        elif a.workload == "table_resize":
            run = end_to_end_table
        else:
            run = end_to_end_socket
        correct, attempted, failed, values, detail = run(a.workload, a.seed, a.seconds)
    finally:
        cleanup()
    total1, steal1 = steal_ticks()
    detail.update({"workload": a.workload, "seed": a.seed,
                   "steal_share": (steal1 - steal0) / max(1, total1 - total0),
                   "leftover_processes_killed": leftovers})
    print("detail " + json.dumps(detail))
    # Each run computes a few figures more than it reports (they go to the
    # detail line); the result holds exactly the declared metrics.
    if not set(units) <= set(values):
        fail("metrics missing: %s" % sorted(set(units) - set(values)))
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))


if __name__ == "__main__":
    main()
