#!/bin/sh
# GC cost of one perfbench workload.
#
#   bench/gc_report.sh <workload> <seed>      (from the root of a checkout)
#
# Socket workloads (get_pipelined, set_evict_mix): starts memcached_server
# with the flags perfbench/run.py gives it for <workload> and
# OCAMLRUNPARAM=v=0x400, so the runtime prints its GC totals when the
# server exits. `pb gen` sets the server up and drives it for 5 s; then
# the server is stopped and the totals are divided by the operations it
# served over its life (set-up included): major-heap, promoted and
# direct-major words per operation (direct major = major - promoted:
# blocks too large for the minor heap), and major GC cycles per million
# operations. Server and generator are pinned to two CPUs when taskset
# and two CPUs exist.
#
# Every workload also prints the GC's largest major heap (top_heap_words,
# as MiB) and its mean_space_overhead (the garbage it carried, as a
# percentage of live data); socket workloads add the server's peak RSS
# (VmHWM, read just before it is stopped). An OCAMLRUNPARAM already in
# the environment is kept, with v=0x400 added, so a GC setting can be
# swept from the command line:
#
#   OCAMLRUNPARAM=o=40 bench/gc_report.sh set_evict_mix 1
#
# table_resize runs in process: `pb table` for 10 s under the same
# OCAMLRUNPARAM. The process totals (its five table builds included) are
# divided by the timed lookups and by the resizes completed, beside the
# top heap size and the major GC cycles.
set -eu

if [ $# -ne 2 ]; then
  echo "usage: $0 <get_pipelined|set_evict_mix|table_resize> <seed>" >&2
  exit 2
fi
workload=$1
seed=$2
case $workload in
  get_pipelined | set_evict_mix | table_resize) ;;
  *)
    echo "gc_report: unknown workload $workload" >&2
    exit 2
    ;;
esac

gcparam="v=0x400${OCAMLRUNPARAM:+,$OCAMLRUNPARAM}"

dir=$(mktemp -d)
srv=""
cleanup() {
  if [ -n "$srv" ]; then kill "$srv" 2>/dev/null || true; fi
  rm -rf "$dir"
}
trap cleanup EXIT INT TERM

if [ "$workload" = table_resize ]; then
  dune build ./perfbench/pb.exe
  OCAMLRUNPARAM=$gcparam _build/default/perfbench/pb.exe table --workload table_resize \
    --seed "$seed" --seconds 10 >"$dir/run.txt" 2>"$dir/gc.txt"
else
  dune build ./perfbench/pb.exe ./bin/memcached_server.exe
  flags=$(python3 -B -c "
import sys
sys.path.insert(0, 'perfbench')
import run
print(' '.join(run.SERVER_BASE + run.SERVER_FLAGS['$workload']))")

  pin_srv=""
  pin_gen=""
  if command -v taskset >/dev/null 2>&1 && [ "$(nproc)" -ge 2 ]; then
    pin_srv="taskset -c 0"
    pin_gen="taskset -c 1"
  fi

  # shellcheck disable=SC2086
  OCAMLRUNPARAM=$gcparam $pin_srv _build/default/bin/memcached_server.exe $flags \
    --socket "$dir/mc.sock" >"$dir/server.out" 2>"$dir/gc.txt" &
  srv=$!
  # shellcheck disable=SC2086
  $pin_gen _build/default/perfbench/pb.exe gen --workload "$workload" --socket "$dir/mc.sock" \
    --seed "$seed" --server-pid "$srv" --seconds 5 >"$dir/run.txt"
  grep VmHWM "/proc/$srv/status" >"$dir/hwm.txt" || true
  kill -TERM "$srv"
  wait "$srv" || true
  srv=""
fi

python3 - "$workload" "$seed" "$dir/run.txt" "$dir/gc.txt" "$dir/hwm.txt" <<'EOF'
import json, os, sys

workload, seed, run_path, gc_path, hwm_path = sys.argv[1:]
gc = {}
for line in open(gc_path):
    key, sep, value = line.partition(":")
    if sep:
        try:
            gc[key.strip()] = float(value)
        except ValueError:
            pass
for key in ("major_words", "promoted_words", "major_collections", "top_heap_words"):
    if key not in gc:
        sys.exit("gc_report: the run printed no %s at exit" % key)
direct = gc["major_words"] - gc["promoted_words"]
lines = open(run_path).read().splitlines()

if workload == "table_resize":
    run = json.loads(lines[-1])
    lookups = run["get_n"]
    resizes = round(run["resizes_per_s"] * 10)
    print("workload table_resize, seed %s: %d timed lookups, %d resizes, correct %s"
          % (seed, lookups, resizes, run["correct"]))
    for name, words in (("major", gc["major_words"]), ("promoted", gc["promoted_words"]),
                        ("direct_major", direct)):
        print("%-30s%.3f" % (name + "_words_per_lookup", words / max(lookups, 1)))
        print("%-30s%.0f" % (name + "_words_per_resize", words / max(resizes, 1)))
    print("major_cycles                  %d" % gc["major_collections"])
else:
    ready = json.loads(lines[0][len("ready "):])
    window = json.loads(lines[1])
    ops = ready["setup_attempted"] + window["attempted"]
    print("workload %s, seed %s: %d operations served (set-up %d, run %d)"
          % (workload, seed, ops, ready["setup_attempted"], window["attempted"]))
    print("major_words_per_op          %.2f" % (gc["major_words"] / ops))
    print("promoted_words_per_op       %.2f" % (gc["promoted_words"] / ops))
    print("direct_major_words_per_op   %.2f" % (direct / ops))
    print("major_cycles_per_mop        %.2f" % (gc["major_collections"] * 1e6 / ops))
print("top_heap_words              %d (%.1f MiB)"
      % (gc["top_heap_words"], gc["top_heap_words"] * 8 / 2**20))
if "mean_space_overhead" in gc:
    print("mean_space_overhead         %.1f" % gc["mean_space_overhead"])
if os.path.exists(hwm_path) and os.path.getsize(hwm_path) > 0:
    kb = float(open(hwm_path).read().split()[1])
    print("server_vmhwm                %.1f MiB" % (kb / 1024))
print("totals: major_words %d, promoted_words %d, direct_major_words %d, major_collections %d"
      % (gc["major_words"], gc["promoted_words"], direct, gc["major_collections"]))
EOF
