#!/bin/sh
# GC cost of serving one perfbench socket workload.
#
#   bench/gc_report.sh <workload> <seed>      (from the root of a checkout)
#
# Starts memcached_server with the flags perfbench/run.py gives it for
# <workload> (get_pipelined or set_evict_mix) and OCAMLRUNPARAM=v=0x400,
# so the runtime prints its GC totals when the server exits. `pb gen`
# sets the server up and drives it for 5 s; then the server is stopped
# and the totals are divided by the operations it served over its life
# (set-up included): major-heap, promoted and direct-major words per
# operation (direct major = major - promoted: blocks too large for the
# minor heap), and major GC cycles per million operations. Server and
# generator are pinned to two CPUs when taskset and two CPUs exist.
set -eu

if [ $# -ne 2 ]; then
  echo "usage: $0 <get_pipelined|set_evict_mix> <seed>" >&2
  exit 2
fi
workload=$1
seed=$2
case $workload in
  get_pipelined | set_evict_mix) ;;
  *)
    echo "gc_report: $workload starts no server" >&2
    exit 2
    ;;
esac

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

dir=$(mktemp -d)
srv=""
cleanup() {
  if [ -n "$srv" ]; then kill "$srv" 2>/dev/null || true; fi
  rm -rf "$dir"
}
trap cleanup EXIT INT TERM

# shellcheck disable=SC2086
OCAMLRUNPARAM=v=0x400 $pin_srv _build/default/bin/memcached_server.exe $flags \
  --socket "$dir/mc.sock" >"$dir/server.out" 2>"$dir/gc.txt" &
srv=$!
# shellcheck disable=SC2086
$pin_gen _build/default/perfbench/pb.exe gen --workload "$workload" --socket "$dir/mc.sock" \
  --seed "$seed" --server-pid "$srv" --seconds 5 >"$dir/gen.txt"
kill -TERM "$srv"
wait "$srv" || true
srv=""

python3 - "$workload" "$seed" "$dir/gen.txt" "$dir/gc.txt" <<'EOF'
import json, sys

workload, seed, gen_path, gc_path = sys.argv[1:]
lines = open(gen_path).read().splitlines()
ready = json.loads(lines[0][len("ready "):])
window = json.loads(lines[1])
ops = ready["setup_attempted"] + window["attempted"]
gc = {}
for line in open(gc_path):
    key, sep, value = line.partition(":")
    if sep:
        try:
            gc[key.strip()] = float(value)
        except ValueError:
            pass
for key in ("major_words", "promoted_words", "major_collections"):
    if key not in gc:
        sys.exit("gc_report: the server printed no %s at exit" % key)
direct = gc["major_words"] - gc["promoted_words"]
print("workload %s, seed %s: %d operations served (set-up %d, run %d)"
      % (workload, seed, ops, ready["setup_attempted"], window["attempted"]))
print("major_words_per_op          %.2f" % (gc["major_words"] / ops))
print("promoted_words_per_op       %.2f" % (gc["promoted_words"] / ops))
print("direct_major_words_per_op   %.2f" % (direct / ops))
print("major_cycles_per_mop        %.2f" % (gc["major_collections"] * 1e6 / ops))
print("totals: major_words %d, promoted_words %d, direct_major_words %d, major_collections %d"
      % (gc["major_words"], gc["promoted_words"], direct, gc["major_collections"]))
EOF
