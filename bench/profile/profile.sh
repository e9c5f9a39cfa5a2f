#!/bin/sh
# Where the perfbench server's user-mode CPU goes during one workload.
#
#   bench/profile/profile.sh <get_pipelined|set_evict_mix> [seconds]
#                                              (from the root of a checkout)
#
# Runs `perfbench/run.py --workload <w> --seconds <seconds> --trace 0`
# (default 30 s; SEED picks the seed, default 1), finds the server it
# starts by the exact path of its executable, waits out that server's
# set-up (2 s), samples it with sampler.c for the rest of its timed
# window and prints the function profile symbolize.py makes of the
# samples (TOP lines, default 25). run.py starts SETUP_REPS servers one
# after another, each timed for seconds / SETUP_REPS; only the first is
# sampled. The samples and run.py's own output stay in _build/profile/.
# Nothing under perfbench/ is changed.
#
# The server is matched by /proc/<pid>/exe and cwd, not by command line:
# `pgrep -f memcached_server` also matches the shell that runs run.py,
# and sampling that shell yields no samples.
set -eu

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 <get_pipelined|set_evict_mix> [seconds]" >&2
  exit 2
fi
workload=$1
seconds=${2:-30}
seed=${SEED:-1}
top=${TOP:-25}
setup=2
case $workload in
  get_pipelined | set_evict_mix) ;;
  *)
    echo "profile: $workload starts no server to sample (socket workloads only)" >&2
    exit 2
    ;;
esac

out=_build/profile
mkdir -p "$out"
cc -O2 -Wall -o "$out/sampler" bench/profile/sampler.c
reps=$(python3 -B -c "
import sys
sys.path.insert(0, 'perfbench')
import run
print(run.SETUP_REPS['$workload'])")
# The window of one server, less the set-up waited out and a margin at
# its end (the server is stopped as soon as its window closes).
sample_s=$(python3 -c "print(max(1, int($seconds / $reps - $setup - 1)))")

here=$(pwd -P)
server="$here/_build/default/bin/memcached_server.exe"
python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" \
  --trace 0 >"$out/run.txt" 2>&1 &
runner=$!
trap 'kill "$runner" 2>/dev/null || true' INT TERM

pid=""
while [ -z "$pid" ]; do
  if ! kill -0 "$runner" 2>/dev/null; then
    echo "profile: run.py exited before its server started:" >&2
    cat "$out/run.txt" >&2
    exit 1
  fi
  for dir in /proc/[0-9]*; do
    exe=$(readlink "$dir/exe" 2>/dev/null) || continue
    cwd=$(readlink "$dir/cwd" 2>/dev/null) || continue
    if [ "$exe" = "$server" ] && [ "$cwd" = "$here" ]; then
      pid=${dir#/proc/}
      break
    fi
  done
  [ -n "$pid" ] || sleep 0.05
done

sleep "$setup"
"$out/sampler" "$pid" "$sample_s" >"$out/samples.txt"
wait "$runner"
echo "server pid $pid, sampled ${sample_s} s after ${setup} s of set-up; run.py: $(tail -n 1 "$out/run.txt")"
python3 bench/profile/symbolize.py "$out/samples.txt" --top "$top"
