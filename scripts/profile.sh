#!/usr/bin/env bash
# Sampling profile of one tcsim-perf workload:
#
#   scripts/profile.sh <workload> [seconds]       (default 20 s)
#
# Builds scripts/prof/sigprof.c with the system compiler, runs
# `tcsim-perf run <workload>` under it and prints where the samples inside
# the timed passes (`runner::measure`, calibration loops excluded) fell:
# self time by function and by inlined source function, and inclusive
# shares. Everything it writes goes under target/prof/. Not a CI gate: it
# exits 0 with a message when a tool it needs is missing. For other cuts of
# the same samples call scripts/prof/report.py directly (--include,
# --exclude, --top).
set -euo pipefail
cd "$(dirname "$0")/.."

workload=${1:?usage: scripts/profile.sh <workload> [seconds]}
seconds=${2:-20}
for tool in cc addr2line python3; do
  if ! command -v "$tool" >/dev/null; then
    echo "profile.sh: $tool not found, nothing profiled"
    exit 0
  fi
done

out=target/prof
mkdir -p "$out"
cc -O2 -shared -fPIC -o "$out/sigprof.so" scripts/prof/sigprof.c
cargo build --release --offline -p tcsim-perf
SIGPROF_OUT="$out/$workload.samples" LD_PRELOAD="$PWD/$out/sigprof.so" \
  target/release/tcsim-perf run "$workload" --seconds "$seconds" >"$out/$workload.run.txt"
tail -n 1 "$out/$workload.run.txt"
python3 scripts/prof/report.py target/release/tcsim-perf "$out/$workload.samples" \
  --include runner::measure --exclude calibration_sample
