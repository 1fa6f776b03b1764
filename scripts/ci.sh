#!/usr/bin/env bash
# CI gate: tier-1 build+test, lint wall, fuzz and lint canaries, the
# golden-artifact gate over results/, and the serve cache smoke.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build =="
cargo build --release --workspace --offline

echo "== tier-1: test =="
cargo test -q --workspace --offline

echo "== tier-1: executor under the release profile =="
# The warp-wide executor's 32-lane loops are vectorised only in
# optimised builds, so the directed per-lane comparison and the frozen
# executor golden run again as the shipped binaries are compiled; the
# allocation gate rides along (its counts are profile-independent).
cargo test -q --release --offline -p tcsim-isa
cargo test -q --release --offline --test exec_golden --test alloc_free_issue

echo "== tier-1: tensor-core functional path under the release profile =="
# plan_vs_reference holds wmma.load/mma/store to the element-at-a-time
# reference over every mode; its full 64 seeds per mode need optimised
# code (the debug run above covers 4), and its NaN-free half exercises
# FEDP loops that are vectorised only here. footprint_vs_lanes holds the
# sector list and bank-conflict count derived from a tile footprint to
# those of the lane accesses; every base residue modulo 128 needs
# optimised code too (the debug run covers 32).
cargo test -q --release --offline -p tcsim-core

echo "== tier-1: memory timing under the release profile =="
# The reciprocal set/partition index, the one-pass conflict counter's
# wrapping shifts and the sector walk are arithmetic that debug and
# release builds compile differently (overflow checks, debug_assert).
cargo test -q --release --offline -p tcsim-mem

echo "== tier-1: SM and launch bookkeeping under the release profile =="
# The L1 an SM builds at its first CTA, the one occupancy rule
# (tcsim_isa::SmResources::admit, behind can_accept and the launch check),
# and the launch boundary's flush and clock reset, as the benchmark
# compiles them.
cargo test -q --release --offline -p tcsim-sm -p tcsim-sim

echo "== tier-1: host reference GEMM and operand staging under the release profile =="
# host_gemm's column loop is vectorised only in optimised builds, and the
# equivalence tests (new loops against the element-at-a-time ones, bit for
# bit, raw random operands) must hold for the code the benchmark runs.
cargo test -q --release --offline -p tcsim-nn -p tcsim-cutlass

echo "== tier-1: JSON codec, content hash and their users under the release profile =="
# The one JSON parser reads every wire line and .tcres file: its fuzz
# test runs its full document count only in optimised builds (the debug
# run above takes a smaller one), beside the serve and infer suites that
# write and key everything through tcsim_trace::json and ::hash.
cargo test -q --release --offline -p tcsim-trace -p tcsim-serve -p tcsim-infer

echo "== perf: benchmark contract (five workloads, --smoke) =="
# Every workload of BENCHMARK.json must run, verify its outputs and
# print every declared metric; --smoke keeps it to seconds.
cargo test -q --release --offline -p tcsim-perf

echo "== lint: rustfmt =="
cargo fmt --check

echo "== lint: clippy -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== lint: rustdoc -D warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== fuzz: differential smoke (fixed seed, 2000 iters) =="
# Random kernels through GPU-vs-reference differential + timing
# invariants; any failure is minimized and echoed by the binary itself.
target/release/tcsim-fuzz --seed 1 --iters 2000 --json

echo "== fuzz: ampere mma.sync differential (fixed seed, 2000 iters) =="
# The Ampere generator slice: BF16/TF32 and 2:4-sparse mma.sync kernels
# through the same GPU-vs-reference differential + timing invariants.
target/release/tcsim-fuzz --arch ampere --seed 1 --iters 2000 --json

echo "== fuzz: planted-mutation canary (oracle sensitivity) =="
# Flip FEDP accumulation rounding on the reference side: every all-FP16
# WMMA case must fail, proving the oracle can see single-rounding bugs.
target/release/tcsim-fuzz --mutate --seed 1 --iters 50 --json
# The Ampere analogues: narrow the BF16 accumulator to multiplicand
# width / corrupt every 2:4 metadata nibble on the reference side; the
# binary exits non-zero unless all 50 cases are caught.
target/release/tcsim-fuzz --mutate bf16-chop-mantissa --seed 1 --iters 50 --json
target/release/tcsim-fuzz --mutate sparse-meta-swap --seed 1 --iters 50 --json

echo "== verify: planted-defect canaries (analyzer sensitivity) =="
# Plant one static defect of each class in otherwise-clean generated
# kernels: the analyzer must flag every one with an error naming the
# mutated instruction (the static mirror of the FEDP canary above).
for m in barrier-drop uninit-reg frag-shape shared-grow; do
  target/release/tcsim-fuzz --mutate "$m" --seed 1 --iters 50 --json
done

echo "== perf: planted perf-defect canaries (perf-lint sensitivity) =="
# Plant a bank-conflicting shared stride / an uncoalesced global walk in
# clean generated kernels: the perf linter must catch >= 3 of 4 seeds,
# pointing at the planted instruction (enforced inside the binary).
for m in bank-stride uncoalesce; do
  target/release/tcsim-fuzz --mutate "$m" --seed 1 --iters 50 --json
done

echo "== verify: corpus lint gate =="
# Every committed corpus case must be verifier-clean, warnings included.
target/release/tcsim-lint --strict --json tests/corpus

echo "== perf: corpus perf-lint smoke =="
# Perf diagnostics are warnings (shipped kernels do carry findings —
# tests/verify_clean.rs pins them), so this passes unless a case fails
# to parse or trips a correctness error.
target/release/tcsim-lint --perf --json tests/corpus

echo "== fuzz: corpus replay =="
# Replays committed minimized cases; failing kernel text is echoed.
target/release/tcsim-fuzz --replay tests/corpus

echo "== golden artifacts: regenerate and byte-compare everything in results/ =="
# One run per row of tests/figures_golden.rs: every table and figure's
# stdout, fig14a's JSON, the nn_inference and tcsim-infer reports (full
# and --smoke), the tcsim-model correlation report and the tcsim-prof
# trace. Each run must also exit zero, so the binaries' own asserts run
# (tcsim-model's 0.9 log-correlation floor, tcsim-prof's HMMA events,
# nn_inference's chained-vs-parallel cycles).
TCSIM_GOLDEN=1 cargo test -q --offline --test figures_golden

echo "== example: conv2d_im2col (im2col GEMM checked against a direct convolution) =="
# Launches its GEMM through GemmKernel::builder on the Titan V preset and
# asserts every output element against a direct CPU convolution.
cargo run --release --offline --example conv2d_im2col

echo "== guard: tracing does not perturb timing =="
target/release/tcsim-prof --overhead-guard

echo "== smoke: tcsim-serve double-pass cache gate =="
# Start the job server on an ephemeral port with a fresh persistent
# cache, submit the corpus batch twice: the second pass must be >=90%
# cache hits AND byte-identical results (results_digest equality).
SERVE_TMP=$(mktemp -d)
trap 'rm -rf "$SERVE_TMP"' EXIT
target/release/tcsim-serve --port-file "$SERVE_TMP/port" \
  --cache-dir "$SERVE_TMP/cache" >/dev/null &
SERVE_PID=$!
for _ in $(seq 1 100); do
  test -s "$SERVE_TMP/port" && break
  sleep 0.1
done
test -s "$SERVE_TMP/port" || { echo "tcsim-serve never wrote its port file"; exit 1; }
SERVE_ADDR=$(cat "$SERVE_TMP/port")
target/release/tcsim-loadgen --connect "$SERVE_ADDR" --smoke \
  --json "$SERVE_TMP/pass1.json" >/dev/null
target/release/tcsim-loadgen --connect "$SERVE_ADDR" --smoke \
  --min-hit-rate 0.9 --expect-digest "$SERVE_TMP/pass1.json" \
  --shutdown --json "$SERVE_TMP/pass2.json" >/dev/null
wait "$SERVE_PID"

echo "== ci.sh: all gates passed =="
