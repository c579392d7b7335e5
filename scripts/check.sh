#!/usr/bin/env bash
# Full local gate: build, tests, formatting, lints.
# Usage: scripts/check.sh [--fix]   (--fix applies rustfmt instead of checking)
set -euo pipefail
cd "$(dirname "$0")/.."

FMT_ARGS=(--check)
if [[ "${1:-}" == "--fix" ]]; then
    FMT_ARGS=()
fi

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cashlint (static-analysis gate: every kernel at every opt level)"
./target/release/cashlint

# The tests include the exact pin of the committed Figure 18/19 rows
# (crates/bench/tests/figure_rows.rs).
echo "==> cargo test"
cargo test -q --workspace

echo "==> cargo fmt ${FMT_ARGS[*]:-(write)}"
cargo fmt --all -- "${FMT_ARGS[@]+"${FMT_ARGS[@]}"}"

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

# Blocking: the observability runtime must be close to free. The smoke
# interleaves recording-on and recording-off runs of two kernels
# (g721_e, 129.compress) in one process and gates on the min-of-k
# wall-time delta.
echo "==> obs overhead smoke (blocking, <3% budget)"
./target/release/obs_smoke

# Blocking: the benchmark doubles as a correctness gate. `cashperf all`
# checks every job's result against its reference and exits non-zero on a
# wrong one (~12 s). The traced oracle-fuzz run replays each compile one
# layer at a time and exits non-zero if the replayed circuit or result
# differs from `Compiler::compile`'s (~6 s).
echo "==> cashperf all workloads, results checked (blocking)"
./target/release/cashperf all --seed 0 --seconds 1
echo "==> cashperf traced oracle-fuzz replay equivalence (blocking)"
./target/release/cashperf --workload oracle-fuzz --seed 0 --seconds 1 --trace 1

# Non-blocking: export the merged compiler+simulator Perfetto timeline
# for a Figure 19 kernel (CI uploads target/obs/ as an artifact).
echo "==> cashtrace merged Perfetto trace (informational)"
./target/release/cashtrace || echo "cashtrace failed (non-blocking)"

# Non-blocking: export a GTKWave-viewable waveform for a Figure 19 kernel
# (CI uploads target/waves/ as an artifact).
echo "==> cashwave VCD export (informational)"
./target/release/cashwave g721_e || echo "cashwave failed (non-blocking)"

echo "OK: build, cashlint, tests, fmt, clippy and the cashperf gates all clean"
