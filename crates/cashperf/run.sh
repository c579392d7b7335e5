#!/usr/bin/env bash
# Builds the benchmark binaries in release mode and runs one workload:
#   bash crates/cashperf/run.sh --workload <name> --seed N --seconds S --trace 0|1
# Run from the repository root. Honors CARGO_TARGET_DIR (default: target).
# The last line of stdout is the JSON result; build output goes to stderr.
set -euo pipefail
cargo build --release --quiet -p cashperf --bins 1>&2
exec "${CARGO_TARGET_DIR:-target}/release/cashperf" "$@"
