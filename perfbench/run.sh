#!/usr/bin/env bash
# Builds the benchmark runner and the `serve` binary from source, then runs
# the benchmark with the given arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload paper_sweep --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p hira-bench --bin serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/hira-perfbench" "$@"
