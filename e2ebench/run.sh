#!/usr/bin/env bash
# Builds the `skipflow` binary and the benchmark program from source, then
# runs the benchmark. Run from the repository root:
#
#   bash e2ebench/run.sh --workload cli-ladder --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail

target_dir="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target_dir"

cargo build --release --offline --quiet --manifest-path Cargo.toml --bin skipflow >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2

exec "$target_dir/release/skipflow-e2ebench" --skipflow "$target_dir/release/skipflow" "$@"
