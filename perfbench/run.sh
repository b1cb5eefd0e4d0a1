#!/usr/bin/env bash
# Builds the hetsel-serve binary and the benchmark from source, then runs
# the benchmark. Run from the repository root:
#   bash perfbench/run.sh --workload launch --seed 1 --seconds 25 --trace 0
# Build output goes to standard error; the last line of standard output
# is the result object.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p hetsel-serve --bin hetsel-serve 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2
PERFBENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
PERFBENCH_GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export PERFBENCH_RUSTC PERFBENCH_GIT_REV
exec "$CARGO_TARGET_DIR/release/hetsel-perfbench" \
    --server "$CARGO_TARGET_DIR/release/hetsel-serve" "$@"
