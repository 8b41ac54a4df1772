#!/usr/bin/env bash
# Build the `weber` daemon and the `e2ebench` program from the checkout this
# script sits in, then run `e2ebench` with the given arguments:
#
#   bash e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last stdout line is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin weber >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/e2ebench" --weber "$CARGO_TARGET_DIR/release/weber" "$@"
