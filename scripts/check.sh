#!/usr/bin/env bash
# Repo gate: formatting, lints, the tier-1 build/test cycle and every
# workspace test.
# Run from anywhere; operates on the repository root.
# --full additionally re-runs the headline experiments and diffs them
# against the archived results/ (scripts/results_check.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

FULL=0
if [[ "${1:-}" == "--full" ]]; then
    FULL=1
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

# The tier-1 line above runs only the root package's tests; this runs
# every crate's unit and property tests too.
echo "==> every test: cargo test -q --workspace"
cargo test -q --workspace

# The benchmark driver builds against this workspace's crates, so it
# must keep compiling when their APIs change. Offline cargo rewrites
# e2ebench/Cargo.lock (it drops a stale entry), and e2ebench/ is not
# this gate's to change: save the lock file and restore it byte for byte.
echo "==> benchmark driver: cargo test --offline --manifest-path e2ebench/Cargo.toml"
E2E_LOCK="$(mktemp)"
cp e2ebench/Cargo.lock "$E2E_LOCK"
trap 'cp "$E2E_LOCK" e2ebench/Cargo.lock; rm -f "$E2E_LOCK"' EXIT
cargo test -q --offline --manifest-path e2ebench/Cargo.toml

echo "==> streaming stress: cargo test -q --release -p weber-stream"
cargo test -q --release -p weber-stream

echo "==> router smoke: scripts/route_smoke.sh"
scripts/route_smoke.sh

echo "==> serve smoke: scripts/serve_smoke.sh"
scripts/serve_smoke.sh

echo "==> entity smoke: scripts/entity_smoke.sh"
scripts/entity_smoke.sh

echo "==> blocking smoke: scripts/block_smoke.sh"
scripts/block_smoke.sh

echo "==> perf smoke: scripts/bench.sh --smoke"
scripts/bench.sh --smoke

if [[ $FULL -eq 1 ]]; then
    echo "==> results drift: scripts/results_check.sh"
    scripts/results_check.sh

    # Every NDJSON example in the operator's guide must parse, and every
    # request line must name an op the protocol actually has — so the
    # runbook cannot rot silently when the wire format moves.
    echo "==> docs: NDJSON examples in docs/OPERATIONS.md"
    grep '^{' docs/OPERATIONS.md | jq -e 'type == "object"' >/dev/null \
        || { echo "docs check: an example line in docs/OPERATIONS.md is not valid JSON" >&2; exit 1; }
    known='health|seed|ingest|resolve|entities|same_as|constraint|snapshot|metrics|persist|restore|flush|shutdown|topology'
    bad=$(grep '^{' docs/OPERATIONS.md | jq -r '.op // empty' | grep -vE "^($known)$" || true)
    [[ -z "$bad" ]] || { echo "docs check: unknown op in docs/OPERATIONS.md examples: $bad" >&2; exit 1; }
    ops=$(grep '^{' docs/OPERATIONS.md | jq -r 'select(has("op") and (has("ok") | not)) | .op' | wc -l)
    [[ "$ops" -ge 3 ]] || { echo "docs check: expected at least 3 request examples, found $ops" >&2; exit 1; }
fi

echo "All checks passed."
