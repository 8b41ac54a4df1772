#!/usr/bin/env bash
# Perf reporting: run the machine-readable perf + blocking harnesses, the
# serve and route front-end load tests, and (optionally) the criterion
# benches.
#
#   scripts/bench.sh                 # emit BENCH_stream.json / BENCH_pipeline.json
#                                    #      / BENCH_block.json / BENCH_serve.json
#                                    #      / BENCH_route.json
#   scripts/bench.sh --smoke         # fast sanity run (small sizes, 1 rep)
#   scripts/bench.sh --criterion     # additionally run the criterion benches
#   scripts/bench.sh --bench-out DIR # write every BENCH_*.json into DIR
#
# If results/BENCH_stream_baseline.json / results/BENCH_pipeline_baseline.json
# exist, the reports include a speedup relative to them.
#
# The serve stage runs `weber loadgen` twice at the SAME arrival rate,
# each against a freshly started `weber serve` (per-name records grow as
# documents are ingested, so reusing one daemon would confound connection
# count with record size): once over 16 connections (unloaded) and once
# over many thousands of mostly-idle persistent connections (loaded).
# The two runs differ only in connection count, which isolates exactly
# what the event loop claims — holding 10k connections is close to free.
# Gates:
#   * zero protocol errors / early closes / unanswered requests in both runs;
#   * loaded ingest p99 <= MAX_P99_RATIO x unloaded ingest p99 (full runs);
#   * loaded throughput >= MIN_THROUGHPUT_FRAC x the committed baseline
#     results/BENCH_serve_baseline.json, when present (full runs).
#
# The route stage repeats the same unloaded/loaded pair against a sharded
# tier: ROUTE_BACKENDS `weber serve` daemons behind one `weber route`
# router, with the loadgen pointed at the router. Same gates, with
# the throughput floor taken from results/BENCH_route_baseline.json; the
# loaded pass is what exercises the async outbound pool (every client
# connection funnels into a handful of pooled backend sockets driven by
# one outbound reactor).
set -euo pipefail
cd "$(dirname "$0")/.."

PERF_ARGS=()
BLOCK_ARGS=()
RUN_CRITERION=0
EXPECT_DIR=0
SMOKE=0
SERVE_OUT=BENCH_serve.json
ROUTE_OUT=BENCH_route.json
for arg in "$@"; do
  if [ "$EXPECT_DIR" = 1 ]; then
    PERF_ARGS+=(--bench-out "$arg")
    BLOCK_ARGS+=(--bench-out "$arg")
    SERVE_OUT="$arg/BENCH_serve.json"
    ROUTE_OUT="$arg/BENCH_route.json"
    EXPECT_DIR=0
    continue
  fi
  case "$arg" in
    # Smoke runs use tiny sizes; route their output under target/ so they
    # never clobber the committed full-run BENCH_*.json records.
    --smoke) SMOKE=1
             SERVE_OUT=target/BENCH_serve.smoke.json
             ROUTE_OUT=target/BENCH_route.smoke.json
             PERF_ARGS+=(--smoke
                         --stream-out target/BENCH_stream.smoke.json
                         --pipeline-out target/BENCH_pipeline.smoke.json)
             BLOCK_ARGS+=(--smoke --out target/BENCH_block.smoke.json) ;;
    --criterion) RUN_CRITERION=1 ;;
    --bench-out) EXPECT_DIR=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done
[ "$EXPECT_DIR" = 1 ] && { echo "--bench-out needs a directory" >&2; exit 2; }

[ -f results/BENCH_stream_baseline.json ] &&
  PERF_ARGS+=(--stream-baseline results/BENCH_stream_baseline.json)
[ -f results/BENCH_pipeline_baseline.json ] &&
  PERF_ARGS+=(--pipeline-baseline results/BENCH_pipeline_baseline.json)

echo "==> cargo build --release -p weber-bench --bin perf --bin block_bench"
cargo build --release -p weber-bench --bin perf --bin block_bench

echo "==> perf harness"
target/release/perf "${PERF_ARGS[@]}"

echo "==> blocking harness"
target/release/block_bench "${BLOCK_ARGS[@]}"

# --- serve front-end load test ---------------------------------------------

# Loaded/unloaded shapes. Smoke keeps the whole stage under ~15 s; the
# full run holds thousands of mostly-idle persistent connections through
# one reactor thread, which is the regime the event loop exists for.
if [ "$SMOKE" = 1 ]; then
  LOADED_CONNS=256;  RATE=300; DURATION=2; WARMUP=1; NAMES=32
else
  LOADED_CONNS=10000; RATE=500; DURATION=10; WARMUP=2; NAMES=256
fi
UNLOADED_CONNS=16
MAX_P99_RATIO=5.0
MIN_THROUGHPUT_FRAC=0.5

echo "==> cargo build --release (weber binary)"
cargo build --release --quiet

echo "==> serve load test ($UNLOADED_CONNS vs $LOADED_CONNS connections at $RATE ops/s)"
WORK="$(mktemp -d)"
SERVE_PID=""
ROUTE_PIDS=()
serve_cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    for pid in ${ROUTE_PIDS[@]+"${ROUTE_PIDS[@]}"}; do
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap serve_cleanup EXIT

port_free() {
    ! (exec 3<>"/dev/tcp/127.0.0.1/$1") 2>/dev/null
}

# Start a fresh daemon, run one loadgen pass against it, shut it down.
run_pass() {
    local conns=$1 out=$2
    # Below the ephemeral range; see pick_port in the route stage.
    local port=$((20000 + RANDOM % 12000))
    while ! port_free "$port"; do port=$((port + 1)); done
    target/release/weber serve --listen "127.0.0.1:$port" \
        --workers 2 --queue 1024 --max-connections $((LOADED_CONNS + 64)) \
        >>"$WORK/serve.log" 2>&1 &
    SERVE_PID=$!
    for _ in $(seq 1 100); do
        port_free "$port" || break
        sleep 0.1
    done
    port_free "$port" && { echo "serve bench: daemon never came up" >&2; cat "$WORK/serve.log" >&2; exit 1; }
    target/release/weber loadgen --connect "127.0.0.1:$port" \
        --connections "$conns" --rate "$RATE" \
        --duration "$DURATION" --warmup "$WARMUP" --names "$NAMES" \
        --out "$out" >>"$WORK/loadgen.log" 2>&1 \
        || { echo "serve bench: loadgen failed" >&2; cat "$WORK/loadgen.log" >&2; exit 1; }
    { exec 3<>"/dev/tcp/127.0.0.1/$port" &&
      printf '{"op":"shutdown"}\n' >&3 && head -n1 <&3 >/dev/null; } || true
    exec 3>&- 3<&- || true
    for _ in $(seq 1 100); do
        kill -0 "$SERVE_PID" 2>/dev/null || break
        sleep 0.1
    done
    kill "$SERVE_PID" 2>/dev/null || true
    SERVE_PID=""
}

run_pass "$UNLOADED_CONNS" "$WORK/unloaded.json"
run_pass "$LOADED_CONNS"   "$WORK/loaded.json"

mkdir -p "$(dirname "$SERVE_OUT")"
jq -n --slurpfile u "$WORK/unloaded.json" --slurpfile l "$WORK/loaded.json" \
   --argjson max_ratio "$MAX_P99_RATIO" '
  ($u[0]) as $unloaded | ($l[0]) as $loaded |
  {
    config: {
      unloaded_connections: $unloaded.connections,
      unloaded_rate: $unloaded.target_rate,
      loaded_connections: $loaded.connections,
      loaded_rate: $loaded.target_rate,
      duration_s: $loaded.duration_s,
      names: $loaded.names,
      zipf_s: $loaded.zipf_s
    },
    unloaded: $unloaded,
    loaded: $loaded,
    p99_ratio_ingest: (if $unloaded.ingest.p99_us > 0
                       then $loaded.ingest.p99_us / $unloaded.ingest.p99_us
                       else null end),
    gate: { max_p99_ratio: $max_ratio }
  }' >"$SERVE_OUT"
echo "wrote $SERVE_OUT"

# Gates: correctness always; latency/throughput only on full runs (smoke
# shapes are too small for stable percentiles).
for run in unloaded loaded; do
  for field in errors setup_errors closed_early unanswered; do
    v=$(jq ".$field" "$WORK/$run.json")
    [ "$v" = "0" ] || { echo "serve bench: $run $field = $v (expected 0)" >&2; exit 1; }
  done
done

if [ "$SMOKE" = 0 ]; then
  ratio=$(jq '.p99_ratio_ingest' "$SERVE_OUT")
  ok=$(jq -n --argjson r "$ratio" --argjson max "$MAX_P99_RATIO" '$r != null and $r <= $max')
  [ "$ok" = "true" ] || {
    echo "serve bench: loaded ingest p99 is ${ratio}x unloaded (gate: <= $MAX_P99_RATIO)" >&2
    exit 1
  }
  echo "serve bench: loaded/unloaded ingest p99 ratio $ratio (gate <= $MAX_P99_RATIO)"
  if [ -f results/BENCH_serve_baseline.json ]; then
    ok=$(jq -n --slurpfile cur "$SERVE_OUT" \
               --slurpfile base results/BENCH_serve_baseline.json \
               --argjson frac "$MIN_THROUGHPUT_FRAC" '
      ($cur[0].loaded.throughput_ops_s) >= ($base[0].loaded.throughput_ops_s * $frac)')
    [ "$ok" = "true" ] || {
      echo "serve bench: loaded throughput regressed below ${MIN_THROUGHPUT_FRAC}x baseline" >&2
      jq '{now: .loaded.throughput_ops_s}' "$SERVE_OUT" >&2
      jq '{baseline: .loaded.throughput_ops_s}' results/BENCH_serve_baseline.json >&2
      exit 1
    }
    echo "serve bench: throughput within baseline gate"
  fi
fi

# --- route front-end load test ---------------------------------------------

# Same unloaded/loaded pair as the serve stage, but against a sharded
# tier: every request now crosses two hops (client -> router -> backend)
# and the loaded pass funnels thousands of client connections into the
# router's pooled backend sockets, all multiplexed by one outbound
# reactor thread.
if [ "$SMOKE" = 1 ]; then
  ROUTE_LOADED_CONNS=128
else
  ROUTE_LOADED_CONNS=2000
fi
ROUTE_BACKENDS=3
ROUTE_REPLICATION=2

# Stay below the kernel's ephemeral range (32768+): after a
# many-thousand-connection loadgen pass, ephemeral ports linger in
# TIME_WAIT and bind() fails with EADDRINUSE even though nothing is
# listening (which is all port_free can see).
pick_port() {
    local port=$((20000 + RANDOM % 12000))
    while ! port_free "$port"; do port=$((port + 1)); done
    echo "$port"
}

# Start fresh backends plus a fresh router, run one loadgen pass against
# the router, shut the whole tier down (the router's shutdown op
# broadcasts to every backend before closing).
run_route_pass() {
    local conns=$1 out=$2
    local backends=()
    local bport rport blist pid
    ROUTE_PIDS=()
    for _ in $(seq 1 "$ROUTE_BACKENDS"); do
        bport=$(pick_port)
        target/release/weber serve --listen "127.0.0.1:$bport" \
            --workers 2 --queue 1024 >>"$WORK/route_backend.log" 2>&1 &
        ROUTE_PIDS+=($!)
        backends+=("127.0.0.1:$bport")
        # Wait for the bind so pick_port can't hand out this port again.
        for _ in $(seq 1 100); do
            port_free "$bport" || break
            sleep 0.1
        done
        port_free "$bport" && { echo "route bench: backend never came up" >&2; cat "$WORK/route_backend.log" >&2; exit 1; }
    done
    rport=$(pick_port)
    blist=$(IFS=,; echo "${backends[*]}")
    target/release/weber route --backends "$blist" --listen "127.0.0.1:$rport" \
        --replication "$ROUTE_REPLICATION" \
        --max-connections $((ROUTE_LOADED_CONNS + 64)) >>"$WORK/route.log" 2>&1 &
    ROUTE_PIDS+=($!)
    for _ in $(seq 1 100); do
        port_free "$rport" || break
        sleep 0.1
    done
    port_free "$rport" && { echo "route bench: router never came up" >&2; cat "$WORK/route.log" >&2; exit 1; }
    target/release/weber loadgen --connect "127.0.0.1:$rport" \
        --connections "$conns" --rate "$RATE" \
        --duration "$DURATION" --warmup "$WARMUP" --names "$NAMES" \
        --out "$out" >>"$WORK/route_loadgen.log" 2>&1 \
        || { echo "route bench: loadgen failed" >&2; cat "$WORK/route_loadgen.log" >&2; exit 1; }
    { exec 3<>"/dev/tcp/127.0.0.1/$rport" &&
      printf '{"op":"shutdown"}\n' >&3 && head -n1 <&3 >/dev/null; } || true
    exec 3>&- 3<&- || true
    for pid in "${ROUTE_PIDS[@]}"; do
        for _ in $(seq 1 100); do
            kill -0 "$pid" 2>/dev/null || break
            sleep 0.1
        done
        kill "$pid" 2>/dev/null || true
    done
    ROUTE_PIDS=()
}

echo "==> route load test ($ROUTE_BACKENDS backends, replication $ROUTE_REPLICATION, $UNLOADED_CONNS vs $ROUTE_LOADED_CONNS connections at $RATE ops/s)"
run_route_pass "$UNLOADED_CONNS"     "$WORK/route_unloaded.json"
run_route_pass "$ROUTE_LOADED_CONNS" "$WORK/route_loaded.json"

mkdir -p "$(dirname "$ROUTE_OUT")"
jq -n --slurpfile u "$WORK/route_unloaded.json" --slurpfile l "$WORK/route_loaded.json" \
   --argjson max_ratio "$MAX_P99_RATIO" \
   --argjson backends "$ROUTE_BACKENDS" --argjson replication "$ROUTE_REPLICATION" '
  ($u[0]) as $unloaded | ($l[0]) as $loaded |
  {
    config: {
      backends: $backends,
      replication: $replication,
      unloaded_connections: $unloaded.connections,
      unloaded_rate: $unloaded.target_rate,
      loaded_connections: $loaded.connections,
      loaded_rate: $loaded.target_rate,
      duration_s: $loaded.duration_s,
      names: $loaded.names,
      zipf_s: $loaded.zipf_s
    },
    unloaded: $unloaded,
    loaded: $loaded,
    p99_ratio_ingest: (if $unloaded.ingest.p99_us > 0
                       then $loaded.ingest.p99_us / $unloaded.ingest.p99_us
                       else null end),
    gate: { max_p99_ratio: $max_ratio }
  }' >"$ROUTE_OUT"
echo "wrote $ROUTE_OUT"

for run in route_unloaded route_loaded; do
  for field in errors setup_errors closed_early unanswered; do
    v=$(jq ".$field" "$WORK/$run.json")
    [ "$v" = "0" ] || { echo "route bench: $run $field = $v (expected 0)" >&2; exit 1; }
  done
done

if [ "$SMOKE" = 0 ]; then
  ratio=$(jq '.p99_ratio_ingest' "$ROUTE_OUT")
  ok=$(jq -n --argjson r "$ratio" --argjson max "$MAX_P99_RATIO" '$r != null and $r <= $max')
  [ "$ok" = "true" ] || {
    echo "route bench: loaded ingest p99 is ${ratio}x unloaded (gate: <= $MAX_P99_RATIO)" >&2
    exit 1
  }
  echo "route bench: loaded/unloaded ingest p99 ratio $ratio (gate <= $MAX_P99_RATIO)"
  if [ -f results/BENCH_route_baseline.json ]; then
    ok=$(jq -n --slurpfile cur "$ROUTE_OUT" \
               --slurpfile base results/BENCH_route_baseline.json \
               --argjson frac "$MIN_THROUGHPUT_FRAC" '
      ($cur[0].loaded.throughput_ops_s) >= ($base[0].loaded.throughput_ops_s * $frac)')
    [ "$ok" = "true" ] || {
      echo "route bench: loaded throughput regressed below ${MIN_THROUGHPUT_FRAC}x baseline" >&2
      jq '{now: .loaded.throughput_ops_s}' "$ROUTE_OUT" >&2
      jq '{baseline: .loaded.throughput_ops_s}' results/BENCH_route_baseline.json >&2
      exit 1
    }
    echo "route bench: throughput within baseline gate"
  fi
fi

if [ "$RUN_CRITERION" = 1 ]; then
  echo "==> criterion: stream + pipeline benches"
  cargo bench -p weber-bench --bench stream
  cargo bench -p weber-bench --bench pipeline
fi
