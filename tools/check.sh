#!/usr/bin/env bash
# Full pre-merge check: tier-1 build + tests (plus a DMT_KERNEL_LEVEL=
# scalar rerun of the kernel-sensitive differential batteries), then a
# ThreadSanitizer build
# that runs the thread-pool unit tests and the serial-vs-parallel
# differential tests for every parallelized miner (plus the out-of-core
# differential and container-corruption tests, and the concurrent-runs
# test), then an AddressSanitizer + UndefinedBehaviorSanitizer build that
# re-runs the io corruption battery, the association miner and rule
# tests, and the tree and cluster differential tests, then a bench smoke
# stage that runs the cluster, tree, association, and io benches at a
# tiny configuration and checks the emitted --json records parse
# (including the threads / work-counter / partition columns), a
# DMT_TRACE smoke that runs one bench per algorithm family and validates
# the emitted Chrome trace_event JSON, a bench_compare regression gate
# diffing the smoke records against the checked-in bench/baselines
# (deterministic work counters must match exactly), and a serving smoke
# that drives dmtd end to end — including a client that hangs up unread,
# bad numeric flags, a cyclic tree container, the --metrics-path
# Prometheus dump and the --slow-query-us structured log.
#
# Usage: tools/check.sh [jobs]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${1:-$(nproc)}"

echo "== tier 1: regular build + full test suite =="
cmake -B "$ROOT/build" -S "$ROOT"
cmake --build "$ROOT/build" -j "$JOBS"
ctest --test-dir "$ROOT/build" --output-on-failure

echo
echo "== tier 1b: kernel-sensitive tests forced to the scalar table =="
# The SIMD kernels promise bit-identical results at every dispatch
# level; rerunning the differential batteries with DMT_KERNEL_LEVEL
# pinned to scalar proves the promise covers the integrated call sites
# (Eclat tidsets, k-means assignment, DBSCAN region queries, and the
# kNN / nearest-cluster serving paths), not just the kernel unit tests.
KERNEL_SENSITIVE_TESTS=(
  tests/core/core_kernels_test
  tests/assoc/assoc_parallel_diff_test
  tests/assoc/assoc_out_of_core_diff_test
  tests/assoc/assoc_quant_stream_diff_test
  tests/cluster/cluster_parallel_diff_test
  tests/serve/serving_diff_test
)
for t in "${KERNEL_SENSITIVE_TESTS[@]}"; do
  echo "  DMT_KERNEL_LEVEL=scalar $t"
  DMT_KERNEL_LEVEL=scalar "$ROOT/build/$t" >/dev/null
done

echo
echo "== tier 2: ThreadSanitizer build (DMT_SANITIZE=thread) =="
cmake -B "$ROOT/build-tsan" -S "$ROOT" \
  -DDMT_SANITIZE=thread \
  -DDMT_BUILD_BENCHMARKS=OFF \
  -DDMT_BUILD_EXAMPLES=OFF
TSAN_TARGETS=(
  core_thread_pool_test
  core_kernels_test
  obs_metrics_test
  obs_histogram_test
  obs_expose_test
  assoc_parallel_diff_test
  assoc_out_of_core_diff_test
  assoc_quant_stream_diff_test
  cluster_parallel_diff_test
  seq_parallel_diff_test
  tree_parallel_diff_test
  io_corruption_test
  serve_protocol_test
  serving_diff_test
  integration_concurrent_runs_test
)
cmake --build "$ROOT/build-tsan" -j "$JOBS" --target "${TSAN_TARGETS[@]}"

# halt_on_error so a single race fails the script immediately.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
"$ROOT/build-tsan/tests/core/core_thread_pool_test"
"$ROOT/build-tsan/tests/core/core_kernels_test"
"$ROOT/build-tsan/tests/obs/obs_metrics_test"
# Concurrent Histogram::Record on shared slots plus rendering racing
# recorders — the histogram metric's whole concurrency surface.
"$ROOT/build-tsan/tests/obs/obs_histogram_test"
"$ROOT/build-tsan/tests/obs/obs_expose_test"
"$ROOT/build-tsan/tests/assoc/assoc_parallel_diff_test"
"$ROOT/build-tsan/tests/assoc/assoc_out_of_core_diff_test"
"$ROOT/build-tsan/tests/assoc/assoc_quant_stream_diff_test"
"$ROOT/build-tsan/tests/cluster/cluster_parallel_diff_test"
"$ROOT/build-tsan/tests/seq/seq_parallel_diff_test"
"$ROOT/build-tsan/tests/tree/tree_parallel_diff_test"
"$ROOT/build-tsan/tests/io/io_corruption_test"
# The serving layer's concurrency surface: BatchQueue workers and
# flush, the sharded cache, pool-dispatched sync evaluation, and the
# socket stream tests all run under TSan here.
"$ROOT/build-tsan/tests/serve/serve_protocol_test"
"$ROOT/build-tsan/tests/serve/serving_diff_test"
# Two runs of one algorithm (or BIRCH next to k-means) on two threads,
# publishing to the same registry counters.
"$ROOT/build-tsan/tests/integration/integration_concurrent_runs_test"

echo
echo "== tier 2b: AddressSanitizer + UBSan build (DMT_SANITIZE=address) =="
cmake -B "$ROOT/build-asan" -S "$ROOT" \
  -DDMT_SANITIZE=address \
  -DDMT_BUILD_BENCHMARKS=OFF \
  -DDMT_BUILD_EXAMPLES=OFF
ASAN_TARGETS=(
  io_corruption_test
  io_roundtrip_test
  core_kernels_test
  serve_protocol_test
  serving_diff_test
  obs_histogram_test
  obs_expose_test
  integration_concurrent_runs_test
  assoc_miners_test
  assoc_parallel_diff_test
  assoc_out_of_core_diff_test
  assoc_rules_test
  tree_parallel_diff_test
  cluster_parallel_diff_test
)
cmake --build "$ROOT/build-asan" -j "$JOBS" --target "${ASAN_TARGETS[@]}"
export ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}"
# -fno-sanitize-recover makes any UBSan finding fatal; show where it was.
export UBSAN_OPTIONS="print_stacktrace=1 ${UBSAN_OPTIONS:-}"
"$ROOT/build-asan/tests/io/io_corruption_test"
"$ROOT/build-asan/tests/io/io_roundtrip_test"
# The kernels test sweeps every level's tails and alignments, which is
# exactly where a vector over-read would hide.
"$ROOT/build-asan/tests/core/core_kernels_test"
# The protocol corruption battery decodes every truncation/byte-flip of
# every frame shape — the canonical place for an out-of-bounds read.
"$ROOT/build-asan/tests/serve/serve_protocol_test"
# Batch staging and the queue workers' hand-off of frames, callbacks
# and response buffers across threads, at every batch x thread shape.
"$ROOT/build-asan/tests/serve/serving_diff_test"
# The exposition renderer walks fixed-size bucket arrays with manual
# indexing — run it (and the bucket-boundary sweep) under ASan.
"$ROOT/build-asan/tests/obs/obs_histogram_test"
"$ROOT/build-asan/tests/obs/obs_expose_test"
"$ROOT/build-asan/tests/integration/integration_concurrent_runs_test"
# FP-tree arenas index nodes, paths and header positions by hand, and rule
# generation reports a result that is not downward closed as an error.
"$ROOT/build-asan/tests/assoc/assoc_miners_test"
"$ROOT/build-asan/tests/assoc/assoc_parallel_diff_test"
"$ROOT/build-asan/tests/assoc/assoc_out_of_core_diff_test"
"$ROOT/build-asan/tests/assoc/assoc_rules_test"
# The tree builder's hand-indexed presort partitions against the
# brute-force split oracle, and k-means' Hamerly bound arrays.
"$ROOT/build-asan/tests/tree/tree_parallel_diff_test"
"$ROOT/build-asan/tests/cluster/cluster_parallel_diff_test"

echo
echo "== tier 3: bench smoke (tiny configs, --json must parse) =="
BENCH_DIR="$ROOT/build/bench"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT

# json_check <path> [required_counter...]: the bench harness must have
# written a parseable record with a non-empty runs array; every listed
# counter must be present in every run.
json_check() {
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$@" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    record = json.load(f)
assert record["bench"], "missing bench name"
assert record["kernel_level"] in ("scalar", "avx2", "avx512"), \
    "missing/bad kernel_level"
assert record["runs"], "empty runs array"
for run in record["runs"]:
    assert "real_time" in run and "counters" in run, "malformed run"
    for counter in sys.argv[2:]:
        assert counter in run["counters"], f"missing counter {counter!r}"
print(f"  {sys.argv[1]}: {record['bench']}, {len(record['runs'])} run(s) ok")
PY
  else
    # Fallback: at least require the expected top-level keys.
    grep -q '"bench"' "$1" && grep -q '"runs"' "$1"
    echo "  $1: keys present (python3 unavailable, skipped full parse)"
  fi
}

# Smallest meaningful cases: one Lloyd k-means point, the BIRCH quality
# row, and one DBSCAN size. --no-table skips the slow prologue tables.
"$BENCH_DIR/bench_cluster_scaleup" \
  --benchmark_filter='BM_KMeans/100/0/0' \
  --json "$SMOKE_DIR/scaleup.json" >/dev/null
json_check "$SMOKE_DIR/scaleup.json"
"$BENCH_DIR/bench_cluster_quality" --no-table \
  --benchmark_filter='BM_Birch' \
  --json "$SMOKE_DIR/quality.json" >/dev/null
json_check "$SMOKE_DIR/quality.json"
"$BENCH_DIR/bench_dbscan" --no-table \
  --benchmark_filter='BM_DbscanKdTree/200/0' \
  --json "$SMOKE_DIR/dbscan.json" >/dev/null
json_check "$SMOKE_DIR/dbscan.json"
# Tree benches: one serial presorted case each (smallest size / the
# fixture grow row), exercising the threads + split_scan_rows counters.
"$BENCH_DIR/bench_tree_scaleup" --no-table \
  --benchmark_filter='BM_Cart/1000/0' \
  --json "$SMOKE_DIR/tree_scaleup.json" >/dev/null
json_check "$SMOKE_DIR/tree_scaleup.json"
"$BENCH_DIR/bench_tree_pruning" --no-table \
  --benchmark_filter='BM_GrowC45Presorted/0' \
  --json "$SMOKE_DIR/tree_pruning.json" >/dev/null
json_check "$SMOKE_DIR/tree_pruning.json"
# Association benches: one parallel FP-growth point on the smallest
# workload and the smallest scale-up row, asserting the threads and
# pattern-growth work-counter columns are emitted.
"$BENCH_DIR/bench_assoc_minsup" --no-table \
  --benchmark_filter='BM_FpGrowth/0/200/0' \
  --json "$SMOKE_DIR/assoc_minsup.json" >/dev/null
json_check "$SMOKE_DIR/assoc_minsup.json" threads cond_trees fp_nodes
"$BENCH_DIR/bench_assoc_scaleup_t" --no-table \
  --benchmark_filter='BM_Eclat/5/0' \
  --json "$SMOKE_DIR/assoc_scaleup_t.json" >/dev/null
json_check "$SMOKE_DIR/assoc_scaleup_t.json" threads intersections
# io bench: binary load + mmap on the smallest workload, asserting the
# bytes column; the out-of-core scale-up row must emit the partition
# and bytes_mapped counters.
"$BENCH_DIR/bench_io" --no-table \
  --benchmark_filter='/5000$' \
  --json "$SMOKE_DIR/io.json" >/dev/null
json_check "$SMOKE_DIR/io.json" bytes
"$BENCH_DIR/bench_assoc_scaleup_d" --no-table \
  --benchmark_filter='BM_AprioriOutOfCore/5000' \
  --json "$SMOKE_DIR/assoc_ooc.json" >/dev/null
json_check "$SMOKE_DIR/assoc_ooc.json" partitions bytes_mapped transactions
# Quantitative + streaming bench: the serial quantitative row must emit
# the rule/interval columns, the window row its verification counters.
"$BENCH_DIR/bench_quantitative" --no-table \
  --benchmark_filter='BM_QuantitativeMine/1' \
  --json "$SMOKE_DIR/quantitative.json" >/dev/null
json_check "$SMOKE_DIR/quantitative.json" threads rules interval_items
"$BENCH_DIR/bench_quantitative" --no-table \
  --benchmark_filter='BM_StreamingMineWindow' \
  --json "$SMOKE_DIR/streaming.json" >/dev/null
json_check "$SMOKE_DIR/streaming.json" window_transactions \
  candidates_checked border_misses
# Kernel microbench: the smallest bitset row at every compiled-in level,
# plus a forced-scalar run to prove the override reaches the record.
"$BENCH_DIR/bench_kernels" --no-table \
  --benchmark_filter='BM_BitsetIntersectionCount/level:[0-9]+/n:1024$' \
  --json "$SMOKE_DIR/kernels.json" >/dev/null
json_check "$SMOKE_DIR/kernels.json"
DMT_KERNEL_LEVEL=scalar "$BENCH_DIR/bench_kernels" --no-table \
  --benchmark_filter='BM_BitsetIntersectionCount/level:0/n:1024$' \
  --json "$SMOKE_DIR/kernels_scalar.json" >/dev/null
json_check "$SMOKE_DIR/kernels_scalar.json"
grep -q '"kernel_level": "scalar"' "$SMOKE_DIR/kernels_scalar.json"

echo
echo "== tier 3b: DMT_TRACE smoke (one bench per family, trace must parse) =="
# trace_check <path> <counter_prefix>: DMT_TRACE must have produced a
# Chrome trace_event file with at least one complete event and a
# dmtCounters section containing the family's registry counters.
trace_check() {
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$@" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "empty traceEvents array"
for event in events:
    assert event["ph"] == "X", f"unexpected phase {event['ph']!r}"
    assert event["name"] and event["dur"] >= 0 and event["ts"] >= 0
prefix = sys.argv[2]
matching = [k for k in trace["dmtCounters"] if k.startswith(prefix)]
assert matching, f"no dmtCounters under {prefix!r}"
assert trace["dmtDroppedEvents"] == 0, "trace dropped events"
print(f"  {sys.argv[1]}: {len(events)} event(s), "
      f"{len(matching)} {prefix}* counter(s) ok")
PY
  else
    grep -q '"traceEvents"' "$1" && grep -q '"dmtCounters"' "$1"
    echo "  $1: keys present (python3 unavailable, skipped full parse)"
  fi
}

DMT_TRACE="$SMOKE_DIR/trace_assoc.json" "$BENCH_DIR/bench_assoc_minsup" \
  --no-table --benchmark_filter='BM_FpGrowth/0/200/0' >/dev/null
trace_check "$SMOKE_DIR/trace_assoc.json" assoc/
DMT_TRACE="$SMOKE_DIR/trace_cluster.json" "$BENCH_DIR/bench_cluster_scaleup" \
  --benchmark_filter='BM_KMeans/100/0/0' >/dev/null
trace_check "$SMOKE_DIR/trace_cluster.json" cluster/
DMT_TRACE="$SMOKE_DIR/trace_tree.json" "$BENCH_DIR/bench_tree_scaleup" \
  --no-table --benchmark_filter='BM_Cart/1000/0' >/dev/null
trace_check "$SMOKE_DIR/trace_tree.json" tree/
DMT_TRACE="$SMOKE_DIR/trace_seq.json" "$BENCH_DIR/bench_gsp_minsup" \
  --no-table --benchmark_filter='BM_Gsp/100/0' >/dev/null
trace_check "$SMOKE_DIR/trace_seq.json" seq/
DMT_TRACE="$SMOKE_DIR/trace_classify.json" "$BENCH_DIR/bench_knn_sweep" \
  --no-table --benchmark_filter='BM_KnnKdTree/2000' >/dev/null
trace_check "$SMOKE_DIR/trace_classify.json" classify/

echo
echo "== tier 3c: bench regression gate (bench_compare vs baselines) =="
# The smoke records above were produced with exactly the configurations
# the checked-in baselines pin, so the gate diffs them directly: any
# deterministic work-counter change (itemsets, fp_nodes, intersections,
# split_scan_rows, ...) fails the script; wall-time drift only warns.
# Regenerate bench/baselines/*.json with the same filters when a change
# legitimately moves a counter.
BENCH_COMPARE="$ROOT/build/tools/bench_compare"
"$BENCH_COMPARE" "$ROOT/bench/baselines/assoc_minsup.json" \
  "$SMOKE_DIR/assoc_minsup.json"
"$BENCH_COMPARE" "$ROOT/bench/baselines/tree_scaleup.json" \
  "$SMOKE_DIR/tree_scaleup.json"
"$BENCH_COMPARE" "$ROOT/bench/baselines/quantitative.json" \
  "$SMOKE_DIR/quantitative.json"
"$BENCH_COMPARE" "$ROOT/bench/baselines/assoc_scaleup_t.json" \
  "$SMOKE_DIR/assoc_scaleup_t.json"

echo
echo "== tier 4: serving smoke (dmtd end-to-end + bench_serving --json) =="
DMTD="$ROOT/build/tools/dmtd"
DEMO_DIR="$SMOKE_DIR/dmtd_demo"
# Build the demo artifact set (tree + train + kmeans + rules containers),
# then drive the loaded daemon through the script path: one query per
# type plus a stats probe, checking the responses line up.
"$DMTD" --make-demo "$DEMO_DIR" >/dev/null
for artifact in tree.dmt train.dmt kmeans.dmt rules.dmt; do
  test -s "$DEMO_DIR/$artifact"
done
cat > "$SMOKE_DIR/queries.txt" <<'EOF'
# serving smoke queries
classify tree 60000 0 30 1 2 0 135000 10 200000
classify knn 60000 0 30 1 2 0 135000 10 200000
classify nb 60000 0 30 1 2 0 135000 10 200000
cluster 0.0 0.0
rules 5 1 2 3 4 5
stats
EOF
"$DMTD" --dir "$DEMO_DIR" --script "$SMOKE_DIR/queries.txt" \
  --batch-size 8 --cache 64 > "$SMOKE_DIR/script_out.txt"
grep -q '^id=1 labels ' "$SMOKE_DIR/script_out.txt"
grep -q '^id=2 labels ' "$SMOKE_DIR/script_out.txt"
grep -q '^id=3 labels ' "$SMOKE_DIR/script_out.txt"
grep -q '^id=4 clusters ' "$SMOKE_DIR/script_out.txt"
grep -q '^id=5 rules ' "$SMOKE_DIR/script_out.txt"
grep -q '^id=6 stats ' "$SMOKE_DIR/script_out.txt"
# The stats JSON must report the serving counters for the five queries.
grep -q '"serve/requests":6' "$SMOKE_DIR/script_out.txt"
echo "  script mode: 6 responses ok"

# Socket mode: start the daemon for exactly one connection, replay a
# repeated rules query through the client (lines on stdin), and require
# the second occurrence to hit the warm cache.
SOCKET="$SMOKE_DIR/dmtd.sock"
"$DMTD" --dir "$DEMO_DIR" --socket "$SOCKET" --max-conns 1 \
  --batch-size 8 --threads 2 --cache 64 >/dev/null &
DMTD_PID=$!
for _ in $(seq 1 100); do
  test -S "$SOCKET" && break
  sleep 0.05
done
printf 'rules 5 1 2 3 4 5\nrules 5 1 2 3 4 5\nstats\n' | \
  "$DMTD" --client "$SOCKET" > "$SMOKE_DIR/client_out.txt"
wait "$DMTD_PID"
grep -q '^id=1 rules ' "$SMOKE_DIR/client_out.txt"
grep -q '^id=2 rules ' "$SMOKE_DIR/client_out.txt"
grep -q '"serve/cache_hits":1' "$SMOKE_DIR/client_out.txt"
echo "  socket mode: cache-hit counter ok"

# Hang-up probe: a client floods stats requests and closes without
# reading. Writing to it must end that connection only; the daemon must
# still answer the next client and exit 0 after its second connection.
if command -v python3 >/dev/null 2>&1; then
  HANGUP_SOCKET="$SMOKE_DIR/hangup.sock"
  "$DMTD" --dir "$DEMO_DIR" --socket "$HANGUP_SOCKET" --max-conns 2 \
    --threads 2 >/dev/null 2>"$SMOKE_DIR/hangup_err.txt" &
  DMTD_PID=$!
  for _ in $(seq 1 100); do
    test -S "$HANGUP_SOCKET" && break
    sleep 0.05
  done
  python3 - "$HANGUP_SOCKET" <<'PY'
import socket, struct, sys
# 3000 stats request frames: "DMTQ", u32 body length 9, u64 id, u8 type 4.
frames = b"".join(b"DMTQ" + struct.pack("<IQB", 9, i, 4)
                  for i in range(1, 3001))
client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
client.connect(sys.argv[1])
client.sendall(frames)
client.close()
PY
  printf 'stats\n' | "$DMTD" --client "$HANGUP_SOCKET" \
    > "$SMOKE_DIR/hangup_out.txt"
  grep -q '^id=1 stats ' "$SMOKE_DIR/hangup_out.txt"
  wait "$DMTD_PID"
  echo "  hang-up probe: daemon survived, answered, exited 0"
else
  echo "  hang-up probe: skipped (python3 unavailable)"
fi

# Numeric flags: a sign, a negative size, or a value too wide for its
# field is the usage error (exit 2) — never a wrapped value or a signal.
for bad in "--threads -1" "--threads +4" "--cache -5" \
           "--batch-size 4294967297"; do
  set +e
  # shellcheck disable=SC2086  # split "flag value" into two words
  "$DMTD" --dir "$DEMO_DIR" --script "$SMOKE_DIR/queries.txt" $bad \
    >/dev/null 2>&1
  status=$?
  set -e
  if [ "$status" -ne 2 ]; then
    echo "  dmtd $bad exited $status, expected the usage error (2)"
    exit 1
  fi
done
echo "  bad numeric flags: usage error ok"

# Tree shape rules: a CRC-valid tree container whose nodes 0 and 1 are
# each other's only child must fail to load (exit 1, Corruption), not
# loop forever on the first tree query.
if command -v python3 >/dev/null 2>&1; then
  python3 - "$SMOKE_DIR/cyclic_tree.dmt" <<'PY'
import struct, sys, zlib
def string(s):
    return struct.pack("<I", len(s)) + s.encode()
def multiway_node(children):
    # Multiway split (kind 0) on attribute 0, class histogram {1, 1}.
    return (struct.pack("<BBIIId", 0, 0, 0, 0, 0, 0.0) +
            struct.pack("<QII", 2, 1, 1) +
            struct.pack("<Q", len(children)) +
            b"".join(struct.pack("<I", c) for c in children))
sections = [
    (1, struct.pack("<Q", 2)),                                # META
    (2, multiway_node([1]) + multiway_node([0])),             # NODES
    (3, struct.pack("<I", 1) + string("c") +                  # NAMES
        struct.pack("<II", 1, 1) + string("a") +
        struct.pack("<I", 2) + string("no") + string("yes")),
]
# Container layout (io/container.h): 32-byte header, 32-byte section
# entries, 8-byte aligned payloads; zlib.crc32 is core::Crc32.
cursor = 32 + 32 * len(sections)
entries, body = b"", b""
for sid, payload in sections:
    entries += struct.pack("<IIQQII", sid, 0, cursor, len(payload),
                           zlib.crc32(payload), 0)
    padded = payload + b"\0" * (-len(payload) % 8)
    body += padded
    cursor += len(padded)
header = b"DMTBIN01" + struct.pack("<IIIIQ", 1, 5, len(sections), 0, cursor)
crc = zlib.crc32(entries, zlib.crc32(header))
header = header[:20] + struct.pack("<I", crc) + header[24:]
open(sys.argv[1], "wb").write(header + entries + body)
PY
  printf 'classify tree 0\n' > "$SMOKE_DIR/cyclic_query.txt"
  set +e
  timeout 10 "$DMTD" --tree "$SMOKE_DIR/cyclic_tree.dmt" \
    --script "$SMOKE_DIR/cyclic_query.txt" >/dev/null \
    2>"$SMOKE_DIR/cyclic_err.txt"
  status=$?
  set -e
  if [ "$status" -ne 1 ] ||
     ! grep -q 'Corruption' "$SMOKE_DIR/cyclic_err.txt"; then
    echo "  dmtd --tree <cyclic tree> exited $status, expected 1 with" \
      "Corruption on stderr"
    cat "$SMOKE_DIR/cyclic_err.txt"
    exit 1
  fi
  echo "  cyclic tree container: rejected at load"
else
  echo "  cyclic tree container: skipped (python3 unavailable)"
fi

# bench_serving at one tiny configuration; the EXT-10 columns must land
# in the JSON record.
"$BENCH_DIR/bench_serving" --no-table \
  --benchmark_filter='BM_ServeReplay/1/8/512/real_time' \
  --json "$SMOKE_DIR/serving.json" >/dev/null
json_check "$SMOKE_DIR/serving.json" qps p50_us p99_us mean_batch \
  cache_hit_rate

echo
echo "== tier 4b: dmtd metrics exposition (--metrics-path + slow-query log) =="
# Replay the same script with the Prometheus dump and a 1µs slow-query
# threshold: the batch spans all six requests, so the recommend query
# must trip the log, and the final metrics dump must be a consistent
# Prometheus rendering (cumulative histogram buckets monotone, _count ==
# +Inf bucket, per-request latency series populated).
"$DMTD" --dir "$DEMO_DIR" --script "$SMOKE_DIR/queries.txt" \
  --batch-size 8 --cache 64 \
  --metrics-path "$SMOKE_DIR/metrics.prom" --metrics-interval-ms 200 \
  --slow-query-us 1 > "$SMOKE_DIR/metrics_out.txt" 2> "$SMOKE_DIR/metrics_err.txt"
grep -q 'slow query: id=5 type=recommend' "$SMOKE_DIR/metrics_err.txt"
test "$(grep -c 'slow query: ' "$SMOKE_DIR/metrics_err.txt")" -ge 1
metrics_check() {
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$1" <<'PY'
import re, sys
text = open(sys.argv[1]).read()
hists = {}   # name -> list of (le, cumulative)
sums = {}
counts = {}
types = {}
for line in text.splitlines():
    if line.startswith("# TYPE "):
        _, _, name, kind = line.split()
        types[name] = kind
        continue
    m = re.match(r'^([A-Za-z0-9_:]+)_bucket\{le="([^"]+)"\} (\d+)$', line)
    if m:
        hists.setdefault(m.group(1), []).append(
            (m.group(2), int(m.group(3))))
        continue
    m = re.match(r'^([A-Za-z0-9_:]+)_sum (\d+)$', line)
    if m:
        sums[m.group(1)] = int(m.group(2))
        continue
    m = re.match(r'^([A-Za-z0-9_:]+)_count (\d+)$', line)
    if m:
        counts[m.group(1)] = int(m.group(2))
        continue
    assert re.match(r'^[A-Za-z0-9_:]+ -?[0-9.e+-]+$', line), \
        f"unparseable line {line!r}"
assert hists, "no histogram series in dump"
for name, buckets in hists.items():
    assert types.get(name) == "histogram", f"{name}: missing TYPE"
    cumulative = [c for _, c in buckets]
    assert cumulative == sorted(cumulative), f"{name}: non-monotone"
    assert buckets[-1][0] == "+Inf", f"{name}: missing +Inf"
    assert buckets[-1][1] == counts[name], f"{name}: _count != +Inf"
    assert name in sums, f"{name}: missing _sum"
# The per-request serving telemetry must be present and populated.
assert counts.get("dmt_serve_latency_total_us", 0) == 6, \
    "serve latency histogram missing the 6 scripted requests"
assert counts.get("dmt_serve_hist_basket_items", 0) > 0
print(f"  {sys.argv[1]}: {len(hists)} histogram(s) consistent, "
      f"{len(types)} metric(s) ok")
PY
  else
    grep -q '_bucket{le="+Inf"}' "$1"
    echo "  $1: keys present (python3 unavailable, skipped full parse)"
  fi
}
metrics_check "$SMOKE_DIR/metrics.prom"
echo "  metrics exposition: slow-query log + Prometheus dump ok"

echo
echo "All checks passed."
