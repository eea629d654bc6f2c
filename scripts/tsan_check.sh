#!/usr/bin/env bash
# Sanitizer smoke checks for the concurrent + SIMD kernel substrate.
#
# Leg 1 (ThreadSanitizer): builds with -DRELSERVE_SANITIZE=thread into
# build-tsan/ and runs the test binaries that exercise the
# morsel-driven ThreadPool, the concurrent BufferPool/DiskManager, the
# parallel block operators, and the packed GEMM layer (whose
# macro-tile ParallelFor shares one read-only B panel and per-worker A
# panels across pool threads). Any data race makes the binaries exit
# non-zero (halt_on_error=1), failing this script. The scheduler and
# network server tests run three times each, so their repeats also
# cover the spin-to-park transitions of the scheduler worker and the
# event loop (a push or Shutdown landing while a thread spins or just
# after it parks).
#
# Leg 2 (UndefinedBehaviorSanitizer): rebuilds with
# -DRELSERVE_SANITIZE=undefined into build-ubsan/ and runs the kernel
# and tensor tests. The micro-kernel layer leans on aligned loads,
# pointer arithmetic over packed panels, and a function-pointer
# dispatch table — exactly the constructs UBSan checks (misaligned
# access, OOB pointer arithmetic, bad function-pointer calls).
#
# Leg 3 (AddressSanitizer): rebuilds with -DRELSERVE_SANITIZE=address
# into build-asan/ and runs every test binary tests/CMakeLists.txt
# registers. Besides the out-of-bounds and use-after-free checks every
# test gets, it checks object lifetimes across threads: the completion
# callback that keeps a network connection alive until its reply is
# written, the promise a future adapter's callback owns, the
# micro-batch chunks the pipelined schedule hands from stage to stage,
# and the borrowed column chunks ServingSession::Execute feeds to a
# model.
#
# Usage: scripts/tsan_check.sh [tsan-build-dir] [ubsan-build-dir]
#                              [asan-build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"
UBSAN_DIR="${2:-build-ubsan}"
ASAN_DIR="${3:-build-asan}"

# executor_test and serving_concurrency_test drive the compiled
# PhysicalPlan stage runner (shared StageStats atomics accumulate
# across concurrent requests and redeploy swaps). columnar_test runs
# the fragment-parallel ColumnarScan (morsels decode fragments
# concurrently into a shared output vector and accumulate atomic
# telemetry) plus the lock-free ScanCostModel EWMA.
# quantized_kernels_test runs the int8/sparse/top-k kernel arms under
# row-morsel parallelism (per-worker quantization scratch and
# selectors, asserting bit-identical output at every thread count)
# and their SIMD dispatch tables under UBSan. net_serving_test drives
# the epoll server's shared write path (scheduler threads encoding
# replies under per-connection write mutexes from the scheduler's one
# callback completion path and flushing each connection once per
# batch, inflight counters, drain-on-shutdown) under TSan, and the
# wire codec's memcpy-cursor frame parsing over torn and corrupted
# frames under UBSan.
# mvcc_test runs serve-while-ingest schedules (readers pinning
# snapshots against a committing writer: version clock, visibility
# map, and cache-fence atomics) under TSan; wal_recovery_test runs
# group-commit leader election across concurrent ingest threads under
# TSan, and the WAL codec's byte-cursor frame encode/decode over
# corrupted and torn logs under UBSan. dedup_test hammers the
# content-addressed PhysicalBlockIndex (concurrent intern/release
# refcounting, shared BlockStores, multi-tenant deploy/undeploy
# lifecycle) under TSan, and its CRC-then-memcmp byte comparison over
# raw page payloads under UBSan; serving_concurrency_test's churn case
# races Deploy/DeployAot/Undeploy against in-flight Predicts over
# shared blocks.
# pipeline_test runs the pipelined schedule: one worker thread per
# compiled stage, all bumping the plan's shared StageStats counters.
# serving_test drives compiled plans whose fp32 matmul stages run on
# B panels packed at deploy, through the masked edge tiles of short
# batches, under UBSan.
# block_ops_test runs the relation-centric join's row strips, and the
# output-block ranges of a single strip, on several pool workers at
# once over one weight relation of B panels read in place from pinned
# frames (each morsel owns its accumulator and packed X blocks; the
# pages are read-only) under TSan, and the join's panel arithmetic
# over zero-padded panels of ragged blocks, slivers straddling two
# pages, and panels packed at another SIMD level, under UBSan.
# storage_test runs the pinned page view's per-page pointer
# arithmetic and the aligned frames under UBSan. quantized_kernels_test also runs the dense top-k head
# on kNc-aligned slices of one deploy-packed panel.
# optimizer_test runs the checked int64 arithmetic of the plan's byte
# estimates at batch sizes that overflow it, under UBSan.
# common_test races four threads on one relaxed Counter, the field
# type of every concurrently bumped stats struct (exact Add sums and
# the StoreMax high-water mark).
TSAN_TESTS=(common_test resource_test storage_test dedup_test
            block_ops_test kernels_test executor_test
            serving_concurrency_test chaos_test columnar_test
            quantized_kernels_test net_serving_test mvcc_test
            wal_recovery_test pipeline_test)
UBSAN_TESTS=(kernels_test tensor_test block_ops_test storage_test
            executor_test plan_text_test chaos_test columnar_test dedup_test
            quantized_kernels_test net_serving_test wal_recovery_test
            serving_test optimizer_test)
# Every registered test, so a test added later is covered without an
# edit here.
mapfile -t ASAN_TESTS < <(sed -n 's/^relserve_add_test(\(.*\))$/\1/p' \
                              tests/CMakeLists.txt)
if [ "${#ASAN_TESTS[@]}" -eq 0 ]; then
    echo "no relserve_add_test() lines in tests/CMakeLists.txt" >&2
    exit 1
fi

cmake -B "$BUILD_DIR" -S . -DRELSERVE_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j --target "${TSAN_TESTS[@]}"

export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
# The chaos harness replays deterministic randomized fault schedules;
# a reduced seed count keeps the sanitizer legs fast while still
# exercising every failpoint site under TSan/UBSan.
export RELSERVE_CHAOS_SEEDS="${RELSERVE_CHAOS_SEEDS:-8}"
for test in "${TSAN_TESTS[@]}"; do
    echo "== TSan: $test =="
    repeat=()
    case "$test" in
        # Submitters and workers share one scheduler lock; repeats let
        # its schedule meet several interleavings.
        serving_concurrency_test|net_serving_test) repeat=(--gtest_repeat=3) ;;
    esac
    "$BUILD_DIR/tests/$test" "${repeat[@]}"
done

# Environment-activation smoke: a fresh process must arm failpoints
# from RELSERVE_FAILPOINTS alone (the grammar's end-to-end path). Run
# against the one test that asserts the armed site fires; the filter
# matters — earlier tests' teardown would disarm the env-armed site.
cmake --build "$BUILD_DIR" -j --target failpoint_test
echo "== TSan: failpoint_test (env activation smoke) =="
RELSERVE_FAILPOINTS="chaos.smoke=error(Unavailable),limit=2" \
    "$BUILD_DIR/tests/failpoint_test" --gtest_filter='*EnvActivationSmoke'

cmake -B "$UBSAN_DIR" -S . -DRELSERVE_SANITIZE=undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$UBSAN_DIR" -j --target "${UBSAN_TESTS[@]}"

export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"
for test in "${UBSAN_TESTS[@]}"; do
    echo "== UBSan: $test =="
    "$UBSAN_DIR/tests/$test"
done

cmake -B "$ASAN_DIR" -S . -DRELSERVE_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$ASAN_DIR" -j --target "${ASAN_TESTS[@]}"

export ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}"
for test in "${ASAN_TESTS[@]}"; do
    echo "== ASan: $test =="
    "$ASAN_DIR/tests/$test"
done
echo "Sanitizer smoke checks passed."
