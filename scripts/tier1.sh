#!/usr/bin/env bash
# Tier-1 verification: the full test suite in the normal configuration,
# then the fuzz-smoke differential-oracle subset and the core battery
# rebuilt and re-run under AddressSanitizer + UBSan (catches memory
# bugs the functional comparison alone would miss), then the
# sweep-labeled tests (thread pool + parallel sweep driver) rebuilt and
# re-run with 4 workers under ThreadSanitizer (keeps the
# shared-substrate thread-cleanliness pass honest).
#
# Usage: scripts/tier1.sh [build-dir] [asan-build-dir] [tsan-build-dir]
#
# The first stage configures a Release build, so it defaults to its own
# build-release/ tree: CMake keeps a cached build type, and a Release
# build/ would leave the plain `cmake -B build -S .` configure without
# the lock-hierarchy checker (its SyncHierarchy death tests then skip).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build-release}"
ASAN_BUILD="${2:-build-asan}"
TSAN_BUILD="${3:-build-tsan}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== tier-1: full suite (${BUILD}) =="
cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release -DENABLE_WERROR=ON \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build "$BUILD" -j "$JOBS"
ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"

echo "== tier-1: perf-smoke (tools/perfgate --check) =="
if [ "${REPLAY_SKIP_PERFGATE:-0}" = "1" ]; then
    echo "warn: REPLAY_SKIP_PERFGATE=1; skipping the performance gate"
else
    # Hard-fails on a >25% throughput regression against the
    # checked-in baseline, or on any sweep-digest mismatch
    # (nondeterminism).  Gated metrics: sweep insts/s, engine frames/s,
    # and — since the SoA slab IR — pass-level optimizer opt-uops/s
    # (explore the same datapath interactively with the BM_Opt* benches
    # in bench/bench_hotpath.cc), plus v4 RAW trace-ingest MB/s (the
    # per-record ingest cost is perfbench's traced trace.ingest.*
    # layer).  The checked-in baseline is the median of several runs,
    # so the 25% floor absorbs machine noise without hiding real
    # regressions.  Skip with
    # REPLAY_SKIP_PERFGATE=1 (e.g. on heavily loaded or throttled
    # machines).
    "$BUILD/tools/perfgate" --check \
        --baseline bench/BENCH_hotpath.baseline.json \
        --out "$BUILD/BENCH_hotpath.json"
fi

echo "== tier-1: perfbench smoke (perfbench/smoke_test.py) =="
if [ "${REPLAY_SKIP_PERFBENCH:-0}" = "1" ]; then
    echo "warn: REPLAY_SKIP_PERFBENCH=1; skipping the perfbench smoke"
else
    # Every benchmark workload at a tiny budget, untraced and traced:
    # each result line must be well formed and correct and name every
    # metric with its unit, and a damaged corpus container must be
    # counted as failed tasks — that check reads exactly the chunked
    # trace container.  Builds its own tree in .bench_build/ (about a
    # minute).  Skip with REPLAY_SKIP_PERFBENCH=1.
    python3 perfbench/smoke_test.py
fi

echo "== tier-1: locking-discipline grep (sync::Mutex only) =="
# DESIGN.md "Locking discipline": every mutex/condvar in src/ and
# tools/ must be a util/sync.hh wrapper so it carries thread-safety
# annotations and participates in the ranked lock-hierarchy checker.
# Raw std primitives are allowed only inside the wrapper itself (and
# in tests/, which may build ad-hoc latches for orchestration).
RAW_SYNC="$(grep -rn \
    'std::mutex\|std::condition_variable\|std::shared_mutex\|std::lock_guard\|std::unique_lock\|std::scoped_lock\|std::shared_lock' \
    src tools --include='*.cc' --include='*.hh' \
    | grep -v '^src/util/sync\.hh:' || true)"
if [ -n "$RAW_SYNC" ]; then
    echo "error: raw std synchronization primitive outside util/sync.hh" >&2
    echo "       (use sync::Mutex / sync::CondVar;" >&2
    echo "        see DESIGN.md 'Locking discipline'):" >&2
    echo "$RAW_SYNC" >&2
    exit 1
fi

echo "== tier-1: Clang -Wthread-safety build =="
if [ "${REPLAY_SKIP_TSA:-0}" = "1" ]; then
    echo "warn: REPLAY_SKIP_TSA=1; skipping the thread-safety-analysis build"
elif command -v clang++ >/dev/null 2>&1; then
    # Full build under Clang with -Wthread-safety promoted to an error
    # (ENABLE_WERROR=ON covers it): proves every GUARDED_BY /
    # EXCLUDES annotation in the tree is consistent.  GCC
    # compiles the same attributes to no-ops, so only this stage
    # enforces them.
    TSA_BUILD="${BUILD}-tsa"
    cmake -B "$TSA_BUILD" -S . -DCMAKE_BUILD_TYPE=Release \
        -DENABLE_WERROR=ON \
        -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++
    cmake --build "$TSA_BUILD" -j "$JOBS"
else
    echo "warn: clang++ unavailable on this host; skipping the" \
         "thread-safety-analysis build (set REPLAY_SKIP_TSA=1 to silence)"
fi

echo "== tier-1: clang-tidy over src/verify/static + changed files =="
if command -v clang-tidy >/dev/null 2>&1; then
    # Lint the static-verifier subsystem plus whatever C++ files the
    # current branch touches relative to the merge base with main.
    TIDY_FILES="$(ls src/verify/static/*.cc 2>/dev/null || true)"
    CHANGED="$(git diff --name-only --diff-filter=ACMR \
                   "$(git merge-base HEAD origin/main 2>/dev/null \
                      || git rev-parse HEAD~1 2>/dev/null \
                      || git rev-parse HEAD)" -- '*.cc' 2>/dev/null || true)"
    TIDY_FILES="$(printf '%s\n%s\n' "$TIDY_FILES" "$CHANGED" \
                  | sort -u | grep -v '^$' || true)"
    if [ -n "$TIDY_FILES" ]; then
        # shellcheck disable=SC2086
        clang-tidy -p "$BUILD" $TIDY_FILES
    fi
else
    echo "warn: clang-tidy unavailable on this host; skipping"
fi

echo "== tier-1: fuzz-smoke + core under ASan+UBSan (${ASAN_BUILD}) =="
# The fuzz-smoke oracle never builds a RePlayEngine, so the core
# battery (constructor, engine, frame cache; its equivalence tests
# materialize every candidate of the 24 standard traces) runs here too.
cmake -B "$ASAN_BUILD" -S . -DCMAKE_BUILD_TYPE=Debug -DENABLE_SANITIZERS=ON
cmake --build "$ASAN_BUILD" -j "$JOBS" --target test_fuzz test_core
ctest --test-dir "$ASAN_BUILD" --output-on-failure -L 'fuzz-smoke|core'

echo "== tier-1: trace container corruption fuzz + round-trip under ASan+UBSan =="
if [ "${REPLAY_SKIP_TRACEV3:-0}" = "1" ]; then
    echo "warn: REPLAY_SKIP_TRACEV3=1; skipping the tracev3 stage"
else
    # Chunked-container (format v4) battery re-run under ASan+UBSan:
    # the corruption matrix, the forged-record cases and the
    # 500-iteration random-mutation fuzz smoke feed deliberately
    # damaged containers through the static-table loader and the
    # compact-record decoder, exactly where a bounds bug would hide
    # from the functional checks; the round-trip tests pin bit-identical
    # records for every workload and hot spot and for the hand-built
    # edge stream.  Skip with REPLAY_SKIP_TRACEV3=1 (the normal-config
    # run in the full suite above still covers the functional half).
    cmake --build "$ASAN_BUILD" -j "$JOBS" --target test_tracev3
    ctest --test-dir "$ASAN_BUILD" --output-on-failure -L tracev3
fi

echo "== tier-1: chaos-smoke under ASan+UBSan (${ASAN_BUILD}) =="
if [ "${REPLAY_SKIP_CHAOS:-0}" = "1" ]; then
    echo "warn: REPLAY_SKIP_CHAOS=1; skipping the chaos-smoke stage"
else
    # Thread-pool failure semantics plus the fault-injection battery
    # (seeded frame-cache flips and optimizer sabotage under the online
    # verifier, alone and combined across six workloads; damaged trace
    # files), both under ASan+UBSan so injected faults cannot hide
    # memory errors.  The Debug build also arms the ranked
    # lock-hierarchy checker (REPLAY_SYNC_HIERARCHY), so any
    # out-of-order acquisition on the pool/registry/logging paths
    # panics here instead of deadlocking.  Skip with
    # REPLAY_SKIP_CHAOS=1 on machines too slow for a sanitized
    # fault-injection run.
    cmake --build "$ASAN_BUILD" -j "$JOBS" \
        --target test_robustness test_fault
    ctest --test-dir "$ASAN_BUILD" --output-on-failure -j "$JOBS" \
        -L 'chaos-smoke|fault'
fi

echo "== tier-1: sweep tests under TSan, 4 workers (${TSAN_BUILD}) =="
if echo 'int main(){return 0;}' | \
   c++ -fsanitize=thread -x c++ - -o /tmp/tier1-tsan-probe 2>/dev/null \
   && /tmp/tier1-tsan-probe; then
    cmake -B "$TSAN_BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DENABLE_TSAN=ON
    cmake --build "$TSAN_BUILD" -j "$JOBS" --target test_sweep
    REPLAY_SIM_JOBS=4 ctest --test-dir "$TSAN_BUILD" \
        --output-on-failure -L sweep

    echo "== tier-1: sync primitives under TSan (${TSAN_BUILD}) =="
    # util/sync.hh wrapper battery: the mutex/condvar stress hammer,
    # the manual condvar wait loop the thread pool uses, and the
    # lock-hierarchy checker's panic paths (RelWithDebInfo arms
    # REPLAY_SYNC_HIERARCHY).
    cmake --build "$TSAN_BUILD" -j "$JOBS" --target test_sync
    ctest --test-dir "$TSAN_BUILD" --output-on-failure -L sync
else
    echo "warn: ThreadSanitizer unavailable on this host; skipping"
fi
rm -f /tmp/tier1-tsan-probe

echo "tier-1 PASS"
