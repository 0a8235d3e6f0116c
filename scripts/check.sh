#!/usr/bin/env bash
# CI gate, three stages ordered cheapest-first so hazards fail fast:
#
#   1. lqo-lint       — two-phase whole-program static analysis over src/,
#                       tests/, bench/, examples/ and tools/
#                       (tools/lqo-lint): per-file determinism/concurrency/
#                       hygiene rules plus cross-TU lock-discipline,
#                       unordered-iter and layering, gated against the
#                       checked-in waiver budget (baseline.json), before
#                       any build of the full suite.
#   2. TSan suite     — builds under ThreadSanitizer and runs every test
#                       with a 4-thread global pool, so unsynchronized
#                       accesses introduced by a new parallel site fail even
#                       on single-core runners.
#   3. UBSan suite    — rebuilds under UndefinedBehaviorSanitizer with
#                       -fno-sanitize-recover=all (any UB aborts) and runs
#                       ctest again.
#
# Both sanitizer builds compile with LQO_WERROR=ON, so the hardened warning
# set (-Wshadow -Wnon-virtual-dtor -Wimplicit-fallthrough -Wcast-qual) is
# enforced as errors.
#
# A fourth stage rebuilds the tree with clang++ and -Werror=thread-safety,
# statically checking the LQO_GUARDED_BY/LQO_REQUIRES annotations. It
# auto-enables whenever clang++ is on PATH; LQO_CLANG_TSA=1 forces it,
# LQO_CLANG_TSA=0 skips it (the default image ships GCC only).
#
# Usage: scripts/check.sh [tsan-build-dir] [ubsan-build-dir] [tsa-build-dir]
#        (defaults: build-tsan build-ubsan build-tsa)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"
UBSAN_DIR="${2:-build-ubsan}"
JOBS="$(nproc)"

# --- Stage 1: static analysis (fail-fast, before the expensive builds) -----
cmake -B "$BUILD_DIR" -S . -DLQO_SANITIZE=thread -DLQO_WERROR=ON
cmake --build "$BUILD_DIR" -j"$JOBS" --target lqo-lint
# Whole-program analysis (per-file rules + cross-TU lock-discipline /
# unordered-iter / layering) with the waiver budget enforced against the
# checked-in baseline. A SARIF log is always written so CI can upload it as
# an artifact; on failure its path is echoed for the uploader.
SARIF_OUT="$BUILD_DIR/lqo-lint.sarif"
if ! "$BUILD_DIR"/tools/lqo-lint/lqo-lint --root . \
    --baseline tools/lqo-lint/baseline.json \
    --sarif-out "$SARIF_OUT" \
    src tests bench examples tools; then
  echo "check.sh: stage 1 (lqo-lint) FAILED — SARIF artifact: $SARIF_OUT" >&2
  exit 1
fi
echo "check.sh: stage 1 (lqo-lint) passed (SARIF: $SARIF_OUT)"

# --- Stage 2: ThreadSanitizer suite ----------------------------------------
cmake --build "$BUILD_DIR" -j"$JOBS"

export LQO_THREADS=4
# second_deadlock_stack aids diagnosing lock-order reports from the pool.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS"

# The scaling bench sweeps every parallel site at 1/2/4/N threads under
# TSan and exits nonzero if any site diverges from its serial result (the
# benchlib harness disarms its plain-build-only throughput gates under
# sanitizers; every other gate stays armed). A full run writes its
# BENCH_*.json ledger to the cwd, so it runs inside the build tree and the
# committed plain-build ledger at the repo root stays untouched.
(cd "$BUILD_DIR" && ./bench/bench_parallel_scaling)

# Executor and SIMD-dispatch gates, under TSan + 4 threads: selection-vector
# kernel reference checks, scalar-vs-AVX2 kernel bit-equality (extreme
# values included), and the oracle-backed engine tests — scan/join edge-case
# batches and the real merge/NLJ join paths checked against the naive
# evaluator of tests/naive_exec_oracle.h and bit-identical at every SIMD
# level x 1/2/8 threads — plus the plan-shape checks that reject malformed
# plan trees before execution.
"$BUILD_DIR"/tests/engine_test \
  --gtest_filter='Vectorized*:Simd*:ExecutorTest.Rejects*'
# The kernel microbenchmarks' fixture CHECK-fails if any filter kernel
# disagrees with per-row Predicate::Matches or any SIMD level diverges from
# the scalar reference table on odd batch sizes.
"$BUILD_DIR"/bench/bench_micro_components \
  --benchmark_filter='Kernel' --benchmark_min_time=0.05
# SIMD determinism fingerprint, run alone as the simd_kernels site. The site
# pins each supported level itself (scalar, plus avx2 where the CPU has it)
# x 1/2/4/N threads over its scan, hash, merge, NLJ and 3-way chain plans
# and exits nonzero on any bit divergence (the >=1.3x filter-kernel floor
# is a plain-build-only gate, disarmed under sanitizers).
"$BUILD_DIR"/bench/bench_parallel_scaling --site simd_kernels

# Late-materialization output pipeline gates, under TSan + 4 threads:
# aggregate-kernel bit-equality at boundary batch sizes, then the
# oracle-backed GROUP BY, global-aggregate (overflowing SUM included) and
# projection tests — outputs equal the naive evaluator's and stay
# bit-identical at every SIMD level x 1/2/8 threads — then the
# agg_projection determinism fingerprint (the site pins every supported
# level itself x 1/2/4/N threads, folding every output value; run alone as
# the agg_projection site).
"$BUILD_DIR"/tests/engine_test \
  --gtest_filter='Aggregate*:Projection*:GroupIndex*'
"$BUILD_DIR"/bench/bench_parallel_scaling --site agg_projection

# Batched-inference gates, still under TSan + 4 threads: the bit-identity
# and thread-invariance tests, then the inference microbenchmarks (whose
# fixture CHECK-fails if PredictBatch diverges from per-row Predict).
"$BUILD_DIR"/tests/ml_test --gtest_filter='BatchInference*'
"$BUILD_DIR"/tests/thread_pool_test \
  --gtest_filter='*BatchedCandidateScoring*:*EstimateSubqueryBatch*'
"$BUILD_DIR"/bench/bench_micro_components \
  --benchmark_filter='Inference' --benchmark_min_time=0.05

# Planner gate, under TSan + 4 threads: DPccp against the submask DP oracle
# (bit-identical plans, costs, combination counts and estimator call order),
# including Bao's hint arms sharing one provider.
"$BUILD_DIR"/tests/planner_oracle_test

# Serving front end determinism site, under TSan: replays concurrent
# sessions (drift + parameter-sensitive scenarios included) through the
# shared plan cache at LQO_THREADS 1/2/8 and exits nonzero unless the
# fingerprints are bit-identical (the families site, with the cache-quality
# and throughput gates, is not run here). The plan cache is single-threaded
# and holds no lock, so the TSan run also shows that no pool task of the
# replay enters it.
"$BUILD_DIR"/bench/bench_serving --site determinism
echo "check.sh: stage 2 (TSan suite) passed with LQO_THREADS=4"

# --- Stage 3: UndefinedBehaviorSanitizer suite -----------------------------
cmake -B "$UBSAN_DIR" -S . -DLQO_SANITIZE=undefined -DLQO_WERROR=ON
cmake --build "$UBSAN_DIR" -j"$JOBS"
UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
  ctest --test-dir "$UBSAN_DIR" --output-on-failure -j"$JOBS"
echo "check.sh: stage 3 (UBSan suite) passed"

# --- Stage 4: Clang Thread Safety Analysis ---------------------------------
# Compiles the tree with clang++ and -Wthread-safety as errors, statically
# checking the LQO_GUARDED_BY/LQO_REQUIRES annotations
# (src/common/thread_annotations.h). Auto-enables when clang++ is on PATH
# (LQO_CLANG_TSA unset or "auto"); LQO_CLANG_TSA=1 forces it (error if
# clang++ is missing), LQO_CLANG_TSA=0 skips it. The annotations are no-ops
# under GCC, so skipping on a GCC-only image loses nothing the lint
# lock-discipline pass doesn't cover.
TSA_MODE="${LQO_CLANG_TSA:-auto}"
RUN_TSA=0
case "$TSA_MODE" in
  1) RUN_TSA=1 ;;
  0) RUN_TSA=0 ;;
  *) command -v clang++ >/dev/null 2>&1 && RUN_TSA=1 || RUN_TSA=0 ;;
esac
if [[ "$RUN_TSA" == "1" ]]; then
  TSA_DIR="${3:-build-tsa}"
  if ! command -v clang++ >/dev/null 2>&1; then
    echo "check.sh: LQO_CLANG_TSA=1 but clang++ is not installed." >&2
    echo "  Thread Safety Analysis needs Clang; install clang or set" >&2
    echo "  LQO_CLANG_TSA=0 to run the GCC-only stages." >&2
    exit 1
  fi
  # Compile-only gate: any -Wthread-safety finding fails the build.
  cmake -B "$TSA_DIR" -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DLQO_THREAD_SAFETY=ON -DCMAKE_CXX_FLAGS=-Werror=thread-safety
  cmake --build "$TSA_DIR" -j"$JOBS"
  echo "check.sh: stage 4 (clang -Wthread-safety) passed"
else
  echo "check.sh: stage 4 (clang -Wthread-safety) skipped (no clang++)"
fi

echo "check.sh: all stages passed (lint, TSan, UBSan)"
