#ifndef LQO_ENGINE_SIMD_H_
#define LQO_ENGINE_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lqo::simd {

/// Portable SIMD kernel layer for the vectorized executor (DESIGN.md
/// "Vectorized execution" → "SIMD dispatch").
///
/// Every data-path kernel the executor runs per batch — the Eq/Range/In
/// selection kernels of engine/filter_kernels.h and the column-wise join-key
/// hashing of engine/executor.cc — exists here in two variants, one per
/// instruction-set level:
///
///   kScalar  — plain C++ loops; the *definitional reference*, and the only
///              level on CPUs without AVX2 and on non-x86 CPUs. AVX2 must
///              produce bit-identical outputs (same survivors in the same
///              order, same hash words) on every input.
///   kAvx2    — 4 × int64 lanes over AVX2, processed as 8-row groups:
///              two compares → combined 8-bit movemask → compressed-store
///              via a 256-entry vpermd permutation table (x86-64).
///
/// A level is kept only while a committed benchmark shows it pays and this
/// build can test it (DESIGN.md "SIMD dispatch").
///
/// Dispatch is one-time and process-wide: the first call to ActiveLevel()
/// (or Kernels()) probes the CPU via __builtin_cpu_supports and caches the
/// best supported level; all kernel entry points are plain function
/// pointers in a per-level KernelTable, so steady-state dispatch is one
/// indirect call per *batch*, never per row. There is no runtime override:
/// tests and benches pin a level with SetLevelForTest(). Because both levels
/// are bit-identical by contract, the choice can never change
/// ExecutionResult — the determinism fingerprint in bench_parallel_scaling's
/// `simd_kernels` site enforces this across levels × LQO_THREADS.

// Instruction-set levels, ordered by preference.
enum class Level : int { kScalar = 0, kAvx2 = 1 };
inline constexpr int kNumLevels = 2;

/// Lowercase spelling used by the bench JSON ("scalar", "avx2").
const char* LevelName(Level level);

/// True when this process can execute `level`'s kernels on this CPU.
/// kScalar is always supported.
bool LevelSupported(Level level);

/// Highest-throughput supported level on this CPU (the dispatch default).
Level BestSupportedLevel();

/// Every supported level, scalar first, in ascending Level order — the
/// sweep set for A/B benches and bit-equality tests.
std::vector<Level> SupportedLevels();

/// The level the process-wide kernel table currently dispatches to.
/// First call resolves CPU detection and caches the result.
Level ActiveLevel();

/// Forces the active level (clamped to a supported one); returns the
/// previous active level so tests/benches can restore it. Not thread-safe
/// against concurrent kernel execution — call from a serial section only,
/// as the Simd* tests and the simd_kernels bench site do.
Level SetLevelForTest(Level level);

/// One function pointer per hot kernel. Filter kernels share the exact
/// contract of engine/filter_kernels.h: write survivor row ids (ascending)
/// to out_sel, return the survivor count, out_sel capacity covers the input
/// count. Compressed stores write a whole lane group then advance the
/// cursor by its popcount, but never past the input count: with k survivors
/// after scanning s rows, k <= s, and a group is only loaded when
/// s + lanes <= count, so the store's last slot k + lanes - 1 < count.
struct KernelTable {
  size_t (*filter_eq_dense)(const int64_t* col, uint32_t row_begin,
                            uint32_t row_end, int64_t value, uint32_t* out_sel);
  size_t (*filter_eq_sel)(const int64_t* col, const uint32_t* sel,
                          size_t count, int64_t value, uint32_t* out_sel);
  size_t (*filter_range_dense)(const int64_t* col, uint32_t row_begin,
                               uint32_t row_end, int64_t lo, int64_t hi,
                               uint32_t* out_sel);
  size_t (*filter_range_sel)(const int64_t* col, const uint32_t* sel,
                             size_t count, int64_t lo, int64_t hi,
                             uint32_t* out_sel);
  size_t (*filter_in_dense)(const int64_t* col, uint32_t row_begin,
                            uint32_t row_end, const int64_t* sorted_values,
                            size_t num_values, uint32_t* out_sel);
  size_t (*filter_in_sel)(const int64_t* col, const uint32_t* sel,
                          size_t count, const int64_t* sorted_values,
                          size_t num_values, uint32_t* out_sel);
  // Join-key hashing (engine/executor.cc): fold `col[r]` into `hashes[r]`
  // with HashCombine for r in [begin, end), and apply FinalizeHash to
  // `hashes[r]` in place. N-lane integer ops, bit-identical to the scalar
  // helpers below.
  void (*hash_combine_column)(uint64_t* hashes, const int64_t* col,
                              size_t begin, size_t end);
  void (*hash_finalize)(uint64_t* hashes, size_t begin, size_t end);
};

/// The table for the active level (resolving it on first use).
const KernelTable& Kernels();

/// The table for an explicit level, for A/B comparisons; an unsupported
/// level returns the scalar table.
const KernelTable& KernelsFor(Level level);

// -- Scalar hash steps (the definitional reference the scalar kernel level
//    is built from; the AVX2 level reproduces them bit for bit). --

/// FNV-ish mix; good enough for join bucketing (equality is verified).
inline uint64_t HashCombine(uint64_t h, int64_t v) {
  h ^= static_cast<uint64_t>(v) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Murmur3-style finalizer. HashCombine alone leaves the top bits of small
/// keys nearly constant; full avalanche lets slot addressing use any bit
/// range. Bijective, so distinct-hash counts (the skew statistic) are
/// unchanged.
inline uint64_t FinalizeHash(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace lqo::simd

#endif  // LQO_ENGINE_SIMD_H_
