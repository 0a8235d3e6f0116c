#include "engine/agg_kernels.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define LQO_AGG_SIMD_X86 1
#else
#define LQO_AGG_SIMD_X86 0
#endif

// Together with engine/simd.cc this is the only translation unit allowed to
// touch raw intrinsics (lqo-lint rule `raw-intrinsics`); the executor's sink
// reaches these bodies through the AggKernelTable only. A per-function
// `target("avx2")` attribute keeps the global -m baseline unchanged, exactly
// as in simd.cc; the shared dispatcher guarantees the AVX2 bodies only run
// on a CPU that has AVX2.

namespace lqo::simd {
namespace {

// ===========================================================================
// Scalar reference kernels. Branch-free folds: SUM wraps in uint64, MIN/MAX
// select with conditional moves (ternaries the compiler lowers to cmov), so
// per-row cost is data-independent. These define the semantics every SIMD
// level must reproduce bit-for-bit — which AVX2 does for free, because all
// three folds are associative and commutative (see agg_kernels.h).
// ===========================================================================

uint64_t SumDenseScalar(const int64_t* col, uint32_t row_begin,
                        uint32_t row_end) {
  uint64_t acc = 0;
  for (uint32_t r = row_begin; r < row_end; ++r) {
    acc += static_cast<uint64_t>(col[r]);
  }
  return acc;
}

uint64_t SumSelScalar(const int64_t* col, const uint32_t* sel, size_t count) {
  uint64_t acc = 0;
  for (size_t i = 0; i < count; ++i) {
    acc += static_cast<uint64_t>(col[sel[i]]);
  }
  return acc;
}

int64_t MinDenseScalar(const int64_t* col, uint32_t row_begin,
                       uint32_t row_end) {
  int64_t acc = std::numeric_limits<int64_t>::max();
  for (uint32_t r = row_begin; r < row_end; ++r) {
    int64_t v = col[r];
    acc = v < acc ? v : acc;
  }
  return acc;
}

int64_t MinSelScalar(const int64_t* col, const uint32_t* sel, size_t count) {
  int64_t acc = std::numeric_limits<int64_t>::max();
  for (size_t i = 0; i < count; ++i) {
    int64_t v = col[sel[i]];
    acc = v < acc ? v : acc;
  }
  return acc;
}

int64_t MaxDenseScalar(const int64_t* col, uint32_t row_begin,
                       uint32_t row_end) {
  int64_t acc = std::numeric_limits<int64_t>::min();
  for (uint32_t r = row_begin; r < row_end; ++r) {
    int64_t v = col[r];
    acc = v > acc ? v : acc;
  }
  return acc;
}

int64_t MaxSelScalar(const int64_t* col, const uint32_t* sel, size_t count) {
  int64_t acc = std::numeric_limits<int64_t>::min();
  for (size_t i = 0; i < count; ++i) {
    int64_t v = col[sel[i]];
    acc = v > acc ? v : acc;
  }
  return acc;
}

constexpr AggKernelTable kScalarAggTable = {
    SumDenseScalar, SumSelScalar, MinDenseScalar,
    MinSelScalar,   MaxDenseScalar, MaxSelScalar,
};

#if LQO_AGG_SIMD_X86

// ===========================================================================
// AVX2: 4 × int64 lanes. pcmpgtq + pblendvb give branch-free 64-bit min/max
// (AVX2 has no 64-bit vpmin/vpmax). Sel variants assemble lanes with four
// scalar loads instead of vpgatherqq: the hardware gather takes *signed*
// 32-bit indices, and sink row-id vectors are unordered after joins, so the
// ascending-max guard the filter kernels use cannot bound them cheaply.
// ===========================================================================

__attribute__((target("avx2"))) uint64_t SumDenseAvx2(const int64_t* col,
                                                      uint32_t row_begin,
                                                      uint32_t row_end) {
  uint32_t r = row_begin;
  __m256i acc = _mm256_setzero_si256();
  for (; r + 4 <= row_end; r += 4) {
    acc = _mm256_add_epi64(
        acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + r)));
  }
  uint64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  uint64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; r < row_end; ++r) total += static_cast<uint64_t>(col[r]);
  return total;
}

__attribute__((target("avx2"))) uint64_t SumSelAvx2(const int64_t* col,
                                                    const uint32_t* sel,
                                                    size_t count) {
  size_t i = 0;
  __m256i acc = _mm256_setzero_si256();
  for (; i + 4 <= count; i += 4) {
    acc = _mm256_add_epi64(
        acc, _mm256_set_epi64x(col[sel[i + 3]], col[sel[i + 2]],
                               col[sel[i + 1]], col[sel[i]]));
  }
  uint64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  uint64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < count; ++i) total += static_cast<uint64_t>(col[sel[i]]);
  return total;
}

__attribute__((target("avx2"))) inline __m256i Min64Avx2(__m256i a,
                                                         __m256i b) {
  // Keep b where a > b.
  return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b));
}

__attribute__((target("avx2"))) inline __m256i Max64Avx2(__m256i a,
                                                         __m256i b) {
  // Keep b where b > a.
  return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(b, a));
}

__attribute__((target("avx2"))) int64_t MinDenseAvx2(const int64_t* col,
                                                     uint32_t row_begin,
                                                     uint32_t row_end) {
  uint32_t r = row_begin;
  __m256i acc = _mm256_set1_epi64x(std::numeric_limits<int64_t>::max());
  for (; r + 4 <= row_end; r += 4) {
    acc = Min64Avx2(
        acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + r)));
  }
  int64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  int64_t best = lanes[0];
  for (int l = 1; l < 4; ++l) best = lanes[l] < best ? lanes[l] : best;
  for (; r < row_end; ++r) best = col[r] < best ? col[r] : best;
  return best;
}

__attribute__((target("avx2"))) int64_t MinSelAvx2(const int64_t* col,
                                                   const uint32_t* sel,
                                                   size_t count) {
  size_t i = 0;
  __m256i acc = _mm256_set1_epi64x(std::numeric_limits<int64_t>::max());
  for (; i + 4 <= count; i += 4) {
    acc = Min64Avx2(acc, _mm256_set_epi64x(col[sel[i + 3]], col[sel[i + 2]],
                                           col[sel[i + 1]], col[sel[i]]));
  }
  int64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  int64_t best = lanes[0];
  for (int l = 1; l < 4; ++l) best = lanes[l] < best ? lanes[l] : best;
  for (; i < count; ++i) best = col[sel[i]] < best ? col[sel[i]] : best;
  return best;
}

__attribute__((target("avx2"))) int64_t MaxDenseAvx2(const int64_t* col,
                                                     uint32_t row_begin,
                                                     uint32_t row_end) {
  uint32_t r = row_begin;
  __m256i acc = _mm256_set1_epi64x(std::numeric_limits<int64_t>::min());
  for (; r + 4 <= row_end; r += 4) {
    acc = Max64Avx2(
        acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + r)));
  }
  int64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  int64_t best = lanes[0];
  for (int l = 1; l < 4; ++l) best = lanes[l] > best ? lanes[l] : best;
  for (; r < row_end; ++r) best = col[r] > best ? col[r] : best;
  return best;
}

__attribute__((target("avx2"))) int64_t MaxSelAvx2(const int64_t* col,
                                                   const uint32_t* sel,
                                                   size_t count) {
  size_t i = 0;
  __m256i acc = _mm256_set1_epi64x(std::numeric_limits<int64_t>::min());
  for (; i + 4 <= count; i += 4) {
    acc = Max64Avx2(acc, _mm256_set_epi64x(col[sel[i + 3]], col[sel[i + 2]],
                                           col[sel[i + 1]], col[sel[i]]));
  }
  int64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), acc);
  int64_t best = lanes[0];
  for (int l = 1; l < 4; ++l) best = lanes[l] > best ? lanes[l] : best;
  for (; i < count; ++i) best = col[sel[i]] > best ? col[sel[i]] : best;
  return best;
}

constexpr AggKernelTable kAvx2AggTable = {
    SumDenseAvx2, SumSelAvx2, MinDenseAvx2,
    MinSelAvx2,   MaxDenseAvx2, MaxSelAvx2,
};

#endif  // LQO_AGG_SIMD_X86

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

const AggKernelTable& AggKernelsFor(Level level) {
  if (!LevelSupported(level)) return kScalarAggTable;
#if LQO_AGG_SIMD_X86
  if (level == Level::kAvx2) return kAvx2AggTable;
#endif
  return kScalarAggTable;
}

const AggKernelTable& AggKernels() { return AggKernelsFor(ActiveLevel()); }

GroupIndex::GroupIndex(size_t expected_groups) {
  size_t capacity =
      NextPowerOfTwo(std::max<size_t>(16, expected_groups * 2));
  slot_hash_.assign(capacity, 0);
  slot_group_.assign(capacity, kEmpty);
  mask_ = capacity - 1;
}

void GroupIndex::Grow() {
  size_t capacity = (mask_ + 1) * 2;
  slot_hash_.assign(capacity, 0);
  slot_group_.assign(capacity, kEmpty);
  mask_ = capacity - 1;
  // Re-seat existing groups from their stored hashes; ids are preserved, so
  // first-seen order (and every downstream bit) is unchanged by growth.
  for (size_t g = 0; g < group_keys_.size(); ++g) {
    size_t slot = static_cast<size_t>(group_hashes_[g]) & mask_;
    while (slot_group_[slot] != kEmpty) slot = (slot + 1) & mask_;
    slot_hash_[slot] = group_hashes_[g];
    slot_group_[slot] = static_cast<uint32_t>(g);
  }
}

void GroupIndex::MapBatch(const int64_t* keys, const uint64_t* hashes,
                          size_t count, uint32_t* group_ids) {
  for (size_t i = 0; i < count; ++i) {
    uint64_t h = hashes[i];
    int64_t key = keys[i];
    size_t slot = static_cast<size_t>(h) & mask_;
    uint32_t id = kEmpty;
    while (slot_group_[slot] != kEmpty) {
      if (slot_hash_[slot] == h &&
          group_keys_[slot_group_[slot]] == key) {
        id = slot_group_[slot];
        break;
      }
      slot = (slot + 1) & mask_;
    }
    if (id == kEmpty) {
      id = static_cast<uint32_t>(group_keys_.size());
      LQO_CHECK_LT(id, kEmpty);
      slot_hash_[slot] = h;
      slot_group_[slot] = id;
      // lint: hot-loop-growth-ok(amortized first-seen group registration,
      // bounded by the distinct-key count, not the row count)
      group_keys_.push_back(key);
      // lint: hot-loop-growth-ok(same amortized group registration)
      group_hashes_.push_back(h);
      if (group_keys_.size() * 2 > mask_ + 1) Grow();
    }
    group_ids[i] = id;
  }
}

}  // namespace lqo::simd
