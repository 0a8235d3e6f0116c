#ifndef LQO_ENGINE_VEC_BATCH_H_
#define LQO_ENGINE_VEC_BATCH_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/logging.h"

namespace lqo {

/// Batch format of the vectorized executor (DESIGN.md "Vectorized
/// execution").
///
/// The executor processes rows in fixed-size batches of `kVecBatchRows`
/// consecutive rows. Qualifying rows are described by a *selection vector*:
/// an ascending array of absolute row ids (uint32 — the executor CHECKs
/// inputs below 2^32 rows). Predicate kernels (engine/filter_kernels.h)
/// consume one selection vector and produce the next without branching on
/// the predicate outcome; materialization gathers surviving rows
/// column-by-column in bulk. Because selection vectors are always ascending
/// and batches are walked in row order, a scan emits exactly the rows
/// Predicate::Matches accepts, in base-row order — the order the naive test
/// oracle (tests/naive_exec_oracle.h) produces, which pins scan output row
/// for row.
constexpr size_t kVecBatchRows = 1024;

/// Fixed-capacity selection vector: ascending absolute row ids plus a
/// count. Sized for one batch; kernels write it without bounds branches.
struct SelVector {
  uint32_t row[kVecBatchRows];
  size_t count = 0;
};

/// Appends `col[sel[0..count)]` to `*out` in one resize plus a tight gather
/// loop — the batched twin of per-row `out->push_back(col[row])`. Index is
/// uint32 for scan selection vectors and uint64 for join probe-side rows;
/// T is int64 for value columns and uint32 for the late-materialization
/// row-id columns.
template <typename T, typename Index>
inline void GatherAppend(const T* col, const Index* sel, size_t count,
                         std::vector<T>* out) {
  size_t offset = out->size();
  out->resize(offset + count);
  T* dst = out->data() + offset;
  for (size_t i = 0; i < count; ++i) dst[i] = col[sel[i]];
}

/// GatherAppend for *ascending* uint32 row-id selections, with an explicit
/// bounds guard: ascending ids are bounded by their last element, so one
/// check covers the whole gather. Use this on fast paths whose ids come
/// from upstream bookkeeping (scan selection vectors, sink row-id columns)
/// rather than straight out of a just-validated kernel.
template <typename T>
inline void GatherAppendBounded(const T* col, size_t col_size,
                                const uint32_t* sel, size_t count,
                                std::vector<T>* out) {
  if (count == 0) return;
  LQO_CHECK_LT(sel[count - 1], col_size);
  GatherAppend(col, sel, count, out);
}

/// Appends the contiguous rows `[row_begin, row_begin + count)` of `col` —
/// the fully-selected fast path (no selection vector needed).
inline void AppendContiguous(const int64_t* col, uint32_t row_begin,
                             size_t count, std::vector<int64_t>* out) {
  size_t offset = out->size();
  out->resize(offset + count);
  std::memcpy(out->data() + offset, col + row_begin, count * sizeof(int64_t));
}

/// Gather with run detection: walks `ids`, finds maximal consecutive runs
/// (ids[k+1] == ids[k] + 1) and copies each run with one memcpy instead of
/// an element-wise gather — the sink's fast path for sorted near-contiguous
/// row-id vectors (e.g. scan outputs under high-selectivity predicates),
/// degrading gracefully to per-element copies on scattered ids. Each run is
/// ascending, so its last id bounds it; every element is the last id of
/// some run, so the per-run LQO_CHECK bounds the whole gather.
template <typename T>
inline void GatherAppendRuns(const T* col, size_t col_size,
                             const uint32_t* ids, size_t count,
                             std::vector<T>* out) {
  size_t offset = out->size();
  out->resize(offset + count);
  T* dst = out->data() + offset;
  size_t i = 0;
  while (i < count) {
    size_t j = i + 1;
    while (j < count && ids[j] == ids[j - 1] + 1) ++j;
    LQO_CHECK_LT(ids[j - 1], col_size);
    std::memcpy(dst + i, col + ids[i], (j - i) * sizeof(T));
    i = j;
  }
}

}  // namespace lqo

#endif  // LQO_ENGINE_VEC_BATCH_H_
