#ifndef LQO_ENGINE_AGG_KERNELS_H_
#define LQO_ENGINE_AGG_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "engine/simd.h"

namespace lqo::simd {

/// Aggregation kernels of the late-materialization output stage (DESIGN.md
/// "Late materialization & output pipeline").
///
/// Each kernel folds one int64 column into a single accumulator, either over
/// a dense row range or through a row-id selection (the sink's deferred
/// gather: `col[sel[i]]` reads base-table values through the row ids the
/// joins carried forward, so aggregation never materializes the column).
/// Dispatch follows engine/simd.h exactly: two tables of plain function
/// pointers, scalar (the reference) and AVX2, selected by the same
/// ActiveLevel() / SetLevelForTest() state, one indirect call per column —
/// never per row.
///
/// Bit-equality contract, shared with the filter/hash kernels:
///  - SUM accumulates in *wrapping uint64* arithmetic. Wrapping addition is
///    associative and commutative, so lane-wise partial sums reduced
///    horizontally equal the scalar left-to-right fold on every input —
///    including overflowing ones — and the result is independent of lane
///    width. (Signed accumulation would be UB on overflow; the executor
///    casts the final value back to int64 — the modulo-2^64 SUM of the
///    AggFunc contract in query/query.h.)
///  - MIN/MAX are associative/commutative idempotent folds; lane order
///    cannot change the result. Empty inputs return the fold identities
///    (INT64_MAX for MIN, INT64_MIN for MAX); the executor rewrites empty
///    aggregates to 0 before emitting.
///  - COUNT needs no kernel (it is the row count).
struct AggKernelTable {
  uint64_t (*sum_dense)(const int64_t* col, uint32_t row_begin,
                        uint32_t row_end);
  uint64_t (*sum_sel)(const int64_t* col, const uint32_t* sel, size_t count);
  int64_t (*min_dense)(const int64_t* col, uint32_t row_begin,
                       uint32_t row_end);
  int64_t (*min_sel)(const int64_t* col, const uint32_t* sel, size_t count);
  int64_t (*max_dense)(const int64_t* col, uint32_t row_begin,
                       uint32_t row_end);
  int64_t (*max_sel)(const int64_t* col, const uint32_t* sel, size_t count);
};

/// The table for the active level (engine/simd.h dispatch state).
const AggKernelTable& AggKernels();

/// The table for an explicit level, for A/B tests; an unsupported level
/// returns the scalar table.
const AggKernelTable& AggKernelsFor(Level level);

/// Open-addressing GROUP BY key table: maps int64 key values to dense group
/// ids assigned in *first-seen row order* — the order the executor's dense
/// key path and the naive test oracle (tests/naive_exec_oracle.h, a
/// std::map from key to first-seen index) assign them, so grouped output
/// rows do not depend on which path ran. Reuses the partitioned-join hashing
/// contract: callers hash keys batch-wise through the dispatched
/// hash_combine_column/hash_finalize kernels (bit-identical to
/// FinalizeHash(HashCombine(0, key)) at every level) and pass the hashes
/// in. Linear probing over power-of-two capacity, load factor <= 0.5,
/// doubling growth — the same slot discipline as the executor's
/// JoinHashTable, minus the per-partition split (group counts are small
/// relative to probe counts).
class GroupIndex {
 public:
  explicit GroupIndex(size_t expected_groups = 16);

  /// Maps keys[0..count) to group ids in group_ids[0..count), assigning new
  /// ids in first-seen order. hashes[i] must be the finalized hash of
  /// keys[i] (see class comment).
  void MapBatch(const int64_t* keys, const uint64_t* hashes, size_t count,
                uint32_t* group_ids);

  /// Group keys in first-seen order; index == group id.
  const std::vector<int64_t>& group_keys() const { return group_keys_; }
  size_t num_groups() const { return group_keys_.size(); }

 private:
  static constexpr uint32_t kEmpty = 0xffffffffu;

  void Grow();

  std::vector<uint64_t> slot_hash_;
  std::vector<uint32_t> slot_group_;
  std::vector<int64_t> group_keys_;
  std::vector<uint64_t> group_hashes_;  // for rehash on growth
  size_t mask_ = 0;
};

}  // namespace lqo::simd

#endif  // LQO_ENGINE_AGG_KERNELS_H_
