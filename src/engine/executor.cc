#include "engine/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "engine/agg_kernels.h"
#include "engine/filter_kernels.h"
#include "engine/simd.h"
#include "engine/vec_batch.h"

namespace lqo {
namespace {

// Morsel geometry. Both values are input-size gated only — never
// thread-count gated — so the execution structure (and therefore every
// output bit) is identical at any LQO_THREADS setting.
constexpr size_t kScanMorselRows = 4096;
// Below this many input rows a scan runs as one morsel.
constexpr uint64_t kParallelScanMinRows = 8192;
// Physical-strategy gates for the declared-algorithm join paths. A node
// declared merge/nested-loop *executes* as such only when its inputs fit
// under these input-size-only (therefore deterministic) bounds; above them
// it falls back to the hash execution, which produces the same
// output multiset, so hint-forced pathological plans keep reporting their
// declared cost without pathological wall-clock. Both real paths emit rows
// in a deterministic order of their own (merge: key order with row-id
// tie-breaks; NLJ: outer × inner row order), so every downstream bit is
// still reproducible.
constexpr uint64_t kMergeJoinMaxRows = 1ull << 20;   // left + right rows
constexpr uint64_t kNljMaxPairs = 1ull << 22;        // left * right rows

double WallSeconds(const std::chrono::steady_clock::time_point& start) {
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

// An intermediate result, materialized *late*: only per-base-table row-id
// columns flow between operators; join keys are gathered on demand from
// base tables, and the output stage gathers values through the surviving
// row ids at the very end. Intermediates under COUNT(*) carry nothing at
// all past each join's key needs.
struct Chunk {
  // Parallel vectors: rowids[i] holds base-table row ids of query table
  // rowid_tables[i], one entry per intermediate row.
  std::vector<int> rowid_tables;
  std::vector<std::vector<uint32_t>> rowids;
  // True when every rowid column is strictly ascending (scan outputs);
  // joins scramble row order and reset this. Enables the sink's dense
  // kernels and run-detected gathers.
  bool rowids_ascending = false;

  uint64_t num_rows = 0;

  int FindRowids(int table_index) const {
    for (size_t i = 0; i < rowid_tables.size(); ++i) {
      if (rowid_tables[i] == table_index) return static_cast<int>(i);
    }
    return -1;
  }
};

double Log2Rows(uint64_t rows) {
  return std::log2(static_cast<double>(std::max<uint64_t>(rows, 2)));
}

size_t NextPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// Open-addressing (linear-probing) hash table over a join's build side.
/// Stores one slot per build row, sized for load factor <= 0.5 from the
/// exact build count — "sized from the estimate" with the executor's
/// perfect estimate; no per-row rehashing, no node allocations.
struct JoinHashTable {
  static constexpr uint32_t kEmpty = 0xffffffffu;

  std::vector<uint64_t> hashes;
  std::vector<uint32_t> rows;
  size_t mask = 0;

  uint64_t build_collisions = 0;
  uint64_t distinct_hashes = 0;
  uint64_t max_chain = 0;

  explicit JoinHashTable(size_t build_rows) {
    size_t capacity = NextPowerOfTwo(std::max<size_t>(16, build_rows * 2));
    hashes.assign(capacity, 0);
    rows.assign(capacity, kEmpty);
    mask = capacity - 1;
  }

  void Insert(uint64_t h, uint32_t row) {
    size_t slot = static_cast<size_t>(h) & mask;
    uint64_t same_hash_before = 0;
    while (rows[slot] != kEmpty) {
      if (hashes[slot] == h) {
        ++same_hash_before;
      } else {
        ++build_collisions;
      }
      slot = (slot + 1) & mask;
    }
    hashes[slot] = h;
    rows[slot] = row;
    if (same_hash_before == 0) ++distinct_hashes;
    max_chain = std::max(max_chain, same_hash_before + 1);
  }
};

// Per-aggregate accumulator state: SUM in wrapping uint64 (see
// engine/agg_kernels.h for why that is lane-order independent), MIN/MAX
// from their fold identities. FinalizeAgg converts it to the emitted int64.
struct AggAcc {
  uint64_t sum = 0;
  int64_t mn = INT64_MAX;
  int64_t mx = INT64_MIN;
};

}  // namespace

// Plans also come from learned producers, hints and PilotScope drivers, so
// a malformed tree must surface as a Status, never a crash.
Status ValidatePlanShape(const PlanNode& node, int num_tables) {
  if (node.kind == PlanNode::Kind::kScan) {
    if (node.table_index < 0 || node.table_index >= num_tables) {
      return Status::InvalidArgument("scan table index outside the query");
    }
    if (node.table_set != TableBit(node.table_index)) {
      return Status::InvalidArgument("scan table_set differs from its table");
    }
    return Status::Ok();
  }
  if (node.kind != PlanNode::Kind::kJoin) {
    return Status::InvalidArgument("output node inside a plan tree");
  }
  if (node.left == nullptr || node.right == nullptr) {
    return Status::InvalidArgument("join child is null");
  }
  if ((node.left->table_set & node.right->table_set) != 0) {
    return Status::InvalidArgument("join inputs cover overlapping tables");
  }
  if (node.table_set != (node.left->table_set | node.right->table_set)) {
    return Status::InvalidArgument(
        "join table_set differs from the union of its inputs");
  }
  Status left = ValidatePlanShape(*node.left, num_tables);
  if (!left.ok()) return left;
  return ValidatePlanShape(*node.right, num_tables);
}

namespace {

class PlanRunner {
 public:
  PlanRunner(const Catalog& catalog, const CostConstants& constants,
             const Query& query)
      : catalog_(catalog), constants_(constants), query_(query) {}

  StatusOr<ExecutionResult> Run(const PlanNode& root) {
    Status valid = ValidatePlanShape(root, query_.num_tables());
    if (!valid.ok()) return valid;
    valid = ValidateOutputStage(root);
    if (!valid.ok()) return valid;
    auto chunk_or = Evaluate(root, SinkTables() & root.table_set);
    if (!chunk_or.ok()) return chunk_or.status();
    ExecutionResult result;
    result.row_count = chunk_or->num_rows;
    if (query_.HasOutputStage()) {
      Status sink = ExecuteOutput(*chunk_or, &result);
      if (!sink.ok()) return sink;
    }
    result.node_profiles = std::move(profiles_);
    for (const NodeProfile& p : result.node_profiles) {
      result.time_units += p.time_units;
    }
    return result;
  }

 private:
  // Tables whose base rows the output stage reads (select list + GROUP BY
  // key). Empty for legacy COUNT(*) queries — nothing is ever materialized.
  TableSet SinkTables() const {
    TableSet set = 0;
    for (const OutputExpr& e : query_.outputs()) {
      if (e.ReferencesColumn()) set |= TableBit(e.table_index);
    }
    if (query_.has_group_by()) set |= TableBit(query_.group_by_table());
    return set;
  }

  Status ValidateOutputStage(const PlanNode& root) const {
    if (!query_.HasOutputStage()) return Status::Ok();
    bool has_col = false;
    bool has_agg = false;
    for (const OutputExpr& e : query_.outputs()) {
      if (e.ReferencesColumn() &&
          !ContainsTable(root.table_set, e.table_index)) {
        return Status::InvalidArgument(
            "select list references a table outside the plan");
      }
      if (e.kind == OutputExpr::Kind::kColumn) {
        has_col = true;
        if (query_.has_group_by() &&
            (e.table_index != query_.group_by_table() ||
             e.column != query_.group_by_column())) {
          return Status::InvalidArgument(
              "non-aggregate select item must be the GROUP BY key");
        }
      } else {
        has_agg = true;
      }
    }
    if (query_.has_group_by() &&
        !ContainsTable(root.table_set, query_.group_by_table())) {
      return Status::InvalidArgument(
          "GROUP BY references a table outside the plan");
    }
    if (!query_.has_group_by() && has_col && has_agg) {
      return Status::InvalidArgument(
          "mixing bare columns and aggregates requires GROUP BY");
    }
    return Status::Ok();
  }

  StatusOr<const Column*> BaseColumn(int table_index,
                                     const std::string& column) const {
    const QueryTable& qt = query_.tables()[static_cast<size_t>(table_index)];
    auto table_or = catalog_.GetTable(qt.table_name);
    if (!table_or.ok()) return table_or.status();
    const Table& table = **table_or;
    auto idx = table.ColumnIndex(column);
    if (!idx.ok()) return idx.status();
    return &table.column(*idx);
  }

  // `keep` is the set of tables whose row ids this node's output must carry
  // for consumers above it (ancestor join keys + the output sink); always a
  // subset of node.table_set.
  StatusOr<Chunk> Evaluate(const PlanNode& node, TableSet keep) {
    if (node.kind == PlanNode::Kind::kScan) return EvaluateScan(node, keep);
    return EvaluateJoin(node, keep);
  }

  StatusOr<Chunk> EvaluateScan(const PlanNode& node, TableSet keep) {
    const QueryTable& qt =
        query_.tables()[static_cast<size_t>(node.table_index)];
    auto table_or = catalog_.GetTable(qt.table_name);
    if (!table_or.ok()) return table_or.status();
    const Table& table = **table_or;

    std::vector<Predicate> predicates = query_.PredicatesOf(node.table_index);
    std::vector<const Column*> pred_cols;
    for (const Predicate& p : predicates) {
      auto idx = table.ColumnIndex(p.column);
      if (!idx.ok()) return idx.status();
      pred_cols.push_back(&table.column(*idx));
    }
    const bool keep_ids = ContainsTable(keep, node.table_index);

    size_t n = table.num_rows();
    LQO_CHECK_LT(n, (1ULL << 32));
    size_t num_morsels =
        n >= kParallelScanMinRows ? (n + kScanMorselRows - 1) / kScanMorselRows
                                  : 1;

    // Each morsel filters its row range into a private output; morsels are
    // then concatenated in index order, reproducing base-row order exactly.
    // Within a morsel, batches of kVecBatchRows flow through the branch-free
    // filter kernels; survivors are recorded as *row ids only* (when a
    // consumer above needs them) — no value column is copied. Selection
    // vectors stay ascending and predicates are applied in query order, so
    // the surviving rows are exactly those Predicate::Matches accepts, in
    // base-row order.
    struct MorselOut {
      std::vector<uint32_t> ids;
      uint64_t num_rows = 0;
    };
    std::vector<MorselOut> morsels = ParallelMap(num_morsels, [&](size_t m) {
      MorselOut out;
      size_t begin = m * n / num_morsels;
      size_t end = (m + 1) * n / num_morsels;
      SelVector sel_a;
      SelVector sel_b;
      for (size_t batch = begin; batch < end; batch += kVecBatchRows) {
        uint32_t b = static_cast<uint32_t>(batch);
        uint32_t e =
            static_cast<uint32_t>(std::min(end, batch + kVecBatchRows));
        size_t count = e - b;
        const uint32_t* sel = nullptr;
        if (!predicates.empty()) {
          uint32_t* cur = sel_a.row;
          uint32_t* next = sel_b.row;
          count =
              FilterDense(predicates[0], pred_cols[0]->data.data(), b, e, cur);
          for (size_t p = 1; p < predicates.size() && count > 0; ++p) {
            count = FilterSel(predicates[p], pred_cols[p]->data.data(), cur,
                              count, next);
            std::swap(cur, next);
          }
          sel = cur;
        }
        if (count == 0) continue;
        if (keep_ids) {
          size_t offset = out.ids.size();
          out.ids.resize(offset + count);
          uint32_t* dst = out.ids.data() + offset;
          if (sel == nullptr) {
            for (size_t i = 0; i < count; ++i) {
              dst[i] = b + static_cast<uint32_t>(i);
            }
          } else {
            std::memcpy(dst, sel, count * sizeof(uint32_t));
          }
        }
        out.num_rows += count;
      }
      return out;
    });

    Chunk chunk;
    chunk.rowids_ascending = true;
    for (const MorselOut& m : morsels) chunk.num_rows += m.num_rows;
    if (keep_ids) {
      chunk.rowid_tables.push_back(node.table_index);
      chunk.rowids.emplace_back();
      std::vector<uint32_t>& ids = chunk.rowids[0];
      ids.reserve(static_cast<size_t>(chunk.num_rows));
      for (const MorselOut& m : morsels) {
        ids.insert(ids.end(), m.ids.begin(), m.ids.end());
      }
    }

    NodeProfile profile;
    profile.kind = PlanNode::Kind::kScan;
    profile.table_index = node.table_index;
    profile.left_rows = n;
    profile.output_rows = chunk.num_rows;
    profile.time_units =
        static_cast<double>(n) * constants_.scan_row +
        static_cast<double>(n) * static_cast<double>(predicates.size()) *
            constants_.predicate_eval;
    profile.carried_columns = keep_ids ? 1 : 0;
    profile.materialized_values = chunk.num_rows * profile.carried_columns;
    profiles_.push_back(profile);
    return chunk;
  }

  // Where a join output's row-id column for one kept table comes from.
  struct RowidSrc {
    int table = -1;
    bool from_left = true;
    size_t src_col = 0;
  };

  // Gathers base-table key column `column` of `table` through `side`'s
  // row-id column into `*out` — the on-demand key materialization of the
  // late pipeline.
  Status GatherKeyColumn(const Chunk& side, int table,
                         const std::string& column,
                         std::vector<int64_t>* out) const {
    auto col_or = BaseColumn(table, column);
    if (!col_or.ok()) return col_or.status();
    const int64_t* base = (*col_or)->data.data();
    int idx = side.FindRowids(table);
    if (idx < 0) {
      return Status::Internal("join key row ids missing from intermediate");
    }
    const std::vector<uint32_t>& ids = side.rowids[static_cast<size_t>(idx)];
    LQO_CHECK_EQ(ids.size(), static_cast<size_t>(side.num_rows));
    out->resize(ids.size());
    int64_t* dst = out->data();
    const uint32_t* src = ids.data();
    for (size_t i = 0; i < ids.size(); ++i) dst[i] = base[src[i]];
    return Status::Ok();
  }

  StatusOr<Chunk> EvaluateJoin(const PlanNode& node, TableSet keep) {
    // Join conditions crossing the two sides, resolved to (table, column)
    // per side. Built from the query's join list in declaration order —
    // the order the column-wise hash kernels combine keys in.
    struct KeyRef {
      int ltab;
      std::string lcol;
      int rtab;
      std::string rcol;
    };
    std::vector<KeyRef> key_refs;
    for (const QueryJoin& j : query_.joins()) {
      bool l_in_left = ContainsTable(node.left->table_set, j.left_table);
      bool l_in_right = ContainsTable(node.right->table_set, j.left_table);
      bool r_in_left = ContainsTable(node.left->table_set, j.right_table);
      bool r_in_right = ContainsTable(node.right->table_set, j.right_table);
      if (l_in_left && r_in_right) {
        key_refs.push_back({j.left_table, j.left_column, j.right_table,
                            j.right_column});
      } else if (l_in_right && r_in_left) {
        key_refs.push_back({j.right_table, j.right_column, j.left_table,
                            j.left_column});
      }
    }
    if (key_refs.empty()) {
      return Status::InvalidArgument(
          "plan joins disconnected components (cross product)");
    }

    // Children must carry row ids for everything consumers above need plus
    // this join's own key tables.
    TableSet lkeep = keep & node.left->table_set;
    TableSet rkeep = keep & node.right->table_set;
    for (const KeyRef& k : key_refs) {
      lkeep |= TableBit(k.ltab);
      rkeep |= TableBit(k.rtab);
    }
    auto left_or = Evaluate(*node.left, lkeep);
    if (!left_or.ok()) return left_or.status();
    auto right_or = Evaluate(*node.right, rkeep);
    if (!right_or.ok()) return right_or.status();
    Chunk left = std::move(*left_or);
    Chunk right = std::move(*right_or);
    LQO_CHECK_LT(right.num_rows, (1ULL << 32));

    // Unified key access for every strategy: lkeys[k][row] is key k of left
    // row `row`, gathered from base tables through the carried row ids (the
    // only per-join materialization the late pipeline does).
    std::vector<std::vector<int64_t>> lkey_store(key_refs.size());
    std::vector<std::vector<int64_t>> rkey_store(key_refs.size());
    std::vector<const int64_t*> lkeys;
    std::vector<const int64_t*> rkeys;
    for (size_t k = 0; k < key_refs.size(); ++k) {
      Status s = GatherKeyColumn(left, key_refs[k].ltab, key_refs[k].lcol,
                                 &lkey_store[k]);
      if (!s.ok()) return s;
      s = GatherKeyColumn(right, key_refs[k].rtab, key_refs[k].rcol,
                          &rkey_store[k]);
      if (!s.ok()) return s;
      lkeys.push_back(lkey_store[k].data());
      rkeys.push_back(rkey_store[k].data());
    }

    // Which child row-id column feeds each kept table of the output.
    std::vector<RowidSrc> rowid_plan;
    for (int t = 0; t < query_.num_tables(); ++t) {
      if (!ContainsTable(keep, t)) continue;
      RowidSrc s;
      s.table = t;
      int li = left.FindRowids(t);
      int ri = right.FindRowids(t);
      if (li >= 0) {
        s.from_left = true;
        s.src_col = static_cast<size_t>(li);
      } else if (ri >= 0) {
        s.from_left = false;
        s.src_col = static_cast<size_t>(ri);
      } else {
        return Status::Internal(
            "row ids for kept table missing from join input");
      }
      rowid_plan.push_back(s);
    }

    // Pick the physical strategy from the declared algorithm and the
    // input-size gates (see kMergeJoinMaxRows / kNljMaxPairs); cost
    // charging and the profile layout below are shared by all three.
    bool run_merge = node.algorithm == JoinAlgorithm::kMergeJoin &&
                     left.num_rows + right.num_rows <= kMergeJoinMaxRows;
    bool run_nlj = node.algorithm == JoinAlgorithm::kNestedLoopJoin &&
                   left.num_rows <= kNljMaxPairs &&
                   right.num_rows <= kNljMaxPairs &&
                   left.num_rows * right.num_rows <= kNljMaxPairs;
    JoinExecOut exec =
        run_merge ? ExecuteMergeJoin(left, right, lkeys, rkeys, rowid_plan)
        : run_nlj ? ExecuteNestedLoopJoin(left, right, lkeys, rkeys,
                                          rowid_plan)
                  : ExecuteHashJoin(left, right, lkeys, rkeys, rowid_plan);
    Chunk out = std::move(exec.chunk);

    // Charge the node under its declared algorithm.
    double l_rows = static_cast<double>(left.num_rows);
    double r_rows = static_cast<double>(right.num_rows);
    double out_rows = static_cast<double>(out.num_rows);
    double time = 0.0;
    switch (node.algorithm) {
      case JoinAlgorithm::kHashJoin: {
        // A hash-declared node always ran the hash strategy, so its skew
        // statistics are present.
        double skew =
            exec.max_bucket > 0 && exec.mean_bucket > 0
                ? static_cast<double>(exec.max_bucket) / exec.mean_bucket - 1.0
                : 0.0;
        time = r_rows * constants_.hash_build_row +
               l_rows * constants_.hash_probe_row *
                   (1.0 + constants_.skew_probe_factor * skew) +
               out_rows * constants_.output_row;
        if (right.num_rows >
            static_cast<uint64_t>(constants_.hash_memory_rows)) {
          time *= constants_.hash_spill_factor;
        }
        break;
      }
      case JoinAlgorithm::kNestedLoopJoin: {
        double pair_cost =
            right.num_rows <= static_cast<uint64_t>(constants_.nlj_cache_rows)
                ? constants_.nlj_cached_pair
                : constants_.nlj_pair;
        time = l_rows * r_rows * pair_cost + out_rows * constants_.output_row;
        break;
      }
      case JoinAlgorithm::kMergeJoin: {
        time = l_rows * Log2Rows(left.num_rows) * constants_.sort_row_log +
               r_rows * Log2Rows(right.num_rows) * constants_.sort_row_log +
               (l_rows + r_rows) * constants_.merge_row +
               out_rows * constants_.output_row;
        break;
      }
    }

    NodeProfile profile;
    profile.kind = PlanNode::Kind::kJoin;
    profile.algorithm = node.algorithm;
    profile.left_rows = left.num_rows;
    profile.right_rows = right.num_rows;
    profile.output_rows = out.num_rows;
    profile.time_units = time;
    profile.build_collisions = exec.build_collisions;
    profile.probe_collisions = exec.probe_collisions;
    profile.build_seconds = exec.build_seconds;
    profile.probe_seconds = exec.probe_seconds;
    profile.carried_columns = static_cast<uint64_t>(PopCount(keep));
    profile.materialized_values = out.num_rows * profile.carried_columns;
    profiles_.push_back(profile);
    return out;
  }

  // Per-execution output of whichever physical join strategy ran. The hash
  // statistics stay zero/default on the merge and nested-loop paths — no
  // table is built, so there is nothing to collide with.
  struct JoinExecOut {
    Chunk chunk;
    uint64_t build_collisions = 0;
    uint64_t probe_collisions = 0;
    uint64_t max_bucket = 0;
    double mean_bucket = 1.0;
    double build_seconds = 0.0;
    double probe_seconds = 0.0;
  };

  // Fixed-size buffer of matched (left row, right row) pairs, shared by the
  // three strategies. Flush() resolves the buffered pairs to the kept row-id
  // columns in bulk — the payload gather is deferred all the way to the
  // sink. Flush boundaries never reorder matches, so the emitted rows are
  // the match sequence itself.
  template <typename LeftIndex>
  struct MatchBuffer {
    MatchBuffer(const Chunk& l, const Chunk& r,
                const std::vector<RowidSrc>& plan,
                std::vector<std::vector<uint32_t>>* out_cols,
                uint64_t* out_rows)
        : left(l), right(r), rowid_plan(plan), cols(out_cols),
          num_rows(out_rows) {}

    const Chunk& left;
    const Chunk& right;
    const std::vector<RowidSrc>& rowid_plan;
    std::vector<std::vector<uint32_t>>* cols;
    uint64_t* num_rows;
    LeftIndex match_l[kVecBatchRows];
    uint32_t match_r[kVecBatchRows];
    size_t n_match = 0;

    void Add(LeftIndex l, uint32_t r) {
      match_l[n_match] = l;
      match_r[n_match] = r;
      if (++n_match == kVecBatchRows) Flush();
    }
    void Flush() {
      for (size_t c = 0; c < rowid_plan.size(); ++c) {
        const RowidSrc& s = rowid_plan[c];
        if (s.from_left) {
          GatherAppend(left.rowids[s.src_col].data(), match_l, n_match,
                       &(*cols)[c]);
        } else {
          GatherAppend(right.rowids[s.src_col].data(), match_r, n_match,
                       &(*cols)[c]);
        }
      }
      *num_rows += n_match;
      n_match = 0;
    }
  };

  // Lays out the kept row-id columns of a join's output chunk.
  static void InitJoinOut(const std::vector<RowidSrc>& rowid_plan,
                          Chunk* out) {
    for (const RowidSrc& s : rowid_plan) out->rowid_tables.push_back(s.table);
    out->rowids.resize(rowid_plan.size());
  }

  // Open-addressing hash join over one table — the workhorse strategy, and
  // the fallback that executes merge/NLJ-declared nodes whose inputs exceed
  // the real-path gates (same output multiset either way). Build rows are
  // inserted in row order, so rows sharing a hash lie along one probe run in
  // build-row order; left rows then probe in row order. Output rows are
  // therefore in probe-row order, each row's matches in build-row order.
  JoinExecOut ExecuteHashJoin(const Chunk& left, const Chunk& right,
                              const std::vector<const int64_t*>& lkeys,
                              const std::vector<const int64_t*>& rkeys,
                              const std::vector<RowidSrc>& rowid_plan) {
    const simd::KernelTable& kt = simd::Kernels();
    // Column-wise batched hash kernel: one dispatched N-lane combine pass
    // per key column, then one finalize pass. Per row it equals
    // FinalizeHash over HashCombine of the key columns in order, at every
    // SIMD level (the simd layer's bit-identity contract).
    auto hash_columnwise = [&](const std::vector<const int64_t*>& keys,
                               uint64_t rows) {
      std::vector<uint64_t> hashes(static_cast<size_t>(rows), 0);
      for (const int64_t* data : keys) {
        kt.hash_combine_column(hashes.data(), data, 0, hashes.size());
      }
      kt.hash_finalize(hashes.data(), 0, hashes.size());
      return hashes;
    };
    JoinExecOut exec;

    auto build_start = std::chrono::steady_clock::now();
    const std::vector<uint64_t> right_hashes =
        hash_columnwise(rkeys, right.num_rows);
    JoinHashTable table(right_hashes.size());
    for (uint32_t r = 0; r < right.num_rows; ++r) {
      table.Insert(right_hashes[r], r);
    }
    exec.build_collisions = table.build_collisions;
    exec.max_bucket = table.max_chain;
    if (table.distinct_hashes > 0) {
      exec.mean_bucket = static_cast<double>(right.num_rows) /
                         static_cast<double>(table.distinct_hashes);
    }
    exec.build_seconds = WallSeconds(build_start);

    auto probe_start = std::chrono::steady_clock::now();
    const std::vector<uint64_t> left_hashes =
        hash_columnwise(lkeys, left.num_rows);
    Chunk& out = exec.chunk;
    InitJoinOut(rowid_plan, &out);
    MatchBuffer<uint64_t> matches{left, right, rowid_plan, &out.rowids,
                                  &out.num_rows};
    for (uint64_t l = 0; l < left.num_rows; ++l) {
      uint64_t h = left_hashes[l];
      size_t slot = static_cast<size_t>(h) & table.mask;
      while (table.rows[slot] != JoinHashTable::kEmpty) {
        if (table.hashes[slot] != h) {
          ++exec.probe_collisions;
          slot = (slot + 1) & table.mask;
          continue;
        }
        uint32_t r = table.rows[slot];
        bool match = true;
        for (size_t k = 0; k < lkeys.size(); ++k) {
          if (lkeys[k][l] != rkeys[k][r]) {
            match = false;
            break;
          }
        }
        if (match) matches.Add(l, r);
        slot = (slot + 1) & table.mask;
      }
    }
    matches.Flush();
    // The flushes grow the columns by doubling; trim the slack so a live
    // intermediate holds exactly its rows.
    for (std::vector<uint32_t>& col : out.rowids) col.shrink_to_fit();
    exec.probe_seconds = WallSeconds(probe_start);
    return exec;
  }

  // Sort-merge join — the real path for merge-declared nodes under
  // kMergeJoinMaxRows. Both sides are argsorted by key tuple with the row
  // id as the final tie-break, so the sorted orders (and therefore every
  // emitted bit) are unique regardless of key duplication; the merge then
  // gallops to each run end (exponential probe + binary search) and emits
  // the cross product of each equal-key run pair, runs in merge order,
  // pairs in (left-run, right-run) row order. The whole strategy is serial
  // by construction (the gate keeps inputs small), so thread count cannot
  // influence anything.
  JoinExecOut ExecuteMergeJoin(const Chunk& left, const Chunk& right,
                               const std::vector<const int64_t*>& lkeys,
                               const std::vector<const int64_t*>& rkeys,
                               const std::vector<RowidSrc>& rowid_plan) {
    auto sort_start = std::chrono::steady_clock::now();
    JoinExecOut exec;
    size_t ln = static_cast<size_t>(left.num_rows);
    size_t rn = static_cast<size_t>(right.num_rows);
    std::vector<uint32_t> lorder(ln);
    std::vector<uint32_t> rorder(rn);
    for (size_t i = 0; i < ln; ++i) lorder[i] = static_cast<uint32_t>(i);
    for (size_t i = 0; i < rn; ++i) rorder[i] = static_cast<uint32_t>(i);
    std::sort(lorder.begin(), lorder.end(), [&](uint32_t a, uint32_t b) {
      for (const int64_t* col : lkeys) {
        if (col[a] != col[b]) return col[a] < col[b];
      }
      return a < b;
    });
    std::sort(rorder.begin(), rorder.end(), [&](uint32_t a, uint32_t b) {
      for (const int64_t* col : rkeys) {
        if (col[a] != col[b]) return col[a] < col[b];
      }
      return a < b;
    });
    exec.build_seconds = WallSeconds(sort_start);

    auto merge_start = std::chrono::steady_clock::now();
    Chunk& out = exec.chunk;
    InitJoinOut(rowid_plan, &out);

    auto compare_lr = [&](uint32_t l, uint32_t r) {
      for (size_t k = 0; k < lkeys.size(); ++k) {
        int64_t lv = lkeys[k][l];
        int64_t rv = rkeys[k][r];
        if (lv != rv) return lv < rv ? -1 : 1;
      }
      return 0;
    };
    auto equal_ll = [&](uint32_t a, uint32_t b) {
      for (const int64_t* col : lkeys) {
        if (col[a] != col[b]) return false;
      }
      return true;
    };
    auto equal_rr = [&](uint32_t a, uint32_t b) {
      for (const int64_t* col : rkeys) {
        if (col[a] != col[b]) return false;
      }
      return true;
    };
    // First position in (begin, n) whose key differs from the key at
    // `begin`, found by galloping: exponential probe to bracket the run
    // end, then binary search inside the bracket.
    auto gallop_run_end = [](size_t begin, size_t n, auto&& equal_at) {
      size_t last = begin;  // highest index known equal to `begin`
      size_t step = 1;
      while (last + step < n && equal_at(last + step, begin)) {
        last += step;
        step <<= 1;
      }
      size_t hi = std::min(last + step, n);  // first known non-equal (or n)
      while (last + 1 < hi) {
        size_t mid = last + (hi - last) / 2;
        if (equal_at(mid, begin)) {
          last = mid;
        } else {
          hi = mid;
        }
      }
      return last + 1;
    };

    MatchBuffer<uint32_t> matches{left, right, rowid_plan, &out.rowids,
                                  &out.num_rows};
    size_t i = 0;
    size_t j = 0;
    while (i < ln && j < rn) {
      int c = compare_lr(lorder[i], rorder[j]);
      if (c < 0) {
        ++i;
        continue;
      }
      if (c > 0) {
        ++j;
        continue;
      }
      size_t ie = gallop_run_end(i, ln, [&](size_t x, size_t y) {
        return equal_ll(lorder[x], lorder[y]);
      });
      size_t je = gallop_run_end(j, rn, [&](size_t x, size_t y) {
        return equal_rr(rorder[x], rorder[y]);
      });
      for (size_t a = i; a < ie; ++a) {
        for (size_t b = j; b < je; ++b) matches.Add(lorder[a], rorder[b]);
      }
      i = ie;
      j = je;
    }
    matches.Flush();
    exec.probe_seconds = WallSeconds(merge_start);
    return exec;
  }

  // Block nested-loop join — the real path for NLJ-declared nodes under
  // kNljMaxPairs. The outer (left) side is walked row by row; the inner
  // (right) side is consumed as dense kVecBatchRows batches through the
  // dispatched filter kernels: an Eq kernel on the first key column, then
  // Eq refinements on the remaining key columns. Pairs are emitted in
  // (outer row, inner row) order, serially — no thread sensitivity.
  JoinExecOut ExecuteNestedLoopJoin(const Chunk& left, const Chunk& right,
                                    const std::vector<const int64_t*>& lkeys,
                                    const std::vector<const int64_t*>& rkeys,
                                    const std::vector<RowidSrc>& rowid_plan) {
    auto probe_start = std::chrono::steady_clock::now();
    JoinExecOut exec;
    size_t ln = static_cast<size_t>(left.num_rows);
    uint32_t rn = static_cast<uint32_t>(right.num_rows);
    Chunk& out = exec.chunk;
    InitJoinOut(rowid_plan, &out);

    const int64_t* right_key0 = rkeys[0];
    SelVector sel_a;
    SelVector sel_b;
    MatchBuffer<uint32_t> matches{left, right, rowid_plan, &out.rowids,
                                  &out.num_rows};
    for (size_t l = 0; l < ln; ++l) {
      for (uint32_t batch = 0; batch < rn; batch += kVecBatchRows) {
        uint32_t e =
            static_cast<uint32_t>(std::min<size_t>(rn, batch + kVecBatchRows));
        uint32_t* cur = sel_a.row;
        uint32_t* next = sel_b.row;
        size_t count = FilterEqDense(right_key0, batch, e, lkeys[0][l], cur);
        for (size_t kc = 1; kc < lkeys.size() && count > 0; ++kc) {
          count = FilterEqSel(rkeys[kc], cur, count, lkeys[kc][l], next);
          std::swap(cur, next);
        }
        for (size_t t = 0; t < count; ++t) {
          matches.Add(static_cast<uint32_t>(l), cur[t]);
        }
      }
    }
    matches.Flush();
    exec.probe_seconds = WallSeconds(probe_start);
    return exec;
  }

  // A select-list column read at the sink: base column plus the carried
  // row ids that select its rows.
  struct RefAccess {
    const int64_t* base = nullptr;
    size_t base_rows = 0;
    const uint32_t* ids = nullptr;
  };

  // ---- Output stage (projection / aggregation sink). ----
  //
  // The one place the pipeline finally touches base-table values: every
  // select-list read gathers through the row-id columns the plan carried
  // forward (run-detected bulk gathers / selection-vector agg kernels).
  Status ExecuteOutput(const Chunk& root, ExecutionResult* result) {
    const std::vector<OutputExpr>& outputs = query_.outputs();
    size_t n = static_cast<size_t>(root.num_rows);

    // Distinct (table, column) pairs the stage reads, and each output's
    // slot in that list (-1 for COUNT(*)).
    std::vector<std::pair<int, std::string>> refs;
    auto add_ref = [&](int t, const std::string& c) {
      for (size_t i = 0; i < refs.size(); ++i) {
        if (refs[i].first == t && refs[i].second == c) {
          return static_cast<int>(i);
        }
      }
      refs.emplace_back(t, c);
      return static_cast<int>(refs.size() - 1);
    };
    int gk_ref = -1;
    if (query_.has_group_by()) {
      gk_ref = add_ref(query_.group_by_table(), query_.group_by_column());
    }
    std::vector<int> out_ref(outputs.size(), -1);
    for (size_t o = 0; o < outputs.size(); ++o) {
      if (outputs[o].ReferencesColumn()) {
        out_ref[o] = add_ref(outputs[o].table_index, outputs[o].column);
      }
    }

    // Each referenced column pairs its base column with the carried row-id
    // vector (the deferred gather).
    std::vector<RefAccess> ref_access(refs.size());
    for (size_t i = 0; i < refs.size(); ++i) {
      RefAccess& a = ref_access[i];
      auto col_or = BaseColumn(refs[i].first, refs[i].second);
      if (!col_or.ok()) return col_or.status();
      a.base = (*col_or)->data.data();
      a.base_rows = (*col_or)->data.size();
      int ridx = root.FindRowids(refs[i].first);
      if (ridx < 0) {
        return Status::Internal("output row ids missing from intermediate");
      }
      a.ids = root.rowids[static_cast<size_t>(ridx)].data();
    }

    result->output_cols.assign(outputs.size(), {});
    if (query_.has_group_by()) {
      RunGroupBy(outputs, ref_access, out_ref, gk_ref, n, result);
    } else {
      bool all_aggregate = true;
      for (const OutputExpr& e : outputs) {
        if (e.kind == OutputExpr::Kind::kColumn) all_aggregate = false;
      }
      if (all_aggregate) {
        RunGlobalAggregates(root, outputs, ref_access, out_ref, n, result);
      } else {
        RunProjection(outputs, ref_access, out_ref, n, result);
      }
    }

    // Charge the stage. Every term is structural (row counts × select-list
    // shape), independent of SIMD level and thread count.
    size_t naggs = 0;
    for (const OutputExpr& e : outputs) {
      if (e.kind == OutputExpr::Kind::kAggregate) ++naggs;
    }
    double rows = static_cast<double>(n);
    NodeProfile profile;
    profile.kind = PlanNode::Kind::kOutput;
    profile.table_index = -1;
    profile.left_rows = n;
    profile.output_rows = result->output_row_count;
    profile.time_units =
        rows * static_cast<double>(refs.size()) * constants_.materialize_value +
        rows * static_cast<double>(naggs) * constants_.agg_update +
        (query_.has_group_by() ? rows * constants_.group_probe : 0.0) +
        static_cast<double>(result->output_row_count) *
            static_cast<double>(outputs.size()) * constants_.materialize_value;
    profile.carried_columns = refs.size();
    profile.materialized_values =
        result->output_row_count * static_cast<uint64_t>(outputs.size());
    profile.groups =
        query_.has_group_by() ? result->output_row_count : 0;
    profiles_.push_back(profile);
    return Status::Ok();
  }

  void RunGlobalAggregates(const Chunk& root,
                           const std::vector<OutputExpr>& outputs,
                           const std::vector<RefAccess>& ref_access,
                           const std::vector<int>& out_ref, size_t n,
                           ExecutionResult* result) {
    std::vector<AggAcc> accs(outputs.size());
    const simd::AggKernelTable& ak = simd::AggKernels();
    for (size_t o = 0; o < outputs.size(); ++o) {
      const OutputExpr& e = outputs[o];
      if (!e.ReferencesColumn() || e.func == AggFunc::kCount || n == 0) {
        continue;
      }
      const RefAccess& a = ref_access[static_cast<size_t>(out_ref[o])];
      AggAcc& acc = accs[o];
      // Scans emit ascending row ids, so a predicate-free (or prefix)
      // selection is a dense range: fold it with the dense kernels, no
      // gather at all. Anything else goes through the sel kernels.
      bool dense = root.rowids_ascending &&
                   static_cast<uint64_t>(a.ids[n - 1]) - a.ids[0] == n - 1;
      if (dense) {
        uint32_t row_begin = a.ids[0];
        uint32_t row_end = a.ids[n - 1] + 1;
        LQO_CHECK_LE(static_cast<size_t>(row_end), a.base_rows);
        switch (e.func) {
          case AggFunc::kSum:
          case AggFunc::kAvg:
            acc.sum = ak.sum_dense(a.base, row_begin, row_end);
            break;
          case AggFunc::kMin:
            acc.mn = ak.min_dense(a.base, row_begin, row_end);
            break;
          case AggFunc::kMax:
            acc.mx = ak.max_dense(a.base, row_begin, row_end);
            break;
          case AggFunc::kCount:
            break;
        }
      } else {
        switch (e.func) {
          case AggFunc::kSum:
          case AggFunc::kAvg:
            acc.sum = ak.sum_sel(a.base, a.ids, n);
            break;
          case AggFunc::kMin:
            acc.mn = ak.min_sel(a.base, a.ids, n);
            break;
          case AggFunc::kMax:
            acc.mx = ak.max_sel(a.base, a.ids, n);
            break;
          case AggFunc::kCount:
            break;
        }
      }
    }
    for (size_t o = 0; o < outputs.size(); ++o) {
      result->output_cols[o] = {FinalizeAgg(outputs[o].func, accs[o],
                                            static_cast<uint64_t>(n))};
    }
    result->output_row_count = 1;
  }

  void RunProjection(const std::vector<OutputExpr>& outputs,
                     const std::vector<RefAccess>& ref_access,
                     const std::vector<int>& out_ref, size_t n,
                     ExecutionResult* result) {
    for (size_t o = 0; o < outputs.size(); ++o) {
      const RefAccess& a = ref_access[static_cast<size_t>(out_ref[o])];
      std::vector<int64_t>& col = result->output_cols[o];
      col.reserve(n);
      GatherAppendRuns(a.base, a.base_rows, a.ids, n, &col);
    }
    result->output_row_count = n;
  }

  void RunGroupBy(const std::vector<OutputExpr>& outputs,
                  const std::vector<RefAccess>& ref_access,
                  const std::vector<int>& out_ref, int gk_ref, size_t n,
                  ExecutionResult* result) {
    // Group keys in first-seen row order, per-group row counts, and
    // per-(output, group) accumulators.
    std::vector<int64_t> gkeys;
    std::vector<uint64_t> gcounts;
    std::vector<std::vector<AggAcc>> gaccs(outputs.size());
    const RefAccess& gk = ref_access[static_cast<size_t>(gk_ref)];

    // Map every row to a dense first-seen group id. Two key paths with the
    // same first-seen assignment (the choice depends only on the key
    // values, never on thread count or SIMD level):
    //   - dense key domain (max-min fits a small direct table, measured
    //     with the dispatched min/max kernels): one direct-indexed pass,
    //     no hashing at all;
    //   - general: gather the key column once (run-detected bulk copy),
    //     hash it with the dispatched join-hash kernels, probe the
    //     open-addressing GroupIndex.
    std::vector<uint32_t> gids(n);
    if (n > 0) {
      const simd::AggKernelTable& ak = simd::AggKernels();
      int64_t kmin = ak.min_sel(gk.base, gk.ids, n);
      int64_t kmax = ak.max_sel(gk.base, gk.ids, n);
      uint64_t domain =
          static_cast<uint64_t>(kmax) - static_cast<uint64_t>(kmin);
      // Direct-table cap: generous relative to the row count but bounded
      // so the table stays cache-resident.
      if (domain < 2 * static_cast<uint64_t>(n) + 1024 &&
          domain < (1u << 20)) {
        std::vector<uint32_t> slot(static_cast<size_t>(domain) + 1,
                                   UINT32_MAX);
        gkeys.reserve(std::min<size_t>(n, static_cast<size_t>(domain) + 1));
        for (size_t i = 0; i < n; ++i) {
          int64_t kv = gk.base[gk.ids[i]];
          size_t s = static_cast<size_t>(static_cast<uint64_t>(kv) -
                                         static_cast<uint64_t>(kmin));
          uint32_t g = slot[s];
          if (g == UINT32_MAX) {
            g = static_cast<uint32_t>(gkeys.size());
            slot[s] = g;
            gkeys.push_back(kv);
          }
          gids[i] = g;
        }
      } else {
        std::vector<int64_t> keys;
        keys.reserve(n);
        GatherAppendRuns(gk.base, gk.base_rows, gk.ids, n, &keys);
        std::vector<uint64_t> hashes(n);
        const simd::KernelTable& kt = simd::Kernels();
        ParallelFor(HashMorsels(n), [&](size_t m) {
          auto [begin, end] = MorselRange(m, n);
          for (size_t r = begin; r < end; ++r) hashes[r] = 0;
          kt.hash_combine_column(hashes.data(), keys.data(), begin, end);
          kt.hash_finalize(hashes.data(), begin, end);
        });
        simd::GroupIndex gindex;
        gindex.MapBatch(keys.data(), hashes.data(), n, gids.data());
        gkeys = gindex.group_keys();
      }
    }
    gcounts.assign(gkeys.size(), 0);
    for (size_t i = 0; i < n; ++i) ++gcounts[gids[i]];
    // One scatter-accumulate pass per *distinct* referenced column, reading
    // base values straight through the carried row ids (no intermediate
    // gather) and folding every aggregate kind that reads the column in the
    // same pass — SUM and AVG share the wrapping sum.
    for (size_t r = 0; r < ref_access.size(); ++r) {
      bool want_sum = false;
      bool want_min = false;
      bool want_max = false;
      for (size_t o = 0; o < outputs.size(); ++o) {
        const OutputExpr& e = outputs[o];
        if (e.kind != OutputExpr::Kind::kAggregate || !e.ReferencesColumn() ||
            e.func == AggFunc::kCount || out_ref[o] != static_cast<int>(r)) {
          continue;
        }
        want_sum |= e.func == AggFunc::kSum || e.func == AggFunc::kAvg;
        want_min |= e.func == AggFunc::kMin;
        want_max |= e.func == AggFunc::kMax;
      }
      if (!want_sum && !want_min && !want_max) continue;
      const RefAccess& a = ref_access[r];
      std::vector<AggAcc> acc(gkeys.size(), AggAcc{});
      const int64_t* base = a.base;
      const uint32_t* ids = a.ids;
      for (size_t i = 0; i < n; ++i) {
        int64_t v = base[ids[i]];
        AggAcc& g = acc[gids[i]];
        if (want_sum) g.sum += static_cast<uint64_t>(v);
        if (want_min) g.mn = v < g.mn ? v : g.mn;
        if (want_max) g.mx = v > g.mx ? v : g.mx;
      }
      for (size_t o = 0; o < outputs.size(); ++o) {
        const OutputExpr& e = outputs[o];
        if (e.kind == OutputExpr::Kind::kAggregate && e.ReferencesColumn() &&
            e.func != AggFunc::kCount && out_ref[o] == static_cast<int>(r)) {
          gaccs[o] = acc;
        }
      }
    }

    // Emission in group-id (= first-seen) order.
    size_t num_groups = gkeys.size();
    for (size_t o = 0; o < outputs.size(); ++o) {
      const OutputExpr& e = outputs[o];
      std::vector<int64_t>& col = result->output_cols[o];
      if (e.kind == OutputExpr::Kind::kColumn) {
        col = gkeys;  // validated to be the GROUP BY key
        continue;
      }
      col.resize(num_groups);
      for (size_t g = 0; g < num_groups; ++g) {
        AggAcc acc = gaccs[o].empty() ? AggAcc{} : gaccs[o][g];
        col[g] = FinalizeAgg(e.func, acc, gcounts[g]);
      }
    }
    result->output_row_count = num_groups;
  }

  // Converts accumulator state + row count to the emitted int64 under the
  // AggFunc contract (query/query.h): SUM wraps modulo 2^64, AVG is the
  // truncated quotient of the wrapped sum, and empty inputs (count == 0)
  // emit 0 for every function.
  static int64_t FinalizeAgg(AggFunc func, const AggAcc& acc, uint64_t count) {
    switch (func) {
      case AggFunc::kCount:
        return static_cast<int64_t>(count);
      case AggFunc::kSum:
        return static_cast<int64_t>(acc.sum);
      case AggFunc::kAvg:
        return count == 0 ? 0
                          : static_cast<int64_t>(acc.sum) /
                                static_cast<int64_t>(count);
      case AggFunc::kMin:
        return count == 0 ? 0 : acc.mn;
      case AggFunc::kMax:
        return count == 0 ? 0 : acc.mx;
    }
    return 0;
  }

  // Morsel geometry for the hash-computation loops: one morsel below the
  // parallel threshold, fixed-size morsels above it.
  static size_t HashMorsels(uint64_t rows) {
    if (rows == 0) return 0;
    if (rows < kParallelScanMinRows) return 1;
    return (static_cast<size_t>(rows) + kScanMorselRows - 1) / kScanMorselRows;
  }
  static std::pair<size_t, size_t> MorselRange(size_t m, uint64_t rows) {
    size_t n = static_cast<size_t>(rows);
    size_t num = HashMorsels(rows);
    return {m * n / num, (m + 1) * n / num};
  }

  const Catalog& catalog_;
  const CostConstants& constants_;
  const Query& query_;
  std::vector<NodeProfile> profiles_;
};

}  // namespace

Executor::Executor(const Catalog* catalog, CostConstants constants)
    : catalog_(catalog), constants_(constants) {
  LQO_CHECK(catalog_ != nullptr);
}

StatusOr<ExecutionResult> Executor::Execute(const PhysicalPlan& plan) const {
  if (plan.query == nullptr || plan.root == nullptr) {
    return Status::InvalidArgument("plan missing query or root");
  }
  PlanRunner runner(*catalog_, constants_, *plan.query);
  return runner.Run(*plan.root);
}

PhysicalPlan MakeLeftDeepPlan(const Query& query, TableSet tables,
                              JoinAlgorithm algorithm) {
  LQO_CHECK(tables != 0);
  LQO_CHECK(query.IsConnected(tables)) << "table set must be connected";
  int start = __builtin_ctzll(tables);
  std::unique_ptr<PlanNode> current = MakeScanNode(start);
  TableSet joined = TableBit(start);
  while (joined != tables) {
    // Lowest-index unjoined table adjacent to the joined set.
    int next = -1;
    for (int t = 0; t < query.num_tables(); ++t) {
      if (!ContainsTable(tables, t) || ContainsTable(joined, t)) continue;
      for (int n : query.Neighbors(t)) {
        if (ContainsTable(joined, n)) {
          next = t;
          break;
        }
      }
      if (next >= 0) break;
    }
    LQO_CHECK_GE(next, 0);
    current = MakeJoinNode(algorithm, std::move(current), MakeScanNode(next));
    joined |= TableBit(next);
  }
  PhysicalPlan plan;
  plan.query = &query;
  plan.root = std::move(current);
  return plan;
}

}  // namespace lqo
