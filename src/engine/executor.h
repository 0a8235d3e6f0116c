#ifndef LQO_ENGINE_EXECUTOR_H_
#define LQO_ENGINE_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "engine/cost_constants.h"
#include "engine/plan.h"
#include "storage/catalog.h"

namespace lqo {

/// Work profile of a single executed plan node.
struct NodeProfile {
  PlanNode::Kind kind = PlanNode::Kind::kScan;
  JoinAlgorithm algorithm = JoinAlgorithm::kHashJoin;
  /// Scans: table_index is set and left_rows is the raw table size.
  int table_index = -1;
  uint64_t left_rows = 0;
  uint64_t right_rows = 0;
  uint64_t output_rows = 0;
  double time_units = 0.0;

  /// Join nodes: physical counters of the hash join's one open-addressing
  /// table (deterministic: the table is built serially in build-row order).
  /// A "collision" is a probe-sequence step over a slot holding a
  /// different hash; rows sharing a hash are chain entries, not collisions.
  uint64_t build_collisions = 0;
  uint64_t probe_collisions = 0;

  /// Wall-clock seconds per join phase (build / probe, the latter including
  /// output emission). Diagnostics only: real time, NOT deterministic,
  /// excluded from every determinism contract; consumed by
  /// bench_micro_components.
  double build_seconds = 0.0;
  double probe_seconds = 0.0;

  /// Late-materialization accounting. Logical counters, defined by plan
  /// structure and row counts alone (like time_units), so they are
  /// bit-identical across SIMD levels and thread counts: carried_columns
  /// is the number of per-table row-id columns the late-materialized
  /// pipeline carries out of this node (0 at a COUNT(*) root — nothing is
  /// ever materialized); materialized_values is
  /// output_rows * carried_columns for scans/joins, and emitted output
  /// values (output rows * select-list width) for the output stage.
  uint64_t carried_columns = 0;
  uint64_t materialized_values = 0;
  /// Output stage under GROUP BY: number of groups (0 otherwise).
  uint64_t groups = 0;
};

/// Result of executing a plan.
struct ExecutionResult {
  /// Qualifying rows entering the output stage — the COUNT(*) answer. This
  /// keeps its meaning for every query; projection/aggregation never change
  /// the qualifying-row semantics estimators and optimizers consume.
  uint64_t row_count = 0;
  /// Output-stage result for queries with a select list
  /// (Query::HasOutputStage()): output_cols[i] is the column of SELECT item
  /// i, all of length output_row_count (1 for global aggregates, the group
  /// count under GROUP BY, row_count for pure projection). Both stay
  /// empty/zero for legacy COUNT(*) queries.
  uint64_t output_row_count = 0;
  std::vector<std::vector<int64_t>> output_cols;
  /// Deterministic simulated latency: sum of per-node work charged under
  /// the full CostConstants schedule (including skew/cache/spill effects).
  double time_units = 0.0;
  /// Bottom-up per-node profiles (children before parents), plus one
  /// trailing PlanNode::Kind::kOutput profile for the output stage when the
  /// query declares one.
  std::vector<NodeProfile> node_profiles;
};

/// Vectorized, late-materialized executor over the in-memory catalog — the
/// one execution path.
///
/// Each join node is *charged* according to its declared physical algorithm,
/// but the physical strategy that computes its rows is gated on input size:
/// merge-declared nodes run a real sort-merge join (with galloping run
/// detection) while left+right rows stay under 2^20, nested-loop-declared
/// nodes run a real block NLJ (inner side through the dispatched filter
/// kernels) while left*right pairs stay under 2^22, and everything else —
/// including any declared node above its gate — runs the hash join. All
/// three strategies emit the same row multiset, so executing a pathological
/// plan (e.g. a huge nested-loop join) still reports its true awful latency
/// without taking quadratic wall-clock time. This is the
/// deterministic stand-in for running plans on a real PostgreSQL server
/// (see DESIGN.md, substitutions).
///
/// Scans filter fixed-size row morsels in parallel on the shared
/// lqo::ThreadPool and concatenate their outputs in morsel order (inputs
/// below a fixed tuple threshold run as one morsel); GROUP BY hashes its
/// keys over the same morsels. Joins are serial: the hash join inserts
/// build rows in row order into one open-addressing table and probes left
/// rows in row order, so its output is in probe-row order with each row's
/// matches in build-row order. All boundaries depend only on the input, so
/// results are bit-for-bit identical across LQO_THREADS settings and SIMD
/// levels (DESIGN.md "Concurrency model", "Vectorized execution").
///
/// Within each morsel, rows flow batch-at-a-time: scans run branch-free
/// selection-vector kernels (engine/filter_kernels.h) over kVecBatchRows-row
/// batches, and only per-table row ids flow between operators. Joins gather
/// their key columns on demand through those row ids and hash them
/// column-wise; the output stage gathers select-list values at the very end
/// (DESIGN.md "Late materialization & output pipeline"). Correctness is
/// checked against an independent naive evaluator in the tests
/// (tests/naive_exec_oracle.h), not against a second engine path.
///
/// Execute() first checks the plan's shape (ValidatePlanShape) and returns
/// InvalidArgument instead of running a malformed tree.
class Executor {
 public:
  explicit Executor(const Catalog* catalog,
                    CostConstants constants = DefaultCostConstants());

  /// Executes `plan` and returns the count plus the work profile. Fails if
  /// the plan is malformed or references unknown tables/columns.
  StatusOr<ExecutionResult> Execute(const PhysicalPlan& plan) const;

  const CostConstants& constants() const { return constants_; }
  const Catalog& catalog() const { return *catalog_; }

 private:
  const Catalog* catalog_;
  CostConstants constants_;
};

/// Checks the shape of the plan tree under `node` for a query of
/// `num_tables` tables: scan indices inside the query, non-null join
/// children over disjoint inputs, and table sets that match their scan bit
/// or the union of their children. Returns InvalidArgument on the first
/// violation, before anything indexes or dereferences the tree.
Status ValidatePlanShape(const PlanNode& node, int num_tables);

/// Builds a left-deep plan over the connected table set `tables` of `query`
/// using `algorithm` for every join. Table order is greedy-BFS from the
/// lowest-index table, so consecutive joins always share a join edge.
PhysicalPlan MakeLeftDeepPlan(const Query& query, TableSet tables,
                              JoinAlgorithm algorithm);

}  // namespace lqo

#endif  // LQO_ENGINE_EXECUTOR_H_
