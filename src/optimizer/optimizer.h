#ifndef LQO_OPTIMIZER_OPTIMIZER_H_
#define LQO_OPTIMIZER_OPTIMIZER_H_

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "engine/plan.h"
#include "optimizer/cardinality_interface.h"
#include "optimizer/cost_model.h"
#include "optimizer/table_stats.h"

namespace lqo {

/// Up to three join algorithms, in order, held in place (no allocation).
class JoinAlgorithmList {
 public:
  void push_back(JoinAlgorithm algorithm) { items_[size_++] = algorithm; }
  size_t size() const { return size_; }
  JoinAlgorithm operator[](size_t i) const { return items_[i]; }
  const JoinAlgorithm* begin() const { return items_.data(); }
  const JoinAlgorithm* end() const { return items_.data() + size_; }

 private:
  std::array<JoinAlgorithm, 3> items_{};
  size_t size_ = 0;
};

/// Planner hints, mirroring the steering knobs the end-to-end learned
/// optimizers use: Bao toggles physical operators (enable_* GUCs), HyperQO
/// forces leading join prefixes (pg_hint_plan LEADING).
struct HintSet {
  std::string name = "default";
  bool enable_hash_join = true;
  bool enable_nested_loop = true;
  bool enable_merge_join = true;
  /// When non-empty: the first tables (query indices) joined, left-deep, in
  /// this order; remaining tables appended greedily.
  std::vector<int> leading;

  /// Allowed algorithms; falls back to all three if every flag is off.
  JoinAlgorithmList AllowedAlgorithms() const;
};

/// The plan-enumerator component of the volcano optimizer.
struct PlannerResult {
  PhysicalPlan plan;
  double estimated_cost = 0.0;
  /// (L, R, algorithm) combinations costed — the deterministic proxy for
  /// planning time used by the join-order benchmarks.
  uint64_t combinations_evaluated = 0;
  /// True when Optimize() found too many connected subgraphs for the
  /// exhaustive DP (e.g. a wide star) and returned OptimizeGreedy()'s plan.
  bool greedy_fallback = false;
};

struct OptimizerOptions {
  /// true: bushy DP over connected subgraphs; false: left-deep only.
  bool bushy = true;
};

/// Traditional cost-based optimizer: dynamic programming (DPccp over
/// connected subgraph / connected complement pairs, cross products
/// forbidden) and a GOO-style greedy fallback, with hint and
/// cardinality-injection knobs.
///
/// The DP estimates every connected subset once, in one
/// CardinalityProvider::CardinalityBatch() call: leaves first, then in
/// ascending subset order. Among equally cheap plans for a subset it keeps
/// the one with the larger left-input bitmask, then the earlier algorithm
/// in HintSet::AllowedAlgorithms() order, so plans are a pure function of
/// the query, estimates and hints.
class Optimizer {
 public:
  Optimizer(const StatsCatalog* stats, const CostModelInterface* cost_model,
            OptimizerOptions options = {})
      : stats_(stats), cost_model_(cost_model), options_(options) {}

  /// Exhaustive DP plan (optimal under the cost model and cardinalities).
  /// With hints.leading non-empty, falls back to the forced-prefix
  /// construction instead of DP. A join graph with more connected subgraphs
  /// than the DP's fixed budget (a 17-table star or clique reaches it) is
  /// planned by OptimizeGreedy() instead, flagged by
  /// PlannerResult::greedy_fallback.
  PlannerResult Optimize(const Query& query, CardinalityProvider* cards,
                         const HintSet& hints = HintSet()) const;

  /// Greedy operator ordering (GOO): repeatedly joins the cheapest
  /// connected pair of components.
  PlannerResult OptimizeGreedy(const Query& query, CardinalityProvider* cards,
                               const HintSet& hints = HintSet()) const;

  const CostModelInterface& cost_model() const { return *cost_model_; }
  const StatsCatalog& stats() const { return *stats_; }

 private:
  PlannerResult OptimizeWithLeading(const Query& query,
                                    CardinalityProvider* cards,
                                    const HintSet& hints) const;

  const StatsCatalog* stats_;
  const CostModelInterface* cost_model_;
  OptimizerOptions options_;
};

}  // namespace lqo

#endif  // LQO_OPTIMIZER_OPTIMIZER_H_
