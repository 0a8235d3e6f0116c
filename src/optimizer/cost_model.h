#ifndef LQO_OPTIMIZER_COST_MODEL_H_
#define LQO_OPTIMIZER_COST_MODEL_H_

#include <algorithm>
#include <cmath>

#include "engine/cost_constants.h"
#include "engine/plan.h"
#include "optimizer/cardinality_interface.h"
#include "optimizer/table_stats.h"

namespace lqo {

/// The cost-model component interface of the volcano optimizer. Given a
/// physical plan and a cardinality source, predict its execution time.
class CostModelInterface {
 public:
  virtual ~CostModelInterface() = default;

  /// Total predicted cost. Also annotates every node's
  /// estimated_cardinality / estimated_cost in place.
  virtual double PlanCost(PhysicalPlan* plan,
                          CardinalityProvider* cards) const = 0;

  virtual std::string Name() const = 0;
};

/// One input of a join as the join formulas read it: its row count and its
/// merge-join sort term, rows * log2(max(rows, 2)) * sort_row_log, which
/// depends on that input alone. AnalyticalCostModel::Input() builds it.
struct JoinInput {
  double rows = 0.0;
  double sort = 0.0;
};

/// The native analytical cost model: linear per-operator formulas using the
/// shared CostConstants, with *no knowledge* of the executor's skew, cache
/// and spill effects. Its error relative to true time units is structural,
/// exactly the gap learned cost models close.
class AnalyticalCostModel : public CostModelInterface {
 public:
  AnalyticalCostModel(const StatsCatalog* stats,
                      CostConstants constants = DefaultCostConstants())
      : stats_(stats), constants_(constants) {}

  double PlanCost(PhysicalPlan* plan,
                  CardinalityProvider* cards) const override;
  std::string Name() const override { return "analytical"; }

  /// Node-local formulas, exposed for the calibrated (BASE-style) model.
  double ScanCost(double table_rows, int num_predicates) const;
  double JoinCost(JoinAlgorithm algorithm, double left_rows,
                  double right_rows, double output_rows) const;

  /// The join formulas over inputs whose terms are computed once: the DP
  /// planner keeps one JoinInput per connected subset and costs every split
  /// of it through this overload. The four-argument JoinCost() above is
  /// this overload over Input(left_rows) and Input(right_rows), bit for bit.
  JoinInput Input(double rows) const {
    return {rows,
            rows * std::log2(std::max(rows, 2.0)) * constants_.sort_row_log};
  }
  double JoinCost(JoinAlgorithm algorithm, const JoinInput& left,
                  const JoinInput& right, double output_rows) const {
    switch (algorithm) {
      case JoinAlgorithm::kHashJoin:
        return right.rows * constants_.hash_build_row +
               left.rows * constants_.hash_probe_row +
               output_rows * constants_.output_row;
      case JoinAlgorithm::kNestedLoopJoin:
        return left.rows * right.rows * constants_.nlj_pair +
               output_rows * constants_.output_row;
      case JoinAlgorithm::kMergeJoin:
        return left.sort + right.sort +
               (left.rows + right.rows) * constants_.merge_row +
               output_rows * constants_.output_row;
    }
    return 0.0;
  }

  const CostConstants& constants() const { return constants_; }

 private:
  const StatsCatalog* stats_;
  CostConstants constants_;
};

}  // namespace lqo

#endif  // LQO_OPTIMIZER_COST_MODEL_H_
