#ifndef LQO_E2E_VALUE_SEARCH_H_
#define LQO_E2E_VALUE_SEARCH_H_

#include <vector>

#include "costmodel/plan_featurizer.h"
#include "e2e/framework.h"
#include "e2e/risk_models.h"

namespace lqo {

/// Machinery shared by Neo [38] and Balsa [69]: plan construction from
/// scratch guided by a learned value model that predicts the final latency
/// reachable from a partial (left-deep) plan.
class ValueSearch {
 public:
  ValueSearch(const E2eContext& context, int max_expansions, int beam_width);

  /// Value-model features of a (partial) plan: baseline-annotated plan
  /// features plus query-context slots (total tables, tables remaining).
  std::vector<double> StateFeatures(const Query& query,
                                    const PhysicalPlan& partial) const;

  /// Number of state features (plan features + 2 query-context slots).
  static constexpr size_t kStateDim = PlanFeaturizer::kDim + 2;

  /// As StateFeatures, into a caller-owned kStateDim buffer (e.g. a
  /// FeatureMatrix row) — no per-state vector allocation.
  void StateFeaturesInto(const Query& query, const PhysicalPlan& partial,
                         double* out) const;

  /// Runs the search under `value_model`; kBestFirst caps expansions
  /// (Neo), kBeam keeps beam_width states per level (Balsa).
  enum class Strategy { kBestFirst, kBeam };
  PhysicalPlan Search(const Query& query,
                      const PointwiseRiskModel& value_model,
                      Strategy strategy) const;

  /// Experience extraction: every join subtree of an executed plan becomes
  /// a training record labeled with the plan's final latency (Neo's
  /// sub-plan credit assignment).
  std::vector<PlanExperience> SubplanExperiences(const Query& query,
                                                 const PhysicalPlan& plan,
                                                 double time_units) const;

 private:
  struct SearchState {
    PhysicalPlan partial;
    double value = 0.0;
  };

  /// All one-table left-deep extensions of a partial plan (3 algorithms per
  /// adjacent table), annotated against `cards` (one provider per Search
  /// call), in (table, algorithm) order.
  std::vector<PhysicalPlan> Expand(const Query& query,
                                   const PhysicalPlan& partial,
                                   CardinalityProvider* cards) const;

  E2eContext context_;
  int max_expansions_;
  int beam_width_;
};

}  // namespace lqo

#endif  // LQO_E2E_VALUE_SEARCH_H_
