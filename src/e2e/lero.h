#ifndef LQO_E2E_LERO_H_
#define LQO_E2E_LERO_H_

#include <vector>

#include "costmodel/plan_featurizer.h"
#include "e2e/framework.h"
#include "e2e/risk_models.h"

namespace lqo {

/// Options for the Lero-style optimizer.
struct LeroOptions {
  /// Cardinality scaling factors applied to multi-table sub-queries to
  /// steer the native optimizer toward different plans.
  std::vector<double> scale_factors = {0.01, 0.1, 1.0, 10.0, 100.0};
  uint64_t seed = 2201;
};

/// Lero [79]: a learning-to-rank query optimizer. Candidate plans come from
/// re-optimizing with scaled cardinalities; a pairwise comparator model
/// picks the plan that wins the most head-to-head comparisons. During
/// training all distinct candidates are executed (Lero's plan exploration),
/// giving the comparator within-query pairs.
class LeroOptimizer : public LearnedQueryOptimizer {
 public:
  LeroOptimizer(const E2eContext& context, LeroOptions options = LeroOptions());

  PhysicalPlan ChoosePlan(const Query& query) override;
  CandidateSet TrainingCandidateSet(const Query& query) override;
  void Observe(const Query& query, const PhysicalPlan& plan,
               double time_units) override;
  void Retrain() override;
  std::string Name() const override { return "lero"; }
  bool trained() const override { return risk_model_.trained(); }
  InferenceStatsSnapshot InferenceStats() const override {
    return risk_model_.InferenceStats();
  }

  /// Distinct candidate plans (baseline-annotated); index 0 is the native
  /// (scale = 1) plan.
  std::vector<PhysicalPlan> Candidates(const Query& query);

 private:
  E2eContext context_;
  LeroOptions options_;
  ExperienceBuffer experience_;
  PairwiseRiskModel risk_model_;
};

}  // namespace lqo

#endif  // LQO_E2E_LERO_H_
