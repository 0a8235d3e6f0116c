#ifndef LQO_E2E_LEON_H_
#define LQO_E2E_LEON_H_

#include <vector>

#include "e2e/framework.h"
#include "e2e/risk_models.h"

namespace lqo {

/// Options for the LEON-style optimizer.
struct LeonOptions {
  uint64_t seed = 2601;
};

/// LEON [4]: ML-aided (not ML-replaced) optimization — keeps the native
/// dynamic-programming enumerator and calibrates its final choice with a
/// learned pairwise comparison model over the plans DP produces under
/// different enumeration modes (bushy / left-deep / greedy / operator
/// subsets). The comparator only overrides the native choice when trained.
class LeonOptimizer : public LearnedQueryOptimizer {
 public:
  LeonOptimizer(const E2eContext& context, LeonOptions options = LeonOptions());

  PhysicalPlan ChoosePlan(const Query& query) override;
  CandidateSet TrainingCandidateSet(const Query& query) override;
  void Observe(const Query& query, const PhysicalPlan& plan,
               double time_units) override;
  void Retrain() override;
  std::string Name() const override { return "leon"; }
  bool trained() const override { return risk_model_.trained(); }
  InferenceStatsSnapshot InferenceStats() const override {
    return risk_model_.InferenceStats();
  }

 private:
  /// Native DP plan first, then distinct alternates from other enumeration
  /// modes.
  std::vector<PhysicalPlan> Candidates(const Query& query);

  E2eContext context_;
  LeonOptions options_;
  Optimizer left_deep_optimizer_;
  ExperienceBuffer experience_;
  PairwiseRiskModel risk_model_;
};

}  // namespace lqo

#endif  // LQO_E2E_LEON_H_
