#ifndef LQO_E2E_BAO_H_
#define LQO_E2E_BAO_H_

#include <vector>

#include "common/rng.h"
#include "costmodel/plan_featurizer.h"
#include "e2e/framework.h"
#include "e2e/risk_models.h"

namespace lqo {

/// Options for the Bao-style optimizer.
struct BaoOptions {
  /// Epsilon-greedy exploration over hint arms before/while the risk model
  /// trains, decaying with the number of observations.
  double initial_epsilon = 0.5;
  int epsilon_halflife = 40;  // observations
  /// Hint arms as bitmasks over {hash=1, nlj=2, merge=4}; the first mask
  /// must be 7 (the default arm). Trimming this list is the knob the E10
  /// ablation sweeps.
  std::vector<int> arm_masks = {7, 1, 2, 3, 4, 5, 6};
  uint64_t seed = 2101;
};

/// Bao [37]: steers the native optimizer with operator on/off hint sets
/// (the 7 non-empty subsets of {hash, nlj, merge}) and selects the arm
/// whose plan a learned latency model scores best.
class BaoOptimizer : public LearnedQueryOptimizer {
 public:
  BaoOptimizer(const E2eContext& context, BaoOptions options = BaoOptions());

  PhysicalPlan ChoosePlan(const Query& query) override;
  void Observe(const Query& query, const PhysicalPlan& plan,
               double time_units) override;
  void Retrain() override;
  std::string Name() const override { return "bao"; }
  bool trained() const override { return risk_model_.trained(); }
  InferenceStatsSnapshot InferenceStats() const override {
    return risk_model_.InferenceStats();
  }

  const std::vector<HintSet>& arms() const { return arms_; }

 private:
  /// Distinct candidate plans across arms, baseline-annotated.
  std::vector<PhysicalPlan> Candidates(const Query& query);

  E2eContext context_;
  BaoOptions options_;
  std::vector<HintSet> arms_;
  ExperienceBuffer experience_;
  PointwiseRiskModel risk_model_;
  Rng rng_;
  int observations_ = 0;
  /// Reused across ChoosePlan calls (capacity persists).
  FeatureMatrix feature_scratch_;
};

}  // namespace lqo

#endif  // LQO_E2E_BAO_H_
