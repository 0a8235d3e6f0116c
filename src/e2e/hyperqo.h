#ifndef LQO_E2E_HYPERQO_H_
#define LQO_E2E_HYPERQO_H_

#include <memory>
#include <span>
#include <vector>

#include "e2e/framework.h"
#include "e2e/risk_models.h"
#include "ml/mlp.h"

namespace lqo {

/// Options for the HyperQO-style optimizer.
struct HyperQoOptions {
  int ensemble_size = 5;
  /// Candidates whose ensemble prediction spread (std / mean) exceeds this
  /// are filtered as too risky.
  double max_relative_std = 0.5;
  uint64_t seed = 2501;
};

/// HyperQO [72]: a hybrid cost/learning optimizer. Candidate plans come
/// from leading-table hints (pg_hint_plan LEADING); a multi-head model —
/// here an ensemble of MLPs — predicts latency with uncertainty; high-
/// variance candidates are filtered and the best remaining mean wins, with
/// the native plan always in the candidate set as the cost-based fallback.
class HyperQoOptimizer : public LearnedQueryOptimizer {
 public:
  HyperQoOptimizer(const E2eContext& context,
                   HyperQoOptions options = HyperQoOptions());

  PhysicalPlan ChoosePlan(const Query& query) override;
  CandidateSet TrainingCandidateSet(const Query& query) override;
  void Observe(const Query& query, const PhysicalPlan& plan,
               double time_units) override;
  void Retrain() override;
  std::string Name() const override { return "hyperqo"; }
  bool trained() const override { return trained_; }
  InferenceStatsSnapshot InferenceStats() const override;

  /// Ensemble mean/std of predicted log latency for every row of `x`:
  /// each ensemble member scores the whole batch with one PredictBatch
  /// pass (bit for bit its scalar Predict), then per-row mean/stddev
  /// reduce over the members in ensemble order.
  void PredictBatch(const FeatureMatrix& x, std::span<double> means,
                    std::span<double> stddevs) const;

 private:
  /// Native plan first, then distinct leading-hint plans.
  std::vector<PhysicalPlan> Candidates(const Query& query);

  E2eContext context_;
  HyperQoOptions options_;
  ExperienceBuffer experience_;
  std::vector<Mlp> ensemble_;
  bool trained_ = false;
};

}  // namespace lqo

#endif  // LQO_E2E_HYPERQO_H_
