#ifndef LQO_REGRESSION_ERASER_H_
#define LQO_REGRESSION_ERASER_H_

#include <map>
#include <string>
#include <vector>

#include "e2e/framework.h"
#include "ml/kmeans.h"

namespace lqo {

/// Options for the Eraser guard.
struct EraserOptions {
  int num_clusters = 4;
  /// A cluster is unreliable when its learned plans were at least this
  /// factor slower than native in aggregate.
  double regression_threshold = 1.05;
  /// Stage-1 slack: feature values this far (relatively) outside the seen
  /// range count as unseen.
  double range_slack = 0.10;
  uint64_t seed = 2701;
};

/// Eraser [62]: a plugin deployed on top of any learned query optimizer to
/// eliminate performance regressions with a two-stage strategy:
///  1) a coarse filter rejects plans whose features contain values never
///     seen during training (high extrapolation risk), and
///  2) a fine-grained plan clustering falls back to the native plan in
///     regions where the learned optimizer's past choices under-performed
///     the native optimizer.
/// Training observations must include native executions
/// (TrainingCandidateSet returns the learned choice plus the native plan).
class EraserGuard : public LearnedQueryOptimizer {
 public:
  EraserGuard(const E2eContext& context, LearnedQueryOptimizer* inner,
              EraserOptions options = EraserOptions());

  PhysicalPlan ChoosePlan(const Query& query) override;
  CandidateSet TrainingCandidateSet(const Query& query) override;
  void Observe(const Query& query, const PhysicalPlan& plan,
               double time_units) override;
  void Retrain() override;
  std::string Name() const override { return inner_->Name() + "+eraser"; }
  bool trained() const override { return guard_ready_; }

  /// Stage-1 check exposed for tests: true if `features` lies inside the
  /// training ranges.
  bool WithinSeenRanges(const std::vector<double>& features) const;

  /// Fallback decisions made so far (for reporting).
  int fallbacks() const { return fallbacks_; }

 private:
  struct PairedObservation {
    std::vector<double> learned_features;
    double learned_time = -1.0;
    double native_time = -1.0;
  };

  E2eContext context_;
  LearnedQueryOptimizer* inner_;
  EraserOptions options_;

  /// Per-query accumulation of (learned, native) execution pairs.
  std::map<std::string, PairedObservation> pending_;
  std::vector<PairedObservation> completed_;

  // Guard state (rebuilt by Retrain).
  bool guard_ready_ = false;
  std::vector<double> feature_min_;
  std::vector<double> feature_max_;
  KMeans clusters_;
  std::vector<bool> cluster_reliable_;
  int fallbacks_ = 0;
};

}  // namespace lqo

#endif  // LQO_REGRESSION_ERASER_H_
