#ifndef LQO_E2E_RISK_MODELS_H_
#define LQO_E2E_RISK_MODELS_H_

#include <span>
#include <string>
#include <vector>

#include "e2e/framework.h"
#include "ml/gbdt.h"
#include "ml/mlp.h"

namespace lqo {

/// Accumulates execution experience.
class ExperienceBuffer {
 public:
  void Add(PlanExperience experience) {
    records_.push_back(std::move(experience));
  }
  const std::vector<PlanExperience>& records() const { return records_; }
  size_t size() const { return records_.size(); }
  void Clear() { records_.clear(); }

 private:
  std::vector<PlanExperience> records_;
};

/// Pointwise risk model (Bao/Neo style): regress log latency from plan
/// features with a GBDT, pick the candidate with minimum prediction.
class PointwiseRiskModel {
 public:
  void Train(const ExperienceBuffer& buffer);
  /// Predicted time for all rows of `x`: one GBDT PredictBatch pass (bit
  /// for bit the scalar Predict) followed by the clamp/exp per row.
  void PredictTimeBatch(const FeatureMatrix& x, std::span<double> out) const;
  /// Index of the best candidate (min predicted time; the first on ties),
  /// from one batched inference pass over the candidate set.
  size_t PickBest(const FeatureMatrix& candidates) const;
  /// Batched-inference counters of the underlying model.
  InferenceStatsSnapshot InferenceStats() const { return model_.Stats(); }
  bool trained() const { return trained_; }

 private:
  GradientBoostedTrees model_;
  bool trained_ = false;
};

/// Pairwise risk model (Lero/LEON style): learning-to-rank within a
/// query's candidate set. The per-query latency scale is removed by
/// training a scorer on log(time / fastest-in-group) — exactly the signal
/// plan pairs carry — with a tree-ensemble scorer whose bounded leaves make
/// the comparisons robust off-distribution; the comparator probability is
/// sigmoid over score differences (RankNet form).
class PairwiseRiskModel {
 public:
  explicit PairwiseRiskModel(uint64_t seed = 2001);

  /// Fits the scorer from within-query groups. No-op (stays untrained) if
  /// fewer than `min_pairs` comparable plans exist across groups.
  void Train(const ExperienceBuffer& buffer, double min_gap_ratio = 1.05,
             size_t min_pairs = 8);

  /// Relative-latency scores (log time over group minimum) for all rows of
  /// `x`, one batched scorer pass; lower is better.
  void ScoreBatch(const FeatureMatrix& x, std::span<double> out) const;

  /// Index of the candidate winning the most pairwise comparisons, given
  /// one ScoreBatch row per candidate. Candidate i beats j when
  /// P(i faster than j) = sigmoid(3 * (scores[j] - scores[i])) >= 0.5.
  size_t PickBestFromScores(std::span<const double> scores) const;

  /// Conservative variant: returns PickBestFromScores's winner only if the
  /// model is at least `confidence` sure it beats candidate `baseline`;
  /// otherwise returns `baseline` (Lero's keep-the-native-plan-unless-
  /// confident behavior).
  size_t PickBestConservativeFromScores(std::span<const double> scores,
                                        size_t baseline,
                                        double confidence = 0.6) const;

  /// Sets `set->chosen` to the conservative winner over plans[0] from one
  /// ScoreBatch pass over `set->features` (scores kept in `set->scores`);
  /// leaves plans[0] chosen while untrained or with a single plan.
  void ChooseConservative(CandidateSet* set) const;

  /// Batched-inference counters of the underlying scorer.
  InferenceStatsSnapshot InferenceStats() const { return scorer_.Stats(); }

  bool trained() const { return trained_; }

 private:
  uint64_t seed_;
  GradientBoostedTrees scorer_;
  bool trained_ = false;
};

}  // namespace lqo

#endif  // LQO_E2E_RISK_MODELS_H_
