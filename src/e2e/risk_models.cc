#include "e2e/risk_models.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "common/logging.h"

namespace lqo {

void PointwiseRiskModel::Train(const ExperienceBuffer& buffer) {
  if (buffer.size() < 4) return;
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (const PlanExperience& record : buffer.records()) {
    x.push_back(record.features);
    y.push_back(std::log(record.time_units + 1.0));
  }
  GbdtOptions options;
  options.num_trees = 100;
  options.tree.max_depth = 4;
  model_ = GradientBoostedTrees(options);
  model_.Fit(x, y);
  trained_ = true;
}

void PointwiseRiskModel::PredictTimeBatch(const FeatureMatrix& x,
                                          std::span<double> out) const {
  LQO_CHECK(trained_);
  LQO_CHECK_EQ(x.rows(), out.size());
  model_.PredictBatch(x, out);
  for (size_t i = 0; i < out.size(); ++i) {
    double log_time = std::clamp(out[i], 0.0, 50.0);
    out[i] = std::exp(log_time) - 1.0;
  }
}

size_t PointwiseRiskModel::PickBest(const FeatureMatrix& candidates) const {
  LQO_CHECK(!candidates.empty());
  LQO_CHECK(trained_);
  std::vector<double> times(candidates.rows());
  PredictTimeBatch(candidates, times);
  size_t best = 0;
  for (size_t i = 1; i < times.size(); ++i) {
    if (times[i] < times[best]) best = i;
  }
  return best;
}

PairwiseRiskModel::PairwiseRiskModel(uint64_t seed) : seed_(seed) {}

void PairwiseRiskModel::Train(const ExperienceBuffer& buffer,
                              double min_gap_ratio, size_t min_pairs) {
  // Group experiences per logical query; the within-group minimum removes
  // the per-query latency scale, leaving the pairwise signal.
  std::map<std::string, std::vector<const PlanExperience*>> groups;
  for (const PlanExperience& record : buffer.records()) {
    groups[record.query_key].push_back(&record);
  }
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  size_t comparable = 0;
  for (const auto& [key, records] : groups) {
    double group_min = std::numeric_limits<double>::infinity();
    std::set<std::string> distinct;
    for (const PlanExperience* record : records) {
      group_min = std::min(group_min, record->time_units);
      distinct.insert(record->plan_signature);
    }
    if (group_min <= 0 || distinct.size() < 2) continue;
    bool spread = false;
    for (const PlanExperience* record : records) {
      x.push_back(record->features);
      y.push_back(std::log(std::max(record->time_units, 1e-9) / group_min));
      if (record->time_units / group_min >= min_gap_ratio) spread = true;
    }
    if (spread) comparable += distinct.size();
  }
  if (comparable < min_pairs) return;
  GbdtOptions options;
  options.num_trees = 120;
  options.tree.max_depth = 4;
  options.seed = seed_;
  scorer_ = GradientBoostedTrees(options);
  scorer_.Fit(x, y);
  trained_ = true;
}

void PairwiseRiskModel::ScoreBatch(const FeatureMatrix& x,
                                   std::span<double> out) const {
  LQO_CHECK(trained_);
  scorer_.PredictBatch(x, out);
}

size_t PairwiseRiskModel::PickBestFromScores(
    std::span<const double> scores) const {
  LQO_CHECK(trained_);
  LQO_CHECK(!scores.empty());
  std::vector<int> wins(scores.size(), 0);
  for (size_t i = 0; i < scores.size(); ++i) {
    for (size_t j = i + 1; j < scores.size(); ++j) {
      if (Sigmoid(3.0 * (scores[j] - scores[i])) >= 0.5) {
        ++wins[i];
      } else {
        ++wins[j];
      }
    }
  }
  size_t best = 0;
  for (size_t i = 1; i < scores.size(); ++i) {
    if (wins[i] > wins[best]) best = i;
  }
  return best;
}

size_t PairwiseRiskModel::PickBestConservativeFromScores(
    std::span<const double> scores, size_t baseline, double confidence) const {
  LQO_CHECK_LT(baseline, scores.size());
  LQO_CHECK(trained_);
  size_t best = PickBestFromScores(scores);
  if (best == baseline) return baseline;
  return Sigmoid(3.0 * (scores[baseline] - scores[best])) >= confidence
             ? best
             : baseline;
}

void PairwiseRiskModel::ChooseConservative(CandidateSet* set) const {
  LQO_CHECK(!set->plans.empty());
  LQO_CHECK_EQ(set->features.rows(), set->plans.size());
  set->chosen = 0;
  if (!trained_ || set->plans.size() == 1) return;
  set->scores.resize(set->plans.size());
  ScoreBatch(set->features, set->scores);
  set->chosen = PickBestConservativeFromScores(set->scores, 0);
}

}  // namespace lqo
