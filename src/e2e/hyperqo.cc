#include "e2e/hyperqo.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/logging.h"
#include "common/stats_util.h"

namespace lqo {

HyperQoOptimizer::HyperQoOptimizer(const E2eContext& context,
                                   HyperQoOptions options)
    : context_(context), options_(options) {}

std::vector<PhysicalPlan> HyperQoOptimizer::Candidates(const Query& query) {
  // The native plan plus one leading hint per driving table, all planned
  // against one provider so every candidate shares the same estimate cache.
  // Signature dedup keeps the first of each plan in that order.
  CardinalityProvider cards(context_.estimator);
  std::vector<PhysicalPlan> candidates;
  std::set<std::string> seen;
  for (int i = 0; i <= query.num_tables(); ++i) {
    HintSet hints;
    if (i > 0) hints.leading = {i - 1};
    PhysicalPlan plan =
        context_.optimizer->Optimize(query, &cards, hints).plan;
    AnnotateWithProvider(context_, &plan, &cards);
    if (!seen.insert(plan.Signature()).second) continue;
    candidates.push_back(std::move(plan));
  }
  return candidates;
}

void HyperQoOptimizer::PredictBatch(const FeatureMatrix& x,
                                    std::span<double> means,
                                    std::span<double> stddevs) const {
  LQO_CHECK(trained_);
  LQO_CHECK_EQ(x.rows(), means.size());
  LQO_CHECK_EQ(x.rows(), stddevs.size());
  if (x.empty()) return;
  size_t n = x.rows();
  // Member-major: each MLP runs one blocked forward pass over the whole
  // batch. The per-row reduction then gathers that row's predictions in
  // ensemble order.
  std::vector<double> member_out(ensemble_.size() * n);
  for (size_t k = 0; k < ensemble_.size(); ++k) {
    ensemble_[k].PredictBatch(x,
                              std::span<double>(&member_out[k * n], n));
  }
  std::vector<double> row_predictions(ensemble_.size());
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = 0; k < ensemble_.size(); ++k) {
      row_predictions[k] = member_out[k * n + i];
    }
    means[i] = Mean(row_predictions);
    stddevs[i] = StdDev(row_predictions);
  }
}

InferenceStatsSnapshot HyperQoOptimizer::InferenceStats() const {
  InferenceStatsSnapshot total;
  for (const Mlp& model : ensemble_) total += model.Stats();
  return total;
}

PhysicalPlan HyperQoOptimizer::ChoosePlan(const Query& query) {
  CandidateSet set = TrainingCandidateSet(query);
  return std::move(set.plans[set.chosen]);
}

CandidateSet HyperQoOptimizer::TrainingCandidateSet(const Query& query) {
  CandidateSet set;
  set.plans = Candidates(query);
  LQO_CHECK(!set.plans.empty());
  // The ensemble scores the candidate set in one batched forward pass per
  // member.
  FeaturizeCandidates(context_, query, /*annotated=*/true, &set);
  if (!trained_ || set.plans.size() == 1) {
    set.chosen = 0;  // cost-based fallback.
    return set;
  }
  set.scores.resize(set.plans.size());
  set.uncertainty.resize(set.plans.size());
  PredictBatch(set.features, set.scores, set.uncertainty);
  size_t best = 0;  // native fallback survives any filtering.
  double best_mean = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < set.plans.size(); ++i) {
    double mean = set.scores[i];
    double stddev = set.uncertainty[i];
    // Variance filter: skip risky candidates (never filters the native
    // plan out of existence — if everything is filtered, native wins).
    if (stddev > options_.max_relative_std * std::max(std::abs(mean), 1e-3)) {
      continue;
    }
    if (mean < best_mean) {
      best_mean = mean;
      best = i;
    }
  }
  set.chosen = best;
  return set;
}

void HyperQoOptimizer::Observe(const Query& query, const PhysicalPlan& plan,
                               double time_units) {
  experience_.Add(MakePlanExperience(
      query, plan,
      FeaturizePlanCachedVec(context_, query, plan, /*annotated=*/true),
      time_units));
}

void HyperQoOptimizer::Retrain() {
  if (experience_.size() < 8) return;
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (const PlanExperience& record : experience_.records()) {
    x.push_back(record.features);
    y.push_back(std::log(record.time_units + 1.0));
  }
  ensemble_.clear();
  for (int k = 0; k < options_.ensemble_size; ++k) {
    MlpOptions mlp_options;
    mlp_options.hidden_layers = {32, 16};
    mlp_options.epochs = 60;
    mlp_options.seed = options_.seed + static_cast<uint64_t>(k) * 97;
    Mlp model(mlp_options);
    model.Fit(x, y);
    ensemble_.push_back(std::move(model));
  }
  trained_ = true;
}

}  // namespace lqo
