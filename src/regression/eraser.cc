#include "regression/eraser.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace lqo {

EraserGuard::EraserGuard(const E2eContext& context,
                         LearnedQueryOptimizer* inner, EraserOptions options)
    : context_(context), inner_(inner), options_(options) {
  LQO_CHECK(inner_ != nullptr);
}

bool EraserGuard::WithinSeenRanges(const std::vector<double>& features) const {
  LQO_CHECK_EQ(features.size(), feature_min_.size());
  for (size_t i = 0; i < features.size(); ++i) {
    double span = std::max(1e-9, feature_max_[i] - feature_min_[i]);
    double slack = options_.range_slack * span;
    if (features[i] < feature_min_[i] - slack ||
        features[i] > feature_max_[i] + slack) {
      return false;
    }
  }
  return true;
}

PhysicalPlan EraserGuard::ChoosePlan(const Query& query) {
  PhysicalPlan learned = inner_->ChoosePlan(query);
  if (!guard_ready_) return learned;

  PhysicalPlan native = NativePlan(context_, query);
  if (learned.Signature() == native.Signature()) return learned;
  std::vector<double> features =
      FeaturizePlanCachedVec(context_, query, learned, /*annotated=*/false);

  // Stage 1: coarse filter on unseen feature values.
  if (!WithinSeenRanges(features)) {
    ++fallbacks_;
    return native;
  }
  // Stage 2: cluster reliability.
  if (clusters_.fitted()) {
    size_t cluster = clusters_.Assign(features);
    if (cluster < cluster_reliable_.size() &&
        !cluster_reliable_[cluster]) {
      ++fallbacks_;
      return native;
    }
  }
  return learned;
}

CandidateSet EraserGuard::TrainingCandidateSet(const Query& query) {
  CandidateSet set;
  set.plans.push_back(inner_->ChoosePlan(query));
  PhysicalPlan native = NativePlan(context_, query);
  if (native.Signature() != set.plans[0].Signature()) {
    set.plans.push_back(std::move(native));
  }
  // The guard itself does not score candidates (the inner optimizer already
  // picked plans[0]); featurizing the pair still pays off by warming the
  // shared plan-signature cache, so Observe's per-plan clone+annotate walk
  // becomes a cache hit.
  FeaturizeCandidates(context_, query, /*annotated=*/false, &set);
  return set;
}

void EraserGuard::Observe(const Query& query, const PhysicalPlan& plan,
                          double time_units) {
  inner_->Observe(query, plan, time_units);

  std::string key = Subquery{&query, query.AllTables()}.Key();
  PhysicalPlan native = NativePlan(context_, query);
  bool is_native = plan.Signature() == native.Signature();

  PairedObservation& pending = pending_[key];
  if (is_native) {
    pending.native_time = time_units;
    // The native plan may also *be* the learned choice; record features if
    // none yet so singleton pairs still complete.
    if (pending.learned_time < 0) {
      pending.learned_features =
          FeaturizePlanCachedVec(context_, query, plan, /*annotated=*/false);
      pending.learned_time = time_units;
    }
  } else {
    pending.learned_features =
        FeaturizePlanCachedVec(context_, query, plan, /*annotated=*/false);
    pending.learned_time = time_units;
  }
  if (pending.learned_time >= 0 && pending.native_time >= 0) {
    completed_.push_back(pending);
    pending_.erase(key);
  }
}

void EraserGuard::Retrain() {
  inner_->Retrain();
  if (completed_.size() < 8) return;

  // Stage 1 ranges.
  size_t dim = completed_[0].learned_features.size();
  feature_min_.assign(dim, std::numeric_limits<double>::infinity());
  feature_max_.assign(dim, -std::numeric_limits<double>::infinity());
  std::vector<std::vector<double>> all_features;
  for (const PairedObservation& obs : completed_) {
    for (size_t i = 0; i < dim; ++i) {
      feature_min_[i] = std::min(feature_min_[i], obs.learned_features[i]);
      feature_max_[i] = std::max(feature_max_[i], obs.learned_features[i]);
    }
    all_features.push_back(obs.learned_features);
  }

  // Stage 2 clusters + per-cluster reliability.
  KMeansOptions km_options;
  km_options.k = options_.num_clusters;
  km_options.seed = options_.seed;
  clusters_ = KMeans(km_options);
  clusters_.Fit(all_features);
  std::vector<double> learned_total(clusters_.centroids().size(), 0.0);
  std::vector<double> native_total(clusters_.centroids().size(), 0.0);
  for (size_t i = 0; i < completed_.size(); ++i) {
    size_t cluster = clusters_.labels()[i];
    learned_total[cluster] += completed_[i].learned_time;
    native_total[cluster] += completed_[i].native_time;
  }
  cluster_reliable_.assign(clusters_.centroids().size(), true);
  for (size_t c = 0; c < cluster_reliable_.size(); ++c) {
    if (native_total[c] <= 0) continue;
    cluster_reliable_[c] =
        learned_total[c] <= native_total[c] * options_.regression_threshold;
  }
  guard_ready_ = true;
}

}  // namespace lqo
