#include "serving/plan_cache.h"

#include <cmath>

#include "common/logging.h"

namespace lqo {

PlanCacheStats PlanCacheStats::operator-(const PlanCacheStats& other) const {
  PlanCacheStats d;
  d.hits = hits - other.hits;
  d.misses = misses - other.misses;
  d.volatile_skips = volatile_skips - other.volatile_skips;
  d.installs = installs - other.installs;
  d.install_races = install_races - other.install_races;
  d.invalidations = invalidations - other.invalidations;
  d.demotions = demotions - other.demotions;
  d.observations = observations - other.observations;
  d.stale_feedback = stale_feedback - other.stale_feedback;
  // Gauges, not counters: report the later snapshot's value.
  d.entries = entries;
  d.cached_plans = cached_plans;
  return d;
}

PlanCacheLookup PlanCache::Lookup(uint64_t type) {
  PlanCacheLookup result;
  auto it = entries_.find(type);
  if (it != entries_.end()) {
    const TypeState& state = it->second;
    result.always_optimize = state.always_optimize;
    result.generation = state.generation;
    if (state.root != nullptr && !state.always_optimize) {
      result.hit = true;
      result.root = state.root;
      result.install_estimated_rows = state.install_estimated_rows;
    }
  }
  if (result.hit) {
    stats_.hits += 1;
  } else if (result.always_optimize) {
    stats_.volatile_skips += 1;
  } else {
    stats_.misses += 1;
  }
  return result;
}

bool PlanCache::TryInstall(uint64_t type, uint32_t generation,
                           const PhysicalPlan& plan, double estimated_rows) {
  LQO_CHECK(plan.root != nullptr) << "TryInstall of an empty plan";
  TypeState& state = entries_[type];
  // The token from Lookup must still be current. A mismatch means the plan
  // was produced against a generation that has since been invalidated —
  // installing it would resurrect the evicted plan, so the install is
  // refused and the type stays uncached until the next miss re-plans it.
  if (generation != state.generation) {
    stats_.install_races += 1;
    return false;
  }
  if (state.always_optimize) {
    // Demoted since this plan was produced; drop the plan, keep the demotion.
    stats_.install_races += 1;
    return false;
  }
  if (state.root != nullptr) {
    stats_.install_races += 1;
    return false;  // first writer wins
  }
  state.root = std::shared_ptr<const PlanNode>(plan.root->Clone().release());
  state.install_estimated_rows = estimated_rows > 0.0 ? estimated_rows : -1.0;
  state.window_count = 0;
  state.window_time_sum = 0.0;
  state.window_high_qerror = 0;
  state.baseline_time = -1.0;
  stats_.installs += 1;
  return true;
}

PlanObserveOutcome PlanCache::Observe(uint64_t type, uint32_t generation,
                                      double observed_rows,
                                      double time_units) {
  auto it = entries_.find(type);
  if (it == entries_.end() || it->second.generation != generation ||
      it->second.root == nullptr || it->second.always_optimize) {
    // Feedback for a plan that is no longer resident (evicted, demoted, or
    // never installed): benign, drop it.
    stats_.stale_feedback += 1;
    return PlanObserveOutcome::kDropped;
  }
  TypeState& state = it->second;
  stats_.observations += 1;

  double qerror = 1.0;
  if (state.install_estimated_rows > 0.0) {
    const double est = state.install_estimated_rows;
    const double obs = observed_rows < 1.0 ? 1.0 : observed_rows;
    qerror = est > obs ? est / obs : obs / est;
  }
  state.window_count += 1;
  state.window_time_sum += time_units;
  state.window_high_qerror += qerror > kQerrorThreshold ? 1 : 0;
  state.obs_count += 1;
  state.time_sum += time_units;
  state.time_sq_sum += time_units * time_units;

  if (state.window_count < kDriftWindow) {
    return PlanObserveOutcome::kKept;
  }
  return ApplyPolicy(&state);
}

PlanObserveOutcome PlanCache::ApplyPolicy(TypeState* state) {
  const double window = static_cast<double>(kDriftWindow);
  const double mean_time = state->window_time_sum / window;
  const int high_qerror = state->window_high_qerror;
  state->window_count = 0;
  state->window_time_sum = 0.0;
  state->window_high_qerror = 0;

  // Parameter-sensitivity: lifetime latency CV across bindings. A type whose
  // executions swing wildly regardless of which plan is installed has no
  // single cacheable plan — demote it before it hurts tail latency again.
  if (state->obs_count >=
      static_cast<uint64_t>(kSensitivityMinObservations)) {
    const double n = static_cast<double>(state->obs_count);
    const double mean = state->time_sum / n;
    const double var = state->time_sq_sum / n - mean * mean;
    const double cv = mean > 0.0 ? std::sqrt(var > 0.0 ? var : 0.0) / mean : 0.0;
    if (cv > kSensitivityCv) {
      state->always_optimize = true;
      state->root.reset();
      state->generation += 1;
      stats_.demotions += 1;
      return PlanObserveOutcome::kDemoted;
    }
  }

  // Majority vote: the plan is drifted only when most of the window's
  // bindings miss the install-time estimate, not when one outlier does.
  const bool qerror_drift = state->install_estimated_rows > 0.0 &&
                            2 * high_qerror >= kDriftWindow;
  bool latency_drift = false;
  if (state->baseline_time < 0.0) {
    // First completed window of this plan becomes its latency baseline.
    state->baseline_time = mean_time;
  } else if (state->baseline_time > 0.0) {
    latency_drift = mean_time > kLatencyDriftRatio * state->baseline_time;
  }
  if (!qerror_drift && !latency_drift) {
    return PlanObserveOutcome::kKept;
  }

  state->reopt_count += 1;
  state->root.reset();
  state->install_estimated_rows = -1.0;
  state->baseline_time = -1.0;
  state->generation += 1;
  stats_.invalidations += 1;
  if (state->reopt_count > kMaxReoptimizations) {
    // The type keeps invalidating whatever plan is installed: stop paying the
    // re-plan churn and pin it to always-optimize.
    state->always_optimize = true;
    stats_.demotions += 1;
    return PlanObserveOutcome::kDemoted;
  }
  return PlanObserveOutcome::kInvalidated;
}

void PlanCache::Invalidate(uint64_t type) {
  auto it = entries_.find(type);
  if (it == entries_.end() || it->second.root == nullptr ||
      it->second.always_optimize) {
    return;
  }
  TypeState& state = it->second;
  state.root.reset();
  state.install_estimated_rows = -1.0;
  state.window_count = 0;
  state.window_time_sum = 0.0;
  state.window_high_qerror = 0;
  state.baseline_time = -1.0;
  state.generation += 1;
  stats_.invalidations += 1;
}

PlanCacheStats PlanCache::Stats() const {
  PlanCacheStats stats = stats_;
  stats.entries = entries_.size();
  // lint: unordered-iter-ok(commutative count of resident plans)
  for (const auto& [type, state] : entries_) {
    (void)type;
    if (state.root != nullptr) stats.cached_plans += 1;
  }
  return stats;
}

PhysicalPlan BindPlan(std::shared_ptr<const PlanNode> root,
                      const Query& query) {
  LQO_CHECK(root != nullptr) << "BindPlan of a null cached tree";
  PhysicalPlan plan;
  plan.query = &query;
  plan.root = root->Clone();
  return plan;
}

}  // namespace lqo
