#include "serving/plan_cache.h"

#include <cmath>
#include <mutex>

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

PlanCache::PlanCache(PlanCacheOptions options)
    : options_(options), shards_(new Shard[options.shards]) {
  LQO_CHECK_GT(options_.shards, 0u);
  LQO_CHECK_EQ(options_.shards & (options_.shards - 1), 0u)
      << "PlanCache shard count must be a power of two";
  LQO_CHECK_GT(options_.drift_window, 0);
}

PlanCacheLookup PlanCache::Lookup(uint64_t type) const {
  Shard& shard = ShardOf(type);
  PlanCacheLookup result;
  {
    std::shared_lock<std::shared_mutex> lock(shard.mutex);
    auto it = shard.entries.find(type);
    if (it != shard.entries.end()) {
      const TypeState& state = it->second;
      result.always_optimize = state.always_optimize;
      result.generation = state.generation;
      if (state.root != nullptr && !state.always_optimize) {
        result.hit = true;
        result.root = state.root;
        result.install_estimated_rows = state.install_estimated_rows;
      }
    }
  }
  if (result.hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else if (result.always_optimize) {
    volatile_skips_.fetch_add(1, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

bool PlanCache::TryInstall(uint64_t type, uint32_t generation,
                           const PhysicalPlan& plan, double estimated_rows) {
  LQO_CHECK(plan.root != nullptr) << "TryInstall of an empty plan";
  Shard& shard = ShardOf(type);
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  TypeState& state = shard.entries[type];
  // The optimistic token from Lookup must still be current. A mismatch means
  // the plan was produced against a generation that has since been
  // invalidated — installing it would resurrect the evicted plan, so the
  // install loses like any other race and the type stays uncached until the
  // next miss re-plans it.
  if (generation != state.generation) {
    install_races_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (state.always_optimize) {
    // Demotion raced ahead of this planner; drop the plan, keep the demotion.
    install_races_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (state.root != nullptr) {
    install_races_.fetch_add(1, std::memory_order_relaxed);
    return false;  // first writer wins
  }
  state.root = std::shared_ptr<const PlanNode>(plan.root->Clone().release());
  state.install_estimated_rows = estimated_rows > 0.0 ? estimated_rows : -1.0;
  state.window_count = 0;
  state.window_time_sum = 0.0;
  state.window_high_qerror = 0;
  state.baseline_time = -1.0;
  installs_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

PlanObserveOutcome PlanCache::Observe(uint64_t type, uint32_t generation,
                                      double observed_rows,
                                      double time_units) {
  Shard& shard = ShardOf(type);
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  auto it = shard.entries.find(type);
  if (it == shard.entries.end() || it->second.generation != generation ||
      it->second.root == nullptr || it->second.always_optimize) {
    // Feedback for a plan that is no longer resident (evicted, demoted, or
    // never installed): benign, drop it.
    stale_feedback_.fetch_add(1, std::memory_order_relaxed);
    return PlanObserveOutcome::kDropped;
  }
  TypeState& state = it->second;
  observations_.fetch_add(1, std::memory_order_relaxed);

  double qerror = 1.0;
  if (state.install_estimated_rows > 0.0) {
    const double est = state.install_estimated_rows;
    const double obs = observed_rows < 1.0 ? 1.0 : observed_rows;
    qerror = est > obs ? est / obs : obs / est;
  }
  state.window_count += 1;
  state.window_time_sum += time_units;
  state.window_high_qerror += qerror > options_.qerror_threshold ? 1 : 0;
  state.obs_count += 1;
  state.time_sum += time_units;
  state.time_sq_sum += time_units * time_units;

  if (state.window_count < options_.drift_window) {
    return PlanObserveOutcome::kKept;
  }
  return ApplyPolicyLocked(&state);
}

PlanObserveOutcome PlanCache::ApplyPolicyLocked(TypeState* state) {
  const double window = static_cast<double>(options_.drift_window);
  const double mean_time = state->window_time_sum / window;
  const int high_qerror = state->window_high_qerror;
  state->window_count = 0;
  state->window_time_sum = 0.0;
  state->window_high_qerror = 0;

  // Parameter-sensitivity: lifetime latency CV across bindings. A type whose
  // executions swing wildly regardless of which plan is installed has no
  // single cacheable plan — demote it before it hurts tail latency again.
  if (state->obs_count >=
      static_cast<uint64_t>(options_.sensitivity_min_observations)) {
    const double n = static_cast<double>(state->obs_count);
    const double mean = state->time_sum / n;
    const double var = state->time_sq_sum / n - mean * mean;
    const double cv = mean > 0.0 ? std::sqrt(var > 0.0 ? var : 0.0) / mean : 0.0;
    if (cv > options_.sensitivity_cv) {
      state->always_optimize = true;
      state->root.reset();
      state->generation += 1;
      demotions_.fetch_add(1, std::memory_order_relaxed);
      return PlanObserveOutcome::kDemoted;
    }
  }

  // Majority vote: the plan is drifted only when most of the window's
  // bindings miss the install-time estimate, not when one outlier does.
  const bool qerror_drift = state->install_estimated_rows > 0.0 &&
                            2 * high_qerror >= options_.drift_window;
  bool latency_drift = false;
  if (state->baseline_time < 0.0) {
    // First completed window of this plan becomes its latency baseline.
    state->baseline_time = mean_time;
  } else if (state->baseline_time > 0.0) {
    latency_drift = mean_time > options_.latency_drift_ratio * state->baseline_time;
  }
  if (!qerror_drift && !latency_drift) {
    return PlanObserveOutcome::kKept;
  }

  state->reopt_count += 1;
  state->root.reset();
  state->install_estimated_rows = -1.0;
  state->baseline_time = -1.0;
  state->generation += 1;
  invalidations_.fetch_add(1, std::memory_order_relaxed);
  if (state->reopt_count > options_.max_reoptimizations) {
    // The type keeps invalidating whatever plan is installed: stop paying the
    // re-plan churn and pin it to always-optimize.
    state->always_optimize = true;
    demotions_.fetch_add(1, std::memory_order_relaxed);
    return PlanObserveOutcome::kDemoted;
  }
  return PlanObserveOutcome::kInvalidated;
}

void PlanCache::Invalidate(uint64_t type) {
  Shard& shard = ShardOf(type);
  std::unique_lock<std::shared_mutex> lock(shard.mutex);
  auto it = shard.entries.find(type);
  if (it == shard.entries.end() || it->second.root == nullptr ||
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
  invalidations_.fetch_add(1, std::memory_order_relaxed);
}

PlanCacheStats PlanCache::Stats() const {
  PlanCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.volatile_skips = volatile_skips_.load(std::memory_order_relaxed);
  stats.installs = installs_.load(std::memory_order_relaxed);
  stats.install_races = install_races_.load(std::memory_order_relaxed);
  stats.invalidations = invalidations_.load(std::memory_order_relaxed);
  stats.demotions = demotions_.load(std::memory_order_relaxed);
  stats.observations = observations_.load(std::memory_order_relaxed);
  stats.stale_feedback = stale_feedback_.load(std::memory_order_relaxed);
  for (size_t s = 0; s < options_.shards; ++s) {
    std::shared_lock<std::shared_mutex> lock(shards_[s].mutex);
    stats.entries += shards_[s].entries.size();
    // lint: unordered-iter-ok(commutative count of resident plans)
    for (const auto& [type, state] : shards_[s].entries) {
      (void)type;
      if (state.root != nullptr) stats.cached_plans += 1;
    }
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
