#ifndef LQO_SERVING_PLAN_CACHE_H_
#define LQO_SERVING_PLAN_CACHE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "engine/plan.h"

namespace lqo {

/// Counters since construction; hits + misses + volatile_skips == Lookup()
/// calls. `entries` and `cached_plans` are gauges filled in by Stats().
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t volatile_skips = 0;  // lookups of demoted (always-optimize) types
  uint64_t installs = 0;
  uint64_t install_races = 0;  // TryInstall refused (resident, demoted, stale)
  uint64_t invalidations = 0;  // drift-triggered generation bumps
  uint64_t demotions = 0;      // types demoted to always-optimize
  uint64_t observations = 0;   // feedback folds accepted
  uint64_t stale_feedback = 0; // feedback dropped (generation mismatch)
  uint64_t entries = 0;        // resident types
  uint64_t cached_plans = 0;   // resident types currently holding a plan

  PlanCacheStats operator-(const PlanCacheStats& other) const;
};

/// Outcome of one cache lookup. `generation` must be echoed into TryInstall
/// and Observe: it is the token that makes a stale install (planned against
/// a generation that has since been invalidated) detectable, so TryInstall
/// can refuse it.
struct PlanCacheLookup {
  bool hit = false;
  /// Demoted type: the caller must optimize and must NOT install.
  bool always_optimize = false;
  uint32_t generation = 0;
  /// Shared immutable plan tree on a hit; bind it to the caller's query via
  /// BindPlan. Null on a miss.
  std::shared_ptr<const PlanNode> root;
  /// Install-time estimate of the result cardinality (-1 when the installed
  /// plan carried no estimate), backing the drift check.
  double install_estimated_rows = -1.0;
};

/// What Observe decided for the type after folding one execution.
enum class PlanObserveOutcome {
  kKept,         // plan stays installed
  kInvalidated,  // drift: plan dropped, generation bumped, next miss re-plans
  kDemoted,      // type demoted to always-optimize (sticky)
  kDropped,      // stale/unknown feedback, ignored
};

/// Parameterized plan cache: the serving-layer structure that turns one
/// optimization into amortized throughput. Keyed by structural query type
/// (QueryTypeHash — same type iff queries differ only in constants, the aqo
/// typing strategy), it stores one immutable plan tree per type and serves
/// it to every later binding of that type. Plan trees are handed out as
/// shared_ptrs to immutable node trees, so a looked-up plan stays valid
/// after its type is invalidated.
///
/// A PlanCache is single-threaded: callers serialize every call, as
/// DriveSessions does by running its lookups, installs and observes in
/// session order.
///
/// Generations: every entry carries a generation counter bumped on each
/// invalidation. Lookup returns the generation; TryInstall refuses a stale
/// one and returns false — installing a plan that was produced against an
/// already-invalidated generation would resurrect exactly the plan the
/// drift detector (or an Invalidate call) evicted. First writer wins: a
/// second install of the same (type, generation), an install for a demoted
/// type and a stale install are all refused and counted in install_races.
/// Observe with a stale generation is the same case for feedback (a plan no
/// longer resident) and is dropped.
///
/// Learned invalidation: Observe folds (observed rows, latency) per type and
/// every kDriftWindow observations takes a majority vote of per-observation
/// q-errors against the install-time estimate and compares the window mean
/// latency against the plan's baseline window; either exceeding its
/// threshold re-optimizes (kInvalidated). Types that re-optimize more than
/// kMaxReoptimizations times, or whose lifetime latency CV exceeds
/// kSensitivityCv (parameter-sensitive: no single plan fits all bindings),
/// are demoted to always-optimize (kDemoted, sticky).
///
/// Determinism: stats and drift decisions are pure functions of the call
/// sequence, so a caller that issues its calls in a fixed order (DESIGN.md
/// "Serving path") gets bit-identical results at any thread count.
class PlanCache {
 public:
  /// Observations folded per drift check. Smaller reacts faster; larger is
  /// more robust to a single outlier binding.
  static constexpr int kDriftWindow = 8;
  /// Per-observation q-error (observed vs install-time estimated result
  /// cardinality) above which an observation counts as drifted. A window
  /// re-optimizes when the *majority* of its observations drift — a robust
  /// vote, so the occasional outlier binding of a skewed column (routine
  /// under Zipf data) cannot evict a plan that fits typical traffic.
  static constexpr double kQerrorThreshold = 16.0;
  /// Re-optimize when the window-mean latency exceeds this multiple of the
  /// plan's baseline (its first completed window).
  static constexpr double kLatencyDriftRatio = 3.0;
  /// After this many re-optimizations the type is demoted to
  /// always-optimize: the plan evidently cannot be amortized.
  static constexpr int kMaxReoptimizations = 3;
  /// Parameter-sensitivity detection arms after this many lifetime
  /// observations of a type (across generations).
  static constexpr int kSensitivityMinObservations = 24;
  /// Demote when the lifetime coefficient of variation of a type's latency
  /// exceeds this: different parameter bindings want different plans, so
  /// caching any single plan is a tail-latency hazard.
  static constexpr double kSensitivityCv = 2.0;

  /// Classifies `type`'s cache state and counts the outcome; never creates
  /// an entry.
  PlanCacheLookup Lookup(uint64_t type);

  /// Installs `plan`'s tree for `type` under token `generation` (from
  /// Lookup); `plan.root` must be non-null. First writer wins: returns true
  /// when this call installed, false when a plan was already resident, the
  /// type was demoted, or `generation` is stale (all counted in
  /// install_races; the type keeps its state). `estimated_rows` is the
  /// planner's estimate of the result cardinality (<= 0 when unavailable;
  /// drift checks then use latency only).
  bool TryInstall(uint64_t type, uint32_t generation, const PhysicalPlan& plan,
                  double estimated_rows);

  /// Folds one observed execution of the installed plan (generation must
  /// match) and runs the invalidation policy. Callers only observe
  /// executions of the *cached* plan: hits, plus the install winner's own
  /// execution.
  PlanObserveOutcome Observe(uint64_t type, uint32_t generation,
                             double observed_rows, double time_units);

  /// Operational hook: drops `type`'s plan and bumps its generation as if
  /// drift had triggered (counted as an invalidation). No-op for absent or
  /// demoted types.
  void Invalidate(uint64_t type);

  PlanCacheStats Stats() const;

 private:
  struct TypeState {
    uint32_t generation = 0;
    bool always_optimize = false;
    std::shared_ptr<const PlanNode> root;  // null while invalidated
    double install_estimated_rows = -1.0;
    int reopt_count = 0;
    // Windowed drift accounting for the installed plan.
    int window_count = 0;
    double window_time_sum = 0.0;
    int window_high_qerror = 0;  // observations with q-error > threshold
    double baseline_time = -1.0;  // mean of the plan's first window
    // Lifetime latency moments (across generations) for sensitivity.
    uint64_t obs_count = 0;
    double time_sum = 0.0;
    double time_sq_sum = 0.0;
  };

  /// Applies the drift/sensitivity policy after a window completes.
  PlanObserveOutcome ApplyPolicy(TypeState* state);

  std::unordered_map<uint64_t, TypeState> entries_;
  /// Counters only; Stats() fills in the gauges.
  PlanCacheStats stats_;
};

/// Binds a cached plan tree to a concrete parameter binding: clones the
/// immutable tree and points the plan at `query`. Sound because every query
/// of a type shares the structure (tables, join graph, predicate shapes)
/// the tree's node indices refer to; only constants differ, and those live
/// in the query, not the plan.
PhysicalPlan BindPlan(std::shared_ptr<const PlanNode> root,
                      const Query& query);

}  // namespace lqo

#endif  // LQO_SERVING_PLAN_CACHE_H_
