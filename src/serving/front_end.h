#ifndef LQO_SERVING_FRONT_END_H_
#define LQO_SERVING_FRONT_END_H_

#include <cstdint>
#include <memory>
#include <string>

#include "e2e/framework.h"
#include "engine/executor.h"
#include "serving/plan_cache.h"
#include "serving/query_type.h"

namespace lqo {

/// Anything that can turn a query into a physical plan — the planning side
/// of the serving layer, so one front end serves the native DP optimizer,
/// every e2e learned optimizer, and the PilotScope drivers uniformly.
class PlanProducer {
 public:
  virtual ~PlanProducer() = default;

  /// Plans `query` without executing it.
  virtual StatusOr<PhysicalPlan> Plan(const Query& query) = 0;

  virtual std::string Name() const = 0;

  /// True when Plan() may be called concurrently from pool tasks. Learned
  /// producers typically mutate internal state (experience, model caches)
  /// and must be planned serially.
  virtual bool thread_safe() const { return false; }
};

/// The native DP optimizer as a producer. NativePlan is a pure function
/// (fresh CardinalityProvider per call), hence thread-safe.
class NativePlanProducer : public PlanProducer {
 public:
  explicit NativePlanProducer(const E2eContext* context);

  StatusOr<PhysicalPlan> Plan(const Query& query) override;
  std::string Name() const override { return "native"; }
  bool thread_safe() const override { return true; }

 private:
  const E2eContext* context_;
};

/// Wraps any e2e LearnedQueryOptimizer's ChoosePlan. Not thread-safe:
/// ChoosePlan may touch the optimizer's internal state.
class LearnedOptimizerPlanProducer : public PlanProducer {
 public:
  explicit LearnedOptimizerPlanProducer(LearnedQueryOptimizer* optimizer);

  StatusOr<PhysicalPlan> Plan(const Query& query) override;
  std::string Name() const override;

 private:
  LearnedQueryOptimizer* optimizer_;
};

/// Everything the front end did for one served query. Wall-clock fields are
/// reporting-only (never part of any determinism contract); row counts,
/// time_units, flags and the cache outcome are bit-deterministic.
struct ServeResult {
  uint64_t type = 0;           // producer-tagged query type
  bool cache_hit = false;      // executed a cached plan
  bool always_optimize = false;  // type is demoted; planned by policy
  bool planned = false;        // producer was invoked
  bool installed = false;      // this call installed the plan (won the race)
  bool observed = false;       // execution feedback reached the cache
  PlanObserveOutcome outcome = PlanObserveOutcome::kDropped;
  ExecutionResult execution;
  double plan_seconds = 0.0;   // wall-clock of the producer call (0 on hits)
  double exec_seconds = 0.0;   // wall-clock of bind + execute
};

/// The serving front end: query in, result out, one plan optimization
/// amortized over every binding of a query type.
///
/// Per query: canonicalize to a producer-tagged type (QueryTypeHash mixed
/// with the producer name, so one shared cache serves many optimizer
/// families without cross-family collisions), look the type up in the plan
/// cache, on a hit bind the cached tree to this binding's constants
/// (BindPlan) and execute, on a miss plan with the producer, install
/// first-writer-wins, execute, and feed the observed (rows, time_units)
/// back into the cache's drift detector.
///
/// `cache == nullptr` runs the optimize-every-query baseline: every query
/// is planned and executed, nothing is cached — the denominator of the
/// serving speedup gate.
///
/// Thread safety: TypeOf and Execute are safe from pool tasks; Plan is safe
/// iff the producer says so. Lookup, Install and Observe reach the
/// single-threaded PlanCache, so callers issue them serially (DriveSessions
/// runs them in session order). The one-shot Serve() is the serial
/// convenience path (tests, warmup).
class ServingFrontEnd {
 public:
  /// All pointers are non-owning and must outlive the front end; `cache`
  /// may be null (baseline mode, see class comment).
  ServingFrontEnd(PlanCache* cache, PlanProducer* producer,
                  const Executor* executor);

  /// Producer-tagged type of `query`.
  uint64_t TypeOf(const Query& query) const;

  /// Cache lookup for a type; a guaranteed miss in baseline mode.
  PlanCacheLookup Lookup(uint64_t type) const;

  /// Plans with the producer (no caching, no execution). Returns
  /// InvalidArgument unless the plan has a root that covers every table of
  /// `query` and passes ValidatePlanShape, so only well-formed plans reach
  /// Install.
  StatusOr<PhysicalPlan> Plan(const Query& query);

  /// First-writer-wins install of `plan` (from Plan) under the Lookup token
  /// `generation`; the install-time estimate is taken from the plan root's
  /// estimated_cardinality annotation. Returns whether this call installed.
  /// No-op (false) in baseline mode.
  bool Install(uint64_t type, uint32_t generation, const PhysicalPlan& plan);

  StatusOr<ExecutionResult> Execute(const PhysicalPlan& plan) const;

  /// Feeds one execution of the cached plan back into the drift detector.
  /// kDropped in baseline mode.
  PlanObserveOutcome Observe(uint64_t type, uint32_t generation,
                             const ExecutionResult& result);

  /// The whole serving path for one query, serially.
  StatusOr<ServeResult> Serve(const Query& query);

  PlanCache* cache() const { return cache_; }
  PlanProducer* producer() const { return producer_; }
  const Executor* executor() const { return executor_; }

 private:
  PlanCache* cache_;
  PlanProducer* producer_;
  const Executor* executor_;
  uint64_t producer_tag_ = 0;
};

}  // namespace lqo

#endif  // LQO_SERVING_FRONT_END_H_
