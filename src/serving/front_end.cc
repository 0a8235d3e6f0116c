#include "serving/front_end.h"

#include <chrono>
#include <utility>

#include "common/logging.h"

namespace lqo {
namespace {

uint64_t MixHash(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t HashName(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ull;
  }
  return h;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

NativePlanProducer::NativePlanProducer(const E2eContext* context)
    : context_(context) {
  LQO_CHECK(context_ != nullptr);
}

StatusOr<PhysicalPlan> NativePlanProducer::Plan(const Query& query) {
  return NativePlan(*context_, query);
}

LearnedOptimizerPlanProducer::LearnedOptimizerPlanProducer(
    LearnedQueryOptimizer* optimizer)
    : optimizer_(optimizer) {
  LQO_CHECK(optimizer_ != nullptr);
}

StatusOr<PhysicalPlan> LearnedOptimizerPlanProducer::Plan(const Query& query) {
  return optimizer_->ChoosePlan(query);
}

std::string LearnedOptimizerPlanProducer::Name() const {
  return optimizer_->Name();
}

ServingFrontEnd::ServingFrontEnd(PlanCache* cache, PlanProducer* producer,
                                 const Executor* executor)
    : cache_(cache), producer_(producer), executor_(executor) {
  LQO_CHECK(producer_ != nullptr);
  LQO_CHECK(executor_ != nullptr);
  producer_tag_ = HashName(producer_->Name());
}

uint64_t ServingFrontEnd::TypeOf(const Query& query) const {
  return MixHash(QueryTypeHash(query) ^ producer_tag_);
}

PlanCacheLookup ServingFrontEnd::Lookup(uint64_t type) const {
  if (cache_ == nullptr) return PlanCacheLookup{};  // baseline: always miss
  return cache_->Lookup(type);
}

StatusOr<PhysicalPlan> ServingFrontEnd::Plan(const Query& query) {
  StatusOr<PhysicalPlan> planned = producer_->Plan(query);
  if (!planned.ok()) return planned;
  // A cached plan is served to every later binding of its type, so a bad
  // producer plan is refused here, before it can be installed.
  if (planned->root == nullptr) {
    return Status::InvalidArgument(producer_->Name() +
                                   " returned a plan without a root");
  }
  if (planned->root->table_set != query.AllTables()) {
    return Status::InvalidArgument(
        producer_->Name() + " returned a plan that misses tables of the query");
  }
  LQO_RETURN_IF_ERROR(ValidatePlanShape(*planned->root, query.num_tables()));
  return planned;
}

bool ServingFrontEnd::Install(uint64_t type, uint32_t generation,
                              const PhysicalPlan& plan) {
  if (cache_ == nullptr) return false;
  const double estimated_rows =
      plan.root != nullptr ? plan.root->estimated_cardinality : -1.0;
  return cache_->TryInstall(type, generation, plan, estimated_rows);
}

StatusOr<ExecutionResult> ServingFrontEnd::Execute(
    const PhysicalPlan& plan) const {
  return executor_->Execute(plan);
}

PlanObserveOutcome ServingFrontEnd::Observe(uint64_t type, uint32_t generation,
                                            const ExecutionResult& result) {
  if (cache_ == nullptr) return PlanObserveOutcome::kDropped;
  return cache_->Observe(type, generation,
                         static_cast<double>(result.row_count),
                         result.time_units);
}

StatusOr<ServeResult> ServingFrontEnd::Serve(const Query& query) {
  ServeResult r;
  r.type = TypeOf(query);
  PlanCacheLookup lookup = Lookup(r.type);
  r.always_optimize = lookup.always_optimize;

  PhysicalPlan plan;
  if (lookup.hit) {
    r.cache_hit = true;
    plan = BindPlan(lookup.root, query);
  } else {
    const auto plan_start = std::chrono::steady_clock::now();
    auto planned = Plan(query);
    if (!planned.ok()) return planned.status();
    r.plan_seconds = SecondsSince(plan_start);
    r.planned = true;
    plan = std::move(*planned);
    if (!lookup.always_optimize) {
      r.installed = Install(r.type, lookup.generation, plan);
    }
  }

  const auto exec_start = std::chrono::steady_clock::now();
  auto executed = Execute(plan);
  if (!executed.ok()) return executed.status();
  r.exec_seconds = SecondsSince(exec_start);
  r.execution = std::move(*executed);

  // Only executions of the *cached* plan feed the drift detector: hits and
  // the install winner (whose plan is the cached plan by construction).
  // A losing racer executed its own plan; its feedback would contaminate
  // the installed plan's drift statistics.
  if (r.cache_hit || r.installed) {
    r.outcome = Observe(r.type, lookup.generation, r.execution);
    r.observed = true;
  }
  return r;
}

}  // namespace lqo
