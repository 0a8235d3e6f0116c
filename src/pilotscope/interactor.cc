#include "pilotscope/interactor.h"

#include <string>

#include "cardinality/training_data.h"
#include "common/logging.h"

namespace lqo {

EngineInteractor::EngineInteractor(const Catalog* catalog,
                                   const Optimizer* optimizer,
                                   CardinalityEstimatorInterface* estimator,
                                   const Executor* executor)
    : catalog_(catalog),
      optimizer_(optimizer),
      estimator_(estimator),
      executor_(executor),
      session_cards_(estimator) {
  LQO_CHECK(catalog_ != nullptr);
  LQO_CHECK(optimizer_ != nullptr);
  LQO_CHECK(estimator_ != nullptr);
  LQO_CHECK(executor_ != nullptr);
}

Status EngineInteractor::PushCardinalityOverride(
    const std::string& subquery_key, double cardinality) {
  if (cardinality < 0) {
    return Status::InvalidArgument("negative cardinality pushed");
  }
  CountPush();
  session_cards_.InjectOverride(subquery_key, cardinality);
  return Status::Ok();
}

Status EngineInteractor::PushCardinalityScale(double factor, int min_tables) {
  if (factor <= 0) return Status::InvalidArgument("scale must be positive");
  CountPush();
  session_cards_.SetScale(factor, min_tables);
  return Status::Ok();
}

Status EngineInteractor::PushHints(const HintSet& hints) {
  CountPush();
  session_hints_ = hints;
  return Status::Ok();
}

Status EngineInteractor::ClearPushes() {
  CountPush();
  session_cards_.ClearOverrides();
  session_hints_ = HintSet{};
  return Status::Ok();
}

StatusOr<PhysicalPlan> EngineInteractor::PullPlan(const Query& query) {
  CountPull();
  if (!query.IsConnected(query.AllTables())) {
    return Status::InvalidArgument("query join graph not connected");
  }
  // A pushed LEADING prefix names tables by index: each must exist, appear
  // once, and join the tables before it.
  TableSet prefix = 0;
  for (int table : session_hints_.leading) {
    if (table < 0 || table >= query.num_tables()) {
      return Status::InvalidArgument("leading hint table " +
                                     std::to_string(table) + " out of range");
    }
    if (ContainsTable(prefix, table)) {
      return Status::InvalidArgument("leading hint repeats table " +
                                     std::to_string(table));
    }
    prefix |= TableBit(table);
    if (!query.IsConnected(prefix)) {
      return Status::InvalidArgument("leading hint table " +
                                     std::to_string(table) +
                                     " does not join the prefix before it");
    }
  }
  return optimizer_->Optimize(query, &session_cards_, session_hints_).plan;
}

StatusOr<ExecutionResult> EngineInteractor::PullExecution(
    const PhysicalPlan& plan) {
  CountPull();
  return executor_->Execute(plan);
}

StatusOr<std::vector<Subquery>> EngineInteractor::PullSubqueries(
    const Query& query) {
  CountPull();
  std::vector<Subquery> subqueries;
  for (TableSet set : ConnectedSubsets(query)) {
    subqueries.push_back(Subquery{&query, set});
  }
  return subqueries;
}

StatusOr<double> EngineInteractor::PullEstimatedCardinality(
    const Subquery& subquery) {
  CountPull();
  return estimator_->EstimateSubquery(subquery);
}

}  // namespace lqo
