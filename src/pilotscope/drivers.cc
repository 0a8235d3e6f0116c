#include "pilotscope/drivers.h"

#include <set>

#include "common/logging.h"
#include "costmodel/plan_featurizer.h"

namespace lqo {
namespace {

PlanExperience MakeExperience(const Query& query, const PhysicalPlan& plan,
                              double time_units) {
  PlanExperience experience;
  experience.query_key = Subquery{&query, query.AllTables()}.Key();
  experience.features = PlanFeaturizer::Featurize(plan);
  experience.time_units = time_units;
  experience.plan_signature = plan.Signature();
  return experience;
}

}  // namespace

CardinalityDriver::CardinalityDriver(CardinalityEstimatorInterface* estimator)
    : estimator_(estimator) {
  LQO_CHECK(estimator_ != nullptr);
}

Status CardinalityDriver::Init(DbInteractor* interactor) {
  if (interactor == nullptr) {
    return Status::InvalidArgument("null interactor");
  }
  interactor_ = interactor;
  return Status::Ok();
}

StatusOr<ExecutionResult> CardinalityDriver::Algo(const Query& query) {
  auto plan = PlanQuery(query);
  if (!plan.ok()) return plan.status();
  return interactor_->PullExecution(*plan);
}

StatusOr<PhysicalPlan> CardinalityDriver::PlanQuery(const Query& query) {
  if (interactor_ == nullptr) {
    return Status::FailedPrecondition("driver not initialized");
  }
  // Batch-inject the learned estimates for all optimizer sub-queries, from
  // one estimator batch (a learned estimator runs one model pass).
  auto subqueries = interactor_->PullSubqueries(query);
  if (!subqueries.ok()) return subqueries.status();
  LQO_RETURN_IF_ERROR(interactor_->ClearPushes());
  std::vector<double> estimates =
      estimator_->EstimateSubqueryBatch(*subqueries);
  for (size_t i = 0; i < subqueries->size(); ++i) {
    LQO_RETURN_IF_ERROR(interactor_->PushCardinalityOverride(
        (*subqueries)[i].Key(), estimates[i]));
  }
  auto plan = interactor_->PullPlan(query);
  if (!plan.ok()) return plan.status();
  LQO_RETURN_IF_ERROR(interactor_->ClearPushes());
  return plan;
}

std::string CardinalityDriver::Name() const {
  return "ce_driver(" + estimator_->Name() + ")";
}

BaoDriver::BaoDriver(int retrain_every) : retrain_every_(retrain_every) {}

Status BaoDriver::Init(DbInteractor* interactor) {
  if (interactor == nullptr) {
    return Status::InvalidArgument("null interactor");
  }
  interactor_ = interactor;
  return Status::Ok();
}

StatusOr<std::vector<PhysicalPlan>> BaoDriver::Candidates(const Query& query) {
  std::vector<PhysicalPlan> candidates;
  std::set<std::string> seen;
  for (int mask : {7, 1, 2, 3, 4, 5, 6}) {
    HintSet hints;
    hints.enable_hash_join = (mask & 1) != 0;
    hints.enable_nested_loop = (mask & 2) != 0;
    hints.enable_merge_join = (mask & 4) != 0;
    LQO_RETURN_IF_ERROR(interactor_->PushHints(hints));
    auto plan = interactor_->PullPlan(query);
    if (!plan.ok()) return plan.status();
    if (seen.insert(plan->Signature()).second) {
      candidates.push_back(std::move(*plan));
    }
  }
  LQO_RETURN_IF_ERROR(interactor_->ClearPushes());
  return candidates;
}

StatusOr<ExecutionResult> BaoDriver::Algo(const Query& query) {
  if (interactor_ == nullptr) {
    return Status::FailedPrecondition("driver not initialized");
  }
  auto candidates = Candidates(query);
  if (!candidates.ok()) return candidates.status();
  size_t chosen = 0;
  if (risk_model_.trained() && candidates->size() > 1) {
    std::vector<std::vector<double>> features;
    for (const PhysicalPlan& plan : *candidates) {
      features.push_back(PlanFeaturizer::Featurize(plan));
    }
    chosen = risk_model_.PickBest(features);
  }
  auto result = interactor_->PullExecution((*candidates)[chosen]);
  if (!result.ok()) return result.status();
  experience_.Add(
      MakeExperience(query, (*candidates)[chosen], result->time_units));
  if (++since_retrain_ >= retrain_every_) {
    risk_model_.Train(experience_);
    since_retrain_ = 0;
  }
  return result;
}

StatusOr<PhysicalPlan> BaoDriver::PlanQuery(const Query& query) {
  if (interactor_ == nullptr) {
    return Status::FailedPrecondition("driver not initialized");
  }
  // The planning half of Algo: collect hint-set candidates and score them,
  // but neither execute nor learn — serving feedback goes to the plan
  // cache's drift detector, not the risk model.
  auto candidates = Candidates(query);
  if (!candidates.ok()) return candidates.status();
  size_t chosen = 0;
  if (risk_model_.trained() && candidates->size() > 1) {
    std::vector<std::vector<double>> features;
    for (const PhysicalPlan& plan : *candidates) {
      features.push_back(PlanFeaturizer::Featurize(plan));
    }
    chosen = risk_model_.PickBest(features);
  }
  return std::move((*candidates)[chosen]);
}

Status BaoDriver::TrainOnWorkload(const Workload& workload) {
  if (interactor_ == nullptr) {
    return Status::FailedPrecondition("driver not initialized");
  }
  for (const Query& query : workload.queries) {
    auto candidates = Candidates(query);
    if (!candidates.ok()) return candidates.status();
    for (const PhysicalPlan& plan : *candidates) {
      auto result = interactor_->PullExecution(plan);
      if (!result.ok()) return result.status();
      experience_.Add(MakeExperience(query, plan, result->time_units));
    }
  }
  risk_model_.Train(experience_);
  return Status::Ok();
}

LeroDriver::LeroDriver(std::vector<double> scale_factors)
    : scale_factors_(std::move(scale_factors)) {}

Status LeroDriver::Init(DbInteractor* interactor) {
  if (interactor == nullptr) {
    return Status::InvalidArgument("null interactor");
  }
  interactor_ = interactor;
  return Status::Ok();
}

StatusOr<std::vector<PhysicalPlan>> LeroDriver::Candidates(
    const Query& query) {
  std::vector<PhysicalPlan> candidates;
  std::set<std::string> seen;
  LQO_RETURN_IF_ERROR(interactor_->ClearPushes());
  auto native = interactor_->PullPlan(query);
  if (!native.ok()) return native.status();
  seen.insert(native->Signature());
  candidates.push_back(std::move(*native));
  for (double factor : scale_factors_) {
    if (factor == 1.0) continue;
    LQO_RETURN_IF_ERROR(interactor_->PushCardinalityScale(factor, 2));
    auto plan = interactor_->PullPlan(query);
    if (!plan.ok()) return plan.status();
    LQO_RETURN_IF_ERROR(interactor_->ClearPushes());
    if (seen.insert(plan->Signature()).second) {
      candidates.push_back(std::move(*plan));
    }
  }
  return candidates;
}

StatusOr<ExecutionResult> LeroDriver::Algo(const Query& query) {
  if (interactor_ == nullptr) {
    return Status::FailedPrecondition("driver not initialized");
  }
  auto candidates = Candidates(query);
  if (!candidates.ok()) return candidates.status();
  size_t chosen = 0;
  if (risk_model_.trained() && candidates->size() > 1) {
    std::vector<std::vector<double>> features;
    for (const PhysicalPlan& plan : *candidates) {
      features.push_back(PlanFeaturizer::Featurize(plan));
    }
    chosen = risk_model_.PickBest(features);
  }
  auto result = interactor_->PullExecution((*candidates)[chosen]);
  if (!result.ok()) return result.status();
  experience_.Add(
      MakeExperience(query, (*candidates)[chosen], result->time_units));
  return result;
}

StatusOr<PhysicalPlan> LeroDriver::PlanQuery(const Query& query) {
  if (interactor_ == nullptr) {
    return Status::FailedPrecondition("driver not initialized");
  }
  auto candidates = Candidates(query);
  if (!candidates.ok()) return candidates.status();
  size_t chosen = 0;
  if (risk_model_.trained() && candidates->size() > 1) {
    std::vector<std::vector<double>> features;
    for (const PhysicalPlan& plan : *candidates) {
      features.push_back(PlanFeaturizer::Featurize(plan));
    }
    chosen = risk_model_.PickBest(features);
  }
  return std::move((*candidates)[chosen]);
}

Status LeroDriver::TrainOnWorkload(const Workload& workload) {
  if (interactor_ == nullptr) {
    return Status::FailedPrecondition("driver not initialized");
  }
  for (const Query& query : workload.queries) {
    auto candidates = Candidates(query);
    if (!candidates.ok()) return candidates.status();
    for (const PhysicalPlan& plan : *candidates) {
      auto result = interactor_->PullExecution(plan);
      if (!result.ok()) return result.status();
      experience_.Add(MakeExperience(query, plan, result->time_units));
    }
  }
  risk_model_.Train(experience_);
  return Status::Ok();
}

DriverPlanProducer::DriverPlanProducer(Driver* driver) : driver_(driver) {
  LQO_CHECK(driver_ != nullptr);
}

StatusOr<PhysicalPlan> DriverPlanProducer::Plan(const Query& query) {
  return driver_->PlanQuery(query);
}

std::string DriverPlanProducer::Name() const { return driver_->Name(); }

}  // namespace lqo
