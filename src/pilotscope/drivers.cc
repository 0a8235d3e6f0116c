#include "pilotscope/drivers.h"

#include <set>

#include "common/logging.h"
#include "costmodel/plan_featurizer.h"

namespace lqo {

Status InteractorDriver::Init(DbInteractor* interactor) {
  if (interactor == nullptr) {
    return Status::InvalidArgument("null interactor");
  }
  interactor_ = interactor;
  return Status::Ok();
}

Status InteractorDriver::CheckInitialized() const {
  if (interactor_ == nullptr) {
    return Status::FailedPrecondition("driver not initialized");
  }
  return Status::Ok();
}

CardinalityDriver::CardinalityDriver(CardinalityEstimatorInterface* estimator)
    : estimator_(estimator) {
  LQO_CHECK(estimator_ != nullptr);
}

StatusOr<ExecutionResult> CardinalityDriver::Algo(const Query& query) {
  auto plan = PlanQuery(query);
  if (!plan.ok()) return plan.status();
  return interactor_->PullExecution(*plan);
}

StatusOr<PhysicalPlan> CardinalityDriver::PlanQuery(const Query& query) {
  LQO_RETURN_IF_ERROR(CheckInitialized());
  return ClearPushesOnError(PlanWithEstimates(query));
}

StatusOr<PhysicalPlan> CardinalityDriver::PlanWithEstimates(
    const Query& query) {
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

StatusOr<std::vector<PhysicalPlan>> CandidateDriver::CollectCandidates(
    const Query& query) {
  LQO_RETURN_IF_ERROR(CheckInitialized());
  return ClearPushesOnError(Candidates(query));
}

StatusOr<PhysicalPlan> CandidateDriver::PlanQuery(const Query& query) {
  auto candidates = CollectCandidates(query);
  if (!candidates.ok()) return candidates.status();
  size_t chosen = 0;
  if (trained() && candidates->size() > 1) {
    FeatureMatrix features(PlanFeaturizer::kDim);
    features.Reserve(candidates->size());
    for (const PhysicalPlan& plan : *candidates) {
      PlanFeaturizer::FeaturizeInto(plan, features.AppendRow());
    }
    chosen = Pick(features);
  }
  return std::move((*candidates)[chosen]);
}

StatusOr<ExecutionResult> CandidateDriver::Algo(const Query& query) {
  auto plan = PlanQuery(query);
  if (!plan.ok()) return plan.status();
  auto result = interactor_->PullExecution(*plan);
  if (!result.ok()) return result.status();
  experience_.Add(MakePlanExperience(
      query, *plan, PlanFeaturizer::Featurize(*plan), result->time_units));
  OnExecuted();
  return result;
}

Status CandidateDriver::TrainOnWorkload(const Workload& workload) {
  LQO_RETURN_IF_ERROR(CheckInitialized());
  for (const Query& query : workload.queries) {
    auto candidates = CollectCandidates(query);
    if (!candidates.ok()) return candidates.status();
    for (const PhysicalPlan& plan : *candidates) {
      auto result = interactor_->PullExecution(plan);
      if (!result.ok()) return result.status();
      experience_.Add(MakePlanExperience(
          query, plan, PlanFeaturizer::Featurize(plan), result->time_units));
    }
  }
  Fit();
  return Status::Ok();
}

BaoDriver::BaoDriver(int retrain_every) : retrain_every_(retrain_every) {}

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

void BaoDriver::OnExecuted() {
  if (++since_retrain_ >= retrain_every_) {
    Fit();
    since_retrain_ = 0;
  }
}

LeroDriver::LeroDriver(std::vector<double> scale_factors)
    : scale_factors_(std::move(scale_factors)) {}

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

size_t LeroDriver::Pick(const FeatureMatrix& features) const {
  std::vector<double> scores(features.rows());
  risk_model_.ScoreBatch(features, scores);
  return risk_model_.PickBestFromScores(scores);
}

DriverPlanProducer::DriverPlanProducer(Driver* driver) : driver_(driver) {
  LQO_CHECK(driver_ != nullptr);
}

StatusOr<PhysicalPlan> DriverPlanProducer::Plan(const Query& query) {
  return driver_->PlanQuery(query);
}

std::string DriverPlanProducer::Name() const { return driver_->Name(); }

}  // namespace lqo
