#ifndef LQO_PILOTSCOPE_DRIVERS_H_
#define LQO_PILOTSCOPE_DRIVERS_H_

#include <memory>
#include <vector>

#include "e2e/risk_models.h"
#include "optimizer/cardinality_interface.h"
#include "pilotscope/driver.h"
#include "serving/front_end.h"

namespace lqo {

/// Base of the drivers that steer the database through one interactor:
/// Init binds it, and a call that fails clears the interactor's pushes, so
/// no override or hint outlives the call that pushed it.
class InteractorDriver : public Driver {
 public:
  Status Init(DbInteractor* interactor) override;

 protected:
  /// FailedPrecondition until Init has bound an interactor.
  Status CheckInitialized() const;

  /// Returns `result`, first clearing the interactor's pushes if it is an
  /// error.
  template <typename T>
  StatusOr<T> ClearPushesOnError(StatusOr<T> result) {
    if (!result.ok()) (void)interactor_->ClearPushes();
    return result;
  }

  DbInteractor* interactor_ = nullptr;
};

/// The learned-cardinality-estimator driver of the paper's demonstration:
/// for each query it pulls the optimizer's sub-queries, computes estimates
/// with *any* CardinalityEstimatorInterface, pushes them in one batch, and
/// pulls plan + execution. The same driver supports every estimator in
/// src/cardinality.
class CardinalityDriver : public InteractorDriver {
 public:
  /// The estimator must be trained/built by the caller and outlive the
  /// driver.
  explicit CardinalityDriver(CardinalityEstimatorInterface* estimator);

  StatusOr<ExecutionResult> Algo(const Query& query) override;
  StatusOr<PhysicalPlan> PlanQuery(const Query& query) override;
  std::string Name() const override;

 private:
  /// PlanQuery's steps; may return an error with overrides still pushed.
  StatusOr<PhysicalPlan> PlanWithEstimates(const Query& query);

  CardinalityEstimatorInterface* estimator_;
};

/// The Section 2.2 candidate-selection loop as a driver, shared by the Bao
/// and Lero drivers: collect candidate plans through push/pull, pick one
/// with a learned risk model, execute it and record the experience. A
/// subclass supplies the candidates, the pick and the model fit.
class CandidateDriver : public InteractorDriver {
 public:
  /// PlanQuery, then execute the plan and record the experience.
  StatusOr<ExecutionResult> Algo(const Query& query) override;
  /// The planning half of Algo: collect the candidates and pick one (the
  /// native plan until trained), but neither execute nor learn — serving
  /// feedback goes to the plan cache's drift detector, not the risk model.
  StatusOr<PhysicalPlan> PlanQuery(const Query& query) override;
  /// Executes every candidate of every workload query, then fits.
  Status TrainOnWorkload(const Workload& workload) override;

  virtual bool trained() const = 0;

 protected:
  /// Distinct candidate plans, the native plan first. May return an error
  /// with pushes in place; the caller clears them.
  virtual StatusOr<std::vector<PhysicalPlan>> Candidates(
      const Query& query) = 0;
  /// Index of the candidate to run given one PlanFeaturizer row per
  /// candidate; called only when trained, with at least two candidates.
  virtual size_t Pick(const FeatureMatrix& features) const = 0;
  /// Fits the risk model on experience_.
  virtual void Fit() = 0;
  /// Called after Algo records an execution.
  virtual void OnExecuted() {}

  ExperienceBuffer experience_;

 private:
  StatusOr<std::vector<PhysicalPlan>> CollectCandidates(const Query& query);
};

/// The Bao driver of the demonstration: pushes operator hint sets to
/// collect candidate plans, scores them with a learned latency model, and
/// executes the winner; every executed query is also a training sample,
/// and the model refits every `retrain_every` executions.
class BaoDriver : public CandidateDriver {
 public:
  explicit BaoDriver(int retrain_every = 25);

  std::string Name() const override { return "bao_driver"; }
  bool trained() const override { return risk_model_.trained(); }

 private:
  StatusOr<std::vector<PhysicalPlan>> Candidates(const Query& query) override;
  size_t Pick(const FeatureMatrix& features) const override {
    return risk_model_.PickBest(features);
  }
  void Fit() override { risk_model_.Train(experience_); }
  void OnExecuted() override;

  int retrain_every_;
  int since_retrain_ = 0;
  PointwiseRiskModel risk_model_;
};

/// The Lero driver of the demonstration: pushes cardinality scales to
/// collect candidate plans and picks the pairwise-comparator winner.
class LeroDriver : public CandidateDriver {
 public:
  explicit LeroDriver(std::vector<double> scale_factors = {0.01, 0.1, 1.0,
                                                           10.0, 100.0});

  std::string Name() const override { return "lero_driver"; }
  bool trained() const override { return risk_model_.trained(); }

 private:
  StatusOr<std::vector<PhysicalPlan>> Candidates(const Query& query) override;
  size_t Pick(const FeatureMatrix& features) const override;
  void Fit() override { risk_model_.Train(experience_); }

  std::vector<double> scale_factors_;
  PairwiseRiskModel risk_model_;
};

/// Adapts any PilotScope driver's PlanQuery to the serving front end, so
/// the middleware's drivers are servable like the e2e optimizers. Not
/// thread-safe: drivers hold per-session interactor state (pushed hints,
/// cardinality overrides), so the front end plans them serially.
class DriverPlanProducer : public PlanProducer {
 public:
  /// The driver must be Init()-ed by the caller and outlive the producer.
  explicit DriverPlanProducer(Driver* driver);

  StatusOr<PhysicalPlan> Plan(const Query& query) override;
  std::string Name() const override;

 private:
  Driver* driver_;
};

}  // namespace lqo

#endif  // LQO_PILOTSCOPE_DRIVERS_H_
