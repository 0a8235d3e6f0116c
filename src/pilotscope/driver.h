#ifndef LQO_PILOTSCOPE_DRIVER_H_
#define LQO_PILOTSCOPE_DRIVER_H_

#include <string>

#include "pilotscope/interactor.h"
#include "query/workload.h"

namespace lqo {

/// A PilotScope driver: one AI4DB task packaged behind the two-function
/// programming model of the paper — Init() prepares the driver and
/// declares its injection type; Algo() runs the AI4DB algorithm for one
/// query, steering the database exclusively through the interactor's
/// push/pull operators.
class Driver {
 public:
  virtual ~Driver() = default;

  /// Prepares the driver for the session.
  virtual Status Init(DbInteractor* interactor) = 0;

  /// Handles one user query end to end (replaces the database component
  /// this driver targets) and returns the execution result.
  virtual StatusOr<ExecutionResult> Algo(const Query& query) = 0;

  /// The plan this driver's Algo would execute for `query`, without
  /// executing it and without collecting experience — the planning half of
  /// Algo, split out so the serving front end can cache it per query type
  /// (src/serving).
  virtual StatusOr<PhysicalPlan> PlanQuery(const Query& query) = 0;

  /// Optional background training over a collected workload (the paper's
  /// "collect the pre-defined training data ... then train each model").
  virtual Status TrainOnWorkload(const Workload& workload) {
    (void)workload;
    return Status::Ok();
  }

  virtual std::string Name() const = 0;
};

}  // namespace lqo

#endif  // LQO_PILOTSCOPE_DRIVER_H_
