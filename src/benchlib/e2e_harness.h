#ifndef LQO_BENCHLIB_E2E_HARNESS_H_
#define LQO_BENCHLIB_E2E_HARNESS_H_

#include <string>
#include <vector>

#include "e2e/framework.h"
#include "engine/executor.h"
#include "query/workload.h"

namespace lqo {

/// Options for the learned-optimizer training loop.
struct HarnessOptions {
  /// Retrain() is invoked after this many training queries.
  int retrain_every = 25;
  /// Passes over the training workload (later passes exploit the model).
  int training_passes = 2;
};

/// Trains a learned optimizer: for each training query, executes every
/// plan of its TrainingCandidateSet, feeds the observations back, and
/// retrains periodically. Returns total executed time units (the training
/// cost).
double TrainLearnedOptimizer(LearnedQueryOptimizer* optimizer,
                             const Workload& train, const Executor& executor,
                             const HarnessOptions& options = HarnessOptions());

/// Per-method evaluation result against the native optimizer.
struct E2eEvalResult {
  std::string name;
  double total_native = 0.0;
  double total_learned = 0.0;
  std::vector<double> native_times;
  std::vector<double> learned_times;
  /// Queries where learned is >10% faster / slower than native.
  int wins = 0;
  int losses = 0;
  double worst_regression_ratio = 1.0;  // max over queries learned/native
  /// Batched model inference performed during this evaluation's planning
  /// (delta of the optimizer's counters across EvaluateLearnedOptimizer).
  InferenceStatsSnapshot inference;

  double Speedup() const {
    return total_learned > 0 ? total_native / total_learned : 0.0;
  }
};

/// Runs the evaluation workload through both the native optimizer and the
/// learned one, executing both plans per query.
E2eEvalResult EvaluateLearnedOptimizer(LearnedQueryOptimizer* optimizer,
                                       const E2eContext& context,
                                       const Workload& test,
                                       const Executor& executor);

}  // namespace lqo

#endif  // LQO_BENCHLIB_E2E_HARNESS_H_
