#ifndef LQO_E2E_FRAMEWORK_H_
#define LQO_E2E_FRAMEWORK_H_

#include <memory>
#include <string>
#include <vector>

#include "costmodel/plan_featurizer.h"
#include "engine/plan.h"
#include "ml/dataset.h"
#include "ml/feature_cache.h"
#include "ml/inference_stats.h"
#include "optimizer/baseline_estimator.h"
#include "optimizer/optimizer.h"

namespace lqo {

class PlanCache;  // serving/plan_cache.h; e2e never dereferences it.

/// Shared context every end-to-end learned optimizer plans against: the
/// native optimizer, its statistics and its baseline estimator. Each
/// learned optimizer owns its own CardinalityProvider so knob turning
/// (scales, overrides) never leaks across methods.
struct E2eContext {
  const Catalog* catalog = nullptr;
  const StatsCatalog* stats = nullptr;
  const Optimizer* optimizer = nullptr;
  const AnalyticalCostModel* cost_model = nullptr;
  CardinalityEstimatorInterface* estimator = nullptr;
  /// Optional plan-signature feature cache shared by every optimizer that
  /// featurizes candidates with PlanFeaturizer against this context's
  /// estimator (see FeaturizePlanCached). Null disables caching; features
  /// are identical either way.
  FeatureCache* feature_cache = nullptr;
  /// Optional lab-wide parameterized plan cache for the serving front end
  /// (src/serving). Like feature_cache it is shared plumbing, not policy:
  /// e2e code never touches it; ServingFrontEnd keys it per producer so
  /// many optimizer families share one cache without collisions. Null when
  /// the lab serves nothing.
  PlanCache* plan_cache = nullptr;
};

/// One observed execution, the unit of experience for risk models.
struct PlanExperience {
  /// Groups observations of the same logical query (for pairwise models).
  std::string query_key;
  std::vector<double> features;
  double time_units = 0.0;
  std::string plan_signature;
};

/// One training step's candidate plans with their batched scoring
/// artifacts: the plans, the feature matrix they were scored from (one row
/// per plan; empty when the optimizer does not score candidates), per-plan
/// model scores/uncertainty (empty likewise), and the index of the plan the
/// optimizer would pick right now. Produced by TrainingCandidateSet so the
/// harness executes exactly the plans the optimizer scored — one featurize
/// pass and one PredictBatch per retrain step instead of per plan.
struct CandidateSet {
  std::vector<PhysicalPlan> plans;
  FeatureMatrix features;
  std::vector<double> scores;
  std::vector<double> uncertainty;
  /// Index into plans of the optimizer's current choice.
  size_t chosen = 0;
};

/// The paper's Section 2.2 unified framework: a learned query optimizer
/// generates candidate plans with some exploration strategy and selects one
/// with a learned risk model; execution feedback flows back via Observe and
/// periodic Retrain.
class LearnedQueryOptimizer {
 public:
  virtual ~LearnedQueryOptimizer() = default;

  /// The plan this optimizer would execute for `query` right now.
  virtual PhysicalPlan ChoosePlan(const Query& query) = 0;

  /// Candidate plans worth executing during the training phase (plan
  /// exploration). Default: just the chosen plan.
  virtual std::vector<PhysicalPlan> TrainingCandidates(const Query& query) {
    std::vector<PhysicalPlan> plans;
    plans.push_back(ChoosePlan(query));
    return plans;
  }

  /// Candidates plus batched scoring artifacts for one training step. The
  /// batch-scoring optimizers (Lero, LEON, HyperQO, Eraser) override this
  /// to featurize the whole candidate set into one FeatureMatrix (through
  /// the context's FeatureCache when present) and score it with a single
  /// PredictBatch call; their ChoosePlan is then `plans[chosen]` of this
  /// set. Default: wraps TrainingCandidates with empty scoring artifacts so
  /// ablation/probing subclasses keep working unchanged.
  virtual CandidateSet TrainingCandidateSet(const Query& query) {
    CandidateSet set;
    set.plans = TrainingCandidates(query);
    return set;
  }

  /// Execution feedback for one (query, plan) pair.
  virtual void Observe(const Query& query, const PhysicalPlan& plan,
                       double time_units) = 0;

  /// Refits the risk model from accumulated experience.
  virtual void Retrain() = 0;

  virtual std::string Name() const = 0;

  virtual bool trained() const = 0;

  /// Cumulative batched-inference counters across this optimizer's learned
  /// models (rows scored, batches, wall-clock). Default: empty snapshot for
  /// optimizers without batch-scored models.
  virtual InferenceStatsSnapshot InferenceStats() const { return {}; }
};

/// The native plan for a query (DP + analytical model + baseline cards) —
/// the comparison point for every learned optimizer and the fallback plan
/// several of them keep in their candidate sets.
PhysicalPlan NativePlan(const E2eContext& context, const Query& query);

/// Annotates `plan` with estimates from clean (unscaled) baseline cards so
/// risk-model features are computed consistently across candidates.
void AnnotateWithBaseline(const E2eContext& context, PhysicalPlan* plan);

/// As AnnotateWithBaseline, but against a caller-supplied provider. Pass
/// one provider for all of a query's candidates so they share one memo
/// instead of re-deriving every estimate per plan.
void AnnotateWithProvider(const E2eContext& context, PhysicalPlan* plan,
                          CardinalityProvider* cards);

/// Cache key of `plan`'s PlanFeaturizer row: the query's structural
/// Subquery::KeyHash (over all tables) mixed with a 64-bit FNV-1a of the
/// plan's structure signature. Features are pure functions of this key for
/// a fixed context (baseline estimator + cost model), which is what makes
/// caching them sound.
uint64_t PlanFeatureKey(const Query& query, const PhysicalPlan& plan);

/// Writes `plan`'s PlanFeaturizer::kDim features into `out`, serving from
/// `context.feature_cache` when present. On a hit the whole featurization
/// (and any annotation walk) is skipped; cached rows are bit-identical to
/// recomputation because features are pure functions of the plan key for a
/// fixed context. On a miss (or with no cache) the features are computed
/// and the row committed: pass `annotated` = true when the plan already
/// carries clean baseline cardinality annotations (candidate-generation
/// paths) so the miss featurizes it directly; with false the miss path
/// clones the plan and runs AnnotateWithBaseline first. `plan` itself is
/// never mutated either way.
void FeaturizePlanCached(const E2eContext& context, const Query& query,
                         const PhysicalPlan& plan, bool annotated,
                         double* out);

/// As FeaturizePlanCached, returning a fresh kDim vector (Observe paths).
std::vector<double> FeaturizePlanCachedVec(const E2eContext& context,
                                           const Query& query,
                                           const PhysicalPlan& plan,
                                           bool annotated);

}  // namespace lqo

#endif  // LQO_E2E_FRAMEWORK_H_
