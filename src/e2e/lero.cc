#include "e2e/lero.h"

#include <set>

#include "common/logging.h"

namespace lqo {

LeroOptimizer::LeroOptimizer(const E2eContext& context, LeroOptions options)
    : context_(context),
      options_(options),
      risk_model_(options.seed) {}

std::vector<PhysicalPlan> LeroOptimizer::Candidates(const Query& query) {
  // One base provider memoizes raw estimates across every scale factor;
  // each factor plans against its own scaled read-through view, so a
  // sub-query's estimate is derived once and rescaled per candidate.
  CardinalityProvider base(context_.estimator);

  // Native (scale = 1) first so candidates[0] stays the native plan.
  std::vector<double> factors = {1.0};
  for (double factor : options_.scale_factors) {
    if (factor != 1.0) factors.push_back(factor);
  }
  std::vector<PhysicalPlan> candidates;
  std::set<std::string> seen;
  for (double factor : factors) {
    CardinalityProvider view(&base, factor, /*scale_min_tables=*/2);
    PhysicalPlan plan = context_.optimizer->Optimize(query, &view).plan;
    AnnotateWithProvider(context_, &plan, &base);
    if (!seen.insert(plan.Signature()).second) continue;
    candidates.push_back(std::move(plan));
  }
  return candidates;
}

PhysicalPlan LeroOptimizer::ChoosePlan(const Query& query) {
  CandidateSet set = TrainingCandidateSet(query);
  return std::move(set.plans[set.chosen]);
}

std::vector<PhysicalPlan> LeroOptimizer::TrainingCandidates(
    const Query& query) {
  return Candidates(query);
}

CandidateSet LeroOptimizer::TrainingCandidateSet(const Query& query) {
  CandidateSet set;
  set.plans = Candidates(query);
  LQO_CHECK(!set.plans.empty());
  // The whole candidate set is featurized in one pass — through the shared
  // plan-signature feature cache when the context provides one (the rows
  // also warm the cache for Observe) — then scored with a single batched
  // comparator call.
  set.features.Reset(PlanFeaturizer::kDim);
  set.features.Reserve(set.plans.size());
  for (const PhysicalPlan& plan : set.plans) {
    FeaturizePlanCached(context_, query, plan, /*annotated=*/true,
                        set.features.AppendRow());
  }
  if (!risk_model_.trained() || set.plans.size() == 1) {
    set.chosen = 0;  // native fallback.
    return set;
  }
  set.scores.resize(set.plans.size());
  risk_model_.ScoreBatch(set.features, set.scores);
  set.chosen = risk_model_.PickBestConservativeFromScores(set.scores, 0);
  return set;
}

void LeroOptimizer::Observe(const Query& query, const PhysicalPlan& plan,
                            double time_units) {
  PlanExperience experience;
  experience.query_key = Subquery{&query, query.AllTables()}.Key();
  experience.features =
      FeaturizePlanCachedVec(context_, query, plan, /*annotated=*/true);
  experience.time_units = time_units;
  experience.plan_signature = plan.Signature();
  experience_.Add(std::move(experience));
}

void LeroOptimizer::Retrain() { risk_model_.Train(experience_); }

}  // namespace lqo
