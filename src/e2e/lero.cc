#include "e2e/lero.h"

#include <set>

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

CandidateSet LeroOptimizer::TrainingCandidateSet(const Query& query) {
  CandidateSet set;
  set.plans = Candidates(query);
  FeaturizeCandidates(context_, query, /*annotated=*/true, &set);
  risk_model_.ChooseConservative(&set);  // plans[0] is the native plan.
  return set;
}

void LeroOptimizer::Observe(const Query& query, const PhysicalPlan& plan,
                            double time_units) {
  experience_.Add(MakePlanExperience(
      query, plan,
      FeaturizePlanCachedVec(context_, query, plan, /*annotated=*/true),
      time_units));
}

void LeroOptimizer::Retrain() { risk_model_.Train(experience_); }

}  // namespace lqo
