#include "e2e/leon.h"

#include <set>

namespace lqo {
namespace {

OptimizerOptions LeftDeepOptions() {
  OptimizerOptions options;
  options.bushy = false;
  return options;
}

}  // namespace

LeonOptimizer::LeonOptimizer(const E2eContext& context, LeonOptions options)
    : context_(context),
      options_(options),
      left_deep_optimizer_(context.stats, context.cost_model,
                           LeftDeepOptions()),
      risk_model_(options.seed) {}

std::vector<PhysicalPlan> LeonOptimizer::Candidates(const Query& query) {
  std::vector<PhysicalPlan> candidates;
  std::set<std::string> seen;
  CardinalityProvider cards(context_.estimator);

  auto add = [&](PhysicalPlan plan) {
    if (!seen.insert(plan.Signature()).second) return;
    AnnotateWithBaseline(context_, &plan);
    candidates.push_back(std::move(plan));
  };

  add(context_.optimizer->Optimize(query, &cards).plan);  // native first.
  add(left_deep_optimizer_.Optimize(query, &cards).plan);
  if (query.num_tables() > 1) {
    add(context_.optimizer->OptimizeGreedy(query, &cards).plan);
  }
  HintSet no_nlj;
  no_nlj.enable_nested_loop = false;
  add(context_.optimizer->Optimize(query, &cards, no_nlj).plan);
  HintSet no_hash;
  no_hash.enable_hash_join = false;
  add(context_.optimizer->Optimize(query, &cards, no_hash).plan);
  return candidates;
}

PhysicalPlan LeonOptimizer::ChoosePlan(const Query& query) {
  CandidateSet set = TrainingCandidateSet(query);
  return std::move(set.plans[set.chosen]);
}

CandidateSet LeonOptimizer::TrainingCandidateSet(const Query& query) {
  CandidateSet set;
  set.plans = Candidates(query);
  FeaturizeCandidates(context_, query, /*annotated=*/true, &set);
  risk_model_.ChooseConservative(&set);  // plans[0] is the native plan.
  return set;
}

void LeonOptimizer::Observe(const Query& query, const PhysicalPlan& plan,
                            double time_units) {
  experience_.Add(MakePlanExperience(
      query, plan,
      FeaturizePlanCachedVec(context_, query, plan, /*annotated=*/true),
      time_units));
}

void LeonOptimizer::Retrain() { risk_model_.Train(experience_); }

}  // namespace lqo
