#include "e2e/bao.h"

#include <cmath>
#include <set>

#include "common/logging.h"

namespace lqo {

BaoOptimizer::BaoOptimizer(const E2eContext& context, BaoOptions options)
    : context_(context), options_(options), rng_(options.seed) {
  // Arms from the options; the default (everything enabled) comes first so
  // candidates[0] is always the native plan.
  LQO_CHECK(!options_.arm_masks.empty());
  LQO_CHECK_EQ(options_.arm_masks[0], 7) << "first Bao arm must be default";
  for (int mask : options_.arm_masks) {
    HintSet hints;
    hints.enable_hash_join = (mask & 1) != 0;
    hints.enable_nested_loop = (mask & 2) != 0;
    hints.enable_merge_join = (mask & 4) != 0;
    hints.name = std::string("arm_") + ((mask & 1) ? "h" : "") +
                 ((mask & 2) ? "n" : "") + ((mask & 4) ? "m" : "");
    arms_.push_back(hints);
  }
  arm_useful_.assign(arms_.size(), false);
}

std::vector<PhysicalPlan> BaoOptimizer::Candidates(const Query& query) {
  // Every arm plans against one provider, so each sub-query estimate is
  // derived once and shared across arms. Arm-usefulness bookkeeping and
  // signature dedup depend on arm order.
  CardinalityProvider cards(context_.estimator);
  std::vector<PhysicalPlan> candidates;
  std::set<std::string> seen;
  std::string default_signature;
  for (size_t a = 0; a < arms_.size(); ++a) {
    PhysicalPlan plan =
        context_.optimizer->Optimize(query, &cards, arms_[a]).plan;
    AnnotateWithProvider(context_, &plan, &cards);
    std::string signature = plan.Signature();
    if (arms_[a].enable_hash_join && arms_[a].enable_nested_loop &&
        arms_[a].enable_merge_join) {
      default_signature = signature;
    } else if (!default_signature.empty() &&
               signature != default_signature) {
      arm_useful_[a] = true;
    }
    if (!seen.insert(signature).second) continue;
    candidates.push_back(std::move(plan));
  }
  return candidates;
}

PhysicalPlan BaoOptimizer::ChoosePlan(const Query& query) {
  std::vector<PhysicalPlan> candidates = Candidates(query);
  LQO_CHECK(!candidates.empty());
  double epsilon =
      options_.initial_epsilon *
      std::pow(0.5, static_cast<double>(observations_) /
                        options_.epsilon_halflife);
  if (!risk_model_.trained() || rng_.Bernoulli(epsilon)) {
    // Explore: random candidate (the untrained optimizer explores the arm
    // space; with probability 1-eps it would pick the default plan, which
    // is candidates[0] by construction).
    if (!risk_model_.trained() && !rng_.Bernoulli(epsilon)) {
      return std::move(candidates[0]);
    }
    size_t pick = static_cast<size_t>(rng_.UniformInt(
        0, static_cast<int64_t>(candidates.size()) - 1));
    return std::move(candidates[pick]);
  }
  // One reusable feature matrix for the candidate set; a single batched
  // inference pass scores every arm's plan (no per-candidate feature
  // vector or per-row Predict call).
  feature_scratch_.Reset(PlanFeaturizer::kDim);
  feature_scratch_.Reserve(candidates.size());
  for (const PhysicalPlan& plan : candidates) {
    PlanFeaturizer::FeaturizeInto(plan, feature_scratch_.AppendRow());
  }
  size_t best = risk_model_.PickBest(feature_scratch_);
  return std::move(candidates[best]);
}

void BaoOptimizer::Observe(const Query& query, const PhysicalPlan& plan,
                           double time_units) {
  PlanExperience experience;
  experience.query_key = Subquery{&query, query.AllTables()}.Key();
  experience.features = PlanFeaturizer::Featurize(plan);
  experience.time_units = time_units;
  experience.plan_signature = plan.Signature();
  experience_.Add(std::move(experience));
  ++observations_;
}

void BaoOptimizer::Retrain() { risk_model_.Train(experience_); }

std::vector<HintSet> BaoOptimizer::DiscoverUsefulArms() const {
  if (observations_ == 0) return arms_;
  std::vector<HintSet> useful;
  for (size_t a = 0; a < arms_.size(); ++a) {
    bool is_default = arms_[a].enable_hash_join &&
                      arms_[a].enable_nested_loop &&
                      arms_[a].enable_merge_join;
    if (is_default || arm_useful_[a]) useful.push_back(arms_[a]);
  }
  return useful;
}

}  // namespace lqo
