#include "e2e/framework.h"

#include "common/logging.h"

namespace lqo {

PhysicalPlan NativePlan(const E2eContext& context, const Query& query) {
  LQO_CHECK(context.optimizer != nullptr);
  CardinalityProvider cards(context.estimator);
  return context.optimizer->Optimize(query, &cards).plan;
}

void AnnotateWithBaseline(const E2eContext& context, PhysicalPlan* plan) {
  LQO_CHECK(plan != nullptr);
  CardinalityProvider cards(context.estimator);
  context.cost_model->PlanCost(plan, &cards);
}

void AnnotateWithProvider(const E2eContext& context, PhysicalPlan* plan,
                          CardinalityProvider* cards) {
  LQO_CHECK(plan != nullptr);
  LQO_CHECK(cards != nullptr);
  context.cost_model->PlanCost(plan, cards);
}

namespace {

// FNV-1a 64 over the plan's structure signature.
uint64_t Fnv1a64(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

uint64_t PlanFeatureKey(const Query& query, const PhysicalPlan& plan) {
  uint64_t query_hash = Subquery{&query, query.AllTables()}.KeyHash();
  uint64_t plan_hash = Fnv1a64(plan.Signature());
  // Both inputs are well mixed; a xor-rotate combine keeps them from
  // cancelling when query and plan hashes correlate.
  uint64_t h = query_hash ^ (plan_hash + 0x9e3779b97f4a7c15ULL +
                             (query_hash << 6) + (query_hash >> 2));
  return h;
}

void FeaturizePlanCached(const E2eContext& context, const Query& query,
                         const PhysicalPlan& plan, bool annotated,
                         double* out) {
  FeatureCache* cache = context.feature_cache;
  if (cache == nullptr) {
    if (annotated) {
      PlanFeaturizer::FeaturizeInto(plan, out);
    } else {
      PhysicalPlan clone = plan.Clone();
      AnnotateWithBaseline(context, &clone);
      PlanFeaturizer::FeaturizeInto(clone, out);
    }
    return;
  }
  LQO_CHECK_EQ(cache->dim(), PlanFeaturizer::kDim);
  uint64_t key = PlanFeatureKey(query, plan);
  if (cache->Lookup(key, PlanFeaturizer::kVersion, out)) return;
  if (annotated) {
    PlanFeaturizer::FeaturizeInto(plan, out);
  } else {
    PhysicalPlan clone = plan.Clone();
    AnnotateWithBaseline(context, &clone);
    PlanFeaturizer::FeaturizeInto(clone, out);
  }
  cache->Insert(key, PlanFeaturizer::kVersion, out);
}

std::vector<double> FeaturizePlanCachedVec(const E2eContext& context,
                                           const Query& query,
                                           const PhysicalPlan& plan,
                                           bool annotated) {
  std::vector<double> features(PlanFeaturizer::kDim);
  FeaturizePlanCached(context, query, plan, annotated, features.data());
  return features;
}

void FeaturizeCandidates(const E2eContext& context, const Query& query,
                         bool annotated, CandidateSet* set) {
  LQO_CHECK(set != nullptr);
  set->features.Reset(PlanFeaturizer::kDim);
  set->features.Reserve(set->plans.size());
  for (const PhysicalPlan& plan : set->plans) {
    FeaturizePlanCached(context, query, plan, annotated,
                        set->features.AppendRow());
  }
}

PlanExperience MakePlanExperience(const Query& query, const PhysicalPlan& plan,
                                  std::vector<double> features,
                                  double time_units) {
  PlanExperience experience;
  experience.query_key = Subquery{&query, query.AllTables()}.Key();
  experience.features = std::move(features);
  experience.time_units = time_units;
  experience.plan_signature = plan.Signature();
  return experience;
}

}  // namespace lqo
