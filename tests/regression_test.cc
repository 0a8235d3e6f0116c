#include <memory>

#include <gtest/gtest.h>

#include "benchlib/e2e_harness.h"
#include "benchlib/lab.h"
#include "e2e/bao.h"
#include "regression/eraser.h"

namespace lqo {
namespace {

/// A deliberately harmful "learned" optimizer: always picks the plan the
/// native optimizer would pick under nonsense cardinalities. Eraser must
/// neutralize it.
class AdversarialOptimizer : public LearnedQueryOptimizer {
 public:
  explicit AdversarialOptimizer(const E2eContext& context)
      : context_(context) {}

  PhysicalPlan ChoosePlan(const Query& query) override {
    CardinalityProvider cards(context_.estimator);
    cards.SetScale(10000.0, 2);
    HintSet merge_only;
    merge_only.enable_hash_join = false;
    merge_only.enable_nested_loop = false;
    PhysicalPlan plan =
        context_.optimizer->Optimize(query, &cards, merge_only).plan;
    AnnotateWithBaseline(context_, &plan);
    return plan;
  }
  void Observe(const Query&, const PhysicalPlan&, double) override {}
  void Retrain() override {}
  std::string Name() const override { return "adversarial"; }
  bool trained() const override { return true; }

 private:
  E2eContext context_;
};

class EraserTest : public ::testing::Test {
 protected:
  EraserTest() {
    lab_ = MakeLab("stats_lite", 0.08);
    WorkloadOptions wopts;
    wopts.num_queries = 30;
    wopts.min_tables = 2;
    wopts.max_tables = 4;
    wopts.seed = 901;
    train_ = GenerateWorkload(lab_->catalog, wopts);
    wopts.seed = 902;
    wopts.num_queries = 12;
    test_ = GenerateWorkload(lab_->catalog, wopts);
  }

  std::unique_ptr<Lab> lab_;
  Workload train_, test_;
};

TEST_F(EraserTest, UntrainedGuardPassesThrough) {
  AdversarialOptimizer inner(lab_->Context());
  EraserGuard guard(lab_->Context(), &inner);
  const Query& q = test_.queries[0];
  EXPECT_EQ(guard.ChoosePlan(q).Signature(),
            inner.ChoosePlan(q).Signature());
}

TEST_F(EraserTest, TrainingCandidatesIncludeNative) {
  AdversarialOptimizer inner(lab_->Context());
  EraserGuard guard(lab_->Context(), &inner);
  const Query& q = test_.queries[0];
  std::vector<PhysicalPlan> candidates = guard.TrainingCandidateSet(q).plans;
  ASSERT_GE(candidates.size(), 1u);
  bool has_native = false;
  std::string native_signature = NativePlan(lab_->Context(), q).Signature();
  for (const PhysicalPlan& plan : candidates) {
    if (plan.Signature() == native_signature) has_native = true;
  }
  EXPECT_TRUE(has_native);
}

TEST_F(EraserTest, GuardEliminatesAdversarialRegressions) {
  AdversarialOptimizer inner(lab_->Context());

  // Raw adversarial optimizer regresses badly.
  E2eEvalResult raw = EvaluateLearnedOptimizer(&inner, lab_->Context(),
                                               test_, *lab_->executor);

  EraserGuard guard(lab_->Context(), &inner);
  TrainLearnedOptimizer(&guard, train_, *lab_->executor);
  ASSERT_TRUE(guard.trained());
  E2eEvalResult guarded = EvaluateLearnedOptimizer(&guard, lab_->Context(),
                                                   test_, *lab_->executor);

  EXPECT_LT(guarded.total_learned, raw.total_learned)
      << "guard should reduce total time of a harmful optimizer";
  EXPECT_LE(guarded.total_learned, guarded.total_native * 1.15)
      << "guarded optimizer should be near-native";
  EXPECT_GT(guard.fallbacks(), 0);
}

TEST_F(EraserTest, GuardKeepsGoodOptimizerBenefits) {
  BaoOptimizer bao(lab_->Context());
  EraserGuard guard(lab_->Context(), &bao);
  TrainLearnedOptimizer(&guard, train_, *lab_->executor);
  E2eEvalResult guarded = EvaluateLearnedOptimizer(&guard, lab_->Context(),
                                                   test_, *lab_->executor);
  // With a sane inner optimizer the guard must not destroy performance.
  EXPECT_LE(guarded.total_learned, guarded.total_native * 1.2);
}

TEST_F(EraserTest, WithinSeenRangesDetectsOutliers) {
  AdversarialOptimizer inner(lab_->Context());
  EraserGuard guard(lab_->Context(), &inner);
  TrainLearnedOptimizer(&guard, train_, *lab_->executor);
  ASSERT_TRUE(guard.trained());

  // A feature vector taken from a real plan is inside the seen ranges.
  PhysicalPlan plan = NativePlan(lab_->Context(), test_.queries[0]);
  AnnotateWithBaseline(lab_->Context(), &plan);
  std::vector<double> features = PlanFeaturizer::Featurize(plan);
  // Massively out-of-range features must be flagged.
  std::vector<double> outlier = features;
  outlier[6] = 1e9;
  EXPECT_FALSE(guard.WithinSeenRanges(outlier));
}

}  // namespace
}  // namespace lqo
