// E10 — ablations on the design choices DESIGN.md calls out for the
// Section 2.2 framework: (a) candidate-set size (Lero's scale set, Bao's
// arm count) vs plan quality — diminishing returns; (b) pairwise vs
// pointwise risk models on identical candidates — Lero's learning-to-rank
// claim; (c) HyperQO's variance filter on vs off.

#include <cstdio>
#include <memory>

#include "benchlib/e2e_harness.h"
#include "benchlib/lab.h"
#include "common/str_util.h"
#include "common/table_printer.h"
#include "e2e/bao.h"
#include "e2e/hyperqo.h"
#include "e2e/lero.h"

namespace lqo {
namespace {

/// Lero candidates + a *pointwise* latency model: the ablated variant that
/// isolates the value of the pairwise comparator.
class PointwiseLero : public LearnedQueryOptimizer {
 public:
  PointwiseLero(const E2eContext& context, LeroOptions options)
      : context_(context), lero_(context, options) {}

  PhysicalPlan ChoosePlan(const Query& query) override {
    CandidateSet set = TrainingCandidateSet(query);
    return std::move(set.plans[set.chosen]);
  }
  CandidateSet TrainingCandidateSet(const Query& query) override {
    CandidateSet set;
    set.plans = lero_.Candidates(query);
    FeaturizeCandidates(context_, query, /*annotated=*/true, &set);
    if (risk_model_.trained() && set.plans.size() > 1) {
      set.chosen = risk_model_.PickBest(set.features);
    }
    return set;
  }
  void Observe(const Query& query, const PhysicalPlan& plan,
               double time_units) override {
    experience_.Add(MakePlanExperience(
        query, plan,
        FeaturizePlanCachedVec(context_, query, plan, /*annotated=*/true),
        time_units));
  }
  void Retrain() override { risk_model_.Train(experience_); }
  std::string Name() const override { return "lero_pointwise"; }
  bool trained() const override { return risk_model_.trained(); }

 private:
  E2eContext context_;
  LeroOptimizer lero_;
  ExperienceBuffer experience_;
  PointwiseRiskModel risk_model_;
};

void Run() {
  std::printf("== E10: ablations of the Section 2.2 design choices "
              "(dataset: stats_lite) ==\n\n");
  auto lab = MakeLab("stats_lite", 0.1);
  WorkloadOptions wopts;
  wopts.num_queries = 45;
  wopts.min_tables = 2;
  wopts.max_tables = 4;
  wopts.seed = 101;
  Workload train = GenerateWorkload(lab->catalog, wopts);
  wopts.seed = 102;
  wopts.num_queries = 30;
  Workload test = GenerateWorkload(lab->catalog, wopts);

  TablePrinter table({"Variant", "knob", "speedup", "losses", "worst regr"});
  auto evaluate = [&](LearnedQueryOptimizer* optimizer,
                      const std::string& variant, const std::string& knob) {
    TrainLearnedOptimizer(optimizer, train, *lab->executor);
    E2eEvalResult result = EvaluateLearnedOptimizer(optimizer, lab->Context(),
                                                    test, *lab->executor);
    table.AddRow({variant, knob, FormatDouble(result.Speedup(), 4),
                  std::to_string(result.losses),
                  FormatDouble(result.worst_regression_ratio, 4)});
  };

  // (a) Lero candidate-set size.
  for (auto& [label, scales] :
       std::vector<std::pair<std::string, std::vector<double>>>{
           {"1 scale (native)", {1.0}},
           {"3 scales", {0.1, 1.0, 10.0}},
           {"5 scales", {0.01, 0.1, 1.0, 10.0, 100.0}},
           {"7 scales", {0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0}}}) {
    LeroOptions options;
    options.scale_factors = scales;
    LeroOptimizer lero(lab->Context(), options);
    evaluate(&lero, "lero candidates", label);
  }

  // (a') Bao arm count.
  for (auto& [label, masks] :
       std::vector<std::pair<std::string, std::vector<int>>>{
           {"1 arm (native)", {7}},
           {"3 arms", {7, 1, 5}},
           {"7 arms", {7, 1, 2, 3, 4, 5, 6}}}) {
    BaoOptions options;
    options.arm_masks = masks;
    BaoOptimizer bao(lab->Context(), options);
    evaluate(&bao, "bao arms", label);
  }

  // (b) pairwise vs pointwise risk model on identical Lero candidates.
  {
    LeroOptimizer pairwise(lab->Context());
    evaluate(&pairwise, "risk model", "pairwise (Lero)");
    PointwiseLero pointwise(lab->Context(), LeroOptions{});
    evaluate(&pointwise, "risk model", "pointwise (ablated)");
  }

  // (c) HyperQO variance filter.
  {
    HyperQoOptimizer filtered(lab->Context());
    evaluate(&filtered, "hyperqo filter", "on (max std 0.5)");
    HyperQoOptions off;
    off.max_relative_std = 1e9;
    HyperQoOptimizer unfiltered(lab->Context(), off);
    evaluate(&unfiltered, "hyperqo filter", "off");
  }

  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Expected shape: more candidates improve plan quality with\n"
      "diminishing returns; the pairwise comparator is at least as robust\n"
      "as the pointwise regressor (fewer losses / smaller worst\n"
      "regression); disabling HyperQO's variance filter increases risk.\n");
}

}  // namespace
}  // namespace lqo

int main() {
  lqo::Run();
  return 0;
}
