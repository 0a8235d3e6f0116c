#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "benchlib/e2e_harness.h"
#include "benchlib/lab.h"
#include "e2e/bao.h"
#include "e2e/hyperqo.h"
#include "e2e/leon.h"
#include "e2e/lero.h"
#include "e2e/neo.h"
#include "e2e/risk_models.h"
#include "e2e/value_search.h"
#include "pilotscope/drivers.h"
#include "pilotscope/interactor.h"
#include "regression/eraser.h"

namespace lqo {
namespace {

class E2eTest : public ::testing::Test {
 protected:
  E2eTest() {
    lab_ = MakeLab("stats_lite", 0.08);
    WorkloadOptions wopts;
    wopts.num_queries = 40;
    wopts.min_tables = 2;
    wopts.max_tables = 4;
    wopts.seed = 801;
    train_ = GenerateWorkload(lab_->catalog, wopts);
    wopts.seed = 802;
    wopts.num_queries = 15;
    test_ = GenerateWorkload(lab_->catalog, wopts);
  }

  std::unique_ptr<Lab> lab_;
  Workload train_, test_;
};

TEST_F(E2eTest, RiskModelPointwisePicksFaster) {
  ExperienceBuffer buffer;
  // Feature[0] linearly determines time.
  for (int i = 0; i < 50; ++i) {
    PlanExperience e;
    e.query_key = "q" + std::to_string(i % 10);
    e.features = {static_cast<double>(i % 7), 1.0};
    e.time_units = 100.0 * static_cast<double>(i % 7) + 10.0;
    e.plan_signature = "p" + std::to_string(i);
    buffer.Add(e);
  }
  PointwiseRiskModel model;
  model.Train(buffer);
  ASSERT_TRUE(model.trained());
  FeatureMatrix candidates(2);
  for (double x : {6.0, 0.0, 3.0}) candidates.AddRow({x, 1.0});
  EXPECT_EQ(model.PickBest(candidates), 1u);
  std::vector<double> times(candidates.rows());
  model.PredictTimeBatch(candidates, times);
  EXPECT_LT(times[1], times[0]);
}

TEST_F(E2eTest, RiskModelPairwisePicksWinner) {
  ExperienceBuffer buffer;
  for (int q = 0; q < 30; ++q) {
    for (int p = 0; p < 3; ++p) {
      PlanExperience e;
      e.query_key = "q" + std::to_string(q);
      e.features = {static_cast<double>(p), static_cast<double>(q % 5)};
      e.time_units = 50.0 + 100.0 * p;
      e.plan_signature = "p" + std::to_string(p);
      buffer.Add(e);
    }
  }
  PairwiseRiskModel model;
  model.Train(buffer);
  ASSERT_TRUE(model.trained());
  FeatureMatrix candidates(2);
  for (double x : {2.0, 0.0, 1.0}) candidates.AddRow({x, 1.0});
  std::vector<double> scores(candidates.rows());
  model.ScoreBatch(candidates, scores);
  EXPECT_EQ(model.PickBestFromScores(scores), 1u);
  // The fastest plan scores lowest, so it beats the baseline confidently.
  EXPECT_LT(scores[1], scores[0]);
  EXPECT_EQ(model.PickBestConservativeFromScores(scores, 0), 1u);
}

TEST_F(E2eTest, BaoArmsCoverHintSpaceAndChoosesNativeUntrained) {
  BaoOptimizer bao(lab_->Context());
  EXPECT_EQ(bao.arms().size(), 7u);
  // Untrained with epsilon 0 behaves natively.
  BaoOptions options;
  options.initial_epsilon = 0.0;
  BaoOptimizer greedy_bao(lab_->Context(), options);
  const Query& q = test_.queries[0];
  PhysicalPlan plan = greedy_bao.ChoosePlan(q);
  PhysicalPlan native = NativePlan(lab_->Context(), q);
  EXPECT_EQ(plan.Signature(), native.Signature());
}

TEST_F(E2eTest, BaoLearnsAndPlansUnseenQueries) {
  BaoOptimizer bao(lab_->Context());
  TrainLearnedOptimizer(&bao, train_, *lab_->executor);
  EXPECT_TRUE(bao.trained());
  // Trained Bao never crashes on unseen queries and returns full plans.
  for (const Query& q : test_.queries) {
    PhysicalPlan plan = bao.ChoosePlan(q);
    EXPECT_EQ(plan.root->table_set, q.AllTables());
  }
}

TEST_F(E2eTest, LeroCandidatesComeFromScaledCards) {
  LeroOptimizer lero(lab_->Context());
  int multi = 0;
  for (const Query& q : test_.queries) {
    auto candidates = lero.Candidates(q);
    ASSERT_GE(candidates.size(), 1u);
    std::set<std::string> signatures;
    for (const PhysicalPlan& plan : candidates) {
      signatures.insert(plan.Signature());
      EXPECT_EQ(plan.root->table_set, q.AllTables());
    }
    EXPECT_EQ(signatures.size(), candidates.size()) << "dup candidates";
    if (candidates.size() > 1) ++multi;
  }
  EXPECT_GT(multi, 0) << "cardinality scaling never changed any plan";
}

TEST_F(E2eTest, LeroTrainsPairwiseAndEvaluates) {
  LeroOptimizer lero(lab_->Context());
  TrainLearnedOptimizer(&lero, train_, *lab_->executor);
  EXPECT_TRUE(lero.trained());
  E2eEvalResult result = EvaluateLearnedOptimizer(&lero, lab_->Context(),
                                                  test_, *lab_->executor);
  EXPECT_EQ(result.learned_times.size(), test_.queries.size());
  EXPECT_GT(result.total_learned, 0.0);
  // Lero should not catastrophically regress the workload.
  EXPECT_LT(result.total_learned, result.total_native * 1.5);
}

TEST_F(E2eTest, NeoBootstrapsFromExpertThenSearches) {
  NeoOptimizer neo(lab_->Context());
  const Query& q = test_.queries[0];
  PhysicalPlan bootstrap = neo.ChoosePlan(q);
  PhysicalPlan native = NativePlan(lab_->Context(), q);
  EXPECT_EQ(bootstrap.Signature(), native.Signature());

  TrainLearnedOptimizer(&neo, train_, *lab_->executor);
  ASSERT_TRUE(neo.trained());
  for (const Query& query : test_.queries) {
    PhysicalPlan plan = neo.ChoosePlan(query);
    EXPECT_EQ(plan.root->table_set, query.AllTables()) << query.ToString();
    // Neo searches left-deep plans.
    VisitPlanBottomUp(*plan.root, [](const PlanNode& node) {
      if (node.kind == PlanNode::Kind::kJoin) {
        EXPECT_EQ(node.right->kind, PlanNode::Kind::kScan);
      }
    });
  }
}

TEST_F(E2eTest, BalsaSimulationPhaseTrainsWithoutExecutions) {
  BalsaOptimizer balsa(lab_->Context(), train_.queries);
  EXPECT_TRUE(balsa.trained()) << "simulation phase should train the model";
  EXPECT_EQ(balsa.real_experience_size(), 0u);
  for (const Query& q : test_.queries) {
    PhysicalPlan plan = balsa.ChoosePlan(q);
    EXPECT_EQ(plan.root->table_set, q.AllTables());
  }
}

TEST_F(E2eTest, HyperQoFiltersAndFallsBack) {
  HyperQoOptimizer hyperqo(lab_->Context());
  // Untrained: native plan.
  const Query& q = test_.queries[0];
  EXPECT_EQ(hyperqo.ChoosePlan(q).Signature(),
            NativePlan(lab_->Context(), q).Signature());

  TrainLearnedOptimizer(&hyperqo, train_, *lab_->executor);
  ASSERT_TRUE(hyperqo.trained());
  PhysicalPlan plan = hyperqo.ChoosePlan(q);
  AnnotateWithBaseline(lab_->Context(), &plan);
  FeatureMatrix features(PlanFeaturizer::kDim);
  features.AddRow(PlanFeaturizer::Featurize(plan));
  std::vector<double> mean(1), stddev(1);
  hyperqo.PredictBatch(features, mean, stddev);
  EXPECT_GE(stddev[0], 0.0);
  EXPECT_GT(mean[0], 0.0);
}

TEST_F(E2eTest, LeonUsesDpCandidates) {
  LeonOptimizer leon(lab_->Context());
  TrainLearnedOptimizer(&leon, train_, *lab_->executor);
  EXPECT_TRUE(leon.trained());
  E2eEvalResult result = EvaluateLearnedOptimizer(&leon, lab_->Context(),
                                                  test_, *lab_->executor);
  EXPECT_LT(result.total_learned, result.total_native * 1.5);
}

TEST_F(E2eTest, ValueSearchProducesValidPlansUnderBothStrategies) {
  // Train a tiny value model on native executions.
  NeoOptimizer neo(lab_->Context());
  TrainLearnedOptimizer(&neo, train_, *lab_->executor);

  ValueSearch search(lab_->Context(), 200, 4);
  ExperienceBuffer buffer;
  for (int i = 0; i < 5; ++i) {
    const Query& q = train_.queries[static_cast<size_t>(i)];
    PhysicalPlan plan = NativePlan(lab_->Context(), q);
    auto result = lab_->executor->Execute(plan);
    ASSERT_TRUE(result.ok());
    for (PlanExperience& e :
         search.SubplanExperiences(q, plan, result->time_units)) {
      buffer.Add(std::move(e));
    }
  }
  PointwiseRiskModel value_model;
  value_model.Train(buffer);
  ASSERT_TRUE(value_model.trained());

  for (const Query& q : test_.queries) {
    PhysicalPlan best_first =
        search.Search(q, value_model, ValueSearch::Strategy::kBestFirst);
    PhysicalPlan beam =
        search.Search(q, value_model, ValueSearch::Strategy::kBeam);
    EXPECT_EQ(best_first.root->table_set, q.AllTables());
    EXPECT_EQ(beam.root->table_set, q.AllTables());
  }
}

TEST_F(E2eTest, TrainingImprovesOrMatchesNativeInAggregate) {
  // The headline claim (paper Section 2.2): learned optimizers match or
  // beat the native optimizer on the training distribution.
  LeroOptimizer lero(lab_->Context());
  TrainLearnedOptimizer(&lero, train_, *lab_->executor);
  E2eEvalResult on_train = EvaluateLearnedOptimizer(&lero, lab_->Context(),
                                                    train_, *lab_->executor);
  EXPECT_LE(on_train.total_learned, on_train.total_native * 1.1)
      << "speedup=" << on_train.Speedup();
}


// ---------------------------------------------------------------------------
// Golden learned plan choices: every candidate-selection path, trained on one
// fixed stats_lite workload, folded into one fingerprint.

uint64_t Fold(uint64_t hash, uint64_t value) {
  hash ^= value + 0x9e3779b97f4a7c15ull + (hash << 6) + (hash >> 2);
  return hash;
}

// FNV-1a 64 of `text`, folded into `hash`.
uint64_t FoldText(uint64_t hash, const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return Fold(hash, h);
}

TEST(GoldenChoiceTest, LearnedPlanChoicesMatchTheirFingerprint) {
  auto lab = MakeLab("stats_lite", 0.05);
  WorkloadOptions options;
  options.num_queries = 30;
  options.min_tables = 2;
  options.max_tables = 4;
  options.seed = 63;
  Workload train = GenerateWorkload(lab->catalog, options);
  options.num_queries = 12;
  options.seed = 64;
  Workload test = GenerateWorkload(lab->catalog, options);

  // The e2e optimizers: each trains through the harness, then folds every
  // test query's candidate set, its pick and its ChoosePlan.
  uint64_t hash = 0;
  auto fold_optimizer = [&](LearnedQueryOptimizer* optimizer) {
    TrainLearnedOptimizer(optimizer, train, *lab->executor);
    EXPECT_TRUE(optimizer->trained()) << optimizer->Name();
    for (const Query& query : test.queries) {
      CandidateSet set = optimizer->TrainingCandidateSet(query);
      for (const PhysicalPlan& plan : set.plans) {
        hash = FoldText(hash, plan.Signature());
      }
      hash = Fold(hash, set.chosen);
      hash = FoldText(hash, optimizer->ChoosePlan(query).Signature());
    }
  };
  LeroOptimizer lero(lab->Context());
  fold_optimizer(&lero);
  LeonOptimizer leon(lab->Context());
  fold_optimizer(&leon);
  HyperQoOptimizer hyperqo(lab->Context());
  fold_optimizer(&hyperqo);
  BaoOptions greedy;
  greedy.initial_epsilon = 0.0;
  BaoOptimizer bao(lab->Context(), greedy);
  fold_optimizer(&bao);
  BaoOptimizer guarded_bao(lab->Context(), greedy);
  EraserGuard eraser(lab->Context(), &guarded_bao);
  fold_optimizer(&eraser);

  // The PilotScope candidate drivers: background training, then each test
  // query planned alone and run through Algo (Bao retrains every 5 runs).
  EngineInteractor interactor(&lab->catalog, lab->optimizer.get(),
                              lab->estimator.get(), lab->executor.get());
  BaoDriver bao_driver(/*retrain_every=*/5);
  LeroDriver lero_driver;
  for (Driver* driver : std::initializer_list<Driver*>{&bao_driver,
                                                       &lero_driver}) {
    ASSERT_TRUE(driver->Init(&interactor).ok());
    ASSERT_TRUE(driver->TrainOnWorkload(train).ok()) << driver->Name();
    for (const Query& query : test.queries) {
      auto plan = driver->PlanQuery(query);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      hash = FoldText(hash, plan->Signature());
      auto result = driver->Algo(query);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      hash = Fold(hash, std::bit_cast<uint64_t>(result->time_units));
      hash = Fold(hash, result->row_count);
    }
  }
  EXPECT_TRUE(bao_driver.trained());
  EXPECT_TRUE(lero_driver.trained());
  // The drivers' push/pull traffic is part of their observable behaviour.
  hash = Fold(hash, static_cast<uint64_t>(interactor.op_counts().pushes));
  hash = Fold(hash, static_cast<uint64_t>(interactor.op_counts().pulls));
  // Read before the candidate paths were merged into one; any change to a
  // candidate, a pick or a driver's push/pull traffic moves it.
  EXPECT_EQ(hash, 0x71f958757213c592ull);
}

}  // namespace
}  // namespace lqo
