#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "benchlib/bench_site.h"
#include "benchlib/e2e_harness.h"
#include "benchlib/lab.h"
#include "common/thread_pool.h"

namespace lqo {
namespace {

/// Deterministic stub optimizer for harness bookkeeping tests: always the
/// native plan, counts calls.
class StubOptimizer : public LearnedQueryOptimizer {
 public:
  explicit StubOptimizer(const E2eContext& context) : context_(context) {}

  PhysicalPlan ChoosePlan(const Query& query) override {
    ++choose_calls;
    return NativePlan(context_, query);
  }
  void Observe(const Query&, const PhysicalPlan&, double) override {
    ++observe_calls;
  }
  void Retrain() override { ++retrain_calls; }
  std::string Name() const override { return "stub"; }
  bool trained() const override { return retrain_calls > 0; }

  int choose_calls = 0;
  int observe_calls = 0;
  int retrain_calls = 0;

 private:
  E2eContext context_;
};

class BenchlibTest : public ::testing::Test {
 protected:
  BenchlibTest() {
    lab_ = MakeLab("tpch_lite", 0.05);
    WorkloadOptions wopts;
    wopts.num_queries = 10;
    wopts.min_tables = 2;
    wopts.max_tables = 3;
    wopts.seed = 1401;
    workload_ = GenerateWorkload(lab_->catalog, wopts);
  }

  std::unique_ptr<Lab> lab_;
  Workload workload_;
};

TEST_F(BenchlibTest, MakeLabBundlesAConsistentStack) {
  EXPECT_TRUE(lab_->stats.built());
  EXPECT_EQ(lab_->Context().catalog, &lab_->catalog);
  EXPECT_EQ(lab_->Context().estimator, lab_->estimator.get());
  // The bundle plans and executes out of the box.
  CardinalityProvider cards(lab_->estimator.get());
  PhysicalPlan plan = lab_->optimizer->Optimize(workload_.queries[0], &cards)
                          .plan;
  EXPECT_TRUE(lab_->executor->Execute(plan).ok());
  EXPECT_DEATH(MakeLab("no_such_dataset", 0.1), "unknown dataset");
}

TEST_F(BenchlibTest, TrainHarnessDrivesObserveAndRetrain) {
  StubOptimizer stub(lab_->Context());
  HarnessOptions options;
  options.retrain_every = 4;
  options.training_passes = 2;
  double cost = TrainLearnedOptimizer(&stub, workload_, *lab_->executor,
                                      options);
  EXPECT_GT(cost, 0.0);
  // One candidate per query per pass.
  EXPECT_EQ(stub.observe_calls, 20);
  // ceil(20 / 4) periodic retrains + the final one.
  EXPECT_EQ(stub.retrain_calls, 6);
}

TEST_F(BenchlibTest, EvaluationBookkeepingConsistent) {
  StubOptimizer stub(lab_->Context());
  E2eEvalResult result = EvaluateLearnedOptimizer(&stub, lab_->Context(),
                                                  workload_, *lab_->executor);
  EXPECT_EQ(result.name, "stub");
  EXPECT_EQ(result.native_times.size(), workload_.queries.size());
  EXPECT_EQ(result.learned_times.size(), workload_.queries.size());
  // The stub IS the native optimizer: perfect parity.
  EXPECT_DOUBLE_EQ(result.total_learned, result.total_native);
  EXPECT_DOUBLE_EQ(result.Speedup(), 1.0);
  EXPECT_EQ(result.wins, 0);
  EXPECT_EQ(result.losses, 0);
  EXPECT_DOUBLE_EQ(result.worst_regression_ratio, 1.0);
}

// A per-process temp path, so concurrent suites never share a file.
std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + std::to_string(getpid()) + "_" + name;
}

// A full (unfiltered) run of a bench binary named "bench".
BenchHarness FullRun() {
  static char arg0[] = "bench";
  static char* argv[] = {arg0, nullptr};
  return BenchHarness(1, argv);
}

TEST(BenchHarnessTest, ThreadDependentFingerprintFailsTheRun) {
  BenchHarness h = FullRun();
  h.Sweep("stable", {1, 2}, [] { return 7.0; });
  EXPECT_TRUE(h.deterministic());
  h.Sweep("racy", {1, 2},
          [] { return ThreadPool::Global().num_threads(); });
  EXPECT_FALSE(h.deterministic());
  const std::string sweeps = h.SweepsJson().Render();
  EXPECT_NE(sweeps.find("\"name\": \"stable\", \"deterministic\": true"),
            std::string::npos)
      << sweeps;
  EXPECT_NE(sweeps.find("\"name\": \"racy\", \"deterministic\": false"),
            std::string::npos)
      << sweeps;
  EXPECT_EQ(h.Finish(), 1);
}

TEST(BenchHarnessTest, SweepInterleavesThreadCountsOverReps) {
  EXPECT_EQ(BenchHarness::SweepReps(),
            SanitizedBuild() ? 1 : BenchHarness::kSweepReps);
  BenchHarness h = FullRun();
  std::vector<int> calls;
  h.Sweep("counts", {1, 2, 4}, [&] {
    calls.push_back(ThreadPool::Global().num_threads());
    return 0;
  });
  std::vector<int> want;
  for (int rep = 0; rep < BenchHarness::SweepReps(); ++rep) {
    want.insert(want.end(), {1, 2, 4});
  }
  EXPECT_EQ(calls, want);
  const std::string sweeps = h.SweepsJson().Render();
  for (const char* key :
       {"\"reps\": ", "{\"threads\": 4, \"min_seconds\": ",
        "\"median_seconds\": ", "\"max_seconds\": ", "\"speedup_4v1\": "}) {
    EXPECT_NE(sweeps.find(key), std::string::npos) << key << "\n" << sweeps;
  }
  EXPECT_EQ(h.Finish(), 0);
}

TEST(BenchHarnessTest, PlainBuildGateIsNotEvaluatedInSanitizedBuilds) {
  BenchHarness h = FullRun();
  bool plain_evaluated = false;
  h.Gate(GateArming::kPlainBuildsOnly,
         [&] {
           plain_evaluated = true;
           return false;
         },
         "plain-only bound");
  EXPECT_EQ(plain_evaluated, !SanitizedBuild());
  EXPECT_EQ(h.Finish(), SanitizedBuild() ? 0 : 1);

  // Always-armed gates are evaluated in every build.
  BenchHarness always = FullRun();
  bool evaluated = false;
  always.Gate(GateArming::kAlways,
              [&] {
                evaluated = true;
                return false;
              },
              "quality bound %d", 1);
  EXPECT_TRUE(evaluated);
  EXPECT_EQ(always.Finish(), 1);
}

TEST(BenchHarnessTest, LedgerCarriesHostBlockAndDeclaredKeys) {
  const std::string path = TempPath("bench_site_ledger.json");
  std::remove(path.c_str());
  BenchHarness h = FullRun();
  h.Ledger(path).Set("rows", 3).Set(
      "families",
      Json::Array({Json::Object({{"name", "eq"}, {"rows_per_sec", 1.5}})}));
  ASSERT_EQ(h.Finish(), 0);
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string ledger = text.str();
  EXPECT_EQ(ledger.rfind("{\n  \"host\": {\"nproc\": ", 0), 0u) << ledger;
  for (const char* key : {"\"simd_level\": \"", "\"compiler\": \"",
                          "\"build_type\": \"",
                          "\n  \"rows\": 3,\n  \"families\": [\n    "
                          "{\"name\": \"eq\", \"rows_per_sec\": 1.5}\n  ]\n}\n"}) {
    EXPECT_NE(ledger.find(key), std::string::npos) << key << "\n" << ledger;
  }
  std::remove(path.c_str());
}

TEST(BenchHarnessTest, SiteFilterRunsOneSiteAndWritesNoLedger) {
  const std::string path = TempPath("bench_site_filtered.json");
  std::remove(path.c_str());
  char arg0[] = "bench", flag[] = "--site", site[] = "b";
  char* argv[] = {arg0, flag, site, nullptr};
  BenchHarness h(3, argv);
  EXPECT_FALSE(h.Runs("a"));
  EXPECT_TRUE(h.Runs("b"));
  int runs = 0;
  h.Sweep("a", {1}, [&] { return ++runs; });
  EXPECT_EQ(runs, 0);
  h.Ledger(path).Set("rows", 1);
  EXPECT_EQ(h.Finish(), 0);
  EXPECT_FALSE(std::ifstream(path).good());

  char unknown[] = "c";
  argv[2] = unknown;
  BenchHarness typo(3, argv);
  typo.Runs("a");
  EXPECT_EQ(typo.Finish(), 2);
  char bad_flag[] = "--sites";
  argv[1] = bad_flag;
  EXPECT_EXIT(BenchHarness(3, argv), ::testing::ExitedWithCode(2), "usage");
}

}  // namespace
}  // namespace lqo
