// ThreadPool unit tests plus the serial == parallel determinism contract
// for every parallelized site: estimator evaluation, the e2e harness and
// the lab sweep (forest/GBDT live in ml_test.cc). DP join enumeration is
// serial; its thread-count invariance is still checked here.

#include "common/thread_pool.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "benchlib/e2e_harness.h"
#include "benchlib/lab.h"
#include "cardinality/bayes_net_model.h"
#include "cardinality/evaluation.h"
#include "cardinality/hybrid.h"
#include "cardinality/query_driven.h"
#include "cardinality/spn_model.h"
#include "cardinality/training_data.h"
#include "common/rng.h"
#include "e2e/bao.h"
#include "e2e/hyperqo.h"
#include "e2e/lero.h"
#include "engine/explain.h"
#include "ml/chow_liu.h"
#include "query/workload.h"
#include "storage/datasets.h"

namespace lqo {
namespace {

// Restores the global pool to its default size after each test so thread
// sweeps cannot leak into other suites.
class ThreadPoolTest : public ::testing::Test {
 protected:
  ~ThreadPoolTest() override {
    ThreadPool::SetGlobalThreads(ThreadPool::ParseThreadCount(nullptr));
  }
};

TEST_F(ThreadPoolTest, ParseThreadCountHonorsOverrideAndFallsBack) {
  int fallback = ThreadPool::ParseThreadCount(nullptr);
  EXPECT_GE(fallback, 1);
  EXPECT_EQ(ThreadPool::ParseThreadCount("4"), 4);
  EXPECT_EQ(ThreadPool::ParseThreadCount("1"), 1);
  EXPECT_EQ(ThreadPool::ParseThreadCount(""), fallback);
  EXPECT_EQ(ThreadPool::ParseThreadCount("abc"), fallback);
  EXPECT_EQ(ThreadPool::ParseThreadCount("0"), fallback);
  EXPECT_EQ(ThreadPool::ParseThreadCount("-3"), fallback);
  EXPECT_EQ(ThreadPool::ParseThreadCount("12abc"), fallback);
  EXPECT_EQ(ThreadPool::ParseThreadCount("100000"), 256);  // clamped.
}

TEST_F(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> visits(257);
    for (auto& v : visits) v = 0;
    ParallelFor(visits.size(), [&](size_t i) { ++visits[i]; }, &pool);
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
  }
}

TEST_F(ThreadPoolTest, ParallelMapKeepsIndexOrder) {
  ThreadPool pool(4);
  std::vector<int> out =
      ParallelMap(100, [](size_t i) { return static_cast<int>(i * i); },
                  &pool);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i * i));
  }
}

TEST_F(ThreadPoolTest, ExceptionPropagatesFromWorkerTask) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(
          64,
          [](size_t i) {
            if (i == 13) throw std::runtime_error("boom at 13");
          },
          &pool),
      std::runtime_error);
  // The pool survives a throwing batch and keeps executing.
  std::atomic<int> count{0};
  ParallelFor(32, [&](size_t) { ++count; }, &pool);
  EXPECT_EQ(count.load(), 32);
}

TEST_F(ThreadPoolTest, ExceptionAlsoPropagatesInSerialMode) {
  ThreadPool pool(1);
  EXPECT_THROW(ParallelFor(
                   4,
                   [](size_t i) {
                     if (i == 2) throw std::logic_error("serial boom");
                   },
                   &pool),
               std::logic_error);
}

TEST_F(ThreadPoolTest, NestedParallelForIsSafeAndCorrect) {
  ThreadPool pool(4);
  std::vector<long> sums(16, 0);
  ParallelFor(
      sums.size(),
      [&](size_t outer) {
        // Inner loop runs inline on whichever thread owns `outer`; it must
        // neither deadlock nor skip work.
        std::vector<long> partial(100);
        ParallelFor(partial.size(), [&](size_t inner) {
          partial[inner] = static_cast<long>(outer * inner);
        }, &pool);
        sums[outer] = std::accumulate(partial.begin(), partial.end(), 0L);
      },
      &pool);
  for (size_t outer = 0; outer < sums.size(); ++outer) {
    EXPECT_EQ(sums[outer], static_cast<long>(outer) * 4950);
  }
}

TEST_F(ThreadPoolTest, OneThreadPoolRunsInlineWithoutWorkers) {
  ThreadPool pool(1);
  std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  ParallelFor(seen.size(), [&](size_t i) {
    seen[i] = std::this_thread::get_id();
  }, &pool);
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

// The caller claims chunks itself, so a loop finishes even while every
// worker is held by an unrelated task; helpers queued behind those tasks
// start after the loop returned and find nothing left to claim.
TEST_F(ThreadPoolTest, ParallelForCompletesOnCallerWhileWorkersAreBlocked) {
  std::mutex mutex;  // guards: held, release
  std::condition_variable changed;
  int held = 0;
  bool release = false;
  ThreadPool pool(4);  // Destroyed first: joins the held tasks.
  for (int w = 0; w < 3; ++w) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mutex);
      ++held;
      changed.notify_all();
      changed.wait(lock, [&] { return release; });
    });
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    changed.wait(lock, [&] { return held == 3; });
  }
  std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(64);
  ParallelFor(seen.size(), [&](size_t i) {
    seen[i] = std::this_thread::get_id();
  }, &pool);
  for (const auto& id : seen) EXPECT_EQ(id, caller);
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  changed.notify_all();
}

TEST_F(ThreadPoolTest, DerivedSeedStreamsMatchAcrossThreadCounts) {
  // The per-task RNG pattern used by every stochastic parallel site.
  auto draw = [](ThreadPool* pool) {
    return ParallelMap(64, [](size_t i) {
      Rng rng(DeriveSeed(99, i));
      return rng.UniformDouble(0.0, 1.0) + rng.Gaussian(0.0, 1.0);
    }, pool);
  };
  ThreadPool serial(1), parallel(4);
  EXPECT_EQ(draw(&serial), draw(&parallel));
}

// ---------------------------------------------------------------------------
// Site determinism: serial pool vs 4-thread pool must agree bit for bit.
// ---------------------------------------------------------------------------

struct SiteFixture {
  std::unique_ptr<Lab> lab;
  Workload workload;

  SiteFixture() {
    lab = MakeLab("stats_lite", 0.03);
    WorkloadOptions wopts;
    wopts.num_queries = 12;
    wopts.min_tables = 2;
    wopts.max_tables = 5;
    wopts.seed = 321;
    workload = GenerateWorkload(lab->catalog, wopts);
  }
};

TEST_F(ThreadPoolTest, DpJoinEnumerationIsThreadCountInvariant) {
  SiteFixture f;
  auto plan_all = [&] {
    std::vector<std::string> rendered;
    std::vector<double> costs;
    std::vector<uint64_t> combos;
    for (const Query& q : f.workload.queries) {
      CardinalityProvider cards(f.lab->estimator.get());
      PlannerResult planned = f.lab->optimizer->Optimize(q, &cards);
      rendered.push_back(planned.plan.Signature());
      costs.push_back(planned.estimated_cost);
      combos.push_back(planned.combinations_evaluated);
    }
    return std::make_tuple(rendered, costs, combos);
  };
  ThreadPool::SetGlobalThreads(1);
  auto serial = plan_all();
  ThreadPool::SetGlobalThreads(4);
  auto parallel = plan_all();
  EXPECT_EQ(std::get<0>(serial), std::get<0>(parallel));
  EXPECT_EQ(std::get<1>(serial), std::get<1>(parallel));
  EXPECT_EQ(std::get<2>(serial), std::get<2>(parallel));
}

TEST_F(ThreadPoolTest, EstimatorEvaluationIsThreadCountInvariant) {
  SiteFixture f;
  CeTrainingData data = BuildCeTrainingData(f.lab->catalog, f.lab->stats,
                                            f.workload, f.lab->truth.get());
  ASSERT_FALSE(data.labeled.empty());
  ThreadPool::SetGlobalThreads(1);
  std::vector<double> serial =
      EstimatorQErrors(f.lab->estimator.get(), data.labeled);
  ThreadPool::SetGlobalThreads(4);
  std::vector<double> parallel =
      EstimatorQErrors(f.lab->estimator.get(), data.labeled);
  EXPECT_EQ(serial, parallel);
}

TEST_F(ThreadPoolTest, LabSweepIsThreadCountInvariant) {
  SiteFixture f;
  ThreadPool::SetGlobalThreads(1);
  std::vector<SweepResult> serial = SweepWorkload(*f.lab, f.workload);
  ThreadPool::SetGlobalThreads(4);
  std::vector<SweepResult> parallel = SweepWorkload(*f.lab, f.workload);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].estimated_cost, parallel[i].estimated_cost);
    EXPECT_EQ(serial[i].time_units, parallel[i].time_units);
    EXPECT_EQ(serial[i].row_count, parallel[i].row_count);
  }
}

// Minimal deterministic learned optimizer: native plan plus two hint-set
// candidates. Exercises the harness's candidate fan-out and per-query
// evaluation fan-out without training noise.
class HintProbeOptimizer : public LearnedQueryOptimizer {
 public:
  explicit HintProbeOptimizer(const E2eContext& context)
      : context_(context) {}

  PhysicalPlan ChoosePlan(const Query& query) override {
    return NativePlan(context_, query);
  }

  std::vector<PhysicalPlan> TrainingCandidates(const Query& query) override {
    std::vector<PhysicalPlan> plans;
    plans.push_back(ChoosePlan(query));
    for (bool hash_only : {true, false}) {
      HintSet hints;
      hints.enable_hash_join = hash_only;
      hints.enable_merge_join = !hash_only;
      hints.enable_nested_loop = false;
      CardinalityProvider cards(context_.estimator);
      plans.push_back(
          context_.optimizer->Optimize(query, &cards, hints).plan);
    }
    return plans;
  }

  void Observe(const Query& query, const PhysicalPlan& plan,
               double time_units) override {
    (void)query;
    (void)plan;
    observed_.push_back(time_units);
  }

  void Retrain() override { ++retrains_; }
  std::string Name() const override { return "hint_probe"; }
  bool trained() const override { return retrains_ > 0; }

  const std::vector<double>& observed() const { return observed_; }

 private:
  E2eContext context_;
  std::vector<double> observed_;
  int retrains_ = 0;
};

TEST_F(ThreadPoolTest, E2eHarnessIsThreadCountInvariant) {
  SiteFixture f;
  auto run = [&] {
    HintProbeOptimizer opt(f.lab->Context());
    double train_time =
        TrainLearnedOptimizer(&opt, f.workload, *f.lab->executor);
    E2eEvalResult eval = EvaluateLearnedOptimizer(&opt, f.lab->Context(),
                                                  f.workload,
                                                  *f.lab->executor);
    return std::make_tuple(train_time, opt.observed(), eval.native_times,
                           eval.learned_times, eval.wins, eval.losses,
                           eval.worst_regression_ratio);
  };
  ThreadPool::SetGlobalThreads(1);
  auto serial = run();
  ThreadPool::SetGlobalThreads(4);
  auto parallel = run();
  EXPECT_EQ(serial, parallel);
}

TEST_F(ThreadPoolTest, CardinalityProviderCountsHitsAndMisses) {
  SiteFixture f;
  CardinalityProvider cards(f.lab->estimator.get());
  const Query& q = f.workload.queries[0];
  Subquery all{&q, q.AllTables()};
  EXPECT_EQ(cards.Stats().hits, 0u);
  EXPECT_EQ(cards.Stats().misses, 0u);
  double first = cards.Cardinality(all);
  EXPECT_EQ(cards.Stats().misses, 1u);
  double second = cards.Cardinality(all);
  EXPECT_EQ(cards.Stats().hits, 1u);
  EXPECT_EQ(first, second);

  // DP planning over the cache: every connected subset probed once, hit on
  // every re-probe across candidate splits.
  CardinalityProvider dp_cards(f.lab->estimator.get());
  f.lab->optimizer->Optimize(q, &dp_cards);
  EXPECT_GT(dp_cards.Stats().misses, 0u);
}

// Every node's estimated cardinality, in pre-order.
void AppendEstimates(const PlanNode& node, std::vector<double>* out) {
  out->push_back(node.estimated_cardinality);
  if (node.kind == PlanNode::Kind::kJoin) {
    AppendEstimates(*node.left, out);
    AppendEstimates(*node.right, out);
  }
}

// The DP planner resolves every connected subset through the estimator's
// batch path, and concurrent sessions share one estimator: two planners
// running at once over one trained learned estimator of each batch-
// overriding kind must plan exactly as they do one after the other.
TEST_F(ThreadPoolTest, LearnedBatchEstimatorsAreReentrantAcrossPlanners) {
  SiteFixture f;
  CeTrainingData training = BuildCeTrainingData(
      f.lab->catalog, f.lab->stats, f.workload, f.lab->truth.get());
  QueryDrivenEstimator forest(QueryDrivenEstimator::ModelType::kForest,
                              &f.lab->catalog, &f.lab->stats);
  forest.Train(training);
  UaeEstimator uae(&f.lab->catalog, &f.lab->stats);
  uae.Train(training);

  ThreadPool::SetGlobalThreads(4);
  for (CardinalityEstimatorInterface* estimator :
       std::vector<CardinalityEstimatorInterface*>{&forest, &uae}) {
    SCOPED_TRACE(estimator->Name());
    auto plan = [&](size_t i) {
      CardinalityProvider cards(estimator);
      PlannerResult planned =
          f.lab->optimizer->Optimize(f.workload.queries[i], &cards);
      std::vector<double> estimates;
      AppendEstimates(*planned.plan.root, &estimates);
      return std::make_tuple(planned.plan.Signature(), planned.estimated_cost,
                             estimates);
    };
    std::vector<decltype(plan(0))> serial;
    for (size_t i = 0; i < f.workload.queries.size(); ++i) {
      serial.push_back(plan(i));
    }
    ThreadPool planners(2);
    for (int round = 0; round < 3; ++round) {
      EXPECT_EQ(ParallelMap(f.workload.queries.size(), plan, &planners),
                serial);
    }
  }
}

// ---------------------------------------------------------------------------
// Thread-count invariance: hash join, model training, batched candidate
// costing.
// Each must be bit-for-bit identical at LQO_THREADS = 1, 2 and 8.
// ---------------------------------------------------------------------------

// Sweeps the global pool over 1/2/8 threads and requires `work()` to return
// an identical (operator==) result at every count.
template <typename Fn>
void ExpectThreadCountInvariant(Fn&& work) {
  ThreadPool::SetGlobalThreads(1);
  auto serial = work();
  for (int threads : {2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    EXPECT_EQ(work(), serial) << "diverged at " << threads << " threads";
  }
}

TEST_F(ThreadPoolTest, LargeHashJoinIsThreadCountInvariant) {
  // 6000-row tables: 6000 + 6000 join input rows, past the 8192-row
  // threshold at which scans split into parallel morsels.
  Catalog chain = MakeChainSchema(3, 6000);
  Executor executor(&chain);
  WorkloadOptions wopts;
  wopts.num_queries = 6;
  wopts.min_tables = 2;
  wopts.max_tables = 3;
  wopts.seed = 88;
  Workload workload = GenerateWorkload(chain, wopts);
  ExpectThreadCountInvariant([&] {
    std::vector<std::tuple<uint64_t, double, uint64_t, uint64_t>> out;
    for (const Query& q : workload.queries) {
      PhysicalPlan plan =
          MakeLeftDeepPlan(q, q.AllTables(), JoinAlgorithm::kHashJoin);
      auto result = executor.Execute(plan);
      LQO_CHECK(result.ok());
      for (const NodeProfile& p : result->node_profiles) {
        out.emplace_back(p.output_rows, p.time_units, p.build_collisions,
                         p.probe_collisions);
      }
      out.emplace_back(result->row_count, result->time_units, 0u, 0u);
    }
    return out;
  });
}

TEST_F(ThreadPoolTest, SpnTrainingIsThreadCountInvariant) {
  Catalog chain = MakeChainSchema(2, 4000);
  const Table* t1 = *chain.GetTable("t1");
  Query probe;
  probe.AddTable("t1");
  probe.AddPredicate(Predicate::Range(0, "val", 2, 30));
  ExpectThreadCountInvariant([&] {
    SpnTableModel model(t1);
    return std::make_pair(model.num_nodes(), model.Selectivity(probe, 0));
  });
}

TEST_F(ThreadPoolTest, ChowLiuTreeIsThreadCountInvariant) {
  Rng rng(7);
  std::vector<std::vector<int64_t>> columns(10);
  std::vector<int64_t> domains(10, 12);
  for (auto& col : columns) {
    col.reserve(2000);
    for (int r = 0; r < 2000; ++r) col.push_back(rng.UniformInt(0, 11));
  }
  ExpectThreadCountInvariant([&] {
    ChowLiuResult tree = LearnChowLiuTree(columns, domains);
    return std::make_pair(tree.parent, tree.topological_order);
  });
}

TEST_F(ThreadPoolTest, BayesNetTrainingIsThreadCountInvariant) {
  Catalog chain = MakeChainSchema(2, 3000);
  const Table* t1 = *chain.GetTable("t1");
  Query probe;
  probe.AddTable("t1");
  probe.AddPredicate(Predicate::Range(0, "val", 1, 20));
  ExpectThreadCountInvariant([&] {
    BayesNetTableModel model(t1, /*max_bins=*/16);
    return model.Selectivity(probe, 0);
  });
}

TEST_F(ThreadPoolTest, LeroCandidateRankingIsThreadCountInvariant) {
  SiteFixture f;
  ExpectThreadCountInvariant([&] {
    LeroOptimizer lero(f.lab->Context());
    std::vector<std::string> signatures;
    std::vector<double> costs;
    for (const Query& q : f.workload.queries) {
      for (const PhysicalPlan& plan : lero.Candidates(q)) {
        signatures.push_back(plan.Signature());
        costs.push_back(plan.root->estimated_cost);
      }
    }
    return std::make_pair(signatures, costs);
  });
}

// ---------------------------------------------------------------------------
// PR 3 sites: batched model inference through the e2e candidate scorers.
// PredictBatch is morsel-parallel, so plan choice (and the number of rows
// scored) must be bit-for-bit identical at LQO_THREADS = 1, 2 and 8.
// ---------------------------------------------------------------------------

TEST_F(ThreadPoolTest, BatchedCandidateScoringIsThreadCountInvariant) {
  SiteFixture f;
  // Exploration off: every ChoosePlan must take the batched scoring path,
  // so any thread-count dependence in PredictBatch shows up as a different
  // plan signature (not as bandit noise).
  BaoOptions bao_options;
  bao_options.initial_epsilon = 0.0;
  BaoOptimizer bao(f.lab->Context(), bao_options);
  HyperQoOptimizer hyperqo(f.lab->Context());
  HarnessOptions hopts;
  hopts.training_passes = 1;
  TrainLearnedOptimizer(&bao, f.workload, *f.lab->executor, hopts);
  TrainLearnedOptimizer(&hyperqo, f.workload, *f.lab->executor, hopts);
  ASSERT_TRUE(bao.trained());
  ExpectThreadCountInvariant([&] {
    std::vector<std::string> signatures;
    uint64_t rows_before = bao.InferenceStats().rows +
                           hyperqo.InferenceStats().rows;
    for (const Query& q : f.workload.queries) {
      signatures.push_back(bao.ChoosePlan(q).Signature());
      signatures.push_back(hyperqo.ChoosePlan(q).Signature());
    }
    uint64_t rows_scored = bao.InferenceStats().rows +
                           hyperqo.InferenceStats().rows - rows_before;
    return std::make_pair(signatures, rows_scored);
  });
}

TEST_F(ThreadPoolTest, EstimateSubqueryBatchIsThreadCountInvariant) {
  SiteFixture f;
  // Batch estimation over every query's full-table subquery, through the
  // baseline's serial batch and through the default ParallelMap path of an
  // estimator that only defines the scalar call.
  class ScalarOnly : public CardinalityEstimatorInterface {
   public:
    explicit ScalarOnly(CardinalityEstimatorInterface* inner)
        : inner_(inner) {}
    double EstimateSubquery(const Subquery& subquery) override {
      return inner_->EstimateSubquery(subquery);
    }
    std::string Name() const override { return "scalar_only"; }

   private:
    CardinalityEstimatorInterface* inner_;
  } scalar_only(f.lab->estimator.get());
  std::vector<Subquery> subqueries;
  for (const Query& q : f.workload.queries) {
    subqueries.push_back(Subquery{&q, q.AllTables()});
  }
  ExpectThreadCountInvariant([&] {
    return std::make_pair(f.lab->estimator->EstimateSubqueryBatch(subqueries),
                          scalar_only.EstimateSubqueryBatch(subqueries));
  });
}

// ---------------------------------------------------------------------------
// PR 5 sites: plan-feature cache and compact layouts in the retrain loop.
// The lab-wide FeatureCache is cold on the first sweep and warm afterwards,
// so the 1-thread reference runs mostly cold while the 2/8-thread runs are
// served from the cache: the sweep checks warm-vs-cold identity as well as
// thread-count invariance. Fingerprints cover plan signatures and simulated
// times only — never cache hit/miss deltas, which legitimately differ
// between the cold and warm passes.
// ---------------------------------------------------------------------------

TEST_F(ThreadPoolTest, CachedRetrainIsThreadCountInvariant) {
  SiteFixture f;
  ASSERT_NE(f.lab->feature_cache, nullptr);
  HarnessOptions hopts;
  hopts.training_passes = 2;  // second pass re-featurizes cached candidates
  ExpectThreadCountInvariant([&] {
    LeroOptimizer lero(f.lab->Context());
    HyperQoOptimizer hyperqo(f.lab->Context());
    double train_cost =
        TrainLearnedOptimizer(&lero, f.workload, *f.lab->executor, hopts) +
        TrainLearnedOptimizer(&hyperqo, f.workload, *f.lab->executor, hopts);
    std::vector<std::string> signatures;
    for (const Query& q : f.workload.queries) {
      signatures.push_back(lero.ChoosePlan(q).Signature());
      signatures.push_back(hyperqo.ChoosePlan(q).Signature());
    }
    return std::make_pair(signatures, train_cost);
  });
}

TEST_F(ThreadPoolTest, CachedEstimatorRetrainIsThreadCountInvariant) {
  SiteFixture f;
  CeTrainingData data = BuildCeTrainingData(f.lab->catalog, f.lab->stats,
                                            f.workload, f.lab->truth.get());
  // One estimator across the sweep: its training-featurization cache is
  // cold on the serial pass and warm on every retrain after it.
  QueryDrivenEstimator forest(QueryDrivenEstimator::ModelType::kForest,
                              &f.lab->catalog, &f.lab->stats);
  ExpectThreadCountInvariant([&] {
    forest.Train(data);
    std::vector<double> estimates;
    for (const Query& q : f.workload.queries) {
      estimates.push_back(forest.EstimateSubquery(Subquery{&q, q.AllTables()}));
    }
    return estimates;
  });
}

TEST_F(ThreadPoolTest, ScaledViewMatchesDirectScaling) {
  SiteFixture f;
  CardinalityProvider base(f.lab->estimator.get());
  auto expect_scaled_view = [&](double factor) {
    CardinalityProvider view(&base, factor, /*scale_min_tables=*/2);
    for (const Query& q : f.workload.queries) {
      Subquery all{&q, q.AllTables()};
      double expected = f.lab->estimator->EstimateSubquery(all);
      if (PopCount(all.tables) >= 2) expected *= factor;
      EXPECT_EQ(view.Cardinality(all), std::max(expected, 1.0));
    }
  };
  expect_scaled_view(10.0);
  // A second view over the same base is served from the base's memo: the
  // base estimates nothing new.
  const uint64_t base_misses = base.Stats().misses;
  EXPECT_GT(base_misses, 0u);
  expect_scaled_view(0.1);
  EXPECT_EQ(base.Stats().misses, base_misses);
}

TEST_F(ThreadPoolTest, SubqueryKeyHashIsCanonicalAcrossQueryObjects) {
  SiteFixture f;
  const Query& q = f.workload.queries[0];
  Query copy = q;  // same logical query, distinct object.
  Subquery a{&q, q.AllTables()};
  Subquery b{&copy, copy.AllTables()};
  EXPECT_EQ(a.Key(), b.Key());
  EXPECT_EQ(a.KeyHash(), b.KeyHash());

  // Distinct subsets should (overwhelmingly) hash apart.
  std::vector<uint64_t> hashes;
  for (const Query& query : f.workload.queries) {
    for (TableSet s : ConnectedSubsets(query)) {
      hashes.push_back(Subquery{&query, s}.KeyHash());
    }
  }
  std::sort(hashes.begin(), hashes.end());
  size_t distinct =
      static_cast<size_t>(std::unique(hashes.begin(), hashes.end()) -
                          hashes.begin());
  // Some subqueries are legitimately identical across generated queries;
  // just assert hashing is not degenerate.
  EXPECT_GT(distinct, hashes.size() / 2);
}

}  // namespace
}  // namespace lqo
