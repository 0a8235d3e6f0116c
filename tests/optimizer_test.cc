#include <chrono>
#include <cmath>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "engine/true_cardinality.h"
#include "optimizer/baseline_estimator.h"
#include "optimizer/cardinality_interface.h"
#include "optimizer/cost_model.h"
#include "optimizer/optimizer.h"
#include "optimizer/table_stats.h"
#include "query/sql_parser.h"
#include "query/workload.h"
#include "storage/datasets.h"

namespace lqo {
namespace {

/// Oracle estimator: returns exact cardinalities (used to isolate the
/// enumerator / cost model from estimation error).
class OracleEstimator : public CardinalityEstimatorInterface {
 public:
  explicit OracleEstimator(const Catalog* catalog) : service_(catalog) {}
  double EstimateSubquery(const Subquery& subquery) override {
    return static_cast<double>(service_.Cardinality(subquery));
  }
  std::string Name() const override { return "oracle"; }

 private:
  TrueCardinalityService service_;
};

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() {
    DatasetOptions options;
    options.scale = 0.1;
    catalog_ = MakeStatsLite(options);
    stats_.Build(catalog_);
    estimator_ = std::make_unique<BaselineCardinalityEstimator>(&catalog_,
                                                                &stats_);
    oracle_ = std::make_unique<OracleEstimator>(&catalog_);
    cost_model_ = std::make_unique<AnalyticalCostModel>(&stats_);
    optimizer_ = std::make_unique<Optimizer>(&stats_, cost_model_.get());
  }

  Workload MakeJoinWorkload(int n, int min_tables = 2, int max_tables = 5) {
    WorkloadOptions options;
    options.num_queries = n;
    options.min_tables = min_tables;
    options.max_tables = max_tables;
    options.seed = 77;
    return GenerateWorkload(catalog_, options);
  }

  Catalog catalog_;
  StatsCatalog stats_;
  std::unique_ptr<BaselineCardinalityEstimator> estimator_;
  std::unique_ptr<OracleEstimator> oracle_;
  std::unique_ptr<AnalyticalCostModel> cost_model_;
  std::unique_ptr<Optimizer> optimizer_;
};

TEST_F(OptimizerTest, StatsHistogramCdfMonotone) {
  const TableStatistics& users = stats_.Of("users");
  const ColumnStats& rep = users.ColumnStatsOf("reputation");
  double prev = 0.0;
  for (int64_t v = rep.min_value; v <= rep.max_value;
       v += std::max<int64_t>(1, (rep.max_value - rep.min_value) / 50)) {
    double cdf = rep.CdfLessEq(v);
    EXPECT_GE(cdf, prev - 1e-12);
    EXPECT_GE(cdf, 0.0);
    EXPECT_LE(cdf, 1.0);
    prev = cdf;
  }
  EXPECT_DOUBLE_EQ(rep.CdfLessEq(rep.max_value), 1.0);
  EXPECT_DOUBLE_EQ(rep.CdfLessEq(rep.min_value - 1), 0.0);
}

TEST_F(OptimizerTest, StatsSelectivityAccurateOnSingleColumn) {
  // Histogram selectivities should be close to truth for 1-D predicates.
  const Table& users = **catalog_.GetTable("users");
  size_t col = users.ColumnIndex("reputation").value();
  const ColumnStats& cs = stats_.Of("users").ColumnStatsOf("reputation");
  int64_t lo = 100, hi = 4000;
  size_t truth = 0;
  for (size_t r = 0; r < users.num_rows(); ++r) {
    int64_t v = users.ValueAt(r, col);
    if (v >= lo && v <= hi) ++truth;
  }
  double est = cs.SelectivityRange(lo, hi) *
               static_cast<double>(users.num_rows());
  double q = std::max(est / static_cast<double>(std::max<size_t>(truth, 1)),
                      static_cast<double>(std::max<size_t>(truth, 1)) /
                          std::max(est, 1.0));
  EXPECT_LT(q, 1.6) << "est=" << est << " truth=" << truth;
}

TEST_F(OptimizerTest, SelectivityInAndEqualsClamped) {
  const ColumnStats& cs = stats_.Of("users").ColumnStatsOf("reputation");
  EXPECT_GT(cs.SelectivityEquals(cs.min_value), 0.0);
  EXPECT_LE(cs.SelectivityEquals(cs.min_value), 1.0);
  EXPECT_GT(cs.SelectivityIn({cs.min_value, cs.max_value}), 0.0);
  // Out-of-domain value gets (near) zero.
  EXPECT_LT(cs.SelectivityEquals(cs.max_value + 100), 1e-8);
}

TEST_F(OptimizerTest, BaselineSingleTableReasonable) {
  // Independence holds trivially for one predicate, so q-error vs truth
  // should be small.
  TrueCardinalityService truth(&catalog_);
  Query q;
  q.AddTable("posts");
  q.AddPredicate(Predicate::Range(0, "score", 0, 3));
  double est = estimator_->EstimateSubquery(Subquery{&q, 1});
  double actual = static_cast<double>(truth.Cardinality(q));
  EXPECT_LT(std::max(est / actual, actual / est), 1.7)
      << "est=" << est << " actual=" << actual;
}

TEST_F(OptimizerTest, BaselineJoinEstimateWithinSaneBounds) {
  Query q;
  q.AddTable("users");
  q.AddTable("posts");
  q.AddJoin(0, "id", 1, "owner_user_id");
  double est = estimator_->EstimateSubquery(Subquery{&q, 0b11});
  // PK-FK join: |posts| rows expected.
  const Table& posts = **catalog_.GetTable("posts");
  double actual = static_cast<double>(posts.num_rows());
  EXPECT_GT(est, actual / 20);
  EXPECT_LT(est, actual * 20);
}

TEST_F(OptimizerTest, ProviderOverrideAndScale) {
  Query q;
  q.AddTable("users");
  CardinalityProvider provider(estimator_.get());
  Subquery sub{&q, 1};
  double base = provider.Cardinality(sub);
  EXPECT_GT(base, 1.0);

  CardinalityProvider injected(estimator_.get());
  injected.InjectOverride(sub.Key(), 123.0);
  EXPECT_DOUBLE_EQ(injected.Cardinality(sub), 123.0);

  CardinalityProvider scaled(estimator_.get());
  scaled.SetScale(10.0, 1);
  EXPECT_NEAR(scaled.Cardinality(sub), base * 10.0, base * 1e-9);
  scaled.ClearOverrides();
  EXPECT_NEAR(scaled.Cardinality(sub), base, base * 1e-9);
}

TEST_F(OptimizerTest, DpPlanCoversQueryAndExecutes) {
  Workload workload = MakeJoinWorkload(15);
  Executor executor(&catalog_);
  CardinalityProvider provider(estimator_.get());
  for (const Query& q : workload.queries) {
    PlannerResult result = optimizer_->Optimize(q, &provider);
    EXPECT_EQ(result.plan.root->table_set, q.AllTables());
    EXPECT_GT(result.estimated_cost, 0.0);
    auto exec = executor.Execute(result.plan);
    ASSERT_TRUE(exec.ok()) << q.ToString();
  }
}

TEST_F(OptimizerTest, DpNeverWorseThanGreedyUnderSameCards) {
  // DP is exhaustive, so its estimated cost is a lower bound on greedy's
  // under the same cost model and cardinalities.
  Workload workload = MakeJoinWorkload(20);
  CardinalityProvider provider(oracle_.get());
  for (const Query& q : workload.queries) {
    PlannerResult dp = optimizer_->Optimize(q, &provider);
    PlannerResult greedy = optimizer_->OptimizeGreedy(q, &provider);
    EXPECT_LE(dp.estimated_cost, greedy.estimated_cost * (1 + 1e-9))
        << q.ToString();
  }
}

TEST_F(OptimizerTest, HintsRestrictOperators) {
  Workload workload = MakeJoinWorkload(10, 3, 5);
  CardinalityProvider provider(estimator_.get());
  HintSet hash_only;
  hash_only.enable_nested_loop = false;
  hash_only.enable_merge_join = false;
  for (const Query& q : workload.queries) {
    PlannerResult result = optimizer_->Optimize(q, &provider, hash_only);
    VisitPlanBottomUp(*result.plan.root, [&](const PlanNode& node) {
      if (node.kind == PlanNode::Kind::kJoin) {
        EXPECT_EQ(node.algorithm, JoinAlgorithm::kHashJoin);
      }
    });
  }
}

TEST_F(OptimizerTest, HintCostNeverBelowUnhinted) {
  Workload workload = MakeJoinWorkload(10, 2, 4);
  CardinalityProvider provider(estimator_.get());
  HintSet no_hash;
  no_hash.enable_hash_join = false;
  for (const Query& q : workload.queries) {
    PlannerResult free_plan = optimizer_->Optimize(q, &provider);
    PlannerResult hinted = optimizer_->Optimize(q, &provider, no_hash);
    EXPECT_GE(hinted.estimated_cost, free_plan.estimated_cost * (1 - 1e-9));
  }
}

TEST_F(OptimizerTest, LeadingHintForcesPrefix) {
  Query q;
  q.AddTable("users");
  q.AddTable("posts");
  q.AddTable("comments");
  q.AddJoin(0, "id", 1, "owner_user_id");
  q.AddJoin(1, "id", 2, "post_id");
  CardinalityProvider provider(estimator_.get());
  HintSet leading;
  leading.leading = {2, 1};  // comments first, then posts.
  PlannerResult result = optimizer_->Optimize(q, &provider, leading);
  // Left-most leaf must be comments (index 2).
  const PlanNode* node = result.plan.root.get();
  while (node->kind == PlanNode::Kind::kJoin) node = node->left.get();
  EXPECT_EQ(node->table_index, 2);
  EXPECT_EQ(result.plan.root->table_set, q.AllTables());
}

TEST_F(OptimizerTest, LeftDeepOptionRestrictsShape) {
  OptimizerOptions options;
  options.bushy = false;
  Optimizer left_deep(&stats_, cost_model_.get(), options);
  Workload workload = MakeJoinWorkload(10, 4, 5);
  CardinalityProvider provider(estimator_.get());
  for (const Query& q : workload.queries) {
    PlannerResult result = left_deep.Optimize(q, &provider);
    VisitPlanBottomUp(*result.plan.root, [&](const PlanNode& node) {
      if (node.kind == PlanNode::Kind::kJoin) {
        EXPECT_EQ(node.right->kind, PlanNode::Kind::kScan);
      }
    });
  }
}

TEST_F(OptimizerTest, CostModelAnnotatesNodes) {
  Query q;
  q.AddTable("users");
  q.AddTable("posts");
  q.AddJoin(0, "id", 1, "owner_user_id");
  CardinalityProvider provider(estimator_.get());
  PlannerResult result = optimizer_->Optimize(q, &provider);
  double replay = cost_model_->PlanCost(&result.plan, &provider);
  EXPECT_NEAR(replay, result.estimated_cost, result.estimated_cost * 1e-9);
  VisitPlanBottomUp(*result.plan.root, [](const PlanNode& node) {
    EXPECT_GE(node.estimated_cardinality, 0.0);
    EXPECT_GE(node.estimated_cost, 0.0);
  });
}

TEST_F(OptimizerTest, OracleCardsYieldCheaperOrEqualTrueCost) {
  // With exact cardinalities the chosen plan's *true executed* time should
  // on aggregate not exceed the baseline-estimate plan's time.
  Workload workload = MakeJoinWorkload(12, 3, 5);
  Executor executor(&catalog_);
  CardinalityProvider baseline_cards(estimator_.get());
  CardinalityProvider oracle_cards(oracle_.get());
  double total_baseline = 0, total_oracle = 0;
  for (const Query& q : workload.queries) {
    auto b = executor.Execute(optimizer_->Optimize(q, &baseline_cards).plan);
    auto o = executor.Execute(optimizer_->Optimize(q, &oracle_cards).plan);
    ASSERT_TRUE(b.ok());
    ASSERT_TRUE(o.ok());
    total_baseline += b->time_units;
    total_oracle += o->time_units;
  }
  EXPECT_LE(total_oracle, total_baseline * 1.1);
}

// A 40-way star (hub joined to 39 satellites) has 2^39 + 39 connected
// subgraphs. The DP must give up before enumerating them, ahead of any
// estimator call, and return the greedy plan instead.
TEST(OptimizerStarTest, FortyWayStarFromSqlFallsBackToGreedy) {
  Catalog catalog;
  TableBuilder hub("hub");
  hub.AddInt64Column("id");
  for (int64_t r = 0; r < 50; ++r) hub.AppendRow({r});
  ASSERT_TRUE(catalog.AddTable(hub.Build()).ok());
  std::string sql = "SELECT COUNT(*) FROM hub";
  std::string where;
  for (int s = 1; s < 40; ++s) {
    std::string name = "s" + std::to_string(s);
    TableBuilder sat(name);
    sat.AddInt64Column("hub_id");
    for (int64_t r = 0; r < 50; ++r) sat.AppendRow({(r * s) % 50});
    ASSERT_TRUE(catalog.AddTable(sat.Build()).ok());
    ASSERT_TRUE(catalog
                    .AddJoinEdge({.left_table = "hub",
                                  .left_column = "id",
                                  .right_table = name,
                                  .right_column = "hub_id"})
                    .ok());
    sql += ", " + name;
    where += (s == 1 ? " WHERE hub.id = " : " AND hub.id = ") + name +
             ".hub_id";
  }
  StatusOr<Query> query = ParseSql(catalog, sql + where);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_EQ(query->num_tables(), 40);

  StatsCatalog stats;
  stats.Build(catalog);
  BaselineCardinalityEstimator estimator(&catalog, &stats);
  AnalyticalCostModel model(&stats);
  Optimizer optimizer(&stats, &model);
  CardinalityProvider cards(&estimator);
  auto start = std::chrono::steady_clock::now();
  PlannerResult planned = optimizer.Optimize(*query, &cards);
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed.count(), 1.0);
  EXPECT_TRUE(planned.greedy_fallback);
  ASSERT_NE(planned.plan.root, nullptr);
  EXPECT_EQ(planned.plan.root->table_set, query->AllTables());

  CardinalityProvider greedy_cards(&estimator);
  PlannerResult greedy = optimizer.OptimizeGreedy(*query, &greedy_cards);
  EXPECT_FALSE(greedy.greedy_fallback);
  EXPECT_EQ(planned.plan.Signature(), greedy.plan.Signature());
  EXPECT_EQ(planned.estimated_cost, greedy.estimated_cost);
}

}  // namespace
}  // namespace lqo
