// Property test: Optimizer::Optimize (DPccp) against the submask DP oracle
// in submask_dp_oracle.h, over chain, star and cyclic join graphs, bushy and
// left-deep, under every Bao hint arm. Plans must agree bit for bit, and the
// estimator must see the same subsets in the same order. The batch
// cardinality paths the DP uses (CardinalityProvider::CardinalityBatch, the
// baseline's EstimateSubqueryBatch, KeyHashParts) are checked against their
// scalar definitions over the same join graphs.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "benchlib/lab.h"
#include "cardinality/training_data.h"
#include "common/rng.h"
#include "e2e/bao.h"
#include "query/sql_parser.h"
#include "query/workload.h"
#include "storage/datasets.h"
#include "submask_dp_oracle.h"

namespace lqo {
namespace {

// Delegates to `inner` and records the subset of every call, in order: a
// batch records its sub-queries in batch order and forwards to the inner
// batch.
class RecordingEstimator : public CardinalityEstimatorInterface {
 public:
  explicit RecordingEstimator(CardinalityEstimatorInterface* inner)
      : inner_(inner) {}
  double EstimateSubquery(const Subquery& subquery) override {
    calls_.push_back(subquery.tables);
    return inner_->EstimateSubquery(subquery);
  }
  std::vector<double> EstimateSubqueryBatch(
      const std::vector<Subquery>& subqueries) override {
    for (const Subquery& subquery : subqueries) {
      calls_.push_back(subquery.tables);
    }
    return inner_->EstimateSubqueryBatch(subqueries);
  }
  std::string Name() const override { return "recording"; }
  const std::vector<TableSet>& calls() const { return calls_; }

 private:
  CardinalityEstimatorInterface* inner_;
  std::vector<TableSet> calls_;
};

// Every subquery estimated at the same row count: most splits of a subset
// then cost the same, so the planner's tie-break decides the plan.
class FlatEstimator : public CardinalityEstimatorInterface {
 public:
  double EstimateSubquery(const Subquery&) override { return 100.0; }
  std::string Name() const override { return "flat"; }
};

// Fact table `fact` joined to `dims` dimension tables d1..dk on dX_id = id.
Catalog MakeStarSchema(int dims, int64_t rows) {
  Catalog catalog;
  TableBuilder fact("fact");
  fact.AddInt64Column("id");
  for (int d = 1; d <= dims; ++d) {
    fact.AddInt64Column("d" + std::to_string(d) + "_id");
  }
  fact.AddInt64Column("val");
  for (int64_t r = 0; r < rows; ++r) {
    std::vector<int64_t> row = {r};
    for (int d = 1; d <= dims; ++d) row.push_back((r * (d + 2)) % (rows / 4));
    row.push_back(r % 17);
    fact.AppendRow(row);
  }
  EXPECT_TRUE(catalog.AddTable(fact.Build()).ok());
  for (int d = 1; d <= dims; ++d) {
    std::string name = "d" + std::to_string(d);
    TableBuilder dim(name);
    dim.AddInt64Column("id");
    dim.AddInt64Column("val");
    for (int64_t r = 0; r < rows / 4; ++r) dim.AppendRow({r, (r * d) % 11});
    EXPECT_TRUE(catalog.AddTable(dim.Build()).ok());
    EXPECT_TRUE(catalog
                    .AddJoinEdge({.left_table = "fact",
                                  .left_column = name + "_id",
                                  .right_table = name,
                                  .right_column = "id"})
                    .ok());
  }
  return catalog;
}

std::vector<HintSet> BaoArms(const Lab& lab) {
  BaoOptimizer bao(lab.Context());
  return bao.arms();
}

void ExpectSameNodes(const PlanNode& got, const PlanNode& want) {
  ASSERT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.table_set, want.table_set);
  EXPECT_EQ(got.table_index, want.table_index);
  EXPECT_EQ(got.algorithm, want.algorithm);
  EXPECT_EQ(got.estimated_cardinality, want.estimated_cardinality);
  EXPECT_EQ(got.estimated_cost, want.estimated_cost);
  if (want.kind == PlanNode::Kind::kJoin) {
    ExpectSameNodes(*got.left, *want.left);
    ExpectSameNodes(*got.right, *want.right);
  }
}

// Plans `query` with Optimize and with the oracle, each over a fresh
// provider and recorder, and requires identical results.
void ExpectMatchesOracle(const Lab& lab, CardinalityEstimatorInterface* base,
                         const Query& query, bool bushy,
                         const HintSet& hints) {
  SCOPED_TRACE(query.ToString() + " bushy=" + std::to_string(bushy) +
               " arm=" + hints.name);
  OptimizerOptions options;
  options.bushy = bushy;
  Optimizer optimizer(&lab.stats, lab.cost_model.get(), options);

  RecordingEstimator got_recorder(base);
  CardinalityProvider got_cards(&got_recorder);
  PlannerResult got = optimizer.Optimize(query, &got_cards, hints);

  RecordingEstimator want_recorder(base);
  CardinalityProvider want_cards(&want_recorder);
  PlannerResult want =
      oracle::SubmaskDp(optimizer, bushy, query, &want_cards, hints);

  EXPECT_EQ(got.plan.Signature(), want.plan.Signature());
  EXPECT_EQ(got.estimated_cost, want.estimated_cost);
  EXPECT_EQ(got.combinations_evaluated, want.combinations_evaluated);
  EXPECT_EQ(got_recorder.calls(), want_recorder.calls());
  ASSERT_NE(got.plan.root, nullptr);
  ExpectSameNodes(*got.plan.root, *want.plan.root);
}

void ExpectWorkloadMatchesOracle(const Lab& lab,
                                 CardinalityEstimatorInterface* base,
                                 const std::vector<Query>& queries) {
  std::vector<HintSet> arms = BaoArms(lab);
  ASSERT_EQ(arms.size(), 7u);
  for (const Query& query : queries) {
    for (bool bushy : {true, false}) {
      for (const HintSet& arm : arms) {
        ExpectMatchesOracle(lab, base, query, bushy, arm);
      }
    }
  }
}

Workload ChainTemplates(const Lab& lab, int count) {
  WorkloadOptions options;
  options.num_queries = count;
  options.min_tables = 10;
  options.max_tables = 12;
  options.seed = 77;
  return GenerateWorkload(lab.catalog, options);
}

TEST(DpOracleTest, ChainTemplatesMatchSubmaskDp) {
  auto lab = MakeLabFromCatalog(MakeChainSchema(12, 200, 42));
  Workload workload = ChainTemplates(*lab, 8);
  ExpectWorkloadMatchesOracle(*lab, lab->estimator.get(), workload.queries);
}

TEST(DpOracleTest, TiesResolveLikeSubmaskDp) {
  auto lab = MakeLabFromCatalog(MakeChainSchema(12, 200, 42));
  Workload workload = ChainTemplates(*lab, 2);
  FlatEstimator flat;
  ExpectWorkloadMatchesOracle(*lab, &flat, workload.queries);

  auto star = MakeLabFromCatalog(MakeStarSchema(7, 400));
  WorkloadOptions options;
  options.num_queries = 3;
  options.min_tables = 6;
  options.max_tables = 8;
  ExpectWorkloadMatchesOracle(*star, &flat,
                              GenerateWorkload(star->catalog, options).queries);
}

TEST(DpOracleTest, StarSchemaMatchesSubmaskDp) {
  auto lab = MakeLabFromCatalog(MakeStarSchema(7, 400));
  WorkloadOptions options;
  options.num_queries = 6;
  options.min_tables = 3;
  options.max_tables = 8;
  options.seed = 11;
  ExpectWorkloadMatchesOracle(*lab, lab->estimator.get(),
                              GenerateWorkload(lab->catalog, options).queries);
}

class DpOracleDatasetTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DpOracleDatasetTest, CyclicJoinGraphsMatchSubmaskDp) {
  auto lab = MakeLab(GetParam(), 0.03);
  WorkloadOptions options;
  options.num_queries = 16;
  options.min_tables = 3;
  options.max_tables = 6;
  options.extra_edge_prob = 0.9;
  options.seed = 5;
  Workload workload = GenerateWorkload(lab->catalog, options);
  if (GetParam() == "imdb_lite") {
    // The schema is a star around `title`; add the transitive
    // satellite-satellite movie_id joins (as JOB does) to close cycles.
    for (Query& q : workload.queries) {
      for (int a = 0; a < q.num_tables(); ++a) {
        for (int b = a + 1; b < q.num_tables(); ++b) {
          if (q.tables()[static_cast<size_t>(a)].table_name != "title" &&
              q.tables()[static_cast<size_t>(b)].table_name != "title") {
            q.AddJoin(a, "movie_id", b, "movie_id");
          }
        }
      }
    }
  }
  bool cyclic = false;
  for (const Query& q : workload.queries) {
    cyclic |= q.joins().size() >= static_cast<size_t>(q.num_tables());
  }
  EXPECT_TRUE(cyclic) << "workload has no cyclic join graph";
  ExpectWorkloadMatchesOracle(*lab, lab->estimator.get(), workload.queries);
}

INSTANTIATE_TEST_SUITE_P(Datasets, DpOracleDatasetTest,
                         ::testing::Values("stats_lite", "imdb_lite"));

// Bao plans all of its arms against one provider; each arm's plan must
// still equal the oracle's plan over a fresh provider, and the shared memo
// must estimate each connected subset exactly once across all arms.
TEST(DpOracleTest, ArmsSharingOneProviderMatchSubmaskDp) {
  auto lab = MakeLabFromCatalog(MakeChainSchema(12, 200, 42));
  Workload workload = ChainTemplates(*lab, 2);
  std::vector<HintSet> arms = BaoArms(*lab);
  for (const Query& query : workload.queries) {
    CardinalityProvider shared(lab->estimator.get());
    for (const HintSet& arm : arms) {
      PlannerResult got = lab->optimizer->Optimize(query, &shared, arm);
      CardinalityProvider cards(lab->estimator.get());
      PlannerResult want =
          oracle::SubmaskDp(*lab->optimizer, true, query, &cards, arm);
      EXPECT_EQ(got.plan.Signature(), want.plan.Signature());
      EXPECT_EQ(got.estimated_cost, want.estimated_cost);
      EXPECT_EQ(got.combinations_evaluated, want.combinations_evaluated);
    }
    EXPECT_EQ(shared.Stats().misses, ConnectedSubsets(query).size());
  }
}

std::string ChainSql(int tables) {
  std::string sql = "SELECT COUNT(*) FROM ";
  for (int t = 0; t < tables; ++t) {
    sql += (t > 0 ? ", t" : "t") + std::to_string(t);
  }
  for (int t = 1; t < tables; ++t) {
    sql += (t == 1 ? " WHERE t" : " AND t") + std::to_string(t - 1) +
           ".id = t" + std::to_string(t) + ".prev_id";
  }
  return sql;
}

// The submask DP walks 3^40 splits and reserves 2^40 memo slots for a
// 40-way chain; DPccp visits its 820 connected subsets.
TEST(DpOracleTest, FortyWayChainFromSqlPlans) {
  auto lab = MakeLabFromCatalog(MakeChainSchema(40, 50, 42));
  StatusOr<Query> query = ParseSql(lab->catalog, ChainSql(40));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_EQ(query->num_tables(), 40);
  CardinalityProvider cards(lab->estimator.get());
  PlannerResult planned = lab->optimizer->Optimize(*query, &cards);
  ASSERT_NE(planned.plan.root, nullptr);
  EXPECT_EQ(planned.plan.root->table_set, query->AllTables());
  // Subchain of k tables: k - 1 splits, both orientations, three algorithms.
  uint64_t expected = 0;
  for (uint64_t k = 2; k <= 40; ++k) expected += (41 - k) * (k - 1) * 2 * 3;
  EXPECT_EQ(planned.combinations_evaluated, expected);
  EXPECT_EQ(cards.Stats().hits + cards.Stats().misses, 40u * 41u / 2u);
}

// ---------------------------------------------------------------------------
// Golden plan fingerprint: DPccp's plans, per-node estimates and costs,
// folded into one number that must equal the value the planner produced
// before its memo and cost terms were restructured. The oracle tests above
// hold the DP to a second planner; this one holds it to its own history.

uint64_t Fold(uint64_t hash, uint64_t value) {
  hash ^= value + 0x9e3779b97f4a7c15ull + (hash << 6) + (hash >> 2);
  return hash;
}

uint64_t FoldNodes(uint64_t hash, const PlanNode& node) {
  hash = Fold(hash, node.table_set);
  hash = Fold(hash, node.kind == PlanNode::Kind::kScan
                        ? 0xffu
                        : static_cast<uint64_t>(node.algorithm));
  hash = Fold(hash, std::bit_cast<uint64_t>(node.estimated_cardinality));
  hash = Fold(hash, std::bit_cast<uint64_t>(node.estimated_cost));
  if (node.kind == PlanNode::Kind::kJoin) {
    hash = FoldNodes(hash, *node.left);
    hash = FoldNodes(hash, *node.right);
  }
  return hash;
}

// Requires every node's estimates to equal the cost model's own
// recomputation over the same provider.
void ExpectNodesMatchRecomputed(const PlanNode& planned,
                                const PlanNode& recomputed) {
  EXPECT_EQ(planned.estimated_cardinality, recomputed.estimated_cardinality);
  EXPECT_EQ(planned.estimated_cost, recomputed.estimated_cost);
  if (planned.kind == PlanNode::Kind::kJoin) {
    ExpectNodesMatchRecomputed(*planned.left, *recomputed.left);
    ExpectNodesMatchRecomputed(*planned.right, *recomputed.right);
  }
}

// Plans `query`, folds the plan into `hash`, and checks the node costs
// against AnalyticalCostModel::PlanCost().
uint64_t FoldPlanned(const Lab& lab, const Query& query, bool bushy,
                     const HintSet& hints, uint64_t hash) {
  OptimizerOptions options;
  options.bushy = bushy;
  Optimizer optimizer(&lab.stats, lab.cost_model.get(), options);
  CardinalityProvider cards(lab.estimator.get());
  PlannerResult planned = optimizer.Optimize(query, &cards, hints);
  EXPECT_FALSE(planned.greedy_fallback);
  PhysicalPlan recomputed = planned.plan.Clone();
  lab.cost_model->PlanCost(&recomputed, &cards);
  ExpectNodesMatchRecomputed(*planned.plan.root, *recomputed.root);
  hash = FoldNodes(hash, *planned.plan.root);
  hash = Fold(hash, std::bit_cast<uint64_t>(planned.estimated_cost));
  return Fold(hash, planned.combinations_evaluated);
}

// The 16 chain templates of the serve_chain/plan_chain benchmark (10-12
// tables, range predicates on the first two tables), each with two
// bindings drawn from a fixed seed, one of them with tightened ranges,
// parsed back from SQL as the benchmark does.
std::vector<Query> BenchmarkChainQueries(const Lab& lab) {
  WorkloadOptions options;
  options.num_queries = 16;
  options.min_tables = 10;
  options.max_tables = 12;
  options.equality_prob = 0.0;
  options.in_prob = 0.0;
  options.seed = 77;
  Rng rng(DeriveSeed(1729, 0));
  std::vector<Query> queries;
  for (const Query& generated :
       GenerateWorkload(lab.catalog, options).queries) {
    Query trimmed;
    for (const QueryTable& t : generated.tables()) {
      trimmed.AddTable(t.table_name, t.alias);
    }
    for (const QueryJoin& j : generated.joins()) {
      trimmed.AddJoin(j.left_table, j.left_column, j.right_table,
                      j.right_column);
    }
    for (const Predicate& p : generated.predicates()) {
      if (p.table_index < 2) trimmed.AddPredicate(p);
    }
    for (double widen : {1.0, 0.02}) {
      StatusOr<Query> parsed = ParseSql(
          lab.catalog,
          ResampleConstants(lab.catalog, trimmed, rng, widen).ToString());
      EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
      if (parsed.ok()) queries.push_back(*std::move(parsed));
    }
  }
  return queries;
}

TEST(GoldenPlanTest, ChainAndBaoArmPlansMatchTheirFingerprint) {
  uint64_t hash = 0;
  auto chain = MakeLabFromCatalog(MakeChainSchema(12, 200, 42));
  std::vector<Query> chain_queries = BenchmarkChainQueries(*chain);
  ASSERT_EQ(chain_queries.size(), 32u);
  for (const Query& query : chain_queries) {
    hash = FoldPlanned(*chain, query, true, HintSet(), hash);
  }

  auto stats = MakeLab("stats_lite", 0.05);
  WorkloadOptions options;
  options.num_queries = 40;
  options.min_tables = 2;
  options.max_tables = 4;
  options.seed = 62;
  std::vector<HintSet> arms = BaoArms(*stats);
  ASSERT_EQ(arms.size(), 7u);
  for (const Query& query : GenerateWorkload(stats->catalog, options).queries) {
    for (bool bushy : {true, false}) {
      for (const HintSet& arm : arms) {
        hash = FoldPlanned(*stats, query, bushy, arm, hash);
      }
    }
  }
  // Read from the planner before its flat cardinality memo and per-csg
  // join-cost terms; any change to a plan, estimate or cost bit moves it.
  EXPECT_EQ(hash, 0x488aeaa0cd35a643ull);
}

// ---------------------------------------------------------------------------
// Batch cardinality paths against their scalar definitions.

// The query shapes the batch paths are checked on: 12-way chains, 7-way
// stars, and cyclic stats_lite / imdb_lite join graphs, with equality, IN
// and range predicates. Each entry keeps its lab alive for its queries.
struct BatchCase {
  std::unique_ptr<Lab> lab;
  std::vector<Query> queries;
};

std::vector<BatchCase> BatchCases() {
  std::vector<BatchCase> cases;
  {
    BatchCase chain{MakeLabFromCatalog(MakeChainSchema(12, 200, 42)), {}};
    chain.queries = ChainTemplates(*chain.lab, 4).queries;
    cases.push_back(std::move(chain));
  }
  {
    BatchCase star{MakeLabFromCatalog(MakeStarSchema(7, 400)), {}};
    WorkloadOptions options;
    options.num_queries = 4;
    options.min_tables = 7;
    options.max_tables = 7;
    options.seed = 13;
    star.queries = GenerateWorkload(star.lab->catalog, options).queries;
    cases.push_back(std::move(star));
  }
  for (const char* dataset : {"stats_lite", "imdb_lite"}) {
    BatchCase lite{MakeLab(dataset, 0.03), {}};
    WorkloadOptions options;
    options.num_queries = 12;
    options.min_tables = 3;
    options.max_tables = 6;
    options.extra_edge_prob = 0.9;
    options.seed = 19;
    lite.queries = GenerateWorkload(lite.lab->catalog, options).queries;
    cases.push_back(std::move(lite));
  }
  return cases;
}

std::vector<Subquery> AllConnected(const Query& query) {
  std::vector<Subquery> subqueries;
  for (TableSet set : ConnectedSubsets(query)) {
    subqueries.push_back(Subquery{&query, set});
  }
  return subqueries;
}

TEST(BatchCardinalityTest, BaselineBatchMatchesScalarBitForBit) {
  bool kinds[3] = {false, false, false};
  for (const BatchCase& c : BatchCases()) {
    CardinalityEstimatorInterface* baseline = c.lab->estimator.get();
    for (const Query& query : c.queries) {
      SCOPED_TRACE(query.ToString());
      for (const Predicate& p : query.predicates()) {
        kinds[static_cast<int>(p.kind)] = true;
      }
      std::vector<Subquery> subqueries = AllConnected(query);
      std::vector<double> batch = baseline->EstimateSubqueryBatch(subqueries);
      ASSERT_EQ(batch.size(), subqueries.size());
      KeyHashParts hashes(query);
      for (size_t i = 0; i < subqueries.size(); ++i) {
        EXPECT_EQ(batch[i], baseline->EstimateSubquery(subqueries[i]));
        EXPECT_EQ(hashes.Of(subqueries[i].tables), subqueries[i].KeyHash());
      }
    }
    // One batch that alternates between two queries' subsets.
    std::vector<Subquery> a = AllConnected(c.queries[0]);
    std::vector<Subquery> b = AllConnected(c.queries[1]);
    std::vector<Subquery> mixed;
    for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
      if (i < a.size()) mixed.push_back(a[i]);
      if (i < b.size()) mixed.push_back(b[i]);
    }
    std::vector<double> batch = baseline->EstimateSubqueryBatch(mixed);
    ASSERT_EQ(batch.size(), mixed.size());
    for (size_t i = 0; i < mixed.size(); ++i) {
      EXPECT_EQ(batch[i], baseline->EstimateSubquery(mixed[i]));
    }
  }
  EXPECT_TRUE(kinds[static_cast<int>(PredicateKind::kEquals)]);
  EXPECT_TRUE(kinds[static_cast<int>(PredicateKind::kIn)]);
  EXPECT_TRUE(kinds[static_cast<int>(PredicateKind::kRange)]);
}

// A provider set up by `setup`, asked for `sets` through one batch, must
// answer exactly as a twin asked subset by subset: the same values, memo
// counters and estimator call sequence, on the provider and on its base.
void ExpectBatchMatchesScalar(
    CardinalityEstimatorInterface* base, const Query& query,
    const std::vector<TableSet>& sets,
    const std::function<void(CardinalityProvider*)>& setup,
    double scale_factor = 1.0, int scale_min_tables = 0) {
  RecordingEstimator got_recorder(base);
  RecordingEstimator want_recorder(base);
  CardinalityProvider got_base(&got_recorder);
  CardinalityProvider want_base(&want_recorder);
  CardinalityProvider got_view(&got_base, scale_factor, scale_min_tables);
  CardinalityProvider want_view(&want_base, scale_factor, scale_min_tables);
  bool view = scale_min_tables > 0;
  CardinalityProvider* got = view ? &got_view : &got_base;
  CardinalityProvider* want = view ? &want_view : &want_base;
  setup(got);
  setup(want);

  std::vector<double> batch;
  got->CardinalityBatch(query, sets, &batch);
  ASSERT_EQ(batch.size(), sets.size());
  for (size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(batch[i], want->Cardinality(Subquery{&query, sets[i]}))
        << "subset " << sets[i];
  }
  EXPECT_EQ(got->Stats().hits, want->Stats().hits);
  EXPECT_EQ(got->Stats().misses, want->Stats().misses);
  EXPECT_EQ(got_base.Stats().hits, want_base.Stats().hits);
  EXPECT_EQ(got_base.Stats().misses, want_base.Stats().misses);
  EXPECT_EQ(got_recorder.calls(), want_recorder.calls());
}

TEST(BatchCardinalityTest, ProviderBatchMatchesScalarCardinality) {
  for (const BatchCase& c : BatchCases()) {
    CardinalityEstimatorInterface* baseline = c.lab->estimator.get();
    const Query& query = c.queries[0];
    SCOPED_TRACE(query.ToString());
    std::vector<TableSet> sets = ConnectedSubsets(query);
    auto none = [](CardinalityProvider*) {};

    // Plain, and with every subset asked for twice in one batch.
    ExpectBatchMatchesScalar(baseline, query, sets, none);
    std::vector<TableSet> twice = sets;
    twice.insert(twice.end(), sets.begin(), sets.end());
    ExpectBatchMatchesScalar(baseline, query, twice, none);

    // Overrides on every third subset (the rest still reach the estimator).
    auto overrides = [&](CardinalityProvider* cards) {
      for (size_t i = 0; i < sets.size(); i += 3) {
        cards->InjectOverride(Subquery{&query, sets[i]}.Key(),
                              0.5 + static_cast<double>(i));
      }
    };
    ExpectBatchMatchesScalar(baseline, query, sets, overrides);

    // A Lero-style scaled view, with and without overrides on the view.
    ExpectBatchMatchesScalar(baseline, query, sets, none, 3.5, 3);
    ExpectBatchMatchesScalar(baseline, query, sets, overrides, 0.25, 2);

    // A warm memo: every other subset asked for first, one at a time.
    auto warm = [&](CardinalityProvider* cards) {
      for (size_t i = 0; i < sets.size(); i += 2) {
        cards->Cardinality(Subquery{&query, sets[i]});
      }
    };
    ExpectBatchMatchesScalar(baseline, query, sets, warm);
    ExpectBatchMatchesScalar(baseline, query, sets, warm, 2.0, 2);
  }
}

// ---------------------------------------------------------------------------
// The provider memo across batches, views and clears.

// Twin providers over recording estimators: one asked through
// CardinalityBatch(), the other subset by subset through Cardinality().
// After every step both must hold the same answers, memo counters and
// estimator call sequences.
class ProviderTwins {
 public:
  explicit ProviderTwins(CardinalityEstimatorInterface* base)
      : batch_recorder_(base),
        scalar_recorder_(base),
        batch_(&batch_recorder_),
        scalar_(&scalar_recorder_) {}

  CardinalityProvider& batch() { return batch_; }
  CardinalityProvider& scalar() { return scalar_; }

  // Applies `step` to both providers.
  void Both(const std::function<void(CardinalityProvider*)>& step) {
    step(&batch_);
    step(&scalar_);
  }

  void Ask(const Query& query, const std::vector<TableSet>& sets) {
    Ask(&batch_, &scalar_, query, sets);
  }

  // Asks `batch` for `sets` in one batch and `scalar` one subset at a time.
  static void Ask(CardinalityProvider* batch, CardinalityProvider* scalar,
                  const Query& query, const std::vector<TableSet>& sets) {
    std::vector<double> got;
    batch->CardinalityBatch(query, sets, &got);
    ASSERT_EQ(got.size(), sets.size());
    for (size_t i = 0; i < sets.size(); ++i) {
      EXPECT_EQ(got[i], scalar->Cardinality(Subquery{&query, sets[i]}))
          << "subset " << sets[i];
    }
    ExpectSameCounters(*batch, *scalar);
  }

  // Asks both providers for `sets` one subset at a time.
  void AskScalar(const Query& query, const std::vector<TableSet>& sets) {
    for (TableSet set : sets) {
      EXPECT_EQ(batch_.Cardinality(Subquery{&query, set}),
                scalar_.Cardinality(Subquery{&query, set}))
          << "subset " << set;
    }
    ExpectSameCounters(batch_, scalar_);
  }

  void ExpectSameHistory() const {
    ExpectSameCounters(batch_, scalar_);
    EXPECT_EQ(batch_recorder_.calls(), scalar_recorder_.calls());
  }

 private:
  static void ExpectSameCounters(const CardinalityProvider& a,
                                 const CardinalityProvider& b) {
    EXPECT_EQ(a.Stats().hits, b.Stats().hits);
    EXPECT_EQ(a.Stats().misses, b.Stats().misses);
  }

  RecordingEstimator batch_recorder_;
  RecordingEstimator scalar_recorder_;
  CardinalityProvider batch_;
  CardinalityProvider scalar_;
};

// Distinct Subquery keys among the connected subsets of `queries`: the
// number of misses a memo that never clears takes for them.
size_t DistinctKeys(const std::vector<Query>& queries) {
  std::set<uint64_t> keys;
  for (const Query& query : queries) {
    for (TableSet set : ConnectedSubsets(query)) {
      keys.insert(Subquery{&query, set}.KeyHash());
    }
  }
  return keys.size();
}

// Bao asks for every connected subset once per arm, and a provider shared
// over a workload keeps growing: 8 chain templates, 7 batches each, grow
// the memo past several capacity doublings.
TEST(ProviderMemoTest, GrowsAcrossBatchesLikeScalarLookups) {
  auto lab = MakeLabFromCatalog(MakeChainSchema(12, 200, 42));
  ProviderTwins twins(lab->estimator.get());
  std::vector<Query> queries = ChainTemplates(*lab, 8).queries;
  size_t asked = 0;
  for (const Query& query : queries) {
    std::vector<TableSet> sets = ConnectedSubsets(query);
    asked += 7 * sets.size();
    for (int arm = 0; arm < 7; ++arm) twins.Ask(query, sets);
  }
  twins.ExpectSameHistory();
  size_t distinct = DistinctKeys(queries);
  EXPECT_EQ(twins.batch().Stats().misses, distinct);
  EXPECT_EQ(twins.batch().Stats().hits, asked - distinct);
  EXPECT_GT(distinct, 512u);
}

// In a self-join two aliases of one table have equal keys, so one batch
// asks for the same key twice: the second ask is a hit, as in scalar order.
TEST(ProviderMemoTest, KeyRepeatedWithinOneBatchIsAHit) {
  auto lab = MakeLabFromCatalog(MakeChainSchema(3, 200, 42));
  Query query;
  int a = query.AddTable("t1", "a");
  int b = query.AddTable("t1", "b");
  int c = query.AddTable("t0", "c");
  query.AddJoin(c, "id", a, "prev_id");
  query.AddJoin(c, "id", b, "prev_id");
  std::vector<TableSet> sets = ConnectedSubsets(query);
  ASSERT_EQ((Subquery{&query, TableBit(a)}.KeyHash()),
            (Subquery{&query, TableBit(b)}.KeyHash()));
  ProviderTwins twins(lab->estimator.get());
  twins.Ask(query, sets);
  twins.ExpectSameHistory();
  // {a} = {b} and {a, c} = {b, c}: two of the six subsets repeat a key.
  EXPECT_EQ(twins.batch().Stats().hits, 2u);
  EXPECT_EQ(twins.batch().Stats().misses, sets.size() - 2);
}

// Scalar lookups after a batch find what the batch stored, and a later
// batch finds what scalar lookups stored.
TEST(ProviderMemoTest, ScalarAndBatchLookupsShareTheMemo) {
  auto lab = MakeLabFromCatalog(MakeChainSchema(12, 200, 42));
  ProviderTwins twins(lab->estimator.get());
  std::vector<Query> queries = ChainTemplates(*lab, 2).queries;
  std::vector<TableSet> sets = ConnectedSubsets(queries[0]);
  std::vector<TableSet> half(sets.begin(), sets.begin() + sets.size() / 2);
  twins.Ask(queries[0], half);
  twins.AskScalar(queries[0], sets);
  twins.Ask(queries[0], sets);
  twins.AskScalar(queries[1], ConnectedSubsets(queries[1]));
  twins.Ask(queries[1], ConnectedSubsets(queries[1]));
  twins.ExpectSameHistory();
  EXPECT_EQ(twins.batch().Stats().misses, DistinctKeys(queries));
}

// Lero's scaled views share one base memo: each view scales the base's
// raw estimates, and the base estimates each subset once.
TEST(ProviderMemoTest, ScaledViewsShareTheBaseMemo) {
  auto lab = MakeLabFromCatalog(MakeChainSchema(12, 200, 42));
  ProviderTwins twins(lab->estimator.get());
  std::vector<Query> queries = ChainTemplates(*lab, 2).queries;
  for (double factor : {0.1, 1.0, 10.0, 100.0}) {
    CardinalityProvider batch_view(&twins.batch(), factor, 2);
    CardinalityProvider scalar_view(&twins.scalar(), factor, 2);
    for (const Query& query : queries) {
      ProviderTwins::Ask(&batch_view, &scalar_view, query,
                         ConnectedSubsets(query));
    }
  }
  twins.ExpectSameHistory();
  EXPECT_EQ(twins.batch().Stats().misses, DistinctKeys(queries));
}

// InjectOverride, SetScale and ClearOverrides empty the memo: the next
// batch asks for every subset again, and answers with the new settings.
TEST(ProviderMemoTest, OverridesAndScalingClearTheMemo) {
  auto lab = MakeLabFromCatalog(MakeChainSchema(12, 200, 42));
  ProviderTwins twins(lab->estimator.get());
  const Query query = ChainTemplates(*lab, 1).queries[0];
  std::vector<TableSet> sets = ConnectedSubsets(query);
  const std::string key = Subquery{&query, sets.back()}.Key();
  const std::vector<std::function<void(CardinalityProvider*)>> clears = {
      [&](CardinalityProvider* cards) { cards->InjectOverride(key, 7.5); },
      [](CardinalityProvider* cards) { cards->SetScale(4.0, 2); },
      [](CardinalityProvider* cards) { cards->ClearOverrides(); },
  };
  twins.Ask(query, sets);
  for (const auto& clear : clears) {
    uint64_t misses = twins.batch().Stats().misses;
    twins.Both(clear);
    twins.Ask(query, sets);
    EXPECT_EQ(twins.batch().Stats().misses, misses + sets.size());
  }
  twins.ExpectSameHistory();
}

}  // namespace
}  // namespace lqo
