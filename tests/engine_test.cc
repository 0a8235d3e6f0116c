#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "engine/agg_kernels.h"
#include "engine/executor.h"
#include "engine/filter_kernels.h"
#include "engine/simd.h"
#include "engine/plan.h"
#include "engine/explain.h"
#include "engine/true_cardinality.h"
#include "engine/vec_batch.h"
#include "naive_exec_oracle.h"
#include "query/workload.h"
#include "storage/datasets.h"

namespace lqo {
namespace {

// Tiny hand-checkable database:
//   r(k, v):  (1,10) (1,20) (2,30) (3,40)
//   s(k, w):  (1,100) (2,200) (2,300) (4,400)
// r join s on k: k=1 -> 2*1, k=2 -> 1*2  => 4 rows.
Catalog MakeToyCatalog() {
  Catalog catalog;
  {
    TableBuilder b("r");
    b.AddInt64Column("k");
    b.AddInt64Column("v");
    b.AppendRow({1, 10});
    b.AppendRow({1, 20});
    b.AppendRow({2, 30});
    b.AppendRow({3, 40});
    LQO_CHECK(catalog.AddTable(b.Build()).ok());
  }
  {
    TableBuilder b("s");
    b.AddInt64Column("k");
    b.AddInt64Column("w");
    b.AppendRow({1, 100});
    b.AppendRow({2, 200});
    b.AppendRow({2, 300});
    b.AppendRow({4, 400});
    LQO_CHECK(catalog.AddTable(b.Build()).ok());
  }
  LQO_CHECK(catalog
                .AddJoinEdge({.left_table = "r",
                              .left_column = "k",
                              .right_table = "s",
                              .right_column = "k"})
                .ok());
  return catalog;
}

Query MakeJoinQuery() {
  Query q;
  q.AddTable("r");
  q.AddTable("s");
  q.AddJoin(0, "k", 1, "k");
  return q;
}

TEST(PlanTest, MakeScanAndJoinNodes) {
  auto scan0 = MakeScanNode(0);
  EXPECT_EQ(scan0->kind, PlanNode::Kind::kScan);
  EXPECT_EQ(scan0->table_set, TableSet{1});
  auto join = MakeJoinNode(JoinAlgorithm::kHashJoin, MakeScanNode(0),
                           MakeScanNode(1));
  EXPECT_EQ(join->table_set, TableSet{0b11});
  EXPECT_EQ(join->kind, PlanNode::Kind::kJoin);
}

TEST(PlanTest, CloneIsDeep) {
  auto join = MakeJoinNode(JoinAlgorithm::kMergeJoin, MakeScanNode(0),
                           MakeScanNode(1));
  auto copy = join->Clone();
  EXPECT_EQ(copy->algorithm, JoinAlgorithm::kMergeJoin);
  EXPECT_NE(copy->left.get(), join->left.get());
  copy->algorithm = JoinAlgorithm::kHashJoin;
  EXPECT_EQ(join->algorithm, JoinAlgorithm::kMergeJoin);
}

TEST(PlanTest, SignatureEncodesShapeAndOperators) {
  Query q = MakeJoinQuery();
  PhysicalPlan plan;
  plan.query = &q;
  plan.root = MakeJoinNode(JoinAlgorithm::kNestedLoopJoin, MakeScanNode(0),
                           MakeScanNode(1));
  EXPECT_EQ(plan.Signature(), "(NL (S t0) (S t1))");
}

TEST(ExecutorTest, SingleTableScanCounts) {
  Catalog catalog = MakeToyCatalog();
  Executor executor(&catalog);
  Query q;
  q.AddTable("r");
  q.AddPredicate(Predicate::Range(0, "v", 15, 35));
  PhysicalPlan plan;
  plan.query = &q;
  plan.root = MakeScanNode(0);
  auto result = executor.Execute(plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->row_count, 2u);  // v=20, v=30
  EXPECT_GT(result->time_units, 0.0);
  ASSERT_EQ(result->node_profiles.size(), 1u);
  EXPECT_EQ(result->node_profiles[0].left_rows, 4u);
  EXPECT_EQ(result->node_profiles[0].output_rows, 2u);
}

TEST(ExecutorTest, HashJoinCountsMatchHandComputation) {
  Catalog catalog = MakeToyCatalog();
  Executor executor(&catalog);
  Query q = MakeJoinQuery();
  PhysicalPlan plan;
  plan.query = &q;
  plan.root = MakeJoinNode(JoinAlgorithm::kHashJoin, MakeScanNode(0),
                           MakeScanNode(1));
  auto result = executor.Execute(plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->row_count, 4u);
}

TEST(ExecutorTest, JoinResultInvariantToAlgorithmAndOrder) {
  Catalog catalog = MakeToyCatalog();
  Executor executor(&catalog);
  Query q = MakeJoinQuery();
  for (JoinAlgorithm algo :
       {JoinAlgorithm::kHashJoin, JoinAlgorithm::kNestedLoopJoin,
        JoinAlgorithm::kMergeJoin}) {
    for (bool swap : {false, true}) {
      PhysicalPlan plan;
      plan.query = &q;
      plan.root = swap ? MakeJoinNode(algo, MakeScanNode(1), MakeScanNode(0))
                       : MakeJoinNode(algo, MakeScanNode(0), MakeScanNode(1));
      auto result = executor.Execute(plan);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->row_count, 4u)
          << JoinAlgorithmName(algo) << " swap=" << swap;
    }
  }
}

TEST(ExecutorTest, PredicatePushdownAffectsJoin) {
  Catalog catalog = MakeToyCatalog();
  Executor executor(&catalog);
  Query q = MakeJoinQuery();
  q.AddPredicate(Predicate::Equals(1, "w", 300));
  PhysicalPlan plan;
  plan.query = &q;
  plan.root = MakeJoinNode(JoinAlgorithm::kHashJoin, MakeScanNode(0),
                           MakeScanNode(1));
  auto result = executor.Execute(plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->row_count, 1u);  // only s(2,300) joins r(2,30).
}

TEST(ExecutorTest, ChargesDeclaredAlgorithm) {
  Catalog catalog = MakeToyCatalog();
  Executor executor(&catalog);
  Query q = MakeJoinQuery();

  auto run = [&](JoinAlgorithm algo) {
    PhysicalPlan plan;
    plan.query = &q;
    plan.root = MakeJoinNode(algo, MakeScanNode(0), MakeScanNode(1));
    auto result = executor.Execute(plan);
    LQO_CHECK(result.ok());
    return result->time_units;
  };
  double hash = run(JoinAlgorithm::kHashJoin);
  double nlj = run(JoinAlgorithm::kNestedLoopJoin);
  double merge = run(JoinAlgorithm::kMergeJoin);
  EXPECT_NE(hash, nlj);
  EXPECT_NE(hash, merge);
  // On a tiny cached inner, NLJ is the cheapest algorithm — the cliff the
  // analytical model does not know about.
  EXPECT_LT(nlj, hash);
}

TEST(ExecutorTest, RejectsCrossProduct) {
  Catalog catalog = MakeToyCatalog();
  Executor executor(&catalog);
  Query q;
  q.AddTable("r");
  q.AddTable("s");  // no join edge
  PhysicalPlan plan;
  plan.query = &q;
  plan.root = MakeJoinNode(JoinAlgorithm::kHashJoin, MakeScanNode(0),
                           MakeScanNode(1));
  auto result = executor.Execute(plan);
  EXPECT_FALSE(result.ok());
}

TEST(ExecutorTest, RejectsEmptyPlan) {
  Catalog catalog = MakeToyCatalog();
  Executor executor(&catalog);
  PhysicalPlan plan;
  EXPECT_FALSE(executor.Execute(plan).ok());
}

// Plans also come from learned producers, hints and PilotScope drivers, so
// Execute checks a plan's shape before running it.
TEST(ExecutorTest, RejectsScanIndexOutsideQuery) {
  Catalog catalog = MakeToyCatalog();
  Executor executor(&catalog);
  Query q = MakeJoinQuery();
  PhysicalPlan plan;
  plan.query = &q;
  plan.root = MakeJoinNode(JoinAlgorithm::kHashJoin, MakeScanNode(0),
                           MakeScanNode(2));  // q has tables 0 and 1
  auto result = executor.Execute(plan);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  plan.root = MakeScanNode(0);
  plan.root->table_index = -1;
  EXPECT_EQ(executor.Execute(plan).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ExecutorTest, RejectsNullJoinChild) {
  Catalog catalog = MakeToyCatalog();
  Executor executor(&catalog);
  Query q = MakeJoinQuery();
  PhysicalPlan plan;
  plan.query = &q;
  plan.root = MakeJoinNode(JoinAlgorithm::kHashJoin, MakeScanNode(0),
                           MakeScanNode(1));
  plan.root->right.reset();
  EXPECT_EQ(executor.Execute(plan).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ExecutorTest, RejectsOverlappingJoinInputs) {
  Catalog catalog = MakeToyCatalog();
  Executor executor(&catalog);
  Query q = MakeJoinQuery();
  PhysicalPlan plan;
  plan.query = &q;
  // MakeJoinNode refuses overlapping inputs, so graft the overlap on after:
  // t0 joined with (t0 join t1), whose union is still the root's set.
  plan.root = MakeJoinNode(JoinAlgorithm::kHashJoin, MakeScanNode(0),
                           MakeScanNode(1));
  plan.root->right = MakeJoinNode(JoinAlgorithm::kHashJoin, MakeScanNode(0),
                                  MakeScanNode(1));
  EXPECT_EQ(executor.Execute(plan).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ExecutorTest, RejectsTableSetInconsistentWithChildren) {
  Catalog catalog = MakeToyCatalog();
  Executor executor(&catalog);
  Query q = MakeJoinQuery();
  PhysicalPlan plan;
  plan.query = &q;
  // A scan whose table_set is not its own table bit.
  plan.root = MakeJoinNode(JoinAlgorithm::kHashJoin, MakeScanNode(0),
                           MakeScanNode(1));
  plan.root->right->table_set = TableBit(0);
  EXPECT_EQ(executor.Execute(plan).status().code(),
            StatusCode::kInvalidArgument);
  // A join whose table_set is not the union of its inputs.
  plan.root = MakeJoinNode(JoinAlgorithm::kHashJoin, MakeScanNode(0),
                           MakeScanNode(1));
  plan.root->table_set = TableBit(0);
  EXPECT_EQ(executor.Execute(plan).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MakeLeftDeepPlanTest, CoversAllTablesConnected) {
  DatasetOptions options;
  options.scale = 0.05;
  Catalog catalog = MakeStatsLite(options);
  WorkloadOptions wopts;
  wopts.num_queries = 15;
  wopts.min_tables = 2;
  wopts.max_tables = 5;
  Workload workload = GenerateWorkload(catalog, wopts);
  Executor executor(&catalog);
  for (const Query& q : workload.queries) {
    PhysicalPlan plan =
        MakeLeftDeepPlan(q, q.AllTables(), JoinAlgorithm::kHashJoin);
    EXPECT_EQ(plan.root->table_set, q.AllTables());
    auto result = executor.Execute(plan);
    ASSERT_TRUE(result.ok()) << q.ToString() << "\n"
                             << result.status().ToString();
  }
}

TEST(TrueCardinalityTest, MatchesDirectExecutionAndCaches) {
  Catalog catalog = MakeToyCatalog();
  TrueCardinalityService service(&catalog);
  Query q = MakeJoinQuery();
  EXPECT_EQ(service.Cardinality(q), 4u);
  size_t after_first = service.cache_size();
  EXPECT_EQ(service.Cardinality(q), 4u);
  EXPECT_EQ(service.cache_size(), after_first) << "second call should hit cache";

  // Single-table subquery.
  Subquery sub{&q, TableBit(0)};
  EXPECT_EQ(service.Cardinality(sub), 4u);
}

TEST(ExplainAnalyzeTest, RendersEstimatesActualsAndFlagsErrors) {
  Catalog catalog = MakeToyCatalog();
  Executor executor(&catalog);
  Query q = MakeJoinQuery();
  PhysicalPlan plan;
  plan.query = &q;
  plan.root = MakeJoinNode(JoinAlgorithm::kHashJoin, MakeScanNode(0),
                           MakeScanNode(1));
  plan.root->estimated_cardinality = 100.0;  // wildly wrong on purpose.
  plan.root->left->estimated_cardinality = 4.0;
  plan.root->right->estimated_cardinality = 4.0;
  auto result = executor.Execute(plan);
  ASSERT_TRUE(result.ok());
  std::string text = ExplainAnalyze(plan, *result);
  EXPECT_NE(text.find("HashJoin"), std::string::npos);
  EXPECT_NE(text.find("Scan r t0"), std::string::npos);
  EXPECT_NE(text.find("actual=4"), std::string::npos);
  EXPECT_NE(text.find("q-error 25"), std::string::npos)
      << text;  // 100 est vs 4 actual.
  EXPECT_NE(text.find("Total: 4 rows"), std::string::npos);
  // Hash joins report open-addressing collision counts and the radix
  // partition fan-out; a 4-row toy join stays on the serial single
  // partition path.
  EXPECT_NE(text.find("collisions="), std::string::npos) << text;
  EXPECT_NE(text.find("partitions=1"), std::string::npos) << text;
}

// --- Vectorized execution: kernels, edge cases, SIMD-level and
// thread-count bit-equality, and agreement with the naive oracle of
// tests/naive_exec_oracle.h (DESIGN.md "Vectorized execution"). -----------

// Full ExecutionResult equality, excluding the wall-clock *_seconds
// diagnostics — the only fields outside the determinism contract.
void ExpectResultsBitIdentical(const ExecutionResult& a,
                               const ExecutionResult& b) {
  EXPECT_EQ(a.row_count, b.row_count);
  EXPECT_EQ(a.time_units, b.time_units);
  EXPECT_EQ(a.output_row_count, b.output_row_count);
  ASSERT_EQ(a.output_cols.size(), b.output_cols.size());
  for (size_t c = 0; c < a.output_cols.size(); ++c) {
    EXPECT_EQ(a.output_cols[c], b.output_cols[c]) << "output col " << c;
  }
  ASSERT_EQ(a.node_profiles.size(), b.node_profiles.size());
  for (size_t i = 0; i < a.node_profiles.size(); ++i) {
    const NodeProfile& p = a.node_profiles[i];
    const NodeProfile& q = b.node_profiles[i];
    EXPECT_EQ(p.kind, q.kind) << "node " << i;
    EXPECT_EQ(p.algorithm, q.algorithm) << "node " << i;
    EXPECT_EQ(p.table_index, q.table_index) << "node " << i;
    EXPECT_EQ(p.left_rows, q.left_rows) << "node " << i;
    EXPECT_EQ(p.right_rows, q.right_rows) << "node " << i;
    EXPECT_EQ(p.output_rows, q.output_rows) << "node " << i;
    EXPECT_EQ(p.time_units, q.time_units) << "node " << i;
    EXPECT_EQ(p.build_collisions, q.build_collisions) << "node " << i;
    EXPECT_EQ(p.probe_collisions, q.probe_collisions) << "node " << i;
    EXPECT_EQ(p.partitions, q.partitions) << "node " << i;
    EXPECT_EQ(p.carried_columns, q.carried_columns) << "node " << i;
    EXPECT_EQ(p.materialized_values, q.materialized_values) << "node " << i;
    EXPECT_EQ(p.groups, q.groups) << "node " << i;
  }
}

// Checks `got` (the engine's result for `plan`) against the naive oracle:
// row_count and output_row_count; every node's output_rows, and its
// left_rows/right_rows, recomputed from the node's table_set; groups on the
// output node; and the output values. Output rows must match in exact order
// for scan-rooted plans (base-row order, GROUP BY in first-seen order) and
// for global aggregates, and as sorted multisets over joins.
void ExpectMatchesOracle(const Catalog& catalog, const PhysicalPlan& plan,
                         const ExecutionResult& got) {
  const Query& query = *plan.query;
  oracle::NaiveEvaluator naive(catalog, query);
  const PlanNode& root = *plan.root;
  EXPECT_EQ(got.row_count, naive.Evaluate(root.table_set).size());
  std::vector<const PlanNode*> nodes;
  VisitPlanBottomUp(root, [&](const PlanNode& n) { nodes.push_back(&n); });
  ASSERT_EQ(got.node_profiles.size(),
            nodes.size() + (query.HasOutputStage() ? 1 : 0));
  for (size_t i = 0; i < nodes.size(); ++i) {
    const PlanNode& node = *nodes[i];
    const NodeProfile& p = got.node_profiles[i];
    EXPECT_EQ(p.output_rows, naive.Evaluate(node.table_set).size())
        << "node " << i;
    if (node.kind == PlanNode::Kind::kScan) {
      EXPECT_EQ(p.left_rows, naive.BaseRows(node.table_index)) << "node " << i;
    } else {
      EXPECT_EQ(p.left_rows, naive.Evaluate(node.left->table_set).size())
          << "node " << i;
      EXPECT_EQ(p.right_rows, naive.Evaluate(node.right->table_set).size())
          << "node " << i;
    }
  }
  if (!query.HasOutputStage()) {
    EXPECT_EQ(got.output_row_count, 0u);
    EXPECT_TRUE(got.output_cols.empty());
    return;
  }
  std::vector<std::vector<int64_t>> want = naive.Output(root.table_set);
  EXPECT_EQ(got.output_row_count, want.size());
  EXPECT_EQ(got.node_profiles.back().groups,
            query.has_group_by() ? want.size() : 0u);
  ASSERT_EQ(got.output_cols.size(), query.outputs().size());
  std::vector<std::vector<int64_t>> rows(got.output_row_count);
  for (const std::vector<int64_t>& col : got.output_cols) {
    ASSERT_EQ(col.size(), rows.size());
    for (size_t r = 0; r < rows.size(); ++r) rows[r].push_back(col[r]);
  }
  bool global_aggregate = !query.has_group_by() &&
                          query.outputs()[0].kind ==
                              OutputExpr::Kind::kAggregate;
  if (root.kind != PlanNode::Kind::kScan && !global_aggregate) {
    std::sort(rows.begin(), rows.end());
    std::sort(want.begin(), want.end());
  }
  EXPECT_EQ(rows, want);
}

// Restores the active SIMD level on scope exit so tests compose.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(simd::Level level)
      : previous_(simd::SetLevelForTest(level)) {}
  ~ScopedSimdLevel() { simd::SetLevelForTest(previous_); }

 private:
  simd::Level previous_;
};

// Executes `plan` at every supported SIMD level and thread count 1/2/8 and
// expects one bit-identical ExecutionResult — time_units and the collision
// and partition counters included — equal to the scalar-level, one-thread
// run, which must in turn match the naive oracle. The scalar-level result
// lands in `*out` when given.
void ExpectPlanInvariantAcrossLevelsAndThreads(const Catalog& catalog,
                                               const PhysicalPlan& plan,
                                               ExecutionResult* out = nullptr) {
  Executor executor(&catalog);
  simd::Level entry = simd::ActiveLevel();
  ExecutionResult reference;
  bool have_reference = false;
  for (simd::Level level : simd::SupportedLevels()) {
    ScopedSimdLevel scoped(level);
    for (int threads : {1, 2, 8}) {
      ThreadPool::SetGlobalThreads(static_cast<size_t>(threads));
      auto got = executor.Execute(plan);
      ASSERT_TRUE(got.ok())
          << "level=" << simd::LevelName(level) << " threads=" << threads
          << ": " << got.status().ToString();
      SCOPED_TRACE(std::string("level=") + simd::LevelName(level) +
                   " threads=" + std::to_string(threads));
      if (!have_reference) {
        reference = *got;
        have_reference = true;
      } else {
        ExpectResultsBitIdentical(*got, reference);
      }
    }
  }
  ThreadPool::SetGlobalThreads(ThreadPool::ParseThreadCount(nullptr));
  simd::SetLevelForTest(entry);
  ExpectMatchesOracle(catalog, plan, reference);
  if (out != nullptr) *out = reference;
}

// Two joinable tables of parameterized size with overlapping skewed keys
// (hash chains + collisions) and filterable value columns.
Catalog MakeSyntheticCatalog(size_t rows_a, size_t rows_b) {
  Catalog catalog;
  {
    TableBuilder b("big_a");
    b.AddInt64Column("k");
    b.AddInt64Column("v");
    for (size_t i = 0; i < rows_a; ++i) {
      b.AppendRow({static_cast<int64_t>((i * 37 + 11) % 512),
                   static_cast<int64_t>((i * 13) % 1000)});
    }
    LQO_CHECK(catalog.AddTable(b.Build()).ok());
  }
  {
    TableBuilder b("big_b");
    b.AddInt64Column("k");
    b.AddInt64Column("w");
    for (size_t i = 0; i < rows_b; ++i) {
      b.AppendRow({static_cast<int64_t>((i * 29 + 3) % 512),
                   static_cast<int64_t>(i % 7)});
    }
    LQO_CHECK(catalog.AddTable(b.Build()).ok());
  }
  LQO_CHECK(catalog
                .AddJoinEdge({.left_table = "big_a",
                              .left_column = "k",
                              .right_table = "big_b",
                              .right_column = "k"})
                .ok());
  return catalog;
}

TEST(VectorizedKernelTest, KernelsMatchPredicateReference) {
  std::vector<int64_t> col;
  for (size_t i = 0; i < 2500; ++i) {
    col.push_back(static_cast<int64_t>((i * 31 + 7) % 97));
  }
  std::vector<Predicate> predicates = {
      Predicate::Equals(0, "c", 42),
      Predicate::Range(0, "c", 20, 60),
      Predicate::Range(0, "c", -5, 1000),  // fully selected
      Predicate::Range(0, "c", 200, 300),  // fully filtered
      Predicate::In(0, "c", {3, 5, 8, 13, 21, 34, 55, 89}),
  };
  std::vector<uint32_t> sel(col.size());
  std::vector<uint32_t> out(col.size());
  for (const Predicate& p : predicates) {
    // Dense kernel over the whole column vs per-row Matches.
    size_t got = FilterDense(p, col.data(), 0,
                             static_cast<uint32_t>(col.size()), out.data());
    std::vector<uint32_t> want;
    for (uint32_t r = 0; r < col.size(); ++r) {
      if (p.Matches(col[r])) want.push_back(r);
    }
    ASSERT_EQ(got, want.size());
    for (size_t i = 0; i < got; ++i) EXPECT_EQ(out[i], want[i]);
    // Sel kernel refining every third row.
    size_t count = 0;
    for (uint32_t r = 0; r < col.size(); r += 3) sel[count++] = r;
    got = FilterSel(p, col.data(), sel.data(), count, out.data());
    want.clear();
    for (size_t i = 0; i < count; ++i) {
      if (p.Matches(col[sel[i]])) want.push_back(sel[i]);
    }
    ASSERT_EQ(got, want.size());
    for (size_t i = 0; i < got; ++i) EXPECT_EQ(out[i], want[i]);
  }
  // Empty batch: zero rows in, zero survivors out.
  EXPECT_EQ(FilterDense(predicates[0], col.data(), 5, 5, out.data()), 0u);
  EXPECT_EQ(FilterSel(predicates[0], col.data(), sel.data(), 0, out.data()),
            0u);
}

TEST(VectorizedScanTest, EdgeCaseSelectionsMatchScalar) {
  // Batch-size boundaries around kVecBatchRows and the morsel/parallel
  // thresholds; predicates that select everything, nothing, and a mix. Each
  // plan runs at every SIMD level (the scalar level is the reference) and
  // thread count, and is checked against the naive oracle.
  for (size_t rows : {size_t{1}, kVecBatchRows - 1, kVecBatchRows,
                      kVecBatchRows + 1, size_t{4096}, size_t{8193}}) {
    Catalog catalog = MakeSyntheticCatalog(rows, 16);
    struct Case {
      const char* name;
      std::vector<Predicate> predicates;
    };
    std::vector<Case> cases = {
        {"all", {Predicate::Range(0, "v", -1, 10000)}},
        {"none", {Predicate::Range(0, "v", 5000, 6000)}},
        {"mixed", {Predicate::Range(0, "v", 100, 700)}},
        {"chained",
         {Predicate::Range(0, "v", 100, 700), Predicate::In(0, "k", {1, 2, 3}),
          Predicate::Equals(0, "v", 104)}},
        {"nopred", {}},
    };
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.name) + " rows=" + std::to_string(rows));
      Query q;
      q.AddTable("big_a");
      for (const Predicate& p : c.predicates) q.AddPredicate(p);
      PhysicalPlan plan;
      plan.query = &q;
      plan.root = MakeScanNode(0);
      ExpectPlanInvariantAcrossLevelsAndThreads(catalog, plan);
    }
  }
}

TEST(VectorizedJoinTest, MatchesScalarBitForBitAcrossThreads) {
  // Sizes straddle the parallel-join threshold (8192 build+probe rows) and
  // the batch size, so both the single-partition and the 16-partition radix
  // paths are exercised; match counts exceed kVecBatchRows per partition on
  // the larger sizes, exercising the match-buffer flush.
  struct Shape {
    size_t rows_a, rows_b;
  };
  for (Shape shape : {Shape{100, 50}, Shape{1025, 1023}, Shape{4096, 4095},
                      Shape{9000, 3000}}) {
    SCOPED_TRACE(std::to_string(shape.rows_a) + "x" +
                 std::to_string(shape.rows_b));
    Catalog catalog = MakeSyntheticCatalog(shape.rows_a, shape.rows_b);
    Query q;
    q.AddTable("big_a");
    q.AddTable("big_b");
    q.AddJoin(0, "k", 1, "k");
    q.AddPredicate(Predicate::Range(1, "w", 0, 4));
    PhysicalPlan plan;
    plan.query = &q;
    plan.root = MakeJoinNode(JoinAlgorithm::kHashJoin, MakeScanNode(0),
                             MakeScanNode(1));
    ExpectPlanInvariantAcrossLevelsAndThreads(catalog, plan);
  }
}

// --- SIMD dispatch layer: level detection, per-level kernel bit-equality,
// and the real merge/NLJ join paths (DESIGN.md "Vectorized execution" →
// "SIMD dispatch"). ---------------------------------------------------------

TEST(SimdDispatchTest, SupportedLevelsAndNames) {
  std::vector<simd::Level> levels = simd::SupportedLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), simd::Level::kScalar);
  for (size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LT(static_cast<int>(levels[i - 1]), static_cast<int>(levels[i]));
    EXPECT_TRUE(simd::LevelSupported(levels[i]));
  }
  EXPECT_TRUE(simd::LevelSupported(simd::BestSupportedLevel()));
  EXPECT_STREQ(simd::LevelName(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::LevelName(simd::Level::kAvx2), "avx2");
}

TEST(SimdDispatchTest, SetLevelForTestClampsUnsupported) {
  simd::Level entry = simd::ActiveLevel();
  for (int l = 0; l < simd::kNumLevels; ++l) {
    simd::Level level = static_cast<simd::Level>(l);
    simd::SetLevelForTest(level);
    if (simd::LevelSupported(level)) {
      EXPECT_EQ(simd::ActiveLevel(), level);
    } else {
      EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
      // The table for an unsupported level is the scalar reference.
      EXPECT_EQ(&simd::KernelsFor(level),
                &simd::KernelsFor(simd::Level::kScalar));
    }
  }
  simd::SetLevelForTest(entry);
}

// Every supported level must produce byte-identical survivor vectors and
// hash words on lane-width edge cases: empty inputs, single rows, sizes
// straddling multiples of the 4/8-row lane groups, and selections that
// keep everything or nothing (compressed-store full/empty masks). A second,
// mixed-sign column holds INT64_MIN/INT64_MAX so the signed compares meet
// scalar at the extremes: full-domain, negative and empty (lo > hi) ranges,
// and an IN list of negative values.
TEST(SimdKernelTest, AllLevelsMatchScalarOnEdgeSizes) {
  const simd::KernelTable& ref = simd::KernelsFor(simd::Level::kScalar);
  const std::vector<int64_t> small_in = {3, 5, 8, 13, 21, 34, 55, 89};
  const std::vector<int64_t> negative_in = {INT64_MIN, -40, -17, -3, 0,
                                            INT64_MAX};
  const int64_t eq_values[] = {42, -7, INT64_MIN, INT64_MAX};
  const std::pair<int64_t, int64_t> ranges[] = {
      {20, 60},  {-5, 1000}, {200, 300},  {INT64_MIN, INT64_MAX},
      {-30, -2}, {60, 20},   {INT64_MIN, INT64_MIN}};
  const int64_t extremes[] = {INT64_MIN, INT64_MAX, INT64_MIN + 1,
                              INT64_MAX - 1};
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{5},
                   size_t{7}, size_t{8}, size_t{9}, size_t{1023},
                   size_t{1024}, size_t{1025}, size_t{8193}}) {
    std::vector<int64_t> small(n);
    std::vector<int64_t> mixed(n);
    for (size_t i = 0; i < n; ++i) {
      small[i] = static_cast<int64_t>((i * 31 + 7) % 97);
      mixed[i] = i % 5 == 0 ? extremes[(i / 5) % 4] : small[i] - 48;
    }
    // Selection of every third row, plus empty and full selections.
    std::vector<uint32_t> third;
    for (uint32_t r = 0; r < n; r += 3) third.push_back(r);
    std::vector<uint32_t> full(n);
    for (uint32_t r = 0; r < n; ++r) full[r] = r;
    std::vector<uint32_t> want(n + 1);
    std::vector<uint32_t> got(n + 1);
    for (const std::vector<int64_t>* col : {&small, &mixed}) {
      const int64_t* c = col->data();
      std::vector<uint64_t> want_hash(n, 0x12345678u);
      std::vector<uint64_t> got_hash(n);
      ref.hash_combine_column(want_hash.data(), c, 0, n);
      ref.hash_finalize(want_hash.data(), 0, n);
      for (simd::Level level : simd::SupportedLevels()) {
        if (level == simd::Level::kScalar) continue;
        const simd::KernelTable& kt = simd::KernelsFor(level);
        SCOPED_TRACE(std::string("level=") + simd::LevelName(level) +
                     " n=" + std::to_string(n) +
                     (col == &mixed ? " mixed" : " small"));
        auto check = [&](size_t want_count, size_t got_count) {
          ASSERT_EQ(want_count, got_count);
          for (size_t i = 0; i < want_count; ++i) {
            ASSERT_EQ(want[i], got[i]) << "survivor " << i;
          }
        };
        uint32_t un = static_cast<uint32_t>(n);
        for (int64_t v : eq_values) {
          check(ref.filter_eq_dense(c, 0, un, v, want.data()),
                kt.filter_eq_dense(c, 0, un, v, got.data()));
          for (const std::vector<uint32_t>* sel : {&third, &full}) {
            check(ref.filter_eq_sel(c, sel->data(), sel->size(), v,
                                    want.data()),
                  kt.filter_eq_sel(c, sel->data(), sel->size(), v,
                                   got.data()));
          }
        }
        for (auto [lo, hi] : ranges) {
          SCOPED_TRACE("range [" + std::to_string(lo) + ", " +
                       std::to_string(hi) + "]");
          check(ref.filter_range_dense(c, 0, un, lo, hi, want.data()),
                kt.filter_range_dense(c, 0, un, lo, hi, got.data()));
          for (const std::vector<uint32_t>* sel : {&third, &full}) {
            check(ref.filter_range_sel(c, sel->data(), sel->size(), lo, hi,
                                       want.data()),
                  kt.filter_range_sel(c, sel->data(), sel->size(), lo, hi,
                                      got.data()));
          }
        }
        for (const std::vector<int64_t>* in : {&small_in, &negative_in}) {
          check(ref.filter_in_dense(c, 0, un, in->data(), in->size(),
                                    want.data()),
                kt.filter_in_dense(c, 0, un, in->data(), in->size(),
                                   got.data()));
          for (const std::vector<uint32_t>* sel : {&third, &full}) {
            check(ref.filter_in_sel(c, sel->data(), sel->size(), in->data(),
                                    in->size(), want.data()),
                  kt.filter_in_sel(c, sel->data(), sel->size(), in->data(),
                                   in->size(), got.data()));
          }
        }
        // Empty selection.
        EXPECT_EQ(kt.filter_eq_sel(c, full.data(), 0, 42, got.data()), 0u);
        std::fill(got_hash.begin(), got_hash.end(), 0x12345678u);
        kt.hash_combine_column(got_hash.data(), c, 0, n);
        kt.hash_finalize(got_hash.data(), 0, n);
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(want_hash[i], got_hash[i]) << "hash word " << i;
        }
      }
    }
  }
}

TEST(SimdJoinTest, MergeJoinDuplicateRunsMatchScalarAndHash) {
  // Key space of 512 over thousands of rows → long duplicate runs on both
  // sides, exercising galloping run detection and the batched cross-product
  // emission (match buffers overflow kVecBatchRows within single runs).
  Catalog catalog = MakeSyntheticCatalog(3000, 2000);
  Query q;
  q.AddTable("big_a");
  q.AddTable("big_b");
  q.AddJoin(0, "k", 1, "k");
  PhysicalPlan plan;
  plan.query = &q;
  plan.root = MakeJoinNode(JoinAlgorithm::kMergeJoin, MakeScanNode(0),
                           MakeScanNode(1));
  ExpectPlanInvariantAcrossLevelsAndThreads(catalog, plan);
  // Same row count as the hash strategy (same multiset contract).
  Executor executor(&catalog);
  auto merge = executor.Execute(plan);
  plan.root = MakeJoinNode(JoinAlgorithm::kHashJoin, MakeScanNode(0),
                           MakeScanNode(1));
  auto hash = executor.Execute(plan);
  ASSERT_TRUE(merge.ok() && hash.ok());
  EXPECT_EQ(merge->row_count, hash->row_count);
  EXPECT_GT(merge->row_count, 0u);
}

TEST(SimdJoinTest, NestedLoopBatchesMatchScalarAndHash) {
  // 1500 x 1300 = 1.95M pairs — under the 2^22 NLJ gate, so the real block
  // NLJ runs; inner batches hit full/partial kVecBatchRows boundaries.
  Catalog catalog = MakeSyntheticCatalog(1500, 1300);
  Query q;
  q.AddTable("big_a");
  q.AddTable("big_b");
  q.AddJoin(0, "k", 1, "k");
  q.AddPredicate(Predicate::Range(1, "w", 0, 4));
  PhysicalPlan plan;
  plan.query = &q;
  plan.root = MakeJoinNode(JoinAlgorithm::kNestedLoopJoin, MakeScanNode(0),
                           MakeScanNode(1));
  ExpectPlanInvariantAcrossLevelsAndThreads(catalog, plan);
  Executor executor(&catalog);
  auto nlj = executor.Execute(plan);
  plan.root = MakeJoinNode(JoinAlgorithm::kHashJoin, MakeScanNode(0),
                           MakeScanNode(1));
  auto hash = executor.Execute(plan);
  ASSERT_TRUE(nlj.ok() && hash.ok());
  EXPECT_EQ(nlj->row_count, hash->row_count);
  EXPECT_GT(nlj->row_count, 0u);
}

TEST(SimdJoinTest, AboveGateDeclaredJoinsFallBackToHash) {
  // 3000 x 2000 = 6M pairs > 2^22: an NLJ-declared node must take the hash
  // strategy (partitioned once past the parallel threshold) yet still charge
  // quadratic NLJ time.
  Catalog catalog = MakeSyntheticCatalog(3000, 2000);
  Executor executor(&catalog);
  Query q;
  q.AddTable("big_a");
  q.AddTable("big_b");
  q.AddJoin(0, "k", 1, "k");
  PhysicalPlan plan;
  plan.query = &q;
  plan.root = MakeJoinNode(JoinAlgorithm::kNestedLoopJoin, MakeScanNode(0),
                           MakeScanNode(1));
  auto nlj = executor.Execute(plan);
  plan.root = MakeJoinNode(JoinAlgorithm::kHashJoin, MakeScanNode(0),
                           MakeScanNode(1));
  auto hash = executor.Execute(plan);
  ASSERT_TRUE(nlj.ok() && hash.ok());
  EXPECT_EQ(nlj->row_count, hash->row_count);
  ExpectMatchesOracle(catalog, plan, *hash);
  // Hash execution internals leak only into diagnostics, never charging:
  // the NLJ-declared node still pays the quadratic pair cost.
  EXPECT_GT(nlj->node_profiles.back().time_units,
            hash->node_profiles.back().time_units);
  EXPECT_EQ(nlj->node_profiles.back().partitions,
            hash->node_profiles.back().partitions);
}

TEST(SimdJoinTest, ScanFilterPlanInvariantAcrossLevels) {
  Catalog catalog = MakeSyntheticCatalog(8193, 16);
  Query q;
  q.AddTable("big_a");
  q.AddPredicate(Predicate::Range(0, "v", 100, 700));
  q.AddPredicate(Predicate::In(0, "k", {1, 2, 3, 5, 8, 13}));
  PhysicalPlan plan;
  plan.query = &q;
  plan.root = MakeScanNode(0);
  ExpectPlanInvariantAcrossLevelsAndThreads(catalog, plan);
}

// --- Late-materialization output stage: aggregation kernels, projection,
// grouped aggregation (DESIGN.md "Late materialization & output pipeline").

// Every supported level's aggregation kernels must equal the scalar
// reference bit-for-bit at lane-width boundary sizes, through selections,
// and on wrapping-overflow sums.
TEST(AggregateKernelTest, AllLevelsMatchScalarAtBoundarySizes) {
  const simd::AggKernelTable& ref = simd::AggKernelsFor(simd::Level::kScalar);
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{5},
                   size_t{7}, size_t{8}, size_t{9}, size_t{1023},
                   size_t{1024}, size_t{1025}, size_t{8193}}) {
    std::vector<int64_t> col(n);
    for (size_t i = 0; i < n; ++i) {
      // Mixed signs, and huge values so multi-element sums wrap uint64.
      col[i] = static_cast<int64_t>((i * 31 + 7) % 97) - 48;
      if (i % 11 == 0) col[i] = INT64_MAX - static_cast<int64_t>(i);
      if (i % 13 == 6) col[i] = INT64_MIN;  // MIN at its extreme
    }
    std::vector<uint32_t> third;
    for (uint32_t r = 0; r < n; r += 3) third.push_back(r);
    std::vector<uint32_t> full(n);
    for (uint32_t r = 0; r < n; ++r) full[r] = r;
    uint32_t un = static_cast<uint32_t>(n);
    uint32_t mid = un / 3;  // sub-range with unaligned begin
    for (simd::Level level : simd::SupportedLevels()) {
      if (level == simd::Level::kScalar) continue;
      const simd::AggKernelTable& kt = simd::AggKernelsFor(level);
      SCOPED_TRACE(std::string("level=") + simd::LevelName(level) +
                   " n=" + std::to_string(n));
      EXPECT_EQ(ref.sum_dense(col.data(), 0, un),
                kt.sum_dense(col.data(), 0, un));
      EXPECT_EQ(ref.sum_dense(col.data(), mid, un),
                kt.sum_dense(col.data(), mid, un));
      EXPECT_EQ(ref.min_dense(col.data(), 0, un),
                kt.min_dense(col.data(), 0, un));
      EXPECT_EQ(ref.max_dense(col.data(), 0, un),
                kt.max_dense(col.data(), 0, un));
      for (const std::vector<uint32_t>* sel : {&third, &full}) {
        EXPECT_EQ(ref.sum_sel(col.data(), sel->data(), sel->size()),
                  kt.sum_sel(col.data(), sel->data(), sel->size()));
        EXPECT_EQ(ref.min_sel(col.data(), sel->data(), sel->size()),
                  kt.min_sel(col.data(), sel->data(), sel->size()));
        EXPECT_EQ(ref.max_sel(col.data(), sel->data(), sel->size()),
                  kt.max_sel(col.data(), sel->data(), sel->size()));
      }
      if (n > 6) {
        EXPECT_EQ(kt.min_dense(col.data(), 0, un), INT64_MIN);
        EXPECT_EQ(kt.min_sel(col.data(), third.data(), third.size()),
                  INT64_MIN);
      }
      // Empty inputs return the fold identities at every level.
      EXPECT_EQ(kt.sum_dense(col.data(), un, un), 0u);
      EXPECT_EQ(kt.min_sel(col.data(), full.data(), 0), INT64_MAX);
      EXPECT_EQ(kt.max_sel(col.data(), full.data(), 0), INT64_MIN);
    }
  }
}

TEST(GroupIndexTest, AssignsFirstSeenOrderIdsAcrossGrowth) {
  // 10k keys over 600 distinct values forces several doublings past the
  // initial capacity; ids must stay dense and first-seen ordered.
  const simd::KernelTable& kt = simd::KernelsFor(simd::Level::kScalar);
  std::vector<int64_t> keys(10000);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<int64_t>((i * 37 + 11) % 600) - 300;
  }
  std::vector<uint64_t> hashes(keys.size(), 0);
  kt.hash_combine_column(hashes.data(), keys.data(), 0, keys.size());
  kt.hash_finalize(hashes.data(), 0, keys.size());
  simd::GroupIndex index(4);
  std::vector<uint32_t> ids(keys.size());
  index.MapBatch(keys.data(), hashes.data(), keys.size(), ids.data());
  // Reference: first-seen order via a plain map.
  std::vector<int64_t> want_keys;
  std::vector<uint32_t> want_ids;
  for (int64_t k : keys) {
    size_t g = 0;
    for (; g < want_keys.size(); ++g) {
      if (want_keys[g] == k) break;
    }
    if (g == want_keys.size()) want_keys.push_back(k);
    want_ids.push_back(static_cast<uint32_t>(g));
  }
  ASSERT_EQ(index.num_groups(), want_keys.size());
  EXPECT_EQ(index.group_keys(), want_keys);
  EXPECT_EQ(ids, want_ids);
}

TEST(AggregateTest, GlobalAggregatesMatchHandComputation) {
  Catalog catalog = MakeToyCatalog();
  Query q;
  q.AddTable("r");
  q.AddPredicate(Predicate::Range(0, "v", 15, 35));  // v=20, v=30 qualify
  q.AddOutput(OutputExpr::CountStar());
  q.AddOutput(OutputExpr::Aggregate(AggFunc::kSum, 0, "v"));
  q.AddOutput(OutputExpr::Aggregate(AggFunc::kMin, 0, "v"));
  q.AddOutput(OutputExpr::Aggregate(AggFunc::kMax, 0, "v"));
  q.AddOutput(OutputExpr::Aggregate(AggFunc::kAvg, 0, "v"));
  PhysicalPlan plan;
  plan.query = &q;
  plan.root = MakeScanNode(0);
  ExecutionResult got;
  ASSERT_NO_FATAL_FAILURE(
      ExpectPlanInvariantAcrossLevelsAndThreads(catalog, plan, &got));
  EXPECT_EQ(got.row_count, 2u);  // qualifying-row semantics unchanged
  EXPECT_EQ(got.output_row_count, 1u);
  ASSERT_EQ(got.output_cols.size(), 5u);
  EXPECT_EQ(got.output_cols[0], (std::vector<int64_t>{2}));   // COUNT(*)
  EXPECT_EQ(got.output_cols[1], (std::vector<int64_t>{50}));  // SUM
  EXPECT_EQ(got.output_cols[2], (std::vector<int64_t>{20}));  // MIN
  EXPECT_EQ(got.output_cols[3], (std::vector<int64_t>{30}));  // MAX
  EXPECT_EQ(got.output_cols[4], (std::vector<int64_t>{25}));  // AVG
  // The sink appends one trailing profile: scan + output.
  ASSERT_EQ(got.node_profiles.size(), 2u);
  EXPECT_EQ(got.node_profiles.back().kind, PlanNode::Kind::kOutput);
  EXPECT_EQ(got.node_profiles.back().output_rows, 1u);
}

TEST(AggregateTest, EmptyInputAggregatesAreZero) {
  Catalog catalog = MakeToyCatalog();
  Query q;
  q.AddTable("r");
  q.AddPredicate(Predicate::Equals(0, "v", 999));  // matches nothing
  q.AddOutput(OutputExpr::CountStar());
  q.AddOutput(OutputExpr::Aggregate(AggFunc::kSum, 0, "v"));
  q.AddOutput(OutputExpr::Aggregate(AggFunc::kMin, 0, "v"));
  q.AddOutput(OutputExpr::Aggregate(AggFunc::kMax, 0, "v"));
  q.AddOutput(OutputExpr::Aggregate(AggFunc::kAvg, 0, "v"));
  PhysicalPlan plan;
  plan.query = &q;
  plan.root = MakeScanNode(0);
  ExecutionResult got;
  ASSERT_NO_FATAL_FAILURE(
      ExpectPlanInvariantAcrossLevelsAndThreads(catalog, plan, &got));
  EXPECT_EQ(got.row_count, 0u);
  EXPECT_EQ(got.output_row_count, 1u);  // one (all-zero) global agg row
  for (size_t o = 0; o < got.output_cols.size(); ++o) {
    EXPECT_EQ(got.output_cols[o], (std::vector<int64_t>{0})) << "output " << o;
  }
}

TEST(AggregateTest, SumOverflowWrapsModulo2To64) {
  // SUM wraps modulo 2^64 and AVG truncates the wrapped sum (AggFunc in
  // query/query.h): k=1 sums 2*INT64_MAX+5 = 3 (mod 2^64), AVG 1; k=2 sums
  // 2*INT64_MIN-7 = -7 (mod 2^64), AVG -2.
  Catalog catalog;
  {
    TableBuilder b("wide");
    b.AddInt64Column("k");
    b.AddInt64Column("v");
    b.AppendRow({1, INT64_MAX});
    b.AppendRow({2, INT64_MIN});
    b.AppendRow({1, INT64_MAX});
    b.AppendRow({2, INT64_MIN});
    b.AppendRow({1, 5});
    b.AppendRow({2, -7});
    LQO_CHECK(catalog.AddTable(b.Build()).ok());
  }
  Query q;
  q.AddTable("wide");
  q.AddOutput(OutputExpr::Column(0, "k"));
  q.AddOutput(OutputExpr::Aggregate(AggFunc::kSum, 0, "v"));
  q.AddOutput(OutputExpr::Aggregate(AggFunc::kAvg, 0, "v"));
  q.SetGroupBy(0, "k");
  PhysicalPlan plan;
  plan.query = &q;
  plan.root = MakeScanNode(0);
  ExecutionResult got;
  ASSERT_NO_FATAL_FAILURE(
      ExpectPlanInvariantAcrossLevelsAndThreads(catalog, plan, &got));
  ASSERT_EQ(got.output_cols.size(), 3u);
  EXPECT_EQ(got.output_cols[1], (std::vector<int64_t>{3, -7}));
  EXPECT_EQ(got.output_cols[2], (std::vector<int64_t>{1, -2}));

  Query global;
  global.AddTable("wide");
  global.AddOutput(OutputExpr::Aggregate(AggFunc::kSum, 0, "v"));
  global.AddOutput(OutputExpr::Aggregate(AggFunc::kAvg, 0, "v"));
  plan.query = &global;
  ASSERT_NO_FATAL_FAILURE(
      ExpectPlanInvariantAcrossLevelsAndThreads(catalog, plan, &got));
  EXPECT_EQ(got.output_cols[0], (std::vector<int64_t>{-4}));
  EXPECT_EQ(got.output_cols[1], (std::vector<int64_t>{0}));
}

TEST(AggregateTest, GroupByMatchesHandComputation) {
  Catalog catalog = MakeToyCatalog();
  Query q;
  q.AddTable("r");
  q.AddOutput(OutputExpr::Column(0, "k"));
  q.AddOutput(OutputExpr::CountStar());
  q.AddOutput(OutputExpr::Aggregate(AggFunc::kSum, 0, "v"));
  q.SetGroupBy(0, "k");
  PhysicalPlan plan;
  plan.query = &q;
  plan.root = MakeScanNode(0);
  ExecutionResult got;
  ASSERT_NO_FATAL_FAILURE(
      ExpectPlanInvariantAcrossLevelsAndThreads(catalog, plan, &got));
  // r = (1,10) (1,20) (2,30) (3,40): groups in first-seen order 1, 2, 3.
  EXPECT_EQ(got.row_count, 4u);
  EXPECT_EQ(got.output_row_count, 3u);
  ASSERT_EQ(got.output_cols.size(), 3u);
  EXPECT_EQ(got.output_cols[0], (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(got.output_cols[1], (std::vector<int64_t>{2, 1, 1}));
  EXPECT_EQ(got.output_cols[2], (std::vector<int64_t>{30, 30, 40}));
  EXPECT_EQ(got.node_profiles.back().groups, 3u);
}

TEST(AggregateTest, AllGroupsDistinctOnePerRow) {
  Catalog catalog = MakeToyCatalog();
  Query q;
  q.AddTable("r");
  q.AddOutput(OutputExpr::Column(0, "v"));
  q.AddOutput(OutputExpr::CountStar());
  q.SetGroupBy(0, "v");  // unique column: every row its own group
  PhysicalPlan plan;
  plan.query = &q;
  plan.root = MakeScanNode(0);
  ExecutionResult got;
  ASSERT_NO_FATAL_FAILURE(
      ExpectPlanInvariantAcrossLevelsAndThreads(catalog, plan, &got));
  EXPECT_EQ(got.output_row_count, 4u);
  EXPECT_EQ(got.output_cols[0], (std::vector<int64_t>{10, 20, 30, 40}));
  EXPECT_EQ(got.output_cols[1], (std::vector<int64_t>{1, 1, 1, 1}));
}

TEST(AggregateTest, SparseKeyDomainTakesHashGroupingPath) {
  // Keys spread over a huge domain defeat the dense direct-table mapping,
  // forcing the sink onto the hash + GroupIndex fallback — which must
  // still match the naive oracle, first-seen order included.
  Catalog catalog;
  {
    TableBuilder b("sparse");
    b.AddInt64Column("k");
    b.AddInt64Column("v");
    for (int64_t i = 0; i < 5000; ++i) {
      // 40 distinct keys ~2.6e14 apart: domain >> 2n+1024 and >> 1<<20.
      b.AppendRow({(i % 40) * 262'144'000'000'000, i});
    }
    LQO_CHECK(catalog.AddTable(b.Build()).ok());
  }
  Query q;
  q.AddTable("sparse");
  q.AddOutput(OutputExpr::Column(0, "k"));
  q.AddOutput(OutputExpr::CountStar());
  q.AddOutput(OutputExpr::Aggregate(AggFunc::kSum, 0, "v"));
  q.AddOutput(OutputExpr::Aggregate(AggFunc::kMin, 0, "v"));
  q.AddOutput(OutputExpr::Aggregate(AggFunc::kMax, 0, "v"));
  q.SetGroupBy(0, "k");
  PhysicalPlan plan;
  plan.query = &q;
  plan.root = MakeScanNode(0);
  ExecutionResult got;
  ASSERT_NO_FATAL_FAILURE(
      ExpectPlanInvariantAcrossLevelsAndThreads(catalog, plan, &got));
  EXPECT_EQ(got.output_row_count, 40u);
  // First-seen order: group g holds rows g, g+40, ... -> COUNT 125 each,
  // MIN = g, MAX = g + 4960.
  for (size_t g = 0; g < 40; ++g) {
    EXPECT_EQ(got.output_cols[0][g],
              static_cast<int64_t>(g) * 262'144'000'000'000);
    EXPECT_EQ(got.output_cols[1][g], 125);
    EXPECT_EQ(got.output_cols[3][g], static_cast<int64_t>(g));
    EXPECT_EQ(got.output_cols[4][g], static_cast<int64_t>(g) + 4960);
  }
}

TEST(AggregateTest, GroupByOverJoinCrossChecksRowCount) {
  // Per-group COUNT(*) over a join must sum to the plain COUNT(*) row count
  // of the identical join — the output stage cannot change join semantics.
  Catalog catalog = MakeSyntheticCatalog(9000, 3000);
  Executor executor(&catalog);
  Query q;
  q.AddTable("big_a");
  q.AddTable("big_b");
  q.AddJoin(0, "k", 1, "k");
  q.AddPredicate(Predicate::Range(1, "w", 0, 4));
  q.AddOutput(OutputExpr::Column(1, "w"));
  q.AddOutput(OutputExpr::CountStar());
  q.AddOutput(OutputExpr::Aggregate(AggFunc::kMax, 0, "v"));
  q.SetGroupBy(1, "w");
  PhysicalPlan plan;
  plan.query = &q;
  plan.root = MakeJoinNode(JoinAlgorithm::kHashJoin, MakeScanNode(0),
                           MakeScanNode(1));
  auto grouped = executor.Execute(plan);
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();

  Query plain;
  plain.AddTable("big_a");
  plain.AddTable("big_b");
  plain.AddJoin(0, "k", 1, "k");
  plain.AddPredicate(Predicate::Range(1, "w", 0, 4));
  PhysicalPlan plain_plan;
  plain_plan.query = &plain;
  plain_plan.root = MakeJoinNode(JoinAlgorithm::kHashJoin, MakeScanNode(0),
                                 MakeScanNode(1));
  auto counted = executor.Execute(plain_plan);
  ASSERT_TRUE(counted.ok());

  EXPECT_EQ(grouped->row_count, counted->row_count);
  uint64_t group_total = 0;
  for (int64_t c : grouped->output_cols[1]) {
    group_total += static_cast<uint64_t>(c);
  }
  EXPECT_EQ(group_total, counted->row_count);
  EXPECT_EQ(grouped->output_row_count, 5u);  // w in [0,4]
  ExpectMatchesOracle(catalog, plan, *grouped);
  ExpectMatchesOracle(catalog, plain_plan, *counted);
}

TEST(AggregateTest, GroupedJoinInvariantAcrossLevelsAndThreads) {
  Catalog catalog = MakeSyntheticCatalog(9000, 3000);
  Query q;
  q.AddTable("big_a");
  q.AddTable("big_b");
  q.AddJoin(0, "k", 1, "k");
  q.AddOutput(OutputExpr::Column(1, "w"));
  q.AddOutput(OutputExpr::CountStar());
  q.AddOutput(OutputExpr::Aggregate(AggFunc::kSum, 0, "v"));
  q.AddOutput(OutputExpr::Aggregate(AggFunc::kMin, 0, "v"));
  q.AddOutput(OutputExpr::Aggregate(AggFunc::kMax, 1, "w"));
  q.AddOutput(OutputExpr::Aggregate(AggFunc::kAvg, 0, "v"));
  q.SetGroupBy(1, "w");
  PhysicalPlan plan;
  plan.query = &q;
  plan.root = MakeJoinNode(JoinAlgorithm::kHashJoin, MakeScanNode(0),
                           MakeScanNode(1));
  ExpectPlanInvariantAcrossLevelsAndThreads(catalog, plan);
}

TEST(ProjectionTest, ScanProjectionMatchesReferenceAtBoundarySizes) {
  for (size_t rows : {size_t{1}, size_t{1023}, size_t{1024}, size_t{1025},
                      size_t{8193}}) {
    Catalog catalog = MakeSyntheticCatalog(rows, 16);
    Query q;
    q.AddTable("big_a");
    q.AddPredicate(Predicate::Range(0, "v", 100, 700));
    q.AddOutput(OutputExpr::Column(0, "v"));
    q.AddOutput(OutputExpr::Column(0, "k"));
    PhysicalPlan plan;
    plan.query = &q;
    plan.root = MakeScanNode(0);
    // The oracle holds the output to the qualifying rows in base-table
    // order, across every batch and morsel boundary.
    SCOPED_TRACE("rows=" + std::to_string(rows));
    ExpectPlanInvariantAcrossLevelsAndThreads(catalog, plan);
  }
}

TEST(ProjectionTest, JoinProjectionInvariantAcrossLevelsAndThreads) {
  Catalog catalog = MakeSyntheticCatalog(4096, 4095);
  Query q;
  q.AddTable("big_a");
  q.AddTable("big_b");
  q.AddJoin(0, "k", 1, "k");
  q.AddPredicate(Predicate::Range(1, "w", 0, 2));
  q.AddOutput(OutputExpr::Column(0, "v"));
  q.AddOutput(OutputExpr::Column(1, "w"));
  q.AddOutput(OutputExpr::Column(0, "k"));
  PhysicalPlan plan;
  plan.query = &q;
  plan.root = MakeJoinNode(JoinAlgorithm::kHashJoin, MakeScanNode(0),
                           MakeScanNode(1));
  ExpectPlanInvariantAcrossLevelsAndThreads(catalog, plan);
}

TEST(ExecutorTest, RejectsInvalidOutputStage) {
  Catalog catalog = MakeToyCatalog();
  Executor executor(&catalog);
  // Mixing bare columns and aggregates without GROUP BY.
  {
    Query q;
    q.AddTable("r");
    q.AddOutput(OutputExpr::Column(0, "v"));
    q.AddOutput(OutputExpr::Aggregate(AggFunc::kSum, 0, "v"));
    PhysicalPlan plan;
    plan.query = &q;
    plan.root = MakeScanNode(0);
    EXPECT_FALSE(executor.Execute(plan).ok());
  }
  // A bare column that is not the GROUP BY key.
  {
    Query q;
    q.AddTable("r");
    q.AddOutput(OutputExpr::Column(0, "v"));
    q.SetGroupBy(0, "k");
    PhysicalPlan plan;
    plan.query = &q;
    plan.root = MakeScanNode(0);
    EXPECT_FALSE(executor.Execute(plan).ok());
  }
  // Output referencing a table outside the plan.
  {
    Query q;
    q.AddTable("r");
    q.AddTable("s");
    q.AddJoin(0, "k", 1, "k");
    q.AddOutput(OutputExpr::Aggregate(AggFunc::kSum, 1, "w"));
    PhysicalPlan plan;
    plan.query = &q;
    plan.root = MakeScanNode(0);  // plan covers r only
    EXPECT_FALSE(executor.Execute(plan).ok());
  }
}

TEST(ExplainAnalyzeTest, RendersOutputStageAndMaterialization) {
  Catalog catalog = MakeToyCatalog();
  Executor executor(&catalog);
  Query q = MakeJoinQuery();
  q.AddOutput(OutputExpr::Column(0, "k"));
  q.AddOutput(OutputExpr::Aggregate(AggFunc::kSum, 1, "w"));
  q.SetGroupBy(0, "k");
  PhysicalPlan plan;
  plan.query = &q;
  plan.root = MakeJoinNode(JoinAlgorithm::kHashJoin, MakeScanNode(0),
                           MakeScanNode(1));
  auto result = executor.Execute(plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::string text = ExplainAnalyze(plan, *result);
  EXPECT_NE(text.find("Output t0.k, SUM(t1.w) GROUP BY t0.k"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("carried_cols="), std::string::npos) << text;
  EXPECT_NE(text.find("materialized="), std::string::npos) << text;
  EXPECT_NE(text.find("groups=2"), std::string::npos) << text;  // k=1, k=2
  EXPECT_NE(text.find("output rows"), std::string::npos) << text;
}

TEST(TrueCardinalityTest, SubqueryMonotoneUnderPredicates) {
  DatasetOptions options;
  options.scale = 0.05;
  Catalog catalog = MakeStatsLite(options);
  TrueCardinalityService service(&catalog);

  Query wide;
  wide.AddTable("users");
  wide.AddPredicate(Predicate::Range(0, "reputation", 0, 1000000));
  Query narrow;
  narrow.AddTable("users");
  narrow.AddPredicate(Predicate::Range(0, "reputation", 0, 100));
  EXPECT_GE(service.Cardinality(wide), service.Cardinality(narrow));
}

}  // namespace
}  // namespace lqo
