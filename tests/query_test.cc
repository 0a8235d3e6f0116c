#include <set>

#include <gtest/gtest.h>

#include "query/predicate.h"
#include "query/query.h"
#include "query/sql_parser.h"
#include "query/workload.h"
#include "storage/datasets.h"

namespace lqo {
namespace {

TEST(PredicateTest, EqualsMatches) {
  Predicate p = Predicate::Equals(0, "x", 5);
  EXPECT_TRUE(p.Matches(5));
  EXPECT_FALSE(p.Matches(4));
}

TEST(PredicateTest, RangeMatchesInclusive) {
  Predicate p = Predicate::Range(0, "x", 2, 4);
  EXPECT_FALSE(p.Matches(1));
  EXPECT_TRUE(p.Matches(2));
  EXPECT_TRUE(p.Matches(3));
  EXPECT_TRUE(p.Matches(4));
  EXPECT_FALSE(p.Matches(5));
}

TEST(PredicateTest, InDeduplicatesAndSorts) {
  Predicate p = Predicate::In(0, "x", {7, 3, 7, 1});
  EXPECT_EQ(p.in_values, (std::vector<int64_t>{1, 3, 7}));
  EXPECT_TRUE(p.Matches(3));
  EXPECT_FALSE(p.Matches(5));
}

Query MakeTriangleQuery() {
  // t0 -- t1 -- t2 with an extra edge t0 -- t2 (cycle).
  Query q;
  q.AddTable("a");
  q.AddTable("b");
  q.AddTable("c");
  q.AddJoin(0, "x", 1, "x");
  q.AddJoin(1, "y", 2, "y");
  q.AddJoin(0, "z", 2, "z");
  q.AddPredicate(Predicate::Equals(1, "v", 9));
  return q;
}

TEST(QueryTest, BasicAccessors) {
  Query q = MakeTriangleQuery();
  EXPECT_EQ(q.num_tables(), 3);
  EXPECT_EQ(q.AllTables(), TableSet{0b111});
  EXPECT_EQ(q.PredicatesOf(1).size(), 1u);
  EXPECT_TRUE(q.PredicatesOf(0).empty());
  EXPECT_EQ(q.Neighbors(0), (std::vector<int>{1, 2}));
}

TEST(QueryTest, JoinsWithinSubset) {
  Query q = MakeTriangleQuery();
  EXPECT_EQ(q.JoinsWithin(0b011).size(), 1u);
  EXPECT_EQ(q.JoinsWithin(0b111).size(), 3u);
  EXPECT_TRUE(q.JoinsWithin(0b001).empty());
}

TEST(QueryTest, Connectivity) {
  Query q;
  q.AddTable("a");
  q.AddTable("b");
  q.AddTable("c");
  q.AddJoin(0, "x", 1, "x");
  EXPECT_TRUE(q.IsConnected(0b011));
  EXPECT_FALSE(q.IsConnected(0b101));
  EXPECT_FALSE(q.IsConnected(0b111));
  EXPECT_TRUE(q.IsConnected(0b001));
}

TEST(QueryTest, ToStringRendersSql) {
  Query q = MakeTriangleQuery();
  std::string s = q.ToString();
  EXPECT_NE(s.find("SELECT COUNT(*) FROM a t0, b t1, c t2"),
            std::string::npos);
  EXPECT_NE(s.find("t0.x = t1.x"), std::string::npos);
  EXPECT_NE(s.find("t1.v = 9"), std::string::npos);
}

TEST(SubqueryTest, KeyCanonicalAcrossTableOrder) {
  // Same logical subquery expressed with different table indices must yield
  // the same key.
  Query q1;
  q1.AddTable("posts");
  q1.AddTable("users");
  q1.AddJoin(0, "owner_user_id", 1, "id");
  q1.AddPredicate(Predicate::Range(1, "reputation", 0, 10));

  Query q2;
  q2.AddTable("users");
  q2.AddTable("posts");
  q2.AddJoin(1, "owner_user_id", 0, "id");
  q2.AddPredicate(Predicate::Range(0, "reputation", 0, 10));

  Subquery s1{&q1, q1.AllTables()};
  Subquery s2{&q2, q2.AllTables()};
  EXPECT_EQ(s1.Key(), s2.Key());
}

TEST(SubqueryTest, KeyDistinguishesPredicates) {
  Query q1;
  q1.AddTable("users");
  q1.AddPredicate(Predicate::Range(0, "reputation", 0, 10));
  Query q2;
  q2.AddTable("users");
  q2.AddPredicate(Predicate::Range(0, "reputation", 0, 11));
  EXPECT_NE((Subquery{&q1, 1}).Key(), (Subquery{&q2, 1}).Key());
}

class WorkloadTest : public ::testing::TestWithParam<std::string> {
 protected:
  static DatasetOptions SmallOptions() {
    DatasetOptions options;
    options.scale = 0.1;
    return options;
  }
};

TEST_P(WorkloadTest, GeneratesConnectedQueriesWithValidPredicates) {
  Catalog catalog = *MakeDataset(GetParam(), SmallOptions());
  WorkloadOptions options;
  options.num_queries = 40;
  options.min_tables = 1;
  options.max_tables = 4;
  Workload workload = GenerateWorkload(catalog, options);
  ASSERT_EQ(workload.queries.size(), 40u);
  for (const Query& q : workload.queries) {
    EXPECT_TRUE(q.IsConnected(q.AllTables())) << q.ToString();
    EXPECT_GE(q.num_tables(), 1);
    EXPECT_LE(q.num_tables(), 4);
    for (const Predicate& p : q.predicates()) {
      const Table& t = **catalog.GetTable(
          q.tables()[static_cast<size_t>(p.table_index)].table_name);
      EXPECT_TRUE(t.HasColumn(p.column)) << p.ToString();
    }
    for (const QueryJoin& j : q.joins()) {
      EXPECT_NE(j.left_table, j.right_table);
    }
  }
}

TEST_P(WorkloadTest, Deterministic) {
  Catalog catalog = *MakeDataset(GetParam(), SmallOptions());
  WorkloadOptions options;
  options.num_queries = 10;
  Workload w1 = GenerateWorkload(catalog, options);
  Workload w2 = GenerateWorkload(catalog, options);
  for (size_t i = 0; i < w1.queries.size(); ++i) {
    EXPECT_EQ(w1.queries[i].ToString(), w2.queries[i].ToString());
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, WorkloadTest,
                         ::testing::ValuesIn(DatasetNames()));

TEST(PredicateColumnsTest, ExcludesJoinAndIdColumns) {
  DatasetOptions options;
  options.scale = 0.05;
  Catalog catalog = MakeStatsLite(options);
  auto cols = PredicateColumns(catalog, "posts");
  std::set<std::string> col_set(cols.begin(), cols.end());
  EXPECT_EQ(col_set.count("id"), 0u);
  EXPECT_EQ(col_set.count("owner_user_id"), 0u);
  EXPECT_EQ(col_set.count("score"), 1u);
}

class SqlParserTest : public ::testing::Test {
 protected:
  SqlParserTest() {
    DatasetOptions options;
    options.scale = 0.05;
    catalog_ = MakeStatsLite(options);
  }
  Catalog catalog_;
};

TEST_F(SqlParserTest, ParsesJoinQuery) {
  auto q = ParseSql(catalog_,
                    "SELECT COUNT(*) FROM users u, posts p "
                    "WHERE u.id = p.owner_user_id AND u.reputation >= 100 "
                    "AND p.score BETWEEN 1 AND 5;");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->num_tables(), 2);
  EXPECT_EQ(q->joins().size(), 1u);
  ASSERT_EQ(q->predicates().size(), 2u);
  EXPECT_EQ(q->predicates()[1].kind, PredicateKind::kRange);
  EXPECT_EQ(q->predicates()[1].lo, 1);
  EXPECT_EQ(q->predicates()[1].hi, 5);
}

TEST_F(SqlParserTest, ParsesInListAndStringLiteral) {
  auto q = ParseSql(catalog_,
                    "select count(*) from posts p where "
                    "p.post_type = 'ptype_1' and p.answer_count in (1, 2, 3)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->predicates().size(), 2u);
  EXPECT_EQ(q->predicates()[0].kind, PredicateKind::kEquals);
  EXPECT_EQ(q->predicates()[0].value, 1);  // dictionary code of 'ptype_1'
  EXPECT_EQ(q->predicates()[1].in_values.size(), 3u);
}

TEST_F(SqlParserTest, NormalizesInequalities) {
  auto q = ParseSql(catalog_,
                    "SELECT COUNT(*) FROM users u WHERE u.reputation < 50");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->predicates().size(), 1u);
  const Predicate& p = q->predicates()[0];
  EXPECT_EQ(p.kind, PredicateKind::kRange);
  EXPECT_EQ(p.hi, 49);
}

TEST_F(SqlParserTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseSql(catalog_, "SELECT * FROM users").ok());
  EXPECT_FALSE(ParseSql(catalog_, "SELECT COUNT(*) FROM nosuch").ok());
  EXPECT_FALSE(
      ParseSql(catalog_, "SELECT COUNT(*) FROM users u WHERE u.nope = 1").ok());
  EXPECT_FALSE(
      ParseSql(catalog_,
               "SELECT COUNT(*) FROM users u, posts p WHERE u.reputation = 1")
          .ok())
      << "cross product should be rejected";
  EXPECT_FALSE(ParseSql(catalog_, "").ok());
}

// Table indices are TableSet bits, so a longer FROM list is rejected
// instead of reaching the Query::AddTable check.
TEST_F(SqlParserTest, RejectsFromListBeyondTableLimit) {
  std::string sql = "SELECT COUNT(*) FROM users u0";
  for (int i = 1; i <= Query::kMaxTables; ++i) {
    sql += ", users u" + std::to_string(i);
  }
  StatusOr<Query> q = ParseSql(catalog_, sql);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(q.status().ToString().find("exceeds 64 tables"),
            std::string::npos)
      << q.status().ToString();
}

TEST_F(SqlParserTest, RoundTripsGeneratedQueries) {
  WorkloadOptions options;
  options.num_queries = 20;
  options.max_tables = 3;
  Workload workload = GenerateWorkload(catalog_, options);
  for (const Query& q : workload.queries) {
    auto parsed = ParseSql(catalog_, q.ToString());
    ASSERT_TRUE(parsed.ok())
        << q.ToString() << " -> " << parsed.status().ToString();
    EXPECT_EQ(parsed->num_tables(), q.num_tables());
    EXPECT_EQ(parsed->joins().size(), q.joins().size());
    EXPECT_EQ(parsed->predicates().size(), q.predicates().size());
  }
}

TEST_F(SqlParserTest, BareCountStarStaysLegacy) {
  // The literature's SELECT COUNT(*) must keep parsing to an empty select
  // list — the legacy cardinality-only query every estimator test uses.
  auto q = ParseSql(catalog_, "SELECT COUNT(*) FROM users u");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(q->HasOutputStage());
  EXPECT_TRUE(q->outputs().empty());
  EXPECT_FALSE(q->has_group_by());
}

TEST_F(SqlParserTest, ParsesSelectListAndGroupBy) {
  auto q = ParseSql(catalog_,
                    "SELECT p.post_type, COUNT(*), SUM(p.score), AVG(u.reputation) "
                    "FROM users u, posts p WHERE u.id = p.owner_user_id "
                    "GROUP BY p.post_type;");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->outputs().size(), 4u);
  EXPECT_EQ(q->outputs()[0].kind, OutputExpr::Kind::kColumn);
  EXPECT_EQ(q->outputs()[0].table_index, 1);
  EXPECT_EQ(q->outputs()[0].column, "post_type");
  EXPECT_FALSE(q->outputs()[1].ReferencesColumn());  // COUNT(*)
  EXPECT_EQ(q->outputs()[2].func, AggFunc::kSum);
  EXPECT_EQ(q->outputs()[2].table_index, 1);
  EXPECT_EQ(q->outputs()[3].func, AggFunc::kAvg);
  EXPECT_EQ(q->outputs()[3].table_index, 0);
  EXPECT_TRUE(q->has_group_by());
  EXPECT_EQ(q->group_by_table(), 1);
  EXPECT_EQ(q->group_by_column(), "post_type");
}

TEST_F(SqlParserTest, ParsesProjectionAndCountStarGroupBy) {
  auto proj = ParseSql(catalog_,
                       "SELECT u.reputation, u.up_votes FROM users u "
                       "WHERE u.reputation >= 100");
  ASSERT_TRUE(proj.ok()) << proj.status().ToString();
  ASSERT_EQ(proj->outputs().size(), 2u);
  EXPECT_EQ(proj->outputs()[0].kind, OutputExpr::Kind::kColumn);
  EXPECT_FALSE(proj->has_group_by());

  // GROUP BY promotes a bare COUNT(*) into an explicit per-group count.
  auto grouped = ParseSql(
      catalog_, "SELECT COUNT(*) FROM posts p GROUP BY p.post_type");
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  EXPECT_TRUE(grouped->HasOutputStage());
  ASSERT_EQ(grouped->outputs().size(), 1u);
  EXPECT_FALSE(grouped->outputs()[0].ReferencesColumn());
  EXPECT_TRUE(grouped->has_group_by());
}

TEST_F(SqlParserTest, RejectsBadSelectLists) {
  EXPECT_FALSE(
      ParseSql(catalog_, "SELECT nosuch.x FROM users u").ok());
  EXPECT_FALSE(
      ParseSql(catalog_, "SELECT u.nope FROM users u").ok());
  EXPECT_FALSE(
      ParseSql(catalog_, "SELECT MEDIAN(u.reputation) FROM users u").ok());
  EXPECT_FALSE(
      ParseSql(catalog_, "SELECT SUM(u.reputation FROM users u").ok());
  EXPECT_FALSE(ParseSql(catalog_,
                        "SELECT COUNT(*) FROM users u GROUP BY nosuch.x")
                   .ok());
}

TEST_F(SqlParserTest, RoundTripsOutputQueries) {
  WorkloadOptions options;
  options.num_queries = 30;
  options.max_tables = 3;
  options.output_stage_prob = 1.0;
  Workload workload = GenerateWorkload(catalog_, options);
  bool saw_group_by = false;
  for (const Query& q : workload.queries) {
    auto parsed = ParseSql(catalog_, q.ToString());
    ASSERT_TRUE(parsed.ok())
        << q.ToString() << " -> " << parsed.status().ToString();
    ASSERT_EQ(parsed->outputs().size(), q.outputs().size()) << q.ToString();
    for (size_t i = 0; i < q.outputs().size(); ++i) {
      EXPECT_EQ(parsed->outputs()[i].kind, q.outputs()[i].kind);
      EXPECT_EQ(parsed->outputs()[i].func, q.outputs()[i].func);
      EXPECT_EQ(parsed->outputs()[i].table_index, q.outputs()[i].table_index);
      EXPECT_EQ(parsed->outputs()[i].column, q.outputs()[i].column);
    }
    EXPECT_EQ(parsed->has_group_by(), q.has_group_by());
    if (q.has_group_by()) {
      saw_group_by = true;
      EXPECT_EQ(parsed->group_by_table(), q.group_by_table());
      EXPECT_EQ(parsed->group_by_column(), q.group_by_column());
    }
  }
  EXPECT_TRUE(saw_group_by) << "output workload never drew a GROUP BY shape";
}

TEST(WorkloadOutputTest, DefaultsDrawZeroExtraRngValues) {
  // Output-stage knobs are gated on output_stage_prob > 0: with the default
  // 0, changing the other knobs must not perturb the RNG stream, so the
  // workload is byte-identical to one generated before the knobs existed.
  DatasetOptions dopts;
  dopts.scale = 0.05;
  Catalog catalog = MakeStatsLite(dopts);
  WorkloadOptions plain;
  plain.num_queries = 25;
  WorkloadOptions knobs_changed = plain;
  knobs_changed.group_by_prob = 0.9;
  knobs_changed.max_output_items = 7;
  Workload w1 = GenerateWorkload(catalog, plain);
  Workload w2 = GenerateWorkload(catalog, knobs_changed);
  ASSERT_EQ(w1.queries.size(), w2.queries.size());
  for (size_t i = 0; i < w1.queries.size(); ++i) {
    EXPECT_EQ(w1.queries[i].ToString(), w2.queries[i].ToString());
    EXPECT_FALSE(w1.queries[i].HasOutputStage());
  }
}

TEST(WorkloadOutputTest, OutputStageShapesAreValid) {
  DatasetOptions dopts;
  dopts.scale = 0.05;
  Catalog catalog = MakeStatsLite(dopts);
  WorkloadOptions options;
  options.num_queries = 40;
  options.max_tables = 3;
  options.output_stage_prob = 1.0;
  Workload workload = GenerateWorkload(catalog, options);
  for (const Query& q : workload.queries) {
    ASSERT_TRUE(q.HasOutputStage()) << q.ToString();
    bool has_bare = false, has_agg = false;
    for (const OutputExpr& o : q.outputs()) {
      if (o.kind == OutputExpr::Kind::kColumn) {
        has_bare = true;
        // Bare columns only appear as the GROUP BY key or in pure
        // projections (the executor's validation contract).
        if (q.has_group_by()) {
          EXPECT_EQ(o.table_index, q.group_by_table()) << q.ToString();
          EXPECT_EQ(o.column, q.group_by_column()) << q.ToString();
        }
      } else {
        has_agg = true;
      }
      if (o.ReferencesColumn()) {
        const Table& t = **catalog.GetTable(
            q.tables()[static_cast<size_t>(o.table_index)].table_name);
        EXPECT_TRUE(t.HasColumn(o.column)) << q.ToString();
      }
    }
    if (has_bare && has_agg) {
      EXPECT_TRUE(q.has_group_by()) << q.ToString();
    }
  }
}

TEST(WorkloadOutputTest, ResampleConstantsPreservesOutputStage) {
  DatasetOptions dopts;
  dopts.scale = 0.05;
  Catalog catalog = MakeStatsLite(dopts);
  WorkloadOptions options;
  options.num_queries = 10;
  options.max_tables = 3;
  options.output_stage_prob = 1.0;
  Workload workload = GenerateWorkload(catalog, options);
  Rng rng(123);
  for (const Query& q : workload.queries) {
    Query r = ResampleConstants(catalog, q, rng);
    ASSERT_EQ(r.outputs().size(), q.outputs().size());
    for (size_t i = 0; i < q.outputs().size(); ++i) {
      EXPECT_EQ(r.outputs()[i].kind, q.outputs()[i].kind);
      EXPECT_EQ(r.outputs()[i].func, q.outputs()[i].func);
      EXPECT_EQ(r.outputs()[i].table_index, q.outputs()[i].table_index);
      EXPECT_EQ(r.outputs()[i].column, q.outputs()[i].column);
    }
    EXPECT_EQ(r.has_group_by(), q.has_group_by());
    if (q.has_group_by()) {
      EXPECT_EQ(r.group_by_table(), q.group_by_table());
      EXPECT_EQ(r.group_by_column(), q.group_by_column());
    }
  }
}

}  // namespace
}  // namespace lqo
