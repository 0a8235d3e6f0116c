// Serving-layer contracts: query typing (same hash iff constants-only
// differences), the plan-cache generation protocol, learned invalidation
// and demotion, and thread-count invariance of the session driver.
#include <memory>

#include <gtest/gtest.h>

#include "benchlib/lab.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "query/workload.h"
#include "serving/front_end.h"
#include "serving/plan_cache.h"
#include "serving/query_type.h"
#include "serving/session_driver.h"

namespace lqo {
namespace {

Query ThreeTableQuery() {
  Query q;
  int a = q.AddTable("users");
  int b = q.AddTable("orders");
  int c = q.AddTable("items");
  q.AddJoin(a, "id", b, "user_id");
  q.AddJoin(b, "id", c, "order_id");
  q.AddPredicate(Predicate::Equals(a, "age", 30));
  q.AddPredicate(Predicate::Range(b, "total", 10, 90));
  q.AddPredicate(Predicate::In(c, "kind", {1, 2, 3}));
  return q;
}

TEST(QueryTypeTest, ConstantsDoNotChangeTheType) {
  Query base = ThreeTableQuery();

  Query rebound = ThreeTableQuery();
  Query other;
  other.AddTable("users");
  other.AddTable("orders");
  other.AddTable("items");
  other.AddJoin(0, "id", 1, "user_id");
  other.AddJoin(1, "id", 2, "order_id");
  other.AddPredicate(Predicate::Equals(0, "age", 77));        // new value
  other.AddPredicate(Predicate::Range(1, "total", -5, 1000));  // new bounds
  // New IN values AND a different list length: both are constants.
  other.AddPredicate(Predicate::In(2, "kind", {9}));

  EXPECT_EQ(QueryTypeHash(base), QueryTypeHash(rebound));
  EXPECT_EQ(QueryTypeHash(base), QueryTypeHash(other));
  EXPECT_EQ(QueryTypeKey(base), QueryTypeKey(other));
}

TEST(QueryTypeTest, StructureChangesTheType) {
  const Query base = ThreeTableQuery();
  const uint64_t base_hash = QueryTypeHash(base);

  {  // Extra predicate.
    Query q = ThreeTableQuery();
    q.AddPredicate(Predicate::Equals(1, "status", 1));
    EXPECT_NE(QueryTypeHash(q), base_hash);
  }
  {  // Same column, different predicate kind.
    Query q;
    q.AddTable("users");
    q.AddTable("orders");
    q.AddTable("items");
    q.AddJoin(0, "id", 1, "user_id");
    q.AddJoin(1, "id", 2, "order_id");
    q.AddPredicate(Predicate::Range(0, "age", 20, 40));  // was kEquals
    q.AddPredicate(Predicate::Range(1, "total", 10, 90));
    q.AddPredicate(Predicate::In(2, "kind", {1, 2, 3}));
    EXPECT_NE(QueryTypeHash(q), base_hash);
  }
  {  // Extra table.
    Query q = ThreeTableQuery();
    int d = q.AddTable("shipments");
    q.AddJoin(2, "id", d, "item_id");
    EXPECT_NE(QueryTypeHash(q), base_hash);
  }
  {  // Different join column.
    Query q;
    q.AddTable("users");
    q.AddTable("orders");
    q.AddTable("items");
    q.AddJoin(0, "id", 1, "user_id");
    q.AddJoin(1, "id", 2, "parent_id");  // was order_id
    q.AddPredicate(Predicate::Equals(0, "age", 30));
    q.AddPredicate(Predicate::Range(1, "total", 10, 90));
    q.AddPredicate(Predicate::In(2, "kind", {1, 2, 3}));
    EXPECT_NE(QueryTypeHash(q), base_hash);
  }
  {  // Same tables in a different FROM order: cached plans address tables
     // by index, so this is NOT a constants-only difference.
    Query q;
    int b = q.AddTable("orders");
    int a = q.AddTable("users");
    int c = q.AddTable("items");
    q.AddJoin(a, "id", b, "user_id");
    q.AddJoin(b, "id", c, "order_id");
    q.AddPredicate(Predicate::Equals(a, "age", 30));
    q.AddPredicate(Predicate::Range(b, "total", 10, 90));
    q.AddPredicate(Predicate::In(c, "kind", {1, 2, 3}));
    EXPECT_NE(QueryTypeHash(q), base_hash);
  }
}

TEST(QueryTypeTest, AttachmentOrderIsNeutral) {
  // Predicates and join conjuncts reordered (the executor re-derives both
  // from the query by table index, so this is semantically the same query).
  Query reordered;
  reordered.AddTable("users");
  reordered.AddTable("orders");
  reordered.AddTable("items");
  reordered.AddJoin(2, "order_id", 1, "id");  // swapped endpoints
  reordered.AddJoin(0, "id", 1, "user_id");
  reordered.AddPredicate(Predicate::In(2, "kind", {1, 2, 3}));
  reordered.AddPredicate(Predicate::Equals(0, "age", 30));
  reordered.AddPredicate(Predicate::Range(1, "total", 10, 90));

  EXPECT_EQ(QueryTypeHash(ThreeTableQuery()), QueryTypeHash(reordered));
  EXPECT_EQ(QueryTypeKey(ThreeTableQuery()), QueryTypeKey(reordered));
}

TEST(QueryTypeTest, TypeKeyMasksConstants) {
  const std::string key = QueryTypeKey(ThreeTableQuery());
  EXPECT_EQ(key.find("30"), std::string::npos);
  EXPECT_EQ(key.find("90"), std::string::npos);
  EXPECT_NE(key.find("users"), std::string::npos);
  EXPECT_NE(key.find("age=?"), std::string::npos);
  EXPECT_NE(key.find("total between ?"), std::string::npos);
  EXPECT_NE(key.find("kind in (?)"), std::string::npos);
}

TEST(QueryTypeTest, OutputShapeIsPartOfTheType) {
  const Query base = ThreeTableQuery();
  const uint64_t base_hash = QueryTypeHash(base);

  // A select list changes the type: a cached plan's rebinding must produce
  // the same output shape, not just the same row count.
  Query agg = ThreeTableQuery();
  agg.AddOutput(OutputExpr::Aggregate(AggFunc::kSum, 1, "total"));
  EXPECT_NE(QueryTypeHash(agg), base_hash);
  EXPECT_NE(QueryTypeKey(agg), QueryTypeKey(base));

  // Different aggregate function, different type.
  Query avg = ThreeTableQuery();
  avg.AddOutput(OutputExpr::Aggregate(AggFunc::kAvg, 1, "total"));
  EXPECT_NE(QueryTypeHash(avg), QueryTypeHash(agg));

  // Select-list order is the order of ExecutionResult::output_cols, so it
  // is structural too.
  Query ab = ThreeTableQuery();
  ab.AddOutput(OutputExpr::Aggregate(AggFunc::kSum, 1, "total"));
  ab.AddOutput(OutputExpr::CountStar());
  Query ba = ThreeTableQuery();
  ba.AddOutput(OutputExpr::CountStar());
  ba.AddOutput(OutputExpr::Aggregate(AggFunc::kSum, 1, "total"));
  EXPECT_NE(QueryTypeHash(ab), QueryTypeHash(ba));

  // GROUP BY key folds in as well.
  Query grouped = ThreeTableQuery();
  grouped.AddOutput(OutputExpr::Aggregate(AggFunc::kSum, 1, "total"));
  grouped.SetGroupBy(2, "kind");
  EXPECT_NE(QueryTypeHash(grouped), QueryTypeHash(agg));
  EXPECT_NE(QueryTypeKey(grouped), QueryTypeKey(agg));

  // Same output shape on both sides: still one type (constants-only
  // difference elsewhere is already covered above).
  Query same = ThreeTableQuery();
  same.AddOutput(OutputExpr::Aggregate(AggFunc::kSum, 1, "total"));
  EXPECT_EQ(QueryTypeHash(same), QueryTypeHash(agg));
  EXPECT_EQ(QueryTypeKey(same), QueryTypeKey(agg));
}

class ServingTest : public ::testing::Test {
 protected:
  ServingTest() {
    lab_ = MakeLab("stats_lite", 0.05);
    context_ = lab_->Context();
    WorkloadOptions wopts;
    wopts.num_queries = 6;
    wopts.min_tables = 2;
    wopts.max_tables = 3;
    wopts.seed = 901;
    templates_ = GenerateWorkload(lab_->catalog, wopts).queries;
  }

  PhysicalPlan PlanOf(const Query& q) { return NativePlan(context_, q); }

  std::unique_ptr<Lab> lab_;
  E2eContext context_;
  std::vector<Query> templates_;
};

TEST_F(ServingTest, ResampleConstantsPreservesTheType) {
  Rng rng(11);
  for (const Query& t : templates_) {
    for (double widen : {1.0, 0.02, 10.0}) {
      Query rebound = ResampleConstants(lab_->catalog, t, rng, widen);
      EXPECT_EQ(QueryTypeHash(t), QueryTypeHash(rebound));
      EXPECT_EQ(QueryTypeKey(t), QueryTypeKey(rebound));
    }
  }
}

TEST_F(ServingTest, BoundPlanMatchesFreshPlanResults) {
  Rng rng(12);
  const Query& t = templates_[0];
  PhysicalPlan installed = PlanOf(t);
  std::shared_ptr<const PlanNode> root(installed.root->Clone().release());

  for (int i = 0; i < 4; ++i) {
    Query rebound = ResampleConstants(lab_->catalog, t, rng, 1.0);
    PhysicalPlan bound = BindPlan(root, rebound);
    auto bound_result = lab_->executor->Execute(bound);
    auto fresh_result = lab_->executor->Execute(PlanOf(rebound));
    ASSERT_TRUE(bound_result.ok() && fresh_result.ok());
    // A COUNT(*) answer cannot depend on which (valid) plan computed it.
    EXPECT_EQ(bound_result->row_count, fresh_result->row_count);
  }
}

TEST_F(ServingTest, CacheMissInstallHitAndFirstWriterWins) {
  PlanCache cache;
  const uint64_t type = 42;
  PhysicalPlan plan = PlanOf(templates_[0]);

  PlanCacheLookup miss = cache.Lookup(type);
  EXPECT_FALSE(miss.hit);
  EXPECT_TRUE(cache.TryInstall(type, miss.generation, plan, 100.0));
  // Second racer with the same token loses; the first install stays.
  EXPECT_FALSE(cache.TryInstall(type, miss.generation, plan, 7.0));

  PlanCacheLookup hit = cache.Lookup(type);
  ASSERT_TRUE(hit.hit);
  EXPECT_EQ(hit.generation, miss.generation);
  EXPECT_EQ(hit.install_estimated_rows, 100.0);
  EXPECT_NE(hit.root, nullptr);

  PlanCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.installs, 1u);
  EXPECT_EQ(stats.install_races, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.cached_plans, 1u);
}

TEST_F(ServingTest, MajorityQerrorDriftInvalidates) {
  PlanCacheOptions options;
  options.drift_window = 4;
  PlanCache cache(options);
  const uint64_t type = 7;
  PhysicalPlan plan = PlanOf(templates_[0]);
  PlanCacheLookup miss = cache.Lookup(type);
  ASSERT_TRUE(cache.TryInstall(type, miss.generation, plan, 10.0));

  // A minority outlier binding (1 of 4) must NOT evict the plan.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cache.Observe(type, miss.generation, 10.0, 1.0),
              PlanObserveOutcome::kKept);
  }
  EXPECT_EQ(cache.Observe(type, miss.generation, 5000.0, 1.0),
            PlanObserveOutcome::kKept);

  // A majority-drifted window must.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cache.Observe(type, miss.generation, 5000.0, 1.0),
              PlanObserveOutcome::kKept);
  }
  EXPECT_EQ(cache.Observe(type, miss.generation, 5000.0, 1.0),
            PlanObserveOutcome::kInvalidated);

  PlanCacheLookup after = cache.Lookup(type);
  EXPECT_FALSE(after.hit);
  EXPECT_FALSE(after.always_optimize);
  EXPECT_EQ(after.generation, miss.generation + 1);
  EXPECT_EQ(cache.Stats().invalidations, 1u);
}

TEST_F(ServingTest, ReoptimizationChurnDemotes) {
  PlanCacheOptions options;
  options.drift_window = 2;
  options.max_reoptimizations = 1;
  PlanCache cache(options);
  const uint64_t type = 8;
  PhysicalPlan plan = PlanOf(templates_[0]);

  PlanCacheLookup l0 = cache.Lookup(type);
  ASSERT_TRUE(cache.TryInstall(type, l0.generation, plan, 10.0));
  cache.Observe(type, l0.generation, 5000.0, 1.0);
  EXPECT_EQ(cache.Observe(type, l0.generation, 5000.0, 1.0),
            PlanObserveOutcome::kInvalidated);

  PlanCacheLookup l1 = cache.Lookup(type);
  ASSERT_TRUE(cache.TryInstall(type, l1.generation, plan, 10.0));
  cache.Observe(type, l1.generation, 5000.0, 1.0);
  // Second eviction crosses max_reoptimizations: the type is sticky
  // always-optimize from here on.
  EXPECT_EQ(cache.Observe(type, l1.generation, 5000.0, 1.0),
            PlanObserveOutcome::kDemoted);

  PlanCacheLookup l2 = cache.Lookup(type);
  EXPECT_FALSE(l2.hit);
  EXPECT_TRUE(l2.always_optimize);
  // A planner that raced the demotion cannot re-cache the type.
  EXPECT_FALSE(cache.TryInstall(type, l2.generation, plan, 10.0));
  EXPECT_FALSE(cache.Lookup(type).hit);

  PlanCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.invalidations, 2u);
  EXPECT_EQ(stats.demotions, 1u);
  EXPECT_GE(stats.volatile_skips, 1u);
}

TEST_F(ServingTest, LatencyCvDemotesParameterSensitiveTypes) {
  PlanCacheOptions options;
  options.drift_window = 4;
  options.sensitivity_min_observations = 8;
  PlanCache cache(options);
  const uint64_t type = 9;
  PhysicalPlan plan = PlanOf(templates_[0]);
  PlanCacheLookup miss = cache.Lookup(type);
  // estimated_rows <= 0 disables the q-error path: this isolates the CV
  // detector.
  ASSERT_TRUE(cache.TryInstall(type, miss.generation, plan, 0.0));

  PlanObserveOutcome last = PlanObserveOutcome::kKept;
  for (int i = 0; i < 8; ++i) {
    last = cache.Observe(type, miss.generation, 10.0,
                         i == 7 ? 1000.0 : 1.0);  // spiky latency, cv ~ 2.6
  }
  EXPECT_EQ(last, PlanObserveOutcome::kDemoted);
  EXPECT_TRUE(cache.Lookup(type).always_optimize);
  EXPECT_EQ(cache.Stats().demotions, 1u);
}

TEST_F(ServingTest, StaleObserveAndStaleInstallAreDropped) {
  PlanCache cache;
  const uint64_t type = 10;
  PhysicalPlan plan = PlanOf(templates_[0]);
  PlanCacheLookup before = cache.Lookup(type);
  ASSERT_TRUE(cache.TryInstall(type, before.generation, plan, 10.0));
  cache.Invalidate(type);

  // Feedback for the evicted plan: dropped, counted, never applied.
  EXPECT_EQ(cache.Observe(type, before.generation, 10.0, 1.0),
            PlanObserveOutcome::kDropped);
  EXPECT_EQ(cache.Stats().stale_feedback, 1u);

  // Installing against the evicted generation would resurrect the plan the
  // invalidation just removed. An invalidation between a caller's Lookup
  // and its TryInstall is an ordinary race: the install loses, is counted,
  // and the type stays uncached.
  PlanCacheStats races_before = cache.Stats();
  EXPECT_FALSE(cache.TryInstall(type, before.generation, plan, 10.0));
  PlanCacheStats delta = cache.Stats() - races_before;
  EXPECT_EQ(delta.install_races, 1u);
  EXPECT_EQ(delta.installs, 0u);
  EXPECT_EQ(cache.Stats().cached_plans, 0u);
  PlanCacheLookup after = cache.Lookup(type);
  EXPECT_FALSE(after.hit);
  EXPECT_EQ(after.root, nullptr);
  EXPECT_NE(after.generation, before.generation);

  // The next miss re-plans under the current generation and installs.
  EXPECT_TRUE(cache.TryInstall(type, after.generation, plan, 10.0));
  EXPECT_TRUE(cache.Lookup(type).hit);
}

TEST_F(ServingTest, FrontEndServesAndTagsTypesPerProducer) {
  NativePlanProducer native(&context_);
  PlanCache cache;
  ServingFrontEnd front_end(&cache, &native, lab_->executor.get());

  auto first = front_end.Serve(templates_[0]);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_hit);
  EXPECT_TRUE(first->planned);
  EXPECT_TRUE(first->installed);

  Rng rng(13);
  Query rebound = ResampleConstants(lab_->catalog, templates_[0], rng, 1.0);
  auto second = front_end.Serve(rebound);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_FALSE(second->planned);
  EXPECT_EQ(second->type, first->type);

  // Another producer family sharing the cache must not collide on types.
  struct Renamed : public PlanProducer {
    explicit Renamed(const E2eContext* context) : inner(context) {}
    StatusOr<PhysicalPlan> Plan(const Query& query) override {
      return inner.Plan(query);
    }
    std::string Name() const override { return "renamed"; }
    NativePlanProducer inner;
  } renamed(&context_);
  ServingFrontEnd other(&cache, &renamed, lab_->executor.get());
  EXPECT_NE(other.TypeOf(templates_[0]), front_end.TypeOf(templates_[0]));
  auto third = other.Serve(templates_[0]);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->cache_hit);

  // Baseline mode (null cache): plans every query, never caches.
  ServingFrontEnd baseline(nullptr, &native, lab_->executor.get());
  for (int i = 0; i < 2; ++i) {
    auto served = baseline.Serve(templates_[0]);
    ASSERT_TRUE(served.ok());
    EXPECT_FALSE(served->cache_hit);
    EXPECT_TRUE(served->planned);
    EXPECT_FALSE(served->installed);
  }
}

TEST_F(ServingTest, SessionDriverIsThreadCountInvariant) {
  SessionDriverOptions sopts;
  sopts.sessions = 8;
  sopts.rounds = 6;
  sopts.seed = 31;
  sopts.drift_round = 3;
  sopts.sensitive_fraction = 0.2;
  const std::vector<Query> queries =
      BuildSessionQueries(lab_->catalog, templates_, sopts);

  uint64_t fingerprints[2] = {0, 0};
  uint64_t hits[2] = {0, 0};
  int i = 0;
  for (int threads : {1, 4}) {
    ThreadPool::SetGlobalThreads(threads);
    NativePlanProducer native(&context_);
    PlanCache cache;
    ServingFrontEnd front_end(&cache, &native, lab_->executor.get());
    SessionReport report = DriveSessions(front_end, queries, sopts);
    EXPECT_EQ(report.queries, queries.size());
    EXPECT_GT(report.cache_hits, 0u);
    fingerprints[i] = report.fingerprint;
    hits[i] = report.cache_hits;
    ++i;
  }
  ThreadPool::SetGlobalThreads(ThreadPool::ParseThreadCount(nullptr));
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
  EXPECT_EQ(hits[0], hits[1]);
}

}  // namespace
}  // namespace lqo
