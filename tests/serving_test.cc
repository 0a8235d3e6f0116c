// Serving-layer contracts: query typing (same hash iff constants-only
// differences), the plan-cache generation protocol, learned invalidation
// and demotion, producer-plan checks before install, the producer-free hit
// path, and thread-count invariance of the session driver.
#include <algorithm>
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
  constexpr int kWindow = PlanCache::kDriftWindow;
  PlanCache cache;
  const uint64_t type = 7;
  PhysicalPlan plan = PlanOf(templates_[0]);
  PlanCacheLookup miss = cache.Lookup(type);
  ASSERT_TRUE(cache.TryInstall(type, miss.generation, plan, 10.0));

  // A minority of outlier bindings (just under half the window) must NOT
  // evict the plan.
  for (int i = 0; i < kWindow; ++i) {
    const double rows = i < (kWindow - 1) / 2 ? 5000.0 : 10.0;
    EXPECT_EQ(cache.Observe(type, miss.generation, rows, 1.0),
              PlanObserveOutcome::kKept);
  }

  // A majority-drifted window must.
  for (int i = 0; i < kWindow; ++i) {
    const double rows = i < kWindow / 2 + 1 ? 5000.0 : 10.0;
    EXPECT_EQ(cache.Observe(type, miss.generation, rows, 1.0),
              i + 1 < kWindow ? PlanObserveOutcome::kKept
                              : PlanObserveOutcome::kInvalidated);
  }

  PlanCacheLookup after = cache.Lookup(type);
  EXPECT_FALSE(after.hit);
  EXPECT_FALSE(after.always_optimize);
  EXPECT_EQ(after.generation, miss.generation + 1);
  EXPECT_EQ(cache.Stats().invalidations, 1u);
}

TEST_F(ServingTest, ReoptimizationChurnDemotes) {
  PlanCache cache;
  const uint64_t type = 8;
  PhysicalPlan plan = PlanOf(templates_[0]);

  // Every installed plan drifts for a whole window. The eviction past
  // kMaxReoptimizations makes the type sticky always-optimize.
  for (int reopt = 0; reopt <= PlanCache::kMaxReoptimizations; ++reopt) {
    PlanCacheLookup l = cache.Lookup(type);
    ASSERT_TRUE(cache.TryInstall(type, l.generation, plan, 10.0));
    PlanObserveOutcome last = PlanObserveOutcome::kKept;
    for (int i = 0; i < PlanCache::kDriftWindow; ++i) {
      last = cache.Observe(type, l.generation, 5000.0, 1.0);
    }
    EXPECT_EQ(last, reopt < PlanCache::kMaxReoptimizations
                        ? PlanObserveOutcome::kInvalidated
                        : PlanObserveOutcome::kDemoted);
  }

  PlanCacheLookup demoted = cache.Lookup(type);
  EXPECT_FALSE(demoted.hit);
  EXPECT_TRUE(demoted.always_optimize);
  // A planner that raced the demotion cannot re-cache the type.
  EXPECT_FALSE(cache.TryInstall(type, demoted.generation, plan, 10.0));
  EXPECT_FALSE(cache.Lookup(type).hit);

  PlanCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.invalidations,
            static_cast<uint64_t>(PlanCache::kMaxReoptimizations + 1));
  EXPECT_EQ(stats.demotions, 1u);
  EXPECT_GE(stats.volatile_skips, 1u);
}

TEST_F(ServingTest, LatencyCvDemotesParameterSensitiveTypes) {
  PlanCache cache;
  const uint64_t type = 9;
  PhysicalPlan plan = PlanOf(templates_[0]);
  PlanCacheLookup miss = cache.Lookup(type);
  // estimated_rows <= 0 disables the q-error path: this isolates the CV
  // detector.
  ASSERT_TRUE(cache.TryInstall(type, miss.generation, plan, 0.0));

  // Flat latency until the detector arms, then one spike: lifetime CV
  // ~4.7 > kSensitivityCv at the first armed window boundary.
  constexpr int kObservations = PlanCache::kSensitivityMinObservations;
  static_assert(kObservations % PlanCache::kDriftWindow == 0);
  for (int i = 0; i < kObservations; ++i) {
    const bool last = i + 1 == kObservations;
    EXPECT_EQ(cache.Observe(type, miss.generation, 10.0, last ? 1000.0 : 1.0),
              last ? PlanObserveOutcome::kDemoted : PlanObserveOutcome::kKept);
  }
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
    StatusOr<SessionReport> replay = DriveSessions(front_end, queries, sopts);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    const SessionReport& report = *replay;
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

// A producer error is returned from DriveSessions, not a process abort.
TEST_F(ServingTest, SessionDriverReturnsProducerError) {
  SessionDriverOptions sopts;
  sopts.sessions = 4;
  sopts.rounds = 3;
  sopts.seed = 37;
  const std::vector<Query> queries =
      BuildSessionQueries(lab_->catalog, templates_, sopts);

  // Not thread-safe, so the driver plans serially; fails on exactly one
  // session's query (round 1, session 2).
  struct FailingProducer : public PlanProducer {
    FailingProducer(const E2eContext* context, const Query* bad_query)
        : inner(context), bad(bad_query) {}
    StatusOr<PhysicalPlan> Plan(const Query& query) override {
      if (&query == bad) return Status::Internal("producer failed");
      return inner.Plan(query);
    }
    std::string Name() const override { return "failing"; }
    NativePlanProducer inner;
    const Query* bad;
  } failing(&context_, &queries[1 * 4 + 2]);

  ServingFrontEnd front_end(nullptr, &failing, lab_->executor.get());
  StatusOr<SessionReport> replay = DriveSessions(front_end, queries, sopts);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kInternal);
  EXPECT_EQ(replay.status().message(), "producer failed");
}

// Wraps the native producer, optionally damaging each plan it returns, and
// counts its calls.
class FakeProducer : public PlanProducer {
 public:
  enum class Damage { kNone, kEmpty, kPartial, kOverlappingChildren };

  FakeProducer(const E2eContext* context, Damage damage)
      : inner_(context), damage_(damage) {}

  StatusOr<PhysicalPlan> Plan(const Query& query) override {
    ++calls;
    StatusOr<PhysicalPlan> planned = inner_.Plan(query);
    if (!planned.ok()) return planned;
    PlanNode& root = *planned->root;
    switch (damage_) {
      case Damage::kNone:
        break;
      case Damage::kEmpty:
        planned->root.reset();
        break;
      case Damage::kPartial:
        // A subtree of the plan: it misses at least one table of the query.
        planned->root = std::move(root.left);
        break;
      case Damage::kOverlappingChildren:
        // The root still claims every table, but both inputs are the same
        // subtree.
        root.right = root.left->Clone();
        break;
    }
    return planned;
  }
  std::string Name() const override { return "fake"; }

  uint64_t calls = 0;

 private:
  NativePlanProducer inner_;
  Damage damage_;
};

// A plan the producer returns is checked before it can reach the cache: an
// empty root, a root that misses tables and a malformed tree are refused
// with InvalidArgument by Serve and by DriveSessions, and nothing installs.
TEST_F(ServingTest, MalformedProducerPlansNeverReachTheCache) {
  SessionDriverOptions sopts;
  sopts.sessions = 4;
  sopts.rounds = 2;
  sopts.seed = 41;
  const std::vector<Query> queries =
      BuildSessionQueries(lab_->catalog, templates_, sopts);
  for (FakeProducer::Damage damage :
       {FakeProducer::Damage::kEmpty, FakeProducer::Damage::kPartial,
        FakeProducer::Damage::kOverlappingChildren}) {
    SCOPED_TRACE(static_cast<int>(damage));
    FakeProducer producer(&context_, damage);
    PlanCache cache;
    ServingFrontEnd front_end(&cache, &producer, lab_->executor.get());

    StatusOr<ServeResult> served = front_end.Serve(templates_[0]);
    ASSERT_FALSE(served.ok());
    EXPECT_EQ(served.status().code(), StatusCode::kInvalidArgument);

    StatusOr<SessionReport> replay = DriveSessions(front_end, queries, sopts);
    ASSERT_FALSE(replay.ok());
    EXPECT_EQ(replay.status().code(), StatusCode::kInvalidArgument);

    EXPECT_EQ(cache.Stats().installs, 0u);
    EXPECT_EQ(cache.Stats().cached_plans, 0u);
  }
}

// A cache hit never calls the producer: every producer call is a miss or a
// lookup of a demoted type, over Serve and over a replay with drift and
// parameter-sensitive templates.
TEST_F(ServingTest, CacheHitsNeverCallTheProducer) {
  FakeProducer producer(&context_, FakeProducer::Damage::kNone);
  PlanCache cache;
  ServingFrontEnd front_end(&cache, &producer, lab_->executor.get());

  PlanCacheStats before = cache.Stats();
  Rng rng(17);
  for (int i = 0; i < 12; ++i) {
    const Query& t = templates_[static_cast<size_t>(i) % templates_.size()];
    ASSERT_TRUE(front_end.Serve(ResampleConstants(lab_->catalog, t, rng, 1.0))
                    .ok());
  }
  PlanCacheStats delta = cache.Stats() - before;
  EXPECT_GT(delta.hits, 0u);
  EXPECT_EQ(producer.calls, delta.misses + delta.volatile_skips);

  // Demote the first template's type (flat latency, then one spike: CV far
  // above kSensitivityCv), so the replay also plans for volatile skips.
  const uint64_t demoted = front_end.TypeOf(templates_[0]);
  const PlanCacheLookup resident = cache.Lookup(demoted);
  ASSERT_TRUE(resident.hit);
  const double rows = std::max(resident.install_estimated_rows, 1.0);
  for (int i = 0; i < PlanCache::kSensitivityMinObservations; ++i) {
    const bool last = i + 1 == PlanCache::kSensitivityMinObservations;
    cache.Observe(demoted, resident.generation, rows, last ? 1000.0 : 1.0);
  }
  ASSERT_TRUE(cache.Lookup(demoted).always_optimize);

  SessionDriverOptions sopts;
  sopts.sessions = 8;
  sopts.rounds = 12;
  sopts.seed = 43;
  sopts.drift_round = 6;
  sopts.sensitive_fraction = 0.2;
  const std::vector<Query> queries =
      BuildSessionQueries(lab_->catalog, templates_, sopts);
  producer.calls = 0;
  before = cache.Stats();
  StatusOr<SessionReport> replay = DriveSessions(front_end, queries, sopts);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  delta = cache.Stats() - before;
  EXPECT_GT(delta.hits, 0u);
  EXPECT_EQ(producer.calls, delta.misses + delta.volatile_skips);
  EXPECT_EQ(producer.calls, replay->planned);
  EXPECT_EQ(replay->cache_hits, delta.hits);
  // The replay re-plans after drift and plans the demoted type every time.
  EXPECT_GT(delta.invalidations, 0u);
  EXPECT_GT(delta.volatile_skips, 0u);
}

}  // namespace
}  // namespace lqo
