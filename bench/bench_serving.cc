// Serving front end experiment: replays thousands of in-flight sessions
// through the query-type plan cache (src/serving) against every optimizer
// family and reports p50/p95/p99 plan+execute latency, cache hit rate,
// re-optimization counts and the warm-cache-vs-optimize-every-query
// speedup as BENCH_serving.json.
//
// Hard checks ride along:
//  - determinism: the replay's fingerprint (per-query types, flags, row
//    counts, bit-cast time_units, cache-stats delta) is identical at
//    LQO_THREADS 1/2/8 — run only this site with --determinism-only (the
//    check.sh TSan stage does);
//  - cache quality, per family: warm hit rate >= 0.9, and warm
//    time_units/query <= 1.1x the optimize-every-query value (cached
//    first-binding plans must not cost execution quality);
//  - throughput (compiled out under sanitizers, like the
//    bench_parallel_scaling throughput gates): native warm q/s >=
//    optimize-every-query q/s, and every learned family >= 3x.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "benchlib/e2e_harness.h"
#include "benchlib/lab.h"
#include "common/logging.h"
#include "common/stats_util.h"
#include "common/thread_pool.h"
#include "e2e/bao.h"
#include "e2e/hyperqo.h"
#include "e2e/leon.h"
#include "e2e/lero.h"
#include "e2e/neo.h"
#include "query/workload.h"
#include "serving/front_end.h"
#include "serving/plan_cache.h"
#include "serving/session_driver.h"

// Sanitized builds run an order of magnitude slower with skewed ratios, so
// the throughput gate only arms in plain builds; the determinism site
// always runs.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define LQO_BENCH_SANITIZED 1
#endif
#endif
#if !defined(LQO_BENCH_SANITIZED) && \
    (defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__))
#define LQO_BENCH_SANITIZED 1
#endif
#ifndef LQO_BENCH_SANITIZED
#define LQO_BENCH_SANITIZED 0
#endif

namespace lqo {
namespace {

struct Latencies {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

Latencies LatenciesOf(const std::vector<double>& seconds) {
  Latencies l;
  l.p50 = Quantile(seconds, 0.50);
  l.p95 = Quantile(seconds, 0.95);
  l.p99 = Quantile(seconds, 0.99);
  return l;
}

// Keeps only the predicates on the first two query tables. With 10+ chain
// tables each carrying predicates the 200-row joins annihilate every row
// (observed counts pin at 0 and the drift detector has no signal); two
// predicate sites keep results non-empty and binding-dependent.
Query TrimPredicates(const Query& query) {
  Query trimmed;
  for (const QueryTable& t : query.tables())
    trimmed.AddTable(t.table_name, t.alias);
  for (const QueryJoin& j : query.joins())
    trimmed.AddJoin(j.left_table, j.left_column, j.right_table,
                    j.right_column);
  for (const Predicate& p : query.predicates())
    if (p.table_index < 2) trimmed.AddPredicate(p);
  return trimmed;
}

std::vector<Query> MakeTemplates(const Lab& lab, int count) {
  WorkloadOptions wopts;
  wopts.num_queries = count;
  // 10-12-way joins over the small chain schema: DP planning costs ~10x the
  // execution (measured ~400us vs ~40us single-core), the regime where plan
  // caching pays — the serving analogue of OLTP point traffic under a big
  // schema. Predicates are range-only (equality on a Zipf column swings
  // selectivity by 50x binding-to-binding, which reads as drift to the
  // q-error detector even in steady traffic).
  wopts.min_tables = 10;
  wopts.max_tables = 12;
  wopts.equality_prob = 0.0;
  wopts.in_prob = 0.0;
  wopts.seed = 77;
  std::vector<Query> templates = GenerateWorkload(lab.catalog, wopts).queries;
  for (Query& q : templates) q = TrimPredicates(q);
  return templates;
}

// One optimizer family wired for serving: the producer plus the state
// backing it (owned here so families are constructed fresh per use).
struct Family {
  std::string name;
  std::unique_ptr<LearnedQueryOptimizer> optimizer;  // null for native
  std::unique_ptr<PlanProducer> producer;
};

Family MakeFamily(const std::string& name, const E2eContext& context,
                  const Workload& train, const Executor& executor) {
  Family f;
  f.name = name;
  if (name == "native") {
    f.producer = std::make_unique<NativePlanProducer>(&context);
    return f;
  }
  if (name == "bao") {
    f.optimizer = std::make_unique<BaoOptimizer>(context);
  } else if (name == "lero") {
    f.optimizer = std::make_unique<LeroOptimizer>(context);
  } else if (name == "neo") {
    f.optimizer = std::make_unique<NeoOptimizer>(context);
  } else if (name == "balsa") {
    f.optimizer = std::make_unique<BalsaOptimizer>(context, train.queries);
  } else if (name == "hyperqo") {
    f.optimizer = std::make_unique<HyperQoOptimizer>(context);
  } else if (name == "leon") {
    f.optimizer = std::make_unique<LeonOptimizer>(context);
  } else {
    LQO_CHECK(false) << "unknown family " << name;
  }
  TrainLearnedOptimizer(f.optimizer.get(), train, executor);
  f.producer =
      std::make_unique<LearnedOptimizerPlanProducer>(f.optimizer.get());
  return f;
}

// --- determinism site ------------------------------------------------------

// Replays the full scenario mix (steady traffic + mid-run drift + sensitive
// templates) at each thread count with a fresh cache and freshly trained
// producer, and requires bit-identical fingerprints. Training itself is
// thread-count-invariant (enforced elsewhere), so rebuilding the family per
// count keeps runs independent without losing comparability.
bool RunDeterminismSite(const Lab& lab, const std::vector<Query>& templates,
                        const Workload& train) {
  SessionDriverOptions sopts;
  sopts.sessions = 32;
  sopts.rounds = 10;
  sopts.seed = 404;
  sopts.drift_round = 5;
  sopts.drift_widen = 0.02;
  sopts.sensitive_fraction = 0.15;
  const std::vector<Query> queries =
      BuildSessionQueries(lab.catalog, templates, sopts);

  bool all_ok = true;
  for (const std::string family_name : {"native", "bao"}) {
    uint64_t first_fp = 0;
    bool have_first = false;
    for (int threads : {1, 2, 8}) {
      ThreadPool::SetGlobalThreads(threads);
      E2eContext context = lab.Context();
      Family family =
          MakeFamily(family_name, context, train, *lab.executor);
      PlanCache cache;
      ServingFrontEnd front_end(&cache, family.producer.get(),
                                lab.executor.get());
      SessionReport report = DriveSessions(front_end, queries, sopts).value();
      std::fprintf(stderr,
                   "  determinism %-6s %d threads: fp=%016llx hits=%llu "
                   "inval=%llu demo=%llu\n",
                   family_name.c_str(), threads,
                   static_cast<unsigned long long>(report.fingerprint),
                   static_cast<unsigned long long>(report.cache_hits),
                   static_cast<unsigned long long>(report.invalidations),
                   static_cast<unsigned long long>(report.demotions));
      if (!have_first) {
        first_fp = report.fingerprint;
        have_first = true;
      } else if (report.fingerprint != first_fp) {
        std::fprintf(stderr, "  NONDETERMINISTIC serving fingerprint (%s)\n",
                     family_name.c_str());
        all_ok = false;
      }
    }
  }
  ThreadPool::SetGlobalThreads(ThreadPool::ParseThreadCount(nullptr));
  return all_ok;
}

// --- per-family serving measurement ---------------------------------------

// Deterministic simulated execution latency per served query.
double UnitsPerQuery(const SessionReport& s) {
  return s.queries > 0
             ? s.total_time_units / static_cast<double>(s.queries)
             : 0.0;
}

struct FamilyReport {
  std::string name;
  SessionReport cold;
  SessionReport warm;
  SessionReport baseline;  // optimize-every-query (null cache)
  Latencies cold_lat;
  Latencies warm_lat;
  Latencies baseline_lat;
  uint64_t drift_invalidations = 0;
  uint64_t sensitive_demotions = 0;

  double Speedup() const {
    return baseline.Throughput() > 0.0
               ? warm.Throughput() / baseline.Throughput()
               : 0.0;
  }
};

FamilyReport RunFamily(const Lab& lab, const std::string& name,
                       const std::vector<Query>& templates,
                       const Workload& train) {
  E2eContext context = lab.Context();
  Family family = MakeFamily(name, context, train, *lab.executor);

  // Steady traffic: the same type population cold, then warm, then with the
  // cache disabled. Per-scenario query matrices are identical, so the only
  // variable is the cache state.
  SessionDriverOptions steady;
  steady.sessions = 64;
  steady.rounds = 16;
  steady.seed = 505;
  const std::vector<Query> steady_queries =
      BuildSessionQueries(lab.catalog, templates, steady);

  FamilyReport report;
  report.name = name;
  {
    PlanCache cache;
    ServingFrontEnd front_end(&cache, family.producer.get(),
                              lab.executor.get());
    report.cold = DriveSessions(front_end, steady_queries, steady).value();
    report.warm = DriveSessions(front_end, steady_queries, steady).value();
  }
  {
    ServingFrontEnd baseline_fe(nullptr, family.producer.get(),
                                lab.executor.get());
    report.baseline =
        DriveSessions(baseline_fe, steady_queries, steady).value();
  }
  report.cold_lat = LatenciesOf(report.cold.serve_seconds);
  report.warm_lat = LatenciesOf(report.warm.serve_seconds);
  report.baseline_lat = LatenciesOf(report.baseline.serve_seconds);

  // Drift scenario: constants tighten to near-points mid-run, so observed
  // cardinalities crater below the install-time estimates; the q-error /
  // latency drift detector must re-optimize.
  SessionDriverOptions drift = steady;
  drift.sessions = 32;
  drift.rounds = 12;
  drift.seed = 606;
  drift.drift_round = 6;
  drift.drift_widen = 0.02;
  {
    PlanCache cache;
    ServingFrontEnd front_end(&cache, family.producer.get(),
                              lab.executor.get());
    SessionReport r =
        DriveSessions(front_end,
                      BuildSessionQueries(lab.catalog, templates, drift), drift)
            .value();
    report.drift_invalidations = r.invalidations;
  }

  // Sensitivity scenario: the two hottest templates alternate tight/wide
  // bindings, so no installed plan's estimate survives; enough rounds for
  // re-optimization churn to cross max_reoptimizations and demote them.
  SessionDriverOptions sensitive = steady;
  sensitive.sessions = 32;
  sensitive.rounds = 24;
  sensitive.seed = 707;
  sensitive.sensitive_fraction = 0.125;
  {
    PlanCache cache;
    ServingFrontEnd front_end(&cache, family.producer.get(),
                              lab.executor.get());
    SessionReport r =
        DriveSessions(front_end,
                      BuildSessionQueries(lab.catalog, templates, sensitive),
                      sensitive)
            .value();
    report.sensitive_demotions = r.demotions;
  }

  std::fprintf(
      stderr,
      "  %-8s warm hit=%.3f (inval=%llu demo=%llu) q/s cold=%7.0f "
      "warm=%7.0f every-q=%7.0f speedup=%5.2fx units warm/every-q=%.3f "
      "drift-inval=%llu sens-demo=%llu\n",
      name.c_str(), report.warm.HitRate(),
      static_cast<unsigned long long>(report.warm.invalidations),
      static_cast<unsigned long long>(report.warm.demotions),
      report.cold.Throughput(), report.warm.Throughput(),
      report.baseline.Throughput(), report.Speedup(),
      UnitsPerQuery(report.warm) / UnitsPerQuery(report.baseline),
      static_cast<unsigned long long>(report.drift_invalidations),
      static_cast<unsigned long long>(report.sensitive_demotions));
  return report;
}

void WriteJson(const std::vector<FamilyReport>& reports, bool deterministic) {
  std::ofstream json("BENCH_serving.json");
  json << "{\n  \"deterministic\": " << (deterministic ? "true" : "false")
       << ",\n  \"families\": [\n";
  for (size_t i = 0; i < reports.size(); ++i) {
    const FamilyReport& r = reports[i];
    auto lat = [&](const char* key, const Latencies& l,
                   const SessionReport& s, bool last = false) {
      json << "      \"" << key << "\": {\"p50_us\": " << l.p50 * 1e6
           << ", \"p95_us\": " << l.p95 * 1e6
           << ", \"p99_us\": " << l.p99 * 1e6
           << ", \"hit_rate\": " << s.HitRate()
           << ", \"time_units_per_query\": " << UnitsPerQuery(s)
           << ", \"queries_per_sec\": " << s.Throughput() << "}"
           << (last ? "\n" : ",\n");
    };
    json << "    {\"name\": \"" << r.name << "\",\n";
    lat("cold", r.cold_lat, r.cold);
    lat("warm", r.warm_lat, r.warm);
    lat("optimize_every_query", r.baseline_lat, r.baseline);
    json << "      \"warm_speedup_vs_optimize_every_query\": " << r.Speedup()
         << ",\n      \"drift_invalidations\": " << r.drift_invalidations
         << ",\n      \"sensitive_demotions\": " << r.sensitive_demotions
         << "}" << (i + 1 < reports.size() ? ",\n" : "\n");
  }
  json << "  ]\n}\n";
  json.close();
  std::fprintf(stderr, "wrote BENCH_serving.json\n");
}

int Run(bool determinism_only) {
  std::fprintf(stderr, "bench_serving (sanitized=%d)\n",
               static_cast<int>(LQO_BENCH_SANITIZED));
  auto lab = MakeLabFromCatalog(MakeChainSchema(12, 200, 42));
  const std::vector<Query> templates = MakeTemplates(*lab, 16);

  WorkloadOptions topts;
  topts.num_queries = 30;
  topts.min_tables = 2;
  topts.max_tables = 4;
  topts.seed = 88;
  Workload train = GenerateWorkload(lab->catalog, topts);

  const bool deterministic = RunDeterminismSite(*lab, templates, train);
  if (determinism_only) {
    std::fprintf(stderr, "determinism-only mode: %s\n",
                 deterministic ? "ok" : "FAILED");
    return deterministic ? 0 : 1;
  }

  std::vector<FamilyReport> reports;
  for (const std::string name :
       {"native", "bao", "lero", "neo", "balsa", "hyperqo", "leon"}) {
    reports.push_back(RunFamily(*lab, name, templates, train));
  }
  WriteJson(reports, deterministic);

  bool ok = deterministic;
  for (const FamilyReport& r : reports) {
    if (r.warm.HitRate() < 0.9) {
      std::fprintf(stderr, "FAIL: %s warm hit rate %.3f < 0.9\n",
                   r.name.c_str(), r.warm.HitRate());
      ok = false;
    }
    double warm_units = UnitsPerQuery(r.warm);
    double every_units = UnitsPerQuery(r.baseline);
    if (warm_units > 1.1 * every_units) {
      std::fprintf(stderr,
                   "FAIL: %s warm time_units/query %.1f > 1.1x the "
                   "optimize-every-query %.1f\n",
                   r.name.c_str(), warm_units, every_units);
      ok = false;
    }
  }
#if !LQO_BENCH_SANITIZED
  // Wall-clock floors. A warm/every-query ratio measures planner cost, not
  // cache quality, so the cheap native DP only has to break even; the
  // learned families, whose inference dominates planning, keep >= 3x.
  for (const FamilyReport& r : reports) {
    double floor = r.name == "native" ? 1.0 : 3.0;
    if (r.Speedup() < floor) {
      std::fprintf(stderr,
                   "FAIL: %s warm-cache speedup %.2fx < %.0fx the "
                   "optimize-every-query baseline\n",
                   r.name.c_str(), r.Speedup(), floor);
      ok = false;
    }
  }
#endif
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace lqo

int main(int argc, char** argv) {
  bool determinism_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--determinism-only") == 0) {
      determinism_only = true;
    }
  }
  return lqo::Run(determinism_only);
}
