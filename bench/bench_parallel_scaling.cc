// Parallel-scaling microbenchmark: wall-clock of each parallelized site at
// 1/2/4/N threads, emitted as BENCH_parallel.json so the perf trajectory of
// the execution substrate is tracked PR over PR. Each site also re-checks
// that its parallel result equals its serial result (the determinism
// contract), so a scaling regression can never hide a correctness one.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "benchlib/e2e_harness.h"
#include "benchlib/lab.h"
#include "costmodel/plan_featurizer.h"
#include "e2e/framework.h"
#include "ml/feature_cache.h"
#include "cardinality/data_driven.h"
#include "cardinality/evaluation.h"
#include "cardinality/spn_model.h"
#include "cardinality/training_data.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/executor.h"
#include "engine/simd.h"
#include "ml/chow_liu.h"
#include "ml/dataset.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/mlp.h"
#include "query/workload.h"
#include "storage/datasets.h"

// Sanitized builds (check.sh runs this bench under TSan) are an order of
// magnitude slower and skew throughput ratios, so the throughput gates
// below only arm in plain builds; the determinism checks always run.
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

double SecondsOf(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

struct SiteReport {
  std::string name;
  std::vector<std::pair<int, double>> seconds_at;  // (threads, seconds)
  bool deterministic = true;

  double SpeedupAt(int threads) const {
    double t1 = 0.0, tn = 0.0;
    for (const auto& [t, s] : seconds_at) {
      if (t == 1) t1 = s;
      if (t == threads) tn = s;
    }
    return (t1 > 0.0 && tn > 0.0) ? t1 / tn : 0.0;
  }
};

/// Runs `work` (returning a comparable fingerprint) at each thread count.
template <typename Fn>
SiteReport RunSite(const std::string& name, const std::vector<int>& counts,
                   Fn&& work) {
  SiteReport report;
  report.name = name;
  decltype(work()) serial_result{};
  for (size_t i = 0; i < counts.size(); ++i) {
    ThreadPool::SetGlobalThreads(counts[i]);
    decltype(work()) result{};
    double secs = SecondsOf([&] { result = work(); });
    report.seconds_at.emplace_back(counts[i], secs);
    if (i == 0) {
      serial_result = result;
    } else if (result != serial_result) {
      report.deterministic = false;
    }
    std::fprintf(stderr, "  %-18s %2d threads  %8.3fs%s\n", name.c_str(),
                 counts[i], secs,
                 (i > 0 && result != serial_result) ? "  NONDETERMINISTIC!"
                                                    : "");
  }
  return report;
}

// Site 9 (also standalone via --simd-only): the explicit SIMD kernel layer
// of engine/simd.h and the executor plans it feeds. Three jobs:
//   1. Determinism fingerprint: scan/filter, hash-join, merge-join, NLJ and
//      3-way chain hash-join plans executed at every supported SIMD level
//      (scalar, plus avx2 where the CPU has it), folded into the RunSite
//      fingerprint (row counts, time_units, collision and partition
//      counters), which RunSite then sweeps across thread counts — any bit
//      divergence across the level x threads cube fails the bench.
//   2. Throughput per kernel family (filter eq/range/in dense, join-key
//      hashing) at every supported level, plus executor-level rows/s of the
//      real merge-join and (per level) block-NLJ paths, emitted as
//      BENCH_simd.json.
//   3. Perf floor (plain builds only): the best SIMD level (avx2) must beat
//      the scalar reference by >= 1.3x on each filter kernel family.
void RunSimdKernelsSite(const std::vector<int>& counts, int hw,
                        std::vector<SiteReport>* reports) {
  simd::Level entry_level = simd::ActiveLevel();
  std::vector<simd::Level> levels = simd::SupportedLevels();
  std::fprintf(stderr, "  simd_kernels: entry level %s, supported",
               simd::LevelName(entry_level));
  for (simd::Level l : levels) {
    std::fprintf(stderr, " %s", simd::LevelName(l));
  }
  std::fprintf(stderr, "\n");

  // fact(262144 rows) x dim(2048 rows): scan, hash-join and (under the 2^20
  // gate) merge-join workloads. outer(1800) x inner(2000) stays under the
  // 2^22-pair gate so the NLJ-declared plan takes the real block path.
  constexpr uint32_t kFactRows = 1u << 18;
  Catalog fcat;
  {
    Rng rng(101);
    TableBuilder builder("fact");
    builder.AddInt64Column("k");
    builder.AddInt64Column("v");
    for (uint32_t r = 0; r < kFactRows; ++r) {
      builder.AppendRow({rng.UniformInt(0, 511), rng.UniformInt(0, 999)});
    }
    LQO_CHECK(fcat.AddTable(builder.Build()).ok());
  }
  {
    Rng rng(102);
    TableBuilder builder("dim");
    builder.AddInt64Column("k");
    builder.AddInt64Column("w");
    for (uint32_t r = 0; r < 2048; ++r) {
      builder.AppendRow({rng.UniformInt(0, 511), rng.UniformInt(0, 99)});
    }
    LQO_CHECK(fcat.AddTable(builder.Build()).ok());
  }
  LQO_CHECK(fcat.AddJoinEdge({.left_table = "fact",
                              .left_column = "k",
                              .right_table = "dim",
                              .right_column = "k"})
                .ok());
  Catalog ncat;
  {
    Rng rng(103);
    TableBuilder builder("outer_t");
    builder.AddInt64Column("k");
    builder.AddInt64Column("v");
    for (uint32_t r = 0; r < 1800; ++r) {
      builder.AppendRow({rng.UniformInt(0, 127), rng.UniformInt(0, 999)});
    }
    LQO_CHECK(ncat.AddTable(builder.Build()).ok());
  }
  {
    Rng rng(104);
    TableBuilder builder("inner_t");
    builder.AddInt64Column("k");
    builder.AddInt64Column("w");
    for (uint32_t r = 0; r < 2000; ++r) {
      builder.AppendRow({rng.UniformInt(0, 127), rng.UniformInt(0, 99)});
    }
    LQO_CHECK(ncat.AddTable(builder.Build()).ok());
  }
  LQO_CHECK(ncat.AddJoinEdge({.left_table = "outer_t",
                              .left_column = "k",
                              .right_table = "inner_t",
                              .right_column = "k"})
                .ok());
  // t0..t2 of the 20k-row chain catalog the parallel sites share.
  Catalog ccat = MakeChainSchema(3, 20000);

  Executor fexec(&fcat);
  Executor nexec(&ncat);
  Executor cexec(&ccat);
  Query scan_q;
  scan_q.AddTable("fact");
  scan_q.AddPredicate(Predicate::Range(0, "v", 100, 600));
  scan_q.AddPredicate(
      Predicate::In(0, "k", {3, 17, 96, 204, 305, 401, 477, 508}));
  PhysicalPlan scan_plan;
  scan_plan.query = &scan_q;
  scan_plan.root = MakeScanNode(0);
  Query join_q;
  join_q.AddTable("fact");
  join_q.AddTable("dim");
  join_q.AddJoin(0, "k", 1, "k");
  PhysicalPlan hash_plan;
  hash_plan.query = &join_q;
  hash_plan.root = MakeJoinNode(JoinAlgorithm::kHashJoin, MakeScanNode(0),
                                MakeScanNode(1));
  PhysicalPlan merge_plan;
  merge_plan.query = &join_q;
  merge_plan.root = MakeJoinNode(JoinAlgorithm::kMergeJoin, MakeScanNode(0),
                                 MakeScanNode(1));
  Query nlj_q;
  nlj_q.AddTable("outer_t");
  nlj_q.AddTable("inner_t");
  nlj_q.AddJoin(0, "k", 1, "k");
  PhysicalPlan nlj_plan;
  nlj_plan.query = &nlj_q;
  nlj_plan.root = MakeJoinNode(JoinAlgorithm::kNestedLoopJoin,
                               MakeScanNode(0), MakeScanNode(1));
  Query chain_q;
  chain_q.AddTable("t0");
  chain_q.AddTable("t1");
  chain_q.AddTable("t2");
  chain_q.AddJoin(0, "id", 1, "prev_id");
  chain_q.AddJoin(1, "id", 2, "prev_id");
  chain_q.AddPredicate(Predicate::Range(0, "val", 2, 60));
  PhysicalPlan chain_plan =
      MakeLeftDeepPlan(chain_q, chain_q.AllTables(), JoinAlgorithm::kHashJoin);

  auto result_fingerprint = [](const ExecutionResult& r) {
    double f = static_cast<double>(r.row_count) * 1e-3 + r.time_units;
    for (const NodeProfile& p : r.node_profiles) {
      f += static_cast<double>(p.left_rows + p.right_rows + p.output_rows +
                               p.build_collisions + p.probe_collisions) +
           static_cast<double>(p.partitions) + p.time_units;
    }
    return f;
  };

  // 1. Determinism cube: levels inside the work function, thread counts
  // via RunSite.
  reports->push_back(RunSite("simd_kernels", counts, [&] {
    double fingerprint = 0.0;
    for (simd::Level level : levels) {
      simd::SetLevelForTest(level);
      for (auto [exec, plan] :
           {std::pair{&fexec, &scan_plan}, std::pair{&fexec, &hash_plan},
            std::pair{&fexec, &merge_plan}, std::pair{&nexec, &nlj_plan},
            std::pair{&cexec, &chain_plan}}) {
        auto r = exec->Execute(*plan);
        LQO_CHECK(r.ok());
        fingerprint += result_fingerprint(*r);
      }
    }
    simd::SetLevelForTest(entry_level);
    return fingerprint;
  }));

  // 2. Throughput. Kernel families run the per-level tables directly on
  // the fact table's columns (best-of-5 in-process, so the ratios are
  // stable on a noisy box); the join paths run whole plans.
  ThreadPool::SetGlobalThreads(hw);
  auto best_seconds = [](int reps, const std::function<void()>& fn) {
    double best = 1e100;
    for (int i = 0; i < reps; ++i) {
      double secs = SecondsOf(fn);
      if (secs < best) best = secs;
    }
    return best;
  };
  const Table& fact = **fcat.GetTable("fact");
  const int64_t* fact_k = fact.ColumnSpan(0).data();
  const int64_t* fact_v = fact.ColumnSpan(1).data();
  std::vector<uint32_t> out_sel(kFactRows);
  std::vector<uint64_t> hashes(kFactRows);
  const std::vector<int64_t> in_list = {3, 17, 96, 204, 305, 401, 477, 508};
  static volatile uint64_t simd_sink = 0;
  constexpr int kKernelPasses = 16;
  struct Family {
    const char* name;
    std::vector<double> rps;  // parallel to `levels`
  };
  std::vector<Family> families = {{"filter_eq", {}},
                                  {"filter_range", {}},
                                  {"filter_in", {}},
                                  {"join_hash", {}}};
  for (simd::Level level : levels) {
    const simd::KernelTable& kt = simd::KernelsFor(level);
    auto family_rps = [&](const std::function<void()>& pass) {
      double secs = best_seconds(5, [&] {
        for (int p = 0; p < kKernelPasses; ++p) pass();
      });
      return static_cast<double>(kFactRows) * kKernelPasses / secs;
    };
    families[0].rps.push_back(family_rps([&] {
      simd_sink = simd_sink + kt.filter_eq_dense(fact_v, 0, kFactRows, 42,
                                                 out_sel.data());
    }));
    families[1].rps.push_back(family_rps([&] {
      simd_sink = simd_sink + kt.filter_range_dense(fact_v, 0, kFactRows, 100,
                                                    600, out_sel.data());
    }));
    families[2].rps.push_back(family_rps([&] {
      simd_sink = simd_sink + kt.filter_in_dense(fact_k, 0, kFactRows,
                                                 in_list.data(),
                                                 in_list.size(),
                                                 out_sel.data());
    }));
    families[3].rps.push_back(family_rps([&] {
      std::fill(hashes.begin(), hashes.end(), 0);
      kt.hash_combine_column(hashes.data(), fact_k, 0, kFactRows);
      kt.hash_finalize(hashes.data(), 0, kFactRows);
      simd_sink = simd_sink + hashes[kFactRows - 1];
    }));
  }
  for (const Family& f : families) {
    std::fprintf(stderr, "  simd %-12s", f.name);
    for (size_t i = 0; i < levels.size(); ++i) {
      std::fprintf(stderr, "  %s %9.0f Mrows/s", simd::LevelName(levels[i]),
                   f.rps[i] / 1e6);
    }
    std::fprintf(stderr, "  (best %.2fx)\n",
                 *std::max_element(f.rps.begin(), f.rps.end()) / f.rps[0]);
  }

  // Executor-level throughput: merge join (the SIMD level does not enter
  // its comparisons), block NLJ per level (its inner loop is the dispatched
  // Eq kernel), both against the plan's total input.
  auto plan_rps = [&](Executor& ex, const PhysicalPlan& plan, double rows,
                      int passes) {
    double secs = best_seconds(3, [&] {
      for (int p = 0; p < passes; ++p) {
        auto r = ex.Execute(plan);
        LQO_CHECK(r.ok());
        simd_sink = simd_sink + r->row_count;
      }
    });
    return rows * passes / secs;
  };
  const double merge_rows = static_cast<double>(kFactRows) + 2048.0;
  const double nlj_pairs = 1800.0 * 2000.0;
  double merge_rps = plan_rps(fexec, merge_plan, merge_rows, 2);
  std::fprintf(stderr, "  simd merge_join   %9.0f Mrows/s\n", merge_rps / 1e6);
  std::vector<double> nlj_rps;
  for (simd::Level level : levels) {
    simd::SetLevelForTest(level);
    nlj_rps.push_back(plan_rps(nexec, nlj_plan, nlj_pairs, 2));
  }
  simd::SetLevelForTest(entry_level);
  std::fprintf(stderr, "  simd nlj         ");
  for (size_t i = 0; i < levels.size(); ++i) {
    std::fprintf(stderr, "  %s %9.0f Mpairs/s", simd::LevelName(levels[i]),
                 nlj_rps[i] / 1e6);
  }
  std::fprintf(stderr, "\n");

  // 3. Perf floor + JSON.
  std::ofstream sjson("BENCH_simd.json");
  sjson << "{\n  \"entry_level\": \"" << simd::LevelName(entry_level)
        << "\",\n  \"supported_levels\": [";
  for (size_t i = 0; i < levels.size(); ++i) {
    sjson << (i ? ", " : "") << "\"" << simd::LevelName(levels[i]) << "\"";
  }
  sjson << "],\n  \"rows\": " << kFactRows << ",\n  \"families\": [\n";
  for (size_t fi = 0; fi < families.size(); ++fi) {
    const Family& f = families[fi];
    double best = *std::max_element(f.rps.begin(), f.rps.end());
    sjson << "    {\"name\": \"" << f.name << "\"";
    for (size_t i = 0; i < levels.size(); ++i) {
      sjson << ", \"" << simd::LevelName(levels[i])
            << "_rows_per_sec\": " << f.rps[i];
    }
    sjson << ", \"best_speedup\": " << best / f.rps[0] << "}"
          << (fi + 1 < families.size() ? "," : "") << "\n";
  }
  sjson << "  ],\n  \"merge_join\": {\"rows\": " << merge_rows
        << ", \"rows_per_sec\": " << merge_rps
        << "},\n  \"nested_loop_join\": {\"pairs\": " << nlj_pairs;
  for (size_t i = 0; i < levels.size(); ++i) {
    sjson << ", \"" << simd::LevelName(levels[i])
          << "_pairs_per_sec\": " << nlj_rps[i];
  }
  sjson << ", \"best_speedup\": "
        << *std::max_element(nlj_rps.begin(), nlj_rps.end()) / nlj_rps[0]
        << "}\n}\n";
  sjson.close();
  std::fprintf(stderr, "wrote BENCH_simd.json\n");

#if !LQO_BENCH_SANITIZED
  // Perf floor from ISSUE 8: the best SIMD level must beat the scalar
  // reference by >= 1.3x on every filter kernel family. Only meaningful
  // when the CPU supports a non-scalar level; compiled out under TSan/ASan
  // where instrumentation skews the ratio.
  if (levels.size() > 1) {
    for (const Family& f : families) {
      if (std::string(f.name).rfind("filter_", 0) != 0) continue;
      double best = *std::max_element(f.rps.begin(), f.rps.end());
      LQO_CHECK(best >= 1.3 * f.rps[0])
          << "SIMD " << f.name << " below the 1.3x floor: best " << best
          << " rows/s vs scalar " << f.rps[0];
    }
  }
#endif
}

// Site 10 (also standalone via --agg-only): the late-materialization output
// pipeline (DESIGN.md "Late materialization & output pipeline"). Two jobs:
//   1. Determinism fingerprint: grouped aggregation over a scan, grouped
//      aggregation over a hash join (deferred row-id probe feeding the
//      sink), and a bare projection, executed at every supported SIMD level
//      (scalar, plus avx2 where the CPU has it). The fingerprint folds every output value (FNV over
//      output_cols), output_row_count and the carried/materialized/groups
//      profile counters, and RunSite sweeps it across thread counts — any
//      bit divergence across the level x threads cube fails the bench.
//   2. Throughput per pipeline shape, emitted as BENCH_agg.json.
void RunAggProjectionSite(const std::vector<int>& counts, int hw,
                          std::vector<SiteReport>* reports) {
  simd::Level entry_level = simd::ActiveLevel();
  std::vector<simd::Level> levels = simd::SupportedLevels();

  // fact(262144 rows; k in [0,511], v in [0,999]) x dim(2048 rows): 512
  // groups with ~512 rows each on the scan shape, and a fan-out join whose
  // probe output feeds the sink through deferred row ids.
  constexpr uint32_t kFactRows = 1u << 18;
  Catalog cat;
  {
    Rng rng(105);
    TableBuilder builder("fact");
    builder.AddInt64Column("k");
    builder.AddInt64Column("v");
    for (uint32_t r = 0; r < kFactRows; ++r) {
      builder.AppendRow({rng.UniformInt(0, 511), rng.UniformInt(0, 999)});
    }
    LQO_CHECK(cat.AddTable(builder.Build()).ok());
  }
  {
    Rng rng(106);
    TableBuilder builder("dim");
    builder.AddInt64Column("k");
    builder.AddInt64Column("w");
    for (uint32_t r = 0; r < 2048; ++r) {
      builder.AppendRow({rng.UniformInt(0, 511), rng.UniformInt(0, 99)});
    }
    LQO_CHECK(cat.AddTable(builder.Build()).ok());
  }
  LQO_CHECK(cat.AddJoinEdge({.left_table = "fact",
                             .left_column = "k",
                             .right_table = "dim",
                             .right_column = "k"})
                .ok());
  Executor exec(&cat);

  // Shape 1: grouped aggregation over a filtered scan (dense-range and
  // selection kernels both reachable depending on the filter).
  Query group_q;
  group_q.AddTable("fact");
  group_q.AddPredicate(Predicate::Range(0, "v", 50, 900));
  group_q.AddOutput(OutputExpr::Column(0, "k"));
  group_q.AddOutput(OutputExpr::CountStar());
  group_q.AddOutput(OutputExpr::Aggregate(AggFunc::kSum, 0, "v"));
  group_q.AddOutput(OutputExpr::Aggregate(AggFunc::kMin, 0, "v"));
  group_q.AddOutput(OutputExpr::Aggregate(AggFunc::kMax, 0, "v"));
  group_q.AddOutput(OutputExpr::Aggregate(AggFunc::kAvg, 0, "v"));
  group_q.SetGroupBy(0, "k");
  PhysicalPlan group_plan;
  group_plan.query = &group_q;
  group_plan.root = MakeScanNode(0);

  // Shape 2: grouped aggregation over a hash join — the deferred row-id
  // probe output is gathered only at the sink.
  Query jgroup_q;
  jgroup_q.AddTable("fact");
  jgroup_q.AddTable("dim");
  jgroup_q.AddJoin(0, "k", 1, "k");
  jgroup_q.AddOutput(OutputExpr::Column(1, "w"));
  jgroup_q.AddOutput(OutputExpr::CountStar());
  jgroup_q.AddOutput(OutputExpr::Aggregate(AggFunc::kSum, 0, "v"));
  jgroup_q.AddOutput(OutputExpr::Aggregate(AggFunc::kMax, 0, "v"));
  jgroup_q.SetGroupBy(1, "w");
  PhysicalPlan jgroup_plan;
  jgroup_plan.query = &jgroup_q;
  jgroup_plan.root = MakeJoinNode(JoinAlgorithm::kHashJoin, MakeScanNode(0),
                                  MakeScanNode(1));

  // Shape 3: bare projection of a filtered scan (run-detected gathers).
  Query proj_q;
  proj_q.AddTable("fact");
  proj_q.AddPredicate(Predicate::Range(0, "v", 100, 600));
  proj_q.AddOutput(OutputExpr::Column(0, "v"));
  proj_q.AddOutput(OutputExpr::Column(0, "k"));
  PhysicalPlan proj_plan;
  proj_plan.query = &proj_q;
  proj_plan.root = MakeScanNode(0);

  // Folds every output value: a wrong gather, group id, or aggregate at any
  // level/thread count changes the fingerprint.
  auto output_fingerprint = [](const ExecutionResult& r) {
    uint64_t h = 0xcbf29ce484222325ull;
    for (const std::vector<int64_t>& col : r.output_cols) {
      for (int64_t v : col) {
        h = (h ^ static_cast<uint64_t>(v)) * 0x100000001b3ull;
      }
    }
    double f = static_cast<double>(r.row_count) * 1e-3 +
               static_cast<double>(r.output_row_count) +
               static_cast<double>(h >> 11) * 1e-9;
    for (const NodeProfile& p : r.node_profiles) {
      f += static_cast<double>(p.output_rows + p.carried_columns +
                               p.materialized_values + p.groups) +
           p.time_units;
    }
    return f;
  };

  // 1. Determinism cube: levels inside the work function, thread counts
  // via RunSite.
  reports->push_back(RunSite("agg_projection", counts, [&] {
    double fingerprint = 0.0;
    for (simd::Level level : levels) {
      simd::SetLevelForTest(level);
      for (const PhysicalPlan* plan :
           {&group_plan, &jgroup_plan, &proj_plan}) {
        auto r = exec.Execute(*plan);
        LQO_CHECK(r.ok());
        fingerprint += output_fingerprint(*r);
      }
    }
    simd::SetLevelForTest(entry_level);
    return fingerprint;
  }));

  // 2. Throughput at full thread count, best-of-5.
  ThreadPool::SetGlobalThreads(hw);
  static volatile double agg_sink = 0.0;
  auto plan_rps = [&](const PhysicalPlan& plan, double rows, int passes) {
    double best = 1e100;
    for (int rep = 0; rep < 5; ++rep) {
      double secs = SecondsOf([&] {
        for (int p = 0; p < passes; ++p) {
          auto r = exec.Execute(plan);
          LQO_CHECK(r.ok());
          agg_sink = agg_sink + static_cast<double>(r->output_row_count);
        }
      });
      if (secs < best) best = secs;
    }
    return rows * passes / best;
  };
  struct Shape {
    const char* name;
    const PhysicalPlan* plan;
    double rows;
    uint64_t output_rows = 0;
    double rps = 0.0;
  };
  std::vector<Shape> shapes = {
      {"grouped_scan", &group_plan, static_cast<double>(kFactRows)},
      {"grouped_join", &jgroup_plan, static_cast<double>(kFactRows) + 2048.0},
      {"projection", &proj_plan, static_cast<double>(kFactRows)}};
  for (Shape& s : shapes) {
    auto r = exec.Execute(*s.plan);
    LQO_CHECK(r.ok());
    s.output_rows = r->output_row_count;
    s.rps = plan_rps(*s.plan, s.rows, 5);
    std::fprintf(stderr, "  agg %-13s %12.0f rows/s  (%llu output rows)\n",
                 s.name, s.rps, static_cast<unsigned long long>(s.output_rows));
  }

  std::ofstream ajson("BENCH_agg.json");
  ajson << "{\n  \"rows\": " << kFactRows << ",\n  \"shapes\": [\n";
  for (size_t i = 0; i < shapes.size(); ++i) {
    const Shape& s = shapes[i];
    ajson << "    {\"name\": \"" << s.name
          << "\", \"output_rows\": " << s.output_rows
          << ", \"rows_per_sec\": " << s.rps << "}"
          << (i + 1 < shapes.size() ? "," : "") << "\n";
  }
  ajson << "  ]\n}\n";
  ajson.close();
  std::fprintf(stderr, "wrote BENCH_agg.json\n");
}

std::vector<std::vector<double>> MakeMlRows(size_t n, size_t features,
                                            std::vector<double>* targets) {
  Rng rng(5);
  std::vector<std::vector<double>> rows;
  rows.reserve(n);
  targets->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row(features);
    double y = 0.0;
    for (size_t f = 0; f < features; ++f) {
      row[f] = rng.UniformDouble(-2.0, 2.0);
      y += (f % 2 == 0 ? 1.0 : -0.5) * row[f] * row[f];
    }
    rows.push_back(std::move(row));
    targets->push_back(y);
  }
  return rows;
}

}  // namespace
}  // namespace lqo

int main(int argc, char** argv) {
  using namespace lqo;

  int hw = ThreadPool::ParseThreadCount(nullptr);
  std::set<int> count_set = {1, 2, 4, hw};
  std::vector<int> counts(count_set.begin(), count_set.end());

  std::fprintf(stderr, "bench_parallel_scaling (hardware_concurrency=%d)\n",
               hw);

  // --simd-only: run just the simd_kernels site, which itself sweeps every
  // supported SIMD level (scripts/check.sh uses this to check the kernel
  // layer without paying for the full suite).
  bool simd_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--simd-only") simd_only = true;
  }
  if (simd_only) {
    std::vector<SiteReport> simd_reports;
    RunSimdKernelsSite(counts, hw, &simd_reports);
    ThreadPool::SetGlobalThreads(hw);
    bool ok = true;
    for (const SiteReport& r : simd_reports) ok &= r.deterministic;
    std::fprintf(stderr, "simd_kernels only (%s)\n",
                 ok ? "deterministic" : "DETERMINISM VIOLATION");
    return ok ? 0 : 1;
  }

  // --agg-only: run just the agg_projection site (scripts/check.sh uses
  // this to gate the late-materialization output pipeline under TSan).
  bool agg_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--agg-only") agg_only = true;
  }
  if (agg_only) {
    std::vector<SiteReport> agg_reports;
    RunAggProjectionSite(counts, hw, &agg_reports);
    ThreadPool::SetGlobalThreads(hw);
    bool ok = true;
    for (const SiteReport& r : agg_reports) ok &= r.deterministic;
    std::fprintf(stderr, "agg_projection only (%s)\n",
                 ok ? "deterministic" : "DETERMINISM VIOLATION");
    return ok ? 0 : 1;
  }

  auto lab = MakeLab("stats_lite", 0.05);
  WorkloadOptions wopts;
  wopts.num_queries = 48;
  wopts.min_tables = 3;
  wopts.max_tables = 6;
  wopts.seed = 2024;
  Workload workload = GenerateWorkload(lab->catalog, wopts);

  std::vector<SiteReport> reports;

  // Site 1: benchmark-harness fan-out — plan + execute every workload query.
  reports.push_back(RunSite("harness_sweep", counts, [&] {
    double total = 0.0;
    for (const SweepResult& r : SweepWorkload(*lab, workload)) {
      total += r.time_units + r.estimated_cost;
    }
    return total;
  }));

  // Site 2: ensemble training — random forest (per-tree) and GBDT
  // (per-feature split search).
  {
    std::vector<double> targets;
    std::vector<std::vector<double>> rows = MakeMlRows(3000, 12, &targets);
    reports.push_back(RunSite("forest_train", counts, [&] {
      ForestOptions options;
      options.num_trees = 48;
      RandomForest forest(options);
      forest.Fit(rows, targets);
      double fingerprint = 0.0;
      for (const auto& row : rows) fingerprint += forest.Predict(row);
      return fingerprint;
    }));
    reports.push_back(RunSite("gbdt_train", counts, [&] {
      GbdtOptions options;
      options.num_trees = 40;
      options.subsample = 1.0;
      GradientBoostedTrees gbdt(options);
      gbdt.Fit(rows, targets);
      double fingerprint = 0.0;
      for (const auto& row : rows) fingerprint += gbdt.Predict(row);
      return fingerprint;
    }));
  }

  // Site 3: workload-wide estimator evaluation (SPN inference per subquery).
  {
    CeTrainingData data = BuildCeTrainingData(lab->catalog, lab->stats,
                                              workload, lab->truth.get());
    DataDrivenEstimator spn("deepdb_spn", &lab->catalog, &lab->stats,
                            JoinCombineMode::kIndependence);
    spn.Build();
    reports.push_back(RunSite("ce_evaluation", counts, [&] {
      double total = 0.0;
      for (double q : EstimatorQErrors(&spn, data.labeled)) total += q;
      return total;
    }));
  }

  // Sites 4-6 ride on a chain catalog big enough to clear the executor's
  // and SPN's input-size gates (20k rows/table >> the 8192/512 thresholds).
  Catalog chain = MakeChainSchema(5, 20000);

  // Site 4: radix-partitioned hash-join execution. Queries execute one at a
  // time at top level, so the per-join build/probe fan-out is what scales.
  {
    Executor chain_executor(&chain);
    WorkloadOptions jopts;
    jopts.num_queries = 12;
    jopts.min_tables = 3;
    jopts.max_tables = 5;
    jopts.seed = 777;
    Workload join_workload = GenerateWorkload(chain, jopts);
    reports.push_back(RunSite("partitioned_join", counts, [&] {
      double fingerprint = 0.0;
      for (const Query& q : join_workload.queries) {
        PhysicalPlan plan =
            MakeLeftDeepPlan(q, q.AllTables(), JoinAlgorithm::kHashJoin);
        auto result = chain_executor.Execute(plan);
        LQO_CHECK(result.ok());
        fingerprint +=
            static_cast<double>(result->row_count) + result->time_units;
        for (const NodeProfile& p : result->node_profiles) {
          fingerprint += static_cast<double>(p.build_collisions +
                                             p.probe_collisions);
        }
      }
      return fingerprint;
    }));
  }

  // Site 5: SPN training — parallel child regions after each split.
  reports.push_back(RunSite("spn_train", counts, [&] {
    const Table* t1 = *chain.GetTable("t1");
    SpnTableModel model(t1);
    Query probe;
    probe.AddTable("t1");
    probe.AddPredicate(Predicate::Range(0, "val", 2, 40));
    return static_cast<double>(model.num_nodes()) +
           model.Selectivity(probe, 0);
  }));

  // Site 6: Chow-Liu pairwise mutual-information triangle (16 variables ->
  // 120 independent MI tasks over 20k rows each).
  {
    Rng rng(99);
    const size_t kRows = 20000, kVars = 16;
    const int64_t kDomain = 24;
    std::vector<std::vector<int64_t>> columns(kVars);
    std::vector<int64_t> domains(kVars, kDomain);
    for (size_t v = 0; v < kVars; ++v) {
      columns[v].reserve(kRows);
      for (size_t r = 0; r < kRows; ++r) {
        columns[v].push_back(rng.UniformInt(0, kDomain - 1));
      }
    }
    reports.push_back(RunSite("chow_liu_mi", counts, [&] {
      ChowLiuResult tree = LearnChowLiuTree(columns, domains);
      double fingerprint = 0.0;
      for (size_t i = 0; i < tree.parent.size(); ++i) {
        fingerprint += static_cast<double>(tree.parent[i]) * 31.0 +
                       static_cast<double>(tree.topological_order[i]);
      }
      return fingerprint;
    }));
  }

  // Site 7: batched model inference — one PredictBatch pass over a shared
  // feature matrix for every model family (compact ensemble arenas, blocked
  // MLP forward), morsel-chunked across the pool. The fingerprint sums every
  // prediction, so any thread-count-dependent reordering of the batch path
  // shows up as a determinism violation.
  struct InferenceThroughput {
    std::string name;
    double scalar_rows_per_sec = 0.0;
    double batch_rows_per_sec = 0.0;
  };
  std::vector<InferenceThroughput> inference;
  size_t inference_rows = 0;
  {
    std::vector<double> targets;
    std::vector<std::vector<double>> rows = MakeMlRows(4096, 12, &targets);
    inference_rows = rows.size();
    FeatureMatrix matrix(12);
    matrix.Reserve(rows.size());
    for (const auto& row : rows) matrix.AddRow(row);

    ForestOptions fopts;
    fopts.num_trees = 24;
    RandomForest forest(fopts);
    forest.Fit(rows, targets);
    GbdtOptions gopts;
    gopts.num_trees = 40;
    gopts.subsample = 1.0;
    GradientBoostedTrees gbdt(gopts);
    gbdt.Fit(rows, targets);
    MlpOptions mopts;
    mopts.hidden_layers = {32, 16};
    mopts.epochs = 10;
    Mlp mlp(mopts);
    mlp.Fit(rows, targets);

    reports.push_back(RunSite("inference_batch", counts, [&] {
      std::vector<double> out(matrix.rows());
      double fingerprint = 0.0;
      forest.PredictBatch(matrix, out);
      for (double v : out) fingerprint += v;
      gbdt.PredictBatch(matrix, out);
      for (double v : out) fingerprint += v;
      mlp.PredictBatch(matrix, out);
      for (double v : out) fingerprint += v;
      return fingerprint;
    }));

    // Scalar-vs-batch throughput at full thread count, best-of-3 over
    // repeated passes, for BENCH_inference.json.
    ThreadPool::SetGlobalThreads(hw);
    static volatile double sink = 0.0;
    std::vector<double> out(matrix.rows());
    auto rows_per_sec = [&](const std::function<void()>& pass) {
      const int kPasses = 20;
      double best = 1e100;
      for (int rep = 0; rep < 5; ++rep) {
        double secs = SecondsOf([&] {
          for (int p = 0; p < kPasses; ++p) pass();
        });
        if (secs < best) best = secs;
      }
      return static_cast<double>(matrix.rows()) * kPasses / best;
    };
    auto measure = [&](const std::string& name, auto& model) {
      InferenceThroughput t;
      t.name = name;
      t.scalar_rows_per_sec = rows_per_sec([&] {
        double total = 0.0;
        for (const auto& row : rows) total += model.Predict(row);
        sink = sink + total;
      });
      t.batch_rows_per_sec = rows_per_sec([&] {
        model.PredictBatch(matrix, out);
        sink = sink + out[0];
      });
      std::fprintf(stderr,
                   "  inference %-8s scalar %12.0f rows/s  batch %12.0f "
                   "rows/s  (%.2fx)\n",
                   name.c_str(), t.scalar_rows_per_sec, t.batch_rows_per_sec,
                   t.batch_rows_per_sec / t.scalar_rows_per_sec);
      inference.push_back(t);
    };
    measure("forest", forest);
    measure("gbdt", gbdt);
    measure("mlp", mlp);
#if !LQO_BENCH_SANITIZED
    // GBDT batch inference (tree-major over the compact arenas) must be at
    // least as fast as per-row Predict. Compiled out under sanitizers.
    for (const InferenceThroughput& t : inference) {
      if (t.name == "gbdt") {
        LQO_CHECK(t.batch_rows_per_sec >= t.scalar_rows_per_sec)
            << "GBDT batch inference regressed below scalar: "
            << t.batch_rows_per_sec << " vs " << t.scalar_rows_per_sec;
      }
    }
#endif
  }

  // Site 8: plan-signature feature cache — a cold epoch of concurrent
  // inserts then a warm epoch of concurrent hits. The fingerprint sums the
  // served feature values, so a cache bug (wrong row for a key, torn
  // write, stale serve) breaks determinism rather than just throughput.
  std::vector<const Query*> cache_queries;
  std::vector<PhysicalPlan> cache_plans;
  for (const Query& q : workload.queries) {
    for (JoinAlgorithm algorithm :
         {JoinAlgorithm::kHashJoin, JoinAlgorithm::kMergeJoin,
          JoinAlgorithm::kNestedLoopJoin}) {
      cache_plans.push_back(MakeLeftDeepPlan(q, q.AllTables(), algorithm));
      cache_queries.push_back(&q);
    }
  }
  reports.push_back(RunSite("feature_cache", counts, [&] {
    FeatureCache cache(PlanFeaturizer::kDim);
    E2eContext context = lab->Context();
    context.feature_cache = &cache;
    double fingerprint = 0.0;
    for (int epoch = 0; epoch < 2; ++epoch) {
      std::vector<double> sums =
          ParallelMap(cache_plans.size(), [&](size_t i) {
            std::vector<double> f = FeaturizePlanCachedVec(
                context, *cache_queries[i], cache_plans[i],
                /*annotated=*/false);
            double s = 0.0;
            for (double v : f) s += v;
            return s;
          });
      for (double s : sums) fingerprint += s;
    }
    return fingerprint;
  }));

  // Cold-vs-warm featurization throughput at full thread count for
  // BENCH_cache.json: the cold pass pays clone + baseline annotation +
  // featurization per candidate, warm passes serve the same rows from the
  // cache by key.
  double cache_cold_rps = 0.0;
  double cache_warm_rps = 0.0;
  FeatureCacheStats cache_stats;
  {
    ThreadPool::SetGlobalThreads(hw);
    static volatile double cache_sink = 0.0;
    double cold_best = 1e100, warm_best = 1e100;
    for (int rep = 0; rep < 3; ++rep) {
      FeatureCache cache(PlanFeaturizer::kDim);
      E2eContext context = lab->Context();
      context.feature_cache = &cache;
      auto pass = [&] {
        std::vector<double> firsts =
            ParallelMap(cache_plans.size(), [&](size_t i) {
              return FeaturizePlanCachedVec(context, *cache_queries[i],
                                            cache_plans[i],
                                            /*annotated=*/false)[0];
            });
        cache_sink = cache_sink + firsts[0];
      };
      double cold = SecondsOf(pass);
      if (cold < cold_best) cold_best = cold;
      for (int p = 0; p < 5; ++p) {
        double warm = SecondsOf(pass);
        if (warm < warm_best) warm_best = warm;
      }
      cache_stats = cache.Stats();
    }
    cache_cold_rps = static_cast<double>(cache_plans.size()) / cold_best;
    cache_warm_rps = static_cast<double>(cache_plans.size()) / warm_best;
    std::fprintf(stderr,
                 "  feature_cache cold %10.0f rows/s  warm %10.0f rows/s  "
                 "(%.2fx; %llu hits / %llu misses)\n",
                 cache_cold_rps, cache_warm_rps,
                 cache_warm_rps / cache_cold_rps,
                 static_cast<unsigned long long>(cache_stats.hits),
                 static_cast<unsigned long long>(cache_stats.misses));
  }

  // Site 9: SIMD kernel layer (levels x threads determinism cube,
  // per-family throughput, BENCH_simd.json, 1.3x filter floor).
  RunSimdKernelsSite(counts, hw, &reports);

  // Site 10: late-materialization output pipeline (grouped aggregation +
  // projection determinism cube, per-shape throughput, BENCH_agg.json).
  RunAggProjectionSite(counts, hw, &reports);

  ThreadPool::SetGlobalThreads(hw);

  std::ofstream cjson("BENCH_cache.json");
  cjson << "{\n  \"feature_cache\": {\"rows\": " << cache_plans.size()
        << ", \"cold_rows_per_sec\": " << cache_cold_rps
        << ", \"warm_rows_per_sec\": " << cache_warm_rps
        << ", \"warm_speedup\": " << cache_warm_rps / cache_cold_rps
        << ", \"hits\": " << cache_stats.hits
        << ", \"misses\": " << cache_stats.misses
        << ", \"evictions\": " << cache_stats.evictions << "}\n}\n";
  cjson.close();
  std::fprintf(stderr, "wrote BENCH_cache.json\n");

  std::ofstream ijson("BENCH_inference.json");
  ijson << "{\n  \"rows\": " << inference_rows << ",\n  \"models\": [\n";
  for (size_t i = 0; i < inference.size(); ++i) {
    const InferenceThroughput& t = inference[i];
    ijson << "    {\"name\": \"" << t.name << "\", \"scalar_rows_per_sec\": "
          << t.scalar_rows_per_sec << ", \"batch_rows_per_sec\": "
          << t.batch_rows_per_sec << ", \"batch_speedup\": "
          << t.batch_rows_per_sec / t.scalar_rows_per_sec << "}"
          << (i + 1 < inference.size() ? "," : "") << "\n";
  }
  ijson << "  ]\n}\n";
  ijson.close();
  std::fprintf(stderr, "wrote BENCH_inference.json\n");

  std::ofstream json("BENCH_parallel.json");
  json << "{\n  \"hardware_concurrency\": " << hw << ",\n  \"sites\": [\n";
  for (size_t i = 0; i < reports.size(); ++i) {
    const SiteReport& r = reports[i];
    json << "    {\"name\": \"" << r.name << "\", \"deterministic\": "
         << (r.deterministic ? "true" : "false") << ", \"timings\": [";
    for (size_t j = 0; j < r.seconds_at.size(); ++j) {
      json << (j ? ", " : "") << "{\"threads\": " << r.seconds_at[j].first
           << ", \"seconds\": " << r.seconds_at[j].second << "}";
    }
    json << "], \"speedup_4v1\": " << r.SpeedupAt(4) << "}"
         << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  json.close();

  bool all_deterministic = true;
  for (const SiteReport& r : reports) all_deterministic &= r.deterministic;
  std::fprintf(stderr, "wrote BENCH_parallel.json (%s)\n",
               all_deterministic ? "all sites deterministic"
                                 : "DETERMINISM VIOLATION");
  return all_deterministic ? 0 : 1;
}
