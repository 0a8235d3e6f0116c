// Parallel-scaling microbenchmark: min/median/max wall-clock of each
// parallelized site at 1/2/4/N threads over interleaved reps →
// BENCH_parallel.json, each sweep checking that parallel results equal
// serial ones (the determinism contract), so a scaling regression can never
// hide a correctness one. `--site <name>` runs one site.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "benchlib/bench_site.h"
#include "benchlib/lab.h"
#include "cardinality/data_driven.h"
#include "cardinality/evaluation.h"
#include "cardinality/spn_model.h"
#include "cardinality/training_data.h"
#include "common/logging.h"
#include "common/rng.h"
#include "costmodel/plan_featurizer.h"
#include "e2e/framework.h"
#include "engine/executor.h"
#include "engine/simd.h"
#include "ml/chow_liu.h"
#include "ml/dataset.h"
#include "ml/feature_cache.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/mlp.h"
#include "query/sql_parser.h"
#include "query/workload.h"
#include "storage/datasets.h"

namespace lqo {
namespace {

// `left`(k, v) joined on k to `right`(k, w): k in [0, key_max], v in
// [0, 999], w in [0, 99], drawn from Rng seeds `seed` and `seed + 1`.
Catalog MakeKeyedPair(const std::string& left, uint32_t left_rows,
                      const std::string& right, uint32_t right_rows,
                      int64_t key_max, uint64_t seed) {
  Catalog cat;
  for (int side = 0; side < 2; ++side) {
    Rng rng(seed + static_cast<uint64_t>(side));
    TableBuilder builder(side == 0 ? left : right);
    builder.AddInt64Column("k");
    builder.AddInt64Column(side == 0 ? "v" : "w");
    for (uint32_t r = 0; r < (side == 0 ? left_rows : right_rows); ++r) {
      builder.AppendRow(
          {rng.UniformInt(0, key_max), rng.UniformInt(0, side ? 99 : 999)});
    }
    LQO_CHECK(cat.AddTable(builder.Build()).ok());
  }
  LQO_CHECK(cat.AddJoinEdge({left, "k", right, "k"}).ok());
  return cat;
}

PhysicalPlan LeftDeep(const Query& q,
                      JoinAlgorithm algorithm = JoinAlgorithm::kHashJoin) {
  return MakeLeftDeepPlan(q, q.AllTables(), algorithm);
}

double RowCount(const Executor& exec, const PhysicalPlan& plan) {
  return static_cast<double>(exec.Execute(plan)->row_count);
}

// Sum over SIMD levels (level-major) and `runs` of `fingerprint(result)`.
double LevelCube(
    const std::vector<std::pair<const Executor*, const PhysicalPlan*>>& runs,
    const std::function<double(const ExecutionResult&)>& fingerprint) {
  const simd::Level entry_level = simd::ActiveLevel();
  double total = 0.0;
  for (simd::Level level : simd::SupportedLevels()) {
    simd::SetLevelForTest(level);
    for (const auto& [exec, plan] : runs) {
      total += fingerprint(*exec->Execute(*plan));
    }
  }
  simd::SetLevelForTest(entry_level);
  return total;
}

// BestRates of `pass` at each SIMD level, interleaved, set on `row` as
// "<level>_<unit>_per_sec"; returns and sets "best_speedup" over scalar.
double PerLevelRate(
    int reps, int passes, double items,
    const std::function<double(const simd::KernelTable&)>& pass,
    const std::string& unit, Json* row) {
  const simd::Level entry_level = simd::ActiveLevel();
  const std::vector<simd::Level> levels = simd::SupportedLevels();
  std::vector<std::function<double()>> fns;
  for (simd::Level l : levels) {
    fns.push_back([&, l] {
      simd::SetLevelForTest(l);
      return pass(simd::KernelsFor(l));
    });
  }
  const std::vector<double> rate = BestRates(reps, passes, items, fns);
  simd::SetLevelForTest(entry_level);
  for (size_t i = 0; i < levels.size(); ++i) {
    row->Set(std::string(simd::LevelName(levels[i])) + "_" + unit + "_per_sec",
             rate[i]);
  }
  const double speedup = *std::max_element(rate.begin(), rate.end()) / rate[0];
  row->Set("best_speedup", speedup);
  return speedup;
}

// simd_kernels: the SIMD kernel layer (engine/simd.h) and the plans it
// feeds, over every level x thread count. Rates → BENCH_simd.json; in plain
// builds the best level must beat scalar by >= 1.3x on every filter family.
void RunSimdKernelsSite(BenchHarness& h, const std::vector<int>& counts) {
  // fact x dim feeds scan, hash- and (under the 2^20 gate) merge-join;
  // outer x inner stays under the 2^22-pair gate, so the NLJ-declared plan
  // takes the real block path.
  constexpr uint32_t kFactRows = 1u << 18;
  Catalog fcat = MakeKeyedPair("fact", kFactRows, "dim", 2048, 511, 101);
  Catalog ncat = MakeKeyedPair("outer_t", 1800, "inner_t", 2000, 127, 103);
  Catalog ccat = MakeChainSchema(3, 20000);
  Executor fexec(&fcat), nexec(&ncat), cexec(&ccat);
  const Query scan_q = *ParseSql(
      fcat, "SELECT COUNT(*) FROM fact f WHERE f.v BETWEEN 100 AND 600 AND f.k "
            "IN (3, 17, 96, 204, 305, 401, 477, 508)");
  const Query join_q =
      *ParseSql(fcat, "SELECT COUNT(*) FROM fact f, dim d WHERE f.k = d.k");
  const Query nlj_q = *ParseSql(
      ncat, "SELECT COUNT(*) FROM outer_t o, inner_t i WHERE o.k = i.k");
  const Query chain_q = *ParseSql(
      ccat, "SELECT COUNT(*) FROM t0, t1, t2 WHERE t0.id = t1.prev_id AND "
            "t1.id = t2.prev_id AND t0.val BETWEEN 2 AND 60");
  const PhysicalPlan scan_plan = LeftDeep(scan_q);
  const PhysicalPlan hash_plan = LeftDeep(join_q);
  const PhysicalPlan merge_plan = LeftDeep(join_q, JoinAlgorithm::kMergeJoin);
  const PhysicalPlan nlj_plan = LeftDeep(nlj_q, JoinAlgorithm::kNestedLoopJoin);
  const PhysicalPlan chain_plan = LeftDeep(chain_q);
  h.Sweep("simd_kernels", counts, [&] {
    return LevelCube({{&fexec, &scan_plan}, {&fexec, &hash_plan},
                      {&fexec, &merge_plan}, {&nexec, &nlj_plan},
                      {&cexec, &chain_plan}},
                     [](const ExecutionResult& r) {
                       double f = static_cast<double>(r.row_count) * 1e-3 +
                                  r.time_units;
                       for (const NodeProfile& p : r.node_profiles) {
                         f += static_cast<double>(
                                  p.left_rows + p.right_rows + p.output_rows +
                                  p.build_collisions + p.probe_collisions) +
                              p.time_units;
                       }
                       return f;
                     });
  });
  // Kernel families run each level's table directly on the fact columns.
  const Table& fact = **fcat.GetTable("fact");
  const int64_t* k = fact.ColumnSpan(0).data();
  const int64_t* v = fact.ColumnSpan(1).data();
  std::vector<uint32_t> sel(kFactRows);
  std::vector<uint64_t> hashes(kFactRows);
  const std::vector<int64_t> in_list = {3, 17, 96, 204, 305, 401, 477, 508};
  using Kernel = std::function<double(const simd::KernelTable&)>;
  const std::vector<std::pair<std::string, Kernel>> families = {
      {"filter_eq",
       [&](const simd::KernelTable& kt) {
         return kt.filter_eq_dense(v, 0, kFactRows, 42, sel.data());
       }},
      {"filter_range",
       [&](const simd::KernelTable& kt) {
         return kt.filter_range_dense(v, 0, kFactRows, 100, 600, sel.data());
       }},
      {"filter_in",
       [&](const simd::KernelTable& kt) {
         return kt.filter_in_dense(k, 0, kFactRows, in_list.data(),
                                   in_list.size(), sel.data());
       }},
      {"join_hash", [&](const simd::KernelTable& kt) {
         std::fill(hashes.begin(), hashes.end(), 0);
         kt.hash_combine_column(hashes.data(), k, 0, kFactRows);
         kt.hash_finalize(hashes.data(), 0, kFactRows);
         return hashes[kFactRows - 1];
       }}};
  Json family_json = Json::Array();
  for (const auto& [name, kernel] : families) {
    Json row = Json::Object({{"name", name}});
    const double speedup = PerLevelRate(5, 16, kFactRows, kernel, "rows", &row);
    family_json.Push(row);
    if (simd::SupportedLevels().size() > 1 && name.rfind("filter_", 0) == 0) {
      h.Gate(GateArming::kPlainBuildsOnly, [&] { return speedup >= 1.3; },
             "SIMD %s best level %.3fx scalar >= 1.3x", name.c_str(), speedup);
    }
  }
  // Merge join (the level does not enter its comparisons) and block NLJ per
  // level (its inner loop is the dispatched Eq kernel), per plan input.
  const double merge_rows = kFactRows + 2048.0, nlj_pairs = 1800.0 * 2000.0;
  Json nlj_json = Json::Object({{"pairs", nlj_pairs}});
  PerLevelRate(
      3, 2, nlj_pairs,
      [&](const simd::KernelTable&) { return RowCount(nexec, nlj_plan); },
      "pairs", &nlj_json);
  Json level_names = Json::Array();
  for (simd::Level l : simd::SupportedLevels()) {
    level_names.Push(simd::LevelName(l));
  }
  h.Ledger("BENCH_simd.json")
      .Set("entry_level", simd::LevelName(simd::ActiveLevel()))
      .Set("supported_levels", level_names)
      .Set("rows", kFactRows)
      .Set("families", family_json)
      .Set("merge_join",
           Json::Object({{"rows", merge_rows},
                         {"rows_per_sec",
                          BestRates(3, 2, merge_rows, {[&] {
                                      return RowCount(fexec, merge_plan);
                                    }})[0]}}))
      .Set("nested_loop_join", nlj_json);
}

// Folds a result's row counts, every output value and every node's profile
// counters (groups included) and time_units.
double OutputFingerprint(const ExecutionResult& r) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::vector<int64_t>& col : r.output_cols) {
    for (int64_t x : col) {
      hash = (hash ^ static_cast<uint64_t>(x)) * 0x100000001b3ull;
    }
  }
  double f = static_cast<double>(r.row_count) * 1e-3 +
             static_cast<double>(r.output_row_count) +
             static_cast<double>(hash >> 11) * 1e-9;
  for (const NodeProfile& p : r.node_profiles) {
    f += static_cast<double>(p.output_rows + p.carried_columns +
                             p.materialized_values + p.groups) +
         p.time_units;
  }
  return f;
}

// agg_projection: the late-materialization output pipeline (DESIGN.md) over
// every SIMD level x thread count, folding every output value; rows/s →
// BENCH_agg.json. Shapes: 512 groups of ~512 rows over a scan, grouping over
// a fan-out hash join (row ids gathered only at the sink), a projection.
void RunAggProjectionSite(BenchHarness& h, const std::vector<int>& counts) {
  constexpr uint32_t kFactRows = 1u << 18;
  Catalog cat = MakeKeyedPair("fact", kFactRows, "dim", 2048, 511, 105);
  Executor exec(&cat);
  const Query group_q = *ParseSql(
      cat, "SELECT f.k, COUNT(*), SUM(f.v), MIN(f.v), MAX(f.v), AVG(f.v) FROM "
           "fact f WHERE f.v BETWEEN 50 AND 900 GROUP BY f.k");
  const Query jgroup_q = *ParseSql(
      cat, "SELECT d.w, COUNT(*), SUM(f.v), MAX(f.v) FROM fact f, dim d WHERE "
           "f.k = d.k GROUP BY d.w");
  const Query proj_q = *ParseSql(
      cat, "SELECT f.v, f.k FROM fact f WHERE f.v BETWEEN 100 AND 600");
  const PhysicalPlan group_plan = LeftDeep(group_q);
  const PhysicalPlan jgroup_plan = LeftDeep(jgroup_q);
  const PhysicalPlan proj_plan = LeftDeep(proj_q);
  h.Sweep("agg_projection", counts, [&] {
    return LevelCube(
        {{&exec, &group_plan}, {&exec, &jgroup_plan}, {&exec, &proj_plan}},
        OutputFingerprint);
  });
  Json shapes = Json::Array();
  for (const auto& [name, plan, rows] :
       {std::tuple{"grouped_scan", &group_plan, kFactRows + 0.0},
        std::tuple{"grouped_join", &jgroup_plan, kFactRows + 2048.0},
        std::tuple{"projection", &proj_plan, kFactRows + 0.0}}) {
    auto r = exec.Execute(*plan);
    shapes.Push(Json::Object(
        {{"name", name},
         {"output_rows", r->output_row_count},
         {"rows_per_sec", BestRates(5, 5, rows, {[&] {
                                      return RowCount(exec, *plan);
                                    }})[0]}}));
  }
  h.Ledger("BENCH_agg.json").Set("rows", kFactRows).Set("shapes", shapes);
}

// scan_filter: the executor's parallel splits without any join, at the
// active SIMD level — scan morsels under a COUNT(*) range filter, and GROUP
// BY hash morsels under a grouped filter whose key domain is past the
// direct-table cap (2 * rows + 1024, and 2^20), so keys are hashed.
void RunScanFilterSite(BenchHarness& h, const std::vector<int>& counts) {
  constexpr uint32_t kRows = 1u << 18;
  constexpr int64_t kGroups = 4096;
  constexpr int64_t kKeyStride = 1000003;  // domain ~4.1e9
  Rng rng(107);
  TableBuilder builder("fact");
  builder.AddInt64Column("v");
  builder.AddInt64Column("g");
  std::set<int64_t> grouped_keys;  // keys of rows the grouped filter keeps
  for (uint32_t r = 0; r < kRows; ++r) {
    const int64_t v = rng.UniformInt(0, 999);
    const int64_t g = rng.UniformInt(0, kGroups - 1) * kKeyStride;
    builder.AppendRow({v, g});
    if (v >= 50 && v <= 900) grouped_keys.insert(g);
  }
  Catalog cat;
  LQO_CHECK(cat.AddTable(builder.Build()).ok());
  LQO_CHECK(*grouped_keys.rbegin() - *grouped_keys.begin() >= (1 << 20));
  Executor exec(&cat);
  const Query filter_q = *ParseSql(
      cat, "SELECT COUNT(*) FROM fact f WHERE f.v BETWEEN 100 AND 600");
  const Query group_q = *ParseSql(
      cat, "SELECT f.g, COUNT(*), SUM(f.v) FROM fact f WHERE f.v BETWEEN 50 "
           "AND 900 GROUP BY f.g");
  const PhysicalPlan filter_plan = LeftDeep(filter_q);
  const PhysicalPlan group_plan = LeftDeep(group_q);
  const ExecutionResult grouped = *exec.Execute(group_plan);
  uint64_t groups = 0;
  for (const NodeProfile& node : grouped.node_profiles) groups += node.groups;
  LQO_CHECK_EQ(groups, grouped_keys.size());
  h.Sweep("scan_filter", counts, [&] {
    return OutputFingerprint(*exec.Execute(filter_plan)) +
           OutputFingerprint(*exec.Execute(group_plan));
  });
}

std::vector<std::vector<double>> MakeMlRows(size_t n,
                                            std::vector<double>* targets) {
  Rng rng(5);
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> row(12);
    double y = 0.0;
    for (size_t f = 0; f < row.size(); ++f) {
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
  BenchHarness h(argc, argv);
  const std::set<int> count_set = {1, 2, 4, h.hw()};
  const std::vector<int> counts(count_set.begin(), count_set.end());
  auto lab = MakeLab("stats_lite", 0.05);
  const Workload workload = GenerateWorkload(
      lab->catalog,
      {.seed = 2024, .num_queries = 48, .min_tables = 3, .max_tables = 6});

  // Benchmark-harness fan-out: plan + execute every workload query.
  h.Sweep("harness_sweep", counts, [&] {
    double total = 0.0;
    for (const SweepResult& r : SweepWorkload(*lab, workload)) {
      total += r.time_units + r.estimated_cost;
    }
    return total;
  });

  // Ensemble training: forest per tree, GBDT per feature split search.
  auto prediction_sum = [](const auto& model, const auto& rows) {
    double sum = 0.0;
    for (const auto& row : rows) sum += model.Predict(row);
    return sum;
  };
  std::vector<double> targets;
  const std::vector<std::vector<double>> rows = MakeMlRows(3000, &targets);
  auto train_sweep = [&](const char* site, const auto& unfitted) {
    h.Sweep(site, counts, [&] {
      auto model = unfitted;
      model.Fit(rows, targets);
      return prediction_sum(model, rows);
    });
  };
  ForestOptions forest_options;
  forest_options.num_trees = 48;
  train_sweep("forest_train", RandomForest(forest_options));
  GbdtOptions gbdt_options;
  gbdt_options.num_trees = 40;
  gbdt_options.subsample = 1.0;
  train_sweep("gbdt_train", GradientBoostedTrees(gbdt_options));

  // Workload-wide estimator evaluation (SPN inference per subquery).
  if (h.Runs("ce_evaluation")) {
    CeTrainingData data = BuildCeTrainingData(lab->catalog, lab->stats,
                                              workload, lab->truth.get());
    DataDrivenEstimator spn("deepdb_spn", &lab->catalog, &lab->stats,
                            JoinCombineMode::kIndependence);
    spn.Build();
    h.Sweep("ce_evaluation", counts, [&] {
      double total = 0.0;
      for (double q : EstimatorQErrors(&spn, data.labeled)) total += q;
      return total;
    });
  }

  // A chain catalog past the executor's and SPN's input-size gates (20k
  // rows/table >> 8192/512): chain_join runs hash-joined chain queries one
  // at a time, so only the scans' morsels can fan out (the joins are
  // serial); SPN training fans out over child regions.
  const Catalog chain = MakeChainSchema(5, 20000);
  const Executor chain_executor(&chain);
  const Workload join_workload = GenerateWorkload(
      chain,
      {.seed = 777, .num_queries = 12, .min_tables = 3, .max_tables = 5});
  h.Sweep("chain_join", counts, [&] {
    double fingerprint = 0.0;
    for (const Query& q : join_workload.queries) {
      auto r = chain_executor.Execute(LeftDeep(q));
      fingerprint += static_cast<double>(r->row_count) + r->time_units;
      for (const NodeProfile& p : r->node_profiles) {
        fingerprint +=
            static_cast<double>(p.build_collisions + p.probe_collisions);
      }
    }
    return fingerprint;
  });
  h.Sweep("spn_train", counts, [&] {
    SpnTableModel model(*chain.GetTable("t1"));
    const Query probe = *ParseSql(
        chain, "SELECT COUNT(*) FROM t1 WHERE t1.val BETWEEN 2 AND 40");
    return static_cast<double>(model.num_nodes()) +
           model.Selectivity(probe, 0);
  });

  // Chow-Liu pairwise mutual-information triangle (16 variables -> 120
  // independent MI tasks over 20k rows each).
  Rng rng(99);
  std::vector<std::vector<int64_t>> columns(16);
  for (std::vector<int64_t>& column : columns) {
    for (int r = 0; r < 20000; ++r) column.push_back(rng.UniformInt(0, 23));
  }
  h.Sweep("chow_liu_mi", counts, [&] {
    ChowLiuResult tree =
        LearnChowLiuTree(columns, std::vector<int64_t>(columns.size(), 24));
    double fingerprint = 0.0;
    for (size_t i = 0; i < tree.parent.size(); ++i) {
      fingerprint += static_cast<double>(tree.parent[i]) * 31.0 +
                     static_cast<double>(tree.topological_order[i]);
    }
    return fingerprint;
  });

  // Batched inference per model family, morsel-chunked across the pool; the
  // fingerprint folds every prediction. Scalar vs batch rows/s →
  // BENCH_inference.json; GBDT batch must not be slower than per-row Predict.
  if (h.Runs("inference_batch")) {
    std::vector<double> itargets;
    const std::vector<std::vector<double>> irows = MakeMlRows(4096, &itargets);
    FeatureMatrix matrix(12);
    for (const auto& row : irows) matrix.AddRow(row);
    forest_options.num_trees = 24;
    RandomForest forest(forest_options);
    forest.Fit(irows, itargets);
    GradientBoostedTrees gbdt(gbdt_options);
    gbdt.Fit(irows, itargets);
    Mlp mlp({.hidden_layers = {32, 16}, .epochs = 10});
    mlp.Fit(irows, itargets);
    std::vector<double> out(matrix.rows());
    auto fold_batch = [&](const auto& model, double fingerprint) {
      model.PredictBatch(matrix, out);
      for (double x : out) fingerprint += x;
      return fingerprint;
    };
    h.Sweep("inference_batch", counts, [&] {
      return fold_batch(mlp, fold_batch(gbdt, fold_batch(forest, 0.0)));
    });
    Json models = Json::Array();
    auto measure = [&](const char* name, const auto& model) {
      const std::vector<double> rps =
          BestRates(5, 20, static_cast<double>(irows.size()),
                    {[&] { return prediction_sum(model, irows); },
                     [&] { return fold_batch(model, 0.0); }});
      models.Push(Json::Object({{"name", name},
                                {"scalar_rows_per_sec", rps[0]},
                                {"batch_rows_per_sec", rps[1]},
                                {"batch_speedup", rps[1] / rps[0]}}));
      return rps;
    };
    measure("forest", forest);
    const std::vector<double> g = measure("gbdt", gbdt);
    measure("mlp", mlp);
    h.Gate(GateArming::kPlainBuildsOnly, [&] { return g[1] >= g[0]; },
           "GBDT batch %.0f rows/s >= scalar %.0f rows/s", g[1], g[0]);
    h.Ledger("BENCH_inference.json")
        .Set("rows", irows.size())
        .Set("models", models);
  }

  // Plan-signature feature cache: a cold pass that featurizes and inserts
  // every candidate plan, then warm passes served by key. Cold vs warm
  // rows/s → BENCH_cache.json.
  if (h.Runs("feature_cache")) {
    std::vector<PhysicalPlan> candidates;
    for (const Query& q : workload.queries) {
      for (JoinAlgorithm a :
           {JoinAlgorithm::kHashJoin, JoinAlgorithm::kMergeJoin,
            JoinAlgorithm::kNestedLoopJoin}) {
        candidates.push_back(LeftDeep(q, a));
      }
    }
    const double n = static_cast<double>(candidates.size());
    double cold = 0.0, warm = 0.0;
    FeatureCacheStats stats;
    for (int rep = 0; rep < 3; ++rep) {
      FeatureCache cache(PlanFeaturizer::kDim);
      E2eContext context = lab->Context();
      context.feature_cache = &cache;
      const std::function<double()> pass = [&] {
        double sum = 0.0;
        for (const PhysicalPlan& plan : candidates) {
          for (double x : FeaturizePlanCachedVec(context, *plan.query, plan,
                                                 /*annotated=*/false)) {
            sum += x;
          }
        }
        return sum;
      };
      cold = std::max(cold, BestRates(1, 1, n, {pass})[0]);
      warm = std::max(warm, BestRates(5, 1, n, {pass})[0]);
      stats = cache.Stats();
    }
    h.Ledger("BENCH_cache.json")
        .Set("feature_cache", Json::Object({{"rows", candidates.size()},
                                            {"cold_rows_per_sec", cold},
                                            {"warm_rows_per_sec", warm},
                                            {"warm_speedup", warm / cold},
                                            {"hits", stats.hits},
                                            {"misses", stats.misses},
                                            {"evictions", stats.evictions}}));
  }

  if (h.Runs("scan_filter")) RunScanFilterSite(h, counts);
  if (h.Runs("simd_kernels")) RunSimdKernelsSite(h, counts);
  if (h.Runs("agg_projection")) RunAggProjectionSite(h, counts);
  h.Ledger("BENCH_parallel.json")
      .Set("hardware_concurrency", h.hw())
      .Set("sites", h.SweepsJson());
  return h.Finish();
}
