// Microbenchmarks (google-benchmark): per-component latencies that frame
// the system-level experiments — estimator inference cost, DP planning
// cost, executor throughput and plan featurization. Every benchmark also
// reports items/sec (one query/plan per iteration), so parallel speedups
// read directly as throughput deltas in the output table.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "benchlib/lab.h"
#include "cardinality/data_driven.h"
#include "common/logging.h"
#include "common/rng.h"
#include "costmodel/plan_featurizer.h"
#include "engine/filter_kernels.h"
#include "engine/simd.h"
#include "engine/vec_batch.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/mlp.h"
#include "ml/tree.h"
#include "query/workload.h"
#include "storage/datasets.h"

namespace lqo {
namespace {

struct MicroFixture {
  std::unique_ptr<Lab> lab;
  Workload workload;
  std::unique_ptr<DataDrivenEstimator> spn;

  MicroFixture() {
    lab = MakeLab("stats_lite", 0.05);
    WorkloadOptions wopts;
    wopts.num_queries = 20;
    wopts.min_tables = 2;
    wopts.max_tables = 4;
    wopts.seed = 111;
    workload = GenerateWorkload(lab->catalog, wopts);
    spn = std::make_unique<DataDrivenEstimator>(
        "deepdb_spn", &lab->catalog, &lab->stats,
        JoinCombineMode::kIndependence);
    spn->Build();
  }
};

MicroFixture& Fixture() {
  static MicroFixture* fixture = new MicroFixture();
  return *fixture;
}

void BM_BaselineEstimate(benchmark::State& state) {
  MicroFixture& f = Fixture();
  size_t i = 0;
  for (auto _ : state) {
    const Query& q = f.workload.queries[i++ % f.workload.queries.size()];
    benchmark::DoNotOptimize(
        f.lab->estimator->EstimateSubquery(Subquery{&q, q.AllTables()}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BaselineEstimate);

void BM_SpnEstimate(benchmark::State& state) {
  MicroFixture& f = Fixture();
  size_t i = 0;
  for (auto _ : state) {
    const Query& q = f.workload.queries[i++ % f.workload.queries.size()];
    benchmark::DoNotOptimize(
        f.spn->EstimateSubquery(Subquery{&q, q.AllTables()}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpnEstimate);

void BM_DpPlanning(benchmark::State& state) {
  MicroFixture& f = Fixture();
  CardinalityProvider cards(f.lab->estimator.get());
  size_t i = 0;
  for (auto _ : state) {
    const Query& q = f.workload.queries[i++ % f.workload.queries.size()];
    benchmark::DoNotOptimize(f.lab->optimizer->Optimize(q, &cards));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DpPlanning);

void BM_ExecuteNativePlan(benchmark::State& state) {
  MicroFixture& f = Fixture();
  CardinalityProvider cards(f.lab->estimator.get());
  std::vector<PhysicalPlan> plans;
  for (const Query& q : f.workload.queries) {
    plans.push_back(f.lab->optimizer->Optimize(q, &cards).plan);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.lab->executor->Execute(plans[i++ % plans.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExecuteNativePlan);

// Per-phase wall-clock of the partitioned hash join (build / probe /
// ordered concat), reported as counters alongside whole-plan latency. Uses
// a chain catalog large enough to take the 16-partition parallel path.
void BM_JoinPhases(benchmark::State& state) {
  static Catalog* chain = new Catalog(MakeChainSchema(3, 20000));
  static Executor* executor = new Executor(chain);
  Query q;
  q.AddTable("t0");
  q.AddTable("t1");
  q.AddTable("t2");
  q.AddJoin(0, "id", 1, "prev_id");
  q.AddJoin(1, "id", 2, "prev_id");
  PhysicalPlan plan =
      MakeLeftDeepPlan(q, q.AllTables(), JoinAlgorithm::kHashJoin);
  double build = 0.0, probe = 0.0, concat = 0.0;
  for (auto _ : state) {
    auto result = executor->Execute(plan);
    LQO_CHECK(result.ok());
    for (const NodeProfile& p : result->node_profiles) {
      if (p.kind != PlanNode::Kind::kJoin) continue;
      build += p.build_seconds;
      probe += p.probe_seconds;
      concat += p.concat_seconds;
    }
    benchmark::DoNotOptimize(result->row_count);
  }
  double iters = static_cast<double>(state.iterations());
  state.counters["build_s"] = build / iters;
  state.counters["probe_s"] = probe / iters;
  state.counters["concat_s"] = concat / iters;
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JoinPhases);

// Batched-inference substrate: scalar Predict loops vs PredictBatch over
// the SoA tree kernels and the blocked MLP forward, on one shared fitted
// model set. The fixture CHECK-fails if batch and scalar predictions ever
// diverge, so any run of this binary (including scripts/check.sh's) doubles
// as a bit-identity gate.
struct InferenceFixture {
  static constexpr size_t kRows = 2048;
  static constexpr size_t kDim = 12;

  std::vector<std::vector<double>> rows;
  FeatureMatrix matrix{kDim};
  RegressionTree tree;
  RandomForest forest;
  GradientBoostedTrees gbdt;
  Mlp mlp;

  InferenceFixture() {
    Rng rng(4242);
    std::vector<double> targets;
    matrix.Reserve(kRows);
    for (size_t r = 0; r < kRows; ++r) {
      std::vector<double> row(kDim);
      for (double& v : row) v = rng.UniformDouble(-2.0, 2.0);
      double y = row[0] * 3.0 - row[1] * row[1] + std::sin(row[2]) +
                 rng.Gaussian(0.0, 0.1);
      targets.push_back(y);
      matrix.AddRow(row);
      rows.push_back(std::move(row));
    }
    TreeOptions tree_options;
    tree.Fit(rows, targets, tree_options);
    ForestOptions forest_options;
    forest_options.num_trees = 20;
    forest = RandomForest(forest_options);
    forest.Fit(rows, targets);
    GbdtOptions gbdt_options;
    gbdt_options.num_trees = 40;
    gbdt = GradientBoostedTrees(gbdt_options);
    gbdt.Fit(rows, targets);
    MlpOptions mlp_options;
    mlp_options.hidden_layers = {32, 16};
    mlp_options.epochs = 10;
    mlp = Mlp(mlp_options);
    mlp.Fit(rows, targets);

    CheckBatchMatchesScalar();
  }

  /// Divergence gate: batch output must be bit-for-bit the scalar loop's.
  void CheckBatchMatchesScalar() const {
    std::vector<double> batch(kRows);
    auto check = [&](const char* name, auto&& scalar) {
      for (size_t r = 0; r < kRows; ++r) {
        LQO_CHECK_EQ(batch[r], scalar(rows[r]))
            << name << ": batch diverges from scalar at row " << r;
      }
    };
    tree.PredictBatch(matrix, batch);
    check("tree", [&](const std::vector<double>& row) {
      return tree.Predict(row);
    });
    forest.PredictBatch(matrix, batch);
    check("forest", [&](const std::vector<double>& row) {
      return forest.Predict(row);
    });
    gbdt.PredictBatch(matrix, batch);
    check("gbdt", [&](const std::vector<double>& row) {
      return gbdt.Predict(row);
    });
    mlp.PredictBatch(matrix, batch);
    check("mlp", [&](const std::vector<double>& row) {
      return mlp.Predict(row);
    });

    // Compact quantized layouts, forced via ConfigureCompact(0) on copies,
    // must reproduce the same bits as the scalar traversal of the SoA
    // originals: thresholds are quantized at build time, so the layout
    // never changes a comparison outcome.
    RandomForest forest_compact = forest;
    forest_compact.ConfigureCompact(0);
    forest_compact.PredictBatch(matrix, batch);
    check("compact-forest", [&](const std::vector<double>& row) {
      return forest.Predict(row);
    });
    GradientBoostedTrees gbdt_compact = gbdt;
    gbdt_compact.ConfigureCompact(0);
    gbdt_compact.PredictBatch(matrix, batch);
    check("compact-gbdt", [&](const std::vector<double>& row) {
      return gbdt.Predict(row);
    });

    // Odd-size batch (not a multiple of the interleaved kernels' lane
    // width, nor of the morsel size): exercises the remainder rows of the
    // lockstep tree descent, which must still be bit-identical to scalar.
    constexpr size_t kOddRows = 1021;
    FeatureMatrix odd(kDim);
    odd.Reserve(kOddRows);
    for (size_t r = 0; r < kOddRows; ++r) odd.AddRow(rows[r]);
    std::vector<double> odd_batch(kOddRows);
    auto odd_check = [&](const char* name, auto&& scalar) {
      for (size_t r = 0; r < kOddRows; ++r) {
        LQO_CHECK_EQ(odd_batch[r], scalar(rows[r]))
            << name << ": odd-size batch diverges from scalar at row " << r;
      }
    };
    gbdt.PredictBatch(odd, odd_batch);
    odd_check("gbdt-odd", [&](const std::vector<double>& row) {
      return gbdt.Predict(row);
    });
    forest.PredictBatch(odd, odd_batch);
    odd_check("forest-odd", [&](const std::vector<double>& row) {
      return forest.Predict(row);
    });
  }
};

InferenceFixture& Inference() {
  static InferenceFixture* fixture = new InferenceFixture();
  return *fixture;
}

template <typename Model>
void RunInferenceScalar(benchmark::State& state, const Model& model) {
  InferenceFixture& f = Inference();
  for (auto _ : state) {
    double sink = 0.0;
    for (const std::vector<double>& row : f.rows) sink += model.Predict(row);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(InferenceFixture::kRows));
}

template <typename Model>
void RunInferenceBatch(benchmark::State& state, const Model& model) {
  InferenceFixture& f = Inference();
  std::vector<double> out(InferenceFixture::kRows);
  for (auto _ : state) {
    model.PredictBatch(f.matrix, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(InferenceFixture::kRows));
}

void BM_InferenceScalarTree(benchmark::State& state) {
  RunInferenceScalar(state, Inference().tree);
}
BENCHMARK(BM_InferenceScalarTree);
void BM_InferenceBatchTree(benchmark::State& state) {
  RunInferenceBatch(state, Inference().tree);
}
BENCHMARK(BM_InferenceBatchTree);

void BM_InferenceScalarForest(benchmark::State& state) {
  RunInferenceScalar(state, Inference().forest);
}
BENCHMARK(BM_InferenceScalarForest);
void BM_InferenceBatchForest(benchmark::State& state) {
  RunInferenceBatch(state, Inference().forest);
}
BENCHMARK(BM_InferenceBatchForest);

void BM_InferenceScalarGbdt(benchmark::State& state) {
  RunInferenceScalar(state, Inference().gbdt);
}
BENCHMARK(BM_InferenceScalarGbdt);
void BM_InferenceBatchGbdt(benchmark::State& state) {
  RunInferenceBatch(state, Inference().gbdt);
}
BENCHMARK(BM_InferenceBatchGbdt);

void BM_InferenceScalarMlp(benchmark::State& state) {
  RunInferenceScalar(state, Inference().mlp);
}
BENCHMARK(BM_InferenceScalarMlp);
void BM_InferenceBatchMlp(benchmark::State& state) {
  RunInferenceBatch(state, Inference().mlp);
}
BENCHMARK(BM_InferenceBatchMlp);

// Large-ensemble fixture, past the compact_min_total_nodes L2 gate, shared
// by the *Large layout benchmarks below. Like the other fixtures it is
// built lazily on first use, so filtered runs that never touch these
// benchmarks (scripts/check.sh's --benchmark_filter='Inference' TSan pass
// in particular) start fast and never pay the multi-second ensemble fits.
struct LargeEnsembleFixture {
  static constexpr size_t kRows = 4096;
  static constexpr size_t kDim = 12;

  std::vector<std::vector<double>> rows;
  FeatureMatrix matrix{kDim};
  RandomForest soa_forest;      // ConfigureCompact(SIZE_MAX): SoA arrays
  RandomForest compact_forest;  // ConfigureCompact(0): quantized arenas
  GradientBoostedTrees soa_gbdt;
  GradientBoostedTrees compact_gbdt;

  LargeEnsembleFixture() {
    Rng rng(515);
    std::vector<double> targets;
    matrix.Reserve(kRows);
    for (size_t r = 0; r < kRows; ++r) {
      std::vector<double> row(kDim);
      for (double& v : row) v = rng.UniformDouble(-2.0, 2.0);
      double y = row[0] * 2.0 - row[3] * row[1] + std::sin(row[4]) +
                 rng.Gaussian(0.0, 0.1);
      targets.push_back(y);
      matrix.AddRow(row);
      rows.push_back(std::move(row));
    }
    ForestOptions forest_options;
    forest_options.num_trees = 64;
    soa_forest = RandomForest(forest_options);
    soa_forest.Fit(rows, targets);
    compact_forest = soa_forest;
    soa_forest.ConfigureCompact(SIZE_MAX);
    compact_forest.ConfigureCompact(0);

    GbdtOptions gbdt_options;
    gbdt_options.num_trees = 96;
    gbdt_options.tree.max_depth = 8;  // past the cache-resident node gate
    soa_gbdt = GradientBoostedTrees(gbdt_options);
    soa_gbdt.Fit(rows, targets);
    compact_gbdt = soa_gbdt;
    soa_gbdt.ConfigureCompact(SIZE_MAX);
    compact_gbdt.ConfigureCompact(0);

    // Layout-identity gate: the two layouts of the same fitted model must
    // produce the same bits on every row.
    std::vector<double> a(kRows), b(kRows);
    soa_forest.PredictBatch(matrix, a);
    compact_forest.PredictBatch(matrix, b);
    for (size_t r = 0; r < kRows; ++r) {
      LQO_CHECK_EQ(a[r], b[r]) << "forest: compact layout diverges at row "
                               << r;
    }
    soa_gbdt.PredictBatch(matrix, a);
    compact_gbdt.PredictBatch(matrix, b);
    for (size_t r = 0; r < kRows; ++r) {
      LQO_CHECK_EQ(a[r], b[r]) << "gbdt: compact layout diverges at row "
                               << r;
    }
  }
};

LargeEnsembleFixture& LargeEnsemble() {
  static LargeEnsembleFixture* fixture = new LargeEnsembleFixture();
  return *fixture;
}

template <typename Model>
void RunLayoutBatch(benchmark::State& state, const Model& model) {
  LargeEnsembleFixture& f = LargeEnsemble();
  std::vector<double> out(LargeEnsembleFixture::kRows);
  for (auto _ : state) {
    model.PredictBatch(f.matrix, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(LargeEnsembleFixture::kRows));
}

void BM_SoaForestLarge(benchmark::State& state) {
  RunLayoutBatch(state, LargeEnsemble().soa_forest);
}
BENCHMARK(BM_SoaForestLarge);
void BM_CompactForestLarge(benchmark::State& state) {
  RunLayoutBatch(state, LargeEnsemble().compact_forest);
}
BENCHMARK(BM_CompactForestLarge);

void BM_SoaGbdtLarge(benchmark::State& state) {
  RunLayoutBatch(state, LargeEnsemble().soa_gbdt);
}
BENCHMARK(BM_SoaGbdtLarge);
void BM_CompactGbdtLarge(benchmark::State& state) {
  RunLayoutBatch(state, LargeEnsemble().compact_gbdt);
}
BENCHMARK(BM_CompactGbdtLarge);

// Selection-vector kernel fixture: one 64k-row int64 column plus a
// half-density input selection. The constructor CHECK-fails if any kernel
// disagrees with per-row Predicate::Matches, so every run of this binary
// (including scripts/check.sh's filtered TSan pass) doubles as a kernel
// correctness gate.
struct KernelFixture {
  static constexpr uint32_t kRows = 1u << 16;

  std::vector<int64_t> col;
  std::vector<uint32_t> half_sel;             // every other row
  std::vector<int64_t> in_values;             // sorted-unique IN list
  std::vector<uint32_t> out =
      std::vector<uint32_t>(kRows);           // kernel output scratch

  KernelFixture() {
    Rng rng(77);
    col.reserve(kRows);
    for (uint32_t r = 0; r < kRows; ++r) col.push_back(rng.UniformInt(0, 999));
    for (uint32_t r = 0; r < kRows; r += 2) half_sel.push_back(r);
    in_values = {3, 17, 96, 204, 305, 401, 477, 508};

    Predicate range = Predicate::Range(0, "c", 100, 600);
    Predicate eq = Predicate::Equals(0, "c", 42);
    Predicate in = Predicate::In(0, "c", in_values);
    auto reference = [&](const Predicate& p, const uint32_t* sel,
                         size_t count) {
      std::vector<uint32_t> survivors;
      for (size_t i = 0; i < count; ++i) {
        uint32_t r = sel == nullptr ? static_cast<uint32_t>(i)
                                    : sel[i];
        if (p.Matches(col[r])) survivors.push_back(r);
      }
      return survivors;
    };
    auto check = [&](const char* name, const Predicate& p) {
      size_t n = FilterDense(p, col.data(), 0, kRows, out.data());
      std::vector<uint32_t> expect = reference(p, nullptr, kRows);
      LQO_CHECK_EQ(n, expect.size()) << name << " dense count";
      for (size_t i = 0; i < n; ++i) {
        LQO_CHECK_EQ(out[i], expect[i]) << name << " dense row " << i;
      }
      n = FilterSel(p, col.data(), half_sel.data(), half_sel.size(),
                    out.data());
      expect = reference(p, half_sel.data(), half_sel.size());
      LQO_CHECK_EQ(n, expect.size()) << name << " sel count";
      for (size_t i = 0; i < n; ++i) {
        LQO_CHECK_EQ(out[i], expect[i]) << name << " sel row " << i;
      }
    };
    check("range", range);
    check("eq", eq);
    check("in", in);

    // Per-ISA-level bit-equality at odd batch sizes: every supported SIMD
    // level must agree with the scalar reference table on sizes that leave
    // 1/3/... row remainder tails after the 2/4/8-row lane groups. Guards
    // the dispatch layer itself, not just whichever level is active.
    const simd::KernelTable& ref = simd::KernelsFor(simd::Level::kScalar);
    std::vector<uint32_t> expect(kRows);
    for (uint32_t n : {1u, 1023u, 1025u, 8193u, kRows}) {
      for (simd::Level level : simd::SupportedLevels()) {
        const simd::KernelTable& kt = simd::KernelsFor(level);
        auto check_isa = [&](const char* name, size_t want, size_t got) {
          LQO_CHECK_EQ(want, got)
              << name << " count, level=" << simd::LevelName(level)
              << " n=" << n;
          for (size_t i = 0; i < want; ++i) {
            LQO_CHECK_EQ(expect[i], out[i])
                << name << " row " << i
                << ", level=" << simd::LevelName(level) << " n=" << n;
          }
        };
        check_isa("eq",
                  ref.filter_eq_dense(col.data(), 0, n, 42, expect.data()),
                  kt.filter_eq_dense(col.data(), 0, n, 42, out.data()));
        check_isa(
            "range",
            ref.filter_range_dense(col.data(), 0, n, 100, 600, expect.data()),
            kt.filter_range_dense(col.data(), 0, n, 100, 600, out.data()));
        check_isa("in",
                  ref.filter_in_dense(col.data(), 0, n, in_values.data(),
                                      in_values.size(), expect.data()),
                  kt.filter_in_dense(col.data(), 0, n, in_values.data(),
                                     in_values.size(), out.data()));
        size_t sel_count = std::min<size_t>(half_sel.size(), n / 2 + 1);
        check_isa("range_sel",
                  ref.filter_range_sel(col.data(), half_sel.data(), sel_count,
                                       100, 600, expect.data()),
                  kt.filter_range_sel(col.data(), half_sel.data(), sel_count,
                                      100, 600, out.data()));
      }
    }
  }
};

KernelFixture& Kernels() {
  static KernelFixture* fixture = new KernelFixture();
  return *fixture;
}

void BM_KernelFilterRangeDense(benchmark::State& state) {
  KernelFixture& f = Kernels();
  for (auto _ : state) {
    benchmark::DoNotOptimize(FilterRangeDense(
        f.col.data(), 0, KernelFixture::kRows, 100, 600, f.out.data()));
  }
  state.SetItemsProcessed(state.iterations() * KernelFixture::kRows);
}
BENCHMARK(BM_KernelFilterRangeDense);

// Branchy-loop baseline for the range kernel: a plain `if` per row with a
// data-dependent branch, for a direct rows/s comparison against the
// dispatched branch-free kernel above. No executor path runs this loop.
void BM_KernelFilterRangeScalarRef(benchmark::State& state) {
  KernelFixture& f = Kernels();
  for (auto _ : state) {
    size_t n = 0;
    for (uint32_t r = 0; r < KernelFixture::kRows; ++r) {
      if (f.col[r] >= 100 && f.col[r] <= 600) f.out[n++] = r;
    }
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * KernelFixture::kRows);
}
BENCHMARK(BM_KernelFilterRangeScalarRef);

// Same kernels pinned to the scalar ISA level (bypassing dispatch), so the
// report shows the active SIMD level's margin directly:
// BM_KernelFilter*Dense (dispatched) vs BM_KernelFilter*DenseScalarIsa.
void BM_KernelFilterRangeDenseScalarIsa(benchmark::State& state) {
  KernelFixture& f = Kernels();
  const simd::KernelTable& kt = simd::KernelsFor(simd::Level::kScalar);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kt.filter_range_dense(
        f.col.data(), 0, KernelFixture::kRows, 100, 600, f.out.data()));
  }
  state.SetItemsProcessed(state.iterations() * KernelFixture::kRows);
}
BENCHMARK(BM_KernelFilterRangeDenseScalarIsa);

void BM_KernelFilterEqDense(benchmark::State& state) {
  KernelFixture& f = Kernels();
  for (auto _ : state) {
    benchmark::DoNotOptimize(FilterEqDense(
        f.col.data(), 0, KernelFixture::kRows, 42, f.out.data()));
  }
  state.SetItemsProcessed(state.iterations() * KernelFixture::kRows);
}
BENCHMARK(BM_KernelFilterEqDense);

void BM_KernelFilterEqDenseScalarIsa(benchmark::State& state) {
  KernelFixture& f = Kernels();
  const simd::KernelTable& kt = simd::KernelsFor(simd::Level::kScalar);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kt.filter_eq_dense(
        f.col.data(), 0, KernelFixture::kRows, 42, f.out.data()));
  }
  state.SetItemsProcessed(state.iterations() * KernelFixture::kRows);
}
BENCHMARK(BM_KernelFilterEqDenseScalarIsa);

void BM_KernelFilterInDense(benchmark::State& state) {
  KernelFixture& f = Kernels();
  for (auto _ : state) {
    benchmark::DoNotOptimize(FilterInDense(f.col.data(), 0,
                                           KernelFixture::kRows, f.in_values,
                                           f.out.data()));
  }
  state.SetItemsProcessed(state.iterations() * KernelFixture::kRows);
}
BENCHMARK(BM_KernelFilterInDense);

void BM_KernelFilterRangeSel(benchmark::State& state) {
  KernelFixture& f = Kernels();
  for (auto _ : state) {
    benchmark::DoNotOptimize(FilterRangeSel(f.col.data(), f.half_sel.data(),
                                            f.half_sel.size(), 100, 600,
                                            f.out.data()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(f.half_sel.size()));
}
BENCHMARK(BM_KernelFilterRangeSel);

void BM_KernelGatherAppend(benchmark::State& state) {
  KernelFixture& f = Kernels();
  size_t n = FilterRangeDense(f.col.data(), 0, KernelFixture::kRows, 100, 600,
                              f.out.data());
  std::vector<int64_t> gathered;
  for (auto _ : state) {
    gathered.clear();
    GatherAppend(f.col.data(), f.out.data(), n, &gathered);
    benchmark::DoNotOptimize(gathered.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_KernelGatherAppend);

void BM_PlanFeaturize(benchmark::State& state) {
  MicroFixture& f = Fixture();
  CardinalityProvider cards(f.lab->estimator.get());
  PhysicalPlan plan =
      f.lab->optimizer->Optimize(f.workload.queries[0], &cards).plan;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PlanFeaturizer::Featurize(plan));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlanFeaturize);

}  // namespace
}  // namespace lqo

BENCHMARK_MAIN();
