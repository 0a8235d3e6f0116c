#include <cmath>
#include <cstdint>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/chow_liu.h"
#include "ml/dataset.h"
#include "ml/feature_cache.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/gmm.h"
#include "ml/inference_stats.h"
#include "ml/kmeans.h"
#include "ml/linear.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/tree.h"

namespace lqo {
namespace {

// y = 3x0 - 2x1 + 1 with small noise.
MlDataset MakeLinearData(size_t n, uint64_t seed, double noise = 0.0) {
  Rng rng(seed);
  MlDataset data;
  for (size_t i = 0; i < n; ++i) {
    double x0 = rng.UniformDouble(-2, 2);
    double x1 = rng.UniformDouble(-2, 2);
    double y = 3 * x0 - 2 * x1 + 1 + (noise > 0 ? rng.Gaussian(0, noise) : 0);
    data.Add({x0, x1}, y);
  }
  return data;
}

// Nonlinear target: y = x0^2 + sign(x1).
MlDataset MakeNonlinearData(size_t n, uint64_t seed) {
  Rng rng(seed);
  MlDataset data;
  for (size_t i = 0; i < n; ++i) {
    double x0 = rng.UniformDouble(-2, 2);
    double x1 = rng.UniformDouble(-2, 2);
    data.Add({x0, x1}, x0 * x0 + (x1 > 0 ? 1.0 : -1.0));
  }
  return data;
}

TEST(DatasetTest, TrainTestSplitPartitions) {
  MlDataset data = MakeLinearData(100, 1);
  MlDataset train, test;
  TrainTestSplit(data, 0.25, 7, &train, &test);
  EXPECT_EQ(train.size(), 75u);
  EXPECT_EQ(test.size(), 25u);
  EXPECT_EQ(train.num_features(), 2u);
}

TEST(StandardizerTest, ZeroMeanUnitVariance) {
  MlDataset data = MakeLinearData(500, 2);
  Standardizer standardizer;
  standardizer.Fit(data.rows);
  double sum = 0;
  for (const auto& row : data.rows) sum += standardizer.Transform(row)[0];
  EXPECT_NEAR(sum / 500.0, 0.0, 1e-9);
}

TEST(RidgeTest, RecoversLinearFunction) {
  MlDataset data = MakeLinearData(200, 3);
  RidgeRegression model(1e-6);
  ASSERT_TRUE(model.Fit(data.rows, data.targets).ok());
  EXPECT_NEAR(model.weights()[0], 3.0, 1e-3);
  EXPECT_NEAR(model.weights()[1], -2.0, 1e-3);
  EXPECT_NEAR(model.intercept(), 1.0, 1e-3);
  EXPECT_NEAR(model.Predict({1.0, 1.0}), 2.0, 1e-2);
}

TEST(RidgeTest, RejectsEmptyAndMismatched) {
  RidgeRegression model;
  EXPECT_FALSE(model.Fit({}, {}).ok());
  EXPECT_FALSE(model.Fit({{1.0}}, {1.0, 2.0}).ok());
}

TEST(CholeskyTest, SolvesSpdSystem) {
  // A = [[4,2],[2,3]], b = [10, 9]  =>  x = [1.5, 2].
  std::vector<double> x;
  ASSERT_TRUE(CholeskySolve({{4, 2}, {2, 3}}, {10, 9}, &x));
  EXPECT_NEAR(x[0], 1.5, 1e-9);
  EXPECT_NEAR(x[1], 2.0, 1e-9);
}

TEST(RegressionTreeTest, FitsPiecewiseConstant) {
  // y = 10 for x<0, y = -10 otherwise: one split suffices.
  MlDataset data;
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    double x = rng.UniformDouble(-1, 1);
    data.Add({x}, x < 0 ? 10.0 : -10.0);
  }
  RegressionTree tree;
  TreeOptions options;
  options.max_depth = 2;
  tree.Fit(data.rows, data.targets, options);
  EXPECT_NEAR(tree.Predict({-0.5}), 10.0, 1e-9);
  EXPECT_NEAR(tree.Predict({0.5}), -10.0, 1e-9);
}

TEST(RegressionTreeTest, RespectsMaxDepth) {
  MlDataset data = MakeNonlinearData(300, 5);
  RegressionTree stump, deep;
  TreeOptions shallow_options;
  shallow_options.max_depth = 1;
  TreeOptions deep_options;
  deep_options.max_depth = 8;
  stump.Fit(data.rows, data.targets, shallow_options);
  deep.Fit(data.rows, data.targets, deep_options);
  EXPECT_LE(stump.num_nodes(), 3u);
  EXPECT_GT(deep.num_nodes(), stump.num_nodes());
}

TEST(GbdtTest, BeatsConstantOnNonlinear) {
  MlDataset data = MakeNonlinearData(500, 6);
  MlDataset train, test;
  TrainTestSplit(data, 0.2, 11, &train, &test);
  GradientBoostedTrees model;
  model.Fit(train.rows, train.targets);
  std::vector<double> predictions;
  for (const auto& row : test.rows) predictions.push_back(model.Predict(row));
  EXPECT_GT(R2Score(predictions, test.targets), 0.9);
}

TEST(ForestTest, FitsAndQuantifiesUncertainty) {
  MlDataset data = MakeNonlinearData(400, 7);
  RandomForest forest;
  forest.Fit(data.rows, data.targets);
  std::vector<double> predictions;
  for (const auto& row : data.rows) predictions.push_back(forest.Predict(row));
  EXPECT_GT(R2Score(predictions, data.targets), 0.8);
  double mean, stddev;
  forest.PredictWithUncertainty({0.0, 1.0}, &mean, &stddev);
  EXPECT_GE(stddev, 0.0);
  // Far outside the training domain the ensemble should disagree more than
  // deep inside it... at minimum the call must be well-formed.
  forest.PredictWithUncertainty({100.0, -100.0}, &mean, &stddev);
  EXPECT_GE(stddev, 0.0);
}

TEST(MlpTest, LearnsLinearRegression) {
  MlDataset data = MakeLinearData(400, 8, 0.01);
  MlpOptions options;
  options.hidden_layers = {16};
  options.epochs = 200;
  Mlp mlp(options);
  mlp.Fit(data.rows, data.targets);
  std::vector<double> predictions;
  for (const auto& row : data.rows) predictions.push_back(mlp.Predict(row));
  EXPECT_GT(R2Score(predictions, data.targets), 0.95);
}

TEST(MlpTest, LearnsNonlinearRegression) {
  MlDataset data = MakeNonlinearData(600, 9);
  MlpOptions options;
  options.hidden_layers = {32, 16};
  options.epochs = 250;
  Mlp mlp(options);
  mlp.Fit(data.rows, data.targets);
  std::vector<double> predictions;
  for (const auto& row : data.rows) predictions.push_back(mlp.Predict(row));
  EXPECT_GT(R2Score(predictions, data.targets), 0.85);
}

TEST(MlpTest, LearnsLogisticClassification) {
  Rng rng(10);
  MlDataset data;
  for (int i = 0; i < 400; ++i) {
    double x0 = rng.UniformDouble(-2, 2);
    double x1 = rng.UniformDouble(-2, 2);
    data.Add({x0, x1}, x0 + x1 > 0 ? 1.0 : 0.0);
  }
  MlpOptions options;
  options.loss = MlpOptions::Loss::kLogistic;
  options.hidden_layers = {16};
  options.epochs = 150;
  Mlp mlp(options);
  mlp.Fit(data.rows, data.targets);
  int correct = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    double p = mlp.PredictProba(data.rows[i]);
    if ((p > 0.5) == (data.targets[i] > 0.5)) ++correct;
  }
  EXPECT_GT(correct, 360);  // > 90% train accuracy.
}

TEST(MlpTest, PairwiseRankingIsAntisymmetricAndAccurate) {
  // Items have a latent quality = 2*x0 - x1; pairs labeled by quality.
  Rng rng(11);
  std::vector<std::vector<double>> first, second;
  std::vector<double> labels;
  auto quality = [](const std::vector<double>& x) {
    return 2 * x[0] - x[1];
  };
  for (int i = 0; i < 600; ++i) {
    std::vector<double> a = {rng.UniformDouble(-1, 1), rng.UniformDouble(-1, 1)};
    std::vector<double> b = {rng.UniformDouble(-1, 1), rng.UniformDouble(-1, 1)};
    first.push_back(a);
    second.push_back(b);
    labels.push_back(quality(a) > quality(b) ? 1.0 : 0.0);
  }
  MlpOptions options;
  options.hidden_layers = {16};
  options.epochs = 120;
  Mlp mlp(options);
  mlp.FitPairwise(first, second, labels);

  int correct = 0;
  for (size_t i = 0; i < first.size(); ++i) {
    double p = mlp.CompareProba(first[i], second[i]);
    if ((p > 0.5) == (labels[i] > 0.5)) ++correct;
    // Antisymmetry: P(a>b) + P(b>a) == 1 by construction.
    EXPECT_NEAR(p + mlp.CompareProba(second[i], first[i]), 1.0, 1e-9);
  }
  EXPECT_GT(correct, 540);  // > 90%
}

TEST(KMeansTest, SeparatesObviousClusters) {
  Rng rng(12);
  std::vector<std::vector<double>> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back({rng.Gaussian(0, 0.1), rng.Gaussian(0, 0.1)});
    rows.push_back({rng.Gaussian(10, 0.1), rng.Gaussian(10, 0.1)});
  }
  KMeansOptions options;
  options.k = 2;
  KMeans kmeans(options);
  kmeans.Fit(rows);
  ASSERT_EQ(kmeans.centroids().size(), 2u);
  size_t c0 = kmeans.Assign({0.0, 0.0});
  size_t c1 = kmeans.Assign({10.0, 10.0});
  EXPECT_NE(c0, c1);
  // All near-origin points share a cluster.
  for (size_t i = 0; i < rows.size(); i += 2) {
    EXPECT_EQ(kmeans.labels()[i], c0);
  }
}

TEST(KMeansTest, HandlesFewerDistinctPointsThanK) {
  std::vector<std::vector<double>> rows = {{1, 1}, {1, 1}, {1, 1}};
  KMeansOptions options;
  options.k = 5;
  KMeans kmeans(options);
  kmeans.Fit(rows);
  EXPECT_GE(kmeans.centroids().size(), 1u);
  EXPECT_LE(kmeans.centroids().size(), 3u);
}

TEST(GmmTest, RecoversWellSeparatedComponents) {
  Rng rng(21);
  std::vector<double> values;
  for (int i = 0; i < 500; ++i) {
    values.push_back(rng.Gaussian(0, 1));
    values.push_back(rng.Gaussian(50, 2));
  }
  GmmOptions options;
  options.num_components = 2;
  GaussianMixture1D gmm(options);
  gmm.Fit(values);
  ASSERT_EQ(gmm.num_components(), 2u);
  std::vector<double> means = gmm.means();
  std::sort(means.begin(), means.end());
  EXPECT_NEAR(means[0], 0.0, 1.0);
  EXPECT_NEAR(means[1], 50.0, 1.0);
  EXPECT_NEAR(gmm.weights()[0] + gmm.weights()[1], 1.0, 1e-9);
  // CDF monotone, 0 at -inf side, 1 at +inf side.
  EXPECT_LT(gmm.Cdf(-20), 0.01);
  EXPECT_GT(gmm.Cdf(80), 0.99);
  EXPECT_NEAR(gmm.Cdf(25), 0.5, 0.05);
  // Assignment separates the clusters.
  EXPECT_NE(gmm.Assign(0.0), gmm.Assign(50.0));
}

TEST(GmmTest, DegenerateSingleValue) {
  GaussianMixture1D gmm;
  gmm.Fit({5.0, 5.0, 5.0});
  EXPECT_EQ(gmm.num_components(), 1u);
  EXPECT_NEAR(gmm.means()[0], 5.0, 1e-6);
  EXPECT_GT(gmm.Density(5.0), gmm.Density(100.0));
}

TEST(GmmTest, MoreComponentsImproveLikelihoodOnMultimodalData) {
  Rng rng(22);
  std::vector<double> values;
  for (int i = 0; i < 300; ++i) {
    values.push_back(rng.Gaussian(0, 1));
    values.push_back(rng.Gaussian(30, 1));
    values.push_back(rng.Gaussian(60, 1));
  }
  GmmOptions one;
  one.num_components = 1;
  GaussianMixture1D gmm1(one);
  gmm1.Fit(values);
  GmmOptions three;
  three.num_components = 3;
  GaussianMixture1D gmm3(three);
  gmm3.Fit(values);
  EXPECT_GT(gmm3.log_likelihood(), gmm1.log_likelihood());
}

TEST(MutualInformationTest, IndependentVsDependent) {
  Rng rng(13);
  std::vector<int64_t> x, y_dep, y_ind;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(0, 3);
    x.push_back(v);
    y_dep.push_back(v);  // fully dependent
    y_ind.push_back(rng.UniformInt(0, 3));
  }
  double mi_dep = MutualInformation(x, y_dep, 4, 4);
  double mi_ind = MutualInformation(x, y_ind, 4, 4);
  EXPECT_GT(mi_dep, 1.0);  // ~log(4) = 1.386 nats.
  EXPECT_LT(mi_ind, 0.05);
  EXPECT_GT(mi_dep, mi_ind * 10);
}

TEST(ChowLiuTest, RecoversChainStructure) {
  // v0 -> v1 -> v2: v1 = v0 with noise; v2 = v1 with noise; MI(v0,v2) is
  // lower than adjacent pairs, so the MST must be the chain.
  Rng rng(14);
  std::vector<int64_t> v0, v1, v2;
  for (int i = 0; i < 4000; ++i) {
    int64_t a = rng.UniformInt(0, 3);
    int64_t b = rng.Bernoulli(0.85) ? a : rng.UniformInt(0, 3);
    int64_t c = rng.Bernoulli(0.85) ? b : rng.UniformInt(0, 3);
    v0.push_back(a);
    v1.push_back(b);
    v2.push_back(c);
  }
  ChowLiuResult tree = LearnChowLiuTree({v0, v1, v2}, {4, 4, 4});
  EXPECT_EQ(tree.parent[0], -1);
  EXPECT_EQ(tree.parent[1], 0);
  EXPECT_EQ(tree.parent[2], 1);
  EXPECT_EQ(tree.topological_order.size(), 3u);
  EXPECT_EQ(tree.topological_order[0], 0);
}

TEST(MetricsTest, QErrorSymmetricAndClamped) {
  EXPECT_DOUBLE_EQ(QError(10, 100), 10.0);
  EXPECT_DOUBLE_EQ(QError(100, 10), 10.0);
  EXPECT_DOUBLE_EQ(QError(5, 5), 1.0);
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);   // clamped to 1 row each.
  EXPECT_DOUBLE_EQ(QError(0, 50), 50.0);
}

TEST(MetricsTest, SummaryQuantiles) {
  std::vector<double> qerrors;
  for (int i = 1; i <= 100; ++i) qerrors.push_back(static_cast<double>(i));
  QErrorSummary s = SummarizeQErrors(qerrors);
  EXPECT_NEAR(s.p50, 50.5, 1e-9);
  EXPECT_NEAR(s.p90, 90.1, 1e-9);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_GT(s.geometric_mean, 1.0);
}

// Fits `model` at both thread counts and returns predictions over a grid;
// training must be bit-for-bit identical (per-task RNG streams + ordered
// reductions), not merely statistically close.
template <typename Model>
std::vector<double> FitAndPredictAtThreads(int threads, const MlDataset& data) {
  ThreadPool::SetGlobalThreads(threads);
  Model model;
  model.Fit(data.rows, data.targets);
  std::vector<double> predictions;
  for (double x0 = -2.0; x0 <= 2.0; x0 += 0.25) {
    for (double x1 = -2.0; x1 <= 2.0; x1 += 0.25) {
      predictions.push_back(model.Predict({x0, x1}));
    }
  }
  ThreadPool::SetGlobalThreads(ThreadPool::ParseThreadCount(nullptr));
  return predictions;
}

TEST(ForestTest, TrainingIsDeterministicAcrossThreadCounts) {
  MlDataset data = MakeNonlinearData(600, 8);
  std::vector<double> serial = FitAndPredictAtThreads<RandomForest>(1, data);
  std::vector<double> two = FitAndPredictAtThreads<RandomForest>(2, data);
  std::vector<double> four = FitAndPredictAtThreads<RandomForest>(4, data);
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, four);
}

TEST(GbdtTest, TrainingIsDeterministicAcrossThreadCounts) {
  MlDataset data = MakeNonlinearData(600, 9);
  std::vector<double> serial =
      FitAndPredictAtThreads<GradientBoostedTrees>(1, data);
  std::vector<double> four =
      FitAndPredictAtThreads<GradientBoostedTrees>(4, data);
  EXPECT_EQ(serial, four);
}

// -- Batched inference: PredictBatch must be bit-for-bit identical to the
// per-row Predict loop, at every thread count, for every model family. --

FeatureMatrix ToMatrix(const std::vector<std::vector<double>>& rows) {
  FeatureMatrix matrix(rows.empty() ? 0 : rows[0].size());
  matrix.Reserve(rows.size());
  for (const auto& row : rows) matrix.AddRow(row);
  return matrix;
}

TEST(BatchInferenceTest, ForestMatchesScalarIncludingUncertainty) {
  MlDataset data = MakeNonlinearData(400, 32);
  RandomForest forest;
  forest.Fit(data.rows, data.targets);
  FeatureMatrix matrix = ToMatrix(data.rows);
  std::vector<double> batch(matrix.rows());
  forest.PredictBatch(matrix, batch);
  std::vector<double> means(matrix.rows()), stddevs(matrix.rows());
  forest.PredictBatchWithUncertainty(matrix, means, stddevs);
  for (size_t i = 0; i < data.rows.size(); ++i) {
    EXPECT_EQ(batch[i], forest.Predict(data.rows[i])) << "row " << i;
    double mean = 0.0, stddev = 0.0;
    forest.PredictWithUncertainty(data.rows[i], &mean, &stddev);
    EXPECT_EQ(means[i], mean) << "row " << i;
    EXPECT_EQ(stddevs[i], stddev) << "row " << i;
  }
}

TEST(BatchInferenceTest, GbdtMatchesScalarBitForBit) {
  MlDataset data = MakeNonlinearData(500, 33);
  FeatureMatrix matrix = ToMatrix(data.rows);
  // The default model, and a much larger 200-tree depth-8 one.
  GbdtOptions deep;
  deep.num_trees = 200;
  deep.tree.max_depth = 8;
  for (const GbdtOptions& options : {GbdtOptions(), deep}) {
    GradientBoostedTrees gbdt(options);
    gbdt.Fit(data.rows, data.targets);
    std::vector<double> batch(matrix.rows());
    gbdt.PredictBatch(matrix, batch);
    for (size_t i = 0; i < data.rows.size(); ++i) {
      EXPECT_EQ(batch[i], gbdt.Predict(data.rows[i]))
          << "trees " << options.num_trees << " row " << i;
    }
  }
}

// Feature ids past 0xFFFF: QueryFeaturizer is 4 slots per catalog column
// wide, so a large catalog's split features must still pack and predict.
TEST(BatchInferenceTest, GbdtPacksFeatureIdsPastUint16) {
  constexpr size_t kFeatures = 70000;
  constexpr size_t kRows = 32;
  std::vector<std::vector<double>> rows(kRows,
                                        std::vector<double>(kFeatures, 0.0));
  std::vector<double> targets(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    rows[i][kFeatures - 1] = static_cast<double>(i);
    targets[i] = i < kRows / 2 ? -1.0 : 1.0;
  }
  GbdtOptions options;
  options.num_trees = 1;
  options.tree.max_depth = 1;
  GradientBoostedTrees gbdt(options);
  gbdt.Fit(rows, targets);
  FeatureMatrix matrix = ToMatrix(rows);
  std::vector<double> batch(kRows);
  gbdt.PredictBatch(matrix, batch);
  for (size_t i = 0; i < kRows; ++i) {
    EXPECT_EQ(batch[i], gbdt.Predict(rows[i])) << "row " << i;
  }
  EXPECT_LT(batch.front(), batch.back());  // the split on feature 69999
}

TEST(BatchInferenceTest, MlpMatchesScalarBitForBit) {
  MlDataset data = MakeNonlinearData(400, 34);
  MlpOptions options;
  options.hidden_layers = {24, 12};
  options.epochs = 20;
  Mlp mlp(options);
  mlp.Fit(data.rows, data.targets);
  FeatureMatrix matrix = ToMatrix(data.rows);
  std::vector<double> batch(matrix.rows());
  mlp.PredictBatch(matrix, batch);
  for (size_t i = 0; i < data.rows.size(); ++i) {
    EXPECT_EQ(batch[i], mlp.Predict(data.rows[i])) << "row " << i;
  }
}

TEST(BatchInferenceTest, RidgeMatchesScalarBitForBit) {
  MlDataset data = MakeLinearData(300, 35, 0.05);
  RidgeRegression model(1e-6);
  ASSERT_TRUE(model.Fit(data.rows, data.targets).ok());
  FeatureMatrix matrix = ToMatrix(data.rows);
  std::vector<double> batch(matrix.rows());
  model.PredictBatch(matrix, batch);
  for (size_t i = 0; i < data.rows.size(); ++i) {
    EXPECT_EQ(batch[i], model.Predict(data.rows[i])) << "row " << i;
  }
}

// PredictBatch parallelizes over morsels; the outputs must not depend on
// the thread count (disjoint output slices, no cross-morsel reductions).
TEST(BatchInferenceTest, BatchIsThreadCountInvariant) {
  MlDataset data = MakeNonlinearData(1200, 36);
  RandomForest forest;
  forest.Fit(data.rows, data.targets);
  GradientBoostedTrees gbdt;
  gbdt.Fit(data.rows, data.targets);
  MlpOptions options;
  options.hidden_layers = {16};
  options.epochs = 10;
  Mlp mlp(options);
  mlp.Fit(data.rows, data.targets);
  FeatureMatrix matrix = ToMatrix(data.rows);

  auto predict_all = [&](int threads) {
    ThreadPool::SetGlobalThreads(threads);
    std::vector<double> out(3 * matrix.rows());
    std::span<double> all(out);
    forest.PredictBatch(matrix, all.subspan(0, matrix.rows()));
    gbdt.PredictBatch(matrix, all.subspan(matrix.rows(), matrix.rows()));
    mlp.PredictBatch(matrix, all.subspan(2 * matrix.rows(), matrix.rows()));
    return out;
  };
  std::vector<double> serial = predict_all(1);
  std::vector<double> two = predict_all(2);
  std::vector<double> eight = predict_all(8);
  ThreadPool::SetGlobalThreads(ThreadPool::ParseThreadCount(nullptr));
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, eight);
}

TEST(BatchInferenceTest, StatsCountRowsAndBatches) {
  MlDataset data = MakeNonlinearData(300, 37);
  GradientBoostedTrees gbdt;
  gbdt.Fit(data.rows, data.targets);
  FeatureMatrix matrix = ToMatrix(data.rows);
  std::vector<double> out(matrix.rows());
  InferenceStatsSnapshot before = gbdt.Stats();
  gbdt.PredictBatch(matrix, out);
  gbdt.PredictBatch(matrix, out);
  InferenceStatsSnapshot delta = gbdt.Stats() - before;
  EXPECT_EQ(delta.rows, 2 * matrix.rows());
  EXPECT_EQ(delta.batches, 2u);
  EXPECT_GE(delta.seconds, 0.0);
  EXPECT_GE(delta.RowsPerSec(), 0.0);
}

// The compact layout narrows thresholds to float, which is only lossless
// because BuildNode snaps every chosen split threshold to a
// float-representable double before partitioning. This pins that build
// contract directly (CompactForest::Pack also CHECKs it when packing).
TEST(RegressionTreeTest, FitThresholdsAreFloatRepresentable) {
  MlDataset data = MakeNonlinearData(800, 41);
  RegressionTree tree;
  tree.Fit(data.rows, data.targets, TreeOptions());
  std::span<const int32_t> features = tree.node_features();
  std::span<const double> thresholds = tree.node_thresholds();
  size_t interior = 0;
  for (size_t n = 0; n < features.size(); ++n) {
    if (features[n] < 0) continue;  // leaf
    ++interior;
    EXPECT_EQ(static_cast<double>(static_cast<float>(thresholds[n])),
              thresholds[n])
        << "node " << n;
  }
  EXPECT_GT(interior, 0u);
}

TEST(CompactForestTest, CompactBytesAreSmallerThanSoa) {
  MlDataset data = MakeNonlinearData(800, 42);
  RandomForest forest;
  forest.Fit(data.rows, data.targets);
  // SoA per node: int32 feature + double threshold + double value +
  // 2x int32 children = 28 bytes. Compact: uint32 + float + int32 = 12 per
  // node, plus an 8-byte leaf value per leaf (roughly half the nodes) and
  // a root index per tree — under 60% of the SoA footprint.
  size_t soa_bytes = forest.total_nodes() * 28;
  EXPECT_GT(forest.compact_bytes(), 0u);
  EXPECT_LT(forest.compact_bytes(), (soa_bytes * 3) / 5);
}

// -- Plan-feature cache: keyed rows, first-writer-wins inserts, versioned
// wholesale invalidation. --

TEST(FeatureCacheTest, MissThenHitServesIdenticalRow) {
  FeatureCache cache(3);
  std::vector<double> row = {1.5, -2.0, 0.25};
  std::vector<double> out(3, 0.0);
  EXPECT_FALSE(cache.Lookup(42, /*version=*/1, out.data()));
  cache.Insert(42, 1, row.data());
  EXPECT_TRUE(cache.Lookup(42, 1, out.data()));
  EXPECT_EQ(out, row);
  EXPECT_FALSE(cache.Lookup(43, 1, out.data()));
  FeatureCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.rows, 1u);
}

TEST(FeatureCacheTest, FirstWriterWins) {
  FeatureCache cache(2);
  std::vector<double> first = {1.0, 2.0};
  std::vector<double> second = {9.0, 9.0};
  std::vector<double> scratch(2, 0.0);
  EXPECT_FALSE(cache.Lookup(7, 1, scratch.data()));
  cache.Insert(7, 1, first.data());
  cache.Insert(7, 1, second.data());  // duplicate insert: ignored
  std::vector<double> out(2, 0.0);
  ASSERT_TRUE(cache.Lookup(7, 1, out.data()));
  EXPECT_EQ(out, first);
  EXPECT_EQ(cache.Stats().rows, 1u);
}

TEST(FeatureCacheTest, VersionBumpClearsWholesale) {
  FeatureCache cache(1);
  double v1 = 11.0, v2 = 22.0;
  double scratch = 0.0;
  EXPECT_FALSE(cache.Lookup(1, 1, &scratch));  // syncs the cache to v1
  cache.Insert(1, 1, &v1);
  cache.Insert(2, 1, &v2);
  EXPECT_EQ(cache.Stats().rows, 2u);
  double out = 0.0;
  // A lookup under a newer featurizer version invalidates every row.
  EXPECT_FALSE(cache.Lookup(1, 2, &out));
  EXPECT_EQ(cache.Stats().rows, 0u);
  EXPECT_GE(cache.Stats().evictions, 1u);
  cache.Insert(1, 2, &v1);
  EXPECT_TRUE(cache.Lookup(1, 2, &out));
  EXPECT_EQ(out, v1);
}

TEST(FeatureCacheTest, CapacityRotatesGenerations) {
  FeatureCache cache(1, /*max_rows=*/4);
  double value = 1.0;
  double scratch = 0.0;
  EXPECT_FALSE(cache.Lookup(0, 1, &scratch));  // syncs the cache to v1
  for (uint64_t key = 0; key < 4; ++key) cache.Insert(key, 1, &value);
  EXPECT_EQ(cache.Stats().rows, 4u);
  cache.Insert(99, 1, &value);  // fifth insert rotates, then admits
  FeatureCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.rows, 5u);  // 1 current + 4 rotated-out but servable
  EXPECT_EQ(stats.generation_evictions, 1u);
  // Only the initial version sync counts as a wholesale eviction; capacity
  // pressure rotates instead of clearing.
  EXPECT_EQ(stats.evictions, 1u);
  double out = 0.0;
  EXPECT_TRUE(cache.Lookup(99, 1, &out));  // current generation
  EXPECT_TRUE(cache.Lookup(0, 1, &out));   // previous generation still serves
}

TEST(FeatureCacheTest, SecondRotationDropsOldestGeneration) {
  FeatureCache cache(1, /*max_rows=*/2);
  double value = 1.0;
  double scratch = 0.0;
  EXPECT_FALSE(cache.Lookup(0, 1, &scratch));  // syncs the cache to v1
  for (uint64_t key = 0; key < 5; ++key) cache.Insert(key, 1, &value);
  // Inserting 0..4 rotates twice: {0,1} filled, rotated out by 2; {2,3}
  // filled, rotated out by 4. The oldest generation {0,1} is gone.
  FeatureCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.generation_evictions, 2u);
  EXPECT_EQ(stats.rows, 3u);  // current {4} + previous {2,3}
  double out = 0.0;
  EXPECT_FALSE(cache.Lookup(0, 1, &out));
  EXPECT_FALSE(cache.Lookup(1, 1, &out));
  EXPECT_TRUE(cache.Lookup(2, 1, &out));
  EXPECT_TRUE(cache.Lookup(3, 1, &out));
  EXPECT_TRUE(cache.Lookup(4, 1, &out));
}

TEST(FeatureCacheTest, WorkingSetLargerThanMaxRowsStopsThrashing) {
  // A retrain working set larger than max_rows (but within two
  // generations) must keep hitting after warmup. Under the old wholesale
  // clear, every pass over 6 keys with max_rows=4 re-missed most keys.
  FeatureCache cache(1, /*max_rows=*/4);
  double scratch = 0.0;
  EXPECT_FALSE(cache.Lookup(0, 1, &scratch));  // syncs the cache to v1
  const uint64_t kWorkingSet = 6;
  for (int pass = 0; pass < 4; ++pass) {
    for (uint64_t key = 0; key < kWorkingSet; ++key) {
      double out = 0.0;
      if (!cache.Lookup(key, 1, &out)) {
        double row = static_cast<double>(key);
        cache.Insert(key, 1, &row);
      }
    }
  }
  FeatureCacheStats stats = cache.Stats();
  // Warmup misses each key at most twice (initial + one rotation casualty);
  // steady-state passes are all hits.
  EXPECT_LE(stats.misses, 1 + 2 * kWorkingSet);
  EXPECT_GE(stats.hits, 2 * kWorkingSet);
  EXPECT_EQ(stats.evictions, 1u);  // the initial version sync only
  EXPECT_GE(stats.generation_evictions, 1u);
}

TEST(FeatureCacheDeathTest, InsertUnderStaleVersionDies) {
  FeatureCache cache(1);
  double value = 3.0;
  double scratch = 0.0;
  EXPECT_FALSE(cache.Lookup(5, /*version=*/2, &scratch));
  cache.Insert(5, /*version=*/2, &value);
  // Inserting a row computed under an older featurizer version would poison
  // the cache with mixed-version rows; the protocol CHECK-fails instead.
  EXPECT_DEATH(cache.Insert(6, /*version=*/1, &value),
               "stale featurizer version");
}

TEST(MetricsTest, R2PerfectAndMeanBaseline) {
  std::vector<double> targets = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(R2Score(targets, targets), 1.0);
  std::vector<double> mean_pred(4, 2.5);
  EXPECT_NEAR(R2Score(mean_pred, targets), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(MeanAbsoluteError({1, 2}, {2, 4}), 1.5);
  EXPECT_DOUBLE_EQ(MeanSquaredError({1, 2}, {2, 4}), 2.5);
}

}  // namespace
}  // namespace lqo
