#include "cardinality/hybrid.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/logging.h"
#include "common/stats_util.h"
#include "common/thread_pool.h"
#include "ml/metrics.h"

namespace lqo {

UaeEstimator::UaeEstimator(const Catalog* catalog, const StatsCatalog* stats)
    : data_model_("uae_data", catalog, stats, JoinCombineMode::kKeyBuckets),
      featurizer_(catalog, stats) {
  data_model_.SetUniformModelKind(TableModelKind::kAr);
}

void UaeEstimator::Train(const CeTrainingData& data) {
  if (!data_model_.built()) data_model_.Build();
  LQO_CHECK(!data.labeled.empty()) << "UAE training needs a workload";
  std::vector<std::vector<double>> x;
  std::vector<double> residuals;
  for (const LabeledSubquery& labeled : data.labeled) {
    Subquery subquery = labeled.AsSubquery();
    double data_estimate = data_model_.EstimateSubquery(subquery);
    x.push_back(featurizer_.Featurize(subquery));
    residuals.push_back(std::log(std::max(labeled.cardinality, 1.0)) -
                        std::log(std::max(data_estimate, 1.0)));
  }
  GbdtOptions options;
  options.num_trees = 80;
  options.tree.max_depth = 3;
  corrector_ = GradientBoostedTrees(options);
  corrector_.Fit(x, residuals);
  trained_ = true;
}

double UaeEstimator::DataOnlyEstimate(const Subquery& subquery) {
  LQO_CHECK(data_model_.built());
  return data_model_.EstimateSubquery(subquery);
}

double UaeEstimator::EstimateSubquery(const Subquery& subquery) {
  LQO_CHECK(trained_) << "uae_hybrid used before Train()";
  double data_estimate = data_model_.EstimateSubquery(subquery);
  double correction = corrector_.Predict(featurizer_.Featurize(subquery));
  correction = std::clamp(correction, -20.0, 20.0);
  return std::max(1.0, data_estimate * std::exp(correction));
}

std::vector<double> UaeEstimator::EstimateSubqueryBatch(
    const std::vector<Subquery>& subqueries) {
  LQO_CHECK(trained_) << "uae_hybrid used before Train()";
  if (subqueries.empty()) return {};
  // Data-model estimates and featurization are both per-row and
  // re-entrant, so they share one index-addressed parallel sweep; the
  // corrector then scores the whole matrix in one batched pass. The matrix
  // is per call: planners of concurrent sessions reach one shared
  // estimator through this batch path.
  FeatureMatrix features(featurizer_.dim());
  features.Reserve(subqueries.size());
  for (size_t i = 0; i < subqueries.size(); ++i) features.AppendRow();
  std::vector<double> data_estimates(subqueries.size());
  ParallelFor(subqueries.size(), [&](size_t i) {
    data_estimates[i] = data_model_.EstimateSubquery(subqueries[i]);
    featurizer_.FeaturizeInto(subqueries[i], features.MutableRow(i));
  });
  std::vector<double> corrections(subqueries.size());
  corrector_.PredictBatch(features, corrections);
  std::vector<double> estimates(subqueries.size());
  for (size_t i = 0; i < subqueries.size(); ++i) {
    double correction = std::clamp(corrections[i], -20.0, 20.0);
    estimates[i] = std::max(1.0, data_estimates[i] * std::exp(correction));
  }
  return estimates;
}

std::unique_ptr<DataDrivenEstimator> MakeGlueEstimator(
    const Catalog* catalog, const StatsCatalog* stats,
    const CeTrainingData& data) {
  // Candidate per-table families.
  const TableModelKind kCandidates[] = {TableModelKind::kSpn,
                                        TableModelKind::kBayesNet,
                                        TableModelKind::kKde};

  // Validate each family on single-table labeled sub-queries, per table.
  std::map<std::string, TableModelKind> best_kind;
  std::map<std::string, double> best_score;
  for (TableModelKind kind : kCandidates) {
    DataDrivenEstimator candidate("glue_probe", catalog, stats,
                                  JoinCombineMode::kIndependence);
    candidate.SetUniformModelKind(kind);
    candidate.Build();
    std::map<std::string, std::vector<double>> qerrors;
    for (const LabeledSubquery& labeled : data.labeled) {
      if (PopCount(labeled.tables) != 1) continue;
      int t = __builtin_ctzll(labeled.tables);
      const std::string& table =
          labeled.query->tables()[static_cast<size_t>(t)].table_name;
      double estimate = candidate.EstimateSubquery(labeled.AsSubquery());
      qerrors[table].push_back(QError(estimate, labeled.cardinality));
    }
    for (const auto& [table, errors] : qerrors) {
      double score = GeometricMean(errors);
      auto it = best_score.find(table);
      if (it == best_score.end() || score < it->second) {
        best_score[table] = score;
        best_kind[table] = kind;
      }
    }
  }

  auto glue = std::make_unique<DataDrivenEstimator>(
      "glue", catalog, stats, JoinCombineMode::kKeyBuckets);
  // Default family for tables never touched by the training workload.
  glue->SetUniformModelKind(TableModelKind::kSpn);
  for (const auto& [table, kind] : best_kind) {
    glue->SetModelKind(table, kind);
  }
  glue->Build();
  return glue;
}

}  // namespace lqo
