#include "cardinality/query_driven.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "query/workload.h"

namespace lqo {

QueryDrivenEstimator::QueryDrivenEstimator(ModelType type,
                                           const Catalog* catalog,
                                           const StatsCatalog* stats,
                                           QueryDrivenOptions options)
    : type_(type),
      options_(options),
      featurizer_(catalog, stats),
      train_cache_(featurizer_.dim()) {
  MlpOptions mlp_options;
  mlp_options.hidden_layers = {128, 64};
  mlp_options.epochs = 60;
  mlp_options.seed = 41;
  mlp_ = Mlp(mlp_options);
}

void QueryDrivenEstimator::Train(const CeTrainingData& data) {
  LQO_CHECK(!data.labeled.empty()) << "query-driven training needs a workload";
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  x.reserve(data.labeled.size());
  for (const LabeledSubquery& labeled : data.labeled) {
    // Served from the train-time cache when this labeled sub-query was
    // already featurized in an earlier retrain epoch (bit-identical rows
    // either way — the featurizer is pure for this catalog/stats snapshot).
    Subquery subquery = labeled.AsSubquery();
    uint64_t key = subquery.KeyHash();
    std::vector<double> features(featurizer_.dim());
    if (!train_cache_.Lookup(key, QueryFeaturizer::kVersion,
                             features.data())) {
      featurizer_.FeaturizeInto(subquery, features.data());
      train_cache_.Insert(key, QueryFeaturizer::kVersion, features.data());
    }
    x.push_back(std::move(features));
    y.push_back(std::log(std::max(labeled.cardinality, 1.0)));
  }
  if (options_.mask_training) {
    // Robust-MSCN augmentation [45]: masked copies replace a predicate's
    // value features with a sentinel "present but unknown" token (distinct
    // from "no predicate"), teaching the model a calibrated fallback for
    // out-of-distribution predicates at serving time.
    Rng rng(options_.seed);
    std::vector<std::pair<size_t, size_t>> slots =
        featurizer_.PredicateSlotRanges();
    size_t original = x.size();
    for (size_t i = 0; i < original; ++i) {
      std::vector<double> masked = x[i];
      bool changed = false;
      for (const auto& [start, len] : slots) {
        (void)len;
        if (masked[start] == 0.0) continue;  // slot not populated.
        if (!rng.Bernoulli(options_.mask_probability)) continue;
        MaskSlot(&masked, start);
        changed = true;
      }
      if (changed) {
        x.push_back(std::move(masked));
        y.push_back(y[i]);
      }
    }
  }
  switch (type_) {
    case ModelType::kLinear:
      LQO_CHECK(linear_.Fit(x, y).ok());
      break;
    case ModelType::kGbdt:
      gbdt_.Fit(x, y);
      break;
    case ModelType::kMlp:
      mlp_.Fit(x, y);
      break;
    case ModelType::kForest:
      forest_.Fit(x, y);
      break;
  }
  trained_ = true;
}

void QueryDrivenEstimator::MaskSlot(std::vector<double>* features,
                                    size_t start) {
  // Sentinel token: predicate present, full range, +1 in the log-sel slot
  // (a value no real predicate produces, since log selectivity <= 0).
  (*features)[start] = 1.0;
  (*features)[start + 1] = 0.0;
  (*features)[start + 2] = 1.0;
  (*features)[start + 3] = 1.0;
}

double QueryDrivenEstimator::EstimateSubquery(const Subquery& subquery) {
  return EstimateInternal(subquery, /*mask_predicates=*/false);
}

double QueryDrivenEstimator::EstimateMasked(const Subquery& subquery) {
  return EstimateInternal(subquery, /*mask_predicates=*/true);
}

double QueryDrivenEstimator::EstimateInternal(const Subquery& subquery,
                                              bool mask_predicates) {
  LQO_CHECK(trained_) << Name() << " used before Train()";
  std::vector<double> features = featurizer_.Featurize(subquery);
  if (mask_predicates) {
    for (const auto& [start, len] : featurizer_.PredicateSlotRanges()) {
      (void)len;
      if (features[start] != 0.0) MaskSlot(&features, start);
    }
  }
  double log_card = 0.0;
  switch (type_) {
    case ModelType::kLinear:
      log_card = linear_.Predict(features);
      break;
    case ModelType::kGbdt:
      log_card = gbdt_.Predict(features);
      break;
    case ModelType::kMlp:
      log_card = mlp_.Predict(features);
      break;
    case ModelType::kForest:
      log_card = forest_.Predict(features);
      break;
  }
  // Guard against wild extrapolation in log space.
  log_card = std::clamp(log_card, 0.0, 60.0);
  return std::exp(log_card);
}

std::vector<double> QueryDrivenEstimator::EstimateSubqueryBatch(
    const std::vector<Subquery>& subqueries) {
  LQO_CHECK(trained_) << Name() << " used before Train()";
  if (subqueries.empty()) return {};
  // Featurize the whole batch into one matrix (parallel, index-addressed
  // rows), run one batched model pass, then apply the scalar path's
  // clamp/exp per row. The matrix is per call: planners of concurrent
  // sessions reach one shared estimator through this batch path.
  FeatureMatrix features(featurizer_.dim());
  features.Reserve(subqueries.size());
  for (size_t i = 0; i < subqueries.size(); ++i) features.AppendRow();
  ParallelFor(subqueries.size(), [&](size_t i) {
    featurizer_.FeaturizeInto(subqueries[i], features.MutableRow(i));
  });
  std::vector<double> estimates(subqueries.size());
  switch (type_) {
    case ModelType::kLinear:
      linear_.PredictBatch(features, estimates);
      break;
    case ModelType::kGbdt:
      gbdt_.PredictBatch(features, estimates);
      break;
    case ModelType::kMlp:
      mlp_.PredictBatch(features, estimates);
      break;
    case ModelType::kForest:
      forest_.PredictBatch(features, estimates);
      break;
  }
  for (double& e : estimates) e = std::exp(std::clamp(e, 0.0, 60.0));
  return estimates;
}

InferenceStatsSnapshot QueryDrivenEstimator::InferenceStats() const {
  switch (type_) {
    case ModelType::kLinear:
      return linear_.Stats();
    case ModelType::kGbdt:
      return gbdt_.Stats();
    case ModelType::kMlp:
      return mlp_.Stats();
    case ModelType::kForest:
      return forest_.Stats();
  }
  return {};
}

double QueryDrivenEstimator::EstimateWithInterval(const Subquery& subquery,
                                                  double z, double* lo,
                                                  double* hi) {
  LQO_CHECK(trained_);
  LQO_CHECK(type_ == ModelType::kForest)
      << "prediction intervals need the forest ensemble";
  LQO_CHECK(lo != nullptr);
  LQO_CHECK(hi != nullptr);
  std::vector<double> features = featurizer_.Featurize(subquery);
  double mean, stddev;
  forest_.PredictWithUncertainty(features, &mean, &stddev);
  mean = std::clamp(mean, 0.0, 60.0);
  *lo = std::exp(std::max(0.0, mean - z * stddev));
  *hi = std::exp(std::min(60.0, mean + z * stddev));
  return std::exp(mean);
}

std::string QueryDrivenEstimator::Name() const {
  std::string suffix = options_.mask_training ? "_robust" : "";
  switch (type_) {
    case ModelType::kLinear:
      return "linear_qd" + suffix;
    case ModelType::kGbdt:
      return "gbdt_qd" + suffix;
    case ModelType::kMlp:
      return options_.mask_training ? "robust_mscn" : "mscn_mlp";
    case ModelType::kForest:
      return "forest_qd" + suffix;
  }
  return "query_driven";
}

// ---------------------------------------------------------------------------
// QuickSel
// ---------------------------------------------------------------------------

double QuickSelEstimator::Box::Volume() const {
  double v = 1.0;
  for (size_t d = 0; d < lo.size(); ++d) v *= std::max(0.0, hi[d] - lo[d]);
  return v;
}

double QuickSelEstimator::Box::OverlapVolume(const Box& other) const {
  double v = 1.0;
  for (size_t d = 0; d < lo.size(); ++d) {
    double o = std::min(hi[d], other.hi[d]) - std::max(lo[d], other.lo[d]);
    if (o <= 0.0) return 0.0;
    v *= o;
  }
  return v;
}

QuickSelEstimator::QuickSelEstimator(const Catalog* catalog,
                                     const StatsCatalog* stats,
                                     size_t max_kernels)
    : catalog_(catalog), stats_(stats), max_kernels_(max_kernels) {}

QuickSelEstimator::Box QuickSelEstimator::BoxOf(
    const Query& query, int table_index, const TableMixture& mixture) const {
  const std::string& table =
      query.tables()[static_cast<size_t>(table_index)].table_name;
  Box box;
  box.lo.assign(mixture.columns.size(), 0.0);
  box.hi.assign(mixture.columns.size(), 1.0);
  for (const Predicate& p : query.PredicatesOf(table_index)) {
    auto it = std::find(mixture.columns.begin(), mixture.columns.end(),
                        p.column);
    if (it == mixture.columns.end()) continue;
    size_t d = static_cast<size_t>(it - mixture.columns.begin());
    const ColumnStats& cs = stats_->Of(table).ColumnStatsOf(p.column);
    // Integer semantics: value v covers [v, v+1) before normalizing, so
    // equality boxes have positive width.
    double span = static_cast<double>(cs.max_value - cs.min_value + 1);
    int64_t lo = 0, hi = 0;
    switch (p.kind) {
      case PredicateKind::kEquals:
        lo = p.value;
        hi = p.value;
        break;
      case PredicateKind::kRange:
        lo = p.lo;
        hi = p.hi;
        break;
      case PredicateKind::kIn:
        lo = p.in_values.front();
        hi = p.in_values.back();
        break;
    }
    double lo_norm = std::clamp(
        static_cast<double>(lo - cs.min_value) / span, 0.0, 1.0);
    double hi_norm = std::clamp(
        static_cast<double>(hi - cs.min_value + 1) / span, 0.0, 1.0);
    box.lo[d] = std::max(box.lo[d], lo_norm);
    box.hi[d] = std::min(box.hi[d], hi_norm);
  }
  return box;
}

void QuickSelEstimator::Train(const CeTrainingData& data) {
  mixtures_.clear();
  // Initialize mixtures (columns layout) for every table.
  for (const std::string& table : catalog_->table_names()) {
    TableMixture mixture;
    mixture.columns = PredicateColumns(*catalog_, table);
    mixtures_[table] = std::move(mixture);
  }

  // Gather per-table observations from single-table labeled sub-queries.
  std::map<std::string, std::vector<std::pair<Box, double>>> observations;
  for (const LabeledSubquery& labeled : data.labeled) {
    if (PopCount(labeled.tables) != 1) continue;
    int t = __builtin_ctzll(labeled.tables);
    const std::string& table =
        labeled.query->tables()[static_cast<size_t>(t)].table_name;
    const TableMixture& mixture = mixtures_.at(table);
    if (mixture.columns.empty()) continue;
    Box box = BoxOf(*labeled.query, t, mixture);
    double selectivity =
        labeled.cardinality /
        std::max(1.0, static_cast<double>(stats_->Of(table).row_count));
    observations[table].emplace_back(std::move(box), selectivity);
  }

  for (auto& [table, obs] : observations) {
    TableMixture& mixture = mixtures_[table];
    if (obs.empty()) continue;
    // Prior observation: the full box has selectivity 1.
    Box full;
    full.lo.assign(mixture.columns.size(), 0.0);
    full.hi.assign(mixture.columns.size(), 1.0);
    obs.emplace_back(full, 1.0);

    // Kernels = (subsampled) observed boxes with positive volume.
    for (const auto& [box, sel] : obs) {
      if (mixture.kernels.size() >= max_kernels_) break;
      if (box.Volume() <= 0.0) continue;
      mixture.kernels.push_back(box);
    }
    if (mixture.kernels.empty()) continue;

    // Least squares: (F^T F + lambda I) w = F^T s, where
    // F[j][i] = |k_i ∩ b_j| / |k_i|.
    size_t k = mixture.kernels.size();
    std::vector<std::vector<double>> gram(k, std::vector<double>(k, 0.0));
    std::vector<double> rhs(k, 0.0);
    for (const auto& [box, sel] : obs) {
      std::vector<double> f(k);
      for (size_t i = 0; i < k; ++i) {
        f[i] = mixture.kernels[i].OverlapVolume(box) /
               mixture.kernels[i].Volume();
      }
      for (size_t i = 0; i < k; ++i) {
        for (size_t j = i; j < k; ++j) gram[i][j] += f[i] * f[j];
        rhs[i] += f[i] * sel;
      }
    }
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < i; ++j) gram[i][j] = gram[j][i];
      gram[i][i] += 1e-4;
    }
    std::vector<double> weights;
    if (CholeskySolve(std::move(gram), std::move(rhs), &weights)) {
      mixture.weights = std::move(weights);
    } else {
      mixture.kernels.clear();  // fall back to histogram for this table.
    }
  }
  trained_ = true;
}

double QuickSelEstimator::TableSelectivity(const Query& query,
                                           int table_index) const {
  const std::string& table =
      query.tables()[static_cast<size_t>(table_index)].table_name;
  auto it = mixtures_.find(table);
  if (it == mixtures_.end() || it->second.kernels.empty()) {
    // Histogram fallback (also used before training converges).
    double selectivity = 1.0;
    const TableStatistics& stats = stats_->Of(table);
    for (const Predicate& p : query.PredicatesOf(table_index)) {
      selectivity *= stats.ColumnStatsOf(p.column).Selectivity(p);
    }
    return selectivity;
  }
  const TableMixture& mixture = it->second;
  Box box = BoxOf(query, table_index, mixture);
  double selectivity = 0.0;
  for (size_t i = 0; i < mixture.kernels.size(); ++i) {
    selectivity += mixture.weights[i] *
                   mixture.kernels[i].OverlapVolume(box) /
                   mixture.kernels[i].Volume();
  }
  return std::clamp(selectivity, 1e-9, 1.0);
}

double QuickSelEstimator::EstimateSubquery(const Subquery& subquery) {
  const Query& query = *subquery.query;
  double card = 1.0;
  for (int t = 0; t < query.num_tables(); ++t) {
    if (!ContainsTable(subquery.tables, t)) continue;
    const std::string& table =
        query.tables()[static_cast<size_t>(t)].table_name;
    card *= static_cast<double>(stats_->Of(table).row_count) *
            TableSelectivity(query, t);
  }
  for (const QueryJoin& join : query.JoinsWithin(subquery.tables)) {
    const std::string& left =
        query.tables()[static_cast<size_t>(join.left_table)].table_name;
    const std::string& right =
        query.tables()[static_cast<size_t>(join.right_table)].table_name;
    double ndv_left = static_cast<double>(
        stats_->Of(left).ColumnStatsOf(join.left_column).num_distinct);
    double ndv_right = static_cast<double>(
        stats_->Of(right).ColumnStatsOf(join.right_column).num_distinct);
    card /= std::max({ndv_left, ndv_right, 1.0});
  }
  return std::max(card, 1.0);
}

}  // namespace lqo
