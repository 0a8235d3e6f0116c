#ifndef LQO_CARDINALITY_QUERY_DRIVEN_H_
#define LQO_CARDINALITY_QUERY_DRIVEN_H_

#include <memory>
#include <string>
#include <vector>

#include "cardinality/featurizer.h"
#include "cardinality/training_data.h"
#include "ml/feature_cache.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/linear.h"
#include "ml/mlp.h"
#include "optimizer/cardinality_interface.h"

namespace lqo {

/// Extra knobs for the query-driven estimators.
struct QueryDrivenOptions {
  /// Robust-MSCN-style training [45]: augment the training set with copies
  /// whose predicate feature slots are randomly masked, so the model does
  /// not over-rely on any one predicate and degrades gracefully when the
  /// workload shifts to unseen predicates.
  bool mask_training = false;
  double mask_probability = 0.3;
  uint64_t seed = 271;
};

/// Supervised workload-to-cardinality regressors in log space, covering the
/// query-driven rows of the paper's Table 1:
///  - kLinear: linear regression on query features (Malik et al. [36]),
///  - kGbdt:   tree ensembles / XGBoost (Dutt et al. [10], [9]),
///  - kMlp:    MSCN-style neural estimator (Kipf et al. [23]),
///  - kForest: random-forest ensemble whose spread doubles as the
///             uncertainty estimate (Fauce [33]; prediction intervals
///             evaluated as in Thirumuruganathan et al. [55]).
class QueryDrivenEstimator : public CardinalityEstimatorInterface {
 public:
  enum class ModelType { kLinear, kGbdt, kMlp, kForest };

  QueryDrivenEstimator(ModelType type, const Catalog* catalog,
                       const StatsCatalog* stats,
                       QueryDrivenOptions options = QueryDrivenOptions());

  /// Fits the regressor on the labeled sub-queries.
  void Train(const CeTrainingData& data);

  double EstimateSubquery(const Subquery& subquery) override;

  /// Batched estimation: all sub-queries featurize into one per-call
  /// feature matrix and the underlying model runs a single PredictBatch
  /// pass — element i bit-identical to EstimateSubquery(subqueries[i]).
  std::vector<double> EstimateSubqueryBatch(
      const std::vector<Subquery>& subqueries) override;

  /// Batched-inference counters of the underlying model.
  InferenceStatsSnapshot InferenceStats() const;

  /// Estimate with every predicate slot replaced by the Robust-MSCN
  /// "unknown predicate" token — the serving-time behavior when a
  /// predicate is detected as out-of-distribution. Meaningful for models
  /// trained with options.mask_training.
  double EstimateMasked(const Subquery& subquery);

  /// kForest only: estimate plus a central prediction interval
  /// [lo, hi] = exp(mean ± z * std) from the ensemble spread.
  double EstimateWithInterval(const Subquery& subquery, double z, double* lo,
                              double* hi);

  std::string Name() const override;

  bool trained() const { return trained_; }

 private:
  /// Writes the "present but unknown" sentinel into one predicate slot.
  static void MaskSlot(std::vector<double>* features, size_t start);
  double EstimateInternal(const Subquery& subquery, bool mask_predicates);

  ModelType type_;
  QueryDrivenOptions options_;
  QueryFeaturizer featurizer_;
  /// Train-time featurization cache keyed by Subquery::KeyHash(): labeled
  /// sub-queries repeat across retrain epochs (the harness retrains on a
  /// growing window of one workload), so their feature rows are computed
  /// once and served warm afterwards. Sound because the featurizer is a
  /// pure function of the sub-query for the catalog/stats snapshot this
  /// estimator holds for its lifetime.
  FeatureCache train_cache_;
  RidgeRegression linear_;
  GradientBoostedTrees gbdt_;
  Mlp mlp_;
  RandomForest forest_;
  bool trained_ = false;
};

/// QuickSel-style mixture model [47]: per table, selectivity is modeled as
/// a weighted mixture of uniform kernels placed on observed training-query
/// predicate boxes, with weights fit by regularized least squares so the
/// mixture reproduces observed selectivities. Joins combine per-table
/// mixture selectivities with the native join formula.
class QuickSelEstimator : public CardinalityEstimatorInterface {
 public:
  QuickSelEstimator(const Catalog* catalog, const StatsCatalog* stats,
                    size_t max_kernels = 128);

  void Train(const CeTrainingData& data);

  double EstimateSubquery(const Subquery& subquery) override;
  std::string Name() const override { return "quicksel"; }

  /// Mixture selectivity of the local predicates of `table_index`; falls
  /// back to histogram selectivity for tables with no trained mixture.
  double TableSelectivity(const Query& query, int table_index) const;

 private:
  /// A normalized predicate box over a table's predicate columns, each
  /// dimension in [0,1].
  struct Box {
    std::vector<double> lo;
    std::vector<double> hi;
    double Volume() const;
    double OverlapVolume(const Box& other) const;
  };

  struct TableMixture {
    std::vector<std::string> columns;
    std::vector<Box> kernels;
    std::vector<double> weights;
  };

  Box BoxOf(const Query& query, int table_index,
            const TableMixture& mixture) const;

  const Catalog* catalog_;
  const StatsCatalog* stats_;
  size_t max_kernels_;
  std::map<std::string, TableMixture> mixtures_;
  bool trained_ = false;
};

}  // namespace lqo

#endif  // LQO_CARDINALITY_QUERY_DRIVEN_H_
