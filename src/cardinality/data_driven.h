#ifndef LQO_CARDINALITY_DATA_DRIVEN_H_
#define LQO_CARDINALITY_DATA_DRIVEN_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cardinality/discretize.h"
#include "cardinality/table_model.h"
#include "optimizer/cardinality_interface.h"
#include "optimizer/table_stats.h"
#include "storage/catalog.h"

namespace lqo {

/// Per-table model families available to the data-driven estimator.
enum class TableModelKind {
  kSample, kKde, kBayesNet, kSpn, kAr, kIamAr, kSketch
};

const char* TableModelKindName(TableModelKind kind);

/// How per-table answers combine across joins:
///  - kIndependence: DeepDB-style — model selectivities multiply and each
///    join conjunct contributes 1/max(ndv) (uniform key assumption).
///  - kKeyBuckets: FactorJoin-style — per-join-group bucketed key
///    histograms are combined bucket-by-bucket, capturing join-key skew.
enum class JoinCombineMode { kIndependence, kKeyBuckets };

struct DataDrivenOptions {
  int key_buckets = 64;
  int max_bins = 40;
  size_t sample_size = 2000;
  uint64_t seed = 801;
  int ar_samples = 200;
};

/// A data-driven cardinality estimator: one SingleTableDistribution per
/// table plus a join combiner. Instantiates the data-driven rows of the
/// paper's Table 1 (KDE [14,21], Naru [71], BayesNet/BayesCard [57,65],
/// DeepDB [17], FactorJoin [64]) and, with mixed per-table kinds, GLUE [82].
class DataDrivenEstimator : public CardinalityEstimatorInterface {
 public:
  DataDrivenEstimator(std::string name, const Catalog* catalog,
                      const StatsCatalog* stats, JoinCombineMode mode,
                      DataDrivenOptions options = DataDrivenOptions());

  /// Sets the model family for every table (call before Build).
  void SetUniformModelKind(TableModelKind kind);
  /// Overrides the family for one table (GLUE-style mixing).
  void SetModelKind(const std::string& table, TableModelKind kind);

  /// Learns all per-table models from the data. Must be called once before
  /// estimating.
  void Build();

  double EstimateSubquery(const Subquery& subquery) override;
  std::string Name() const override { return name_; }

  bool built() const { return built_; }

 private:
  struct SchemaKeyGroup {
    KeyBuckets buckets;
    /// Member columns: table -> join column (first if several).
    std::map<std::string, std::string> column_of_table;
    /// Unfiltered per-bucket distinct key counts, per table.
    std::map<std::string, std::vector<double>> distinct_per_bucket;
  };

  std::unique_ptr<SingleTableDistribution> MakeModel(
      const std::string& table, TableModelKind kind) const;
  void BuildSchemaKeyGroups();

  std::string name_;
  const Catalog* catalog_;
  const StatsCatalog* stats_;
  JoinCombineMode mode_;
  DataDrivenOptions options_;
  std::map<std::string, TableModelKind> kind_of_table_;
  std::map<std::string, std::unique_ptr<SingleTableDistribution>> models_;
  std::vector<SchemaKeyGroup> key_groups_;
  /// "table.column" -> index into key_groups_.
  std::map<std::string, size_t> group_of_column_;
  bool built_ = false;
};

}  // namespace lqo

#endif  // LQO_CARDINALITY_DATA_DRIVEN_H_
