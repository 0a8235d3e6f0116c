#ifndef LQO_OPTIMIZER_BASELINE_ESTIMATOR_H_
#define LQO_OPTIMIZER_BASELINE_ESTIMATOR_H_

#include <string>
#include <vector>

#include "optimizer/cardinality_interface.h"
#include "optimizer/table_stats.h"

namespace lqo {

/// PostgreSQL-style traditional cardinality estimator:
///  - per-column selectivities from histogram + MCV statistics,
///  - attribute-value independence within a table (selectivities multiply),
///  - join selectivity 1 / max(ndv_left, ndv_right) per equi-join conjunct,
///    applied independently (also for cyclic join graphs, as PostgreSQL
///    does).
/// This is the "native optimizer" estimator every learned method is
/// compared against.
class BaselineCardinalityEstimator : public CardinalityEstimatorInterface {
 public:
  BaselineCardinalityEstimator(const Catalog* catalog,
                               const StatsCatalog* stats)
      : catalog_(catalog), stats_(stats) {}

  double EstimateSubquery(const Subquery& subquery) override;

  /// Serial batch: the per-table and per-join terms are computed once per
  /// run of sub-queries over the same query, then each sub-query is the
  /// same product and quotients EstimateSubquery() computes, bit for bit.
  std::vector<double> EstimateSubqueryBatch(
      const std::vector<Subquery>& subqueries) override;

  std::string Name() const override { return "postgres_baseline"; }

  /// Selectivity of all local predicates of `table_index` in `query`
  /// (product under independence). Exposed for reuse by learned methods
  /// that mix in traditional per-table estimates (e.g. GLUE).
  double TableSelectivity(const Query& query, int table_index) const;

 private:
  /// Filtered row count of one table: rows * TableSelectivity().
  double TableFactor(const Query& query, int table_index) const;
  /// Join selectivity divisor of one conjunct: max(ndv_left, ndv_right, 1).
  double JoinDivisor(const Query& query, const QueryJoin& join) const;

  const Catalog* catalog_;
  const StatsCatalog* stats_;
};

}  // namespace lqo

#endif  // LQO_OPTIMIZER_BASELINE_ESTIMATOR_H_
