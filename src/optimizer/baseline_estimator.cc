#include "optimizer/baseline_estimator.h"

#include <algorithm>

#include "common/logging.h"

namespace lqo {

double BaselineCardinalityEstimator::TableSelectivity(const Query& query,
                                                      int table_index) const {
  const std::string& table_name =
      query.tables()[static_cast<size_t>(table_index)].table_name;
  const TableStatistics& stats = stats_->Of(table_name);
  double selectivity = 1.0;
  for (const Predicate& p : query.predicates()) {
    if (p.table_index != table_index) continue;
    selectivity *= stats.ColumnStatsOf(p.column).Selectivity(p);
  }
  return selectivity;
}

double BaselineCardinalityEstimator::EstimateSubquery(
    const Subquery& subquery) {
  const Query& query = *subquery.query;

  // Product of filtered base-table cardinalities.
  double card = 1.0;
  for (int t = 0; t < query.num_tables(); ++t) {
    if (!ContainsTable(subquery.tables, t)) continue;
    const std::string& name =
        query.tables()[static_cast<size_t>(t)].table_name;
    double rows = static_cast<double>(stats_->Of(name).row_count);
    card *= rows * TableSelectivity(query, t);
  }

  // One independence-assumed selectivity factor per induced join conjunct.
  for (const QueryJoin& join : query.joins()) {
    if (!join.WithinSet(subquery.tables)) continue;
    const std::string& left_name =
        query.tables()[static_cast<size_t>(join.left_table)].table_name;
    const std::string& right_name =
        query.tables()[static_cast<size_t>(join.right_table)].table_name;
    double ndv_left = static_cast<double>(
        stats_->Of(left_name).ColumnStatsOf(join.left_column).num_distinct);
    double ndv_right = static_cast<double>(
        stats_->Of(right_name).ColumnStatsOf(join.right_column).num_distinct);
    card /= std::max({ndv_left, ndv_right, 1.0});
  }
  return std::max(card, 1.0);
}

}  // namespace lqo
