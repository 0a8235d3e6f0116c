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

double BaselineCardinalityEstimator::TableFactor(const Query& query,
                                                 int table_index) const {
  const std::string& name =
      query.tables()[static_cast<size_t>(table_index)].table_name;
  double rows = static_cast<double>(stats_->Of(name).row_count);
  return rows * TableSelectivity(query, table_index);
}

double BaselineCardinalityEstimator::JoinDivisor(const Query& query,
                                                 const QueryJoin& join) const {
  const std::string& left_name =
      query.tables()[static_cast<size_t>(join.left_table)].table_name;
  const std::string& right_name =
      query.tables()[static_cast<size_t>(join.right_table)].table_name;
  double ndv_left = static_cast<double>(
      stats_->Of(left_name).ColumnStatsOf(join.left_column).num_distinct);
  double ndv_right = static_cast<double>(
      stats_->Of(right_name).ColumnStatsOf(join.right_column).num_distinct);
  return std::max({ndv_left, ndv_right, 1.0});
}

namespace {

// The estimate of `tables` from its terms: the product of the filtered
// base-table cardinalities in table order, then one independence-assumed
// division per induced join conjunct in joins() order. factor(t) and
// divisor(j) are only asked for tables in the set and joins within it.
template <typename Factor, typename Divisor>
double EstimateFromTerms(const Query& query, TableSet tables,
                         const Factor& factor, const Divisor& divisor) {
  double card = 1.0;
  for (TableSet rest = tables; rest != 0; rest &= rest - 1) {
    card *= factor(__builtin_ctzll(rest));
  }
  const std::vector<QueryJoin>& joins = query.joins();
  for (size_t j = 0; j < joins.size(); ++j) {
    if (joins[j].WithinSet(tables)) card /= divisor(j);
  }
  return std::max(card, 1.0);
}

}  // namespace

double BaselineCardinalityEstimator::EstimateSubquery(
    const Subquery& subquery) {
  const Query& query = *subquery.query;
  return EstimateFromTerms(
      query, subquery.tables,
      [&](int t) { return TableFactor(query, t); },
      [&](size_t j) { return JoinDivisor(query, query.joins()[j]); });
}

std::vector<double> BaselineCardinalityEstimator::EstimateSubqueryBatch(
    const std::vector<Subquery>& subqueries) {
  std::vector<double> estimates(subqueries.size());
  const Query* terms_of = nullptr;
  std::vector<double> factors;
  std::vector<double> divisors;
  for (size_t i = 0; i < subqueries.size(); ++i) {
    const Query& query = *subqueries[i].query;
    if (&query != terms_of) {
      terms_of = &query;
      factors.resize(static_cast<size_t>(query.num_tables()));
      for (int t = 0; t < query.num_tables(); ++t) {
        factors[static_cast<size_t>(t)] = TableFactor(query, t);
      }
      divisors.resize(query.joins().size());
      for (size_t j = 0; j < divisors.size(); ++j) {
        divisors[j] = JoinDivisor(query, query.joins()[j]);
      }
    }
    estimates[i] = EstimateFromTerms(
        query, subqueries[i].tables,
        [&](int t) { return factors[static_cast<size_t>(t)]; },
        [&](size_t j) { return divisors[j]; });
  }
  return estimates;
}

}  // namespace lqo
