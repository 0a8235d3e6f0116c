#ifndef LQO_QUERY_QUERY_H_
#define LQO_QUERY_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/predicate.h"

namespace lqo {

/// Bitmask of query-table indices (bit i = Query::tables[i]). Queries are
/// limited to 64 tables, far above anything in the workloads.
using TableSet = uint64_t;

inline TableSet TableBit(int index) { return TableSet{1} << index; }
inline bool ContainsTable(TableSet set, int index) {
  return (set & TableBit(index)) != 0;
}
inline int PopCount(TableSet set) { return __builtin_popcountll(set); }

/// One FROM-clause entry.
struct QueryTable {
  std::string table_name;
  std::string alias;
};

/// An equi-join conjunct between two query tables.
struct QueryJoin {
  int left_table = 0;
  std::string left_column;
  int right_table = 0;
  std::string right_column;

  /// True if the join connects a table inside `set` with one outside it, or
  /// both inside.
  bool WithinSet(TableSet set) const {
    return ContainsTable(set, left_table) && ContainsTable(set, right_table);
  }
};

/// Aggregate functions of the output stage over int64 columns. SUM wraps
/// modulo 2^64 (two's complement, so overflow is defined and independent of
/// summation order); AVG is the truncated quotient of that wrapped sum by
/// the row count; over an empty input every function, COUNT included,
/// yields 0.
enum class AggFunc { kCount, kSum, kMin, kMax, kAvg };

const char* AggFuncName(AggFunc func);

/// One SELECT-list item: either a bare column reference (projection) or an
/// aggregate over a column. COUNT(*) is the aggregate form with no column
/// (table_index == -1).
struct OutputExpr {
  enum class Kind { kColumn, kAggregate };

  Kind kind = Kind::kAggregate;
  AggFunc func = AggFunc::kCount;  // meaningful for kAggregate only.
  int table_index = -1;            // -1 only for COUNT(*).
  std::string column;              // empty only for COUNT(*).

  static OutputExpr CountStar() { return OutputExpr{}; }
  static OutputExpr Column(int table_index, std::string column) {
    return {Kind::kColumn, AggFunc::kCount, table_index, std::move(column)};
  }
  static OutputExpr Aggregate(AggFunc func, int table_index,
                              std::string column) {
    return {Kind::kAggregate, func, table_index, std::move(column)};
  }

  /// True when the expression reads a column (everything but COUNT(*)).
  bool ReferencesColumn() const { return table_index >= 0; }
};

/// A select-project-join query: the unit of work throughout the library,
/// matching the query class used by the cardinality-estimation and
/// learned-optimizer literature the paper surveys. The select list defaults
/// to the literature's COUNT(*) (an empty `outputs()`); adding OutputExprs
/// and an optional single GROUP BY key turns on the engine's
/// late-materialization output stage without changing the qualifying-row
/// semantics any estimator or optimizer depends on.
class Query {
 public:
  /// FROM-list capacity: table indices are bits of a TableSet.
  static constexpr int kMaxTables = 64;

  Query() = default;

  /// Adds a FROM entry; returns its index. Alias defaults to t<i>. At most
  /// kMaxTables entries.
  int AddTable(const std::string& table_name, std::string alias = "");

  void AddJoin(int left_table, const std::string& left_column,
               int right_table, const std::string& right_column);
  void AddPredicate(Predicate predicate);

  /// Appends a SELECT-list item. An empty select list means the legacy
  /// SELECT COUNT(*) — callers that never touch outputs see no change.
  void AddOutput(OutputExpr output);

  /// Sets the (single) GROUP BY key. Aggregate outputs then aggregate per
  /// key; kColumn outputs must reference this column.
  void SetGroupBy(int table_index, std::string column);

  const std::vector<QueryTable>& tables() const { return tables_; }
  const std::vector<QueryJoin>& joins() const { return joins_; }
  const std::vector<Predicate>& predicates() const { return predicates_; }
  const std::vector<OutputExpr>& outputs() const { return outputs_; }
  bool has_group_by() const { return has_group_by_; }
  int group_by_table() const { return group_by_table_; }
  const std::string& group_by_column() const { return group_by_column_; }

  /// True when the query declares an explicit output stage (non-empty
  /// select list); false for legacy COUNT(*) queries.
  bool HasOutputStage() const { return !outputs_.empty(); }

  /// Distinct columns of `table_index` the output stage reads (select list
  /// plus GROUP BY key), in first-reference order.
  std::vector<std::string> OutputColumnsOf(int table_index) const;

  int num_tables() const { return static_cast<int>(tables_.size()); }

  /// Mask with all query tables set.
  TableSet AllTables() const;

  /// Predicates whose table_index == `table_index`.
  std::vector<Predicate> PredicatesOf(int table_index) const;

  /// Joins with both endpoints inside `set`.
  std::vector<QueryJoin> JoinsWithin(TableSet set) const;

  /// Adjacency over the join graph: tables (by index) sharing a join with
  /// `table_index`.
  std::vector<int> Neighbors(int table_index) const;

  /// True if the join graph restricted to `set` is connected.
  bool IsConnected(TableSet set) const;

  /// SQL-ish rendering for logs and docs.
  std::string ToString() const;

 private:
  std::vector<QueryTable> tables_;
  std::vector<QueryJoin> joins_;
  std::vector<Predicate> predicates_;
  std::vector<OutputExpr> outputs_;
  bool has_group_by_ = false;
  int group_by_table_ = -1;
  std::string group_by_column_;
};

/// A view of a query restricted to a connected subset of its tables — the
/// "sub-query Q' of Q" whose cardinality the estimator component predicts.
struct Subquery {
  const Query* query = nullptr;
  TableSet tables = 0;

  /// Canonical cache key: identical logical subqueries (same base tables,
  /// predicates and join structure) map to the same key even across Query
  /// objects.
  std::string Key() const;

  /// 64-bit structural hash of Key() — same canonicalization (neutralized
  /// table indices, order-independent predicate/join combination) without
  /// materializing any strings, so hot cache lookups stay allocation-free.
  /// Equal Key() implies equal KeyHash(); collisions between distinct keys
  /// are possible in principle but vanishingly rare at 64 bits.
  uint64_t KeyHash() const;
};

/// Subquery::KeyHash() for many subsets of one query. The hash is a
/// commutative sum of one part per table and one part per induced join;
/// this computes every part once, so a subset's hash costs one add per
/// table and per join instead of re-hashing names and predicates. Of(set)
/// equals Subquery{&query, set}.KeyHash() bit for bit (both use the same
/// part functions).
class KeyHashParts {
 public:
  explicit KeyHashParts(const Query& query);

  uint64_t Of(TableSet tables) const;

 private:
  std::vector<uint64_t> table_parts_;
  std::vector<uint64_t> join_parts_;
  /// Endpoint bits of each join: the join is induced by `set` iff both are
  /// in it.
  std::vector<TableSet> join_masks_;
};

}  // namespace lqo

#endif  // LQO_QUERY_QUERY_H_
