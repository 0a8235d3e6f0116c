// Test-only naive query evaluator: the independent reference the engine's
// results are checked against. It shares nothing with src/engine except the
// plan and query types (engine/plan.h) — no morsels, partitions, selection
// vectors, SIMD kernels or hashing. Each base table is filtered row by row
// with Predicate::Matches; a table set is evaluated by extending one table
// at a time with nested loops under every join conjunct inside the set;
// GROUP BY keys live in a std::map; SUM and AVG do their own modulo-2^64
// arithmetic. Slow by design (a join of m and n rows costs m * n steps), so
// keep inputs to a few thousand rows per table.

#ifndef LQO_TESTS_NAIVE_EXEC_ORACLE_H_
#define LQO_TESTS_NAIVE_EXEC_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "engine/plan.h"
#include "storage/catalog.h"

namespace lqo::oracle {

/// One joined row: base-table row ids indexed by query table. Entries of
/// tables outside the evaluated set are unused.
using Tuple = std::vector<uint32_t>;

class NaiveEvaluator {
 public:
  NaiveEvaluator(const Catalog& catalog, const Query& query)
      : catalog_(catalog), query_(query) {}

  /// Base-table size of query table `table`.
  uint64_t BaseRows(int table) const { return TableOf(table).num_rows(); }

  /// Every combination of base rows over `set` that satisfies all
  /// predicates on its tables and every join conjunct inside it. A single
  /// table yields its qualifying rows in base-row order. Memoized per set.
  const std::vector<Tuple>& Evaluate(TableSet set) {
    auto it = memo_.find(set);
    if (it != memo_.end()) return it->second;
    int first = __builtin_ctzll(set);
    std::vector<Tuple> tuples;
    for (uint32_t row : Filtered(first)) {
      Tuple tuple(static_cast<size_t>(query_.num_tables()), 0);
      tuple[static_cast<size_t>(first)] = row;
      tuples.push_back(tuple);
    }
    TableSet joined = TableBit(first);
    while (joined != set) {
      int next = NextTable(set, joined);
      // Conjuncts between `next` and the tables joined so far, resolved to
      // (other table, other column, next's column).
      struct Conjunct {
        int other;
        const int64_t* other_col;
        const int64_t* next_col;
      };
      std::vector<Conjunct> conjuncts;
      for (const QueryJoin& j : query_.joins()) {
        if (j.left_table == next && ContainsTable(joined, j.right_table)) {
          conjuncts.push_back({j.right_table,
                               Col(j.right_table, j.right_column),
                               Col(next, j.left_column)});
        } else if (j.right_table == next &&
                   ContainsTable(joined, j.left_table)) {
          conjuncts.push_back({j.left_table, Col(j.left_table, j.left_column),
                               Col(next, j.right_column)});
        }
      }
      std::vector<uint32_t> rows = Filtered(next);
      std::vector<Tuple> extended;
      for (const Tuple& tuple : tuples) {
        for (uint32_t row : rows) {
          bool match = true;
          for (const Conjunct& c : conjuncts) {
            if (c.other_col[tuple[static_cast<size_t>(c.other)]] !=
                c.next_col[row]) {
              match = false;
              break;
            }
          }
          if (!match) continue;
          extended.push_back(tuple);
          extended.back()[static_cast<size_t>(next)] = row;
        }
      }
      tuples = std::move(extended);
      joined |= TableBit(next);
    }
    return memo_.emplace(set, std::move(tuples)).first->second;
  }

  /// The query's output stage over Evaluate(set), one vector per output
  /// row in select-list order. GROUP BY emits groups in first-seen order
  /// of Evaluate(set); global aggregates emit exactly one row; projection
  /// emits one row per tuple, in tuple order.
  std::vector<std::vector<int64_t>> Output(TableSet set) {
    const std::vector<Tuple>& tuples = Evaluate(set);
    const std::vector<OutputExpr>& outputs = query_.outputs();
    std::vector<const int64_t*> cols;
    bool all_aggregate = true;
    for (const OutputExpr& e : outputs) {
      cols.push_back(e.ReferencesColumn() ? Col(e.table_index, e.column)
                                          : nullptr);
      all_aggregate &= e.kind == OutputExpr::Kind::kAggregate;
    }
    auto value = [&](size_t o, const Tuple& t) {
      return cols[o][t[static_cast<size_t>(outputs[o].table_index)]];
    };
    std::vector<std::vector<int64_t>> rows;
    if (!query_.has_group_by() && !all_aggregate) {
      for (const Tuple& t : tuples) {
        std::vector<int64_t> row;
        for (size_t o = 0; o < outputs.size(); ++o) row.push_back(value(o, t));
        rows.push_back(row);
      }
      return rows;
    }
    // One accumulator list per group; a global aggregate is the single
    // group of key 0.
    std::map<int64_t, size_t> group_of;
    std::vector<int64_t> keys;
    std::vector<std::vector<Acc>> groups;
    const int64_t* key_col =
        query_.has_group_by()
            ? Col(query_.group_by_table(), query_.group_by_column())
            : nullptr;
    if (!query_.has_group_by()) {
      keys.push_back(0);
      groups.emplace_back(outputs.size());
    }
    for (const Tuple& t : tuples) {
      size_t g = 0;
      if (key_col != nullptr) {
        int64_t key = key_col[t[static_cast<size_t>(query_.group_by_table())]];
        auto [it, inserted] = group_of.emplace(key, groups.size());
        if (inserted) {
          keys.push_back(key);
          groups.emplace_back(outputs.size());
        }
        g = it->second;
      }
      for (size_t o = 0; o < outputs.size(); ++o) {
        Acc& a = groups[g][o];
        int64_t v = cols[o] != nullptr ? value(o, t) : 0;
        a.sum += static_cast<uint64_t>(v);  // wraps modulo 2^64
        if (a.count == 0 || v < a.min) a.min = v;
        if (a.count == 0 || v > a.max) a.max = v;
        ++a.count;
      }
    }
    for (size_t g = 0; g < groups.size(); ++g) {
      std::vector<int64_t> row;
      for (size_t o = 0; o < outputs.size(); ++o) {
        row.push_back(outputs[o].kind == OutputExpr::Kind::kColumn
                          ? keys[g]
                          : Finalize(outputs[o].func, groups[g][o]));
      }
      rows.push_back(row);
    }
    return rows;
  }

 private:
  struct Acc {
    uint64_t count = 0;
    uint64_t sum = 0;
    int64_t min = 0;
    int64_t max = 0;
  };

  // SUM is the wrapped sum read back as two's complement; AVG truncates the
  // wrapped sum divided by the count; every function yields 0 on no rows.
  static int64_t Finalize(AggFunc func, const Acc& a) {
    if (a.count == 0) return 0;
    switch (func) {
      case AggFunc::kCount:
        return static_cast<int64_t>(a.count);
      case AggFunc::kSum:
        return static_cast<int64_t>(a.sum);
      case AggFunc::kAvg:
        return static_cast<int64_t>(a.sum) / static_cast<int64_t>(a.count);
      case AggFunc::kMin:
        return a.min;
      case AggFunc::kMax:
        return a.max;
    }
    return 0;
  }

  const Table& TableOf(int table) const {
    auto t = catalog_.GetTable(
        query_.tables()[static_cast<size_t>(table)].table_name);
    LQO_CHECK(t.ok()) << t.status().ToString();
    return **t;
  }

  const int64_t* Col(int table, const std::string& column) const {
    const Table& t = TableOf(table);
    auto idx = t.ColumnIndex(column);
    LQO_CHECK(idx.ok()) << idx.status().ToString();
    return t.column(*idx).data.data();
  }

  // Rows of `table` passing every predicate on it, ascending.
  std::vector<uint32_t> Filtered(int table) const {
    std::vector<uint32_t> rows;
    std::vector<std::pair<const Predicate*, const int64_t*>> preds;
    for (const Predicate& p : query_.predicates()) {
      if (p.table_index == table) preds.emplace_back(&p, Col(table, p.column));
    }
    uint64_t n = BaseRows(table);
    for (uint32_t r = 0; r < n; ++r) {
      bool pass = true;
      for (const auto& [p, col] : preds) pass = pass && p->Matches(col[r]);
      if (pass) rows.push_back(r);
    }
    return rows;
  }

  // The lowest-index table of `set` outside `joined` that shares a join
  // conjunct with `joined`, so intermediates never become cross products;
  // the lowest remaining table when none does.
  int NextTable(TableSet set, TableSet joined) const {
    TableSet rest = set & ~joined;
    for (int t = 0; t < query_.num_tables(); ++t) {
      if (!ContainsTable(rest, t)) continue;
      for (const QueryJoin& j : query_.joins()) {
        if ((j.left_table == t && ContainsTable(joined, j.right_table)) ||
            (j.right_table == t && ContainsTable(joined, j.left_table))) {
          return t;
        }
      }
    }
    return __builtin_ctzll(rest);
  }

  const Catalog& catalog_;
  const Query& query_;
  std::map<TableSet, std::vector<Tuple>> memo_;
};

}  // namespace lqo::oracle

#endif  // LQO_TESTS_NAIVE_EXEC_ORACLE_H_
