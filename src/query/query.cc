#include "query/query.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace lqo {

int Query::AddTable(const std::string& table_name, std::string alias) {
  LQO_CHECK_LT(num_tables(), kMaxTables) << "query table limit exceeded";
  if (alias.empty()) alias = "t" + std::to_string(tables_.size());
  tables_.push_back({table_name, std::move(alias)});
  return static_cast<int>(tables_.size()) - 1;
}

void Query::AddJoin(int left_table, const std::string& left_column,
                    int right_table, const std::string& right_column) {
  LQO_CHECK_GE(left_table, 0);
  LQO_CHECK_LT(left_table, num_tables());
  LQO_CHECK_GE(right_table, 0);
  LQO_CHECK_LT(right_table, num_tables());
  LQO_CHECK_NE(left_table, right_table);
  joins_.push_back({left_table, left_column, right_table, right_column});
}

void Query::AddPredicate(Predicate predicate) {
  LQO_CHECK_GE(predicate.table_index, 0);
  LQO_CHECK_LT(predicate.table_index, num_tables());
  predicates_.push_back(std::move(predicate));
}

void Query::AddOutput(OutputExpr output) {
  if (output.ReferencesColumn()) {
    LQO_CHECK_LT(output.table_index, num_tables());
    LQO_CHECK(!output.column.empty());
  } else {
    // Only COUNT(*) reads no column.
    LQO_CHECK(output.kind == OutputExpr::Kind::kAggregate);
    LQO_CHECK(output.func == AggFunc::kCount);
  }
  outputs_.push_back(std::move(output));
}

void Query::SetGroupBy(int table_index, std::string column) {
  LQO_CHECK_GE(table_index, 0);
  LQO_CHECK_LT(table_index, num_tables());
  LQO_CHECK(!column.empty());
  has_group_by_ = true;
  group_by_table_ = table_index;
  group_by_column_ = std::move(column);
}

std::vector<std::string> Query::OutputColumnsOf(int table_index) const {
  std::vector<std::string> cols;
  auto add = [&](const std::string& c) {
    if (std::find(cols.begin(), cols.end(), c) == cols.end()) {
      cols.push_back(c);
    }
  };
  if (has_group_by_ && group_by_table_ == table_index) add(group_by_column_);
  for (const OutputExpr& o : outputs_) {
    if (o.ReferencesColumn() && o.table_index == table_index) add(o.column);
  }
  return cols;
}

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kAvg:
      return "AVG";
  }
  return "?";
}

TableSet Query::AllTables() const {
  if (tables_.empty()) return 0;
  if (tables_.size() == 64) return ~TableSet{0};
  return (TableSet{1} << tables_.size()) - 1;
}

std::vector<Predicate> Query::PredicatesOf(int table_index) const {
  std::vector<Predicate> result;
  for (const Predicate& p : predicates_) {
    if (p.table_index == table_index) result.push_back(p);
  }
  return result;
}

std::vector<QueryJoin> Query::JoinsWithin(TableSet set) const {
  std::vector<QueryJoin> result;
  for (const QueryJoin& j : joins_) {
    if (j.WithinSet(set)) result.push_back(j);
  }
  return result;
}

std::vector<int> Query::Neighbors(int table_index) const {
  std::vector<int> result;
  for (const QueryJoin& j : joins_) {
    if (j.left_table == table_index) result.push_back(j.right_table);
    if (j.right_table == table_index) result.push_back(j.left_table);
  }
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

bool Query::IsConnected(TableSet set) const {
  if (set == 0) return false;
  // BFS from the lowest set bit over joins restricted to `set`.
  int start = __builtin_ctzll(set);
  TableSet visited = TableBit(start);
  std::vector<int> frontier = {start};
  while (!frontier.empty()) {
    int t = frontier.back();
    frontier.pop_back();
    for (const QueryJoin& j : joins_) {
      int other = -1;
      if (j.left_table == t && ContainsTable(set, j.right_table)) {
        other = j.right_table;
      } else if (j.right_table == t && ContainsTable(set, j.left_table)) {
        other = j.left_table;
      }
      if (other >= 0 && !ContainsTable(visited, other)) {
        visited |= TableBit(other);
        frontier.push_back(other);
      }
    }
  }
  return visited == set;
}

std::string Query::ToString() const {
  std::ostringstream out;
  out << "SELECT ";
  if (outputs_.empty()) {
    out << "COUNT(*)";
  } else {
    for (size_t i = 0; i < outputs_.size(); ++i) {
      if (i > 0) out << ", ";
      const OutputExpr& o = outputs_[i];
      if (o.kind == OutputExpr::Kind::kColumn) {
        out << tables_[static_cast<size_t>(o.table_index)].alias << "."
            << o.column;
      } else if (!o.ReferencesColumn()) {
        out << "COUNT(*)";
      } else {
        out << AggFuncName(o.func) << "("
            << tables_[static_cast<size_t>(o.table_index)].alias << "."
            << o.column << ")";
      }
    }
  }
  out << " FROM ";
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (i > 0) out << ", ";
    out << tables_[i].table_name << " " << tables_[i].alias;
  }
  bool first = true;
  auto conj = [&]() -> std::ostream& {
    out << (first ? " WHERE " : " AND ");
    first = false;
    return out;
  };
  for (const QueryJoin& j : joins_) {
    conj() << tables_[static_cast<size_t>(j.left_table)].alias << "."
           << j.left_column << " = "
           << tables_[static_cast<size_t>(j.right_table)].alias << "."
           << j.right_column;
  }
  for (const Predicate& p : predicates_) {
    const std::string& alias = tables_[static_cast<size_t>(p.table_index)].alias;
    switch (p.kind) {
      case PredicateKind::kEquals:
        conj() << alias << "." << p.column << " = " << p.value;
        break;
      case PredicateKind::kRange:
        conj() << alias << "." << p.column << " BETWEEN " << p.lo << " AND "
               << p.hi;
        break;
      case PredicateKind::kIn: {
        auto& stream = conj();
        stream << alias << "." << p.column << " IN (";
        for (size_t i = 0; i < p.in_values.size(); ++i) {
          if (i > 0) stream << ",";
          stream << p.in_values[i];
        }
        stream << ")";
        break;
      }
    }
  }
  if (has_group_by_) {
    out << " GROUP BY "
        << tables_[static_cast<size_t>(group_by_table_)].alias << "."
        << group_by_column_;
  }
  return out.str();
}

std::string Subquery::Key() const {
  LQO_CHECK(query != nullptr);
  // Serialize per-table (name + sorted predicate strings), sorted by table
  // name then alias index, plus induced joins with endpoints replaced by
  // table names.
  std::vector<std::string> table_parts;
  for (int t = 0; t < query->num_tables(); ++t) {
    if (!ContainsTable(tables, t)) continue;
    std::vector<std::string> preds;
    for (const Predicate& p : query->PredicatesOf(t)) {
      Predicate copy = p;
      copy.table_index = 0;  // neutralize index for cross-query identity.
      preds.push_back(copy.ToString());
    }
    std::sort(preds.begin(), preds.end());
    std::string part = query->tables()[static_cast<size_t>(t)].table_name + "{";
    for (const std::string& p : preds) part += p + ";";
    part += "}";
    table_parts.push_back(part);
  }
  std::sort(table_parts.begin(), table_parts.end());

  std::vector<std::string> join_parts;
  for (const QueryJoin& j : query->JoinsWithin(tables)) {
    std::string a =
        query->tables()[static_cast<size_t>(j.left_table)].table_name + "." +
        j.left_column;
    std::string b =
        query->tables()[static_cast<size_t>(j.right_table)].table_name + "." +
        j.right_column;
    if (b < a) std::swap(a, b);
    join_parts.push_back(a + "=" + b);
  }
  std::sort(join_parts.begin(), join_parts.end());

  std::string key;
  for (const std::string& p : table_parts) key += p + "|";
  key += "/";
  for (const std::string& p : join_parts) key += p + "|";
  return key;
}

namespace {

uint64_t MixHash(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t HashBytes(const std::string& s, uint64_t h) {
  for (char c : s) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ull;  // FNV-1a prime.
  }
  return h;
}

// Structural stand-in for Predicate::ToString() with a neutralized table
// index: same column, kind and payload hash equal.
uint64_t HashPredicate(const Predicate& p) {
  uint64_t h = HashBytes(p.column, 0xcbf29ce484222325ull);
  h = MixHash(h ^ (static_cast<uint64_t>(p.kind) + 0x9e37u));
  switch (p.kind) {
    case PredicateKind::kEquals:
      h = MixHash(h ^ static_cast<uint64_t>(p.value));
      break;
    case PredicateKind::kRange:
      h = MixHash(h ^ static_cast<uint64_t>(p.lo));
      h = MixHash(h ^ static_cast<uint64_t>(p.hi));
      break;
    case PredicateKind::kIn:
      // in_values is sorted ascending at construction, so sequential
      // chaining is canonical.
      for (int64_t v : p.in_values) h = MixHash(h ^ static_cast<uint64_t>(v));
      break;
  }
  return h;
}

// Mirrors Key(): where Key() sorts serialized parts, the hash sums per-part
// hashes (commutative, so order-independent without sorting or allocating).
uint64_t TablePart(const Query& query, int table_index) {
  const std::string& name =
      query.tables()[static_cast<size_t>(table_index)].table_name;
  uint64_t preds_hash = 0;
  for (const Predicate& p : query.predicates()) {
    if (p.table_index == table_index) preds_hash += MixHash(HashPredicate(p));
  }
  uint64_t part = HashBytes(name, 0xcbf29ce484222325ull);
  return MixHash(part ^ MixHash(preds_hash + 0x517cc1b7u));
}

uint64_t JoinPart(const Query& query, const QueryJoin& j) {
  uint64_t a = HashBytes(
      j.left_column,
      HashBytes(query.tables()[static_cast<size_t>(j.left_table)].table_name,
                0xcbf29ce484222325ull) ^
          0x2eu);
  uint64_t b = HashBytes(
      j.right_column,
      HashBytes(query.tables()[static_cast<size_t>(j.right_table)].table_name,
                0xcbf29ce484222325ull) ^
          0x2eu);
  // Endpoint-symmetric, like the sorted "a=b" rendering in Key().
  return MixHash((a ^ b) + MixHash(a + b));
}

uint64_t CombineParts(uint64_t tables_hash, uint64_t joins_hash) {
  return MixHash(tables_hash ^ MixHash(joins_hash + 0x85ebca6bu));
}

}  // namespace

uint64_t Subquery::KeyHash() const {
  LQO_CHECK(query != nullptr);
  uint64_t tables_hash = 0;
  for (TableSet rest = tables; rest != 0; rest &= rest - 1) {
    tables_hash += TablePart(*query, __builtin_ctzll(rest));
  }
  uint64_t joins_hash = 0;
  for (const QueryJoin& j : query->joins()) {
    if (j.WithinSet(tables)) joins_hash += JoinPart(*query, j);
  }
  return CombineParts(tables_hash, joins_hash);
}

KeyHashParts::KeyHashParts(const Query& query) {
  table_parts_.reserve(static_cast<size_t>(query.num_tables()));
  for (int t = 0; t < query.num_tables(); ++t) {
    table_parts_.push_back(TablePart(query, t));
  }
  join_parts_.reserve(query.joins().size());
  join_masks_.reserve(query.joins().size());
  for (const QueryJoin& j : query.joins()) {
    join_parts_.push_back(JoinPart(query, j));
    join_masks_.push_back(TableBit(j.left_table) | TableBit(j.right_table));
  }
}

uint64_t KeyHashParts::Of(TableSet tables) const {
  uint64_t tables_hash = 0;
  for (TableSet rest = tables; rest != 0; rest &= rest - 1) {
    tables_hash += table_parts_[static_cast<size_t>(__builtin_ctzll(rest))];
  }
  uint64_t joins_hash = 0;
  for (size_t j = 0; j < join_masks_.size(); ++j) {
    if ((join_masks_[j] & tables) == join_masks_[j]) {
      joins_hash += join_parts_[j];
    }
  }
  return CombineParts(tables_hash, joins_hash);
}

}  // namespace lqo
