#include "query/sql_parser.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <vector>

#include "common/str_util.h"

namespace lqo {
namespace {

enum class TokenKind { kIdent, kNumber, kString, kSymbol, kEnd };

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;   // identifier (lowercased for keywords on demand),
                      // symbol text, or string contents.
  int64_t number = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& input) : input_(input) {}

  StatusOr<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    size_t i = 0;
    while (i < input_.size()) {
      char c = input_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (c == '\'') {
        size_t end = input_.find('\'', i + 1);
        if (end == std::string::npos) {
          return Status::InvalidArgument("unterminated string literal");
        }
        tokens.push_back(
            {TokenKind::kString, input_.substr(i + 1, end - i - 1), 0});
        i = end + 1;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '-' && i + 1 < input_.size() &&
           std::isdigit(static_cast<unsigned char>(input_[i + 1])))) {
        size_t j = i + 1;
        while (j < input_.size() &&
               std::isdigit(static_cast<unsigned char>(input_[j]))) {
          ++j;
        }
        Token t;
        t.kind = TokenKind::kNumber;
        t.text = input_.substr(i, j - i);
        t.number = std::stoll(t.text);
        tokens.push_back(t);
        i = j;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t j = i + 1;
        while (j < input_.size() &&
               (std::isalnum(static_cast<unsigned char>(input_[j])) ||
                input_[j] == '_')) {
          ++j;
        }
        tokens.push_back({TokenKind::kIdent, input_.substr(i, j - i), 0});
        i = j;
        continue;
      }
      // Multi-char symbols: <= >= <>
      if ((c == '<' || c == '>') && i + 1 < input_.size() &&
          input_[i + 1] == '=') {
        tokens.push_back({TokenKind::kSymbol, input_.substr(i, 2), 0});
        i += 2;
        continue;
      }
      static const std::string kSingles = "=<>(),.*;";
      if (kSingles.find(c) != std::string::npos) {
        tokens.push_back({TokenKind::kSymbol, std::string(1, c), 0});
        ++i;
        continue;
      }
      return Status::InvalidArgument(std::string("unexpected character '") +
                                     c + "' in SQL");
    }
    tokens.push_back({TokenKind::kEnd, "", 0});
    return tokens;
  }

 private:
  const std::string& input_;
};

class Parser {
 public:
  Parser(const Catalog& catalog, std::vector<Token> tokens)
      : catalog_(catalog), tokens_(std::move(tokens)) {}

  StatusOr<Query> Parse() {
    LQO_RETURN_IF_ERROR(ExpectKeyword("select"));
    // Select-list items are collected as raw tokens here — aliases are not
    // known until the FROM list is parsed — and resolved right after it.
    LQO_RETURN_IF_ERROR(ParseSelectList());
    LQO_RETURN_IF_ERROR(ExpectKeyword("from"));
    LQO_RETURN_IF_ERROR(ParseFromList());
    LQO_RETURN_IF_ERROR(ResolveSelectList());
    if (IsKeyword(Peek(), "where")) {
      Advance();
      LQO_RETURN_IF_ERROR(ParseCondition());
      while (IsKeyword(Peek(), "and")) {
        Advance();
        LQO_RETURN_IF_ERROR(ParseCondition());
      }
    }
    if (IsKeyword(Peek(), "group")) {
      Advance();
      LQO_RETURN_IF_ERROR(ExpectKeyword("by"));
      auto key_or = ParseColumnRef();
      if (!key_or.ok()) return key_or.status();
      // GROUP BY turns a bare COUNT(*) select list into an explicit
      // per-group output stage.
      if (!query_.HasOutputStage()) {
        query_.AddOutput(OutputExpr::CountStar());
      }
      query_.SetGroupBy(key_or->table_index, key_or->column);
    }
    if (Peek().kind == TokenKind::kSymbol && Peek().text == ";") Advance();
    if (Peek().kind != TokenKind::kEnd) {
      return Status::InvalidArgument("trailing tokens after query: '" +
                                     Peek().text + "'");
    }
    if (!query_.IsConnected(query_.AllTables()) && query_.num_tables() > 1) {
      return Status::InvalidArgument(
          "query join graph is not connected (cross products unsupported)");
    }
    return std::move(query_);
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  void Advance() { if (pos_ + 1 < tokens_.size()) ++pos_; }

  static bool IsKeyword(const Token& t, const std::string& kw) {
    return t.kind == TokenKind::kIdent && AsciiLower(t.text) == kw;
  }

  Status ExpectKeyword(const std::string& kw) {
    if (!IsKeyword(Peek(), kw)) {
      return Status::InvalidArgument("expected '" + kw + "', got '" +
                                     Peek().text + "'");
    }
    Advance();
    return Status::Ok();
  }

  Status ExpectSymbol(const std::string& sym) {
    if (Peek().kind != TokenKind::kSymbol || Peek().text != sym) {
      return Status::InvalidArgument("expected '" + sym + "', got '" +
                                     Peek().text + "'");
    }
    Advance();
    return Status::Ok();
  }

  /// One select-list item captured as raw tokens; aliases are resolved
  /// against the FROM list after it has been parsed.
  struct RawSelectItem {
    bool count_star = false;
    bool is_aggregate = false;
    AggFunc func = AggFunc::kCount;
    std::string alias;
    std::string column;
  };

  static bool AggFuncFromName(const std::string& name, AggFunc* out) {
    if (name == "count") { *out = AggFunc::kCount; return true; }
    if (name == "sum") { *out = AggFunc::kSum; return true; }
    if (name == "min") { *out = AggFunc::kMin; return true; }
    if (name == "max") { *out = AggFunc::kMax; return true; }
    if (name == "avg") { *out = AggFunc::kAvg; return true; }
    return false;
  }

  Status ParseRawColumn(std::string* alias, std::string* column) {
    if (Peek().kind != TokenKind::kIdent) {
      return Status::InvalidArgument("expected alias.column in select list");
    }
    *alias = Peek().text;
    Advance();
    LQO_RETURN_IF_ERROR(ExpectSymbol("."));
    if (Peek().kind != TokenKind::kIdent) {
      return Status::InvalidArgument("expected column after '" + *alias +
                                     ".'");
    }
    *column = Peek().text;
    Advance();
    return Status::Ok();
  }

  Status ParseSelectList() {
    while (true) {
      RawSelectItem item;
      AggFunc func = AggFunc::kCount;
      if (IsKeyword(Peek(), "count") && Peek(1).kind == TokenKind::kSymbol &&
          Peek(1).text == "(" && Peek(2).kind == TokenKind::kSymbol &&
          Peek(2).text == "*") {
        Advance();  // count
        Advance();  // (
        Advance();  // *
        LQO_RETURN_IF_ERROR(ExpectSymbol(")"));
        item.count_star = true;
      } else if (Peek().kind == TokenKind::kIdent &&
                 AggFuncFromName(AsciiLower(Peek().text), &func) &&
                 Peek(1).kind == TokenKind::kSymbol && Peek(1).text == "(") {
        Advance();
        LQO_RETURN_IF_ERROR(ExpectSymbol("("));
        LQO_RETURN_IF_ERROR(ParseRawColumn(&item.alias, &item.column));
        LQO_RETURN_IF_ERROR(ExpectSymbol(")"));
        item.is_aggregate = true;
        item.func = func;
      } else {
        LQO_RETURN_IF_ERROR(ParseRawColumn(&item.alias, &item.column));
      }
      select_items_.push_back(std::move(item));
      if (Peek().kind == TokenKind::kSymbol && Peek().text == ",") {
        Advance();
        continue;
      }
      return Status::Ok();
    }
  }

  /// Resolves the buffered select list. A list of exactly one bare COUNT(*)
  /// stays the legacy cardinality-only query (empty outputs) so every
  /// existing caller parses to a byte-identical Query; GROUP BY later
  /// promotes it to an explicit output stage.
  Status ResolveSelectList() {
    if (select_items_.size() == 1 && select_items_[0].count_star) {
      return Status::Ok();
    }
    for (const RawSelectItem& item : select_items_) {
      if (item.count_star) {
        query_.AddOutput(OutputExpr::CountStar());
        continue;
      }
      auto it = alias_to_index_.find(item.alias);
      if (it == alias_to_index_.end()) {
        return Status::NotFound("unknown alias '" + item.alias +
                                "' in select list");
      }
      const Table& table = *TableOf(it->second);
      if (!table.HasColumn(item.column)) {
        return Status::NotFound("no column '" + item.column + "' in '" +
                                table.name() + "'");
      }
      if (item.is_aggregate) {
        query_.AddOutput(
            OutputExpr::Aggregate(item.func, it->second, item.column));
      } else {
        query_.AddOutput(OutputExpr::Column(it->second, item.column));
      }
    }
    return Status::Ok();
  }

  Status ParseFromList() {
    while (true) {
      if (Peek().kind != TokenKind::kIdent) {
        return Status::InvalidArgument("expected table name");
      }
      std::string table = Peek().text;
      Advance();
      if (!catalog_.HasTable(table)) {
        return Status::NotFound("unknown table '" + table + "'");
      }
      std::string alias = table;
      if (Peek().kind == TokenKind::kIdent && !IsKeyword(Peek(), "where") &&
          !IsKeyword(Peek(), "group")) {
        alias = Peek().text;
        Advance();
      }
      if (alias_to_index_.count(alias) > 0) {
        return Status::InvalidArgument("duplicate alias '" + alias + "'");
      }
      if (query_.num_tables() == Query::kMaxTables) {
        return Status::InvalidArgument(
            "FROM list exceeds " + std::to_string(Query::kMaxTables) +
            " tables");
      }
      alias_to_index_[alias] = query_.AddTable(table, alias);
      if (Peek().kind == TokenKind::kSymbol && Peek().text == ",") {
        Advance();
        continue;
      }
      return Status::Ok();
    }
  }

  struct ColumnRefToken {
    int table_index;
    std::string column;
  };

  StatusOr<ColumnRefToken> ParseColumnRef() {
    if (Peek().kind != TokenKind::kIdent) {
      return Status::InvalidArgument("expected alias.column");
    }
    std::string alias = Peek().text;
    Advance();
    LQO_RETURN_IF_ERROR(ExpectSymbol("."));
    if (Peek().kind != TokenKind::kIdent) {
      return Status::InvalidArgument("expected column after '" + alias + ".'");
    }
    std::string column = Peek().text;
    Advance();
    auto it = alias_to_index_.find(alias);
    if (it == alias_to_index_.end()) {
      return Status::NotFound("unknown alias '" + alias + "'");
    }
    const Table& table = *TableOf(it->second);
    if (!table.HasColumn(column)) {
      return Status::NotFound("no column '" + column + "' in '" +
                              table.name() + "'");
    }
    return ColumnRefToken{it->second, column};
  }

  const Table* TableOf(int index) {
    return catalog_
        .GetTable(query_.tables()[static_cast<size_t>(index)].table_name)
        .value();
  }

  // Resolves a literal token against a column: numbers pass through; strings
  // are mapped with dictionary lower_bound semantics so range comparisons on
  // strings work (`exact` reports whether the string was present).
  StatusOr<int64_t> ResolveLiteral(const ColumnRefToken& ref,
                                   const Token& token) {
    const Column& col = *ColumnOf(ref);
    if (token.kind == TokenKind::kNumber) return token.number;
    if (token.kind == TokenKind::kString) {
      if (col.type != ColumnType::kCategorical) {
        return Status::InvalidArgument("string literal on numeric column '" +
                                       ref.column + "'");
      }
      auto it = std::lower_bound(col.dictionary.begin(), col.dictionary.end(),
                                 token.text);
      return static_cast<int64_t>(it - col.dictionary.begin());
    }
    return Status::InvalidArgument("expected literal, got '" + token.text +
                                   "'");
  }

  const Column* ColumnOf(const ColumnRefToken& ref) {
    const Table& table = *TableOf(ref.table_index);
    return &table.column(table.ColumnIndex(ref.column).value());
  }

  Status ParseCondition() {
    auto left_or = ParseColumnRef();
    if (!left_or.ok()) return left_or.status();
    ColumnRefToken left = *left_or;

    if (IsKeyword(Peek(), "between")) {
      Advance();
      auto lo_or = ResolveLiteral(left, Peek());
      if (!lo_or.ok()) return lo_or.status();
      Advance();
      LQO_RETURN_IF_ERROR(ExpectKeyword("and"));
      auto hi_or = ResolveLiteral(left, Peek());
      if (!hi_or.ok()) return hi_or.status();
      Advance();
      query_.AddPredicate(
          Predicate::Range(left.table_index, left.column, *lo_or, *hi_or));
      return Status::Ok();
    }

    if (IsKeyword(Peek(), "in")) {
      Advance();
      LQO_RETURN_IF_ERROR(ExpectSymbol("("));
      std::vector<int64_t> values;
      while (true) {
        auto v_or = ResolveLiteral(left, Peek());
        if (!v_or.ok()) return v_or.status();
        values.push_back(*v_or);
        Advance();
        if (Peek().kind == TokenKind::kSymbol && Peek().text == ",") {
          Advance();
          continue;
        }
        break;
      }
      LQO_RETURN_IF_ERROR(ExpectSymbol(")"));
      query_.AddPredicate(
          Predicate::In(left.table_index, left.column, std::move(values)));
      return Status::Ok();
    }

    if (Peek().kind != TokenKind::kSymbol) {
      return Status::InvalidArgument("expected comparison operator");
    }
    std::string op = Peek().text;
    Advance();

    // Join condition: rhs is alias.column (ident '.' ident).
    if (op == "=" && Peek().kind == TokenKind::kIdent &&
        Peek(1).kind == TokenKind::kSymbol && Peek(1).text == ".") {
      auto right_or = ParseColumnRef();
      if (!right_or.ok()) return right_or.status();
      if (right_or->table_index == left.table_index) {
        return Status::InvalidArgument("self-join conditions unsupported");
      }
      query_.AddJoin(left.table_index, left.column, right_or->table_index,
                     right_or->column);
      return Status::Ok();
    }

    auto value_or = ResolveLiteral(left, Peek());
    if (!value_or.ok()) return value_or.status();
    Advance();
    int64_t v = *value_or;
    const Column& col = *ColumnOf(left);
    // One-sided comparisons become ranges anchored at the column bounds;
    // when the literal lies outside the bounds the range may be empty by
    // construction (lo adjusted so lo <= hi always holds).
    if (op == "=") {
      query_.AddPredicate(Predicate::Equals(left.table_index, left.column, v));
    } else if (op == "<") {
      query_.AddPredicate(Predicate::Range(
          left.table_index, left.column, std::min(col.min_value, v - 1),
          v - 1));
    } else if (op == "<=") {
      query_.AddPredicate(Predicate::Range(
          left.table_index, left.column, std::min(col.min_value, v), v));
    } else if (op == ">") {
      query_.AddPredicate(Predicate::Range(
          left.table_index, left.column, v + 1,
          std::max(col.max_value, v + 1)));
    } else if (op == ">=") {
      query_.AddPredicate(Predicate::Range(
          left.table_index, left.column, v, std::max(col.max_value, v)));
    } else {
      return Status::InvalidArgument("unsupported operator '" + op + "'");
    }
    return Status::Ok();
  }

  const Catalog& catalog_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  Query query_;
  std::vector<RawSelectItem> select_items_;
  std::map<std::string, int> alias_to_index_;
};

}  // namespace

StatusOr<Query> ParseSql(const Catalog& catalog, const std::string& sql) {
  Lexer lexer(sql);
  auto tokens_or = lexer.Tokenize();
  if (!tokens_or.ok()) return tokens_or.status();
  Parser parser(catalog, std::move(*tokens_or));
  return parser.Parse();
}

}  // namespace lqo
