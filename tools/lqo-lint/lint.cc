#include "lqo-lint/lint.h"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "lqo-lint/textutil.h"

namespace lqo::lint {

// The rule catalog lives in rules.cc; this file holds the lexer and the
// per-file check implementations. Whole-program analysis (the project
// index and the cross-TU rules) lives in project.cc; shared token helpers
// in textutil.h.

using text::CommentWaives;
using text::FindTokens;
using text::HasToken;
using text::HexChar;
using text::IdentChar;
using text::LineIndex;
using text::PrecededByStd;
using text::SkipSpace;

// ---------------------------------------------------------------------------
// Lexer: blank out comments and string/char literal contents
// ---------------------------------------------------------------------------

ScrubResult Scrub(std::string_view src) {
  ScrubResult out;
  out.code.reserve(src.size());
  out.line_comments.assign(2, "");
  size_t line = 1;
  auto comment_char = [&](char c) {
    if (out.line_comments.size() <= line) out.line_comments.resize(line + 1);
    out.line_comments[line].push_back(c);
  };
  auto emit_blank = [&](char c) { out.code.push_back(c == '\n' ? '\n' : ' '); };

  size_t i = 0;
  size_t n = src.size();
  while (i < n) {
    char c = src[i];
    if (c == '\n') {
      out.code.push_back('\n');
      ++line;
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      emit_blank(c);
      emit_blank(src[i + 1]);
      i += 2;
      while (i < n && src[i] != '\n') {
        comment_char(src[i]);
        emit_blank(src[i]);
        ++i;
      }
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      emit_blank(c);
      emit_blank(src[i + 1]);
      i += 2;
      while (i < n && !(src[i] == '*' && i + 1 < n && src[i + 1] == '/')) {
        if (src[i] == '\n') {
          out.code.push_back('\n');
          ++line;
        } else {
          comment_char(src[i]);
          out.code.push_back(' ');
        }
        ++i;
      }
      if (i + 1 < n) {
        emit_blank('*');
        emit_blank('/');
        i += 2;
      }
      continue;
    }
    if (c == '"') {
      // Raw string? Look back over the prefix (R, u8R, uR, UR, LR) ensuring
      // it is not the tail of a longer identifier.
      bool raw = false;
      if (!out.code.empty() && out.code.back() == 'R') {
        size_t k = out.code.size() - 1;  // position of 'R'
        size_t pre = k;
        while (pre > 0 && IdentChar(out.code[pre - 1])) --pre;
        std::string_view prefix(out.code.data() + pre, k - pre);
        raw = prefix.empty() || prefix == "u8" || prefix == "u" ||
              prefix == "U" || prefix == "L";
      }
      out.code.push_back('"');
      ++i;
      if (raw) {
        std::string delim;
        while (i < n && src[i] != '(' && src[i] != '\n') {
          delim.push_back(src[i]);
          out.code.push_back(' ');
          ++i;
        }
        if (i < n && src[i] == '(') {
          out.code.push_back(' ');
          ++i;
        }
        std::string close = ")" + delim + "\"";
        while (i < n) {
          if (src.compare(i, close.size(), close) == 0) {
            for (size_t k = 0; k + 1 < close.size(); ++k) out.code.push_back(' ');
            out.code.push_back('"');
            i += close.size();
            break;
          }
          if (src[i] == '\n') {
            out.code.push_back('\n');
            ++line;
          } else {
            out.code.push_back(' ');
          }
          ++i;
        }
      } else {
        while (i < n && src[i] != '"' && src[i] != '\n') {
          if (src[i] == '\\' && i + 1 < n) {
            out.code.push_back(' ');
            out.code.push_back(' ');
            i += 2;
            continue;
          }
          out.code.push_back(' ');
          ++i;
        }
        if (i < n && src[i] == '"') {
          out.code.push_back('"');
          ++i;
        }
      }
      continue;
    }
    if (c == '\'') {
      // C++14 digit separator (1'000'000): keep as code, not a char literal.
      bool separator = !out.code.empty() && HexChar(out.code.back()) &&
                       i + 1 < n && HexChar(src[i + 1]);
      out.code.push_back('\'');
      ++i;
      if (separator) continue;
      while (i < n && src[i] != '\'' && src[i] != '\n') {
        if (src[i] == '\\' && i + 1 < n) {
          out.code.push_back(' ');
          out.code.push_back(' ');
          i += 2;
          continue;
        }
        out.code.push_back(' ');
        ++i;
      }
      if (i < n && src[i] == '\'') {
        out.code.push_back('\'');
        ++i;
      }
      continue;
    }
    out.code.push_back(c);
    ++i;
  }
  return out;
}

void CollectUnorderedNames(std::string_view code,
                           std::vector<std::string>& names,
                           std::vector<std::string>& aliases) {
  for (std::string_view tok :
       {"unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"}) {
    for (size_t pos : FindTokens(code, tok)) {
      size_t i = SkipSpace(code, pos + tok.size());
      if (i >= code.size() || code[i] != '<') continue;
      // Balance template angles; `>>` closes two.
      int depth = 0;
      while (i < code.size()) {
        if (code[i] == '<') ++depth;
        if (code[i] == '>') {
          --depth;
          if (depth == 0) break;
        }
        if (code[i] == ';') break;  // malformed / multi-line; give up
        ++i;
      }
      if (i >= code.size() || code[i] != '>') continue;
      ++i;
      // `using Alias = std::unordered_map<...>;` — record the alias.
      size_t stmt_begin = code.find_last_of(";{}", pos);
      stmt_begin = stmt_begin == std::string_view::npos ? 0 : stmt_begin + 1;
      std::string_view head = code.substr(stmt_begin, pos - stmt_begin);
      if (HasToken(head, "using") && head.find('=') != std::string_view::npos) {
        size_t u = FindTokens(head, "using").front() + 5;
        u = SkipSpace(head, u);
        size_t e = u;
        while (e < head.size() && IdentChar(head[e])) ++e;
        if (e > u) aliases.push_back(std::string(head.substr(u, e - u)));
        continue;
      }
      // Skip qualifiers between the type and the declared name.
      while (true) {
        i = SkipSpace(code, i);
        if (i < code.size() && (code[i] == '&' || code[i] == '*')) {
          ++i;
          continue;
        }
        if (code.compare(i, 5, "const") == 0 &&
            (i + 5 >= code.size() || !IdentChar(code[i + 5]))) {
          i += 5;
          continue;
        }
        break;
      }
      size_t e = i;
      while (e < code.size() && IdentChar(code[e])) ++e;
      if (e == i) continue;  // no declared name (temporary, return type...)
      size_t after = SkipSpace(code, e);
      // `name(` is a function returning the container, not a variable.
      if (after < code.size() && code[after] == '(') continue;
      names.push_back(std::string(code.substr(i, e - i)));
    }
  }
  // Declarations through aliases: `CacheMap cache_;`
  for (const std::string& alias : aliases) {
    for (size_t pos : FindTokens(code, alias)) {
      size_t i = SkipSpace(code, pos + alias.size());
      size_t e = i;
      while (e < code.size() && IdentChar(code[e])) ++e;
      if (e == i) continue;
      size_t after = SkipSpace(code, e);
      if (after < code.size() && code[after] == '(') continue;
      names.push_back(std::string(code.substr(i, e - i)));
    }
  }
}

namespace {

std::string_view StatementAt(std::string_view code, size_t start,
                             size_t max_len = 600) {
  size_t end = start;
  while (end < code.size() && end - start < max_len && code[end] != ';' &&
         code[end] != '{') {
    ++end;
  }
  return code.substr(start, end - start);
}

class Linter {
 public:
  Linter(const FileInput& input, const ScrubResult& scrub)
      : input_(input),
        code_(scrub.code),
        comments_(scrub.line_comments),
        lines_(code_) {}

  std::vector<Finding> Run() {
    const bool is_header = IsHeader(input_.path);
    CheckBannedTokens();
    CheckUnorderedIter();
    CheckParallelReduction();
    CheckRawThread();
    CheckMutexGuards();
    CheckAtomicComment();
    CheckHotLoopGrowth();
    CheckRawIntrinsics();
    if (is_header) {
      CheckHeaderGuard();
      CheckUsingNamespace();
      CheckHeaderMutableState();
    }
    std::sort(findings_.begin(), findings_.end(),
              [](const Finding& a, const Finding& b) {
                return std::tie(a.line, a.rule_id) < std::tie(b.line, b.rule_id);
              });
    return std::move(findings_);
  }

  static bool IsHeader(std::string_view path) {
    return path.ends_with(".h") || path.ends_with(".hpp");
  }

 private:
  std::string_view CommentOn(int line) const {
    if (line < 1 || static_cast<size_t>(line) >= comments_.size()) return {};
    return comments_[static_cast<size_t>(line)];
  }

  // True when the scrubbed code of `line` is blank, i.e. the line holds only
  // comments/whitespace.
  bool LineCodeBlank(int line) const {
    if (line < 1 || static_cast<size_t>(line) > lines_.starts.size()) {
      return false;
    }
    size_t begin = lines_.starts[static_cast<size_t>(line) - 1];
    size_t end = static_cast<size_t>(line) < lines_.starts.size()
                     ? lines_.starts[static_cast<size_t>(line)]
                     : code_.size();
    for (size_t i = begin; i < end; ++i) {
      if (!std::isspace(static_cast<unsigned char>(code_[i]))) return false;
    }
    return true;
  }

  // Searches the comment on `line` and the contiguous comment-only block
  // above it for `needle` (used by mutex-guards: a multi-line // guards:
  // comment naturally sits right above the declaration).
  bool CommentBlockContains(int line, std::string_view needle) const {
    if (CommentOn(line).find(needle) != std::string_view::npos) return true;
    for (int l = line - 1; l >= 1; --l) {
      if (CommentOn(l).empty() || !LineCodeBlank(l)) break;
      if (CommentOn(l).find(needle) != std::string_view::npos) return true;
    }
    return false;
  }

  void Report(std::string_view rule_id, size_t pos, std::string message) {
    int line = lines_.LineAt(pos);
    ReportLine(rule_id, line, std::move(message));
  }

  void ReportLine(std::string_view rule_id, int line, std::string message) {
    Finding f;
    f.rule_id = rule_id;
    f.file = input_.path;
    f.line = line;
    f.message = std::move(message);
    f.waived = CommentWaives(CommentOn(line), rule_id) ||
               CommentWaives(CommentOn(line - 1), rule_id);
    findings_.push_back(std::move(f));
  }

  bool NextIs(size_t pos, char want) const {
    size_t i = SkipSpace(code_, pos);
    return i < code_.size() && code_[i] == want;
  }

  // --- determinism: rand / random-device / wall-clock / exec-policy --------

  void CheckBannedTokens() {
    for (std::string_view tok : {"rand", "srand", "rand_r"}) {
      for (size_t pos : FindTokens(code_, tok)) {
        if (!NextIs(pos + tok.size(), '(')) continue;
        Report("rand", pos,
               std::string(tok) + "() draws from hidden global state; use "
               "lqo::Rng with an explicit seed");
      }
    }
    for (size_t pos : FindTokens(code_, "random_device")) {
      Report("random-device", pos,
             "std::random_device is nondeterministic entropy; seed lqo::Rng "
             "explicitly");
    }
    for (std::string_view tok : {"time", "gettimeofday", "localtime", "gmtime"}) {
      for (size_t pos : FindTokens(code_, tok)) {
        if (!NextIs(pos + tok.size(), '(')) continue;
        Report("wall-clock", pos,
               std::string(tok) + "() reads the wall clock; results must not "
               "depend on when the process runs");
      }
    }
    for (size_t pos : FindTokens(code_, "system_clock")) {
      Report("wall-clock", pos,
             "std::chrono::system_clock is wall-clock time; use steady_clock "
             "for durations, constants for seeds");
    }
    for (size_t pos : FindTokens(code_, "execution")) {
      if (!PrecededByStd(code_, pos)) continue;
      Report("exec-policy", pos - 5,
             "std::execution policies bypass the deterministic ThreadPool; "
             "use ParallelFor/ParallelMap");
    }
  }

  // --- determinism: unordered-iter -----------------------------------------

  void CheckUnorderedIter() {
    std::vector<std::string> names;
    std::vector<std::string> aliases;
    CollectUnorderedNames(code_, names, aliases);
    if (!input_.paired_header.empty()) {
      ScrubResult header = Scrub(input_.paired_header);
      CollectUnorderedNames(header.code, names, aliases);
    }
    if (names.empty()) return;

    text::ForEachRangeFor(
        code_, 0, code_.size(), [&](size_t pos, std::string_view range) {
          for (const std::string& name : names) {
            if (!HasToken(range, name)) continue;
            Report("unordered-iter", pos,
                   "range-for over unordered container '" + name +
                       "': iteration order is unspecified; iterate sorted "
                       "keys or waive with "
                       "// lint: unordered-iter-ok(<reason>)");
            break;
          }
        });
  }
  // --- determinism: parallel-reduction -------------------------------------

  // Names declared (anywhere in `code`) with scalar double/float type —
  // locals, members and parameters alike. Template arguments
  // (`vector<double>`) and function declarations (`double Predict(`) never
  // match: the token after them is not a plain declared identifier.
  static void CollectFloatScalarNames(std::string_view code,
                                      std::vector<std::string>& names) {
    for (std::string_view tok : {"double", "float"}) {
      for (size_t pos : FindTokens(code, tok)) {
        size_t i = SkipSpace(code, pos + tok.size());
        if (i < code.size() && code[i] == '&') i = SkipSpace(code, i + 1);
        size_t e = i;
        while (e < code.size() && IdentChar(code[e])) ++e;
        if (e == i) continue;  // `double>` / `double*` / `double(...)` cast
        size_t after = SkipSpace(code, e);
        // `double Name(` declares a function, not an accumulator.
        if (after < code.size() && code[after] == '(') continue;
        names.push_back(std::string(code.substr(i, e - i)));
      }
    }
  }

  // `sum += x` on a by-reference-captured double/float inside a
  // ParallelFor/ParallelMap body is a cross-task reduction: a data race,
  // and a scheduling-dependent reassociation of float additions even if it
  // were locked. Index-addressed writes (`out[i] += ...`) and accumulators
  // declared inside the lambda body are the sanctioned patterns and are
  // exempt; a deliberate deterministic fold is stated with an
  // // ordered-reduction: comment on the site.
  void CheckParallelReduction() {
    std::vector<std::string> names;
    CollectFloatScalarNames(code_, names);
    if (!input_.paired_header.empty()) {
      ScrubResult header = Scrub(input_.paired_header);
      CollectFloatScalarNames(header.code, names);
    }
    if (names.empty()) return;

    for (std::string_view tok : {"ParallelFor", "ParallelMap"}) {
      for (size_t pos : FindTokens(code_, tok)) {
        // Locate the lambda: the `[` capture list shortly after the call,
        // then the `{...}` body by brace balance.
        size_t open = code_.find('[', pos);
        if (open == std::string_view::npos || open > pos + 300) continue;
        size_t close = code_.find(']', open);
        if (close == std::string_view::npos) continue;
        std::string_view capture = code_.substr(open + 1, close - open - 1);
        // Only by-reference captures can alias an outer accumulator.
        if (capture.find('&') == std::string_view::npos) continue;
        size_t body_open = code_.find('{', close);
        if (body_open == std::string_view::npos) continue;
        int depth = 0;
        size_t body_close = body_open;
        while (body_close < code_.size()) {
          if (code_[body_close] == '{') ++depth;
          if (code_[body_close] == '}') {
            --depth;
            if (depth == 0) break;
          }
          ++body_close;
        }
        if (body_close >= code_.size()) continue;
        std::string_view body =
            code_.substr(body_open, body_close - body_open + 1);
        // Accumulators declared inside the body are task-local: exempt.
        std::vector<std::string> locals;
        CollectFloatScalarNames(body, locals);

        size_t p = 0;
        while ((p = body.find("+=", p)) != std::string_view::npos) {
          size_t global = body_open + p;
          p += 2;
          // Scan back over the lhs.
          size_t j = global;
          while (j > 0 && (code_[j - 1] == ' ' || code_[j - 1] == '\t')) --j;
          if (j == 0) continue;
          // `out[i] +=` / `f(x) +=`: index-addressed slot, the sanctioned
          // pattern — every task owns a distinct element.
          if (code_[j - 1] == ']' || code_[j - 1] == ')') continue;
          size_t e = j;
          size_t s = j;
          while (s > 0 && IdentChar(code_[s - 1])) --s;
          if (s == e) continue;
          // Member access (`obj.x +=`): the object expression decides
          // ownership; out of scope for this textual pass.
          if (s > 0 && (code_[s - 1] == '.' ||
                        (s > 1 && code_[s - 2] == '-' && code_[s - 1] == '>'))) {
            continue;
          }
          std::string name(code_.substr(s, e - s));
          if (std::find(locals.begin(), locals.end(), name) != locals.end())
            continue;
          if (std::find(names.begin(), names.end(), name) == names.end())
            continue;
          int line = lines_.LineAt(global);
          if (CommentBlockContains(line, "ordered-reduction:")) continue;
          ReportLine("parallel-reduction", line,
                     "float accumulation '" + name + " +=' through a "
                     "by-reference capture in a " + std::string(tok) +
                     " body races and reassociates; reduce into "
                     "index-addressed slots and fold serially, or state the "
                     "determinism argument with // ordered-reduction:");
        }
      }
    }
  }

  // --- concurrency: raw-thread ---------------------------------------------

  void CheckRawThread() {
    if (input_.path.find("common/thread_pool.") != std::string::npos) return;
    for (size_t pos : FindTokens(code_, "thread")) {
      if (!PrecededByStd(code_, pos)) continue;
      // std::thread::id / std::thread::hardware_concurrency are harmless.
      size_t after = SkipSpace(code_, pos + 6);
      if (after + 1 < code_.size() && code_[after] == ':' &&
          code_[after + 1] == ':') {
        continue;
      }
      Report("raw-thread", pos,
             "raw std::thread bypasses the deterministic ThreadPool; use "
             "ParallelFor/ParallelMap or ThreadPool::Submit");
    }
    for (std::string_view tok : {"jthread", "async"}) {
      for (size_t pos : FindTokens(code_, tok)) {
        if (!PrecededByStd(code_, pos)) continue;
        Report("raw-thread", pos,
               "std::" + std::string(tok) +
                   " spawns threads outside the deterministic ThreadPool");
      }
    }
    for (size_t pos : FindTokens(code_, "detach")) {
      if (!NextIs(pos + 6, '(')) continue;
      bool member = pos > 0 && (code_[pos - 1] == '.' ||
                                (pos > 1 && code_[pos - 2] == '-' &&
                                 code_[pos - 1] == '>'));
      if (!member) continue;
      Report("raw-thread", pos,
             "detach()ed threads outlive their owner and race teardown");
    }
    for (size_t pos : FindTokens(code_, "thread_local")) {
      Report("raw-thread", pos,
             "mutable thread_local state makes results depend on which "
             "worker ran the task");
    }
  }

  // --- concurrency: mutex-guards -------------------------------------------

  void CheckMutexGuards() {
    for (std::string_view tok : {"mutex", "shared_mutex"}) {
      for (size_t pos : FindTokens(code_, tok)) {
        if (!PrecededByStd(code_, pos)) continue;
        // Skip template arguments: lock_guard<std::mutex>, ...
        size_t before = pos;
        while (before > 0 && (code_[before - 1] == ' ' || code_[before - 1] == ':'))
          --before;
        if (before >= 4 && code_.compare(before - 3, 3, "std") == 0) before -= 3;
        while (before > 0 && std::isspace(static_cast<unsigned char>(
                                  code_[before - 1])))
          --before;
        if (before > 0 && (code_[before - 1] == '<' || code_[before - 1] == ','))
          continue;
        // Declaration shape: identifier then `;` (or `{...};`).
        size_t i = SkipSpace(code_, pos + tok.size());
        size_t e = i;
        while (e < code_.size() && IdentChar(code_[e])) ++e;
        if (e == i) continue;  // `std::mutex&`, return types, ...
        size_t after = SkipSpace(code_, e);
        if (after >= code_.size() ||
            (code_[after] != ';' && code_[after] != '{')) {
          continue;
        }
        int line = lines_.LineAt(pos);
        if (CommentBlockContains(line, "guards:")) continue;
        ReportLine("mutex-guards", line,
                   "std::" + std::string(tok) + " '" +
                       std::string(code_.substr(i, e - i)) +
                       "' needs a // guards: comment naming the fields it "
                       "protects");
      }
    }
  }

  // --- concurrency: atomic-comment -----------------------------------------

  // Every direct `std::atomic<...> name;` declaration must carry a comment
  // (same line or the contiguous comment block above) stating its protocol.
  // Atomics nested in template arguments (vector<atomic<int>>) are the
  // container's concern, not a declaration here.
  void CheckAtomicComment() {
    for (size_t pos : FindTokens(code_, "atomic")) {
      if (!PrecededByStd(code_, pos)) continue;
      size_t i = SkipSpace(code_, pos + 6);
      if (i >= code_.size() || code_[i] != '<') continue;
      int depth = 0;
      while (i < code_.size()) {
        if (code_[i] == '<') ++depth;
        if (code_[i] == '>') {
          --depth;
          if (depth == 0) break;
        }
        if (code_[i] == ';') break;
        ++i;
      }
      if (i >= code_.size() || code_[i] != '>') continue;
      i = SkipSpace(code_, i + 1);
      size_t e = i;
      while (e < code_.size() && IdentChar(code_[e])) ++e;
      if (e == i) continue;  // template argument / return type / cast
      size_t after = SkipSpace(code_, e);
      if (after >= code_.size() ||
          (code_[after] != ';' && code_[after] != '{' && code_[after] != '=')) {
        continue;
      }
      int line = lines_.LineAt(pos);
      if (!CommentOn(line).empty()) continue;
      bool documented = false;
      for (int l = line - 1; l >= 1; --l) {
        if (CommentOn(l).empty() || !LineCodeBlank(l)) break;
        documented = true;
        break;
      }
      if (documented) continue;
      ReportLine("atomic-comment", line,
                 "std::atomic '" + std::string(code_.substr(i, e - i)) +
                     "' needs a comment stating its protocol (what it "
                     "counts/signals and why the ordering is sound)");
    }
  }

  // --- hygiene: hot-loop-growth --------------------------------------------

  // Per-row container growth (member push_back/emplace_back) inside a
  // nested loop of a hot-path file (engine/, *kernel*) defeats the batched
  // execution substrate: each call re-checks capacity and may reallocate
  // mid-scan, where the vectorized kernels size once per batch and write
  // through a raw pointer (GatherAppend in engine/vec_batch.h). Depth-1
  // loops (one growth per outer item, e.g. scatter loops) are accepted;
  // only growth inside an inner loop — per row per something — fires.
  void CheckHotLoopGrowth() {
    if (input_.path.find("engine/") == std::string::npos &&
        input_.path.find("kernel") == std::string::npos) {
      return;
    }
    std::vector<size_t> sites;
    for (std::string_view tok : {"push_back", "emplace_back"}) {
      for (size_t pos : FindTokens(code_, tok)) {
        bool member = pos > 0 && (code_[pos - 1] == '.' ||
                                  (pos > 1 && code_[pos - 2] == '-' &&
                                   code_[pos - 1] == '>'));
        if (member && NextIs(pos + tok.size(), '(')) sites.push_back(pos);
      }
    }
    if (sites.empty()) return;
    std::sort(sites.begin(), sites.end());

    // One pass tracking brace scopes; a scope whose statement head contains
    // for/while/do is a loop scope. `;` separates statements only at paren
    // depth 0, so for-loop heads (which hold `;`s inside their parens) stay
    // attached to their brace.
    std::vector<char> scopes;  // 'l' = loop, 'o' = other
    size_t stmt_start = 0;
    int paren_depth = 0;
    size_t next_site = 0;
    for (size_t i = 0; i < code_.size() && next_site < sites.size(); ++i) {
      if (i == sites[next_site]) {
        ++next_site;
        auto loops = std::count(scopes.begin(), scopes.end(), 'l');
        if (loops >= 2) {
          Report("hot-loop-growth", i,
                 "per-row container growth inside a nested loop of a "
                 "hot-path file; size once per batch and gather "
                 "(engine/vec_batch.h), or waive a deliberate scalar path "
                 "with // lint: hot-loop-growth-ok(<reason>)");
        }
      }
      char c = code_[i];
      if (c == '(') {
        ++paren_depth;
      } else if (c == ')') {
        if (paren_depth > 0) --paren_depth;
      } else if (c == '{') {
        std::string_view head = code_.substr(stmt_start, i - stmt_start);
        bool loop = HasToken(head, "for") || HasToken(head, "while") ||
                    HasToken(head, "do");
        scopes.push_back(loop ? 'l' : 'o');
        stmt_start = i + 1;
      } else if (c == '}') {
        if (!scopes.empty()) scopes.pop_back();
        stmt_start = i + 1;
      } else if (c == ';' && paren_depth == 0) {
        stmt_start = i + 1;
      }
    }
  }

  // Raw SIMD intrinsics are confined to the dispatch layer's kernel files —
  // engine/simd.{h,cc} and the aggregation kernels in
  // engine/agg_kernels.{h,cc}, which follow the identical per-level
  // table/ActiveLevel() discipline — everywhere else must go through a
  // dispatched kernel table, so every kernel has a scalar reference and
  // per-level bit-equality coverage, and can be pinned to scalar through
  // simd::SetLevelForTest for A/B runs.
  void CheckRawIntrinsics() {
    if (input_.path.find("engine/simd.") != std::string::npos) return;
    if (input_.path.find("engine/agg_kernels.") != std::string::npos) return;
    for (std::string_view header :
         {"immintrin.h", "emmintrin.h", "smmintrin.h", "nmmintrin.h",
          "tmmintrin.h", "pmmintrin.h", "xmmintrin.h", "x86intrin.h",
          "arm_neon.h"}) {
      size_t pos = 0;
      while ((pos = code_.find(header, pos)) != std::string_view::npos) {
        Report("raw-intrinsics", pos,
               "intrinsic header <" + std::string(header) +
                   "> outside engine/simd.*; add the kernel to the dispatch "
                   "table in engine/simd.cc instead, or waive with "
                   "// lint: raw-intrinsics-ok(<reason>)");
        pos += header.size();
      }
    }
    for (std::string_view prefix :
         {"_mm_", "_mm256_", "_mm512_", "vld1q_", "vst1q_", "vdupq_",
          "vceqq_", "vcgtq_", "vcgeq_", "vcleq_", "vgetq_", "vandq_",
          "vorrq_"}) {
      size_t pos = 0;
      while ((pos = code_.find(prefix, pos)) != std::string_view::npos) {
        bool left_ok = pos == 0 || !IdentChar(code_[pos - 1]);
        if (left_ok) {
          Report("raw-intrinsics", pos,
                 "raw SIMD intrinsic outside engine/simd.*; add the kernel "
                 "to the dispatch table in engine/simd.cc instead, or waive "
                 "with // lint: raw-intrinsics-ok(<reason>)");
        }
        pos += prefix.size();
      }
    }
  }

  // --- hygiene + concurrency rules for headers -----------------------------

  void CheckHeaderGuard() {
    // First two non-blank scrubbed lines must form a guard (comment-only
    // license banners scrub to blank lines and are skipped).
    std::vector<std::pair<int, std::string>> head;
    std::istringstream in{std::string(code_)};
    std::string raw;
    int line_no = 0;
    while (std::getline(in, raw) && head.size() < 2) {
      ++line_no;
      size_t b = raw.find_first_not_of(" \t\r");
      if (b == std::string::npos) continue;
      size_t e = raw.find_last_not_of(" \t\r");
      head.emplace_back(line_no, raw.substr(b, e - b + 1));
    }
    auto fail = [&](int line) {
      ReportLine("header-guard", line,
                 "header must start with #pragma once or a matching "
                 "#ifndef/#define include guard");
    };
    if (head.empty()) return;  // empty header: nothing to protect
    if (head[0].second.rfind("#pragma once", 0) == 0) return;
    if (head[0].second.rfind("#ifndef ", 0) != 0 || head.size() < 2 ||
        head[1].second.rfind("#define ", 0) != 0) {
      fail(head[0].first);
      return;
    }
    std::string ifndef_macro = head[0].second.substr(8);
    std::string define_macro = head[1].second.substr(8);
    auto trim = [](std::string& s) {
      size_t b = s.find_first_not_of(" \t");
      size_t e = s.find_last_not_of(" \t");
      s = b == std::string::npos ? "" : s.substr(b, e - b + 1);
    };
    trim(ifndef_macro);
    trim(define_macro);
    if (ifndef_macro.empty() || ifndef_macro != define_macro) {
      fail(head[1].first);
    }
  }

  void CheckUsingNamespace() {
    for (size_t pos : FindTokens(code_, "using")) {
      size_t i = SkipSpace(code_, pos + 5);
      if (code_.compare(i, 9, "namespace") == 0 &&
          (i + 9 >= code_.size() || !IdentChar(code_[i + 9]))) {
        Report("using-namespace-header", pos,
               "using namespace in a header leaks into every includer; "
               "qualify names instead");
      }
    }
  }

  // Tracks brace scopes well enough to know whether we are at pure
  // namespace scope (every enclosing `{` belongs to a namespace or extern
  // block). Preprocessor lines are skipped wholesale.
  void CheckHeaderMutableState() {
    std::vector<char> scopes;  // 'n' = namespace-ish, 'o' = anything else
    size_t stmt_start = 0;
    size_t i = 0;
    bool at_line_start = true;
    while (i < code_.size()) {
      char c = code_[i];
      if (at_line_start) {
        size_t j = SkipSpace(code_, i);
        if (j < code_.size() && code_[j] == '#') {
          // Skip the directive (with continuations) for scope purposes.
          while (j < code_.size() && code_[j] != '\n') {
            if (code_[j] == '\\' && j + 1 < code_.size() &&
                code_[j + 1] == '\n') {
              ++j;
            }
            ++j;
          }
          i = j;
          stmt_start = i;
          continue;
        }
      }
      at_line_start = c == '\n';
      if (c == '{') {
        std::string_view head = code_.substr(stmt_start, i - stmt_start);
        bool ns = HasToken(head, "namespace") || HasToken(head, "extern");
        scopes.push_back(ns ? 'n' : 'o');
        stmt_start = i + 1;
      } else if (c == '}') {
        if (!scopes.empty()) scopes.pop_back();
        stmt_start = i + 1;
      } else if (c == ';') {
        stmt_start = i + 1;
      } else if (IdentChar(c) && (i == 0 || !IdentChar(code_[i - 1]))) {
        bool ns_pure =
            std::all_of(scopes.begin(), scopes.end(),
                        [](char s) { return s == 'n'; });
        size_t lead = SkipSpace(code_, stmt_start);
        if (ns_pure && lead == i) {
          for (std::string_view kw : {"static", "inline", "constinit"}) {
            if (code_.compare(i, kw.size(), kw) == 0 &&
                (i + kw.size() >= code_.size() ||
                 !IdentChar(code_[i + kw.size()]))) {
              std::string_view stmt = StatementAt(code_, i);
              if (IsMutableVariableDecl(stmt)) {
                Report("header-mutable-state", i,
                       "mutable namespace-scope state in a header; move it "
                       "behind a function in a .cc or make it constexpr");
              }
              break;
            }
          }
        }
      }
      ++i;
    }
  }

  // `stmt` starts at static/inline/constinit. A mutable variable if it is
  // not const/constexpr and the statement reads as a variable declaration
  // (an `=` before any `(`, or neither present).
  static bool IsMutableVariableDecl(std::string_view stmt) {
    if (HasToken(stmt, "const") || HasToken(stmt, "constexpr") ||
        HasToken(stmt, "consteval") || HasToken(stmt, "namespace") ||
        HasToken(stmt, "using") || HasToken(stmt, "typedef")) {
      return false;
    }
    size_t eq = stmt.find('=');
    size_t paren = stmt.find('(');
    size_t brace = stmt.find('{');
    if (eq != std::string_view::npos &&
        (paren == std::string_view::npos || eq < paren)) {
      return true;
    }
    // `static std::atomic<int> x;` / `inline int x{0};`
    if (paren == std::string_view::npos) {
      if (brace != std::string_view::npos) return true;
      // Plain `static T name;` — at least two identifier tokens after the
      // keyword, no parens: a variable without initializer.
      return stmt.find('<') != std::string_view::npos ||
             std::count_if(stmt.begin(), stmt.end(), [](char ch) {
               return ch == ' ';
             }) >= 2;
    }
    return false;
  }

  const FileInput& input_;
  // A view (not a reference to the std::string) so every code_.substr(...)
  // below is itself a view — substr on a std::string would return a
  // temporary whose lifetime ends at the statement.
  std::string_view code_;
  const std::vector<std::string>& comments_;
  LineIndex lines_;
  std::vector<Finding> findings_;
};

}  // namespace

std::vector<Finding> LintFile(const FileInput& input) {
  ScrubResult scrub = Scrub(input.content);
  return LintFileScrubbed(input, scrub);
}

std::vector<Finding> LintFileScrubbed(const FileInput& input,
                                      const ScrubResult& scrub) {
  Linter linter(input, scrub);
  return linter.Run();
}

std::vector<Finding> LintText(std::string_view path, std::string_view content) {
  FileInput input;
  input.path = std::string(path);
  input.content = std::string(content);
  return LintFile(input);
}

std::map<std::string_view, RuleTally> Tally(const std::vector<Finding>& all) {
  std::map<std::string_view, RuleTally> tally;
  for (const Finding& f : all) {
    RuleTally& t = tally[f.rule_id];
    if (f.waived) {
      ++t.waived;
    } else {
      ++t.errors;
    }
  }
  return tally;
}

}  // namespace lqo::lint
