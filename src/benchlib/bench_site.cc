#include "benchlib/bench_site.h"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "common/stats_util.h"
#include "engine/simd.h"

namespace lqo {

Json Json::Object(
    std::initializer_list<std::pair<std::string, Json>> members) {
  Json j;
  j.kind_ = Kind::kObject;
  j.members_.assign(members.begin(), members.end());
  return j;
}

Json Json::Array(std::initializer_list<Json> items) {
  Json j;
  j.kind_ = Kind::kArray;
  j.items_.assign(items.begin(), items.end());
  return j;
}

Json::Json(const char* text) : Json(std::string(text)) {}

Json::Json(const std::string& text) : scalar_("\"") {
  for (char c : text) {
    if (c == '"' || c == '\\') scalar_ += '\\';
    scalar_ += c;
  }
  scalar_ += '"';
}

Json::Json(bool value) : scalar_(value ? "true" : "false") {}

std::string Json::DoubleText(double number) {
  std::ostringstream out;
  out << number;
  return out.str();
}

Json& Json::Set(const std::string& key, Json value) {
  LQO_CHECK(kind_ == Kind::kObject) << "Json::Set on a non-object";
  members_.emplace_back(key, std::move(value));
  return *this;
}

Json& Json::Push(Json value) {
  LQO_CHECK(kind_ == Kind::kArray) << "Json::Push on a non-array";
  items_.push_back(std::move(value));
  return *this;
}

std::string Json::Render(int depth) const {
  if (kind_ == Kind::kScalar) return scalar_;
  const bool multiline =
      depth == 0 || (depth == 1 && kind_ == Kind::kArray && !items_.empty() &&
                     items_[0].kind_ != Kind::kScalar);
  const std::string pad(multiline ? 2 * (depth + 1) : 0, ' ');
  const char* sep = multiline ? ",\n" : ", ";
  std::string out = kind_ == Kind::kObject ? "{" : "[";
  const size_t n = kind_ == Kind::kObject ? members_.size() : items_.size();
  if (multiline && n > 0) out += "\n";
  for (size_t i = 0; i < n; ++i) {
    out += pad;
    if (kind_ == Kind::kObject) {
      out += "\"" + members_[i].first + "\": " +
             members_[i].second.Render(depth + 1);
    } else {
      out += items_[i].Render(depth + 1);
    }
    out += i + 1 < n ? sep : (multiline ? "\n" : "");
  }
  if (multiline && n > 0) out += std::string(2 * depth, ' ');
  out += kind_ == Kind::kObject ? "}" : "]";
  return out;
}

bool SanitizedBuild() {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  return true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

double SecondsOf(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

std::vector<double> BestRates(
    int reps, int passes, double items,
    const std::vector<std::function<double()>>& fns) {
  static volatile double sink = 0.0;
  std::vector<double> best(fns.size(), 0.0);
  for (int rep = 0; rep < reps; ++rep) {
    for (size_t i = 0; i < fns.size(); ++i) {
      const double secs = SecondsOf([&] {
        for (int p = 0; p < passes; ++p) sink = sink + fns[i]();
      });
      best[i] = std::max(best[i], items * passes / secs);
    }
  }
  return best;
}

BenchHarness::BenchHarness(int argc, char** argv)
    : binary_(argv[0]), hw_(ThreadPool::ParseThreadCount(nullptr)) {
  if (argc == 3 && std::string(argv[1]) == "--site") only_ = argv[2];
  if (argc != 1 && only_.empty()) {
    std::fprintf(stderr, "usage: %s [--site <name>]\n", argv[0]);
    std::exit(2);
  }
  std::fprintf(stderr, "%s (hardware_concurrency=%d, simd=%s, sanitized=%d)\n",
               argv[0], hw_, simd::LevelName(simd::ActiveLevel()),
               static_cast<int>(SanitizedBuild()));
}

bool BenchHarness::Runs(const std::string& site) {
  if (std::find(sites_.begin(), sites_.end(), site) == sites_.end()) {
    sites_.push_back(site);
  }
  return only_.empty() || only_ == site;
}

void BenchHarness::Record(size_t count_index, double seconds, bool matches) {
  SweepReport& sweep = sweeps_.back();
  sweep.seconds[count_index].push_back(seconds);
  sweep.deterministic &= matches;
  if (!matches) {
    std::fprintf(stderr, "  %-18s %2d threads  NONDETERMINISTIC!\n",
                 sweep.site.c_str(), sweep.threads[count_index]);
  }
}

void BenchHarness::PrintSweep() const {
  const SweepReport& sweep = sweeps_.back();
  for (size_t i = 0; i < sweep.threads.size(); ++i) {
    const std::vector<double>& s = sweep.seconds[i];
    std::fprintf(stderr, "  %-18s %2d threads  %8.4fs median  [%.4f, %.4f]\n",
                 sweep.site.c_str(), sweep.threads[i], Quantile(s, 0.5),
                 Quantile(s, 0.0), Quantile(s, 1.0));
  }
}

void BenchHarness::Gate(GateArming arming, const std::function<bool()>& holds,
                        const char* what_format, ...) {
  if (arming == GateArming::kPlainBuildsOnly && SanitizedBuild()) {
    ++disarmed_gates_;
    return;
  }
  if (holds()) return;
  char what[512];
  va_list args;
  va_start(args, what_format);
  std::vsnprintf(what, sizeof(what), what_format, args);
  va_end(args);
  std::fprintf(stderr, "FAIL: %s\n", what);
  ++failed_gates_;
}

Json& BenchHarness::Ledger(const std::string& file) {
  auto it = ledgers_.find(file);
  if (it != ledgers_.end()) return it->second;
  Json host = Json::Object(
      {{"nproc", hw_},
       {"simd_level", simd::LevelName(simd::ActiveLevel())},
       {"compiler", __VERSION__},
       {"build_type", LQO_BUILD_TYPE}});
  return ledgers_.emplace(file, Json::Object({{"host", host}})).first->second;
}

Json BenchHarness::SweepsJson() const {
  Json sites = Json::Array();
  for (const SweepReport& r : sweeps_) {
    Json timings = Json::Array();
    double serial = 0.0, four = 0.0;
    for (size_t i = 0; i < r.threads.size(); ++i) {
      const std::vector<double>& s = r.seconds[i];
      const double median = Quantile(s, 0.5);
      timings.Push(Json::Object({{"threads", r.threads[i]},
                                 {"min_seconds", Quantile(s, 0.0)},
                                 {"median_seconds", median},
                                 {"max_seconds", Quantile(s, 1.0)}}));
      if (r.threads[i] == 1) serial = median;
      if (r.threads[i] == 4) four = median;
    }
    sites.Push(Json::Object({{"name", r.site},
                             {"deterministic", r.deterministic},
                             {"reps", SweepReps()},
                             {"timings", timings},
                             {"speedup_4v1", serial > 0.0 && four > 0.0
                                                 ? serial / four
                                                 : 0.0}}));
  }
  return sites;
}

bool BenchHarness::deterministic() const {
  return std::all_of(sweeps_.begin(), sweeps_.end(),
                     [](const SweepReport& s) { return s.deterministic; });
}

int BenchHarness::Finish() {
  if (!only_.empty() &&
      std::find(sites_.begin(), sites_.end(), only_) == sites_.end()) {
    std::fprintf(stderr, "%s has no site '%s'; sites:", binary_.c_str(),
                 only_.c_str());
    for (const std::string& s : sites_) std::fprintf(stderr, " %s", s.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  bool written = true;
  for (const auto& [file, body] : ledgers_) {
    const std::string text = body.Render();
    std::fprintf(stderr, "%s\n%s\n", file.c_str(), text.c_str());
    if (!only_.empty()) continue;  // one site's numbers are not a ledger
    std::ofstream out(file);
    out << text << "\n";
    written &= static_cast<bool>(out);
    std::fprintf(stderr, "%s %s\n", out ? "wrote" : "FAIL: cannot write",
                 file.c_str());
  }
  const bool ok = written && deterministic() && failed_gates_ == 0;
  std::fprintf(stderr, "%s: %s, %d gate failure(s)", binary_.c_str(),
               deterministic() ? "all sweeps deterministic"
                               : "DETERMINISM VIOLATION",
               failed_gates_);
  if (disarmed_gates_ > 0) {
    std::fprintf(stderr, ", %d throughput gate(s) disarmed (sanitized build)",
                 disarmed_gates_);
  }
  std::fprintf(stderr, "\n");
  return ok ? 0 : 1;
}

}  // namespace lqo
