#ifndef LQO_BENCHLIB_BENCH_SITE_H_
#define LQO_BENCHLIB_BENCH_SITE_H_

#include <functional>
#include <initializer_list>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_pool.h"

namespace lqo {

/// Minimal ordered JSON value for the BENCH_*.json ledger. Numbers print as
/// std::ostream prints them; object members keep insertion order.
class Json {
 public:
  static Json Object(
      std::initializer_list<std::pair<std::string, Json>> members = {});
  static Json Array(std::initializer_list<Json> items = {});
  Json(const char* text);
  Json(const std::string& text);
  Json(bool value);
  template <typename T>
    requires(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>)
  Json(T number) : scalar_(NumberText(number)) {}

  /// Appends an object member; returns *this for chaining.
  Json& Set(const std::string& key, Json value);
  /// Appends an array element; returns *this for chaining.
  Json& Push(Json value);
  /// Top-level members, and top-level arrays of containers, go one per line;
  /// deeper values render inline.
  std::string Render(int depth = 0) const;

 private:
  enum class Kind { kScalar, kObject, kArray };
  Json() = default;
  template <typename T>
  static std::string NumberText(T number) {
    if constexpr (std::is_integral_v<T>) return std::to_string(number);
    return DoubleText(static_cast<double>(number));
  }
  static std::string DoubleText(double number);

  Kind kind_ = Kind::kScalar;
  std::string scalar_;  // rendered scalar
  std::vector<std::pair<std::string, Json>> members_;
  std::vector<Json> items_;
};

/// True in TSan/ASan builds, whose instrumentation skews throughput ratios.
bool SanitizedBuild();

/// Wall seconds (steady clock) of one call of `fn`.
double SecondsOf(const std::function<void()>& fn);

/// Items per second of each of `fns` at its best of `reps` timed reps. A rep
/// calls the fn `passes` times, each call processing `items`; every rep times
/// each fn in turn, so a burst of host load lands on all sides of an A/B
/// comparison. Return values feed a sink the compiler cannot elide.
std::vector<double> BestRates(int reps, int passes, double items,
                              const std::vector<std::function<double()>>& fns);

/// A throughput gate is meaningful only without sanitizer instrumentation;
/// quality and determinism gates hold in every build.
enum class GateArming { kAlways, kPlainBuildsOnly };

/// The measurement harness of the bench binaries behind the ledger. A site
/// is a name that sweeps work functions over thread counts, declares gates
/// and fills ledger bodies; `--site <name>` runs one site alone.
class BenchHarness {
 public:
  /// Exits with status 2 unless the command line is `[--site <name>]`.
  BenchHarness(int argc, char** argv);

  /// True when `site` is selected: every site of a full run, else the one
  /// named by --site.
  bool Runs(const std::string& site);
  /// Hardware concurrency.
  int hw() const { return hw_; }

  /// Timed reps per thread count of every Sweep: 1 in sanitized builds
  /// (which only check determinism), kSweepReps otherwise.
  static constexpr int kSweepReps = 7;
  static int SweepReps() { return SanitizedBuild() ? 1 : kSweepReps; }

  /// When `site` runs, times `work` SweepReps() times at each of `threads`,
  /// interleaved (every rep visits every count in order, so a burst of host
  /// load lands on all counts), and compares each returned fingerprint with
  /// the first; any difference marks the sweep nondeterministic and fails
  /// the run. Restores the global pool's size.
  template <typename Work>
  void Sweep(const std::string& site, const std::vector<int>& threads,
             Work&& work) {
    if (!Runs(site)) return;
    const int entry_threads = ThreadPool::Global().num_threads();
    sweeps_.push_back({site, threads, {}, true});
    sweeps_.back().seconds.resize(threads.size());
    decltype(work()) reference{};
    for (int rep = 0; rep < SweepReps(); ++rep) {
      for (size_t i = 0; i < threads.size(); ++i) {
        ThreadPool::SetGlobalThreads(threads[i]);
        decltype(work()) fingerprint{};
        double secs = SecondsOf([&] { fingerprint = work(); });
        if (rep == 0 && i == 0) reference = fingerprint;
        Record(i, secs, fingerprint == reference);
      }
    }
    ThreadPool::SetGlobalThreads(entry_threads);
    PrintSweep();
  }

  /// Declares a bound. `holds` runs only when the gate is armed; a failure
  /// prints "FAIL: <what>" and fails the run.
  void Gate(GateArming arming, const std::function<bool()>& holds,
            const char* what_format, ...)
      __attribute__((format(printf, 4, 5)));

  /// The body of ledger `file`; it opens with a `host` block (nproc, active
  /// SIMD level, compiler version, build type).
  Json& Ledger(const std::string& file);

  /// Every sweep so far: name, deterministic, reps, min/median/max seconds
  /// per thread count, and the 4-thread speedup over serial as a ratio of
  /// medians.
  Json SweepsJson() const;
  bool deterministic() const;

  /// Prints every ledger body, writes the files on full runs only, and
  /// returns the exit code: 0 iff every sweep was deterministic, every armed
  /// gate held and every file was written; 2 when --site named no site.
  int Finish();

 private:
  struct SweepReport {
    std::string site;
    std::vector<int> threads;
    std::vector<std::vector<double>> seconds;  // per thread count, per rep
    bool deterministic = true;
  };
  void Record(size_t count_index, double seconds, bool matches);
  void PrintSweep() const;

  std::string binary_;
  std::string only_;
  int hw_;
  std::vector<std::string> sites_;  // every site name the binary asked about
  std::vector<SweepReport> sweeps_;
  int failed_gates_ = 0;
  int disarmed_gates_ = 0;
  std::map<std::string, Json> ledgers_;
};

}  // namespace lqo

#endif  // LQO_BENCHLIB_BENCH_SITE_H_
