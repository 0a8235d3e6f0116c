#ifndef LQO_SERVING_SESSION_DRIVER_H_
#define LQO_SERVING_SESSION_DRIVER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "query/workload.h"
#include "serving/front_end.h"

namespace lqo {

/// Knobs of the concurrent session replay.
struct SessionDriverOptions {
  /// Concurrently in-flight sessions; each issues one query per round.
  int sessions = 64;
  /// Queries per session.
  int rounds = 16;
  uint64_t seed = 7;
  /// Zipf skew of template popularity (rank r weight (r+1)^-s): hot query
  /// types dominate, as in real OLTP/serving traffic.
  double zipf_s = 1.1;
  /// From this round on (when >= 0), range widths are scaled by
  /// `drift_widen` — far from 1 in either direction shifts observed
  /// cardinalities away from the installed plans' install-time estimates,
  /// and the q-error drift detector must re-optimize. Tightening (<< 1) is
  /// the stronger signal on skewed data: ranges collapse toward points and
  /// result counts crater.
  int drift_round = -1;
  double drift_widen = 0.02;
  /// Fraction of templates (the hottest Zipf ranks) whose bindings
  /// alternate between very tight and near-whole-span ranges — the
  /// parameter-sensitive types the cache should demote to always-optimize.
  double sensitive_fraction = 0.0;
};

/// Aggregate outcome of one DriveSessions replay. Everything except the
/// wall-clock fields is bit-deterministic across LQO_THREADS settings; the
/// `fingerprint` folds the deterministic per-query results and the cache
/// stats delta, so any cross-thread-count divergence is one u64 compare
/// away.
struct SessionReport {
  uint64_t queries = 0;
  uint64_t cache_hits = 0;
  uint64_t planned = 0;       // producer invocations
  uint64_t installs = 0;
  uint64_t invalidations = 0; // drift re-optimizations
  uint64_t demotions = 0;
  uint64_t total_rows = 0;
  double total_time_units = 0.0;  // simulated latency, deterministic
  uint64_t fingerprint = 0;

  /// Wall-clock per-query serve latency (plan when planned + bind+execute),
  /// one entry per query in (round, session) order. Reporting only.
  std::vector<double> serve_seconds;
  double wall_seconds = 0.0;

  double HitRate() const {
    return queries == 0 ? 0.0
                        : static_cast<double>(cache_hits) /
                              static_cast<double>(queries);
  }
  double Throughput() const {
    return wall_seconds <= 0.0 ? 0.0
                               : static_cast<double>(queries) / wall_seconds;
  }
};

/// Materializes the full query matrix the replay will issue: for each
/// session a DeriveSeed-derived private RNG stream samples a template per
/// round (Zipf over `templates`) and resamples its constants
/// (ResampleConstants), applying the drift / parameter-sensitivity
/// scenarios from `options`. Entry [round * sessions + session] is round
/// `round`'s query of session `session`. Deterministic for (templates,
/// options) regardless of thread count, and the returned vector is stable —
/// plans may point into it for the driver's lifetime.
std::vector<Query> BuildSessionQueries(const Catalog& catalog,
                                       const std::vector<Query>& templates,
                                       const SessionDriverOptions& options);

/// Replays `queries` (from BuildSessionQueries) through `front_end` with
/// `options.sessions` concurrent in-flight sessions over the global
/// ThreadPool.
///
/// Each round runs in phases so real concurrency and bit-determinism
/// coexist (DESIGN.md "Serving path"): (A) all sessions classify in
/// parallel, then look up serially in session order against the quiescent
/// cache; (B) missed sessions plan — in
/// parallel when the producer is thread-safe, else serially in session
/// order; (C) plans install first-writer-wins serially in session order;
/// (D) all sessions bind + execute in parallel; (E) feedback folds into the
/// drift detector serially in session order, and the fingerprint folds the
/// per-query results. Stats, invalidations, demotions and the fingerprint
/// are therefore identical at any LQO_THREADS.
///
/// A producer error in (B), including a plan ServingFrontEnd::Plan refuses,
/// or an executor error in (D) ends the replay
/// after that phase with the error of the first failing session in session
/// order, so the returned Status is the same at any LQO_THREADS.
StatusOr<SessionReport> DriveSessions(ServingFrontEnd& front_end,
                                      const std::vector<Query>& queries,
                                      const SessionDriverOptions& options);

}  // namespace lqo

#endif  // LQO_SERVING_SESSION_DRIVER_H_
