#include "serving/session_driver.h"

#include <bit>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace lqo {
namespace {

uint64_t MixHash(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void Fold(uint64_t* fp, uint64_t value) { *fp = MixHash(*fp ^ value); }

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Binding widths of a parameter-sensitive template: bindings alternate
// between near-point ranges and near-whole-span ranges, so no single cached
// plan fits — the latency-CV detector should demote the type.
constexpr double kSensitiveTight = 0.02;
constexpr double kSensitiveWide = 10.0;

// Per-round, per-session scratch of the phased replay.
struct Slot {
  uint64_t type = 0;
  PlanCacheLookup lookup;
  PhysicalPlan plan;       // miss path: the producer's plan
  bool planned = false;
  bool installed = false;
  double plan_seconds = 0.0;
  ExecutionResult exec;
  double exec_seconds = 0.0;
  Status status;           // error of this slot's plan or execute
};

// The first failed slot in session order: which error a round reports does
// not depend on which pool task ran first.
Status FirstError(const std::vector<Slot>& slots) {
  for (const Slot& slot : slots) {
    if (!slot.status.ok()) return slot.status;
  }
  return Status::Ok();
}

}  // namespace

std::vector<Query> BuildSessionQueries(const Catalog& catalog,
                                       const std::vector<Query>& templates,
                                       const SessionDriverOptions& options) {
  LQO_CHECK(!templates.empty());
  LQO_CHECK_GT(options.sessions, 0);
  LQO_CHECK_GT(options.rounds, 0);
  const size_t sessions = static_cast<size_t>(options.sessions);
  const size_t rounds = static_cast<size_t>(options.rounds);
  const int64_t num_templates = static_cast<int64_t>(templates.size());
  const int64_t num_sensitive = static_cast<int64_t>(
      std::llround(options.sensitive_fraction * static_cast<double>(num_templates)));
  const ZipfDistribution zipf(num_templates, options.zipf_s);

  std::vector<Query> queries(rounds * sessions);
  // Each session owns an independent DeriveSeed stream, so the matrix is a
  // pure function of (templates, options) at any thread count.
  ParallelFor(sessions, [&](size_t s) {
    Rng rng(DeriveSeed(options.seed, s));
    for (size_t r = 0; r < rounds; ++r) {
      const int64_t t = zipf.Sample(rng);
      double widen = 1.0;
      if (t < num_sensitive) {
        // The hottest Zipf ranks are the sensitive ones: their bindings
        // alternate tight/wide per issue.
        widen = (r % 2 == 0) ? kSensitiveTight : kSensitiveWide;
      } else if (options.drift_round >= 0 &&
                 r >= static_cast<size_t>(options.drift_round)) {
        widen = options.drift_widen;
      }
      queries[r * sessions + s] = ResampleConstants(
          catalog, templates[static_cast<size_t>(t)], rng, widen);
    }
  });
  return queries;
}

StatusOr<SessionReport> DriveSessions(ServingFrontEnd& front_end,
                                      const std::vector<Query>& queries,
                                      const SessionDriverOptions& options) {
  const size_t sessions = static_cast<size_t>(options.sessions);
  const size_t rounds = static_cast<size_t>(options.rounds);
  LQO_CHECK_EQ(queries.size(), sessions * rounds);

  SessionReport report;
  report.serve_seconds.resize(queries.size(), 0.0);
  uint64_t fp = 0x9e3779b97f4a7c15ull;
  const PlanCacheStats before =
      front_end.cache() != nullptr ? front_end.cache()->Stats() : PlanCacheStats{};

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<Slot> slots(sessions);
  for (size_t r = 0; r < rounds; ++r) {
    for (Slot& slot : slots) slot = Slot{};
    const Query* round_queries = &queries[r * sessions];

    // Phase A: classify in parallel, then look up serially in session order
    // against the quiescent cache (a PlanCache is single-threaded).
    ParallelFor(sessions, [&](size_t s) {
      slots[s].type = front_end.TypeOf(round_queries[s]);
    });
    for (size_t s = 0; s < sessions; ++s) {
      slots[s].lookup = front_end.Lookup(slots[s].type);
    }

    // Phase B: plan the misses. Parallel only when the producer allows it;
    // learned producers mutate internal state and plan serially in session
    // order, so their state evolution is thread-count-invariant.
    auto plan_one = [&](size_t s) {
      Slot& slot = slots[s];
      if (slot.lookup.hit) return;
      const auto start = std::chrono::steady_clock::now();
      auto planned = front_end.Plan(round_queries[s]);
      if (!planned.ok()) {
        slot.status = planned.status();
        return;
      }
      slot.plan_seconds = SecondsSince(start);
      slot.plan = std::move(*planned);
      slot.planned = true;
    };
    if (front_end.producer()->thread_safe()) {
      ParallelFor(sessions, plan_one);
    } else {
      for (size_t s = 0; s < sessions; ++s) plan_one(s);
    }
    LQO_RETURN_IF_ERROR(FirstError(slots));

    // Phase C: install first-writer-wins, serially in session order — the
    // winner of a same-type race is then a deterministic fact, not a
    // scheduling accident.
    for (size_t s = 0; s < sessions; ++s) {
      Slot& slot = slots[s];
      if (slot.planned && !slot.lookup.always_optimize) {
        slot.installed =
            front_end.Install(slot.type, slot.lookup.generation, slot.plan);
      }
    }

    // Phase D: bind + execute in parallel (Executor::Execute is const and
    // thread-safe; results are index-addressed).
    ParallelFor(sessions, [&](size_t s) {
      Slot& slot = slots[s];
      const auto start = std::chrono::steady_clock::now();
      PhysicalPlan bound;
      const PhysicalPlan* to_run = &slot.plan;
      if (slot.lookup.hit) {
        bound = BindPlan(slot.lookup.root, round_queries[s]);
        to_run = &bound;
      }
      auto executed = front_end.Execute(*to_run);
      if (!executed.ok()) {
        slot.status = executed.status();
        return;
      }
      slot.exec = std::move(*executed);
      slot.exec_seconds = SecondsSince(start);
    });
    LQO_RETURN_IF_ERROR(FirstError(slots));

    // Phase E: fold feedback and the fingerprint, serially in session
    // order. Only executions of the cached plan reach the drift detector:
    // hits plus the install winner (a losing racer ran its own plan, whose
    // feedback would contaminate the installed plan's statistics).
    for (size_t s = 0; s < sessions; ++s) {
      Slot& slot = slots[s];
      PlanObserveOutcome outcome = PlanObserveOutcome::kDropped;
      if (slot.lookup.hit || slot.installed) {
        outcome =
            front_end.Observe(slot.type, slot.lookup.generation, slot.exec);
      }
      report.queries += 1;
      report.cache_hits += slot.lookup.hit ? 1 : 0;
      report.planned += slot.planned ? 1 : 0;
      report.installs += slot.installed ? 1 : 0;
      report.total_rows += slot.exec.row_count;
      report.total_time_units += slot.exec.time_units;
      report.serve_seconds[r * sessions + s] =
          slot.plan_seconds + slot.exec_seconds;

      const uint64_t flags = (slot.lookup.hit ? 1u : 0u) |
                             (slot.planned ? 2u : 0u) |
                             (slot.installed ? 4u : 0u) |
                             (slot.lookup.always_optimize ? 8u : 0u) |
                             (static_cast<uint64_t>(outcome) << 4);
      Fold(&fp, slot.type);
      Fold(&fp, flags);
      Fold(&fp, slot.exec.row_count);
      Fold(&fp, std::bit_cast<uint64_t>(slot.exec.time_units));
    }
  }
  report.wall_seconds = SecondsSince(wall_start);

  if (front_end.cache() != nullptr) {
    const PlanCacheStats delta = front_end.cache()->Stats() - before;
    report.invalidations = delta.invalidations;
    report.demotions = delta.demotions;
    Fold(&fp, delta.hits);
    Fold(&fp, delta.misses);
    Fold(&fp, delta.volatile_skips);
    Fold(&fp, delta.installs);
    Fold(&fp, delta.install_races);
    Fold(&fp, delta.invalidations);
    Fold(&fp, delta.demotions);
    Fold(&fp, delta.observations);
    Fold(&fp, delta.stale_feedback);
  }
  report.fingerprint = fp;
  return report;
}

}  // namespace lqo
