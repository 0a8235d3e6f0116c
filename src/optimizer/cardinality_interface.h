#ifndef LQO_OPTIMIZER_CARDINALITY_INTERFACE_H_
#define LQO_OPTIMIZER_CARDINALITY_INTERFACE_H_

#include <map>
#include <string>
#include <vector>

#include "query/query.h"

namespace lqo {

/// The cardinality-estimator component interface of the volcano optimizer
/// (paper Section 2): given a connected sub-query, predict its row count.
/// Every traditional and learned estimator in src/cardinality implements
/// this.
class CardinalityEstimatorInterface {
 public:
  virtual ~CardinalityEstimatorInterface() = default;

  /// Estimated COUNT(*) of the sub-query; must be >= 0.
  ///
  /// Contract: implementations must be re-entrant — no mutable per-call
  /// state after Build()/training, and any randomness seeded per call from
  /// construction-time seeds. The parallel evaluation harness
  /// (EstimatorQErrors) calls this concurrently from worker threads.
  virtual double EstimateSubquery(const Subquery& subquery) = 0;

  /// Estimates for a whole batch of sub-queries, element i matching
  /// EstimateSubquery(subqueries[i]) bit-for-bit. The default fans the
  /// scalar path out over the thread pool (index-addressed slots); learned
  /// estimators override it to featurize the batch into one matrix and run
  /// a single batched model pass, and the baseline computes its per-table
  /// and per-join terms once per query.
  ///
  /// Contract: re-entrant, like EstimateSubquery. The DP planner resolves
  /// every connected subset of a plan through one batch, and concurrent
  /// sessions share one estimator, so an override keeps its scratch (the
  /// feature matrix included) per call, never in a member.
  virtual std::vector<double> EstimateSubqueryBatch(
      const std::vector<Subquery>& subqueries);

  /// Short identifier used in benchmark tables ("postgres", "mscn", ...).
  virtual std::string Name() const = 0;
};

/// Hit/miss counters of the provider's memo cache (Stats() below).
struct CardinalityCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
};

/// Wraps an estimator with the two injection knobs PilotScope exposes to
/// drivers and Lero uses for candidate generation:
///  - per-sub-query overrides (the learned-CE driver pushes these), and
///  - a multiplicative scale applied to estimates of sub-queries with at
///    least `min_tables` tables (Lero's cardinality-scaling knob).
/// Estimates are memoized under the structural hash Subquery::KeyHash(),
/// so repeat lookups (every candidate plan of a query asks for the same
/// subsets) never rebuild the canonical string key; the string is only
/// materialized per miss, and only while overrides exist.
///
/// The DP planner asks for every connected subset of a plan in one
/// CardinalityBatch() call: the key-hash parts of the query (KeyHashParts)
/// are computed once, memo hits are answered, and the misses reach the
/// estimator as one EstimateSubqueryBatch() call, in the order the scalar
/// Cardinality() calls would have made them. Greedy and leading-hint
/// planning ask one subset at a time through Cardinality().
///
/// A provider is single-threaded: the learned optimizers in src/e2e build
/// one per query and plan all of that query's candidates against it in
/// turn, so every candidate shares one memo.
class CardinalityProvider {
 public:
  explicit CardinalityProvider(CardinalityEstimatorInterface* estimator)
      : estimator_(estimator) {}

  /// Scaled read-through view for Lero-style candidate costing: raw
  /// estimates come from (and are memoized in) `base`; this view applies
  /// `scale_factor` to sub-queries with >= `scale_min_tables` tables on top.
  /// Several views over one base share its memo.
  CardinalityProvider(CardinalityProvider* base, double scale_factor,
                      int scale_min_tables);

  /// Forces the cardinality of the sub-query identified by `key`
  /// (Subquery::Key()).
  void InjectOverride(const std::string& key, double cardinality);

  /// Applies `factor` to estimates of sub-queries with >= min_tables tables.
  void SetScale(double factor, int min_tables);

  /// Resets overrides and scaling.
  void ClearOverrides();

  /// Final (possibly overridden/scaled) estimate for the sub-query.
  double Cardinality(const Subquery& subquery);

  /// (*out)[i] = Cardinality(Subquery{&query, sets[i]}) for every i, bit
  /// for bit, with the same memo hits and misses and the same estimator
  /// call order, but one EstimateSubqueryBatch() call for all the misses.
  void CardinalityBatch(const Query& query, const std::vector<TableSet>& sets,
                        std::vector<double>* out);

  /// Memo-cache counters since construction (not reset by ClearOverrides);
  /// hits + misses == number of sub-queries asked for through Cardinality()
  /// and CardinalityBatch().
  CardinalityCacheStats Stats() const { return {hits_, misses_}; }

  CardinalityEstimatorInterface* estimator() const { return estimator_; }

 private:
  /// Estimate before the final >= 1 clamp (what scaled views compose on).
  double Raw(const Subquery& subquery);
  /// Cache-miss path: override table, then base/estimator, then scaling.
  double Compute(const Subquery& subquery);
  /// Batch forms of Raw() and Compute(): element i as for sets[i].
  void RawBatch(const Query& query, const std::vector<TableSet>& sets,
                std::vector<double>* out);
  void ComputeBatch(const Query& query, const std::vector<TableSet>& sets,
                    std::vector<double>* out);
  /// The scaling knob applied to a raw estimate of `tables`.
  double Scaled(TableSet tables, double value) const;

  CardinalityEstimatorInterface* estimator_ = nullptr;
  /// Non-null for scaled views; raw estimates delegate to the base.
  CardinalityProvider* base_ = nullptr;
  std::map<std::string, double> overrides_;
  double scale_factor_ = 1.0;
  int scale_min_tables_ = 0;
  /// Memo of raw estimates by Subquery::KeyHash(): one open-addressing
  /// table, at most half full, that grows only before a lookup or a batch
  /// starts. A batch therefore never allocates per entry and never rehashes
  /// midway, so the slot indices it holds stay valid. KeyHash() is already
  /// well mixed, so its low bits pick the home slot.
  struct MemoSlot {
    uint64_t key = 0;
    double value = 0.0;
    bool used = false;
  };
  /// Grows the memo so that `more` new keys fit without a rehash.
  void ReserveMemo(size_t more);
  /// The slot holding `key`, or the empty slot where it belongs.
  size_t FindSlot(uint64_t key) const;
  void ClearMemo();

  std::vector<MemoSlot> memo_;
  size_t memo_size_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace lqo

#endif  // LQO_OPTIMIZER_CARDINALITY_INTERFACE_H_
