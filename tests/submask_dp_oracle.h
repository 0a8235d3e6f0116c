// Test-only reference planner: the exhaustive submask DP that
// Optimizer::Optimize ran before it enumerated csg-cmp pairs. It visits
// every subset of the query's tables, keeps the connected ones, and tries
// every submask split of each, so it is slow (3^n steps) but obviously
// complete. The property tests hold Optimize to it bit for bit: plan shape,
// per-node estimates, total cost, combination count and the order in which
// subsets reach the estimator.

#ifndef LQO_TESTS_SUBMASK_DP_ORACLE_H_
#define LQO_TESTS_SUBMASK_DP_ORACLE_H_

#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "optimizer/optimizer.h"

namespace lqo {
namespace oracle {

struct Entry {
  double cost = std::numeric_limits<double>::infinity();
  double card = 0.0;
  std::unique_ptr<PlanNode> plan;
};

inline bool HasCrossingJoin(const Query& query, TableSet left,
                            TableSet right) {
  for (const QueryJoin& j : query.joins()) {
    bool l_in_left = ContainsTable(left, j.left_table);
    bool l_in_right = ContainsTable(right, j.left_table);
    bool r_in_left = ContainsTable(left, j.right_table);
    bool r_in_right = ContainsTable(right, j.right_table);
    if ((l_in_left && r_in_right) || (l_in_right && r_in_left)) return true;
  }
  return false;
}

/// The submask DP over connected subsets with `optimizer`'s stats, cost
/// model and bushy option. Leading hints are not handled (Optimize does not
/// run its DP for them either).
inline PlannerResult SubmaskDp(const Optimizer& optimizer, bool bushy,
                               const Query& query, CardinalityProvider* cards,
                               const HintSet& hints = HintSet()) {
  LQO_CHECK(hints.leading.empty());
  const auto& model =
      dynamic_cast<const AnalyticalCostModel&>(optimizer.cost_model());
  std::vector<JoinAlgorithm> allowed = hints.AllowedAlgorithms();

  int n = query.num_tables();
  std::unordered_map<TableSet, Entry> best;
  PlannerResult result;

  // Leaves.
  for (int t = 0; t < n; ++t) {
    Entry entry;
    TableSet set = TableBit(t);
    entry.card = cards->Cardinality(Subquery{&query, set});
    const std::string& name = query.tables()[static_cast<size_t>(t)].table_name;
    double raw_rows =
        static_cast<double>(optimizer.stats().Of(name).row_count);
    entry.cost = model.ScanCost(
        raw_rows, static_cast<int>(query.PredicatesOf(t).size()));
    entry.plan = MakeScanNode(t);
    entry.plan->estimated_cardinality = entry.card;
    entry.plan->estimated_cost = entry.cost;
    best.emplace(set, std::move(entry));
  }

  // Cardinalities of every connected subset, in ascending subset order.
  TableSet all = query.AllTables();
  std::vector<std::vector<TableSet>> levels(static_cast<size_t>(n) + 1);
  std::unordered_map<TableSet, double> subset_card;
  for (TableSet s = 1; s <= all; ++s) {
    int size = PopCount(s);
    if (size < 2) continue;
    if (!query.IsConnected(s)) continue;
    levels[static_cast<size_t>(size)].push_back(s);
    subset_card.emplace(s, cards->Cardinality(Subquery{&query, s}));
  }

  // Level by level, every submask split of every connected subset, from
  // the largest left submask down; the first strictly cheaper split wins.
  for (size_t k = 2; k <= static_cast<size_t>(n); ++k) {
    for (TableSet s : levels[k]) {
      double card_s = subset_card.at(s);
      Entry out;
      out.card = card_s;
      for (TableSet left = (s - 1) & s; left != 0; left = (left - 1) & s) {
        TableSet right = s & ~left;
        if (!bushy && PopCount(right) != 1) continue;
        auto left_it = best.find(left);
        auto right_it = best.find(right);
        if (left_it == best.end() || right_it == best.end()) continue;
        if (!HasCrossingJoin(query, left, right)) continue;

        for (JoinAlgorithm algo : allowed) {
          ++result.combinations_evaluated;
          double join_cost = model.JoinCost(algo, left_it->second.card,
                                            right_it->second.card, card_s);
          double total =
              left_it->second.cost + right_it->second.cost + join_cost;
          if (total < out.cost) {
            out.cost = total;
            out.plan = MakeJoinNode(algo, left_it->second.plan->Clone(),
                                    right_it->second.plan->Clone());
            out.plan->estimated_cardinality = card_s;
            out.plan->estimated_cost = join_cost;
          }
        }
      }
      if (out.plan != nullptr) best.emplace(s, std::move(out));
    }
  }

  auto final_it = best.find(all);
  LQO_CHECK(final_it != best.end()) << "DP failed to cover the query";
  result.plan.query = &query;
  result.plan.root = std::move(final_it->second.plan);
  result.estimated_cost = final_it->second.cost;
  return result;
}

}  // namespace oracle
}  // namespace lqo

#endif  // LQO_TESTS_SUBMASK_DP_ORACLE_H_
