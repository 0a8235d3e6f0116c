#include "optimizer/optimizer.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "common/logging.h"

namespace lqo {

std::vector<JoinAlgorithm> HintSet::AllowedAlgorithms() const {
  std::vector<JoinAlgorithm> allowed;
  if (enable_hash_join) allowed.push_back(JoinAlgorithm::kHashJoin);
  if (enable_nested_loop) allowed.push_back(JoinAlgorithm::kNestedLoopJoin);
  if (enable_merge_join) allowed.push_back(JoinAlgorithm::kMergeJoin);
  if (allowed.empty()) {
    allowed = {JoinAlgorithm::kHashJoin, JoinAlgorithm::kNestedLoopJoin,
               JoinAlgorithm::kMergeJoin};
  }
  return allowed;
}

namespace {

struct Entry {
  double cost = std::numeric_limits<double>::infinity();
  double card = 0.0;
  std::unique_ptr<PlanNode> plan;
};

bool HasCrossingJoin(const Query& query, TableSet left, TableSet right) {
  for (const QueryJoin& j : query.joins()) {
    bool l_in_left = ContainsTable(left, j.left_table);
    bool l_in_right = ContainsTable(right, j.left_table);
    bool r_in_left = ContainsTable(left, j.right_table);
    bool r_in_right = ContainsTable(right, j.right_table);
    if ((l_in_left && r_in_right) || (l_in_right && r_in_left)) return true;
  }
  return false;
}

// The AnalyticalCostModel node formulas are required for enumeration; the
// optimizer's cost model must be (or derive from) it.
const AnalyticalCostModel& AsAnalytical(const CostModelInterface& model) {
  const auto* analytical = dynamic_cast<const AnalyticalCostModel*>(&model);
  LQO_CHECK(analytical != nullptr)
      << "Optimizer enumeration requires an AnalyticalCostModel (got "
      << model.Name() << ")";
  return *analytical;
}

int NumPredicatesOf(const Query& query, int table_index) {
  return static_cast<int>(std::count_if(
      query.predicates().begin(), query.predicates().end(),
      [&](const Predicate& p) { return p.table_index == table_index; }));
}

// Grows the connected set `set` by every non-empty subset of its
// neighbourhood inside `within`, skipping `excluded`, calls emit() on each
// grown set and recurses on it with the whole neighbourhood excluded
// (EnumerateCsgRec of Moerkotte & Neumann, VLDB'06). Every connected subset
// of `within` that strictly contains `set` and avoids `excluded` is emitted
// exactly once, unless emit() returns false: the walk then stops and
// returns false.
template <typename Emit>
bool ExpandConnected(const std::vector<TableSet>& adjacency, TableSet within,
                     TableSet set, TableSet excluded, const Emit& emit) {
  TableSet neighbourhood = 0;
  for (TableSet rest = set; rest != 0; rest &= rest - 1) {
    neighbourhood |= adjacency[static_cast<size_t>(__builtin_ctzll(rest))];
  }
  neighbourhood &= within & ~excluded & ~set;
  if (neighbourhood == 0) return true;
  for (TableSet grow = neighbourhood; grow != 0;
       grow = (grow - 1) & neighbourhood) {
    if (!emit(set | grow)) return false;
  }
  for (TableSet grow = neighbourhood; grow != 0;
       grow = (grow - 1) & neighbourhood) {
    if (!ExpandConnected(adjacency, within, set | grow,
                         excluded | neighbourhood, emit)) {
      return false;
    }
  }
  return true;
}

// DPccp: dynamic programming over the connected subgraphs (csgs) of the join
// graph, splitting each csg only into connected complement pairs, so the
// work grows with the number of csg-cmp pairs rather than with 3^n submask
// steps. The memo holds back-pointers (left input and algorithm); the plan
// tree is built once, from the root, at the end.
class DpccpPlanner {
 public:
  DpccpPlanner(const Query& query, const StatsCatalog& stats,
               const AnalyticalCostModel& model,
               std::vector<JoinAlgorithm> allowed, bool bushy)
      : query_(query),
        stats_(stats),
        model_(model),
        allowed_(std::move(allowed)),
        bushy_(bushy),
        adjacency_(static_cast<size_t>(query.num_tables()), 0) {
    for (const QueryJoin& j : query.joins()) {
      adjacency_[static_cast<size_t>(j.left_table)] |= TableBit(j.right_table);
      adjacency_[static_cast<size_t>(j.right_table)] |= TableBit(j.left_table);
    }
  }

  // Lists every csg, sorted ascending: each proper subset of a csg
  // precedes it, and the estimator sees the same subsets in the same order
  // as a walk over all 2^n subsets would show it. Returns false, before any
  // estimator call, once the join graph has more than kMaxCsgs csgs.
  bool EnumerateCsgs() {
    int n = query_.num_tables();
    TableSet all = query_.AllTables();
    auto add = [&](TableSet s) {
      csgs_.push_back(s);
      return csgs_.size() <= kMaxCsgs;
    };
    for (int t = n - 1; t >= 0; --t) {
      TableSet start = TableBit(t);
      if (!add(start) ||
          !ExpandConnected(adjacency_, all, start, start | (start - 1), add)) {
        return false;
      }
    }
    std::sort(csgs_.begin(), csgs_.end());
    return true;
  }

  // Plans the query over the csgs EnumerateCsgs() listed.
  PlannerResult Plan(CardinalityProvider* cards) {
    int n = query_.num_tables();
    TableSet all = query_.AllTables();
    memo_.resize(csgs_.size());
    BuildIndex();
    EstimateCsgs(cards);

    for (int t = 0; t < n; ++t) {
      MemoEntry& leaf = memo_[IndexOf(TableBit(t))];
      const std::string& name =
          query_.tables()[static_cast<size_t>(t)].table_name;
      leaf.cost =
          model_.ScanCost(static_cast<double>(stats_.Of(name).row_count),
                          NumPredicatesOf(query_, t));
      leaf.node_cost = leaf.cost;
      leaf.planned = true;
    }

    PlannerResult result;
    for (size_t i = 0; i < csgs_.size(); ++i) {
      TableSet s = csgs_[i];
      if (PopCount(s) < 2) continue;
      if (bushy_) {
        // Each unordered split once, from the side holding the lowest
        // table; both orientations are costed.
        TableSet lowest = s & (~s + 1);
        auto split = [&](TableSet left) {
          if (left == s) return true;
          size_t right_index = IndexOf(s & ~left);
          if (right_index == kNotConnected) return true;
          size_t left_index = IndexOf(left);
          result.combinations_evaluated += TryJoin(i, left_index, right_index);
          result.combinations_evaluated += TryJoin(i, right_index, left_index);
          return true;
        };
        split(lowest);
        ExpandConnected(adjacency_, s, lowest, lowest, split);
      } else {
        for (TableSet rest = s; rest != 0; rest &= rest - 1) {
          TableSet right = rest & (~rest + 1);
          size_t left_index = IndexOf(s & ~right);
          if (left_index == kNotConnected) continue;
          result.combinations_evaluated +=
              TryJoin(i, left_index, IndexOf(right));
        }
      }
    }

    const MemoEntry& root = memo_[IndexOf(all)];
    LQO_CHECK(root.planned) << "DP failed to cover the query";
    result.plan.query = &query_;
    result.plan.root = Materialize(all);
    result.estimated_cost = root.cost;
    return result;
  }

 private:
  // Csg budget of the exhaustive DP. Chains of n tables have n(n+1)/2 csgs
  // and the 8-table stars and 6-table cliques of the planner tests a few
  // hundred, but a star of n tables has 2^(n-1) + n - 1: 65536 csgs is
  // passed by a 17-table star or clique, which is planned greedily instead.
  static constexpr size_t kMaxCsgs = size_t{1} << 16;
  static constexpr size_t kNotConnected = ~size_t{0};

  // Cheapest plan found so far for one csg. A join records its left input
  // and algorithm; its right input is the rest of the csg.
  struct MemoEntry {
    double cost = std::numeric_limits<double>::infinity();
    double card = 0.0;
    /// The root node's own cost: scan cost of a leaf, join cost of a join.
    double node_cost = 0.0;
    TableSet left = 0;
    JoinAlgorithm algorithm = JoinAlgorithm::kHashJoin;
    bool planned = false;
  };

  // Fills every memo entry's cardinality from one provider batch: the
  // leaves in table order, then the larger csgs in ascending order, the
  // order in which a DP asking subset by subset would reach them.
  void EstimateCsgs(CardinalityProvider* cards) {
    std::vector<size_t> order;
    order.reserve(csgs_.size());
    for (int t = 0; t < query_.num_tables(); ++t) {
      order.push_back(IndexOf(TableBit(t)));
    }
    for (size_t i = 0; i < csgs_.size(); ++i) {
      if (PopCount(csgs_[i]) >= 2) order.push_back(i);
    }
    std::vector<TableSet> sets;
    sets.reserve(order.size());
    for (size_t i : order) sets.push_back(csgs_[i]);
    std::vector<double> estimates;
    cards->CardinalityBatch(query_, sets, &estimates);
    for (size_t k = 0; k < order.size(); ++k) {
      memo_[order[k]].card = estimates[k];
    }
  }

  // Open-addressing table from csg to its index in csgs_, at most half
  // full, so a lookup is one multiply and a probe or two.
  void BuildIndex() {
    int bits = 1;
    while ((size_t{1} << bits) < 2 * csgs_.size()) ++bits;
    slot_shift_ = 64 - bits;
    slot_mask_ = (size_t{1} << bits) - 1;
    slot_sets_.assign(slot_mask_ + 1, 0);
    slot_index_.assign(slot_mask_ + 1, 0);
    for (size_t i = 0; i < csgs_.size(); ++i) {
      size_t slot = Slot(csgs_[i]);
      while (slot_sets_[slot] != 0) slot = (slot + 1) & slot_mask_;
      slot_sets_[slot] = csgs_[i];
      slot_index_[slot] = static_cast<uint32_t>(i);
    }
  }

  size_t Slot(TableSet set) const {
    return static_cast<size_t>((set * 0x9e3779b97f4a7c15ull) >> slot_shift_);
  }

  size_t IndexOf(TableSet set) const {
    for (size_t slot = Slot(set);; slot = (slot + 1) & slot_mask_) {
      if (slot_sets_[slot] == set) return slot_index_[slot];
      if (slot_sets_[slot] == 0) return kNotConnected;
    }
  }

  // Costs joining csgs_[left] with csgs_[right] into csgs_[target] under
  // every allowed algorithm; returns the number of combinations costed.
  // Ties resolve as a walk over the submasks of the target from the largest
  // down would: lowest total, then the larger left input, then the earlier
  // algorithm.
  uint64_t TryJoin(size_t target, size_t left, size_t right) {
    const MemoEntry& l = memo_[left];
    const MemoEntry& r = memo_[right];
    if (!l.planned || !r.planned) return 0;
    MemoEntry& out = memo_[target];
    TableSet left_set = csgs_[left];
    for (JoinAlgorithm algo : allowed_) {
      double join_cost = model_.JoinCost(algo, l.card, r.card, out.card);
      double total = l.cost + r.cost + join_cost;
      if (total < out.cost ||
          (total == out.cost && out.planned && left_set > out.left)) {
        out.cost = total;
        out.node_cost = join_cost;
        out.left = left_set;
        out.algorithm = algo;
        out.planned = true;
      }
    }
    return allowed_.size();
  }

  std::unique_ptr<PlanNode> Materialize(TableSet set) const {
    const MemoEntry& entry = memo_[IndexOf(set)];
    std::unique_ptr<PlanNode> node =
        PopCount(set) == 1
            ? MakeScanNode(__builtin_ctzll(set))
            : MakeJoinNode(entry.algorithm, Materialize(entry.left),
                           Materialize(set & ~entry.left));
    node->estimated_cardinality = entry.card;
    node->estimated_cost = entry.node_cost;
    return node;
  }

  const Query& query_;
  const StatsCatalog& stats_;
  const AnalyticalCostModel& model_;
  const std::vector<JoinAlgorithm> allowed_;
  const bool bushy_;
  /// adjacency_[t]: tables sharing a join conjunct with table t.
  std::vector<TableSet> adjacency_;
  /// Every connected subset of the join graph, ascending; memo_[i] is the
  /// entry of csgs_[i].
  std::vector<TableSet> csgs_;
  std::vector<MemoEntry> memo_;
  std::vector<TableSet> slot_sets_;  // 0 marks an empty slot.
  std::vector<uint32_t> slot_index_;
  int slot_shift_ = 0;
  size_t slot_mask_ = 0;
};

}  // namespace

PlannerResult Optimizer::Optimize(const Query& query,
                                  CardinalityProvider* cards,
                                  const HintSet& hints) const {
  LQO_CHECK(query.num_tables() > 0);
  LQO_CHECK(query.IsConnected(query.AllTables()))
      << "query join graph must be connected: " << query.ToString();
  if (!hints.leading.empty()) {
    return OptimizeWithLeading(query, cards, hints);
  }
  DpccpPlanner planner(query, *stats_, AsAnalytical(*cost_model_),
                       hints.AllowedAlgorithms(), options_.bushy);
  if (!planner.EnumerateCsgs()) {
    PlannerResult result = OptimizeGreedy(query, cards, hints);
    result.greedy_fallback = true;
    return result;
  }
  return planner.Plan(cards);
}

PlannerResult Optimizer::OptimizeGreedy(const Query& query,
                                        CardinalityProvider* cards,
                                        const HintSet& hints) const {
  LQO_CHECK(query.num_tables() > 0);
  LQO_CHECK(query.IsConnected(query.AllTables()));
  const AnalyticalCostModel& model = AsAnalytical(*cost_model_);
  std::vector<JoinAlgorithm> allowed = hints.AllowedAlgorithms();
  PlannerResult result;

  std::vector<Entry> components;
  for (int t = 0; t < query.num_tables(); ++t) {
    Entry entry;
    TableSet set = TableBit(t);
    entry.card = cards->Cardinality(Subquery{&query, set});
    const std::string& name = query.tables()[static_cast<size_t>(t)].table_name;
    entry.cost = model.ScanCost(
        static_cast<double>(stats_->Of(name).row_count),
        NumPredicatesOf(query, t));
    entry.plan = MakeScanNode(t);
    entry.plan->estimated_cardinality = entry.card;
    entry.plan->estimated_cost = entry.cost;
    components.push_back(std::move(entry));
  }

  while (components.size() > 1) {
    double best_cost = std::numeric_limits<double>::infinity();
    size_t best_i = 0, best_j = 0;
    JoinAlgorithm best_algo = JoinAlgorithm::kHashJoin;
    double best_card = 0.0;

    for (size_t i = 0; i < components.size(); ++i) {
      for (size_t j = 0; j < components.size(); ++j) {
        if (i == j) continue;
        TableSet li = components[i].plan->table_set;
        TableSet rj = components[j].plan->table_set;
        if (!HasCrossingJoin(query, li, rj)) continue;
        double card =
            cards->Cardinality(Subquery{&query, li | rj});
        for (JoinAlgorithm algo : allowed) {
          ++result.combinations_evaluated;
          double cost = model.JoinCost(algo, components[i].card,
                                       components[j].card, card);
          if (cost < best_cost) {
            best_cost = cost;
            best_i = i;
            best_j = j;
            best_algo = algo;
            best_card = card;
          }
        }
      }
    }
    LQO_CHECK(best_cost < std::numeric_limits<double>::infinity())
        << "greedy found no joinable pair (disconnected query?)";

    Entry merged;
    merged.card = best_card;
    merged.cost =
        components[best_i].cost + components[best_j].cost + best_cost;
    merged.plan = MakeJoinNode(best_algo, std::move(components[best_i].plan),
                               std::move(components[best_j].plan));
    merged.plan->estimated_cardinality = best_card;
    merged.plan->estimated_cost = best_cost;

    size_t hi = std::max(best_i, best_j), lo = std::min(best_i, best_j);
    components.erase(components.begin() + static_cast<long>(hi));
    components.erase(components.begin() + static_cast<long>(lo));
    components.push_back(std::move(merged));
  }

  result.plan.query = &query;
  result.estimated_cost = components[0].cost;
  result.plan.root = std::move(components[0].plan);
  return result;
}

PlannerResult Optimizer::OptimizeWithLeading(const Query& query,
                                             CardinalityProvider* cards,
                                             const HintSet& hints) const {
  const AnalyticalCostModel& model = AsAnalytical(*cost_model_);
  std::vector<JoinAlgorithm> allowed = hints.AllowedAlgorithms();
  PlannerResult result;

  auto scan_entry = [&](int t) {
    Entry entry;
    entry.card = cards->Cardinality(Subquery{&query, TableBit(t)});
    const std::string& name = query.tables()[static_cast<size_t>(t)].table_name;
    entry.cost = model.ScanCost(
        static_cast<double>(stats_->Of(name).row_count),
        NumPredicatesOf(query, t));
    entry.plan = MakeScanNode(t);
    entry.plan->estimated_cardinality = entry.card;
    entry.plan->estimated_cost = entry.cost;
    return entry;
  };

  LQO_CHECK(!hints.leading.empty());
  Entry current = scan_entry(hints.leading[0]);

  auto append_table = [&](Entry current_entry, int table) {
    TableSet merged_set = current_entry.plan->table_set | TableBit(table);
    LQO_CHECK(HasCrossingJoin(query, current_entry.plan->table_set,
                              TableBit(table)))
        << "leading hint joins unconnected table " << table;
    Entry next_scan = scan_entry(table);
    double card = cards->Cardinality(Subquery{&query, merged_set});
    double best_cost = std::numeric_limits<double>::infinity();
    JoinAlgorithm best_algo = JoinAlgorithm::kHashJoin;
    for (JoinAlgorithm algo : allowed) {
      ++result.combinations_evaluated;
      double cost =
          model.JoinCost(algo, current_entry.card, next_scan.card, card);
      if (cost < best_cost) {
        best_cost = cost;
        best_algo = algo;
      }
    }
    Entry merged;
    merged.card = card;
    merged.cost = current_entry.cost + next_scan.cost + best_cost;
    merged.plan = MakeJoinNode(best_algo, std::move(current_entry.plan),
                               std::move(next_scan.plan));
    merged.plan->estimated_cardinality = card;
    merged.plan->estimated_cost = best_cost;
    return merged;
  };

  for (size_t i = 1; i < hints.leading.size(); ++i) {
    current = append_table(std::move(current), hints.leading[i]);
  }

  // Greedy completion over the remaining tables.
  while (PopCount(current.plan->table_set) < query.num_tables()) {
    int best_table = -1;
    double best_incremental = std::numeric_limits<double>::infinity();
    for (int t = 0; t < query.num_tables(); ++t) {
      if (ContainsTable(current.plan->table_set, t)) continue;
      if (!HasCrossingJoin(query, current.plan->table_set, TableBit(t))) {
        continue;
      }
      double card = cards->Cardinality(
          Subquery{&query, current.plan->table_set | TableBit(t)});
      double t_card = cards->Cardinality(Subquery{&query, TableBit(t)});
      for (JoinAlgorithm algo : allowed) {
        ++result.combinations_evaluated;
        double cost = model.JoinCost(algo, current.card, t_card, card);
        if (cost < best_incremental) {
          best_incremental = cost;
          best_table = t;
        }
      }
    }
    LQO_CHECK_GE(best_table, 0);
    current = append_table(std::move(current), best_table);
  }

  result.plan.query = &query;
  result.estimated_cost = current.cost;
  result.plan.root = std::move(current.plan);
  return result;
}

}  // namespace lqo
