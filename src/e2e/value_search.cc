#include "e2e/value_search.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "common/logging.h"
#include "costmodel/plan_featurizer.h"

namespace lqo {

ValueSearch::ValueSearch(const E2eContext& context, int max_expansions,
                         int beam_width)
    : context_(context),
      max_expansions_(max_expansions),
      beam_width_(beam_width) {}

std::vector<double> ValueSearch::StateFeatures(
    const Query& query, const PhysicalPlan& partial) const {
  std::vector<double> features(kStateDim);
  StateFeaturesInto(query, partial, features.data());
  return features;
}

void ValueSearch::StateFeaturesInto(const Query& query,
                                    const PhysicalPlan& partial,
                                    double* out) const {
  PlanFeaturizer::FeaturizeInto(partial, out);
  int joined = PopCount(partial.root->table_set);
  out[PlanFeaturizer::kDim] = static_cast<double>(query.num_tables());
  out[PlanFeaturizer::kDim + 1] =
      static_cast<double>(query.num_tables() - joined);
}

std::vector<PhysicalPlan> ValueSearch::Expand(
    const Query& query, const PhysicalPlan& partial,
    CardinalityProvider* cards) const {
  TableSet joined = partial.root->table_set;
  std::vector<PhysicalPlan> extensions;
  for (int t = 0; t < query.num_tables(); ++t) {
    if (ContainsTable(joined, t)) continue;
    // Must share a join edge with the joined set.
    bool adjacent = false;
    for (int n : query.Neighbors(t)) {
      if (ContainsTable(joined, n)) {
        adjacent = true;
        break;
      }
    }
    if (!adjacent) continue;
    for (JoinAlgorithm algo :
         {JoinAlgorithm::kHashJoin, JoinAlgorithm::kNestedLoopJoin,
          JoinAlgorithm::kMergeJoin}) {
      PhysicalPlan next;
      next.query = &query;
      next.root = MakeJoinNode(algo, partial.root->Clone(), MakeScanNode(t));
      AnnotateWithProvider(context_, &next, cards);
      extensions.push_back(std::move(next));
    }
  }
  return extensions;
}

PhysicalPlan ValueSearch::Search(const Query& query,
                                 const PointwiseRiskModel& value_model,
                                 Strategy strategy) const {
  LQO_CHECK(value_model.trained());
  LQO_CHECK(query.IsConnected(query.AllTables()));
  TableSet all = query.AllTables();

  // One provider for the whole search: every expansion across every
  // level/pop shares the same estimate cache instead of re-deriving
  // baseline cards per candidate.
  CardinalityProvider cards(context_.estimator);

  // Values a batch of candidate states with one batched value-model pass:
  // the states featurize into one feature matrix, then a single
  // PredictTimeBatch scores every row.
  auto value_batch = [&](std::vector<PhysicalPlan> plans) {
    FeatureMatrix state_features(kStateDim);
    std::vector<double> state_values;
    state_features.Reserve(plans.size());
    for (const PhysicalPlan& plan : plans) {
      StateFeaturesInto(query, plan, state_features.AppendRow());
    }
    state_values.resize(plans.size());
    value_model.PredictTimeBatch(state_features, state_values);
    std::vector<SearchState> states(plans.size());
    for (size_t i = 0; i < plans.size(); ++i) {
      states[i].partial = std::move(plans[i]);
      states[i].value = state_values[i];
    }
    return states;
  };

  // Initial states: every single-table scan.
  std::vector<PhysicalPlan> scans(static_cast<size_t>(query.num_tables()));
  for (int t = 0; t < query.num_tables(); ++t) {
    PhysicalPlan& plan = scans[static_cast<size_t>(t)];
    plan.query = &query;
    plan.root = MakeScanNode(t);
    AnnotateWithProvider(context_, &plan, &cards);
  }
  std::vector<SearchState> frontier = value_batch(std::move(scans));
  if (query.num_tables() == 1) return std::move(frontier[0].partial);

  auto better = [](const SearchState& a, const SearchState& b) {
    return a.value < b.value;
  };

  if (strategy == Strategy::kBeam) {
    // Level-synchronous beam (Balsa): expand every frontier state in
    // state order, then keep the beam_width lowest-value states.
    for (int level = 1; level < query.num_tables(); ++level) {
      std::vector<SearchState> next_level;
      for (const SearchState& state : frontier) {
        for (SearchState& next :
             value_batch(Expand(query, state.partial, &cards))) {
          next_level.push_back(std::move(next));
        }
      }
      LQO_CHECK(!next_level.empty());
      std::sort(next_level.begin(), next_level.end(), better);
      if (static_cast<int>(next_level.size()) > beam_width_) {
        next_level.resize(static_cast<size_t>(beam_width_));
      }
      frontier = std::move(next_level);
    }
    return std::move(frontier[0].partial);
  }

  // Best-first (Neo): pop the lowest-value state, expand; the first
  // complete plan popped wins; expansion budget guards runaway searches.
  // Each pop's expansion batch is valued in one pass, then pushed in
  // batch order.
  auto cmp = [](const SearchState& a, const SearchState& b) {
    return a.value > b.value;  // front = minimum value
  };
  std::vector<SearchState> heap = std::move(frontier);
  std::make_heap(heap.begin(), heap.end(), cmp);
  auto pop_min = [&]() {
    std::pop_heap(heap.begin(), heap.end(), cmp);
    SearchState state = std::move(heap.back());
    heap.pop_back();
    return state;
  };
  int expansions = 0;
  while (!heap.empty() && expansions < max_expansions_) {
    SearchState state = pop_min();
    if (state.partial.root->table_set == all) {
      return std::move(state.partial);
    }
    ++expansions;
    for (SearchState& next :
         value_batch(Expand(query, state.partial, &cards))) {
      heap.push_back(std::move(next));
      std::push_heap(heap.begin(), heap.end(), cmp);
    }
  }
  // Budget exhausted: greedily complete the best remaining state.
  LQO_CHECK(!heap.empty());
  SearchState state = pop_min();
  while (state.partial.root->table_set != all) {
    std::vector<SearchState> expanded =
        value_batch(Expand(query, state.partial, &cards));
    LQO_CHECK(!expanded.empty());
    size_t best = 0;
    for (size_t i = 1; i < expanded.size(); ++i) {
      if (expanded[i].value < expanded[best].value) best = i;
    }
    state.partial = std::move(expanded[best].partial);
  }
  return std::move(state.partial);
}

std::vector<PlanExperience> ValueSearch::SubplanExperiences(
    const Query& query, const PhysicalPlan& plan, double time_units) const {
  // Every sub-plan, bottom-up, annotated against one shared provider.
  CardinalityProvider cards(context_.estimator);
  std::vector<PlanExperience> experiences;
  VisitPlanBottomUp(*plan.root, [&](const PlanNode& node) {
    // Sub-plans rooted at joins (and the scans, which seed the search).
    PhysicalPlan partial;
    partial.query = &query;
    partial.root = node.Clone();
    AnnotateWithProvider(context_, &partial, &cards);
    experiences.push_back(MakePlanExperience(
        query, partial, StateFeatures(query, partial), time_units));
  });
  return experiences;
}

}  // namespace lqo
