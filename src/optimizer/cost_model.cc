#include "optimizer/cost_model.h"

#include "common/logging.h"

namespace lqo {

double AnalyticalCostModel::ScanCost(double table_rows,
                                     int num_predicates) const {
  return table_rows * constants_.scan_row +
         table_rows * static_cast<double>(num_predicates) *
             constants_.predicate_eval;
}

double AnalyticalCostModel::JoinCost(JoinAlgorithm algorithm,
                                     double left_rows, double right_rows,
                                     double output_rows) const {
  // Only the merge join reads the sort terms.
  if (algorithm != JoinAlgorithm::kMergeJoin) {
    return JoinCost(algorithm, JoinInput{left_rows}, JoinInput{right_rows},
                    output_rows);
  }
  return JoinCost(algorithm, Input(left_rows), Input(right_rows),
                  output_rows);
}

double AnalyticalCostModel::PlanCost(PhysicalPlan* plan,
                                     CardinalityProvider* cards) const {
  LQO_CHECK(plan != nullptr);
  LQO_CHECK(plan->query != nullptr);
  LQO_CHECK(plan->root != nullptr);
  const Query& query = *plan->query;

  double total = 0.0;
  VisitPlanBottomUpMut(*plan->root, [&](PlanNode& node) {
    if (node.kind == PlanNode::Kind::kScan) {
      const std::string& table_name =
          query.tables()[static_cast<size_t>(node.table_index)].table_name;
      double table_rows =
          static_cast<double>(stats_->Of(table_name).row_count);
      int num_predicates =
          static_cast<int>(query.PredicatesOf(node.table_index).size());
      node.estimated_cardinality =
          cards->Cardinality(Subquery{&query, node.table_set});
      node.estimated_cost = ScanCost(table_rows, num_predicates);
    } else {
      double left_rows = node.left->estimated_cardinality;
      double right_rows = node.right->estimated_cardinality;
      node.estimated_cardinality =
          cards->Cardinality(Subquery{&query, node.table_set});
      node.estimated_cost = JoinCost(node.algorithm, left_rows, right_rows,
                                     node.estimated_cardinality);
    }
    total += node.estimated_cost;
  });
  return total;
}

}  // namespace lqo
