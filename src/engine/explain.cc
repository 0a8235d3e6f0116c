#include "engine/explain.h"

#include <sstream>
#include <vector>

#include "common/logging.h"
#include "common/str_util.h"

namespace lqo {
namespace {

// Assigns bottom-up profile indices to nodes (children before parents,
// left before right — the executor's emission order).
void IndexNodes(const PlanNode& node, int* counter,
                std::vector<std::pair<const PlanNode*, int>>* indexed) {
  if (node.kind == PlanNode::Kind::kJoin) {
    IndexNodes(*node.left, counter, indexed);
    IndexNodes(*node.right, counter, indexed);
  }
  indexed->emplace_back(&node, (*counter)++);
}

// Renders one select-list item, e.g. "t0.a", "SUM(t1.b)", "COUNT(*)".
void RenderOutputExpr(const OutputExpr& expr, const Query* query,
                      std::ostringstream& out) {
  if (!expr.ReferencesColumn()) {
    out << "COUNT(*)";
    return;
  }
  const std::string& alias =
      query->tables()[static_cast<size_t>(expr.table_index)].alias;
  if (expr.kind == OutputExpr::Kind::kColumn) {
    out << alias << "." << expr.column;
  } else {
    out << AggFuncName(expr.func) << "(" << alias << "." << expr.column << ")";
  }
}

void Render(const PlanNode& node, const Query* query,
            const std::vector<std::pair<const PlanNode*, int>>& indexed,
            const ExecutionResult& result, int depth, bool show_materialization,
            std::ostringstream& out) {
  int profile_index = -1;
  for (const auto& [candidate, index] : indexed) {
    if (candidate == &node) {
      profile_index = index;
      break;
    }
  }
  LQO_CHECK_GE(profile_index, 0);
  const NodeProfile& profile =
      result.node_profiles[static_cast<size_t>(profile_index)];

  out << std::string(static_cast<size_t>(depth) * 2, ' ');
  if (node.kind == PlanNode::Kind::kScan) {
    const QueryTable& table =
        query->tables()[static_cast<size_t>(node.table_index)];
    out << "Scan " << table.table_name << " " << table.alias;
  } else {
    out << JoinAlgorithmName(node.algorithm);
  }
  out << "  (est_rows=" << FormatDouble(node.estimated_cardinality, 4)
      << " actual=" << profile.output_rows
      << " time=" << FormatDouble(profile.time_units, 4);
  if (node.kind == PlanNode::Kind::kJoin) {
    // Physical hash-table health of the hash join: probe-sequence
    // collisions on build/probe.
    out << " collisions=" << profile.build_collisions << "/"
        << profile.probe_collisions;
  }
  if (show_materialization) {
    // Late-materialization accounting (only rendered for queries with an
    // output stage): row-id columns carried out of this node and the
    // resulting deferred-gather volume.
    out << " carried_cols=" << profile.carried_columns
        << " materialized=" << profile.materialized_values;
  }
  out << ")";
  if (node.estimated_cardinality >= 1.0 && profile.output_rows > 0) {
    double q = std::max(
        node.estimated_cardinality / static_cast<double>(profile.output_rows),
        static_cast<double>(profile.output_rows) /
            node.estimated_cardinality);
    if (q > 2.0) out << "  <-- q-error " << FormatDouble(q, 3);
  }
  out << "\n";
  if (node.kind == PlanNode::Kind::kJoin) {
    Render(*node.left, query, indexed, result, depth + 1, show_materialization,
           out);
    Render(*node.right, query, indexed, result, depth + 1,
           show_materialization, out);
  }
}

}  // namespace

std::string ExplainAnalyze(const PhysicalPlan& plan,
                           const ExecutionResult& result) {
  LQO_CHECK(plan.root != nullptr);
  LQO_CHECK(plan.query != nullptr);
  const bool has_output = plan.query->HasOutputStage();
  std::vector<std::pair<const PlanNode*, int>> indexed;
  int counter = 0;
  IndexNodes(*plan.root, &counter, &indexed);
  LQO_CHECK_EQ(indexed.size() + (has_output ? 1 : 0),
               result.node_profiles.size())
      << "result does not match plan";

  std::ostringstream out;
  int plan_depth = 0;
  if (has_output) {
    // The output stage sits above the plan root; the executor appends its
    // profile after every plan node's.
    const NodeProfile& sink = result.node_profiles.back();
    out << "Output ";
    const std::vector<OutputExpr>& outputs = plan.query->outputs();
    for (size_t i = 0; i < outputs.size(); ++i) {
      if (i > 0) out << ", ";
      RenderOutputExpr(outputs[i], plan.query, out);
    }
    if (plan.query->has_group_by()) {
      const std::string& alias =
          plan.query->tables()[static_cast<size_t>(
              plan.query->group_by_table())].alias;
      out << " GROUP BY " << alias << "." << plan.query->group_by_column();
    }
    out << "  (rows=" << sink.output_rows
        << " carried_cols=" << sink.carried_columns
        << " materialized=" << sink.materialized_values;
    if (plan.query->has_group_by()) out << " groups=" << sink.groups;
    out << " time=" << FormatDouble(sink.time_units, 4) << ")\n";
    plan_depth = 1;
  }
  Render(*plan.root, plan.query, indexed, result, plan_depth, has_output, out);
  out << "Total: " << result.row_count << " rows, "
      << FormatDouble(result.time_units, 6) << " time units";
  if (has_output) out << ", " << result.output_row_count << " output rows";
  out << "\n";
  return out.str();
}

}  // namespace lqo
