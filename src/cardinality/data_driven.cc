#include "cardinality/data_driven.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <set>

#include "cardinality/ar_model.h"
#include "cardinality/bayes_net_model.h"
#include "cardinality/kde_model.h"
#include "cardinality/sample_model.h"
#include "cardinality/sketch_model.h"
#include "cardinality/spn_model.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace lqo {

const char* TableModelKindName(TableModelKind kind) {
  switch (kind) {
    case TableModelKind::kSample:
      return "sample";
    case TableModelKind::kKde:
      return "kde";
    case TableModelKind::kBayesNet:
      return "bayesnet";
    case TableModelKind::kSpn:
      return "spn";
    case TableModelKind::kAr:
      return "ar";
    case TableModelKind::kIamAr:
      return "iam_ar";
    case TableModelKind::kSketch:
      return "sketch";
  }
  return "unknown";
}

DataDrivenEstimator::DataDrivenEstimator(std::string name,
                                         const Catalog* catalog,
                                         const StatsCatalog* stats,
                                         JoinCombineMode mode,
                                         DataDrivenOptions options)
    : name_(std::move(name)),
      catalog_(catalog),
      stats_(stats),
      mode_(mode),
      options_(options) {
  LQO_CHECK(catalog_ != nullptr);
  LQO_CHECK(stats_ != nullptr);
  SetUniformModelKind(TableModelKind::kSpn);
}

void DataDrivenEstimator::SetUniformModelKind(TableModelKind kind) {
  LQO_CHECK(!built_);
  for (const std::string& table : catalog_->table_names()) {
    kind_of_table_[table] = kind;
  }
}

void DataDrivenEstimator::SetModelKind(const std::string& table,
                                       TableModelKind kind) {
  LQO_CHECK(!built_);
  LQO_CHECK(catalog_->HasTable(table));
  kind_of_table_[table] = kind;
}

std::unique_ptr<SingleTableDistribution> DataDrivenEstimator::MakeModel(
    const std::string& table, TableModelKind kind) const {
  const Table* t = *catalog_->GetTable(table);
  const TableStatistics& stats = stats_->Of(table);
  std::vector<size_t> sample = stats.sample_rows;
  switch (kind) {
    case TableModelKind::kSample:
      return std::make_unique<SampleTableModel>(t, sample);
    case TableModelKind::kKde:
      return std::make_unique<KdeTableModel>(t, sample);
    case TableModelKind::kBayesNet:
      return std::make_unique<BayesNetTableModel>(t, options_.max_bins);
    case TableModelKind::kSpn: {
      SpnOptions spn_options;
      spn_options.max_bins = options_.max_bins;
      spn_options.seed = options_.seed;
      return std::make_unique<SpnTableModel>(t, spn_options);
    }
    case TableModelKind::kAr:
      return std::make_unique<ArTableModel>(t, options_.max_bins,
                                            options_.ar_samples,
                                            options_.seed + 7);
    case TableModelKind::kIamAr:
      return std::make_unique<ArTableModel>(t, options_.max_bins,
                                            options_.ar_samples,
                                            options_.seed + 7,
                                            /*gmm_binning=*/true);
    case TableModelKind::kSketch:
      return std::make_unique<SketchTableModel>(t);
  }
  return nullptr;
}

void DataDrivenEstimator::BuildSchemaKeyGroups() {
  // Union-find over "table.column" endpoints of the schema join edges.
  std::map<std::string, std::string> parent;
  std::function<std::string(const std::string&)> find =
      [&](const std::string& x) -> std::string {
    auto it = parent.find(x);
    if (it == parent.end() || it->second == x) return x;
    return it->second = find(it->second);
  };
  auto unite = [&](const std::string& a, const std::string& b) {
    std::string ra = find(a), rb = find(b);
    if (ra != rb) parent[ra] = rb;
  };
  for (const JoinEdge& e : catalog_->join_edges()) {
    std::string a = e.left_table + "." + e.left_column;
    std::string b = e.right_table + "." + e.right_column;
    if (parent.find(a) == parent.end()) parent[a] = a;
    if (parent.find(b) == parent.end()) parent[b] = b;
    unite(a, b);
  }

  std::map<std::string, size_t> group_index;
  for (const auto& [column, unused] : parent) {
    std::string root = find(column);
    if (group_index.find(root) == group_index.end()) {
      group_index[root] = key_groups_.size();
      key_groups_.emplace_back();
    }
    group_of_column_[column] = group_index[root];
  }

  // Per group: members, buckets from the joint min/max, and exact distinct
  // counts per bucket.
  std::vector<int64_t> group_min(key_groups_.size(),
                                 std::numeric_limits<int64_t>::max());
  std::vector<int64_t> group_max(key_groups_.size(),
                                 std::numeric_limits<int64_t>::min());
  for (const auto& [column, group] : group_of_column_) {
    size_t dot = column.find('.');
    std::string table = column.substr(0, dot);
    std::string col = column.substr(dot + 1);
    const ColumnStats& cs = stats_->Of(table).ColumnStatsOf(col);
    group_min[group] = std::min(group_min[group], cs.min_value);
    group_max[group] = std::max(group_max[group], cs.max_value);
    // Keep the first column per table (schemas here never join two columns
    // of one table into the same group).
    key_groups_[group].column_of_table.emplace(table, col);
  }
  for (size_t g = 0; g < key_groups_.size(); ++g) {
    key_groups_[g].buckets =
        KeyBuckets(group_min[g], group_max[g], options_.key_buckets);
    for (const auto& [table, col] : key_groups_[g].column_of_table) {
      const Table& t = **catalog_->GetTable(table);
      const Column& column = t.column(t.ColumnIndex(col).value());
      std::vector<std::set<int64_t>> distinct(
          static_cast<size_t>(options_.key_buckets));
      for (int64_t v : column.data) {
        distinct[static_cast<size_t>(key_groups_[g].buckets.BucketOf(v))]
            .insert(v);
      }
      std::vector<double> counts(distinct.size());
      for (size_t b = 0; b < distinct.size(); ++b) {
        counts[b] = static_cast<double>(distinct[b].size());
      }
      key_groups_[g].distinct_per_bucket[table] = std::move(counts);
    }
  }
}

void DataDrivenEstimator::Build() {
  LQO_CHECK(!built_);
  // Per-table models are independent fits; train them as index-addressed
  // tasks and insert in table order so the map is built deterministically.
  std::vector<std::string> tables = catalog_->table_names();
  std::vector<std::unique_ptr<SingleTableDistribution>> built =
      ParallelMap(tables.size(), [&](size_t i) {
        return MakeModel(tables[i], kind_of_table_.at(tables[i]));
      });
  for (size_t i = 0; i < tables.size(); ++i) {
    models_[tables[i]] = std::move(built[i]);
  }
  BuildSchemaKeyGroups();
  built_ = true;
}

double DataDrivenEstimator::EstimateSubquery(const Subquery& subquery) {
  LQO_CHECK(built_) << name_ << " used before Build()";
  const Query& query = *subquery.query;

  // Filtered per-table cardinalities from the models.
  std::map<int, double> filtered_rows;  // query table index -> rows
  for (int t = 0; t < query.num_tables(); ++t) {
    if (!ContainsTable(subquery.tables, t)) continue;
    const std::string& table =
        query.tables()[static_cast<size_t>(t)].table_name;
    double selectivity =
        std::max(models_.at(table)->Selectivity(query, t), 1e-9);
    filtered_rows[t] =
        selectivity * static_cast<double>(stats_->Of(table).row_count);
  }

  // Union-find the induced joins into query-level key groups.
  std::vector<QueryJoin> joins = query.JoinsWithin(subquery.tables);
  if (joins.empty()) {
    LQO_CHECK_EQ(filtered_rows.size(), 1u);
    return std::max(filtered_rows.begin()->second, 1.0);
  }
  std::map<std::pair<int, std::string>, std::pair<int, std::string>> parent;
  std::function<std::pair<int, std::string>(std::pair<int, std::string>)>
      find = [&](std::pair<int, std::string> x) {
        auto it = parent.find(x);
        if (it == parent.end() || it->second == x) return x;
        return it->second = find(it->second);
      };
  for (const QueryJoin& j : joins) {
    std::pair<int, std::string> a{j.left_table, j.left_column};
    std::pair<int, std::string> b{j.right_table, j.right_column};
    if (parent.find(a) == parent.end()) parent[a] = a;
    if (parent.find(b) == parent.end()) parent[b] = b;
    auto ra = find(a), rb = find(b);
    if (ra != rb) parent[ra] = rb;
  }
  // Group members: root -> list of (table index, column).
  std::map<std::pair<int, std::string>,
           std::vector<std::pair<int, std::string>>>
      groups;
  for (const auto& [endpoint, unused] : parent) {
    groups[find(endpoint)].push_back(endpoint);
  }

  std::map<int, int> gamma;  // table index -> number of groups containing it
  double log_estimate = 0.0;

  for (const auto& [root, members] : groups) {
    // Deduplicate tables within the group.
    std::map<int, std::string> column_of_table;
    for (const auto& [t, col] : members) column_of_table.emplace(t, col);
    size_t k = column_of_table.size();
    if (k < 2) continue;
    for (const auto& [t, col] : column_of_table) ++gamma[t];

    double group_estimate = 0.0;
    if (mode_ == JoinCombineMode::kIndependence) {
      double max_ndv = 1.0;
      double product = 1.0;
      for (const auto& [t, col] : column_of_table) {
        const std::string& table =
            query.tables()[static_cast<size_t>(t)].table_name;
        max_ndv = std::max(
            max_ndv, static_cast<double>(
                         stats_->Of(table).ColumnStatsOf(col).num_distinct));
        product *= filtered_rows.at(t);
      }
      group_estimate =
          product / std::pow(max_ndv, static_cast<double>(k - 1));
    } else {
      // Key-bucket combine. All member columns share one schema group.
      const auto& [t0, col0] = *column_of_table.begin();
      const std::string& table0 =
          query.tables()[static_cast<size_t>(t0)].table_name;
      size_t schema_group = group_of_column_.at(table0 + "." + col0);
      const SchemaKeyGroup& group = key_groups_[schema_group];
      int num_buckets = group.buckets.num_buckets();

      std::vector<std::vector<double>> masses;
      std::vector<const std::vector<double>*> distincts;
      for (const auto& [t, col] : column_of_table) {
        const std::string& table =
            query.tables()[static_cast<size_t>(t)].table_name;
        masses.push_back(models_.at(table)->FilteredKeyHistogram(
            query, t, col, group.buckets));
        distincts.push_back(&group.distinct_per_bucket.at(table));
      }
      for (int b = 0; b < num_buckets; ++b) {
        double product = 1.0;
        double max_distinct = 1.0;
        for (size_t m = 0; m < masses.size(); ++m) {
          product *= std::max(masses[m][static_cast<size_t>(b)], 0.0);
          max_distinct = std::max(
              max_distinct, (*distincts[m])[static_cast<size_t>(b)]);
        }
        if (product <= 0.0) continue;
        group_estimate +=
            product / std::pow(max_distinct, static_cast<double>(k - 1));
      }
    }
    log_estimate += std::log(std::max(group_estimate, 1e-9));
  }

  for (const auto& [t, rows] : filtered_rows) {
    int g = gamma.count(t) > 0 ? gamma.at(t) : 0;
    log_estimate +=
        (1.0 - static_cast<double>(g)) * std::log(std::max(rows, 1e-9));
  }
  double estimate = std::exp(std::min(log_estimate, 60.0));
  return std::max(estimate, 1.0);
}

}  // namespace lqo
