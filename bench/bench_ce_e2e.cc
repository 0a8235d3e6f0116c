// E3 — reproduces the *end-to-end* CE evaluation of Han et al. [12]: each
// estimator's cardinalities are injected into the same cost-based
// optimizer (the PilotScope batch-injection path), the chosen plans are
// executed, and total/tail workload latency is compared against the native
// histogram baseline and the true-cardinality oracle.

#include <cstdio>

#include "benchlib/lab.h"
#include "cardinality/perror.h"
#include "cardinality/registry.h"
#include "cardinality/training_data.h"
#include "common/stats_util.h"
#include "common/str_util.h"
#include "common/table_printer.h"

namespace lqo {
namespace {

struct InjectionResult {
  double total_time = 0.0;
  double p99 = 0.0;
  std::vector<double> times;
};

InjectionResult RunWithEstimator(Lab& lab, const Workload& workload,
                                 CardinalityEstimatorInterface* estimator) {
  InjectionResult result;
  for (const Query& query : workload.queries) {
    CardinalityProvider provider(lab.estimator.get());
    // Batch injection: override every sub-query the optimizer will ask for
    // from one estimator batch, exactly as the PilotScope CE driver does.
    std::vector<Subquery> subqueries;
    for (TableSet set : ConnectedSubsets(query)) {
      subqueries.push_back(Subquery{&query, set});
    }
    std::vector<double> estimates =
        estimator->EstimateSubqueryBatch(subqueries);
    for (size_t i = 0; i < subqueries.size(); ++i) {
      provider.InjectOverride(subqueries[i].Key(), estimates[i]);
    }
    PhysicalPlan plan = lab.optimizer->Optimize(query, &provider).plan;
    auto exec = lab.executor->Execute(plan);
    LQO_CHECK(exec.ok());
    result.times.push_back(exec->time_units);
    result.total_time += exec->time_units;
  }
  result.p99 = Quantile(result.times, 0.99);
  return result;
}

/// Oracle estimator (exact cardinalities) to bound achievable quality.
class OracleEstimator : public CardinalityEstimatorInterface {
 public:
  explicit OracleEstimator(TrueCardinalityService* truth) : truth_(truth) {}
  double EstimateSubquery(const Subquery& subquery) override {
    return static_cast<double>(truth_->Cardinality(subquery));
  }
  std::string Name() const override { return "true_cardinality"; }

 private:
  TrueCardinalityService* truth_;
};

void Run() {
  std::printf("== E3: end-to-end plan quality with injected cardinalities "
              "(dataset: stats_lite) ==\n\n");
  auto lab = MakeLab("stats_lite", 0.1);

  WorkloadOptions wopts;
  wopts.num_queries = 50;
  wopts.min_tables = 2;
  wopts.max_tables = 4;
  wopts.seed = 31;
  Workload train = GenerateWorkload(lab->catalog, wopts);
  wopts.seed = 32;
  wopts.num_queries = 30;
  Workload test = GenerateWorkload(lab->catalog, wopts);

  CeTrainingData training =
      BuildCeTrainingData(lab->catalog, lab->stats, train, lab->truth.get());

  OracleEstimator oracle(lab->truth.get());
  InjectionResult oracle_result = RunWithEstimator(*lab, test, &oracle);
  InjectionResult baseline_result =
      RunWithEstimator(*lab, test, lab->estimator.get());

  PErrorEvaluator perror(lab->optimizer.get(), lab->cost_model.get(),
                         lab->truth.get());
  TablePrinter table({"Estimator", "Total time", "vs baseline", "vs oracle",
                      "p99 latency", "P-error p90"});
  auto add_row = [&](const std::string& name, const InjectionResult& r,
                     CardinalityEstimatorInterface* estimator) {
    std::string perror_cell = "1 (def.)";
    if (estimator != nullptr) {
      perror_cell =
          FormatDouble(Quantile(perror.Evaluate(test, estimator), 0.9), 4);
    }
    table.AddRow({name, FormatDouble(r.total_time, 6),
                  FormatDouble(r.total_time / baseline_result.total_time, 4),
                  FormatDouble(r.total_time / oracle_result.total_time, 4),
                  FormatDouble(r.p99, 5), perror_cell});
  };
  add_row("true_cardinality (oracle)", oracle_result, nullptr);
  add_row("postgres_baseline (native)", baseline_result,
          lab->estimator.get());

  EstimatorSuiteOptions options;
  std::vector<RegisteredEstimator> suite =
      MakeEstimatorSuite(lab->catalog, lab->stats, training, options);
  for (RegisteredEstimator& entry : suite) {
    if (entry.estimator->Name() == "histogram") continue;  // == baseline.
    add_row(entry.estimator->Name(),
            RunWithEstimator(*lab, test, entry.estimator.get()),
            entry.estimator.get());
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Expected shape (Han et al. [12]): injection of accurate learned\n"
      "cardinalities closes most of the gap to the oracle; better q-error\n"
      "generally, but not monotonically, yields better plans.\n");
}

}  // namespace
}  // namespace lqo

int main() {
  lqo::Run();
  return 0;
}
