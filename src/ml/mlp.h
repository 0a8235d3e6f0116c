#ifndef LQO_ML_MLP_H_
#define LQO_ML_MLP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.h"
#include "ml/inference_stats.h"

namespace lqo {

/// Options for the multi-layer perceptron.
struct MlpOptions {
  std::vector<int> hidden_layers = {64, 32};
  int epochs = 150;
  int batch_size = 32;
  double learning_rate = 1e-3;
  double l2 = 1e-5;
  uint64_t seed = 31;
  /// kSquared: regression on (standardized) targets. kLogistic: binary
  /// classification with 0/1 targets; Predict returns the logit.
  enum class Loss { kSquared, kLogistic };
  Loss loss = Loss::kSquared;
};

/// A fully connected ReLU network with a scalar linear output, trained with
/// Adam. Stands in for the DNN components of MSCN [23], Neo's and Bao's
/// tree-convolution value networks [37,38] and HyperQO's multi-head latency
/// model [72]. (Lero's pairwise comparator is PairwiseRiskModel's GBDT
/// scorer in src/e2e.)
class Mlp {
 public:
  explicit Mlp(MlpOptions options = MlpOptions()) : options_(options) {}

  /// Supervised fit. Inputs are standardized internally; squared-loss
  /// targets are standardized too (undone at prediction time).
  void Fit(const std::vector<std::vector<double>>& rows,
           const std::vector<double>& targets);

  /// Regression value (logit for kLogistic).
  double Predict(const std::vector<double>& row) const;

  /// sigmoid(Predict) — probability for kLogistic models.
  double PredictProba(const std::vector<double>& row) const;

  /// Batch prediction over all rows of `x`, bit-for-bit identical to
  /// per-row Predict. Morsel-parallel; each morsel runs a blocked
  /// row-major forward pass that reuses two preallocated activation
  /// buffers across its rows (no per-row allocation), with every row's
  /// dot products in the scalar loop's i-ascending order.
  void PredictBatch(const FeatureMatrix& x, std::span<double> out) const;

  /// Batched-inference counters (rows scored via PredictBatch).
  InferenceStatsSnapshot Stats() const { return inference_.Snapshot(); }

  bool fitted() const { return fitted_; }

 private:
  struct Layer {
    int in = 0;
    int out = 0;
    std::vector<double> w;  // row-major out x in
    std::vector<double> b;
    // Adam state.
    std::vector<double> mw, vw, mb, vb;
  };

  void InitNetwork(size_t input_dim);
  /// Forward pass; fills per-layer pre-activations (z) and activations (a).
  double Forward(const std::vector<double>& x,
                 std::vector<std::vector<double>>* zs,
                 std::vector<std::vector<double>>* as) const;
  /// Backprop of dL/d(output)=g into grad accumulators.
  void Backward(double g, const std::vector<std::vector<double>>& zs,
                const std::vector<std::vector<double>>& as,
                std::vector<Layer>* grads) const;
  void AdamStep(const std::vector<Layer>& grads, double batch_scale);
  /// Blocked forward kernel over rows [begin, end), writing out[i - begin].
  void ForwardBlock(const FeatureMatrix& x, size_t begin, size_t end,
                    double* out) const;

  MlpOptions options_;
  std::vector<Layer> layers_;
  Standardizer input_standardizer_;
  double target_mean_ = 0.0;
  double target_std_ = 1.0;
  bool fitted_ = false;
  int adam_t_ = 0;
  mutable InferenceCounters inference_;
};

/// Numerically stable logistic sigmoid.
double Sigmoid(double x);

}  // namespace lqo

#endif  // LQO_ML_MLP_H_
