#include "ml/mlp.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stats_util.h"
#include "common/thread_pool.h"

namespace lqo {

double Sigmoid(double x) {
  if (x >= 0) {
    double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  double e = std::exp(x);
  return e / (1.0 + e);
}

void Mlp::InitNetwork(size_t input_dim) {
  layers_.clear();
  Rng rng(options_.seed);
  std::vector<int> dims;
  dims.push_back(static_cast<int>(input_dim));
  for (int h : options_.hidden_layers) dims.push_back(h);
  dims.push_back(1);

  for (size_t l = 0; l + 1 < dims.size(); ++l) {
    Layer layer;
    layer.in = dims[l];
    layer.out = dims[l + 1];
    size_t w_size = static_cast<size_t>(layer.in) * static_cast<size_t>(layer.out);
    layer.w.resize(w_size);
    // He initialization for ReLU nets.
    double scale = std::sqrt(2.0 / static_cast<double>(layer.in));
    for (double& w : layer.w) w = rng.Gaussian(0.0, scale);
    layer.b.assign(static_cast<size_t>(layer.out), 0.0);
    layer.mw.assign(w_size, 0.0);
    layer.vw.assign(w_size, 0.0);
    layer.mb.assign(static_cast<size_t>(layer.out), 0.0);
    layer.vb.assign(static_cast<size_t>(layer.out), 0.0);
    layers_.push_back(std::move(layer));
  }
  adam_t_ = 0;
}

double Mlp::Forward(const std::vector<double>& x,
                    std::vector<std::vector<double>>* zs,
                    std::vector<std::vector<double>>* as) const {
  std::vector<double> activation = x;
  if (zs != nullptr) {
    zs->clear();
    as->clear();
    as->push_back(activation);
  }
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    LQO_CHECK_EQ(activation.size(), static_cast<size_t>(layer.in));
    std::vector<double> z(static_cast<size_t>(layer.out), 0.0);
    for (int o = 0; o < layer.out; ++o) {
      double v = layer.b[static_cast<size_t>(o)];
      const double* wrow = &layer.w[static_cast<size_t>(o) *
                                    static_cast<size_t>(layer.in)];
      for (int i = 0; i < layer.in; ++i) {
        v += wrow[i] * activation[static_cast<size_t>(i)];
      }
      z[static_cast<size_t>(o)] = v;
    }
    bool last = (l + 1 == layers_.size());
    std::vector<double> a = z;
    if (!last) {
      for (double& v : a) v = std::max(0.0, v);  // ReLU
    }
    if (zs != nullptr) {
      zs->push_back(z);
      as->push_back(a);
    }
    activation = std::move(a);
  }
  return activation[0];
}

void Mlp::Backward(double g, const std::vector<std::vector<double>>& zs,
                   const std::vector<std::vector<double>>& as,
                   std::vector<Layer>* grads) const {
  // delta holds dL/dz for the current layer, starting at the output.
  std::vector<double> delta = {g};
  for (size_t li = layers_.size(); li > 0; --li) {
    size_t l = li - 1;
    const Layer& layer = layers_[l];
    Layer& grad = (*grads)[l];
    const std::vector<double>& input = as[l];
    for (int o = 0; o < layer.out; ++o) {
      double d = delta[static_cast<size_t>(o)];
      grad.b[static_cast<size_t>(o)] += d;
      double* grow = &grad.w[static_cast<size_t>(o) *
                             static_cast<size_t>(layer.in)];
      for (int i = 0; i < layer.in; ++i) {
        grow[i] += d * input[static_cast<size_t>(i)];
      }
    }
    if (l == 0) break;
    // Propagate to previous layer through W and the ReLU mask.
    std::vector<double> prev(static_cast<size_t>(layer.in), 0.0);
    for (int o = 0; o < layer.out; ++o) {
      double d = delta[static_cast<size_t>(o)];
      const double* wrow = &layer.w[static_cast<size_t>(o) *
                                    static_cast<size_t>(layer.in)];
      for (int i = 0; i < layer.in; ++i) {
        prev[static_cast<size_t>(i)] += wrow[i] * d;
      }
    }
    const std::vector<double>& z_prev = zs[l - 1];
    for (size_t i = 0; i < prev.size(); ++i) {
      if (z_prev[i] <= 0.0) prev[i] = 0.0;
    }
    delta = std::move(prev);
  }
}

void Mlp::AdamStep(const std::vector<Layer>& grads, double batch_scale) {
  constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8;
  ++adam_t_;
  double bias1 = 1.0 - std::pow(kBeta1, adam_t_);
  double bias2 = 1.0 - std::pow(kBeta2, adam_t_);
  for (size_t l = 0; l < layers_.size(); ++l) {
    Layer& layer = layers_[l];
    const Layer& grad = grads[l];
    auto update = [&](std::vector<double>& param, const std::vector<double>& g,
                      std::vector<double>& m, std::vector<double>& v) {
      for (size_t i = 0; i < param.size(); ++i) {
        double gi = g[i] * batch_scale + options_.l2 * param[i];
        m[i] = kBeta1 * m[i] + (1 - kBeta1) * gi;
        v[i] = kBeta2 * v[i] + (1 - kBeta2) * gi * gi;
        double mhat = m[i] / bias1;
        double vhat = v[i] / bias2;
        param[i] -= options_.learning_rate * mhat / (std::sqrt(vhat) + kEps);
      }
    };
    update(layer.w, grad.w, layer.mw, layer.vw);
    update(layer.b, grad.b, layer.mb, layer.vb);
  }
}

void Mlp::Fit(const std::vector<std::vector<double>>& rows,
              const std::vector<double>& targets) {
  LQO_CHECK(!rows.empty());
  LQO_CHECK_EQ(rows.size(), targets.size());
  input_standardizer_.Fit(rows);
  std::vector<std::vector<double>> x;
  x.reserve(rows.size());
  for (const auto& r : rows) x.push_back(input_standardizer_.Transform(r));

  std::vector<double> y = targets;
  if (options_.loss == MlpOptions::Loss::kSquared) {
    target_mean_ = Mean(y);
    target_std_ = StdDev(y);
    if (target_std_ < 1e-12) target_std_ = 1.0;
    for (double& v : y) v = (v - target_mean_) / target_std_;
  } else {
    target_mean_ = 0.0;
    target_std_ = 1.0;
  }

  InitNetwork(x[0].size());
  Rng rng(options_.seed + 1);
  std::vector<size_t> order(x.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  std::vector<Layer> grads = layers_;  // same shapes; values reset per batch.
  auto zero_grads = [&]() {
    for (Layer& g : grads) {
      std::fill(g.w.begin(), g.w.end(), 0.0);
      std::fill(g.b.begin(), g.b.end(), 0.0);
    }
  };

  std::vector<std::vector<double>> zs, as;
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t start = 0; start < order.size();
         start += static_cast<size_t>(options_.batch_size)) {
      size_t end = std::min(order.size(),
                            start + static_cast<size_t>(options_.batch_size));
      zero_grads();
      for (size_t i = start; i < end; ++i) {
        size_t row = order[i];
        double out = Forward(x[row], &zs, &as);
        double g;
        if (options_.loss == MlpOptions::Loss::kSquared) {
          g = out - y[row];
        } else {
          g = Sigmoid(out) - y[row];
        }
        Backward(g, zs, as, &grads);
      }
      AdamStep(grads, 1.0 / static_cast<double>(end - start));
    }
  }
  fitted_ = true;
}

void Mlp::ForwardBlock(const FeatureMatrix& x, size_t begin, size_t end,
                       double* out) const {
  size_t n = end - begin;
  size_t max_dim = input_standardizer_.num_features();
  for (const Layer& layer : layers_) {
    max_dim = std::max(max_dim, static_cast<size_t>(layer.out));
  }

  // Two ping-pong activation buffers in COLUMN-major block layout:
  // cur[i * n + r] is feature i of block row r. Each weight w[o][i] then
  // multiplies a contiguous run of n rows, which the compiler turns into
  // SIMD fma over the block — while each row's dot product still
  // accumulates in ascending input order, exactly the scalar Forward's
  // floating-point order, so batch == scalar bit for bit.
  std::vector<double> buf_a(n * max_dim);
  std::vector<double> buf_b(n * max_dim);
  double* cur = buf_a.data();
  double* next = buf_b.data();

  // Standardize + clamp each input row (the same extrapolation guard
  // Predict applies), scattered into the column-major block.
  size_t in_dim = input_standardizer_.num_features();
  std::vector<double> row_scratch(in_dim);
  for (size_t r = 0; r < n; ++r) {
    input_standardizer_.TransformInto(x.Row(begin + r), row_scratch.data());
    for (size_t j = 0; j < in_dim; ++j) {
      cur[j * n + r] = std::clamp(row_scratch[j], -5.0, 5.0);
    }
  }

  for (size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    bool last = (l + 1 == layers_.size());
    for (int o = 0; o < layer.out; ++o) {
      double* z = next + static_cast<size_t>(o) * n;
      double bias = layer.b[static_cast<size_t>(o)];
      for (size_t r = 0; r < n; ++r) z[r] = bias;
      const double* wrow = &layer.w[static_cast<size_t>(o) *
                                    static_cast<size_t>(layer.in)];
      for (int i = 0; i < layer.in; ++i) {
        double w = wrow[i];
        const double* act = cur + static_cast<size_t>(i) * n;
        for (size_t r = 0; r < n; ++r) z[r] += w * act[r];
      }
      if (!last) {
        for (size_t r = 0; r < n; ++r) z[r] = std::max(0.0, z[r]);  // ReLU
      }
    }
    std::swap(cur, next);
  }

  // The output layer has a single unit, so its column is the block's
  // prediction vector.
  for (size_t r = 0; r < n; ++r) {
    out[r] = cur[r] * target_std_ + target_mean_;
  }
}

void Mlp::PredictBatch(const FeatureMatrix& x, std::span<double> out) const {
  LQO_CHECK(fitted_);
  LQO_CHECK_EQ(x.rows(), out.size());
  if (x.empty()) return;
  ScopedInferenceTimer timer(&inference_, x.rows());

  constexpr size_t kMorselRows = 128;
  size_t morsels = (x.rows() + kMorselRows - 1) / kMorselRows;
  auto run_morsel = [&](size_t m) {
    size_t begin = m * kMorselRows;
    size_t end = std::min(x.rows(), begin + kMorselRows);
    ForwardBlock(x, begin, end, out.data() + begin);
  };
  if (morsels <= 1) {
    run_morsel(0);
  } else {
    ParallelFor(morsels, run_morsel);
  }
}

double Mlp::Predict(const std::vector<double>& row) const {
  LQO_CHECK(fitted_);
  std::vector<double> x = input_standardizer_.Transform(row);
  // Bound extrapolation: inputs far outside the training distribution are
  // clamped so the network saturates instead of predicting wildly (the
  // same conservatism tree ensembles get for free from their leaves).
  for (double& v : x) v = std::clamp(v, -5.0, 5.0);
  double out = Forward(x, nullptr, nullptr);
  return out * target_std_ + target_mean_;
}

double Mlp::PredictProba(const std::vector<double>& row) const {
  return Sigmoid(Predict(row));
}

}  // namespace lqo
