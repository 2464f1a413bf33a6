#include "nn/optim.hpp"

#include <cmath>

#include "common/error.hpp"
#include "nn/arena.hpp"

namespace deepbat::nn {

namespace {

/// Zero state tensors shaped like `params`, on the heap whatever arena
/// scope the caller is in.
std::vector<Tensor> zeros_like(const std::vector<Var>& params) {
  arena::Pause heap_alloc;
  std::vector<Tensor> out;
  out.reserve(params.size());
  for (const auto& p : params) out.push_back(Tensor::zeros(p->value.shape()));
  return out;
}

}  // namespace

Optimizer::Optimizer(std::vector<Var> params) : params_(std::move(params)) {
  for (const auto& p : params_) {
    DEEPBAT_CHECK(p && p->requires_grad,
                  "Optimizer: parameter must require gradients");
  }
}

void Optimizer::zero_grad() {
  for (const auto& p : params_) p->zero_grad();
}

double Optimizer::clip_grad_norm(double max_norm) {
  double total_sq = 0.0;
  for (const auto& p : params_) {
    if (!p->has_grad) continue;
    for (float g : p->grad.flat()) {
      total_sq += static_cast<double>(g) * static_cast<double>(g);
    }
  }
  const double norm = std::sqrt(total_sq);
  if (norm > max_norm && norm > 0.0) {
    const auto scale = static_cast<float>(max_norm / norm);
    for (const auto& p : params_) {
      if (p->has_grad) p->grad.scale_inplace(scale);
    }
  }
  return norm;
}

Sgd::Sgd(std::vector<Var> params, float lr, float momentum)
    : Optimizer(std::move(params)), lr_(lr), momentum_(momentum) {
  if (momentum_ > 0.0F) velocity_ = zeros_like(params_);
}

void Sgd::step() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const Var& p = params_[i];
    if (!p->has_grad) continue;
    if (momentum_ > 0.0F) {
      Tensor& vel = velocity_[i];
      vel.scale_inplace(momentum_);
      vel.add_inplace(p->grad);
      p->value.add_inplace(vel, -lr_);
    } else {
      p->value.add_inplace(p->grad, -lr_);
    }
  }
}

Adam::Adam(std::vector<Var> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay),
      m_(zeros_like(params_)),
      v_(zeros_like(params_)) {}

void Adam::step() {
  ++t_;
  const auto t = static_cast<float>(t_);
  const float bias1 = 1.0F - std::pow(beta1_, t);
  const float bias2 = 1.0F - std::pow(beta2_, t);
  for (std::size_t pi = 0; pi < params_.size(); ++pi) {
    const Var& p = params_[pi];
    if (!p->has_grad) continue;
    float* m = m_[pi].data();
    float* v = v_[pi].data();
    float* w = p->value.data();
    const float* g = p->grad.data();
    const std::int64_t n = p->value.numel();
    for (std::int64_t i = 0; i < n; ++i) {
      float grad = g[i] + weight_decay_ * w[i];
      m[i] = beta1_ * m[i] + (1.0F - beta1_) * grad;
      v[i] = beta2_ * v[i] + (1.0F - beta2_) * grad * grad;
      const float mhat = m[i] / bias1;
      const float vhat = v[i] / bias2;
      w[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

}  // namespace deepbat::nn
