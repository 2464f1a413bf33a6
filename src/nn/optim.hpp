#pragma once
// First-order optimizers. Both operate on the parameter Vars returned by
// Module::parameters(). Their state (one tensor per parameter, aligned with
// params()) is allocated on the heap in the constructor, so a step taken
// inside an arena::Scope never leaves it in rewound arena memory.

#include <vector>

#include "nn/autograd.hpp"

namespace deepbat::nn {

class Optimizer {
 public:
  explicit Optimizer(std::vector<Var> params);
  virtual ~Optimizer() = default;

  /// Apply one update from the accumulated gradients.
  virtual void step() = 0;

  /// Clear gradients of all managed parameters.
  void zero_grad();

  /// Global L2 gradient-norm clipping; returns the pre-clip norm.
  double clip_grad_norm(double max_norm);

  const std::vector<Var>& params() const { return params_; }

 protected:
  std::vector<Var> params_;
};

/// Plain SGD with optional momentum.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<Var> params, float lr, float momentum = 0.0F);

  void step() override;

  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }

 private:
  float lr_;
  float momentum_;
  std::vector<Tensor> velocity_;  // empty without momentum
};

/// Adam (Kingma & Ba) — the paper trains with Adam, lr = 1e-3.
class Adam : public Optimizer {
 public:
  Adam(std::vector<Var> params, float lr = 1e-3F, float beta1 = 0.9F,
       float beta2 = 0.999F, float eps = 1e-8F, float weight_decay = 0.0F);

  void step() override;

  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }
  std::int64_t step_count() const { return t_; }

 private:
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  float weight_decay_;
  std::int64_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace deepbat::nn
