#include "common/error.hpp"
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>

#include "common/rng.hpp"
#include "nn/arena.hpp"
#include "nn/layers.hpp"
#include "nn/optim.hpp"

namespace deepbat::nn {
namespace {

// Minimize f(w) = (w - 3)^2 and check convergence.
template <typename MakeOpt>
void expect_converges_to_three(MakeOpt make_opt, int steps, float tol) {
  Var w = make_leaf(Tensor({1}, {0.0F}), true);
  auto opt = make_opt(std::vector<Var>{w});
  for (int i = 0; i < steps; ++i) {
    opt->zero_grad();
    Var diff = add_scalar(w, -3.0F);
    backward(mul(diff, diff));
    opt->step();
  }
  EXPECT_NEAR(w->value.at(0), 3.0F, tol);
}

/// Weights after `steps` optimizer steps on a fixed quadratic, each step
/// either inside its own arena scope (whose rewound memory the next scope
/// overwrites) or with no scope at all.
template <typename MakeOpt>
std::vector<float> weights_after_steps(MakeOpt make_opt, bool in_scope) {
  Rng rng(5);
  Var w = make_leaf(Tensor::randn({4, 8}, rng, 1.0F), true);
  const Tensor target = Tensor::randn({4, 8}, rng, 1.0F);
  auto opt = make_opt(std::vector<Var>{w});
  for (int step = 0; step < 6; ++step) {
    std::optional<arena::Scope> scope;
    if (in_scope) {
      scope.emplace();
      // Clobber what earlier scopes left behind.
      Tensor junk = Tensor::full({64, 64}, 7.0F);
      (void)junk;
    }
    opt->zero_grad();
    const Var diff = sub(w, make_leaf(target.clone(), false));
    backward(sum_all(mul(diff, diff)));
    opt->step();
  }
  const auto flat = w->value.flat();
  return {flat.begin(), flat.end()};
}

template <typename MakeOpt>
void expect_scope_invariant_steps(MakeOpt make_opt) {
  const auto heap = weights_after_steps(make_opt, false);
  const auto scoped = weights_after_steps(make_opt, true);
  ASSERT_EQ(heap.size(), scoped.size());
  EXPECT_EQ(std::memcmp(heap.data(), scoped.data(),
                        sizeof(float) * heap.size()),
            0);
}

TEST(Adam, StepInsideArenaScopeMatchesHeapStep) {
  expect_scope_invariant_steps(
      [](std::vector<Var> p) { return std::make_unique<Adam>(p, 0.05F); });
}

TEST(Sgd, MomentumStepInsideArenaScopeMatchesHeapStep) {
  expect_scope_invariant_steps([](std::vector<Var> p) {
    return std::make_unique<Sgd>(p, 0.05F, 0.9F);
  });
}

TEST(Sgd, ConvergesOnQuadratic) {
  expect_converges_to_three(
      [](std::vector<Var> p) { return std::make_unique<Sgd>(p, 0.1F); }, 100,
      1e-3F);
}

TEST(Sgd, MomentumConverges) {
  expect_converges_to_three(
      [](std::vector<Var> p) {
        return std::make_unique<Sgd>(p, 0.05F, 0.9F);
      },
      200, 1e-2F);
}

TEST(Adam, ConvergesOnQuadratic) {
  expect_converges_to_three(
      [](std::vector<Var> p) { return std::make_unique<Adam>(p, 0.1F); }, 300,
      1e-2F);
}

TEST(Adam, SingleStepMagnitudeIsLrForLargeGrad) {
  // With bias correction, the first Adam step has magnitude ~lr regardless
  // of gradient scale.
  Var w = make_leaf(Tensor({1}, {0.0F}), true);
  Adam adam({w}, 0.01F);
  backward(scale(w, 1000.0F));
  adam.step();
  EXPECT_NEAR(std::abs(w->value.at(0)), 0.01F, 1e-4F);
}

TEST(Adam, SkipsParamsWithoutGrad) {
  Var a = make_leaf(Tensor({1}, {1.0F}), true);
  Var b = make_leaf(Tensor({1}, {2.0F}), true);
  Adam adam({a, b}, 0.1F);
  backward(mul(a, a));  // only a gets a gradient
  adam.step();
  EXPECT_NE(a->value.at(0), 1.0F);
  EXPECT_EQ(b->value.at(0), 2.0F);
}

TEST(Adam, WeightDecayShrinksWeights) {
  Var w = make_leaf(Tensor({1}, {5.0F}), true);
  Adam adam({w}, 0.1F, 0.9F, 0.999F, 1e-8F, /*weight_decay=*/1.0F);
  for (int i = 0; i < 200; ++i) {
    adam.zero_grad();
    // No data loss: pure decay should pull w toward 0.
    backward(scale(w, 0.0F));
    adam.step();
  }
  EXPECT_LT(std::abs(w->value.at(0)), 0.5F);
}

TEST(Optimizer, RejectsNonTrainableParams) {
  Var c = make_leaf(Tensor({1}, {1.0F}), false);
  EXPECT_THROW(Sgd({c}, 0.1F), Error);
}

TEST(Optimizer, ClipGradNormScalesDown) {
  Var w = make_leaf(Tensor({2}, {0.0F, 0.0F}), true);
  Sgd opt({w}, 1.0F);
  backward(sum_all(scale(w, 30.0F)));  // grad = [30, 30], norm ~42.4
  const double pre = opt.clip_grad_norm(1.0);
  EXPECT_NEAR(pre, std::sqrt(2.0) * 30.0, 1e-6);
  double post_sq = 0.0;
  for (float g : w->grad.flat()) post_sq += g * g;
  EXPECT_NEAR(std::sqrt(post_sq), 1.0, 1e-5);
}

TEST(Optimizer, ZeroGradClearsAll) {
  Var w = make_leaf(Tensor({1}, {1.0F}), true);
  Sgd opt({w}, 0.1F);
  backward(mul(w, w));
  EXPECT_TRUE(w->has_grad);
  opt.zero_grad();
  EXPECT_FALSE(w->has_grad);
}

TEST(Training, LinearRegressionRecoverasGroundTruth) {
  // y = 2 x0 - x1 + 0.5, learned from noisy samples.
  Rng rng(42);
  Linear model(2, 1, rng);
  Adam adam(model.parameters(), 0.05F);
  for (int step = 0; step < 400; ++step) {
    const std::int64_t n = 32;
    Tensor xs({n, 2});
    Tensor ys({n, 1});
    for (std::int64_t i = 0; i < n; ++i) {
      const float x0 = static_cast<float>(rng.uniform(-1.0, 1.0));
      const float x1 = static_cast<float>(rng.uniform(-1.0, 1.0));
      xs.at(i, 0) = x0;
      xs.at(i, 1) = x1;
      ys.at(i, 0) =
          2.0F * x0 - x1 + 0.5F + static_cast<float>(rng.normal(0.0, 0.01));
    }
    adam.zero_grad();
    Var pred = model.forward(make_leaf(std::move(xs), false));
    Var diff = sub(pred, make_leaf(std::move(ys), false));
    backward(mean_all(mul(diff, diff)));
    adam.step();
  }
  const auto named = model.named_parameters();
  const Tensor& w = named[0].second->value;
  const Tensor& b = named[1].second->value;
  EXPECT_NEAR(w.at(0, 0), 2.0F, 0.05F);
  EXPECT_NEAR(w.at(1, 0), -1.0F, 0.05F);
  EXPECT_NEAR(b.at(0), 0.5F, 0.05F);
}

}  // namespace
}  // namespace deepbat::nn
