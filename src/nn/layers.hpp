#pragma once
// Basic layers: Linear (with Kaiming/Xavier init), LayerNorm, Dropout, and a
// two-layer feed-forward block (Linear -> ReLU -> Linear), the building
// blocks of the surrogate model in Fig. 3 of the paper.

#include "common/rng.hpp"
#include "nn/module.hpp"
#include "nn/ops.hpp"

namespace deepbat::nn {

/// y = x W + b, with W: [in, out], b: [out]. Accepts any input whose last
/// dimension equals `in`.
class Linear : public Module {
 public:
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng,
         bool bias = true);

  Var forward(const Var& x) const;

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }

  /// Parameter access for fused/quantized inference paths that bypass the
  /// autograd forward (e.g. the surrogate's grid-scoring cache).
  const Var& weight() const { return weight_; }
  const Var& bias() const { return bias_; }  // null Var when bias == false

 private:
  std::int64_t in_;
  std::int64_t out_;
  Var weight_;
  Var bias_;  // null when bias == false
};

/// Layer normalization over the last dimension with learned affine.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(std::int64_t dim, float eps = 1e-5F);

  Var forward(const Var& x) const;

 private:
  float eps_;
  Var gamma_;
  Var beta_;
};

/// Inverted dropout; identity in eval mode and under NoGradGuard (inference
/// never masks, so the const forward path is deterministic). Owns its RNG
/// stream so repeated training runs with the same seed are bit-reproducible.
/// Each masking call takes exactly one key from the stream; the mask is
/// kernels::dropout_keep of that key (DESIGN.md §7).
class Dropout : public Module {
 public:
  Dropout(float p, std::uint64_t seed);

  Var forward(const Var& x) const;

  /// True when forward() actually masks (training mode, gradients enabled,
  /// and p > 0).
  bool is_active() const { return p_ > 0.0F && training() && grad_enabled(); }

  float p() const { return p_; }

  /// Takes the next mask key from the stream, for a fused kernel that
  /// masks in place of forward().
  std::uint64_t draw_key() const { return rng_.next_u64(); }

 private:
  float p_;
  mutable Rng rng_;  // consumed only while is_active()
};

/// Position-wise feed-forward: Linear(d, hidden) -> ReLU -> Linear(hidden, d_out).
class FeedForward : public Module {
 public:
  FeedForward(std::int64_t in_dim, std::int64_t hidden_dim,
              std::int64_t out_dim, Rng& rng);

  Var forward(const Var& x) const;

  const Linear& fc1() const { return fc1_; }
  const Linear& fc2() const { return fc2_; }

 private:
  Linear fc1_;
  Linear fc2_;
};

}  // namespace deepbat::nn
