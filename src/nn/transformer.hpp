#pragma once
// Transformer encoder stack (paper Eq. 2): sinusoidal positional encoding +
// N post-norm encoder layers (self-attention -> add&norm -> FFN -> add&norm),
// exactly the topology of torch.nn.TransformerEncoder that the paper's
// PyTorch implementation uses.

#include <memory>
#include <vector>

#include "nn/attention.hpp"
#include "nn/kernels.hpp"

namespace deepbat::nn {

/// Fixed sinusoidal positional encoding added to sequence embeddings.
class PositionalEncoding : public Module {
 public:
  PositionalEncoding(std::int64_t model_dim, std::int64_t max_len);

  /// x: [B, L, D] with L <= max_len; returns x + PE[0:L].
  Var forward(const Var& x) const;

  /// The [max_len, D] table, for the fused inference encoder.
  const Tensor& table() const { return table_; }
  std::int64_t max_len() const { return max_len_; }

 private:
  std::int64_t max_len_;
  std::int64_t dim_;
  Tensor table_;  // [max_len, D], constant
};

struct TransformerConfig {
  std::int64_t model_dim = 16;   // paper: embedding dimension 16
  std::int64_t num_heads = 4;
  std::int64_t ffn_hidden = 32;  // paper: hidden state 32
  std::int64_t num_layers = 2;   // paper: 2 encoder layers
  float dropout = 0.1F;
  std::int64_t max_len = 1024;
};

/// One encoder layer, post-norm variant:
///   x = LN1(x + Dropout(SelfAttn(x)));  x = LN2(x + Dropout(FFN(x)))
class TransformerEncoderLayer : public Module {
 public:
  TransformerEncoderLayer(const TransformerConfig& cfg, Rng& rng,
                          std::uint64_t seed);

  Var forward(const Var& x, const Var& mask = nullptr) const;

  /// Pointers into this layer's parameters for kernels::fused_encoder.
  kernels::EncoderLayerWeights fused_weights() const;

  std::int64_t ffn_hidden() const { return ffn_.fc1().out_features(); }

  MultiHeadAttention& self_attention() { return attn_; }
  const MultiHeadAttention& self_attention() const { return attn_; }

 private:
  MultiHeadAttention attn_;
  FeedForward ffn_;
  LayerNorm norm1_;
  LayerNorm norm2_;
  Dropout drop1_;
  Dropout drop2_;
};

/// Stack of encoder layers.
class TransformerEncoder : public Module {
 public:
  TransformerEncoder(const TransformerConfig& cfg, Rng& rng,
                     std::uint64_t seed);

  Var forward(const Var& x, const Var& mask = nullptr) const;

  /// True when forward(x) without a gradient tape may run as
  /// kernels::fused_encoder, bit for bit (DESIGN.md §7): reference mode off
  /// and no layer recording attention. The caller's half of the condition
  /// is no gradient tape (which also leaves every dropout inactive) and no
  /// mask (the kernel takes none).
  bool inference_fusable() const;

  std::int64_t num_layers() const {
    return static_cast<std::int64_t>(layers_.size());
  }
  TransformerEncoderLayer& layer(std::int64_t i) {
    return *layers_[static_cast<std::size_t>(i)];
  }
  const TransformerEncoderLayer& layer(std::int64_t i) const {
    return *layers_[static_cast<std::size_t>(i)];
  }

 private:
  std::vector<std::unique_ptr<TransformerEncoderLayer>> layers_;
};

/// kernels::fused_encoder's weights for a gap embedding Linear(1, D), a
/// positional table and an encoder stack. `layers` receives every layer's
/// fused_weights() in order; the result points into it and into the
/// modules' parameters, so all of them must outlive it.
kernels::EncoderWeights fused_encoder_weights(
    const Linear& embed, const PositionalEncoding& pos,
    const TransformerEncoder& encoder,
    std::vector<kernels::EncoderLayerWeights>& layers);

}  // namespace deepbat::nn
