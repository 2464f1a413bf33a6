#pragma once
// Multi-head scaled-dot-product attention (Eq. 3 in the paper / Vaswani et
// al.). Supports an optional additive mask and can record the attention
// matrix of the last forward pass — used by DeepBAT's attention-score
// visualization (paper Fig. 14).

#include <optional>

#include "nn/layers.hpp"

namespace deepbat::nn {

class MultiHeadAttention : public Module {
 public:
  /// `model_dim` must be divisible by `num_heads`.
  MultiHeadAttention(std::int64_t model_dim, std::int64_t num_heads, Rng& rng,
                     float dropout_p, std::uint64_t dropout_seed);

  /// Self- or cross-attention over [B, L, D] inputs. `mask`, if present, is
  /// added to the pre-softmax scores and must broadcast as a suffix of
  /// [B, H, Lq, Lk] (e.g. shape [Lq, Lk] with -inf at disallowed positions).
  Var forward(const Var& query, const Var& key, const Var& value,
              const Var& mask = nullptr) const;

  /// When enabled, forward() stores a copy of the post-softmax attention
  /// tensor ([B, H, Lq, Lk]) retrievable via last_attention().
  void set_record_attention(bool record) { record_attention_ = record; }
  const std::optional<Tensor>& last_attention() const {
    return last_attention_;
  }

  std::int64_t num_heads() const { return heads_; }

  bool record_attention() const { return record_attention_; }

  /// The projections, for the fused inference encoder.
  const Linear& wq() const { return wq_; }
  const Linear& wk() const { return wk_; }
  const Linear& wv() const { return wv_; }
  const Linear& wo() const { return wo_; }

 private:
  std::int64_t dim_;
  std::int64_t heads_;
  std::int64_t head_dim_;
  Linear wq_;
  Linear wk_;
  Linear wv_;
  Linear wo_;
  Dropout attn_dropout_;
  bool record_attention_ = false;
  // Written by the (const) forward when recording is on; a diagnostic
  // side-channel, not part of the model's logical state.
  mutable std::optional<Tensor> last_attention_;
};

}  // namespace deepbat::nn
