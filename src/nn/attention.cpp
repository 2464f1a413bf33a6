#include "nn/attention.hpp"

#include <array>
#include <cmath>

#include "common/error.hpp"
#include "nn/arena.hpp"
#include "nn/kernels.hpp"

namespace deepbat::nn {

MultiHeadAttention::MultiHeadAttention(std::int64_t model_dim,
                                       std::int64_t num_heads, Rng& rng,
                                       float dropout_p,
                                       std::uint64_t dropout_seed)
    : dim_(model_dim),
      heads_(num_heads),
      head_dim_(model_dim / num_heads),
      wq_(model_dim, model_dim, rng),
      wk_(model_dim, model_dim, rng),
      wv_(model_dim, model_dim, rng),
      wo_(model_dim, model_dim, rng),
      attn_dropout_(dropout_p, dropout_seed) {
  DEEPBAT_CHECK(model_dim % num_heads == 0,
                "MultiHeadAttention: model_dim must be divisible by heads");
  register_module("wq", &wq_);
  register_module("wk", &wk_);
  register_module("wv", &wv_);
  register_module("wo", &wo_);
  register_module("attn_dropout", &attn_dropout_);
}

Var MultiHeadAttention::forward(const Var& query, const Var& key,
                                const Var& value, const Var& mask) const {
  DEEPBAT_CHECK(query && key && value, "MultiHeadAttention: null input");
  DEEPBAT_CHECK(query->value.ndim() == 3, "MultiHeadAttention: expect [B,L,D]");
  const std::int64_t B = query->value.dim(0);
  const std::int64_t Lq = query->value.dim(1);
  const std::int64_t Lk = key->value.dim(1);
  const float inv_sqrt_dh =
      1.0F / std::sqrt(static_cast<float>(head_dim_));

  const Var q_proj = wq_.forward(query);
  const Var k_proj = wk_.forward(key);
  const Var v_proj = wv_.forward(value);

  // Fused scaled-dot-product attention (DESIGN.md §7). The head split
  // stays implicit (head h lives in columns [h*dh, (h+1)*dh) of the
  // projections) and softmax works on 16 query rows at a time, so neither
  // the permuted Q/K/V copies nor the [B, H, Lq, Lk] score tensor are
  // materialized, in training either: backward recomputes the
  // probabilities from each row's saved max and 1/sum. Requires: no
  // attention recording and a mask the kernel understands.
  const std::array<Var, 3> proj{q_proj, k_proj, v_proj};
  const bool mask_fusable =
      !mask || (mask->value.ndim() == 2 && mask->value.dim(0) == Lq &&
                mask->value.dim(1) == Lk && !mask->requires_grad);
  if (!record_attention_ && !kernels::reference_mode() && mask_fusable) {
    const float* mask_data = mask ? mask->value.data() : nullptr;
    const bool needs_grad = any_requires_grad(proj);
    const bool drop = attn_dropout_.is_active();
    Tensor ctx({B, Lq, dim_});
    if (!needs_grad && !drop) {
      kernels::fused_sdpa(q_proj->value.data(), k_proj->value.data(),
                          v_proj->value.data(), ctx.data(), B, Lq, Lk, heads_,
                          dim_, inv_sqrt_dh, mask_data);
      return wo_.forward(make_leaf(std::move(ctx), false, "fused_sdpa"));
    }
    const float keep = drop ? 1.0F - attn_dropout_.p() : 1.0F;
    const std::uint64_t key = drop ? attn_dropout_.draw_key() : 0;
    auto saved = std::make_shared<kernels::SdpaSaved>();
    kernels::fused_sdpa_train(q_proj->value.data(), k_proj->value.data(),
                              v_proj->value.data(), ctx.data(), B, Lq, Lk,
                              heads_, dim_, inv_sqrt_dh, mask_data, keep, key,
                              *saved);
    if (!needs_grad) {
      return wo_.forward(make_leaf(std::move(ctx), false, "fused_sdpa"));
    }
    const std::int64_t heads = heads_;
    const std::int64_t dim = dim_;
    const Var attn = make_node(
        std::move(ctx), {q_proj, k_proj, v_proj},
        [q_proj, k_proj, v_proj, mask, saved, B, Lq, Lk, heads, dim,
         inv_sqrt_dh](Node& self) {
          Tensor dq({B, Lq, dim});
          Tensor dk({B, Lk, dim});
          Tensor dv({B, Lk, dim});
          kernels::fused_sdpa_backward(
              q_proj->value.data(), k_proj->value.data(),
              v_proj->value.data(), self.grad.data(), B, Lq, Lk, heads, dim,
              inv_sqrt_dh, mask ? mask->value.data() : nullptr, *saved,
              dq.data(), dk.data(), dv.data());
          if (q_proj->requires_grad) q_proj->accumulate_grad(dq);
          if (k_proj->requires_grad) k_proj->accumulate_grad(dk);
          if (v_proj->requires_grad) v_proj->accumulate_grad(dv);
        },
        "fused_sdpa");
    return wo_.forward(attn);
  }

  // Composed path, the oracle of reference mode and attention recording:
  // split heads, materialize scores, softmax, optional recording/dropout,
  // context, merge heads. Its dropout draws the fused kernel's mask.
  auto split_heads = [&](const Var& x, std::int64_t L) {
    return permute_0213(reshape(x, {B, L, heads_, head_dim_}));
  };
  const Var q = split_heads(q_proj, Lq);
  const Var k = split_heads(k_proj, Lk);
  const Var v = split_heads(v_proj, Lk);

  // Scaled dot-product: [B, H, Lq, Lk].
  Var scores = scale(matmul(q, transpose_last(k)), inv_sqrt_dh);
  if (mask) scores = add(scores, mask);
  Var attn = softmax_last(scores);
  if (record_attention_) {
    // The recorded tensor is read after the forward's arena scope has been
    // rewound (e.g. Fig. 14's profile), so it must live on the heap.
    arena::Pause heap_alloc;
    last_attention_ = attn->value.clone();
  }
  attn = attn_dropout_.forward(attn);

  // Context: [B, H, Lq, dh] -> [B, Lq, D].
  const Var ctx = reshape(permute_0213(matmul(attn, v)), {B, Lq, dim_});
  return wo_.forward(ctx);
}

}  // namespace deepbat::nn
