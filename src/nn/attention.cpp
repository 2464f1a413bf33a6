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

  // Fast path: fused scaled-dot-product attention. The head split stays
  // implicit (head h lives in columns [h*dh, (h+1)*dh) of the projections)
  // and softmax works on 16 query rows at a time, so neither the permuted
  // Q/K/V copies nor the [B, H, Lq, Lk] score tensor are materialized.
  // Requires: no gradient flow (inference under NoGradGuard), no attention
  // recording, inactive dropout, and a mask the kernel understands.
  const std::array<Var, 3> proj{q_proj, k_proj, v_proj};
  const bool mask_fusable =
      !mask || (mask->value.ndim() == 2 && mask->value.dim(0) == Lq &&
                mask->value.dim(1) == Lk && !mask->requires_grad);
  if (!record_attention_ && !kernels::reference_mode() && mask_fusable &&
      !attn_dropout_.is_active() && !any_requires_grad(proj)) {
    Tensor ctx({B, Lq, dim_});
    kernels::fused_sdpa(q_proj->value.data(), k_proj->value.data(),
                        v_proj->value.data(), ctx.data(), B, Lq, Lk, heads_,
                        dim_, inv_sqrt_dh,
                        mask ? mask->value.data() : nullptr);
    return wo_.forward(make_leaf(std::move(ctx), false, "fused_sdpa"));
  }

  // Composed reference path (autograd-capable): split heads, materialize
  // scores, softmax, optional recording/dropout, context, merge heads.
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
