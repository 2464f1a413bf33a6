#include "nn/transformer.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace deepbat::nn {

PositionalEncoding::PositionalEncoding(std::int64_t model_dim,
                                       std::int64_t max_len)
    : max_len_(max_len), dim_(model_dim), table_({max_len, model_dim}) {
  DEEPBAT_CHECK(model_dim > 0 && max_len > 0,
                "PositionalEncoding: bad dimensions");
  // PE(pos, 2i)   = sin(pos / 10000^(2i/d))
  // PE(pos, 2i+1) = cos(pos / 10000^(2i/d))
  for (std::int64_t pos = 0; pos < max_len; ++pos) {
    for (std::int64_t i = 0; i < model_dim; i += 2) {
      const double angle =
          static_cast<double>(pos) /
          std::pow(10000.0, static_cast<double>(i) /
                                static_cast<double>(model_dim));
      table_.at(pos, i) = static_cast<float>(std::sin(angle));
      if (i + 1 < model_dim) {
        table_.at(pos, i + 1) = static_cast<float>(std::cos(angle));
      }
    }
  }
}

Var PositionalEncoding::forward(const Var& x) const {
  DEEPBAT_CHECK(x && x->value.ndim() == 3,
                "PositionalEncoding: expect [B, L, D]");
  const std::int64_t L = x->value.dim(1);
  DEEPBAT_CHECK(L <= max_len_, "PositionalEncoding: sequence too long");
  DEEPBAT_CHECK(x->value.dim(2) == dim_,
                "PositionalEncoding: model dim mismatch");
  // Slice the first L rows of the table into a constant leaf; suffix
  // broadcast [L, D] onto [B, L, D] handles the batch dimension.
  Tensor slice({L, dim_});
  std::copy(table_.data(), table_.data() + L * dim_, slice.data());
  return add(x, make_leaf(std::move(slice), false, "pos_table"));
}

TransformerEncoderLayer::TransformerEncoderLayer(const TransformerConfig& cfg,
                                                 Rng& rng, std::uint64_t seed)
    : attn_(cfg.model_dim, cfg.num_heads, rng, cfg.dropout, seed * 2 + 1),
      ffn_(cfg.model_dim, cfg.ffn_hidden, cfg.model_dim, rng),
      norm1_(cfg.model_dim),
      norm2_(cfg.model_dim),
      drop1_(cfg.dropout, seed * 2 + 2),
      drop2_(cfg.dropout, seed * 2 + 3) {
  register_module("attn", &attn_);
  register_module("ffn", &ffn_);
  register_module("norm1", &norm1_);
  register_module("norm2", &norm2_);
  register_module("drop1", &drop1_);
  register_module("drop2", &drop2_);
}

Var TransformerEncoderLayer::forward(const Var& x, const Var& mask) const {
  Var h = norm1_.forward(add(x, drop1_.forward(attn_.forward(x, x, x, mask))));
  return norm2_.forward(add(h, drop2_.forward(ffn_.forward(h))));
}

kernels::EncoderLayerWeights TransformerEncoderLayer::fused_weights() const {
  const auto data = [](const Var& p) { return p->value.data(); };
  return {data(attn_.wq().weight()), data(attn_.wq().bias()),
          data(attn_.wk().weight()), data(attn_.wk().bias()),
          data(attn_.wv().weight()), data(attn_.wv().bias()),
          data(attn_.wo().weight()), data(attn_.wo().bias()),
          data(norm1_.gamma()),      data(norm1_.beta()),
          norm1_.eps(),              data(ffn_.fc1().weight()),
          data(ffn_.fc1().bias()),   data(ffn_.fc2().weight()),
          data(ffn_.fc2().bias()),   data(norm2_.gamma()),
          data(norm2_.beta()),       norm2_.eps()};
}

TransformerEncoder::TransformerEncoder(const TransformerConfig& cfg, Rng& rng,
                                       std::uint64_t seed) {
  DEEPBAT_CHECK(cfg.num_layers > 0, "TransformerEncoder: need >= 1 layer");
  layers_.reserve(static_cast<std::size_t>(cfg.num_layers));
  for (std::int64_t i = 0; i < cfg.num_layers; ++i) {
    layers_.push_back(std::make_unique<TransformerEncoderLayer>(
        cfg, rng, seed + static_cast<std::uint64_t>(i) * 101));
    register_module("layer" + std::to_string(i), layers_.back().get());
  }
}

bool TransformerEncoder::inference_fusable() const {
  return !kernels::reference_mode() &&
         std::none_of(layers_.begin(), layers_.end(), [](const auto& layer) {
           return layer->self_attention().record_attention();
         });
}

Var TransformerEncoder::forward(const Var& x, const Var& mask) const {
  Var h = x;
  for (auto& layer : layers_) {
    h = layer->forward(h, mask);
  }
  return h;
}

kernels::EncoderWeights fused_encoder_weights(
    const Linear& embed, const PositionalEncoding& pos,
    const TransformerEncoder& encoder,
    std::vector<kernels::EncoderLayerWeights>& layers) {
  layers.clear();
  for (std::int64_t i = 0; i < encoder.num_layers(); ++i) {
    layers.push_back(encoder.layer(i).fused_weights());
  }
  const TransformerEncoderLayer& first = encoder.layer(0);
  return {embed.out_features(),
          first.self_attention().num_heads(),
          first.ffn_hidden(),
          embed.weight()->value.data(),
          embed.bias()->value.data(),
          pos.table().data(),
          layers.data(),
          encoder.num_layers()};
}

}  // namespace deepbat::nn
