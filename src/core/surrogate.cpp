#include "core/surrogate.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "nn/arena.hpp"
#include "nn/kernels.hpp"

namespace deepbat::core {

namespace {

nn::TransformerConfig encoder_config(const SurrogateConfig& cfg) {
  nn::TransformerConfig tc;
  tc.model_dim = cfg.model_dim;
  tc.num_heads = cfg.num_heads;
  tc.ffn_hidden = cfg.ffn_hidden;
  tc.num_layers = cfg.encoder_layers;
  tc.dropout = cfg.dropout;
  tc.max_len = std::max<std::int64_t>(cfg.sequence_length, 16);
  return tc;
}

}  // namespace

FeatureStandardizer FeatureStandardizer::from_grid(
    const lambda::ConfigGrid& grid) {
  const auto configs = grid.enumerate();
  DEEPBAT_CHECK(!configs.empty(), "FeatureStandardizer: empty grid");
  FeatureStandardizer st;
  const std::size_t f = 3;
  st.mean.assign(f, 0.0F);
  st.inv_std.assign(f, 1.0F);
  std::vector<double> sum(f, 0.0);
  std::vector<double> sq(f, 0.0);
  for (const auto& c : configs) {
    const auto feats = encode_features(c);
    for (std::size_t i = 0; i < f; ++i) {
      sum[i] += feats[i];
      sq[i] += static_cast<double>(feats[i]) * feats[i];
    }
  }
  const auto n = static_cast<double>(configs.size());
  for (std::size_t i = 0; i < f; ++i) {
    const double mu = sum[i] / n;
    const double var = std::max(sq[i] / n - mu * mu, 1e-12);
    st.mean[i] = static_cast<float>(mu);
    st.inv_std[i] = static_cast<float>(1.0 / std::sqrt(var));
  }
  return st;
}

nn::Tensor FeatureStandardizer::apply(const nn::Tensor& raw) const {
  DEEPBAT_CHECK(raw.ndim() == 2 &&
                    raw.dim(1) == static_cast<std::int64_t>(mean.size()),
                "FeatureStandardizer: shape mismatch");
  nn::Tensor out(raw.shape());
  const std::int64_t rows = raw.dim(0);
  const std::int64_t cols = raw.dim(1);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      const auto ci = static_cast<std::size_t>(c);
      out.at(r, c) = (raw.at(r, c) - mean[ci]) * inv_std[ci];
    }
  }
  return out;
}

Surrogate::Surrogate(const SurrogateConfig& config,
                     const lambda::ConfigGrid& grid)
    : config_(config),
      standardizer_(FeatureStandardizer::from_grid(grid)),
      init_rng_(config.init_seed),
      seq_embed_(1, config.model_dim, init_rng_),
      pos_enc_(config.model_dim, std::max<std::int64_t>(config.sequence_length,
                                                        16)),
      encoder_(encoder_config(config), init_rng_, config.init_seed + 17),
      pooled_attention_(config.model_dim, config.num_heads, init_rng_,
                        config.dropout, config.init_seed + 29),
      feature_ff_(config.feature_dim, config.ffn_hidden,
                  config.feature_embed_dim, init_rng_),
      output_ff_(config.model_dim + config.feature_embed_dim,
                 config.ffn_hidden, config.output_dim, init_rng_) {
  DEEPBAT_CHECK(config.sequence_length > 0,
                "Surrogate: sequence length must be positive");
  register_module("seq_embed", &seq_embed_);
  if (config_.encoder == EncoderType::kLstm) {
    Rng lstm_rng(config.init_seed + 41);
    lstm_ = std::make_unique<nn::Lstm>(config.model_dim, config.model_dim,
                                       lstm_rng);
    register_module("lstm", lstm_.get());
  } else {
    register_module("pos_enc", &pos_enc_);
    register_module("encoder", &encoder_);
  }
  register_module("pooled_attention", &pooled_attention_);
  register_module("feature_ff", &feature_ff_);
  register_module("output_ff", &output_ff_);
}

nn::Var Surrogate::sequence_branch(const nn::Var& sequences) const {
  DEEPBAT_CHECK(sequences && sequences->value.ndim() == 3 &&
                    sequences->value.dim(2) == 1,
                "Surrogate: sequences must be [batch, l, 1]");
  const std::int64_t batch = sequences->value.dim(0);
  nn::Var summary;  // E_p: [batch, model_dim]
  if (encoder_fusable(sequences->value)) {
    // Eq. 1, 2 and mean pooling as one kernel, bit for bit the composed
    // branch below (DESIGN.md §7).
    summary = nn::make_leaf(fused_summary(sequences->value), false,
                            "fused_encoder");
  } else if (config_.encoder == EncoderType::kLstm) {
    // Recurrent baseline: the final hidden state summarizes the sequence.
    summary = lstm_->encode(seq_embed_.forward(sequences));  // Eq. 1
  } else {
    // Eq. 1, Eq. 2 + mean pooling to E_p.
    summary = nn::mean_axis1(
        encoder_.forward(pos_enc_.forward(seq_embed_.forward(sequences))));
  }
  // Eq. 4: self-attention over the pooled vector (length-1 sequence; the
  // Mask is the identity at this length).
  if (!config_.use_pooled_attention) {
    return summary;
  }
  nn::Var pooled = nn::reshape(summary, {batch, 1, config_.model_dim});
  nn::Var e1 = pooled_attention_.forward(pooled, pooled, pooled);
  return nn::reshape(e1, {batch, config_.model_dim});
}

bool Surrogate::encoder_fusable(const nn::Tensor& sequences) const {
  // No gradient tape (which also leaves every dropout inactive), a
  // Transformer encoder the kernel can run (the branch passes it no mask),
  // and a window the positional table covers (longer ones take the
  // composed path and its error).
  return !nn::grad_enabled() && config_.encoder == EncoderType::kTransformer &&
         encoder_.inference_fusable() && sequences.dim(1) >= 1 &&
         sequences.dim(1) <= pos_enc_.max_len();
}

nn::Tensor Surrogate::fused_summary(const nn::Tensor& sequences) const {
  const std::int64_t batch = sequences.dim(0);
  const std::int64_t len = sequences.dim(1);
  std::vector<nn::kernels::EncoderLayerWeights> layers;
  const nn::kernels::EncoderWeights weights =
      nn::fused_encoder_weights(seq_embed_, pos_enc_, encoder_, layers);
  nn::Tensor pooled({batch, config_.model_dim});
  nn::kernels::fused_encoder(sequences.data(), batch, len, weights,
                             pooled.data());
  return pooled;
}

nn::Var Surrogate::head(const nn::Var& e1, const nn::Var& raw_features) const {
  // Eq. 5: standardize + feed-forward the features.
  nn::Var std_feats =
      nn::make_leaf(standardizer_.apply(raw_features->value), false,
                    "std_features");
  nn::Var e2 = feature_ff_.forward(std_feats);
  // Eq. 6: concat and project to the output vector.
  return output_ff_.forward(nn::concat_last(e1, e2));
}

nn::Var Surrogate::forward(const nn::Var& sequences, const nn::Var& features) {
  return head(sequence_branch(sequences), features);
}

nn::Tensor Surrogate::encode_sequence(const nn::Tensor& sequences) const {
  nn::NoGradGuard no_grad;  // also forces dropout off (Dropout::is_active)
  nn::Var x = nn::make_leaf(sequences, false, "sequences");
  return sequence_branch(x)->value;
}

nn::Tensor Surrogate::predict_with_features(
    const nn::Tensor& e1, const nn::Tensor& raw_features) const {
  nn::NoGradGuard no_grad;
  nn::Var e1v = nn::make_leaf(e1, false, "e1");
  nn::Var fv = nn::make_leaf(raw_features, false, "features");
  return head(e1v, fv)->value;
}

std::vector<PredictionTarget> Surrogate::predict_grid_from_e1(
    std::span<const float> e1_row,
    std::span<const lambda::Config> configs) const {
  DEEPBAT_CHECK(!configs.empty(), "predict_grid_from_e1: no configs");
  DEEPBAT_CHECK(static_cast<std::int64_t>(e1_row.size()) == config_.model_dim,
                "predict_grid_from_e1: E_1 dimension mismatch");
  // Compatibility wrapper: one-shot fused pass through a throwaway fp32
  // cache (bit-identical to the composed head it used to call). Persistent
  // callers hold their own GridScoringCache.
  const GridScoringCache cache =
      make_scoring_cache(configs, ScoringPrecision::kFp32);
  std::vector<PredictionTarget> targets;
  predict_grid_from_e1_batch(e1_row, 1, cache, targets);
  return targets;
}

const char* to_string(ScoringPrecision precision) {
  switch (precision) {
    case ScoringPrecision::kFp16:
      return "fp16";
    case ScoringPrecision::kFp32:
      break;
  }
  return "fp32";
}

std::optional<ScoringPrecision> parse_scoring_precision(std::string_view name) {
  if (name == "fp32") return ScoringPrecision::kFp32;
  if (name == "fp16") return ScoringPrecision::kFp16;
  return std::nullopt;
}

GridScoringCache Surrogate::make_scoring_cache(
    std::span<const lambda::Config> configs, ScoringPrecision precision) const {
  DEEPBAT_CHECK(!configs.empty(), "make_scoring_cache: no configs");
  GridScoringCache cache;
  cache.precision_ = precision;
  const auto n = static_cast<std::int64_t>(configs.size());
  cache.n_ = n;
  const std::int64_t f = config_.feature_dim;
  const std::int64_t d = config_.model_dim;
  const std::int64_t fe = config_.feature_embed_dim;
  const std::int64_t h = config_.ffn_hidden;
  nn::NoGradGuard no_grad;

  // Plain copies (features, weights) go straight to stable storage: the
  // cache must outlive any caller arena scope.
  {
    nn::arena::Pause heap;
    cache.features_ = nn::Tensor({n, f});
    for (std::int64_t r = 0; r < n; ++r) {
      const auto feats = encode_features(configs[static_cast<std::size_t>(r)]);
      std::copy(feats.begin(), feats.end(), cache.features_.data() + r * f);
    }
    const nn::Tensor& w1 = output_ff_.fc1().weight()->value;  // [d + fe, h]
    DEEPBAT_CHECK(w1.dim(0) == d + fe && w1.dim(1) == h,
                  "make_scoring_cache: head fc1 shape mismatch");
    cache.w1_ = w1.clone();
    cache.b1_ = output_ff_.fc1().bias()->value.clone();
    cache.w2_ = output_ff_.fc2().weight()->value.clone();
    cache.b2_ = output_ff_.fc2().bias()->value.clone();
  }

  // E_2 through the same autograd ops as the composed head, so scoring
  // consumes bit-identical feature embeddings.
  nn::arena::Scope scope;
  nn::Var std_feats =
      nn::make_leaf(standardizer_.apply(cache.features_), false,
                    "std_features");
  const nn::Var e2v = feature_ff_.forward(std_feats);
  const nn::Tensor& e2 = e2v->value;  // [n, fe]
  nn::arena::Pause heap;
  if (precision == ScoringPrecision::kFp32) {
    // E_2 transposed into the fused kernel's [fe, n_pad] config panel.
    const std::int64_t lanes = nn::kernels::kGridLanes;
    const std::int64_t n_pad = (n + lanes - 1) / lanes * lanes;
    cache.e2t_ = nn::Tensor::zeros({fe, n_pad});
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t k = 0; k < fe; ++k) {
        cache.e2t_.data()[k * n_pad + i] = e2.data()[i * fe + k];
      }
    }
    return cache;
  }
  // fp16: the feature half of head fc1 (+ its bias) is constant per grid,
  // so each call only adds the E_1 half to this.
  cache.h_feat_ = nn::Tensor({n, h});
  nn::kernels::gemm(e2.data(), cache.w1_.data() + d * h, cache.h_feat_.data(),
                    n, fe, h, false, false, false);
  const float* b1 = cache.b1_.data();
  for (std::int64_t r = 0; r < n; ++r) {
    float* row = cache.h_feat_.data() + r * h;
    for (std::int64_t j = 0; j < h; ++j) row[j] += b1[j];
  }
  cache.w2_h_ = nn::HalfMatrix::from_tensor(cache.w2_);
  return cache;
}

void Surrogate::predict_grid_from_e1_batch(std::span<const float> e1_rows,
                                           std::size_t row_count,
                                           const GridScoringCache& cache,
                                           std::span<float> out) const {
  const auto R = static_cast<std::int64_t>(row_count);
  const std::int64_t n = cache.n_;
  const std::int64_t d = config_.model_dim;
  const std::int64_t fe = config_.feature_embed_dim;
  const std::int64_t h = config_.ffn_hidden;
  const std::int64_t o = config_.output_dim;
  DEEPBAT_CHECK(n > 0, "predict_grid_from_e1_batch: empty scoring cache");
  DEEPBAT_CHECK(static_cast<std::int64_t>(e1_rows.size()) == R * d,
                "predict_grid_from_e1_batch: E_1 buffer size mismatch");
  DEEPBAT_CHECK(static_cast<std::int64_t>(out.size()) == R * n * o,
                "predict_grid_from_e1_batch: output buffer size mismatch");
  if (R == 0) return;
  if (cache.precision_ == ScoringPrecision::kFp32) {
    // Exact: the fused head reproduces the composed autograd head's
    // arithmetic bit for bit (kernels.hpp, DESIGN.md §12).
    nn::kernels::fused_grid_head(e1_rows.data(), R, d, cache.e2t_.data(), n,
                                 fe, cache.w1_.data(), cache.b1_.data(), h,
                                 cache.w2_.data(), cache.b2_.data(), o,
                                 out.data());
    return;
  }

  // fp16: the feature half (E_2 @ W1_bot + b1) is constant across ticks and
  // cached, so the hidden layer is one broadcast add + ReLU; only the
  // per-config output GEMM runs on fp16 weights. The live half of head fc1
  // — U = E_1 @ W1_top, [R, h] — stays fp32: it is O(tenants), not
  // O(tenants * grid).
  nn::NoGradGuard no_grad;
  nn::arena::Scope scope;
  const std::int64_t rows = R * n;
  nn::Tensor hidden({rows, h});
  float* hp = hidden.data();
  nn::Tensor u({R, h});
  nn::kernels::gemm(e1_rows.data(), cache.w1_.data(), u.data(), R, d, h,
                    false, false, false);
  const float* hf = cache.h_feat_.data();
  for (std::int64_t r = 0; r < R; ++r) {
    const float* urow = u.data() + r * h;
    for (std::int64_t i = 0; i < n; ++i) {
      const float* frow = hf + i * h;
      float* row = hp + (r * n + i) * h;
      for (std::int64_t j = 0; j < h; ++j) {
        const float v = frow[j] + urow[j];
        row[j] = v > 0.0F ? v : 0.0F;
      }
    }
  }
  nn::half_linear({hp, static_cast<std::size_t>(rows * h)}, rows, cache.w2_h_,
                  {cache.b2_.data(), static_cast<std::size_t>(o)}, out);
}

void Surrogate::predict_grid_from_e1_batch(
    std::span<const float> e1_rows, std::size_t row_count,
    const GridScoringCache& cache, std::vector<PredictionTarget>& out) const {
  const std::int64_t o = config_.output_dim;
  const auto total = static_cast<std::size_t>(cache.grid_size()) * row_count;
  thread_local std::vector<float> raw;
  raw.resize(total * static_cast<std::size_t>(o));
  predict_grid_from_e1_batch(e1_rows, row_count, cache, raw);
  out.resize(total);
  for (std::size_t r = 0; r < total; ++r) {
    out[r] = unpack_target(
        {raw.data() + static_cast<std::int64_t>(r) * o,
         static_cast<std::size_t>(o)});
  }
}

std::vector<PredictionTarget> Surrogate::predict_grid(
    std::span<const float> encoded_window,
    std::span<const lambda::Config> configs) const {
  DEEPBAT_CHECK(!configs.empty(), "predict_grid: no configs");
  DEEPBAT_CHECK(static_cast<std::int64_t>(encoded_window.size()) ==
                    config_.sequence_length,
                "predict_grid: window length mismatch");
  nn::NoGradGuard no_grad;
  nn::arena::Scope arena_scope;

  // Encode the sequence once, then score the whole grid off that row.
  nn::Tensor seq({1, config_.sequence_length, 1});
  std::copy(encoded_window.begin(), encoded_window.end(), seq.data());
  const nn::Tensor e1_single = encode_sequence(seq);
  return predict_grid_from_e1(
      {e1_single.data(), static_cast<std::size_t>(config_.model_dim)},
      configs);
}

std::unique_ptr<Surrogate> Surrogate::clone() const {
  // Constructing with the standard grid only seeds the feature
  // standardizer, which is overwritten right after — the clone serves
  // whatever grid its caller scores, exactly like the original.
  auto copy =
      std::make_unique<Surrogate>(config_, lambda::ConfigGrid::standard());
  copy->standardizer_ = standardizer_;
  copy->copy_parameters_from(*this);
  copy->set_training(false);
  return copy;
}

void Surrogate::copy_parameters_from(const Surrogate& other) {
  const auto dst = named_parameters();
  const auto src = other.named_parameters();
  DEEPBAT_CHECK(dst.size() == src.size(),
                "Surrogate: parameter count mismatch in copy_parameters_from");
  for (std::size_t i = 0; i < dst.size(); ++i) {
    DEEPBAT_CHECK(dst[i].first == src[i].first,
                  "Surrogate: parameter name mismatch in copy_parameters_from");
    nn::Tensor& d = dst[i].second->value;
    const nn::Tensor& s = src[i].second->value;
    DEEPBAT_CHECK(
        d.shape() == s.shape(),
        "Surrogate: parameter shape mismatch in copy_parameters_from");
    std::copy(s.data(), s.data() + s.numel(), d.data());
  }
}

void Surrogate::set_record_attention(bool record) {
  if (config_.encoder == EncoderType::kLstm) return;  // no attention maps
  for (std::int64_t i = 0; i < encoder_.num_layers(); ++i) {
    encoder_.layer(i).self_attention().set_record_attention(record);
  }
}

std::vector<float> Surrogate::last_attention_profile() const {
  if (config_.encoder == EncoderType::kLstm) return {};
  const auto& layer0 = encoder_.layer(0).self_attention();
  const auto& attn = layer0.last_attention();
  if (!attn.has_value()) return {};
  // attn: [batch, heads, L, L]; average received attention per key position
  // over batch, heads, and query positions. The reduction runs over flat
  // contiguous rows (one pass, unit stride) instead of bounds-checked
  // element accesses.
  const nn::Tensor& a = *attn;
  const std::int64_t L = a.dim(2);
  const std::int64_t rows = a.numel() / L;  // batch * heads * L query rows
  std::vector<float> profile(static_cast<std::size_t>(L), 0.0F);
  const float* src = a.data();
  float* prof = profile.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* row = src + r * L;
    for (std::int64_t k = 0; k < L; ++k) prof[k] += row[k];
  }
  const float norm = static_cast<float>(rows);  // batch * heads * L
  for (float& p : profile) p /= norm;
  return profile;
}

}  // namespace deepbat::core
