#pragma once
// The DeepBAT deep surrogate model (paper Fig. 3 / §III-D):
//
//   E_seq   = FeedForward(S)                      (Eq. 1 — here a Linear
//                                                  embedding of each gap)
//   E_pos   = PositionalEncoding(E_seq)
//   E_trans = TransformerEncoder(E_pos)           (Eq. 2, N = 2 layers)
//   E_p     = MeanPool(E_trans)
//   E_1     = Mask(MultiHeadAtt(E_p, E_p, E_p))   (Eq. 4 — pooled vector
//                                                  treated as a length-1
//                                                  sequence; the mask is
//                                                  trivial at length 1)
//   E_2     = FeedForward(Standardize(F))         (Eq. 5)
//   O       = FeedForward(Concat(E_1, E_2))       (Eq. 6)
//
// The model exposes a split forward path: encode_sequence() runs the whole
// sequence branch once per decision window, and predict_with_features()
// runs only the cheap feature branch + head per candidate configuration.
// This is what makes DeepBAT's online optimization milliseconds-fast while
// BATCH re-solves matrix equations per configuration (§IV-F).

#include <memory>
#include <optional>
#include <string_view>

#include "core/encoding.hpp"
#include "nn/data.hpp"
#include "nn/quant.hpp"
#include "nn/recurrent.hpp"
#include "nn/transformer.hpp"

namespace deepbat::core {

/// Sequence-encoder choice: the paper's Transformer (default) or the LSTM
/// baseline its motivation section argues against (compared head-to-head in
/// bench/abl_encoder).
enum class EncoderType { kTransformer, kLstm };

struct SurrogateConfig {
  EncoderType encoder = EncoderType::kTransformer;
  std::int64_t sequence_length = 256;  // paper §V: chosen balance point
  std::int64_t model_dim = 16;         // paper: embedding dimension 16
  std::int64_t num_heads = 4;
  std::int64_t ffn_hidden = 32;        // paper: hidden state 32
  std::int64_t encoder_layers = 2;     // paper: 2 encoder layers
  float dropout = 0.1F;
  std::int64_t feature_dim = 3;        // {M, B, T}
  std::int64_t feature_embed_dim = 16;
  std::int64_t output_dim = static_cast<std::int64_t>(kTargetDim);
  /// Eq. 4's extra multi-head attention over the pooled vector. Disabled
  /// only by the ablation study (bench/abl_pooled_attention).
  bool use_pooled_attention = true;
  std::uint64_t init_seed = 0xDEE9BA7ULL;
};

/// Feature standardization constants (paper Eq. 5's Standardize). Derived
/// deterministically from the config grid so training and serving agree.
struct FeatureStandardizer {
  std::vector<float> mean;
  std::vector<float> inv_std;

  static FeatureStandardizer from_grid(const lambda::ConfigGrid& grid);
  /// Standardize a raw feature tensor [batch, f] (returns a new tensor).
  nn::Tensor apply(const nn::Tensor& raw) const;
};

/// Arithmetic used by the fused grid-scoring pass (DESIGN.md §12).
///   kFp32 — exact: bit-identical to the composed autograd head, any batch.
///   kFp16 — the per-config GEMM runs on binary16-stored weights (fp32
///           math on the rounded values).
/// fp16 keeps the live E_1 projection in fp32 — only the [tenants * grid,
/// hidden] -> outputs stage, the part that scales with the grid, reads
/// rounded weights — so the error is bounded by one weight rounding. Both
/// are row-local and therefore shard-invariant.
enum class ScoringPrecision { kFp32, kFp16 };

const char* to_string(ScoringPrecision precision);
/// Parse "fp32" / "fp16" (CLI --precision values).
std::optional<ScoringPrecision> parse_scoring_precision(std::string_view name);

/// Immutable per-grid scoring state: the raw feature tensor, the head
/// weights, and the feature branch's output E_2 in the form the precision
/// scores it from — for fp32 a transposed [feature_embed_dim, n_pad] config
/// panel for the fused head kernel, for fp16 the cached feature half of the
/// first head layer plus the binary16 weight image. Built once per (grid,
/// precision) by Surrogate::make_scoring_cache and never mutated
/// afterwards, so none of this is recomputed per tick.
///
/// Thread safety: the cache is immutable and scoring reads it const
/// (per-call scratch is thread-local), so one cache may serve several
/// runtime shards concurrently.
class GridScoringCache {
 public:
  GridScoringCache() = default;

  std::int64_t grid_size() const { return n_; }
  ScoringPrecision precision() const { return precision_; }
  /// Raw [n, feature_dim] features, encoded once at construction.
  const nn::Tensor& features() const { return features_; }

 private:
  friend class Surrogate;

  ScoringPrecision precision_ = ScoringPrecision::kFp32;
  std::int64_t n_ = 0;       // grid size
  nn::Tensor features_;      // [n, feature_dim] raw
  nn::Tensor w1_;            // [model_dim + feature_embed_dim, hidden]
  nn::Tensor b1_;            // [hidden]
  nn::Tensor w2_;            // [hidden, output_dim]
  nn::Tensor b2_;            // [output_dim]
  /// fp32: E_2 transposed, [feature_embed_dim, n_pad] with n_pad = n
  /// rounded up to nn::kernels::kGridLanes, padding columns zero.
  nn::Tensor e2t_;
  /// fp16: E_2 @ W1[model_dim:, :] + b1, [n, hidden] — the feature half of
  /// the first head layer is constant across tenants and ticks, so only
  /// the E_1 half is computed per call.
  nn::Tensor h_feat_;
  nn::HalfMatrix w2_h_;      // fp16 image of w2_
};

class Surrogate : public nn::Module {
 public:
  Surrogate(const SurrogateConfig& config, const lambda::ConfigGrid& grid);

  const SurrogateConfig& config() const { return config_; }

  /// Full forward pass for training.
  /// sequences: [batch, l, 1] encoded gaps; features: [batch, 3] raw.
  nn::Var forward(const nn::Var& sequences, const nn::Var& features);

  /// Sequence branch only: [batch, l, 1] -> pooled E_1 values [batch, d].
  /// Runs under NoGradGuard (no gradient tracking, dropout off), so it is
  /// callable on a const model; used by the online optimizer and the
  /// multi-tenant runtime's shared batched encoder.
  nn::Tensor encode_sequence(const nn::Tensor& sequences) const;

  /// Head only: E_1 rows [n, d] (typically one row broadcast n times) +
  /// raw features [n, 3] -> predictions [n, output_dim].
  nn::Tensor predict_with_features(const nn::Tensor& e1,
                                   const nn::Tensor& raw_features) const;

  /// Score every config against one already-encoded E_1 row [d] (the
  /// GridScorer stage). Builds a throwaway fp32 scoring cache per call;
  /// steady-state callers (GridScorer, the runtime's batch scorer) hold a
  /// GridScoringCache and use predict_grid_from_e1_batch instead.
  std::vector<PredictionTarget> predict_grid_from_e1(
      std::span<const float> e1_row,
      std::span<const lambda::Config> configs) const;

  /// Build the immutable scoring state for `configs` at `precision`:
  /// encodes the features once, runs the feature branch once, slices the
  /// head weights, and rounds them as the precision requires.
  GridScoringCache make_scoring_cache(std::span<const lambda::Config> configs,
                                      ScoringPrecision precision) const;

  /// The fused multi-tenant scoring pass: score `row_count` E_1 rows
  /// (concatenated, [row_count, model_dim]) against the cache's whole grid
  /// in one pass. `out` receives row_count * grid_size * output_dim floats,
  /// tenant-major (tenant r's grid occupies rows [r*n, (r+1)*n)). Row r of
  /// the result is bit-identical to scoring row r alone, at every
  /// precision — fp32 exactly reproduces the composed autograd head, and
  /// fp16 runs the same row-local GEMM on rounded weights.
  void predict_grid_from_e1_batch(std::span<const float> e1_rows,
                                  std::size_t row_count,
                                  const GridScoringCache& cache,
                                  std::span<float> out) const;

  /// Same pass, unpacked into PredictionTargets (resizes `out` to
  /// row_count * grid_size; reuses its capacity across calls).
  void predict_grid_from_e1_batch(std::span<const float> e1_rows,
                                  std::size_t row_count,
                                  const GridScoringCache& cache,
                                  std::vector<PredictionTarget>& out) const;

  /// Convenience: predict every config for a single encoded window
  /// (encode_sequence once + predict_grid_from_e1).
  std::vector<PredictionTarget> predict_grid(
      std::span<const float> encoded_window,
      std::span<const lambda::Config> configs) const;

  /// Deep copy for the online retrainer (learn/, DESIGN.md §14): a freshly
  /// constructed module with identical config, feature standardizer, and
  /// parameter values, returned in eval mode. The clone owns its weights,
  /// so fine-tuning it never perturbs the incumbent it was copied from.
  std::unique_ptr<Surrogate> clone() const;

  /// Overwrite every named parameter with `other`'s values. Module
  /// registration order is deterministic, so the parameter lists are
  /// checked pairwise by name and shape. Requires an identical
  /// architecture (same SurrogateConfig dimensions).
  void copy_parameters_from(const Surrogate& other);

  /// Record encoder self-attention of the last forward (paper Fig. 14).
  void set_record_attention(bool record);
  /// Aggregated attention received by each sequence position, averaged over
  /// heads and query positions, from the first encoder layer of the last
  /// recorded forward. Empty if recording was off.
  std::vector<float> last_attention_profile() const;

 private:
  nn::Var sequence_branch(const nn::Var& sequences) const;
  nn::Var head(const nn::Var& e1, const nn::Var& raw_features) const;

  SurrogateConfig config_;
  FeatureStandardizer standardizer_;
  Rng init_rng_;  // weight-init stream; must precede the layers
  nn::Linear seq_embed_;
  nn::PositionalEncoding pos_enc_;
  nn::TransformerEncoder encoder_;
  std::unique_ptr<nn::Lstm> lstm_;  // only when encoder == kLstm
  nn::MultiHeadAttention pooled_attention_;
  nn::FeedForward feature_ff_;
  nn::FeedForward output_ff_;
};

}  // namespace deepbat::core
