// Fused grid-scoring path (DESIGN.md §12): fp32 bit-identity with the
// composed autograd head, multi-row == per-row determinism, and bounded
// decision error for the fp16 path.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/decision_engine.hpp"
#include "core/optimizer.hpp"
#include "core/surrogate.hpp"

namespace deepbat::core {
namespace {

SurrogateConfig tiny_config() {
  SurrogateConfig cfg;
  cfg.sequence_length = 32;
  cfg.dropout = 0.0F;
  return cfg;
}

lambda::ConfigGrid grid() { return lambda::ConfigGrid::small(); }

std::vector<float> random_window(std::size_t l, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> w(l);
  for (float& x : w) x = static_cast<float>(rng.uniform(0.0, 3.0));
  return w;
}

std::vector<float> encode_row(const Surrogate& model,
                              std::span<const float> window) {
  nn::Tensor seq({1, model.config().sequence_length, 1});
  std::copy(window.begin(), window.end(), seq.data());
  const nn::Tensor e1 = model.encode_sequence(seq);
  return {e1.data(), e1.data() + model.config().model_dim};
}

/// The seed's scoring path, reconstructed: broadcast one E_1 row over the
/// grid and run the composed autograd head.
std::vector<float> composed_raw(const Surrogate& model,
                                std::span<const float> e1_row,
                                std::span<const lambda::Config> configs) {
  const auto n = static_cast<std::int64_t>(configs.size());
  const std::int64_t d = model.config().model_dim;
  const std::int64_t f = model.config().feature_dim;
  const std::int64_t o = model.config().output_dim;
  nn::Tensor e1({n, d});
  for (std::int64_t r = 0; r < n; ++r) {
    std::copy(e1_row.begin(), e1_row.end(), e1.data() + r * d);
  }
  nn::Tensor feats({n, f});
  for (std::int64_t r = 0; r < n; ++r) {
    const auto enc = encode_features(configs[static_cast<std::size_t>(r)]);
    std::copy(enc.begin(), enc.end(), feats.data() + r * f);
  }
  const nn::Tensor out = model.predict_with_features(e1, feats);
  return {out.data(), out.data() + n * o};
}

/// Every parameter redrawn from N(0, 0.5): non-zero biases, and hidden
/// pre-activations of both signs, so the bias adds and the ReLU are tested.
void randomize_parameters(Surrogate& model, std::uint64_t seed) {
  Rng rng(seed);
  for (auto& [name, param] : model.named_parameters()) {
    (void)name;
    nn::Tensor& t = param->value;
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      t.data()[i] = static_cast<float>(rng.normal(0.0, 0.5));
    }
  }
}

/// `rows` E_1 rows of N(0, 1) values, concatenated.
std::vector<float> random_rows(std::size_t rows, std::int64_t d,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out(rows * static_cast<std::size_t>(d));
  for (float& x : out) x = static_cast<float>(rng.normal(0.0, 1.0));
  return out;
}

/// Fused fp32 scores of `rows` concatenated E_1 rows.
std::vector<float> fused_raw(const Surrogate& model,
                             const GridScoringCache& cache,
                             std::span<const float> e1_rows,
                             std::size_t rows) {
  std::vector<float> out(rows * static_cast<std::size_t>(cache.grid_size() *
                                                         model.config()
                                                             .output_dim));
  model.predict_grid_from_e1_batch(e1_rows, rows, cache, out);
  return out;
}

/// Equal bit patterns (so -0 differs from +0), element by element.
void expect_same_bits(std::span<const float> got,
                      std::span<const float> want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  std::size_t differing = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(got[i]) !=
        std::bit_cast<std::uint32_t>(want[i])) {
      if (differing++ == 0) {
        ADD_FAILURE() << what << ": first difference at element " << i
                      << ": " << got[i] << " vs " << want[i];
      }
    }
  }
  EXPECT_EQ(differing, 0U) << what;
}

/// Scores each row alone and all rows in one call, and checks both against
/// the composed autograd head row by row.
void expect_fused_matches_composed(const Surrogate& model,
                                   std::span<const lambda::Config> configs,
                                   std::size_t rows, std::uint64_t seed) {
  const auto cache = model.make_scoring_cache(configs, ScoringPrecision::kFp32);
  const std::int64_t d = model.config().model_dim;
  const auto e1 = random_rows(rows, d, seed);
  const auto batched = fused_raw(model, cache, e1, rows);
  const std::size_t row_out =
      configs.size() * static_cast<std::size_t>(model.config().output_dim);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::span<const float> row(e1.data() + r * d,
                                     static_cast<std::size_t>(d));
    const auto reference = composed_raw(model, row, configs);
    const std::string what = "grid of " + std::to_string(configs.size()) +
                             ", row " + std::to_string(r);
    expect_same_bits(fused_raw(model, cache, row, 1), reference,
                     what + " alone");
    expect_same_bits({batched.data() + r * row_out, row_out}, reference,
                     what + " in a batch of " + std::to_string(rows));
  }
}

TEST(ScoringCache, Fp32BitIdenticalToComposedHead) {
  Surrogate model(tiny_config(), grid());
  model.set_training(false);
  const auto configs = grid().enumerate();
  const auto cache =
      model.make_scoring_cache(configs, ScoringPrecision::kFp32);
  const std::int64_t o = model.config().output_dim;

  for (std::uint64_t seed : {7ULL, 19ULL, 23ULL}) {
    const auto window = random_window(32, seed);
    const auto e1 = encode_row(model, window);
    const auto reference = composed_raw(model, e1, configs);
    std::vector<float> fused(configs.size() * static_cast<std::size_t>(o));
    model.predict_grid_from_e1_batch(e1, 1, cache, fused);
    ASSERT_EQ(fused.size(), reference.size());
    for (std::size_t i = 0; i < fused.size(); ++i) {
      // Bitwise: the fused pass replays the composed head's exact op
      // sequence, so even the last ulp must agree.
      EXPECT_EQ(fused[i], reference[i]) << "element " << i;
    }
  }
}

TEST(ScoringCache, MultiRowMatchesPerRowBitwise) {
  Surrogate model(tiny_config(), grid());
  model.set_training(false);
  const auto configs = grid().enumerate();
  const std::int64_t o = model.config().output_dim;
  const std::int64_t d = model.config().model_dim;
  const std::size_t row_out = configs.size() * static_cast<std::size_t>(o);

  for (const ScoringPrecision precision :
       {ScoringPrecision::kFp32, ScoringPrecision::kFp16}) {
    const auto cache = model.make_scoring_cache(configs, precision);
    std::vector<float> e1_rows;
    std::vector<std::vector<float>> solo_rows;
    for (std::uint64_t seed : {3ULL, 5ULL, 11ULL, 13ULL}) {
      const auto e1 = encode_row(model, random_window(32, seed));
      e1_rows.insert(e1_rows.end(), e1.begin(), e1.end());
      std::vector<float> solo(row_out);
      model.predict_grid_from_e1_batch(e1, 1, cache, solo);
      solo_rows.push_back(std::move(solo));
    }
    ASSERT_EQ(e1_rows.size(), solo_rows.size() * static_cast<std::size_t>(d));
    std::vector<float> batched(solo_rows.size() * row_out);
    model.predict_grid_from_e1_batch(e1_rows, solo_rows.size(), cache,
                                     batched);
    for (std::size_t r = 0; r < solo_rows.size(); ++r) {
      for (std::size_t i = 0; i < row_out; ++i) {
        // Row-local arithmetic at every precision: batching across tenants
        // must be invisible bit-for-bit.
        EXPECT_EQ(batched[r * row_out + i], solo_rows[r][i])
            << to_string(precision) << " row " << r << " element " << i;
      }
    }
  }
}

TEST(ScoringCache, Fp32BitIdenticalToComposedHeadOnStandardGrid) {
  // The grid the benchmarks score (616 configs), default head dims.
  const lambda::ConfigGrid standard = lambda::ConfigGrid::standard();
  Surrogate model(tiny_config(), standard);
  randomize_parameters(model, 41);
  model.set_training(false);
  const auto configs = standard.enumerate();
  expect_fused_matches_composed(model, configs, 5, 43);
  // And a row the encoder produced.
  const auto cache = model.make_scoring_cache(configs, ScoringPrecision::kFp32);
  const auto e1 = encode_row(model, random_window(32, 47));
  expect_same_bits(fused_raw(model, cache, e1, 1),
                   composed_raw(model, e1, configs), "encoded row");
}

TEST(ScoringCache, Fp32BitIdenticalToComposedHeadAtNonDefaultShapes) {
  // No head dimension is baked into the fused kernel; the second shape's
  // hidden width is not a multiple of the kernel's four units per step.
  struct Shape {
    std::int64_t d, heads, fe, h;
  };
  const lambda::ConfigGrid standard = lambda::ConfigGrid::standard();
  for (const Shape& shape : {Shape{8, 2, 4, 12}, Shape{6, 2, 3, 13}}) {
    SCOPED_TRACE(shape.h);
    SurrogateConfig cfg = tiny_config();
    cfg.model_dim = shape.d;
    cfg.num_heads = shape.heads;
    cfg.feature_embed_dim = shape.fe;
    cfg.ffn_hidden = shape.h;
    Surrogate model(cfg, standard);
    randomize_parameters(model, 53);
    model.set_training(false);
    expect_fused_matches_composed(model, standard.enumerate(), 3, 59);
    expect_fused_matches_composed(model, grid().enumerate(), 3, 61);
  }
}

TEST(ScoringCache, Fp32RowIsPaddingAndBatchInvariant) {
  // Grids whose size is not a multiple of the kernel's 16 configs per
  // vector: a row's scores must not depend on the padding lanes, on its
  // position in the batch, or on the batch size.
  const lambda::ConfigGrid standard = lambda::ConfigGrid::standard();
  Surrogate model(tiny_config(), standard);
  randomize_parameters(model, 67);
  model.set_training(false);
  const auto all = standard.enumerate();
  for (const std::size_t n : {std::size_t{1}, std::size_t{17}}) {
    const std::span<const lambda::Config> configs(all.data(), n);
    for (const std::size_t rows : {std::size_t{3}, std::size_t{16}}) {
      expect_fused_matches_composed(model, configs, rows, 71 + rows);
    }
  }
}

#ifdef _OPENMP
TEST(ScoringCache, Fp32BitIdenticalAcrossThreadCounts) {
  // 16 rows of the standard grid: large enough that the kernel splits the
  // work across threads.
  const lambda::ConfigGrid standard = lambda::ConfigGrid::standard();
  Surrogate model(tiny_config(), standard);
  randomize_parameters(model, 73);
  model.set_training(false);
  const auto cache =
      model.make_scoring_cache(standard.enumerate(), ScoringPrecision::kFp32);
  const auto e1 = random_rows(16, model.config().model_dim, 79);
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  const auto one = fused_raw(model, cache, e1, 16);
  omp_set_num_threads(4);
  const auto four = fused_raw(model, cache, e1, 16);
  omp_set_num_threads(saved);
  expect_same_bits(four, one, "4 threads vs 1");
}
#endif

TEST(ScoringCache, QuantizedDecisionsTrackFp32Argmin) {
  Surrogate model(tiny_config(), grid());
  model.set_training(false);
  const auto configs = grid().enumerate();
  const auto fp32 = model.make_scoring_cache(configs, ScoringPrecision::kFp32);

  OptimizerOptions opt;
  opt.slo_s = 0.1;
  constexpr int kTicks = 100;
  const auto cache = model.make_scoring_cache(configs, ScoringPrecision::kFp16);
  int agree = 0;
  double worst_rel_cost = 0.0;
  std::vector<PredictionTarget> exact;
  std::vector<PredictionTarget> quant;
  for (int t = 0; t < kTicks; ++t) {
    const auto e1 =
        encode_row(model, random_window(32, 1000 + static_cast<unsigned>(t)));
    model.predict_grid_from_e1_batch(e1, 1, fp32, exact);
    model.predict_grid_from_e1_batch(e1, 1, cache, quant);
    const OptimizedChoice a = select_config(exact, configs, opt);
    const OptimizedChoice b = select_config(quant, configs, opt);
    if (a.config.memory_mb == b.config.memory_mb &&
        a.config.batch_size == b.config.batch_size &&
        a.config.timeout_s == b.config.timeout_s) {
      ++agree;
    } else {
      // A flip between near-tied configs is within the documented error
      // bound: score it by the EXACT predicted cost of the config the
      // fp16 path picked vs the exact argmin's cost.
      for (std::size_t i = 0; i < configs.size(); ++i) {
        if (configs[i].memory_mb == b.config.memory_mb &&
            configs[i].batch_size == b.config.batch_size &&
            configs[i].timeout_s == b.config.timeout_s) {
          const double c_exact = a.prediction.cost_usd_per_request;
          const double c_flip = exact[i].cost_usd_per_request;
          const double gap = std::fabs(c_flip - c_exact) /
                             std::max(std::fabs(c_exact), 1e-9);
          if (gap < 1e-2) ++agree;  // near-tie, not a real decision error
          break;
        }
      }
    }
    for (std::size_t i = 0; i < exact.size(); ++i) {
      const double c0 = exact[i].cost_usd_per_request;
      const double dc = std::fabs(quant[i].cost_usd_per_request - c0);
      const double rel = dc / std::max(std::fabs(c0), 1e-9);
      worst_rel_cost = std::max(worst_rel_cost, rel);
    }
  }
  // Documented error bound (DESIGN.md §12): only the output GEMM reads
  // rounded weights, so decisions agree with the exact argmin — or flip to a
  // config whose exact predicted cost is within 1% (a tie) — on >= 99%
  // of ticks. (The tiny untrained model is the hard case — near-tied
  // configs everywhere.)
  EXPECT_GE(agree, kTicks * 99 / 100);
  // And the per-entry cost error stays small in relative terms.
  EXPECT_LT(worst_rel_cost, 2e-2);
}

TEST(ScoringCache, GridScorerScoreMatchesEngineUnpack) {
  // GridScorer::score (solo) and GridScorer::unpack (fed by a batch
  // scorer's raw output) must agree exactly at every precision.
  Surrogate model(tiny_config(), grid());
  model.set_training(false);
  const auto configs = grid().enumerate();
  for (const ScoringPrecision precision :
       {ScoringPrecision::kFp32, ScoringPrecision::kFp16}) {
    GridScorer scorer(model, configs, precision);
    SurrogateBatchScorer batch(model, configs, precision);
    const auto e1 = encode_row(model, random_window(32, 77));
    const auto solo = scorer.score(e1);
    std::vector<PredictionTarget> solo_copy(solo.begin(), solo.end());
    std::vector<float> raw(configs.size() * batch.target_dim());
    batch.score(e1, 1, raw);
    const auto unpacked = scorer.unpack(raw);
    ASSERT_EQ(unpacked.size(), solo_copy.size());
    for (std::size_t i = 0; i < solo_copy.size(); ++i) {
      EXPECT_EQ(unpacked[i].cost_usd_per_request,
                solo_copy[i].cost_usd_per_request)
          << to_string(precision);
      for (std::size_t p = 0; p < solo_copy[i].latency_s.size(); ++p) {
        EXPECT_EQ(unpacked[i].latency_s[p], solo_copy[i].latency_s[p]);
      }
    }
  }
  EXPECT_EQ(SurrogateBatchScorer(model, configs, ScoringPrecision::kFp32)
                .encoding_dim(),
            static_cast<std::size_t>(model.config().model_dim));
}

TEST(ScoringCache, PrecisionNamesRoundTrip) {
  for (const ScoringPrecision p :
       {ScoringPrecision::kFp32, ScoringPrecision::kFp16}) {
    const auto parsed = parse_scoring_precision(to_string(p));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_FALSE(parse_scoring_precision("int8").has_value());
  EXPECT_FALSE(parse_scoring_precision("").has_value());
  EXPECT_FALSE(parse_scoring_precision("bf16").has_value());
}

}  // namespace
}  // namespace deepbat::core
