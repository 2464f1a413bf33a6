#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/surrogate.hpp"
#include "nn/serialize.hpp"
#include "scratch_dir.hpp"

#include <cstdio>

namespace deepbat::core {
namespace {

SurrogateConfig tiny_config() {
  SurrogateConfig cfg;
  cfg.sequence_length = 32;
  cfg.dropout = 0.0F;
  return cfg;
}

lambda::ConfigGrid grid() { return lambda::ConfigGrid::small(); }

nn::Tensor random_sequences(std::int64_t batch, std::int64_t l,
                            std::uint64_t seed) {
  Rng rng(seed);
  nn::Tensor t({batch, l, 1});
  for (float& x : t.flat()) {
    x = static_cast<float>(rng.uniform(0.0, 3.0));
  }
  return t;
}

TEST(FeatureStandardizerTest, ZeroMeanUnitVarianceOnGrid) {
  const auto st = FeatureStandardizer::from_grid(grid());
  const auto configs = grid().enumerate();
  nn::Tensor raw({static_cast<std::int64_t>(configs.size()), 3});
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto f = encode_features(configs[i]);
    for (std::size_t j = 0; j < 3; ++j) {
      raw.at(static_cast<std::int64_t>(i), static_cast<std::int64_t>(j)) =
          f[j];
    }
  }
  const nn::Tensor std_feats = st.apply(raw);
  for (std::int64_t c = 0; c < 3; ++c) {
    double sum = 0.0;
    double sq = 0.0;
    for (std::int64_t r = 0; r < raw.dim(0); ++r) {
      sum += std_feats.at(r, c);
      sq += std_feats.at(r, c) * std_feats.at(r, c);
    }
    const double n = static_cast<double>(raw.dim(0));
    EXPECT_NEAR(sum / n, 0.0, 1e-5);
    EXPECT_NEAR(sq / n, 1.0, 1e-4);
  }
}

TEST(SurrogateModel, ForwardShape) {
  Surrogate model(tiny_config(), grid());
  const std::int64_t batch = 4;
  nn::Var seq = nn::make_leaf(random_sequences(batch, 32, 1), false);
  nn::Tensor feats({batch, 3});
  for (std::int64_t r = 0; r < batch; ++r) {
    feats.at(r, 0) = 1024.0F;
    feats.at(r, 1) = 4.0F;
    feats.at(r, 2) = 0.05F;
  }
  nn::Var out = model.forward(seq, nn::make_leaf(feats, false));
  EXPECT_EQ(out->value.shape(),
            (nn::Shape{batch, static_cast<std::int64_t>(kTargetDim)}));
}

TEST(SurrogateModel, RejectsWrongSequenceShape) {
  Surrogate model(tiny_config(), grid());
  nn::Var bad = nn::make_leaf(nn::Tensor({2, 32}), false);
  nn::Var feats = nn::make_leaf(nn::Tensor({2, 3}), false);
  EXPECT_THROW(model.forward(bad, feats), Error);
}

TEST(SurrogateModel, GradientsReachAllParameters) {
  auto cfg = tiny_config();
  Surrogate model(cfg, grid());
  nn::Var seq = nn::make_leaf(random_sequences(2, 32, 2), false);
  nn::Tensor feats({2, 3});
  feats.fill(1.0F);
  nn::Var out = model.forward(seq, nn::make_leaf(feats, false));
  nn::backward(nn::sum_all(nn::mul(out, out)));
  for (const auto& [name, p] : model.named_parameters()) {
    EXPECT_TRUE(p->has_grad) << name;
  }
}

TEST(SurrogateModel, PredictGridMatchesFullForward) {
  // The split fast path (encode once + head per config) must agree with
  // the full forward pass in eval mode.
  auto cfg = tiny_config();
  Surrogate model(cfg, grid());
  model.set_training(false);
  Rng rng(3);
  std::vector<float> window(32);
  for (float& x : window) x = static_cast<float>(rng.uniform(0.0, 3.0));
  const auto configs = grid().enumerate();
  const auto preds = model.predict_grid(window, configs);
  ASSERT_EQ(preds.size(), configs.size());

  // Compare one config against the monolithic forward.
  const std::size_t pick = 5;
  nn::Tensor seq({1, 32, 1});
  std::copy(window.begin(), window.end(), seq.data());
  nn::Tensor feats({1, 3});
  const auto f = encode_features(configs[pick]);
  std::copy(f.begin(), f.end(), feats.data());
  nn::Var out = model.forward(nn::make_leaf(seq, false),
                              nn::make_leaf(feats, false));
  const PredictionTarget direct = unpack_target(
      {out->value.data(), kTargetDim});
  EXPECT_NEAR(preds[pick].cost_usd_per_request, direct.cost_usd_per_request,
              1e-9);
  EXPECT_NEAR(preds[pick].p95(), direct.p95(), 1e-6);
}

TEST(SurrogateModel, PredictGridChecksWindowLength) {
  Surrogate model(tiny_config(), grid());
  std::vector<float> wrong(16, 0.0F);
  const auto configs = grid().enumerate();
  EXPECT_THROW(model.predict_grid(wrong, configs), Error);
}

TEST(SurrogateModel, DifferentWindowsGiveDifferentPredictions) {
  Surrogate model(tiny_config(), grid());
  model.set_training(false);
  std::vector<float> calm(32, 3.0F);   // long gaps
  std::vector<float> burst(32, 0.1F);  // short gaps
  const auto configs = grid().enumerate();
  const auto a = model.predict_grid(calm, configs);
  const auto b = model.predict_grid(burst, configs);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i].p95() - b[i].p95()) > 1e-6) any_diff = true;
  }
  EXPECT_TRUE(any_diff) << "sequence branch must influence predictions";
}

TEST(SurrogateModel, AttentionProfileAvailableWhenRecorded) {
  Surrogate model(tiny_config(), grid());
  model.set_training(false);
  EXPECT_TRUE(model.last_attention_profile().empty());
  model.set_record_attention(true);
  nn::Tensor seq = random_sequences(1, 32, 4);
  model.encode_sequence(seq);
  const auto profile = model.last_attention_profile();
  ASSERT_EQ(profile.size(), 32u);
  // Attention weights over keys are a distribution: profile sums to ~1.
  float total = 0.0F;
  for (float p : profile) {
    EXPECT_GE(p, 0.0F);
    total += p;
  }
  EXPECT_NEAR(total, 1.0F, 1e-4F);
}

TEST(SurrogateModel, SaveLoadPreservesPredictions) {
  auto cfg = tiny_config();
  Surrogate a(cfg, grid());
  a.set_training(false);
  const auto path = test::scratch_path("surrogate_test.bin");
  nn::save_module(path, a);

  cfg.init_seed = 999;  // different init
  Surrogate b(cfg, grid());
  nn::load_module(path, b);
  b.set_training(false);

  std::vector<float> window(32, 1.0F);
  const auto configs = grid().enumerate();
  const auto pa = a.predict_grid(window, configs);
  const auto pb = b.predict_grid(window, configs);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_NEAR(pa[i].p95(), pb[i].p95(), 1e-7);
  }
  std::remove(path.c_str());
}

TEST(SurrogateModel, ParameterCountIsSmall) {
  // The paper deploys with 2 MB memory; the d=16 model must stay tiny.
  Surrogate model(tiny_config(), grid());
  EXPECT_LT(model.parameter_count(), 20000);
  EXPECT_GT(model.parameter_count(), 1000);
}

}  // namespace
}  // namespace deepbat::core
