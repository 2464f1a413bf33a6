// End-to-end training pipeline tests: dataset construction from a trace,
// loss descent, fine-tuning, gamma estimation, and the pretrained cache.
// Kept intentionally small (short sequences, few samples) to run in CI
// time; the bench binaries exercise the paper-scale path.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/error.hpp"
#include "core/pretrained.hpp"
#include "workload/synth.hpp"
#include "scratch_dir.hpp"

namespace deepbat::core {
namespace {

const lambda::LambdaModel& model() {
  static lambda::LambdaModel m;
  return m;
}

DatasetBuilderOptions tiny_dataset_options() {
  DatasetBuilderOptions opts;
  opts.sequence_length = 32;
  opts.label_arrivals = 64;
  opts.samples = 60;
  opts.seed = 5;
  return opts;
}

workload::Trace test_trace() {
  return workload::twitter_like({.hours = 0.2}, 41);
}

TEST(DatasetBuilder, ShapesAndDeterminism) {
  const auto trace = test_trace();
  const auto ds = build_dataset(trace, lambda::ConfigGrid::small(), model(),
                                tiny_dataset_options());
  EXPECT_EQ(ds.size(), 60u);
  EXPECT_EQ(ds.sequence_length(), 32);
  EXPECT_EQ(ds.feature_dim(), 3);
  EXPECT_EQ(ds.target_dim(), static_cast<std::int64_t>(kTargetDim));
  const auto ds2 = build_dataset(trace, lambda::ConfigGrid::small(), model(),
                                 tiny_dataset_options());
  for (std::size_t i = 0; i < ds.size(); i += 13) {
    EXPECT_EQ(ds[i].sequence, ds2[i].sequence);
    EXPECT_EQ(ds[i].target, ds2[i].target);
  }
}

TEST(DatasetBuilder, TargetsArePhysical) {
  const auto ds = build_dataset(test_trace(), lambda::ConfigGrid::small(),
                                model(), tiny_dataset_options());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const PredictionTarget t = unpack_target(ds[i].target);
    EXPECT_GT(t.cost_usd_per_request, 0.0);
    EXPECT_LT(t.cost_usd_per_request, 1e-3);
    // Percentiles are sorted by construction.
    for (std::size_t p = 1; p < kPercentiles.size(); ++p) {
      EXPECT_GE(t.latency_s[p], t.latency_s[p - 1] - 1e-12);
    }
    EXPECT_GT(t.latency_s[0], 0.0);
  }
}

TEST(DatasetBuilder, RejectsTooShortTrace) {
  const workload::Trace tiny({0.0, 0.1, 0.2});
  EXPECT_THROW(build_dataset(tiny, lambda::ConfigGrid::small(), model(),
                             tiny_dataset_options()),
               Error);
}

TEST(SimulateTarget, MatchesDirectSimulation) {
  const auto trace = test_trace();
  const auto arrivals = trace.times().subspan(0, 200);
  const lambda::Config cfg{2048, 8, 0.05};
  const PredictionTarget t = simulate_target(arrivals, cfg, model());
  const sim::SimResult r = sim::simulate_trace(arrivals, cfg, model());
  EXPECT_NEAR(t.cost_usd_per_request, r.cost_per_request(), 1e-12);
  EXPECT_NEAR(t.p95(), r.latency_quantile(0.95).value(), 1e-9);
}

TEST(Trainer, LossDecreasesOverEpochs) {
  const auto ds = build_dataset(test_trace(), lambda::ConfigGrid::small(),
                                model(), tiny_dataset_options());
  SurrogateConfig scfg;
  scfg.sequence_length = 32;
  scfg.dropout = 0.0F;
  Surrogate sur(scfg, lambda::ConfigGrid::small());
  TrainOptions topt;
  topt.epochs = 8;
  topt.lr_decay_every = 0;
  const TrainResult result = train(sur, ds, topt);
  ASSERT_EQ(result.history.size(), 8u);
  EXPECT_LT(result.history.back().train_loss,
            result.history.front().train_loss * 0.8);
  EXPECT_GT(result.seconds, 0.0);
}

TEST(Trainer, FineTuneImprovesOnShiftedWorkload) {
  // Train on calm traffic, then fine-tune on bursty traffic: MAPE on the
  // bursty set must drop (the §III-D fine-tuning claim, in miniature).
  const auto calm = build_dataset(test_trace(), lambda::ConfigGrid::small(),
                                  model(), tiny_dataset_options());
  auto burst_opts = tiny_dataset_options();
  burst_opts.seed = 99;
  const auto bursty = build_dataset(
      workload::synthetic_map({.hours = 0.3}, 43),
      lambda::ConfigGrid::small(), model(), burst_opts);

  SurrogateConfig scfg;
  scfg.sequence_length = 32;
  scfg.dropout = 0.0F;
  Surrogate sur(scfg, lambda::ConfigGrid::small());
  TrainOptions topt;
  topt.epochs = 10;
  train(sur, calm, topt);
  const double before = evaluate_mape(sur, bursty);
  fine_tune(sur, bursty, /*epochs=*/8);
  const double after = evaluate_mape(sur, bursty);
  EXPECT_LT(after, before);
}

TEST(Trainer, GammaEstimateIsFractionalError) {
  const auto ds = build_dataset(test_trace(), lambda::ConfigGrid::small(),
                                model(), tiny_dataset_options());
  SurrogateConfig scfg;
  scfg.sequence_length = 32;
  scfg.dropout = 0.0F;
  Surrogate sur(scfg, lambda::ConfigGrid::small());
  const double gamma_untrained = estimate_gamma(sur, ds);
  EXPECT_GT(gamma_untrained, 0.0);
  TrainOptions topt;
  topt.epochs = 10;
  train(sur, ds, topt);
  const double gamma_trained = estimate_gamma(sur, ds);
  EXPECT_LT(gamma_trained, gamma_untrained);
}

TEST(Trainer, EpochCallbackFires) {
  const auto ds = build_dataset(test_trace(), lambda::ConfigGrid::small(),
                                model(), tiny_dataset_options());
  SurrogateConfig scfg;
  scfg.sequence_length = 32;
  Surrogate sur(scfg, lambda::ConfigGrid::small());
  TrainOptions topt;
  topt.epochs = 3;
  int fired = 0;
  topt.on_epoch = [&](int, double, double) { ++fired; };
  train(sur, ds, topt);
  EXPECT_EQ(fired, 3);
}

TEST(Pretrained, TrainsThenLoadsFromCache) {
  const auto trace = test_trace();
  PretrainSpec spec;
  spec.surrogate.sequence_length = 32;
  spec.surrogate.dropout = 0.0F;
  spec.dataset = tiny_dataset_options();
  spec.train.epochs = 3;
  spec.cache_path = test::scratch_path("pretrained_test.bin");
  std::filesystem::remove(spec.cache_path);

  const auto first = ensure_pretrained(trace, lambda::ConfigGrid::small(),
                                       model(), spec);
  EXPECT_FALSE(first.loaded_from_cache);
  EXPECT_EQ(first.train_result.history.size(), 3u);
  ASSERT_TRUE(std::filesystem::exists(spec.cache_path));

  const auto second = ensure_pretrained(trace, lambda::ConfigGrid::small(),
                                        model(), spec);
  EXPECT_TRUE(second.loaded_from_cache);
  // Identical weights -> identical predictions.
  std::vector<float> window(32, 1.0F);
  const auto configs = lambda::ConfigGrid::small().enumerate();
  const auto pa = first.surrogate->predict_grid(window, configs);
  const auto pb = second.surrogate->predict_grid(window, configs);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_FLOAT_EQ(static_cast<float>(pa[i].p95()),
                    static_cast<float>(pb[i].p95()));
  }
  std::filesystem::remove(spec.cache_path);
}

TEST(Pretrained, BenchSpecRejectsMalformedTrainingKnobs) {
  // The environment overrides of the bench recipe accept only whole
  // positive integers; anything else is an error, not a silent 0 or prefix.
  struct Case {
    const char* epochs;
    const char* samples;
    bool ok;
  };
  const Case cases[] = {
      {"3", "50", true},          {"0", nullptr, false},
      {"-1", nullptr, false},     {"12x", nullptr, false},
      {"", nullptr, false},       {"2147483648", nullptr, false},
      {nullptr, "0", false},      {nullptr, "1e3", false},
      {nullptr, " 5", false},     {nullptr, "abc", false},
  };
  const auto set = [](const char* name, const char* value) {
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string("epochs=") + (c.epochs ? c.epochs : "unset") +
                 " samples=" + (c.samples ? c.samples : "unset"));
    set("DEEPBAT_TRAIN_EPOCHS", c.epochs);
    set("DEEPBAT_TRAIN_SAMPLES", c.samples);
    if (c.ok) {
      const PretrainSpec spec = bench_spec("cache");
      EXPECT_EQ(spec.train.epochs, 3);
      EXPECT_EQ(spec.dataset.samples, 50u);
    } else {
      EXPECT_THROW(bench_spec("cache"), Error);
    }
  }
  unsetenv("DEEPBAT_TRAIN_EPOCHS");
  unsetenv("DEEPBAT_TRAIN_SAMPLES");
}

}  // namespace
}  // namespace deepbat::core
