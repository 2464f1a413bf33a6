#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/ground_truth.hpp"
#include "sim/platform.hpp"
#include "workload/synth.hpp"

namespace deepbat::sim {
namespace {

TEST(Platform, FixedControllerMatchesDirectSimulation) {
  const workload::Trace trace =
      workload::twitter_like({.hours = 0.05}, 11);
  const lambda::LambdaModel model;
  const lambda::Config cfg{2048, 8, 0.05};
  FixedController fixed(cfg);
  const PlatformRun run = run_platform(trace, fixed, model, cfg);
  const SimResult direct = simulate_trace(trace.times(), cfg, model);
  ASSERT_EQ(run.result.served(), direct.served());
  EXPECT_NEAR(run.result.total_cost, direct.total_cost, 1e-12);
  EXPECT_NEAR(run.result.latency_quantile(0.95).value(),
              direct.latency_quantile(0.95).value(), 1e-12);
}

TEST(Platform, ControllerCalledAtInterval) {
  const workload::Trace trace =
      workload::twitter_like({.hours = 0.1}, 12);  // 360 s
  const lambda::LambdaModel model;
  class CountingController : public Controller {
   public:
    lambda::Config decide(const workload::Trace&, double) override {
      ++calls;
      return {1024, 4, 0.05};
    }
    std::string name() const override { return "counting"; }
    int calls = 0;
  } controller;
  PlatformOptions opts;
  opts.control_interval_s = 60.0;
  const PlatformRun run =
      run_platform(trace, controller, model, {1024, 1, 0.0}, opts);
  // Trace spans ~360 s -> decisions at 0, 60, ..., ~360.
  EXPECT_GE(controller.calls, 6);
  EXPECT_LE(controller.calls, 8);
  EXPECT_EQ(run.decisions.size(), static_cast<std::size_t>(controller.calls));
}

TEST(Platform, DecisionsChangeActiveConfig) {
  // Controller flips between no-batching and heavy batching; both modes
  // must be visible in the realized batch sizes.
  const workload::Trace trace = workload::twitter_like({.hours = 0.1}, 13);
  const lambda::LambdaModel model;
  class FlipController : public Controller {
   public:
    lambda::Config decide(const workload::Trace&, double) override {
      flip = !flip;
      return flip ? lambda::Config{1024, 1, 0.0}
                  : lambda::Config{1024, 32, 0.5};
    }
    std::string name() const override { return "flip"; }
    bool flip = false;
  } controller;
  PlatformOptions opts;
  opts.control_interval_s = 30.0;
  const PlatformRun run =
      run_platform(trace, controller, model, {1024, 1, 0.0}, opts);
  bool saw_single = false;
  bool saw_batched = false;
  for (const auto& r : run.result.requests) {
    saw_single = saw_single || r.batch_actual == 1;
    saw_batched = saw_batched || r.batch_actual >= 8;
  }
  EXPECT_TRUE(saw_single);
  EXPECT_TRUE(saw_batched);
}

TEST(Platform, EmptyTraceIsNoop) {
  const lambda::LambdaModel model;
  FixedController fixed({1024, 1, 0.0});
  const PlatformRun run =
      run_platform(workload::Trace{}, fixed, model, {1024, 1, 0.0});
  EXPECT_EQ(run.result.served(), 0u);
  EXPECT_TRUE(run.decisions.empty());
}

TEST(GroundTruth, BestIsCheapestFeasible) {
  std::vector<double> arrivals;
  for (int i = 0; i < 2000; ++i) arrivals.push_back(i * 0.01);
  const lambda::LambdaModel model;
  const auto grid = lambda::ConfigGrid::small();
  const GroundTruthResult r =
      ground_truth_search(arrivals, grid, model, 0.1, 0.95);
  ASSERT_TRUE(r.best.has_value());
  EXPECT_TRUE(r.best->feasible);
  EXPECT_LE(r.best->latency_percentile, 0.1);
  for (const auto& eval : r.table) {
    if (eval.feasible) {
      EXPECT_LE(r.best->cost_per_request, eval.cost_per_request);
    }
  }
  EXPECT_EQ(r.table.size(), grid.size());
}

TEST(GroundTruth, ImpossibleSloHasNoFeasible) {
  std::vector<double> arrivals{0.0, 0.5, 1.0};
  const lambda::LambdaModel model;
  const GroundTruthResult r = ground_truth_search(
      arrivals, lambda::ConfigGrid::small(), model, 1e-6, 0.95);
  EXPECT_FALSE(r.best.has_value());
}

TEST(GroundTruth, EvaluateConfigChecksInputs) {
  const lambda::LambdaModel model;
  EXPECT_THROW(
      evaluate_config({}, {1024, 1, 0.0}, model, 0.1, 0.95), Error);
  const std::vector<double> one{0.0};
  EXPECT_THROW(evaluate_config(one, {1024, 1, 0.0}, model, 0.1, 1.5), Error);
}

}  // namespace
}  // namespace deepbat::sim
