#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "sim/batch_sim.hpp"
#include "sim/faults.hpp"
#include "sim/run_identity.hpp"

namespace deepbat::sim {
namespace {

const lambda::LambdaModel& model() {
  static lambda::LambdaModel m;
  return m;
}

std::vector<double> ramp(int n, double step) {
  std::vector<double> a;
  a.reserve(n);
  for (int i = 0; i < n; ++i) a.push_back(i * step);
  return a;
}

void expect_identical(const SimResult& a, const SimResult& b) {
  if (auto d = first_divergence(a, b)) ADD_FAILURE() << to_string(*d);
}

TEST(Faults, ZeroFaultPlanIsByteIdentical) {
  // The fault layer is strictly opt-in: passing a disabled plan (with any
  // stream id and cold seed) must reproduce the pre-fault simulator
  // byte-for-byte, including the legacy i.i.d. cold-start stream.
  lambda::LambdaModelParams p;
  p.cold_start_probability = 0.3;
  p.cold_start_penalty_s = 0.4;
  const lambda::LambdaModel cold(p);
  const auto arrivals = ramp(500, 0.013);
  const lambda::Config cfg{1024, 4, 0.05};

  const SimResult baseline = simulate_trace(arrivals, cfg, cold, 1234);
  const FaultPlan calm;  // default-constructed: everything disabled
  ASSERT_FALSE(calm.enabled());
  const SimResult with_plan =
      simulate_trace(arrivals, cfg, cold, 1234, &calm, /*fault_stream=*/0);
  expect_identical(baseline, with_plan);

  // The "calm" named scenario is the same disabled plan.
  const FaultPlan named = fault_scenario("calm", 99);
  ASSERT_FALSE(named.enabled());
  const SimResult with_named =
      simulate_trace(arrivals, cfg, cold, 1234, &named, 0);
  expect_identical(baseline, with_named);
}

TEST(Faults, ScenarioFactoryAndNames) {
  for (const std::string& name : fault_scenario_names()) {
    const FaultPlan plan = fault_scenario(name, 7);
    EXPECT_EQ(plan.seed, 7u);
    if (name != "calm") {
      EXPECT_TRUE(plan.enabled()) << name;
    }
  }
  EXPECT_THROW(fault_scenario("smooth-sailing", 7), Error);
}

TEST(Faults, MixStreamSeedIdentityAndSplit) {
  EXPECT_EQ(mix_stream_seed(1234, 0), 1234u);  // stream 0 = solo replay
  EXPECT_NE(mix_stream_seed(1234, 1), 1234u);
  EXPECT_NE(mix_stream_seed(1234, 1), mix_stream_seed(1234, 2));
  EXPECT_NE(mix_stream_seed(1234, 1), mix_stream_seed(4321, 1));
}

TEST(Faults, BackoffScheduleIsDeterministicAndCapped) {
  FaultPlan plan;
  plan.failures.enabled = true;
  plan.retry.max_attempts = 8;
  plan.retry.base_backoff_s = 0.05;
  plan.retry.max_backoff_s = 0.4;
  plan.retry.jitter = 0.5;
  plan.seed = 11;

  FaultInjector a(plan, /*stream=*/3);
  FaultInjector b(plan, /*stream=*/3);
  FaultInjector other(plan, /*stream=*/4);
  bool any_stream_diff = false;
  for (std::int64_t k = 1; k <= 7; ++k) {
    const double da = a.backoff_delay(k);
    const double db = b.backoff_delay(k);
    EXPECT_EQ(da, db) << "same (plan, stream) must replay identically";
    any_stream_diff |= da != other.backoff_delay(k);
    // Jittered around min(base * 2^(k-1), max), within +-25%.
    const double nominal =
        std::min(0.05 * static_cast<double>(1 << (k - 1)), 0.4);
    EXPECT_GE(da, nominal * 0.75);
    EXPECT_LE(da, nominal * 1.25);
  }
  EXPECT_TRUE(any_stream_diff) << "distinct streams must not share draws";

  // jitter = 0: the schedule is exactly the capped doubling sequence.
  plan.retry.jitter = 0.0;
  FaultInjector exact(plan, 0);
  EXPECT_DOUBLE_EQ(exact.backoff_delay(1), 0.05);
  EXPECT_DOUBLE_EQ(exact.backoff_delay(2), 0.10);
  EXPECT_DOUBLE_EQ(exact.backoff_delay(3), 0.20);
  EXPECT_DOUBLE_EQ(exact.backoff_delay(4), 0.40);
  EXPECT_DOUBLE_EQ(exact.backoff_delay(5), 0.40);  // capped
}

TEST(Faults, DropAccountingConservesRequests) {
  // Every attempt fails in every phase: all batches exhaust max_attempts,
  // every request is dropped, and the billing shows the retries.
  FaultPlan plan;
  plan.failures.enabled = true;
  plan.failures.calm_rate = 1.0;
  plan.failures.flaky_rate = 1.0;
  plan.retry.max_attempts = 3;
  plan.seed = 5;

  // T large enough that every batch fills to exactly B = 4 before its
  // deadline: 10 full batches, exact attempt arithmetic below.
  const auto arrivals = ramp(40, 0.02);
  const lambda::Config cfg{1024, 4, 10.0};
  const SimResult r =
      simulate_trace(arrivals, cfg, model(), std::nullopt, &plan, 0);

  EXPECT_EQ(r.served(), 0u);
  EXPECT_EQ(r.dropped, arrivals.size());
  EXPECT_EQ(r.served() + r.dropped, r.offered());
  EXPECT_EQ(r.offered(), arrivals.size());
  EXPECT_DOUBLE_EQ(r.drop_rate(), 1.0);
  EXPECT_FALSE(r.latency_quantile(0.95).has_value());

  // 40 arrivals, B = 4 -> 10 batches; each billed max_attempts times with
  // two retries in between.
  EXPECT_EQ(r.invocations, 30u);
  EXPECT_EQ(r.retries, 20u);
  const double per_attempt =
      model().invocation_cost(1024, model().service_time(1024, 4));
  EXPECT_NEAR(r.total_cost, 30.0 * per_attempt, 1e-12);

  // Dropped arrivals are the full trace, in dispatch order.
  std::vector<double> sorted = r.dropped_arrivals;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, arrivals);
}

TEST(Faults, PartialFailuresConserveAndRebill) {
  // A flaky (but not hopeless) platform: some batches retry, some drop;
  // nothing is lost and every attempt shows up in invocations.
  FaultPlan plan;
  plan.failures.enabled = true;
  plan.failures.calm_rate = 0.5;
  plan.failures.flaky_rate = 0.5;
  plan.retry.max_attempts = 2;
  plan.seed = 17;

  const auto arrivals = ramp(400, 0.011);
  const lambda::Config cfg{1024, 4, 10.0};
  const SimResult r =
      simulate_trace(arrivals, cfg, model(), std::nullopt, &plan, 0);

  EXPECT_EQ(r.served() + r.dropped, arrivals.size());
  EXPECT_GT(r.served(), 0u);
  EXPECT_GT(r.dropped, 0u);
  EXPECT_GT(r.retries, 0u);
  EXPECT_EQ(r.dropped_arrivals.size(), r.dropped);
  // invocations = batches + retried attempts: more than the fault-free
  // batch count, and the retried batches re-bill into total_cost.
  EXPECT_GT(r.invocations, r.served() / 4);
  const double per_attempt =
      model().invocation_cost(1024, model().service_time(1024, 4));
  EXPECT_NEAR(r.total_cost, static_cast<double>(r.invocations) * per_attempt,
              1e-9);

  // Reproducible: same plan + stream -> bit-identical replay.
  const SimResult again =
      simulate_trace(arrivals, cfg, model(), std::nullopt, &plan, 0);
  expect_identical(r, again);
  // A different tenant stream sees different luck (the full drop pattern
  // matching across independent streams would require ~100 coin flips to
  // agree).
  const SimResult stream1 =
      simulate_trace(arrivals, cfg, model(), std::nullopt, &plan, 1);
  EXPECT_NE(r.dropped_arrivals, stream1.dropped_arrivals);
}

TEST(Faults, ColdBurstTriggersOnIdleGap) {
  FaultPlan plan;
  plan.cold.enabled = true;
  plan.cold.idle_gap_s = 15.0;
  plan.cold.burst_duration_s = 10.0;
  plan.cold.probability = 1.0;
  plan.cold.base_probability = 0.0;
  plan.cold.penalty_s = 0.5;
  plan.seed = 3;

  // Dispatches at 0 (first: always opens a burst), 1 (inside the burst
  // window [0, 10]), 12 (gap 11 < 15 and past the window: warm), 40
  // (gap 28 >= 15: new burst).
  const std::vector<double> arrivals{0.0, 1.0, 12.0, 40.0};
  const lambda::Config cfg{1024, 1, 0.0};
  const SimResult r =
      simulate_trace(arrivals, cfg, model(), std::nullopt, &plan, 0);
  ASSERT_EQ(r.served(), 4u);
  const double service = model().service_time(1024, 1);
  EXPECT_NEAR(r.requests[0].latency(), service + 0.5, 1e-12);
  EXPECT_NEAR(r.requests[1].latency(), service + 0.5, 1e-12);
  EXPECT_NEAR(r.requests[2].latency(), service, 1e-12);
  EXPECT_NEAR(r.requests[3].latency(), service + 0.5, 1e-12);
}

TEST(Faults, ThrottleDelaysDispatchUnderConcurrencyCap) {
  FaultPlan plan;
  plan.throttle.enabled = true;
  plan.throttle.max_concurrency = 1;
  plan.seed = 9;

  const std::vector<double> arrivals{0.0, 0.001};
  const lambda::Config cfg{1024, 1, 0.0};
  const SimResult r =
      simulate_trace(arrivals, cfg, model(), std::nullopt, &plan, 0);
  ASSERT_EQ(r.served(), 2u);
  // Batch 2 cannot start while batch 1 is in flight: it waits for the
  // earliest completion.
  EXPECT_EQ(r.requests[1].dispatch, r.requests[0].completion);
  EXPECT_GT(r.requests[1].latency(), r.requests[0].latency());
}

TEST(Faults, SpikeMultipliesServiceTime) {
  FaultPlan plan;
  plan.spikes.enabled = true;
  plan.spikes.probability = 1.0;
  plan.spikes.multiplier = 2.0;
  plan.seed = 21;

  const std::vector<double> arrivals{1.0};
  const lambda::Config cfg{1024, 1, 0.0};
  const SimResult r =
      simulate_trace(arrivals, cfg, model(), std::nullopt, &plan, 0);
  ASSERT_EQ(r.served(), 1u);
  EXPECT_NEAR(r.requests[0].latency(), 2.0 * model().service_time(1024, 1),
              1e-12);
  // The spiked (longer) attempt is what gets billed.
  EXPECT_NEAR(r.total_cost,
              model().invocation_cost(1024, 2.0 * model().service_time(1024, 1)),
              1e-15);
}

TEST(Faults, PlanValidation) {
  FaultPlan plan;
  plan.failures.enabled = true;
  plan.retry.max_attempts = 0;
  EXPECT_THROW(FaultInjector(plan, 0), Error);
  plan.retry.max_attempts = 3;
  plan.retry.max_backoff_s = plan.retry.base_backoff_s / 2.0;
  EXPECT_THROW(FaultInjector(plan, 0), Error);
  plan.retry.max_backoff_s = 1.0;
  plan.failures.mtbf_s = 0.0;
  EXPECT_THROW(FaultInjector(plan, 0), Error);
  plan.failures.mtbf_s = 300.0;
  plan.throttle.enabled = true;
  plan.throttle.max_concurrency = 0;
  EXPECT_THROW(FaultInjector(plan, 0), Error);
}

}  // namespace
}  // namespace deepbat::sim
