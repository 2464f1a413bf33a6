// Run identity (DESIGN.md §10): first_divergence reports nothing for two
// replays of the same fleet, and names the tenant, field path and element
// of every single-field mutation — each RequestRecord member, each
// SimResult scalar and vector, decision times and configs, and the fleet
// and retraining metadata — plus length mismatches and -0.0 vs 0.0.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/faults.hpp"
#include "sim/run_identity.hpp"
#include "sim/runtime.hpp"
#include "workload/synth.hpp"

namespace deepbat::sim {
namespace {

constexpr std::size_t kTenant = 2;  // the mutated tenant

/// Three grouped tenants under chaos faults on two shards, so every
/// SimResult carries retries and drops; the mutated tenant also gets a
/// surrogate swap, standing in for a retraining replay.
std::vector<PlatformRun> replay() {
  static const lambda::LambdaModel lm;
  std::vector<workload::Trace> traces;
  std::vector<std::unique_ptr<FixedController>> controllers;
  FaultPlan plan = fault_scenario("chaos", 5);
  plan.failures.calm_rate = 0.2;  // failures outside flaky phases too
  plan.retry.max_attempts = 2;    // a second failure drops the batch
  Runtime runtime(nullptr, RuntimeOptions{.shards = 2});
  for (std::size_t i = 0; i < 3; ++i) {
    traces.push_back(workload::twitter_like({.hours = 0.1}, 40 + i));
    controllers.push_back(std::make_unique<FixedController>(
        lambda::Config{1024, 4, 0.5}));
  }
  for (std::size_t i = 0; i < 3; ++i) {
    TenantSpec spec;
    spec.name = "tenant" + std::to_string(i);
    spec.trace = &traces[i];
    spec.controller = controllers[i].get();
    spec.model = &lm;
    spec.group_id = static_cast<std::int64_t>(i);
    spec.initial_config = {1024, 4, 0.5};
    spec.options.control_interval_s = 30.0;
    spec.options.faults = plan;
    spec.options.fault_stream = i;
    runtime.add_tenant(std::move(spec));
  }
  std::vector<PlatformRun> runs = runtime.run();
  runs[kTenant].swaps = {{60.0, 0, 1}, {120.0, 1, 2}};
  return runs;
}

double next_up(double v) {
  return std::nextafter(v, std::numeric_limits<double>::infinity());
}

struct Mutation {
  std::string field;                 // expected RunDivergence::field
  std::optional<std::size_t> index;  // expected RunDivergence::index
  std::function<void(PlatformRun&)> apply;
};

TEST(RunIdentity, RerunHasNoDivergence) {
  const std::vector<PlatformRun> a = replay();
  const std::vector<PlatformRun> b = replay();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_FALSE(first_divergence(a, b).has_value());
  EXPECT_FALSE(first_divergence(a[0].result, b[0].result).has_value());
}

TEST(RunIdentity, NamesEveryMutatedField) {
  const std::vector<PlatformRun> base = replay();
  const PlatformRun& run = base[kTenant];
  // The fixture exercises every vector the contract covers.
  ASSERT_GT(run.result.requests.size(), 10u);
  ASSERT_GT(run.decisions.size(), 3u);
  ASSERT_FALSE(run.result.dropped_arrivals.empty());
  ASSERT_GT(run.result.retries, 0u);

  const std::size_t r = run.result.requests.size() / 2;
  const std::size_t k = run.decisions.size() / 2;
  const std::size_t x = run.result.dropped_arrivals.size() - 1;
  const std::vector<Mutation> mutations = {
      {"result.requests[].arrival", r,
       [&](PlatformRun& p) { p.result.requests[r].arrival += 1e-9; }},
      {"result.requests[].dispatch", r,
       [&](PlatformRun& p) { p.result.requests[r].dispatch += 1e-9; }},
      {"result.requests[].completion", r,
       [&](PlatformRun& p) {
         p.result.requests[r].completion =
             next_up(p.result.requests[r].completion);
       }},
      {"result.requests[].batch_actual", r,
       [&](PlatformRun& p) { ++p.result.requests[r].batch_actual; }},
      {"result.requests[].cost_share", r,
       [&](PlatformRun& p) {
         p.result.requests[r].cost_share =
             next_up(p.result.requests[r].cost_share);
       }},
      {"result.requests.size", std::nullopt,
       [](PlatformRun& p) { p.result.requests.pop_back(); }},
      {"result.invocations", std::nullopt,
       [](PlatformRun& p) { ++p.result.invocations; }},
      {"result.total_cost", std::nullopt,
       [](PlatformRun& p) { p.result.total_cost += 1e-9; }},
      {"result.dropped_arrivals[]", x,
       [&](PlatformRun& p) { p.result.dropped_arrivals[x] += 1.0; }},
      {"result.dropped_arrivals.size", std::nullopt,
       [](PlatformRun& p) { p.result.dropped_arrivals.push_back(0.0); }},
      {"result.retries", std::nullopt,
       [](PlatformRun& p) { ++p.result.retries; }},
      {"result.dropped", std::nullopt,
       [](PlatformRun& p) { ++p.result.dropped; }},
      {"decisions[].time", k,
       [&](PlatformRun& p) { p.decisions[k].time += 30.0; }},
      {"decisions[].config.memory_mb", k,
       [&](PlatformRun& p) { p.decisions[k].config.memory_mb += 64; }},
      {"decisions[].config.batch_size", k,
       [&](PlatformRun& p) { ++p.decisions[k].config.batch_size; }},
      {"decisions[].config.timeout_s", k,
       [&](PlatformRun& p) { p.decisions[k].config.timeout_s += 0.1; }},
      {"decisions.size", std::nullopt,
       [](PlatformRun& p) { p.decisions.pop_back(); }},
      {"group_id", std::nullopt, [](PlatformRun& p) { ++p.group_id; }},
      {"backend", std::nullopt,
       [](PlatformRun& p) { p.backend = "gpu-serverless"; }},
      {"fault_stream", std::nullopt,
       [](PlatformRun& p) { ++p.fault_stream; }},
      {"swaps[].time", 1, [](PlatformRun& p) { p.swaps[1].time += 30.0; }},
      {"swaps[].from_version", 1,
       [](PlatformRun& p) { ++p.swaps[1].from_version; }},
      {"swaps[].to_version", 0,
       [](PlatformRun& p) { ++p.swaps[0].to_version; }},
      {"swaps.size", std::nullopt, [](PlatformRun& p) { p.swaps.clear(); }},
  };
  for (const Mutation& m : mutations) {
    SCOPED_TRACE(m.field);
    std::vector<PlatformRun> mutated = base;
    m.apply(mutated[kTenant]);
    const auto d = first_divergence(base, mutated);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->tenant, kTenant);
    EXPECT_EQ(d->field, m.field);
    EXPECT_EQ(d->index, m.index);
  }
}

TEST(RunIdentity, ReportsTheFirstDifferenceAndRendersIt) {
  const std::vector<PlatformRun> base = replay();
  std::vector<PlatformRun> mutated = base;
  mutated[kTenant].result.requests[9].completion += 1.0;
  mutated[kTenant].result.requests[5].completion += 1.0;
  mutated[kTenant].result.total_cost += 1.0;
  const auto d = first_divergence(base, mutated);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->index, 5u);
  EXPECT_EQ(to_string(*d).rfind("tenant 2: result.requests[5].completion (", 0),
            0u)
      << to_string(*d);

  // The SimResult overload reports the same field without a tenant.
  const auto r = first_divergence(base[kTenant].result,
                                  mutated[kTenant].result);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->tenant.has_value());
  EXPECT_EQ(r->field, "requests[].completion");
  EXPECT_EQ(r->index, 5u);
}

TEST(RunIdentity, TenantCountMismatch) {
  const std::vector<PlatformRun> base = replay();
  std::vector<PlatformRun> fewer = base;
  fewer.pop_back();
  const auto d = first_divergence(base, fewer);
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(d->tenant.has_value());
  EXPECT_EQ(d->field, "tenants.size");
  EXPECT_EQ(to_string(*d), "tenants.size (3 vs 2)");
}

TEST(RunIdentity, NegativeZeroIsADivergence) {
  // operator== calls -0.0 and 0.0 equal; the bit image does not.
  std::vector<PlatformRun> a = replay();
  std::vector<PlatformRun> b = a;
  a[0].result.requests[0].cost_share = 0.0;
  b[0].result.requests[0].cost_share = -0.0;
  ASSERT_EQ(a[0].result.requests[0].cost_share,
            b[0].result.requests[0].cost_share);
  const auto d = first_divergence(a, b);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->tenant, 0u);
  EXPECT_EQ(d->field, "result.requests[].cost_share");
  EXPECT_EQ(d->index, 0u);
  EXPECT_EQ(d->values, "0 vs -0");
}

}  // namespace
}  // namespace deepbat::sim
