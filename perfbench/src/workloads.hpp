#pragma once
// The three benchmark workloads, each a closed-loop replay through
// sim::Runtime: arrivals are replayed in simulated time and the runtime
// starts the next tick group only after the current one completes, so host
// speed never changes the input. Everything a workload replays is derived
// from one seed; the program receives only the generated traces.
//
//   fleet_surrogate — 32 DeepBAT tenants on the shared tick grid, fp32
//                     scoring through one shared batch encoder and scorer,
//                     2 shards: the surrogate decision path at fleet scale.
//   fleet_zipf      — 100k Zipf tenants (skew 0.8) under one fixed
//                     controller with staggered intervals, 2 shards: the
//                     runtime's own scheduling, simulation and shard
//                     overhead, with no surrogate.
//   learn_flaky     — 8 adaptive (online-learning) DeepBAT tenants under
//                     the flaky fault scenario, one retrain each, 1 shard:
//                     harvest, drift, fine-tuning, shadow evaluation,
//                     hot-swap, retries, drops and breaker fallbacks.

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "summary.hpp"
#include "tracing.hpp"

namespace deepbat::perfbench {

enum class Kind { kFleetSurrogate, kFleetZipf, kLearnFlaky };

struct WorkloadSpec {
  std::string name;
  Kind kind;
  std::size_t shards;
  std::size_t tenants;
  double hours;  // simulated horizon of every tenant's trace
  /// Background retrain workers (learn_flaky only); counted in the thread
  /// budget next to the shards.
  std::size_t retrain_workers;
  bool overlap_encode;  // sim::RuntimeOptions::overlap_encode
};

/// The workload named `name`; throws deepbat::Error for unknown names.
const WorkloadSpec& find_workload(const std::string& name);

/// Tenant SLO (seconds): every workload serves against 0.1 s.
inline constexpr double kSloSeconds = 0.1;

/// Generated inputs of one workload at one seed.
struct Inputs {
  std::vector<workload::Trace> traces;
  std::size_t arrivals = 0;
  std::size_t live_tenants = 0;
  std::uint64_t fault_seed = 0;
  std::vector<std::uint64_t> retrain_seeds;  // learn_flaky: one per tenant
};

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

/// Surrogate shape constants the FLOP counts are computed from.
struct SurrogateShape {
  double encode_flop_per_window = 0.0;
  double score_flop_per_row = 0.0;  // one E_1 row against the whole grid
};

/// Multiply-adds counted as two FLOPs, from the tensor shapes of the bench
/// surrogate (softmax, layer norm and activations are not counted).
SurrogateShape surrogate_shape(const core::SurrogateConfig& config,
                               std::size_t grid_size);

/// One closed-loop replay: set-up, run, and everything measured about it.
struct RepResult {
  bool traced = false;
  // Set-up, from inputs generated to the first tick.
  double setup_s = 0.0;
  double surrogate_load_s = 0.0;
  double controller_build_s = 0.0;
  double register_s = 0.0;
  // Runtime::run().
  double run_s = 0.0;
  std::size_t decisions = 0;
  std::vector<double> latency_ms;  // one sample per decision
  LatencySummary latency;
  // Decision quality (functions of the decisions alone).
  std::size_t offered = 0;
  std::size_t served = 0;
  std::size_t served_within_slo = 0;
  std::size_t dropped = 0;
  std::size_t retries = 0;
  std::size_t invocations = 0;
  double total_cost = 0.0;
  // Correctness.
  std::string digest;
  bool conserved = true;      // served + dropped == trace arrivals, per tenant
  bool counts_agree = true;   // decisions == control ticks == latency samples
  // Layer counters read from the public result types.
  sim::RuntimeStats stats;
  std::size_t executors = 0;
  std::size_t fallbacks = 0;
  std::size_t retrains = 0;
  std::size_t swaps = 0;
  std::size_t shadow_wins = 0;
  std::size_t shadow_losses = 0;
  std::size_t samples_harvested = 0;
  // Traced replays only.
  TraceTotals trace;
  Budget budget;
};

/// Loaded once per process: the fixture that owns the surrogate cache.
struct Prepared {
  bench::Fixture* fixture = nullptr;
  double gamma = 0.0;
  core::SurrogateConfig surrogate_config;
  std::string weights_path;
};

Prepared prepare(bench::Fixture& fixture);

/// Run one replay. With `traced`, spans are recorded and summed; when
/// `spans_path` is non-empty they are also written there as CSV.
RepResult run_rep(const WorkloadSpec& spec, const Inputs& inputs,
                  const Prepared& prepared, bool traced,
                  const std::string& spans_path);

}  // namespace deepbat::perfbench
