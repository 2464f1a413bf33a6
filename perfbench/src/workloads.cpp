#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>

#include "common/error.hpp"
#include "nn/serialize.hpp"
#include "replay_common.hpp"
#include "sim/faults.hpp"
#include "workload/synth.hpp"

namespace deepbat::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Seed streams: every input of a workload derives from the one seed.
constexpr std::uint64_t kFaultStream = 1;
constexpr std::uint64_t kZipfStream = 3;
constexpr std::uint64_t kTraceStreamBase = 1000;
constexpr std::uint64_t kRetrainStreamBase = 2000;

constexpr double kControlIntervalS = 30.0;  // the canonical shared grid
constexpr double kZipfHorizonS = 300.0;
constexpr double kZipfBaseIntervalS = 2.0;
constexpr double kZipfSkew = 0.8;
constexpr double kZipfTopRate = 30.0;
const lambda::Config kInitialConfig{2048, 1, 0.0};
constexpr std::size_t kRetrainSampleBudget = 16;

/// Control interval of tenant i.
///   fleet_surrogate: the canonical 30 s on the shared grid, so the whole
///     fleet ticks together and batching across tenants shows.
///   fleet_zipf: 1000 distinct values in [2 s, 4 s), so tick groups stay
///     small and every tick pays the scheduler.
///   learn_flaky: 30 s stretched by 1% per tenant, so each tenant's tick is
///     its own group. A blocking retrain join then delays only the joining
///     tenant's decision (about 0.15% of them). On the shared grid it delayed
///     its whole group, and whether that exceeded 1% of decisions, and so
///     moved the p99 by 40x, depended on the seed.
double control_interval(Kind kind, std::size_t i) {
  switch (kind) {
    case Kind::kFleetZipf:
      return kZipfBaseIntervalS *
             (1.0 + static_cast<double>(i % 1000) / 1000.0);
    case Kind::kLearnFlaky:
      return kControlIntervalS * (1.0 + static_cast<double>(i) / 100.0);
    case Kind::kFleetSurrogate:
      break;
  }
  return kControlIntervalS;
}

workload::Trace family_trace(std::size_t family, double hours,
                             std::uint64_t seed) {
  switch (family % 4) {
    case 0:
      return workload::azure_like({.hours = hours}, seed);
    case 1:
      return workload::twitter_like({.hours = hours}, seed);
    case 2:
      return workload::alibaba_like({.hours = hours}, seed);
    default:
      return workload::synthetic_map({.hours = hours}, seed);
  }
}

}  // namespace

const WorkloadSpec& find_workload(const std::string& name) {
  static const std::vector<WorkloadSpec> all = {
      {"fleet_surrogate", Kind::kFleetSurrogate, 2, 32, 2.0, 0, true},
      {"fleet_zipf", Kind::kFleetZipf, 2, 100000, kZipfHorizonS / 3600.0, 0,
       true},
      // Each tick group holds one tenant here (see control_interval), so
      // double-buffering has no group to overlap: it would only move other
      // tenants' event replay into the deciding tenant's wait.
      {"learn_flaky", Kind::kLearnFlaky, 1, 8, 6.0, 1, false},
  };
  for (const WorkloadSpec& w : all) {
    if (w.name == name) return w;
  }
  DEEPBAT_FAIL("unknown workload: " + name);
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  Inputs in;
  in.fault_seed = sim::mix_stream_seed(seed, kFaultStream);
  if (spec.kind == Kind::kFleetZipf) {
    workload::ZipfPopulationParams zp;
    zp.tenants = spec.tenants;
    zp.horizon_s = kZipfHorizonS;
    zp.exponent = kZipfSkew;
    zp.top_rate = kZipfTopRate;
    in.traces =
        workload::zipf_population(zp, sim::mix_stream_seed(seed, kZipfStream));
  } else {
    in.traces.reserve(spec.tenants);
    for (std::size_t i = 0; i < spec.tenants; ++i) {
      in.traces.push_back(family_trace(
          i, spec.hours, sim::mix_stream_seed(seed, kTraceStreamBase + i)));
      in.retrain_seeds.push_back(
          sim::mix_stream_seed(seed, kRetrainStreamBase + i));
    }
  }
  for (const workload::Trace& t : in.traces) {
    in.arrivals += t.size();
    if (!t.empty()) ++in.live_tenants;
  }
  return in;
}

SurrogateShape surrogate_shape(const core::SurrogateConfig& c,
                               std::size_t grid_size) {
  const double l = static_cast<double>(c.sequence_length);
  const double d = static_cast<double>(c.model_dim);
  const double f = static_cast<double>(c.ffn_hidden);
  const double layers = static_cast<double>(c.encoder_layers);
  SurrogateShape s;
  // Gap embedding (1 -> d), then per encoder layer: Q/K/V/O projections,
  // scores and the attention-weighted sum, and the two FFN matmuls; then
  // the pooled attention's four d x d projections on one row.
  s.encode_flop_per_window =
      2.0 * l * d +
      layers * (8.0 * l * d * d + 4.0 * l * l * d + 4.0 * l * d * f) +
      (c.use_pooled_attention ? 8.0 * d * d : 0.0);
  // Output head per config: concat(E_1, E_2) -> hidden -> targets. The
  // feature branch E_2 is precomputed once per grid.
  const double in_dim = static_cast<double>(c.model_dim + c.feature_embed_dim);
  s.score_flop_per_row =
      static_cast<double>(grid_size) *
      (2.0 * in_dim * f + 2.0 * f * static_cast<double>(c.output_dim));
  return s;
}

Prepared prepare(bench::Fixture& fixture) {
  Prepared p;
  p.fixture = &fixture;
  // Trains and caches the surrogate and its gamma on first use.
  p.surrogate_config = fixture.pretrained().config();
  p.gamma = fixture.pretrained_gamma();
  p.weights_path = core::bench_spec(fixture.cache_dir()).cache_path.string();
  return p;
}

RepResult run_rep(const WorkloadSpec& spec, const Inputs& inputs,
                  const Prepared& prepared, bool traced,
                  const std::string& spans_path) {
  bench::Fixture& fx = *prepared.fixture;
  const std::size_t n = inputs.traces.size();
  const std::size_t shards = std::clamp<std::size_t>(spec.shards, 1, n);
  const bool surrogate_path = spec.kind != Kind::kFleetZipf;
  Recorder recorder(shards, traced);
  RepResult r;
  r.traced = traced;

  // ---- set-up: surrogate load ----
  const auto t_setup = Clock::now();
  std::unique_ptr<core::Surrogate> surrogate;
  if (surrogate_path) {
    surrogate = std::make_unique<core::Surrogate>(prepared.surrogate_config,
                                                  fx.grid());
    nn::load_module(prepared.weights_path, *surrogate);
    surrogate->set_training(false);
  }
  const auto t_loaded = Clock::now();

  // ---- set-up: controllers, encoder, scorer, decorators ----
  // The retrain pool is declared after the controllers so it is destroyed
  // first: its destructor drains pending fine-tuning tasks, which point
  // into the controllers.
  std::vector<std::unique_ptr<core::DeepBatController>> deepbat;
  std::vector<learn::AdaptiveController*> adaptive;
  std::optional<WorkerPool> retrain_pool;
  std::optional<core::SurrogateBatchEncoder> encoder;
  std::optional<core::SurrogateBatchScorer> scorer;
  sim::FixedController fixed(kInitialConfig);
  std::vector<TimedSplitController> split_timers;
  std::vector<TimedController> plain_timers;
  std::vector<TimedObserver> observer_timers;
  split_timers.reserve(n);
  plain_timers.reserve(n);
  observer_timers.reserve(n);

  if (spec.kind == Kind::kLearnFlaky) {
    retrain_pool.emplace(spec.retrain_workers);
  }
  for (std::size_t i = 0; i < n && surrogate_path; ++i) {
    if (spec.kind == Kind::kLearnFlaky) {
      bench::ReplayArgs args;
      args.retrain_seed = inputs.retrain_seeds[i];
      auto opts = bench::adaptive_controller_options(fx, kSloSeconds,
                                                     prepared.gamma, args);
      // One retrain per tenant, launched on a fixed sample budget rather
      // than on fallback activity: the fine-tuning work of a replay then
      // does not depend on when the seed's faults strike (with the
      // fallback trigger it varied 2x across seeds).
      opts.learn.max_retrains = 1;
      opts.learn.fallback_trigger = 0;
      opts.learn.sample_budget = kRetrainSampleBudget;
      opts.learn.retrain.pool = &*retrain_pool;
      auto controller =
          std::make_unique<learn::AdaptiveController>(*surrogate, opts);
      adaptive.push_back(controller.get());
      deepbat.push_back(std::move(controller));
    } else {
      deepbat.push_back(std::make_unique<core::DeepBatController>(
          *surrogate, fx.controller_options(kSloSeconds, prepared.gamma)));
    }
  }
  if (surrogate_path) encoder.emplace(*surrogate);
  if (spec.kind == Kind::kFleetSurrogate) {
    scorer.emplace(*surrogate, fx.grid().enumerate(),
                   core::ScoringPrecision::kFp32);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto tenant = static_cast<std::uint32_t>(i);
    if (surrogate_path) {
      split_timers.emplace_back(*deepbat[i], tenant, i % shards, recorder);
    } else {
      plain_timers.emplace_back(fixed, tenant, i % shards, recorder);
    }
    if (spec.kind == Kind::kLearnFlaky) {
      observer_timers.emplace_back(*adaptive[i], tenant, i % shards,
                                   recorder);
    }
  }
  // Traced replays route the batched calls through per-shard decorators:
  // the runtime makes one factory instance per shard, in shard order, when
  // it runs more than one shard, and uses the shared instance otherwise.
  std::optional<TimedEncoder> timed_encoder;
  std::optional<TimedScorer> timed_scorer;
  if (traced && encoder.has_value()) {
    timed_encoder.emplace(*encoder, 0, recorder);
  }
  if (traced && scorer.has_value()) {
    timed_scorer.emplace(*scorer, 0, recorder);
  }
  const auto t_built = Clock::now();

  // ---- set-up: runtime and tenant registration ----
  sim::BatchEncoder* runtime_encoder = nullptr;
  if (encoder.has_value()) {
    runtime_encoder = timed_encoder.has_value()
                          ? static_cast<sim::BatchEncoder*>(&*timed_encoder)
                          : &*encoder;
  }
  sim::RuntimeOptions ropts;
  ropts.shards = spec.shards;
  ropts.overlap_encode = spec.overlap_encode;
  sim::Runtime runtime(runtime_encoder, ropts);
  if (timed_encoder.has_value()) {
    runtime.set_encoder_factory(
        [&, next = std::size_t{0}]() mutable
        -> std::unique_ptr<sim::BatchEncoder> {
          return std::make_unique<TimedEncoder>(*encoder, next++, recorder);
        });
  }
  if (scorer.has_value()) {
    runtime.set_scorer(timed_scorer.has_value()
                           ? static_cast<sim::BatchScorer*>(&*timed_scorer)
                           : &*scorer);
    if (timed_scorer.has_value()) {
      runtime.set_scorer_factory(
          [&, next = std::size_t{0}]() mutable
          -> std::unique_ptr<sim::BatchScorer> {
            return std::make_unique<TimedScorer>(*scorer, next++, recorder);
          });
    }
  }
  sim::FaultPlan faults;
  if (spec.kind == Kind::kLearnFlaky) {
    faults = sim::fault_scenario("flaky", inputs.fault_seed);
  }
  runtime.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sim::TenantSpec t;
    t.name = "t" + std::to_string(i);
    t.trace = &inputs.traces[i];
    t.controller = surrogate_path
                       ? static_cast<sim::Controller*>(&split_timers[i])
                       : &plain_timers[i];
    t.model = &fx.model();
    t.initial_config = kInitialConfig;
    t.options.control_interval_s = control_interval(spec.kind, i);
    t.options.faults = faults;
    t.options.fault_stream = i;
    if (spec.kind == Kind::kLearnFlaky) {
      t.options.observer = &observer_timers[i];
    }
    runtime.add_tenant(std::move(t));
  }
  const auto t_registered = Clock::now();
  r.surrogate_load_s = seconds_between(t_setup, t_loaded);
  r.controller_build_s = seconds_between(t_loaded, t_built);
  r.register_s = seconds_between(t_built, t_registered);
  r.setup_s = seconds_between(t_setup, t_registered);

  // ---- the closed-loop replay ----
  const auto t_run = Clock::now();
  std::vector<sim::PlatformRun> runs = runtime.run();
  r.run_s = seconds_between(t_run, Clock::now());

  // ---- results ----
  r.stats = runtime.stats();
  r.executors = runtime_executors(spec.shards, n, encoder.has_value(),
                                  ropts.overlap_encode);
  r.digest = decision_digest(runs);
  for (std::size_t i = 0; i < n; ++i) {
    const sim::SimResult& res = runs[i].result;
    r.decisions += runs[i].decisions.size();
    r.offered += res.offered();
    r.served += res.served();
    r.dropped += res.dropped;
    r.retries += res.retries;
    r.invocations += res.invocations;
    r.total_cost += res.total_cost;
    for (const sim::RequestRecord& req : res.requests) {
      if (req.latency() <= kSloSeconds) ++r.served_within_slo;
    }
    if (res.served() + res.dropped != inputs.traces[i].size()) {
      r.conserved = false;
    }
    r.swaps += runs[i].swaps.size();
  }
  r.latency_ms.reserve(r.decisions);
  for (std::size_t s = 0; s < shards; ++s) {
    for (const std::int64_t ns : recorder.clock(s).latencies_ns()) {
      r.latency_ms.push_back(static_cast<double>(ns) * 1e-6);
    }
  }
  r.counts_agree = r.decisions == r.stats.control_ticks &&
                   r.latency_ms.size() == r.decisions;
  r.latency = summarize_latencies(r.latency_ms);
  for (const auto& c : deepbat) r.fallbacks += c->fallback_decisions();
  for (const learn::AdaptiveController* a : adaptive) {
    r.retrains += a->retrain_runs();
    r.shadow_wins += a->shadow_wins();
    r.shadow_losses += a->shadow_losses();
    r.samples_harvested += a->harvester().harvested();
  }
  if (traced) {
    r.trace = sum_spans(recorder);
    r.budget = Budget{r.run_s, r.executors, r.trace.busy_s()};
    if (!spans_path.empty()) write_spans_csv(recorder, spans_path);
  }
  return r;
}

}  // namespace deepbat::perfbench
