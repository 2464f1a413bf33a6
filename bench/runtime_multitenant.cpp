// Multi-tenant runtime — control-plane scaling evidence for the refactor:
// N tenants (one per canonical workload) replayed (a) sequentially as N
// independent run_platform() loops and (b) through one sim::Runtime with a
// shared batched sequence encoder, partitioned over --shards runtime
// shards. Reports per-tick control latency for both modes, the
// encoder-cache hit rate, and how many Transformer forwards the batched
// mode issued; verifies every tenant's run is identical across modes AND
// across shard counts (the shard-invariance contract, checked through
// sim::first_divergence). A final
// sweep replays the fleet at 1/2/4 shards as a divergence gate; ANY
// divergence from the 1-shard replay fails the bench. (The scaling curve
// file BENCH_runtime_scaling.json is owned by bench/runtime_scale, which
// sweeps Zipf fleets to 100k+ tenants.)
#include <chrono>
#include <climits>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"

using namespace deepbat;

namespace {

double wall_seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_replay_args(
      argc, argv, bench::replay_defaults(0.1, 1.0));
  std::vector<std::string> workloads = {"azure", "twitter", "alibaba",
                                        "synthetic"};
  if (const char* n = std::getenv("DEEPBAT_TENANTS")) {
    // More tenants than workloads: cycle through the canonical four.
    const std::int64_t want = parse_positive_int(n, "DEEPBAT_TENANTS", INT_MAX);
    for (std::int64_t i = 4; i < want; ++i) {
      workloads.push_back(workloads[static_cast<std::size_t>(i % 4)]);
    }
  }
  bench::preamble("Multi-tenant runtime — batched control ticks",
                  "N independent solo replays vs one shared-encoder runtime; "
                  "per-tick latency, cache hit rate, forwards issued");
  bench::Fixture fx;
  const double hours = std::max(args.hours, 0.25);
  const core::Surrogate& surrogate = fx.pretrained();
  const double gamma = fx.pretrained_gamma();

  std::vector<const workload::Trace*> traces;
  traces.reserve(workloads.size());
  for (const auto& w : workloads) traces.push_back(&fx.by_name(w, hours));

  auto make_controller = [&] {
    auto copts = fx.controller_options(args.slo_s, gamma);
    copts.scoring_precision = args.scoring_precision;
    return std::make_unique<core::DeepBatController>(surrogate, copts);
  };
  std::printf("[precision] grid scoring runs at %s\n",
              core::to_string(args.scoring_precision));
  sim::PlatformOptions popts;
  popts.control_interval_s = args.control_interval_s;
  popts.cold_start_seed = args.cold_start_seed;
  if (!args.fault_scenario.empty()) {
    popts.faults = sim::fault_scenario(args.fault_scenario, args.fault_seed);
    std::printf("[faults] scenario %s, seed %llu\n",
                args.fault_scenario.c_str(),
                static_cast<unsigned long long>(args.fault_seed));
  }

  // --- (a) sequential: N independent solo replays -------------------------
  // Tenant i draws from fault stream i in every mode, so solo and batched
  // replays stay comparable bit-for-bit even under injected faults.
  std::vector<sim::PlatformRun> solo;
  std::size_t solo_ticks = 0;
  const auto t_solo = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < traces.size(); ++i) {
    auto ctl = make_controller();
    sim::PlatformOptions solo_opts = popts;
    solo_opts.fault_stream = i;
    solo.push_back(sim::run_platform(*traces[i], *ctl, fx.model(),
                                     {1024, 1, 0.0}, solo_opts));
    solo_ticks += ctl->decision_count();
  }
  const double solo_seconds = wall_seconds(t_solo);
  std::printf("[solo] %zu tenants, %zu control ticks, %.2f s\n",
              traces.size(), solo_ticks, solo_seconds);

  // --- (b) batched: one runtime, one shared encoder, --shards shards ------
  std::vector<std::unique_ptr<core::DeepBatController>> controllers;
  core::SurrogateBatchEncoder encoder(surrogate);
  core::SurrogateBatchScorer scorer(
      surrogate, fx.controller_options(args.slo_s, gamma).grid.enumerate(),
      args.scoring_precision);
  sim::RuntimeOptions ropts;
  ropts.shards = args.shards;
  sim::Runtime runtime(&encoder, ropts);
  runtime.set_scorer(&scorer);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    controllers.push_back(make_controller());
    sim::TenantSpec spec;
    spec.name = workloads[i];
    spec.trace = traces[i];
    spec.controller = controllers[i].get();
    spec.model = &fx.model();
    spec.initial_config = {1024, 1, 0.0};
    spec.options = popts;
    spec.options.fault_stream = i;
    runtime.add_tenant(std::move(spec));
  }
  // Fresh registry window so a --metrics snapshot describes the batched
  // run alone (the solo pass above also routes through sim::Runtime).
  obs::MetricsRegistry::instance().reset();
  obs::clear_spans();
  const auto t_batched = std::chrono::steady_clock::now();
  const auto batched = runtime.run();
  const double batched_seconds = wall_seconds(t_batched);
  const sim::RuntimeStats& stats = runtime.stats();
  std::printf("[batched] %zu shard(s), %zu tick groups, %zu control ticks, "
              "%.2f s\n",
              args.shards, stats.tick_groups, stats.control_ticks,
              batched_seconds);

  // --- every tenant's run must be identical across the two modes ---------
  const bool identical = bench::same_runs("[batched] vs solo", solo, batched);

  // Window-cache accounting comes from the runtime itself: RuntimeStats is
  // the single source of truth for hit rates (DESIGN.md §9) — this bench
  // used to re-derive it from controller internals, which silently diverged
  // whenever the controllers' counters meant something subtly different.
  // The controllers' own counters are kept only as a consistency check.
  const double hit_rate = 100.0 * stats.cache_hit_rate();
  std::size_t ctl_hits = 0;
  std::size_t ctl_misses = 0;
  for (const auto& ctl : controllers) {
    ctl_hits += ctl->cache_hits();
    ctl_misses += ctl->cache_misses();
  }
  const bool cache_consistent =
      ctl_hits == stats.cache_hits && ctl_misses == stats.cache_misses;
  const double solo_ms_per_tick =
      solo_ticks > 0 ? 1e3 * solo_seconds / solo_ticks : 0.0;
  const double batched_ms_per_tick =
      stats.control_ticks > 0 ? 1e3 * batched_seconds / stats.control_ticks
                              : 0.0;

  Table t({"metric", "solo", "batched"});
  t.add_row({"tenants", std::to_string(traces.size()),
             std::to_string(traces.size())});
  t.add_row({"control_ticks", std::to_string(solo_ticks),
             std::to_string(stats.control_ticks)});
  t.add_row({"wall_seconds", fmt(solo_seconds, 2), fmt(batched_seconds, 2)});
  t.add_row({"ms_per_tick", fmt(solo_ms_per_tick, 3),
             fmt(batched_ms_per_tick, 3)});
  t.add_row({"encoder_forwards", "-", std::to_string(encoder.calls())});
  t.add_row({"windows_encoded", "-",
             std::to_string(encoder.windows_encoded())});
  t.add_row({"cache_hit_rate_pct", "-", fmt(hit_rate, 1)});
  t.add_row({"scored_rows", "-", std::to_string(stats.scored_rows)});
  t.add_row({"score_calls", "-", std::to_string(stats.score_calls)});
  t.add_row({"cache_counters_consistent", "-",
             cache_consistent ? "yes" : "NO"});
  t.add_row({"runs_identical", "-", identical ? "yes" : "NO"});
  t.print(std::cout);
  // Only what this run measured: single-shot wall times on a shared host are
  // noisy, so batched can come out slower than solo.
  const char* direction = batched_ms_per_tick < solo_ms_per_tick ? "lower"
                          : batched_ms_per_tick > solo_ms_per_tick
                              ? "higher"
                              : "equal to";
  std::printf("\nReading: %.3f encoder forwards per control tick (%zu / %zu); "
              "batched ms/tick came out %s than solo (%.3f vs %.3f).\n",
              stats.control_ticks > 0
                  ? static_cast<double>(encoder.calls()) / stats.control_ticks
                  : 0.0,
              encoder.calls(), stats.control_ticks, direction,
              batched_ms_per_tick, solo_ms_per_tick);

  bench::JsonReport report("runtime_multitenant");
  report.add("runtime", t);
  report.add_scalar("cache_hit_rate_pct", hit_rate);
  report.add_scalar("solo_ms_per_tick", solo_ms_per_tick);
  report.add_scalar("batched_ms_per_tick", batched_ms_per_tick);
  report.set_metrics(obs::MetricsRegistry::instance().snapshot());
  report.write(args.json_path);
  bench::write_metrics_snapshot(args.metrics_path);

  // --- shard-scaling sweep: 1 -> 2 -> 4 shards, same fleet ----------------
  // Each point is a fresh replay of the full fleet (fresh controllers +
  // encoder so no cache warms across points); tenants/sec = tenants / wall.
  // Divergence from the 1-shard replay fails the bench — determinism is the
  // contract, the throughput numbers are reporting (on a single-core host
  // the curve is flat; the sweep still proves shard invariance).
  std::printf("\n[scaling] replaying %zu tenants at 1/2/4 shards...\n",
              traces.size());
  struct ScalingPoint {
    std::size_t shards;
    double wall_seconds;
    double tenants_per_second;
  };
  std::vector<ScalingPoint> curve;
  std::vector<sim::PlatformRun> one_shard_runs;
  bool scaling_identical = true;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
    std::vector<std::unique_ptr<core::DeepBatController>> ctls;
    core::SurrogateBatchEncoder enc(surrogate);
    core::SurrogateBatchScorer sweep_scorer(
        surrogate, fx.controller_options(args.slo_s, gamma).grid.enumerate(),
        args.scoring_precision);
    sim::RuntimeOptions sweep_opts;
    sweep_opts.shards = shards;
    sim::Runtime sweep(&enc, sweep_opts);
    sweep.set_scorer(&sweep_scorer);
    for (std::size_t i = 0; i < traces.size(); ++i) {
      ctls.push_back(make_controller());
      sim::TenantSpec spec;
      spec.name = workloads[i];
      spec.trace = traces[i];
      spec.controller = ctls[i].get();
      spec.model = &fx.model();
      spec.initial_config = {1024, 1, 0.0};
      spec.options = popts;
      spec.options.fault_stream = i;
      sweep.add_tenant(std::move(spec));
    }
    const auto t0 = std::chrono::steady_clock::now();
    auto runs = sweep.run();
    const double wall = wall_seconds(t0);
    if (shards == 1) {
      one_shard_runs = std::move(runs);
    } else if (!bench::same_runs(
                   "[scaling] " + std::to_string(shards) + " shards",
                   one_shard_runs, runs)) {
      scaling_identical = false;
    }
    curve.push_back({shards, wall, wall > 0.0 ? traces.size() / wall : 0.0});
    std::printf("[scaling] %zu shard(s): %.2f s, %.2f tenants/sec\n", shards,
                wall, curve.back().tenants_per_second);
  }
  std::printf("[scaling] shard invariance %s (scaling curves: see "
              "bench/runtime_scale)\n",
              scaling_identical ? "holds" : "VIOLATED");

  return identical && cache_consistent && scaling_identical ? 0 : 1;
}
