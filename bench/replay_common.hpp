#pragma once
// Shared replay harness for the Alibaba / synthetic head-to-head figures
// (Figs. 7-12): run a trace through BATCH and (fine-tuned) DeepBAT, report
// windowed latency/cost series and hourly VCR.
//
// Since the control-plane refactor the head-to-head replay runs both
// systems as tenants of ONE sim::Runtime sharing a batched sequence
// encoder, so the figures exercise the same code path as fleet-scale
// multi-tenant runs (per-tenant results are bit-identical to solo
// run_platform replays; see tests/sim/test_runtime.cpp).

#include <algorithm>
#include <iostream>
#include <optional>

#include "bench_common.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "learn/adaptive_controller.hpp"

namespace deepbat::bench {

struct Replay {
  sim::PlatformRun deepbat;
  sim::PlatformRun batch;
  double deepbat_ms_per_decision = 0.0;
  double batch_seconds_per_refit = 0.0;
  // Control-plane counters from the shared runtime (bench/§IV-F evidence:
  // encoder calls < control ticks when the window cache hits). cache_hits /
  // cache_misses come from runtime_stats — the single source of truth for
  // window-cache accounting (DESIGN.md §9) — not from controller internals.
  sim::RuntimeStats runtime_stats;
  std::size_t encoder_calls = 0;
  std::size_t encoder_windows = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  // DeepBAT resilience counters (circuit breaker, DESIGN.md §11); stay 0 on
  // fair-weather replays.
  std::size_t deepbat_fallbacks = 0;
  std::size_t deepbat_breaker_trips = 0;
  // Online-learning counters (learn::AdaptiveController, DESIGN.md §14);
  // only populated when ReplayArgs::retrain was set. The swap history
  // itself travels inside deepbat.swaps.
  bool retrain = false;
  std::size_t retrain_runs = 0;
  std::size_t shadow_wins = 0;
  std::size_t shadow_losses = 0;
  std::size_t drift_trips = 0;
  std::size_t samples_harvested = 0;
  /// Tick times of every DeepBAT fallback decision (the decay gate's input).
  std::vector<double> deepbat_fallback_times;
};

/// Learner configuration for the retrain benches: seeded from
/// ReplayArgs::retrain_seed (replay identity), sized for short chaos
/// replays — a flaky fault phase (mttr 90 s at a 30 s control interval)
/// spans ~3 ticks, so the drift trip, the fallback trigger, and the shadow
/// holdout minimum all have to fit inside a few intervals.
inline learn::AdaptiveControllerOptions adaptive_controller_options(
    const Fixture& fx, double slo, double gamma, const ReplayArgs& args) {
  learn::AdaptiveControllerOptions o;
  o.controller = fx.controller_options(slo, gamma);
  o.learn.harvest.seed = args.retrain_seed;
  o.learn.harvest.holdout_every = 3;
  o.learn.retrain.shuffle_seed = args.retrain_seed + 1;
  o.learn.shadow.min_holdout = 2;
  o.learn.min_train_samples = 8;
  return o;
}

/// Replay `trace` (already sliced to the serving horizon) under both
/// systems, merged into one multi-tenant runtime. `deepbat_model` should be
/// the fine-tuned surrogate for OOD workloads.
inline Replay run_head_to_head(Fixture& fx, const workload::Trace& trace,
                               const core::Surrogate& deepbat_model,
                               double gamma, double slo,
                               const ReplayArgs& args = {}) {
  // Fresh registry window: a --metrics snapshot taken after this replay
  // describes this replay alone, not fixture training or earlier runs.
  obs::MetricsRegistry::instance().reset();
  obs::clear_spans();

  Replay replay;
  replay.retrain = args.retrain;
  // With --retrain the DeepBAT tenant runs the full online-learning loop
  // (harvest -> drift -> retrain -> shadow -> hot-swap); training runs on a
  // single-worker pool so the control loop overlaps it wall-clock, while
  // the fixed-tick join keeps results bit-identical to inline training.
  std::optional<WorkerPool> retrain_pool;
  std::optional<core::DeepBatController> plain;
  std::optional<learn::AdaptiveController> adaptive;
  if (args.retrain) {
    auto aopts = adaptive_controller_options(fx, slo, gamma, args);
    retrain_pool.emplace(1);
    aopts.learn.retrain.pool = &*retrain_pool;
    adaptive.emplace(deepbat_model, aopts);
  } else {
    plain.emplace(deepbat_model, fx.controller_options(slo, gamma));
  }
  core::DeepBatController& deepbat =
      args.retrain ? static_cast<core::DeepBatController&>(*adaptive) : *plain;
  batchlib::BatchController batch(fx.model(), fx.batch_options(slo));
  core::SurrogateBatchEncoder encoder(deepbat_model);
  sim::RuntimeOptions ropts;
  ropts.shards = args.shards;  // shard-invariant: any count, same replay
  sim::Runtime runtime(&encoder, ropts);

  sim::PlatformOptions popts;
  popts.control_interval_s = args.control_interval_s;
  popts.cold_start_seed = args.cold_start_seed;
  if (!args.fault_scenario.empty()) {
    popts.faults = sim::fault_scenario(args.fault_scenario, args.fault_seed);
  }
  sim::TenantSpec spec;
  spec.trace = &trace;
  spec.model = &fx.model();
  spec.initial_config = {1024, 1, 0.0};
  spec.options = popts;

  // Distinct fault streams per tenant: the flaky-phase weather is shared
  // (seeded by the plan alone) but per-attempt draws are independent, so
  // neither system can ride the other's luck.
  spec.name = deepbat.name();
  spec.controller = &deepbat;
  spec.options.fault_stream = 0;
  if (args.retrain) spec.options.observer = &*adaptive;
  runtime.add_tenant(spec);
  spec.name = batch.name();
  spec.controller = &batch;
  spec.options.fault_stream = 1;
  spec.options.observer = nullptr;
  runtime.add_tenant(spec);

  std::printf("[replay] DeepBAT + BATCH (shared runtime) over %.1f h...\n",
              trace.duration() / 3600.0);
  auto runs = runtime.run();
  replay.deepbat = std::move(runs[0]);
  replay.batch = std::move(runs[1]);
  replay.runtime_stats = runtime.stats();
  replay.encoder_calls = encoder.calls();
  replay.encoder_windows = encoder.windows_encoded();
  replay.cache_hits = replay.runtime_stats.cache_hits;
  replay.cache_misses = replay.runtime_stats.cache_misses;
  replay.deepbat_fallbacks = deepbat.fallback_decisions();
  replay.deepbat_breaker_trips = deepbat.breaker_trips();
  if (args.retrain) {
    replay.retrain_runs = adaptive->retrain_runs();
    replay.shadow_wins = adaptive->shadow_wins();
    replay.shadow_losses = adaptive->shadow_losses();
    replay.drift_trips = adaptive->drift_trips();
    replay.samples_harvested = adaptive->harvester().harvested();
    replay.deepbat_fallback_times = adaptive->fallback_times();
  }

  if (deepbat.decision_count() > 0) {
    replay.deepbat_ms_per_decision =
        1e3 *
        (deepbat.total_predict_seconds() + deepbat.total_search_seconds()) /
        static_cast<double>(deepbat.decision_count());
  }
  if (batch.refit_count() > 0) {
    replay.batch_seconds_per_refit =
        (batch.total_fit_seconds() + batch.total_solve_seconds()) /
        static_cast<double>(batch.refit_count());
  }
  return replay;
}

struct WindowStats {
  double p95_latency = 0.0;
  double cost_per_request = 0.0;
  std::size_t requests = 0;
};

/// P95 latency and mean per-request cost of the requests arriving in
/// [a, b).
inline WindowStats window_stats(const sim::SimResult& r, double a, double b) {
  WindowStats w;
  std::vector<double> lats;
  double cost = 0.0;
  for (const auto& req : r.requests) {
    if (req.arrival < a || req.arrival >= b) continue;
    lats.push_back(req.latency());
    cost += req.cost_share;
  }
  if (lats.empty()) return w;
  std::sort(lats.begin(), lats.end());
  w.p95_latency = quantile_sorted(lats, 0.95);
  w.cost_per_request = cost / static_cast<double>(lats.size());
  w.requests = lats.size();
  return w;
}

/// Windowed P95 latency + cost series over [t0, t1) (paper Figs. 7/9).
inline Table latency_cost_window_table(const sim::SimResult& batch,
                                       const sim::SimResult& deepbat,
                                       double t0, double t1, double window_s,
                                       double slo) {
  Table t({"t_min", "batch_p95_ms", "deepbat_p95_ms", "batch_cost",
           "deepbat_cost", "slo_ms"});
  for (double a = t0; a < t1 - 1e-9; a += window_s) {
    const double b = std::min(a + window_s, t1);
    const WindowStats wb = window_stats(batch, a, b);
    const WindowStats wd = window_stats(deepbat, a, b);
    if (wb.requests == 0 && wd.requests == 0) continue;
    t.add_row({fmt((a - t0) / 60.0, 1), fmt(wb.p95_latency * 1e3, 1),
               fmt(wd.p95_latency * 1e3, 1),
               fmt_sci(wb.cost_per_request, 2),
               fmt_sci(wd.cost_per_request, 2), fmt(slo * 1e3, 0)});
  }
  return t;
}

inline void print_latency_cost_window(const sim::SimResult& batch,
                                      const sim::SimResult& deepbat,
                                      double t0, double t1, double window_s,
                                      double slo, std::ostream& os) {
  latency_cost_window_table(batch, deepbat, t0, t1, window_s, slo).print(os);
}

/// Hourly VCR table for up to three systems (paper Figs. 8/10).
inline Table hourly_vcr_table(
    const std::vector<std::pair<std::string, const sim::SimResult*>>& systems,
    double start, std::size_t hours, double slo) {
  core::VcrOptions vopts;
  vopts.slo_s = slo;
  std::vector<std::string> header{"hour"};
  std::vector<std::vector<double>> series;
  for (const auto& [name, result] : systems) {
    header.push_back(name + "_vcr_pct");
    series.push_back(core::hourly_vcr(*result, start, hours, vopts));
  }
  Table t(header);
  for (std::size_t h = 0; h < hours; ++h) {
    std::vector<std::string> row{std::to_string(h + 1)};
    for (const auto& s : series) {
      row.push_back(fmt(s[h], 2));
    }
    t.add_row(std::move(row));
  }
  return t;
}

inline void print_hourly_vcr(
    const std::vector<std::pair<std::string, const sim::SimResult*>>& systems,
    double start, std::size_t hours, double slo, std::ostream& os) {
  hourly_vcr_table(systems, start, hours, slo).print(os);
}

/// Per-system replay summary plus the shared runtime's control-plane
/// counters — the standard trailer of every head-to-head bench and the
/// backbone of its --json output.
inline Table replay_summary_table(const Replay& replay, double slo) {
  const auto p95 = [](const sim::SimResult& r) {
    const auto q = r.latency_quantile(0.95);
    return q.has_value() ? fmt(*q * 1e3, 1) : std::string("-");
  };
  Table t({"metric", "batch", "deepbat"});
  t.add_row({"p95_ms", p95(replay.batch.result), p95(replay.deepbat.result)});
  t.add_row({"cost_usd_per_req", fmt_sci(replay.batch.result.cost_per_request(), 3),
             fmt_sci(replay.deepbat.result.cost_per_request(), 3)});
  t.add_row({"slo_ms", fmt(slo * 1e3, 0), fmt(slo * 1e3, 0)});
  t.add_row({"decisions", std::to_string(replay.batch.decisions.size()),
             std::to_string(replay.deepbat.decisions.size())});
  t.add_row({"decision_cost",
             fmt(replay.batch_seconds_per_refit, 3) + " s/refit",
             fmt(replay.deepbat_ms_per_decision, 3) + " ms/tick"});
  t.add_row({"encoder_forwards", "-", std::to_string(replay.encoder_calls)});
  t.add_row({"encoder_windows", "-", std::to_string(replay.encoder_windows)});
  t.add_row({"window_cache_hits", "-", std::to_string(replay.cache_hits)});
  t.add_row({"window_cache_misses", "-",
             std::to_string(replay.cache_misses)});
  // Resilience rows only appear when something actually went wrong, so the
  // fair-weather trailer stays byte-stable with earlier releases.
  if (replay.batch.result.dropped + replay.deepbat.result.dropped +
          replay.batch.result.retries + replay.deepbat.result.retries +
          replay.deepbat_fallbacks >
      0) {
    t.add_row({"dropped", std::to_string(replay.batch.result.dropped),
               std::to_string(replay.deepbat.result.dropped)});
    t.add_row({"retries", std::to_string(replay.batch.result.retries),
               std::to_string(replay.deepbat.result.retries)});
    t.add_row({"fallback_decisions", "-",
               std::to_string(replay.deepbat_fallbacks)});
  }
  return t;
}

}  // namespace deepbat::bench
