// Observability overhead budget (DESIGN.md §9): prove the obs layer costs
// <2% of replay wall time when enabled and is indistinguishable from noise
// when disabled (DEEPBAT_OBS=off).
//
// Two measurements:
//  1. Microbenchmarks — ns/op of the two hot-path writes (Counter::add,
//     Histogram::observe), enabled and disabled. Disabled must be a relaxed
//     load plus a branch, i.e. single-digit ns.
//  2. Replay A/B — the same fully instrumented solo replay timed with obs
//     off / on / off again, interleaved (off-on-off per repetition) so slow
//     drift hits both arms equally. The off-vs-off spread is the noise
//     floor; "statistically zero off overhead" means the two off arms land
//     within it, and the on-overhead gate widens to the noise floor when
//     the machine is noisier than the 2% budget.
//
// Exit code 1 when the enabled overhead exceeds max(2%, 3x noise floor).
#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <iostream>
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

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// ns per Counter::add on the current enable state.
double counter_add_ns(obs::Counter& c, std::size_t iters) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) c.add();
  return 1e9 * wall_seconds(t0) / static_cast<double>(iters);
}

/// ns per Histogram::observe on the current enable state.
double histogram_observe_ns(obs::Histogram& h, std::size_t iters) {
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    h.observe(1e-6 * static_cast<double>(i & 1023));
  }
  return 1e9 * wall_seconds(t0) / static_cast<double>(iters);
}

/// One fully instrumented solo replay; returns wall seconds.
double replay_once(bench::Fixture& fx, const workload::Trace& trace,
                   const core::Surrogate& surrogate, double gamma,
                   const bench::ReplayArgs& args) {
  core::DeepBatController ctl(surrogate,
                              fx.controller_options(args.slo_s, gamma));
  sim::PlatformOptions popts;
  popts.control_interval_s = args.control_interval_s;
  popts.cold_start_seed = args.cold_start_seed;
  const auto t0 = std::chrono::steady_clock::now();
  sim::run_platform(trace, ctl, fx.model(), {1024, 1, 0.0}, popts);
  return wall_seconds(t0);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_replay_args(
      argc, argv, bench::replay_defaults(0.1, 0.25));
  int reps = 3;
  if (const char* r = std::getenv("DEEPBAT_OBS_REPS")) {
    reps = static_cast<int>(parse_positive_int(r, "DEEPBAT_OBS_REPS", INT_MAX));
  }
  bench::preamble("Observability overhead",
                  "hot-path write cost and replay wall-time delta with the "
                  "obs layer on vs off (budget: <2% on, ~=0 off)");
  const bool was_enabled = obs::enabled();

  // --- 1. microbenchmarks -------------------------------------------------
  auto& registry = obs::MetricsRegistry::instance();
  obs::Counter& mc = registry.counter("bench.obs_overhead.micro_counter");
  obs::Histogram& mh =
      registry.histogram("bench.obs_overhead.micro_histogram_seconds");
  const std::size_t iters = 5'000'000;
  obs::set_enabled(true);
  const double add_on_ns = counter_add_ns(mc, iters);
  const double obs_on_ns = histogram_observe_ns(mh, iters);
  obs::set_enabled(false);
  const double add_off_ns = counter_add_ns(mc, iters);
  const double obs_off_ns = histogram_observe_ns(mh, iters);
  obs::set_enabled(was_enabled);
  std::printf("[micro] counter add: %.1f ns on / %.1f ns off; histogram "
              "observe: %.1f ns on / %.1f ns off (%zu iters)\n",
              add_on_ns, add_off_ns, obs_on_ns, obs_off_ns, iters);

  // --- 2. replay A/B ------------------------------------------------------
  bench::Fixture fx;
  const double hours = std::max(args.hours, 0.25);
  const workload::Trace& trace = fx.azure(hours);
  const core::Surrogate& surrogate = fx.pretrained();
  const double gamma = fx.pretrained_gamma();

  // Warmup (trains nothing — the fixture is cached — but touches the trace,
  // the model weights, and the allocator arenas).
  replay_once(fx, trace, surrogate, gamma, args);

  std::vector<double> off_a, on, off_b;
  for (int r = 0; r < reps; ++r) {
    obs::set_enabled(false);
    off_a.push_back(replay_once(fx, trace, surrogate, gamma, args));
    obs::set_enabled(true);
    on.push_back(replay_once(fx, trace, surrogate, gamma, args));
    obs::set_enabled(false);
    off_b.push_back(replay_once(fx, trace, surrogate, gamma, args));
  }
  obs::set_enabled(was_enabled);

  const double med_off_a = median(off_a);
  const double med_off_b = median(off_b);
  std::vector<double> off_all = off_a;
  off_all.insert(off_all.end(), off_b.begin(), off_b.end());
  const double med_off = median(off_all);
  const double med_on = median(on);
  const double overhead_pct = 100.0 * (med_on - med_off) / med_off;
  // Off-vs-off disagreement: the measurement's noise floor. The enabled
  // overhead is only meaningful above it.
  const double noise_pct =
      100.0 * std::abs(med_off_a - med_off_b) / std::min(med_off_a, med_off_b);
  const double gate_pct = std::max(2.0, 3.0 * noise_pct);
  const bool pass = overhead_pct <= gate_pct;

  Table t({"metric", "value"});
  t.add_row({"replay_off_ms", fmt(med_off * 1e3, 1)});
  t.add_row({"replay_on_ms", fmt(med_on * 1e3, 1)});
  t.add_row({"overhead_pct", fmt(overhead_pct, 2)});
  t.add_row({"noise_floor_pct", fmt(noise_pct, 2)});
  t.add_row({"gate_pct", fmt(gate_pct, 2)});
  t.add_row({"counter_add_ns_on", fmt(add_on_ns, 1)});
  t.add_row({"counter_add_ns_off", fmt(add_off_ns, 1)});
  t.add_row({"hist_observe_ns_on", fmt(obs_on_ns, 1)});
  t.add_row({"hist_observe_ns_off", fmt(obs_off_ns, 1)});
  t.add_row({"verdict", pass ? "PASS" : "FAIL"});
  t.print(std::cout);
  std::printf("\nReading: the on-column pays for counters, histograms, and "
              "spans across every DecisionEngine stage and kernel; off "
              "reduces each site to one relaxed load + branch. Overhead is "
              "gated at max(2%%, 3x the off-vs-off noise floor).\n");

  bench::JsonReport report("obs_overhead");
  report.add("overhead", t);
  report.add_scalar("overhead_pct", overhead_pct);
  report.add_scalar("noise_floor_pct", noise_pct);
  report.add_scalar("counter_add_ns_on", add_on_ns);
  report.add_scalar("counter_add_ns_off", add_off_ns);
  report.set_metrics(registry.snapshot());
  report.write(args.json_path);
  bench::write_metrics_snapshot(args.metrics_path);
  return pass ? 0 : 1;
}
