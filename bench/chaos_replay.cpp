// Chaos replay — DeepBAT vs BATCH under injected platform faults
// (DESIGN.md §11). For each fault scenario (default: calm, coldburst,
// flaky, throttled; --faults X runs X alone) the Azure-like trace is
// replayed head-to-head through the shared multi-tenant runtime and the
// harness reports SLO-violation rate (dropped requests count as
// violations), drop rate, cost, retries, and DeepBAT's breaker activity,
// writing everything to BENCH_chaos.json.
//
// The bench is also a correctness gate, extending the shard-invariance
// contract to faulted runs; it exits 1 when
//   * served + dropped != offered for any system (lost requests),
//   * a scenario without transient failures drops anything,
//   * a tenant's faulted runtime replay differs bit-for-bit from its solo
//     run_platform() replay, or
//   * the faulted replay at shards {1, 2, 5} diverges from 1 shard.
#include <cmath>
#include <sstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/fileio.hpp"
#include "replay_common.hpp"

using namespace deepbat;

namespace {

// Both tenants of two head-to-head replays under the run-identity gate.
bool same_replay(const std::string& label, const bench::Replay& a,
                 const bench::Replay& b) {
  return bench::same_runs(label + " deepbat", {&a.deepbat, 1},
                          {&b.deepbat, 1}) &&
         bench::same_runs(label + " batch", {&a.batch, 1}, {&b.batch, 1});
}

struct SystemStats {
  std::size_t offered = 0;
  std::size_t served = 0;
  std::size_t dropped = 0;
  std::size_t retries = 0;
  std::size_t invocations = 0;
  double slo_violation_rate = 0.0;
  double drop_rate = 0.0;
  double cost_per_request = 0.0;
};

SystemStats system_stats(const sim::SimResult& r, double slo) {
  SystemStats s;
  s.offered = r.offered();
  s.served = r.served();
  s.dropped = r.dropped;
  s.retries = r.retries;
  s.invocations = r.invocations;
  s.drop_rate = r.drop_rate();
  s.cost_per_request = r.cost_per_request();
  std::size_t violations = r.dropped;  // a dropped request can't meet an SLO
  for (const auto& req : r.requests) {
    if (req.latency() > slo) ++violations;
  }
  if (s.offered > 0) {
    s.slo_violation_rate =
        static_cast<double>(violations) / static_cast<double>(s.offered);
  }
  return s;
}

void json_system(std::ostream& os, const SystemStats& s) {
  os << "{\"offered\": " << s.offered << ", \"served\": " << s.served
     << ", \"dropped\": " << s.dropped << ", \"retries\": " << s.retries
     << ", \"invocations\": " << s.invocations
     << ", \"slo_violation_rate\": " << s.slo_violation_rate
     << ", \"drop_rate\": " << s.drop_rate
     << ", \"cost_per_request\": " << s.cost_per_request << "}";
}

// Fallback-decay evidence for the online-learning loop (DESIGN.md §14):
// fallback decisions per control tick before the first hot-swap vs after.
// A working harvest->retrain->swap loop must DROP the rate — the retrained
// surrogate absorbs the fault weather the pretrained one kept tripping on.
struct FallbackDecay {
  bool swapped = false;
  double first_swap_time = 0.0;
  std::size_t pre_fallbacks = 0;
  std::size_t post_fallbacks = 0;
  std::size_t pre_ticks = 0;
  std::size_t post_ticks = 0;
  double pre_rate = 0.0;
  double post_rate = 0.0;
  bool decayed = false;
};

FallbackDecay fallback_decay(const bench::Replay& replay) {
  FallbackDecay d;
  if (replay.deepbat.swaps.empty()) return d;
  d.swapped = true;
  d.first_swap_time = replay.deepbat.swaps.front().time;
  for (const auto& decision : replay.deepbat.decisions) {
    (decision.time < d.first_swap_time ? d.pre_ticks : d.post_ticks) += 1;
  }
  for (const double t : replay.deepbat_fallback_times) {
    (t < d.first_swap_time ? d.pre_fallbacks : d.post_fallbacks) += 1;
  }
  if (d.pre_ticks > 0) {
    d.pre_rate = static_cast<double>(d.pre_fallbacks) /
                 static_cast<double>(d.pre_ticks);
  }
  if (d.post_ticks > 0) {
    d.post_rate = static_cast<double>(d.post_fallbacks) /
                  static_cast<double>(d.post_ticks);
  }
  d.decayed = d.post_ticks > 0 && d.post_rate < d.pre_rate;
  return d;
}

void json_decay(std::ostream& os, const FallbackDecay& d) {
  os << "{\"swapped\": " << (d.swapped ? "true" : "false")
     << ", \"first_swap_time\": " << d.first_swap_time
     << ", \"pre_fallbacks\": " << d.pre_fallbacks
     << ", \"post_fallbacks\": " << d.post_fallbacks
     << ", \"pre_ticks\": " << d.pre_ticks
     << ", \"post_ticks\": " << d.post_ticks
     << ", \"pre_rate\": " << d.pre_rate
     << ", \"post_rate\": " << d.post_rate
     << ", \"decayed\": " << (d.decayed ? "true" : "false") << "}";
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::parse_replay_args(
      argc, argv, bench::replay_defaults(0.1, 0.5));
  bench::preamble("Chaos replay — fault scenarios, retries, and fallbacks",
                  "DeepBAT vs BATCH under injected cold bursts / failures / "
                  "throttling; shard-invariance extended to faulted runs");
  bench::Fixture fx;
  const double hours = std::max(args.hours, 0.25);
  const workload::Trace& serve = fx.azure(hours);
  const core::Surrogate& surrogate = fx.pretrained();
  const double gamma = fx.pretrained_gamma();

  const std::vector<std::string> scenarios =
      args.fault_scenario.empty()
          ? std::vector<std::string>{"calm", "coldburst", "flaky", "throttled"}
          : std::vector<std::string>{args.fault_scenario};

  struct ScenarioRow {
    std::string name;
    SystemStats deepbat;
    SystemStats batch;
    std::size_t fallbacks = 0;
    std::size_t breaker_trips = 0;
    // Online-learning evidence (--retrain only).
    std::size_t drift_trips = 0;
    std::size_t retrain_runs = 0;
    std::size_t shadow_wins = 0;
    std::size_t shadow_losses = 0;
    std::size_t swap_count = 0;
    std::uint64_t fault_stream = 0;
    std::vector<sim::SwapEvent> swaps;
    FallbackDecay decay;
  };
  std::vector<ScenarioRow> rows;
  bool accounting_ok = true;
  bool no_unexpected_drops = true;
  bool solo_identical = true;
  // --retrain gates: the loop must actually heal fault pressure (fallback
  // rate drops after the first hot-swap on transient-fault scenarios), and
  // a calm replay must stay byte-identical to the no-retrain path (the
  // learner never engages without fault pressure).
  bool retrain_decay_ok = true;
  bool calm_retrain_identical = true;

  // --json: replay provenance (fault stream + swap ticks) per scenario.
  bench::JsonReport report("chaos_replay");
  // The scenario the shard sweep replays; its scenario-loop run doubles as
  // the rerun-stability baseline when the shard counts line up.
  const std::string sweep_scenario =
      args.fault_scenario.empty() ? "flaky" : args.fault_scenario;
  std::optional<bench::Replay> sweep_scenario_replay;

  for (const std::string& scenario : scenarios) {
    bench::ReplayArgs sargs = args;
    sargs.fault_scenario = scenario;
    std::printf("\n--- scenario: %s (seed %llu) ---\n", scenario.c_str(),
                static_cast<unsigned long long>(sargs.fault_seed));
    const bench::Replay replay =
        bench::run_head_to_head(fx, serve, surrogate, gamma, args.slo_s, sargs);
    report.add_run(scenario + ".deepbat", replay.deepbat);
    report.add_run(scenario + ".batch", replay.batch);

    ScenarioRow row;
    row.name = scenario;
    row.deepbat = system_stats(replay.deepbat.result, args.slo_s);
    row.batch = system_stats(replay.batch.result, args.slo_s);
    row.fallbacks = replay.deepbat_fallbacks;
    row.breaker_trips = replay.deepbat_breaker_trips;
    if (args.retrain) {
      row.drift_trips = replay.drift_trips;
      row.retrain_runs = replay.retrain_runs;
      row.shadow_wins = replay.shadow_wins;
      row.shadow_losses = replay.shadow_losses;
      row.swap_count = replay.deepbat.swaps.size();
      row.fault_stream = replay.deepbat.fault_stream;
      row.swaps = replay.deepbat.swaps;
      row.decay = fallback_decay(replay);
      // The decay gate applies where transient faults create the drift the
      // loop exists to heal; calm/coldburst/throttled weather need not
      // trip it at all.
      if (scenario == "flaky" || scenario == "chaos") {
        if (!row.decay.swapped || !row.decay.decayed) {
          retrain_decay_ok = false;
          std::printf("[chaos] RETRAIN DECAY FAILURE in %s (swapped=%d, "
                      "pre_rate=%.3f, post_rate=%.3f)\n",
                      scenario.c_str(), row.decay.swapped ? 1 : 0,
                      row.decay.pre_rate, row.decay.post_rate);
        }
      }
      // Calm weather must not engage the learner: the retrained replay has
      // to stay byte-identical to the plain controller's.
      if (scenario == "calm") {
        bench::ReplayArgs cargs = sargs;
        cargs.retrain = false;
        const bench::Replay baseline = bench::run_head_to_head(
            fx, serve, surrogate, gamma, args.slo_s, cargs);
        // fault_stream/swaps provenance matches trivially (same stream id,
        // both swap-free) — the request/decision comparison is the point.
        if (replay.retrain_runs > 0 || !replay.deepbat.swaps.empty() ||
            !bench::same_runs("[chaos] calm retrain", {&baseline.deepbat, 1},
                              {&replay.deepbat, 1})) {
          calm_retrain_identical = false;
          std::printf("[chaos] CALM RETRAIN DIVERGENCE (learner engaged on "
                      "fault-free weather)\n");
        }
      }
    }

    // Conservation: every offered request is either served or a recorded
    // drop — nothing vanishes inside the retry loop.
    for (const SystemStats* s : {&row.deepbat, &row.batch}) {
      if (s->served + s->dropped != s->offered ||
          s->offered != serve.size()) {
        accounting_ok = false;
        std::printf("[chaos] ACCOUNTING VIOLATION in %s\n", scenario.c_str());
      }
    }
    const sim::FaultPlan plan =
        sim::fault_scenario(scenario, sargs.fault_seed);
    if (!plan.failures.enabled &&
        row.deepbat.dropped + row.batch.dropped > 0) {
      no_unexpected_drops = false;
      std::printf("[chaos] UNEXPECTED DROPS in %s (no failures enabled)\n",
                  scenario.c_str());
    }

    // Solo cross-check: each tenant's faulted runtime replay must be
    // bit-identical to an independent run_platform() with the same options
    // (including its fault stream). With --retrain the solo controller
    // trains INLINE (no worker pool) — so this comparison also proves
    // pool-vs-inline training determinism end to end.
    sim::PlatformOptions popts;
    popts.control_interval_s = args.control_interval_s;
    popts.cold_start_seed = args.cold_start_seed;
    popts.faults = plan;
    std::optional<core::DeepBatController> solo_plain;
    std::optional<learn::AdaptiveController> solo_adaptive;
    if (args.retrain) {
      solo_adaptive.emplace(
          surrogate,
          bench::adaptive_controller_options(fx, args.slo_s, gamma, sargs));
    } else {
      solo_plain.emplace(surrogate,
                         fx.controller_options(args.slo_s, gamma));
    }
    core::DeepBatController& solo_deepbat =
        args.retrain ? static_cast<core::DeepBatController&>(*solo_adaptive)
                     : *solo_plain;
    batchlib::BatchController solo_batch(fx.model(),
                                         fx.batch_options(args.slo_s));
    popts.fault_stream = 0;
    if (args.retrain) popts.observer = &*solo_adaptive;
    const sim::PlatformRun solo_d = sim::run_platform(
        serve, solo_deepbat, fx.model(), {1024, 1, 0.0}, popts);
    popts.fault_stream = 1;
    popts.observer = nullptr;
    const sim::PlatformRun solo_b = sim::run_platform(
        serve, solo_batch, fx.model(), {1024, 1, 0.0}, popts);
    const std::string solo_label = "[chaos] solo " + scenario;
    if (!bench::same_runs(solo_label + " deepbat", {&solo_d, 1},
                          {&replay.deepbat, 1}) ||
        !bench::same_runs(solo_label + " batch", {&solo_b, 1},
                          {&replay.batch, 1})) {
      solo_identical = false;
    }

    Table t({"metric", "batch", "deepbat"});
    t.add_row({"slo_violation_rate_pct",
               fmt(100.0 * row.batch.slo_violation_rate, 2),
               fmt(100.0 * row.deepbat.slo_violation_rate, 2)});
    t.add_row({"drop_rate_pct", fmt(100.0 * row.batch.drop_rate, 2),
               fmt(100.0 * row.deepbat.drop_rate, 2)});
    t.add_row({"cost_usd_per_req", fmt_sci(row.batch.cost_per_request, 3),
               fmt_sci(row.deepbat.cost_per_request, 3)});
    t.add_row({"retries", std::to_string(row.batch.retries),
               std::to_string(row.deepbat.retries)});
    t.add_row({"fallback_decisions", "-", std::to_string(row.fallbacks)});
    t.add_row({"breaker_trips", "-", std::to_string(row.breaker_trips)});
    if (args.retrain) {
      t.add_row({"drift_trips", "-", std::to_string(row.drift_trips)});
      t.add_row({"retrain_runs", "-", std::to_string(row.retrain_runs)});
      t.add_row({"shadow_wins_losses", "-",
                 std::to_string(row.shadow_wins) + "/" +
                     std::to_string(row.shadow_losses)});
      t.add_row({"surrogate_swaps", "-", std::to_string(row.swap_count)});
      if (row.decay.swapped) {
        t.add_row({"fallback_rate_pre_swap", "-",
                   fmt(row.decay.pre_rate, 3)});
        t.add_row({"fallback_rate_post_swap", "-",
                   fmt(row.decay.post_rate, 3)});
      }
    }
    t.print(std::cout);
    if (scenario == sweep_scenario && args.shards == 1) {
      sweep_scenario_replay = replay;
    }
    rows.push_back(std::move(row));
  }

  // --- shard-invariance under faults: {1, 2, 5} vs 1 ----------------------
  std::printf("\n[shards] faulted replay (%s) at 1/2/5 shards...\n",
              sweep_scenario.c_str());
  bool shard_identical = true;
  bool rerun_identical = true;
  bench::Replay one_shard;
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
    bench::ReplayArgs sargs = args;
    sargs.fault_scenario = sweep_scenario;
    sargs.shards = shards;
    bench::Replay replay =
        bench::run_head_to_head(fx, serve, surrogate, gamma, args.slo_s, sargs);
    if (shards == 1) {
      one_shard = std::move(replay);
    } else if (!same_replay("[shards] " + std::to_string(shards) + " shards",
                            one_shard, replay)) {
      shard_identical = false;
    }
  }
  std::printf("[shards] bit-identical across {1, 2, 5}: %s\n",
              shard_identical ? "yes" : "NO");
  // Rerun stability: the 1-shard sweep run repeated the scenario loop's
  // replay from scratch (fresh controllers, fresh learner state) — with
  // --retrain this proves the whole harvest/retrain/swap history is a pure
  // function of the replay inputs, swap ticks included.
  if (sweep_scenario_replay.has_value()) {
    rerun_identical = same_replay("[chaos] rerun " + sweep_scenario,
                                  *sweep_scenario_replay, one_shard);
  }

  const bool retrain_ok = retrain_decay_ok && calm_retrain_identical;
  {
    std::ostringstream out;
    out << "{\n  \"bench\": \"chaos_replay\",\n  \"hours\": " << hours
        << ",\n  \"slo_s\": " << args.slo_s << ",\n  \"fault_seed\": "
        << args.fault_seed << ",\n  \"accounting_ok\": "
        << (accounting_ok ? "true" : "false")
        << ",\n  \"no_unexpected_drops\": "
        << (no_unexpected_drops ? "true" : "false")
        << ",\n  \"solo_identical\": " << (solo_identical ? "true" : "false")
        << ",\n  \"shard_invariant\": " << (shard_identical ? "true" : "false")
        << ",\n  \"rerun_identical\": " << (rerun_identical ? "true" : "false");
    if (args.retrain) {
      out << ",\n  \"retrain\": {\"seed\": " << args.retrain_seed
          << ", \"decay_ok\": " << (retrain_decay_ok ? "true" : "false")
          << ", \"calm_identical\": "
          << (calm_retrain_identical ? "true" : "false") << "}";
    }
    out << ",\n  \"scenarios\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const ScenarioRow& r = rows[i];
      out << "    {\"name\": \"" << r.name << "\", \"fallback_decisions\": "
          << r.fallbacks << ", \"breaker_trips\": " << r.breaker_trips
          << ",\n     \"deepbat\": ";
      json_system(out, r.deepbat);
      out << ",\n     \"batch\": ";
      json_system(out, r.batch);
      if (args.retrain) {
        // Reproducibility provenance rides WITH the decay evidence: the
        // fault stream id and the exact swap ticks identify the replay.
        out << ",\n     \"retrain\": {\"fault_stream\": " << r.fault_stream
            << ", \"drift_trips\": " << r.drift_trips
            << ", \"retrain_runs\": " << r.retrain_runs
            << ", \"shadow_wins\": " << r.shadow_wins
            << ", \"shadow_losses\": " << r.shadow_losses
            << ", \"swaps\": [";
        for (std::size_t s = 0; s < r.swaps.size(); ++s) {
          if (s > 0) out << ", ";
          out << "{\"time\": " << r.swaps[s].time
              << ", \"from_version\": " << r.swaps[s].from_version
              << ", \"to_version\": " << r.swaps[s].to_version << "}";
        }
        out << "],\n      \"fallback_decay\": ";
        json_decay(out, r.decay);
        out << "}";
      }
      out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    write_file_atomic("BENCH_chaos.json", out.str());
  }
  std::printf("\n[chaos] wrote BENCH_chaos.json (accounting=%s, "
              "unexpected_drops=%s, solo=%s, shards=%s%s)\n",
              accounting_ok ? "ok" : "VIOLATED",
              no_unexpected_drops ? "none" : "FOUND",
              solo_identical ? "identical" : "DIVERGED",
              shard_identical ? "invariant" : "DIVERGED",
              args.retrain ? (retrain_ok ? ", retrain=ok" : ", retrain=FAILED")
                           : "");
  report.add_scalar("retrain", args.retrain ? 1.0 : 0.0);
  report.add_scalar("retrain_seed", static_cast<double>(args.retrain_seed));
  report.write(args.json_path);
  bench::write_metrics_snapshot(args.metrics_path);

  return accounting_ok && no_unexpected_drops && solo_identical &&
                 shard_identical && rerun_identical && retrain_ok
             ? 0
             : 1;
}
