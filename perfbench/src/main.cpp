// The benchmark binary, run by perfbench/run.py:
//
//   deepbat_perf --mode prepare
//       Train (or load) the bench surrogate into $DEEPBAT_CACHE_DIR and
//       estimate its gamma. Run once, outside every timed replay.
//   deepbat_perf --mode run --workload W --seed N --seconds S --trace 0|1
//                [--spans PATH]
//       Generate W's inputs from N, replay W once to warm up, then replay
//       it back to back until S seconds of replays have passed (at least
//       one; a traced run alternates untraced and traced replays, at least
//       one of each). Prints one "INPUTS {...}" line, one "WARMUP {...}"
//       line, one "REP {...}" line per measured replay and a "POOLED {...}"
//       line with the latency percentiles of all measured untraced
//       replays; run.py turns them into the benchmark's metrics.
//
// Exit codes: 0 ok, 1 runtime error, 2 bad arguments.
#include <sys/resource.h>

#include <chrono>
#include <exception>
#include <cstdio>
#include <sstream>
#include <string>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "workloads.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

using namespace deepbat;
using namespace deepbat::perfbench;

namespace {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int omp_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

/// Minimal JSON object writer for flat records.
class Json {
 public:
  Json& num(const char* key, double v) {
    sep();
    os_ << '"' << key << "\": " << v;
    return *this;
  }
  Json& count(const char* key, std::size_t v) {
    sep();
    os_ << '"' << key << "\": " << v;
    return *this;
  }
  Json& flag(const char* key, bool v) {
    sep();
    os_ << '"' << key << "\": " << (v ? "true" : "false");
    return *this;
  }
  Json& str(const char* key, const std::string& v) {
    sep();
    os_ << '"' << key << "\": \"" << v << '"';
    return *this;
  }
  std::string done() { return os_.str() + "}"; }

 private:
  void sep() {
    os_ << (first_ ? "{" : ", ");
    first_ = false;
  }
  std::ostringstream os_ = [] {
    std::ostringstream os;
    os.precision(17);
    return os;
  }();
  bool first_ = true;
};

std::string rep_json(const RepResult& r) {
  Json j;
  j.flag("traced", r.traced)
      .num("setup_s", r.setup_s)
      .num("surrogate_load_s", r.surrogate_load_s)
      .num("controller_build_s", r.controller_build_s)
      .num("register_s", r.register_s)
      .num("run_s", r.run_s)
      .count("decisions", r.decisions)
      .count("latency_samples", r.latency.count)
      .num("decision_ms_p50", r.latency.p50_ms)
      .num("decision_ms_p99", r.latency.p99_ms)
      .flag("p99_supported", r.latency.p99_supported)
      .count("top_percentile_bp", r.latency.top_percentile)
      .num("decision_ms_top", r.latency.top_ms)
      .count("offered", r.offered)
      .count("served", r.served)
      .count("served_within_slo", r.served_within_slo)
      .count("dropped", r.dropped)
      .count("retries", r.retries)
      .count("invocations", r.invocations)
      .num("total_cost_usd", r.total_cost)
      .str("digest", r.digest)
      .flag("conserved", r.conserved)
      .flag("counts_agree", r.counts_agree)
      .count("executors", r.executors)
      .count("tick_groups", r.stats.tick_groups)
      .count("control_ticks", r.stats.control_ticks)
      .count("cache_hits", r.stats.cache_hits)
      .count("cache_misses", r.stats.cache_misses)
      .count("bypassed_ticks", r.stats.bypassed_ticks)
      .count("steals", r.stats.steals)
      .count("max_queue_depth", r.stats.max_queue_depth)
      .count("fallbacks", r.fallbacks)
      .count("retrains", r.retrains)
      .count("swaps", r.swaps)
      .count("shadow_wins", r.shadow_wins)
      .count("shadow_losses", r.shadow_losses)
      .count("samples_harvested", r.samples_harvested)
      .num("peak_rss_mb", peak_rss_mb());
  if (r.traced) {
    for (std::size_t k = 0; k < kLayerCount; ++k) {
      const LayerTotals& l = r.trace.layers[k];
      const std::string p = layer_name(static_cast<Layer>(k));
      j.count((p + ".calls").c_str(), l.calls)
          .count((p + ".items").c_str(), l.items)
          .num((p + ".busy_s").c_str(), l.busy_s)
          .num((p + ".max_call_s").c_str(), l.max_call_s);
    }
    j.count("spans", r.trace.spans)
        .num("layer_busy_s", r.budget.layer_busy_s)
        .num("executor_s", r.budget.executor_s())
        .num("residual_s", r.budget.residual_s())
        .num("residual_share", r.budget.residual_share());
  }
  return j.done();
}

int run_mode(const CliFlags& flags) {
  const WorkloadSpec& spec = find_workload(flags.get("workload", ""));
  const std::int64_t seed = flags.get_int("seed", -1);
  const double seconds = flags.get_double("seconds", 0.0);
  const std::int64_t trace = flags.get_int("trace", 0);
  const std::string spans_path = flags.get("spans", "");
  DEEPBAT_CHECK(seed >= 0, "--seed must be a non-negative integer");
  DEEPBAT_CHECK(seconds > 0.0, "--seconds must be positive");
  DEEPBAT_CHECK(trace == 0 || trace == 1, "--trace must be 0 or 1");

  bench::Fixture fixture;
  const Prepared prepared = prepare(fixture);
  const auto t_gen = std::chrono::steady_clock::now();
  const Inputs inputs = make_inputs(spec, static_cast<std::uint64_t>(seed));
  const double gen_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t_gen)
                           .count();
  const SurrogateShape shape =
      surrogate_shape(prepared.surrogate_config, fixture.grid().size());
  std::printf("INPUTS %s\n",
              Json()
                  .str("workload", spec.name)
                  .count("seed", static_cast<std::size_t>(seed))
                  .count("tenants", inputs.traces.size())
                  .count("live_tenants", inputs.live_tenants)
                  .count("arrivals", inputs.arrivals)
                  .num("sim_hours", spec.hours)
                  .count("shards", spec.shards)
                  .count("retrain_workers", spec.retrain_workers)
                  .num("input_generation_s", gen_s)
                  .count("omp_threads", static_cast<std::size_t>(omp_threads()))
                  .num("encode_flop_per_window", shape.encode_flop_per_window)
                  .num("score_flop_per_row", shape.score_flop_per_row)
                  .done()
                  .c_str());
  std::fflush(stdout);

  // One untimed warm-up replay first: the first replay of a process pays
  // first-touch page faults and cold caches that later replays do not.
  std::printf("WARMUP %s\n",
              rep_json(run_rep(spec, inputs, prepared, false, "")).c_str());
  std::fflush(stdout);

  // Latency percentiles come from the decisions of every measured untraced
  // replay pooled, so the tail rests on more than one replay's samples.
  std::vector<double> pooled_ms;
  const auto start = std::chrono::steady_clock::now();
  bool traced_next = false;
  std::size_t reps = 0;
  for (;;) {
    const bool traced = trace == 1 && traced_next;
    // Spans are written out for the first traced replay only.
    const bool write_spans = traced && reps == 1;
    const RepResult r = run_rep(spec, inputs, prepared, traced,
                                write_spans ? spans_path : "");
    std::printf("REP %s\n", rep_json(r).c_str());
    std::fflush(stdout);
    if (!traced) {
      pooled_ms.insert(pooled_ms.end(), r.latency_ms.begin(),
                       r.latency_ms.end());
    }
    ++reps;
    traced_next = !traced_next;
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    const bool have_both = trace == 0 || reps >= 2;
    if (elapsed >= seconds && have_both) break;
  }
  const LatencySummary pooled = summarize_latencies(std::move(pooled_ms));
  std::printf("POOLED %s\n", Json()
                                  .count("latency_samples", pooled.count)
                                  .num("decision_ms_p50", pooled.p50_ms)
                                  .num("decision_ms_p99", pooled.p99_ms)
                                  .flag("p99_supported", pooled.p99_supported)
                                  .count("top_percentile_bp",
                                         pooled.top_percentile)
                                  .num("decision_ms_top", pooled.top_ms)
                                  .done()
                                  .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode;
  try {
    const CliFlags flags(argc, argv);
    flags.check_known(
        {"mode", "workload", "seed", "seconds", "trace", "spans"});
    mode = flags.get("mode", "");
    if (mode == "prepare") {
      bench::Fixture fixture;
      const Prepared prepared = prepare(fixture);
      std::printf("PREPARED %s\n", Json()
                                       .str("weights", prepared.weights_path)
                                       .num("gamma", prepared.gamma)
                                       .done()
                                       .c_str());
      return 0;
    }
    if (mode == "run") return run_mode(flags);
    std::fprintf(stderr,
                 "deepbat_perf: --mode must be prepare or run\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "deepbat_perf: %s\n", e.what());
    return mode == "run" || mode == "prepare" ? 1 : 2;
  }
}
