#pragma once
// Shared fixtures for the figure-reproduction benches: canonical traces
// (one seed per workload, matching DESIGN.md), the Lambda model, the config
// grid, and the cached pretrained / fine-tuned surrogates.
//
// Caching: the surrogate is trained once (first 12 h of the Azure-like
// trace, as in paper §IV-B) and written to $DEEPBAT_CACHE_DIR
// (default ./deepbat_cache). Fine-tuned variants (paper §III-D: first hour
// of each OOD trace) are cached per workload. Delete the cache directory or
// set DEEPBAT_FORCE_RETRAIN=1 to retrain; set DEEPBAT_TRAIN_EPOCHS /
// DEEPBAT_TRAIN_SAMPLES for a paper-scale run.

#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "core/deepbat.hpp"
#include "obs/export.hpp"
#include "sim/platform.hpp"

namespace deepbat::bench {

inline constexpr std::uint64_t kAzureSeed = 101;
inline constexpr std::uint64_t kTwitterSeed = 202;
inline constexpr std::uint64_t kAlibabaSeed = 303;
inline constexpr std::uint64_t kSyntheticSeed = 404;

class Fixture {
 public:
  Fixture();

  const lambda::LambdaModel& model() const { return model_; }
  const lambda::ConfigGrid& grid() const { return grid_; }
  const std::filesystem::path& cache_dir() const { return cache_dir_; }

  /// Canonical traces (memoized; `hours` is part of the key).
  const workload::Trace& azure(double hours);
  const workload::Trace& twitter(double hours);
  const workload::Trace& alibaba(double hours);
  const workload::Trace& synthetic(double hours);
  const workload::Trace& by_name(const std::string& name, double hours);

  /// The shared pretrained surrogate (Azure-trained). Eval mode.
  core::Surrogate& pretrained();

  /// Penalty factor gamma of the pretrained model on held-out Azure data
  /// (paper §III-D). The scaled-down bench model needs this margin even in
  /// distribution; cached alongside the weights.
  double pretrained_gamma();

  /// Fine-tuned variant for an OOD workload: starts from the pretrained
  /// weights and fine-tunes on the first hour of `ood_trace` (cached under
  /// `name`). Returns the model and the estimated penalty factor gamma.
  struct Finetuned {
    core::Surrogate* surrogate;
    double gamma;
  };
  Finetuned finetuned(const std::string& name,
                      const workload::Trace& ood_trace);

  /// Sequence length of the cached surrogates.
  std::int64_t sequence_length() const;

  /// Analytic options used for BATCH inside long replays (reduced grid
  /// resolution so 12-hour experiments finish in minutes; tab_speedup uses
  /// the full-fidelity defaults).
  batchlib::AnalyticOptions replay_analytic_options() const;

  /// Build a DeepBAT controller around a surrogate.
  core::DeepBatControllerOptions controller_options(double slo_s,
                                                    double gamma) const;

  /// Build BATCH controller options for replays.
  batchlib::BatchControllerOptions batch_options(double slo_s) const;

 private:
  lambda::LambdaModel model_;
  lambda::ConfigGrid grid_;
  std::filesystem::path cache_dir_;
  core::PretrainSpec spec_;
  std::map<std::string, workload::Trace> traces_;
  std::unique_ptr<core::Surrogate> pretrained_;
  std::map<std::string, std::unique_ptr<core::Surrogate>> finetuned_;
  std::map<std::string, double> gammas_;
};

/// Print the standard bench preamble (what is being reproduced).
void preamble(const std::string& figure, const std::string& description);

/// Standard CLI shared by every replay bench. Each bench seeds the struct
/// with its figure's defaults and overrides from argv:
///   --slo <seconds>      SLO target (figure default, usually 0.1)
///   --hours <h>          trace horizon (benches clamp to their minimum)
///   --interval <seconds> control interval (default 30)
///   --cold-seed <n>      cold-start injection seed (0 = warm platform)
///   --shards <n>         runtime shard count for multi-tenant replays
///                        (default 1; results are shard-invariant)
///   --faults <scenario>  fault-injection scenario applied to both tenants
///                        (calm|coldburst|flaky|throttled|chaos; default
///                        none — the byte-stable fair-weather replay)
///   --fault-seed <n>     FaultPlan seed for --faults (default 7)
///   --precision <p>      grid-scoring arithmetic (fp32|fp16, default
///                        fp32 — the bit-exact replay; see DESIGN.md §12)
///   --retrain            enable the online harvest/retrain/shadow/hot-swap
///                        loop on the DeepBAT tenant (DESIGN.md §14)
///   --retrain-seed <n>   seed for the harvest reservoir and the retrain
///                        shuffle (part of the replay identity; default 17)
///   --json <path>        also emit the bench's tables as one JSON document
///   --metrics <path>     dump an obs registry snapshot (JSON) after the run
struct ReplayArgs {
  double slo_s = 0.1;
  double hours = 0.0;
  double control_interval_s = 30.0;
  std::uint64_t cold_start_seed = 0;
  std::size_t shards = 1;
  /// Empty = no fault layer (not even the "calm" plan object).
  std::string fault_scenario;
  std::uint64_t fault_seed = 7;
  core::ScoringPrecision scoring_precision = core::ScoringPrecision::kFp32;
  /// Online retraining (learn::AdaptiveController) on the DeepBAT tenant.
  bool retrain = false;
  std::uint64_t retrain_seed = 17;
  std::string json_path;
  std::string metrics_path;
};

/// A whole positive environment knob a bench reads next to its flags (e.g.
/// DEEPBAT_TENANTS): when `name` is set, parse_replay_args stores it in
/// *value, 1 <= value <= INT_MAX.
struct EnvKnob {
  const char* name;
  std::int64_t* value;
};

/// Parse the standard replay flags over per-figure defaults, then the
/// bench's `knobs`. Unknown flags are an error (CliFlags semantics), so
/// every replay bench exposes exactly the same surface; a malformed flag or
/// knob prints the error and the usage line and exits with status 2.
ReplayArgs parse_replay_args(int argc, const char* const* argv,
                             ReplayArgs defaults,
                             std::initializer_list<EnvKnob> knobs = {});

/// Per-figure defaults for parse_replay_args.
inline ReplayArgs replay_defaults(double slo_s = 0.1, double hours = 0.0,
                                  std::uint64_t cold_start_seed = 0) {
  ReplayArgs args;
  args.slo_s = slo_s;
  args.hours = hours;
  args.cold_start_seed = cold_start_seed;
  return args;
}

/// Machine-readable bench output: named tables collected during the run,
/// written as one JSON document when --json was given (no-op otherwise).
class JsonReport {
 public:
  explicit JsonReport(std::string bench) : bench_(std::move(bench)) {}

  void add(const std::string& key, const Table& table);
  void add_scalar(const std::string& key, double value);

  /// Record a replay's reproducibility provenance: the tenant's fault
  /// stream id and its surrogate hot-swap history TOGETHER (a retrained
  /// replay is only byte-comparable across reruns and shard counts when
  /// both match). Serialized under a "runs" key.
  void add_run(const std::string& key, const sim::PlatformRun& run);

  /// Embed an observability snapshot (serialized immediately) so the bench
  /// document carries its metrics under a "metrics" key.
  void set_metrics(const obs::MetricsSnapshot& snapshot);

  /// Write {"bench": ..., "scalars": {...}, "tables": {...}[, "metrics":
  /// {...}]}; no-op when `path` is empty.
  void write(const std::string& path) const;

 private:
  struct RunProvenance {
    std::string key;
    std::uint64_t fault_stream = 0;
    std::vector<sim::SwapEvent> swaps;
  };

  std::string bench_;
  std::vector<std::pair<std::string, double>> scalars_;
  std::vector<std::pair<std::string, const Table*>> tables_;
  std::vector<RunProvenance> runs_;
  std::string metrics_json_;
};

/// Dump a metrics-registry snapshot (plus the recent span trace) to `path`
/// as JSON — the implementation of every replay bench's --metrics flag.
/// No-op when `path` is empty.
void write_metrics_snapshot(const std::string& path);

/// The replay gates' run-identity check (sim::first_divergence, DESIGN.md
/// §10): true when `a` and `b` are the same run; otherwise prints
/// "<label> first_divergence: <where>" and returns false.
bool same_runs(const std::string& label, std::span<const sim::PlatformRun> a,
               std::span<const sim::PlatformRun> b);

}  // namespace deepbat::bench
