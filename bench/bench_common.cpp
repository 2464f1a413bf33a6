#include "bench_common.hpp"

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/fileio.hpp"
#include "nn/serialize.hpp"
#include "sim/faults.hpp"
#include "sim/run_identity.hpp"

namespace deepbat::bench {

namespace {

std::filesystem::path cache_dir_from_env() {
  if (const char* dir = std::getenv("DEEPBAT_CACHE_DIR")) {
    return dir;
  }
  return "deepbat_cache";
}

/// The penalty factor γ that write_gamma stored at `path`. Anything but one
/// finite number is an error naming the file: reading it as 0 would
/// silently drop DeepBAT's SLO margin.
double read_gamma(const std::filesystem::path& path) {
  std::ifstream is(path);
  DEEPBAT_CHECK(is.is_open(), "cannot open gamma file " + path.string());
  double gamma = 0.0;
  std::string extra;
  const bool parsed = static_cast<bool>(is >> gamma);
  DEEPBAT_CHECK(parsed && !(is >> extra) && std::isfinite(gamma),
                "malformed gamma file " + path.string() +
                    ": expected one finite number");
  return gamma;
}

void write_gamma(const std::filesystem::path& path, double gamma) {
  char text[64];
  std::snprintf(text, sizeof text, "%.6f\n", gamma);
  write_file_atomic(path.string(), text);
}

}  // namespace

Fixture::Fixture()
    : grid_(lambda::ConfigGrid::standard()), cache_dir_(cache_dir_from_env()) {
  try {
    spec_ = core::bench_spec(cache_dir_);
  } catch (const Error& e) {
    // A malformed DEEPBAT_TRAIN_EPOCHS / _SAMPLES fails like a bad flag,
    // in every bench that builds a fixture.
    std::fprintf(stderr,
                 "%s\nusage: DEEPBAT_TRAIN_EPOCHS and DEEPBAT_TRAIN_SAMPLES "
                 "take a whole positive number\n",
                 e.what());
    std::exit(2);
  }
  std::filesystem::create_directories(cache_dir_);
  if (const char* f = std::getenv("DEEPBAT_FORCE_RETRAIN")) {
    spec_.force_retrain = std::string(f) == "1";
  }
}

const workload::Trace& Fixture::azure(double hours) {
  const std::string key = "azure:" + std::to_string(hours);
  auto it = traces_.find(key);
  if (it == traces_.end()) {
    it = traces_.emplace(key, workload::azure_like({.hours = hours},
                                                   kAzureSeed))
             .first;
  }
  return it->second;
}

const workload::Trace& Fixture::twitter(double hours) {
  const std::string key = "twitter:" + std::to_string(hours);
  auto it = traces_.find(key);
  if (it == traces_.end()) {
    it = traces_.emplace(key, workload::twitter_like({.hours = hours},
                                                     kTwitterSeed))
             .first;
  }
  return it->second;
}

const workload::Trace& Fixture::alibaba(double hours) {
  const std::string key = "alibaba:" + std::to_string(hours);
  auto it = traces_.find(key);
  if (it == traces_.end()) {
    it = traces_.emplace(key, workload::alibaba_like({.hours = hours},
                                                     kAlibabaSeed))
             .first;
  }
  return it->second;
}

const workload::Trace& Fixture::synthetic(double hours) {
  const std::string key = "synthetic:" + std::to_string(hours);
  auto it = traces_.find(key);
  if (it == traces_.end()) {
    it = traces_.emplace(key, workload::synthetic_map({.hours = hours},
                                                      kSyntheticSeed))
             .first;
  }
  return it->second;
}

const workload::Trace& Fixture::by_name(const std::string& name,
                                        double hours) {
  if (name == "azure") return azure(hours);
  if (name == "twitter") return twitter(hours);
  if (name == "alibaba") return alibaba(hours);
  if (name == "synthetic") return synthetic(hours);
  DEEPBAT_FAIL("unknown workload: " + name);
}

core::Surrogate& Fixture::pretrained() {
  if (!pretrained_) {
    // Paper §IV-B: "We train the model using the first 12-hour Azure data."
    auto result = core::ensure_pretrained(azure(12.0), grid_, model_, spec_);
    pretrained_ = std::move(result.surrogate);
    if (!result.loaded_from_cache) {
      std::printf("[fixture] pretrained surrogate: val MAPE %.2f%% in %.0f s\n",
                  result.train_result.final_validation_mape,
                  result.train_result.seconds);
    }
    pretrained_->set_training(false);
  }
  return *pretrained_;
}

double Fixture::pretrained_gamma() {
  const std::string key = "__pretrained";
  const auto it = gammas_.find(key);
  if (it != gammas_.end()) return it->second;
  const auto gamma_path = cache_dir_ / "deepbat_gamma_pretrained.txt";
  double gamma = 0.0;
  if (!spec_.force_retrain && std::filesystem::exists(gamma_path)) {
    gamma = read_gamma(gamma_path);
  } else {
    core::Surrogate& model = pretrained();
    core::DatasetBuilderOptions dopt = spec_.dataset;
    dopt.samples = 150;
    dopt.seed = spec_.dataset.seed + 99;
    const nn::Dataset held_out =
        core::build_dataset(azure(12.0), grid_, model_, dopt);
    gamma = std::min(0.5, core::estimate_gamma(model, held_out));
    std::printf("[fixture] pretrained gamma = %.3f\n", gamma);
    write_gamma(gamma_path, gamma);
  }
  gammas_[key] = gamma;
  return gamma;
}

Fixture::Finetuned Fixture::finetuned(const std::string& name,
                                      const workload::Trace& ood_trace) {
  auto it = finetuned_.find(name);
  if (it == finetuned_.end()) {
    auto model_ptr =
        std::make_unique<core::Surrogate>(spec_.surrogate, grid_);
    const auto path = cache_dir_ / ("deepbat_surrogate_" + name + ".bin");
    const auto gamma_path =
        cache_dir_ / ("deepbat_gamma_" + name + ".txt");

    // The fine-tuning / gamma-estimation dataset: first hour of the OOD
    // trace (paper §IV-C: "we fine-tuned DeepBAT using data from the first
    // hour of the Alibaba trace").
    const workload::Trace first_hour =
        ood_trace.slice(ood_trace.start_time(), ood_trace.start_time() + 3600.0);
    core::DatasetBuilderOptions dopt = spec_.dataset;
    dopt.samples = std::max<std::size_t>(200, spec_.dataset.samples / 4);
    dopt.seed = spec_.dataset.seed + 77;

    double gamma = 0.0;
    if (!spec_.force_retrain && std::filesystem::exists(path) &&
        std::filesystem::exists(gamma_path)) {
      nn::load_module(path.string(), *model_ptr);
      gamma = read_gamma(gamma_path);
    } else {
      // Start from the pretrained weights.
      const auto pre_path = spec_.cache_path;
      pretrained();  // ensure the cache file exists
      nn::load_module(pre_path.string(), *model_ptr);
      const nn::Dataset ood_set =
          core::build_dataset(first_hour, grid_, model_, dopt);
      const auto ft = core::fine_tune(*model_ptr, ood_set, /*epochs=*/12);
      gamma = std::min(0.5, core::estimate_gamma(*model_ptr, ood_set));
      std::printf(
          "[fixture] fine-tuned '%s': val MAPE %.2f%%, gamma %.3f (%.0f s)\n",
          name.c_str(), ft.final_validation_mape, gamma, ft.seconds);
      nn::save_module(path.string(), *model_ptr);
      write_gamma(gamma_path, gamma);
    }
    model_ptr->set_training(false);
    gammas_[name] = gamma;
    it = finetuned_.emplace(name, std::move(model_ptr)).first;
  }
  return Finetuned{it->second.get(), gammas_[name]};
}

std::int64_t Fixture::sequence_length() const {
  return spec_.surrogate.sequence_length;
}

batchlib::AnalyticOptions Fixture::replay_analytic_options() const {
  batchlib::AnalyticOptions opts;
  opts.grid_points = 96;
  opts.bisection_iterations = 30;
  return opts;
}

core::DeepBatControllerOptions Fixture::controller_options(
    double slo_s, double gamma) const {
  core::DeepBatControllerOptions opts;
  opts.slo_s = slo_s;
  opts.gamma = gamma;
  opts.grid = grid_;
  return opts;
}

batchlib::BatchControllerOptions Fixture::batch_options(double slo_s) const {
  batchlib::BatchControllerOptions opts;
  opts.slo_s = slo_s;
  opts.grid = grid_;
  opts.analytic_options = replay_analytic_options();
  return opts;
}

void preamble(const std::string& figure, const std::string& description) {
  std::printf("=====================================================\n");
  std::printf("%s\n%s\n", figure.c_str(), description.c_str());
  std::printf("=====================================================\n");
}

ReplayArgs parse_replay_args(int argc, const char* const* argv,
                             ReplayArgs defaults,
                             std::initializer_list<EnvKnob> knobs) {
  try {
    const CliFlags flags(argc, argv);
    flags.check_known(
        {"slo", "hours", "interval", "cold-seed", "shards", "faults",
         "fault-seed", "precision", "retrain", "retrain-seed", "json",
         "metrics"});
    defaults.slo_s = flags.get_double("slo", defaults.slo_s);
    defaults.hours = flags.get_double("hours", defaults.hours);
    defaults.control_interval_s =
        flags.get_double("interval", defaults.control_interval_s);
    defaults.cold_start_seed =
        static_cast<std::uint64_t>(flags.get_int_in_range(
            "cold-seed", static_cast<std::int64_t>(defaults.cold_start_seed),
            0));
    const std::int64_t shards =
        flags.get_int("shards", static_cast<std::int64_t>(defaults.shards));
    DEEPBAT_CHECK(shards >= 1, "replay args: --shards must be at least 1");
    defaults.shards = static_cast<std::size_t>(shards);
    defaults.fault_scenario = flags.get("faults", defaults.fault_scenario);
    defaults.fault_seed = static_cast<std::uint64_t>(flags.get_int_in_range(
        "fault-seed", static_cast<std::int64_t>(defaults.fault_seed), 0));
    const std::string precision =
        flags.get("precision", core::to_string(defaults.scoring_precision));
    const auto parsed = core::parse_scoring_precision(precision);
    DEEPBAT_CHECK(parsed.has_value(),
                  "replay args: --precision must be fp32 or fp16");
    defaults.scoring_precision = *parsed;
    defaults.retrain = flags.get_bool("retrain", defaults.retrain);
    defaults.retrain_seed = static_cast<std::uint64_t>(flags.get_int_in_range(
        "retrain-seed", static_cast<std::int64_t>(defaults.retrain_seed), 0));
    defaults.json_path = flags.get("json", defaults.json_path);
    defaults.metrics_path = flags.get("metrics", defaults.metrics_path);
    if (!defaults.fault_scenario.empty()) {
      // Validate eagerly so a typo fails with the scenario list at startup.
      (void)sim::fault_scenario(defaults.fault_scenario, defaults.fault_seed);
    }
    DEEPBAT_CHECK(defaults.slo_s > 0.0, "replay args: --slo must be positive");
    DEEPBAT_CHECK(defaults.control_interval_s > 0.0,
                  "replay args: --interval must be positive");
    for (const EnvKnob& knob : knobs) {
      if (const char* text = std::getenv(knob.name)) {
        *knob.value = parse_positive_int(text, knob.name, INT_MAX);
      }
    }
  } catch (const Error& e) {
    std::fprintf(stderr,
                 "%s\nusage: %s [--slo S] [--hours H] [--interval S] "
                 "[--cold-seed N] [--shards N] "
                 "[--faults calm|coldburst|flaky|throttled|chaos] "
                 "[--fault-seed N] [--precision fp32|fp16] "
                 "[--retrain] [--retrain-seed N] "
                 "[--json PATH] [--metrics PATH]\n",
                 e.what(), argc > 0 ? argv[0] : "bench");
    std::exit(2);
  }
  return defaults;
}

namespace {

void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

void json_table(std::ostream& os, const Table& table) {
  os << "{\"header\": [";
  for (std::size_t i = 0; i < table.header().size(); ++i) {
    if (i > 0) os << ", ";
    json_string(os, table.header()[i]);
  }
  os << "], \"rows\": [";
  for (std::size_t r = 0; r < table.data().size(); ++r) {
    if (r > 0) os << ", ";
    os << '[';
    const auto& row = table.data()[r];
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) os << ", ";
      json_string(os, row[i]);
    }
    os << ']';
  }
  os << "]}";
}

}  // namespace

void JsonReport::add(const std::string& key, const Table& table) {
  tables_.emplace_back(key, &table);
}

void JsonReport::add_scalar(const std::string& key, double value) {
  scalars_.emplace_back(key, value);
}

void JsonReport::add_run(const std::string& key, const sim::PlatformRun& run) {
  RunProvenance p;
  p.key = key;
  p.fault_stream = run.fault_stream;
  p.swaps.assign(run.swaps.begin(), run.swaps.end());
  runs_.push_back(std::move(p));
}

void JsonReport::set_metrics(const obs::MetricsSnapshot& snapshot) {
  metrics_json_ = obs::to_json(snapshot, obs::recent_spans());
}

void JsonReport::write(const std::string& path) const {
  if (path.empty()) return;
  // Assemble in memory and land atomically: a crash mid-report must never
  // leave a truncated BENCH_*.json for a downstream parser.
  std::ostringstream os;
  os << "{\"bench\": ";
  json_string(os, bench_);
  os << ",\n \"scalars\": {";
  for (std::size_t i = 0; i < scalars_.size(); ++i) {
    if (i > 0) os << ", ";
    json_string(os, scalars_[i].first);
    os << ": " << scalars_[i].second;
  }
  os << "},\n \"tables\": {";
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    if (i > 0) os << ",\n   ";
    json_string(os, tables_[i].first);
    os << ": ";
    json_table(os, *tables_[i].second);
  }
  os << "}";
  if (!runs_.empty()) {
    os << ",\n \"runs\": {";
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      if (i > 0) os << ",\n   ";
      const RunProvenance& p = runs_[i];
      json_string(os, p.key);
      os << ": {\"fault_stream\": " << p.fault_stream << ", \"swaps\": [";
      for (std::size_t s = 0; s < p.swaps.size(); ++s) {
        if (s > 0) os << ", ";
        os << "{\"time\": " << p.swaps[s].time
           << ", \"from_version\": " << p.swaps[s].from_version
           << ", \"to_version\": " << p.swaps[s].to_version << "}";
      }
      os << "]}";
    }
    os << "}";
  }
  if (!metrics_json_.empty()) {
    os << ",\n \"metrics\": " << metrics_json_;
  }
  os << "}\n";
  write_file_atomic(path, os.str());
  std::printf("[json] wrote %s\n", path.c_str());
}

void write_metrics_snapshot(const std::string& path) {
  if (!obs::dump_snapshot_json(path)) return;  // empty path: flag not given
  if (obs::enabled()) {
    std::printf("[metrics] wrote %s\n", path.c_str());
  } else {
    std::printf("[metrics] wrote %s (observability disabled; snapshot is "
                "empty — unset DEEPBAT_OBS to enable)\n",
                path.c_str());
  }
}

bool same_runs(const std::string& label, std::span<const sim::PlatformRun> a,
               std::span<const sim::PlatformRun> b) {
  const auto d = sim::first_divergence(a, b);
  if (d) {
    std::printf("%s first_divergence: %s\n", label.c_str(),
                sim::to_string(*d).c_str());
  }
  return !d;
}

}  // namespace deepbat::bench
