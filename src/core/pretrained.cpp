#include "core/pretrained.hpp"

#include <climits>
#include <cstdlib>

#include "common/cli.hpp"
#include "common/log.hpp"
#include "nn/serialize.hpp"

namespace deepbat::core {

PretrainedModel ensure_pretrained(const workload::Trace& trace,
                                  const lambda::ConfigGrid& grid,
                                  const lambda::LambdaModel& model,
                                  const PretrainSpec& spec) {
  PretrainedModel out;
  out.surrogate = std::make_unique<Surrogate>(spec.surrogate, grid);
  if (!spec.force_retrain && std::filesystem::exists(spec.cache_path)) {
    nn::load_module(spec.cache_path.string(), *out.surrogate);
    out.surrogate->set_training(false);
    out.loaded_from_cache = true;
    LOG_INFO("loaded pretrained surrogate from " << spec.cache_path);
    return out;
  }
  LOG_INFO("training surrogate (" << spec.train.epochs << " epochs, "
                                  << spec.dataset.samples << " samples) -> "
                                  << spec.cache_path);
  const nn::Dataset dataset =
      build_dataset(trace, grid, model, spec.dataset);
  out.train_result = train(*out.surrogate, dataset, spec.train);
  if (!spec.cache_path.empty()) {
    const auto dir = spec.cache_path.parent_path();
    if (!dir.empty()) std::filesystem::create_directories(dir);
    nn::save_module(spec.cache_path.string(), *out.surrogate);
  }
  return out;
}

PretrainSpec bench_spec(const std::filesystem::path& cache_dir) {
  PretrainSpec spec;
  spec.cache_path = cache_dir / "deepbat_surrogate.bin";
  // Budget scaled for a 2-core laptop; the paper's full recipe (100 epochs,
  // 0.05 % of the trace) is reproducible via the environment overrides.
  spec.surrogate.sequence_length = 128;  // paper's L=128 sensitivity point
  spec.dataset.sequence_length = 128;
  spec.dataset.label_arrivals = 512;  // smoother percentile labels
  spec.train.epochs = 24;
  spec.dataset.samples = 800;
  if (const char* e = std::getenv("DEEPBAT_TRAIN_EPOCHS")) {
    spec.train.epochs = static_cast<int>(
        parse_positive_int(e, "DEEPBAT_TRAIN_EPOCHS", INT_MAX));
  }
  if (const char* s = std::getenv("DEEPBAT_TRAIN_SAMPLES")) {
    spec.dataset.samples = static_cast<std::size_t>(
        parse_positive_int(s, "DEEPBAT_TRAIN_SAMPLES"));
  }
  return spec;
}

}  // namespace deepbat::core
