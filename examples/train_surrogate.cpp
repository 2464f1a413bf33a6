// Offline training walk-through (paper §III-D): build a labelled dataset
// from historical traffic, train the Transformer surrogate with the
// combined Huber+MAPE loss, watch the loss curve, evaluate per-output
// MAPE, fine-tune on an out-of-distribution workload, and save/reload the
// weights.
//
//   ./train_surrogate [--epochs 16] [--samples 500] [--seqlen 64]
//                     [--out /tmp/deepbat_weights.bin] [--seed 3]
#include <climits>
#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "core/deepbat.hpp"
#include "nn/serialize.hpp"

using namespace deepbat;

int main(int argc, char** argv) {
  int epochs = 0;
  std::size_t samples = 0;
  std::int64_t seqlen = 0;
  std::string out;
  std::uint64_t seed = 0;
  try {
    const CliFlags flags(argc, argv);
    flags.check_known({"epochs", "samples", "seqlen", "out", "seed"});
    epochs = static_cast<int>(flags.get_int_in_range("epochs", 16, 1, INT_MAX));
    samples =
        static_cast<std::size_t>(flags.get_int_in_range("samples", 500, 1));
    seqlen = flags.get_int_in_range("seqlen", 64, 1);
    out = flags.get("out", "/tmp/deepbat_weights.bin");
    seed = static_cast<std::uint64_t>(flags.get_int_in_range("seed", 3, 0));
  } catch (const Error& e) {
    std::fprintf(stderr,
                 "%s\nusage: %s [--epochs N] [--samples N] [--seqlen N] "
                 "[--out PATH] [--seed N]\n",
                 e.what(), argc > 0 ? argv[0] : "train_surrogate");
    return 2;
  }

  const lambda::LambdaModel model;
  const lambda::ConfigGrid grid = lambda::ConfigGrid::standard();

  // In-distribution data: Azure-like. OOD data: on-off MAP workload.
  const workload::Trace azure = workload::azure_like({.hours = 1.5}, seed);
  const workload::Trace ood = workload::synthetic_map({.hours = 0.5}, seed);

  core::DatasetBuilderOptions dopt;
  dopt.sequence_length = seqlen;
  dopt.samples = samples;
  dopt.seed = seed;
  std::printf("building dataset: %zu samples of (S[%lld], F, O)...\n",
              samples, static_cast<long long>(seqlen));
  const nn::Dataset train_set = core::build_dataset(azure, grid, model, dopt);
  auto ood_opt = dopt;
  ood_opt.samples = samples / 4;
  ood_opt.seed = seed + 1;
  const nn::Dataset ood_set = core::build_dataset(ood, grid, model, ood_opt);

  core::SurrogateConfig scfg;
  scfg.sequence_length = seqlen;
  core::Surrogate surrogate(scfg, grid);
  std::printf("surrogate: %lld parameters (2 encoder layers, d=16)\n",
              static_cast<long long>(surrogate.parameter_count()));

  core::TrainOptions topt;
  topt.epochs = epochs;
  topt.on_epoch = [](int e, double loss, double val_mape) {
    std::printf("  epoch %2d | combined loss %7.4f | val MAPE %6.2f%%\n", e,
                loss, val_mape);
  };
  const core::TrainResult result = core::train(surrogate, train_set, topt);
  std::printf("trained in %.1f s\n", result.seconds);

  // OOD evaluation before and after fine-tuning (§III-D).
  const double mape_before = core::evaluate_mape(surrogate, ood_set);
  const double gamma_before = core::estimate_gamma(surrogate, ood_set);
  core::fine_tune(surrogate, ood_set, /*epochs=*/8);
  const double mape_after = core::evaluate_mape(surrogate, ood_set);
  const double gamma_after = core::estimate_gamma(surrogate, ood_set);

  Table table({"metric", "pre-fine-tune", "post-fine-tune"});
  table.add_row({"OOD MAPE (%)", fmt(mape_before, 2), fmt(mape_after, 2)});
  table.add_row({"gamma (P95 rel. err.)", fmt(gamma_before, 3),
                 fmt(gamma_after, 3)});
  print_banner(std::cout, "fine-tuning on the OOD workload");
  table.print(std::cout);

  nn::save_module(out, surrogate);
  std::printf("\nweights saved to %s\n", out.c_str());

  // Reload into a fresh model and confirm predictions are identical.
  core::Surrogate reloaded(scfg, grid);
  nn::load_module(out, reloaded);
  reloaded.set_training(false);
  surrogate.set_training(false);
  std::vector<float> window(static_cast<std::size_t>(seqlen), 1.0F);
  const auto configs = grid.enumerate();
  const auto a = surrogate.predict_grid(window, configs);
  const auto b = reloaded.predict_grid(window, configs);
  double max_diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(a[i].p95() - b[i].p95()));
  }
  std::printf("reload check: max P95 prediction difference %.2e\n", max_diff);
  return 0;
}
