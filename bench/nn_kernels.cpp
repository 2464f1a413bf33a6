// Kernel regression harness for the neural-network hot path.
//
// Times the GEMM kernel, multi-head attention (one window at L = 64/256/512
// and the encoder's batch of 14 windows at L = 128), the training step
// (attention forward + backward and one surrogate Adam step at batch 8 of
// L = 128), the inference encoder composed vs fused (1 and 16 windows of
// L = 128), and the deployment-critical surrogate forward (predict_grid:
// encode one l=256 window, score the full config grid — the "0.73 s vs
// 40.83 s" fast side of §IV-F) in two modes:
//
//   seed       naive triple-loop GEMM + composed attention + heap tensors
//              (kernels::set_reference_mode(true), arena disabled)
//   optimized  blocked GEMM + fused attention + arena allocator
//
// and across thread counts, then emits machine-readable BENCH_kernels.json
// so successive PRs can track the perf trajectory. Run with --quick for a
// fast smoke pass, --json=PATH to redirect the report.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/fileio.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/surrogate.hpp"
#include "core/trainer.hpp"
#include "nn/arena.hpp"
#include "nn/attention.hpp"
#include "nn/kernels.hpp"
#include "nn/optim.hpp"
#include "nn/transformer.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

using namespace deepbat;
using namespace deepbat::nn;

namespace {

double now_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// Best-of-samples timing: calibrates an iteration count so one sample runs
/// >= min_sample_s, then reports the fastest per-iteration time in ns.
double time_ns(const std::function<void()>& fn, double min_sample_s,
               int samples) {
  fn();  // warm-up (and arena/scratch growth)
  std::int64_t iters = 1;
  for (;;) {
    const double t0 = now_s();
    for (std::int64_t i = 0; i < iters; ++i) fn();
    const double dt = now_s() - t0;
    if (dt >= min_sample_s || iters > (1LL << 30)) break;
    const double target = std::max(min_sample_s * 1.2, 1e-4);
    iters = std::max<std::int64_t>(
        iters * 2, static_cast<std::int64_t>(target / std::max(dt / iters, 1e-9)));
  }
  double best = 1e300;
  for (int s = 0; s < samples; ++s) {
    const double t0 = now_s();
    for (std::int64_t i = 0; i < iters; ++i) fn();
    const double dt = now_s() - t0;
    best = std::min(best, dt / static_cast<double>(iters));
  }
  return best * 1e9;
}

struct Result {
  std::string section;
  std::string name;
  std::string mode;
  int threads = 1;
  double ns_per_iter = 0.0;
  double gflops = -1.0;        // < 0: not applicable
  double configs_per_s = -1.0; // grid-scoring throughput; < 0: n/a
};

std::vector<Result> g_results;

/// ns_per_iter of a recorded result, or -1 if that cell was not run.
double find_ns(const std::string& section, const std::string& name,
               const std::string& mode, int threads) {
  for (const auto& r : g_results) {
    if (r.section == section && r.name == name && r.mode == mode &&
        r.threads == threads) {
      return r.ns_per_iter;
    }
  }
  return -1.0;
}

/// "fused_<prec>_r1" without operator+ chains (GCC 12's -Wrestrict false
/// positive, PR105329).
std::string fused_r1_name(const char* prec) {
  std::string name = "fused_";
  name += prec;
  name += "_r1";
  return name;
}

void set_threads(int t) {
#ifdef _OPENMP
  omp_set_num_threads(t);
#else
  (void)t;
#endif
}

void record(Result r) {
  std::printf("  %-10s %-28s %-9s t=%d  %12.0f ns/iter", r.section.c_str(),
              r.name.c_str(), r.mode.c_str(), r.threads, r.ns_per_iter);
  if (r.gflops >= 0) std::printf("  %7.2f GFLOP/s", r.gflops);
  if (r.configs_per_s >= 0) std::printf("  %10.0f configs/s", r.configs_per_s);
  std::printf("\n");
  g_results.push_back(std::move(r));
}

Tensor randn(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::randn(std::move(shape), rng, 0.5F);
}

struct GemmShape {
  std::int64_t m, k, n;
  bool trans_a, trans_b;
  const char* why;
};

void bench_gemm(const std::vector<int>& thread_counts, double min_sample_s,
                int samples) {
  // Shapes from the surrogate's real call sites (see DESIGN.md §Performance).
  const std::vector<GemmShape> shapes = {
      {256, 16, 16, false, false, "qkv projection, L=256"},
      {2048, 16, 16, false, false, "collapsed batch*L projection"},
      {256, 4, 256, false, true, "attention scores per head"},
      {256, 256, 4, false, false, "attention context per head"},
      {616, 16, 32, false, false, "grid head, ffn_hidden"},
      {616, 48, 64, false, false, "wider head (future-proofing)"},
      {16, 2048, 16, true, false, "weight gradient (training)"},
  };
  std::printf("[gemm]\n");
  for (const auto& s : shapes) {
    const std::int64_t an = s.m * s.k;
    const std::int64_t bn = s.k * s.n;
    const Tensor a = randn({an}, 11);
    const Tensor b = randn({bn}, 13);
    Tensor c({s.m * s.n});
    std::ostringstream name;
    name << "m" << s.m << "_k" << s.k << "_n" << s.n
         << (s.trans_a ? "_tA" : "") << (s.trans_b ? "_tB" : "");
    const double flops = 2.0 * static_cast<double>(s.m) * s.k * s.n;
    for (const char* mode : {"seed", "optimized"}) {
      kernels::set_reference_mode(std::strcmp(mode, "seed") == 0);
      for (int t : thread_counts) {
        set_threads(t);
        const double ns = time_ns(
            [&] {
              if (kernels::reference_mode()) {
                kernels::gemm_naive(a.data(), b.data(), c.data(), s.m, s.k,
                                    s.n, s.trans_a, s.trans_b, false);
              } else {
                kernels::gemm(a.data(), b.data(), c.data(), s.m, s.k, s.n,
                              s.trans_a, s.trans_b, false);
              }
            },
            min_sample_s, samples);
        record({"gemm", name.str(), mode, t, ns, flops / ns});
        if (kernels::reference_mode()) break;  // naive kernel is serial
      }
    }
  }
  kernels::set_reference_mode(false);
}

void bench_attention(const std::vector<int>& thread_counts,
                     double min_sample_s, int samples) {
  std::printf("[attention]\n");
  // One window at L = 64/256/512, plus the encoder's production shape: 14
  // windows of L = 128 per call, fleet_surrogate's ~13.8 windows per
  // shared encode.
  const struct {
    std::int64_t batch, l;
  } shapes[] = {{1, 64}, {1, 256}, {1, 512}, {14, 128}};
  for (const auto& shape : shapes) {
    std::string lname;
    if (shape.batch > 1) {
      lname += "B";
      lname += std::to_string(shape.batch);
      lname += "_";
    }
    lname += "L";
    lname += std::to_string(shape.l);
    Rng rng(7);
    MultiHeadAttention mha(16, 4, rng, 0.0F, 8);
    mha.set_training(false);
    Var x = make_leaf(randn({shape.batch, shape.l, 16}, 9), false);
    NoGradGuard no_grad;
    for (const char* mode : {"seed", "optimized"}) {
      kernels::set_reference_mode(std::strcmp(mode, "seed") == 0);
      arena::set_enabled(std::strcmp(mode, "optimized") == 0);
      for (int t : thread_counts) {
        set_threads(t);
        const double ns = time_ns(
            [&] {
              arena::Scope scope;
              volatile float sink = mha.forward(x, x, x)->value.data()[0];
              (void)sink;
            },
            min_sample_s, samples);
        record({"attention", lname, mode, t, ns, -1.0});
      }
    }
  }
  kernels::set_reference_mode(false);
  arena::set_enabled(true);
}

void bench_train_step(const std::vector<int>& thread_counts,
                      double min_sample_s, int samples) {
  // Informational (no gate key): the training step that offline pretrain
  // and every online retrain repeat, at the bench surrogate's shape (batch
  // 8 of L = 128 windows, dropout 0.1). mha_fwd_bwd_B8_L128 is one
  // attention forward + backward; surrogate_step_B8_L128 is forward, Eq. 9
  // loss, backward and one Adam step.
  std::printf("[train_step]\n");
  constexpr std::int64_t kBatch = 8;
  constexpr std::int64_t kLen = 128;
  Rng rng(7);
  MultiHeadAttention mha(16, 4, rng, 0.1F, 8);
  mha.set_training(true);
  const std::vector<Var> mha_params = mha.parameters();
  const Var x = make_leaf(randn({kBatch, kLen, 16}, 9), true);
  core::SurrogateConfig scfg;
  scfg.sequence_length = kLen;
  core::Surrogate model(scfg, lambda::ConfigGrid::standard());
  model.set_training(true);
  const Var seq = make_leaf(randn({kBatch, kLen, 1}, 10), false);
  const Var feats = make_leaf(randn({kBatch, scfg.feature_dim}, 11), false);
  const Var targets = make_leaf(randn({kBatch, scfg.output_dim}, 12), false);
  const core::TrainOptions topt;
  Adam adam(model.parameters(), topt.learning_rate);
  for (const char* mode : {"seed", "optimized"}) {
    kernels::set_reference_mode(std::strcmp(mode, "seed") == 0);
    for (int t : thread_counts) {
      set_threads(t);
      const double mha_ns = time_ns(
          [&] {
            x->zero_grad();
            zero_grad(mha_params);
            backward(sum_all(mha.forward(x, x, x)));
          },
          min_sample_s, samples);
      record({"train_step", "mha_fwd_bwd_B8_L128", mode, t, mha_ns, -1.0});
      const double step_ns = time_ns(
          [&] {
            adam.zero_grad();
            const Var pred = model.forward(seq, feats);
            backward(combined_loss(pred, targets, topt.alpha,
                                   topt.huber_delta));
            adam.step();
          },
          min_sample_s, samples);
      record({"train_step", "surrogate_step_B8_L128", mode, t, step_ns, -1.0});
    }
  }
  kernels::set_reference_mode(false);
}

void bench_encoder_forward(double min_sample_s, int samples) {
  // Informational (no gate key): the sequence branch up to pooling (gap
  // embedding, positions, two encoder layers, mean pooling) at the bench
  // surrogate's L = 128, one thread. "composed" is the module chain without
  // a gradient tape, the path encode_sequence took before the fused
  // kernel; "fused" is kernels::fused_encoder on the same weights, with
  // bit-identical output. B16 is about the windows of one shared encode in
  // perfbench's fleet_surrogate.
  std::printf("[encoder_forward] L=128, 1 thread\n");
  constexpr std::int64_t kLen = 128;
  TransformerConfig cfg;
  cfg.max_len = kLen;
  Rng rng(21);
  Linear embed(1, cfg.model_dim, rng);
  PositionalEncoding pos(cfg.model_dim, cfg.max_len);
  TransformerEncoder encoder(cfg, rng, 22);
  encoder.set_training(false);
  std::vector<kernels::EncoderLayerWeights> layers;
  const kernels::EncoderWeights weights =
      fused_encoder_weights(embed, pos, encoder, layers);
  set_threads(1);
  NoGradGuard no_grad;
  for (const std::int64_t batch : {1, 16}) {
    const Tensor seq = randn({batch, kLen, 1}, 23);
    const Var x = make_leaf(seq, false);
    std::vector<float> pooled(static_cast<std::size_t>(batch * cfg.model_dim));
    std::string shape = "B";  // += rather than operator+ chains (PR105329)
    shape += std::to_string(batch);
    shape += "_L128";
    const double composed_ns = time_ns(
        [&] {
          arena::Scope scope;
          volatile float sink =
              mean_axis1(encoder.forward(pos.forward(embed.forward(x))))
                  ->value.data()[0];
          (void)sink;
        },
        min_sample_s, samples);
    record({"encoder", std::string("composed_").append(shape), "optimized", 1,
            composed_ns, -1.0});
    const double fused_ns = time_ns(
        [&] {
          kernels::fused_encoder(seq.data(), batch, kLen, weights,
                                 pooled.data());
          volatile float sink = pooled[0];
          (void)sink;
        },
        min_sample_s, samples);
    record({"encoder", std::string("fused_").append(shape), "optimized", 1,
            fused_ns, -1.0});
    std::printf("  encoder forward %s: composed %.1f us -> fused %.1f us per "
                "window (%.2fx)\n",
                shape.c_str(),
                composed_ns / 1e3 / static_cast<double>(batch),
                fused_ns / 1e3 / static_cast<double>(batch),
                composed_ns / fused_ns);
  }
}

double bench_surrogate(const std::vector<int>& thread_counts,
                       double min_sample_s, int samples, double* seed_1t,
                       double* opt_1t) {
  // The acceptance-criterion benchmark: l=256 window, full standard grid.
  std::printf("[surrogate_forward] l=256, full config grid\n");
  core::SurrogateConfig scfg;
  scfg.sequence_length = 256;
  core::Surrogate model(scfg, lambda::ConfigGrid::standard());
  model.set_training(false);
  std::vector<float> window(256, 1.0F);
  const auto configs = lambda::ConfigGrid::standard().enumerate();
  *seed_1t = 0.0;
  *opt_1t = 0.0;
  for (const char* mode : {"seed", "optimized"}) {
    kernels::set_reference_mode(std::strcmp(mode, "seed") == 0);
    arena::set_enabled(std::strcmp(mode, "optimized") == 0);
    for (int t : thread_counts) {
      set_threads(t);
      const double ns = time_ns(
          [&] {
            volatile double sink =
                model.predict_grid(window, configs).front().cost_usd_per_request;
            (void)sink;
          },
          min_sample_s, samples);
      record({"surrogate", "predict_grid_l256", mode, t, ns, -1.0});
      if (t == 1) {
        (std::strcmp(mode, "seed") == 0 ? *seed_1t : *opt_1t) = ns;
      }
    }
  }
  kernels::set_reference_mode(false);
  arena::set_enabled(true);
  return *opt_1t > 0 ? *seed_1t / *opt_1t : 0.0;
}

void bench_grid_scoring(const std::vector<int>& thread_counts,
                        double min_sample_s, int samples) {
  // The Policy-side hot path in isolation (DESIGN.md §12): one already-
  // encoded E_1 row scored against the full standard grid. "legacy" is the
  // seed's per-tick recipe — broadcast E_1 over the grid, re-encode the
  // config features, run the composed autograd head — and "fused" is the
  // GridScoringCache pass at each precision, solo (r1) and batched across
  // eight tenants of a tick group (r8); fp32 also at r16, about the rows per
  // call of perfbench's fleet_surrogate (informational, not gated).
  std::printf("[grid_scoring] standard grid, precision sweep\n");
  core::SurrogateConfig scfg;
  scfg.sequence_length = 256;
  core::Surrogate model(scfg, lambda::ConfigGrid::standard());
  model.set_training(false);
  const auto configs = lambda::ConfigGrid::standard().enumerate();
  const auto grid_n = static_cast<std::int64_t>(configs.size());
  const std::int64_t d = scfg.model_dim;
  const std::int64_t f = scfg.feature_dim;
  const std::int64_t o = scfg.output_dim;

  // Encode one window outside the timed region (encoding is the other
  // stage of the tick; its cost is covered by [surrogate_forward]).
  Tensor seq({1, scfg.sequence_length, 1});
  for (std::int64_t i = 0; i < scfg.sequence_length; ++i) {
    seq.data()[i] = 1.0F + 0.1F * static_cast<float>(i % 7);
  }
  const Tensor e1t = model.encode_sequence(seq);
  const std::vector<float> e1(e1t.data(), e1t.data() + d);

  // legacy: per-tick broadcast + feature re-encode + composed head.
  {
    const double ns = time_ns(
        [&] {
          Tensor e1b({grid_n, d});
          for (std::int64_t r = 0; r < grid_n; ++r) {
            std::copy(e1.begin(), e1.end(), e1b.data() + r * d);
          }
          Tensor feats({grid_n, f});
          for (std::int64_t r = 0; r < grid_n; ++r) {
            const auto enc =
                core::encode_features(configs[static_cast<std::size_t>(r)]);
            std::copy(enc.begin(), enc.end(), feats.data() + r * f);
          }
          volatile float sink =
              model.predict_with_features(e1b, feats).data()[0];
          (void)sink;
        },
        min_sample_s, samples);
    record({"grid_scoring", "legacy_r1", "seed", 1, ns, -1.0,
            1e9 * static_cast<double>(grid_n) / ns});
  }

  // fused: GridScoringCache at fp32/fp16, r1 and r8 (+ r16 for fp32).
  for (const core::ScoringPrecision precision :
       {core::ScoringPrecision::kFp32, core::ScoringPrecision::kFp16}) {
    const auto cache = model.make_scoring_cache(configs, precision);
    std::vector<std::size_t> row_counts = {1, 8};
    if (precision == core::ScoringPrecision::kFp32) row_counts.push_back(16);
    for (const std::size_t rows : row_counts) {
      std::vector<float> e1_rows;
      for (std::size_t r = 0; r < rows; ++r) {
        e1_rows.insert(e1_rows.end(), e1.begin(), e1.end());
      }
      std::vector<float> out(rows * static_cast<std::size_t>(grid_n * o));
      const std::string name = std::string("fused_") +
                               core::to_string(precision) + "_r" +
                               std::to_string(rows);
      for (int t : thread_counts) {
        set_threads(t);
        const double ns = time_ns(
            [&] {
              model.predict_grid_from_e1_batch(e1_rows, rows, cache, out);
              volatile float sink = out[0];
              (void)sink;
            },
            min_sample_s, samples);
        record({"grid_scoring", name, "optimized", t, ns, -1.0,
                1e9 * static_cast<double>(rows) * static_cast<double>(grid_n) /
                    ns});
      }
    }
  }
}

void write_json(const std::string& path, double speedup, double seed_1t,
                double opt_1t) {
  std::ostringstream out;
  out << "{\n  \"schema\": \"deepbat.bench.kernels.v1\",\n";
  out << "  \"hardware_threads\": " << hardware_threads() << ",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < g_results.size(); ++i) {
    const auto& r = g_results[i];
    out << "    {\"section\": \"" << r.section << "\", \"name\": \"" << r.name
        << "\", \"mode\": \"" << r.mode << "\", \"threads\": " << r.threads
        << ", \"ns_per_iter\": " << r.ns_per_iter;
    if (r.gflops >= 0) out << ", \"gflops\": " << r.gflops;
    if (r.configs_per_s >= 0) out << ", \"configs_per_s\": " << r.configs_per_s;
    out << "}" << (i + 1 < g_results.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"summary\": {\n";
  // Host-portable ratios (same-run seed vs optimized), which is what the
  // --gate compares against the committed baseline: absolute ns from a
  // different machine would be meaningless.
  for (const char* shape : {"m256_k256_n4", "m16_k2048_n16_tA"}) {
    const double seed_ns = find_ns("gemm", shape, "seed", 1);
    const double opt_ns = find_ns("gemm", shape, "optimized", 1);
    out << "    \"gemm_speedup_" << shape << "_1t\": "
        << (seed_ns > 0 && opt_ns > 0 ? seed_ns / opt_ns : 0.0) << ",\n";
  }
  {
    const double legacy_ns = find_ns("grid_scoring", "legacy_r1", "seed", 1);
    for (const char* prec : {"fp32", "fp16"}) {
      const double fused_ns =
          find_ns("grid_scoring", fused_r1_name(prec), "optimized", 1);
      out << "    \"grid_scoring_fused_" << prec << "_speedup_1t\": "
          << (legacy_ns > 0 && fused_ns > 0 ? legacy_ns / fused_ns : 0.0)
          << ",\n";
    }
  }
  out << "    \"surrogate_forward_seed_ns_1t\": " << seed_1t << ",\n";
  out << "    \"surrogate_forward_optimized_ns_1t\": " << opt_1t << ",\n";
  out << "    \"surrogate_forward_speedup_1t\": " << speedup << "\n";
  out << "  }\n}\n";
  write_file_atomic(path, out.str());
}

/// Pull "key": <number> out of a baseline JSON (the files this bench
/// writes; a full parser would be overkill for three scalar keys).
double json_scalar(const std::string& text, const std::string& key) {
  const auto pos = text.find("\"" + key + "\":");
  if (pos == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + pos + key.size() + 3, nullptr);
}

/// CI smoke gate: named tall-skinny shapes must beat the seed kernel and
/// never lose at 2 threads, and the same-run speedup ratios must stay
/// within 10% of the committed baseline's. Returns the number of failures.
int run_gate(const std::string& baseline_path) {
  int failures = 0;
  const auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "[gate] FAIL: %s\n", what.c_str());
    ++failures;
  };
  for (const char* shape : {"m256_k256_n4", "m16_k2048_n16_tA"}) {
    const double seed_ns = find_ns("gemm", shape, "seed", 1);
    const double opt1 = find_ns("gemm", shape, "optimized", 1);
    const double opt2 = find_ns("gemm", shape, "optimized", 2);
    if (seed_ns > 0 && opt1 > 0 && opt1 >= seed_ns) {
      fail(std::string(shape) + ": optimized 1t (" + std::to_string(opt1) +
           " ns) does not beat seed (" + std::to_string(seed_ns) + " ns)");
    }
    // 10% timing-noise allowance; the real 2t < 1t regressions this caught
    // were 2x-3x, not marginal.
    if (opt1 > 0 && opt2 > 0 && opt2 > opt1 * 1.10) {
      fail(std::string(shape) + ": 2 threads (" + std::to_string(opt2) +
           " ns) lose to 1 thread (" + std::to_string(opt1) + " ns)");
    }
  }
  for (const char* prec : {"fp32", "fp16"}) {
    const std::string name = fused_r1_name(prec);
    const double f1 = find_ns("grid_scoring", name, "optimized", 1);
    const double f2 = find_ns("grid_scoring", name, "optimized", 2);
    if (f1 > 0 && f2 > 0 && f2 > f1 * 1.10) {
      fail("grid_scoring " + name + ": 2 threads lose to 1 thread");
    }
  }
  std::ifstream in(baseline_path);
  if (!in) {
    fail("cannot read baseline " + baseline_path);
    return failures;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string baseline = ss.str();
  const auto check_ratio = [&](const std::string& key, double current) {
    const double base = json_scalar(baseline, key);
    if (base <= 0) {
      fail("baseline missing " + key);
      return;
    }
    if (current < base * 0.90) {
      fail(key + ": " + std::to_string(current) + " regressed >10% vs baseline " +
           std::to_string(base));
    }
  };
  for (const char* shape : {"m256_k256_n4", "m16_k2048_n16_tA"}) {
    const double seed_ns = find_ns("gemm", shape, "seed", 1);
    const double opt_ns = find_ns("gemm", shape, "optimized", 1);
    check_ratio("gemm_speedup_" + std::string(shape) + "_1t",
                seed_ns > 0 && opt_ns > 0 ? seed_ns / opt_ns : 0.0);
  }
  {
    const double legacy_ns = find_ns("grid_scoring", "legacy_r1", "seed", 1);
    for (const char* prec : {"fp32", "fp16"}) {
      const double fused_ns =
          find_ns("grid_scoring", fused_r1_name(prec), "optimized", 1);
      std::string key = "grid_scoring_fused_";
      key += prec;
      key += "_speedup_1t";
      check_ratio(key,
                  legacy_ns > 0 && fused_ns > 0 ? legacy_ns / fused_ns : 0.0);
    }
  }
  if (failures == 0) std::printf("[gate] all checks passed\n");
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_kernels.json";
  std::string gate_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--gate=", 0) == 0) {
      gate_path = arg.substr(7);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--json=PATH] [--gate=BASELINE]\n",
                   argv[0]);
      return 2;
    }
  }
  const double min_sample_s = quick ? 0.02 : 0.1;
  const int samples = quick ? 2 : 4;

  // Always report t=2 (even on one core) so the scaling machinery and the
  // thread-count-independence of the kernels get exercised everywhere.
  std::vector<int> thread_counts{1};
  const int hw = hardware_threads();
#ifdef _OPENMP
  thread_counts.push_back(2);
  if (hw >= 4) thread_counts.push_back(hw);
#endif

  std::printf("nn_kernels regression harness (hardware threads: %d)\n", hw);
  bench_gemm(thread_counts, min_sample_s, samples);
  bench_attention(thread_counts, min_sample_s, samples);
  bench_grid_scoring(thread_counts, min_sample_s, samples);
  bench_train_step(thread_counts, min_sample_s, samples);
  bench_encoder_forward(min_sample_s, samples);
  double seed_1t = 0.0;
  double opt_1t = 0.0;
  const double speedup =
      bench_surrogate(thread_counts, min_sample_s, samples, &seed_1t, &opt_1t);
  std::printf("\nsurrogate forward (l=256, full grid, 1 thread): "
              "seed %.2f ms -> optimized %.2f ms  (%.2fx)\n",
              seed_1t / 1e6, opt_1t / 1e6, speedup);
  const double step_seed =
      find_ns("train_step", "surrogate_step_B8_L128", "seed", 1);
  const double step_opt =
      find_ns("train_step", "surrogate_step_B8_L128", "optimized", 1);
  std::printf("surrogate training step (B8_L128, 1 thread): "
              "seed %.2f ms -> optimized %.2f ms  (%.2fx)\n",
              step_seed / 1e6, step_opt / 1e6, step_seed / step_opt);
  write_json(json_path, speedup, seed_1t, opt_1t);
  std::printf("wrote %s\n", json_path.c_str());
  if (!gate_path.empty()) {
    return run_gate(gate_path) == 0 ? 0 : 1;
  }
  return 0;
}
