// Golden-value and determinism tests for the optimized kernel layer
// (src/nn/kernels) plus the arena allocator it feeds. The naive seed
// kernels and the composed attention graph are the ground truth: the
// optimized paths, the fused attention backward included, must match them
// within 1e-4 relative tolerance and be bit-identical across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/surrogate.hpp"
#include "gradcheck.hpp"
#include "nn/arena.hpp"
#include "nn/attention.hpp"
#include "nn/autograd.hpp"
#include "nn/kernels.hpp"
#include "nn/layers.hpp"
#include "nn/ops.hpp"
#include "nn/tensor.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace deepbat::nn {
namespace {

constexpr float kRelTol = 1e-4F;
constexpr float kAbsTol = 1e-6F;

void expect_allclose(const float* a, const float* b, std::int64_t n,
                     float rel_tol = kRelTol, float abs_tol = kAbsTol) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float bound =
        abs_tol + rel_tol * std::max(std::abs(a[i]), std::abs(b[i]));
    ASSERT_LE(std::abs(a[i] - b[i]), bound)
        << "mismatch at " << i << ": " << a[i] << " vs " << b[i];
  }
}

std::vector<float> random_vec(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.normal(0.0, 0.7));
  return v;
}

/// Restores reference mode and the arena kill switch even if a test fails.
struct ModeGuard {
  ~ModeGuard() {
    kernels::set_reference_mode(false);
    arena::set_enabled(true);
  }
};

// ---------------------------------------------------------------------------
// GEMM golden values
// ---------------------------------------------------------------------------

TEST(Kernels, GemmMatchesNaiveAcrossShapes) {
  // Odd, rectangular, and tile-edge shapes: exercise the kMr/kNr edge
  // micro-kernel, the packing paths, and the row-block split.
  const struct {
    std::int64_t m, k, n;
  } shapes[] = {{1, 1, 1},   {3, 5, 7},     {4, 16, 16},  {5, 17, 16},
                {16, 4, 16}, {17, 9, 33},   {64, 16, 16}, {65, 31, 47},
                {128, 3, 5}, {256, 4, 256}, {130, 64, 20},
                // Skinny-output kernel shapes (n <= kSmallNMax, k >=
                // kSmallNMinK), including row-tile and block edges.
                {256, 256, 4}, {16, 2048, 16}, {65, 128, 8}, {33, 100, 5},
                {1, 64, 1}, {3, 200, 7}};
  for (const auto& s : shapes) {
    const auto a = random_vec(s.m * s.k, 1);
    const auto b = random_vec(s.k * s.n, 2);
    for (const bool trans_a : {false, true}) {
      for (const bool trans_b : {false, true}) {
        for (const bool accumulate : {false, true}) {
          auto c_ref = random_vec(s.m * s.n, 3);
          auto c_opt = c_ref;
          kernels::gemm_naive(a.data(), b.data(), c_ref.data(), s.m, s.k,
                              s.n, trans_a, trans_b, accumulate);
          kernels::gemm(a.data(), b.data(), c_opt.data(), s.m, s.k, s.n,
                        trans_a, trans_b, accumulate);
          SCOPED_TRACE(::testing::Message()
                       << "m=" << s.m << " k=" << s.k << " n=" << s.n
                       << " tA=" << trans_a << " tB=" << trans_b
                       << " acc=" << accumulate);
          // Rounding error accumulates with the reduction length, and a
          // near-cancelled output can be far smaller than its k terms, so
          // the absolute floor scales with k.
          expect_allclose(c_ref.data(), c_opt.data(), s.m * s.n, kRelTol,
                          kAbsTol * static_cast<float>(s.k));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// fp16-weight GEMM golden values (the fused grid-scoring hot path)
// ---------------------------------------------------------------------------

TEST(Kernels, GemmF16wMatchesFp32OnRoundedWeights) {
  // gemm_f16w == gemm() run on the fp16-rounded weight panel, exactly.
  Rng rng(22);
  const std::int64_t m = 9;
  const std::int64_t k = 40;
  const std::int64_t n = 12;
  const auto a = random_vec(m * k, 31);
  const auto w = random_vec(k * n, 32);
  std::vector<std::uint16_t> half(w.size());
  std::vector<float> rounded(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    half[i] = kernels::fp32_to_fp16(w[i]);
    rounded[i] = kernels::fp16_to_fp32(half[i]);
  }
  std::vector<float> c_half(static_cast<std::size_t>(m * n), 0.25F);
  std::vector<float> c_ref = c_half;
  kernels::gemm_f16w(a.data(), half.data(), c_half.data(), m, k, n, true);
  kernels::gemm(a.data(), rounded.data(), c_ref.data(), m, k, n, false, false,
                true);
  for (std::size_t i = 0; i < c_half.size(); ++i) {
    EXPECT_EQ(c_half[i], c_ref[i]) << "element " << i;
  }
}

TEST(Kernels, Fp16ConversionRoundTrips) {
  // Exactly-representable values round-trip bitwise; rounding is to
  // nearest-even; overflow saturates to inf; tiny values hit subnormals.
  for (const float v : {0.0F, -0.0F, 1.0F, -2.0F, 0.5F, 65504.0F, -65504.0F}) {
    EXPECT_EQ(kernels::fp16_to_fp32(kernels::fp32_to_fp16(v)), v);
  }
  EXPECT_TRUE(std::isinf(kernels::fp16_to_fp32(kernels::fp32_to_fp16(1e6F))));
  EXPECT_TRUE(std::isnan(kernels::fp16_to_fp32(
      kernels::fp32_to_fp16(std::numeric_limits<float>::quiet_NaN()))));
  // 2^-24 is the smallest positive subnormal half.
  EXPECT_EQ(kernels::fp16_to_fp32(kernels::fp32_to_fp16(5.9604645e-8F)),
            5.9604645e-8F);
  // Nearest-even: 1 + 2^-11 rounds to 1.0 (mantissa tie toward even).
  EXPECT_EQ(kernels::fp16_to_fp32(kernels::fp32_to_fp16(1.00048828125F)), 1.0F);
}

TEST(Kernels, GemmHandlesEmptyInnerDimension) {
  auto c_ref = random_vec(12, 4);
  auto c_opt = c_ref;
  kernels::gemm_naive(nullptr, nullptr, c_ref.data(), 3, 0, 4, false, false,
                      false);
  kernels::gemm(nullptr, nullptr, c_opt.data(), 3, 0, 4, false, false, false);
  expect_allclose(c_ref.data(), c_opt.data(), 12);
  for (float x : c_opt) EXPECT_EQ(x, 0.0F);

  // accumulate=true with k=0 must leave C untouched.
  auto c_keep = random_vec(12, 5);
  auto expected = c_keep;
  kernels::gemm(nullptr, nullptr, c_keep.data(), 3, 0, 4, false, false, true);
  EXPECT_EQ(std::memcmp(c_keep.data(), expected.data(), sizeof(float) * 12),
            0);
}

TEST(Kernels, ReferenceModeRoutesGemmToNaive) {
  ModeGuard guard;
  const auto a = random_vec(65 * 31, 6);
  const auto b = random_vec(31 * 47, 7);
  std::vector<float> c_naive(65 * 47), c_routed(65 * 47);
  kernels::gemm_naive(a.data(), b.data(), c_naive.data(), 65, 31, 47, false,
                      false, false);
  kernels::set_reference_mode(true);
  kernels::gemm(a.data(), b.data(), c_routed.data(), 65, 31, 47, false,
                false, false);
  EXPECT_EQ(std::memcmp(c_naive.data(), c_routed.data(),
                        sizeof(float) * c_naive.size()),
            0);
}

// ---------------------------------------------------------------------------
// Fused attention golden values
// ---------------------------------------------------------------------------

/// Naive scalar SDPA used as ground truth for the fused kernel.
void sdpa_reference(const float* q, const float* k, const float* v,
                    float* out, std::int64_t batch, std::int64_t lq,
                    std::int64_t lk, std::int64_t heads, std::int64_t dim,
                    float scale, const float* mask) {
  const std::int64_t dh = dim / heads;
  for (std::int64_t b = 0; b < batch; ++b) {
    for (std::int64_t h = 0; h < heads; ++h) {
      for (std::int64_t i = 0; i < lq; ++i) {
        std::vector<double> scores(static_cast<std::size_t>(lk));
        double mx = -std::numeric_limits<double>::infinity();
        for (std::int64_t j = 0; j < lk; ++j) {
          double s = 0.0;
          for (std::int64_t d = 0; d < dh; ++d) {
            s += static_cast<double>(q[(b * lq + i) * dim + h * dh + d]) *
                 static_cast<double>(k[(b * lk + j) * dim + h * dh + d]);
          }
          s *= scale;
          if (mask) s += mask[i * lk + j];
          scores[static_cast<std::size_t>(j)] = s;
          mx = std::max(mx, s);
        }
        double sum = 0.0;
        for (auto& s : scores) {
          s = std::exp(s - mx);
          sum += s;
        }
        for (std::int64_t d = 0; d < dh; ++d) {
          double acc = 0.0;
          for (std::int64_t j = 0; j < lk; ++j) {
            acc += scores[static_cast<std::size_t>(j)] *
                   static_cast<double>(v[(b * lk + j) * dim + h * dh + d]);
          }
          out[(b * lq + i) * dim + h * dh + d] =
              static_cast<float>(acc / sum);
        }
      }
    }
  }
}

/// Causal-style additive mask: -inf above the diagonal, 0 elsewhere.
std::vector<float> causal_mask(std::int64_t lq, std::int64_t lk) {
  std::vector<float> mask(static_cast<std::size_t>(lq * lk), 0.0F);
  for (std::int64_t i = 0; i < lq; ++i) {
    for (std::int64_t j = i + 1; j < lk; ++j) {
      mask[static_cast<std::size_t>(i * lk + j)] =
          -std::numeric_limits<float>::infinity();
    }
  }
  return mask;
}

TEST(Kernels, FusedSdpaMatchesReference) {
  struct Case {
    std::int64_t batch, lq, lk, heads, dim;
    bool masked;
  };
  std::vector<Case> cases = {{1, 8, 8, 2, 8, false},  {2, 33, 33, 4, 16, false},
                             {1, 37, 21, 4, 16, false}, {1, 16, 16, 1, 4, true},
                             {2, 40, 40, 4, 16, true},  {1, 1, 5, 2, 8, false}};
  // The kernel works on blocks of 16 query rows and 16 interleaved key
  // partials: cross both block edges, with head widths below and at 16.
  for (const std::int64_t lq : {15, 17, 33}) {
    for (const std::int64_t lk : {1, 17, 100}) {
      for (const std::int64_t dh : {8, 16}) {
        cases.push_back({2, lq, lk, 2, 2 * dh, false});
      }
    }
  }
  cases.push_back({2, 17, 17, 2, 32, true});
  for (const auto& c : cases) {
    const auto q = random_vec(c.batch * c.lq * c.dim, 11);
    const auto k = random_vec(c.batch * c.lk * c.dim, 12);
    const auto v = random_vec(c.batch * c.lk * c.dim, 13);
    const std::vector<float> mask =
        c.masked ? causal_mask(c.lq, c.lk) : std::vector<float>{};
    const float scale =
        1.0F / std::sqrt(static_cast<float>(c.dim / c.heads));
    std::vector<float> out_ref(static_cast<std::size_t>(c.batch * c.lq * c.dim));
    std::vector<float> out_fused(out_ref.size());
    sdpa_reference(q.data(), k.data(), v.data(), out_ref.data(), c.batch,
                   c.lq, c.lk, c.heads, c.dim, scale,
                   c.masked ? mask.data() : nullptr);
    kernels::fused_sdpa(q.data(), k.data(), v.data(), out_fused.data(),
                        c.batch, c.lq, c.lk, c.heads, c.dim, scale,
                        c.masked ? mask.data() : nullptr);
    SCOPED_TRACE(::testing::Message() << "B=" << c.batch << " lq=" << c.lq
                                    << " lk=" << c.lk << " H=" << c.heads
                                    << " masked=" << c.masked);
    expect_allclose(out_ref.data(), out_fused.data(),
                    static_cast<std::int64_t>(out_ref.size()));
  }
}

TEST(Kernels, FusedSdpaRowsAreIndependent) {
  // Each query row's output is a function of that row alone: any lq must
  // give the bits of an lq = 1 call per row against the same K/V (and the
  // row's mask row). Batched-equals-solo replays rely on this.
  const std::int64_t B = 2, H = 4, D = 16;
  for (const std::int64_t lk : {16, 37}) {
    for (const std::int64_t lq : {1, 15, 16, 17, 40}) {
      for (const bool masked : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "lq=" << lq << " lk=" << lk << " masked=" << masked);
        const auto q = random_vec(B * lq * D, 51);
        const auto k = random_vec(B * lk * D, 52);
        const auto v = random_vec(B * lk * D, 53);
        const std::vector<float> mask =
            masked ? causal_mask(lq, lk) : std::vector<float>{};
        std::vector<float> out(static_cast<std::size_t>(B * lq * D));
        kernels::fused_sdpa(q.data(), k.data(), v.data(), out.data(), B, lq,
                            lk, H, D, 0.5F, masked ? mask.data() : nullptr);
        for (std::int64_t i = 0; i < lq; ++i) {
          std::vector<float> qi(static_cast<std::size_t>(B * D));
          for (std::int64_t b = 0; b < B; ++b) {
            std::memcpy(qi.data() + b * D, q.data() + (b * lq + i) * D,
                        sizeof(float) * D);
          }
          std::vector<float> oi(qi.size());
          kernels::fused_sdpa(qi.data(), k.data(), v.data(), oi.data(), B, 1,
                              lk, H, D, 0.5F,
                              masked ? mask.data() + i * lk : nullptr);
          for (std::int64_t b = 0; b < B; ++b) {
            ASSERT_EQ(std::memcmp(oi.data() + b * D,
                                  out.data() + (b * lq + i) * D,
                                  sizeof(float) * D),
                      0)
                << "row " << i << " batch " << b;
          }
        }
      }
    }
  }
}

TEST(Kernels, FusedAttentionMatchesComposedPath) {
  ModeGuard guard;
  Rng rng(21);
  MultiHeadAttention mha(16, 4, rng, 0.0F, 99);
  mha.set_training(false);
  const Var x = make_leaf(Tensor::randn({2, 33, 16}, rng, 0.5F), false);
  NoGradGuard no_grad;

  // Reference mode forces the composed split-heads/softmax path.
  kernels::set_reference_mode(true);
  const Tensor composed = mha.forward(x, x, x)->value.clone();
  kernels::set_reference_mode(false);
  const Tensor fused = mha.forward(x, x, x)->value.clone();

  ASSERT_EQ(composed.numel(), fused.numel());
  expect_allclose(composed.data(), fused.data(), composed.numel());
}

TEST(Kernels, FusedAttentionMatchesComposedPathWithMask) {
  ModeGuard guard;
  Rng rng(22);
  MultiHeadAttention mha(16, 4, rng, 0.0F, 99);
  mha.set_training(false);
  const std::int64_t L = 19;
  const Var x = make_leaf(Tensor::randn({1, L, 16}, rng, 0.5F), false);
  Tensor mask({L, L});
  for (std::int64_t i = 0; i < L; ++i) {
    for (std::int64_t j = i + 1; j < L; ++j) {
      mask.at(i, j) = -std::numeric_limits<float>::infinity();
    }
  }
  const Var mask_var = make_leaf(std::move(mask), false);
  NoGradGuard no_grad;

  kernels::set_reference_mode(true);
  const Tensor composed = mha.forward(x, x, x, mask_var)->value.clone();
  kernels::set_reference_mode(false);
  const Tensor fused = mha.forward(x, x, x, mask_var)->value.clone();
  expect_allclose(composed.data(), fused.data(), composed.numel());
}

// ---------------------------------------------------------------------------
// Fused attention training step (forward + recompute backward)
// ---------------------------------------------------------------------------

/// -inf where key j > query i * lk / lq, so every row keeps key 0 and
/// masked and unmasked keys mix for any (lq, lk).
Tensor staircase_mask(std::int64_t lq, std::int64_t lk) {
  Tensor mask({lq, lk});
  for (std::int64_t i = 0; i < lq; ++i) {
    for (std::int64_t j = 0; j < lk; ++j) {
      if (j * lq > i * lk) {
        mask.at(i, j) = -std::numeric_limits<float>::infinity();
      }
    }
  }
  return mask;
}

/// True if a node named `op` is reachable from `root`.
bool graph_has_op(const Var& root, const std::string& op) {
  std::vector<const Node*> stack{root.get()};
  std::vector<const Node*> seen;
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    if (std::find(seen.begin(), seen.end(), n) != seen.end()) continue;
    seen.push_back(n);
    if (n->op_name == op) return true;
    for (const auto& p : n->parents) stack.push_back(p.get());
  }
  return false;
}

struct TrainCase {
  std::int64_t lq, lk;
  bool masked;
};

// Lq != Lk with L in {1, 17, 128}, masked and unmasked.
const TrainCase kTrainCases[] = {{1, 17, false},   {17, 1, false},
                                 {17, 128, false}, {128, 17, false},
                                 {17, 128, true},  {128, 17, true}};

TEST(Kernels, FusedTrainGradcheck) {
  // Central differences against the fused backward, through the query,
  // key and value inputs of a training-mode MHA at p = 0.
  for (const auto& c : kTrainCases) {
    SCOPED_TRACE(::testing::Message() << "lq=" << c.lq << " lk=" << c.lk
                                    << " masked=" << c.masked);
    Rng rng(61);
    MultiHeadAttention mha(16, 4, rng, 0.0F, 5);
    mha.set_training(true);
    const Tensor weights = Tensor::randn({1, c.lq, 16}, rng, 1.0F);
    const Var mask =
        c.masked ? make_leaf(staircase_mask(c.lq, c.lk), false) : nullptr;
    bool fused = false;
    testing::expect_gradients_match(
        {Tensor::randn({1, c.lq, 16}, rng, 0.5F),
         Tensor::randn({1, c.lk, 16}, rng, 0.5F),
         Tensor::randn({1, c.lk, 16}, rng, 0.5F)},
        [&](const std::vector<Var>& in) {
          const Var out = mha.forward(in[0], in[1], in[2], mask);
          fused = fused || graph_has_op(out, "fused_sdpa");
          return sum_all(mul(out, make_leaf(weights.clone(), false)));
        });
    EXPECT_TRUE(fused) << "training forward did not take the fused kernel";
  }
}

/// Output and every gradient (inputs and parameters) of one training step,
/// by name.
std::vector<std::pair<std::string, Tensor>> mha_train_step(const TrainCase& c,
                                                           float p) {
  Rng rng(62);
  MultiHeadAttention mha(16, 4, rng, p, 17);
  mha.set_training(true);
  const Var q = make_leaf(Tensor::randn({2, c.lq, 16}, rng, 0.5F), true);
  const Var kv = make_leaf(Tensor::randn({2, c.lk, 16}, rng, 0.5F), true);
  const Tensor weights = Tensor::randn({2, c.lq, 16}, rng, 1.0F);
  const Var mask =
      c.masked ? make_leaf(staircase_mask(c.lq, c.lk), false) : nullptr;
  const Var out = mha.forward(q, kv, kv, mask);
  backward(sum_all(mul(out, make_leaf(weights.clone(), false))));
  std::vector<std::pair<std::string, Tensor>> result{
      {"out", out->value.clone()},
      {"query.grad", q->grad.clone()},
      {"key_value.grad", kv->grad.clone()}};
  for (const auto& [name, param] : mha.named_parameters()) {
    result.emplace_back(name + ".grad", param->grad.clone());
  }
  return result;
}

TEST(Kernels, FusedTrainMatchesReference) {
  // The composed path draws the same dropout mask (one key per call, the
  // flat [B, H, Lq, Lk] index), so with dropout on the two must still agree.
  ModeGuard guard;
  for (const auto& c : kTrainCases) {
    for (const float p : {0.0F, 0.3F}) {
      SCOPED_TRACE(::testing::Message() << "lq=" << c.lq << " lk=" << c.lk
                                        << " masked=" << c.masked
                                        << " p=" << p);
      kernels::set_reference_mode(true);
      const auto ref = mha_train_step(c, p);
      kernels::set_reference_mode(false);
      const auto fused = mha_train_step(c, p);
      ASSERT_EQ(ref.size(), fused.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        const auto& [name, want] = ref[i];
        const Tensor& got = fused[i].second;
        SCOPED_TRACE(name);
        ASSERT_EQ(name, fused[i].first);
        ASSERT_EQ(want.numel(), got.numel());
        if (name == "wk.bias.grad") {
          // The key bias adds q·b_k to every score of a row, which softmax
          // cancels: its gradient is exactly zero, and both paths return
          // rounding residue (~1e-6) that no relative bound can compare.
          for (std::int64_t e = 0; e < got.numel(); ++e) {
            EXPECT_LE(std::abs(want.data()[e]), 1e-5F);
            EXPECT_LE(std::abs(got.data()[e]), 1e-5F);
          }
          continue;
        }
        expect_allclose(want.data(), got.data(), want.numel());
      }
    }
  }
}

TEST(Kernels, FusedTrainForwardMatchesInference) {
  // Dropout inactive (p = 0, or eval mode): the training forward keeps the
  // inference kernel's bits.
  for (const auto& c : kTrainCases) {
    for (const bool eval_mode : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "lq=" << c.lq << " lk=" << c.lk
                                      << " masked=" << c.masked
                                      << " eval=" << eval_mode);
      Rng rng(63);
      MultiHeadAttention mha(16, 4, rng, eval_mode ? 0.2F : 0.0F, 3);
      mha.set_training(!eval_mode);
      const Var q = make_leaf(Tensor::randn({2, c.lq, 16}, rng, 0.5F), false);
      const Var kv = make_leaf(Tensor::randn({2, c.lk, 16}, rng, 0.5F), false);
      const Var mask =
          c.masked ? make_leaf(staircase_mask(c.lq, c.lk), false) : nullptr;
      const Var train = mha.forward(q, kv, kv, mask);
      ASSERT_TRUE(graph_has_op(train, "fused_sdpa"));
      Tensor inference;
      {
        NoGradGuard no_grad;
        inference = mha.forward(q, kv, kv, mask)->value.clone();
      }
      EXPECT_EQ(std::memcmp(train->value.data(), inference.data(),
                            sizeof(float) * inference.numel()),
                0);
    }
  }
}

TEST(Kernels, FusedTrainDropoutMaskIsTheSharedDefinition) {
  const std::int64_t B = 2, H = 2, D = 8, lq = 21, lk = 70;
  const auto q = random_vec(B * lq * D, 71);
  const auto k = random_vec(B * lk * D, 72);
  const auto v = random_vec(B * lk * D, 73);
  std::vector<float> out(static_cast<std::size_t>(B * lq * D));
  kernels::SdpaSaved saved;
  const float keep = 0.75F;
  const std::uint64_t key = 0x1234ABCDULL;
  kernels::fused_sdpa_train(q.data(), k.data(), v.data(), out.data(), B, lq,
                            lk, H, D, 0.5F, nullptr, keep, key, saved);
  // One 16-bit word per (batch, head, block of 16 query rows, key).
  const std::int64_t blocks = (lq + 15) / 16;
  ASSERT_EQ(saved.keep_bits.size(),
            static_cast<std::size_t>(B * H * blocks * lk));
  const std::uint64_t threshold = kernels::dropout_threshold(keep);
  for (std::int64_t t = 0; t < B * H; ++t) {
    for (std::int64_t i = 0; i < lq; ++i) {
      for (std::int64_t j = 0; j < lk; ++j) {
        const std::uint16_t word = saved.keep_bits[static_cast<std::size_t>(
            (t * blocks + i / 16) * lk + j)];
        const std::uint64_t index =
            static_cast<std::uint64_t>((t * lq + i) * lk + j);
        EXPECT_EQ(((word >> (i % 16)) & 1U) != 0,
                  kernels::dropout_keep(key, index, threshold))
            << "task " << t << " row " << i << " key " << j;
      }
    }
  }
}

TEST(Kernels, DropoutKeepRateWithinBinomialBound) {
  const std::int64_t n = 1 << 16;
  const Var x = make_leaf(Tensor::ones({n}), false);
  Rng rng(81);
  for (const float p : {0.1F, 0.5F}) {
    for (int call = 0; call < 4; ++call) {
      const Var y = dropout(x, p, /*training=*/true, rng);
      std::int64_t kept = 0;
      for (const float value : y->value.flat()) {
        if (value != 0.0F) {
          ++kept;
          EXPECT_EQ(value, 1.0F / (1.0F - p));
        }
      }
      // Six standard deviations of Binomial(n, 1 - p).
      const double mean = static_cast<double>(n) * (1.0 - p);
      const double sd = std::sqrt(static_cast<double>(n) * p * (1.0 - p));
      EXPECT_LE(std::abs(static_cast<double>(kept) - mean), 6.0 * sd)
          << "p=" << p << " call " << call;
    }
  }
}

TEST(Kernels, DropoutDrawsOneKeyPerCall) {
  const Var x = make_leaf(Tensor::ones({3, 50}), false);
  Rng rng(91);
  Rng mirror(91);
  const Var y = dropout(x, 0.4F, /*training=*/true, rng);
  const std::uint64_t key = mirror.next_u64();
  EXPECT_EQ(rng.next_u64(), mirror.next_u64()) << "stream positions differ";
  const std::uint64_t threshold = kernels::dropout_threshold(0.6F);
  for (std::int64_t i = 0; i < x->value.numel(); ++i) {
    EXPECT_EQ(y->value.data()[i] != 0.0F,
              kernels::dropout_keep(key, static_cast<std::uint64_t>(i),
                                    threshold))
        << "element " << i;
  }
  // The module takes its keys from its own seeded stream, one per call;
  // the fused attention kernel takes the same single key.
  Dropout module(0.4F, 91);
  module.set_training(true);
  const Var first = module.forward(x);
  const Var second = module.forward(x);
  Rng replay(91);
  const Var expect_first = dropout(x, 0.4F, true, replay);
  const Var expect_second = dropout(x, 0.4F, true, replay);
  EXPECT_EQ(std::memcmp(first->value.data(), expect_first->value.data(),
                        sizeof(float) * x->value.numel()),
            0);
  EXPECT_EQ(std::memcmp(second->value.data(), expect_second->value.data(),
                        sizeof(float) * x->value.numel()),
            0);
}

// ---------------------------------------------------------------------------
// Determinism across thread counts
// ---------------------------------------------------------------------------

#ifdef _OPENMP
TEST(Kernels, GemmBitIdenticalAcrossThreadCounts) {
  const auto a = random_vec(256 * 32, 31);
  const auto b = random_vec(32 * 48, 32);
  std::vector<float> c1(256 * 48), c4(256 * 48);
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  kernels::gemm(a.data(), b.data(), c1.data(), 256, 32, 48, false, false,
                false);
  omp_set_num_threads(4);
  kernels::gemm(a.data(), b.data(), c4.data(), 256, 32, 48, false, false,
                false);
  omp_set_num_threads(saved);
  EXPECT_EQ(
      std::memcmp(c1.data(), c4.data(), sizeof(float) * c1.size()), 0);
}

TEST(Kernels, FusedSdpaBitIdenticalAcrossThreadCounts) {
  const std::int64_t B = 2, L = 64, H = 4, D = 16;
  const auto q = random_vec(B * L * D, 41);
  const auto k = random_vec(B * L * D, 42);
  const auto v = random_vec(B * L * D, 43);
  std::vector<float> o1(static_cast<std::size_t>(B * L * D));
  std::vector<float> o4(o1.size());
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  kernels::fused_sdpa(q.data(), k.data(), v.data(), o1.data(), B, L, L, H, D,
                      0.5F, nullptr);
  omp_set_num_threads(4);
  kernels::fused_sdpa(q.data(), k.data(), v.data(), o4.data(), B, L, L, H, D,
                      0.5F, nullptr);
  omp_set_num_threads(saved);
  EXPECT_EQ(
      std::memcmp(o1.data(), o4.data(), sizeof(float) * o1.size()), 0);
}

TEST(Kernels, FusedSdpaTrainBitIdenticalAcrossThreadCounts) {
  const std::int64_t B = 3, lq = 40, lk = 33, H = 4, D = 16;
  const auto q = random_vec(B * lq * D, 44);
  const auto k = random_vec(B * lk * D, 45);
  const auto v = random_vec(B * lk * D, 46);
  const auto g = random_vec(B * lq * D, 47);
  const auto run = [&](int threads) {
    omp_set_num_threads(threads);
    std::vector<float> out(static_cast<std::size_t>(B * lq * D));
    std::vector<float> dq(out.size());
    std::vector<float> dk(static_cast<std::size_t>(B * lk * D));
    std::vector<float> dv(dk.size());
    kernels::SdpaSaved saved;
    kernels::fused_sdpa_train(q.data(), k.data(), v.data(), out.data(), B, lq,
                              lk, H, D, 0.5F, nullptr, 0.8F, 7, saved);
    kernels::fused_sdpa_backward(q.data(), k.data(), v.data(), g.data(), B,
                                 lq, lk, H, D, 0.5F, nullptr, saved, dq.data(),
                                 dk.data(), dv.data());
    out.insert(out.end(), dq.begin(), dq.end());
    out.insert(out.end(), dk.begin(), dk.end());
    out.insert(out.end(), dv.begin(), dv.end());
    return out;
  };
  const int saved_threads = omp_get_max_threads();
  const auto one = run(1);
  const auto four = run(4);
  omp_set_num_threads(saved_threads);
  EXPECT_EQ(std::memcmp(one.data(), four.data(), sizeof(float) * one.size()),
            0);
}
#endif  // _OPENMP

// ---------------------------------------------------------------------------
// Arena allocator
// ---------------------------------------------------------------------------

TEST(Arena, ScopeRewindReusesMemory) {
  const float* first = nullptr;
  {
    arena::Scope scope;
    Tensor t({1024});
    EXPECT_TRUE(t.arena_backed());
    first = t.data();
  }
  {
    arena::Scope scope;
    Tensor t({1024});
    EXPECT_TRUE(t.arena_backed());
    // The scope rewound, so the same storage is handed out again.
    EXPECT_EQ(t.data(), first);
  }
}

TEST(Arena, NestedScopeRewindsToItsOwnWatermark) {
  arena::Scope outer;
  Tensor kept({64});
  const float* inner_ptr = nullptr;
  {
    arena::Scope inner;
    Tensor tmp({64});
    inner_ptr = tmp.data();
    EXPECT_NE(inner_ptr, kept.data());
  }
  Tensor next({64});
  // The inner scope's storage is reusable, the outer allocation is not.
  EXPECT_EQ(next.data(), inner_ptr);
  EXPECT_NE(next.data(), kept.data());
}

TEST(Arena, PauseEscapesToHeap) {
  arena::Scope scope;
  Tensor inside({16});
  EXPECT_TRUE(inside.arena_backed());
  arena::Pause pause;
  Tensor escaped({16});
  EXPECT_FALSE(escaped.arena_backed());
}

TEST(Arena, DisabledArenaAllocatesOnHeap) {
  ModeGuard guard;
  arena::set_enabled(false);
  arena::Scope scope;
  Tensor t({16});
  EXPECT_FALSE(t.arena_backed());
}

TEST(Arena, CloneInsideScopeCopiesValues) {
  arena::Scope scope;
  Tensor t({2, 2}, {1, 2, 3, 4});
  const Tensor c = t.clone();
  EXPECT_EQ(c.at(1, 1), 4.0F);
}

// ---------------------------------------------------------------------------
// End-to-end: surrogate forward and attention recording
// ---------------------------------------------------------------------------

core::Surrogate small_surrogate() {
  core::SurrogateConfig cfg;
  cfg.sequence_length = 32;
  return core::Surrogate(cfg, lambda::ConfigGrid::standard());
}

TEST(Kernels, PredictGridMatchesReferenceKernels) {
  ModeGuard guard;
  auto model = small_surrogate();
  model.set_training(false);
  const auto window = random_vec(32, 55);
  const auto all_configs = lambda::ConfigGrid::standard().enumerate();
  const std::span<const lambda::Config> configs(all_configs.data(), 8);

  kernels::set_reference_mode(true);
  arena::set_enabled(false);
  const auto ref = model.predict_grid(window, configs);
  kernels::set_reference_mode(false);
  arena::set_enabled(true);
  const auto opt = model.predict_grid(window, configs);

  ASSERT_EQ(ref.size(), opt.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double denom =
        std::max(std::abs(ref[i].cost_usd_per_request), 1e-6);
    EXPECT_LE(std::abs(ref[i].cost_usd_per_request -
                       opt[i].cost_usd_per_request) /
                  denom,
              1e-3)
        << "config " << i;
    for (std::size_t p = 0; p < ref[i].latency_s.size(); ++p) {
      const double ldenom = std::max(std::abs(ref[i].latency_s[p]), 1e-6);
      EXPECT_LE(
          std::abs(ref[i].latency_s[p] - opt[i].latency_s[p]) / ldenom, 1e-3)
          << "config " << i << " percentile " << p;
    }
  }
}

TEST(Kernels, AttentionRecordingStillProducesProfile) {
  auto model = small_surrogate();
  model.set_training(false);
  model.set_record_attention(true);
  const auto window = random_vec(32, 56);
  const auto all_configs = lambda::ConfigGrid::standard().enumerate();
  (void)model.predict_grid(window,
                           std::span<const lambda::Config>(
                               all_configs.data(), 4));
  const auto profile = model.last_attention_profile();
  ASSERT_EQ(profile.size(), 32U);
  float sum = 0.0F;
  for (float p : profile) {
    EXPECT_TRUE(std::isfinite(p));
    EXPECT_GE(p, 0.0F);
    sum += p;
  }
  // Rows of a softmax sum to 1, and the profile averages over rows.
  EXPECT_NEAR(sum, 1.0F, 1e-3F);
}

}  // namespace
}  // namespace deepbat::nn
