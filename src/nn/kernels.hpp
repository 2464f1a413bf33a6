#pragma once
// Hand-optimized float kernels for the hot paths of the surrogate model:
// a cache-blocked, register-tiled GEMM (used by every matmul forward and
// backward) and a fused scaled-dot-product attention, forward and
// backward, that never materializes the [B, H, Lq, Lk] score tensor.
//
// Determinism contract: for a fixed input, every kernel produces
// bit-identical output regardless of the number of OpenMP threads. This
// holds because each output element is computed by exactly one task and the
// accumulation order within an element never depends on the thread count.
//
// The naive reference kernels (the seed implementations) stay available for
// golden-value tests and for the regression harness's before/after
// comparison; `set_reference_mode(true)` routes the optimized entry points
// back to them at runtime. fused_grid_head is the exception: it has no
// naive twin, and its reference is the composed autograd head, which the
// scoring tests compare it against bit for bit.

#include <cstdint>
#include <cstring>
#include <vector>

namespace deepbat::nn::kernels {

/// When true, gemm() falls through to gemm_naive() and fused attention is
/// disabled (attention.cpp checks this). Used by bench/nn_kernels and the
/// golden tests to time/compare the seed kernels inside the full model.
void set_reference_mode(bool on);
bool reference_mode();

/// Reference kernel: C[m,n] = A * B (optionally transposed operands),
/// accumulating into C when `accumulate` is set. A is [m,k] row-major, or
/// [k,m] when trans_a; B is [k,n] row-major, or [n,k] when trans_b.
/// This is the seed's triple loop, kept verbatim as ground truth.
void gemm_naive(const float* A, const float* B, float* C, std::int64_t m,
                std::int64_t k, std::int64_t n, bool trans_a, bool trans_b,
                bool accumulate);

/// Optimized GEMM with the same semantics as gemm_naive: packs transposed
/// operands into contiguous panels, register-tiles the inner j-loop
/// (kMr x kNr accumulator tiles), and parallelizes over row blocks with a
/// flop-derived grain.
void gemm(const float* A, const float* B, float* C, std::int64_t m,
          std::int64_t k, std::int64_t n, bool trans_a, bool trans_b,
          bool accumulate);

/// Fused scaled-dot-product attention over head-split projections stored
/// inline in [*, L, dim] tensors (head h occupies columns
/// [h*dh, (h+1)*dh), dh = dim / heads):
///
///   out[b, i, h*dh:*] = sum_j softmax_j(scale * q[b,i,h]·k[b,j,h]
///                                       + mask[i,j]) * v[b, j, h*dh:*]
///
/// Query rows are processed in blocks of 16 with the row as the vector
/// axis, so each output element is summed in the fixed order DESIGN.md §7
/// states, whatever rows share its block; the [B, H, Lq, Lk] score tensor
/// is never materialized. `mask`, if non-null, is an additive [lq, lk]
/// row-major matrix shared across batch and heads.
void fused_sdpa(const float* q, const float* k, const float* v, float* out,
                std::int64_t batch, std::int64_t lq, std::int64_t lk,
                std::int64_t heads, std::int64_t dim, float scale,
                const float* mask = nullptr);

/// Configs per vector in fused_grid_head: the width of its config panel's
/// blocks (the panel's column count is padded to a multiple of this).
inline constexpr std::int64_t kGridLanes = 16;

/// Fused grid-scoring head (DESIGN.md §12): for each of `rows` tenant rows
/// x_r [d] and each of n configs with feature embedding e_i [fe],
///
///   out[r, i, :] = relu([x_r, e_i] W1 + b1) W2 + b2
///
/// with W1 [d + fe, h], b1 [h], W2 [h, o], b2 [o] row-major and `out`
/// [rows, n, o]. The embeddings come as a transposed panel e2t [fe, n_pad],
/// n_pad = n rounded up to kGridLanes, padding columns zero. Each hidden
/// and output element is the chain gemm() would compute for the
/// concatenated input, links in the same order: the first d links of a
/// hidden element depend only on x_r, so they run once per row and every
/// config continues from them. Configs are the vector axis, so a row's
/// result depends on neither its block nor the other rows of the call;
/// neither the [rows * n, d + fe] input nor the hidden layer is formed.
void fused_grid_head(const float* x, std::int64_t rows, std::int64_t d,
                     const float* e2t, std::int64_t n, std::int64_t fe,
                     const float* w1, const float* b1, std::int64_t h,
                     const float* w2, const float* b2, std::int64_t o,
                     float* out);

// --- dropout keep-mask (DESIGN.md §7) ---
//
// One definition, shared by nn::dropout and the fused attention kernel.
// Each call draws one key from its module's stream; element i of the
// masked tensor is kept iff
//   (splitmix64(key + i * kDropoutStride) >> 11) < keep * 2^53,
// a pure function of (key, i): it vectorizes, unlike one sequential draw
// per element, and any element's fate follows from the key alone.

inline constexpr std::uint64_t kDropoutStride = 0x9E3779B97F4A7C15ULL;

/// The SplitMix64 output function (Steele et al.), without the increment.
/// U is std::uint64_t or a GCC vector of them.
template <typename U>
inline U splitmix64(const U& x) {
  U z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// keep * 2^53, the integer bound of the 53-bit draws (exact for any float
/// keep in (0, 1]).
inline std::uint64_t dropout_threshold(float keep) {
  return static_cast<std::uint64_t>(static_cast<double>(keep) * 0x1.0p53);
}

/// 1 if the element with counter z = key + i * kDropoutStride survives,
/// else 0. U is std::uint64_t or a GCC vector of counters, for callers that
/// test many elements at once. The draw and the bound are both below 2^54,
/// so the borrow of draw - threshold, bit 63, is exactly draw < threshold,
/// in a form that vectorizes.
template <typename U>
inline U dropout_keep_bit(const U& z, std::uint64_t threshold) {
  return ((splitmix64(z) >> 11) - threshold) >> 63;
}

inline bool dropout_keep(std::uint64_t key, std::uint64_t i,
                         std::uint64_t threshold) {
  return dropout_keep_bit(key + i * kDropoutStride, threshold) != 0;
}

/// What the training forward of fused attention keeps for backward, per
/// (batch, head, query row) in [B, H, Lq] order: the score maximum and the
/// reciprocal of the softmax denominator. With dropout on, also the keep
/// bits of the [B, H, Lq, Lk] probabilities, packed the way the kernel
/// walks them: one 16-bit word per (batch, head, block of 16 query rows,
/// key), [B, H, ceil(Lq / 16), Lk] order, bit r for query row 16 * block + r.
struct SdpaSaved {
  std::vector<float> row_max;
  std::vector<float> row_inv;
  std::vector<std::uint16_t> keep_bits;  // empty when dropout is off
  float keep = 1.0F;                     // keep probability, 1 - p
};

/// Training forward of fused attention: fused_sdpa's output, with dropout
/// applied to the normalized probabilities when keep < 1 (mask from
/// dropout_keep(key, ((b * heads + h) * lq + i) * lk + j), survivors scaled
/// by 1 / keep). Fills `saved` for fused_sdpa_backward. Without dropout the
/// output has the bits of fused_sdpa.
void fused_sdpa_train(const float* q, const float* k, const float* v,
                      float* out, std::int64_t batch, std::int64_t lq,
                      std::int64_t lk, std::int64_t heads, std::int64_t dim,
                      float scale, const float* mask, float keep,
                      std::uint64_t key, SdpaSaved& saved);

/// Gradients of fused_sdpa_train with respect to q, k and v, written (not
/// accumulated) into dq [B, lq, dim], dk and dv [B, lk, dim]. The
/// probabilities are recomputed block by block from `saved`, so no
/// [B, H, Lq, Lk] tensor is allocated; each (batch, head) is one task and
/// the summation order (DESIGN.md §7) does not depend on the thread count.
void fused_sdpa_backward(const float* q, const float* k, const float* v,
                         const float* dout, std::int64_t batch,
                         std::int64_t lq, std::int64_t lk, std::int64_t heads,
                         std::int64_t dim, float scale, const float* mask,
                         const SdpaSaved& saved, float* dq, float* dk,
                         float* dv);

/// C[m,n] (+)= A[m,k] * dequant(B), with B stored as IEEE-754 binary16 in
/// [k,n] row-major order. The weight panel is expanded to fp32 in a
/// thread-local scratch buffer and the math runs through the fp32 blocked
/// kernel, so results equal gemm() on the fp16-rounded weights exactly.
void gemm_f16w(const float* A, const std::uint16_t* B, float* C, std::int64_t m,
               std::int64_t k, std::int64_t n, bool accumulate);

// --- scalar IEEE binary16 conversions (software; round-to-nearest-even) ---

inline float fp16_to_fp32(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000U) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1FU;
  const std::uint32_t mant = h & 0x3FFU;
  std::uint32_t bits;
  if (exp == 0) {
    if (mant == 0) {
      bits = sign;  // signed zero
    } else {
      // Subnormal half: normalize the mantissa into a fp32 normal. A
      // subnormal's value is mant * 2^-24, i.e. implicit exponent -14 with
      // no hidden bit, so the bias here is 127 - 14 (one more than the
      // normal case, which shares the -14 exponent WITH a hidden bit).
      std::uint32_t m = mant;
      std::uint32_t e = 113;  // 127 - 14
      while ((m & 0x400U) == 0) {
        m <<= 1;
        --e;
      }
      bits = sign | (e << 23) | ((m & 0x3FFU) << 13);
    }
  } else if (exp == 31) {
    bits = sign | 0x7F800000U | (mant << 13);  // inf / NaN
  } else {
    bits = sign | ((exp + 112) << 23) | (mant << 13);
  }
  float out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

inline std::uint16_t fp32_to_fp16(float value) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  const auto sign = static_cast<std::uint16_t>((bits >> 16) & 0x8000U);
  const std::uint32_t abs = bits & 0x7FFFFFFFU;
  if (abs >= 0x7F800000U) {  // inf / NaN (NaN keeps a payload bit set)
    return static_cast<std::uint16_t>(
        sign | (abs > 0x7F800000U ? 0x7E00U : 0x7C00U));
  }
  const auto exp = static_cast<std::int32_t>(abs >> 23) - 127;
  if (exp > 15) return static_cast<std::uint16_t>(sign | 0x7C00U);  // overflow
  const std::uint32_t mant = (abs & 0x7FFFFFU) | 0x800000U;
  if (exp >= -14) {  // normal half
    auto half = static_cast<std::uint32_t>(sign) |
                (static_cast<std::uint32_t>(exp + 15) << 10) |
                ((mant & 0x7FFFFFU) >> 13);
    const std::uint32_t rem = mant & 0x1FFFU;
    if (rem > 0x1000U || (rem == 0x1000U && (half & 1U))) ++half;
    // A mantissa carry walks into the exponent with the right value, so no
    // special case is needed at the normal/overflow boundaries.
    return static_cast<std::uint16_t>(half);
  }
  if (exp < -25) return sign;  // underflows to signed zero even after rounding
  // Subnormal half: shift the 24-bit significand down to 2^-24 units.
  const std::int32_t shift = -exp - 1;  // 14..25
  std::uint32_t half = mant >> shift;
  const std::uint32_t halfway = 1U << (shift - 1);
  const std::uint32_t rem = mant & ((halfway << 1) - 1);
  if (rem > halfway || (rem == halfway && (half & 1U))) ++half;
  return static_cast<std::uint16_t>(sign | half);
}

// Blocking parameters, exposed so tests can probe the edge cases around
// them (shapes that are not multiples of the tile sizes).
inline constexpr std::int64_t kMr = 4;         // rows per register tile
inline constexpr std::int64_t kNr = 16;        // columns per register tile
inline constexpr std::int64_t kRowBlock = 64;  // rows per parallel task unit
/// Minimum flops a parallel task should amortize; grains are derived from
/// this so tiny GEMMs never pay the fork/join overhead.
inline constexpr std::int64_t kMinFlopsPerTask = 1 << 16;
/// GEMMs and fused-attention calls below this many total flops run serially
/// even when OpenMP threads are available: at these sizes the fork/join barrier costs more than the
/// math, which is exactly how 2-thread runs used to LOSE to 1-thread on the
/// tall-skinny shapes (m256_k256_n4 and friends). Serial execution makes
/// thread count irrelevant for them, and per-element results were
/// thread-count independent to begin with.
inline constexpr std::int64_t kMinFlopsParallel = std::int64_t{1} << 21;
/// n at or below this routes to the compile-time-width skinny-output kernel
/// (B read in natural [k, n] layout, no pack) instead of the kMr x kNr
/// tile, whose j-vectorized inner loop is mostly idle lanes for skinny
/// outputs; k must be at least kSmallNMinK so the per-tile setup amortizes.
/// The head's output GEMM (n = output_dim = 8, k = ffn_hidden = 32), run
/// by the composed head and the fp16 grid-scoring path, is the shape this
/// threshold must admit. Per-element accumulation order
/// is identical to the generic micro kernels, so the cutover never changes
/// result bits — only speed.
inline constexpr std::int64_t kSmallNMax = 8;
inline constexpr std::int64_t kSmallNMinK = 16;
/// trans_a GEMMs with at most this many output rows skip the A transpose
/// pack: with A stored [k, m] and m tiny, the pack writes a strided panel
/// that costs more than it saves (the worst case is the m16_k2048_n16_tA
/// gradient shape), while reading A[l*m + i] directly is contiguous in i.
inline constexpr std::int64_t kDirectTransAMaxM = 64;

}  // namespace deepbat::nn::kernels
