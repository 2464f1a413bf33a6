#include "nn/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/parallel.hpp"
#include "obs/metrics.hpp"

namespace deepbat::nn::kernels {

namespace {

std::atomic<bool> g_reference_mode{false};

// Kernel wall-time histograms (nn.kernels.*, DESIGN.md §9). Timed at the
// kernel entry point on the calling thread, so a batched matmul issued from
// a parallel region records one sample per caller. Handles are function-
// local statics: thread-safe init once, then a guard load per call.
obs::Histogram& gemm_hist() {
  static obs::Histogram& h =
      obs::MetricsRegistry::instance().histogram("nn.kernels.gemm_seconds");
  return h;
}

obs::Histogram& sdpa_hist() {
  static obs::Histogram& h = obs::MetricsRegistry::instance().histogram(
      "nn.kernels.attention_seconds");
  return h;
}

obs::Histogram& grid_head_hist() {
  static obs::Histogram& h = obs::MetricsRegistry::instance().histogram(
      "nn.kernels.grid_head_seconds");
  return h;
}

obs::Histogram& sdpa_backward_hist() {
  static obs::Histogram& h = obs::MetricsRegistry::instance().histogram(
      "nn.kernels.attention_backward_seconds");
  return h;
}

/// Runs `body` and, with observability on, records its wall time in `hist`.
template <typename Body>
void timed(obs::Histogram& (*hist)(), Body&& body) {
  if (!obs::enabled()) {
    body();
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  body();
  hist().observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count());
}

// Packing scratch, one buffer pair per thread so batched matmuls can pack
// concurrently. Capacity is retained across calls.
thread_local std::vector<float> tl_pack_a;
thread_local std::vector<float> tl_pack_b;
thread_local std::vector<float> tl_f16_b;  // dequantized fp16 weight panel

/// dst (cols x rows, row-major) = transpose of src (rows x cols, row-major),
/// tiled so both sides stay cache-resident.
void transpose_pack(const float* src, std::int64_t rows, std::int64_t cols,
                    float* dst) {
  constexpr std::int64_t kTile = 32;
  for (std::int64_t r0 = 0; r0 < rows; r0 += kTile) {
    const std::int64_t r1 = std::min(rows, r0 + kTile);
    for (std::int64_t c0 = 0; c0 < cols; c0 += kTile) {
      const std::int64_t c1 = std::min(cols, c0 + kTile);
      for (std::int64_t r = r0; r < r1; ++r) {
        for (std::int64_t c = c0; c < c1; ++c) {
          dst[c * rows + r] = src[r * cols + c];
        }
      }
    }
  }
}

/// Full kMr x kNr register tile of C at (i0, j0): constant trip counts so the
/// accumulators live in vector registers and the j-loop vectorizes.
inline void micro_full(const float* a, const float* b, float* c,
                       std::int64_t k, std::int64_t n, std::int64_t i0,
                       std::int64_t j0, bool accumulate) {
  float acc[kMr][kNr];
  for (std::int64_t r = 0; r < kMr; ++r) {
    float* crow = c + (i0 + r) * n + j0;
    for (std::int64_t j = 0; j < kNr; ++j) {
      acc[r][j] = accumulate ? crow[j] : 0.0F;
    }
  }
  const float* a0 = a + i0 * k;
  const float* a1 = a0 + k;
  const float* a2 = a1 + k;
  const float* a3 = a2 + k;
  for (std::int64_t l = 0; l < k; ++l) {
    const float* brow = b + l * n + j0;
    const float v0 = a0[l];
    const float v1 = a1[l];
    const float v2 = a2[l];
    const float v3 = a3[l];
    for (std::int64_t j = 0; j < kNr; ++j) {
      const float bj = brow[j];
      acc[0][j] += v0 * bj;
      acc[1][j] += v1 * bj;
      acc[2][j] += v2 * bj;
      acc[3][j] += v3 * bj;
    }
  }
  for (std::int64_t r = 0; r < kMr; ++r) {
    float* crow = c + (i0 + r) * n + j0;
    for (std::int64_t j = 0; j < kNr; ++j) crow[j] = acc[r][j];
  }
}

/// Partial tile at the m/n edges; same accumulation order, runtime bounds.
inline void micro_edge(const float* a, const float* b, float* c,
                       std::int64_t k, std::int64_t n, std::int64_t i0,
                       std::int64_t j0, std::int64_t mr, std::int64_t nr,
                       bool accumulate) {
  float acc[kMr][kNr];
  for (std::int64_t r = 0; r < mr; ++r) {
    const float* crow = c + (i0 + r) * n + j0;
    for (std::int64_t j = 0; j < nr; ++j) {
      acc[r][j] = accumulate ? crow[j] : 0.0F;
    }
  }
  for (std::int64_t l = 0; l < k; ++l) {
    const float* brow = b + l * n + j0;
    for (std::int64_t r = 0; r < mr; ++r) {
      const float av = a[(i0 + r) * k + l];
      for (std::int64_t j = 0; j < nr; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (std::int64_t r = 0; r < mr; ++r) {
    float* crow = c + (i0 + r) * n + j0;
    for (std::int64_t j = 0; j < nr; ++j) crow[j] = acc[r][j];
  }
}

/// Blocked C[m,n] (+)= a[m,k] * b[k,n], both row-major and contiguous.
/// Parallel over kRowBlock row blocks; each output element is written by
/// exactly one task, so results are thread-count independent.
/// Row-block grain for an [m, k] x [k, n] product: flop-derived as before,
/// but a GEMM under kMinFlopsParallel total flops is forced serial (grain =
/// block count) — see the constant's comment in kernels.hpp.
std::size_t row_block_grain(std::int64_t blocks, std::int64_t m, std::int64_t k,
                            std::int64_t n) {
  if (2 * m * k * n < kMinFlopsParallel) {
    return static_cast<std::size_t>(std::max<std::int64_t>(blocks, 1));
  }
  const std::int64_t flops_per_block = 2 * kRowBlock * k * n;
  return static_cast<std::size_t>(std::max<std::int64_t>(
      1, kMinFlopsPerTask / std::max<std::int64_t>(flops_per_block, 1)));
}

void gemm_blocked_nn(const float* a, const float* b, float* c, std::int64_t m,
                     std::int64_t k, std::int64_t n, bool accumulate) {
  const std::int64_t blocks = (m + kRowBlock - 1) / kRowBlock;
  const std::size_t grain = row_block_grain(blocks, m, k, n);
  parallel_for(
      static_cast<std::size_t>(blocks),
      [&](std::size_t blk) {
        const std::int64_t begin =
            static_cast<std::int64_t>(blk) * kRowBlock;
        const std::int64_t end = std::min(m, begin + kRowBlock);
        for (std::int64_t i0 = begin; i0 < end; i0 += kMr) {
          const std::int64_t mr = std::min<std::int64_t>(kMr, end - i0);
          for (std::int64_t j0 = 0; j0 < n; j0 += kNr) {
            const std::int64_t nr = std::min<std::int64_t>(kNr, n - j0);
            if (mr == kMr && nr == kNr) {
              micro_full(a, b, c, k, n, i0, j0, accumulate);
            } else {
              micro_edge(a, b, c, k, n, i0, j0, mr, nr, accumulate);
            }
          }
        }
      },
      grain);
}

// GCC's -O3 loop vectorizer rewrites the skinny-tile l-loops below into a
// permute-heavy form (vpermt2ps gathers across iterations) that runs ~10x
// SLOWER than the straightforward SLP code the same compiler emits at -O2:
// broadcast each a-value, one FMA per accumulator row. Pin these functions
// to SLP-only vectorization. Per-element math is unchanged (each output is
// still the same l-sequential fma chain), so this is codegen-only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC push_options
#pragma GCC optimize("no-tree-loop-vectorize")
#endif

/// One full kMr x N register tile anchored at row i0 (rows [i0, i0 + kMr)
/// must all be in range). N is a compile-time constant so the j-loops fully
/// unroll and vectorize; the per-element accumulation is the same
/// l-sequential multiply-add chain as micro_full/micro_edge. Rows below
/// `store_from` are computed and discarded — see gemm_small_n_rows.
template <int N>
inline void small_n_tile(const float* a, const float* b, float* c,
                         std::int64_t k, std::int64_t i0,
                         std::int64_t store_from, bool accumulate) {
  float acc[kMr][N];
  if (accumulate) {
    for (std::int64_t r = 0; r < kMr; ++r) {
      const float* crow = c + (i0 + r) * N;
      for (int j = 0; j < N; ++j) acc[r][j] = crow[j];
    }
  } else {
    for (std::int64_t r = 0; r < kMr; ++r) {
      for (int j = 0; j < N; ++j) acc[r][j] = 0.0F;
    }
  }
  for (std::int64_t l = 0; l < k; ++l) {
    const float* brow = b + l * N;
    const float v0 = a[(i0 + 0) * k + l];
    const float v1 = a[(i0 + 1) * k + l];
    const float v2 = a[(i0 + 2) * k + l];
    const float v3 = a[(i0 + 3) * k + l];
    for (int j = 0; j < N; ++j) {
      const float bj = brow[j];
      acc[0][j] += v0 * bj;
      acc[1][j] += v1 * bj;
      acc[2][j] += v2 * bj;
      acc[3][j] += v3 * bj;
    }
  }
  for (std::int64_t r = store_from; r < kMr; ++r) {
    float* crow = c + (i0 + r) * N;
    for (int j = 0; j < N; ++j) crow[j] = acc[r][j];
  }
}

/// Skinny-output row span over [begin, end). Every row runs through the
/// SAME full-tile code: a trailing partial tile is re-anchored at
/// end - kMr so it overlaps the previous tile, recomputes the overlap rows
/// bit-identically, and only stores the genuinely new ones (store_from).
/// This matters because a row's result must not depend on which tile phase
/// it lands in — a separate smaller tail loop compiles with its own FP
/// contraction and then scoring row r inside a fused multi-tenant batch
/// (m = tenants * grid) can differ in the last ulp from scoring it alone
/// (m = grid), which is exactly the batched-scoring invariance the runtime
/// promises. In accumulate mode the overlap rows' C values are already
/// final, so their recomputed accumulators are garbage — and discarded.
/// Callers guarantee end - begin >= kMr except when the whole GEMM has
/// fewer than kMr rows; that remnant runs the one-row kernel below (a
/// sub-kMr GEMM can never batch, so phase invariance is moot for it).
template <int N>
void gemm_small_n_rows(const float* a, const float* b, float* c,
                       std::int64_t k, std::int64_t begin, std::int64_t end,
                       bool accumulate) {
  if (end - begin < kMr) {
    for (std::int64_t i = begin; i < end; ++i) {
      float acc[N];
      const float* crow = c + i * N;
      for (int j = 0; j < N; ++j) acc[j] = accumulate ? crow[j] : 0.0F;
      for (std::int64_t l = 0; l < k; ++l) {
        const float* brow = b + l * N;
        const float av = a[i * k + l];
        for (int j = 0; j < N; ++j) acc[j] += av * brow[j];
      }
      float* out = c + i * N;
      for (int j = 0; j < N; ++j) out[j] = acc[j];
    }
    return;
  }
  std::int64_t i0 = begin;
  for (; i0 + kMr <= end; i0 += kMr) {
    small_n_tile<N>(a, b, c, k, i0, 0, accumulate);
  }
  if (i0 < end) {
    small_n_tile<N>(a, b, c, k, end - kMr, kMr - (end - i0), accumulate);
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC pop_options
#endif

/// Skinny-output kernel: C[m,n] (+)= a[m,k] * b[k,n] with B in its natural
/// [k, n] layout (no pack — reading row l of B touches one cache line when
/// n <= kSmallNMax), n dispatched to a compile-time-width row kernel.
void gemm_small_n(const float* a, const float* b, float* c, std::int64_t m,
                  std::int64_t k, std::int64_t n, bool accumulate) {
  std::int64_t blocks = (m + kRowBlock - 1) / kRowBlock;
  // Fold a sub-kMr trailing block into its neighbor so every task spans at
  // least one full tile; the overlap trick above reads only rows inside the
  // task's span, so tasks stay write- AND read-disjoint on C (no races in
  // accumulate mode).
  if (blocks > 1 && m - (blocks - 1) * kRowBlock < kMr) --blocks;
  const std::size_t grain = row_block_grain(blocks, m, k, n);
  parallel_for(
      static_cast<std::size_t>(blocks),
      [&](std::size_t blk) {
        const std::int64_t begin = static_cast<std::int64_t>(blk) * kRowBlock;
        const std::int64_t end = static_cast<std::int64_t>(blk) + 1 ==
                                         static_cast<std::int64_t>(blocks)
                                     ? m
                                     : begin + kRowBlock;
        switch (n) {
          case 1: gemm_small_n_rows<1>(a, b, c, k, begin, end, accumulate); break;
          case 2: gemm_small_n_rows<2>(a, b, c, k, begin, end, accumulate); break;
          case 3: gemm_small_n_rows<3>(a, b, c, k, begin, end, accumulate); break;
          case 4: gemm_small_n_rows<4>(a, b, c, k, begin, end, accumulate); break;
          case 5: gemm_small_n_rows<5>(a, b, c, k, begin, end, accumulate); break;
          case 6: gemm_small_n_rows<6>(a, b, c, k, begin, end, accumulate); break;
          case 7: gemm_small_n_rows<7>(a, b, c, k, begin, end, accumulate); break;
          default: gemm_small_n_rows<8>(a, b, c, k, begin, end, accumulate); break;
        }
      },
      grain);
}

/// Direct trans_a kernel: C[m,n] (+)= a^T * b with a stored [k, m] and m at
/// most kDirectTransAMaxM. For a fixed l the mr operand values a[l*m + i0 +
/// r] sit contiguously, so no transpose pack is needed — the pack is pure
/// overhead at these row counts (the m16_k2048_n16_tA gradient shape spent
/// more time packing the [2048, 16] panel than multiplying). Dispatch only
/// routes serial-regime GEMMs here; accumulation order per element matches
/// the packed path (l-sequential), so results are bit-identical to it.
void gemm_ta_direct(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n, bool accumulate) {
  for (std::int64_t i0 = 0; i0 < m; i0 += kMr) {
    const std::int64_t mr = std::min<std::int64_t>(kMr, m - i0);
    for (std::int64_t j0 = 0; j0 < n; j0 += kNr) {
      const std::int64_t nr = std::min<std::int64_t>(kNr, n - j0);
      float acc[kMr][kNr];
      for (std::int64_t r = 0; r < mr; ++r) {
        const float* crow = c + (i0 + r) * n + j0;
        for (std::int64_t j = 0; j < nr; ++j) {
          acc[r][j] = accumulate ? crow[j] : 0.0F;
        }
      }
      if (mr == kMr && nr == kNr) {
        for (std::int64_t l = 0; l < k; ++l) {
          const float* arow = a + l * m + i0;
          const float* brow = b + l * n + j0;
          const float v0 = arow[0];
          const float v1 = arow[1];
          const float v2 = arow[2];
          const float v3 = arow[3];
          for (std::int64_t j = 0; j < kNr; ++j) {
            const float bj = brow[j];
            acc[0][j] += v0 * bj;
            acc[1][j] += v1 * bj;
            acc[2][j] += v2 * bj;
            acc[3][j] += v3 * bj;
          }
        }
      } else {
        for (std::int64_t l = 0; l < k; ++l) {
          const float* arow = a + l * m + i0;
          const float* brow = b + l * n + j0;
          for (std::int64_t r = 0; r < mr; ++r) {
            const float av = arow[r];
            for (std::int64_t j = 0; j < nr; ++j) acc[r][j] += av * brow[j];
          }
        }
      }
      for (std::int64_t r = 0; r < mr; ++r) {
        float* crow = c + (i0 + r) * n + j0;
        for (std::int64_t j = 0; j < nr; ++j) crow[j] = acc[r][j];
      }
    }
  }
}

}  // namespace

void set_reference_mode(bool on) {
  g_reference_mode.store(on, std::memory_order_relaxed);
}

bool reference_mode() {
  return g_reference_mode.load(std::memory_order_relaxed);
}

void gemm_naive(const float* A, const float* B, float* C, std::int64_t m,
                std::int64_t k, std::int64_t n, bool trans_a, bool trans_b,
                bool accumulate) {
  if (!accumulate) std::fill(C, C + m * n, 0.0F);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t l = 0; l < k; ++l) {
      const float aval = trans_a ? A[l * m + i] : A[i * k + l];
      if (aval == 0.0F) continue;
      const float* brow = trans_b ? nullptr : B + l * n;
      float* crow = C + i * n;
      if (trans_b) {
        for (std::int64_t j = 0; j < n; ++j) {
          crow[j] += aval * B[j * k + l];
        }
      } else {
        for (std::int64_t j = 0; j < n; ++j) {
          crow[j] += aval * brow[j];
        }
      }
    }
  }
}

namespace {

void gemm_dispatch(const float* A, const float* B, float* C, std::int64_t m,
                   std::int64_t k, std::int64_t n, bool trans_a, bool trans_b,
                   bool accumulate) {
  if (reference_mode()) {
    gemm_naive(A, B, C, m, k, n, trans_a, trans_b, accumulate);
    return;
  }
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) std::fill(C, C + m * n, 0.0F);
    return;
  }
  // Skinny outputs: compile-time-width row kernel over B in its natural
  // [k, n] layout (no pack); a trans_b operand is packed back to [k, n].
  if (n <= kSmallNMax && k >= kSmallNMinK) {
    const float* a = A;
    if (trans_a) {
      const auto need = static_cast<std::size_t>(m * k);
      if (tl_pack_a.size() < need) tl_pack_a.resize(need);
      transpose_pack(A, k, m, tl_pack_a.data());
      a = tl_pack_a.data();
    }
    const float* b = B;
    if (trans_b) {
      const auto need = static_cast<std::size_t>(k * n);
      if (tl_pack_b.size() < need) tl_pack_b.resize(need);
      transpose_pack(B, n, k, tl_pack_b.data());
      b = tl_pack_b.data();
    }
    gemm_small_n(a, b, C, m, k, n, accumulate);
    return;
  }
  // Few-row trans_a products in the serial regime read A [k, m] in place
  // instead of paying for a strided transpose pack.
  if (trans_a && m <= kDirectTransAMaxM && 2 * m * k * n < kMinFlopsParallel) {
    const float* b = B;
    if (trans_b) {
      const auto need = static_cast<std::size_t>(k * n);
      if (tl_pack_b.size() < need) tl_pack_b.resize(need);
      transpose_pack(B, n, k, tl_pack_b.data());
      b = tl_pack_b.data();
    }
    gemm_ta_direct(A, b, C, m, k, n, accumulate);
    return;
  }
  // Pack transposed operands into contiguous row-major panels so the inner
  // j-loop always streams unit-stride memory.
  const float* a = A;
  if (trans_a) {
    const auto need = static_cast<std::size_t>(m * k);
    if (tl_pack_a.size() < need) tl_pack_a.resize(need);
    transpose_pack(A, k, m, tl_pack_a.data());
    a = tl_pack_a.data();
  }
  const float* b = B;
  if (trans_b) {
    const auto need = static_cast<std::size_t>(k * n);
    if (tl_pack_b.size() < need) tl_pack_b.resize(need);
    transpose_pack(B, n, k, tl_pack_b.data());
    b = tl_pack_b.data();
  }
  gemm_blocked_nn(a, b, C, m, k, n, accumulate);
}

}  // namespace

void gemm(const float* A, const float* B, float* C, std::int64_t m,
          std::int64_t k, std::int64_t n, bool trans_a, bool trans_b,
          bool accumulate) {
  timed(gemm_hist, [&] {
    gemm_dispatch(A, B, C, m, k, n, trans_a, trans_b, accumulate);
  });
}

namespace {

// Fused attention works on blocks of kSdpaRows query rows (DESIGN.md §7).
// A RowVec holds one float per row of a block, so every vector operation
// below is elementwise across rows and each output element's arithmetic is
// fixed by the source, whatever the target's vector width.
constexpr std::int64_t kSdpaRows = 16;
// Interleaved partial sums per softmax denominator and context element:
// the float lane count of the key-vectorized reductions this kernel
// replaced on AVX-512, so those builds keep their results when lk % 16 == 0.
constexpr std::int64_t kSdpaParts = 16;
typedef float RowVec __attribute__((vector_size(kSdpaRows * sizeof(float))));

// Per-thread attention scratch: K/V panels and per-row-block vectors.
thread_local std::vector<float> tl_sdpa_kv;
thread_local std::vector<RowVec> tl_sdpa_vecs;

/// Grain for `tasks` tasks of `flops_per_task` flops each.
/// As for GEMM, a call under kMinFlopsParallel total flops runs serially
/// (grain = tasks): its fork/join would cost more than the math.
std::size_t task_grain(std::int64_t tasks, std::int64_t flops_per_task) {
  if (tasks * flops_per_task < kMinFlopsParallel) {
    return static_cast<std::size_t>(std::max<std::int64_t>(tasks, 1));
  }
  return static_cast<std::size_t>(std::max<std::int64_t>(
      1, kMinFlopsPerTask / std::max<std::int64_t>(flops_per_task, 1)));
}

/// One head's K and V slices as [dh, lkp] panels. Padded keys get zero K
/// and V, so they add exact zeros to every partial.
void pack_kv(const float* kb, const float* vb, std::int64_t lk,
             std::int64_t lkp, std::int64_t dh, std::int64_t dim, float* kt,
             float* vt) {
  for (std::int64_t d = 0; d < dh; ++d) {
    for (std::int64_t j = 0; j < lkp; ++j) {
      kt[d * lkp + j] = j < lk ? kb[j * dim + d] : 0.0F;
      vt[d * lkp + j] = j < lk ? vb[j * dim + d] : 0.0F;
    }
  }
}

/// dst[d][r] = src[r][d] * mul for the block's rows. Padding rows get
/// zeros, so their lanes stay finite; they are never written out, and no
/// lane reads another.
void load_rows(const float* src, std::int64_t rows, std::int64_t dh,
               std::int64_t dim, float mul, RowVec* dst) {
  for (std::int64_t d = 0; d < dh; ++d) {
    for (std::int64_t r = 0; r < kSdpaRows; ++r) {
      dst[d][r] = r < rows ? src[r * dim + d] * mul : 0.0F;
    }
  }
}

/// Scores s_j = (q_0 scale) k_j0 + ... + (q_dh-1 scale) k_j,dh-1, left to
/// right, for P keys at a time; then + mask (rows of `mask` start at the
/// block's first row). Backward recomputes the scores with this function,
/// so it sees the forward's bits.
void block_scores(const RowVec* qt, const float* kt, std::int64_t dh,
                  std::int64_t lkp, const float* mask, std::int64_t rows,
                  std::int64_t lk, RowVec* et) {
  constexpr std::int64_t P = kSdpaParts;
  for (std::int64_t j0 = 0; j0 < lkp; j0 += P) {
    RowVec s[P];
    for (std::int64_t p = 0; p < P; ++p) s[p] = qt[0] * kt[j0 + p];
    for (std::int64_t d = 1; d < dh; ++d) {
      const float* kd = kt + d * lkp + j0;
      for (std::int64_t p = 0; p < P; ++p) s[p] += qt[d] * kd[p];
    }
    for (std::int64_t p = 0; p < P; ++p) et[j0 + p] = s[p];
  }
  if (mask) {
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* mrow = mask + r * lk;
      for (std::int64_t j = 0; j < lk; ++j) et[j][r] += mrow[j];
    }
  }
}

/// Exponentials in place, e_j = expf(s_j - mx), and zero for padding keys.
/// This file is compiled with glibc's simd declaration for expf enabled
/// (src/nn/CMakeLists.txt), so the call is the vectorized libmvec kernel;
/// expf(-inf) = 0 handles masked keys exactly like the reference softmax.
void block_exp(RowVec* et, std::int64_t lk, std::int64_t lkp,
               const float* mx) {
  for (std::int64_t j = 0; j < lk; ++j) {
    float e[kSdpaRows];
    std::memcpy(e, &et[j], sizeof e);
#pragma omp simd
    for (std::int64_t r = 0; r < kSdpaRows; ++r) e[r] = ::expf(e[r] - mx[r]);
    std::memcpy(&et[j], e, sizeof e);
  }
  std::fill(et + lk, et + lkp, RowVec{});
}

// Sums over keys are taken as P partials: partial p adds the terms of the
// keys j = p (mod P) in key order, and the sum is
// ((0 + p_0) + p_1) + ... + p_P-1. The sum is an out parameter: returning a
// RowVec changes the ABI on builds without AVX-512.

/// sum = Σ_j x_j w_j, with w a [lkp] key row of floats (the same for every
/// row) or of per-row vectors; Σ_j x_j when w is null.
template <typename W>
void key_sum(const RowVec* x, const W* w, std::int64_t lkp, RowVec& sum) {
  constexpr std::int64_t P = kSdpaParts;
  RowVec part[P] = {};
  for (std::int64_t j0 = 0; j0 < lkp; j0 += P) {
    for (std::int64_t p = 0; p < P; ++p) {
      part[p] += w ? x[j0 + p] * w[j0 + p] : x[j0 + p];
    }
  }
  sum = RowVec{};
  for (std::int64_t p = 0; p < P; ++p) sum += part[p];
}

// Dropout works on one key of a row block at a time: lane r of these
// vectors belongs to query row 16 * block + r, like RowVec's.
typedef std::uint64_t LaneU64
    __attribute__((vector_size(kSdpaRows * sizeof(std::uint64_t))));
typedef std::int32_t LaneI32
    __attribute__((vector_size(kSdpaRows * sizeof(std::int32_t))));
constexpr LaneI32 kLaneBit = {1 << 0,  1 << 1,  1 << 2,  1 << 3,
                              1 << 4,  1 << 5,  1 << 6,  1 << 7,
                              1 << 8,  1 << 9,  1 << 10, 1 << 11,
                              1 << 12, 1 << 13, 1 << 14, 1 << 15};

/// Draws the block's keep mask, 16 rows at once: lane r's element of key
/// j has flat index first[r] + j, so its counter steps by kDropoutStride
/// per key. Stores the mask as one 16-bit word per key and zeroes the
/// dropped exponentials (an exact zero; the survivors' 1 / keep rides on
/// the normalizer). Padding rows get clear bits.
void block_dropout(std::uint64_t key, std::uint64_t threshold,
                   const LaneU64& first, std::int64_t rows, std::int64_t lk,
                   std::uint16_t* bits, RowVec* et) {
  LaneI32 valid;
  for (std::int64_t r = 0; r < kSdpaRows; ++r) valid[r] = r < rows ? -1 : 0;
  LaneU64 z = key + first * kDropoutStride;
  for (std::int64_t j = 0; j < lk; ++j, z += kDropoutStride) {
    const LaneI32 kept = -__builtin_convertvector(
        dropout_keep_bit(z, threshold), LaneI32);  // -1 kept, 0 dropped
    et[j] = (RowVec)((LaneI32)et[j] & kept);
    // OR the lanes' bits together, halving the vector each step.
    LaneI32 word = kept & valid & kLaneBit;
    word |= __builtin_shufflevector(word, word, 8, 9, 10, 11, 12, 13, 14, 15,
                                    0, 1, 2, 3, 4, 5, 6, 7);
    word |= __builtin_shufflevector(word, word, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5,
                                    6, 7, 0, 1, 2, 3);
    word |= __builtin_shufflevector(word, word, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3,
                                    0, 1, 2, 3, 0, 1);
    word |= __builtin_shufflevector(word, word, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0,
                                    1, 0, 1, 0, 1, 0);
    bits[j] = static_cast<std::uint16_t>(word[0]);
  }
}

/// The dropout multipliers of a row block from its saved words:
/// mt[j] lane r = 1 / keep if row r kept key j, else 0; padding keys 0.
void block_dropout_multipliers(const std::uint16_t* bits, float inv_keep,
                               std::int64_t lk, std::int64_t lkp,
                               RowVec* mt) {
  std::int32_t inv_keep_bits;
  std::memcpy(&inv_keep_bits, &inv_keep, sizeof inv_keep_bits);
  for (std::int64_t j = 0; j < lk; ++j) {
    const LaneI32 on = ((LaneI32{} + bits[j]) & kLaneBit) != 0;
    mt[j] = (RowVec)(on & inv_keep_bits);
  }
  std::fill(mt + lk, mt + lkp, RowVec{});
}

/// Forward of fused attention. With `saved` it is the training forward:
/// it records each row's max and 1/sum and, when saved->keep < 1, draws
/// and applies the dropout mask (keyed by `key`).
void fused_sdpa_impl(const float* q, const float* k, const float* v,
                     float* out, std::int64_t batch, std::int64_t lq,
                     std::int64_t lk, std::int64_t heads, std::int64_t dim,
                     float scale, const float* mask, SdpaSaved* saved,
                     std::uint64_t key) {
  constexpr std::int64_t R = kSdpaRows;
  constexpr std::int64_t P = kSdpaParts;
  const std::int64_t dh = dim / heads;
  // Keys padded to whole blocks of P.
  const std::int64_t lkp = (lk + P - 1) / P * P;
  const std::int64_t tasks = batch * heads;
  const bool drop = saved != nullptr && saved->keep < 1.0F;
  const std::uint64_t threshold = drop ? dropout_threshold(saved->keep) : 0;
  const float inv_keep = drop ? 1.0F / saved->keep : 1.0F;
  const std::int64_t blocks = (lq + R - 1) / R;
  parallel_for(
      static_cast<std::size_t>(tasks),
      [&](std::size_t t) {
        const auto task = static_cast<std::int64_t>(t);
        const std::int64_t b = task / heads;
        const std::int64_t h = task % heads;
        // This head's K and V panels; per row block, the scaled queries
        // qt[d] and the scores, turned exponentials in place, et[j].
        const auto kv_need = static_cast<std::size_t>(2 * dh * lkp);
        const auto vecs_need = static_cast<std::size_t>(dh + lkp);
        if (tl_sdpa_kv.size() < kv_need) tl_sdpa_kv.resize(kv_need);
        if (tl_sdpa_vecs.size() < vecs_need) tl_sdpa_vecs.resize(vecs_need);
        float* kt = tl_sdpa_kv.data();
        float* vt = kt + dh * lkp;
        RowVec* qt = tl_sdpa_vecs.data();
        RowVec* et = qt + dh;
        const float* qb = q + b * lq * dim + h * dh;
        float* ob = out + b * lq * dim + h * dh;
        pack_kv(k + b * lk * dim + h * dh, v + b * lk * dim + h * dh, lk, lkp,
                dh, dim, kt, vt);
        for (std::int64_t i0 = 0; i0 < lq; i0 += R) {
          const std::int64_t rows = std::min(R, lq - i0);
          load_rows(qb + i0 * dim, rows, dh, dim, scale, qt);
          block_scores(qt, kt, dh, lkp, mask ? mask + i0 * lk : nullptr, rows,
                       lk, et);
          // Row max over the real keys, exact in any order: four running
          // maxima, then folded.
          const float inf = std::numeric_limits<float>::infinity();
          RowVec m[4] = {RowVec{} - inf, RowVec{} - inf, RowVec{} - inf,
                         RowVec{} - inf};
          std::int64_t j = 0;
          for (; j + 4 <= lk; j += 4) {
            for (std::int64_t u = 0; u < 4; ++u) {
              m[u] = m[u] < et[j + u] ? et[j + u] : m[u];
            }
          }
          for (; j < lk; ++j) m[0] = m[0] < et[j] ? et[j] : m[0];
          m[0] = m[0] < m[1] ? m[1] : m[0];
          m[2] = m[2] < m[3] ? m[3] : m[2];
          m[0] = m[0] < m[2] ? m[2] : m[0];
          float mx[R];
          std::memcpy(mx, &m[0], sizeof mx);
          block_exp(et, lk, lkp, mx);
          RowVec inv;
          key_sum<float>(et, nullptr, lkp, inv);
          inv = 1.0F / inv;
          if (saved != nullptr) {
            const std::int64_t row0 = task * lq + i0;
            for (std::int64_t r = 0; r < rows; ++r) {
              saved->row_max[static_cast<std::size_t>(row0 + r)] = mx[r];
              saved->row_inv[static_cast<std::size_t>(row0 + r)] = inv[r];
            }
            if (drop) {
              LaneU64 first;
              for (std::int64_t r = 0; r < R; ++r) {
                first[r] = static_cast<std::uint64_t>((row0 + r) * lk);
              }
              block_dropout(key, threshold, first, rows, lk,
                            saved->keep_bits.data() +
                                (task * blocks + i0 / R) * lk,
                            et);
              inv *= inv_keep;
            }
          }
          // Context element d: Σ_j e_j v_jd in key_sum's order, times 1/sum.
          for (std::int64_t d = 0; d < dh; ++d) {
            RowVec ctx;
            key_sum(et, vt + d * lkp, lkp, ctx);
            ctx *= inv;
            for (std::int64_t r = 0; r < rows; ++r) {
              ob[(i0 + r) * dim + d] = ctx[r];
            }
          }
        }
      },
      // ~4 flops per (i, j, d) triple: QK^T dot plus the PV accumulation.
      task_grain(tasks, 4 * lq * lk * dh));
}

/// Backward of fused_sdpa_impl's training forward (DESIGN.md §7). Per row
/// block it recomputes p_j = e_j / sum from the saved max and 1/sum, then
///   dP~_j = Σ_d g_d v_jd            (g = dout; d order, P keys at a time)
///   dP_j  = dP~_j m_j               (m_j = kept ? 1 / keep : 0)
///   delta = Σ_j p_j dP_j            (key partials)
///   dS_j  = p_j (dP_j - delta)
///   dQ_d  = (Σ_j dS_j k_jd) scale   (key partials)
/// and adds row-lane partials dV_jd += (p_j m_j) g_d and
/// dK_jd += dS_j (q_d scale). Lane r of a partial collects the rows
/// i = r (mod 16) in row order; dK and dV fold the 16 lanes
/// ((0 + l_0) + l_1) + ... + l_15 after the last block.
void fused_sdpa_backward_impl(const float* q, const float* k, const float* v,
                              const float* dout, std::int64_t batch,
                              std::int64_t lq, std::int64_t lk,
                              std::int64_t heads, std::int64_t dim,
                              float scale, const float* mask,
                              const SdpaSaved& saved, float* dq, float* dk,
                              float* dv) {
  constexpr std::int64_t R = kSdpaRows;
  constexpr std::int64_t P = kSdpaParts;
  const std::int64_t dh = dim / heads;
  const std::int64_t lkp = (lk + P - 1) / P * P;
  const std::int64_t tasks = batch * heads;
  const bool drop = !saved.keep_bits.empty();
  const float inv_keep = drop ? 1.0F / saved.keep : 1.0F;
  const std::int64_t blocks = (lq + R - 1) / R;
  parallel_for(
      static_cast<std::size_t>(tasks),
      [&](std::size_t t) {
        const auto task = static_cast<std::int64_t>(t);
        const std::int64_t b = task / heads;
        const std::int64_t h = task % heads;
        // Per row block: scaled queries qt[d], output grads gt[d],
        // probabilities pt[j], dropout multipliers (then p_j m_j) mt[j],
        // and dP turned dS in place, st[j]. Across blocks: the dK and dV
        // lane partials, [dh, lkp] each.
        const auto kv_need = static_cast<std::size_t>(2 * dh * lkp);
        const auto vecs_need =
            static_cast<std::size_t>(2 * dh + 3 * lkp + 2 * dh * lkp);
        if (tl_sdpa_kv.size() < kv_need) tl_sdpa_kv.resize(kv_need);
        if (tl_sdpa_vecs.size() < vecs_need) tl_sdpa_vecs.resize(vecs_need);
        float* kt = tl_sdpa_kv.data();
        float* vt = kt + dh * lkp;
        RowVec* qt = tl_sdpa_vecs.data();
        RowVec* gt = qt + dh;
        RowVec* pt = gt + dh;
        RowVec* mt = pt + lkp;
        RowVec* st = mt + lkp;
        RowVec* acc_dk = st + lkp;
        RowVec* acc_dv = acc_dk + dh * lkp;
        std::fill(acc_dk, acc_dk + 2 * dh * lkp, RowVec{});
        const std::int64_t col = h * dh;
        pack_kv(k + b * lk * dim + col, v + b * lk * dim + col, lk, lkp, dh,
                dim, kt, vt);
        for (std::int64_t i0 = 0; i0 < lq; i0 += R) {
          const std::int64_t rows = std::min(R, lq - i0);
          const std::int64_t row0 = task * lq + i0;
          load_rows(q + (b * lq + i0) * dim + col, rows, dh, dim, scale, qt);
          load_rows(dout + (b * lq + i0) * dim + col, rows, dh, dim, 1.0F, gt);
          block_scores(qt, kt, dh, lkp, mask ? mask + i0 * lk : nullptr, rows,
                       lk, pt);
          // Padding rows get max 0 and 1/sum 0, so their p lanes are zero.
          float mx[R] = {};
          RowVec inv{};
          for (std::int64_t r = 0; r < rows; ++r) {
            mx[r] = saved.row_max[static_cast<std::size_t>(row0 + r)];
            inv[r] = saved.row_inv[static_cast<std::size_t>(row0 + r)];
          }
          block_exp(pt, lk, lkp, mx);
          for (std::int64_t j = 0; j < lkp; ++j) pt[j] *= inv;
          if (drop) {
            block_dropout_multipliers(
                saved.keep_bits.data() + (task * blocks + i0 / R) * lk,
                inv_keep, lk, lkp, mt);
          }
          for (std::int64_t j0 = 0; j0 < lkp; j0 += P) {
            RowVec s[P];
            for (std::int64_t p = 0; p < P; ++p) s[p] = gt[0] * vt[j0 + p];
            for (std::int64_t d = 1; d < dh; ++d) {
              const float* vd = vt + d * lkp + j0;
              for (std::int64_t p = 0; p < P; ++p) s[p] += gt[d] * vd[p];
            }
            for (std::int64_t p = 0; p < P; ++p) {
              st[j0 + p] = drop ? s[p] * mt[j0 + p] : s[p];
            }
          }
          const RowVec* pd = pt;  // the dropped probabilities p_j m_j
          if (drop) {
            for (std::int64_t j = 0; j < lkp; ++j) mt[j] *= pt[j];
            pd = mt;
          }
          for (std::int64_t d = 0; d < dh; ++d) {
            RowVec* acc = acc_dv + d * lkp;
            for (std::int64_t j = 0; j < lkp; ++j) acc[j] += pd[j] * gt[d];
          }
          RowVec delta;
          key_sum(pt, st, lkp, delta);
          for (std::int64_t j = 0; j < lkp; ++j) {
            st[j] = pt[j] * (st[j] - delta);
          }
          for (std::int64_t d = 0; d < dh; ++d) {
            RowVec* acc = acc_dk + d * lkp;
            for (std::int64_t j = 0; j < lkp; ++j) acc[j] += st[j] * qt[d];
          }
          for (std::int64_t d = 0; d < dh; ++d) {
            RowVec g;
            key_sum(st, kt + d * lkp, lkp, g);
            g *= scale;
            for (std::int64_t r = 0; r < rows; ++r) {
              dq[(b * lq + i0 + r) * dim + col + d] = g[r];
            }
          }
        }
        for (std::int64_t j = 0; j < lk; ++j) {
          for (std::int64_t d = 0; d < dh; ++d) {
            float sk = 0.0F;
            float sv = 0.0F;
            for (std::int64_t r = 0; r < R; ++r) {
              sk += acc_dk[d * lkp + j][r];
              sv += acc_dv[d * lkp + j][r];
            }
            dk[(b * lk + j) * dim + col + d] = sk;
            dv[(b * lk + j) * dim + col + d] = sv;
          }
        }
      },
      // ~10 flops per (i, j, d): scores, dP, dV, dK and dQ.
      task_grain(tasks, 10 * lq * lk * dh));
}

}  // namespace

void fused_sdpa(const float* q, const float* k, const float* v, float* out,
                std::int64_t batch, std::int64_t lq, std::int64_t lk,
                std::int64_t heads, std::int64_t dim, float scale,
                const float* mask) {
  timed(sdpa_hist, [&] {
    fused_sdpa_impl(q, k, v, out, batch, lq, lk, heads, dim, scale, mask,
                    nullptr, 0);
  });
}

void fused_sdpa_train(const float* q, const float* k, const float* v,
                      float* out, std::int64_t batch, std::int64_t lq,
                      std::int64_t lk, std::int64_t heads, std::int64_t dim,
                      float scale, const float* mask, float keep,
                      std::uint64_t key, SdpaSaved& saved) {
  const auto rows = static_cast<std::size_t>(batch * heads * lq);
  saved.keep = keep;
  saved.row_max.assign(rows, 0.0F);
  saved.row_inv.assign(rows, 0.0F);
  const std::int64_t blocks = (lq + kSdpaRows - 1) / kSdpaRows;
  saved.keep_bits.assign(
      keep < 1.0F ? static_cast<std::size_t>(batch * heads * blocks * lk) : 0,
      0);
  timed(sdpa_hist, [&] {
    fused_sdpa_impl(q, k, v, out, batch, lq, lk, heads, dim, scale, mask,
                    &saved, key);
  });
}

void fused_sdpa_backward(const float* q, const float* k, const float* v,
                         const float* dout, std::int64_t batch,
                         std::int64_t lq, std::int64_t lk, std::int64_t heads,
                         std::int64_t dim, float scale, const float* mask,
                         const SdpaSaved& saved, float* dq, float* dk,
                         float* dv) {
  timed(sdpa_backward_hist, [&] {
    fused_sdpa_backward_impl(q, k, v, dout, batch, lq, lk, heads, dim, scale,
                             mask, saved, dq, dk, dv);
  });
}

namespace {

// A ConfigVec holds one float per config of a kGridLanes block; every
// vector operation below is elementwise across configs.
typedef float ConfigVec
    __attribute__((vector_size(kGridLanes * sizeof(float))));

// Per-thread head scratch: the rows' E_1 partial chains U [rows, h] (on the
// calling thread), and per task the block's embeddings and output sums.
thread_local std::vector<float> tl_head_u;
thread_local std::vector<ConfigVec> tl_head_vecs;

/// Hidden units j .. j + J - 1 of one config block, given their E_1 chain
/// parts u: the rest of their fc1 chains, bias and ReLU, then their links
/// of every output chain acc[p], in j order. J > 1 only shares the loads of
/// the block's embeddings between units; each unit's arithmetic is the same.
template <int J>
inline void head_units(const float* u, const ConfigVec* ev, std::int64_t fe,
                       const float* w1e, std::int64_t h, const float* b1,
                       const float* w2, std::int64_t o, ConfigVec* acc) {
  ConfigVec z[J];
  for (int q = 0; q < J; ++q) z[q] = u[q] - ConfigVec{};  // broadcast, -0 kept
  for (std::int64_t k = 0; k < fe; ++k) {
    const ConfigVec e = ev[k];
    const float* wk = w1e + k * h;
    for (int q = 0; q < J; ++q) z[q] += e * wk[q];
  }
  for (int q = 0; q < J; ++q) {
    z[q] += b1[q];
    z[q] = z[q] > ConfigVec{} ? z[q] : ConfigVec{};
  }
  for (std::int64_t p = 0; p < o; ++p) {
    ConfigVec y = acc[p];
    for (int q = 0; q < J; ++q) y += z[q] * w2[q * o + p];
    acc[p] = y;
  }
}

/// The summation order, per (row r, config i), with W1 split at row d into
/// W1_x [d, h] and W1_e [fe, h]:
///   U_j   = (((0 + x_0 W1_x[0, j]) + x_1 W1_x[1, j]) + ...) + x_d-1 ...
///   z_j   = ((U_j + e_0 W1_e[0, j]) + ...) + e_fe-1 W1_e[fe-1, j]
///   a_j   = relu(z_j + b1_j)
///   y_p   = (((0 + a_0 W2[0, p]) + a_1 W2[1, p]) + ...) + a_h-1 W2[h-1, p]
///   out_p = y_p + b2_p
/// which is gemm's l-sequential chain over the concatenated input, then the
/// bias add and ReLU of Linear + relu. Whether a link `s + u v` is one
/// fused multiply-add or a rounded product then a sum is the compiler's
/// contraction choice, the same one it makes inside gemm.
void fused_grid_head_impl(const float* x, std::int64_t rows, std::int64_t d,
                          const float* e2t, std::int64_t n, std::int64_t fe,
                          const float* w1, const float* b1, std::int64_t h,
                          const float* w2, const float* b2, std::int64_t o,
                          float* out) {
  constexpr std::int64_t L = kGridLanes;
  const std::int64_t n_pad = (n + L - 1) / L * L;
  const std::int64_t blocks = n_pad / L;
  const auto u_need = static_cast<std::size_t>(rows * h);
  if (tl_head_u.size() < u_need) tl_head_u.resize(u_need);
  float* u = tl_head_u.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    float* ur = u + r * h;
    std::fill(ur, ur + h, 0.0F);
    for (std::int64_t k = 0; k < d; ++k) {
      const float xk = x[r * d + k];
      const float* wk = w1 + k * h;
      for (std::int64_t j = 0; j < h; ++j) ur[j] += xk * wk[j];
    }
  }
  const float* w1e = w1 + d * h;
  const std::int64_t tasks = rows * blocks;
  parallel_for(
      static_cast<std::size_t>(tasks),
      [&](std::size_t t) {
        const std::int64_t r = static_cast<std::int64_t>(t) / blocks;
        const std::int64_t i0 = static_cast<std::int64_t>(t) % blocks * L;
        const auto vecs_need = static_cast<std::size_t>(fe + o);
        if (tl_head_vecs.size() < vecs_need) tl_head_vecs.resize(vecs_need);
        ConfigVec* ev = tl_head_vecs.data();
        ConfigVec* acc = ev + fe;
        for (std::int64_t k = 0; k < fe; ++k) {
          std::memcpy(&ev[k], e2t + k * n_pad + i0, sizeof(ConfigVec));
        }
        std::fill(acc, acc + o, ConfigVec{});
        const float* ur = u + r * h;
        std::int64_t j = 0;
        for (; j + 4 <= h; j += 4) {
          head_units<4>(ur + j, ev, fe, w1e + j, h, b1 + j, w2 + j * o, o,
                        acc);
        }
        for (; j < h; ++j) {
          head_units<1>(ur + j, ev, fe, w1e + j, h, b1 + j, w2 + j * o, o,
                        acc);
        }
        const std::int64_t valid = std::min(L, n - i0);
        float* orow = out + (r * n + i0) * o;
        for (std::int64_t p = 0; p < o; ++p) {
          const ConfigVec y = acc[p] + b2[p];
          for (std::int64_t c = 0; c < valid; ++c) orow[c * o + p] = y[c];
        }
      },
      task_grain(tasks, 2 * L * (fe * h + h * o)));
}

}  // namespace

void fused_grid_head(const float* x, std::int64_t rows, std::int64_t d,
                     const float* e2t, std::int64_t n, std::int64_t fe,
                     const float* w1, const float* b1, std::int64_t h,
                     const float* w2, const float* b2, std::int64_t o,
                     float* out) {
  timed(grid_head_hist, [&] {
    fused_grid_head_impl(x, rows, d, e2t, n, fe, w1, b1, h, w2, b2, o, out);
  });
}

void gemm_f16w(const float* A, const std::uint16_t* B, float* C,
               std::int64_t m, std::int64_t k, std::int64_t n,
               bool accumulate) {
  const auto need = static_cast<std::size_t>(k * n);
  if (tl_f16_b.size() < need) tl_f16_b.resize(need);
  float* panel = tl_f16_b.data();
  for (std::size_t i = 0; i < need; ++i) panel[i] = fp16_to_fp32(B[i]);
  gemm(A, panel, C, m, k, n, false, false, accumulate);
}

}  // namespace deepbat::nn::kernels
