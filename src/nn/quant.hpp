#pragma once
// Reduced-precision weight storage for inference (DESIGN.md §12): the IEEE
// binary16 ("fp16 storage") form of a row-major [in, out] weight matrix,
// plus the linear-layer entry point that pairs it with gemm_f16w in
// kernels.cpp.
//
// Weights are stored as binary16 and expanded to fp32 inside the GEMM;
// arithmetic stays fp32, so the only error is the one-time
// round-to-nearest-even of each weight (~2^-11 relative). The fp32 GEMM is
// row-local, so a row's result never depends on what else is in the batch
// — which is what keeps batched fp16 scoring bit-identical to solo scoring
// (shard invariance).

#include <cstdint>
#include <span>
#include <vector>

#include "nn/tensor.hpp"

namespace deepbat::nn {

/// Binary16 image of a [rows, cols] float matrix (storage-only fp16).
struct HalfMatrix {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::vector<std::uint16_t> data;  // [rows, cols] row-major

  static HalfMatrix from_tensor(const Tensor& w);

  Tensor dequantize() const;
};

/// out[x_rows, w.cols] = x * dequant(w) (+ bias) with fp16-stored weights;
/// math runs in fp32 on the expanded panel.
void half_linear(std::span<const float> x, std::int64_t x_rows,
                 const HalfMatrix& w, std::span<const float> bias,
                 std::span<float> out);

}  // namespace deepbat::nn
