#include "nn/quant.hpp"

#include "common/error.hpp"
#include "nn/kernels.hpp"

namespace deepbat::nn {

HalfMatrix HalfMatrix::from_tensor(const Tensor& w) {
  DEEPBAT_CHECK(w.ndim() == 2, "HalfMatrix: weight must be 2-D");
  HalfMatrix h;
  h.rows = w.dim(0);
  h.cols = w.dim(1);
  const auto count = static_cast<std::size_t>(h.rows * h.cols);
  h.data.resize(count);
  const float* src = w.data();
  for (std::size_t i = 0; i < count; ++i) {
    h.data[i] = kernels::fp32_to_fp16(src[i]);
  }
  return h;
}

Tensor HalfMatrix::dequantize() const {
  Tensor out({rows, cols});
  float* dst = out.data();
  const auto count = static_cast<std::size_t>(rows * cols);
  for (std::size_t i = 0; i < count; ++i) {
    dst[i] = kernels::fp16_to_fp32(data[i]);
  }
  return out;
}

void half_linear(std::span<const float> x, std::int64_t x_rows,
                 const HalfMatrix& w, std::span<const float> bias,
                 std::span<float> out) {
  const std::int64_t k = w.rows;
  const std::int64_t n = w.cols;
  DEEPBAT_CHECK(static_cast<std::int64_t>(x.size()) == x_rows * k,
                "half_linear: input size mismatch");
  DEEPBAT_CHECK(static_cast<std::int64_t>(out.size()) == x_rows * n,
                "half_linear: output size mismatch");
  DEEPBAT_CHECK(bias.empty() || static_cast<std::int64_t>(bias.size()) == n,
                "half_linear: bias size mismatch");
  kernels::gemm_f16w(x.data(), w.data.data(), out.data(), x_rows, k, n,
                     /*accumulate=*/false);
  if (!bias.empty()) {
    for (std::int64_t r = 0; r < x_rows; ++r) {
      float* row = out.data() + r * n;
      for (std::int64_t j = 0; j < n; ++j) row[j] += bias[j];
    }
  }
}

}  // namespace deepbat::nn
