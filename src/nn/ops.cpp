#include "nn/ops.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "nn/kernels.hpp"

namespace deepbat::nn {

namespace {

/// True if `suffix` equals the trailing dimensions of `shape`.
bool is_suffix(const Shape& suffix, const Shape& shape) {
  if (suffix.size() > shape.size()) return false;
  const std::size_t offset = shape.size() - suffix.size();
  for (std::size_t i = 0; i < suffix.size(); ++i) {
    if (suffix[i] != shape[offset + i]) return false;
  }
  return true;
}

void check_broadcast(const Var& a, const Var& b, const char* op) {
  DEEPBAT_CHECK(a && b, std::string(op) + ": null operand");
  DEEPBAT_CHECK(is_suffix(b->value.shape(), a->value.shape()),
                std::string(op) + ": shape " +
                    shape_to_string(b->value.shape()) +
                    " is not a suffix of " +
                    shape_to_string(a->value.shape()));
}

/// Reduce a gradient of `full` shape onto the broadcast (suffix) shape of
/// `small` by summing over the leading dimensions.
Tensor reduce_to_suffix(const Tensor& grad_full, const Tensor& small) {
  Tensor out = Tensor::zeros(small.shape());
  const std::int64_t inner = small.numel();
  const std::int64_t reps = grad_full.numel() / std::max<std::int64_t>(inner, 1);
  const float* g = grad_full.data();
  float* o = out.data();
  for (std::int64_t r = 0; r < reps; ++r) {
    const float* row = g + r * inner;
    for (std::int64_t i = 0; i < inner; ++i) o[i] += row[i];
  }
  return out;
}

/// Generic elementwise binary op with suffix broadcast. `fwd(x, y)` computes
/// the value; `dfdx`/`dfdy` compute local partials given (x, y).
template <typename Fwd, typename DfDx, typename DfDy>
Var binary_suffix_op(const Var& a, const Var& b, Fwd fwd, DfDx dfdx, DfDy dfdy,
                     const char* name) {
  check_broadcast(a, b, name);
  const Tensor& av = a->value;
  const Tensor& bv = b->value;
  Tensor out(av.shape());
  const std::int64_t inner = bv.numel();
  const std::int64_t n = av.numel();
  const float* ap = av.data();
  const float* bp = bv.data();
  float* op = out.data();
  // Suffix broadcast means n is an exact multiple of inner: iterate in
  // blocks instead of paying an integer modulo per element.
  for (std::int64_t base = 0; base < n; base += inner) {
    for (std::int64_t j = 0; j < inner; ++j) {
      op[base + j] = fwd(ap[base + j], bp[j]);
    }
  }
  return make_node(
      std::move(out), {a, b},
      [a, b, dfdx, dfdy](Node& self) {
        const Tensor& av2 = a->value;
        const Tensor& bv2 = b->value;
        const std::int64_t inner2 = bv2.numel();
        const std::int64_t n2 = av2.numel();
        const float* g = self.grad.data();
        const float* ap2 = av2.data();
        const float* bp2 = bv2.data();
        if (a->requires_grad) {
          Tensor ga(av2.shape());
          float* gp = ga.data();
          for (std::int64_t i = 0; i < n2; ++i) {
            gp[i] = g[i] * dfdx(ap2[i], bp2[i % inner2]);
          }
          a->accumulate_grad(ga);
        }
        if (b->requires_grad) {
          Tensor gb_full(av2.shape());
          float* gp = gb_full.data();
          for (std::int64_t i = 0; i < n2; ++i) {
            gp[i] = g[i] * dfdy(ap2[i], bp2[i % inner2]);
          }
          b->accumulate_grad(reduce_to_suffix(gb_full, bv2));
        }
      },
      name);
}

/// Generic elementwise unary op.
template <typename Fwd, typename Dfdx>
Var unary_op(const Var& a, Fwd fwd, Dfdx dfdx, const char* name) {
  DEEPBAT_CHECK(a != nullptr, std::string(name) + ": null operand");
  const Tensor& av = a->value;
  Tensor out(av.shape());
  const float* ap = av.data();
  float* op = out.data();
  const std::int64_t n = av.numel();
  for (std::int64_t i = 0; i < n; ++i) op[i] = fwd(ap[i]);
  return make_node(
      std::move(out), {a},
      [a, dfdx](Node& self) {
        if (!a->requires_grad) return;
        const std::int64_t n2 = a->value.numel();
        Tensor ga(a->value.shape());
        const float* g = self.grad.data();
        const float* ap2 = a->value.data();
        float* gp = ga.data();
        for (std::int64_t i = 0; i < n2; ++i) gp[i] = g[i] * dfdx(ap2[i]);
        a->accumulate_grad(ga);
      },
      name);
}

/// Grain for a parallel loop whose iterations each cost `flops_per_item`
/// floating-point operations: enough items per task to amortize fork/join.
std::size_t flops_grain(std::int64_t flops_per_item) {
  return static_cast<std::size_t>(std::max<std::int64_t>(
      1, kernels::kMinFlopsPerTask /
             std::max<std::int64_t>(flops_per_item, 1)));
}

struct MatmulDims {
  std::int64_t batch;  // product of leading dims of A
  std::int64_t m;
  std::int64_t k;
  std::int64_t n;
  bool shared_b;  // B is 2-D (a weight matrix shared across the batch)
};

MatmulDims matmul_dims(const Tensor& a, const Tensor& b) {
  DEEPBAT_CHECK(a.ndim() >= 2, "matmul: A must have rank >= 2");
  MatmulDims d{};
  d.m = a.dim(-2);
  d.k = a.dim(-1);
  d.batch = a.numel() / (d.m * d.k);
  if (b.ndim() == 2) {
    d.shared_b = true;
    DEEPBAT_CHECK(b.dim(0) == d.k, "matmul: inner dimension mismatch " +
                                       shape_to_string(a.shape()) + " x " +
                                       shape_to_string(b.shape()));
    d.n = b.dim(1);
  } else {
    d.shared_b = false;
    DEEPBAT_CHECK(b.ndim() == a.ndim(),
                  "matmul: rank mismatch for batched product");
    for (std::int64_t i = 0; i + 2 < a.ndim(); ++i) {
      DEEPBAT_CHECK(a.dim(i) == b.dim(i), "matmul: batch dims mismatch");
    }
    DEEPBAT_CHECK(b.dim(-2) == d.k, "matmul: inner dimension mismatch " +
                                        shape_to_string(a.shape()) + " x " +
                                        shape_to_string(b.shape()));
    d.n = b.dim(-1);
  }
  return d;
}

}  // namespace

Var add(const Var& a, const Var& b) {
  return binary_suffix_op(
      a, b, [](float x, float y) { return x + y; },
      [](float, float) { return 1.0F; }, [](float, float) { return 1.0F; },
      "add");
}

Var sub(const Var& a, const Var& b) {
  return binary_suffix_op(
      a, b, [](float x, float y) { return x - y; },
      [](float, float) { return 1.0F; }, [](float, float) { return -1.0F; },
      "sub");
}

Var mul(const Var& a, const Var& b) {
  return binary_suffix_op(
      a, b, [](float x, float y) { return x * y; },
      [](float, float y) { return y; }, [](float x, float) { return x; },
      "mul");
}

Var scale(const Var& a, float s) {
  return unary_op(
      a, [s](float x) { return s * x; }, [s](float) { return s; }, "scale");
}

Var add_scalar(const Var& a, float s) {
  return unary_op(
      a, [s](float x) { return x + s; }, [](float) { return 1.0F; },
      "add_scalar");
}

Var neg(const Var& a) { return scale(a, -1.0F); }

Var matmul(const Var& a, const Var& b) {
  DEEPBAT_CHECK(a && b, "matmul: null operand");
  const Tensor& av = a->value;
  const Tensor& bv = b->value;
  const MatmulDims d = matmul_dims(av, bv);

  Shape out_shape(av.shape().begin(), av.shape().end() - 1);
  out_shape.push_back(d.n);
  Tensor out(std::move(out_shape));

  const float* ap = av.data();
  const float* bp = bv.data();
  float* op = out.data();
  if (d.shared_b) {
    // Weight matmul: the whole batch collapses into one [batch*m, k] x
    // [k, n] product, letting the kernel parallelize over row blocks.
    kernels::gemm(ap, bp, op, d.batch * d.m, d.k, d.n, false, false, false);
  } else {
    parallel_for(
        static_cast<std::size_t>(d.batch),
        [&](std::size_t bi) {
          kernels::gemm(ap + bi * d.m * d.k, bp + bi * d.k * d.n,
                        op + bi * d.m * d.n, d.m, d.k, d.n, false, false,
                        false);
        },
        flops_grain(2 * d.m * d.k * d.n));
  }

  return make_node(
      std::move(out), {a, b},
      [a, b, d](Node& self) {
        const float* g = self.grad.data();
        const float* ap2 = a->value.data();
        const float* bp2 = b->value.data();
        if (a->requires_grad) {
          // dA = dC * B^T, per batch (one collapsed product when B is
          // shared across the batch).
          Tensor ga(a->value.shape());
          float* gap = ga.data();
          if (d.shared_b) {
            kernels::gemm(g, bp2, gap, d.batch * d.m, d.n, d.k, false, true,
                          false);
          } else {
            parallel_for(
                static_cast<std::size_t>(d.batch),
                [&](std::size_t bi) {
                  kernels::gemm(g + bi * d.m * d.n, bp2 + bi * d.k * d.n,
                                gap + bi * d.m * d.k, d.m, d.n, d.k, false,
                                true, false);
                },
                flops_grain(2 * d.m * d.n * d.k));
          }
          a->accumulate_grad(ga);
        }
        if (b->requires_grad) {
          Tensor gb(b->value.shape());
          float* gbp = gb.data();
          if (d.shared_b) {
            // dB = sum_batches A_b^T * dC_b = A_flat^T [k, batch*m] *
            // dC_flat [batch*m, n]: a single transposed product whose inner
            // reduction order is fixed, so it stays deterministic.
            kernels::gemm(ap2, g, gbp, d.k, d.batch * d.m, d.n, true, false,
                          false);
          } else {
            parallel_for(
                static_cast<std::size_t>(d.batch),
                [&](std::size_t bi) {
                  kernels::gemm(ap2 + bi * d.m * d.k, g + bi * d.m * d.n,
                                gbp + bi * d.k * d.n, d.k, d.m, d.n, true,
                                false, false);
                },
                flops_grain(2 * d.k * d.m * d.n));
          }
          b->accumulate_grad(gb);
        }
      },
      "matmul");
}

namespace {

Tensor transpose_last_tensor(const Tensor& t) {
  DEEPBAT_CHECK(t.ndim() >= 2, "transpose_last: rank < 2");
  Shape s = t.shape();
  std::swap(s[s.size() - 1], s[s.size() - 2]);
  Tensor out(std::move(s));
  const std::int64_t rows = t.dim(-2);
  const std::int64_t cols = t.dim(-1);
  const std::int64_t batch = t.numel() / (rows * cols);
  const float* src = t.data();
  float* dst = out.data();
  for (std::int64_t b = 0; b < batch; ++b) {
    const float* sm = src + b * rows * cols;
    float* dm = dst + b * rows * cols;
    for (std::int64_t i = 0; i < rows; ++i) {
      for (std::int64_t j = 0; j < cols; ++j) {
        dm[j * rows + i] = sm[i * cols + j];
      }
    }
  }
  return out;
}

Tensor permute_0213_tensor(const Tensor& t) {
  DEEPBAT_CHECK(t.ndim() == 4, "permute_0213: rank must be 4");
  const std::int64_t d0 = t.dim(0), d1 = t.dim(1), d2 = t.dim(2),
                     d3 = t.dim(3);
  Tensor out(Shape{d0, d2, d1, d3});
  const float* src = t.data();
  float* dst = out.data();
  for (std::int64_t i = 0; i < d0; ++i) {
    for (std::int64_t j = 0; j < d1; ++j) {
      for (std::int64_t k = 0; k < d2; ++k) {
        const float* s = src + ((i * d1 + j) * d2 + k) * d3;
        float* d = dst + ((i * d2 + k) * d1 + j) * d3;
        std::copy(s, s + d3, d);
      }
    }
  }
  return out;
}

}  // namespace

Var transpose_last(const Var& a) {
  DEEPBAT_CHECK(a != nullptr, "transpose_last: null operand");
  return make_node(
      transpose_last_tensor(a->value), {a},
      [a](Node& self) {
        if (!a->requires_grad) return;
        a->accumulate_grad(transpose_last_tensor(self.grad));
      },
      "transpose_last");
}

Var permute_0213(const Var& a) {
  DEEPBAT_CHECK(a != nullptr, "permute_0213: null operand");
  return make_node(
      permute_0213_tensor(a->value), {a},
      [a](Node& self) {
        if (!a->requires_grad) return;
        a->accumulate_grad(permute_0213_tensor(self.grad));
      },
      "permute_0213");
}

Var relu(const Var& a) {
  return unary_op(
      a, [](float x) { return x > 0.0F ? x : 0.0F; },
      [](float x) { return x > 0.0F ? 1.0F : 0.0F; }, "relu");
}

Var sigmoid(const Var& a) {
  return unary_op(
      a,
      [](float x) { return 1.0F / (1.0F + std::exp(-x)); },
      [](float x) {
        const float s = 1.0F / (1.0F + std::exp(-x));
        return s * (1.0F - s);
      },
      "sigmoid");
}

Var tanh_op(const Var& a) {
  return unary_op(
      a, [](float x) { return std::tanh(x); },
      [](float x) {
        const float t = std::tanh(x);
        return 1.0F - t * t;
      },
      "tanh");
}

Var softmax_last(const Var& a) {
  DEEPBAT_CHECK(a != nullptr, "softmax_last: null operand");
  const Tensor& av = a->value;
  DEEPBAT_CHECK(av.ndim() >= 1, "softmax_last: rank 0 input");
  const std::int64_t cols = av.dim(-1);
  const std::int64_t rows = av.numel() / cols;
  Tensor out(av.shape());
  const float* src = av.data();
  float* dst = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* in = src + r * cols;
    float* o = dst + r * cols;
    float mx = in[0];
    for (std::int64_t c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
    float sum = 0.0F;
    for (std::int64_t c = 0; c < cols; ++c) {
      o[c] = std::exp(in[c] - mx);
      sum += o[c];
    }
    const float inv = 1.0F / sum;
    for (std::int64_t c = 0; c < cols; ++c) o[c] *= inv;
  }
  return make_node(
      std::move(out), {a},
      [a, rows, cols](Node& self) {
        if (!a->requires_grad) return;
        // dX = Y * (dY - sum(dY * Y)) per row.
        Tensor ga(a->value.shape());
        const float* y = self.value.data();
        const float* g = self.grad.data();
        float* gp = ga.data();
        for (std::int64_t r = 0; r < rows; ++r) {
          const float* yr = y + r * cols;
          const float* gr = g + r * cols;
          float* gpr = gp + r * cols;
          float dot = 0.0F;
          for (std::int64_t c = 0; c < cols; ++c) dot += gr[c] * yr[c];
          for (std::int64_t c = 0; c < cols; ++c) {
            gpr[c] = yr[c] * (gr[c] - dot);
          }
        }
        a->accumulate_grad(ga);
      },
      "softmax_last");
}

Var layer_norm(const Var& x, const Var& gamma, const Var& beta, float eps) {
  DEEPBAT_CHECK(x && gamma && beta, "layer_norm: null operand");
  const Tensor& xv = x->value;
  const std::int64_t cols = xv.dim(-1);
  DEEPBAT_CHECK(gamma->value.ndim() == 1 && gamma->value.dim(0) == cols,
                "layer_norm: gamma shape mismatch");
  DEEPBAT_CHECK(beta->value.ndim() == 1 && beta->value.dim(0) == cols,
                "layer_norm: beta shape mismatch");
  const std::int64_t rows = xv.numel() / cols;

  Tensor out(xv.shape());
  // Cache normalized values and inverse stddevs for the backward pass.
  auto xhat = std::make_shared<Tensor>(xv.shape());
  auto inv_std = std::make_shared<std::vector<float>>(
      static_cast<std::size_t>(rows));

  const float* src = xv.data();
  const float* gm = gamma->value.data();
  const float* bt = beta->value.data();
  float* dst = out.data();
  float* xh = xhat->data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* in = src + r * cols;
    float mean = 0.0F;
    for (std::int64_t c = 0; c < cols; ++c) mean += in[c];
    mean /= static_cast<float>(cols);
    float var = 0.0F;
    for (std::int64_t c = 0; c < cols; ++c) {
      const float d = in[c] - mean;
      var += d * d;
    }
    var /= static_cast<float>(cols);
    const float istd = 1.0F / std::sqrt(var + eps);
    (*inv_std)[static_cast<std::size_t>(r)] = istd;
    float* o = dst + r * cols;
    float* h = xh + r * cols;
    for (std::int64_t c = 0; c < cols; ++c) {
      h[c] = (in[c] - mean) * istd;
      o[c] = h[c] * gm[c] + bt[c];
    }
  }

  return make_node(
      std::move(out), {x, gamma, beta},
      [x, gamma, beta, xhat, inv_std, rows, cols](Node& self) {
        const float* g = self.grad.data();
        const float* h = xhat->data();
        const float* gm = gamma->value.data();
        if (gamma->requires_grad) {
          Tensor gg(gamma->value.shape());
          float* ggp = gg.data();
          for (std::int64_t r = 0; r < rows; ++r) {
            for (std::int64_t c = 0; c < cols; ++c) {
              ggp[c] += g[r * cols + c] * h[r * cols + c];
            }
          }
          gamma->accumulate_grad(gg);
        }
        if (beta->requires_grad) {
          Tensor gb(beta->value.shape());
          float* gbp = gb.data();
          for (std::int64_t r = 0; r < rows; ++r) {
            for (std::int64_t c = 0; c < cols; ++c) {
              gbp[c] += g[r * cols + c];
            }
          }
          beta->accumulate_grad(gb);
        }
        if (x->requires_grad) {
          Tensor gx(x->value.shape());
          float* gxp = gx.data();
          const float n = static_cast<float>(cols);
          for (std::int64_t r = 0; r < rows; ++r) {
            const float* gr = g + r * cols;
            const float* hr = h + r * cols;
            float* gxr = gxp + r * cols;
            float sum_dxhat = 0.0F;
            float sum_dxhat_h = 0.0F;
            for (std::int64_t c = 0; c < cols; ++c) {
              const float dxhat = gr[c] * gm[c];
              sum_dxhat += dxhat;
              sum_dxhat_h += dxhat * hr[c];
            }
            const float istd = (*inv_std)[static_cast<std::size_t>(r)];
            for (std::int64_t c = 0; c < cols; ++c) {
              const float dxhat = gr[c] * gm[c];
              gxr[c] =
                  istd * (dxhat - sum_dxhat / n - hr[c] * sum_dxhat_h / n);
            }
          }
          x->accumulate_grad(gx);
        }
      },
      "layer_norm");
}

Var dropout(const Var& a, float p, bool training, Rng& rng) {
  DEEPBAT_CHECK(a != nullptr, "dropout: null operand");
  DEEPBAT_CHECK(p >= 0.0F && p < 1.0F, "dropout: p must be in [0, 1)");
  if (!training || p == 0.0F) return a;
  const Tensor& av = a->value;
  auto mask = std::make_shared<Tensor>(av.shape());
  const float keep = 1.0F - p;
  const float inv_keep = 1.0F / keep;
  // One key per call; element i's fate is a pure function of (key, i).
  const std::uint64_t key = rng.next_u64();
  const std::uint64_t threshold = kernels::dropout_threshold(keep);
  float* mp = mask->data();
  const float* ap = av.data();
  Tensor out(av.shape());
  float* op = out.data();
  for (std::int64_t i = 0; i < av.numel(); ++i) {
    mp[i] = kernels::dropout_keep(key, static_cast<std::uint64_t>(i), threshold)
                ? inv_keep
                : 0.0F;
    op[i] = ap[i] * mp[i];
  }
  return make_node(
      std::move(out), {a},
      [a, mask](Node& self) {
        if (!a->requires_grad) return;
        Tensor ga(a->value.shape());
        const float* g = self.grad.data();
        const float* mp2 = mask->data();
        float* gp = ga.data();
        for (std::int64_t i = 0; i < ga.numel(); ++i) gp[i] = g[i] * mp2[i];
        a->accumulate_grad(ga);
      },
      "dropout");
}

Var reshape(const Var& a, Shape new_shape) {
  DEEPBAT_CHECK(a != nullptr, "reshape: null operand");
  const Shape old_shape = a->value.shape();
  return make_node(
      a->value.reshape(std::move(new_shape)), {a},
      [a, old_shape](Node& self) {
        if (!a->requires_grad) return;
        a->accumulate_grad(self.grad.reshape(old_shape));
      },
      "reshape");
}

Var mean_axis1(const Var& a) {
  DEEPBAT_CHECK(a != nullptr, "mean_axis1: null operand");
  const Tensor& av = a->value;
  DEEPBAT_CHECK(av.ndim() == 3, "mean_axis1: expected [B, L, D]");
  const std::int64_t B = av.dim(0), L = av.dim(1), D = av.dim(2);
  Tensor out(Shape{B, D});
  const float* src = av.data();
  float* dst = out.data();
  const float inv = 1.0F / static_cast<float>(L);
  for (std::int64_t b = 0; b < B; ++b) {
    for (std::int64_t l = 0; l < L; ++l) {
      const float* row = src + (b * L + l) * D;
      float* o = dst + b * D;
      for (std::int64_t d = 0; d < D; ++d) o[d] += row[d] * inv;
    }
  }
  return make_node(
      std::move(out), {a},
      [a, B, L, D, inv](Node& self) {
        if (!a->requires_grad) return;
        Tensor ga(a->value.shape());
        const float* g = self.grad.data();
        float* gp = ga.data();
        for (std::int64_t b = 0; b < B; ++b) {
          const float* grow = g + b * D;
          for (std::int64_t l = 0; l < L; ++l) {
            float* row = gp + (b * L + l) * D;
            for (std::int64_t d = 0; d < D; ++d) row[d] = grow[d] * inv;
          }
        }
        a->accumulate_grad(ga);
      },
      "mean_axis1");
}

Var select_axis1(const Var& a, std::int64_t t) {
  DEEPBAT_CHECK(a != nullptr, "select_axis1: null operand");
  const Tensor& av = a->value;
  DEEPBAT_CHECK(av.ndim() == 3, "select_axis1: expected [B, L, D]");
  const std::int64_t B = av.dim(0), L = av.dim(1), D = av.dim(2);
  DEEPBAT_CHECK(t >= 0 && t < L, "select_axis1: index out of range");
  Tensor out(Shape{B, D});
  const float* src = av.data();
  float* dst = out.data();
  for (std::int64_t b = 0; b < B; ++b) {
    std::copy(src + (b * L + t) * D, src + (b * L + t) * D + D, dst + b * D);
  }
  return make_node(
      std::move(out), {a},
      [a, B, L, D, t](Node& self) {
        if (!a->requires_grad) return;
        Tensor ga(a->value.shape());
        const float* g = self.grad.data();
        float* gp = ga.data();
        for (std::int64_t b = 0; b < B; ++b) {
          std::copy(g + b * D, g + (b + 1) * D, gp + (b * L + t) * D);
        }
        a->accumulate_grad(ga);
      },
      "select_axis1");
}

Var concat_last(const Var& a, const Var& b) {
  DEEPBAT_CHECK(a && b, "concat_last: null operand");
  const Tensor& av = a->value;
  const Tensor& bv = b->value;
  DEEPBAT_CHECK(av.ndim() == bv.ndim(), "concat_last: rank mismatch");
  for (std::int64_t i = 0; i + 1 < av.ndim(); ++i) {
    DEEPBAT_CHECK(av.dim(i) == bv.dim(i), "concat_last: leading dim mismatch");
  }
  const std::int64_t da = av.dim(-1);
  const std::int64_t db = bv.dim(-1);
  Shape out_shape = av.shape();
  out_shape.back() = da + db;
  Tensor out(std::move(out_shape));
  const std::int64_t rows = av.numel() / da;
  const float* ap = av.data();
  const float* bp = bv.data();
  float* op = out.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    std::copy(ap + r * da, ap + (r + 1) * da, op + r * (da + db));
    std::copy(bp + r * db, bp + (r + 1) * db, op + r * (da + db) + da);
  }
  return make_node(
      std::move(out), {a, b},
      [a, b, da, db, rows](Node& self) {
        const float* g = self.grad.data();
        if (a->requires_grad) {
          Tensor ga(a->value.shape());
          float* gp = ga.data();
          for (std::int64_t r = 0; r < rows; ++r) {
            std::copy(g + r * (da + db), g + r * (da + db) + da, gp + r * da);
          }
          a->accumulate_grad(ga);
        }
        if (b->requires_grad) {
          Tensor gb(b->value.shape());
          float* gp = gb.data();
          for (std::int64_t r = 0; r < rows; ++r) {
            std::copy(g + r * (da + db) + da, g + (r + 1) * (da + db),
                      gp + r * db);
          }
          b->accumulate_grad(gb);
        }
      },
      "concat_last");
}

Var concat_axis1(const Var& a, const Var& b) {
  DEEPBAT_CHECK(a && b, "concat_axis1: null operand");
  const Tensor& av = a->value;
  const Tensor& bv = b->value;
  DEEPBAT_CHECK(av.ndim() == 3 && bv.ndim() == 3,
                "concat_axis1: expected 3-D tensors");
  DEEPBAT_CHECK(av.dim(0) == bv.dim(0) && av.dim(2) == bv.dim(2),
                "concat_axis1: batch/feature dims must match");
  const std::int64_t B = av.dim(0);
  const std::int64_t La = av.dim(1);
  const std::int64_t Lb = bv.dim(1);
  const std::int64_t D = av.dim(2);
  Tensor out(Shape{B, La + Lb, D});
  const float* ap = av.data();
  const float* bp = bv.data();
  float* op = out.data();
  for (std::int64_t i = 0; i < B; ++i) {
    std::copy(ap + i * La * D, ap + (i + 1) * La * D,
              op + i * (La + Lb) * D);
    std::copy(bp + i * Lb * D, bp + (i + 1) * Lb * D,
              op + i * (La + Lb) * D + La * D);
  }
  return make_node(
      std::move(out), {a, b},
      [a, b, B, La, Lb, D](Node& self) {
        const float* g = self.grad.data();
        if (a->requires_grad) {
          Tensor ga(a->value.shape());
          float* gp = ga.data();
          for (std::int64_t i = 0; i < B; ++i) {
            std::copy(g + i * (La + Lb) * D, g + i * (La + Lb) * D + La * D,
                      gp + i * La * D);
          }
          a->accumulate_grad(ga);
        }
        if (b->requires_grad) {
          Tensor gb(b->value.shape());
          float* gp = gb.data();
          for (std::int64_t i = 0; i < B; ++i) {
            std::copy(g + i * (La + Lb) * D + La * D,
                      g + (i + 1) * (La + Lb) * D, gp + i * Lb * D);
          }
          b->accumulate_grad(gb);
        }
      },
      "concat_axis1");
}

Var sum_all(const Var& a) {
  DEEPBAT_CHECK(a != nullptr, "sum_all: null operand");
  Tensor out(Shape{1});
  out.at(0) = static_cast<float>(a->value.sum());
  return make_node(
      std::move(out), {a},
      [a](Node& self) {
        if (!a->requires_grad) return;
        Tensor ga = Tensor::full(a->value.shape(), self.grad.at(0));
        a->accumulate_grad(ga);
      },
      "sum_all");
}

Var mean_all(const Var& a) {
  DEEPBAT_CHECK(a != nullptr, "mean_all: null operand");
  const auto n = static_cast<float>(a->value.numel());
  return scale(sum_all(a), 1.0F / n);
}

namespace {

void check_loss_inputs(const Var& pred, const Var& target, const Var& weights,
                       const char* name) {
  DEEPBAT_CHECK(pred && target, std::string(name) + ": null operand");
  DEEPBAT_CHECK(pred->value.shape() == target->value.shape(),
                std::string(name) + ": pred/target shape mismatch");
  if (weights) {
    DEEPBAT_CHECK(weights->value.shape() == pred->value.shape(),
                  std::string(name) + ": weights shape mismatch");
  }
}

}  // namespace

Var huber_loss(const Var& pred, const Var& target, float delta,
               const Var& weights) {
  check_loss_inputs(pred, target, weights, "huber_loss");
  const std::int64_t n = pred->value.numel();
  const float* p = pred->value.data();
  const float* t = target->value.data();
  const float* w = weights ? weights->value.data() : nullptr;
  double total = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const float r = p[i] - t[i];
    const float ar = std::abs(r);
    const float l = ar <= delta ? 0.5F * r * r : delta * (ar - 0.5F * delta);
    total += (w ? w[i] : 1.0F) * l;
  }
  Tensor out(Shape{1});
  out.at(0) = static_cast<float>(total / static_cast<double>(n));
  std::vector<Var> parents{pred, target};
  if (weights) parents.push_back(weights);
  return make_node(
      std::move(out), std::move(parents),
      [pred, target, weights, delta, n](Node& self) {
        if (!pred->requires_grad) return;  // targets/weights are constants
        const float gscale = self.grad.at(0) / static_cast<float>(n);
        const float* p2 = pred->value.data();
        const float* t2 = target->value.data();
        const float* w2 = weights ? weights->value.data() : nullptr;
        Tensor gp(pred->value.shape());
        float* g = gp.data();
        for (std::int64_t i = 0; i < n; ++i) {
          const float r = p2[i] - t2[i];
          const float d = std::clamp(r, -delta, delta);
          g[i] = gscale * (w2 ? w2[i] : 1.0F) * d;
        }
        pred->accumulate_grad(gp);
      },
      "huber_loss");
}

Var mape_loss(const Var& pred, const Var& target, float eps,
              const Var& weights) {
  check_loss_inputs(pred, target, weights, "mape_loss");
  const std::int64_t n = pred->value.numel();
  const float* p = pred->value.data();
  const float* t = target->value.data();
  const float* w = weights ? weights->value.data() : nullptr;
  double total = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const float denom = std::max(std::abs(t[i]), eps);
    total += (w ? w[i] : 1.0F) * std::abs(p[i] - t[i]) / denom;
  }
  Tensor out(Shape{1});
  out.at(0) = static_cast<float>(100.0 * total / static_cast<double>(n));
  std::vector<Var> parents{pred, target};
  if (weights) parents.push_back(weights);
  return make_node(
      std::move(out), std::move(parents),
      [pred, target, weights, eps, n](Node& self) {
        if (!pred->requires_grad) return;
        const float gscale = self.grad.at(0) * 100.0F / static_cast<float>(n);
        const float* p2 = pred->value.data();
        const float* t2 = target->value.data();
        const float* w2 = weights ? weights->value.data() : nullptr;
        Tensor gp(pred->value.shape());
        float* g = gp.data();
        for (std::int64_t i = 0; i < n; ++i) {
          const float denom = std::max(std::abs(t2[i]), eps);
          const float sgn = p2[i] > t2[i] ? 1.0F : (p2[i] < t2[i] ? -1.0F : 0.0F);
          g[i] = gscale * (w2 ? w2[i] : 1.0F) * sgn / denom;
        }
        pred->accumulate_grad(gp);
      },
      "mape_loss");
}

Var combined_loss(const Var& pred, const Var& target, float alpha, float delta,
                  const Var& weights) {
  DEEPBAT_CHECK(alpha >= 0.0F && alpha <= 1.0F,
                "combined_loss: alpha must be in [0, 1]");
  const Var ml = mape_loss(pred, target, 1e-6F, weights);
  const Var hl = huber_loss(pred, target, delta, weights);
  return add(scale(ml, alpha), scale(hl, 1.0F - alpha));
}

}  // namespace deepbat::nn
