#pragma once
// Differentiable tensor operations. Every function builds a tape node whose
// backward closure propagates gradients to the inputs (see autograd.hpp).
//
// Broadcasting is intentionally restricted to the one pattern the surrogate
// model needs: the right operand's shape may be a *suffix* of the left's
// (bias [D] onto [B, L, D]; positional table [L, D] onto [B, L, D]). The
// corresponding backward sums over the broadcast leading dimensions.

#include <cstdint>

#include "nn/autograd.hpp"

namespace deepbat::nn {

// ---- elementwise arithmetic -------------------------------------------

/// a + b with suffix broadcasting of b.
Var add(const Var& a, const Var& b);
/// a - b with suffix broadcasting of b.
Var sub(const Var& a, const Var& b);
/// a * b (elementwise) with suffix broadcasting of b.
Var mul(const Var& a, const Var& b);
/// a * s
Var scale(const Var& a, float s);
/// a + s
Var add_scalar(const Var& a, float s);
/// -a
Var neg(const Var& a);

// ---- linear algebra ----------------------------------------------------

/// Matrix product. Supported operand shapes:
///   A [..., m, k] x B [k, n]        (shared weight — grads sum over batch)
///   A [..., m, k] x B [..., k, n]   (equal leading dims — batched)
Var matmul(const Var& a, const Var& b);

/// Swap the last two dimensions.
Var transpose_last(const Var& a);

/// 4-D permutation (0, 2, 1, 3): [B, L, H, D] <-> [B, H, L, D].
/// Self-inverse; used to move heads into the batch dimension for attention.
Var permute_0213(const Var& a);

// ---- nonlinearities and normalization ----------------------------------

Var relu(const Var& a);

/// Logistic sigmoid (used by the LSTM gates of the recurrent baseline).
Var sigmoid(const Var& a);

/// Hyperbolic tangent.
Var tanh_op(const Var& a);

/// Softmax over the last dimension (numerically stabilized).
Var softmax_last(const Var& a);

/// Layer normalization over the last dimension with affine (gamma, beta),
/// both 1-D of that dimension's size.
Var layer_norm(const Var& x, const Var& gamma, const Var& beta,
               float eps = 1e-5F);

/// Inverted dropout. Identity when `training` is false or p == 0;
/// otherwise takes one key from `rng` and keeps element i (flat index) iff
/// kernels::dropout_keep(key, i, ...), scaling survivors by 1 / (1 - p).
Var dropout(const Var& a, float p, bool training, Rng& rng);

// ---- shape ops ----------------------------------------------------------

Var reshape(const Var& a, Shape new_shape);

/// Mean over dimension 1 of a 3-D tensor: [B, L, D] -> [B, D]
/// (the surrogate's mean-pooling after the Transformer encoder).
Var mean_axis1(const Var& a);

/// Select index `t` of dimension 1 of a 3-D tensor: [B, L, D] -> [B, D]
/// (per-timestep input extraction for the recurrent baseline).
Var select_axis1(const Var& a, std::int64_t t);

/// Concatenate along the last dimension; all leading dims must match.
Var concat_last(const Var& a, const Var& b);

/// Concatenate 3-D tensors along dimension 1 (time):
/// [B, La, D] + [B, Lb, D] -> [B, La + Lb, D].
Var concat_axis1(const Var& a, const Var& b);

// ---- reductions ---------------------------------------------------------

/// Sum of all elements -> shape [1].
Var sum_all(const Var& a);

/// Mean of all elements -> shape [1].
Var mean_all(const Var& a);

// ---- losses (mean-reduced scalars, shape [1]) ---------------------------

/// Huber loss (Eq. 7 in the paper), averaged over elements. `weights`, if
/// non-null, multiplies the per-element loss (used for the SLO-violation
/// penalty) and must match pred's shape.
Var huber_loss(const Var& pred, const Var& target, float delta,
               const Var& weights = nullptr);

/// MAPE loss in percent (Eq. 8), averaged over elements; denominators are
/// clamped to `eps` to stay finite. Optional per-element weights as above.
Var mape_loss(const Var& pred, const Var& target, float eps = 1e-6F,
              const Var& weights = nullptr);

/// Combined training loss (Eq. 9): alpha * MAPE + (1 - alpha) * Huber.
Var combined_loss(const Var& pred, const Var& target, float alpha, float delta,
                  const Var& weights = nullptr);

}  // namespace deepbat::nn
