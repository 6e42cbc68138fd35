#ifndef BASM_CORE_STABT_H_
#define BASM_CORE_STABT_H_

#include <memory>
#include <vector>

#include "nn/batchnorm.h"
#include "nn/linear.h"
#include "nn/module.h"

namespace basm::core {

/// Spatiotemporal Adaptive Bias Tower (Section II-D): an MLP classification
/// tower whose fully-connected layers and batch-norm layers are modulated
/// per-sample by spatiotemporal signals.
///
/// Fusion FC (Eq. 10-13): with static weights W_t, b_t and modulation
/// vectors W_bias, b_bias = sigmoid(FCN(h_c)) in [0,1]^out,
///     h' = act( (W_bias ⊙ W_t) h + (b_bias + b_t) )
/// The Hadamard modulation of W_t by a per-sample vector is equivalent to
/// scaling the layer's output coordinates, so it is computed as
/// (h W_t) ⊙ W_bias without materializing per-sample matrices.
///
/// Fusion BN (Eq. 14-17): the affine-less normalization is shared; gamma and
/// beta are modulated per-sample:
///     x' = (gamma_bias ⊙ gamma) * norm(x) + beta + beta_bias.
///
/// With `adaptive = false` all modulation is skipped and the tower degrades
/// to a plain FC+BN stack (the "w/o StABT" ablation row of Table V).
class StABT : public nn::Module {
 public:
  StABT(int64_t in_dim, std::vector<int64_t> hidden, int64_t ctx_dim,
        Rng& rng, bool adaptive = true);

  /// x: [B, in_dim]; h_c: [B, ctx_dim]. Returns the last hidden layer
  /// [B, hidden.back()].
  autograd::Variable Forward(const autograd::Variable& x,
                             const autograd::Variable& h_c);

  /// Graph-free eval forward (DESIGN §17): h_c [R, ctx_dim] holds one
  /// context per request and `row_request` [B] names each x row's
  /// request. The four generators of each layer run once per request; each
  /// layer is then one GEMM, h W_t, and one pass that applies the fusion
  /// FC, eval BN and LeakyReLU per element in Forward's order, so values
  /// equal Forward on the broadcast context bit for bit:
  /// [B, out_dim()].
  Tensor ForwardEval(const Tensor& x, const Tensor& h_c,
                     const std::vector<int32_t>& row_request) const;

  bool adaptive() const { return adaptive_; }
  int64_t out_dim() const { return dims_.back(); }

 private:
  struct Layer {
    std::unique_ptr<nn::Linear> fc;          // static W_t, b_t
    std::unique_ptr<nn::BatchNorm1d> bn;     // shared normalization core
    // FCN_bias generators (Eq. 10/11/15/16); null when not adaptive.
    std::unique_ptr<nn::Linear> w_bias_gen;
    std::unique_ptr<nn::Linear> b_bias_gen;
    std::unique_ptr<nn::Linear> gamma_bias_gen;
    std::unique_ptr<nn::Linear> beta_bias_gen;
  };

  bool adaptive_;
  std::vector<int64_t> dims_;
  std::vector<Layer> layers_;
};

}  // namespace basm::core

#endif  // BASM_CORE_STABT_H_
