#ifndef BASM_NN_BATCHNORM_H_
#define BASM_NN_BATCHNORM_H_

#include "autograd/ops.h"
#include "nn/module.h"

namespace basm::nn {

/// 1-D batch normalization over the batch dimension of [B, H] activations.
///
/// Training mode normalizes with batch statistics and maintains exponential
/// running statistics; evaluation mode uses the running statistics (the
/// paper's serving path). The affine transform (gamma, beta) is separated
/// from normalization so BASM's Fusion BN (StABT) can modulate it with
/// per-sample spatiotemporal signals — see Eq. (17) of the paper.
class BatchNorm1d : public Module {
 public:
  BatchNorm1d(int64_t features, float momentum = 0.1f, float eps = 1e-5f);

  /// Full BN: gamma * normalize(x) + beta.
  autograd::Variable Forward(const autograd::Variable& x);

  /// Affine-less normalization (x - mu) / sqrt(var + eps). In training mode
  /// this also updates the running statistics, so call it once per step.
  autograd::Variable Normalize(const autograd::Variable& x);

  const autograd::Variable& gamma() const { return gamma_; }
  const autograd::Variable& beta() const { return beta_; }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

  int64_t features() const { return features_; }
  float eps() const { return eps_; }

 private:
  int64_t features_;
  float momentum_;
  float eps_;
  autograd::Variable gamma_;  // [1, H]
  autograd::Variable beta_;   // [1, H]
  Tensor running_mean_;       // [1, H]
  Tensor running_var_;        // [1, H]
};

}  // namespace basm::nn

#endif  // BASM_NN_BATCHNORM_H_
