#include "nn/batchnorm.h"

#include <cmath>

#include "tensor/tensor_ops.h"

namespace basm::nn {

namespace ag = ::basm::autograd;

BatchNorm1d::BatchNorm1d(int64_t features, float momentum, float eps)
    : features_(features),
      momentum_(momentum),
      eps_(eps),
      running_mean_({1, features}),
      running_var_(Tensor::Ones({1, features})) {
  gamma_ = RegisterParameter("gamma", Tensor::Ones({1, features}));
  beta_ = RegisterParameter("beta", Tensor({1, features}));
  RegisterBuffer("running_mean", &running_mean_);
  RegisterBuffer("running_var", &running_var_);
}

ag::Variable BatchNorm1d::Normalize(const ag::Variable& x) {
  BASM_CHECK_EQ(x.value().rank(), 2);
  BASM_CHECK_EQ(x.value().cols(), features_);
  if (training()) {
    // Batch statistics with gradients flowing through them.
    ag::Variable mu = ag::ColMean(x);                       // [1,H]
    ag::Variable centered = ag::AddRowBroadcast(x, ag::Neg(mu));
    ag::Variable var = ag::ColMean(ag::Mul(centered, centered));
    ag::Variable inv = ag::Rsqrt(var, eps_);                // [1,H]
    // Update running stats from the current batch (no gradient).
    running_mean_.ScaleInPlace(1.0f - momentum_);
    running_mean_.AddScaledInPlace(mu.value(), momentum_);
    running_var_.ScaleInPlace(1.0f - momentum_);
    running_var_.AddScaledInPlace(var.value(), momentum_);
    return ag::MulRowBroadcast(centered, inv);
  }
  // Eval mode: constants from running statistics.
  const float eps = eps_;
  Tensor inv = ops::Map(running_var_, std::function<float(float)>(
      [eps](float v) { return 1.0f / std::sqrt(v + eps); }));
  ag::Variable centered = ag::AddRowBroadcast(
      x, ag::Variable::Constant(ops::Scale(running_mean_, -1.0f)));
  return ag::MulRowBroadcast(centered, ag::Variable::Constant(inv));
}

ag::Variable BatchNorm1d::Forward(const ag::Variable& x) {
  if (!training() && !ag::GradEnabled()) {
    // Inference: the whole normalize+affine chain in one pass over x,
    // arithmetic-order-identical to the unfused path (so guarded forwards
    // stay bit-identical to unguarded eval forwards).
    const float eps = eps_;
    Tensor inv = ops::Map(running_var_, std::function<float(float)>(
        [eps](float v) { return 1.0f / std::sqrt(v + eps); }));
    return ag::Variable::Constant(ops::BatchNormInference(
        x.value(), ops::Scale(running_mean_, -1.0f), inv, gamma_.value(),
        beta_.value()));
  }
  ag::Variable normalized = Normalize(x);
  return ag::AddRowBroadcast(ag::MulRowBroadcast(normalized, gamma_), beta_);
}

}  // namespace basm::nn
