#include "nn/dynamic.h"

#include "nn/init.h"
#include "tensor/kernels.h"
#include "tensor/tensor_ops.h"

namespace basm::nn {

namespace ag = ::basm::autograd;

MetaLinear::MetaLinear(int64_t cond_dim, int64_t in, int64_t out, Rng& rng)
    : in_(in), out_(out) {
  weight_gen_ = std::make_unique<Linear>(cond_dim, out * in, rng);
  bias_gen_ = std::make_unique<Linear>(cond_dim, out, rng);
  RegisterModule("weight_gen", weight_gen_.get());
  RegisterModule("bias_gen", bias_gen_.get());
  // Scale down the generator output so the initial dynamic mapping is
  // near-zero and training starts close to an identity-free residual path.
  autograd::Variable wg = weight_gen_->weight();
  wg.mutable_value().ScaleInPlace(0.1f);
  autograd::Variable bg = bias_gen_->weight();
  bg.mutable_value().ScaleInPlace(0.1f);
}

ag::Variable MetaLinear::Forward(const ag::Variable& x,
                                 const ag::Variable& cond) const {
  BASM_CHECK_EQ(x.value().rank(), 2);
  BASM_CHECK_EQ(x.value().cols(), in_);
  int64_t batch = x.value().rows();
  BASM_CHECK_EQ(cond.value().rows(), batch);

  ag::Variable w_flat = weight_gen_->Forward(cond);  // [B, out*in]
  ag::Variable b = bias_gen_->Forward(cond);         // [B, out]

  ag::Variable w3 = ag::Reshape(w_flat, {batch, out_, in_});
  ag::Variable x3 = ag::Reshape(x, {batch, in_, 1});
  ag::Variable y = ag::Reshape(ag::BatchedMatMul(w3, x3), {batch, out_});
  return ag::Add(y, b);
}

LowRankMetaLinear::LowRankMetaLinear(int64_t cond_dim, int64_t in, int64_t out,
                                     int64_t rank, Rng& rng)
    : in_(in), out_(out), rank_(rank) {
  u_ = RegisterParameter("u", XavierUniform(rank, out, rng));
  v_ = RegisterParameter("v", XavierUniform(in, rank, rng));
  core_gen_ = std::make_unique<Linear>(cond_dim, rank * rank, rng);
  bias_gen_ = std::make_unique<Linear>(cond_dim, out, rng);
  RegisterModule("core_gen", core_gen_.get());
  RegisterModule("bias_gen", bias_gen_.get());
}

ag::Variable LowRankMetaLinear::Forward(const ag::Variable& x,
                                        const ag::Variable& cond) const {
  BASM_CHECK_EQ(x.value().cols(), in_);
  const int64_t batch = x.value().rows();
  BASM_CHECK_EQ(cond.value().rows(), batch);
  // h = x V: [B, r]
  ag::Variable h = ag::MatMul(x, v_);
  // core S[b]: [B, r, r] generated from the condition.
  ag::Variable s3 = ag::Reshape(core_gen_->Forward(cond), {batch, rank_, rank_});
  ag::Variable h3 = ag::Reshape(h, {batch, rank_, 1});
  ag::Variable sh = ag::Reshape(ag::BatchedMatMul(s3, h3), {batch, rank_});
  // y = (S h) U + b
  ag::Variable y = ag::MatMul(sh, u_);
  return ag::Add(y, bias_gen_->Forward(cond));
}

Tensor LowRankMetaLinear::ForwardEval(
    const Tensor& x, const Tensor& cond,
    const std::vector<int32_t>& row_request) const {
  BASM_CHECK_EQ(x.cols(), in_);
  const int64_t batch = x.rows();
  BASM_CHECK_EQ(static_cast<int64_t>(row_request.size()), batch);
  // S_r and bias_r once per request.
  const Tensor s = ops::MatMulBias(cond, core_gen_->weight().value(),
                                   &core_gen_->bias().value());  // [R, r*r]
  const Tensor bias = ops::MatMulBias(cond, bias_gen_->weight().value(),
                                      &bias_gen_->bias().value());  // [R, out]
  // Per row, the products Forward runs: h = x V, S_r h, (S_r h) U.
  Tensor h = Tensor::Uninitialized({batch, rank_});
  ops::kernels::Gemm(x.data(), v_.value().data(), h.data(), batch, in_,
                     rank_);
  Tensor sh = Tensor::Uninitialized({batch, rank_});
  for (int64_t b = 0; b < batch; ++b) {
    ops::kernels::Gemm(s.data() + row_request[b] * rank_ * rank_,
                       h.data() + b * rank_, sh.data() + b * rank_, rank_,
                       rank_, 1);
  }
  Tensor y = Tensor::Uninitialized({batch, out_});
  ops::kernels::Gemm(sh.data(), u_.value().data(), y.data(), batch, rank_,
                     out_);
  for (int64_t b = 0; b < batch; ++b) {
    float* yb = y.data() + b * out_;
    const float* br = bias.data() + row_request[b] * out_;
    for (int64_t c = 0; c < out_; ++c) yb[c] += br[c];
  }
  return y;
}

}  // namespace basm::nn
