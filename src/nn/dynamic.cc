#include "nn/dynamic.h"

#include "nn/init.h"

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
  BASM_CHECK_EQ(cond.value().rows(), x.value().rows());
  return Apply(x, core_gen_->Forward(cond), bias_gen_->Forward(cond));
}

ag::Variable LowRankMetaLinear::ForwardRequests(
    const ag::Variable& x, const ag::Variable& cond,
    const std::vector<int32_t>& row_request) const {
  BASM_CHECK_EQ(static_cast<int64_t>(row_request.size()), x.value().rows());
  return Apply(x, ag::GatherRows(core_gen_->Forward(cond), row_request),
               ag::GatherRows(bias_gen_->Forward(cond), row_request));
}

ag::Variable LowRankMetaLinear::Apply(const ag::Variable& x,
                                      const ag::Variable& s_flat,
                                      const ag::Variable& bias) const {
  BASM_CHECK_EQ(x.value().cols(), in_);
  int64_t batch = x.value().rows();

  // h = x V: [B, r]
  ag::Variable h = ag::MatMul(x, v_);
  // core S[b]: [B, r, r] generated from the condition.
  ag::Variable s3 = ag::Reshape(s_flat, {batch, rank_, rank_});
  ag::Variable h3 = ag::Reshape(h, {batch, rank_, 1});
  ag::Variable sh = ag::Reshape(ag::BatchedMatMul(s3, h3), {batch, rank_});
  // y = (S h) U + b
  ag::Variable y = ag::MatMul(sh, u_);
  return ag::Add(y, bias);
}

}  // namespace basm::nn
