#include "core/ststl.h"

#include <algorithm>

#include "tensor/kernels.h"

namespace basm::core {

namespace ag = ::basm::autograd;

StSTL::StSTL(int64_t input_dim, int64_t ctx_dim, int64_t behavior_dim,
             int64_t out_dim, int64_t rank, Rng& rng)
    : out_dim_(out_dim) {
  base_ = std::make_unique<nn::Linear>(input_dim, out_dim, rng);
  RegisterModule("base", base_.get());
  dynamic_ = std::make_unique<nn::LowRankMetaLinear>(
      ctx_dim + behavior_dim, input_dim, out_dim, rank, rng);
  RegisterModule("dynamic", dynamic_.get());
}

ag::Variable StSTL::Forward(const ag::Variable& h_hat,
                            const ag::Variable& h_c,
                            const ag::Variable& h_ui) const {
  ag::Variable cond = ag::ConcatCols({h_c, h_ui});
  return ag::Add(base_->Forward(h_hat), dynamic_->Forward(h_hat, cond));
}

Tensor StSTL::ForwardEval(const Tensor& h_hat, const Tensor& h_c,
                         const Tensor& h_ui,
                         const std::vector<int32_t>& row_request) const {
  const int64_t batch = h_hat.rows();
  const int64_t requests = h_c.rows();
  BASM_CHECK_EQ(h_hat.cols(), base_->in_features());
  BASM_CHECK_EQ(h_ui.rows(), requests);
  // cond = [h_c; h_ui] per request.
  Tensor cond = Tensor::Uninitialized({requests, h_c.cols() + h_ui.cols()});
  for (int64_t r = 0; r < requests; ++r) {
    float* row = cond.data() + r * cond.cols();
    std::copy_n(h_c.data() + r * h_c.cols(), h_c.cols(), row);
    std::copy_n(h_ui.data() + r * h_ui.cols(), h_ui.cols(), row + h_c.cols());
  }
  const Tensor dynamic = dynamic_->ForwardEval(h_hat, cond, row_request);
  Tensor out = Tensor::Uninitialized({batch, out_dim_});
  ops::kernels::Gemm(h_hat.data(), base_->weight().value().data(), out.data(),
                     batch, h_hat.cols(), out_dim_);
  // (h_hat W_base + b_base) + dynamic, then the LeakyReLU, in one pass.
  const float* b = base_->bias().value().data();
  for (int64_t i = 0; i < batch; ++i) {
    float* o = out.data() + i * out_dim_;
    const float* d = dynamic.data() + i * out_dim_;
    for (int64_t c = 0; c < out_dim_; ++c) {
      const float v = (o[c] + b[c]) + d[c];
      o[c] = std::max(v, 0.01f * v);
    }
  }
  return out;
}

}  // namespace basm::core
