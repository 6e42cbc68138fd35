#include "core/ststl.h"

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

ag::Variable StSTL::ForwardRequests(
    const ag::Variable& h_hat, const ag::Variable& h_c,
    const ag::Variable& h_ui, const std::vector<int32_t>& row_request) const {
  ag::Variable cond = ag::ConcatCols({h_c, h_ui});
  return ag::Add(base_->Forward(h_hat),
                 dynamic_->ForwardRequests(h_hat, cond, row_request));
}

}  // namespace basm::core
