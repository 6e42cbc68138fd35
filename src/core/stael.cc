#include "core/stael.h"

#include "tensor/tensor_ops.h"

namespace basm::core {

namespace ag = ::basm::autograd;

StAEL::StAEL(std::vector<int64_t> field_dims, int64_t ctx_dim, Rng& rng,
             float gate_scale)
    : gate_scale_(gate_scale) {
  BASM_CHECK(!field_dims.empty());
  BASM_CHECK_GT(gate_scale_, 0.0f);
  for (size_t j = 0; j < field_dims.size(); ++j) {
    gates_.push_back(
        std::make_unique<nn::Linear>(field_dims[j] + ctx_dim, 1, rng));
    RegisterModule("gate" + std::to_string(j), gates_.back().get());
  }
}

ag::Variable StAEL::Gate(size_t j, const ag::Variable& x,
                         const ag::Variable& ctx) const {
  ag::Variable gate_in = ag::ConcatCols({x, ctx});
  return ag::Scale(ag::Sigmoid(gates_[j]->Forward(gate_in)), gate_scale_);
}

void StAEL::RecordAlpha(size_t j, const ag::Variable& alpha) {
  for (int64_t i = 0; i < last_alphas_.rows(); ++i) {
    last_alphas_.at(i, static_cast<int64_t>(j)) = alpha.value()[i];
  }
}

std::vector<ag::Variable> StAEL::Forward(
    const std::vector<ag::Variable>& fields, const ag::Variable& ctx) {
  return Run(fields, ctx, nullptr);
}

std::vector<ag::Variable> StAEL::ForwardRequests(
    const std::vector<ag::Variable>& fields, const ag::Variable& ctx,
    const std::vector<int32_t>& row_request) {
  return Run(fields, ctx, &row_request);
}

std::vector<ag::Variable> StAEL::Run(const std::vector<ag::Variable>& fields,
                                     const ag::Variable& ctx,
                                     const std::vector<int32_t>* row_request) {
  BASM_CHECK_EQ(fields.size(), gates_.size());
  const int64_t requests = ctx.value().rows();
  const int64_t batch = row_request != nullptr
                            ? static_cast<int64_t>(row_request->size())
                            : requests;
  // The alpha cache is introspection state shared across callers; skip it in
  // inference mode so concurrent serving workers never write shared members.
  const bool record = ag::GradEnabled();
  if (record) last_alphas_ = Tensor({batch, num_fields()});

  // ctx on the candidate rows; on the request path, gathered on demand.
  ag::Variable ctx_rows = row_request == nullptr ? ctx : ag::Variable();
  std::vector<ag::Variable> out;
  out.reserve(fields.size());
  for (size_t j = 0; j < fields.size(); ++j) {
    const int64_t rows = fields[j].value().rows();
    ag::Variable alpha;
    ag::Variable gated;
    if (row_request != nullptr && rows == requests) {
      ag::Variable per_request = Gate(j, fields[j], ctx);  // [R,1]
      alpha = ag::GatherRows(per_request, *row_request);
      gated = ag::GatherRows(ag::MulColBroadcast(fields[j], per_request),
                             *row_request);
    } else {
      BASM_CHECK_EQ(rows, batch);
      if (!ctx_rows.defined()) ctx_rows = ag::GatherRows(ctx, *row_request);
      alpha = Gate(j, fields[j], ctx_rows);  // [B,1]
      gated = ag::MulColBroadcast(fields[j], alpha);
    }
    if (record) RecordAlpha(j, alpha);
    out.push_back(gated);
  }
  return out;
}

}  // namespace basm::core
