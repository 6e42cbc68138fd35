#include "core/stael.h"

#include <algorithm>

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

std::vector<ag::Variable> StAEL::Forward(
    const std::vector<ag::Variable>& fields, const ag::Variable& ctx) {
  BASM_CHECK_EQ(fields.size(), gates_.size());
  const int64_t batch = ctx.value().rows();
  // The alpha cache is introspection state shared across callers; skip it in
  // inference mode so concurrent serving workers never write shared members.
  const bool record = ag::GradEnabled();
  if (record) last_alphas_ = Tensor({batch, num_fields()});
  std::vector<ag::Variable> out;
  out.reserve(fields.size());
  for (size_t j = 0; j < fields.size(); ++j) {
    BASM_CHECK_EQ(fields[j].value().rows(), batch);
    // alpha_j = gate_scale * sigmoid(W_p [x_j; ctx] + b_p): [B, 1].
    ag::Variable alpha = ag::Scale(
        ag::Sigmoid(gates_[j]->Forward(ag::ConcatCols({fields[j], ctx}))),
        gate_scale_);
    if (record) {
      for (int64_t i = 0; i < batch; ++i) {
        last_alphas_.at(i, static_cast<int64_t>(j)) = alpha.value()[i];
      }
    }
    out.push_back(ag::MulColBroadcast(fields[j], alpha));
  }
  return out;
}

void StAEL::ForwardEval(const std::vector<const Tensor*>& fields,
                        const Tensor& ctx,
                        const std::vector<int32_t>& row_request,
                        Tensor* concat) {
  BASM_CHECK_EQ(fields.size(), gates_.size());
  const int64_t requests = ctx.rows();
  const int64_t ctx_dim = ctx.cols();
  const int64_t batch = static_cast<int64_t>(row_request.size());
  const int64_t width = concat->cols();
  BASM_CHECK_EQ(concat->rows(), batch);
  const bool record = ag::GradEnabled();
  if (record) last_alphas_ = Tensor({batch, num_fields()});

  int64_t col = 0;
  for (size_t j = 0; j < fields.size(); ++j) {
    const Tensor& x = *fields[j];
    const int64_t rows = x.rows();
    const int64_t d = x.cols();
    const bool per_request = rows == requests;
    BASM_CHECK(per_request || rows == batch);
    BASM_CHECK_LE(col + d, width);
    // alpha_j = gate_scale * sigmoid(W_p [x; ctx] + b_p) per row of x, on
    // the [x; ctx] rows Forward's gate Linear sees.
    Tensor gate_in = Tensor::Uninitialized({rows, d + ctx_dim});
    for (int64_t s = 0; s < rows; ++s) {
      const int64_t r = per_request ? s : row_request[s];
      float* in = gate_in.data() + s * (d + ctx_dim);
      std::copy_n(x.data() + s * d, d, in);
      std::copy_n(ctx.data() + r * ctx_dim, ctx_dim, in + d);
    }
    Tensor alpha =
        ops::MatMulBiasAct(gate_in, gates_[j]->weight().value(),
                           &gates_[j]->bias().value(), ops::Act::kSigmoid);
    alpha.ScaleInPlace(gate_scale_);
    // alpha_j * x_j into field j's columns, broadcast to the candidate rows.
    for (int64_t b = 0; b < batch; ++b) {
      const int64_t s = per_request ? row_request[b] : b;
      const float a = alpha[s];
      const float* xs = x.data() + s * d;
      float* dst = concat->data() + b * width + col;
      for (int64_t k = 0; k < d; ++k) dst[k] = xs[k] * a;
      if (record) last_alphas_.at(b, static_cast<int64_t>(j)) = a;
    }
    col += d;
  }
  BASM_CHECK_EQ(col, width);
}

}  // namespace basm::core
