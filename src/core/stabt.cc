#include "core/stabt.h"

namespace basm::core {

namespace ag = ::basm::autograd;

StABT::StABT(int64_t in_dim, std::vector<int64_t> hidden, int64_t ctx_dim,
             Rng& rng, bool adaptive)
    : adaptive_(adaptive) {
  BASM_CHECK(!hidden.empty());
  dims_ = {in_dim};
  dims_.insert(dims_.end(), hidden.begin(), hidden.end());
  for (size_t l = 0; l + 1 < dims_.size(); ++l) {
    Layer layer;
    int64_t in = dims_[l], out = dims_[l + 1];
    layer.fc = std::make_unique<nn::Linear>(in, out, rng);
    RegisterModule("fc" + std::to_string(l), layer.fc.get());
    layer.bn = std::make_unique<nn::BatchNorm1d>(out);
    RegisterModule("bn" + std::to_string(l), layer.bn.get());
    if (adaptive_) {
      layer.w_bias_gen = std::make_unique<nn::Linear>(ctx_dim, out, rng);
      layer.b_bias_gen = std::make_unique<nn::Linear>(ctx_dim, out, rng);
      layer.gamma_bias_gen = std::make_unique<nn::Linear>(ctx_dim, out, rng);
      layer.beta_bias_gen = std::make_unique<nn::Linear>(ctx_dim, out, rng);
      RegisterModule("w_bias_gen" + std::to_string(l),
                     layer.w_bias_gen.get());
      RegisterModule("b_bias_gen" + std::to_string(l),
                     layer.b_bias_gen.get());
      RegisterModule("gamma_bias_gen" + std::to_string(l),
                     layer.gamma_bias_gen.get());
      RegisterModule("beta_bias_gen" + std::to_string(l),
                     layer.beta_bias_gen.get());
    }
    layers_.push_back(std::move(layer));
  }
}

ag::Variable StABT::Forward(const ag::Variable& x, const ag::Variable& h_c) {
  return Run(x, h_c, nullptr);
}

ag::Variable StABT::ForwardRequests(const ag::Variable& x,
                                    const ag::Variable& h_c,
                                    const std::vector<int32_t>& row_request) {
  BASM_CHECK_EQ(static_cast<int64_t>(row_request.size()), x.value().rows());
  return Run(x, h_c, &row_request);
}

ag::Variable StABT::Run(const ag::Variable& x, const ag::Variable& h_c,
                        const std::vector<int32_t>* row_request) {
  // sigmoid(FCN_bias(h_c)), broadcast to the rows of x on the request path.
  auto modulation = [&](const nn::Linear& gen) {
    ag::Variable m = ag::Sigmoid(gen.Forward(h_c));
    return row_request != nullptr ? ag::GatherRows(m, *row_request) : m;
  };
  ag::Variable h = x;
  for (auto& layer : layers_) {
    // Fusion FC.
    ag::Variable pre = layer.fc->Forward(h);  // (W_t h + b_t): [B, out]
    if (adaptive_) {
      ag::Variable w_bias = modulation(*layer.w_bias_gen);
      ag::Variable b_bias = modulation(*layer.b_bias_gen);
      // (W_bias ⊙ W_t) h + (b_bias + b_t): the bias term b_t is inside
      // `pre`, so modulate the matmul part and add b_bias. Modulating after
      // the static bias would double-scale b_t, so recompute cleanly:
      //   pre_nobias = pre - b_t; h' = pre_nobias ⊙ W_bias + b_t + b_bias.
      ag::Variable pre_nobias =
          ag::AddRowBroadcast(pre, ag::Neg(layer.fc->bias()));
      pre = ag::Add(ag::AddRowBroadcast(ag::Mul(pre_nobias, w_bias),
                                        layer.fc->bias()),
                    b_bias);
    }
    // Fusion BN.
    ag::Variable normalized = layer.bn->Normalize(pre);
    ag::Variable scaled;
    if (adaptive_) {
      ag::Variable gamma_bias = modulation(*layer.gamma_bias_gen);
      ag::Variable beta_bias = modulation(*layer.beta_bias_gen);
      ag::Variable gamma_eff =
          ag::MulRowBroadcast(gamma_bias, layer.bn->gamma());  // [B,out]
      scaled = ag::Add(
          ag::AddRowBroadcast(ag::Mul(normalized, gamma_eff),
                              layer.bn->beta()),
          beta_bias);
    } else {
      scaled = ag::AddRowBroadcast(
          ag::MulRowBroadcast(normalized, layer.bn->gamma()),
          layer.bn->beta());
    }
    h = ag::LeakyRelu(scaled, 0.01f);
  }
  return h;
}

}  // namespace basm::core
