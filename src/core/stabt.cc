#include "core/stabt.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.h"
#include "tensor/tensor_ops.h"

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
  // sigmoid(FCN_bias(h_c)): [B, out].
  auto modulation = [&](const nn::Linear& gen) {
    return ag::Sigmoid(gen.Forward(h_c));
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

Tensor StABT::ForwardEval(const Tensor& x, const Tensor& h_c,
                         const std::vector<int32_t>& row_request) const {
  const int64_t batch = x.rows();
  BASM_CHECK_EQ(static_cast<int64_t>(row_request.size()), batch);
  const Tensor* in = &x;
  Tensor h;
  for (const Layer& layer : layers_) {
    const int64_t out = layer.fc->out_features();
    BASM_CHECK_EQ(in->cols(), layer.fc->in_features());
    Tensor z = Tensor::Uninitialized({batch, out});
    ops::kernels::Gemm(in->data(), layer.fc->weight().value().data(),
                       z.data(), batch, in->cols(), out);

    // sigmoid(FCN_bias(h_c)) of the four generators, [R, out] each: four
    // small GEMMs over the request rows.
    Tensor mod[4];
    if (adaptive_) {
      const nn::Linear* gens[4] = {
          layer.w_bias_gen.get(), layer.b_bias_gen.get(),
          layer.gamma_bias_gen.get(), layer.beta_bias_gen.get()};
      for (int g = 0; g < 4; ++g) {
        mod[g] = ops::MatMulBiasAct(h_c, gens[g]->weight().value(),
                                    &gens[g]->bias().value(),
                                    ops::Act::kSigmoid);
      }
    }
    // Eval BN's 1/sqrt(var + eps), derived per call.
    const Tensor& var = layer.bn->running_var();
    Tensor inv = Tensor::Uninitialized({out});
    for (int64_t c = 0; c < out; ++c) {
      inv[c] = 1.0f / std::sqrt(var[c] + layer.bn->eps());
    }
    const float* b_t = layer.fc->bias().value().data();
    const float* mu = layer.bn->running_mean().data();
    const float* gamma = layer.bn->gamma().value().data();
    const float* beta = layer.bn->beta().value().data();
    // Fusion FC, BN and LeakyReLU in one pass over z, in Forward's
    // per-element order.
    for (int64_t i = 0; i < batch; ++i) {
      float* zi = z.data() + i * out;
      if (adaptive_) {
        const int64_t k = row_request[i] * out;
        const float* w_bias = mod[0].data() + k;
        const float* b_bias = mod[1].data() + k;
        const float* gamma_bias = mod[2].data() + k;
        const float* beta_bias = mod[3].data() + k;
        for (int64_t c = 0; c < out; ++c) {
          const float pre = ((((zi[c] + b_t[c]) + -b_t[c]) * w_bias[c]) +
                             b_t[c]) + b_bias[c];
          const float v =
              (((pre + -mu[c]) * inv[c]) * (gamma_bias[c] * gamma[c]) +
               beta[c]) + beta_bias[c];
          zi[c] = std::max(v, 0.01f * v);
        }
      } else {
        for (int64_t c = 0; c < out; ++c) {
          const float v =
              (((zi[c] + b_t[c]) + -mu[c]) * inv[c]) * gamma[c] + beta[c];
          zi[c] = std::max(v, 0.01f * v);
        }
      }
    }
    h = std::move(z);
    in = &h;
  }
  return h;
}

}  // namespace basm::core
