#include "nn/attention.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.h"
#include "tensor/tensor_ops.h"

namespace basm::nn {

namespace ag = ::basm::autograd;

TargetAttention::TargetAttention(int64_t dim, int64_t hidden, Rng& rng)
    : dim_(dim) {
  score_net_ = std::make_unique<Mlp>(
      std::vector<int64_t>{4 * dim, hidden, 1}, Activation::kLeakyRelu, rng);
  RegisterModule("score_net", score_net_.get());
}

ag::Variable TargetAttention::Forward(const ag::Variable& query,
                                      const ag::Variable& keys,
                                      const Tensor& mask) {
  BASM_CHECK_EQ(query.value().rank(), 2);
  BASM_CHECK_EQ(keys.value().rank(), 3);
  int64_t batch = query.value().rows();
  int64_t t = keys.value().dim(1);
  BASM_CHECK_EQ(keys.value().dim(0), batch);
  BASM_CHECK_EQ(keys.value().dim(2), dim_);
  BASM_CHECK_EQ(mask.rank(), 2);
  BASM_CHECK_EQ(mask.dim(0), batch);
  BASM_CHECK_EQ(mask.dim(1), t);

  // Flatten keys to [B*T, D] and repeat the query per position.
  ag::Variable keys_flat = ag::Reshape(keys, {batch * t, dim_});
  ag::Variable q_rep = ag::RepeatInterleaveRows(query, t);
  ag::Variable feats = ag::ConcatCols(
      {q_rep, keys_flat, ag::Sub(q_rep, keys_flat), ag::Mul(q_rep, keys_flat)});
  ag::Variable scores = score_net_->Forward(feats);     // [B*T, 1]
  ag::Variable logits = ag::Reshape(scores, {batch, t});  // [B, T]

  // Mask invalid positions with a large negative bias before softmax.
  Tensor mask_bias({batch, t});
  for (int64_t i = 0; i < batch * t; ++i) {
    mask_bias[i] = mask[i] > 0.5f ? 0.0f : -1e9f;
  }
  logits = ag::Add(logits, ag::Variable::Constant(mask_bias));
  ag::Variable weights = ag::RowSoftmax(logits);  // [B, T]
  // Introspection cache; skipped in inference mode so concurrent scoring
  // through a shared model stays write-free.
  if (ag::GradEnabled()) last_weights_ = weights.value();

  // Weighted pooling: [B,1,T] x [B,T,D] -> [B,1,D] -> [B,D].
  ag::Variable w3 = ag::Reshape(weights, {batch, 1, t});
  ag::Variable pooled = ag::BatchedMatMul(w3, keys);
  return ag::Reshape(pooled, {batch, dim_});
}

Tensor TargetAttention::ForwardEval(
    const Tensor& query, const Tensor& keys, const Tensor& mask,
    const std::vector<int32_t>& row_request) const {
  BASM_CHECK_EQ(query.rank(), 2);
  BASM_CHECK_EQ(keys.rank(), 3);
  const int64_t batch = query.rows();
  const int64_t requests = keys.dim(0);
  const int64_t t = keys.dim(1);
  BASM_CHECK_EQ(query.cols(), dim_);
  BASM_CHECK_EQ(keys.dim(2), dim_);
  BASM_CHECK_GT(t, 0);
  BASM_CHECK_EQ(static_cast<int64_t>(row_request.size()), batch);
  BASM_CHECK_EQ(mask.rank(), 2);
  BASM_CHECK_EQ(mask.dim(0), requests);
  BASM_CHECK_EQ(mask.dim(1), t);
  BASM_CHECK_EQ(score_net_->num_layers(), 2);
  BASM_CHECK(score_net_->activation() == Activation::kLeakyRelu);
  BASM_CHECK_EQ(score_net_->layer(1).out_features(), 1);

  // Score layer 0's [4D, H] weight holds the q, k, q-k and q*k blocks. The
  // q and k blocks absorb the q-k block and are derived per call (2*D*H
  // floats) rather than cached, so the shared eval model stays
  // write-free; the q*k block is read in place.
  const Linear& first = score_net_->layer(0);
  const Tensor& w = first.weight().value();
  const int64_t h = w.cols();
  const int64_t block = dim_ * h;
  Tensor w_q = Tensor::Uninitialized({dim_, h});
  Tensor w_k = Tensor::Uninitialized({dim_, h});
  for (int64_t i = 0; i < block; ++i) {
    const float w_diff = w[2 * block + i];
    w_q[i] = w[i] + w_diff;
    w_k[i] = w[block + i] - w_diff;
  }
  const Tensor q_term = ops::MatMulBias(query, w_q, &first.bias().value());
  Tensor k_term = Tensor::Uninitialized({requests * t, h});
  ops::kernels::Gemm(keys.data(), w_k.data(), k_term.data(), requests * t,
                     dim_, h);

  // W_m (q*k) per candidate x position: one [B*T, D] x [D, H] product.
  Tensor qk = Tensor::Uninitialized({batch * t, dim_});
  for (int64_t b = 0; b < batch; ++b) {
    const float* qb = query.data() + b * dim_;
    const float* kr = keys.data() + row_request[b] * t * dim_;
    float* out = qk.data() + b * t * dim_;
    for (int64_t j = 0; j < t; ++j) {
      for (int64_t d = 0; d < dim_; ++d) {
        out[j * dim_ + d] = qb[d] * kr[j * dim_ + d];
      }
    }
  }
  Tensor m_term = Tensor::Uninitialized({batch * t, h});
  ops::kernels::Gemm(qk.data(), w.data() + 3 * block, m_term.data(),
                     batch * t, dim_, h);

  // One pass per candidate: per position the three terms, the LeakyReLU
  // (max(v, 0.01 v), the same function without a branch), score layer 1
  // and the mask bias Forward adds; then Forward's row softmax and the
  // weighted pooling of the row's request window, [1, T] x [T, D].
  const Linear& second = score_net_->layer(1);
  const float* w1 = second.weight().value().data();  // [H, 1]
  const float b1 = second.bias().value()[0];
  Tensor weights = Tensor::Uninitialized({t});
  float* p = weights.data();
  Tensor pooled = Tensor::Uninitialized({batch, dim_});
  for (int64_t b = 0; b < batch; ++b) {
    const int64_t r = row_request[b];
    const float* qb = q_term.data() + b * h;
    const float* mr = mask.data() + r * t;
    // Layer 1's input unit c at position j.
    auto unit = [&](int64_t j, int64_t c) {
      const float v = m_term[(b * t + j) * h + c] +
                      (qb[c] + k_term[(r * t + j) * h + c]);
      return std::max(v, 0.01f * v) * w1[c];
    };
    // Each score sums over c in order; four positions at a time keep four
    // independent sums in flight.
    {
      int64_t j = 0;
      for (; j + 4 <= t; j += 4) {
        float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
        for (int64_t c = 0; c < h; ++c) {
          s0 += unit(j, c);
          s1 += unit(j + 1, c);
          s2 += unit(j + 2, c);
          s3 += unit(j + 3, c);
        }
        p[j] = s0;
        p[j + 1] = s1;
        p[j + 2] = s2;
        p[j + 3] = s3;
      }
      for (; j < t; ++j) {
        float score = 0.0f;
        for (int64_t c = 0; c < h; ++c) score += unit(j, c);
        p[j] = score;
      }
    }
    for (int64_t j = 0; j < t; ++j) {
      p[j] = (p[j] + b1) + (mr[j] > 0.5f ? 0.0f : -1e9f);
    }
    // An empty window scores every position -1e9: uniform weights over
    // the padding, as in Forward.
    float mx = p[0];
    for (int64_t j = 1; j < t; ++j) mx = std::max(mx, p[j]);
    double denom = 0.0;
    for (int64_t j = 0; j < t; ++j) {
      p[j] = std::exp(p[j] - mx);
      denom += p[j];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (int64_t j = 0; j < t; ++j) p[j] *= inv;
    ops::kernels::Gemm(p, keys.data() + r * t * dim_,
                       pooled.data() + b * dim_, 1, t, dim_);
  }
  return pooled;
}

MultiHeadSelfAttention::MultiHeadSelfAttention(int64_t dim, int64_t num_heads,
                                               int64_t head_dim, Rng& rng)
    : dim_(dim), num_heads_(num_heads), head_dim_(head_dim) {
  for (int64_t h = 0; h < num_heads_; ++h) {
    q_proj_.push_back(std::make_unique<Linear>(dim, head_dim, rng, false));
    k_proj_.push_back(std::make_unique<Linear>(dim, head_dim, rng, false));
    v_proj_.push_back(std::make_unique<Linear>(dim, head_dim, rng, false));
    // A named suffix: GCC 12 at -O3 warns falsely (-Wrestrict) on
    // "q" + std::to_string(h).
    const std::string id = std::to_string(h);
    RegisterModule("q" + id, q_proj_.back().get());
    RegisterModule("k" + id, k_proj_.back().get());
    RegisterModule("v" + id, v_proj_.back().get());
  }
  res_proj_ =
      std::make_unique<Linear>(dim, num_heads * head_dim, rng, false);
  RegisterModule("res", res_proj_.get());
}

ag::Variable MultiHeadSelfAttention::Forward(const ag::Variable& x) {
  BASM_CHECK_EQ(x.value().rank(), 3);
  int64_t batch = x.value().dim(0);
  int64_t f = x.value().dim(1);
  BASM_CHECK_EQ(x.value().dim(2), dim_);

  ag::Variable x_flat = ag::Reshape(x, {batch * f, dim_});
  float scale = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  std::vector<ag::Variable> head_outputs;  // each [B*F, head_dim]
  for (int64_t h = 0; h < num_heads_; ++h) {
    ag::Variable q =
        ag::Reshape(q_proj_[h]->Forward(x_flat), {batch, f, head_dim_});
    ag::Variable k =
        ag::Reshape(k_proj_[h]->Forward(x_flat), {batch, f, head_dim_});
    ag::Variable v =
        ag::Reshape(v_proj_[h]->Forward(x_flat), {batch, f, head_dim_});

    // scores[b] = Q K^T / sqrt(d): [B,F,F].
    ag::Variable scores = ag::Scale(ag::BatchedMatMulTransB(q, k), scale);
    ag::Variable attn = ag::Reshape(
        ag::RowSoftmax(ag::Reshape(scores, {batch * f, f})), {batch, f, f});
    ag::Variable pooled = ag::BatchedMatMul(attn, v);  // [B,F,hd]
    head_outputs.push_back(ag::Reshape(pooled, {batch * f, head_dim_}));
  }

  ag::Variable heads = ag::ConcatCols(head_outputs);  // [B*F, H*hd]
  ag::Variable residual = res_proj_->Forward(x_flat);
  ag::Variable out = ag::Relu(ag::Add(heads, residual));
  return ag::Reshape(out, {batch, f, num_heads_ * head_dim_});
}

}  // namespace basm::nn
