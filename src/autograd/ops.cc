#include "autograd/ops.h"

#include <cmath>
#include <utility>

#include "tensor/tensor_ops.h"

namespace basm::autograd {

namespace {

/// Builds an interior node from parents + forward value; requires_grad is
/// inherited from the parents. The backward_fn may assume `EnsureGrad` has
/// been called on the node before invocation.
Variable MakeNode(std::vector<Variable> parents, Tensor value,
                  std::function<void(Node&)> backward_fn) {
  auto node = std::make_shared<Node>();
  node->value = std::move(value);
  if (!GradEnabled()) {
    // Inference mode: detached node. Dropping the parent edges lets each
    // intermediate tensor free as soon as its last consumer runs, so large
    // serving batches stay cache-resident.
    return Variable(std::move(node));
  }
  for (const Variable& p : parents) {
    BASM_CHECK(p.defined());
    node->parents.push_back(p.node());
    node->requires_grad = node->requires_grad || p.requires_grad();
  }
  if (node->requires_grad) {
    node->backward_fn = std::move(backward_fn);
  }
  return Variable(std::move(node));
}

/// Accumulates `delta` into `target`'s gradient if it participates in
/// training; no-op otherwise.
void Accumulate(const std::shared_ptr<Node>& target, const Tensor& delta) {
  if (!target->requires_grad) return;
  target->EnsureGrad();
  target->grad.AddInPlace(delta);
}

}  // namespace

Variable MatMul(const Variable& a, const Variable& b) {
  Tensor value = ops::MatMul(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeNode({a, b}, std::move(value), [an, bn](Node& node) {
    if (an->requires_grad) {
      Accumulate(an, ops::MatMulTransB(node.grad, bn->value));
    }
    if (bn->requires_grad) {
      Accumulate(bn, ops::MatMulTransA(an->value, node.grad));
    }
  });
}

Variable BatchedMatMul(const Variable& a, const Variable& b) {
  Tensor value = ops::BatchedMatMul(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeNode({a, b}, std::move(value), [an, bn](Node& node) {
    if (an->requires_grad) {
      Accumulate(an, ops::BatchedMatMulTransB(node.grad, bn->value));
    }
    if (bn->requires_grad) {
      Accumulate(bn, ops::BatchedMatMulTransA(an->value, node.grad));
    }
  });
}

Variable BatchedMatMulTransB(const Variable& a, const Variable& b) {
  Tensor value = ops::BatchedMatMulTransB(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeNode({a, b}, std::move(value), [an, bn](Node& node) {
    // C = A B^T  =>  dA = dC B, dB = dC^T A.
    if (an->requires_grad) {
      Accumulate(an, ops::BatchedMatMul(node.grad, bn->value));
    }
    if (bn->requires_grad) {
      Accumulate(bn, ops::BatchedMatMulTransA(node.grad, an->value));
    }
  });
}

Variable Add(const Variable& a, const Variable& b) {
  Tensor value = ops::Add(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeNode({a, b}, std::move(value), [an, bn](Node& node) {
    Accumulate(an, node.grad);
    Accumulate(bn, node.grad);
  });
}

Variable Sub(const Variable& a, const Variable& b) {
  Tensor value = ops::Sub(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeNode({a, b}, std::move(value), [an, bn](Node& node) {
    Accumulate(an, node.grad);
    if (bn->requires_grad) Accumulate(bn, ops::Scale(node.grad, -1.0f));
  });
}

Variable Mul(const Variable& a, const Variable& b) {
  Tensor value = ops::Mul(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeNode({a, b}, std::move(value), [an, bn](Node& node) {
    if (an->requires_grad) Accumulate(an, ops::Mul(node.grad, bn->value));
    if (bn->requires_grad) Accumulate(bn, ops::Mul(node.grad, an->value));
  });
}

Variable Div(const Variable& a, const Variable& b) {
  Tensor value = ops::Div(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeNode({a, b}, std::move(value), [an, bn](Node& node) {
    if (an->requires_grad) Accumulate(an, ops::Div(node.grad, bn->value));
    if (bn->requires_grad) {
      // d/db (a/b) = -a / b^2
      Tensor d = ops::Div(ops::Mul(node.grad, an->value),
                          ops::Mul(bn->value, bn->value));
      Accumulate(bn, ops::Scale(d, -1.0f));
    }
  });
}

Variable Scale(const Variable& a, float s) {
  Tensor value = ops::Scale(a.value(), s);
  auto an = a.node();
  return MakeNode({a}, std::move(value), [an, s](Node& node) {
    Accumulate(an, ops::Scale(node.grad, s));
  });
}

Variable AddScalar(const Variable& a, float s) {
  Tensor value = ops::AddScalar(a.value(), s);
  auto an = a.node();
  return MakeNode({a}, std::move(value),
                  [an](Node& node) { Accumulate(an, node.grad); });
}

Variable Neg(const Variable& a) { return Scale(a, -1.0f); }

Variable AddRowBroadcast(const Variable& a, const Variable& b) {
  Tensor value = ops::AddRowBroadcast(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeNode({a, b}, std::move(value), [an, bn](Node& node) {
    Accumulate(an, node.grad);
    if (bn->requires_grad) {
      Accumulate(bn, ops::ColSum(node.grad).Reshape(bn->value.shape()));
    }
  });
}

Variable MulRowBroadcast(const Variable& a, const Variable& b) {
  Tensor value = ops::MulRowBroadcast(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeNode({a, b}, std::move(value), [an, bn](Node& node) {
    if (an->requires_grad) {
      Accumulate(an, ops::MulRowBroadcast(node.grad, bn->value));
    }
    if (bn->requires_grad) {
      Tensor d = ops::ColSum(ops::Mul(node.grad, an->value));
      Accumulate(bn, d.Reshape(bn->value.shape()));
    }
  });
}

Variable AddColBroadcast(const Variable& a, const Variable& b) {
  Tensor value = ops::AddColBroadcast(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeNode({a, b}, std::move(value), [an, bn](Node& node) {
    Accumulate(an, node.grad);
    if (bn->requires_grad) {
      Accumulate(bn, ops::RowSum(node.grad).Reshape(bn->value.shape()));
    }
  });
}

Variable MulColBroadcast(const Variable& a, const Variable& b) {
  Tensor value = ops::MulColBroadcast(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return MakeNode({a, b}, std::move(value), [an, bn](Node& node) {
    if (an->requires_grad) {
      Accumulate(an, ops::MulColBroadcast(node.grad, bn->value));
    }
    if (bn->requires_grad) {
      Tensor d = ops::RowSum(ops::Mul(node.grad, an->value));
      Accumulate(bn, d.Reshape(bn->value.shape()));
    }
  });
}

Variable Sigmoid(const Variable& a) {
  Tensor value = ops::Sigmoid(a.value());
  auto an = a.node();
  return MakeNode({a}, std::move(value), [an](Node& node) {
    Tensor d = node.grad;
    const Tensor& y = node.value;
    for (int64_t i = 0; i < d.numel(); ++i) d[i] *= y[i] * (1.0f - y[i]);
    Accumulate(an, d);
  });
}

Variable Tanh(const Variable& a) {
  Tensor value = ops::Tanh(a.value());
  auto an = a.node();
  return MakeNode({a}, std::move(value), [an](Node& node) {
    Tensor d = node.grad;
    const Tensor& y = node.value;
    for (int64_t i = 0; i < d.numel(); ++i) d[i] *= 1.0f - y[i] * y[i];
    Accumulate(an, d);
  });
}

Variable Relu(const Variable& a) {
  Tensor value = ops::Relu(a.value());
  auto an = a.node();
  return MakeNode({a}, std::move(value), [an](Node& node) {
    Tensor d = node.grad;
    for (int64_t i = 0; i < d.numel(); ++i) {
      if (an->value[i] <= 0.0f) d[i] = 0.0f;
    }
    Accumulate(an, d);
  });
}

Variable LeakyRelu(const Variable& a, float alpha) {
  Tensor value = ops::LeakyRelu(a.value(), alpha);
  auto an = a.node();
  return MakeNode({a}, std::move(value), [an, alpha](Node& node) {
    Tensor d = node.grad;
    for (int64_t i = 0; i < d.numel(); ++i) {
      if (an->value[i] <= 0.0f) d[i] *= alpha;
    }
    Accumulate(an, d);
  });
}

Variable Exp(const Variable& a) {
  Tensor value = ops::Exp(a.value());
  auto an = a.node();
  return MakeNode({a}, std::move(value), [an](Node& node) {
    Accumulate(an, ops::Mul(node.grad, node.value));
  });
}

Variable Log(const Variable& a, float floor) {
  Tensor value = ops::Log(a.value(), floor);
  auto an = a.node();
  return MakeNode({a}, std::move(value), [an, floor](Node& node) {
    Tensor d = node.grad;
    for (int64_t i = 0; i < d.numel(); ++i) {
      d[i] /= std::max(an->value[i], floor);
    }
    Accumulate(an, d);
  });
}

Variable Rsqrt(const Variable& a, float eps) {
  Tensor value = ops::Map(a.value(), [eps](float v) {
    return 1.0f / std::sqrt(v + eps);
  });
  auto an = a.node();
  return MakeNode({a}, std::move(value), [an](Node& node) {
    // y = (x+eps)^-1/2, dy/dx = -0.5 y^3.
    Tensor d = node.grad;
    const Tensor& y = node.value;
    for (int64_t i = 0; i < d.numel(); ++i) {
      d[i] *= -0.5f * y[i] * y[i] * y[i];
    }
    Accumulate(an, d);
  });
}

Variable SumAll(const Variable& a) {
  Tensor value = ops::SumAll(a.value());
  auto an = a.node();
  return MakeNode({a}, std::move(value), [an](Node& node) {
    if (!an->requires_grad) return;
    Tensor d = Tensor::Full(an->value.shape(), node.grad[0]);
    Accumulate(an, d);
  });
}

Variable MeanAll(const Variable& a) {
  return Scale(SumAll(a), 1.0f / static_cast<float>(a.numel()));
}

Variable RowSum(const Variable& a) {
  Tensor value = ops::RowSum(a.value());
  auto an = a.node();
  return MakeNode({a}, std::move(value), [an](Node& node) {
    if (!an->requires_grad) return;
    Accumulate(an,
               ops::AddColBroadcast(Tensor(an->value.shape()), node.grad));
  });
}

Variable ColMean(const Variable& a) {
  Tensor value = ops::ColMean(a.value());
  auto an = a.node();
  int64_t rows = a.value().rows();
  return MakeNode({a}, std::move(value), [an, rows](Node& node) {
    if (!an->requires_grad) return;
    Tensor scaled = ops::Scale(node.grad, 1.0f / static_cast<float>(rows));
    Accumulate(an, ops::AddRowBroadcast(Tensor(an->value.shape()), scaled));
  });
}

Variable ConcatCols(const std::vector<Variable>& parts) {
  BASM_CHECK(!parts.empty());
  std::vector<Tensor> values;
  values.reserve(parts.size());
  for (const Variable& p : parts) values.push_back(p.value());
  Tensor value = ops::ConcatCols(values);

  std::vector<std::shared_ptr<Node>> nodes;
  std::vector<int64_t> widths;
  for (const Variable& p : parts) {
    nodes.push_back(p.node());
    widths.push_back(p.value().cols());
  }
  return MakeNode(parts, std::move(value), [nodes, widths](Node& node) {
    int64_t offset = 0;
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i]->requires_grad) {
        Accumulate(nodes[i], ops::SliceCols(node.grad, offset, widths[i]));
      }
      offset += widths[i];
    }
  });
}

Variable SliceCols(const Variable& a, int64_t start, int64_t len) {
  Tensor value = ops::SliceCols(a.value(), start, len);
  auto an = a.node();
  return MakeNode({a}, std::move(value), [an, start, len](Node& node) {
    if (!an->requires_grad) return;
    Tensor d(an->value.shape());
    int64_t cols = an->value.cols();
    for (int64_t i = 0; i < d.rows(); ++i) {
      for (int64_t j = 0; j < len; ++j) {
        d[i * cols + start + j] = node.grad[i * len + j];
      }
    }
    Accumulate(an, d);
  });
}

Variable Reshape(const Variable& a, std::vector<int64_t> new_shape) {
  Tensor value = a.value().Reshape(std::move(new_shape));
  auto an = a.node();
  return MakeNode({a}, std::move(value), [an](Node& node) {
    if (!an->requires_grad) return;
    Accumulate(an, node.grad.Reshape(an->value.shape()));
  });
}

Variable RowSoftmax(const Variable& a) {
  Tensor value = ops::RowSoftmax(a.value());
  auto an = a.node();
  return MakeNode({a}, std::move(value), [an](Node& node) {
    if (!an->requires_grad) return;
    // da = y * (dy - rowsum(dy * y))
    const Tensor& y = node.value;
    Tensor prod = ops::Mul(node.grad, y);
    Tensor row_dots = ops::RowSum(prod);  // [m,1]
    Tensor d = node.grad;
    int64_t cols = y.cols();
    for (int64_t i = 0; i < y.rows(); ++i) {
      for (int64_t j = 0; j < cols; ++j) {
        int64_t idx = i * cols + j;
        d[idx] = y[idx] * (d[idx] - row_dots[i]);
      }
    }
    Accumulate(an, d);
  });
}

Variable RepeatInterleaveRows(const Variable& a, int64_t times) {
  BASM_CHECK_EQ(a.value().rank(), 2);
  BASM_CHECK_GT(times, 0);
  int64_t m = a.value().rows(), n = a.value().cols();
  Tensor value({m * times, n});
  for (int64_t i = 0; i < m; ++i) {
    const float* src = a.value().data() + i * n;
    for (int64_t t = 0; t < times; ++t) {
      std::copy(src, src + n, value.data() + (i * times + t) * n);
    }
  }
  auto an = a.node();
  return MakeNode({a}, std::move(value), [an, m, n, times](Node& node) {
    if (!an->requires_grad) return;
    Tensor d({m, n});
    for (int64_t i = 0; i < m; ++i) {
      float* dst = d.data() + i * n;
      for (int64_t t = 0; t < times; ++t) {
        const float* src = node.grad.data() + (i * times + t) * n;
        for (int64_t j = 0; j < n; ++j) dst[j] += src[j];
      }
    }
    Accumulate(an, d);
  });
}

Variable GatherRows(const Variable& a, const std::vector<int32_t>& index) {
  Tensor value = ops::GatherRows(a.value(), index);
  auto an = a.node();
  return MakeNode({a}, std::move(value), [an, index](Node& node) {
    if (!an->requires_grad) return;
    const int64_t n = an->value.cols();
    Tensor d(an->value.shape());
    for (size_t i = 0; i < index.size(); ++i) {
      float* dst = d.data() + static_cast<int64_t>(index[i]) * n;
      const float* src = node.grad.data() + static_cast<int64_t>(i) * n;
      for (int64_t j = 0; j < n; ++j) dst[j] += src[j];
    }
    Accumulate(an, d);
  });
}

Variable EmbeddingLookup(const Variable& table,
                         const std::vector<int32_t>& indices) {
  const Tensor& t = table.value();
  BASM_CHECK_EQ(t.rank(), 2);
  int64_t n = t.rows(), d = t.cols();
  Tensor value({static_cast<int64_t>(indices.size()), d});
  for (size_t i = 0; i < indices.size(); ++i) {
    int32_t idx = indices[i];
    BASM_CHECK_GE(idx, 0);
    BASM_CHECK_LT(idx, n);
    std::copy(t.data() + idx * d, t.data() + (idx + 1) * d,
              value.data() + static_cast<int64_t>(i) * d);
  }
  auto tn = table.node();
  return MakeNode({table}, std::move(value), [tn, indices, d](Node& node) {
    if (!tn->requires_grad) return;
    tn->EnsureGrad();
    for (size_t i = 0; i < indices.size(); ++i) {
      float* dst = tn->grad.data() + static_cast<int64_t>(indices[i]) * d;
      const float* src = node.grad.data() + static_cast<int64_t>(i) * d;
      for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
    }
  });
}

Variable BceWithLogits(const Variable& logits, const Tensor& labels) {
  const Tensor& z = logits.value();
  BASM_CHECK_EQ(z.numel(), labels.numel());
  BASM_CHECK_GT(z.numel(), 0);
  int64_t n = z.numel();
  // loss = mean( max(z,0) - z*y + log(1 + exp(-|z|)) )
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    float zi = z[i], yi = labels[i];
    acc += std::max(zi, 0.0f) - zi * yi +
           std::log1p(std::exp(-std::abs(zi)));
  }
  Tensor value({1}, {static_cast<float>(acc / static_cast<double>(n))});
  auto ln = logits.node();
  return MakeNode({logits}, std::move(value), [ln, labels, n](Node& node) {
    if (!ln->requires_grad) return;
    float scale = node.grad[0] / static_cast<float>(n);
    Tensor d(ln->value.shape());
    for (int64_t i = 0; i < n; ++i) {
      float p = 1.0f / (1.0f + std::exp(-ln->value[i]));
      d[i] = scale * (p - labels[i]);
    }
    Accumulate(ln, d);
  });
}

Variable MseLoss(const Variable& pred, const Tensor& target) {
  BASM_CHECK(pred.value().SameShape(target));
  int64_t n = pred.numel();
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    double diff = pred.value()[i] - target[i];
    acc += diff * diff;
  }
  Tensor value({1}, {static_cast<float>(acc / static_cast<double>(n))});
  auto pn = pred.node();
  return MakeNode({pred}, std::move(value), [pn, target, n](Node& node) {
    if (!pn->requires_grad) return;
    float scale = 2.0f * node.grad[0] / static_cast<float>(n);
    Tensor d(pn->value.shape());
    for (int64_t i = 0; i < n; ++i) {
      d[i] = scale * (pn->value[i] - target[i]);
    }
    Accumulate(pn, d);
  });
}

}  // namespace basm::autograd
