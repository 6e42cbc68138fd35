#include "tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.h"

namespace basm::ops {

namespace {

void CheckSameShape(const Tensor& a, const Tensor& b, const char* op) {
  BASM_CHECK(a.SameShape(b)) << op << ": " << ShapeToString(a.shape())
                             << " vs " << ShapeToString(b.shape());
}

/// Broadcast vector length check: b may be [n] or [1,n].
int64_t BroadcastLen(const Tensor& b) {
  if (b.rank() == 1) return b.dim(0);
  BASM_CHECK_EQ(b.rank(), 2);
  BASM_CHECK_EQ(b.dim(0), 1);
  return b.dim(1);
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  BASM_CHECK_EQ(a.rank(), 2);
  BASM_CHECK_EQ(b.rank(), 2);
  BASM_CHECK_EQ(a.cols(), b.rows())
      << ShapeToString(a.shape()) << " x " << ShapeToString(b.shape());
  Tensor c = Tensor::Uninitialized({a.rows(), b.cols()});
  kernels::Gemm(a.data(), b.data(), c.data(), a.rows(), a.cols(), b.cols());
  return c;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  BASM_CHECK_EQ(a.rank(), 2);
  BASM_CHECK_EQ(b.rank(), 2);
  BASM_CHECK_EQ(a.rows(), b.rows());
  Tensor c = Tensor::Uninitialized({a.cols(), b.cols()});
  kernels::GemmTransA(a.data(), b.data(), c.data(), a.rows(), a.cols(),
                      b.cols());
  return c;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  BASM_CHECK_EQ(a.rank(), 2);
  BASM_CHECK_EQ(b.rank(), 2);
  BASM_CHECK_EQ(a.cols(), b.cols());
  Tensor c = Tensor::Uninitialized({a.rows(), b.rows()});
  kernels::GemmTransB(a.data(), b.data(), c.data(), a.rows(), a.cols(),
                      b.rows());
  return c;
}

Tensor BatchedMatMul(const Tensor& a, const Tensor& b) {
  BASM_CHECK_EQ(a.rank(), 3);
  BASM_CHECK_EQ(b.rank(), 3);
  BASM_CHECK_EQ(a.dim(0), b.dim(0));
  BASM_CHECK_EQ(a.dim(2), b.dim(1));
  int64_t bs = a.dim(0), m = a.dim(1), k = a.dim(2), n = b.dim(2);
  Tensor c = Tensor::Uninitialized({bs, m, n});
  for (int64_t i = 0; i < bs; ++i) {
    kernels::Gemm(a.data() + i * m * k, b.data() + i * k * n,
                  c.data() + i * m * n, m, k, n);
  }
  return c;
}

Tensor BatchedMatMulTransA(const Tensor& a, const Tensor& b) {
  BASM_CHECK_EQ(a.rank(), 3);
  BASM_CHECK_EQ(b.rank(), 3);
  BASM_CHECK_EQ(a.dim(0), b.dim(0));
  BASM_CHECK_EQ(a.dim(1), b.dim(1));
  int64_t bs = a.dim(0), m = a.dim(1), k = a.dim(2), n = b.dim(2);
  Tensor c = Tensor::Uninitialized({bs, k, n});
  for (int64_t bi = 0; bi < bs; ++bi) {
    kernels::GemmTransA(a.data() + bi * m * k, b.data() + bi * m * n,
                        c.data() + bi * k * n, m, k, n);
  }
  return c;
}

Tensor BatchedMatMulTransB(const Tensor& a, const Tensor& b) {
  BASM_CHECK_EQ(a.rank(), 3);
  BASM_CHECK_EQ(b.rank(), 3);
  BASM_CHECK_EQ(a.dim(0), b.dim(0));
  BASM_CHECK_EQ(a.dim(2), b.dim(2));
  int64_t bs = a.dim(0), m = a.dim(1), k = a.dim(2), n = b.dim(1);
  Tensor c = Tensor::Uninitialized({bs, m, n});
  for (int64_t bi = 0; bi < bs; ++bi) {
    kernels::GemmTransB(a.data() + bi * m * k, b.data() + bi * n * k,
                        c.data() + bi * m * n, m, k, n);
  }
  return c;
}

Tensor MatMulBias(const Tensor& a, const Tensor& b, const Tensor* bias) {
  Tensor c = MatMul(a, b);
  if (bias != nullptr) AddRowBroadcastInPlace(c, *bias);
  return c;
}

Tensor MatMulBiasAct(const Tensor& a, const Tensor& b, const Tensor* bias,
                     Act act, float leaky_alpha) {
  Tensor c = MatMulBias(a, b, bias);
  ActivateInPlace(c, act, leaky_alpha);
  return c;
}

void AddRowBroadcastInPlace(Tensor& a, const Tensor& b) {
  BASM_CHECK_EQ(a.rank(), 2);
  const int64_t n = BroadcastLen(b);
  BASM_CHECK_EQ(a.cols(), n);
  const float* bv = b.data();
  for (int64_t i = 0; i < a.rows(); ++i) {
    float* row = a.data() + i * n;
    for (int64_t j = 0; j < n; ++j) row[j] += bv[j];
  }
}

void MulRowBroadcastInPlace(Tensor& a, const Tensor& b) {
  BASM_CHECK_EQ(a.rank(), 2);
  const int64_t n = BroadcastLen(b);
  BASM_CHECK_EQ(a.cols(), n);
  const float* bv = b.data();
  for (int64_t i = 0; i < a.rows(); ++i) {
    float* row = a.data() + i * n;
    for (int64_t j = 0; j < n; ++j) row[j] *= bv[j];
  }
}

void ActivateInPlace(Tensor& t, Act act, float leaky_alpha) {
  float* d = t.data();
  const int64_t n = t.numel();
  switch (act) {
    case Act::kNone:
      return;
    case Act::kRelu:
      for (int64_t i = 0; i < n; ++i) d[i] = d[i] > 0.0f ? d[i] : 0.0f;
      return;
    case Act::kLeakyRelu:
      // max(x, ax) is x > 0 ? x : ax for 0 <= a < 1, without the branch;
      // the one exception is -inf at a = 0, which x > 0 ? x : ax sent to
      // 0 * -inf = NaN.
      BASM_CHECK(leaky_alpha >= 0.0f && leaky_alpha < 1.0f)
          << "leaky_alpha " << leaky_alpha << " outside [0, 1)";
      for (int64_t i = 0; i < n; ++i) {
        d[i] = std::max(d[i], leaky_alpha * d[i]);
      }
      return;
    case Act::kSigmoid:
      for (int64_t i = 0; i < n; ++i) d[i] = 1.0f / (1.0f + std::exp(-d[i]));
      return;
    case Act::kTanh:
      for (int64_t i = 0; i < n; ++i) d[i] = std::tanh(d[i]);
      return;
  }
}

Tensor BatchNormInference(const Tensor& x, const Tensor& neg_mean,
                          const Tensor& inv, const Tensor& gamma,
                          const Tensor& beta) {
  BASM_CHECK_EQ(x.rank(), 2);
  const int64_t n = BroadcastLen(neg_mean);
  BASM_CHECK_EQ(x.cols(), n);
  BASM_CHECK_EQ(BroadcastLen(inv), n);
  BASM_CHECK_EQ(BroadcastLen(gamma), n);
  BASM_CHECK_EQ(BroadcastLen(beta), n);
  Tensor out = Tensor::Uninitialized(x.shape());
  const float* nm = neg_mean.data();
  const float* iv = inv.data();
  const float* g = gamma.data();
  const float* bt = beta.data();
  for (int64_t i = 0; i < x.rows(); ++i) {
    const float* xr = x.data() + i * n;
    float* o = out.data() + i * n;
    // center, scale, gamma, beta — the exact eval-mode op-chain order.
    for (int64_t j = 0; j < n; ++j) {
      o[j] = ((xr[j] + nm[j]) * iv[j]) * g[j] + bt[j];
    }
  }
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Add");
  Tensor c = a;
  c.AddInPlace(b);
  return c;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Sub");
  Tensor c = a;
  c.AddScaledInPlace(b, -1.0f);
  return c;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Mul");
  Tensor c = a;
  for (int64_t i = 0; i < c.numel(); ++i) c[i] *= b[i];
  return c;
}

Tensor Div(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "Div");
  Tensor c = a;
  for (int64_t i = 0; i < c.numel(); ++i) c[i] /= b[i];
  return c;
}

Tensor Scale(const Tensor& a, float s) {
  Tensor c = a;
  c.ScaleInPlace(s);
  return c;
}

Tensor AddScalar(const Tensor& a, float s) {
  Tensor c = a;
  for (int64_t i = 0; i < c.numel(); ++i) c[i] += s;
  return c;
}

Tensor Map(const Tensor& a, const std::function<float(float)>& fn) {
  Tensor c = a;
  for (int64_t i = 0; i < c.numel(); ++i) c[i] = fn(c[i]);
  return c;
}

Tensor AddRowBroadcast(const Tensor& a, const Tensor& b) {
  BASM_CHECK_EQ(a.rank(), 2);
  int64_t n = BroadcastLen(b);
  BASM_CHECK_EQ(a.cols(), n);
  Tensor c = a;
  for (int64_t i = 0; i < a.rows(); ++i) {
    float* row = c.data() + i * n;
    for (int64_t j = 0; j < n; ++j) row[j] += b[j];
  }
  return c;
}

Tensor MulRowBroadcast(const Tensor& a, const Tensor& b) {
  BASM_CHECK_EQ(a.rank(), 2);
  int64_t n = BroadcastLen(b);
  BASM_CHECK_EQ(a.cols(), n);
  Tensor c = a;
  for (int64_t i = 0; i < a.rows(); ++i) {
    float* row = c.data() + i * n;
    for (int64_t j = 0; j < n; ++j) row[j] *= b[j];
  }
  return c;
}

Tensor AddColBroadcast(const Tensor& a, const Tensor& b) {
  BASM_CHECK_EQ(a.rank(), 2);
  int64_t m = (b.rank() == 1) ? b.dim(0) : b.dim(0) * b.dim(1);
  BASM_CHECK_EQ(a.rows(), m);
  Tensor c = a;
  int64_t n = a.cols();
  for (int64_t i = 0; i < m; ++i) {
    float* row = c.data() + i * n;
    for (int64_t j = 0; j < n; ++j) row[j] += b[i];
  }
  return c;
}

Tensor MulColBroadcast(const Tensor& a, const Tensor& b) {
  BASM_CHECK_EQ(a.rank(), 2);
  int64_t m = (b.rank() == 1) ? b.dim(0) : b.dim(0) * b.dim(1);
  BASM_CHECK_EQ(a.rows(), m);
  Tensor c = a;
  int64_t n = a.cols();
  for (int64_t i = 0; i < m; ++i) {
    float* row = c.data() + i * n;
    for (int64_t j = 0; j < n; ++j) row[j] *= b[i];
  }
  return c;
}

// The nonlinearities run direct loops rather than Map: a std::function call
// per element costs more than the arithmetic at serving shapes.

Tensor Sigmoid(const Tensor& a) {
  Tensor c = a;
  ActivateInPlace(c, Act::kSigmoid);
  return c;
}

Tensor Tanh(const Tensor& a) {
  Tensor c = a;
  ActivateInPlace(c, Act::kTanh);
  return c;
}

Tensor Relu(const Tensor& a) {
  Tensor c = a;
  ActivateInPlace(c, Act::kRelu);
  return c;
}

Tensor LeakyRelu(const Tensor& a, float alpha) {
  Tensor c = a;
  ActivateInPlace(c, Act::kLeakyRelu, alpha);
  return c;
}

Tensor Exp(const Tensor& a) {
  Tensor c = a;
  float* d = c.data();
  for (int64_t i = 0; i < c.numel(); ++i) d[i] = std::exp(d[i]);
  return c;
}

Tensor Log(const Tensor& a, float floor) {
  Tensor c = a;
  float* d = c.data();
  for (int64_t i = 0; i < c.numel(); ++i) {
    d[i] = std::log(std::max(d[i], floor));
  }
  return c;
}

Tensor Sqrt(const Tensor& a) {
  Tensor c = a;
  float* d = c.data();
  for (int64_t i = 0; i < c.numel(); ++i) d[i] = std::sqrt(d[i]);
  return c;
}

Tensor SumAll(const Tensor& a) { return Tensor({1}, {a.Sum()}); }

Tensor RowSum(const Tensor& a) {
  BASM_CHECK_EQ(a.rank(), 2);
  Tensor c({a.rows(), 1});
  for (int64_t i = 0; i < a.rows(); ++i) {
    double acc = 0.0;
    const float* row = a.data() + i * a.cols();
    for (int64_t j = 0; j < a.cols(); ++j) acc += row[j];
    c[i] = static_cast<float>(acc);
  }
  return c;
}

Tensor ColSum(const Tensor& a) {
  BASM_CHECK_EQ(a.rank(), 2);
  Tensor c({1, a.cols()});
  for (int64_t i = 0; i < a.rows(); ++i) {
    const float* row = a.data() + i * a.cols();
    for (int64_t j = 0; j < a.cols(); ++j) c[j] += row[j];
  }
  return c;
}

Tensor ColMean(const Tensor& a) {
  BASM_CHECK_GT(a.rows(), 0);
  Tensor c = ColSum(a);
  c.ScaleInPlace(1.0f / static_cast<float>(a.rows()));
  return c;
}

Tensor ConcatCols(const std::vector<Tensor>& parts) {
  BASM_CHECK(!parts.empty());
  int64_t rows = parts[0].rows();
  int64_t total_cols = 0;
  for (const Tensor& p : parts) {
    BASM_CHECK_EQ(p.rank(), 2);
    BASM_CHECK_EQ(p.rows(), rows);
    total_cols += p.cols();
  }
  Tensor c({rows, total_cols});
  int64_t offset = 0;
  for (const Tensor& p : parts) {
    for (int64_t i = 0; i < rows; ++i) {
      std::copy(p.data() + i * p.cols(), p.data() + (i + 1) * p.cols(),
                c.data() + i * total_cols + offset);
    }
    offset += p.cols();
  }
  return c;
}

Tensor SliceCols(const Tensor& a, int64_t start, int64_t len) {
  BASM_CHECK_EQ(a.rank(), 2);
  BASM_CHECK_GE(start, 0);
  BASM_CHECK_GE(len, 0);
  BASM_CHECK_LE(start + len, a.cols());
  Tensor c({a.rows(), len});
  for (int64_t i = 0; i < a.rows(); ++i) {
    std::copy(a.data() + i * a.cols() + start,
              a.data() + i * a.cols() + start + len, c.data() + i * len);
  }
  return c;
}

Tensor GatherRows(const Tensor& a, const std::vector<int32_t>& index) {
  BASM_CHECK_EQ(a.rank(), 2);
  const int64_t n = a.cols();
  Tensor c = Tensor::Uninitialized({static_cast<int64_t>(index.size()), n});
  for (size_t i = 0; i < index.size(); ++i) {
    BASM_CHECK_GE(index[i], 0);
    BASM_CHECK_LT(index[i], a.rows());
    std::copy(a.data() + index[i] * n, a.data() + (index[i] + 1) * n,
              c.data() + static_cast<int64_t>(i) * n);
  }
  return c;
}

Tensor Transpose(const Tensor& a) {
  BASM_CHECK_EQ(a.rank(), 2);
  Tensor c({a.cols(), a.rows()});
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) {
      c.at(j, i) = a.at(i, j);
    }
  }
  return c;
}

Tensor RowSoftmax(const Tensor& a) {
  BASM_CHECK_EQ(a.rank(), 2);
  Tensor c = a;
  for (int64_t i = 0; i < a.rows(); ++i) {
    float* row = c.data() + i * a.cols();
    float mx = row[0];
    for (int64_t j = 1; j < a.cols(); ++j) mx = std::max(mx, row[j]);
    double denom = 0.0;
    for (int64_t j = 0; j < a.cols(); ++j) {
      row[j] = std::exp(row[j] - mx);
      denom += row[j];
    }
    float inv = static_cast<float>(1.0 / denom);
    for (int64_t j = 0; j < a.cols(); ++j) row[j] *= inv;
  }
  return c;
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b, "MaxAbsDiff");
  float mx = 0.0f;
  for (int64_t i = 0; i < a.numel(); ++i) {
    mx = std::max(mx, std::abs(a[i] - b[i]));
  }
  return mx;
}

bool AllClose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (!a.SameShape(b)) return false;
  for (int64_t i = 0; i < a.numel(); ++i) {
    if (std::abs(a[i] - b[i]) > atol + rtol * std::abs(b[i])) return false;
  }
  return true;
}

}  // namespace basm::ops
