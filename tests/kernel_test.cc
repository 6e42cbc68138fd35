#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "tensor/arena.h"
#include "tensor/kernels.h"
#include "tensor/reference_ops.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace basm {
namespace {

namespace kernels = ::basm::ops::kernels;
namespace reference = ::basm::ops::reference;

// ------------------------------------------------------------- equivalence --

struct GemmShape {
  int64_t m, k, n;
};

/// Odd shapes on purpose: single rows/cols/depth, dims off every SIMD
/// multiple (7, 9, 17, 33, 511...), serving-relevant rectangles, and empties.
const GemmShape kShapes[] = {
    {1, 1, 1},    {1, 7, 3},      {3, 1, 5},     {5, 9, 1},
    {4, 8, 16},   {17, 33, 65},   {32, 176, 64}, {1, 256, 128},
    {64, 511, 48}, {2, 3, 1000},  {0, 4, 5},     {4, 0, 5},
    {4, 5, 0},
};

/// Tolerance scaled to the accumulation depth: blocked/AVX2 kernels
/// reassociate the k-sum, so error grows (slowly) with k.
float TolForK(int64_t k) { return k >= 128 ? 1e-4f : 1e-5f; }

std::vector<kernels::Backend> OptimizedBackends() {
  std::vector<kernels::Backend> backends = {kernels::Backend::kBlocked};
  if (kernels::Avx2Available()) backends.push_back(kernels::Backend::kAvx2);
  return backends;
}

void ExpectNear(const Tensor& got, const Tensor& want, float tol,
                const char* what, const GemmShape& s) {
  ASSERT_TRUE(got.SameShape(want))
      << what << " " << s.m << "x" << s.k << "x" << s.n;
  EXPECT_LE(ops::MaxAbsDiff(got, want), tol)
      << what << " " << s.m << "x" << s.k << "x" << s.n;
}

TEST(KernelTest, GemmMatchesReferenceAcrossBackends) {
  Rng rng(42);
  for (kernels::Backend backend : OptimizedBackends()) {
    kernels::ScopedBackend scoped(backend);
    for (const GemmShape& s : kShapes) {
      Tensor a = Tensor::Uniform({s.m, s.k}, -1.0f, 1.0f, rng);
      Tensor b = Tensor::Uniform({s.k, s.n}, -1.0f, 1.0f, rng);
      ExpectNear(ops::MatMul(a, b), reference::MatMul(a, b), TolForK(s.k),
                 kernels::BackendName(backend), s);
    }
  }
}

TEST(KernelTest, GemmTransAMatchesReferenceAcrossBackends) {
  Rng rng(43);
  for (kernels::Backend backend : OptimizedBackends()) {
    kernels::ScopedBackend scoped(backend);
    for (const GemmShape& s : kShapes) {
      // a is [m,k] (transposed in the product), b is [m,n].
      Tensor a = Tensor::Uniform({s.m, s.k}, -1.0f, 1.0f, rng);
      Tensor b = Tensor::Uniform({s.m, s.n}, -1.0f, 1.0f, rng);
      ExpectNear(ops::MatMulTransA(a, b), reference::MatMulTransA(a, b),
                 TolForK(s.m), kernels::BackendName(backend), s);
    }
  }
}

TEST(KernelTest, GemmTransBMatchesReferenceAcrossBackends) {
  Rng rng(44);
  for (kernels::Backend backend : OptimizedBackends()) {
    kernels::ScopedBackend scoped(backend);
    for (const GemmShape& s : kShapes) {
      Tensor a = Tensor::Uniform({s.m, s.k}, -1.0f, 1.0f, rng);
      Tensor b = Tensor::Uniform({s.n, s.k}, -1.0f, 1.0f, rng);
      ExpectNear(ops::MatMulTransB(a, b), reference::MatMulTransB(a, b),
                 TolForK(s.k), kernels::BackendName(backend), s);
    }
  }
}

TEST(KernelTest, BatchedMatMulsMatchReferenceAcrossBackends) {
  Rng rng(45);
  const GemmShape batched[] = {{1, 1, 1}, {3, 7, 5}, {8, 16, 4}, {5, 33, 9}};
  for (kernels::Backend backend : OptimizedBackends()) {
    kernels::ScopedBackend scoped(backend);
    for (const GemmShape& s : batched) {
      for (int64_t bs : {1, 3}) {
        Tensor a = Tensor::Uniform({bs, s.m, s.k}, -1.0f, 1.0f, rng);
        Tensor b = Tensor::Uniform({bs, s.k, s.n}, -1.0f, 1.0f, rng);
        ExpectNear(ops::BatchedMatMul(a, b), reference::BatchedMatMul(a, b),
                   TolForK(s.k), kernels::BackendName(backend), s);

        Tensor bt = Tensor::Uniform({bs, s.n, s.k}, -1.0f, 1.0f, rng);
        ExpectNear(ops::BatchedMatMulTransB(a, bt),
                   reference::BatchedMatMulTransB(a, bt), TolForK(s.k),
                   kernels::BackendName(backend), s);

        Tensor bn = Tensor::Uniform({bs, s.m, s.n}, -1.0f, 1.0f, rng);
        ExpectNear(ops::BatchedMatMulTransA(a, bn),
                   reference::BatchedMatMulTransA(a, bn), TolForK(s.m),
                   kernels::BackendName(backend), s);
      }
    }
  }
}

TEST(KernelTest, ZeroHeavyInputsStayExact) {
  // The optimized kernels dropped the reference's zero-skip branch; results
  // on sparse (ReLU-like) inputs must still agree.
  Rng rng(46);
  for (kernels::Backend backend : OptimizedBackends()) {
    kernels::ScopedBackend scoped(backend);
    Tensor a = Tensor::Uniform({17, 64}, -1.0f, 1.0f, rng);
    for (int64_t i = 0; i < a.numel(); ++i) {
      if (a[i] < 0.3f) a[i] = 0.0f;  // ~65% zeros
    }
    Tensor b = Tensor::Uniform({64, 33}, -1.0f, 1.0f, rng);
    GemmShape s{17, 64, 33};
    ExpectNear(ops::MatMul(a, b), reference::MatMul(a, b), TolForK(64),
               kernels::BackendName(backend), s);
  }
}

// ---------------------------------------------------------------- fused ops --

TEST(KernelTest, MatMulBiasBitIdenticalToOpChain) {
  Rng rng(47);
  Tensor a = Tensor::Uniform({9, 33}, -1.0f, 1.0f, rng);
  Tensor w = Tensor::Uniform({33, 17}, -1.0f, 1.0f, rng);
  Tensor bias = Tensor::Uniform({1, 17}, -0.5f, 0.5f, rng);

  Tensor chained = ops::AddRowBroadcast(ops::MatMul(a, w), bias);
  Tensor fused = ops::MatMulBias(a, w, &bias);
  // Same kernel, same bias-add order: bitwise equal, not just close.
  ASSERT_TRUE(fused.SameShape(chained));
  for (int64_t i = 0; i < fused.numel(); ++i) {
    EXPECT_EQ(fused[i], chained[i]) << "element " << i;
  }

  Tensor no_bias = ops::MatMulBias(a, w, nullptr);
  Tensor plain = ops::MatMul(a, w);
  for (int64_t i = 0; i < no_bias.numel(); ++i) {
    EXPECT_EQ(no_bias[i], plain[i]);
  }
}

TEST(KernelTest, MatMulBiasActMatchesChain) {
  Rng rng(48);
  Tensor a = Tensor::Uniform({5, 12}, -1.0f, 1.0f, rng);
  Tensor w = Tensor::Uniform({12, 7}, -1.0f, 1.0f, rng);
  Tensor bias = Tensor::Uniform({1, 7}, -0.5f, 0.5f, rng);

  Tensor pre = ops::AddRowBroadcast(ops::MatMul(a, w), bias);
  struct Case {
    ops::Act act;
    Tensor want;
  };
  const Case cases[] = {
      {ops::Act::kNone, pre},
      {ops::Act::kRelu, ops::Relu(pre)},
      {ops::Act::kLeakyRelu, ops::LeakyRelu(pre, 0.01f)},
      {ops::Act::kSigmoid, ops::Sigmoid(pre)},
      {ops::Act::kTanh, ops::Tanh(pre)},
  };
  for (const Case& c : cases) {
    Tensor got = ops::MatMulBiasAct(a, w, &bias, c.act);
    for (int64_t i = 0; i < got.numel(); ++i) {
      EXPECT_EQ(got[i], c.want[i]);
    }
  }
}

TEST(KernelTest, BatchNormInferenceBitIdenticalToOpChain) {
  Rng rng(49);
  const int64_t rows = 11, cols = 19;
  Tensor x = Tensor::Uniform({rows, cols}, -2.0f, 2.0f, rng);
  Tensor mean = Tensor::Uniform({1, cols}, -1.0f, 1.0f, rng);
  Tensor var = Tensor::Uniform({1, cols}, 0.1f, 2.0f, rng);
  Tensor gamma = Tensor::Uniform({1, cols}, 0.5f, 1.5f, rng);
  Tensor beta = Tensor::Uniform({1, cols}, -0.5f, 0.5f, rng);

  const float eps = 1e-5f;
  Tensor inv = ops::Map(var, [eps](float v) {
    return 1.0f / std::sqrt(v + eps);
  });
  Tensor neg_mean = ops::Scale(mean, -1.0f);

  // The eval-mode BatchNorm chain, op by op.
  Tensor centered = ops::AddRowBroadcast(x, neg_mean);
  Tensor normalized = ops::MulRowBroadcast(centered, inv);
  Tensor chained =
      ops::AddRowBroadcast(ops::MulRowBroadcast(normalized, gamma), beta);

  Tensor fused = ops::BatchNormInference(x, neg_mean, inv, gamma, beta);
  for (int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_EQ(fused[i], chained[i]) << "BatchNormInference @" << i;
  }
}

TEST(KernelTest, InPlaceBroadcastsMatchCopies) {
  Rng rng(50);
  Tensor a = Tensor::Uniform({6, 13}, -1.0f, 1.0f, rng);
  Tensor row = Tensor::Uniform({13}, -1.0f, 1.0f, rng);

  Tensor add_copy = ops::AddRowBroadcast(a, row);
  Tensor add_inplace = a;
  ops::AddRowBroadcastInPlace(add_inplace, row);

  Tensor mul_copy = ops::MulRowBroadcast(a, row);
  Tensor mul_inplace = a;
  ops::MulRowBroadcastInPlace(mul_inplace, row);

  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_EQ(add_inplace[i], add_copy[i]);
    EXPECT_EQ(mul_inplace[i], mul_copy[i]);
  }
}

uint32_t Bits(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

TEST(KernelTest, LeakyReluMaxFormBitIdenticalToBranch) {
  using Limits = std::numeric_limits<float>;
  // Zeros, normals, the smallest normal, denormals and large values, each
  // with both signs.
  const std::vector<float> finite = {
      0.0f,           -0.0f,
      1.0f,           -1.0f,
      0.5f,           -0.5f,
      3.25e-3f,       -3.25e-3f,
      Limits::epsilon(), -Limits::epsilon(),
      Limits::min(),  -Limits::min(),
      Limits::denorm_min(), -Limits::denorm_min(),
      1e-40f,         -1e-40f,
      1e30f,          -1e30f,
      Limits::max(),  -Limits::max()};
  std::vector<float> special = finite;
  special.insert(special.end(),
                 {Limits::infinity(), -Limits::infinity(),
                  Limits::quiet_NaN(), -Limits::quiet_NaN()});
  // The loop ActivateInPlace ran before it took max(x, ax).
  auto branch = [](float x, float alpha) { return x > 0.0f ? x : alpha * x; };
  for (float alpha : {0.01f, 0.2f, 0.5f, 0.99f, 0.0f}) {
    // At alpha 0 the branch form maps -inf to 0 * -inf = NaN and max(x, ax)
    // keeps -inf; every other value agrees.
    const std::vector<float>& values = alpha == 0.0f ? finite : special;
    Tensor t({static_cast<int64_t>(values.size())}, values);
    ops::ActivateInPlace(t, ops::Act::kLeakyRelu, alpha);
    for (size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(Bits(t[static_cast<int64_t>(i)]),
                Bits(branch(values[i], alpha)))
          << "alpha " << alpha << " x " << values[i];
    }
  }
}

TEST(KernelTest, BackendIntrospection) {
  EXPECT_STREQ(kernels::BackendName(kernels::Backend::kReference),
               "reference");
  EXPECT_STREQ(kernels::BackendName(kernels::Backend::kBlocked), "blocked");
  EXPECT_STREQ(kernels::BackendName(kernels::Backend::kAvx2), "avx2");
  // Whatever the default resolution picked, a scoped override must restore.
  const kernels::Backend before = kernels::ActiveBackend();
  {
    kernels::ScopedBackend scoped(kernels::Backend::kReference);
    EXPECT_EQ(kernels::ActiveBackend(), kernels::Backend::kReference);
  }
  EXPECT_EQ(kernels::ActiveBackend(), before);
  if (!kernels::Avx2Compiled()) {
    EXPECT_FALSE(kernels::Avx2Available());
  }
}

// -------------------------------------------------------------------- arena --

TEST(ArenaTest, NoRecyclingWithoutScope) {
  const int64_t fresh_before = TensorArena::TotalFreshAllocs();
  { Tensor t = Tensor::Zeros({64, 64}); }
  { Tensor t = Tensor::Zeros({64, 64}); }
  // Without a scope both allocations hit the heap.
  EXPECT_EQ(TensorArena::TotalFreshAllocs() - fresh_before, 2);
}

TEST(ArenaTest, ScopeRecyclesExactSizes) {
  ArenaScope scope;
  TensorArena& arena = TensorArena::ThreadLocal();
  arena.Trim();
  const ArenaStats before = arena.stats();

  { Tensor t = Tensor::Zeros({32, 8}); }  // fresh, then recycled on destroy
  EXPECT_EQ(arena.stats().recycles, before.recycles + 1);
  EXPECT_EQ(arena.stats().held_blocks, 1);

  { Tensor t = Tensor::Zeros({32, 8}); }  // same numel: served from freelist
  EXPECT_EQ(arena.stats().reuses, before.reuses + 1);
  EXPECT_EQ(arena.stats().held_blocks, 1);

  { Tensor t = Tensor::Zeros({16, 16}); }  // same numel, different shape
  EXPECT_EQ(arena.stats().reuses, before.reuses + 2);

  { Tensor t = Tensor::Zeros({7, 3}); }  // different numel: fresh block
  EXPECT_EQ(arena.stats().held_blocks, 2);

  arena.Trim();
  EXPECT_EQ(arena.stats().held_blocks, 0);
  EXPECT_EQ(arena.stats().held_bytes, 0);
}

TEST(ArenaTest, BlocksSurviveAcrossScopes) {
  TensorArena& arena = TensorArena::ThreadLocal();
  {
    ArenaScope scope;
    arena.Trim();
    Tensor t = Tensor::Zeros({24, 24});
  }  // destroyed inside the scope: parked in the freelist
  EXPECT_EQ(arena.stats().held_blocks, 1);

  const int64_t reuses_before = arena.stats().reuses;
  {
    ArenaScope scope;
    Tensor t = Tensor::Zeros({24, 24});  // served from the parked block
    EXPECT_EQ(arena.stats().reuses, reuses_before + 1);
  }
  arena.Trim();
}

TEST(ArenaTest, TensorOutlivingScopeFreesCleanly) {
  Tensor escaped;
  {
    ArenaScope scope;
    TensorArena::ThreadLocal().Trim();
    escaped = Tensor::Full({5, 5}, 3.0f);
  }
  // The tensor left the scope alive; destroying it now (no active arena)
  // must plain-free, and its contents must be intact.
  EXPECT_EQ(escaped[0], 3.0f);
  EXPECT_EQ(escaped[24], 3.0f);
}

TEST(ArenaTest, ArenaBlocksAreAligned) {
  ArenaScope scope;
  TensorArena::ThreadLocal().Trim();
  for (int round = 0; round < 2; ++round) {  // fresh, then recycled
    Tensor t = Tensor::Zeros({13, 7});
    EXPECT_EQ(reinterpret_cast<uintptr_t>(t.data()) % 64, 0u)
        << "round " << round;
  }
  TensorArena::ThreadLocal().Trim();
}

}  // namespace
}  // namespace basm
