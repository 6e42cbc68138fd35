// API-contract death tests: programmer errors (shape mismatches, invalid
// indices, malformed calls) must fail fast through BASM_CHECK rather than
// corrupt memory or produce silent garbage.

#include "autograd/ops.h"
#include "common/rng.h"
#include "data/synth.h"
#include "gtest/gtest.h"
#include "metrics/metrics.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

namespace basm {
namespace {

namespace ag = ::basm::autograd;

using ContractDeathTest = ::testing::Test;

TEST(ContractDeathTest, MatMulShapeMismatchAborts) {
  Tensor a({2, 3});
  Tensor b({4, 2});
  EXPECT_DEATH(ops::MatMul(a, b), "Check failed");
}

TEST(ContractDeathTest, AddShapeMismatchAborts) {
  Tensor a({2, 3});
  Tensor b({3, 2});
  EXPECT_DEATH(ops::Add(a, b), "Add");
}

TEST(ContractDeathTest, TensorValuesShapeMismatchAborts) {
  EXPECT_DEATH(Tensor({2, 2}, {1.0f, 2.0f, 3.0f}), "Check failed");
}

TEST(ContractDeathTest, ReshapeNumelMismatchAborts) {
  Tensor a({2, 3});
  EXPECT_DEATH(a.Reshape({4, 2}), "Check failed");
}

TEST(ContractDeathTest, OutOfRangeAccessAborts) {
  Tensor a({2, 2});
  EXPECT_DEATH(a.at(2, 0), "Check failed");
  EXPECT_DEATH(a.at(0, -1), "Check failed");
}

TEST(ContractDeathTest, SliceOutOfBoundsAborts) {
  Tensor a({2, 4});
  EXPECT_DEATH(ops::SliceCols(a, 3, 2), "Check failed");
}

TEST(ContractDeathTest, LeakyReluAlphaOutsideUnitIntervalAborts) {
  Tensor a({2, 2});
  EXPECT_DEATH(ops::ActivateInPlace(a, ops::Act::kLeakyRelu, 1.0f),
               "leaky_alpha");
  EXPECT_DEATH(ops::ActivateInPlace(a, ops::Act::kLeakyRelu, -0.01f),
               "leaky_alpha");
}

TEST(ContractDeathTest, EmbeddingLookupBadIndexAborts) {
  Rng rng(1);
  ag::Variable table =
      ag::Variable::Leaf(Tensor::Normal({4, 2}, 0, 1, rng), true);
  EXPECT_DEATH(ag::EmbeddingLookup(table, {5}), "Check failed");
  EXPECT_DEATH(ag::EmbeddingLookup(table, {-1}), "Check failed");
}

TEST(ContractDeathTest, BackwardOnNonScalarWithoutSeedAborts) {
  ag::Variable v = ag::Variable::Leaf(Tensor({3}, {1, 2, 3}), true);
  EXPECT_DEATH(ag::Backward(ag::Mul(v, v)), "scalar");
}

TEST(ContractDeathTest, BceLabelSizeMismatchAborts) {
  ag::Variable logits = ag::Variable::Leaf(Tensor({3}, {0, 0, 0}), true);
  Tensor labels({2}, {1.0f, 0.0f});
  EXPECT_DEATH(ag::BceWithLogits(logits, labels), "Check failed");
}

TEST(ContractDeathTest, MetricSizeMismatchAborts) {
  EXPECT_DEATH(metrics::Auc({0.5f}, {1.0f, 0.0f}), "Check failed");
  EXPECT_DEATH(metrics::GroupedAuc({0.5f}, {1.0f}, {0, 1}), "Check failed");
}

TEST(ContractDeathTest, ClickLogitPositionOutOfRangeAborts) {
  data::SynthConfig c = data::SynthConfig::Eleme();
  c.num_users = 20;
  c.num_items = 20;
  c.num_cities = 2;
  data::World world(c);
  const int32_t slots = static_cast<int32_t>(world.schema().num_positions);
  const int32_t city = world.user(0).city;
  EXPECT_GT(world.ClickProbability(0, 0, 12, slots - 1, city, {}), 0.0f);
  EXPECT_DEATH(world.ClickLogit(0, 0, 12, slots, city, {}), "Check failed");
  EXPECT_DEATH(world.ClickLogit(0, 0, 12, -1, city, {}), "Check failed");
}

TEST(ContractDeathTest, RngInvalidRangeAborts) {
  Rng rng(1);
  EXPECT_DEATH(rng.NextUint64(0), "Check failed");
  EXPECT_DEATH(rng.UniformInt(3, 2), "Check failed");
  EXPECT_DEATH(rng.Categorical({}), "Check failed");
}

}  // namespace
}  // namespace basm
