// Oracles of the request paths of BASM and Wide&Deep (DESIGN §17).
// Eval-mode forwards encode the user, context and behavior side once per
// request and broadcast it; these tests hold that path to two standards:
//
//   * bit identity across batch composition: a request scores the same
//     bits alone and inside any micro-batch, merged group or not;
//   * against the per-candidate reference forward: a stated tolerance for
//     BASM, whose first attention layer sums in a different order, and
//     bit identity for Wide&Deep, whose request path only moves rows.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "core/basm_model.h"
#include "data/batch.h"
#include "data/synth.h"
#include "feature_store/feature_server.h"
#include "gtest/gtest.h"
#include "models/wide_deep.h"
#include "serving/pipeline.h"
#include "serving/recall.h"
#include "tensor/arena.h"
#include "tensor/kernels.h"
#include "train/trainer.h"

namespace basm::core {
namespace {

namespace ag = ::basm::autograd;

constexpr int32_t kCandidates = 24;
constexpr float kTolerance = 1e-6f;

std::vector<BasmConfig> AllConfigs() {
  return {BasmConfig::Full(), BasmConfig::WithoutStAEL(),
          BasmConfig::WithoutStSTL(), BasmConfig::WithoutStABT()};
}

std::vector<float> Probs(const ag::Variable& logits) {
  std::vector<float> p(logits.numel());
  for (int64_t i = 0; i < logits.numel(); ++i) {
    p[i] = 1.0f / (1.0f + std::exp(-logits.value()[i]));
  }
  return p;
}

/// Candidate indices by descending score, ties by index.
std::vector<int32_t> Order(const std::vector<float>& scores) {
  std::vector<int32_t> idx(scores.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(),
                   [&](int32_t a, int32_t b) { return scores[a] > scores[b]; });
  return idx;
}

data::SynthConfig WorldConfig() {
  data::SynthConfig c = data::SynthConfig::Eleme();
  c.num_users = 300;
  c.num_items = 400;
  c.num_cities = 4;
  c.requests_per_day = 60;
  c.days = 3;
  c.test_day = 2;
  return c;
}

class RequestScoringTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const data::SynthConfig c = WorldConfig();
    world_ = new data::World(c);
    features_ = new feature_store::FeatureServer(*world_, c.seq_len, 3);
    recall_ = new serving::RecallIndex(*world_);
  }
  static void TearDownTestSuite() {
    delete recall_;
    delete features_;
    delete world_;
  }

  /// One request's 24 candidate rows, scored at one slot as the serving
  /// pipeline scores them.
  static std::vector<data::Example> RequestExamples(
      int32_t user, int32_t request_id,
      const std::vector<data::BehaviorEvent>& behaviors, Rng& rng) {
    const int32_t hour = world_->SampleHour(rng);
    const int32_t city = world_->user(user).city;
    std::vector<int32_t> items = recall_->RecallByCity(city, kCandidates, rng);
    std::vector<data::Example> out;
    for (int32_t item : items) {
      out.push_back(world_->MakeExample(
          user, item, hour, /*weekday=*/2,
          serving::Pipeline::kScoringPosition, city, /*day=*/0, request_id,
          behaviors, rng));
    }
    return out;
  }

  static std::vector<data::Example> FreshRequest(int32_t user,
                                                 int32_t request_id,
                                                 Rng& rng) {
    return RequestExamples(user, request_id,
                           features_->GetUserFeatures(user).behaviors, rng);
  }

  static data::Batch BatchOf(
      const std::vector<const std::vector<data::Example>*>& requests) {
    std::vector<const data::Example*> ptrs;
    for (const auto* request : requests) {
      for (const data::Example& e : *request) ptrs.push_back(&e);
    }
    return data::MakeBatch(ptrs, world_->schema());
  }

  /// `epochs` of training on the world's logged days first, for the
  /// realistic score spread the ranking oracle needs.
  static std::unique_ptr<Basm> EvalModel(const BasmConfig& config,
                                         int64_t epochs = 0) {
    Rng rng(21);
    auto model = std::make_unique<Basm>(world_->schema(), config, rng);
    if (epochs > 0) {
      train::TrainConfig tc;
      tc.epochs = epochs;
      train::Fit(*model, data::GenerateDataset(WorldConfig()), tc);
    }
    model->SetTraining(false);
    return model;
  }

  /// `n` requests whose behavior windows cycle through fresh, stale (the
  /// newest events missing, as a last-known cache serves them) and empty.
  static std::vector<std::vector<data::Example>> MixedWindowRequests(
      int32_t n, Rng& rng) {
    std::vector<std::vector<data::Example>> requests;
    for (int32_t r = 0; r < n; ++r) {
      const int32_t user =
          (r * 37) % static_cast<int32_t>(world_->config().num_users);
      std::vector<data::BehaviorEvent> window =
          features_->GetUserFeatures(user).behaviors;
      if (r % 3 == 1) {
        window.erase(window.begin(),
                     window.begin() + std::min<size_t>(3, window.size()));
      } else if (r % 3 == 2) {
        window.clear();
      }
      requests.push_back(RequestExamples(user, r, window, rng));
    }
    return requests;
  }

  /// A Wide&Deep model trained one epoch, in eval mode.
  static std::unique_ptr<models::WideDeep> WideDeepModel() {
    Rng rng(22);
    auto model = std::make_unique<models::WideDeep>(
        world_->schema(), /*embed_dim=*/8, std::vector<int64_t>{64, 32}, rng);
    train::TrainConfig tc;
    tc.epochs = 1;
    train::Fit(*model, data::GenerateDataset(WorldConfig()), tc);
    model->SetTraining(false);
    return model;
  }

  /// Asserts `a` and `b` hold the same bits.
  static void ExpectSameBits(const Tensor& a, const Tensor& b,
                             const char* what) {
    ASSERT_EQ(a.shape(), b.shape()) << what;
    for (int64_t i = 0; i < a.numel(); ++i) {
      ASSERT_EQ(a[i], b[i]) << what << " element " << i;
    }
  }

  static data::World* world_;
  static feature_store::FeatureServer* features_;
  static serving::RecallIndex* recall_;
};

data::World* RequestScoringTest::world_ = nullptr;
feature_store::FeatureServer* RequestScoringTest::features_ = nullptr;
serving::RecallIndex* RequestScoringTest::recall_ = nullptr;

TEST_F(RequestScoringTest, MakeBatchGroupsConsecutiveRequestSides) {
  Rng rng(1);
  std::vector<data::Example> a = FreshRequest(3, 1, rng);
  std::vector<data::Example> b = FreshRequest(4, 2, rng);
  data::Batch batch = BatchOf({&a, &b, &a});
  // a and the second a are equal but not adjacent: three requests.
  ASSERT_EQ(batch.num_requests(), 3);
  EXPECT_EQ(batch.request_row, (std::vector<int32_t>{0, 24, 48}));
  ASSERT_EQ(static_cast<int64_t>(batch.row_request.size()), batch.size);
  for (int64_t i = 0; i < batch.size; ++i) {
    EXPECT_EQ(batch.row_request[i], i / kCandidates);
  }

  // Two adjacent requests with equal request sides merge, whatever their
  // request ids say.
  std::vector<data::Example> a2 = a;
  for (data::Example& e : a2) e.request_id = 99;
  EXPECT_EQ(BatchOf({&a, &a2}).num_requests(), 1);

  // One differing behavior event splits them.
  a2[0].behaviors[0].item_id = (a2[0].behaviors[0].item_id + 1) %
                               static_cast<int32_t>(world_->schema().num_items);
  EXPECT_EQ(BatchOf({&a, &a2}).num_requests(), 3);

  data::Batch block = data::RequestBlock(batch);
  EXPECT_EQ(block.size, 3);
  EXPECT_EQ(block.user_id, (std::vector<int32_t>{3, 4, 3}));
  EXPECT_EQ(block.seq_item.size(), 3u * batch.seq_len);
}

TEST_F(RequestScoringTest, BatchedRequestsBitIdenticalToServedAlone) {
  Rng rng(2);
  std::vector<std::vector<data::Example>> requests;
  for (int32_t r = 0; r < 4; ++r) {
    requests.push_back(FreshRequest(10 + r, r, rng));
  }
  // The merged-group case: request 2 repeated with its candidates
  // reshuffled, so its request side equals its neighbour's.
  std::vector<data::Example> twin = requests[2];
  std::reverse(twin.begin(), twin.end());
  for (const BasmConfig& config : AllConfigs()) {
    std::unique_ptr<Basm> model = EvalModel(config);
    for (const auto& layout :
         std::vector<std::vector<const std::vector<data::Example>*>>{
             {&requests[0], &requests[1], &requests[2], &requests[3]},
             {&requests[0], &requests[2], &twin, &requests[3]}}) {
      data::Batch batch = BatchOf(layout);
      std::vector<float> together = model->PredictProbs(batch);
      for (size_t r = 0; r < layout.size(); ++r) {
        std::vector<float> alone = model->PredictProbs(BatchOf({layout[r]}));
        for (int32_t i = 0; i < kCandidates; ++i) {
          ASSERT_EQ(together[r * kCandidates + i], alone[i])
              << model->name() << " request " << r << " row " << i;
        }
      }
    }
    EXPECT_EQ(BatchOf({&requests[0], &requests[2], &twin, &requests[3]})
                  .num_requests(),
              3);
  }
}

TEST_F(RequestScoringTest, EveryRowItsOwnRequestBitIdenticalToRowAlone) {
  Rng rng(3);
  std::vector<data::Example> rows;
  for (int32_t u = 0; u < 16; ++u) {
    rows.push_back(FreshRequest(40 + u, u, rng)[u % kCandidates]);
  }
  std::vector<const data::Example*> ptrs;
  for (const data::Example& e : rows) ptrs.push_back(&e);
  data::Batch batch = data::MakeBatch(ptrs, world_->schema());
  ASSERT_EQ(batch.num_requests(), batch.size);
  for (const BasmConfig& config : AllConfigs()) {
    std::unique_ptr<Basm> model = EvalModel(config);
    std::vector<float> together = model->PredictProbs(batch);
    for (size_t i = 0; i < rows.size(); ++i) {
      std::vector<float> alone =
          model->PredictProbs(data::MakeBatch({&rows[i]}, world_->schema()));
      ASSERT_EQ(together[i], alone[0]) << model->name() << " row " << i;
    }
  }
}

TEST_F(RequestScoringTest, MatchesReferenceWithinToleranceAndKeepsOrder) {
  // 256 requests: fresh windows, stale ones (the newest events missing, as
  // a last-known cache serves them) and empty ones, scored 4 to a batch.
  Rng rng(4);
  std::vector<std::vector<data::Example>> requests;
  for (int32_t r = 0; r < 256; ++r) {
    const int32_t user =
        (r * 37) % static_cast<int32_t>(world_->config().num_users);
    std::vector<data::BehaviorEvent> window =
        features_->GetUserFeatures(user).behaviors;
    if (r % 3 == 1) {
      window.erase(window.begin(),
                   window.begin() + std::min<size_t>(3, window.size()));
    } else if (r % 3 == 2) {
      window.clear();
    }
    requests.push_back(RequestExamples(user, r, window, rng));
  }
  for (const BasmConfig& config : AllConfigs()) {
    std::unique_ptr<Basm> model = EvalModel(config, /*epochs=*/1);
    float max_dp = 0.0f;
    for (size_t r = 0; r < requests.size(); r += 4) {
      data::Batch batch = BatchOf({&requests[r], &requests[r + 1],
                                   &requests[r + 2], &requests[r + 3]});
      ASSERT_EQ(batch.num_requests(), 4);
      std::vector<float> fast = Probs(model->ForwardLogits(batch));
      std::vector<float> reference =
          Probs(model->ForwardLogitsReference(batch));
      for (size_t i = 0; i < fast.size(); ++i) {
        max_dp = std::max(max_dp, std::abs(fast[i] - reference[i]));
      }
      for (int32_t q = 0; q < 4; ++q) {
        auto begin = q * kCandidates;
        std::vector<float> f(fast.begin() + begin,
                             fast.begin() + begin + kCandidates);
        std::vector<float> g(reference.begin() + begin,
                             reference.begin() + begin + kCandidates);
        ASSERT_EQ(Order(f), Order(g))
            << model->name() << " request " << r + q;
      }
    }
    std::printf("[ request path ] %-18s max |dp| vs reference = %.3g\n",
                model->name().c_str(), max_dp);
    EXPECT_LE(max_dp, kTolerance) << model->name();
  }
}

TEST_F(RequestScoringTest, AlphasKeepShapeAndTolerance) {
  Rng rng(5);
  std::vector<data::Example> a = FreshRequest(7, 1, rng);
  std::vector<data::Example> b = FreshRequest(8, 2, rng);
  data::Batch batch = BatchOf({&a, &b});
  std::unique_ptr<Basm> model = EvalModel(BasmConfig::Full());
  ASSERT_TRUE(ag::GradEnabled());
  model->ForwardLogitsReference(batch);
  Tensor reference = model->last_alphas();
  model->ForwardLogits(batch);
  const Tensor& alphas = model->last_alphas();
  ASSERT_EQ(alphas.rows(), batch.size);
  ASSERT_EQ(alphas.cols(), 5);
  for (int64_t i = 0; i < alphas.numel(); ++i) {
    EXPECT_NEAR(alphas[i], reference[i], kTolerance) << "element " << i;
  }
}

TEST_F(RequestScoringTest, WideDeepRequestPathBitIdenticalToPerRow) {
  // 256 requests with fresh, stale and empty windows, 4 to a batch: the
  // request path's logits and final representation equal the per-candidate
  // forward's bit for bit, and each request scores the same bits inside
  // the batch as alone.
  Rng rng(6);
  const std::vector<std::vector<data::Example>> requests =
      MixedWindowRequests(256, rng);
  std::unique_ptr<models::WideDeep> model = WideDeepModel();
  for (size_t r = 0; r < requests.size(); r += 4) {
    data::Batch batch = BatchOf({&requests[r], &requests[r + 1],
                                 &requests[r + 2], &requests[r + 3]});
    ASSERT_EQ(batch.num_requests(), 4);
    const Tensor together = model->ForwardLogits(batch).value();
    ExpectSameBits(together, model->ForwardLogitsReference(batch).value(),
                   "logits vs reference");
    const Tensor representation = model->FinalRepresentation(batch).value();
    model->SetTraining(true);
    ExpectSameBits(representation, model->FinalRepresentation(batch).value(),
                   "final representation vs per-row");
    model->SetTraining(false);
    for (int32_t q = 0; q < 4; ++q) {
      const Tensor alone =
          model->ForwardLogits(BatchOf({&requests[r + q]})).value();
      for (int32_t i = 0; i < kCandidates; ++i) {
        ASSERT_EQ(together[q * kCandidates + i], alone[i])
            << "request " << r + q << " row " << i;
      }
    }
  }
}

TEST_F(RequestScoringTest, WideDeepMergedGroupAndRepresentation) {
  Rng rng(7);
  std::vector<std::vector<data::Example>> requests;
  for (int32_t r = 0; r < 4; ++r) {
    requests.push_back(FreshRequest(60 + r, r, rng));
  }
  // Request 2 twice, the second copy with its candidates reversed: the
  // two merge into one group of the request block.
  std::vector<data::Example> twin = requests[2];
  std::reverse(twin.begin(), twin.end());
  std::unique_ptr<models::WideDeep> model = WideDeepModel();
  const std::vector<const std::vector<data::Example>*> layout = {
      &requests[0], &requests[2], &twin, &requests[3]};
  data::Batch batch = BatchOf(layout);
  ASSERT_EQ(batch.num_requests(), 3);

  const std::vector<float> together = model->PredictProbs(batch);
  for (size_t r = 0; r < layout.size(); ++r) {
    const std::vector<float> alone = model->PredictProbs(BatchOf({layout[r]}));
    for (int32_t i = 0; i < kCandidates; ++i) {
      ASSERT_EQ(together[r * kCandidates + i], alone[i])
          << "request " << r << " row " << i;
    }
  }
  ExpectSameBits(model->ForwardLogits(batch).value(),
                 model->ForwardLogitsReference(batch).value(),
                 "logits vs reference");

  // FinalRepresentation: eval mode takes the request path, training mode
  // the per-candidate one (Wide&Deep has no mode-dependent layer).
  const Tensor request_path = model->FinalRepresentation(batch).value();
  model->SetTraining(true);
  const Tensor per_row = model->FinalRepresentation(batch).value();
  model->SetTraining(false);
  ExpectSameBits(request_path, per_row, "final representation");
  for (size_t r = 0; r < layout.size(); ++r) {
    const Tensor alone =
        model->FinalRepresentation(BatchOf({layout[r]})).value();
    for (int64_t i = 0; i < alone.numel(); ++i) {
      ASSERT_EQ(request_path[r * alone.numel() + i], alone[i])
          << "request " << r << " element " << i;
    }
  }
}

TEST_F(RequestScoringTest, GatherRowsBackwardScatterAdds) {
  ag::Variable a = ag::Variable::Leaf(
      Tensor({3, 2}, {1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f}), true);
  ag::Variable g = ag::GatherRows(a, {2, 0, 2});
  ASSERT_EQ(g.value().rows(), 3);
  EXPECT_EQ(g.value().at(0, 1), 6.0f);
  EXPECT_EQ(g.value().at(1, 0), 1.0f);
  ag::Backward(ag::SumAll(g));
  EXPECT_EQ(a.grad().at(0, 0), 1.0f);
  EXPECT_EQ(a.grad().at(1, 0), 0.0f);
  EXPECT_EQ(a.grad().at(2, 1), 2.0f);
}

// BASM's graph-free eval forward against the per-candidate reference
// graph, on models trained three epochs, so the BN running statistics, the
// biases and the generator outputs are far from their initial values.
class BasmEvalTest : public RequestScoringTest {
 protected:
  static void SetUpTestSuite() {
    RequestScoringTest::SetUpTestSuite();
    Rng rng(8);
    requests_ = new std::vector<std::vector<data::Example>>(
        MixedWindowRequests(256, rng));
  }
  static void TearDownTestSuite() {
    delete requests_;
    RequestScoringTest::TearDownTestSuite();
  }

  static std::vector<std::vector<data::Example>>* requests_;
};

std::vector<std::vector<data::Example>>* BasmEvalTest::requests_ = nullptr;

TEST_F(BasmEvalTest, MatchesReferenceUnderEveryBackendAndBatching) {
  // Pairs whose reference probabilities differ by more than this keep their
  // order; closer pairs are near-ties, counted but not asserted.
  constexpr float kTieGap = 2e-6f;
  std::vector<ops::kernels::Backend> backends = {
      ops::kernels::Backend::kReference, ops::kernels::Backend::kBlocked};
  if (ops::kernels::Avx2Available()) {
    backends.push_back(ops::kernels::Backend::kAvx2);
  }
  const std::vector<std::vector<data::Example>>& requests = *requests_;
  for (const BasmConfig& config : AllConfigs()) {
    std::unique_ptr<Basm> model = EvalModel(config, /*epochs=*/3);
    for (ops::kernels::Backend backend : backends) {
      ops::kernels::ScopedBackend scoped(backend);
      float max_dp = 0.0f;
      int64_t ordered_pairs = 0;
      int64_t near_tie_flips = 0;
      for (size_t r = 0; r < requests.size(); r += 4) {
        data::Batch batch = BatchOf({&requests[r], &requests[r + 1],
                                     &requests[r + 2], &requests[r + 3]});
        const std::vector<float> reference =
            Probs(model->ForwardLogitsReference(batch));
        const std::vector<float> together = Probs(model->ForwardLogits(batch));
        for (int32_t q = 0; q < 4; ++q) {
          // One request per batch, scored as a server scores it.
          std::vector<float> alone;
          {
            ag::NoGradGuard no_grad;
            alone = Probs(model->ForwardLogits(BatchOf({&requests[r + q]})));
          }
          const float* ref = reference.data() + q * kCandidates;
          for (int32_t i = 0; i < kCandidates; ++i) {
            ASSERT_EQ(alone[i], together[q * kCandidates + i])
                << model->name() << " request " << r + q << " row " << i;
            max_dp = std::max(max_dp, std::abs(alone[i] - ref[i]));
          }
          for (int32_t i = 0; i < kCandidates; ++i) {
            for (int32_t j = i + 1; j < kCandidates; ++j) {
              const bool ref_before = ref[i] > ref[j];
              const bool eval_before = alone[i] > alone[j];
              if (std::abs(ref[i] - ref[j]) > kTieGap) {
                ++ordered_pairs;
                ASSERT_EQ(eval_before, ref_before)
                    << model->name() << " request " << r + q << " rows " << i
                    << ", " << j;
              } else if (eval_before != ref_before &&
                         (alone[i] != alone[j] || ref[i] != ref[j])) {
                ++near_tie_flips;
              }
            }
          }
        }
      }
      std::printf(
          "[ eval forward ] %-18s %-9s max |dp| = %.3g, %lld ordered pairs, "
          "%lld near-tie flips\n",
          model->name().c_str(), ops::kernels::BackendName(backend), max_dp,
          static_cast<long long>(ordered_pairs),
          static_cast<long long>(near_tie_flips));
      EXPECT_LE(max_dp, kTolerance) << model->name();
    }
  }
}

TEST_F(BasmEvalTest, SharedModelScoresBitIdenticallyAcrossThreads) {
  // Engine workers score through one shared eval model under NoGradGuard,
  // each in its own arena: the eval forward must write nothing shared.
  std::unique_ptr<Basm> model = EvalModel(BasmConfig::Full(), /*epochs=*/3);
  const std::vector<std::vector<data::Example>>& requests = *requests_;
  std::vector<std::vector<float>> serial;
  for (const auto& request : requests) {
    serial.push_back(model->PredictProbs(BatchOf({&request})));
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<float>>> scored(kThreads);
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      ag::NoGradGuard no_grad;
      ArenaScope arena;
      for (size_t r = w; r < requests.size(); r += kThreads) {
        scored[w].push_back(model->PredictProbs(BatchOf({&requests[r]})));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int w = 0; w < kThreads; ++w) {
    for (size_t k = 0; k < scored[w].size(); ++k) {
      ASSERT_EQ(scored[w][k], serial[w + k * kThreads])
          << "thread " << w << " request " << w + k * kThreads;
    }
  }
}

TEST_F(BasmEvalTest, AlphasRecordedWithGradientsOnly) {
  Rng rng(9);
  std::vector<data::Example> a = FreshRequest(11, 1, rng);
  std::vector<data::Example> b = FreshRequest(12, 2, rng);
  std::unique_ptr<Basm> model = EvalModel(BasmConfig::Full());
  model->ForwardLogits(BatchOf({&a, &b}));
  const Tensor recorded = model->last_alphas();
  ASSERT_EQ(recorded.rows(), 2 * kCandidates);
  ASSERT_EQ(recorded.cols(), 5);
  {
    ag::NoGradGuard no_grad;
    model->ForwardLogits(BatchOf({&b}));
  }
  ExpectSameBits(model->last_alphas(), recorded, "alphas after a guarded forward");
}

}  // namespace
}  // namespace basm::core
