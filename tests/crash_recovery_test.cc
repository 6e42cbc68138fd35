#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "data/synth.h"
#include "feature_store/feature_store.h"
#include "feature_store/journal.h"
#include "gtest/gtest.h"
#include "metrics/metrics.h"
#include "online/model_registry.h"
#include "online/model_slot.h"
#include "online/online_trainer.h"
#include "feature_store/feature_server.h"
#include "serving/pipeline.h"
#include "serving/recall.h"

namespace basm::feature_store {
namespace {

namespace fs = std::filesystem;

/// Env var that flips this binary into the crash-drill child: a click storm
/// that runs until SIGKILLed. The value is the drill's scratch directory.
constexpr char kChildDirEnv[] = "BASM_CRASH_CHILD_DIR";

/// Same world in the child (click sampling) and the parent (recovery +
/// TAUC arms). The behavior window is boosted to the dominant ranking term,
/// like the stale-vs-empty chaos drill, so the recovered clicks carry
/// measurable ranking value.
data::SynthConfig CrashWorldConfig() {
  data::SynthConfig c = data::SynthConfig::Eleme();
  c.num_users = 120;
  c.num_items = 100;
  c.num_cities = 3;
  c.seq_len = 6;
  c.seq_scale = 3.0f;
  c.affinity_scale = 0.2f;
  c.pop_scale = 0.2f;
  c.price_scale = 0.2f;
  return c;
}

JournalConfig DrillJournalConfig(const std::string& dir) {
  JournalConfig config;
  config.dir = dir + "/journal";
  config.max_segment_bytes = 64 * 1024;  // force a few rotations mid-storm
  return config;
}

/// The child half of the drill. Under ctest this is a skip; exec'd by the
/// parent with the env var set, it becomes a click storm that acks each
/// click to a side file *after* RecordClick returned — so by write-ahead
/// ordering, every acked click's journal record precedes its ack, and a
/// SIGKILL at any instant leaves recovered >= acked.
TEST(CrashRecoveryTest, ChildClickStorm) {
  const char* dir = std::getenv(kChildDirEnv);
  if (dir == nullptr) {
    GTEST_SKIP() << "crash-drill child body; run via the parent drill";
  }
  data::World world(CrashWorldConfig());
  feature_store::FeatureServer server(world, world.config().seq_len, 3);
  FeatureStoreConfig config;
  config.journal = DrillJournalConfig(dir);
  FeatureStore store(&server, config);
  ASSERT_TRUE(store.journal_enabled());
  ASSERT_TRUE(store.journal()->healthy());
  // The drill owns its (empty) fault process even under the chaos CI job's
  // BASM_FAULT_RATE environment: an env-injected append drop would be a
  // legitimately lost click and break the recovered >= acked invariant.
  store.journal()->SetFaultInjector(nullptr);

  const std::string ack_path = std::string(dir) + "/acks";
  std::ofstream acks(ack_path, std::ios::binary | std::ios::app);
  ASSERT_TRUE(acks.good());

  const int32_t users = static_cast<int32_t>(world.config().num_users);
  Rng rng(2026);
  const auto start = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < 5'000'000; ++i) {
    // Bounded storm so an orphaned child (parent died before killing us)
    // exits instead of spinning forever; the parent fails loudly on a
    // normal child exit.
    if ((i & 1023) == 0 &&
        std::chrono::steady_clock::now() - start >
            std::chrono::seconds(60)) {
      break;
    }
    const int32_t user = static_cast<int32_t>(i) % users;
    const data::BehaviorEvent event = world.SampleHistory(user, 1, rng)[0];
    store.RecordClick(user, event);
    // Ack strictly after the append returned: flush the single byte so the
    // parent's poll sees it.
    acks.put('.');
    acks.flush();
  }
}

/// The headline durability drill: fork/exec a child click storm, SIGKILL it
/// mid-flight, corrupt the crashed segment's tail, then recover in-process
/// and assert the crash-drill invariants:
///   - startup never fails: the torn tail is truncated, not fatal;
///   - recovered clicks >= acked clicks (write-ahead ordering);
///   - recovered clicks republish into the OnlineTrainer feedback queue;
///   - a recovered arm ranks at least as well as a cold-start arm (TAUC).
TEST(CrashRecoveryTest, SigkillMidStormRecoversAllAckedClicks) {
  if (std::getenv(kChildDirEnv) != nullptr) {
    GTEST_SKIP() << "already inside the crash-drill child";
  }
  fs::path dir = fs::path(::testing::TempDir()) / "basm_crash_drill";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string dir_str = dir.string();

  pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: become the storm. exec (not just run) so the child is a clean
    // single-threaded process regardless of what this test binary did
    // before forking.
    ::setenv(kChildDirEnv, dir_str.c_str(), 1);
    const char* exe = "/proc/self/exe";
    const char* filter = "--gtest_filter=CrashRecoveryTest.ChildClickStorm";
    char* const argv[] = {const_cast<char*>("crash_child"),
                          const_cast<char*>(filter), nullptr};
    ::execv(exe, argv);
    _exit(127);  // exec failed
  }

  // Poll the ack file until the storm is provably mid-flight, then kill -9.
  const std::string ack_path = dir_str + "/acks";
  const int64_t kMinAcked = 500;
  int64_t polled = 0;
  const auto poll_start = std::chrono::steady_clock::now();
  while (polled < kMinAcked) {
    ASSERT_LT(std::chrono::steady_clock::now() - poll_start,
              std::chrono::seconds(120))
        << "child never reached " << kMinAcked << " acked clicks";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::error_code ec;
    uint64_t size = fs::file_size(ack_path, ec);
    if (!ec) polled = static_cast<int64_t>(size);
  }
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child exited instead of dying mid-storm";
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // Final acked count (bytes the child flushed before dying).
  std::error_code ec;
  const int64_t acked = static_cast<int64_t>(fs::file_size(ack_path, ec));
  ASSERT_FALSE(ec);
  ASSERT_GE(acked, kMinAcked);

  // Make the crash messier than the kernel did: a half-written garbage
  // record on the crashed active segment. Recovery must truncate it, never
  // refuse to start.
  const std::string journal_dir = dir_str + "/journal";
  bool corrupted = false;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(journal_dir)) {
    if (entry.path().string().ends_with(".bjl.open")) {
      std::ofstream torn(entry.path(), std::ios::binary | std::ios::app);
      torn << "GARBAGE-HALF-RECORD";
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted) << "no active segment found to corrupt";

  // "Restart": a fresh server + journaled store over the same directory.
  data::World world(CrashWorldConfig());
  feature_store::FeatureServer recovered_server(world, world.config().seq_len, 3);
  FeatureStoreConfig store_config;
  store_config.journal = DrillJournalConfig(dir_str);
  FeatureStore recovered_store(&recovered_server, store_config);

  // Recovered clicks feed the online-learning loop again, exactly like
  // live clicks would have.
  online::ModelRegistry registry;
  online::ModelSlot slot;
  online::OnlineTrainerConfig trainer_config;
  trainer_config.model_kind = core::ModelKind::kDin;
  trainer_config.feedback_capacity = 1 << 16;
  online::OnlineTrainer trainer(world.schema(), &registry, &slot,
                                trainer_config);
  Rng example_rng(31);
  std::vector<data::Example> republished;
  ReplayReport report;
  Status recovery = recovered_store.RecoverFromJournal(
      [&](int32_t user, const data::BehaviorEvent& event) {
        if (republished.size() >= 1000) return;  // a taste is enough
        republished.push_back(world.MakeExample(
            user, event.item_id, event.hour, /*weekday=*/0, /*position=*/0,
            world.user(user).city, /*day=*/0,
            static_cast<int32_t>(republished.size()), {event}, example_rng));
      },
      &report);
  ASSERT_TRUE(recovery.ok()) << recovery.message();

  // The crash-drill invariants.
  EXPECT_GE(report.recovered, acked)
      << "journal lost acked clicks (recovered " << report.recovered
      << " < acked " << acked << ")";
  EXPECT_GT(report.truncated_tail_bytes, 0)
      << "the garbage tail was not truncated";
  FeatureStoreStats stats = recovered_store.stats();
  EXPECT_TRUE(stats.journal_enabled);
  EXPECT_EQ(stats.journal_recovered, report.recovered);
  EXPECT_EQ(stats.journal_truncated_tail_bytes, report.truncated_tail_bytes);
  const int64_t accepted = trainer.SubmitRecoveredFeedback(republished);
  EXPECT_GT(accepted, 0);
  EXPECT_EQ(trainer.stats().recovered_feedback, accepted);

  // TAUC arms: the recovered server (journal replayed) vs a cold-start
  // server that lost every click. Ground truth is the post-crash state —
  // what the users actually clicked — so recovery must rank >= cold start.
  feature_store::FeatureServer cold_server(world, world.config().seq_len, 3);
  serving::RecallIndex recall(world);
  const int32_t users = static_cast<int32_t>(world.config().num_users);
  std::vector<float> scores_recovered, scores_cold, labels;
  std::vector<int32_t> groups;
  Rng traffic(33);
  Rng label_rng(44);
  for (int32_t r = 0; r < 240; ++r) {
    const int32_t user = r % users;
    const int32_t hour = world.SampleHour(traffic);
    const int32_t city = world.user(user).city;
    std::vector<int32_t> candidates = recall.RecallByCity(city, 12, traffic);
    std::vector<data::BehaviorEvent> truth =
        recovered_server.GetUserFeatures(user).behaviors;
    std::vector<data::BehaviorEvent> cold =
        cold_server.GetUserFeatures(user).behaviors;
    const int32_t tp = static_cast<int32_t>(data::TimePeriodOfHour(hour));
    for (size_t i = 0; i < candidates.size(); ++i) {
      const int32_t item = candidates[i];
      // Every candidate at the one slot the serving pipeline scores at.
      const int32_t position = serving::Pipeline::kScoringPosition;
      float p_true =
          world.ClickProbability(user, item, hour, position, city, truth);
      float s_recovered =
          world.ClickProbability(user, item, hour, position, city, truth);
      float s_cold =
          world.ClickProbability(user, item, hour, position, city, cold);
      for (int draw = 0; draw < 4; ++draw) {
        labels.push_back(label_rng.Uniform() < p_true ? 1.0f : 0.0f);
        scores_recovered.push_back(s_recovered);
        scores_cold.push_back(s_cold);
        groups.push_back(tp);
      }
    }
  }
  double tauc_recovered =
      metrics::GroupedAuc(scores_recovered, labels, groups);
  double tauc_cold = metrics::GroupedAuc(scores_cold, labels, groups);
  EXPECT_GE(tauc_recovered, tauc_cold)
      << "recovered TAUC " << tauc_recovered << " vs cold " << tauc_cold;
}

/// Restart-without-crash round trip at the store level: journaled clicks
/// land in a second store over the same directory, and a third boot (after
/// the second already replayed and is journaling its own storm) does not
/// double-count — replay only walks segments sealed before boot.
TEST(CrashRecoveryTest, CleanRestartReplaysOnceAndOnlyOnce) {
  fs::path dir = fs::path(::testing::TempDir()) / "basm_clean_restart";
  fs::remove_all(dir);
  fs::create_directories(dir);
  data::World world(CrashWorldConfig());
  FeatureStoreConfig config;
  config.journal.dir = (dir / "journal").string();

  Rng rng(5);
  {
    feature_store::FeatureServer server(world, world.config().seq_len, 3);
    FeatureStore store(&server, config);
    store.journal()->SetFaultInjector(nullptr);
    for (int32_t u = 0; u < 40; ++u) {
      store.RecordClick(u, world.SampleHistory(u, 1, rng)[0]);
    }
  }
  int64_t second_boot_recovered = 0;
  {
    feature_store::FeatureServer server(world, world.config().seq_len, 3);
    FeatureStore store(&server, config);
    store.journal()->SetFaultInjector(nullptr);
    ReplayReport report;
    ASSERT_TRUE(store.RecoverFromJournal(nullptr, &report).ok());
    second_boot_recovered = report.recovered;
    EXPECT_EQ(second_boot_recovered, 40);
    EXPECT_EQ(report.truncated_tail_bytes, 0);
    // New clicks after recovery journal as usual.
    for (int32_t u = 0; u < 10; ++u) {
      store.RecordClick(u, world.SampleHistory(u, 1, rng)[0]);
    }
  }
  {
    feature_store::FeatureServer server(world, world.config().seq_len, 3);
    FeatureStore store(&server, config);
    ReplayReport report;
    ASSERT_TRUE(store.RecoverFromJournal(nullptr, &report).ok());
    EXPECT_EQ(report.recovered, 50);  // 40 + 10, each exactly once
  }
}

}  // namespace
}  // namespace basm::feature_store
