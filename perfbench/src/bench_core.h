#ifndef BASM_PERFBENCH_BENCH_CORE_H_
#define BASM_PERFBENCH_BENCH_CORE_H_

// Shared definitions of the serving benchmark: the workload table, the
// server shape both processes agree on, the traffic generator, and the
// small pieces of measurement arithmetic the self-tests cover (scheduled
// send times, the tail-percentile rule, the ladder's backlog test, span
// self time, metric names).

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/model_zoo.h"
#include "data/synth.h"
#include "feature_store/feature_store.h"
#include "runtime/serving_engine.h"
#include "serving/pipeline.h"

namespace basm::perfbench {

/// One traffic mix. The two fixed rates are absolute (req/s): the nominal
/// rate sits at about half the seed's capacity, the overload rate at about
/// twice it. The ladder starts at the nominal rate.
struct Workload {
  const char* name;
  core::ModelKind model;
  /// Request hours drawn from the lunch peak (10-13h) of the diurnal
  /// exposure curve; otherwise from the whole day.
  bool lunch_hours;
  /// The server journals a seeded click stream and trains/publishes
  /// models beside the ranking traffic.
  bool click_stream;
  double nominal_qps;
  double overload_qps;
};

const std::vector<Workload>& Workloads();
/// nullptr when no workload has this name.
const Workload* FindWorkload(const std::string& name);

// --- server shape (identical on every workload) ----------------------------
inline constexpr int32_t kReplicas = 2;
inline constexpr int32_t kWorkersPerReplica = 1;
inline constexpr int32_t kIoLoops = 1;
inline constexpr int32_t kConnections = 4;
/// Engine queue per replica. With the frontend shedding at 90% of it, the
/// two full queues hold ~86 requests: ~30 ms of BASM work at capacity, well
/// under the 50 ms deadline, so overload sheds at admission instead of
/// timing requests out at the edge of their deadline.
inline constexpr size_t kQueueCapacity = 48;
inline constexpr int32_t kRecallSize = 24;
inline constexpr int32_t kExposeK = 8;
inline constexpr int64_t kDeadlineMicros = 50000;
inline constexpr int64_t kSloMicros = 10000;
inline constexpr uint64_t kEngineSeedBase = 0xBE7C;
inline constexpr uint64_t kCheckpointSeed = 42;
/// Production group commit of the click journal.
inline constexpr int64_t kGroupCommitAppends = 256;
inline constexpr int64_t kGroupCommitMicros = 100000;
/// Click stream of click_feedback: fixed rate, fixed count per run. At this
/// rate a group commit covers ~200 appends, so fewer than 1% of clicks pay
/// the fsync and the ack p99 measures the append path.
inline constexpr double kClickRate = 2000.0;
/// Clicks written in untimed prep and replayed at every server start.
inline constexpr int64_t kPrepClicks = 20000;
inline constexpr int64_t kPublishEvery = 2048;
/// The click-ack p99 is taken per chunk of this many consecutive clicks
/// (ten samples beyond each chunk's p99); see ClickStream::Report.
inline constexpr int64_t kClickChunk = 1000;

data::SynthConfig WorldConfig();
runtime::EngineConfig EngineConfigFor(int32_t replica);
/// A store journaling to `dir` with the production group commit.
feature_store::FeatureStoreConfig JournaledStoreConfig(const std::string& dir);

/// Seeded request stream: Zipf users (exponent 1.1), hours from the
/// workload's slice of the diurnal curve, the user's home city.
class TrafficGenerator {
 public:
  TrafficGenerator(const data::World& world, const Workload& workload,
                   uint64_t seed);
  serving::Request Next();

 private:
  const data::World& world_;
  ZipfTable users_;
  std::vector<int32_t> hours_;
  std::vector<double> hour_weights_;
  Rng rng_;
  int32_t next_id_ = 1;
};

/// One seeded click: a Zipf user clicks an item of their home city.
struct Click {
  int32_t user_id = 0;
  data::BehaviorEvent event;
  int32_t hour = 0;
};
Click MakeClick(const data::World& world, const ZipfTable& users, Rng& rng);

// --- measurement arithmetic ------------------------------------------------

/// Monotonic clock in nanoseconds.
int64_t NowNanos();

/// CPU time the hypervisor has stolen from this machine's vCPUs so far, in
/// seconds (the steal column of /proc/stat, all CPUs; 0 where unreported).
double StolenSeconds();

/// Send time of the i-th request of an open-loop schedule at `rate` req/s
/// starting at `start_ns` (uniform spacing, no drift accumulation).
int64_t ScheduledSendNanos(int64_t start_ns, double rate, int64_t i);

/// Nearest-rank percentile `q` (0 < q < 1) of `values`, or nullopt unless
/// at least `min_beyond` samples lie strictly beyond the reported rank (a
/// p99 needs >= 1000 samples for ten beyond it). Sorts `values`.
std::optional<double> TailPercentile(std::vector<double>* values, double q,
                                     int64_t min_beyond = 10);
double Median(std::vector<double> values);

/// Percentile of a phase, robust to a host that steals the VM's vCPUs for
/// milliseconds in bursts. `samples` are in send-schedule order (a non-OK
/// request reads as +infinity); they are cut into consecutive windows of
/// `window` samples, window j having lost `window_steal[j]` CPU seconds to
/// the host. Each window gets its own TailPercentile (over its finite
/// samples only when `ok_only`); the result is the median of those over
/// the `quiet_share` of the windows (rounded, at least one) that lost the
/// least CPU, and every window tied with the last of them. With no steal
/// reported every window counts. With `ok_only`,
/// a window left with fewer than ten OK samples beyond its rank has no
/// value (NaN) and is passed over, so a burst of failed requests in one
/// window does not void the phase. nullopt when no whole window exists,
/// the window size leaves fewer than ten samples beyond the rank, or fewer
/// windows than the quiet share have a value. `per_window`, when given,
/// receives every window's value.
std::optional<double> QuietWindowPercentile(
    const std::vector<double>& samples, int64_t window, double q,
    const std::vector<double>& window_steal, bool ok_only, double quiet_share,
    std::vector<double>* per_window = nullptr);

/// Share of the samples within `limit` (strictly below it when `limit` is
/// +infinity: the share of OK requests), over the same quieter windows as
/// QuietWindowPercentile.
double QuietWindowShareWithin(const std::vector<double>& samples,
                              int64_t window,
                              const std::vector<double>& window_steal,
                              double quiet_share, double limit);

/// Sums consecutive groups of `group` per-window steal figures: the steal
/// of windows `group` times as long.
std::vector<double> GroupSteal(const std::vector<double>& steal, int64_t group);

/// The ladder's growing-backlog test over outstanding-request counts
/// sampled at equal intervals through a step's send window: the backlog
/// grows when the second half's samples rise steadily above the first
/// half's by more than `slack` requests.
bool BacklogGrowing(const std::vector<int64_t>& samples, int64_t slack);

/// Rate at which an up-down staircase's steps pass half the time: the
/// geometric mean of the rates it ran from its first reversal (the first
/// step whose verdict differs from the first step's) on. Every step counts
/// when it never reversed. 0 for no steps.
double StaircaseEstimate(const std::vector<double>& rates,
                         const std::vector<bool>& passed);

/// One timed call the benchmark makes into a layer.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  ///< index of the enclosing span, -1 for a root
  int64_t request_id = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Metric names are [A-Za-z0-9_.-]+ starting with a letter or digit.
bool ValidMetricName(const std::string& name);

/// `key=value` tokens of one control-channel line ("STATS a=1 b=2").
std::map<std::string, double> ParseKeyValues(const std::string& line);

/// Self-tests of the arithmetic above; prints failures, returns their count.
int RunSelfTests();

// --- the binary's modes (main.cc dispatches) --------------------------------

struct GeneratorOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// This binary, re-executed in `server` mode.
  std::string self_path;
  /// Scratch directory of the run (checkpoint, journals); removed at exit.
  std::string workdir;
};

int RunGenerator(const GeneratorOptions& options);
int RunServer(const std::string& workload, const std::string& checkpoint,
              const std::string& journal_dir, uint64_t seed);

}  // namespace basm::perfbench

#endif  // BASM_PERFBENCH_BENCH_CORE_H_
