#include "bench_core.h"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "data/schema.h"

namespace basm::perfbench {

// Fixed rates: nominal about half, overload about twice the seed's
// max_qps_at_slo (10-seed medians on a 4-vCPU x86-64 VM, listed in
// perfbench/README.md).
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"lunch_rank", core::ModelKind::kBasm, /*lunch_hours=*/true,
       /*click_stream=*/false, /*nominal_qps=*/1200.0,
       /*overload_qps=*/4800.0},
      {"light_model", core::ModelKind::kWideDeep, true, false, 4700.0,
       19000.0},
      {"click_feedback", core::ModelKind::kBasm, false, true, 1200.0,
       4800.0},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

data::SynthConfig WorldConfig() {
  data::SynthConfig config = data::SynthConfig::Eleme();
  config.num_users = 2000;
  config.num_items = 1500;
  config.num_cities = 8;
  return config;
}

runtime::EngineConfig EngineConfigFor(int32_t replica) {
  runtime::EngineConfig config;
  config.num_workers = kWorkersPerReplica;
  config.queue_capacity = kQueueCapacity;
  config.max_batch_requests = 4;
  config.max_wait_micros = 200;
  config.default_deadline_micros = kDeadlineMicros;
  config.seed = kEngineSeedBase + static_cast<uint64_t>(replica);
  return config;
}

feature_store::FeatureStoreConfig JournaledStoreConfig(const std::string& dir) {
  feature_store::FeatureStoreConfig config;
  config.journal.dir = dir;
  config.journal.group_commit_appends = kGroupCommitAppends;
  config.journal.flush_interval_micros = kGroupCommitMicros;
  return config;
}

TrafficGenerator::TrafficGenerator(const data::World& world,
                                   const Workload& workload, uint64_t seed)
    : world_(world),
      users_(world.config().num_users, 1.1),
      rng_(Rng(seed).Fork(0x7AFF1C)) {
  for (int32_t h = 0; h < 24; ++h) {
    const bool lunch =
        data::TimePeriodOfHour(h) == data::TimePeriod::kLunch;
    if (workload.lunch_hours && !lunch) continue;
    hours_.push_back(h);
    hour_weights_.push_back(world.hour_exposure()[h]);
  }
}

serving::Request TrafficGenerator::Next() {
  serving::Request request;
  request.user_id = static_cast<int32_t>(users_.Sample(rng_));
  request.hour = hours_[rng_.Categorical(hour_weights_)];
  request.weekday = static_cast<int32_t>(rng_.NextUint64(7));
  request.city = world_.user(request.user_id).city;
  request.day = 0;
  request.request_id = next_id_++;
  return request;
}

Click MakeClick(const data::World& world, const ZipfTable& users, Rng& rng) {
  Click click;
  click.user_id = static_cast<int32_t>(users.Sample(rng));
  const int32_t city = world.user(click.user_id).city;
  const std::vector<int32_t>& items = world.CityItems(city);
  const int32_t item_id = items[rng.NextUint64(items.size())];
  const data::World::ItemProfile& item = world.item(item_id);
  click.hour = world.SampleHour(rng);
  click.event.item_id = item_id;
  click.event.category = item.category;
  click.event.brand = item.brand;
  click.event.hour = click.hour;
  click.event.time_period =
      static_cast<int32_t>(data::TimePeriodOfHour(click.hour));
  click.event.city = city;
  click.event.geohash = item.geohash;
  return click;
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double StolenSeconds() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) /
                      static_cast<double>(sysconf(_SC_CLK_TCK))
                : 0.0;
}

int64_t ScheduledSendNanos(int64_t start_ns, double rate, int64_t i) {
  return start_ns + static_cast<int64_t>(std::llround(
                        static_cast<double>(i) * 1e9 / rate));
}

std::optional<double> TailPercentile(std::vector<double>* values, double q,
                                     int64_t min_beyond) {
  const int64_t n = static_cast<int64_t>(values->size());
  if (n == 0) return std::nullopt;
  // Nearest rank: the smallest value with at least q*n samples at or
  // below it.
  int64_t rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<int64_t>(rank, 1, n);
  if (n - rank < min_beyond) return std::nullopt;
  std::nth_element(values->begin(), values->begin() + (rank - 1),
                   values->end());
  return (*values)[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

/// Indices of the `share` of `num_windows` windows (rounded, at least one)
/// that lost the least CPU, plus every window that lost no more than the
/// last of those: steal is read in whole clock ticks, so many windows tie,
/// and breaking ties by position would favour a phase's first windows.
/// Every window when none lost any. Only windows with `eligible[j]` (every
/// window when `eligible` is empty) are chosen; empty when fewer than the
/// share are eligible.
std::vector<size_t> QuietWindows(size_t num_windows,
                                 const std::vector<double>& window_steal,
                                 double share,
                                 const std::vector<bool>& eligible = {}) {
  std::vector<size_t> order;
  for (size_t j = 0; j < num_windows; ++j) {
    if (eligible.empty() || eligible[j]) order.push_back(j);
  }
  const size_t keep = std::max<size_t>(
      1, static_cast<size_t>(std::llround(share * static_cast<double>(num_windows))));
  if (order.empty() || order.size() < std::min(keep, num_windows)) return {};
  double total = 0.0;
  for (double s : window_steal) total += s;
  if (total <= 0.0) return order;
  auto steal = [&](size_t j) {
    return j < window_steal.size() ? window_steal[j] : 0.0;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal(a) < steal(b); });
  const double limit = steal(order[std::min(keep, order.size()) - 1]);
  while (steal(order.back()) > limit) order.pop_back();
  return order;
}

}  // namespace

std::optional<double> QuietWindowPercentile(
    const std::vector<double>& samples, int64_t window, double q,
    const std::vector<double>& window_steal, bool ok_only, double quiet_share,
    std::vector<double>* per_window) {
  if (window <= 0) return std::nullopt;
  const size_t w = static_cast<size_t>(window);
  const size_t num_windows = samples.size() / w;
  if (num_windows == 0) return std::nullopt;
  {
    // A window too small for this percentile even when every request in
    // it is OK.
    std::vector<double> full(w, 0.0);
    if (!TailPercentile(&full, q).has_value()) return std::nullopt;
  }
  std::vector<double> values;
  std::vector<bool> eligible;
  for (size_t j = 0; j < num_windows; ++j) {
    std::vector<double> win;
    for (size_t i = j * w; i < (j + 1) * w; ++i) {
      if (!ok_only || std::isfinite(samples[i])) win.push_back(samples[i]);
    }
    // With ok_only, a window that lost too many requests has no value.
    std::optional<double> v = TailPercentile(&win, q);
    values.push_back(v.value_or(NAN));
    eligible.push_back(v.has_value());
  }
  if (per_window != nullptr) *per_window = values;
  std::vector<double> quiet;
  for (size_t j : QuietWindows(num_windows, window_steal, quiet_share, eligible)) {
    quiet.push_back(values[j]);
  }
  if (quiet.empty()) return std::nullopt;
  return Median(quiet);
}

double QuietWindowShareWithin(const std::vector<double>& samples,
                              int64_t window,
                              const std::vector<double>& window_steal,
                              double quiet_share, double limit) {
  if (window <= 0) return 0.0;
  const size_t w = static_cast<size_t>(window);
  const size_t num_windows = samples.size() / w;
  int64_t within = 0;
  int64_t total = 0;
  for (size_t j : QuietWindows(num_windows, window_steal, quiet_share)) {
    for (size_t i = j * w; i < (j + 1) * w; ++i) {
      ++total;
      if (std::isinf(limit) ? std::isfinite(samples[i]) : samples[i] <= limit) {
        ++within;
      }
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(within) / static_cast<double>(total);
}

std::vector<double> GroupSteal(const std::vector<double>& steal,
                               int64_t group) {
  std::vector<double> out;
  const size_t g = static_cast<size_t>(std::max<int64_t>(1, group));
  for (size_t a = 0; a + g <= steal.size(); a += g) {
    double sum = 0.0;
    for (size_t i = a; i < a + g; ++i) sum += steal[i];
    out.push_back(sum);
  }
  return out;
}

bool BacklogGrowing(const std::vector<int64_t>& samples, int64_t slack) {
  const size_t n = samples.size();
  if (n < 4) return false;
  const size_t half = n / 2;
  int64_t first_max = 0;
  for (size_t i = 0; i < half; ++i) first_max = std::max(first_max, samples[i]);
  // Every second-half sample sits above the whole first half, the series
  // keeps rising through it, and the rise exceeds the slack.
  for (size_t i = half; i < n; ++i) {
    if (samples[i] <= first_max) return false;
    if (i > half && samples[i] < samples[i - 1]) return false;
  }
  return samples[n - 1] - first_max > slack;
}

double StaircaseEstimate(const std::vector<double>& rates,
                         const std::vector<bool>& passed) {
  size_t from = 0;
  while (from < passed.size() && passed[from] == passed[0]) ++from;
  if (from == passed.size()) from = 0;
  double log_sum = 0.0;
  for (size_t i = from; i < rates.size(); ++i) log_sum += std::log(rates[i]);
  return rates.size() > from
             ? std::exp(log_sum / static_cast<double>(rates.size() - from))
             : 0.0;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      const Span& p = spans[s.parent];
      const int64_t a = std::max(s.start_ns, p.start_ns);
      const int64_t b = std::min(s.end_ns, p.end_ns);
      if (b > a) children[s.parent].push_back({a, b});
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_a = 0;
    int64_t cur_b = -1;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (!open || a > cur_b) {
        if (open) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
        open = true;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (open) covered += cur_b - cur_a;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

std::map<std::string, double> ParseKeyValues(const std::string& line) {
  std::map<std::string, double> out;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    out[token.substr(0, eq)] = std::strtod(token.c_str() + eq + 1, nullptr);
  }
  return out;
}

}  // namespace basm::perfbench
