// Self-tests of the benchmark's own arithmetic. They run at the start of
// every benchmark run (a failure marks the run incorrect) and standalone
// via `basm_perfbench selftest`.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_core.h"

namespace basm::perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

void TestScheduledSends() {
  // 4000 req/s: one send every 250 us, computed from the index so the
  // schedule never drifts however long the phase runs.
  Expect(ScheduledSendNanos(1000, 4000.0, 0) == 1000, "first send at start");
  Expect(ScheduledSendNanos(1000, 4000.0, 1) == 251000, "250 us spacing");
  Expect(ScheduledSendNanos(0, 4000.0, 4000000) == 1000000000000LL,
         "no drift after 4M sends");
  Expect(ScheduledSendNanos(0, 3.0, 1) == 333333333, "rounds to nearest ns");
}

void TestTailPercentile() {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  std::optional<double> p99 = TailPercentile(&v, 0.99);
  Expect(p99.has_value() && *p99 == 990.0, "p99 of 1..1000 is 990");
  // 999 samples leave only 9 beyond the p99 rank: refused.
  std::vector<double> short_run(v.begin(), v.begin() + 999);
  Expect(!TailPercentile(&short_run, 0.99).has_value(),
         "p99 refused with fewer than ten samples beyond it");
  std::vector<double> few = {3, 1, 2};
  std::optional<double> p50 = TailPercentile(&few, 0.5, 0);
  Expect(p50.has_value() && *p50 == 2.0, "median rank of three");
  Expect(Median({4, 1, 3, 2}) == 2.5, "even-count median averages");

  // Four windows of 1000. Windows 1 and 3 lost CPU to the host and carry
  // a burst of 50 slow samples; the quieter half (0 and 2) sets the value.
  std::vector<double> phase;
  for (int w = 0; w < 4; ++w) {
    for (int i = 1; i <= 1000; ++i) {
      phase.push_back(w % 2 == 1 && i > 950 ? 1e6 : i + w);
    }
  }
  const std::vector<double> steal = {0.0, 0.02, 0.0, 0.05};
  std::vector<double> per_window;
  std::optional<double> qp99 =
      QuietWindowPercentile(phase, 1000, 0.99, steal, false, 0.5, &per_window);
  Expect(per_window.size() == 4 && per_window[1] == 1e6,
         "a stolen window's own p99 is its burst");
  Expect(qp99.has_value() && *qp99 == 991.0,
         "median p99 of the quieter half (990 and 992)");
  std::optional<double> all_p99 =
      QuietWindowPercentile(phase, 1000, 0.99, {}, false, 0.5);
  Expect(all_p99.has_value() && *all_p99 == Median(per_window),
         "no steal reported: every window counts");
  Expect(!QuietWindowPercentile(phase, 999, 0.99, steal, false, 0.5).has_value(),
         "windows too small for a p99 are refused");
  Expect(!QuietWindowPercentile(phase, 5000, 0.99, steal, false, 0.5).has_value(),
         "no whole window");
  std::vector<double> with_failures(1000, 1.0);
  for (int i = 0; i < 20; ++i) with_failures.push_back(INFINITY);
  std::vector<double> ok_only;
  Expect(std::isinf(QuietWindowPercentile(with_failures, 1020, 0.99, {}, false, 0.5)
                        .value_or(0)),
         "failed requests read as infinitely late");
  Expect(QuietWindowPercentile(with_failures, 1020, 0.99, {}, true, 0.5, &ok_only)
                 .value_or(0) == 1.0,
         "ok_only skips failed requests");
  // Window 1 lost 100 of its 1020 requests, leaving too few OK samples for
  // a p99: the quieter half is chosen from the other three windows.
  std::vector<double> lossy;
  for (int w = 0; w < 4; ++w) {
    for (int i = 1; i <= 1020; ++i) {
      lossy.push_back(w == 1 && i > 920 ? INFINITY : i + w);
    }
  }
  const std::vector<double> lossy_steal = {0.01, 0.0, 0.02, 0.03};
  std::vector<double> lossy_windows;
  std::optional<double> lossy_p99 = QuietWindowPercentile(
      lossy, 1020, 0.99, lossy_steal, true, 0.5, &lossy_windows);
  Expect(lossy_windows.size() == 4 && std::isnan(lossy_windows[1]),
         "a window with too few OK samples has no p99");
  Expect(lossy_p99.has_value() && *lossy_p99 == 1011.0,
         "quieter half taken from the windows with a p99 (1010 and 1012)");
  Expect(!QuietWindowPercentile(lossy, 1020, 0.99, lossy_steal, true, 1.0)
              .has_value(),
         "fewer windows with a p99 than the quiet share");
  Expect(std::abs(QuietWindowShareWithin(phase, 1000, steal, 0.5, 500.0) -
                  0.499) < 1e-9,
         "share within a limit over the quieter half");
  std::optional<double> quarter =
      QuietWindowPercentile(phase, 1000, 0.99, {0.03, 0.02, 0.0, 0.05}, false, 0.25);
  Expect(quarter.has_value() && *quarter == 992.0,
         "quietest quarter of four windows is the one window with no steal");
  std::vector<double> tied_windows;
  std::optional<double> tied =
      QuietWindowPercentile(phase, 1000, 0.99, {0.0, 0.0, 0.0, 0.05}, false, 0.25,
                            &tied_windows);
  Expect(tied.has_value() && *tied == Median({tied_windows[0], tied_windows[1],
                                              tied_windows[2]}),
         "windows tied on steal all count, not the earliest of them");
  std::vector<double> grouped = GroupSteal({0.01, 0.02, 0.0, 0.03, 0.05}, 2);
  Expect(grouped.size() == 2 && std::abs(grouped[0] - 0.03) < 1e-12 &&
             std::abs(grouped[1] - 0.03) < 1e-12,
         "steal of coarser windows sums whole groups");
}

void TestBacklog() {
  Expect(!BacklogGrowing({5, 7, 6, 5, 7, 6, 5, 6}, 4), "flat backlog");
  Expect(BacklogGrowing({5, 9, 14, 20, 27, 35, 44, 60}, 4), "rising backlog");
  Expect(!BacklogGrowing({5, 6, 7, 8, 9, 10, 11, 12}, 8),
         "rise within slack");
  Expect(!BacklogGrowing({40, 30, 20, 10, 45, 8, 6, 4}, 4),
         "draining backlog with one spike");
  Expect(!BacklogGrowing({1, 2}, 0), "too few samples");

  // Climbs 100 -> 400 by doubling, then oscillates between 200 and 400:
  // the climb before the first failure does not count.
  const double climb = StaircaseEstimate({100, 200, 400, 200, 400, 200},
                                         {true, true, false, true, false, true});
  Expect(std::abs(climb - std::pow(400.0 * 200.0 * 400.0 * 200.0, 0.25)) < 1e-9,
         "staircase: geometric mean from the first reversal");
  Expect(std::abs(StaircaseEstimate({100, 110, 121}, {true, true, true}) -
                  110.0) < 0.01,
         "staircase that never reversed: every step counts");
  Expect(StaircaseEstimate({}, {}) == 0.0, "empty staircase");
}

void TestSelfTimes() {
  // root [0,100) with children [10,40) and [30,60) (overlapping: 50 ns
  // covered) and a grandchild [15,25) under the first child.
  std::vector<Span> spans = {
      {"request", 0, 100, -1, 1},
      {"a", 10, 40, 0, 1},
      {"b", 30, 60, 0, 1},
      {"a.child", 15, 25, 1, 1},
  };
  std::vector<int64_t> self = SelfTimes(spans);
  Expect(self[0] == 50, "root self = 100 - union(30,30 overlapping)");
  Expect(self[1] == 20, "child self excludes its grandchild");
  Expect(self[2] == 30, "leaf self is its duration");
  Expect(self[3] == 10, "grandchild self");
  // A child sticking out of its parent only counts inside the parent.
  std::vector<Span> clipped = {{"p", 0, 10, -1, 2}, {"c", 5, 20, 0, 2}};
  Expect(SelfTimes(clipped)[0] == 5, "child clipped to parent interval");
}

void TestMetricNames() {
  Expect(ValidMetricName("net.decode_request_us"), "dotted name");
  Expect(ValidMetricName("p99_ms"), "plain name");
  Expect(!ValidMetricName("bad name"), "space rejected");
  Expect(!ValidMetricName(".hidden"), "leading dot rejected");
  Expect(!ValidMetricName(""), "empty rejected");
  Expect(!ValidMetricName("a/b"), "slash rejected");
}

void TestKeyValues() {
  std::map<std::string, double> kv = ParseKeyValues("STATS a=1.5 b.c=2 x");
  Expect(kv.size() == 2 && kv["a"] == 1.5 && kv["b.c"] == 2.0,
         "control-line key=value parse");
}

}  // namespace

int RunSelfTests() {
  g_failures = 0;
  TestScheduledSends();
  TestTailPercentile();
  TestBacklog();
  TestSelfTimes();
  TestMetricNames();
  TestKeyValues();
  return g_failures;
}

}  // namespace basm::perfbench
