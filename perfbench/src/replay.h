#ifndef BASM_PERFBENCH_REPLAY_H_
#define BASM_PERFBENCH_REPLAY_H_

#include <map>
#include <string>
#include <vector>

#include "bench_core.h"
#include "data/synth.h"
#include "serving/pipeline.h"

namespace basm::perfbench {

/// Per-layer costs from replaying a captured sample of the workload's
/// requests serially through each layer's public call, with a span around
/// every call (see RunTraceReplay).
struct ReplayMetrics {
  /// Mean self time per request of each span name, in microseconds.
  std::map<std::string, double> layer_us;
  /// Mean duration of one whole serial request (sum of its stages).
  double serial_request_us = 0.0;
  double forward_us_per_row_r24 = 0.0;
  double forward_us_per_row_r96 = 0.0;
  /// DIN (shared encoder + target attention) forward on the r96 batch;
  /// 0 when the workload's model is not BASM.
  double encoder_attention_us_per_row = 0.0;
  /// Full BASM minus BasmConfig::Without* on the r96 batch; 0 when the
  /// workload's model is not BASM.
  double stael_us_per_row = 0.0;
  double ststl_us_per_row = 0.0;
  double stabt_us_per_row = 0.0;
  /// Bytes parked in the replay thread's tensor arena after the replay.
  double arena_held_mb = 0.0;
  /// Thread CPU of a traced replay pass over an untraced one, minus 1, in %:
  /// the median over alternating rounds.
  double overhead_pct = 0.0;
};

/// Replays `sample` (in order) through decode -> route -> recall -> fetch ->
/// build examples -> MakeBatch -> forward -> slate -> encode on an
/// in-process copy of the server's pipeline, once untraced and once with
/// spans, writes the spans to `trace_path` as JSON, and prints a self-time
/// share table to stderr.
ReplayMetrics RunTraceReplay(const data::World& world,
                             const Workload& workload,
                             const std::string& checkpoint,
                             const std::vector<serving::Request>& sample,
                             const std::string& trace_path);

}  // namespace basm::perfbench

#endif  // BASM_PERFBENCH_REPLAY_H_
