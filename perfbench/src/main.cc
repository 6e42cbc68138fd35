// basm_perfbench: the serving benchmark's one binary.
//
//   basm_perfbench run --workload W --seed N --seconds S --trace 0|1
//                      --workdir DIR
//       generator: spawns the server (this binary, `server` mode), drives
//       it, checks slates, prints the JSON result as its last stdout line.
//   basm_perfbench server WORKLOAD CHECKPOINT JOURNAL_DIR SEED
//       server process (spawned by `run`; commands on stdin).
//   basm_perfbench selftest
//       the benchmark's own arithmetic self-tests.
//
// perfbench/run.py builds this binary and calls `run`.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_core.h"

namespace {

std::string SelfPath(const char* argv0) {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return argv0;
  return std::string(buf, static_cast<size_t>(n));
}

int Usage() {
  std::fprintf(stderr,
               "usage: basm_perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --workdir DIR\n"
               "       basm_perfbench server WORKLOAD CHECKPOINT JOURNAL SEED\n"
               "       basm_perfbench selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace basm::perfbench;
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  if (mode == "selftest") {
    const int failures = RunSelfTests();
    std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
    return failures == 0 ? 0 : 1;
  }
  if (mode == "server") {
    if (argc != 6) return Usage();
    return RunServer(argv[2], argv[3], argv[4],
                     std::strtoull(argv[5], nullptr, 10));
  }
  if (mode != "run") return Usage();
  GeneratorOptions options;
  options.self_path = SelfPath(argv[0]);
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else {
      return Usage();
    }
  }
  if (options.workload.empty() || options.workdir.empty() ||
      options.seconds <= 0.0) {
    return Usage();
  }
  return RunGenerator(options);
}
