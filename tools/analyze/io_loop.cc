#include "tools/analyze/io_loop.h"

#include <set>
#include <string>

namespace basm::analyze {
namespace {

/// Classes whose non-lifecycle methods run on IO loop threads. A nested
/// class (e.g. `EpollRpcServer::LoopShard`) is in scope through its
/// outermost component.
const std::set<std::string>& IoLoopClasses() {
  static const std::set<std::string> kClasses = {
      "EventLoop",
      "EpollRpcServer",
  };
  return kClasses;
}

/// Same blocking-syscall vocabulary as the blocking-under-lock pass.
const std::set<std::string>& BlockingTokens() {
  static const std::set<std::string> kTokens = {
      "fsync",    "fdatasync", "write",       "pwrite",      "read",
      "pread",    "send",      "recv",        "sendto",      "recvfrom",
      "connect",  "accept",    "poll",        "ppoll",       "select",
      "usleep",   "nanosleep", "sleep_for",   "sleep_until", "sleep",
      "join",     "flock",     "system",      "wait",        "waitpid",
  };
  return kTokens;
}

/// The repo's own blocking wrappers: each parks the calling thread by
/// contract (poll-and-continue loops inside), which is exactly what an IO
/// loop thread must never do. The loop uses the Chunk/Try variants instead.
const std::set<std::string>& BlockingWrappers() {
  static const std::set<std::string> kWrappers = {
      "ReadAll", "WriteAll", "Accept", "WaitReadable",
      // Blocking submit/round-trip APIs: the loop must use the
      // callback-based SubmitAsync path.
      "Submit",  "Call",
  };
  return kWrappers;
}

bool IsWaitFamily(const std::string& name) {
  return name == "Wait" || name == "WaitUntil" || name == "WaitFor";
}

/// Outermost class component: `EpollRpcServer::LoopShard` -> the server.
std::string OuterClass(const std::string& cls) {
  size_t at = cls.find("::");
  return at == std::string::npos ? cls : cls.substr(0, at);
}

std::string SimpleName(const std::string& cls) {
  size_t at = cls.rfind("::");
  return at == std::string::npos ? cls : cls.substr(at + 2);
}

/// Lifecycle methods run on the owner's thread, before the loop exists or
/// after it has quit — joining and waiting there is correct.
bool LifecycleExempt(const FunctionScan& fn) {
  const std::string simple = SimpleName(fn.cls);
  return fn.name == "Start" || fn.name == "Stop" || fn.name == simple ||
         fn.name == "~" + simple;
}

}  // namespace

std::vector<lint::Finding> RunIoLoop(const std::vector<FileScan>& files) {
  std::vector<lint::Finding> findings;
  constexpr char kPass[] = "blocking-in-event-loop";

  for (const FileScan& file : files) {
    for (const FunctionScan& fn : file.functions) {
      if (fn.cls.empty() || !IoLoopClasses().count(OuterClass(fn.cls))) {
        continue;
      }
      if (LifecycleExempt(fn)) continue;
      const std::string where = fn.cls + "::" + fn.name;
      for (const Call& call : fn.calls) {
        std::string why;
        if (BlockingTokens().count(call.name) || IsWaitFamily(call.name)) {
          why = "'" + call.name + "' can park the IO loop thread";
        } else if (BlockingWrappers().count(call.name)) {
          why = "'" + call.name +
                "' blocks by contract (poll-and-continue wrapper)";
        }
        if (why.empty()) continue;
        findings.push_back(lint::Finding{
            file.path, call.line, kPass,
            where + " calls " + call.name + " in event-loop scope: " + why +
                "; one blocked loop thread stalls every connection of its "
                "shard — use the non-blocking Chunk/Try/Async variant or "
                "justify with an inline allow"});
      }
    }
  }
  return findings;
}

}  // namespace basm::analyze
