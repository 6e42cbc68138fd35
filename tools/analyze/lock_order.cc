#include "tools/analyze/lock_order.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <utility>

namespace basm::analyze {
namespace {

/// The documented lock hierarchy (DESIGN §10, mirrored in §15): while
/// holding `first`, acquiring `second` is legal. Everything not listed —
/// including the reverse of any listed pair — is a finding. Leaf locks
/// (CircuitBreaker, FaultInjector, ModelSlot, ModelRegistry, BlockingQueue,
/// MicroBatcher, LatencyRecorder) appear only on the right-hand side.
const std::vector<std::pair<const char*, const char*>>& AllowedEdges() {
  static const std::vector<std::pair<const char*, const char*>> kAllowed = {
      // Engine shutdown drains the job queue and joins the worker pools.
      {"ServingEngine::shutdown_mu_", "BlockingQueue::mu_"},
      {"ServingEngine::shutdown_mu_", "ThreadPool::mu_"},
      // The pool's shutdown closes its own task queue.
      {"ThreadPool::mu_", "BlockingQueue::mu_"},
      // The trainer applies updates and publishes under its update lock;
      // the fault-injected train step consults the injector's site table.
      {"OnlineTrainer::update_mu_", "ModelRegistry::mu_"},
      {"OnlineTrainer::update_mu_", "ModelSlot::mu_"},
      {"OnlineTrainer::update_mu_", "BlockingQueue::mu_"},
      {"OnlineTrainer::update_mu_", "FaultInjector::mu_"},
      // Trainer lifecycle closes the feedback queue before joining.
      {"OnlineTrainer::lifecycle_mu_", "BlockingQueue::mu_"},
      // Registry publish updates the slot's servable pointer.
      {"ModelRegistry::mu_", "ModelSlot::mu_"},
      // Epoll server lifecycle starts/stops its IO loops (each loop has its
      // own lifecycle and task locks) and waits out in-flight submissions.
      {"EpollRpcServer::lifecycle_mu_", "EventLoop::lifecycle_mu_"},
      {"EpollRpcServer::lifecycle_mu_", "EventLoop::task_mu_"},
      {"EpollRpcServer::lifecycle_mu_", "EpollRpcServer::pending_mu_"},
  };
  return kAllowed;
}

bool EdgeAllowed(const std::string& from, const std::string& to) {
  for (const auto& [a, b] : AllowedEdges()) {
    if (from == a && to == b) return true;
  }
  return false;
}

struct Edge {
  std::string file;
  int line = 0;
  std::string via;  // human description of the witness
};

}  // namespace

std::vector<lint::Finding> RunLockOrder(const std::vector<FileScan>& files,
                                        const ProgramModel& model) {
  std::vector<lint::Finding> findings;
  constexpr char kPass[] = "lock-order";

  // from-node -> to-node -> first witness
  std::map<std::string, std::map<std::string, Edge>> edges;
  auto add_edge = [&](const std::string& from, const std::string& to,
                      Edge witness) {
    if (from == to) return;  // CondVar round-trips; not an ordering edge
    edges[from].emplace(to, std::move(witness));
  };

  for (const FileScan& file : files) {
    for (const FunctionScan& fn : file.functions) {
      const std::string where =
          (fn.cls.empty() ? fn.name : fn.cls + "::" + fn.name);
      // Nested direct acquisitions.
      for (const LockAcq& acq : fn.locks) {
        if (acq.held.empty()) continue;
        std::string to = model.LockNode(fn.cls, acq.expr);
        for (const std::string& held : acq.held) {
          add_edge(model.LockNode(fn.cls, held), to,
                   Edge{file.path, acq.line,
                        where + " acquires " + acq.expr + " while holding " +
                            held});
        }
      }
      // Acquisitions through calls made under a lock.
      for (const Call& call : fn.calls) {
        if (call.locks_held.empty()) continue;
        std::string callee = model.ResolveCallee(fn.cls, call);
        if (callee.empty()) continue;
        auto acquired = model.acquires().find(callee);
        if (acquired == model.acquires().end()) continue;
        for (const std::string& to : acquired->second) {
          for (const std::string& held : call.locks_held) {
            add_edge(model.LockNode(fn.cls, held), to,
                     Edge{file.path, call.line,
                          where + " holds " + held + " and calls " + callee +
                              " which acquires " + to});
          }
        }
      }
    }
  }

  for (const auto& [from, outs] : edges) {
    for (const auto& [to, witness] : outs) {
      if (EdgeAllowed(from, to)) continue;
      findings.push_back(lint::Finding{
          witness.file, witness.line, kPass,
          "undocumented lock ordering " + from + " -> " + to + " (" +
              witness.via +
              "); add it to the DESIGN §10/§15 hierarchy and the "
              "lock-order table, or restructure to drop the outer lock"});
    }
  }

  // Cycle detection over the observed graph, independent of the table.
  std::map<std::string, int> state;
  std::vector<std::string> stack;
  std::vector<std::string> cycle;
  std::function<bool(const std::string&)> visit =
      [&](const std::string& node) -> bool {
    state[node] = 1;
    stack.push_back(node);
    auto it = edges.find(node);
    if (it != edges.end()) {
      for (const auto& [next, _] : it->second) {
        int s = state.count(next) ? state[next] : 0;
        if (s == 1) {
          auto at = std::find(stack.begin(), stack.end(), next);
          cycle.assign(at, stack.end());
          cycle.push_back(next);
          return true;
        }
        if (s == 0 && visit(next)) return true;
      }
    }
    stack.pop_back();
    state[node] = 2;
    return false;
  };
  for (const auto& [node, _] : edges) {
    if ((state.count(node) ? state[node] : 0) == 0 && visit(node)) break;
  }
  if (!cycle.empty()) {
    std::string path;
    for (const std::string& n : cycle) {
      if (!path.empty()) path += " -> ";
      path += n;
    }
    const Edge& witness = edges[cycle[0]].at(cycle[1]);
    findings.push_back(lint::Finding{
        witness.file, witness.line, kPass,
        "lock acquisition cycle: " + path + " (first edge: " + witness.via +
            "); a deadlock is reachable when threads interleave these "
            "acquisitions"});
  }
  return findings;
}

}  // namespace basm::analyze
