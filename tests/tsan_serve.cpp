//===- tests/tsan_serve.cpp - ThreadSanitizer drive of concurrent serve ---===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
// A plain main() (no gtest, so every instruction in the binary is
// TSan-instrumented) that hammers one shared driver::Server from many
// threads: handleLine directly (the transport-agnostic core), serveFd
// over per-thread socketpairs, and the cache byte accounting on Ref
// release (with the work tier a session drops there and a later request
// rebuilds). Any data race — the request/in-flight counters,
// SessionCache LRU and byte totals, lazy per-entry pipeline runs,
// shutdown flag — aborts the test through TSan's reporting. Built with
// -fsanitize=thread when the toolchain supports it and registered as
// ctest vifc_tsan_serve.
//
//===----------------------------------------------------------------------===//

#include "driver/Batch.h"
#include "driver/Serve.h"
#include "query/FlowQueryEngine.h"
#include "support/BitSet.h"
#include "support/Graph.h"
#include "support/Parallel.h"
#include "workloads/Synthetic.h"

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

using namespace vif;
using namespace vif::driver;

namespace {

std::string escapeJson(const std::string &Source) {
  std::string Out;
  for (char C : Source) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

std::string flowsRequest(const std::string &Source, int Id,
                         const std::string &Command = "flows",
                         const std::string &Options = "") {
  return "{\"schema\":\"vifc.v1\",\"id\":" + std::to_string(Id) +
         ",\"command\":\"" + Command + "\",\"source\":\"" +
         escapeJson(Source) + "\"" +
         (Options.empty() ? "" : ",\"options\":" + Options) + "}";
}

std::string queryRequest(const std::string &Source, int Id,
                         const std::string &From, const std::string &To) {
  return "{\"schema\":\"vifc.v1\",\"id\":" + std::to_string(Id) +
         ",\"command\":\"query\",\"source\":\"" + escapeJson(Source) +
         "\",\"options\":{\"from\":\"" + From + "\",\"to\":\"" + To +
         "\"}}";
}

/// M threads calling handleLine directly against one server with a
/// byte-budgeted cache: K requests each over a small set of shared
/// designs, so threads collide on entries while eviction churns them.
bool hammerHandleLine() {
  constexpr unsigned Threads = 6, Requests = 10, Designs = 4;
  std::vector<std::string> Reqs;
  for (unsigned D = 0; D < Designs; ++D)
    Reqs.push_back(flowsRequest(workloads::pipelineDesign(4 + D), int(D)));

  ServeOptions SO;
  SO.CacheBytes = 1 << 18; // small enough to force evictions
  Server S(SO);
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&S, &Reqs, &Failures, T] {
      for (unsigned R = 0; R < Requests; ++R) {
        const std::string &Req = Reqs[(T + R) % Designs];
        std::string Response = S.handleLine(Req);
        if (Response.find("\"status\":\"ok\"") == std::string::npos)
          ++Failures;
      }
    });
  for (std::thread &W : Workers)
    W.join();

  if (Failures.load() != 0) {
    std::fprintf(stderr, "tsan_serve: %u handleLine calls failed\n",
                 Failures.load());
    return false;
  }
  SessionCache::Stats St = S.cache().stats();
  if (St.Hits + St.Misses != uint64_t(Threads) * Requests) {
    std::fprintf(stderr, "tsan_serve: hits+misses %llu != requests %u\n",
                 static_cast<unsigned long long>(St.Hits + St.Misses),
                 Threads * Requests);
    return false;
  }
  if (S.requestsHandled() != uint64_t(Threads) * Requests ||
      S.inFlight() != 0) {
    std::fprintf(stderr, "tsan_serve: request counters diverge\n");
    return false;
  }
  return true;
}

/// M threads each running the fd transport over their own socketpair
/// against one shared server — the listenAndServe worker shape without
/// the TCP stack in the way.
bool hammerServeFd() {
  constexpr unsigned Threads = 4, Requests = 6;
  Server S;
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&S, &Failures, T] {
      int Fds[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) != 0) {
        ++Failures;
        return;
      }
      std::string Payload;
      for (unsigned R = 0; R < Requests; ++R)
        Payload += flowsRequest(workloads::pipelineDesign(3 + T % 2),
                                int(T * 100 + R)) +
                   "\n";
      size_t Off = 0;
      while (Off < Payload.size()) {
        ssize_t W =
            ::write(Fds[1], Payload.data() + Off, Payload.size() - Off);
        if (W <= 0) {
          ++Failures;
          break;
        }
        Off += static_cast<size_t>(W);
      }
      ::shutdown(Fds[1], SHUT_WR);
      std::string Error;
      if (!S.serveFd(Fds[0], Fds[0], &Error)) {
        std::fprintf(stderr, "tsan_serve: serveFd: %s\n", Error.c_str());
        ++Failures;
      }
      ::close(Fds[0]);
      std::string Out;
      char Buf[65536];
      ssize_t N;
      while ((N = ::read(Fds[1], Buf, sizeof(Buf))) > 0)
        Out.append(Buf, static_cast<size_t>(N));
      ::close(Fds[1]);
      size_t Lines = 0;
      for (char C : Out)
        Lines += C == '\n';
      if (Lines != Requests)
        ++Failures;
    });
  for (std::thread &W : Workers)
    W.join();

  if (Failures.load() != 0) {
    std::fprintf(stderr, "tsan_serve: %u serveFd clients failed\n",
                 Failures.load());
    return false;
  }
  return true;
}

/// Query requests racing flows requests on one shared cache: the lazily
/// built query index (AnalysisSession::queryEngine) and the graph's lazy
/// sorted views are exercised from several threads against the same
/// cached sessions.
bool hammerQueryRequests() {
  constexpr unsigned Threads = 6, Requests = 10, Designs = 3;
  std::vector<std::string> Queries, Flows;
  for (unsigned D = 0; D < Designs; ++D) {
    std::string Source = workloads::pipelineDesign(3 + D);
    Queries.push_back(queryRequest(Source, int(D), "s_0", "s_2"));
    Flows.push_back(flowsRequest(Source, int(100 + D)));
  }

  Server S;
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&S, &Queries, &Flows, &Failures, T] {
      for (unsigned R = 0; R < Requests; ++R) {
        bool WantQuery = (T + R) % 2 == 0;
        const std::string &Req = WantQuery ? Queries[(T + R) % Designs]
                                           : Flows[(T + R) % Designs];
        std::string Response = S.handleLine(Req);
        if (Response.find("\"status\":\"ok\"") == std::string::npos)
          ++Failures;
        if (WantQuery &&
            Response.find("\"reaches\":true") == std::string::npos)
          ++Failures;
      }
    });
  for (std::thread &W : Workers)
    W.join();

  if (Failures.load() != 0) {
    std::fprintf(stderr, "tsan_serve: %u query requests failed\n",
                 Failures.load());
    return false;
  }
  return true;
}

/// Flows, Kemmerer flows and rm requests racing on the same content.
/// Flows leaves an entry holding only its answer tier, Kemmerer rebuilds
/// the program and the entry drops it again at release, and rm rebuilds
/// the whole work tier for good. Meanwhile one thread holds a flows
/// result's keepAlive and reads its graph without the entry lock. Each
/// round is a new design, so every round drops and rebuilds afresh.
bool hammerDropAndRebuild() {
  constexpr unsigned Threads = 5, Requests = 6, Rounds = 4;
  Server S;
  std::atomic<unsigned> Failures{0};
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    std::string Source = workloads::pipelineDesign(4 + Round);
    std::vector<std::string> Reqs = {
        flowsRequest(Source, 1),
        flowsRequest(Source, 2, "flows", R"({"method":"kemmerer"})"),
        flowsRequest(Source, 3, "rm")};
    BatchOptions Opts;
    Opts.Mode = BatchMode::Flows;
    Opts.Cache = &S.cache();
    DesignResult Held = analyzeDesign(BatchInput{"held", Source}, Opts);
    if (!Held.Ok || !Held.Graph)
      return false;
    size_t Edges = Held.NumEdges;
    std::vector<std::thread> Workers;
    for (unsigned T = 0; T < Threads; ++T)
      Workers.emplace_back([&S, &Reqs, &Failures, T] {
        for (unsigned R = 0; R < Requests; ++R) {
          std::string Response = S.handleLine(Reqs[(T + R) % Reqs.size()]);
          if (Response.find("\"status\":\"ok\"") == std::string::npos)
            ++Failures;
        }
      });
    Workers.emplace_back([&Held, &Failures, Edges] {
      for (unsigned R = 0; R < 20; ++R) {
        size_t Seen = 0;
        Held.Graph->forEachSortedEdge(
            [&Seen](std::string_view, std::string_view) { ++Seen; });
        if (Seen != Edges)
          ++Failures;
      }
    });
    for (std::thread &W : Workers)
      W.join();
  }
  if (Failures.load() != 0) {
    std::fprintf(stderr, "tsan_serve: %u drop/rebuild requests failed\n",
                 Failures.load());
    return false;
  }
  return true;
}

/// Many threads materializing one shared Digraph's lazy views (sorted
/// edges, ranks, reachability closure, a full query engine) — the borrow
/// pattern recordGraph/FlowQueryEngine rely on under the worker pool.
bool hammerGraphViews() {
  Digraph G;
  for (unsigned I = 0; I < 96; ++I)
    G.addEdge("n" + std::to_string(I * 7 % 32),
              "n" + std::to_string(I * 13 % 32));

  constexpr unsigned Threads = 8;
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < Threads; ++T)
    Workers.emplace_back([&G, &Failures] {
      size_t Edges = 0;
      G.forEachSortedEdge(
          [&Edges](std::string_view, std::string_view) { ++Edges; });
      if (Edges != G.numEdges())
        ++Failures;
      if (G.rankedNodes().size() != G.numNodes())
        ++Failures;
      BitMatrix M;
      G.reachabilityClosure(M);
      query::FlowQueryEngine Q(G);
      if (Q.numEdges() != G.numEdges())
        ++Failures;
    });
  for (std::thread &W : Workers)
    W.join();

  if (Failures.load() != 0) {
    std::fprintf(stderr, "tsan_serve: %u graph view readers failed\n",
                 Failures.load());
    return false;
  }
  return true;
}

/// The WorkerPool itself under churn: enqueue from several producers
/// while the pool drains, close() racing the last enqueues.
bool hammerWorkerPool() {
  std::atomic<unsigned> Ran{0};
  std::atomic<unsigned> Accepted{0};
  {
    WorkerPool Pool(3, 8);
    std::vector<std::thread> Producers;
    for (unsigned P = 0; P < 4; ++P)
      Producers.emplace_back([&Pool, &Ran, &Accepted] {
        for (unsigned I = 0; I < 50; ++I)
          if (Pool.tryEnqueue([&Ran] {
                Ran.fetch_add(1, std::memory_order_relaxed);
              }))
            Accepted.fetch_add(1, std::memory_order_relaxed);
      });
    for (std::thread &P : Producers)
      P.join();
    Pool.close(); // drains everything accepted
  }
  if (Ran.load() != Accepted.load()) {
    std::fprintf(stderr, "tsan_serve: pool ran %u of %u accepted tasks\n",
                 Ran.load(), Accepted.load());
    return false;
  }
  return true;
}

} // namespace

int main() {
  bool Ok = true;
  // Several rounds so thread interleavings vary.
  for (int Round = 0; Round < 3 && Ok; ++Round) {
    Ok = Ok && hammerHandleLine();
    Ok = Ok && hammerQueryRequests();
    Ok = Ok && hammerDropAndRebuild();
    Ok = Ok && hammerGraphViews();
    Ok = Ok && hammerServeFd();
    Ok = Ok && hammerWorkerPool();
  }
  if (Ok)
    std::puts("tsan_serve: all concurrent serves consistent");
  return Ok ? 0 : 1;
}
