//===- driver/Serve.h - Long-lived analysis server --------------*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `vifc serve`: a long-lived request loop that keeps AnalysisSessions
/// warm behind a content-addressed SessionCache, so re-analyzing an
/// unchanged design answers from cached artifacts instead of recomputing
/// the pipeline. The protocol is line-delimited JSON — one request object
/// per line in, one vifc.v1 response document per line out — spoken over
/// stdin/stdout or an optional loopback TCP listener. docs/SERVER.md is
/// the normative protocol walkthrough; docs/SCHEMA.md specifies the
/// response documents.
///
/// The core is transport-agnostic and thread-safe: handleLine() maps one
/// request string to one response string and may be called from many
/// threads at once (the SessionCache underneath serializes per entry).
/// serveFd() is the one request loop around it, for one connection: over
/// fds 0 and 1 it is the stdio transport, over a socket one TCP client.
/// listenAndServe is the concurrent TCP front end — an accept loop
/// handing connections to serveFd on a fixed WorkerPool
/// (support/Parallel.h) with bounded admission, which is also what makes
/// the server testable in-process.
///
//===----------------------------------------------------------------------===//

#ifndef VIF_DRIVER_SERVE_H
#define VIF_DRIVER_SERVE_H

#include "driver/ArtifactStore.h"
#include "driver/SessionCache.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace vif {
namespace driver {

struct ServeOptions {
  /// LRU capacity of the session cache in entries.
  size_t CacheCapacity = SessionCache::DefaultCapacity;
  /// Byte budget for the session cache (deep-measured entry sizes);
  /// 0 = entries-only eviction.
  size_t CacheBytes = 0;
  /// TCP worker threads (listenAndServe): each worker owns one
  /// connection at a time. 0 = auto (hardware concurrency, capped at 8).
  unsigned Workers = 0;
  /// Connections allowed to wait for a free worker before new ones are
  /// shed with an `overloaded` error response. 0 = auto (2x workers).
  size_t MaxQueuedConns = 0;
  /// Called once the TCP listener is bound, with the actual port —
  /// which is only known here when asking for an ephemeral port (0).
  std::function<void(uint16_t)> OnListening;
  /// Session defaults a request's "options" object overrides per field.
  SessionOptions Session;
  /// When non-empty, the server persists whole-design artifacts under
  /// this directory (driver/ArtifactStore.h) and serves them back across
  /// restarts. Per-process incrementality is in memory either way.
  std::string StoreDir;
};

/// One server: a session cache plus request counters. handleLine (and
/// therefore serveFd, on distinct descriptors) is safe to call from many
/// threads concurrently; listenAndServe runs exactly that way.
class Server {
public:
  explicit Server(ServeOptions Opts = ServeOptions());

  /// Handles one request line and returns the one-line JSON response
  /// (no trailing newline). Never throws; malformed input yields an
  /// error-object response. A "shutdown" request flips shuttingDown().
  /// Thread-safe.
  std::string handleLine(const std::string &Line);

  /// True once a shutdown request was served; loops exit after writing
  /// its response.
  bool shuttingDown() const {
    return ShuttingDown.load(std::memory_order_acquire);
  }

  /// The request loop of one client: one request per line read from
  /// \p InFd, one response per line written to \p OutFd. A trailing CR
  /// is stripped, blank lines are skipped, a final line without a
  /// newline is still answered, and the loop returns at EOF or after
  /// answering a shutdown. Requests are answered in order (pipelining);
  /// distinct clients may be served from distinct threads in parallel.
  /// Returns false with \p Error set ("read: ..." or "write: ...") on a
  /// transport failure; a reader that went away is a write error, never
  /// a SIGPIPE. `vifc serve` runs it over fds 0 and 1, and listenAndServe
  /// over each accepted socket (InFd == OutFd).
  bool serveFd(int InFd, int OutFd, std::string *Error = nullptr);

  /// Binds 127.0.0.1:\p Port (0 = ephemeral, reported via boundPort()
  /// and ServeOptions::OnListening) and serves connections over a fixed
  /// worker pool until a shutdown request arrives, then drains: requests
  /// already being handled complete and are answered, every connection
  /// is closed. Connections beyond the worker+queue bound are shed with
  /// a one-line `overloaded` error. Loopback only: the protocol has no
  /// authentication, so it must not listen on routable interfaces.
  bool listenAndServe(uint16_t Port, std::string *Error = nullptr);

  /// The port the TCP listener is bound to; 0 until listenAndServe has
  /// bound its socket (poll it from the spawning thread).
  uint16_t boundPort() const {
    return BoundPort.load(std::memory_order_acquire);
  }

  /// Worker threads listenAndServe will use (the resolved Workers
  /// option).
  unsigned effectiveWorkers() const;

  SessionCache &cache() { return Cache; }
  /// The on-disk artifact store; null unless ServeOptions::StoreDir was
  /// set.
  const ArtifactStore *artifactStore() const { return Store.get(); }
  uint64_t requestsHandled() const {
    return Requests.load(std::memory_order_relaxed);
  }
  /// Requests currently inside handleLine, across all threads.
  uint64_t inFlight() const {
    return InFlight.load(std::memory_order_relaxed);
  }

private:
  /// Returns the cached source for a content key, or null (the
  /// `unknown-content-key` error).
  std::shared_ptr<const std::string> lookupContent(const std::string &Key);
  /// Records an inline source under its content key (LRU-bounded) and
  /// returns the key, which the response echoes so clients can switch to
  /// by-reference requests.
  std::string rememberContent(const std::string &Source);

  ServeOptions Opts;
  SessionCache Cache;
  /// On-disk artifact store (ServeOptions::StoreDir) and the in-memory
  /// per-process artifact table shared by all sessions; wired into Cache
  /// before any request runs.
  std::unique_ptr<ArtifactStore> Store;
  ProcessArtifactTable Artifacts;
  /// The content-key map behind "contentKey" requests: source bytes by
  /// their content hash, LRU-bounded, populated by inline-source
  /// requests.
  static constexpr size_t ContentCapacity = 1024;
  std::mutex ContentM;
  std::list<std::string> ContentLru; ///< most recent first
  std::unordered_map<std::string,
                     std::pair<std::shared_ptr<const std::string>,
                               std::list<std::string>::iterator>>
      Content;
  std::atomic<uint64_t> Requests{0};
  std::atomic<uint64_t> InFlight{0};
  std::atomic<bool> ShuttingDown{false};
  std::atomic<uint16_t> BoundPort{0};
};

} // namespace driver
} // namespace vif

#endif // VIF_DRIVER_SERVE_H
