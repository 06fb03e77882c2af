//===- support/Parallel.h - Simple fork-join parallel loops -----*- C++ -*-===//
//
// Part of the vif project; see DESIGN.md for the paper reference.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel primitives the project needs. parallelFor runs N
/// independent index tasks over a pool of worker threads and joins:
/// driver::Batch fans designs out with it and the rd solvers fan
/// processes out with it (each process's fixpoint is independent —
/// disjoint labels, disjoint result slots). Work is claimed from one
/// atomic counter, so scheduling is dynamic but the tasks themselves must
/// write only index-owned state for the results to be deterministic.
///
/// WorkerPool is the long-lived variant for open-ended work: a fixed set
/// of threads draining a bounded task queue, with explicit admission
/// (tryEnqueue fails instead of growing without bound) — the scheduler
/// under the concurrent `vifc serve` front end (driver/Serve.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef VIF_SUPPORT_PARALLEL_H
#define VIF_SUPPORT_PARALLEL_H

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace vif {

/// Runs \p Fn(I) for every I in [0, N), over min(\p Jobs, N) threads.
/// Jobs <= 1 (and N <= 1) runs inline on the calling thread — the
/// serial path has zero threading overhead and is the default everywhere.
/// \p Fn must confine its writes to state owned by index I.
template <typename Fn>
void parallelFor(unsigned Jobs, size_t N, Fn &&F) {
  if (Jobs <= 1 || N <= 1) {
    for (size_t I = 0; I < N; ++I)
      F(I);
    return;
  }
  unsigned Threads = static_cast<unsigned>(
      std::min<size_t>(Jobs, N));
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t I = Next.fetch_add(1); I < N; I = Next.fetch_add(1))
      F(I);
  };
  std::vector<std::thread> Pool;
  Pool.reserve(Threads);
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back(Worker);
  for (std::thread &T : Pool)
    T.join();
}

/// A fixed pool of worker threads draining a bounded FIFO task queue.
///
/// Unlike parallelFor, the work list is open-ended: producers enqueue
/// tasks as they arrive and the pool runs them in submission order,
/// MaxQueued bounds how many tasks may wait (admission control — a full
/// queue makes tryEnqueue fail rather than buffer without limit), and
/// close() drains everything still queued before joining. Tasks must be
/// self-contained: the pool never reports results or exceptions (tasks
/// must not throw).
class WorkerPool {
public:
  /// \p Threads workers (at least 1) over a queue of at most
  /// \p MaxQueued waiting tasks (0 = unbounded).
  explicit WorkerPool(unsigned Threads, size_t MaxQueued = 0)
      : MaxQueued(MaxQueued) {
    Workers.reserve(std::max(Threads, 1u));
    for (unsigned T = 0; T < std::max(Threads, 1u); ++T)
      Workers.emplace_back([this] { workerLoop(); });
  }

  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;
  ~WorkerPool() { close(); }

  /// Queues \p Task unless the pool is closed or the queue is full;
  /// false means the caller must shed the work (the serve front end
  /// answers `overloaded`).
  bool tryEnqueue(std::function<void()> Task) {
    {
      std::lock_guard<std::mutex> G(M);
      if (Closed || (MaxQueued && Queue.size() >= MaxQueued))
        return false;
      Queue.push_back(std::move(Task));
    }
    CV.notify_one();
    return true;
  }

  unsigned threads() const { return static_cast<unsigned>(Workers.size()); }

  /// Rejects further enqueues, runs every task still queued, and joins
  /// the workers. Idempotent; called by the destructor. Tasks that must
  /// not run to completion during a shutdown have to check their own
  /// stop flag — the pool always drains (dropping tasks would leak
  /// whatever they own, e.g. accepted connections).
  void close() {
    {
      std::lock_guard<std::mutex> G(M);
      if (Closed)
        return;
      Closed = true;
    }
    CV.notify_all();
    for (std::thread &T : Workers)
      T.join();
  }

private:
  void workerLoop() {
    for (;;) {
      std::function<void()> Task;
      {
        std::unique_lock<std::mutex> G(M);
        CV.wait(G, [this] { return Closed || !Queue.empty(); });
        if (Queue.empty())
          return; // closed and drained
        Task = std::move(Queue.front());
        Queue.pop_front();
      }
      Task();
    }
  }

  std::mutex M;
  std::condition_variable CV;
  std::deque<std::function<void()>> Queue;
  const size_t MaxQueued;
  bool Closed = false;
  std::vector<std::thread> Workers;
};

} // namespace vif

#endif // VIF_SUPPORT_PARALLEL_H
