// Persistent thread-pool executor for the data-parallel hot paths.
//
// The tiled O(n^3 k) DP issues one parallel_for per tile-diagonal (31 at
// n = 1024) and the sharded pipeline one per drain chunk and per barrier
// rebuild. Spawning std::threads for every round costs tens of
// microseconds each; this executor keeps one pool of workers alive for
// the process lifetime and hands them chunks of the index range through
// an atomic cursor, so a round costs one mutex broadcast instead of
// thread creation.
//
// Semantics (shared with the parallel_for shim in parallel.hpp):
//  - fn is called exactly once for every index in [begin, end), in
//    unspecified order, from the calling thread and/or pool workers.
//  - `threads` caps the number of participating threads; 0 means "auto"
//    (hardware concurrency) and threads=1 runs serially on the caller.
//    Explicit requests above hardware concurrency oversubscribe like the
//    pre-pool implementation did, except that the pool never grows past
//    64 workers — a request for more silently gets 64 + the caller.
//  - The first exception thrown by fn is captured and rethrown on the
//    calling thread after the round completes; remaining indices may be
//    skipped once an exception is pending.
//  - Calls from inside a worker (nested parallelism) run serially on
//    that worker instead of deadlocking on the pool.
#pragma once

#include <cstddef>
#include <exception>
#include <mutex>

namespace san {

/// Number of participating threads when the caller passes `requested`
/// (0 = auto = hardware concurrency, never less than 1).
int resolve_threads(int requested);

class Executor {
 public:
  /// The process-wide pool. Workers are started lazily on the first
  /// parallel round and joined at static destruction.
  static Executor& instance();

  /// An owned pool with the same contract as instance(). Almost all code
  /// should go through instance() (or parallel_for) and share the one
  /// process pool; owned pools exist so shutdown — destruction racing
  /// workers that are still waking from the last posted round — is
  /// testable without tearing down the shared singleton. Destruction
  /// while a for_range on this pool is still running is undefined; join
  /// your callers first.
  Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Type-erased element callback: ctx is the caller's closure.
  using RangeFn = void (*)(void* ctx, long index);

  /// Runs fn(ctx, i) for every i in [begin, end) on up to
  /// resolve_threads(threads) threads (caller included). Blocks until
  /// every index is done; rethrows the first captured exception.
  void for_range(long begin, long end, int threads, void* ctx, RangeFn fn);

  /// Workers currently alive in the pool (grown lazily; they persist for
  /// the process lifetime once started).
  int pool_size() const;

  /// Total parallel rounds dispatched to the pool since process start
  /// (serial fallbacks excluded); exposed so tests can assert the pool
  /// is being reused rather than respawned.
  std::size_t rounds_dispatched() const;

  /// True on any thread currently inside an active round — pool workers
  /// AND the caller while it participates in its own for_range. Nested
  /// for_range calls check this to degrade to serial execution.
  static bool on_worker_thread();

  ~Executor();

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace san
