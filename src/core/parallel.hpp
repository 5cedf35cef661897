// Minimal data-parallel helper (no external dependencies).
//
// The O(n^3 k) demand-aware DP, the sharded drains and the epoch
// barrier's per-shard rebuilds split into independent sub-problems.
// parallel_for is a thin type-erasing shim over the persistent Executor
// pool (core/executor.hpp), so a round pays no thread creation.
#pragma once

#include <type_traits>

#include "core/executor.hpp"

namespace san {

/// Calls fn(i) for i in [begin, end) using `threads` workers (0 = auto).
/// fn must be safe to call concurrently for distinct i. Blocks until
/// done; the first exception thrown by fn is rethrown on the caller.
template <typename Fn>
void parallel_for(long begin, long end, int threads, Fn&& fn) {
  using Decayed = std::remove_reference_t<Fn>;
  Executor::instance().for_range(
      begin, end, threads, const_cast<std::remove_const_t<Decayed>*>(&fn),
      [](void* ctx, long i) { (*static_cast<Decayed*>(ctx))(i); });
}

}  // namespace san
