// Deterministic fault injection for the sharded serving engine.
//
// A FaultPlan is a script of fault events keyed to the global request
// index: "after `at_request` requests have been served, fire `kind` at
// shard `shard`". Because the trigger is a request count — not wall
// time — a failure scenario replays bit-exactly: the batch pipeline
// (sim/simulator.hpp) splits its drain chunks at the kill points, so the
// pre-crash state, the tree-image snapshot the recovery restores, and the
// ops it replays are identical on every run, sequential or concurrent.
// The open-loop frontend (sim/serve_frontend.hpp) fires the same script at
// its count of offered requests (admitted or shed) and recovers at a
// quiesce barrier. Both engines replay the ops the killed shard served, in
// the order it served them, so every restore rebuilds the lost tree
// exactly (ControlPlane::recover checks it).
//
// Three event kinds, mirroring what actually fails in a tablet server:
//   * kShardKill     — the shard loses its in-memory tree; recovery is
//     two-tier: a replicated shard fails over by promotion (the lockstep
//     copy already holds the exact pre-crash state), an unreplicated one
//     is rebuilt from its last snapshot (a checksummed tree image, see
//     ShardedNetwork::snapshot_shard) plus a replay of the ops the shard
//     served since it. Replay costs are accounted separately
//     from serve costs (SimResult::recovery_cost), the same convention
//     migration_cost uses, so a faulted run's golden serve counters match
//     the unfaulted run's.
//   * kWorkerKill    — the serving *thread* dies, the data survives: the
//     open-loop frontend retires the shard's worker at a quiesce barrier
//     and respawns a fresh one (counted in SimResult::worker_kills, the
//     pause charged to latency like any stall). The batch pipeline has no
//     persistent workers, so there it only counts the event.
//   * kQueuePressure — the shard's inbox capacity collapses to a sliver
//     until the next quiesce barrier, forcing the admission policy
//     (block/shed/deadline) to actually engage. Counted in
//     SimResult::queue_pressure_events; a no-op outside the frontend
//     (the batch pipeline has no queues to pressure).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace san {

enum class FaultKind : std::uint8_t {
  kShardKill = 0,      ///< lose the shard's in-memory tree
  kWorkerKill = 1,     ///< lose the shard's worker thread (frontend only)
  kQueuePressure = 2,  ///< collapse the shard's inbox bound (frontend only)
};

const char* fault_kind_name(FaultKind kind);

/// One scripted fault: fires when `at_request` requests have been served
/// (batch pipeline) or offered (frontend), i.e. between request
/// at_request-1 and at_request, or after the last one.
struct FaultEvent {
  std::size_t at_request = 0;
  int shard = -1;
  FaultKind kind = FaultKind::kShardKill;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

struct FaultPlan {
  /// Fault script; must be non-decreasing in at_request (validated by the
  /// engines before the run starts). Events scheduled past the end of the
  /// trace simply never fire.
  std::vector<FaultEvent> kills;
  /// Recovery-time objective in milliseconds, carried through to reports
  /// (bench/lifecycle_scaling, san_cli); 0 = no SLO configured. The
  /// engines measure, they do not enforce.
  double recovery_slo_ms = 0.0;

  bool enabled() const { return !kills.empty(); }

  /// Throws TreeError when the script is malformed: unsorted event indices
  /// or a negative shard id. Shard ids are range-checked at fire time
  /// against the *live* shard count (splits/merges may have changed it).
  void validate() const;
};

/// Parses a CLI fault script: "[KIND:]IDX@SHARD[,...]" where KIND is
/// `k` (shard kill, the default when omitted), `w` (worker kill) or `q`
/// (queue pressure) — e.g. "50000@2,w:60000@0,q:80000@1". Throws
/// TreeError on malformed input.
FaultPlan parse_fault_plan(const std::string& spec);

/// Chaos mode: a seeded generator of valid fault scripts. Emits a
/// deterministic function of (seed, shards, m) — same inputs, same plan,
/// so a chaos run that trips an invariant is replayable from its seed
/// alone. Events are sorted, strictly inside (0, m), target shards in
/// [0, shards), and mix all three kinds with shard kills dominating
/// (they exercise the deepest recovery machinery). Throws TreeError on
/// shards < 1 or m < 2.
FaultPlan gen_chaos_plan(std::uint64_t seed, int shards, std::size_t m);

}  // namespace san
