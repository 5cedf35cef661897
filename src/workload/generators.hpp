// Trace generators for the evaluation workloads (Section 5, "Setup and
// data").
//
// The synthetic families (uniform, temporal-locality) follow the paper's
// description directly. The three real datacenter traces are not
// redistributable, so each is replaced by a synthetic generator matched to
// the published characteristics the paper's conclusions rest on:
//   * HPC (DOE mini-apps [11])  -> 3-D stencil exchange + collectives in
//     bulk-synchronous sweeps => low temporal locality, structured sparsity;
//   * ProjecToR (Microsoft [14]) -> sparse "elephant" pair support with
//     Zipf weights, requests drawn independently => low temporal locality;
//   * Facebook (datacenter [21]) -> independent Zipf endpoint popularity,
//     wide support, low temporal locality, large n.
#pragma once

#include <cstdint>

#include "workload/request.hpp"

namespace san {

/// Every request drawn independently and uniformly over ordered pairs
/// (u != v). The finite analogue of the Section 3.2 uniform workload.
Trace gen_uniform(int n, std::size_t m, std::uint64_t seed);

/// Temporal-locality workload: with probability p repeat the previous
/// request, otherwise draw a fresh uniform pair. p is the paper's
/// "temporal complexity parameter" (0.25 / 0.5 / 0.75 / 0.9 in Tables 4-7).
Trace gen_temporal(int n, std::size_t m, double p, std::uint64_t seed);

/// HPC-like workload (substitute for the DOE mini-apps trace): ranks on a
/// 3-D grid exchange with their 6-neighbourhood in bursty message trains,
/// with periodic rank-0 collectives and a little background noise.
Trace gen_hpc(int n, std::size_t m, std::uint64_t seed);

/// ProjecToR-like workload: a sparse support of 4n uniformly drawn
/// "elephant" pairs with Zipf(1.8) weights, each request drawn
/// independently (4% are fresh uniform "mice" pairs).
Trace gen_projector(int n, std::size_t m, std::uint64_t seed);

/// Facebook-like workload: source and destination drawn independently from
/// a shuffled Zipf(1.30) popularity distribution; no repetition bonus.
Trace gen_facebook(int n, std::size_t m, std::uint64_t seed);

// --- drifting workloads (not from the paper) ---------------------------
// The families below model communication patterns whose *spatial* locality
// moves over time — the regime where a static shard partition decays and
// the adaptive rebalancer (workload/rebalance.hpp) earns its keep.

/// Phase-change elephant pairs: ProjecToR-like sparse elephant support
/// (~n pairs, Zipf weights, a few percent mice noise), but the support is
/// redrawn from scratch at every phase boundary (`phases` equal phases
/// over the trace), so the hot communication graph shifts abruptly.
Trace gen_phase_elephants(int n, std::size_t m, int phases,
                          std::uint64_t seed);

/// Rotating hot set: both endpoints are drawn from a small hot set of
/// `hot` nodes with probability ~0.92 (uniform otherwise); the hot set is
/// resampled uniformly at random every `rotate_every` requests, so the
/// cluster that should be colocated keeps moving across the id space.
Trace gen_rotating_hotset(int n, std::size_t m, int hot,
                          std::size_t rotate_every, std::uint64_t seed);

// --- adversarial workloads (scenario-wall generators) ------------------
// Deterministic patterns built to defeat specific optimizations rather
// than model real traffic: the scheduling and rebalance benches use them
// as the honest "where it loses" cells.

/// Sequential scan: the cyclic neighbour walk (u, u+1), (u+1, u+2), ... —
/// the classic splay-friendly sequential access pattern, amortized O(1)
/// per request under FIFO. Any locality reorder scrambles the chain the
/// splay tree is exploiting, so this is the adversarial case for batch
/// scheduling. `seed` only rotates the starting position.
Trace gen_sequential_scan(int n, std::size_t m, std::uint64_t seed);

/// Bit reversal: requests pair consecutive elements of the bit-reversal
/// permutation of the id space — maximal spatial jumps with no reuse, the
/// classic anti-locality order (cf. the bit-reversal lower-bound family
/// for BSTs). `seed` rotates the starting offset within the permutation.
Trace gen_bit_reversal(int n, std::size_t m, std::uint64_t seed);

/// Identifier of the workloads used by benches/examples.
enum class WorkloadKind {
  kUniform,
  kTemporal025,
  kTemporal05,
  kTemporal075,
  kTemporal09,
  kHpc,
  kProjector,
  kFacebook,
  kPhaseElephants,  ///< gen_phase_elephants, 8 phases
  kRotatingHot,     ///< gen_rotating_hotset, hot = n/16, 16 rotations
  kSequentialScan,  ///< gen_sequential_scan (adversarial, deterministic)
  kBitReversal,     ///< gen_bit_reversal (adversarial, deterministic)
};

const char* workload_name(WorkloadKind kind);

/// Dispatches to the matching generator with the paper's node counts
/// scaled by the caller (n <= 0 picks the paper's default n).
Trace gen_workload(WorkloadKind kind, int n, std::size_t m,
                   std::uint64_t seed);

/// The paper's node count for each workload (Section 5 setup): uniform 100,
/// temporal 1023, HPC 500, ProjecToR 100, Facebook 10^4. The drifting
/// families are not from the paper and default to 1024.
int paper_node_count(WorkloadKind kind);

}  // namespace san
