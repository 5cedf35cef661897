// Parallel parameter sweeps: run many independent (network factory, trace)
// experiments across hardware threads and collect SimResults in input
// order. The bench tables are sweeps over k and topology; on multi-core
// hosts this turns a minutes-long table into seconds.
#pragma once

#include <functional>
#include <vector>

#include "sim/any_network.hpp"
#include "sim/simulator.hpp"

namespace san {

struct SweepCase {
  /// Builds a fresh network instance; invoked on a worker thread, so the
  /// factory must not share mutable state with other cases. Returns one
  /// of AnyNetwork's alternatives, served devirtualized.
  std::function<AnyNetwork()> make_network;
  /// Trace to replay; referenced, not copied — must outlive the sweep.
  const Trace* trace = nullptr;
};

/// Runs every case (each on one worker; 0 = all hardware threads) and
/// returns results positionally. Throws TreeError if a case is missing a
/// factory or trace; exceptions from workers propagate.
std::vector<SimResult> run_sweep(const std::vector<SweepCase>& cases,
                                 int threads = 0);

}  // namespace san
