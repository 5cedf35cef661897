// The streaming data plane's equivalence wall: every streamed path (the
// on-demand workload generators, the v2 binary readers on both backends,
// the chunked replay loops, the open-loop frontend engine) must reproduce
// its materialized counterpart bit for bit — the whole point of the
// O(chunk) pipeline is that scaling m changes memory, never results.
// Plus corrupt-input injection for the v2 parser (header byte flips,
// truncation, trailing bytes), which the ASan tier-1 job covers.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <vector>

#include "io/trace_io.hpp"
#include "io/trace_v2.hpp"
#include "sim/serve_frontend.hpp"
#include "sim/sharded_network.hpp"
#include "sim/simulator.hpp"
#include "workload/arrival.hpp"
#include "workload/generators.hpp"
#include "workload/rebalance.hpp"
#include "workload/streaming.hpp"

namespace san {
namespace {

const WorkloadKind kAllKinds[] = {
    WorkloadKind::kUniform,     WorkloadKind::kTemporal025,
    WorkloadKind::kTemporal05,  WorkloadKind::kTemporal075,
    WorkloadKind::kTemporal09,  WorkloadKind::kHpc,
    WorkloadKind::kProjector,   WorkloadKind::kFacebook,
    WorkloadKind::kPhaseElephants, WorkloadKind::kRotatingHot,
};

TEST(StreamWorkload, EveryFamilyMatchesTheMaterializedGeneratorBitForBit) {
  for (WorkloadKind kind : kAllKinds) {
    const Trace batch = gen_workload(kind, 64, 2000, 42);
    StreamingWorkload stream(kind, 64, 2000, 42);
    EXPECT_EQ(stream.n(), static_cast<std::size_t>(batch.n));
    EXPECT_EQ(stream.size(), batch.size());
    const Trace pulled = materialize_stream(stream);
    EXPECT_EQ(pulled.requests, batch.requests) << workload_name(kind);
    // Drained: further fills return nothing.
    Request r;
    EXPECT_EQ(stream.fill({&r, 1}), 0u) << workload_name(kind);
  }
}

TEST(StreamWorkload, ShortFillsDoNotChangeTheSequence) {
  // Pulling in awkward chunk sizes (1, 3, 7, ...) must yield the same
  // request sequence as one big pull: fill() boundaries carry no state.
  const Trace batch = gen_workload(WorkloadKind::kPhaseElephants, 32, 500, 9);
  StreamingWorkload stream(WorkloadKind::kPhaseElephants, 32, 500, 9);
  std::vector<Request> pulled;
  std::vector<Request> buf(7);
  std::size_t step = 1;
  while (true) {
    const std::size_t want = 1 + (step++ % buf.size());
    const std::size_t got = stream.fill({buf.data(), want});
    if (got == 0) break;
    pulled.insert(pulled.end(), buf.begin(),
                  buf.begin() + static_cast<std::ptrdiff_t>(got));
  }
  EXPECT_EQ(pulled, batch.requests);
}

TEST(StreamWorkload, DefaultNodeCountMatchesThePaperDefault) {
  StreamingWorkload stream(WorkloadKind::kHpc, 0, 10, 1);
  EXPECT_EQ(stream.n(),
            static_cast<std::size_t>(paper_node_count(WorkloadKind::kHpc)));
}

TEST(StreamTraceV2, RoundTripsThroughMemory) {
  const Trace t = gen_workload(WorkloadKind::kFacebook, 100, 1500, 5);
  std::stringstream buf;
  write_trace_v2(buf, t);
  EXPECT_EQ(buf.str().size(), kTraceV2HeaderBytes +
                                  t.size() * kTraceV2RecordBytes +
                                  kTraceV2FooterBytes);
  TraceV2Reader reader(buf);
  EXPECT_EQ(reader.n(), static_cast<std::size_t>(t.n));
  EXPECT_EQ(reader.size(), t.size());
  const Trace back = materialize_stream(reader);
  EXPECT_EQ(back.n, t.n);
  EXPECT_EQ(back.requests, t.requests);
}

TEST(StreamTraceV2, FileBackendsAgreeWithEachOtherAndTheSource) {
  const Trace t = gen_workload(WorkloadKind::kRotatingHot, 80, 3000, 8);
  const std::string path = ::testing::TempDir() + "/roundtrip.v2";
  write_trace_v2_file(path, t);

  TraceV2Reader reader(path);
  const Trace back = materialize_stream(reader);
  EXPECT_EQ(back.n, t.n);
  EXPECT_EQ(back.requests, t.requests);
  EXPECT_EQ(read_trace_v2_file(path).requests, t.requests);
}

TEST(StreamTraceV2, V1TextAndV2BinaryCarryTheSameTrace) {
  // The conversion satellite: v1 text -> Trace -> v2 binary -> Trace must
  // be lossless, and the incremental writer must agree with the batch one.
  const Trace t = gen_workload(WorkloadKind::kTemporal075, 50, 800, 3);
  std::stringstream v1;
  write_trace(v1, t);
  const Trace from_v1 = read_trace(v1);

  std::stringstream v2a, v2b;
  write_trace_v2(v2a, from_v1);
  TraceV2Writer w(v2b, from_v1.n, from_v1.size());
  for (const Request& r : from_v1.requests) w.append(r);
  w.finish();
  EXPECT_EQ(v2a.str(), v2b.str());

  TraceV2Reader reader(v2a);
  EXPECT_EQ(materialize_stream(reader).requests, t.requests);
}

TEST(StreamTraceV2, WriterRejectsBadRecordsAndCounts) {
  std::stringstream out;
  TraceV2Writer w(out, 10, 2);
  w.append({1, 2});
  EXPECT_THROW(w.append({0, 2}), TreeError);   // id out of range
  EXPECT_THROW(w.append({1, 11}), TreeError);  // id out of range
  EXPECT_THROW(w.append({3, 3}), TreeError);   // self-loop
  EXPECT_THROW(w.finish(), TreeError);         // only 1 of 2 written
  w.append({4, 5});
  EXPECT_NO_THROW(w.finish());
  EXPECT_THROW(w.append({1, 2}), TreeError);  // past m
}

TEST(StreamTraceV2, CorruptHeadersAndBodiesAreRejected) {
  const Trace t = gen_workload(WorkloadKind::kUniform, 20, 50, 2);
  std::stringstream buf;
  write_trace_v2(buf, t);
  const std::string good = buf.str();

  auto reject_bytes = [](std::string bytes, const char* what) {
    std::stringstream in(std::move(bytes));
    try {
      TraceV2Reader reader(in);
      materialize_stream(reader);
      FAIL() << "expected TreeError: " << what;
    } catch (const TreeError&) {
    }
  };

  // Header bytes flipped one at a time: every flip lands in a validation —
  // bad magic / n out of range / unknown flag bits / m vs body mismatch /
  // record checks — or, since the CRC32 footer covers the header, in the
  // end-of-stream checksum verification. No silent garbage, including the
  // n bytes a borrowed istream used to have no oracle for.
  for (std::size_t i = 0; i < kTraceV2HeaderBytes; ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x80);
    reject_bytes(bad, "header byte flip");
  }
  // Truncations: mid-header, into the footer, and footer gone entirely.
  reject_bytes(good.substr(0, kTraceV2HeaderBytes - 1), "header truncated");
  reject_bytes(good.substr(0, good.size() - 3), "footer truncated");
  reject_bytes(good.substr(0, good.size() - kTraceV2FooterBytes),
               "footer missing");
  reject_bytes(
      good.substr(0, good.size() - kTraceV2FooterBytes - kTraceV2RecordBytes),
      "one record short");
  // Trailing bytes are only detectable with a size oracle: the file-backed
  // readers reject them (see FileBackendsRejectCorruptFiles); a borrowed
  // istream stops after the promised m records and the footer.
  // Record-level corruption: a self-loop smuggled into the body.
  {
    std::string bad = good;
    const std::size_t rec = kTraceV2HeaderBytes;
    for (std::size_t i = 0; i < 8; ++i) bad[rec + i] = (i == 0 || i == 4);
    reject_bytes(bad, "self-loop record");
  }
  // A record bit flip that keeps both ids in range is invisible to the
  // per-record validation; the checksum footer is what rejects it.
  {
    std::string bad = good;
    bad[kTraceV2HeaderBytes] = static_cast<char>(bad[kTraceV2HeaderBytes] ^ 2);
    reject_bytes(bad, "in-range record bit flip");
  }
  // Footer corruption: flipped magic and flipped CRC are both rejected.
  for (const std::size_t off : {good.size() - 8, good.size() - 1}) {
    std::string bad = good;
    bad[off] = static_cast<char>(bad[off] ^ 0x10);
    reject_bytes(bad, "footer byte flip");
  }
}

TEST(StreamTraceV2, LegacyFlagFreeFilesStillReplay) {
  // Files written before the checksum footer (flags == 0, no trailer)
  // must keep replaying: strip the footer and clear the flag bit.
  const Trace t = gen_workload(WorkloadKind::kUniform, 20, 50, 2);
  std::stringstream buf;
  write_trace_v2(buf, t);
  std::string legacy = buf.str().substr(0, buf.str().size() -
                                               kTraceV2FooterBytes);
  legacy[12] = 0;  // flags byte: drop kTraceV2FlagChecksum
  {
    std::stringstream in(legacy);
    TraceV2Reader reader(in);
    EXPECT_EQ(materialize_stream(reader).requests, t.requests);
  }
  // Without a checksum, enlarging n keeps every record in range, which a
  // borrowed istream (no size oracle) accepts by design — the documented
  // integrity gap the footer exists to close.
  {
    std::string enlarged = legacy;
    enlarged[8] = static_cast<char>(enlarged[8] ^ 0x80);  // n = 20 -> 148
    std::stringstream in(enlarged);
    TraceV2Reader reader(in);
    EXPECT_EQ(reader.n(), 148);
    EXPECT_EQ(materialize_stream(reader).requests, t.requests);
  }
  // The file reader still applies its size oracle to legacy files.
  const std::string path = ::testing::TempDir() + "/legacy.v2";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(legacy.data(), static_cast<std::streamsize>(legacy.size()));
  }
  TraceV2Reader reader(path);
  EXPECT_EQ(materialize_stream(reader).requests, t.requests);
}

TEST(StreamTraceV2, FileBackendsRejectCorruptFiles) {
  const Trace t = gen_workload(WorkloadKind::kUniform, 20, 50, 2);
  std::stringstream buf;
  write_trace_v2(buf, t);
  const std::string good = buf.str();
  const std::string path = ::testing::TempDir() + "/corrupt.v2";

  auto write_file = [&](const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  write_file(good.substr(0, good.size() - 3));
  EXPECT_THROW(TraceV2Reader{path}, TreeError);
  write_file(good + "zzz");
  EXPECT_THROW(TraceV2Reader{path}, TreeError);
  write_file(good.substr(0, 4));
  EXPECT_THROW(TraceV2Reader{path}, TreeError);
  EXPECT_THROW(TraceV2Reader{path + ".missing"}, TreeError);
}

TEST(StreamReplay, ChunkedUnshardedReplayMatchesMaterialized) {
  // m > kStreamChunkRequests so the loop takes multiple chunks.
  const Trace t =
      gen_workload(WorkloadKind::kTemporal05, 128, 3 * 8192 + 77, 6);
  KArySplayNet a = KArySplayNet::balanced(3, t.n);
  KArySplayNet b = KArySplayNet::balanced(3, t.n);
  const SimResult batch = run_trace(a, t);
  StreamingWorkload stream(WorkloadKind::kTemporal05, 128, 3 * 8192 + 77, 6);
  const SimResult streamed = run_trace_stream(b, stream);
  EXPECT_EQ(streamed.routing_cost, batch.routing_cost);
  EXPECT_EQ(streamed.rotation_count, batch.rotation_count);
  EXPECT_EQ(streamed.edge_changes, batch.edge_changes);
  EXPECT_EQ(streamed.requests, batch.requests);
}

TEST(StreamReplay, ShardedStaticPipelineMatchesMaterialized) {
  const Trace t = gen_workload(WorkloadKind::kFacebook, 256, 20000, 4);
  ShardedNetwork a = ShardedNetwork::balanced(3, t.n, 4);
  ShardedNetwork b = ShardedNetwork::balanced(3, t.n, 4);
  const SimResult batch = run_trace_sharded(a, t, {.threads = 1});
  StreamingWorkload stream(WorkloadKind::kFacebook, 256, 20000, 4);
  const SimResult streamed =
      run_trace_sharded_stream(b, stream, {.threads = 1});
  EXPECT_EQ(streamed.routing_cost, batch.routing_cost);
  EXPECT_EQ(streamed.rotation_count, batch.rotation_count);
  EXPECT_EQ(streamed.cross_shard, batch.cross_shard);
  EXPECT_DOUBLE_EQ(streamed.post_intra_fraction, batch.post_intra_fraction);
}

TEST(StreamReplay, ShardedAdaptivePipelineMatchesMaterialized) {
  // Epoch barriers must land on identical request indices whether the
  // trace arrives whole or pulled chunk by chunk; every planned batch and
  // migration follows.
  const Trace t = gen_workload(WorkloadKind::kPhaseElephants, 200, 25000, 12);
  ShardedNetwork a = ShardedNetwork::balanced(3, t.n, 4);
  ShardedNetwork b = ShardedNetwork::balanced(3, t.n, 4);
  RebalanceConfig cfg;
  cfg.policy = RebalancePolicy::kHotPair;
  cfg.epoch_requests = 2500;
  const SimResult batch =
      run_trace_sharded(a, t, {.threads = 1, .rebalance = &cfg});
  StreamingWorkload stream(WorkloadKind::kPhaseElephants, 200, 25000, 12);
  const SimResult streamed = run_trace_sharded_stream(
      b, stream, {.threads = 1, .rebalance = &cfg});
  EXPECT_EQ(streamed.routing_cost, batch.routing_cost);
  EXPECT_EQ(streamed.rotation_count, batch.rotation_count);
  EXPECT_EQ(streamed.migrations, batch.migrations);
  EXPECT_EQ(streamed.migration_cost, batch.migration_cost);
  EXPECT_EQ(streamed.rebalance_epochs, batch.rebalance_epochs);
  EXPECT_EQ(streamed.grand_total_cost(), batch.grand_total_cost());
}

TEST(StreamArrivals, ScheduleIsPrefixStableAndMatchesTheMaterializer) {
  for (const ArrivalKind kind :
       {ArrivalKind::kSaturation, ArrivalKind::kPoisson,
        ArrivalKind::kBursty}) {
    const auto batch = gen_arrival_times(kind, 5e5, 4000, 77);
    StreamingArrivalSchedule schedule(kind, 5e5, 77);
    for (std::size_t i = 0; i < batch.size(); ++i)
      ASSERT_EQ(schedule.next(), batch[i])
          << arrival_kind_name(kind) << " @" << i;
    // Prefix stability: a shorter materialization is a prefix of a longer
    // one, so stream consumers can size m after the fact.
    const auto shorter = gen_arrival_times(kind, 5e5, 1000, 77);
    for (std::size_t i = 0; i < shorter.size(); ++i)
      ASSERT_EQ(shorter[i], batch[i]);
  }
  EXPECT_THROW(StreamingArrivalSchedule(ArrivalKind::kPoisson, 0.0, 1),
               TreeError);
}

TEST(StreamFrontend, RunStreamMatchesRunAtSingleShardSaturation) {
  // The S = 1 saturation lock from test_frontend.cpp, through the stream
  // entry point: FIFO admission preserves order, so costs bit-match the
  // closed-loop replay whichever entry point fed the engine.
  const Trace t = gen_workload(WorkloadKind::kProjector, 60, 5000, 15);
  ShardedNetwork a = ShardedNetwork::balanced(3, t.n, 1);
  ShardedNetwork b = ShardedNetwork::balanced(3, t.n, 1);
  const std::vector<std::uint64_t> arrivals(t.size(), 0);

  ServeFrontend fa(a);
  const FrontendResult batch = fa.run(t, arrivals);

  TraceStream stream(t);
  StreamingArrivalSchedule schedule(ArrivalKind::kSaturation, 0.0, 1);
  ServeFrontend fb(b);
  const FrontendResult streamed = fb.run_stream(stream, schedule);

  EXPECT_EQ(streamed.sim.routing_cost, batch.sim.routing_cost);
  EXPECT_EQ(streamed.sim.rotation_count, batch.sim.rotation_count);
  EXPECT_EQ(streamed.sim.requests, batch.sim.requests);
  EXPECT_EQ(streamed.sim.cross_shard, batch.sim.cross_shard);
  EXPECT_EQ(streamed.sojourn.count(), t.size());
}

}  // namespace
}  // namespace san
