// Trace / tree serialization round-trips and failure injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <sstream>
#include <vector>

#include "core/rotation.hpp"
#include "core/shape.hpp"
#include "core/splaynet.hpp"
#include "io/checksum.hpp"
#include "io/trace_io.hpp"
#include "io/tree_io.hpp"
#include "workload/generators.hpp"

namespace san {
namespace {

TEST(TraceIo, RoundTrip) {
  Trace t = gen_projector(40, 500, 7);
  std::stringstream buf;
  write_trace(buf, t);
  Trace back = read_trace(buf);
  EXPECT_EQ(back.n, t.n);
  EXPECT_EQ(back.requests, t.requests);
}

TEST(TraceIo, CommentsAndBlankLinesAreSkipped) {
  std::stringstream buf(
      "san-trace v1 5 2\n# a comment\n\n1 2\n# another\n3 4\n");
  Trace t = read_trace(buf);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.requests[0], (Request{1, 2}));
  EXPECT_EQ(t.requests[1], (Request{3, 4}));
}

TEST(TraceIo, RejectsMalformedInput) {
  auto reject = [](const std::string& text) {
    std::stringstream buf(text);
    EXPECT_THROW(read_trace(buf), TreeError) << text;
  };
  reject("bogus v1 5 1\n1 2\n");
  reject("san-trace v2 5 1\n1 2\n");
  reject("san-trace v1 5 2\n1 2\n");          // truncated
  reject("san-trace v1 5 1\n0 2\n");          // id out of range
  reject("san-trace v1 5 1\n1 6\n");          // id out of range
  reject("san-trace v1 5 1\n3 3\n");          // self-loop
  reject("san-trace v1 1 0\n");               // degenerate n
  reject("san-trace v1 5 1\nfoo bar\n");      // garbage
  reject("san-trace v1 5 1\n1 2 junk\n");     // trailing garbage
  reject("san-trace v1 5 1\n1 2 3\n");        // extra numeric field
}

TEST(TraceIo, RejectsHostileHeaderCounts) {
  auto reject = [](const std::string& text) {
    std::stringstream buf(text);
    EXPECT_THROW(read_trace(buf), TreeError) << text;
  };
  // Negative counts must not wrap into huge unsigned values.
  reject("san-trace v1 -4 1\n1 2\n");
  reject("san-trace v1 5 -1\n1 2\n");
  // n beyond the NodeId range would overflow every downstream id array.
  reject("san-trace v1 4294967296 1\n1 2\n");
  // A header claiming far more requests than the body holds must fail on
  // the truncation check, not OOM on reserve().
  reject("san-trace v1 5 123456789012\n1 2\n");
}

TEST(TraceIo, HugeReserveHintDoesNotPreallocate) {
  // The reserve cap: parsing starts (and fails on truncation) without
  // first attempting an m-sized allocation.
  std::stringstream buf("san-trace v1 5 99999999999999\n1 2\n3 4\n");
  try {
    read_trace(buf);
    FAIL() << "expected TreeError";
  } catch (const TreeError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(TraceIo, FileRoundTrip) {
  Trace t = gen_uniform(16, 100, 1);
  const std::string path = ::testing::TempDir() + "/trace_roundtrip.txt";
  write_trace_file(path, t);
  Trace back = read_trace_file(path);
  EXPECT_EQ(back.requests, t.requests);
  EXPECT_THROW(read_trace_file(path + ".does-not-exist"), TreeError);
}

TEST(TreeIo, RoundTripPreservesTopology) {
  for (int k : {2, 3, 7}) {
    KAryTree t = build_from_shape(k, make_complete_shape(60, k));
    // scramble it a little so the file is not the pristine shape
    std::mt19937_64 rng(k);
    for (int i = 0; i < 50; ++i) {
      NodeId x = 1 + static_cast<NodeId>(rng() % 60);
      if (t.node(x).parent != kNoNode) k_semi_splay(t, x);
    }
    std::stringstream buf;
    write_tree(buf, t);
    KAryTree back = read_tree(buf);
    ASSERT_TRUE(back.valid());
    EXPECT_EQ(back.arity(), t.arity());
    EXPECT_EQ(back.size(), t.size());
    EXPECT_EQ(back.root(), t.root());
    for (NodeId id = 1; id <= 60; ++id) {
      EXPECT_EQ(back.node(id).parent, t.node(id).parent);
      EXPECT_TRUE(std::ranges::equal(back.node(id).keys, t.node(id).keys));
      EXPECT_TRUE(
          std::ranges::equal(back.node(id).children, t.node(id).children));
    }
  }
}

TEST(TreeIo, LoadedTreeIsValidated) {
  // A file describing a broken topology (node 2 unreachable) must be
  // rejected even though every record parses.
  std::stringstream buf(
      "san-tree v1 2 2 1\n"
      "1 min max 1 2097152 0 0\n"   // node 1, key id_key(1), no children
      "2 min max 1 4194304 0 0\n");  // node 2 detached
  EXPECT_THROW(read_tree(buf), TreeError);
}

TEST(TreeIo, RejectsBadHeader) {
  std::stringstream buf("san-tree v9 2 2 1\n");
  EXPECT_THROW(read_tree(buf), TreeError);
}

TEST(TreeIo, RejectsHostileHeaderClaims) {
  // Every header field is bounded before any allocation happens on its
  // word: read_tree parses san-tree text from any stream, so corrupt or
  // hostile input must fail with a TreeError, never an OOM or a bad_alloc from a
  // forged size. (Snapshot restores read tree images instead; the image
  // test below forges those.)
  const char* hostile[] = {
      "san-tree v1 1 4 1\n",                    // arity below 2
      "san-tree v1 -3 4 1\n",                   // negative arity
      "san-tree v1 99999999 4 1\n",             // arity bomb
      "san-tree v1 2 -1 1\n",                   // negative node count
      "san-tree v1 2 999999999999 1\n",         // node-count bomb
      "san-tree v1 2 4 0\n",                    // root below range
      "san-tree v1 2 4 5\n",                    // root above range
      "san-tree v1 2 0 1\n",                    // empty tree must have no root
  };
  for (const char* bytes : hostile) {
    std::stringstream buf(bytes);
    EXPECT_THROW(read_tree(buf), TreeError) << "accepted: " << bytes;
  }
}

TEST(TreeIo, RejectsForgedNodeRecords) {
  // Node id out of range.
  {
    std::stringstream buf("san-tree v1 2 1 1\n9 min max 0 0 0\n");
    EXPECT_THROW(read_tree(buf), TreeError);
  }
  // Duplicate node id: the second record for node 1 must be rejected
  // instead of silently overwriting the first.
  {
    std::stringstream buf(
        "san-tree v1 2 2 1\n"
        "1 min max 1 2097152 2 0\n"
        "1 min max 0 0 0\n");
    EXPECT_THROW(read_tree(buf), TreeError);
  }
  // Forged key count: a node may route over at most arity-1 keys, and the
  // claim is checked before the key vector is allocated.
  {
    std::stringstream buf("san-tree v1 2 1 1\n1 min max 777777777 0 0\n");
    EXPECT_THROW(read_tree(buf), TreeError);
  }
  // Malformed routing key bytes surface as TreeError, not std::stoll's
  // invalid_argument.
  {
    std::stringstream buf("san-tree v1 2 1 1\n1 min max 0 0\n");
    std::stringstream bad("san-tree v1 2 1 1\n1 min garbage 0 0\n");
    EXPECT_NO_THROW(read_tree(buf));
    EXPECT_THROW(read_tree(bad), TreeError);
  }
  // Child id out of range.
  {
    std::stringstream buf("san-tree v1 2 1 1\n1 min max 0 7\n");
    EXPECT_THROW(read_tree(buf), TreeError);
  }
  // Truncated mid-record.
  {
    std::stringstream buf("san-tree v1 2 2 1\n1 min max 1 2097152\n");
    EXPECT_THROW(read_tree(buf), TreeError);
  }
}

// ---- tree image ---------------------------------------------------------

std::string text_of(const KAryTree& t) {
  std::ostringstream out;
  write_tree(out, t);
  return out.str();
}

// Field offsets of the image layout documented in io/tree_io.hpp.
constexpr std::size_t kHeader = 16;
std::size_t record_bytes(int k) { return 4 + 8 * (k - 1) + 4 * k; }
std::size_t child_at(int k, NodeId id, int slot) {
  return kHeader + (id - 1) * record_bytes(k) + 4 + 8 * (k - 1) + 4 * slot;
}

void put_i32(std::string& img, std::size_t at, std::int32_t v) {
  std::memcpy(img.data() + at, &v, sizeof v);
}

/// Recomputes the trailer, so only the forged field can be at fault.
std::string resealed(std::string img) {
  const std::uint32_t crc = crc32(img.data(), img.size() - 4);
  std::memcpy(img.data() + img.size() - 4, &crc, sizeof crc);
  return img;
}

KArySplayNet splayed(int k, int n, std::uint64_t seed) {
  KArySplayNet net = KArySplayNet::balanced(k, n);
  std::mt19937_64 rng(seed);
  for (int i = 0; i < 400; ++i) {
    const NodeId u = 1 + static_cast<NodeId>(rng() % n);
    const NodeId v = 1 + static_cast<NodeId>(rng() % n);
    if (u != v) net.serve(u, v);
  }
  return net;
}

TEST(TreeIo, ImageRoundTripsSplayedTreesAndRejectsForgeries) {
  const int n = 40;
  for (int k : {2, 3, 5}) {
    const KArySplayNet net = splayed(k, n, 17 + static_cast<unsigned>(k));
    const KAryTree& t = net.tree();
    const std::string img = write_tree_image(t);
    ASSERT_EQ(img.size(), kHeader + n * record_bytes(k) + 4) << "k=" << k;
    const KAryTree back = read_tree_image(img);
    EXPECT_EQ(text_of(back), text_of(t)) << "k=" << k;
    EXPECT_EQ(write_tree_image(back), img) << "k=" << k;

    // Each forgery carries a valid CRC, so the decoder's own checks must
    // catch it. `adopted` is a child of a node below the root; `leaf` is
    // another node with no children, which the forgery makes its second
    // parent.
    const NodeId root = t.root();
    auto first_child = [&](NodeId id) {
      for (NodeId c : t.children(id))
        if (c != kNoNode) return c;
      return kNoNode;
    };
    NodeId adopted = kNoNode, leaf = kNoNode;
    for (NodeId id = 1; id <= n && adopted == kNoNode; ++id)
      if (id != root) adopted = first_child(id);
    for (NodeId id = 1; id <= n && leaf == kNoNode; ++id)
      if (id != root && id != adopted && first_child(id) == kNoNode) leaf = id;
    ASSERT_NE(adopted, kNoNode);
    ASSERT_NE(leaf, kNoNode);
    const std::size_t root_rec = kHeader + (root - 1) * record_bytes(k);
    std::vector<std::pair<std::string, std::string>> forged;
    auto forge = [&](const std::string& what, auto&& edit) {
      std::string bad = img;
      edit(bad);
      forged.emplace_back(what, resealed(std::move(bad)));
    };
    forge("child id above n", [&](std::string& b) {
      put_i32(b, child_at(k, root, 0), n + 1);
    });
    forge("negative child id", [&](std::string& b) {
      put_i32(b, child_at(k, root, 0), -5);
    });
    forge("key count above k-1", [&](std::string& b) {
      put_i32(b, root_rec, k);
    });
    forge("key count bomb", [&](std::string& b) {
      put_i32(b, root_rec, 0x7fffffff);
    });
    forge("negative key count", [&](std::string& b) {
      put_i32(b, root_rec, -1);
    });
    forge("root 0", [&](std::string& b) { put_i32(b, 12, 0); });
    forge("root above n", [&](std::string& b) { put_i32(b, 12, n + 1); });
    forge("node under two parents", [&](std::string& b) {
      put_i32(b, child_at(k, leaf, 0), adopted);
    });
    forge("header n one short", [&](std::string& b) { put_i32(b, 8, n - 1); });
    forge("header n one over", [&](std::string& b) { put_i32(b, 8, n + 1); });
    forge("header n past the cap", [&](std::string& b) {
      put_i32(b, 8, (1 << 24) + 1);
    });
    forge("header arity 1", [&](std::string& b) { put_i32(b, 4, 1); });
    forge("header arity of another layout", [&](std::string& b) {
      put_i32(b, 4, k + 1);
    });
    forge("format tag", [&](std::string& b) { b[0] = 'X'; });
    for (const auto& [what, bad] : forged)
      EXPECT_THROW(read_tree_image(bad), TreeError) << "k=" << k << ": " << what;
  }
  // Too short to hold a header and a trailer.
  EXPECT_THROW(read_tree_image(""), TreeError);
  EXPECT_THROW(read_tree_image(std::string(19, '\0')), TreeError);
}

// ---- checksum -----------------------------------------------------------

/// Bit-at-a-time CRC32 over the reflected IEEE polynomial: the definition
/// the table-driven implementation must agree with.
std::uint32_t crc32_bitwise(const unsigned char* p, std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int bit = 0; bit < 8; ++bit)
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Checksum, Crc32MatchesBitwiseReference) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string_view{}), 0u);

  std::mt19937_64 rng(20261017);
  std::vector<unsigned char> buf(4096);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng());
  // Every tail length of the 8-byte loop at every start alignment.
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t len = 0; len <= 64; ++len)
      ASSERT_EQ(crc32(buf.data() + offset, len),
                crc32_bitwise(buf.data() + offset, len))
          << "offset " << offset << " length " << len;

  // Incremental updates in random chunk sizes fold to the one-shot value.
  const std::uint32_t whole = crc32(buf.data(), buf.size());
  EXPECT_EQ(whole, crc32_bitwise(buf.data(), buf.size()));
  for (int round = 0; round < 20; ++round) {
    Crc32 c;
    std::size_t at = 0;
    while (at < buf.size()) {
      const std::size_t len = std::min<std::size_t>(rng() % 40, buf.size() - at);
      c.update(buf.data() + at, len);
      at += len;
    }
    EXPECT_EQ(c.value(), whole) << "round " << round;
  }
}

TEST(TreeIo, DotExportMentionsEveryNodeAndEdge) {
  KAryTree t = build_from_shape(3, make_complete_shape(13, 3));
  const std::string dot = to_dot(t, "g");
  EXPECT_NE(dot.find("digraph g {"), std::string::npos);
  int edges = 0;
  for (NodeId id = 1; id <= 13; ++id) {
    std::string label = "n";
    label += std::to_string(id);
    label += " [";
    EXPECT_NE(dot.find(label), std::string::npos);
    for (NodeId c : t.node(id).children)
      if (c != kNoNode) ++edges;
  }
  EXPECT_EQ(edges, 12);  // n-1 tree edges
  size_t arrow_count = 0;
  for (size_t pos = dot.find("->"); pos != std::string::npos;
       pos = dot.find("->", pos + 1))
    ++arrow_count;
  EXPECT_EQ(arrow_count, 12u);
}

}  // namespace
}  // namespace san
