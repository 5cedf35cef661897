#include "io/tree_io.hpp"

#include <cstdint>
#include <cstring>
#include <span>
#include <sstream>
#include <vector>

#include "io/checksum.hpp"

namespace san {
namespace {

std::string encode_key(RoutingKey k) {
  if (k == kKeyMin) return "min";
  if (k == kKeyMax) return "max";
  return std::to_string(k);
}

RoutingKey decode_key(const std::string& s) {
  if (s == "min") return kKeyMin;
  if (s == "max") return kKeyMax;
  try {
    return static_cast<RoutingKey>(std::stoll(s));
  } catch (const std::exception&) {
    // stoll throws std::invalid_argument / out_of_range; surface hostile
    // bytes as the library's own error type like every other load failure.
    throw TreeError("read_tree: malformed routing key '" + s + "'");
  }
}

// Hard caps on header-claimed sizes, in the spirit of trace_io's
// kMaxHeaderReserve: a hostile or truncated header must not be able to
// drive allocation before a single node record has been checked. 2^24
// nodes is an order of magnitude past the n = 10^6 scaling runs; arity is
// structural (tens, not thousands).
constexpr long long kMaxTreeNodes = 1 << 24;
constexpr long long kMaxTreeArity = 1 << 16;

// Tree image layout (tree_io.hpp). Field widths are fixed by the types the
// tree stores, so a record is a straight copy of its node's slots.
static_assert(sizeof(NodeId) == 4 && sizeof(RoutingKey) == 8);
constexpr char kImageTag[4] = {'s', 't', 'i', '1'};
constexpr std::size_t kImageHeaderBytes = 16;
constexpr std::size_t kImageTrailerBytes = 4;

/// A record is an int32 key count, k-1 int64 keys, then k int32 children.
std::size_t image_children_at(int k) {
  return 4 + 8 * static_cast<std::size_t>(k - 1);
}
std::size_t image_record_bytes(int k) {
  return image_children_at(k) + 4 * static_cast<std::size_t>(k);
}

std::int32_t load_i32(const char* p) {
  std::int32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store_i32(char* p, std::int32_t v) { std::memcpy(p, &v, sizeof v); }

}  // namespace

void write_tree(std::ostream& out, const KAryTree& tree) {
  out << "san-tree v1 " << tree.arity() << " " << tree.size() << " "
      << tree.root() << "\n";
  for (NodeId id = 1; id <= tree.size(); ++id) {
    const TreeNode& nd = tree.node(id);
    out << id << " " << encode_key(nd.lo) << " " << encode_key(nd.hi) << " "
        << nd.keys.size();
    for (RoutingKey k : nd.keys) out << " " << k;
    for (NodeId c : nd.children) out << " " << c;
    out << "\n";
  }
  if (!out) throw TreeError("write_tree: stream failure");
}

KAryTree read_tree(std::istream& in) {
  std::string magic, version;
  long long k = 0, n = 0, root_v = 0;
  if (!(in >> magic >> version >> k >> n >> root_v) || magic != "san-tree" ||
      version != "v1")
    throw TreeError("read_tree: bad header (expected 'san-tree v1 k n root')");
  // Bound everything the header claims *before* allocating on its word —
  // a corrupt or hostile header is an error message, not an OOM.
  if (k < 2 || k > kMaxTreeArity)
    throw TreeError("read_tree: arity " + std::to_string(k) +
                    " out of range [2, " + std::to_string(kMaxTreeArity) +
                    "]");
  if (n < 0 || n > kMaxTreeNodes)
    throw TreeError("read_tree: node count " + std::to_string(n) +
                    " out of range [0, " + std::to_string(kMaxTreeNodes) +
                    "]");
  if (n == 0 ? root_v != static_cast<long long>(kNoNode)
             : (root_v < 1 || root_v > n))
    throw TreeError("read_tree: root " + std::to_string(root_v) +
                    " out of range for n=" + std::to_string(n));
  const NodeId root = static_cast<NodeId>(root_v);
  KAryTree tree(k, n);
  std::vector<char> seen(static_cast<std::size_t>(n) + 1, 0);
  for (long long i = 0; i < n; ++i) {
    long long id = 0;
    std::string lo_s, hi_s;
    long long num_keys = 0;
    if (!(in >> id >> lo_s >> hi_s >> num_keys))
      throw TreeError("read_tree: truncated node record");
    if (id < 1 || id > n) throw TreeError("read_tree: node id out of range");
    if (seen[static_cast<std::size_t>(id)])
      throw TreeError("read_tree: duplicate node id " + std::to_string(id));
    seen[static_cast<std::size_t>(id)] = 1;
    // A node routes over at most k - 1 keys; checked before the
    // allocation so a forged count cannot reserve unbounded memory.
    if (num_keys < 0 || num_keys > k - 1)
      throw TreeError("read_tree: node " + std::to_string(id) + " claims " +
                      std::to_string(num_keys) + " keys (arity " +
                      std::to_string(k) + " allows at most " +
                      std::to_string(k - 1) + ")");
    std::vector<RoutingKey> keys(static_cast<std::size_t>(num_keys));
    for (RoutingKey& key : keys) {
      std::string s;
      if (!(in >> s)) throw TreeError("read_tree: truncated key list");
      key = decode_key(s);
    }
    std::vector<NodeId> children(static_cast<std::size_t>(num_keys) + 1);
    for (NodeId& c : children) {
      long v = 0;
      if (!(in >> v)) throw TreeError("read_tree: truncated child list");
      if (v < 0 || v > n) throw TreeError("read_tree: child id out of range");
      c = static_cast<NodeId>(v);
    }
    tree.install(static_cast<NodeId>(id), std::move(keys),
                 std::move(children), decode_key(lo_s), decode_key(hi_s));
  }
  tree.set_root(root);
  if (auto err = tree.validate())
    throw TreeError("read_tree: loaded topology invalid: " + *err);
  return tree;
}

std::string write_tree_image(const KAryTree& tree) {
  const int k = tree.arity();
  const std::size_t rec = image_record_bytes(k);
  const std::size_t body =
      kImageHeaderBytes + static_cast<std::size_t>(tree.size()) * rec;
  std::string image(body + kImageTrailerBytes, '\0');  // unused slots stay 0
  char* p = image.data();
  std::memcpy(p, kImageTag, sizeof kImageTag);
  store_i32(p + 4, k);
  store_i32(p + 8, tree.size());
  store_i32(p + 12, tree.root());
  char* r = p + kImageHeaderBytes;
  for (NodeId id = 1; id <= tree.size(); ++id, r += rec) {
    const std::span<const RoutingKey> keys = tree.keys(id);
    const std::span<const NodeId> children = tree.children(id);
    store_i32(r, static_cast<std::int32_t>(keys.size()));
    std::memcpy(r + 4, keys.data(), keys.size_bytes());
    std::memcpy(r + image_children_at(k), children.data(),
                children.size_bytes());
  }
  const std::uint32_t crc = crc32(p, body);
  std::memcpy(p + body, &crc, sizeof crc);
  return image;
}

KAryTree read_tree_image(std::string_view image) {
  if (image.size() < kImageHeaderBytes + kImageTrailerBytes)
    throw TreeError("read_tree_image: truncated image (" +
                    std::to_string(image.size()) + " bytes)");
  const std::size_t body = image.size() - kImageTrailerBytes;
  std::uint32_t want;
  std::memcpy(&want, image.data() + body, sizeof want);
  if (crc32(image.data(), body) != want)
    throw TreeError(
        "read_tree_image: checksum mismatch (torn or bit-flipped image)");
  const char* p = image.data();
  if (std::memcmp(p, kImageTag, sizeof kImageTag) != 0)
    throw TreeError("read_tree_image: not a tree image (bad tag)");
  const int k = load_i32(p + 4), n = load_i32(p + 8);
  const NodeId root = load_i32(p + 12);
  if (k < 2 || k > kMaxTreeArity)
    throw TreeError("read_tree_image: arity " + std::to_string(k) +
                    " out of range [2, " + std::to_string(kMaxTreeArity) +
                    "]");
  if (n < 1 || n > kMaxTreeNodes)
    throw TreeError("read_tree_image: node count " + std::to_string(n) +
                    " out of range [1, " + std::to_string(kMaxTreeNodes) +
                    "]");
  const std::size_t rec = image_record_bytes(k);
  if (body != kImageHeaderBytes + static_cast<std::size_t>(n) * rec)
    throw TreeError("read_tree_image: " + std::to_string(image.size()) +
                    " bytes do not hold " + std::to_string(n) +
                    " nodes of arity " + std::to_string(k));
  if (root < 1 || root > n)
    throw TreeError("read_tree_image: root " + std::to_string(root) +
                    " out of range for n=" + std::to_string(n));

  // Install from the root down: each record's children inherit the
  // [lo, hi) interval of their slot, and install() sets their parent links.
  struct Frame {
    NodeId id;
    RoutingKey lo, hi;
  };
  KAryTree tree(k, n);
  std::vector<RoutingKey> keys(static_cast<std::size_t>(k - 1));
  std::vector<NodeId> children(static_cast<std::size_t>(k));
  std::vector<char> reached(static_cast<std::size_t>(n) + 1, 0);
  std::vector<Frame> stack = {{root, kKeyMin, kKeyMax}};
  reached[static_cast<std::size_t>(root)] = 1;
  tree.set_root(root);
  const char* records = p + kImageHeaderBytes;
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const char* r = records + static_cast<std::size_t>(f.id - 1) * rec;
    const std::int32_t num_keys = load_i32(r);
    if (num_keys < 0 || num_keys > k - 1)
      throw TreeError("read_tree_image: node " + std::to_string(f.id) +
                      " claims " + std::to_string(num_keys) + " keys (arity " +
                      std::to_string(k) + " allows at most " +
                      std::to_string(k - 1) + ")");
    const std::size_t nk = static_cast<std::size_t>(num_keys);
    std::memcpy(keys.data(), r + 4, nk * sizeof(RoutingKey));
    std::memcpy(children.data(), r + image_children_at(k),
                (nk + 1) * sizeof(NodeId));
    for (std::size_t s = 0; s <= nk; ++s) {
      const NodeId c = children[s];
      if (c == kNoNode) continue;
      if (c < 0 || c > n)
        throw TreeError("read_tree_image: node " + std::to_string(f.id) +
                        " has child id " + std::to_string(c) +
                        " out of range");
      if (reached[static_cast<std::size_t>(c)])
        throw TreeError("read_tree_image: node " + std::to_string(c) +
                        " reached twice (not a tree)");
      reached[static_cast<std::size_t>(c)] = 1;
      stack.push_back({c, s == 0 ? f.lo : keys[s - 1],
                       s == nk ? f.hi : keys[s]});
    }
    tree.install(f.id, std::span<const RoutingKey>(keys.data(), nk),
                 std::span<const NodeId>(children.data(), nk + 1), f.lo,
                 f.hi);
  }
  if (auto err = tree.validate())
    throw TreeError("read_tree_image: image topology invalid: " + *err);
  return tree;
}

std::string to_dot(const KAryTree& tree, const std::string& graph_name) {
  std::ostringstream out;
  out << "digraph " << graph_name << " {\n";
  out << "  node [shape=record];\n";
  for (NodeId id = 1; id <= tree.size(); ++id) {
    const TreeNode& nd = tree.node(id);
    out << "  n" << id << " [label=\"" << id << " |";
    for (size_t i = 0; i < nd.keys.size(); ++i)
      out << (i ? " " : " ") << nd.keys[i];
    out << "\"];\n";
    for (size_t s = 0; s < nd.children.size(); ++s) {
      if (nd.children[s] == kNoNode) continue;
      out << "  n" << id << " -> n" << nd.children[s] << " [label=\"slot "
          << s << "\"];\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace san
