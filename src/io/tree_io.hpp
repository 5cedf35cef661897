// Topology (de)serialization and Graphviz export, in two formats.
//
// san-tree v1 text, the portable file format: header
// `san-tree v1 <k> <n> <root>`, then one line per node:
// `<id> <lo> <hi> <num_keys> <key...> <child...>` with children =
// num_keys + 1 slots (0 = empty). Ranges use the sentinel encoding
// "min"/"max" for kKeyMin/kKeyMax. Loaded trees are validated before being
// returned, so a stored file can be trusted as a topology checkpoint (e.g.
// to resume a long self-adjustment run).
//
// Tree image, the in-memory recovery format (a shard snapshot, see
// ShardedNetwork::snapshot_shard): fixed-width fields in native byte
// order, so it is not meant to leave the process that wrote it.
//   header   4-byte tag "sti1", int32 arity k, int32 size n, int32 root
//   records  n of them, node 1 first: int32 key count, k-1 int64 key
//            slots, k int32 child slots (0 = empty); slots past the key
//            count are zero, so equal trees give equal bytes
//   trailer  uint32 CRC32 (io/checksum.hpp) over every preceding byte
// Parent links, slots and [lo, hi) ranges are not stored: the reader
// derives them by installing nodes from the root down.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "core/karytree.hpp"

namespace san {

void write_tree(std::ostream& out, const KAryTree& tree);

/// Parses and validates a san-tree v1 stream; throws TreeError on
/// malformed input or an invalid topology.
KAryTree read_tree(std::istream& in);

/// Tree image of `tree` (layout above).
std::string write_tree_image(const KAryTree& tree);

/// Decodes a tree image; throws TreeError on any defect. Before it
/// allocates, it checks the length, the CRC, the tag and the same arity
/// and size caps as read_tree, and that the length is exactly what the
/// header's k and n imply. Every key count and child id is range-checked
/// before it is used as an index, a node reached twice is rejected, and
/// the result passes validate().
KAryTree read_tree_image(std::string_view image);

/// Graphviz dot rendering: nodes labelled "id [keys]", edges parent->child
/// annotated with the child's interval. Empty slots are omitted.
std::string to_dot(const KAryTree& tree, const std::string& graph_name = "san");

}  // namespace san
