// Binary trace format v2: fixed-width little-endian records behind a
// self-describing header, replayable in O(chunk) memory.
//
// The v1 text format (io/trace_io.hpp) is human-editable but costs ~12
// bytes of ASCII plus a parse per request and can only be materialized.
// v2 is the streaming companion:
//
//   offset  size  field
//   0       8     magic "santrcv2"
//   8       4     u32 LE  n        (node count, ids 1..n)
//   12      4     u32 LE  flags    (bit 0 = checksum footer present;
//                                   readers reject any other bit)
//   16      8     u64 LE  m        (record count)
//   24      8*m   records: u32 LE src, u32 LE dst
//   [end]   8     footer (flag bit 0): magic "scrc" + u32 LE CRC32 over
//                 every preceding byte (header + records)
//
// All integers are little-endian regardless of host byte order (encoded
// and decoded byte-wise, no type punning). TraceV2Reader implements
// workload/streaming.hpp's RequestStream, so a file replays through
// run_trace_stream / run_trace_sharded_stream / ServeFrontend without ever
// holding more than one chunk of requests. A file path is memory-mapped,
// which avoids read syscalls and lets the page cache back the replay
// directly; a borrowed std::istream is read in buffered chunks.
// Readers validate the header hard (magic, version bits, node range,
// record-count-vs-file-size coherence where the size is knowable) and
// every record (ids in [1, n], no self-loops): a corrupt or hostile file
// throws TreeError, it never yields garbage requests.
//
// Integrity: writers always emit the CRC32 footer (flag bit 0 set).
// Readers still accept flag-free legacy files; when the flag is set the
// CRC is folded incrementally as chunks stream through fill() and
// verified once the last record has been consumed, so a bit flip anywhere
// in the artifact — including the header fields the size checks trust —
// raises TreeError no later than end of replay, with zero extra passes
// over the data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "io/checksum.hpp"
#include "workload/streaming.hpp"

namespace san {

inline constexpr char kTraceV2Magic[8] = {'s', 'a', 'n', 't',
                                          'r', 'c', 'v', '2'};
inline constexpr std::size_t kTraceV2HeaderBytes = 24;
inline constexpr std::size_t kTraceV2RecordBytes = 8;
/// Header flag bit 0: the file ends in a kTraceV2FooterBytes integrity
/// footer ("scrc" + u32 LE CRC32 of header + records).
inline constexpr std::uint32_t kTraceV2FlagChecksum = 0x1;
inline constexpr char kTraceV2FooterMagic[4] = {'s', 'c', 'r', 'c'};
inline constexpr std::size_t kTraceV2FooterBytes = 8;

/// Streams a Trace out in v2 format. Throws TreeError on stream failure.
void write_trace_v2(std::ostream& out, const Trace& trace);
void write_trace_v2_file(const std::string& path, const Trace& trace);

/// Incremental v2 writer for sources that never materialize: header first
/// (n and m must be known up front — the format is fixed-width, so m is
/// not discoverable later), then append() per request, then finish(),
/// which seals the file with the CRC32 integrity footer.
class TraceV2Writer {
 public:
  TraceV2Writer(std::ostream& out, int n, std::uint64_t m);

  /// Validates ids ([1, n], no self-loop) and writes one record.
  void append(const Request& r);
  /// Writes the checksum footer, flushes, and verifies exactly m records
  /// were appended.
  void finish();

 private:
  std::ostream* out_;
  int n_ = 0;
  std::uint64_t want_ = 0;
  std::uint64_t written_ = 0;
  bool finished_ = false;
  Crc32 crc_;
};

/// Chunked v2 reader; a RequestStream over the file.
class TraceV2Reader final : public RequestStream {
 public:
  /// Borrowed-stream reader (header parsed and validated immediately).
  /// The stream must outlive the reader.
  explicit TraceV2Reader(std::istream& in);
  /// File reader over a read-only mapping (POSIX); zero-copy decode.
  explicit TraceV2Reader(const std::string& path);

  TraceV2Reader(const TraceV2Reader&) = delete;
  TraceV2Reader& operator=(const TraceV2Reader&) = delete;
  ~TraceV2Reader() override;

  int n() const override { return n_; }
  std::size_t size() const override { return static_cast<std::size_t>(m_); }
  std::size_t fill(std::span<Request> out) override;

 private:
  void parse_header(const unsigned char* hdr);
  std::size_t fill_from_bytes(const unsigned char* bytes, std::size_t records,
                              std::span<Request> out);
  /// Checks the integrity footer once every record has been consumed
  /// (no-op for legacy flag-free files or before the stream's end).
  void maybe_verify_footer();

  int n_ = 0;
  std::uint64_t m_ = 0;
  std::uint64_t next_ = 0;  ///< records consumed
  bool has_footer_ = false;
  bool footer_checked_ = false;
  Crc32 crc_;  ///< folded over header + records as they stream through

  std::istream* in_ = nullptr;  ///< borrowed stream

  const unsigned char* map_ = nullptr;  ///< file mapping
  std::size_t map_len_ = 0;
};

/// Materializes a whole v2 file (testing / small-scale convenience).
Trace read_trace_v2_file(const std::string& path);

}  // namespace san
