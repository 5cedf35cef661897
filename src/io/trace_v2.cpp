#include "io/trace_v2.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "core/types.hpp"

namespace san {
namespace {

void store_u32le(unsigned char* p, std::uint32_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
  p[2] = static_cast<unsigned char>(v >> 16);
  p[3] = static_cast<unsigned char>(v >> 24);
}

void store_u64le(unsigned char* p, std::uint64_t v) {
  store_u32le(p, static_cast<std::uint32_t>(v));
  store_u32le(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t load_u32le(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t load_u64le(const unsigned char* p) {
  return static_cast<std::uint64_t>(load_u32le(p)) |
         (static_cast<std::uint64_t>(load_u32le(p + 4)) << 32);
}

void encode_header(unsigned char* hdr, int n, std::uint64_t m) {
  std::memcpy(hdr, kTraceV2Magic, sizeof(kTraceV2Magic));
  store_u32le(hdr + 8, static_cast<std::uint32_t>(n));
  store_u32le(hdr + 12, kTraceV2FlagChecksum);
  store_u64le(hdr + 16, m);
}

void check_node_count(long long n) {
  if (n < 2) throw TreeError("trace v2: node count must be >= 2");
  if (n > std::numeric_limits<NodeId>::max())
    throw TreeError("trace v2: node count " + std::to_string(n) +
                    " exceeds the NodeId range");
}

/// Records per buffered read in the istream backend: 64 KiB chunks keep
/// the reader's footprint O(1) in m while amortizing stream overhead.
constexpr std::size_t kReadChunkRecords = 8192;

}  // namespace

void write_trace_v2(std::ostream& out, const Trace& trace) {
  TraceV2Writer writer(out, trace.n, trace.size());
  for (const Request& r : trace.requests) writer.append(r);
  writer.finish();
}

void write_trace_v2_file(const std::string& path, const Trace& trace) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw TreeError("write_trace_v2_file: cannot open " + path);
  write_trace_v2(out, trace);
}

TraceV2Writer::TraceV2Writer(std::ostream& out, int n, std::uint64_t m)
    : out_(&out), n_(n), want_(m) {
  check_node_count(n);
  unsigned char hdr[kTraceV2HeaderBytes];
  encode_header(hdr, n_, want_);
  out_->write(reinterpret_cast<const char*>(hdr), sizeof(hdr));
  if (!*out_) throw TreeError("TraceV2Writer: header write failure");
  crc_.update(hdr, sizeof(hdr));
}

void TraceV2Writer::append(const Request& r) {
  if (finished_) throw TreeError("TraceV2Writer: append after finish");
  if (written_ >= want_)
    throw TreeError("TraceV2Writer: more records than the declared m=" +
                    std::to_string(want_));
  if (r.src < 1 || r.src > n_ || r.dst < 1 || r.dst > n_)
    throw TreeError("TraceV2Writer: node id out of range");
  if (r.src == r.dst) throw TreeError("TraceV2Writer: self-loop request");
  unsigned char rec[kTraceV2RecordBytes];
  store_u32le(rec, static_cast<std::uint32_t>(r.src));
  store_u32le(rec + 4, static_cast<std::uint32_t>(r.dst));
  out_->write(reinterpret_cast<const char*>(rec), sizeof(rec));
  if (!*out_) throw TreeError("TraceV2Writer: record write failure");
  crc_.update(rec, sizeof(rec));
  ++written_;
}

void TraceV2Writer::finish() {
  if (finished_) return;
  if (written_ != want_)
    throw TreeError("TraceV2Writer: wrote " + std::to_string(written_) +
                    " records but the header declared " +
                    std::to_string(want_));
  unsigned char footer[kTraceV2FooterBytes];
  std::memcpy(footer, kTraceV2FooterMagic, sizeof(kTraceV2FooterMagic));
  store_u32le(footer + 4, crc_.value());
  out_->write(reinterpret_cast<const char*>(footer), sizeof(footer));
  out_->flush();
  if (!*out_) throw TreeError("TraceV2Writer: flush failure");
  finished_ = true;
}

void TraceV2Reader::parse_header(const unsigned char* hdr) {
  if (std::memcmp(hdr, kTraceV2Magic, sizeof(kTraceV2Magic)) != 0)
    throw TreeError("trace v2: bad magic (not a santrcv2 file)");
  const std::uint32_t n = load_u32le(hdr + 8);
  const std::uint32_t flags = load_u32le(hdr + 12);
  if ((flags & ~kTraceV2FlagChecksum) != 0)
    throw TreeError("trace v2: unknown flags 0x" + std::to_string(flags) +
                    " (newer format revision?)");
  has_footer_ = (flags & kTraceV2FlagChecksum) != 0;
  check_node_count(static_cast<long long>(n));
  n_ = static_cast<int>(n);
  m_ = load_u64le(hdr + 16);
  // A fixed-width format cannot hide records: a header whose m does not
  // fit any real file (m * 8 overflowing off_t) is hostile by definition.
  if (m_ > (std::numeric_limits<std::uint64_t>::max() - kTraceV2HeaderBytes -
            kTraceV2FooterBytes) /
               kTraceV2RecordBytes)
    throw TreeError("trace v2: record count overflows the format");
  crc_.update(hdr, kTraceV2HeaderBytes);
}

void TraceV2Reader::maybe_verify_footer() {
  if (!has_footer_ || footer_checked_ || next_ != m_) return;
  footer_checked_ = true;
  unsigned char footer[kTraceV2FooterBytes];
  if (map_) {
    std::memcpy(footer, map_ + kTraceV2HeaderBytes + m_ * kTraceV2RecordBytes,
                sizeof(footer));
  } else {
    in_->read(reinterpret_cast<char*>(footer),
              static_cast<std::streamsize>(sizeof(footer)));
    if (in_->gcount() != static_cast<std::streamsize>(sizeof(footer)))
      throw TreeError("trace v2: truncated checksum footer");
  }
  if (std::memcmp(footer, kTraceV2FooterMagic, sizeof(kTraceV2FooterMagic)) !=
      0)
    throw TreeError("trace v2: corrupt checksum footer (bad footer magic)");
  const std::uint32_t want = load_u32le(footer + 4);
  if (want != crc_.value())
    throw TreeError(
        "trace v2: checksum mismatch (torn or bit-flipped artifact)");
}

TraceV2Reader::TraceV2Reader(std::istream& in) : in_(&in) {
  unsigned char hdr[kTraceV2HeaderBytes];
  in_->read(reinterpret_cast<char*>(hdr), sizeof(hdr));
  if (in_->gcount() != static_cast<std::streamsize>(sizeof(hdr)))
    throw TreeError("trace v2: truncated header");
  parse_header(hdr);
  maybe_verify_footer();  // m == 0: the footer is all there is to check
}

TraceV2Reader::TraceV2Reader(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw TreeError("TraceV2Reader: cannot open " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw TreeError("TraceV2Reader: fstat failed for " + path);
  }
  const std::size_t len = static_cast<std::size_t>(st.st_size);
  if (len < kTraceV2HeaderBytes) {
    ::close(fd);
    throw TreeError("trace v2: truncated header");
  }
  void* map = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED)
    throw TreeError("TraceV2Reader: mmap failed for " + path);
  map_ = static_cast<const unsigned char*>(map);
  map_len_ = len;
  try {
    parse_header(map_);
    // The mapping is the whole file, so the size coherence check is exact:
    // a header claiming records the file does not hold is rejected up
    // front, not discovered as a fault mid-replay.
    if (map_len_ != kTraceV2HeaderBytes + m_ * kTraceV2RecordBytes +
                        (has_footer_ ? kTraceV2FooterBytes : 0))
      throw TreeError("trace v2: file size does not match the header (" +
                      std::to_string(map_len_) + " bytes for m=" +
                      std::to_string(m_) + ")");
    maybe_verify_footer();
  } catch (...) {
    ::munmap(const_cast<unsigned char*>(map_), map_len_);
    map_ = nullptr;
    throw;
  }
  ::madvise(const_cast<unsigned char*>(map_), map_len_, MADV_SEQUENTIAL);
}

TraceV2Reader::~TraceV2Reader() {
  if (map_) ::munmap(const_cast<unsigned char*>(map_), map_len_);
}

std::size_t TraceV2Reader::fill_from_bytes(const unsigned char* bytes,
                                           std::size_t records,
                                           std::span<Request> out) {
  if (has_footer_) crc_.update(bytes, records * kTraceV2RecordBytes);
  for (std::size_t i = 0; i < records; ++i) {
    const std::uint32_t src = load_u32le(bytes + i * kTraceV2RecordBytes);
    const std::uint32_t dst = load_u32le(bytes + i * kTraceV2RecordBytes + 4);
    if (src < 1 || src > static_cast<std::uint32_t>(n_) || dst < 1 ||
        dst > static_cast<std::uint32_t>(n_))
      throw TreeError("trace v2: node id out of range in record " +
                      std::to_string(next_ + i));
    if (src == dst)
      throw TreeError("trace v2: self-loop request in record " +
                      std::to_string(next_ + i));
    out[i] = {static_cast<NodeId>(src), static_cast<NodeId>(dst)};
  }
  return records;
}

std::size_t TraceV2Reader::fill(std::span<Request> out) {
  const std::uint64_t left = m_ - next_;
  std::size_t want = static_cast<std::size_t>(
      std::min<std::uint64_t>(left, out.size()));
  if (want == 0) return 0;

  if (map_) {
    const unsigned char* bytes =
        map_ + kTraceV2HeaderBytes + next_ * kTraceV2RecordBytes;
    fill_from_bytes(bytes, want, out);
    next_ += want;
    maybe_verify_footer();
    return want;
  }

  want = std::min(want, kReadChunkRecords);
  std::vector<unsigned char> buf(want * kTraceV2RecordBytes);
  in_->read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
  const std::size_t got_bytes = static_cast<std::size_t>(in_->gcount());
  if (got_bytes != buf.size())
    throw TreeError("trace v2: truncated body (header declared m=" +
                    std::to_string(m_) + ", file ends at record " +
                    std::to_string(next_ + got_bytes / kTraceV2RecordBytes) +
                    ")");
  fill_from_bytes(buf.data(), want, out);
  next_ += want;
  maybe_verify_footer();
  return want;
}

Trace read_trace_v2_file(const std::string& path) {
  TraceV2Reader reader(path);
  return materialize_stream(reader);
}

}  // namespace san
