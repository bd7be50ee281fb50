// Versioned, checksummed binary snapshot files with atomic replacement.
//
// The solver's checkpoint/resume path (ilp/checkpoint.hpp) and any future
// durable state share one framing: a fixed magic, a format version, the
// payload length and an FNV-1a 64 checksum over the payload, followed by
// the payload bytes. A file is only ever published complete: every writer
// (write_file_atomic(), shared with the serve spool's text files) streams
// to `<path>.tmp` in the same directory and rename()s over the target, so
// a reader never observes a half-written snapshot under POSIX rename
// atomicity — and if the machine dies mid-write, the stale-but-whole
// previous snapshot survives.
//
// Torn and truncated writes are still assumed to happen (lying disks,
// copied files, fault injection): load_snapshot_file() re-verifies magic,
// version, length and checksum and returns nullopt on ANY mismatch. The
// byte-level reader is bounds-checked on every access, so a fuzzed payload
// can fail deserialization but never read out of bounds.
//
// FaultSite::kSnapshotTorn hooks the writer: a fire truncates the payload
// mid-write (the header still claims the full length), simulating the torn
// write the checksum exists to catch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace advbist::util {

/// FNV-1a 64-bit over a byte range (the snapshot payload checksum).
[[nodiscard]] std::uint64_t fnv1a64(const unsigned char* data,
                                    std::size_t size);

/// Little-endian byte serializer for snapshot payloads.
class SnapshotWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u32(std::uint32_t v) { put_raw(&v, sizeof v); }
  void put_u64(std::uint64_t v) { put_raw(&v, sizeof v); }
  void put_i64(long long v) { put_raw(&v, sizeof v); }
  void put_f64(double v) { put_raw(&v, sizeof v); }
  /// u64 count followed by the raw doubles.
  void put_doubles(const std::vector<double>& v);

  [[nodiscard]] const std::vector<unsigned char>& bytes() const {
    return buf_;
  }

 private:
  void put_raw(const void* p, std::size_t n);
  std::vector<unsigned char> buf_;
};

/// Bounds-checked reader over a snapshot payload. Any out-of-range access
/// (or an element count larger than the remaining bytes could hold) sets a
/// sticky failure flag and returns zeros; callers check ok() once at the
/// end instead of wrapping every field.
class SnapshotReader {
 public:
  SnapshotReader(const unsigned char* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit SnapshotReader(const std::vector<unsigned char>& bytes)
      : SnapshotReader(bytes.data(), bytes.size()) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] long long i64();
  [[nodiscard]] double f64();
  /// Mirrors SnapshotWriter::put_doubles; clears `out` on failure.
  void doubles(std::vector<double>& out);
  /// Reads a u64 element count and fails unless count * elem_bytes still
  /// fits in the remaining payload (fuzz guard: a bit-flipped count can
  /// never drive a multi-gigabyte allocation).
  [[nodiscard]] std::size_t count(std::size_t elem_bytes);

  [[nodiscard]] bool ok() const { return !failed_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

 private:
  bool take(void* out, std::size_t n);
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

/// Writes `bytes` to `<path>.tmp`, flushes it and renames it over `path`,
/// so readers see the old file or the new one, never a partial write.
/// Returns false on any I/O error, leaving no `.tmp` behind and the
/// previous file at `path`, if any, untouched.
bool write_file_atomic(const std::string& path, std::string_view bytes);

/// Writes `payload` to `path` under the snapshot framing, atomically
/// (temp file in the same directory + rename). Returns false on any I/O
/// error; the previous file at `path`, if any, is untouched on failure.
bool save_snapshot_file(const std::string& path, std::uint32_t version,
                        const std::vector<unsigned char>& payload);

/// Loads and validates a snapshot file: magic, `expected_version`, payload
/// length and checksum must all match, else nullopt (never throws, never
/// reads past the file).
[[nodiscard]] std::optional<std::vector<unsigned char>> load_snapshot_file(
    const std::string& path, std::uint32_t expected_version);

}  // namespace advbist::util
