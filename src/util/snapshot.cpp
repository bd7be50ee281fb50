#include "util/snapshot.hpp"

#include <cstdio>
#include <cstring>

#include "util/fault_injector.hpp"

namespace advbist::util {

namespace {

constexpr unsigned char kMagic[8] = {'A', 'D', 'V', 'B',
                                     'S', 'N', 'A', 'P'};

struct Header {
  unsigned char magic[8];
  std::uint32_t version;
  std::uint32_t reserved;
  std::uint64_t payload_size;
  std::uint64_t checksum;
};
static_assert(sizeof(Header) == 32, "snapshot header layout");

/// RAII stdio handle so every early return closes the file.
struct File {
  explicit File(std::FILE* f) : f_(f) {}
  ~File() {
    if (f_ != nullptr) std::fclose(f_);
  }
  std::FILE* f_;
};

}  // namespace

std::uint64_t fnv1a64(const unsigned char* data, std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void SnapshotWriter::put_raw(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  buf_.insert(buf_.end(), b, b + n);
}

void SnapshotWriter::put_doubles(const std::vector<double>& v) {
  put_u64(v.size());
  if (!v.empty()) put_raw(v.data(), v.size() * sizeof(double));
}

bool SnapshotReader::take(void* out, std::size_t n) {
  if (failed_ || n > size_ - pos_) {
    failed_ = true;
    std::memset(out, 0, n);
    return false;
  }
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return true;
}

std::uint8_t SnapshotReader::u8() {
  std::uint8_t v = 0;
  take(&v, sizeof v);
  return v;
}
std::uint32_t SnapshotReader::u32() {
  std::uint32_t v = 0;
  take(&v, sizeof v);
  return v;
}
std::uint64_t SnapshotReader::u64() {
  std::uint64_t v = 0;
  take(&v, sizeof v);
  return v;
}
long long SnapshotReader::i64() {
  long long v = 0;
  take(&v, sizeof v);
  return v;
}
double SnapshotReader::f64() {
  double v = 0.0;
  take(&v, sizeof v);
  return v;
}

std::size_t SnapshotReader::count(std::size_t elem_bytes) {
  const std::uint64_t n = u64();
  if (failed_ || (elem_bytes > 0 && n > remaining() / elem_bytes)) {
    failed_ = true;
    return 0;
  }
  return static_cast<std::size_t>(n);
}

void SnapshotReader::doubles(std::vector<double>& out) {
  out.clear();
  const std::size_t n = count(sizeof(double));
  if (failed_) return;
  out.resize(n);
  if (n > 0 && !take(out.data(), n * sizeof(double))) out.clear();
}

bool write_file_atomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    File f(std::fopen(tmp.c_str(), "wb"));
    if (f.f_ == nullptr) return false;
    if ((!bytes.empty() &&
         std::fwrite(bytes.data(), 1, bytes.size(), f.f_) != bytes.size()) ||
        std::fflush(f.f_) != 0) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool save_snapshot_file(const std::string& path, std::uint32_t version,
                        const std::vector<unsigned char>& payload) {
  Header h{};
  std::memcpy(h.magic, kMagic, sizeof kMagic);
  h.version = version;
  h.payload_size = payload.size();
  h.checksum = fnv1a64(payload.data(), payload.size());

  // Fault-injection hook: a torn write truncates the payload mid-stream
  // while the header still claims the full length — exactly the corruption
  // the checksum + length check must reject at load time.
  std::size_t write_bytes = payload.size();
  if (auto* fi = FaultInjector::active();
      fi != nullptr && fi->fire(FaultSite::kSnapshotTorn))
    write_bytes = payload.size() / 2;

  std::string framed(sizeof h + write_bytes, '\0');
  std::memcpy(framed.data(), &h, sizeof h);
  if (write_bytes > 0)
    std::memcpy(framed.data() + sizeof h, payload.data(), write_bytes);
  return write_file_atomic(path, framed);
}

std::optional<std::vector<unsigned char>> load_snapshot_file(
    const std::string& path, std::uint32_t expected_version) {
  File f(std::fopen(path.c_str(), "rb"));
  if (f.f_ == nullptr) return std::nullopt;
  Header h{};
  if (std::fread(&h, sizeof h, 1, f.f_) != 1) return std::nullopt;
  if (std::memcmp(h.magic, kMagic, sizeof kMagic) != 0) return std::nullopt;
  if (h.version != expected_version) return std::nullopt;
  // The reserved field is written as zero; anything else means the header
  // was corrupted in a spot the payload checksum cannot see.
  if (h.reserved != 0) return std::nullopt;
  // Sanity-cap the claimed size against the actual file length before
  // allocating (a bit-flipped length must not drive a huge allocation).
  if (std::fseek(f.f_, 0, SEEK_END) != 0) return std::nullopt;
  const long end = std::ftell(f.f_);
  if (end < 0 ||
      static_cast<unsigned long>(end) != sizeof(Header) + h.payload_size)
    return std::nullopt;
  if (std::fseek(f.f_, sizeof(Header), SEEK_SET) != 0) return std::nullopt;
  std::vector<unsigned char> payload(
      static_cast<std::size_t>(h.payload_size));
  if (!payload.empty() &&
      std::fread(payload.data(), 1, payload.size(), f.f_) != payload.size())
    return std::nullopt;
  if (fnv1a64(payload.data(), payload.size()) != h.checksum)
    return std::nullopt;
  return payload;
}

}  // namespace advbist::util
