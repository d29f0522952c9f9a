#include "util/serialize.h"

#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/error.h"

namespace dnnv {

static_assert(std::endian::native == std::endian::little,
              "dnnv binary formats assume a little-endian host");

void ByteWriter::write_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + n);
}

void ByteWriter::write_u8(std::uint8_t v) { bytes_.push_back(v); }
void ByteWriter::write_u32(std::uint32_t v) { write_bytes(&v, sizeof v); }
void ByteWriter::write_u64(std::uint64_t v) { write_bytes(&v, sizeof v); }
void ByteWriter::write_i64(std::int64_t v) { write_bytes(&v, sizeof v); }
void ByteWriter::write_f32(float v) { write_bytes(&v, sizeof v); }
void ByteWriter::write_f64(double v) { write_bytes(&v, sizeof v); }

void ByteWriter::write_string(const std::string& s) {
  write_u64(s.size());
  write_bytes(s.data(), s.size());
}

void ByteWriter::write_f32_array(const float* data, std::size_t n) {
  write_bytes(data, n * sizeof(float));
}

void ByteWriter::write_u64_array(const std::uint64_t* data, std::size_t n) {
  write_bytes(data, n * sizeof(std::uint64_t));
}

ByteReader::ByteReader(std::vector<std::uint8_t> bytes)
    : bytes_(std::move(bytes)) {}

// pos_ never passes the end, so remaining() cannot wrap — unlike pos_ + n,
// which does for n near 2^64.
void ByteReader::require(std::size_t n) const {
  DNNV_CHECK(n <= remaining(),
             "byte stream underrun: need " << n << " at offset " << pos_
                                           << ", have " << bytes_.size());
}

void ByteReader::require_entries(std::uint64_t n,
                                 std::size_t entry_bytes) const {
  DNNV_CHECK(entry_bytes > 0 && n <= remaining() / entry_bytes,
             "byte stream underrun: " << n << " entries of " << entry_bytes
                                      << " bytes at offset " << pos_
                                      << ", have " << bytes_.size());
}

std::size_t ByteReader::geometry_count(std::span<const std::int64_t> dims,
                                       std::size_t entry_bytes) const {
  DNNV_CHECK(entry_bytes > 0, "zero-byte entries");
  const std::uint64_t limit = remaining() / entry_bytes;
  std::uint64_t count = 1;
  for (const std::int64_t d : dims) {
    const auto factor = static_cast<std::uint64_t>(d);
    DNNV_CHECK(d >= 0 && (d == 0 || count <= limit / factor),
               "byte stream underrun: geometry factor " << d << " at offset "
                   << pos_ << " exceeds the " << remaining()
                   << " remaining bytes");
    count *= factor;
  }
  return static_cast<std::size_t>(count);
}

std::uint8_t ByteReader::read_u8() {
  require(1);
  return bytes_[pos_++];
}

std::uint32_t ByteReader::read_u32() {
  require(4);
  std::uint32_t v;
  std::memcpy(&v, bytes_.data() + pos_, sizeof v);
  pos_ += sizeof v;
  return v;
}

std::uint64_t ByteReader::read_u64() {
  require(8);
  std::uint64_t v;
  std::memcpy(&v, bytes_.data() + pos_, sizeof v);
  pos_ += sizeof v;
  return v;
}

std::int64_t ByteReader::read_i64() {
  require(8);
  std::int64_t v;
  std::memcpy(&v, bytes_.data() + pos_, sizeof v);
  pos_ += sizeof v;
  return v;
}

float ByteReader::read_f32() {
  require(4);
  float v;
  std::memcpy(&v, bytes_.data() + pos_, sizeof v);
  pos_ += sizeof v;
  return v;
}

double ByteReader::read_f64() {
  require(8);
  double v;
  std::memcpy(&v, bytes_.data() + pos_, sizeof v);
  pos_ += sizeof v;
  return v;
}

std::string ByteReader::read_string() {
  const std::uint64_t n = read_u64();
  require(n);
  std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::vector<float> ByteReader::read_f32_array(std::size_t n) {
  require_entries(n, sizeof(float));
  std::vector<float> v(n);
  if (n != 0) std::memcpy(v.data(), bytes_.data() + pos_, n * sizeof(float));
  pos_ += n * sizeof(float);
  return v;
}

std::vector<std::uint8_t> ByteReader::read_bytes(std::size_t n) {
  require(n);
  std::vector<std::uint8_t> v(bytes_.begin() + static_cast<std::ptrdiff_t>(pos_),
                              bytes_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return v;
}

std::vector<std::uint64_t> ByteReader::read_u64_array(std::size_t n) {
  require_entries(n, sizeof(std::uint64_t));
  std::vector<std::uint64_t> v(n);
  if (n != 0) std::memcpy(v.data(), bytes_.data() + pos_, n * sizeof(std::uint64_t));
  pos_ += n * sizeof(std::uint64_t);
  return v;
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path());
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  DNNV_CHECK(out.good(), "cannot open " << path << " for writing");
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  DNNV_CHECK(out.good(), "short write to " << path);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  DNNV_CHECK(in.good(), "cannot open " << path << " for reading");
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  DNNV_CHECK(in.gcount() == size, "short read from " << path);
  return bytes;
}

bool file_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::is_regular_file(path, ec);
}

}  // namespace dnnv
