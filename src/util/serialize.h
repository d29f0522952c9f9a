// Little-endian binary (de)serialisation for models and test-suite packages.
#ifndef DNNV_UTIL_SERIALIZE_H_
#define DNNV_UTIL_SERIALIZE_H_

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace dnnv {

/// Append-only byte buffer with typed writers.
class ByteWriter {
 public:
  void write_u8(std::uint8_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v);
  void write_f32(float v);
  void write_f64(double v);
  void write_string(const std::string& s);          // u64 length + bytes
  void write_f32_array(const float* data, std::size_t n);
  void write_u64_array(const std::uint64_t* data, std::size_t n);
  void write_bytes(const void* data, std::size_t n);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Sequential reader over a byte buffer; throws dnnv::Error on underrun.
class ByteReader {
 public:
  explicit ByteReader(std::vector<std::uint8_t> bytes);

  std::uint8_t read_u8();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int64_t read_i64();
  float read_f32();
  double read_f64();
  std::string read_string();
  std::vector<float> read_f32_array(std::size_t n);
  std::vector<std::uint64_t> read_u64_array(std::size_t n);
  /// Raw byte run (inverse of write_bytes with a known length).
  std::vector<std::uint8_t> read_bytes(std::size_t n);

  /// Reads an element count stored as a `Count` (u64, or u32 where a format
  /// says so) and throws unless the remaining bytes can hold that many
  /// entries of at least `min_entry_bytes` each — a forged count can then
  /// never size a reserve() or resize() beyond the input itself.
  template <class Count = std::uint64_t>
  std::size_t read_count(std::size_t min_entry_bytes) {
    static_assert(std::is_same_v<Count, std::uint32_t> ||
                  std::is_same_v<Count, std::uint64_t>);
    const std::uint64_t n =
        std::is_same_v<Count, std::uint32_t> ? read_u32() : read_u64();
    require_entries(n, min_entry_bytes);
    return static_cast<std::size_t>(n);
  }

  /// The product of `dims` as an entry count, for a format that stores an
  /// array's geometry rather than its length. Throws unless every factor is
  /// non-negative and the remaining bytes hold that many entries of
  /// `entry_bytes` each — checked factor by factor before multiplying, so a
  /// forged geometry can neither wrap the count nor size a read beyond the
  /// input.
  std::size_t geometry_count(std::initializer_list<std::int64_t> dims,
                             std::size_t entry_bytes) const {
    return geometry_count(
        std::span<const std::int64_t>(dims.begin(), dims.size()), entry_bytes);
  }

  /// geometry_count over dims read from the stream (a stored rank).
  std::size_t geometry_count(std::span<const std::int64_t> dims,
                             std::size_t entry_bytes) const;

  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool exhausted() const { return remaining() == 0; }

 private:
  void require(std::size_t n) const;
  /// require(n * entry_bytes) without forming the (possibly wrapping) product.
  void require_entries(std::uint64_t n, std::size_t entry_bytes) const;

  std::vector<std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Writes a whole byte buffer to `path` (creating parent dirs); throws on failure.
void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes);

/// Reads a whole file; throws on failure.
std::vector<std::uint8_t> read_file(const std::string& path);

/// True when `path` exists and is a regular file.
bool file_exists(const std::string& path);

}  // namespace dnnv

#endif  // DNNV_UTIL_SERIALIZE_H_
