#include "util/keystream.h"

#include "util/rng.h"

namespace dnnv {
namespace {

/// The 8 bytes at p as a little-endian word. Written as one expression, the
/// compiler emits a single 64-bit load on little-endian hosts.
std::uint64_t load_le64(const std::uint8_t* p) {
  return std::uint64_t{p[0]} | std::uint64_t{p[1]} << 8 |
         std::uint64_t{p[2]} << 16 | std::uint64_t{p[3]} << 24 |
         std::uint64_t{p[4]} << 32 | std::uint64_t{p[5]} << 40 |
         std::uint64_t{p[6]} << 48 | std::uint64_t{p[7]} << 56;
}

}  // namespace

void keystream_xor(std::vector<std::uint8_t>& bytes, std::uint64_t key) {
  Rng rng(key ^ 0xC0FFEE1234ABCDEFull);
  // Byte b of each 8-byte block is XORed with bits 8b..8b+7 of one keystream
  // word: one 64-bit XOR per block.
  std::uint8_t* p = bytes.data();
  const std::size_t size = bytes.size();
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    const std::uint64_t block = load_le64(p + i) ^ rng.next_u64();
    for (std::size_t b = 0; b < 8; ++b) {
      p[i + b] = static_cast<std::uint8_t>(block >> (8 * b));
    }
  }
  if (i < size) {
    const std::uint64_t ks = rng.next_u64();
    for (int b = 0; i < size; ++i, ++b) {
      p[i] ^= static_cast<std::uint8_t>(ks >> (8 * b));
    }
  }
}

}  // namespace dnnv
