// Unit tests for the util library.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <limits>
#include <set>
#include <sstream>

#include "util/bitset.h"
#include "util/cli.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/image_io.h"
#include "util/keystream.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace dnnv {
namespace {

// ---------- Rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusively) {
  Rng rng(9);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) {
    const int v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformU64RespectsBound) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform_u64(10), 10u);
  }
}

TEST(RngTest, UniformU64RejectsZeroBound) {
  Rng rng(13);
  EXPECT_THROW(rng.uniform_u64(0), Error);
}

TEST(RngTest, NormalHasReasonableMoments) {
  Rng rng(17);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    const double v = rng.normal();
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / kSamples;
  const double var = sum_sq / kSamples - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, SplitIsDeterministicAndIndependentOfParentUsage) {
  Rng parent1(5);
  Rng parent2(5);
  Rng child1 = parent1.split(99);
  parent2.next_u64();  // consuming the parent after split must not matter ...
  Rng child2 = Rng(5).split(99);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(child1.next_u64(), child2.next_u64());
  }
}

TEST(RngTest, SplitWithDifferentSaltsDiverges) {
  Rng parent(5);
  Rng a = parent.split(1);
  Rng b = parent.split(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(21);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7};
  auto shuffled = values;
  rng.shuffle(shuffled);
  std::multiset<int> a(values.begin(), values.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, FlipProbabilityRoughlyCorrect) {
  Rng rng(23);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.flip(0.25)) ++heads;
  }
  EXPECT_NEAR(heads / 10000.0, 0.25, 0.02);
}

// ---------- DynamicBitset ----------

TEST(BitsetTest, StartsEmpty) {
  DynamicBitset bits(100);
  EXPECT_EQ(bits.size(), 100u);
  EXPECT_EQ(bits.count(), 0u);
  EXPECT_TRUE(bits.none());
}

TEST(BitsetTest, SetTestReset) {
  DynamicBitset bits(130);
  bits.set(0);
  bits.set(64);
  bits.set(129);
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(64));
  EXPECT_TRUE(bits.test(129));
  EXPECT_FALSE(bits.test(1));
  EXPECT_EQ(bits.count(), 3u);
  bits.reset(64);
  EXPECT_FALSE(bits.test(64));
  EXPECT_EQ(bits.count(), 2u);
}

TEST(BitsetTest, OutOfRangeThrows) {
  DynamicBitset bits(10);
  EXPECT_THROW(bits.set(10), Error);
  EXPECT_THROW(bits.test(11), Error);
}

TEST(BitsetTest, UnionAndIntersection) {
  DynamicBitset a(100);
  DynamicBitset b(100);
  a.set(1);
  a.set(50);
  b.set(50);
  b.set(99);
  DynamicBitset u = a;
  u |= b;
  EXPECT_EQ(u.count(), 3u);
  DynamicBitset i = a;
  i &= b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(50));
}

TEST(BitsetTest, SizeMismatchThrows) {
  DynamicBitset a(10);
  DynamicBitset b(11);
  EXPECT_THROW(a |= b, Error);
}

TEST(BitsetTest, CountNewBitsIsMarginalGain) {
  DynamicBitset covered(200);
  covered.set(3);
  covered.set(100);
  DynamicBitset candidate(200);
  candidate.set(3);    // already covered
  candidate.set(7);    // new
  candidate.set(199);  // new
  EXPECT_EQ(covered.count_new_bits(candidate), 2u);
  EXPECT_EQ(covered.count_common_bits(candidate), 1u);
}

TEST(BitsetTest, SubtractRemovesBits) {
  DynamicBitset a(64);
  a.set(1);
  a.set(2);
  DynamicBitset b(64);
  b.set(2);
  a.subtract(b);
  EXPECT_TRUE(a.test(1));
  EXPECT_FALSE(a.test(2));
}

TEST(BitsetTest, SetBitsEnumeratesAscending) {
  DynamicBitset bits(300);
  bits.set(5);
  bits.set(64);
  bits.set(299);
  const auto set_bits = bits.set_bits();
  ASSERT_EQ(set_bits.size(), 3u);
  EXPECT_EQ(set_bits[0], 5u);
  EXPECT_EQ(set_bits[1], 64u);
  EXPECT_EQ(set_bits[2], 299u);
}

TEST(BitsetTest, WordsRoundTrip) {
  DynamicBitset bits(70);
  bits.set(0);
  bits.set(69);
  const auto rebuilt = DynamicBitset::from_words(bits.words(), 70);
  EXPECT_TRUE(rebuilt == bits);
}

TEST(BitsetTest, FromWordsMasksStrayBits) {
  std::vector<std::uint64_t> words{~0ull};
  const auto bits = DynamicBitset::from_words(words, 10);
  EXPECT_EQ(bits.count(), 10u);
}

// ---------- CRC32 ----------

TEST(Crc32Test, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (classic check value).
  const char* data = "123456789";
  EXPECT_EQ(crc32(data, 9), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(crc32(nullptr, 0), 0u); }

TEST(Crc32Test, SensitiveToSingleBit) {
  std::vector<std::uint8_t> bytes(64, 0xAB);
  const auto before = crc32(bytes);
  bytes[20] ^= 1;
  EXPECT_NE(crc32(bytes), before);
}

// Reference: the bytewise table-driven CRC-32, fed one byte at a time, so
// that after n bytes `finish()` is the CRC of those n bytes.
struct BytewiseCrc32 {
  std::uint32_t table[256] = {};
  std::uint32_t state = 0xFFFFFFFFu;
  BytewiseCrc32() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      table[i] = c;
    }
  }
  void add(std::uint8_t byte) {
    state = table[(state ^ byte) & 0xFF] ^ (state >> 8);
  }
  std::uint32_t finish() const { return state ^ 0xFFFFFFFFu; }
};

// Every length 0-4100 at every offset 0-7: each head, tail and 8-byte body
// alignment the sliced loop can meet.
TEST(Crc32Test, SlicedLoopEqualsBytewiseLoop) {
  Rng rng(5);
  std::vector<std::uint8_t> bytes(4100 + 8);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    BytewiseCrc32 reference;
    for (std::size_t size = 0; size <= 4100; ++size) {
      ASSERT_EQ(crc32(bytes.data() + offset, size), reference.finish())
          << "offset " << offset << " size " << size;
      if (size < 4100) reference.add(bytes[offset + size]);
    }
  }
}

// ---------- Keystream ----------

TEST(KeystreamTest, Involutive) {
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 7);
  }
  auto encrypted = data;
  keystream_xor(encrypted, 0xDEADBEEF);
  EXPECT_NE(encrypted, data);
  keystream_xor(encrypted, 0xDEADBEEF);
  EXPECT_EQ(encrypted, data);
}

TEST(KeystreamTest, DifferentKeysDifferentStreams) {
  std::vector<std::uint8_t> a(100, 0);
  std::vector<std::uint8_t> b(100, 0);
  keystream_xor(a, 1);
  keystream_xor(b, 2);
  EXPECT_NE(a, b);
}

// Reference: the keystream applied one byte at a time, one keystream word
// per 8 bytes, byte b of a block XORed with bits 8b..8b+7.
void bytewise_keystream_xor(std::vector<std::uint8_t>& bytes,
                            std::uint64_t key) {
  Rng rng(key ^ 0xC0FFEE1234ABCDEFull);
  for (std::size_t i = 0; i < bytes.size(); i += 8) {
    const std::uint64_t ks = rng.next_u64();
    for (std::size_t b = 0; b < 8 && i + b < bytes.size(); ++b) {
      bytes[i + b] ^= static_cast<std::uint8_t>(ks >> (8 * b));
    }
  }
}

// Lengths 0-17 cover an empty, a partial and a full block on either side of
// the tail; 795,003 is a cifar_relu_tiny bundle's size.
TEST(KeystreamTest, WordLoopEqualsBytewiseLoop) {
  Rng rng(6);
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 17; ++n) sizes.push_back(n);
  sizes.push_back(795003);
  for (const std::size_t n : sizes) {
    std::vector<std::uint8_t> data(n);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
    auto expected = data;
    bytewise_keystream_xor(expected, 2024);
    keystream_xor(data, 2024);
    EXPECT_EQ(data, expected) << "length " << n;
  }
}

TEST(KeystreamTest, HandlesNonMultipleOf8Lengths) {
  for (const std::size_t n : {0u, 1u, 7u, 9u, 15u}) {
    std::vector<std::uint8_t> data(n, 0x42);
    auto copy = data;
    keystream_xor(copy, 77);
    keystream_xor(copy, 77);
    EXPECT_EQ(copy, data) << "length " << n;
  }
}

// ---------- Serialize ----------

TEST(SerializeTest, RoundTripAllTypes) {
  ByteWriter writer;
  writer.write_u8(0xAB);
  writer.write_u32(0xDEADBEEF);
  writer.write_u64(0x0123456789ABCDEFull);
  writer.write_i64(-42);
  writer.write_f32(3.25f);
  writer.write_f64(-1.5e300);
  writer.write_string("hello dnnv");
  const float arr[3] = {1.0f, -2.0f, 0.5f};
  writer.write_f32_array(arr, 3);

  ByteReader reader(writer.take());
  EXPECT_EQ(reader.read_u8(), 0xAB);
  EXPECT_EQ(reader.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.read_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.read_i64(), -42);
  EXPECT_FLOAT_EQ(reader.read_f32(), 3.25f);
  EXPECT_DOUBLE_EQ(reader.read_f64(), -1.5e300);
  EXPECT_EQ(reader.read_string(), "hello dnnv");
  const auto read_arr = reader.read_f32_array(3);
  EXPECT_EQ(read_arr, (std::vector<float>{1.0f, -2.0f, 0.5f}));
  EXPECT_TRUE(reader.exhausted());
}

TEST(SerializeTest, UnderrunThrows) {
  ByteWriter writer;
  writer.write_u32(1);
  ByteReader reader(writer.take());
  reader.read_u32();
  EXPECT_THROW(reader.read_u32(), Error);
}

TEST(SerializeTest, LengthsAndCountsBeyondTheStreamThrowTypedErrors) {
  ByteWriter writer;
  for (const std::uint64_t v : {3, 10, 20, 30}) writer.write_u64(v);
  const std::vector<std::uint8_t> bytes = writer.take();
  {
    // Sizes whose pos + n or n * sizeof wrap around 2^64 must not slip past
    // the bounds check into an allocation.
    ByteReader reader(bytes);
    reader.read_u64();
    EXPECT_THROW(reader.read_bytes(std::numeric_limits<std::size_t>::max() - 3),
                 Error);
    EXPECT_THROW(reader.read_f32_array(std::size_t{1} << 62), Error);
    EXPECT_THROW(reader.read_u64_array(std::size_t{1} << 61), Error);
    EXPECT_EQ(reader.remaining(), bytes.size() - 8);
  }
  {
    ByteReader reader(bytes);
    EXPECT_EQ(reader.read_count(8), 3u);  // exactly three u64 entries follow
    EXPECT_EQ(reader.read_u64_array(3), (std::vector<std::uint64_t>{10, 20, 30}));
  }
  {
    ByteReader reader(bytes);
    EXPECT_THROW(reader.read_count(16), Error);  // 3 x 16 B > 24 B left
  }
  ByteWriter wide;
  wide.write_u32(0xFFFFFFFFu);
  ByteReader reader(wide.take());
  EXPECT_THROW(reader.read_count<std::uint32_t>(1), Error);
}

TEST(SerializeTest, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "dnnv_serialize_test.bin").string();
  const std::vector<std::uint8_t> bytes{1, 2, 3, 250};
  write_file(path, bytes);
  EXPECT_TRUE(file_exists(path));
  EXPECT_EQ(read_file(path), bytes);
  std::filesystem::remove(path);
  EXPECT_FALSE(file_exists(path));
}

TEST(SerializeTest, MissingFileThrows) {
  EXPECT_THROW(read_file("/nonexistent/dnnv/nope.bin"), Error);
}

// ---------- TablePrinter ----------

TEST(TableTest, AlignedOutputContainsCells) {
  TablePrinter table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("22"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableTest, RowArityChecked) {
  TablePrinter table({"a", "b"});
  EXPECT_THROW(table.add_row({"only one"}), Error);
}

TEST(TableTest, CsvQuotesSpecialCells) {
  TablePrinter table({"x"});
  table.add_row({"has,comma"});
  std::ostringstream os;
  table.print_csv(os);
  EXPECT_NE(os.str().find("\"has,comma\""), std::string::npos);
}

TEST(TableTest, FormatHelpers) {
  EXPECT_EQ(format_percent(0.923), "92.3%");
  EXPECT_EQ(format_percent(1.0), "100.0%");
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
}

// ---------- CLI ----------

TEST(CliTest, ParsesAllSyntaxes) {
  const char* argv[] = {"prog", "--count", "5", "--rate=0.5", "--flag"};
  CliArgs args(5, argv, {"count", "rate", "flag"});
  EXPECT_EQ(args.get_int("count", 0), 5);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 0.5);
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(args.get_int("absent", 9), 9);
}

TEST(CliTest, UnknownOptionThrows) {
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_THROW(CliArgs(3, argv, {"count"}), Error);
}

TEST(CliTest, BadIntegerThrows) {
  const char* argv[] = {"prog", "--count", "abc"};
  CliArgs args(3, argv, {"count"});
  EXPECT_THROW(args.get_int("count", 0), Error);
}

// ---------- Image IO ----------

TEST(ImageIoTest, PgmHeaderAndSize) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "dnnv_test.pgm").string();
  std::vector<float> pixels(6 * 4, 0.5f);
  write_pgm(path, pixels.data(), 4, 6);
  const auto bytes = read_file(path);
  const std::string header(bytes.begin(), bytes.begin() + 2);
  EXPECT_EQ(header, "P5");
  // "P5\n6 4\n255\n" + 24 pixel bytes
  EXPECT_EQ(bytes.size(), std::string("P5\n6 4\n255\n").size() + 24);
  std::filesystem::remove(path);
}

TEST(ImageIoTest, PpmRoundSize) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "dnnv_test.ppm").string();
  std::vector<float> pixels(3 * 2 * 2, 1.0f);
  write_ppm_chw(path, pixels.data(), 2, 2);
  const auto bytes = read_file(path);
  EXPECT_EQ(bytes.size(), std::string("P6\n2 2\n255\n").size() + 12);
  std::filesystem::remove(path);
}

TEST(ImageIoTest, AsciiArtDimensions) {
  std::vector<float> pixels{0.0f, 1.0f, 0.5f, 0.25f};
  const std::string art = ascii_art(pixels.data(), 2, 2);
  EXPECT_EQ(art.size(), 6u);  // 2 rows of 2 chars + 2 newlines
  EXPECT_EQ(art[0], ' ');     // black pixel
  EXPECT_EQ(art[1], '@');     // white pixel
}

// ---------- ThreadPool ----------

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, PropagatesTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw Error("boom"); });
  EXPECT_THROW(pool.wait_all(), Error);
  // Pool is reusable after an exception.
  std::atomic<int> ran{0};
  pool.submit([&] { ran = 1; });
  pool.wait_all();
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPoolTest, ThrowingParallelForBodyRethrowsAndPoolStaysUsable) {
  ThreadPool pool(3);
  // A throwing body is captured by the worker and rethrown from wait_all()
  // (which parallel_for calls internally).
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   if (i == 17) throw Error("body boom");
                                 }),
               Error);
  // The error slot must be cleared: the pool runs new work and completes it.
  std::vector<int> hits(128, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, NestedParallelForRunsWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  // The caller participates in the split, so outer bodies may run on the
  // calling thread OR a worker; a nested call issued from either must still
  // cover every index without waiting on the pool it runs inside.
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total, 32);
  EXPECT_FALSE(ThreadPool::in_worker());
}

TEST(ThreadPoolTest, NestedParallelForRunsEachIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 6;
  constexpr std::size_t kInner = 97;  // does not divide the chunk grid evenly
  std::vector<std::vector<std::atomic<int>>> hits(kOuter);
  for (auto& row : hits) {
    row = std::vector<std::atomic<int>>(kInner);
    for (auto& h : row) h = 0;
  }
  pool.parallel_for(kOuter, [&](std::size_t o) {
    pool.parallel_for(kInner,
                      [&](std::size_t i) { hits[o][i].fetch_add(1); });
  });
  for (const auto& row : hits) {
    for (const auto& h : row) EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPoolTest, DeeplyNestedParallelForFallsBackInline) {
  ThreadPool pool(3);
  // Depth >= 2 runs inline (bounded splitting): three levels must neither
  // deadlock nor lose indices.
  std::atomic<int> total{0};
  pool.parallel_for(3, [&](std::size_t) {
    pool.parallel_for(3, [&](std::size_t) {
      pool.parallel_for(3, [&](std::size_t) { total.fetch_add(1); });
    });
  });
  EXPECT_EQ(total, 27);
}

TEST(ThreadPoolTest, NestedParallelForPropagatesInnerException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4,
                        [&](std::size_t o) {
                          pool.parallel_for(8, [&](std::size_t i) {
                            if (o == 2 && i == 5) throw Error("inner boom");
                          });
                        }),
      Error);
  // The pool stays usable afterwards.
  std::atomic<int> total{0};
  pool.parallel_for(16, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total, 16);
}

TEST(ThreadPoolTest, ChunkedDispatchCoversLargeSparseCounts) {
  ThreadPool pool(4);
  // Counts that do not divide evenly by num_threads * 4 must still cover
  // every index exactly once.
  for (const std::size_t count : {2u, 15u, 16u, 17u, 1001u}) {
    std::vector<std::atomic<int>> hits(count);
    for (auto& h : hits) h = 0;
    pool.parallel_for(count, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPoolTest, ZeroAndOneCountFastPaths) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace dnnv
