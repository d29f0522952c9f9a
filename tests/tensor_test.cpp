// Unit tests for the tensor library.
#include <gtest/gtest.h>

#include <cmath>

#include "tensor/batch.h"
#include "tensor/gemm.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"
#include "util/error.h"
#include "util/rng.h"

namespace dnnv {
namespace {

// ---------- Shape ----------

TEST(ShapeTest, NumelAndAccess) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.ndim(), 3u);
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s[0], 2);
  EXPECT_EQ(s[2], 4);
  EXPECT_THROW(s[3], Error);
}

TEST(ShapeTest, Equality) {
  EXPECT_EQ(Shape({2, 3}), Shape({2, 3}));
  EXPECT_NE(Shape({2, 3}), Shape({3, 2}));
}

TEST(ShapeTest, NegativeDimThrows) {
  EXPECT_THROW(Shape({2, -1}), Error);
}

TEST(ShapeTest, ToString) {
  EXPECT_EQ(Shape({1, 28, 28}).to_string(), "[1, 28, 28]");
}

// ---------- Tensor ----------

TEST(TensorTest, ZeroInitialised) {
  Tensor t{Shape{3, 3}};
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, DataShapeMismatchThrows) {
  EXPECT_THROW(Tensor(Shape{2, 2}, std::vector<float>{1.0f}), Error);
}

TEST(TensorTest, MultiDimAccess) {
  Tensor t{Shape{2, 3}};
  t.at({1, 2}) = 5.0f;
  EXPECT_EQ(t[5], 5.0f);
  EXPECT_EQ(t.at({1, 2}), 5.0f);
  EXPECT_THROW(t.at({2, 0}), Error);
  EXPECT_THROW(t.at({0}), Error);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshaped(Shape{3, 2});
  EXPECT_EQ(r.shape(), Shape({3, 2}));
  EXPECT_EQ(r[4], 5.0f);
  EXPECT_THROW(t.reshaped(Shape{4, 2}), Error);
}

TEST(TensorTest, ElementwiseOps) {
  Tensor a(Shape{3}, {1, 2, 3});
  Tensor b(Shape{3}, {10, 20, 30});
  a += b;
  EXPECT_EQ(a[2], 33.0f);
  a -= b;
  EXPECT_EQ(a[2], 3.0f);
  a *= 2.0f;
  EXPECT_EQ(a[0], 2.0f);
  EXPECT_THROW(a += Tensor(Shape{4}), Error);
}

TEST(TensorTest, Reductions) {
  Tensor t(Shape{4}, {1, -5, 3, 1});
  EXPECT_DOUBLE_EQ(sum(t), 0.0);
  EXPECT_DOUBLE_EQ(mean(t), 0.0);
  EXPECT_EQ(argmax(t), 2);
  EXPECT_FLOAT_EQ(max_abs(t), 5.0f);
}

TEST(TensorTest, ArgmaxFirstOnTies) {
  Tensor t(Shape{3}, {2, 2, 1});
  EXPECT_EQ(argmax(t), 0);
}

TEST(TensorTest, Clamp) {
  Tensor t(Shape{3}, {-1.0f, 0.5f, 2.0f});
  clamp_(t, 0.0f, 1.0f);
  EXPECT_EQ(t[0], 0.0f);
  EXPECT_EQ(t[1], 0.5f);
  EXPECT_EQ(t[2], 1.0f);
}

TEST(TensorTest, SquaredDistance) {
  Tensor a(Shape{2}, {0, 0});
  Tensor b(Shape{2}, {3, 4});
  EXPECT_DOUBLE_EQ(squared_distance(a, b), 25.0);
}

TEST(TensorTest, RandnStatistics) {
  Rng rng(3);
  const Tensor t = Tensor::randn(Shape{10000}, rng, 1.0f, 2.0f);
  EXPECT_NEAR(mean(t), 1.0, 0.1);
}

// ---------- GEMM ----------

TEST(GemmTest, SmallKnownProduct) {
  // A [2x3] * B [3x2]
  const float a[] = {1, 2, 3, 4, 5, 6};
  const float b[] = {7, 8, 9, 10, 11, 12};
  float c[4] = {0};
  gemm(false, false, 2, 2, 3, 1.0f, a, b, 0.0f, c);
  EXPECT_FLOAT_EQ(c[0], 58.0f);
  EXPECT_FLOAT_EQ(c[1], 64.0f);
  EXPECT_FLOAT_EQ(c[2], 139.0f);
  EXPECT_FLOAT_EQ(c[3], 154.0f);
}

TEST(GemmTest, AlphaBetaScaling) {
  const float a[] = {1, 0, 0, 1};  // identity
  const float b[] = {5, 6, 7, 8};
  float c[] = {1, 1, 1, 1};
  gemm(false, false, 2, 2, 2, 2.0f, a, b, 3.0f, c);
  EXPECT_FLOAT_EQ(c[0], 2 * 5 + 3);
  EXPECT_FLOAT_EQ(c[3], 2 * 8 + 3);
}

// Property: all four transpose combinations agree with a naive reference.
class GemmTransposeTest : public ::testing::TestWithParam<std::pair<bool, bool>> {};

TEST_P(GemmTransposeTest, MatchesNaiveReference) {
  const auto [trans_a, trans_b] = GetParam();
  const std::int64_t m = 5, n = 4, k = 3;
  Rng rng(11);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());

  // Storage honours the trans flags.
  auto a_at = [&](std::int64_t i, std::int64_t p) {
    return trans_a ? a[static_cast<std::size_t>(p * m + i)]
                   : a[static_cast<std::size_t>(i * k + p)];
  };
  auto b_at = [&](std::int64_t p, std::int64_t j) {
    return trans_b ? b[static_cast<std::size_t>(j * k + p)]
                   : b[static_cast<std::size_t>(p * n + j)];
  };

  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  gemm(trans_a, trans_b, m, n, k, 1.0f, a.data(), b.data(), 0.0f, c.data());
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float expect = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) expect += a_at(i, p) * b_at(p, j);
      EXPECT_NEAR(c[static_cast<std::size_t>(i * n + j)], expect, 1e-4f)
          << "at (" << i << "," << j << ") trans_a=" << trans_a
          << " trans_b=" << trans_b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, GemmTransposeTest,
                         ::testing::Values(std::pair{false, false},
                                           std::pair{false, true},
                                           std::pair{true, false},
                                           std::pair{true, true}));

namespace {

/// Naive triple-loop reference for the blocked kernel's property tests.
void gemm_reference(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
                    std::int64_t k, float alpha, const float* a, const float* b,
                    float beta, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = trans_a ? a[p * m + i] : a[i * k + p];
        const float bv = trans_b ? b[j * k + p] : b[p * n + j];
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      c[i * n + j] = alpha * static_cast<float>(acc) + beta * c[i * n + j];
    }
  }
}

}  // namespace

// Exhaustive property test over the blocked kernel: all four transpose
// combinations x beta in {0, 1, 0.5}, at sizes straddling the micro/macro
// tile boundaries so the padded edge paths are exercised.
TEST(GemmTest, BlockedKernelMatchesReferenceAcrossTransAndBeta) {
  Rng rng(23);
  const std::int64_t sizes[][3] = {
      {1, 1, 1},  {3, 5, 2},  {4, 32, 7},  {5, 33, 9}, {64, 64, 64},
      {65, 37, 70}, {7, 130, 300},
  };
  for (const auto& dims : sizes) {
    const std::int64_t m = dims[0], n = dims[1], k = dims[2];
    std::vector<float> a(static_cast<std::size_t>(m * k));
    std::vector<float> b(static_cast<std::size_t>(k * n));
    for (auto& v : a) v = static_cast<float>(rng.normal());
    for (auto& v : b) v = static_cast<float>(rng.normal());
    for (const bool trans_a : {false, true}) {
      for (const bool trans_b : {false, true}) {
        for (const float beta : {0.0f, 1.0f, 0.5f}) {
          std::vector<float> c(static_cast<std::size_t>(m * n));
          for (auto& v : c) v = static_cast<float>(rng.normal());
          std::vector<float> expect = c;
          gemm_reference(trans_a, trans_b, m, n, k, 1.0f, a.data(), b.data(),
                         beta, expect.data());
          gemm(trans_a, trans_b, m, n, k, 1.0f, a.data(), b.data(), beta,
               c.data());
          for (std::int64_t i = 0; i < m * n; ++i) {
            ASSERT_NEAR(c[static_cast<std::size_t>(i)],
                        expect[static_cast<std::size_t>(i)],
                        1e-3f * (1.0f + std::fabs(expect[static_cast<std::size_t>(i)])))
                << "m=" << m << " n=" << n << " k=" << k
                << " trans_a=" << trans_a << " trans_b=" << trans_b
                << " beta=" << beta << " at " << i;
          }
        }
      }
    }
  }
}

TEST(GemmTest, DegenerateDimsTakeEarlyExit) {
  // m == 0: no output elements; the call must not touch c at all.
  float sentinel[4] = {9, 9, 9, 9};
  gemm(false, false, 0, 2, 3, 1.0f, nullptr, nullptr, 0.5f, sentinel);
  for (const float v : sentinel) EXPECT_FLOAT_EQ(v, 9.0f);

  // k == 0: the product is the zero matrix, so C = beta * C exactly.
  float c0[4] = {2, 4, 6, 8};
  gemm(false, false, 2, 2, 0, 1.0f, nullptr, nullptr, 0.5f, c0);
  EXPECT_FLOAT_EQ(c0[0], 1.0f);
  EXPECT_FLOAT_EQ(c0[3], 4.0f);

  // k == 0 with beta == 0 zeroes C.
  float c1[4] = {2, 4, 6, 8};
  gemm(false, false, 2, 2, 0, 1.0f, nullptr, nullptr, 0.0f, c1);
  for (const float v : c1) EXPECT_FLOAT_EQ(v, 0.0f);

  // n == 0 and alpha == 0 also early-exit after the beta pass.
  float c2[2] = {3, 5};
  gemm(false, false, 1, 2, 4, 0.0f, nullptr, nullptr, 1.0f, c2);
  EXPECT_FLOAT_EQ(c2[0], 3.0f);
  EXPECT_FLOAT_EQ(c2[1], 5.0f);
}

// The batched coverage pipeline relies on row results being independent of
// the batch size: computing rows one at a time (m == 1 calls) must be
// bit-identical to one m == B call.
TEST(GemmTest, RowResultsAreBatchSizeInvariant) {
  Rng rng(31);
  const std::int64_t m = 23, n = 130, k = 300;
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  std::vector<float> batched(static_cast<std::size_t>(m * n), 0.0f);
  gemm(false, false, m, n, k, 1.0f, a.data(), b.data(), 0.0f, batched.data());
  for (std::int64_t i = 0; i < m; ++i) {
    std::vector<float> row(static_cast<std::size_t>(n), 0.0f);
    gemm(false, false, 1, n, k, 1.0f, a.data() + i * k, b.data(), 0.0f,
         row.data());
    for (std::int64_t j = 0; j < n; ++j) {
      ASSERT_EQ(row[static_cast<std::size_t>(j)],
                batched[static_cast<std::size_t>(i * n + j)])
          << "row " << i << " col " << j;
    }
  }
}

// ---------- conv geometry ----------

TEST(ShapeTest, ConvOutDim) {
  EXPECT_EQ(conv_out_dim(28, 3, 1, 1), 28);
  EXPECT_EQ(conv_out_dim(28, 3, 1, 0), 26);
  EXPECT_EQ(conv_out_dim(28, 2, 2, 0), 14);
  EXPECT_THROW(conv_out_dim(2, 5, 1, 0), Error);
}

// ---------- batch ----------

TEST(BatchTest, StackAndSlice) {
  Tensor a(Shape{2}, {1, 2});
  Tensor b(Shape{2}, {3, 4});
  const Tensor batch = stack_batch({a, b});
  EXPECT_EQ(batch.shape(), Shape({2, 2}));
  EXPECT_EQ(batch_size(batch), 2);
  const Tensor s = slice_batch(batch, 1);
  EXPECT_EQ(s.shape(), Shape({2}));
  EXPECT_EQ(s[0], 3.0f);
}

TEST(BatchTest, MismatchedShapesThrow) {
  EXPECT_THROW(stack_batch({Tensor(Shape{2}), Tensor(Shape{3})}), Error);
  EXPECT_THROW(stack_batch({}), Error);
  EXPECT_THROW(slice_batch(stack_batch({Tensor(Shape{2})}), 1), Error);
}

}  // namespace
}  // namespace dnnv
