#include "tensor/gemm.h"

#include <algorithm>
#include <vector>

#include "util/error.h"
#include "util/thread_pool.h"

namespace dnnv {
namespace {

// Cache-blocked GEMM (BLIS-style): C is computed in kMC x kNC macro-tiles,
// accumulating over kKC-deep slices of A and B that are repacked into
// contiguous micro-panels. The micro-kernel keeps a kMR x kNR accumulator
// tile in registers, so the inner loop is branchless FMA streams over packed
// panels (no per-element zero-skip — it would break vectorisation).
//
// Determinism contract (the coverage engine depends on it): every C element
// is owned by exactly one thread and accumulates its k-products in ascending
// p order within fixed kKC blocks. The blocking of K and N never depends on
// M, so a row's result is bit-identical whether it is computed alone (batch
// of one) or inside a large batch — this is what makes the batched coverage
// pipeline bit-compatible with the per-item path.
constexpr std::int64_t kMR = 8;    // micro-tile rows
constexpr std::int64_t kNR = 32;   // micro-tile cols (4 AVX2 / 2 AVX-512 regs)
constexpr std::int64_t kMC = 64;   // rows of A per macro-block (parallel unit)
constexpr std::int64_t kKC = kGemmKBlock;  // K-slice depth (panels stay in L1/L2)
constexpr std::int64_t kNC = 512;  // cols of B per packed panel

/// Reads element (row, col) of op(X) where X is stored row-major
/// [rows, cols] when transposed == false, or [cols, rows] when true.
inline float op_at(const float* x, std::int64_t ld, bool transposed,
                   std::int64_t row, std::int64_t col) {
  return transposed ? x[col * ld + row] : x[row * ld + col];
}

/// Packs op(A)[ic..ic+mc, pc..pc+kc] into kMR-row micro-panels:
/// dst[panel][p * kMR + r], zero-padded to a whole number of panels. The
/// transpose is absorbed here instead of materialising a transposed copy of
/// op(A).
void pack_a(const float* a, std::int64_t lda, bool trans_a, std::int64_t ic,
            std::int64_t pc, std::int64_t mc, std::int64_t kc, float alpha,
            float* dst) {
  for (std::int64_t ir = 0; ir < mc; ir += kMR) {
    const std::int64_t rows = std::min(kMR, mc - ir);
    for (std::int64_t p = 0; p < kc; ++p) {
      for (std::int64_t r = 0; r < rows; ++r) {
        dst[p * kMR + r] = alpha * op_at(a, lda, trans_a, ic + ir + r, pc + p);
      }
      for (std::int64_t r = rows; r < kMR; ++r) dst[p * kMR + r] = 0.0f;
    }
    dst += kc * kMR;
  }
}

/// Packs op(B)[pc..pc+kc, jc..jc+nc] into kNR-column micro-panels:
/// dst[panel][p * kNR + j], zero-padded to a whole number of panels.
void pack_b(const float* b, std::int64_t ldb, bool trans_b, std::int64_t pc,
            std::int64_t jc, std::int64_t kc, std::int64_t nc, float* dst) {
  for (std::int64_t jr = 0; jr < nc; jr += kNR) {
    const std::int64_t cols = std::min(kNR, nc - jr);
    if (trans_b) {
      // Transposed source: iterate j outer so each read streams a contiguous
      // kc-run of one source row (the j-inner order would stride by ldb per
      // element — one cache line per float). The strided writes stay inside
      // the L1-resident packed panel.
      for (std::int64_t j = 0; j < cols; ++j) {
        const float* src = b + (jc + jr + j) * ldb + pc;
        for (std::int64_t p = 0; p < kc; ++p) {
          dst[p * kNR + j] = src[p];
        }
      }
      for (std::int64_t j = cols; j < kNR; ++j) {
        for (std::int64_t p = 0; p < kc; ++p) dst[p * kNR + j] = 0.0f;
      }
    } else {
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* src = b + (pc + p) * ldb + jc + jr;
        for (std::int64_t j = 0; j < cols; ++j) {
          dst[p * kNR + j] = src[j];
        }
        for (std::int64_t j = cols; j < kNR; ++j) dst[p * kNR + j] = 0.0f;
      }
    }
    dst += kc * kNR;
  }
}

/// acc[kMR][kNR] += a_panel (kc x kMR) * b_panel (kc x kNR). Fixed bounds let
/// the compiler keep the whole accumulator tile in vector registers.
inline void micro_kernel(std::int64_t kc, const float* __restrict a_panel,
                         const float* __restrict b_panel,
                         float* __restrict acc) {
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* bp = b_panel + p * kNR;
    const float* ap = a_panel + p * kMR;
    for (std::int64_t r = 0; r < kMR; ++r) {
      const float ar = ap[r];
      float* accr = acc + r * kNR;
      for (std::int64_t j = 0; j < kNR; ++j) accr[j] += ar * bp[j];
    }
  }
}

/// One kMC x kNC macro-block of C: micro-tiles over the packed panels.
void macro_block(std::int64_t mc, std::int64_t nc, std::int64_t kc,
                 const float* a_pack, const float* b_pack, float* c,
                 std::int64_t ldc) {
  alignas(64) float acc[kMR * kNR];
  for (std::int64_t jr = 0; jr < nc; jr += kNR) {
    const std::int64_t cols = std::min(kNR, nc - jr);
    const float* b_panel = b_pack + (jr / kNR) * kc * kNR;
    for (std::int64_t ir = 0; ir < mc; ir += kMR) {
      const std::int64_t rows = std::min(kMR, mc - ir);
      const float* a_panel = a_pack + (ir / kMR) * kc * kMR;
      std::fill(acc, acc + kMR * kNR, 0.0f);
      micro_kernel(kc, a_panel, b_panel, acc);
      for (std::int64_t r = 0; r < rows; ++r) {
        float* c_row = c + (ir + r) * ldc + jr;
        const float* acc_row = acc + r * kNR;
        for (std::int64_t j = 0; j < cols; ++j) c_row[j] += acc_row[j];
      }
    }
  }
}

/// Per-thread packing buffers, reused across gemm calls (workspace pattern —
/// a coverage sweep issues millions of small GEMMs and must not allocate in
/// each one).
std::vector<float>& a_pack_buffer() {
  static thread_local std::vector<float> buf;
  return buf;
}

std::vector<float>& b_pack_buffer() {
  static thread_local std::vector<float> buf;
  return buf;
}

}  // namespace

void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, const float* b,
          float beta, float* c) {
  DNNV_CHECK(m >= 0 && n >= 0 && k >= 0, "negative GEMM dims");
  if (beta == 0.0f) {
    for (std::int64_t i = 0; i < m * n; ++i) c[i] = 0.0f;
  } else if (beta != 1.0f) {
    for (std::int64_t i = 0; i < m * n; ++i) c[i] *= beta;
  }
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0f) return;

  const std::int64_t lda = trans_a ? m : k;
  const std::int64_t ldb = trans_b ? k : n;

  // Row-dimension parallelism: M macro-blocks are independent (each C row is
  // written by exactly one block). Nested calls (a GEMM issued from inside a
  // pool worker, e.g. the per-batch coverage sweep) stay serial — the outer
  // level already owns the cores and parallel_for runs inline there.
  ThreadPool& pool = ThreadPool::shared();
  const bool parallel = !ThreadPool::in_worker() && pool.num_threads() > 1 &&
                        m > kMC && m * n * k >= (std::int64_t{1} << 21);

  const std::int64_t num_ic = (m + kMC - 1) / kMC;
  std::vector<float>& b_pack = b_pack_buffer();
  b_pack.resize(static_cast<std::size_t>(kKC * kNC));

  for (std::int64_t jc = 0; jc < n; jc += kNC) {
    const std::int64_t nc = std::min(kNC, n - jc);
    for (std::int64_t pc = 0; pc < k; pc += kKC) {
      const std::int64_t kc = std::min(kKC, k - pc);
      pack_b(b, ldb, trans_b, pc, jc, kc, nc, b_pack.data());

      auto ic_block = [&](std::size_t bi) {
        const std::int64_t ic = static_cast<std::int64_t>(bi) * kMC;
        const std::int64_t mc = std::min(kMC, m - ic);
        std::vector<float>& a_pack = a_pack_buffer();
        a_pack.resize(static_cast<std::size_t>(kMC * kKC));
        pack_a(a, lda, trans_a, ic, pc, mc, kc, alpha, a_pack.data());
        macro_block(mc, nc, kc, a_pack.data(), b_pack.data(),
                    c + ic * n + jc, n);
      };
      if (parallel) {
        pool.parallel_for(static_cast<std::size_t>(num_ic), ic_block);
      } else {
        for (std::int64_t bi = 0; bi < num_ic; ++bi) {
          ic_block(static_cast<std::size_t>(bi));
        }
      }
    }
  }
}

}  // namespace dnnv
