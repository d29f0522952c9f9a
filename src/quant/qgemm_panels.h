// Internal panel machinery of the int8 GEMM engine: blocking constants,
// packers and micro/macro kernels, templated on the micro-kernel flavour.
// The drivers instantiate only kVnni, the flavour this build compiled in
// (VNNI when the target has AVX-512 VNNI, scalar otherwise). Included by
// qgemm.cpp (matrix driver) and qconv.cpp (fused im2col packer) — not part
// of the public API.
//
// Layout/signedness contract (see qgemm.cpp header comment for the math):
//  - A panels: kMR rows x K-quads, bytes offset-encoded (s8 XOR 0x80) for
//    VNNI so vpdpbusd's unsigned operand is exact; raw s8 for scalar.
//  - B panels: kNR cols x K-quads; VNNI interleaves the quad per lane
//    (dst[quad][col][4]), scalar keeps k-steps contiguous (dst[quad][4][kNR])
//    so the inner column loop autovectorizes.
//  - colsum(B) is only collected for VNNI (it funds the +128 offset
//    correction); the scalar kernel needs none, so its pack is cheaper.
#ifndef DNNV_QUANT_QGEMM_PANELS_H_
#define DNNV_QUANT_QGEMM_PANELS_H_

#include <algorithm>
#include <cstdint>
#include <cstring>

#if defined(__AVX512VNNI__) && defined(__AVX512BW__) && defined(__AVX512F__)
#include <immintrin.h>
#define DNNV_QGEMM_VNNI 1
#else
#define DNNV_QGEMM_VNNI 0
#endif

namespace dnnv::quant::detail {

/// The micro-kernel flavour of this build.
inline constexpr bool kVnni = DNNV_QGEMM_VNNI != 0;

// Blocking mirrors the float kernel (tensor/gemm.cpp): kMC x kNC macro-tiles
// of C over kKC-deep packed slices, kMR x kNR register tile. K is padded to
// quads inside the panels because vpdpbusd consumes int8 four at a time.
constexpr std::int64_t kMR = 8;
constexpr std::int64_t kNR = 32;  // 2 zmm of 16 int32 lanes
constexpr std::int64_t kMC = 64;
constexpr std::int64_t kKC = 256;  // multiple of 4
constexpr std::int64_t kNC = 512;

inline constexpr std::int64_t quads(std::int64_t kc) { return (kc + 3) / 4; }

template <bool Vnni>
inline constexpr std::uint8_t a_zero() {
  return Vnni ? std::uint8_t{0x80} : std::uint8_t{0x00};  // offset-encoded 0
}

/// Packs A[ic..ic+mc, pc..pc+kc] (row-major, leading dim lda) into kMR-row
/// panels of K-quads: dst[panel][quad][row][4]. Panels are contiguous over
/// the whole mc range, so one call packs an entire K-slice of A. Interior
/// quads move 4 bytes at a time as a u32 (the offset encode is one XOR
/// against 0x80808080); only the ragged edges take the byte loop.
template <bool Vnni>
inline void pack_a(const std::int8_t* a, std::int64_t lda, std::int64_t ic,
                   std::int64_t pc, std::int64_t mc, std::int64_t kc,
                   std::uint8_t* dst) {
  const std::int64_t kc4 = quads(kc);
  const std::int64_t full_q = kc / 4;  // quads with no k padding
  const std::uint32_t xor_mask = a_zero<Vnni>() * 0x01010101u;
  for (std::int64_t ir = 0; ir < mc; ir += kMR) {
    const std::int64_t rows = std::min(kMR, mc - ir);
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::int8_t* src = a + (ic + ir + r) * lda + pc;
      std::uint8_t* out = dst + r * 4;
      for (std::int64_t q = 0; q < full_q; ++q) {
        std::uint32_t quad;
        std::memcpy(&quad, src + q * 4, 4);
        quad ^= xor_mask;
        std::memcpy(out + q * kMR * 4, &quad, 4);
      }
      for (std::int64_t q = full_q; q < kc4; ++q) {
        for (std::int64_t t = 0; t < 4; ++t) {
          out[q * kMR * 4 + t] =
              q * 4 + t < kc
                  ? static_cast<std::uint8_t>(
                        static_cast<std::uint8_t>(src[q * 4 + t]) ^
                        a_zero<Vnni>())
                  : a_zero<Vnni>();
        }
      }
    }
    for (std::int64_t r = rows; r < kMR; ++r) {  // zero-pad missing rows
      std::uint8_t* out = dst + r * 4;
      for (std::int64_t q = 0; q < kc4; ++q) {
        std::memset(out + q * kMR * 4, a_zero<Vnni>(), 4);
      }
    }
    dst += kc4 * kMR * 4;
  }
}

/// Bytes of packed-A storage for an m x kc slice (panels padded to kMR/quads).
inline std::size_t packed_a_slice_bytes(std::int64_t m, std::int64_t kc) {
  const std::int64_t m_pad = (m + kMR - 1) / kMR * kMR;
  return static_cast<std::size_t>(m_pad * quads(kc) * 4);
}

/// Scatters one B row (nc contiguous values for k-step p) into the panel
/// layout. Scalar layout degenerates to straight 32-byte copies; VNNI
/// additionally interleaves and feeds colsum.
template <bool Vnni>
inline void scatter_b_row(const std::int8_t* row, std::int64_t nc,
                          std::int64_t kc4, std::int64_t p, std::int8_t* dst,
                          std::int32_t* colsum) {
  const std::int64_t q = p / 4, t = p % 4;
  for (std::int64_t jr = 0; jr < nc; jr += kNR) {
    const std::int64_t cols = std::min(kNR, nc - jr);
    std::int8_t* panel = dst + (jr / kNR) * kc4 * kNR * 4 + q * kNR * 4;
    const std::int8_t* src = row + jr;
    if constexpr (Vnni) {
      std::int32_t* sums = colsum + jr;
      for (std::int64_t j = 0; j < cols; ++j) {
        panel[j * 4 + t] = src[j];
        sums[j] += src[j];
      }
    } else {
      std::memcpy(panel + t * kNR, src, static_cast<std::size_t>(cols));
    }
  }
}

/// Packs kc x nc of B into kNR-column K-quad panels via a row provider:
/// row_fn(p) returns a pointer to nc contiguous values of B-row p (valid
/// until the next call). qgemm hands out matrix rows; the scalar fused conv
/// path generates each im2col row on the fly — same packer, no materialized
/// column matrix. Padding bytes are zeroed up front; colsum is
/// collected only for the VNNI flavour (tail lanes must be pre-zeroed by the
/// caller once, they are never touched here).
template <bool Vnni, class RowFn>
inline void pack_b_rows(std::int64_t kc, std::int64_t nc, RowFn&& row_fn,
                        std::int8_t* dst, std::int32_t* colsum) {
  const std::int64_t kc4 = quads(kc);
  const std::int64_t panels = (nc + kNR - 1) / kNR;
  std::memset(dst, 0, static_cast<std::size_t>(panels * kc4 * kNR * 4));
  if constexpr (Vnni) {
    std::fill(colsum, colsum + nc, 0);
  }
  for (std::int64_t p = 0; p < kc; ++p) {
    scatter_b_row<Vnni>(row_fn(p), nc, kc4, p, dst, colsum);
  }
}

/// Bytes of packed-B storage for a kc x nc slice.
inline std::size_t packed_b_slice_bytes(std::int64_t nc, std::int64_t kc) {
  const std::int64_t panels = (nc + kNR - 1) / kNR;
  return static_cast<std::size_t>(panels * quads(kc) * kNR * 4);
}

#if DNNV_QGEMM_VNNI

/// Interleaves one K-quad of B (4 rows, `cols` <= kNR live values each) into
/// a VNNI panel quad — dst[j*4+t] = row_t[j] — and accumulates colsum.
/// The byte-granular scatter is the hot spot of the fused conv pack, so this
/// builds the interleaved u32 words in registers (zero-extend each row to
/// int32 lanes, shift into byte position, OR) and feeds colsum with one
/// vpdpbusd per zmm against an all-ones unsigned operand: 1*b summed four
/// bytes at a time is exactly the signed column sum. Always writes the full
/// kNR*4-byte quad (dead lanes as zeros), so callers need no pre-memset.
inline void interleave_quad_vnni(const std::int8_t* r0, const std::int8_t* r1,
                                 const std::int8_t* r2, const std::int8_t* r3,
                                 std::int64_t cols, std::int8_t* dst,
                                 std::int32_t* colsum) {
#if defined(__AVX512VL__)
  const __mmask32 live =
      cols >= kNR ? 0xFFFFFFFFu : ((std::uint32_t{1} << cols) - 1u);
  const __m256i b0 = _mm256_maskz_loadu_epi8(live, r0);
  const __m256i b1 = _mm256_maskz_loadu_epi8(live, r1);
  const __m256i b2 = _mm256_maskz_loadu_epi8(live, r2);
  const __m256i b3 = _mm256_maskz_loadu_epi8(live, r3);
  const __m512i ones = _mm512_set1_epi8(1);
  // Full-mask (maskz) forms of the zero-extend and shift: the same
  // vpmovzxbd / vpslld instructions, minus the _mm512_undefined_epi32()
  // pass-through operand of the unmasked forms that GCC flags as
  // uninitialized.
  auto widen = [](__m256i row, int half) {
    return _mm512_maskz_cvtepu8_epi32(
        0xFFFF, half == 0 ? _mm256_castsi256_si128(row)
                          : _mm256_extracti128_si256(row, 1));
  };
  for (int half = 0; half < 2; ++half) {
    const __m512i words = _mm512_or_si512(
        _mm512_or_si512(widen(b0, half),
                        _mm512_maskz_slli_epi32(0xFFFF, widen(b1, half), 8)),
        _mm512_or_si512(_mm512_maskz_slli_epi32(0xFFFF, widen(b2, half), 16),
                        _mm512_maskz_slli_epi32(0xFFFF, widen(b3, half), 24)));
    _mm512_storeu_si512(reinterpret_cast<void*>(dst + half * 64), words);
    std::int32_t* cs = colsum + half * 16;
    const __m512i sums = _mm512_dpbusd_epi32(
        _mm512_loadu_si512(reinterpret_cast<const void*>(cs)), ones, words);
    _mm512_storeu_si512(reinterpret_cast<void*>(cs), sums);
  }
#else
  for (std::int64_t j = 0; j < kNR; ++j) {
    const bool in = j < cols;
    const std::int8_t v0 = in ? r0[j] : std::int8_t{0};
    const std::int8_t v1 = in ? r1[j] : std::int8_t{0};
    const std::int8_t v2 = in ? r2[j] : std::int8_t{0};
    const std::int8_t v3 = in ? r3[j] : std::int8_t{0};
    dst[j * 4 + 0] = v0;
    dst[j * 4 + 1] = v1;
    dst[j * 4 + 2] = v2;
    dst[j * 4 + 3] = v3;
    colsum[j] += v0 + v1 + v2 + v3;
  }
#endif
}

/// Quad-at-a-time B packer for the fused conv path: row_gen(p, out) writes
/// B-row p (nc values) into out. Rows are generated four at a time into
/// `rowbuf` (4 * nc bytes) so each panel quad is built with one vectorized
/// interleave instead of four byte scatters. Every panel byte and all n_pad
/// colsum lanes are (over)written — no pre-zeroing needed by the caller.
template <class RowGen>
inline void pack_b_quads(std::int64_t kc, std::int64_t nc, RowGen&& row_gen,
                         std::int8_t* dst, std::int32_t* colsum,
                         std::int8_t* rowbuf) {
  const std::int64_t kc4 = quads(kc);
  const std::int64_t n_pad = (nc + kNR - 1) / kNR * kNR;
  std::fill(colsum, colsum + n_pad, 0);
  for (std::int64_t q = 0; q < kc4; ++q) {
    const std::int8_t* rows[4];
    for (std::int64_t t = 0; t < 4; ++t) {
      std::int8_t* row = rowbuf + t * nc;
      const std::int64_t p = q * 4 + t;
      if (p < kc) {
        row_gen(p, row);
      } else {
        std::memset(row, 0, static_cast<std::size_t>(nc));
      }
      rows[t] = row;
    }
    for (std::int64_t jr = 0; jr < nc; jr += kNR) {
      const std::int64_t cols = std::min(kNR, nc - jr);
      std::int8_t* panel = dst + (jr / kNR) * kc4 * kNR * 4 + q * kNR * 4;
      interleave_quad_vnni(rows[0] + jr, rows[1] + jr, rows[2] + jr,
                           rows[3] + jr, cols, panel, colsum + jr);
    }
  }
}

#endif  // DNNV_QGEMM_VNNI

#if DNNV_QGEMM_VNNI

/// C tile (rows x cols at c, leading dim ldc) += a_panel * b_panel over kc4
/// K-quads, with the unsigned-offset correction (128 * colsum) subtracted in
/// registers. Partial tiles use AVX-512 write masks — no scalar edge path.
inline void micro_kernel_vnni(std::int64_t kc4, const std::uint8_t* a_panel,
                              const std::int8_t* b_panel,
                              const std::int32_t* colsum, std::int32_t* c,
                              std::int64_t ldc, std::int64_t rows,
                              std::int64_t cols) {
  __m512i acc0[kMR];
  __m512i acc1[kMR];
  for (std::int64_t r = 0; r < kMR; ++r) {
    acc0[r] = _mm512_setzero_si512();
    acc1[r] = _mm512_setzero_si512();
  }
  for (std::int64_t q = 0; q < kc4; ++q) {
    const __m512i b0 =
        _mm512_loadu_si512(reinterpret_cast<const void*>(b_panel + q * kNR * 4));
    const __m512i b1 = _mm512_loadu_si512(
        reinterpret_cast<const void*>(b_panel + q * kNR * 4 + 64));
    const std::uint8_t* aq = a_panel + q * kMR * 4;
    for (std::int64_t r = 0; r < kMR; ++r) {
      std::int32_t quad;
      std::memcpy(&quad, aq + r * 4, 4);
      const __m512i av = _mm512_set1_epi32(quad);
      acc0[r] = _mm512_dpbusd_epi32(acc0[r], av, b0);
      acc1[r] = _mm512_dpbusd_epi32(acc1[r], av, b1);
    }
  }
  // corr = 128 * colsum, subtracted once per C element visit (each K slice
  // packs its own colsum, so slices compose additively).
  const __m512i corr0 = _mm512_maskz_slli_epi32(
      0xFFFF, _mm512_loadu_si512(reinterpret_cast<const void*>(colsum)), 7);
  const __m512i corr1 = _mm512_maskz_slli_epi32(
      0xFFFF, _mm512_loadu_si512(reinterpret_cast<const void*>(colsum + 16)),
      7);
  const std::uint32_t lane_mask =
      cols >= kNR ? 0xFFFFFFFFu : ((1u << cols) - 1u);
  const __mmask16 m0 = static_cast<__mmask16>(lane_mask & 0xFFFFu);
  const __mmask16 m1 = static_cast<__mmask16>(lane_mask >> 16);
  for (std::int64_t r = 0; r < rows; ++r) {
    std::int32_t* c_row = c + r * ldc;
    const __m512i t0 = _mm512_sub_epi32(acc0[r], corr0);
    const __m512i t1 = _mm512_sub_epi32(acc1[r], corr1);
    __m512i old0 = _mm512_maskz_loadu_epi32(m0, c_row);
    __m512i old1 = _mm512_maskz_loadu_epi32(m1, c_row + 16);
    _mm512_mask_storeu_epi32(c_row, m0, _mm512_add_epi32(old0, t0));
    _mm512_mask_storeu_epi32(c_row + 16, m1, _mm512_add_epi32(old1, t1));
  }
}

#endif  // DNNV_QGEMM_VNNI

inline void micro_kernel_scalar(std::int64_t kc4, const std::uint8_t* a_panel,
                                const std::int8_t* b_panel,
                                std::int32_t* acc) {
  std::fill(acc, acc + kMR * kNR, 0);
  for (std::int64_t q = 0; q < kc4; ++q) {
    const std::uint8_t* aq = a_panel + q * kMR * 4;
    const std::int8_t* bq = b_panel + q * kNR * 4;
    for (std::int64_t t = 0; t < 4; ++t) {
      const std::int8_t* bt = bq + t * kNR;
      for (std::int64_t r = 0; r < kMR; ++r) {
        const auto ar = static_cast<std::int32_t>(
            static_cast<std::int8_t>(aq[r * 4 + t]));  // a_zero==0: raw s8
        std::int32_t* accr = acc + r * kNR;
        for (std::int64_t j = 0; j < kNR; ++j) {
          accr[j] += ar * static_cast<std::int32_t>(bt[j]);
        }
      }
    }
  }
}

/// One up-to-kMC x kNC macro-block of C (accumulating: C += A*B for this K
/// slice). a_pack/b_pack/colsum point at this block's first panel/lane.
template <bool Vnni>
inline void macro_block(std::int64_t mc, std::int64_t nc, std::int64_t kc,
                        const std::uint8_t* a_pack, const std::int8_t* b_pack,
                        const std::int32_t* colsum, std::int32_t* c,
                        std::int64_t ldc) {
  const std::int64_t kc4 = quads(kc);
  for (std::int64_t jr = 0; jr < nc; jr += kNR) {
    const std::int64_t cols = std::min(kNR, nc - jr);
    const std::int8_t* b_panel = b_pack + (jr / kNR) * kc4 * kNR * 4;
    for (std::int64_t ir = 0; ir < mc; ir += kMR) {
      const std::int64_t rows = std::min(kMR, mc - ir);
      const std::uint8_t* a_panel = a_pack + (ir / kMR) * kc4 * kMR * 4;
#if DNNV_QGEMM_VNNI
      if constexpr (Vnni) {
        micro_kernel_vnni(kc4, a_panel, b_panel, colsum + jr, c + ir * ldc + jr,
                          ldc, rows, cols);
        continue;
      }
#endif
      alignas(64) std::int32_t acc[kMR * kNR];
      micro_kernel_scalar(kc4, a_panel, b_panel, acc);
      for (std::int64_t r = 0; r < rows; ++r) {
        std::int32_t* c_row = c + (ir + r) * ldc + jr;
        const std::int32_t* acc_row = acc + r * kNR;
        for (std::int64_t j = 0; j < cols; ++j) c_row[j] += acc_row[j];
      }
      (void)colsum;
    }
  }
}

}  // namespace dnnv::quant::detail

#endif  // DNNV_QUANT_QGEMM_PANELS_H_
