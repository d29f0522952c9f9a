#include "quant/qops.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "quant/quantize.h"
#include "tensor/shape.h"
#include "util/error.h"

// The LUT's byte-permute path, chosen by the compile target as the GEMM's
// VNNI micro-kernel is.
#if defined(__AVX512VBMI__) && defined(__AVX512BW__) && defined(__AVX512F__)
#include <immintrin.h>
#define DNNV_LUT_VBMI 1
#else
#define DNNV_LUT_VBMI 0
#endif

namespace dnnv::quant {

void im2col_row_s8(const std::int8_t* plane, std::int64_t height,
                   std::int64_t width, std::int64_t out_w, std::int64_t stride,
                   std::int64_t pad, std::int64_t ky, std::int64_t kx,
                   std::int64_t col0, std::int64_t count, std::int8_t* dst) {
  // Same-width stride-1 convs ("same" padding, the zoo shape) map a whole
  // im2col row onto one contiguous shifted window of the input plane:
  // dst[oy*W + ox] = plane[oy*W + ox + d] with d = (ky-pad)*W + (kx-pad),
  // except the clamped borders. One bulk memcpy + border zeroing beats the
  // general per-output-row walk by a wide margin on small planes, and this
  // function sits in the fused conv's inner pack position.
  if (stride == 1 && col0 == 0 && out_w == width && count % out_w == 0) {
    const std::int64_t rows_n = count / out_w;
    const std::int64_t x0 = std::max<std::int64_t>(0, pad - kx);
    const std::int64_t x1 = std::min<std::int64_t>(out_w, width + pad - kx);
    const std::int64_t y0 =
        std::min(rows_n, std::max<std::int64_t>(0, pad - ky));
    const std::int64_t y1 = std::min(rows_n, height + pad - ky);
    if (y1 <= y0 || x1 <= x0) {
      std::memset(dst, 0, static_cast<std::size_t>(count));
      return;
    }
    const std::int64_t d = (ky - pad) * width + (kx - pad);
    // First/last live bytes: row y0 starts live at x0, row y1-1 ends at x1;
    // both offsets keep plane reads in bounds (lo+d >= 0, hi+d <= H*W).
    const std::int64_t lo = y0 * out_w + x0;
    const std::int64_t hi = (y1 - 1) * out_w + x1;
    std::memset(dst, 0, static_cast<std::size_t>(lo));
    std::memcpy(dst + lo, plane + lo + d, static_cast<std::size_t>(hi - lo));
    std::memset(dst + hi, 0, static_cast<std::size_t>(count - hi));
    if (x0 > 0 || x1 < out_w) {  // punch the horizontal borders back to zero
      for (std::int64_t oy = y0; oy < y1; ++oy) {
        std::int8_t* row = dst + oy * out_w;
        if (x0 > 0 && oy > y0) std::memset(row, 0, static_cast<std::size_t>(x0));
        if (x1 < out_w && oy + 1 < y1) {
          std::memset(row + x1, 0, static_cast<std::size_t>(out_w - x1));
        }
      }
    }
    return;
  }
  // Walk output rows from (col0 / out_w) — one division for the whole call,
  // the loop advances oy/ox0 directly. This runs in the fused conv's
  // per-row inner position, so it must stream like a plain row copy.
  std::int64_t oy = col0 / out_w;
  std::int64_t ox0 = col0 - oy * out_w;
  std::int64_t j = 0;
  if (stride == 1) {
    // Live ox range of this tap, constant across output rows: ix = ox-pad+kx
    // is inside [0, width) iff ox in [x0, x1).
    const std::int64_t x0 = std::max<std::int64_t>(0, pad - kx);
    const std::int64_t x1 = std::min<std::int64_t>(out_w, width + pad - kx);
    while (j < count) {
      const std::int64_t span = std::min(count - j, out_w - ox0);
      const std::int64_t iy = oy - pad + ky;
      std::int8_t* d = dst + j;
      const std::int64_t lo = std::max(ox0, x0);
      const std::int64_t hi = std::min(ox0 + span, x1);
      if (iy < 0 || iy >= height || hi <= lo) {
        std::memset(d, 0, static_cast<std::size_t>(span));
      } else {
        if (lo > ox0) std::memset(d, 0, static_cast<std::size_t>(lo - ox0));
        std::memcpy(d + (lo - ox0), plane + iy * width + (lo - pad + kx),
                    static_cast<std::size_t>(hi - lo));
        if (ox0 + span > hi) {
          std::memset(d + (hi - ox0), 0,
                      static_cast<std::size_t>(ox0 + span - hi));
        }
      }
      j += span;
      ++oy;
      ox0 = 0;
    }
    return;
  }
  while (j < count) {
    const std::int64_t span = std::min(count - j, out_w - ox0);
    const std::int64_t iy = oy * stride - pad + ky;
    if (iy < 0 || iy >= height) {
      std::memset(dst + j, 0, static_cast<std::size_t>(span));
    } else {
      const std::int8_t* src_row = plane + iy * width;
      for (std::int64_t t = 0; t < span; ++t) {
        const std::int64_t ix = (ox0 + t) * stride - pad + kx;
        dst[j + t] = (ix >= 0 && ix < width) ? src_row[ix] : std::int8_t{0};
      }
    }
    j += span;
    ++oy;
    ox0 = 0;
  }
}

void maxpool2d_s8(const std::int8_t* image, std::int64_t channels,
                  std::int64_t height, std::int64_t width, std::int64_t kernel,
                  std::int64_t stride, std::int8_t* output) {
  const std::int64_t out_h = conv_out_dim(height, kernel, stride, 0);
  const std::int64_t out_w = conv_out_dim(width, kernel, stride, 0);
  if (kernel == 2 && stride == 2) {
    // The zoo's geometry: output row oy is the max of input rows 2oy and
    // 2oy+1 over neighbour pairs, with no per-window bounds, so the row loop
    // vectorizes. An odd plane's last row and column fall outside every
    // window, as in the generic loop.
    for (std::int64_t row = 0; row < channels * out_h; ++row) {
      const std::int64_t c = row / out_h, oy = row - c * out_h;
      const std::int8_t* r0 = image + (c * height + 2 * oy) * width;
      const std::int8_t* r1 = r0 + width;
      std::int8_t* dst = output + row * out_w;
      for (std::int64_t ox = 0; ox < out_w; ++ox) {
        dst[ox] = std::max(std::max(r0[2 * ox], r0[2 * ox + 1]),
                           std::max(r1[2 * ox], r1[2 * ox + 1]));
      }
    }
    return;
  }
  for (std::int64_t c = 0; c < channels; ++c) {
    const std::int8_t* plane = image + c * height * width;
    std::int8_t* out_plane = output + c * out_h * out_w;
    for (std::int64_t oy = 0; oy < out_h; ++oy) {
      for (std::int64_t ox = 0; ox < out_w; ++ox) {
        std::int8_t best = std::numeric_limits<std::int8_t>::min();
        const std::int64_t y0 = oy * stride;
        const std::int64_t x0 = ox * stride;
        const std::int64_t y1 = std::min(y0 + kernel, height);
        const std::int64_t x1 = std::min(x0 + kernel, width);
        for (std::int64_t y = y0; y < y1; ++y) {
          for (std::int64_t x = x0; x < x1; ++x) {
            best = std::max(best, plane[y * width + x]);
          }
        }
        out_plane[oy * out_w + ox] = best;
      }
    }
  }
}

std::array<std::int8_t, 256> build_activation_lut(nn::ActivationKind kind,
                                                  float in_scale,
                                                  float out_scale) {
  std::array<std::int8_t, 256> lut{};
  for (int code = -128; code <= 127; ++code) {
    const float x = in_scale * static_cast<float>(code);
    const float y = nn::activate(kind, x);
    lut[static_cast<std::uint8_t>(static_cast<std::int8_t>(code))] =
        quantize_value(y, out_scale);
  }
  return lut;
}

void apply_lut(const std::array<std::int8_t, 256>& lut, const std::int8_t* in,
               std::int64_t count, std::int8_t* out) {
  std::int64_t i = 0;
#if DNNV_LUT_VBMI
  // 64 lookups per step: the table fills four registers, each byte permute
  // looks an index's low 7 bits up in one half of it, and the index's sign
  // bit (codes below 0 are entries 128-255) picks the half.
  const __m512i t0 = _mm512_loadu_si512(lut.data());
  const __m512i t1 = _mm512_loadu_si512(lut.data() + 64);
  const __m512i t2 = _mm512_loadu_si512(lut.data() + 128);
  const __m512i t3 = _mm512_loadu_si512(lut.data() + 192);
  for (; i + 64 <= count; i += 64) {
    const __m512i idx = _mm512_loadu_si512(in + i);
    const __m512i lo = _mm512_permutex2var_epi8(t0, idx, t1);
    const __m512i hi = _mm512_permutex2var_epi8(t2, idx, t3);
    _mm512_storeu_si512(out + i,
                        _mm512_mask_blend_epi8(_mm512_movepi8_mask(idx), lo, hi));
  }
#endif
  for (; i < count; ++i) out[i] = lut[static_cast<std::uint8_t>(in[i])];
}

}  // namespace dnnv::quant
