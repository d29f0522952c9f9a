#include "tensor/im2col.h"

#include <algorithm>
#include <cstring>

#include "util/error.h"

namespace dnnv {

std::int64_t conv_out_dim(std::int64_t in, std::int64_t kernel,
                          std::int64_t stride, std::int64_t pad) {
  DNNV_CHECK(stride > 0, "stride must be positive");
  const std::int64_t eff = in + 2 * pad - kernel;
  DNNV_CHECK(eff >= 0, "kernel " << kernel << " larger than padded input "
                                 << in + 2 * pad);
  return eff / stride + 1;
}

void im2col(const float* image, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* columns) {
  const std::int64_t out_h = conv_out_dim(height, kh, stride, pad);
  const std::int64_t out_w = conv_out_dim(width, kw, stride, pad);
  const std::int64_t out_plane = out_h * out_w;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < channels; ++c) {
    const float* plane = image + c * height * width;
    for (std::int64_t ky = 0; ky < kh; ++ky) {
      for (std::int64_t kx = 0; kx < kw; ++kx, ++row) {
        float* out_row = columns + row * out_plane;
        // Stride-1 fast path: each output row is a contiguous slice of the
        // image row framed by zero padding — one memcpy instead of a branch
        // per element (im2col is bandwidth-bound and sits next to the GEMM
        // on the conv hot path).
        if (stride == 1) {
          const std::int64_t x0 = std::max<std::int64_t>(0, pad - kx);
          const std::int64_t x1 =
              std::min<std::int64_t>(out_w, width + pad - kx);
          for (std::int64_t oy = 0; oy < out_h; ++oy) {
            float* dst = out_row + oy * out_w;
            const std::int64_t iy = oy - pad + ky;
            if (iy < 0 || iy >= height || x0 >= x1) {
              std::memset(dst, 0, static_cast<std::size_t>(out_w) * sizeof(float));
              continue;
            }
            if (x0 > 0) std::memset(dst, 0, static_cast<std::size_t>(x0) * sizeof(float));
            std::memcpy(dst + x0, plane + iy * width + (x0 - pad + kx),
                        static_cast<std::size_t>(x1 - x0) * sizeof(float));
            if (x1 < out_w) {
              std::memset(dst + x1, 0,
                          static_cast<std::size_t>(out_w - x1) * sizeof(float));
            }
          }
          continue;
        }
        for (std::int64_t oy = 0; oy < out_h; ++oy) {
          const std::int64_t iy = oy * stride - pad + ky;
          if (iy < 0 || iy >= height) {
            for (std::int64_t ox = 0; ox < out_w; ++ox) out_row[oy * out_w + ox] = 0.0f;
            continue;
          }
          for (std::int64_t ox = 0; ox < out_w; ++ox) {
            const std::int64_t ix = ox * stride - pad + kx;
            out_row[oy * out_w + ox] =
                (ix < 0 || ix >= width) ? 0.0f : plane[iy * width + ix];
          }
        }
      }
    }
  }
}

void col2im(const float* columns, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* image) {
  const std::int64_t out_h = conv_out_dim(height, kh, stride, pad);
  const std::int64_t out_w = conv_out_dim(width, kw, stride, pad);
  const std::int64_t out_plane = out_h * out_w;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < channels; ++c) {
    float* plane = image + c * height * width;
    for (std::int64_t ky = 0; ky < kh; ++ky) {
      for (std::int64_t kx = 0; kx < kw; ++kx, ++row) {
        const float* in_row = columns + row * out_plane;
        // Stride-1 fast path: the valid span is contiguous, so the scatter
        // becomes a branch-free vector add (mirrors the im2col fast path).
        if (stride == 1) {
          const std::int64_t x0 = std::max<std::int64_t>(0, pad - kx);
          const std::int64_t x1 =
              std::min<std::int64_t>(out_w, width + pad - kx);
          for (std::int64_t oy = 0; oy < out_h; ++oy) {
            const std::int64_t iy = oy - pad + ky;
            if (iy < 0 || iy >= height || x0 >= x1) continue;
            float* dst = plane + iy * width + (x0 - pad + kx);
            const float* src = in_row + oy * out_w + x0;
            const std::int64_t len = x1 - x0;
            for (std::int64_t i = 0; i < len; ++i) dst[i] += src[i];
          }
          continue;
        }
        for (std::int64_t oy = 0; oy < out_h; ++oy) {
          const std::int64_t iy = oy * stride - pad + ky;
          if (iy < 0 || iy >= height) continue;
          for (std::int64_t ox = 0; ox < out_w; ++ox) {
            const std::int64_t ix = ox * stride - pad + kx;
            if (ix < 0 || ix >= width) continue;
            plane[iy * width + ix] += in_row[oy * out_w + ox];
          }
        }
      }
    }
  }
}

}  // namespace dnnv
