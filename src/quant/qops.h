// Int8 layer kernels around the qgemm datapath: im2col row generation, max
// pooling and LUT activations, all operating directly on int8 codes.
#ifndef DNNV_QUANT_QOPS_H_
#define DNNV_QUANT_QOPS_H_

#include <array>
#include <cstdint>

#include "nn/activation.h"

namespace dnnv::quant {

/// One row of the implicit im2col matrix, columns [col0, col0+count):
/// the (ky, kx) tap of a single input plane sampled at consecutive output
/// positions. `plane` points at the channel's HxW data (the caller folds the
/// channel into the row index). Stride-1 spans are memcpy'd per output row;
/// padding taps write 0. This is the fused conv path's row generator — it
/// feeds the GEMM packer directly so the full column matrix never exists.
void im2col_row_s8(const std::int8_t* plane, std::int64_t height,
                   std::int64_t width, std::int64_t out_w, std::int64_t stride,
                   std::int64_t pad, std::int64_t ky, std::int64_t kx,
                   std::int64_t col0, std::int64_t count, std::int8_t* dst);

/// Max pooling over one CHW int8 image. Order-preserving, so pooling codes
/// equals pooling values — the scale passes through unchanged.
void maxpool2d_s8(const std::int8_t* image, std::int64_t channels,
                  std::int64_t height, std::int64_t width, std::int64_t kernel,
                  std::int64_t stride, std::int8_t* output);

/// 256-entry code-to-code table for a nonlinearity between two activation
/// grids: lut[uint8(q)] = sat8(round(f(in_scale * q) / out_scale)). The whole
/// activation layer becomes one table lookup per element — exact by
/// construction for every representable input code.
std::array<std::int8_t, 256> build_activation_lut(nn::ActivationKind kind,
                                                  float in_scale,
                                                  float out_scale);

/// Applies a LUT elementwise (in place allowed).
void apply_lut(const std::array<std::int8_t, 256>& lut, const std::int8_t* in,
               std::int64_t count, std::int8_t* out);

}  // namespace dnnv::quant

#endif  // DNNV_QUANT_QOPS_H_
