// Fused int8 convolution: im2col rows are generated on the fly and packed
// panel-by-panel straight into the GEMM packing buffer, so no column matrix
// ever materializes, and the conv weights are pre-packed once into
// micro-kernel panels instead of per call. Exact int32 arithmetic: the
// result equals the direct convolution sum bit for bit.
#ifndef DNNV_QUANT_QCONV_H_
#define DNNV_QUANT_QCONV_H_

#include <cstdint>
#include <vector>

#include "quant/qgemm.h"

namespace dnnv::quant {

/// Geometry of one conv2d: CHW input, [out_channels, in_c*k*k] weights,
/// square kernel, symmetric padding.
struct QConvShape {
  std::int64_t in_channels = 0;
  std::int64_t height = 0;
  std::int64_t width = 0;
  std::int64_t out_channels = 0;
  std::int64_t kernel = 0;
  std::int64_t stride = 1;
  std::int64_t pad = 0;

  std::int64_t out_h() const {
    return (height + 2 * pad - kernel) / stride + 1;
  }
  std::int64_t out_w() const { return (width + 2 * pad - kernel) / stride + 1; }
  std::int64_t plane() const { return out_h() * out_w(); }   ///< GEMM N
  std::int64_t fanin() const {                                ///< GEMM K
    return in_channels * kernel * kernel;
  }
};

/// Conv weights pre-packed into the A-operand panel layout of the compiled
/// micro-kernel.
struct PackedConvWeights {
  std::int64_t out_channels = 0;
  std::int64_t fanin = 0;
  std::size_t slice_stride = 0;  ///< bytes per full-kKC K-slice of panels
  std::vector<std::uint8_t> panels;

  bool matches(const QConvShape& s) const {
    return out_channels == s.out_channels && fanin == s.fanin();
  }
};

/// Packs [out_channels, fanin] int8 conv weights.
PackedConvWeights pack_conv_weights(std::int64_t out_channels,
                                    std::int64_t fanin,
                                    const std::int8_t* weights);

/// Arena-backed scratch for one fused conv call. The caller owns the
/// storage (nn::Workspace i8/i32 arenas in QuantModel) so warmed-up
/// forwards allocate nothing; sizes come from qconv_scratch_sizes().
struct QConvScratch {
  std::int8_t* b_pack = nullptr;
  std::int32_t* colsum = nullptr;
  std::int8_t* rowbuf = nullptr;
};

struct QConvScratchSizes {
  std::size_t b_pack = 0;   ///< int8 elements
  std::size_t colsum = 0;   ///< int32 elements
  std::size_t rowbuf = 0;   ///< int8 elements (4 rows: one K-quad at a time)
};

QConvScratchSizes qconv_scratch_sizes(const QConvShape& shape);

/// acc[out_channels, plane] (int32, overwritten) = weights * im2col(image),
/// without materializing the column matrix: each K-slice generates its
/// im2col rows into `rowbuf` and scatters them directly into the packed-B
/// panels, then the macro-tile grid runs (parallel over options.pool via
/// bounded work-splitting — safe and still parallel when nested in a pool
/// worker). Bit-identical to the direct convolution sum.
void qconv2d_fused(const QConvShape& shape, const PackedConvWeights& weights,
                   const std::int8_t* image, std::int32_t* acc,
                   const QConvScratch& scratch,
                   const QGemmOptions& options = {});

}  // namespace dnnv::quant

#endif  // DNNV_QUANT_QCONV_H_
