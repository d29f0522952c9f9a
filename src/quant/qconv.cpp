#include "quant/qconv.h"

#include <algorithm>

#include "quant/qgemm_panels.h"
#include "quant/qops.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace dnnv::quant {
namespace {

using namespace detail;

// Same threshold as the qgemm driver: tile parallelism only past ~1M MACs.
constexpr std::int64_t kParallelMinWork = std::int64_t{1} << 20;

template <bool Vnni>
void qconv_fused_impl(const QConvShape& s, const PackedConvWeights& w,
                      const std::int8_t* image, std::int32_t* acc,
                      const QConvScratch& scratch,
                      const QGemmOptions& options) {
  const std::int64_t m = s.out_channels;
  const std::int64_t n = s.plane();
  const std::int64_t k = s.fanin();
  const std::int64_t kk = s.kernel * s.kernel;
  const std::int64_t plane_in = s.height * s.width;
  const std::int64_t out_w = s.out_w();

  ThreadPool& pool = options.pool ? *options.pool : ThreadPool::shared();
  const std::int64_t num_ic = (m + kMC - 1) / kMC;
  const std::int64_t num_jc = (n + kNC - 1) / kNC;
  const std::int64_t num_tiles = num_ic * num_jc;
  const bool parallel = !options.force_serial && pool.num_threads() > 1 &&
                        num_tiles > 1 && m * n * k >= kParallelMinWork;

  for (std::int64_t pc = 0; pc < k; pc += kKC) {
    const std::int64_t kc = std::min(kKC, k - pc);
    const std::int64_t kc4 = quads(kc);
    // B panels straight from the image: generate im2col rows (channel, ky,
    // kx) into rowbuf and pack them into the panel layout — no column
    // matrix ever exists. VNNI packs a K-quad at a time (four rows per
    // vectorized interleave, colsum via vpdpbusd); scalar panels are plain
    // row copies, so the per-row packer suffices.
    auto gen_row = [&](std::int64_t p, std::int8_t* out) {
      const std::int64_t r = pc + p;
      const std::int64_t c = r / kk;
      const std::int64_t rem = r % kk;
      im2col_row_s8(image + c * plane_in, s.height, s.width, out_w, s.stride,
                    s.pad, rem / s.kernel, rem % s.kernel, 0, n, out);
    };
#if DNNV_QGEMM_VNNI
    if constexpr (Vnni) {
      pack_b_quads(kc, n, gen_row, scratch.b_pack, scratch.colsum,
                   scratch.rowbuf);
    } else
#endif
    {
      pack_b_rows<Vnni>(
          kc, n,
          [&](std::int64_t p) {
            gen_row(p, scratch.rowbuf);
            return static_cast<const std::int8_t*>(scratch.rowbuf);
          },
          scratch.b_pack, scratch.colsum);
    }

    const std::uint8_t* a_slice =
        w.panels.data() + static_cast<std::size_t>(pc / kKC) * w.slice_stride;
    auto tile = [&](std::size_t ti) {
      const std::int64_t ic = (static_cast<std::int64_t>(ti) / num_jc) * kMC;
      const std::int64_t jc = (static_cast<std::int64_t>(ti) % num_jc) * kNC;
      const std::int64_t mc = std::min(kMC, m - ic);
      const std::int64_t nc = std::min(kNC, n - jc);
      const std::int32_t* colsum = nullptr;
      if constexpr (Vnni) colsum = scratch.colsum + jc;
      macro_block<Vnni>(mc, nc, kc, a_slice + (ic / kMR) * kc4 * kMR * 4,
                        scratch.b_pack + (jc / kNR) * kc4 * kNR * 4, colsum,
                        acc + ic * n + jc, n);
    };
    if (parallel) {
      pool.parallel_for(static_cast<std::size_t>(num_tiles), tile);
    } else {
      for (std::int64_t ti = 0; ti < num_tiles; ++ti) {
        tile(static_cast<std::size_t>(ti));
      }
    }
  }
}

}  // namespace

PackedConvWeights pack_conv_weights(std::int64_t out_channels,
                                    std::int64_t fanin,
                                    const std::int8_t* weights) {
  PackedConvWeights p;
  p.out_channels = out_channels;
  p.fanin = fanin;
  p.slice_stride = packed_a_slice_bytes(out_channels, kKC);
  std::size_t total = 0;
  for (std::int64_t pc = 0; pc < fanin; pc += kKC) {
    total += packed_a_slice_bytes(out_channels, std::min(kKC, fanin - pc));
  }
  p.panels.resize(total);
  std::size_t off = 0;
  for (std::int64_t pc = 0; pc < fanin; pc += kKC) {
    const std::int64_t kc = std::min(kKC, fanin - pc);
    pack_a<kVnni>(weights, fanin, 0, pc, out_channels, kc,
                  p.panels.data() + off);
    off += packed_a_slice_bytes(out_channels, kc);
  }
  return p;
}

QConvScratchSizes qconv_scratch_sizes(const QConvShape& shape) {
  const std::int64_t n = shape.plane();
  const std::int64_t kc_max = std::min(shape.fanin(), kKC);
  QConvScratchSizes sizes;
  sizes.b_pack = packed_b_slice_bytes(n, kc_max);
  sizes.colsum = static_cast<std::size_t>((n + kNR - 1) / kNR * kNR);
  sizes.rowbuf = static_cast<std::size_t>(4 * n);  // one K-quad of rows
  return sizes;
}

void qconv2d_fused(const QConvShape& shape, const PackedConvWeights& weights,
                   const std::int8_t* image, std::int32_t* acc,
                   const QConvScratch& scratch, const QGemmOptions& options) {
  DNNV_CHECK(weights.matches(shape),
             "packed conv weights do not match the conv shape");
  DNNV_CHECK(shape.fanin() <= 65536,
             "qconv K " << shape.fanin() << " exceeds the int32 overflow bound");
  DNNV_CHECK(scratch.b_pack && scratch.rowbuf && (scratch.colsum || !kVnni),
             "qconv2d_fused called without arena scratch");
  const std::int64_t m = shape.out_channels;
  const std::int64_t n = shape.plane();
  std::fill(acc, acc + m * n, 0);
  if (m == 0 || n == 0 || shape.fanin() == 0) return;
  qconv_fused_impl<kVnni>(shape, weights, image, acc, scratch, options);
}

}  // namespace dnnv::quant
