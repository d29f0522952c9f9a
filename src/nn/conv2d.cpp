#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/workspace.h"
#include "tensor/gemm.h"
#include "tensor/shape.h"
#include "util/error.h"

namespace dnnv::nn {
namespace {

// The direct kernels. The forward pass and the input gradient are
// one-dimensional correlations over a zero-padded copy of one batch item:
// with the copy's rows `wide` floats apart, every tap of the output at wide
// position q = y * wide + x sits at q + (an offset fixed per tap), so a tile
// of consecutive positions reads each tap as one contiguous run and never
// branches on the border. Columns x >= width of the wide plane are junk,
// computed and dropped by store_tile.
//
// A tile is kRows rows by kNR positions. The forward pass's tile is kMR
// output channels by kNR positions, whose accumulators fit the vector
// registers with room to spare: with twice the rows they do not, and how
// many the compiler then spills changes with the surrounding code. The input
// gradient adds one short dot product per tap into each pixel, so its tile
// is kGradRows input channels by kNR positions: the dot products and the
// pixel sums both stay in registers, and the first conv's one or three
// input channels waste few rows.
//
// The weight reduction sums over positions instead, one sequential chain
// per (output channel, tap) pair, so its vectors run across output
// channels: a tile is kTapTile taps by kLanes output channels, and each
// position adds one tap value times that position's kLanes output-gradient
// values, read from a copy transposed to [position][channel].
constexpr std::int64_t kMR = 4;
constexpr std::int64_t kNR = 32;
constexpr std::int64_t kGradRows = 2;
constexpr std::int64_t kLanes = 8;
constexpr std::int64_t kTapTile = 9;

/// The term offset of a pass with one term.
constexpr std::int64_t kNoOffset = 0;

/// acc[r][j] += a[r][i * lda] * src[off[i] + j] for i in [begin, end), in
/// ascending i. Fixed bounds and restrict pointers let the compiler keep the
/// whole accumulator tile in vector registers, as in gemm()'s micro-kernel.
template <std::int64_t kRows>
inline void chain(std::int64_t begin, std::int64_t end, const float* const* a,
                  std::int64_t lda, const std::int64_t* __restrict off,
                  const float* __restrict src, float* __restrict acc) {
  for (std::int64_t i = begin; i < end; ++i) {
    const float* x = src + off[i];
#pragma GCC unroll 8
    for (std::int64_t r = 0; r < kRows; ++r) {
      const float ar = a[r][i * lda];
      float* accr = acc + r * kNR;
      for (std::int64_t j = 0; j < kNR; ++j) accr[j] += ar * x[j];
    }
  }
}

/// One tile of either pass: out[r][j] = 0 + D_0 + D_1 + ... over the terms
/// t in [0, terms), where D_t is the sum over i in [0, n) of
/// a[r][t + i * lda] * src[term_off[t] + off[i] + j]. Each D_t is formed as
/// gemm() forms one C element: a product chain from +0 in ascending i per
/// kGemmKBlock slice, the slice sums added in order. (The forward pass has
/// one term, a dot product over its taps; the input gradient has one per
/// kernel tap, each a dot product over the output channels.) Neither a chain
/// nor a sum of chains is ever -0, so the GEMM's leading 0 + is exact and
/// left out. Rows a caller does not need repeat one it does, which keeps the
/// bounds fixed.
template <std::int64_t kRows>
void tile_dot(const float* const* a, std::int64_t lda, std::int64_t n,
              const std::int64_t* off, const float* src,
              const std::int64_t* term_off, std::int64_t terms, float* out) {
  alignas(64) float acc[kRows * kNR] = {};
  for (std::int64_t t = 0; t < terms; ++t) {
    const float* rows[kRows];
    for (std::int64_t r = 0; r < kRows; ++r) rows[r] = a[r] + t;
    const float* x = src + term_off[t];
    alignas(64) float dot[kRows * kNR] = {};
    chain<kRows>(0, std::min(n, kGemmKBlock), rows, lda, off, x, dot);
    for (std::int64_t i0 = kGemmKBlock; i0 < n; i0 += kGemmKBlock) {
      alignas(64) float slice[kRows * kNR] = {};
      chain<kRows>(i0, std::min(n, i0 + kGemmKBlock), rows, lda, off, x,
                   slice);
      for (std::int64_t e = 0; e < kRows * kNR; ++e) dot[e] += slice[e];
    }
    for (std::int64_t e = 0; e < kRows * kNR; ++e) acc[e] += dot[e];
  }
  std::copy(acc, acc + kRows * kNR, out);
}

/// Hands each run of a tile's lanes (wide positions q0, q0 + 1, ...) that
/// lands on a real column to store(lane, index, count), `index` being the
/// run's offset in the dense [height, width] plane; lanes on junk columns or
/// past the last row are dropped.
template <class Store>
void store_tile(std::int64_t q0, std::int64_t wide, std::int64_t height,
                std::int64_t width, const Store& store) {
  std::int64_t y = q0 / wide;
  std::int64_t x = q0 - y * wide;
  for (std::int64_t lane = 0; lane < kNR && y < height; ++y, x = 0) {
    const std::int64_t run = std::min(kNR - lane, wide - x);
    if (x < width) store(lane, y * width + x, std::min(run, width - x));
    lane += run;
  }
}

/// acc[t][r] += src[off[t] + q] * g[p][r] over the dense output positions p
/// in [p0, p1), in ascending p, where q = oy * wide + ox is the wide
/// position of p = oy * out_w + ox and g[p] holds kLanes floats: one
/// kGemmKBlock slice of the weight reduction, which may start and end
/// mid-row.
template <std::int64_t kTaps>
void reduce_chain(std::int64_t p0, std::int64_t p1, std::int64_t out_w,
                  std::int64_t wide, const std::int64_t* __restrict off,
                  const float* __restrict src, const float* __restrict g,
                  float* __restrict acc) {
  std::int64_t oy = p0 / out_w;
  std::int64_t ox = p0 - oy * out_w;
  for (std::int64_t p = p0; p < p1; ++oy, ox = 0) {
    const std::int64_t run = std::min(p1 - p, out_w - ox);
    const float* x = src + oy * wide + ox;
    const float* gp = g + p * kLanes;
    for (std::int64_t j = 0; j < run; ++j) {
#pragma GCC unroll 16
      for (std::int64_t t = 0; t < kTaps; ++t) {
        const float xt = x[off[t] + j];
        for (std::int64_t r = 0; r < kLanes; ++r) {
          acc[t * kLanes + r] =
              mul_add(xt, gp[j * kLanes + r], acc[t * kLanes + r]);
        }
      }
    }
    p += run;
  }
}

/// The zero-padded copy of a [channels, h, w] item that forward_into and the
/// weight reduction read, in polyphase layout: phase (py, px) of channel c
/// holds padded rows py, py + s, ... and columns px, px + s, ..., so tap
/// (c, ky, kx) of output (oy, ox) is row oy + ky / s, column ox + kx / s of
/// phase (ky % s, kx % s) — unit-stride runs whatever the stride. For s = 1
/// this is the plain padded image. The trailing kNR + k floats are read only
/// by the forward's junk lanes of the last tile.
struct PaddedItem {
  PaddedItem(std::int64_t height, std::int64_t width, const Conv2d::Config& cfg)
      : channels(cfg.in_channels),
        h(height),
        w(width),
        s(cfg.stride),
        pad(cfg.pad),
        wide((w + 2 * pad + s - 1) / s),
        phase((h + 2 * pad + s - 1) / s * wide),
        size(channels * s * s * phase + kNR + cfg.kernel) {}

  /// Offset of tap (c, ky, kx) of output (0, 0).
  std::int64_t tap(std::int64_t c, std::int64_t ky, std::int64_t kx) const {
    return ((c * s + ky % s) * s + kx % s) * phase + ky / s * wide + kx / s;
  }

  /// Writes item `image` (or |image| when `abs`) into the interior of
  /// `padded`, whose border is zero.
  void fill(const float* image, bool abs, float* padded) const {
    for (std::int64_t c = 0; c < channels; ++c) {
      for (std::int64_t iy = 0; iy < h; ++iy) {
        const std::int64_t py = iy + pad;
        float* row = padded + (c * s + py % s) * s * phase + py / s * wide;
        const float* src = image + (c * h + iy) * w;
        for (std::int64_t px = 0; px < s; ++px) {
          std::int64_t ix = ((px - pad) % s + s) % s;  // (ix + pad) % s == px
          float* dst = row + px * phase + (ix + pad) / s;
          for (; ix < w; ix += s) *dst++ = abs ? std::fabs(src[ix]) : src[ix];
        }
      }
    }
  }

  std::int64_t channels, h, w, s, pad, wide, phase, size;
};

}  // namespace

bool Conv2d::valid(const Config& c) {
  return c.in_channels > 0 && c.out_channels > 0 && c.kernel > 0 &&
         c.stride >= 1 && c.stride <= c.kernel && c.pad >= 0 &&
         c.pad < c.kernel;
}

Conv2d::Conv2d(const Config& config, Rng& rng, InitKind init)
    : config_(config),
      weights_(Shape{config.out_channels, col_rows()}),
      bias_(Shape{config.out_channels}),
      weight_grad_(Shape{config.out_channels, col_rows()}),
      bias_grad_(Shape{config.out_channels}) {
  DNNV_CHECK(valid(config), "bad conv config");
  const std::int64_t fan_in = col_rows();
  const std::int64_t fan_out =
      config.out_channels * config.kernel * config.kernel;
  initialize_weights(weights_, init, fan_in, fan_out, rng);
}

void Conv2d::check_input(const Shape& input_shape) const {
  DNNV_CHECK(input_shape.ndim() == 4 && input_shape[1] == config_.in_channels,
             "conv expects [N, " << config_.in_channels << ", H, W], got "
                                 << input_shape);
}

Shape Conv2d::output_shape(const Shape& input_shape) const {
  check_input(input_shape);
  const std::int64_t out_h =
      conv_out_dim(input_shape[2], config_.kernel, config_.stride, config_.pad);
  const std::int64_t out_w =
      conv_out_dim(input_shape[3], config_.kernel, config_.stride, config_.pad);
  return Shape{input_shape[0], config_.out_channels, out_h, out_w};
}

Tensor Conv2d::forward(const Tensor& input) {
  Tensor output(output_shape(input.shape()));
  forward_into(0, input, output, scratch_ws_);
  cached_input_ = input;
  input_view_ = nullptr;
  return output;
}

void Conv2d::forward_into(std::size_t index, const Tensor& input,
                          Tensor& output, Workspace& ws) {
  const Shape out_shape = output_shape(input.shape());
  const std::int64_t n = input.shape()[0];
  const std::int64_t channels = config_.in_channels;
  const std::int64_t h = input.shape()[2];
  const std::int64_t w = input.shape()[3];
  const std::int64_t k = config_.kernel;
  const std::int64_t out_h = out_shape[2];
  const std::int64_t out_w = out_shape[3];
  cached_out_h_ = out_h;
  cached_out_w_ = out_w;

  const PaddedItem layout(h, w, config_);
  Tensor& padded = ws.zeroed(index, kSlotScratch0, Shape{layout.size});
  offsets_.resize(static_cast<std::size_t>(col_rows()));
  for (std::int64_t c = 0, t = 0; c < channels; ++c) {
    for (std::int64_t ky = 0; ky < k; ++ky) {
      for (std::int64_t kx = 0; kx < k; ++kx, ++t) {
        offsets_[static_cast<std::size_t>(t)] = layout.tap(c, ky, kx);
      }
    }
  }

  const std::int64_t out_c = config_.out_channels;
  const std::int64_t out_plane = out_h * out_w;
  const std::int64_t positions = out_h * layout.wide;
  for (std::int64_t i = 0; i < n; ++i) {
    layout.fill(input.data() + i * channels * h * w, /*abs=*/false,
                padded.data());
    float* out = output.data() + i * out_c * out_plane;
    for (std::int64_t oc0 = 0; oc0 < out_c; oc0 += kMR) {
      const std::int64_t rows = std::min(kMR, out_c - oc0);
      const float* a[kMR];
      for (std::int64_t r = 0; r < kMR; ++r) {
        a[r] = weights_.data() + (oc0 + std::min(r, rows - 1)) * col_rows();
      }
      for (std::int64_t q0 = 0; q0 < positions; q0 += kNR) {
        alignas(64) float tile[kMR * kNR];
        tile_dot<kMR>(a, 1, col_rows(), offsets_.data(), padded.data() + q0,
                      &kNoOffset, 1, tile);
        store_tile(q0, layout.wide, out_h, out_w,
                   [&](std::int64_t lane, std::int64_t at, std::int64_t len) {
                     for (std::int64_t r = 0; r < rows; ++r) {
                       const float* acc = tile + r * kNR + lane;
                       float* dst = out + (oc0 + r) * out_plane + at;
                       const float b = bias_[oc0 + r];
                       for (std::int64_t m = 0; m < len; ++m) {
                         dst[m] = acc[m] + b;
                       }
                     }
                   });
      }
    }
  }
  input_view_ = &input;
}

// The weight reduction: weight_grad_[oc][t] += S_0 + S_1 + ..., added in
// order, where S_b chains g[oc][p] * x_t[p] from +0 over the output
// positions p of block [b * kGemmKBlock, (b + 1) * kGemmKBlock) — what
// gemm(beta = 1) adds for dy [out_c, P] times the im2col columns'
// transpose, each column x_t read in place as tap t of the padded item.
// Lanes past the last output channel and taps past the last one repeat
// real ones and are dropped.
void Conv2d::reduce_params(std::size_t index, std::int64_t item,
                           const float* g, bool abs_input, Workspace& ws) {
  const std::int64_t channels = config_.in_channels;
  const std::int64_t h = input().shape()[2];
  const std::int64_t w = input().shape()[3];
  const std::int64_t k = config_.kernel;
  const std::int64_t out_c = config_.out_channels;
  const std::int64_t taps = col_rows();
  const std::int64_t positions = cached_out_h_ * cached_out_w_;
  const PaddedItem layout(h, w, config_);
  Tensor& padded = ws.zeroed(index, kSlotScratch0, Shape{layout.size});
  layout.fill(input().data() + item * channels * h * w, abs_input,
              padded.data());

  // g transposed to [group][p][lane], lane r of group b being channel
  // b * kLanes + r.
  const std::int64_t groups = (out_c + kLanes - 1) / kLanes;
  Tensor& gt =
      ws.buffer(index, kSlotScratch2, Shape{groups * positions * kLanes});
  for (std::int64_t b = 0; b < groups; ++b) {
    const float* src[kLanes];
    for (std::int64_t r = 0; r < kLanes; ++r) {
      src[r] = g + std::min(b * kLanes + r, out_c - 1) * positions;
    }
    float* dst = gt.data() + b * positions * kLanes;
    for (std::int64_t p = 0; p < positions; ++p) {
      for (std::int64_t r = 0; r < kLanes; ++r) dst[p * kLanes + r] = src[r][p];
    }
  }

  for (std::int64_t b = 0; b < groups; ++b) {
    const std::int64_t rows = std::min(kLanes, out_c - b * kLanes);
    const float* gb = gt.data() + b * positions * kLanes;
    // Each bias sums its channel's positions as one chain from +0; the
    // group's kLanes chains run side by side.
    float sums[kLanes] = {};
    for (std::int64_t p = 0; p < positions; ++p) {
      for (std::int64_t r = 0; r < kLanes; ++r) sums[r] += gb[p * kLanes + r];
    }
    for (std::int64_t r = 0; r < rows; ++r) bias_grad_[b * kLanes + r] += sums[r];

    for (std::int64_t t0 = 0; t0 < taps; t0 += kTapTile) {
      const std::int64_t count = std::min(kTapTile, taps - t0);
      std::int64_t off[kTapTile];
      for (std::int64_t t = 0; t < kTapTile; ++t) {
        const std::int64_t tap = t0 + std::min(t, count - 1);
        off[t] = layout.tap(tap / (k * k), tap / k % k, tap % k);
      }
      for (std::int64_t p0 = 0; p0 < positions; p0 += kGemmKBlock) {
        alignas(64) float slice[kTapTile * kLanes] = {};
        reduce_chain<kTapTile>(p0, std::min(positions, p0 + kGemmKBlock),
                               cached_out_w_, layout.wide, off,
                               padded.data(), gb, slice);
        for (std::int64_t r = 0; r < rows; ++r) {
          float* dst = weight_grad_.data() + (b * kLanes + r) * taps + t0;
          for (std::int64_t t = 0; t < count; ++t) {
            dst[t] += slice[t * kLanes + r];
          }
        }
      }
    }
  }
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  const std::int64_t n = input().shape()[0];
  DNNV_CHECK(grad_output.shape() ==
                 Shape({n, config_.out_channels, cached_out_h_, cached_out_w_}),
             "grad_output shape " << grad_output.shape() << " unexpected");
  const std::int64_t out_stride =
      config_.out_channels * cached_out_h_ * cached_out_w_;
  for (std::int64_t i = 0; i < n; ++i) {
    reduce_params(0, i, grad_output.data() + i * out_stride,
                  /*abs_input=*/false, scratch_ws_);
  }
  Tensor grad_input(input().shape());
  backward_into(0, grad_output, grad_input, scratch_ws_);
  return grad_input;
}

void Conv2d::backward_into(std::size_t index, const Tensor& grad_output,
                           Tensor& grad_input, Workspace& ws) {
  const std::int64_t n = input().shape()[0];
  DNNV_CHECK(grad_output.shape() ==
                 Shape({n, config_.out_channels, cached_out_h_, cached_out_w_}),
             "grad_output shape " << grad_output.shape() << " unexpected");
  input_gradient(index, weights_.data(), grad_output.data(), n,
                 grad_input.data(), ws);
}

void Conv2d::input_gradient(std::size_t index, const float* weights,
                            const float* dy, std::int64_t items, float* grad,
                            Workspace& ws) {
  const std::int64_t channels = config_.in_channels;
  const std::int64_t h = input().shape()[2];
  const std::int64_t w = input().shape()[3];
  const std::int64_t k = config_.kernel;
  const std::int64_t s = config_.stride;
  const std::int64_t out_c = config_.out_channels;
  const std::int64_t out_h = cached_out_h_;
  const std::int64_t out_w = cached_out_w_;
  const std::int64_t out_plane = out_h * out_w;

  // The transposed convolution as a unit-stride correlation: each item's
  // output gradient spread over a zero plane of `wide`-float rows,
  // dy[oc][oy][ox] at row oy * s + lead, column ox * s + lead, so tap
  // (ky, kx) of input pixel (iy, ix) is row iy + k-1-ky, column
  // ix + k-1-kx of every channel's plane. A tap no output reaches reads
  // zeros and adds exactly +0, where col2im skipped it.
  const std::int64_t wide = w + k - 1;
  const std::int64_t plane = (h + k - 1) * wide;
  const std::int64_t lead = k - 1 - config_.pad;
  Tensor& spread =
      ws.zeroed(index, kSlotScratch1, Shape{out_c * plane + kNR + k});
  // Offsets of each output channel's plane, then of each tap (ky, kx).
  offsets_.resize(static_cast<std::size_t>(out_c + k * k));
  for (std::int64_t oc = 0; oc < out_c; ++oc) {
    offsets_[static_cast<std::size_t>(oc)] = oc * plane;
  }
  const std::int64_t* tap_off = offsets_.data() + out_c;
  for (std::int64_t ky = 0, t = out_c; ky < k; ++ky) {
    for (std::int64_t kx = 0; kx < k; ++kx, ++t) {
      offsets_[static_cast<std::size_t>(t)] =
          (k - 1 - ky) * wide + (k - 1 - kx);
    }
  }
  // Outputs whose spread row and column o * s + lead lie inside the plane,
  // i.e. o * s in [-lead, h + pad) and [-lead, w + pad); the rest reach no
  // input pixel.
  const std::int64_t o0 = lead >= 0 ? 0 : (s - 1 - lead) / s;
  const std::int64_t oy1 = std::min(out_h, (h + config_.pad + s - 1) / s);
  const std::int64_t ox1 = std::min(out_w, (w + config_.pad + s - 1) / s);

  const std::int64_t in_plane = h * w;
  const std::int64_t positions = h * wide;
  for (std::int64_t i = 0; i < items; ++i) {
    const float* dy_i = dy + i * out_c * out_plane;
    for (std::int64_t oc = 0; oc < out_c; ++oc) {
      for (std::int64_t oy = o0; oy < oy1; ++oy) {
        const float* src = dy_i + oc * out_plane + oy * out_w;
        float* row = spread.data() + oc * plane + (oy * s + lead) * wide + lead;
        for (std::int64_t ox = o0; ox < ox1; ++ox) row[ox * s] = src[ox];
      }
    }

    float* grad_i = grad + i * channels * in_plane;
    for (std::int64_t c0 = 0; c0 < channels; c0 += kGradRows) {
      const std::int64_t rows = std::min(kGradRows, channels - c0);
      const float* a[kGradRows];
      for (std::int64_t r = 0; r < kGradRows; ++r) {
        a[r] = weights + (c0 + std::min(r, rows - 1)) * k * k;
      }
      for (std::int64_t q0 = 0; q0 < positions; q0 += kNR) {
        // Each pixel adds its taps' dot products over the output channels
        // in (ky, kx) order, as col2im added the GEMM's column gradients.
        alignas(64) float tile[kGradRows * kNR];
        tile_dot<kGradRows>(a, col_rows(), out_c, offsets_.data(),
                            spread.data() + q0, tap_off, k * k, tile);
        store_tile(q0, wide, h, w,
                   [&](std::int64_t lane, std::int64_t at, std::int64_t len) {
                     for (std::int64_t r = 0; r < rows; ++r) {
                       std::memcpy(grad_i + (c0 + r) * in_plane + at,
                                   tile + r * kNR + lane,
                                   static_cast<std::size_t>(len) * sizeof(float));
                     }
                   });
      }
    }
  }
}

// The weight and bias sensitivities of one item: the sum over all positions
// of |input tap| * sensitivity, which is zero iff no tap can propagate.
// `sens_output` is the item's [1, out_c, outH, outW] sensitivity.
void Conv2d::parameter_sensitivity_item(std::size_t index, std::int64_t item,
                                        const Tensor& sens_output,
                                        Workspace& ws) {
  DNNV_CHECK(item >= 0 && item < input().shape()[0],
             "item " << item << " outside cached batch");
  DNNV_CHECK(sens_output.shape() ==
                 Shape({1, config_.out_channels, cached_out_h_, cached_out_w_}),
             "per-item sens_output shape " << sens_output.shape()
                                           << " unexpected");
  reduce_params(index, item, sens_output.data(), /*abs_input=*/true, ws);
}

// The parameter sensitivities, then the input sensitivity [1, C, H, W]: the
// input gradient through |W|.
void Conv2d::sensitivity_backward_item(std::size_t index, std::int64_t item,
                                       const Tensor& sens_output,
                                       Tensor& sens_input, Workspace& ws) {
  Conv2d::parameter_sensitivity_item(index, item, sens_output, ws);
  Tensor& abs_weights = ws.buffer(index, kSlotScratch3, weights_.shape());
  for (std::int64_t e = 0; e < weights_.numel(); ++e) {
    abs_weights[e] = std::fabs(weights_[e]);
  }
  input_gradient(index, abs_weights.data(), sens_output.data(), 1,
                 sens_input.data(), ws);
}

std::vector<ParamView> Conv2d::param_views() {
  return {
      {name() + ".weight", weights_.data(), weight_grad_.data(),
       weights_.numel(), /*is_bias=*/false},
      {name() + ".bias", bias_.data(), bias_grad_.data(), bias_.numel(),
       /*is_bias=*/true},
  };
}

std::unique_ptr<Layer> Conv2d::clone() const {
  auto copy = std::unique_ptr<Conv2d>(new Conv2d());
  copy->config_ = config_;
  copy->weights_ = weights_;
  copy->bias_ = bias_;
  copy->weight_grad_ = Tensor(weight_grad_.shape());
  copy->bias_grad_ = Tensor(bias_grad_.shape());
  copy->set_name(name());
  return copy;
}

void Conv2d::save(ByteWriter& writer) const {
  writer.write_string(kind());
  writer.write_i64(config_.in_channels);
  writer.write_i64(config_.out_channels);
  writer.write_i64(config_.kernel);
  writer.write_i64(config_.stride);
  writer.write_i64(config_.pad);
  writer.write_f32_array(weights_.data(), static_cast<std::size_t>(weights_.numel()));
  writer.write_f32_array(bias_.data(), static_cast<std::size_t>(bias_.numel()));
}

std::unique_ptr<Conv2d> Conv2d::load(ByteReader& reader) {
  auto layer = std::unique_ptr<Conv2d>(new Conv2d());
  layer->config_.in_channels = reader.read_i64();
  layer->config_.out_channels = reader.read_i64();
  layer->config_.kernel = reader.read_i64();
  layer->config_.stride = reader.read_i64();
  layer->config_.pad = reader.read_i64();
  DNNV_CHECK(valid(layer->config_), "corrupt conv config");
  const Config& c = layer->config_;
  const auto w = reader.read_f32_array(reader.geometry_count(
      {c.out_channels, c.in_channels, c.kernel, c.kernel}, sizeof(float)));
  layer->weights_ = Tensor(Shape{c.out_channels, layer->col_rows()}, w);
  const auto b = reader.read_f32_array(
      static_cast<std::size_t>(layer->config_.out_channels));
  layer->bias_ = Tensor(Shape{layer->config_.out_channels}, b);
  layer->weight_grad_ = Tensor(layer->weights_.shape());
  layer->bias_grad_ = Tensor(layer->bias_.shape());
  return layer;
}

}  // namespace dnnv::nn
