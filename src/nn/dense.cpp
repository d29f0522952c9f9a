#include "nn/dense.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "nn/workspace.h"
#include "tensor/gemm.h"
#include "util/error.h"

namespace dnnv::nn {
namespace {

// The direct kernels form each output as gemm() forms one C element:
// 0 + S_0 + S_1 + ..., S_b a mul_add chain from +0 over the terms of the
// kGemmKBlock slice b, in ascending order. A tile is kRows chains by kLanes
// lanes over contiguous floats: output units by items in the forward pass
// (the lanes read a transposed copy of the batch), items by input features
// in the input gradient (the lanes read W's rows in place).
constexpr std::int64_t kRows = 8;
constexpr std::int64_t kLanes = 16;

/// tile[r][l] = the sum over t in [0, terms) of a[r][t] * b[t * ldb + l], in
/// gemm()'s order. Rows a caller does not need repeat one it does, which
/// keeps the bounds fixed.
void dot_tile(const float* const* a, const float* __restrict b,
              std::int64_t ldb, std::int64_t terms, float* __restrict tile) {
  std::fill(tile, tile + kRows * kLanes, 0.0f);
  for (std::int64_t t0 = 0; t0 < terms; t0 += kGemmKBlock) {
    const std::int64_t t1 = std::min(terms, t0 + kGemmKBlock);
    alignas(64) float slice[kRows * kLanes] = {};
    for (std::int64_t t = t0; t < t1; ++t) {
      const float* bt = b + t * ldb;
#pragma GCC unroll 8
      for (std::int64_t r = 0; r < kRows; ++r) {
        const float ar = a[r][t];
        float* acc = slice + r * kLanes;
        for (std::int64_t l = 0; l < kLanes; ++l) {
          acc[l] = mul_add(ar, bt[l], acc[l]);
        }
      }
    }
    for (std::int64_t e = 0; e < kRows * kLanes; ++e) tile[e] += slice[e];
  }
}

/// The kRows row pointers of a tile starting at row `first` of a row-major
/// matrix with `count` rows of `stride` floats.
void tile_rows(const float* matrix, std::int64_t first, std::int64_t count,
               std::int64_t stride, const float** rows) {
  for (std::int64_t r = 0; r < kRows; ++r) {
    rows[r] = matrix + (first + std::min(r, count - first - 1)) * stride;
  }
}

}  // namespace

Dense::Dense(std::int64_t in_features, std::int64_t out_features, Rng& rng,
             InitKind init)
    : in_features_(in_features),
      out_features_(out_features),
      weights_(Shape{out_features, in_features}),
      bias_(Shape{out_features}),
      weight_grad_(Shape{out_features, in_features}),
      bias_grad_(Shape{out_features}) {
  DNNV_CHECK(in_features > 0 && out_features > 0,
             "dense dims must be positive, got " << in_features << " -> "
                                                 << out_features);
  initialize_weights(weights_, init, in_features, out_features, rng);
}

Shape Dense::output_shape(const Shape& input_shape) const {
  DNNV_CHECK(input_shape.ndim() == 2 && input_shape[1] == in_features_,
             "dense expects [N, " << in_features_ << "], got " << input_shape);
  return Shape{input_shape[0], out_features_};
}

Tensor Dense::forward(const Tensor& input) {
  Tensor output(output_shape(input.shape()));
  Workspace scratch;
  forward_into(0, input, output, scratch);
  cached_input_ = input;
  input_view_ = nullptr;
  return output;
}

// y[i][j] = (0 + S_0 + S_1 + ...) + b[j], the S_b chaining x[i][p] * W[j][p]:
// gemm(x, Wᵀ) followed by the bias.
void Dense::forward_into(std::size_t index, const Tensor& input, Tensor& output,
                         Workspace& ws) {
  DNNV_CHECK(input.shape().ndim() == 2 && input.shape()[1] == in_features_,
             "dense expects [N, " << in_features_ << "], got " << input.shape());
  input_view_ = &input;
  const std::int64_t n = input.shape()[0];
  const std::int64_t k = in_features_;
  const std::int64_t units = out_features_;
  // The batch as [k][ld], each feature's items side by side, zero-padded to
  // whole tiles.
  const std::int64_t ld = (n + kLanes - 1) / kLanes * kLanes;
  float* xt = ws.buffer(index, kSlotScratch0, Shape{k * ld}).data();
  const float* x = input.data();
  for (std::int64_t p = 0; p < k; ++p) {
    float* row = xt + p * ld;
    for (std::int64_t i = 0; i < n; ++i) row[i] = x[i * k + p];
    std::fill(row + n, row + ld, 0.0f);
  }
  float* y = output.data();
  for (std::int64_t j0 = 0; j0 < units; j0 += kRows) {
    const float* a[kRows];
    tile_rows(weights_.data(), j0, units, k, a);
    const std::int64_t rows = std::min(kRows, units - j0);
    for (std::int64_t i0 = 0; i0 < n; i0 += kLanes) {
      alignas(64) float tile[kRows * kLanes];
      dot_tile(a, xt + i0, ld, k, tile);
      for (std::int64_t l = 0; l < std::min(kLanes, n - i0); ++l) {
        float* y_row = y + (i0 + l) * units + j0;
        for (std::int64_t r = 0; r < rows; ++r) {
          y_row[r] = tile[r * kLanes + l] + bias_[j0 + r];
        }
      }
    }
  }
}

Tensor Dense::backward(const Tensor& grad_output) {
  const Tensor& x = input();
  const std::int64_t n = x.shape()[0];
  DNNV_CHECK(grad_output.shape() == Shape({n, out_features_}),
             "grad_output shape " << grad_output.shape() << " unexpected");
  // dW[out,in] += dy^T[out,N] * x[N,in]
  gemm(true, false, out_features_, in_features_, n, 1.0f, grad_output.data(),
       x.data(), 1.0f, weight_grad_.data());
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = grad_output.data() + i * out_features_;
    for (std::int64_t j = 0; j < out_features_; ++j) bias_grad_[j] += row[j];
  }
  Tensor grad_input(x.shape());
  Workspace scratch;
  backward_into(0, grad_output, grad_input, scratch);
  return grad_input;
}

// dx[i][p] = 0 + S_0 + S_1 + ..., the S_b chaining dy[i][j] * W[j][p]:
// gemm(dy, W).
void Dense::backward_into(std::size_t index, const Tensor& grad_output,
                          Tensor& grad_input, Workspace& ws) {
  const std::int64_t n = input().shape()[0];
  DNNV_CHECK(grad_output.shape() == Shape({n, out_features_}),
             "grad_output shape " << grad_output.shape() << " unexpected");
  const std::int64_t k = in_features_;
  const std::int64_t units = out_features_;
  const float* w = weights_.data();
  // A last lane group that would run past W's rows reads a zero-padded copy
  // of those columns instead.
  const std::int64_t whole = k / kLanes * kLanes;
  const float* tail = nullptr;
  if (whole < k) {
    float* copy = ws.zeroed(index, kSlotScratch1, Shape{units * kLanes}).data();
    for (std::int64_t j = 0; j < units; ++j) {
      std::copy(w + j * k + whole, w + (j + 1) * k, copy + j * kLanes);
    }
    tail = copy;
  }
  // Item tiles run inside column groups, so each group of W's columns is
  // read from memory once.
  for (std::int64_t p0 = 0; p0 < k; p0 += kLanes) {
    const auto lanes = static_cast<std::size_t>(std::min(kLanes, k - p0));
    for (std::int64_t i0 = 0; i0 < n; i0 += kRows) {
      const float* a[kRows];
      tile_rows(grad_output.data(), i0, n, units, a);
      alignas(64) float tile[kRows * kLanes];
      if (p0 < whole) {
        dot_tile(a, w + p0, k, units, tile);
      } else {
        dot_tile(a, tail, kLanes, units, tile);
      }
      for (std::int64_t r = 0; r < std::min(kRows, n - i0); ++r) {
        std::memcpy(grad_input.data() + (i0 + r) * k + p0, tile + r * kLanes,
                    lanes * sizeof(float));
      }
    }
  }
}

void Dense::check_item(std::int64_t item, const Tensor& sens_output) const {
  DNNV_CHECK(item >= 0 && item < input().shape()[0],
             "item " << item << " outside cached batch");
  DNNV_CHECK(sens_output.shape() == Shape({1, out_features_}),
             "per-item sens_output shape " << sens_output.shape()
                                           << " unexpected");
}

void Dense::sensitivity_backward_item(std::size_t, std::int64_t item,
                                      const Tensor& sens_output,
                                      Tensor& sens_input, Workspace&) {
  check_item(item, sens_output);
  sens_input.fill(0.0f);
  sensitivity_item(item, sens_output.data(), sens_input.data());
}

void Dense::parameter_sensitivity_item(std::size_t, std::int64_t item,
                                       const Tensor& sens_output, Workspace&) {
  check_item(item, sens_output);
  sensitivity_item(item, sens_output.data(), nullptr);
}

void Dense::sensitivity_item(std::int64_t item, const float* s_row,
                             float* out_row) {
  // Same dataflow as backward, with |x| and |W|. A weight w_ji can propagate a
  // perturbation iff its input x_i is non-zero AND the output j is sensitive;
  // summing |s_j|·|x_i| (instead of the signed product) cannot cancel, so a
  // zero sensitivity means "no propagation path" exactly.
  const float* x_row = input().data() + item * in_features_;
  for (std::int64_t j = 0; j < out_features_; ++j) {
    const float s = s_row[j];
    if (s == 0.0f) continue;
    float* wg_row = weight_grad_.data() + j * in_features_;
    for (std::int64_t k = 0; k < in_features_; ++k) {
      wg_row[k] += s * std::fabs(x_row[k]);
    }
    bias_grad_[j] += s;
    if (out_row == nullptr) continue;
    // Input sensitivity: ŝ_i = Σ_j |W_ji| s_j.
    const float* w_row = weights_.data() + j * in_features_;
    for (std::int64_t k = 0; k < in_features_; ++k) {
      out_row[k] += s * std::fabs(w_row[k]);
    }
  }
}

std::vector<ParamView> Dense::param_views() {
  return {
      {name() + ".weight", weights_.data(), weight_grad_.data(),
       weights_.numel(), /*is_bias=*/false},
      {name() + ".bias", bias_.data(), bias_grad_.data(), bias_.numel(),
       /*is_bias=*/true},
  };
}

std::unique_ptr<Layer> Dense::clone() const {
  auto copy = std::unique_ptr<Dense>(new Dense());
  copy->in_features_ = in_features_;
  copy->out_features_ = out_features_;
  copy->weights_ = weights_;
  copy->bias_ = bias_;
  copy->weight_grad_ = Tensor(Shape{out_features_, in_features_});
  copy->bias_grad_ = Tensor(Shape{out_features_});
  copy->set_name(name());
  return copy;
}

void Dense::save(ByteWriter& writer) const {
  writer.write_string(kind());
  writer.write_i64(in_features_);
  writer.write_i64(out_features_);
  writer.write_f32_array(weights_.data(), static_cast<std::size_t>(weights_.numel()));
  writer.write_f32_array(bias_.data(), static_cast<std::size_t>(bias_.numel()));
}

std::unique_ptr<Dense> Dense::load(ByteReader& reader) {
  auto layer = std::unique_ptr<Dense>(new Dense());
  layer->in_features_ = reader.read_i64();
  layer->out_features_ = reader.read_i64();
  DNNV_CHECK(layer->in_features_ > 0 && layer->out_features_ > 0,
             "corrupt dense dims");
  const auto w = reader.read_f32_array(reader.geometry_count(
      {layer->out_features_, layer->in_features_}, sizeof(float)));
  layer->weights_ = Tensor(Shape{layer->out_features_, layer->in_features_}, w);
  const auto b = reader.read_f32_array(static_cast<std::size_t>(layer->out_features_));
  layer->bias_ = Tensor(Shape{layer->out_features_}, b);
  layer->weight_grad_ = Tensor(Shape{layer->out_features_, layer->in_features_});
  layer->bias_grad_ = Tensor(Shape{layer->out_features_});
  return layer;
}

}  // namespace dnnv::nn
