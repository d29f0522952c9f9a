// Small random networks and probe inputs shared by the engine tests
// (quant_test) and the range-analysis tests (analysis_test).
//
// random_conv_cases() is a fixed table of conv and pool geometries the
// trained zoo lacks — stride 2 into a 1x1, unpadded odd planes with a pool in
// between, a 5x5 "same" conv into a 2x2 stride-2 kernel, overlapping 3x3
// stride-2 and 2x2 stride-1 pools — so every suite that walks conv geometry
// (the int8 oracle, the affine domain, the float layer references) covers
// the same ones.
#ifndef DNNV_TESTS_TEST_NETS_H_
#define DNNV_TESTS_TEST_NETS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/activation_layer.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/maxpool2d.h"
#include "nn/normalize.h"
#include "nn/sequential.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace dnnv::test_nets {

/// `count` items of `shape`, uniform in [-1, 1].
inline std::vector<Tensor> probe_pool(int count, const Shape& shape,
                                      std::uint64_t seed = 3) {
  Rng rng(seed);
  std::vector<Tensor> pool;
  for (int i = 0; i < count; ++i) {
    pool.push_back(Tensor::rand_uniform(shape, rng, -1.0f, 1.0f));
  }
  return pool;
}

/// A small random conv net over [channels, height, width] inputs: one
/// conv block per entry of `convs` (conv, activation, and after conv
/// `pool_after` a pool_kernel x pool_kernel maxpool of stride pool_stride),
/// then flatten, a hidden dense layer and the logit layer. Biases are
/// randomized too, so the bias path carries non-zero codes.
inline nn::Sequential random_conv_net(
    std::int64_t channels, std::int64_t height, std::int64_t width,
    const std::vector<nn::Conv2d::Config>& convs, std::int64_t pool_after,
    bool normalize, nn::ActivationKind activation, std::uint64_t seed,
    std::int64_t pool_kernel = 2, std::int64_t pool_stride = 2) {
  Rng rng(seed);
  nn::Sequential model;
  if (normalize) model.add(std::make_unique<nn::Normalize>(0.25f, 0.5f));
  for (std::size_t i = 0; i < convs.size(); ++i) {
    model.add(std::make_unique<nn::Conv2d>(convs[i], rng));
    model.add(std::make_unique<nn::ActivationLayer>(activation));
    if (static_cast<std::int64_t>(i) == pool_after) {
      model.add(std::make_unique<nn::MaxPool2d>(pool_kernel, pool_stride));
    }
  }
  model.add(std::make_unique<nn::Flatten>());
  const Shape flat = model.output_shape(Shape{1, channels, height, width});
  model.add(std::make_unique<nn::Dense>(flat[1], 6, rng));
  model.add(std::make_unique<nn::ActivationLayer>(activation));
  model.add(std::make_unique<nn::Dense>(6, 4, rng));
  for (nn::ParamView& view : model.param_views()) {
    if (!view.is_bias) continue;
    for (std::int64_t i = 0; i < view.size; ++i) {
      view.data[i] = static_cast<float>(rng.uniform(-0.5, 0.5));
    }
  }
  return model;
}

/// One random_conv_net geometry plus the seed of its weights and probes.
struct RandomConvCase {
  const char* name;
  std::int64_t c, h, w;
  std::vector<nn::Conv2d::Config> convs;
  std::int64_t pool_after;  ///< conv index followed by the maxpool
  bool normalize;
  nn::ActivationKind activation;
  std::uint64_t seed;
  std::int64_t pool_kernel = 2;
  std::int64_t pool_stride = 2;

  nn::Sequential model() const {
    return random_conv_net(c, h, w, convs, pool_after, normalize, activation,
                           seed, pool_kernel, pool_stride);
  }
  std::vector<Tensor> probes() const {
    return probe_pool(9, Shape{c, h, w}, seed);
  }
};

inline std::vector<RandomConvCase> random_conv_cases() {
  using nn::ActivationKind;
  return {
      // stride 2 on an odd plane, then a 1x1 conv
      {"stride2+1x1", 2, 9, 7, {{2, 4, 3, 2, 1}, {4, 5, 1, 1, 0}}, 1, true,
       ActivationKind::kReLU, 41},
      // no padding (out_w != width), odd plane, pooled in between
      {"nopad", 3, 11, 9, {{3, 4, 3, 1, 0}, {4, 3, 3, 1, 0}}, 0, false,
       ActivationKind::kTanh, 42},
      // 5x5 "same" conv into a strided even kernel
      {"5x5+2x2s2", 1, 10, 10, {{1, 3, 5, 1, 2}, {3, 4, 2, 2, 0}}, -1, true,
       ActivationKind::kReLU, 43},
      // overlapping 3x3 stride-2 pool windows on an odd 13x11 plane
      {"pool3x3s2", 2, 13, 11, {{2, 4, 3, 1, 1}, {4, 3, 3, 1, 1}}, 0, true,
       ActivationKind::kReLU, 44, 3, 2},
      // 2x2 stride-1 pool: every interior value sits in four windows
      {"pool2x2s1", 1, 8, 9, {{1, 3, 3, 1, 1}, {3, 2, 3, 2, 0}}, 0, false,
       ActivationKind::kTanh, 45, 2, 1},
  };
}

}  // namespace dnnv::test_nets

#endif  // DNNV_TESTS_TEST_NETS_H_
