#include "ip/systolic.h"

#include <algorithm>

#include "nn/conv2d.h"
#include "nn/dense.h"
#include "util/error.h"

namespace dnnv::ip {
namespace {

/// Cycles to run an [m x k] x [k x n] GEMM on an rows x cols array,
/// weight-stationary tiling: ceil(k/rows) * ceil(n/cols) tiles, each
/// streaming m activations plus pipeline fill.
std::int64_t gemm_cycles(std::int64_t m, std::int64_t n, std::int64_t k,
                         const SystolicConfig& config) {
  const std::int64_t k_tiles = (k + config.rows - 1) / config.rows;
  const std::int64_t n_tiles = (n + config.cols - 1) / config.cols;
  const std::int64_t per_tile = m + config.tile_overhead_cycles;
  return k_tiles * n_tiles * per_tile;
}

}  // namespace

ModelCost estimate_cost(const nn::Sequential& model, const Shape& item_shape,
                        const SystolicConfig& config) {
  DNNV_CHECK(config.rows > 0 && config.cols > 0, "bad array geometry");
  DNNV_CHECK(config.memory_bytes_per_cycle > 0, "bad memory bandwidth");

  ModelCost cost;
  std::vector<std::int64_t> dims;
  dims.push_back(1);
  dims.insert(dims.end(), item_shape.dims().begin(), item_shape.dims().end());
  Shape shape{dims};

  for (std::size_t li = 0; li < model.num_layers(); ++li) {
    const nn::Layer& layer = model.layer(li);
    const Shape out_shape = layer.output_shape(shape);
    LayerCost entry;
    entry.name = layer.name();

    if (layer.kind() == "conv2d") {
      const auto& conv = static_cast<const nn::Conv2d&>(layer);
      const auto& c = conv.config();
      const std::int64_t k = c.in_channels * c.kernel * c.kernel;
      const std::int64_t out_plane = out_shape[2] * out_shape[3];
      entry.macs = k * c.out_channels * out_plane;
      entry.weight_bytes = k * c.out_channels;  // int8: 1 byte/weight
      entry.compute_cycles = gemm_cycles(out_plane, c.out_channels, k, config);
      entry.memory_cycles = static_cast<std::int64_t>(
          static_cast<double>(entry.weight_bytes) / config.memory_bytes_per_cycle);
    } else if (layer.kind() == "dense") {
      const auto& dense = static_cast<const nn::Dense&>(layer);
      entry.macs = dense.in_features() * dense.out_features();
      entry.weight_bytes = entry.macs;
      entry.compute_cycles =
          gemm_cycles(1, dense.out_features(), dense.in_features(), config);
      entry.memory_cycles = static_cast<std::int64_t>(
          static_cast<double>(entry.weight_bytes) / config.memory_bytes_per_cycle);
    } else {
      // Elementwise / pooling / reshape: one lane-row of elements per cycle.
      entry.compute_cycles = (out_shape.numel() + config.rows - 1) / config.rows;
      entry.memory_cycles = 0;
    }
    entry.cycles = std::max(entry.compute_cycles, entry.memory_cycles);
    cost.total_cycles += entry.cycles;
    cost.total_macs += static_cast<double>(entry.macs);
    cost.layers.push_back(std::move(entry));
    shape = out_shape;
  }
  return cost;
}

std::int64_t suite_replay_cycles(const ModelCost& cost,
                                 const SystolicConfig& config, int num_tests) {
  DNNV_CHECK(num_tests >= 0, "negative test count");
  if (num_tests == 0) return 0;
  // First inference pays the weight streaming; subsequent replays are
  // compute-bound (weights resident on-chip / in local buffers).
  std::int64_t first = 0;
  std::int64_t steady = 0;
  for (const auto& layer : cost.layers) {
    first += layer.cycles;
    steady += std::max<std::int64_t>(layer.compute_cycles, 1);
  }
  (void)config;
  return first + static_cast<std::int64_t>(num_tests - 1) * steady;
}

}  // namespace dnnv::ip
