// Reusable buffer arena for the batched execution engine.
//
// A Workspace owns the per-layer activation and scratch tensors of one model
// instance so the batched forward / backward / sensitivity passes stop
// allocating per call: buffers are keyed by (layer index, slot) and resized
// in place, which reuses the underlying storage once the workspace has been
// warmed up on a batch shape. A Workspace is bound to one (model, thread)
// pair — it is exactly as thread-unsafe as the Sequential it serves; clone
// the model AND create a fresh Workspace per worker.
#ifndef DNNV_NN_WORKSPACE_H_
#define DNNV_NN_WORKSPACE_H_

#include <cstdint>
#include <unordered_map>

#include "tensor/tensor.h"

namespace dnnv::nn {

/// Well-known workspace slots. Layers may use kSlotScratch0.. for internal
/// temporaries; kSlotOutput/kSlotGrad/kSlotSens are managed by Sequential.
enum WorkspaceSlot : int {
  kSlotOutput = 0,    ///< forward output of layer i
  kSlotGrad = 1,      ///< input-gradient produced by layer i's backward
  kSlotSens = 2,      ///< input-sensitivity produced by layer i
  kSlotScratch0 = 3,  ///< layer-private scratch
  kSlotScratch1 = 4,
  kSlotScratch2 = 5,
  kSlotScratch3 = 6,
};

/// Per-layer tensor arena (see file comment).
class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  /// The buffer for (layer_index, slot), reshaped to `shape` in place.
  /// Contents are unspecified — the caller fully overwrites it.
  Tensor& buffer(std::size_t layer_index, int slot, const Shape& shape);

  /// Like buffer(), but zero-filled (for accumulation targets, e.g. col2im).
  Tensor& zeroed(std::size_t layer_index, int slot, const Shape& shape);

  // ---- Integer arenas (the quantized engine's buffers) ----
  //
  // Same reuse contract as buffer(): sized in place, contents unspecified,
  // keyed by (layer index, slot) independently of the float buffers. The
  // int8 engine (quant::QuantModel) keeps its activations, im2col columns
  // and int32 accumulators here so a warmed-up quantized forward performs
  // no allocations either.

  /// int8 buffer for (layer_index, slot), resized to `size` elements.
  std::vector<std::int8_t>& i8_buffer(std::size_t layer_index, int slot,
                                      std::size_t size);

  /// int32 buffer for (layer_index, slot), resized to `size` elements.
  std::vector<std::int32_t>& i32_buffer(std::size_t layer_index, int slot,
                                        std::size_t size);

  /// Drops every buffer (frees the storage).
  void clear() {
    buffers_.clear();
    i8_buffers_.clear();
    i32_buffers_.clear();
    shapes_.clear();
  }

  /// Per-layer input shapes recorded by Sequential's workspace forward; the
  /// backward chains read them to shape their buffers.
  std::vector<Shape>& shapes() { return shapes_; }

 private:
  static std::uint64_t key(std::size_t layer_index, int slot) {
    return (static_cast<std::uint64_t>(layer_index) << 8) |
           static_cast<std::uint64_t>(slot);
  }

  std::unordered_map<std::uint64_t, Tensor> buffers_;
  std::unordered_map<std::uint64_t, std::vector<std::int8_t>> i8_buffers_;
  std::unordered_map<std::uint64_t, std::vector<std::int32_t>> i32_buffers_;
  std::vector<Shape> shapes_;
};

}  // namespace dnnv::nn

#endif  // DNNV_NN_WORKSPACE_H_
