// Single-precision GEMM behind Dense's value weight gradient; its K slices
// and its multiply-add also fix the summation order of the direct Conv2d and
// Dense kernels.
#ifndef DNNV_TENSOR_GEMM_H_
#define DNNV_TENSOR_GEMM_H_

#include <cmath>
#include <cstdint>

namespace dnnv {

/// Depth of the K slices gemm() sums separately. Each C element is formed
/// as beta * C + (slice sum) + (slice sum) + ..., each slice sum a product
/// chain from +0 in ascending k, so a kernel that splits its sums at the
/// same points (nn::Conv2d's direct kernels) reproduces gemm() bit for bit.
inline constexpr std::int64_t kGemmKBlock = 256;

/// acc + a * b as gemm()'s micro-kernel forms it: one fused multiply-add
/// where the target has one (there the compiler contracts the GEMM's update),
/// a product and a sum elsewhere. Direct kernels spell it out because GCC's
/// tuning for some cores (Sapphire Rapids among them) declines to contract a
/// loop-carried chain held in registers.
inline float mul_add(float a, float b, float acc) {
#ifdef __FP_FAST_FMAF
  return std::fma(a, b, acc);
#else
  return acc + a * b;
#endif
}

/// C[M,N] = alpha * op(A) * op(B) + beta * C, row-major.
/// op(A) is A[M,K] (trans_a=false) or Aᵀ with A stored [K,M] (trans_a=true);
/// likewise for B with dimensions [K,N] / [N,K].
///
/// Implementation: cache-blocked with packed micro-panels (transposes are
/// folded into the packing step, never materialised) and a branchless
/// register-tiled micro-kernel; large calls parallelise the M dimension over
/// ThreadPool::shared(). Deterministic: each C element accumulates its
/// k-products in a fixed order that depends only on N and K blocking, so a
/// row's result is bit-identical for any batch size (M) and thread count.
void gemm(bool trans_a, bool trans_b, std::int64_t m, std::int64_t n,
          std::int64_t k, float alpha, const float* a, const float* b,
          float beta, float* c);

}  // namespace dnnv

#endif  // DNNV_TENSOR_GEMM_H_
