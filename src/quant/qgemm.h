// Blocked int8 x int8 -> int32 GEMM — the quantized engine's MAC datapath.
#ifndef DNNV_QUANT_QGEMM_H_
#define DNNV_QUANT_QGEMM_H_

#include <cstdint>
#include <string>

namespace dnnv {
class ThreadPool;
}

namespace dnnv::quant {

/// True when the AVX-512 VNNI micro-kernel is compiled into this binary
/// (a build-time fact: -march flags that enable AVX-512 VNNI select it,
/// anything else runs the scalar kernel). Both kernels run the same exact
/// int32 arithmetic, so results never depend on which one was built.
bool qgemm_vnni_available();

/// Execution knobs for one qgemm call. Defaults reproduce the engine-wide
/// behaviour: tiles parallelised over ThreadPool::shared() when the problem
/// is big enough (nested-safe — see util::ThreadPool::parallel_for).
struct QGemmOptions {
  ThreadPool* pool = nullptr;  ///< nullptr = ThreadPool::shared()
  bool force_serial = false;   ///< bypass tile parallelism (bench baselines)
};

/// C[M,N] (int32) = A[M,K] (int8) * B[K,N] (int8), all row-major, C
/// overwritten. Same cache-blocking/packing structure as the float
/// dnnv::gemm: per K-slice, A is packed once into row panels and B into
/// column panels, then the M x N macro-tile grid is executed — in parallel
/// over `pool` via bounded work-splitting, which stays parallel even when
/// the caller is itself a pool worker (validation-service lanes). K is
/// processed in quads so the micro-kernel maps onto AVX-512 VNNI vpdpbusd
/// when compiled in (int8 operands, exact int32 accumulation — no float, no
/// saturating intermediates); the scalar kernel runs the identical exact
/// integer arithmetic, so results are bit-identical across kernels, batch
/// sizes, thread counts and tile schedules by construction.
///
/// Packing scratch lives in thread-local arenas sized in place — zero
/// allocations at steady state.
///
/// Overflow contract: k <= 65536 (checked), which keeps the unsigned-offset
/// accumulation below 2^31 in the worst case.
void qgemm(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
           const std::int8_t* b, std::int32_t* c, const QGemmOptions& options);

/// qgemm with default options.
void qgemm(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
           const std::int8_t* b, std::int32_t* c);

/// Name of the compiled micro-kernel ("avx512-vnni" or "scalar") — benches
/// and serve logs report it so throughput numbers are attributable.
const char* qgemm_kernel_name();

/// One-line kernel + tiling configuration ("kernel=scalar mr=8 nr=32 ...
/// threads=8 nesting=work-split") for serve output, qualification logs and
/// BENCH_*.json hardware stanzas.
std::string qgemm_config_string();

}  // namespace dnnv::quant

#endif  // DNNV_QUANT_QGEMM_H_
