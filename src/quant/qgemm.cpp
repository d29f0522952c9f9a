#include "quant/qgemm.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <vector>

#include "quant/qgemm_panels.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace dnnv::quant {
namespace {

using namespace detail;

// Signedness: vpdpbusd multiplies UNSIGNED a-bytes by signed b-bytes. A is
// therefore packed with a +128 offset (s8 XOR 0x80), and the per-column sums
// of B collected during packing undo it exactly:
//   sum_k (a+128)*b = sum_k a*b + 128 * colsum(b).
// Everything stays in exact int32 (see the overflow contract in the header),
// so the scalar kernel — which skips the offset (and colsum) entirely —
// produces bit-identical results.

// Per-thread packing arenas: resized in place, so a warmed-up thread packs
// with zero allocations. Thread-local (not per-call) because concurrent
// GEMMs on different threads must not share pack storage.
std::vector<std::uint8_t>& a_pack_buffer() {
  static thread_local std::vector<std::uint8_t> buf;
  return buf;
}

std::vector<std::int8_t>& b_pack_buffer() {
  static thread_local std::vector<std::int8_t> buf;
  return buf;
}

std::vector<std::int32_t>& colsum_buffer() {
  static thread_local std::vector<std::int32_t> buf;
  return buf;
}

// Tile parallelism pays for itself only past this many int8 MACs.
constexpr std::int64_t kParallelMinWork = std::int64_t{1} << 20;

template <bool Vnni>
void qgemm_impl(std::int64_t m, std::int64_t n, std::int64_t k,
                const std::int8_t* a, const std::int8_t* b, std::int32_t* c,
                const QGemmOptions& options) {
  const std::int64_t kc_max = std::min(k, kKC);
  std::vector<std::uint8_t>& a_pack = a_pack_buffer();
  a_pack.resize(packed_a_slice_bytes(m, kc_max));
  std::vector<std::int8_t>& b_pack = b_pack_buffer();
  b_pack.resize(packed_b_slice_bytes(n, kc_max));
  const std::int64_t n_pad = (n + kNR - 1) / kNR * kNR;
  std::vector<std::int32_t>& colsum = colsum_buffer();
  colsum.assign(static_cast<std::size_t>(n_pad), 0);  // tail lanes stay 0

  ThreadPool& pool = options.pool ? *options.pool : ThreadPool::shared();
  const std::int64_t num_ic = (m + kMC - 1) / kMC;
  const std::int64_t num_jc = (n + kNC - 1) / kNC;
  const std::int64_t num_tiles = num_ic * num_jc;
  const bool parallel = !options.force_serial && pool.num_threads() > 1 &&
                        num_tiles > 1 && m * n * k >= kParallelMinWork;

  for (std::int64_t pc = 0; pc < k; pc += kKC) {
    const std::int64_t kc = std::min(kKC, k - pc);
    const std::int64_t kc4 = quads(kc);
    pack_a<Vnni>(a, k, 0, pc, m, kc, a_pack.data());
    pack_b_rows<Vnni>(
        kc, n, [&](std::int64_t p) { return b + (pc + p) * n; }, b_pack.data(),
        colsum.data());

    auto tile = [&](std::size_t ti) {
      const std::int64_t ic = (static_cast<std::int64_t>(ti) / num_jc) * kMC;
      const std::int64_t jc = (static_cast<std::int64_t>(ti) % num_jc) * kNC;
      const std::int64_t mc = std::min(kMC, m - ic);
      const std::int64_t nc = std::min(kNC, n - jc);
      macro_block<Vnni>(mc, nc, kc, a_pack.data() + (ic / kMR) * kc4 * kMR * 4,
                        b_pack.data() + (jc / kNR) * kc4 * kNR * 4,
                        colsum.data() + jc, c + ic * n + jc, n);
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

bool qgemm_vnni_available() { return DNNV_QGEMM_VNNI != 0; }

void qgemm(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
           const std::int8_t* b, std::int32_t* c,
           const QGemmOptions& options) {
  DNNV_CHECK(m >= 0 && n >= 0 && k >= 0, "negative qgemm dims");
  DNNV_CHECK(k <= 65536, "qgemm K " << k << " exceeds the int32 overflow bound");
  std::fill(c, c + m * n, 0);
  if (m == 0 || n == 0 || k == 0) return;
  qgemm_impl<kVnni>(m, n, k, a, b, c, options);
}

void qgemm(std::int64_t m, std::int64_t n, std::int64_t k, const std::int8_t* a,
           const std::int8_t* b, std::int32_t* c) {
  qgemm(m, n, k, a, b, c, QGemmOptions{});
}

const char* qgemm_kernel_name() {
  return kVnni ? "avx512-vnni" : "scalar";
}

std::string qgemm_config_string() {
  std::ostringstream os;
  os << "kernel=" << qgemm_kernel_name() << " vnni_available="
     << (qgemm_vnni_available() ? 1 : 0) << " mr=" << detail::kMR
     << " nr=" << detail::kNR << " mc=" << detail::kMC << " kc=" << detail::kKC
     << " nc=" << detail::kNC << " threads=" << ThreadPool::shared().num_threads()
     << " nesting=work-split";
  return os.str();
}

}  // namespace dnnv::quant
