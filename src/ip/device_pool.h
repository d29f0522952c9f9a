// Reusable pool of deployed-device instances.
//
// A pipeline::ValidationService lane multiplexes many validation sessions
// over one deliverable and may run several micro-batches at once, so it
// needs several independent device instances of the SAME artifact —
// predict() is stateful, so one instance cannot serve threads concurrently.
// Building a device is not free (a QuantizedIp copies its QuantModel and
// rebuilds its weight memory), so instances are pooled: acquire() hands out
// an idle device or builds a new one through the factory, and the RAII Lease
// returns it on destruction. created() exposes the total factory invocations
// so tests can assert there is no per-call construction churn.
#ifndef DNNV_IP_DEVICE_POOL_H_
#define DNNV_IP_DEVICE_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "ip/black_box_ip.h"

namespace dnnv::ip {

/// Thread-safe acquire/release pool over a device factory.
class DevicePool {
 public:
  using Factory = std::function<std::unique_ptr<BlackBoxIp>()>;

  /// `max_devices` caps the live instances (0 = unbounded). The factory is
  /// invoked lazily, under no lock, and throws if it cannot build a device.
  explicit DevicePool(Factory factory, std::size_t max_devices = 0);

  DevicePool(const DevicePool&) = delete;
  DevicePool& operator=(const DevicePool&) = delete;

  /// RAII handle to one pooled device; returns it on destruction. An empty
  /// lease (try_acquire on an exhausted pool) is falsy.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept;
    Lease& operator=(Lease&& other) noexcept;
    ~Lease();

    BlackBoxIp* get() const { return device_.get(); }
    BlackBoxIp& operator*() const { return *device_; }
    BlackBoxIp* operator->() const { return device_.get(); }
    explicit operator bool() const { return device_ != nullptr; }

   private:
    friend class DevicePool;
    Lease(DevicePool* pool, std::unique_ptr<BlackBoxIp> device,
          std::size_t generation)
        : pool_(pool), device_(std::move(device)), generation_(generation) {}

    DevicePool* pool_ = nullptr;
    std::unique_ptr<BlackBoxIp> device_;
    std::size_t generation_ = 0;  ///< pool generation at acquire time
  };

  /// Idle device, or a fresh one when under the cap; BLOCKS when the cap is
  /// reached and every instance is leased out.
  Lease acquire();

  /// As acquire(), but returns an empty lease instead of blocking when the
  /// pool is exhausted.
  Lease try_acquire();

  /// Drops the idle instances (leased ones are dropped when returned).
  /// Call after mutating the underlying artifact so stale replicas are
  /// never handed out again.
  void invalidate();

  /// Total factory invocations so far (churn observability).
  std::size_t created() const;

  /// Devices currently sitting idle in the pool.
  std::size_t idle() const;

 private:
  void release(std::unique_ptr<BlackBoxIp> device, std::size_t generation);
  Lease build_unlocked(std::unique_lock<std::mutex>& lock);

  Factory factory_;
  const std::size_t max_devices_;
  mutable std::mutex mutex_;
  std::condition_variable available_;
  std::vector<std::unique_ptr<BlackBoxIp>> idle_;
  std::size_t live_ = 0;       ///< idle + leased
  std::size_t created_ = 0;    ///< lifetime factory calls
  std::size_t generation_ = 0; ///< bumped by invalidate()
};

}  // namespace dnnv::ip

#endif  // DNNV_IP_DEVICE_POOL_H_
