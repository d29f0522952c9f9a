#include "ip/device_pool.h"

#include <utility>

#include "util/error.h"

namespace dnnv::ip {

DevicePool::DevicePool(Factory factory, std::size_t max_devices)
    : factory_(std::move(factory)), max_devices_(max_devices) {
  DNNV_CHECK(factory_ != nullptr, "DevicePool needs a device factory");
}

DevicePool::Lease::Lease(Lease&& other) noexcept
    : pool_(other.pool_),
      device_(std::move(other.device_)),
      generation_(other.generation_) {
  other.pool_ = nullptr;
}

DevicePool::Lease& DevicePool::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    if (pool_ && device_) pool_->release(std::move(device_), generation_);
    pool_ = other.pool_;
    device_ = std::move(other.device_);
    generation_ = other.generation_;
    other.pool_ = nullptr;
  }
  return *this;
}

DevicePool::Lease::~Lease() {
  if (pool_ && device_) pool_->release(std::move(device_), generation_);
}

DevicePool::Lease DevicePool::build_unlocked(
    std::unique_lock<std::mutex>& lock) {
  // The factory can be expensive (device reconstruction); run it unlocked.
  ++created_;
  ++live_;
  const std::size_t generation = generation_;
  lock.unlock();
  std::unique_ptr<BlackBoxIp> device;
  try {
    device = factory_();
    DNNV_CHECK(device != nullptr, "device factory returned no device");
  } catch (...) {
    // Give the slot back, or a capped pool shrinks permanently and a later
    // acquire() blocks forever.
    lock.lock();
    --live_;
    available_.notify_one();
    throw;
  }
  return Lease(this, std::move(device), generation);
}

DevicePool::Lease DevicePool::acquire() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (!idle_.empty()) {
      std::unique_ptr<BlackBoxIp> device = std::move(idle_.back());
      idle_.pop_back();
      return Lease(this, std::move(device), generation_);
    }
    if (max_devices_ == 0 || live_ < max_devices_) return build_unlocked(lock);
    available_.wait(lock);
  }
}

DevicePool::Lease DevicePool::try_acquire() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!idle_.empty()) {
    std::unique_ptr<BlackBoxIp> device = std::move(idle_.back());
    idle_.pop_back();
    return Lease(this, std::move(device), generation_);
  }
  if (max_devices_ == 0 || live_ < max_devices_) return build_unlocked(lock);
  return Lease();
}

void DevicePool::release(std::unique_ptr<BlackBoxIp> device,
                         std::size_t generation) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (generation == generation_) {
    idle_.push_back(std::move(device));
  } else {
    --live_;  // stale replica from before an invalidate(): drop it
  }
  available_.notify_one();
}

void DevicePool::invalidate() {
  std::lock_guard<std::mutex> lock(mutex_);
  live_ -= idle_.size();
  idle_.clear();
  ++generation_;
  available_.notify_all();
}

std::size_t DevicePool::created() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return created_;
}

std::size_t DevicePool::idle() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return idle_.size();
}

}  // namespace dnnv::ip
