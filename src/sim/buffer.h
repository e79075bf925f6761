// Device-memory allocations.
//
// A DeviceBuffer<T> is an RAII allocation in the simulated card's memory:
// it owns host backing storage for the functional data and a virtual device
// address used by the DRAM model. Capacity is enforced against the card's
// real memory size — which is what forces the out-of-core 512^3 path, just
// as on the paper's 512 MB cards.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace repro::sim {

class Device;

/// Untyped allocation record managed by Device.
struct Allocation {
  std::uint64_t base_addr{};
  std::size_t bytes{};
};

/// Allocator for host arrays sized once: calloc'd and never
/// value-initialized element by element, so the elements read as zero
/// while pages nobody writes (the buffers and staging of a
/// DeviceGroup::timing_twin dry run) stay out of the resident set.
template <typename T>
struct LazyZeroAllocator {
  static_assert(std::is_trivially_copyable_v<T>);
  using value_type = T;

  LazyZeroAllocator() = default;
  template <typename U>
  LazyZeroAllocator(const LazyZeroAllocator<U>& /*other*/) {}  // NOLINT

  T* allocate(std::size_t n) {
    void* p = std::calloc(n, sizeof(T));
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t /*n*/) { std::free(p); }
  /// Default construction leaves calloc's zeros in place.
  template <typename U>
  void construct(U* /*p*/) {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
  friend bool operator==(const LazyZeroAllocator&, const LazyZeroAllocator&) {
    return true;
  }
};

/// A host array on LazyZeroAllocator. Size it once: growing it again
/// after a shrink would expose stale elements instead of zeros.
template <typename T>
using LazyZeroVector = std::vector<T, LazyZeroAllocator<T>>;

/// Typed RAII device allocation (move-only).
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(Device* dev, Allocation alloc, std::size_t n)
      : dev_(dev), alloc_(alloc), host_(n) {}

  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;
  DeviceBuffer(DeviceBuffer&& o) noexcept { swap(o); }
  DeviceBuffer& operator=(DeviceBuffer&& o) noexcept {
    if (this != &o) {
      release();
      swap(o);
    }
    return *this;
  }
  ~DeviceBuffer() { release(); }

  [[nodiscard]] std::size_t size() const { return host_.size(); }
  [[nodiscard]] bool valid() const { return dev_ != nullptr; }
  [[nodiscard]] std::uint64_t base_addr() const { return alloc_.base_addr; }

  /// Functional storage. Direct host access is for test setup/verification
  /// and transfer plumbing; kernels go through GlobalView accessors.
  [[nodiscard]] T* data() { return host_.data(); }
  [[nodiscard]] const T* data() const { return host_.data(); }
  [[nodiscard]] std::span<T> span() { return host_; }
  [[nodiscard]] std::span<const T> span() const { return host_; }

 private:
  void release();
  void swap(DeviceBuffer& o) noexcept {
    std::swap(dev_, o.dev_);
    std::swap(alloc_, o.alloc_);
    host_.swap(o.host_);
  }

  Device* dev_ = nullptr;
  Allocation alloc_{};
  LazyZeroVector<T> host_;
};

}  // namespace repro::sim
