// Cache-line-aligned allocation helpers.
//
// Tensor buffers and the GEMM packing panels are allocated on 64-byte
// boundaries so that (a) a packed micro-panel never straddles a cache
// line and (b) aligned vector loads in the SIMD micro-kernels are
// always legal on the panel base address. 64 bytes is one full zmm
// register, so the AVX-512 tile's B loads are aligned too.

#ifndef RELSERVE_COMMON_ALIGNED_ALLOC_H_
#define RELSERVE_COMMON_ALIGNED_ALLOC_H_

#include <cstdint>
#include <new>

namespace relserve {

// One x86 cache line; every float buffer in the system starts on one.
inline constexpr int64_t kCacheLineBytes = 64;
static_assert((kCacheLineBytes & (kCacheLineBytes - 1)) == 0,
              "alignment must be a power of two");
static_assert(kCacheLineBytes % alignof(float) == 0,
              "alignment must hold float");

// Allocates `count` floats on a kCacheLineBytes boundary; returns
// nullptr on exhaustion (never throws). Free with FreeAlignedFloats.
inline float* AllocateAlignedFloats(int64_t count) {
  if (count < 0) return nullptr;
  const size_t bytes = static_cast<size_t>(count) * sizeof(float);
  return static_cast<float*>(::operator new(
      bytes, std::align_val_t{kCacheLineBytes}, std::nothrow));
}

inline void FreeAlignedFloats(float* ptr) {
  ::operator delete(ptr, std::align_val_t{kCacheLineBytes});
}

// RAII float buffer for kernel-internal packing panels and buffer-pool
// frames. Not charged to a MemoryTracker: panel sizes are bounded
// compile-time constants (see kernels/micro_kernel.h), the same
// O(block) scratch class as the stack temporaries the kernels already
// use, and frames are bounded by the pool's capacity.
class AlignedBuffer {
 public:
  AlignedBuffer() = default;
  explicit AlignedBuffer(int64_t count)
      : data_(AllocateAlignedFloats(count)) {}
  ~AlignedBuffer() { FreeAlignedFloats(data_); }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;
  AlignedBuffer(AlignedBuffer&& other) noexcept : data_(other.data_) {
    other.data_ = nullptr;
  }
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      FreeAlignedFloats(data_);
      data_ = other.data_;
      other.data_ = nullptr;
    }
    return *this;
  }

  bool ok() const { return data_ != nullptr; }
  float* data() { return data_; }
  const float* data() const { return data_; }

 private:
  float* data_ = nullptr;
};

}  // namespace relserve

#endif  // RELSERVE_COMMON_ALIGNED_ALLOC_H_
