#ifndef QSE_UTIL_ALIGNED_H_
#define QSE_UTIL_ALIGNED_H_

#include <cstddef>
#include <new>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define QSE_ALIGNED_MMAP 1
#endif

namespace qse {

/// Buffers of at least this many bytes get their own anonymous mapping
/// (where the platform has mmap), returned to the OS when freed.  The
/// embedded database copies a whole version on every interior remove
/// and re-quantization; through malloc those ~MB buffers land in
/// whichever thread's arena ran the mutation, and glibc's dynamic mmap
/// threshold rises to their size after the first free, so freed
/// versions pile up as arena free space that is never returned (a
/// serving run under churn grew its arenas from ~11 to ~26 MB while
/// ~8 MB stayed in use).  A private mapping is page-aligned, which
/// covers every Alignment this allocator is used with.
inline constexpr std::size_t kAlignedMmapMinBytes = std::size_t{128} << 10;

/// Minimal C++17 aligned allocator: every allocation starts on an
/// `Alignment`-byte boundary.  The embedded database's version buffers
/// use it at 64 bytes so SIMD kernels can stream the float64 matrix and
/// its int8 matrix from cache-line-aligned bases (and so a row never
/// straddles a cache line it did not have to).  Allocations of
/// kAlignedMmapMinBytes or more are mapped directly (see there).
template <typename T, std::size_t Alignment>
struct AlignedAllocator {
  static_assert((Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two");
  static_assert(Alignment >= alignof(T),
                "Alignment must not be weaker than alignof(T)");

  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    if (n > static_cast<std::size_t>(-1) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
#ifdef QSE_ALIGNED_MMAP
    static_assert(Alignment <= 4096, "mappings are only page-aligned");
    if (n * sizeof(T) >= kAlignedMmapMinBytes) {
      void* p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
      if (p == MAP_FAILED) throw std::bad_alloc();
      return static_cast<T*>(p);
    }
#endif
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
#ifdef QSE_ALIGNED_MMAP
    if (n * sizeof(T) >= kAlignedMmapMinBytes) {
      ::munmap(p, n * sizeof(T));
      return;
    }
#else
    (void)n;
#endif
    ::operator delete(p, std::align_val_t(Alignment));
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return false;
  }
};

/// A std::vector whose buffer is 64-byte aligned (one x86 cache line,
/// one AVX-512 register width).
template <typename T>
using Aligned64Vector = std::vector<T, AlignedAllocator<T, 64>>;

}  // namespace qse

#endif  // QSE_UTIL_ALIGNED_H_
