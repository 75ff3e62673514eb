// Scope-bound recycling of tensor storage for allocation-heavy loops.
//
// A training step builds and drops the same set of tensor shapes every
// iteration. Without recycling, each large buffer is a fresh heap (often
// mmap) allocation whose pages fault in and get zeroed on first touch.
// ScopedStoragePool keeps released buffers on exact-size free lists and
// hands them back to the next allocation of that size on the same thread.
//
// Scope rule:
//  * Only the thread that opened the scope allocates from it, and only
//    storage of kPooledStorageMin floats or more. Other threads, and code
//    with no open scope (serving), allocate from the heap exactly as before.
//  * A pooled buffer may be released on any thread. While its pool's scope
//    is open it returns to the free list; after the scope has closed it goes
//    back to the heap. Tensors may therefore outlive the scope (trained
//    parameters, optimizer state) with no special handling.
//  * Closing a scope frees every buffer cached on its free lists.
//  * Scopes nest: the innermost open scope on a thread serves that thread's
//    allocations, each buffer returns to the pool that created it, and
//    closing an inner scope re-activates the outer one.
//
// Recycled storage is zero-filled like fresh storage, so the Tensor(Shape)
// contract does not depend on whether a scope is open.
#ifndef RTGCN_TENSOR_STORAGE_POOL_H_
#define RTGCN_TENSOR_STORAGE_POOL_H_

#include <cstdint>
#include <memory>
#include <vector>

namespace rtgcn {

/// Smallest storage (in floats) that a ScopedStoragePool recycles; smaller
/// buffers are cheap malloc hits and stay on the heap.
inline constexpr int64_t kPooledStorageMin = 1024;

namespace internal {
class StoragePool;

/// Storage for `n` floats from the calling thread's innermost open
/// ScopedStoragePool, zero-filled when `zero` is set. Returns null when no
/// scope is open on this thread or `n < kPooledStorageMin`.
std::shared_ptr<std::vector<float>> AcquirePooledStorage(int64_t n, bool zero);
}  // namespace internal

/// \brief RAII scope that recycles this thread's tensor storage.
class ScopedStoragePool {
 public:
  ScopedStoragePool();
  ~ScopedStoragePool();
  ScopedStoragePool(const ScopedStoragePool&) = delete;
  ScopedStoragePool& operator=(const ScopedStoragePool&) = delete;

  /// Allocations served from a free list so far.
  int64_t recycled() const;
  /// Released buffers currently held on the free lists.
  int64_t cached() const;

 private:
  std::shared_ptr<internal::StoragePool> pool_;
  internal::StoragePool* outer_;
};

}  // namespace rtgcn

#endif  // RTGCN_TENSOR_STORAGE_POOL_H_
