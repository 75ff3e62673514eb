// Recycling of tensor storage for allocation-heavy loops.
//
// A training step builds and drops the same set of tensor shapes every
// iteration, and so does a serving forward. Without recycling, each large
// buffer is a fresh heap (often mmap) allocation whose pages fault in and
// get zeroed on first touch. A StoragePool keeps released buffers on
// exact-size free lists and hands them back to the next allocation of that
// size on a thread that has entered it with a ScopedStoragePool.
//
// Two lifetimes:
//  * ScopedStoragePool() opens a fresh pool for one scope; closing the
//    scope frees its cache. GradientPredictor::Fit opens one per run.
//  * A StoragePool object owns a pool that outlives its scopes. Its owner
//    re-enters it with ScopedStoragePool(pool) for each call, and the cache
//    is freed when the StoragePool is destroyed. serve::ModelSnapshot owns
//    one and enters it in every Score, so a reload frees the old cache with
//    the old snapshot.
//
// Scope rule:
//  * Only a thread inside a scope allocates from the pool, and only
//    storage of kPooledStorageMin floats or more. Other threads, and code
//    with no open scope, allocate from the heap exactly as before.
//  * A pooled buffer may be released on any thread. While its pool is open
//    it returns to the free list; after the pool has closed it goes back to
//    the heap. Tensors may therefore outlive the pool (trained parameters,
//    optimizer state, returned scores) with no special handling.
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

/// Smallest storage (in floats) that a pool recycles; smaller buffers are
/// cheap malloc hits and stay on the heap.
inline constexpr int64_t kPooledStorageMin = 1024;

namespace internal {
class FreeLists;

/// Storage for `n` floats from the calling thread's innermost open
/// ScopedStoragePool, zero-filled when `zero` is set. Returns null when no
/// scope is open on this thread or `n < kPooledStorageMin`.
std::shared_ptr<std::vector<float>> AcquirePooledStorage(int64_t n, bool zero);
}  // namespace internal

/// \brief Exact-size free lists that outlive the scopes entering them.
class StoragePool {
 public:
  StoragePool();
  /// Frees the cached buffers; buffers still in use go to the heap when
  /// they are released.
  ~StoragePool();
  StoragePool(const StoragePool&) = delete;
  StoragePool& operator=(const StoragePool&) = delete;

  /// Allocations served from a free list so far.
  int64_t recycled() const;
  /// Released buffers currently held on the free lists.
  int64_t cached() const;

 private:
  friend class ScopedStoragePool;
  std::shared_ptr<internal::FreeLists> lists_;
};

/// \brief RAII scope that recycles this thread's tensor storage.
class ScopedStoragePool {
 public:
  /// Opens a fresh pool that closes with this scope.
  ScopedStoragePool();
  /// Re-enters `pool`; its free lists outlive this scope.
  explicit ScopedStoragePool(StoragePool& pool);
  ~ScopedStoragePool();
  ScopedStoragePool(const ScopedStoragePool&) = delete;
  ScopedStoragePool& operator=(const ScopedStoragePool&) = delete;

  /// Allocations served from a free list so far.
  int64_t recycled() const;
  /// Released buffers currently held on the free lists.
  int64_t cached() const;

 private:
  std::unique_ptr<StoragePool> owned_;  // null when re-entering
  internal::FreeLists* lists_;
  internal::FreeLists* outer_;
};

}  // namespace rtgcn

#endif  // RTGCN_TENSOR_STORAGE_POOL_H_
