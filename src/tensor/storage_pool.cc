#include "tensor/storage_pool.h"

#include <algorithm>
#include <mutex>
#include <unordered_map>

namespace rtgcn {
namespace internal {

/// Exact-size free lists shared by one pool and every buffer it handed
/// out; a buffer's deleter keeps the lists alive past the pool.
class FreeLists : public std::enable_shared_from_this<FreeLists> {
 public:
  using Buffer = std::vector<float>;

  std::shared_ptr<Buffer> Acquire(int64_t n, bool zero) {
    std::unique_ptr<Buffer> buf;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = free_.find(n);
      if (it != free_.end() && !it->second.empty()) {
        buf = std::move(it->second.back());
        it->second.pop_back();
        --cached_;
        ++recycled_;
      }
    }
    if (buf) {
      if (zero) std::fill(buf->begin(), buf->end(), 0.0f);
    } else {
      buf = std::make_unique<Buffer>(static_cast<size_t>(n));
    }
    return std::shared_ptr<Buffer>(buf.release(),
                                   ReturnToPool{shared_from_this()});
  }

  // Frees the cached buffers; buffers released from now on go to the heap.
  void Close() {
    std::unordered_map<int64_t, std::vector<std::unique_ptr<Buffer>>> drop;
    std::lock_guard<std::mutex> lock(mu_);
    open_ = false;
    cached_ = 0;
    drop.swap(free_);
  }

  int64_t recycled() const {
    std::lock_guard<std::mutex> lock(mu_);
    return recycled_;
  }
  int64_t cached() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cached_;
  }

 private:
  struct ReturnToPool {
    std::shared_ptr<FreeLists> pool;
    void operator()(Buffer* buf) const { pool->Release(buf); }
  };

  void Release(Buffer* raw) {
    std::unique_ptr<Buffer> buf(raw);
    std::lock_guard<std::mutex> lock(mu_);
    if (!open_) return;  // the unique_ptr frees it
    free_[static_cast<int64_t>(buf->size())].push_back(std::move(buf));
    ++cached_;
  }

  mutable std::mutex mu_;
  bool open_ = true;
  int64_t cached_ = 0;
  int64_t recycled_ = 0;
  std::unordered_map<int64_t, std::vector<std::unique_ptr<Buffer>>> free_;
};

namespace {
thread_local FreeLists* t_active_pool = nullptr;
}  // namespace

std::shared_ptr<std::vector<float>> AcquirePooledStorage(int64_t n,
                                                         bool zero) {
  if (t_active_pool == nullptr || n < kPooledStorageMin) return nullptr;
  return t_active_pool->Acquire(n, zero);
}

}  // namespace internal

StoragePool::StoragePool()
    : lists_(std::make_shared<internal::FreeLists>()) {}

StoragePool::~StoragePool() { lists_->Close(); }

int64_t StoragePool::recycled() const { return lists_->recycled(); }
int64_t StoragePool::cached() const { return lists_->cached(); }

ScopedStoragePool::ScopedStoragePool()
    : owned_(std::make_unique<StoragePool>()),
      lists_(owned_->lists_.get()),
      outer_(internal::t_active_pool) {
  internal::t_active_pool = lists_;
}

ScopedStoragePool::ScopedStoragePool(StoragePool& pool)
    : lists_(pool.lists_.get()), outer_(internal::t_active_pool) {
  internal::t_active_pool = lists_;
}

ScopedStoragePool::~ScopedStoragePool() { internal::t_active_pool = outer_; }

int64_t ScopedStoragePool::recycled() const { return lists_->recycled(); }
int64_t ScopedStoragePool::cached() const { return lists_->cached(); }

}  // namespace rtgcn
