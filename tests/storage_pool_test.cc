#include <gtest/gtest.h>

#include <thread>

#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "tensor/storage_pool.h"

namespace rtgcn {
namespace {

constexpr int64_t kBig = 2048;  // pooled (>= kPooledStorageMin)

bool AllZero(const Tensor& t) {
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (t.data()[i] != 0.0f) return false;
  }
  return true;
}

TEST(StoragePoolTest, ReusesReleasedBufferZeroed) {
  ScopedStoragePool pool;
  const float* first = nullptr;
  {
    Tensor t({kBig});
    first = t.data();
    t.Fill(3.0f);
  }
  EXPECT_EQ(pool.cached(), 1);
  Tensor again({kBig});
  EXPECT_EQ(again.data(), first);
  EXPECT_EQ(pool.recycled(), 1);
  EXPECT_EQ(pool.cached(), 0);
  EXPECT_TRUE(AllZero(again));
}

TEST(StoragePoolTest, FreeListsAreExactSize) {
  ScopedStoragePool pool;
  { Tensor t({kBig}); }
  Tensor other({kBig + 1});
  EXPECT_EQ(pool.recycled(), 0);
  EXPECT_EQ(pool.cached(), 1);
}

TEST(StoragePoolTest, SmallTensorsStayOnTheHeap) {
  ScopedStoragePool pool;
  { Tensor t({kPooledStorageMin - 1}); }
  EXPECT_EQ(pool.cached(), 0);
  { Tensor t({kPooledStorageMin}); }
  EXPECT_EQ(pool.cached(), 1);
}

TEST(StoragePoolTest, CloneKeepsValuesFromRecycledStorage) {
  Rng rng(1);
  const Tensor src = RandomGaussian({kBig}, 0, 1, &rng);
  ScopedStoragePool pool;
  { Tensor junk = Tensor::Full({kBig}, 7.0f); }
  const Tensor copy = src.Clone();
  EXPECT_EQ(pool.recycled(), 1);
  EXPECT_TRUE(AllClose(copy, src, 0, 0));
}

TEST(StoragePoolTest, TensorsOutliveTheScope) {
  // Parameters and optimizer state created and updated inside a scope keep
  // working after it closes, and their buffers are freed later (ASan
  // checks the frees).
  Rng rng(2);
  auto w = ag::MakeVariable(RandomGaussian({64, 32}, 0, 1, &rng), true);
  const Tensor x = RandomGaussian({16, 64}, 0, 1, &rng);
  auto adam = std::make_unique<ag::Adam>(std::vector<ag::VarPtr>{w}, 1e-2f);
  Tensor kept;
  {
    ScopedStoragePool pool;
    for (int step = 0; step < 3; ++step) {
      adam->ZeroGrad();
      ag::Backward(ag::SumAll(ag::Square(ag::MatMul(ag::Constant(x), w))));
      adam->Step();
    }
    kept = w->value;
    EXPECT_GT(pool.recycled(), 0);
  }
  const Tensor before = kept.Clone();
  adam->ZeroGrad();
  ag::Backward(ag::SumAll(ag::Square(ag::MatMul(ag::Constant(x), w))));
  adam->Step();
  EXPECT_FALSE(AllClose(w->value, before, 0, 0));
  adam.reset();  // frees Adam state allocated inside the scope
  kept = Tensor();
  w.reset();
}

TEST(StoragePoolTest, NestedScopes) {
  ScopedStoragePool outer;
  Tensor from_outer({kBig});
  {
    ScopedStoragePool inner;
    { Tensor t({kBig}); }
    EXPECT_EQ(inner.cached(), 1);
    // A buffer returns to the pool that created it, whichever is active.
    from_outer = Tensor();
    EXPECT_EQ(outer.cached(), 1);
    EXPECT_EQ(inner.cached(), 1);
    Tensor reused({kBig});
    EXPECT_EQ(inner.recycled(), 1);
    EXPECT_EQ(outer.recycled(), 0);
  }
  // The outer scope serves allocations again once the inner one closes.
  Tensor t({kBig});
  EXPECT_EQ(outer.recycled(), 1);
}

TEST(StoragePoolTest, ReenteredPoolKeepsItsCacheAcrossScopes) {
  StoragePool pool;
  const float* first = nullptr;
  {
    ScopedStoragePool scope(pool);
    Tensor t({kBig});
    first = t.data();
  }
  // Closing a re-entering scope keeps the cache.
  EXPECT_EQ(pool.cached(), 1);
  {
    ScopedStoragePool scope(pool);
    Tensor t({kBig});
    EXPECT_EQ(t.data(), first);
    EXPECT_EQ(scope.recycled(), 1);
  }
  EXPECT_EQ(pool.recycled(), 1);
  EXPECT_EQ(pool.cached(), 1);
  // Outside every scope, allocations come from the heap.
  Tensor heap({kBig});
  EXPECT_EQ(pool.recycled(), 1);
}

TEST(StoragePoolTest, DestroyingPoolFreesItsCache) {
  // Cached buffers go with the pool; a buffer still in use returns to the
  // heap when released (ASan checks both frees).
  auto pool = std::make_unique<StoragePool>();
  Tensor kept;
  {
    ScopedStoragePool scope(*pool);
    kept = Tensor({kBig});
    { Tensor t({kBig}); }
  }
  EXPECT_EQ(pool->cached(), 1);
  pool.reset();
  kept.Fill(1.0f);
  kept = Tensor();
}

TEST(StoragePoolTest, ReenteredPoolNestsInsideAFreshScope) {
  StoragePool pool;
  ScopedStoragePool outer;
  {
    ScopedStoragePool inner(pool);
    { Tensor t({kBig}); }
  }
  EXPECT_EQ(pool.cached(), 1);
  EXPECT_EQ(outer.cached(), 0);
  { Tensor t({kBig}); }
  EXPECT_EQ(outer.cached(), 1);
  EXPECT_EQ(pool.cached(), 1);
}

TEST(StoragePoolTest, ScopeIsPerThread) {
  ScopedStoragePool pool;
  std::thread([] { Tensor t({kBig}); }).join();
  EXPECT_EQ(pool.cached(), 0);
}

TEST(StoragePoolTest, ReleaseOnAnotherThread) {
  // Released by another thread while the scope is open (returns to the
  // free list) and after it closed (returns to the heap).
  Tensor to_cache;
  Tensor to_heap;
  {
    ScopedStoragePool pool;
    to_cache = Tensor({kBig});
    to_heap = Tensor({kBig});
    std::thread([t = std::move(to_cache)]() mutable { t = Tensor(); }).join();
    EXPECT_EQ(pool.cached(), 1);
  }
  std::thread([t = std::move(to_heap)]() mutable { t = Tensor(); }).join();
}

TEST(StoragePoolTest, ConcurrentReleaseWhileScopeCloses) {
  std::vector<Tensor> tensors;
  std::thread releaser;
  {
    ScopedStoragePool pool;
    for (int i = 0; i < 64; ++i) tensors.emplace_back(Shape{kBig});
    releaser = std::thread([ts = std::move(tensors)]() mutable {
      while (!ts.empty()) ts.pop_back();
    });
  }
  releaser.join();
}

}  // namespace
}  // namespace rtgcn
