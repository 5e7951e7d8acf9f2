#include "util/pool.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

namespace eslurm::util {
namespace {

TEST(SlabPool, AcquireGrowsThenRecyclesLifo) {
  SlabPool<int> pool;
  const auto a = pool.acquire();
  const auto b = pool.acquire();
  const auto c = pool.acquire();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);
  EXPECT_EQ(pool.in_use(), 3u);
  pool.release(b);
  pool.release(a);
  // LIFO: the most recently released slot comes back first.
  EXPECT_EQ(pool.acquire(), a);
  EXPECT_EQ(pool.acquire(), b);
  EXPECT_EQ(pool.capacity(), 3u);  // no new slots were created
  EXPECT_EQ(pool.in_use(), 3u);
}

TEST(SlabPool, RecycledSlotsKeepTheirContents) {
  SlabPool<std::string> pool;
  const auto slot = pool.acquire();
  pool[slot] = "retained capacity";
  pool.release(slot);
  const auto again = pool.acquire();
  ASSERT_EQ(again, slot);
  // Recycle-as-is: the old value survives; callers overwrite, the pool
  // never clears.
  EXPECT_EQ(pool[again], "retained capacity");
}

TEST(SlabPool, StableStorageKeepsAddressesAcrossGrowth) {
  SlabPool<int> pool;
  const auto first = pool.acquire();
  pool[first] = 11;
  int* address = &pool[first];
  for (int i = 0; i < 4096; ++i) pool.acquire();  // force many blocks
  EXPECT_EQ(address, &pool[first]);
  EXPECT_EQ(*address, 11);
}

TEST(SlabPool, StableStorageKeepsAddressesAcrossAChunkBoundary) {
  using Pool = SlabPool<std::string>;
  Pool pool;
  std::vector<std::string*> addresses;
  for (Pool::Index i = 0; i < Pool::kChunkSlots; ++i) {
    const auto index = pool.acquire();
    ASSERT_EQ(index, i);
    pool[index] = std::to_string(i);
    addresses.push_back(&pool[index]);
  }
  // The next acquire opens the second chunk.
  const auto next = pool.acquire();
  EXPECT_EQ(next, Pool::kChunkSlots);
  EXPECT_EQ(pool.capacity(), Pool::kChunkSlots + 1);
  for (Pool::Index i = 0; i < Pool::kChunkSlots; ++i) {
    EXPECT_EQ(addresses[i], &pool[i]);
    EXPECT_EQ(pool[i], std::to_string(i));
  }
  EXPECT_NE(&pool[next], addresses.back() + 1);  // a new chunk, not contiguous
}

TEST(SlabPool, IndexSequenceFollowsTheFreeListModel) {
  // A seeded acquire/release script: the LIFO free list and append order,
  // not the chunked storage, decide every index handed out.
  std::mt19937_64 rng(20240601);
  SlabPool<int> pool;
  std::vector<std::uint32_t> live;
  std::vector<std::uint32_t> model_free;  // back = next index to reuse
  std::uint32_t model_size = 0;
  for (int step = 0; step < 5000; ++step) {
    if (live.empty() || rng() % 5 < 3) {
      std::uint32_t expected = model_size;
      if (model_free.empty()) {
        ++model_size;
      } else {
        expected = model_free.back();
        model_free.pop_back();
      }
      live.push_back(pool.acquire());
      ASSERT_EQ(live.back(), expected) << "step " << step;
    } else {
      const std::size_t pick = rng() % live.size();
      pool.release(live[pick]);
      model_free.push_back(live[pick]);
      live[pick] = live.back();
      live.pop_back();
    }
  }
  EXPECT_EQ(pool.capacity(), model_size);
  EXPECT_GT(pool.capacity(), SlabPool<int>::kChunkSlots);  // crossed chunks
  EXPECT_EQ(pool.in_use(), live.size());
}

TEST(SlabPool, SteadyStateChurnsWithoutNewSlots) {
  SlabPool<std::vector<int>> pool;
  std::vector<SlabPool<std::vector<int>>::Index> held;
  for (int i = 0; i < 16; ++i) held.push_back(pool.acquire());
  for (const auto index : held) pool.release(index);
  const std::size_t high_water = pool.capacity();
  for (int round = 0; round < 100; ++round) {
    held.clear();
    for (int i = 0; i < 16; ++i) held.push_back(pool.acquire());
    for (const auto index : held) pool.release(index);
  }
  EXPECT_EQ(pool.capacity(), high_water);
  EXPECT_EQ(pool.in_use(), 0u);
}

}  // namespace
}  // namespace eslurm::util
