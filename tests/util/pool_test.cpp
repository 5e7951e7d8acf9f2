#include "util/pool.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
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
  SlabPool<int, /*StableStorage=*/true> pool;
  const auto first = pool.acquire();
  pool[first] = 11;
  int* address = &pool[first];
  for (int i = 0; i < 4096; ++i) pool.acquire();  // force many blocks
  EXPECT_EQ(address, &pool[first]);
  EXPECT_EQ(*address, 11);
}

TEST(SlabPool, StableStorageKeepsAddressesAcrossAChunkBoundary) {
  using Pool = SlabPool<std::string, /*StableStorage=*/true>;
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

TEST(SlabPool, BothFlavoursYieldTheSameIndexSequence) {
  // A seeded acquire/release script: the free list and append order, not
  // the storage, decide every index handed out.
  auto script = [](auto& pool) {
    std::mt19937_64 rng(20240601);
    std::vector<std::uint32_t> live;
    std::vector<std::uint32_t> sequence;
    for (int step = 0; step < 5000; ++step) {
      if (live.empty() || rng() % 5 < 3) {
        live.push_back(pool.acquire());
        sequence.push_back(live.back());
      } else {
        const std::size_t pick = rng() % live.size();
        pool.release(live[pick]);
        live[pick] = live.back();
        live.pop_back();
      }
    }
    return std::make_pair(sequence, pool.capacity());
  };
  SlabPool<int> contiguous;
  SlabPool<int, /*StableStorage=*/true> stable;
  const auto a = script(contiguous);
  const auto b = script(stable);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.second, (SlabPool<int, true>::kChunkSlots));  // crossed chunks
  EXPECT_EQ(contiguous.in_use(), stable.in_use());
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
