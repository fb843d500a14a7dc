//===- tests/MissBitmapDifferentialTest.cpp - Seeded sharded-vs-sequential ===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Seeded, randomized differential test of the bitmap collectors: every
// case draws a trace shape, an L1/L2 geometry, a replacement policy,
// store handling, a shard count, a helper count, and route-once reuse
// on or off, then asserts that the sharded L1 ordered stream, the
// sharded L1 aggregates, and the sharded L2 stream all equal their
// sequential collectors. Trace lengths are mostly not multiples of 64
// and every trace ends in a cold load miss, so the last word of every
// bitmap is partial and its highest used bit is set.
//
// The base seed is printed; set CCPROF_DIFF_SEED to replay a run. Each
// case's own seed is part of its failure messages.
//
//===----------------------------------------------------------------------===//

#include "pmu/PebsEvent.h"
#include "sim/PartitionCache.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace ccprof;

namespace {

constexpr uint64_t DefaultSeed = 0xd1ff'b175;
constexpr unsigned NumCases = 64;
constexpr uint32_t LineBytes = 64;

uint64_t baseSeed() {
  if (const char *Env = std::getenv("CCPROF_DIFF_SEED"))
    return std::strtoull(Env, nullptr, 0);
  return DefaultSeed;
}

enum class TraceKind { Strided, Random, SameSet };

const char *kindName(TraceKind Kind) {
  switch (Kind) {
  case TraceKind::Strided:
    return "strided";
  case TraceKind::Random:
    return "random";
  case TraceKind::SameSet:
    return "same-set";
  }
  return "?";
}

/// A trace of \p NumRefs references of \p Kind against \p Geometry,
/// about a third of them stores, followed by one load of a line no
/// earlier reference touched — a cold miss at index N-1 in L1 and L2.
Trace makeTrace(TraceKind Kind, size_t NumRefs, const CacheGeometry &Geometry,
                Xoshiro256 &Rng) {
  const uint64_t Stride = Geometry.setStrideBytes();
  const uint64_t Ways = Geometry.associativity();
  const uint64_t HotSet = Rng.nextBounded(Geometry.numSets());
  const uint64_t Step = LineBytes * (1 + Rng.nextBounded(5)) / 2;
  constexpr uint64_t Footprint = uint64_t{1} << 20;
  Trace T;
  T.reserve(NumRefs + 1);
  for (size_t I = 0; I < NumRefs; ++I) {
    uint64_t Addr = 0;
    switch (Kind) {
    case TraceKind::Strided:
      Addr = (I * Step) % Footprint;
      break;
    case TraceKind::Random:
      Addr = Rng.nextBounded(Footprint);
      break;
    case TraceKind::SameSet:
      // One set, a few more lines than it has ways: every policy
      // evicts on nearly every access, with a trickle of other sets.
      Addr = Rng.nextBounded(8) == 0
                 ? Rng.nextBounded(Footprint)
                 : HotSet * LineBytes + Rng.nextBounded(Ways + 3) * Stride;
      break;
    }
    if (Rng.nextBounded(3) == 0)
      T.recordStore(0, Addr, 8);
    else
      T.recordLoad(0, Addr, 8);
  }
  T.recordLoad(1, Footprint + Stride * 64, 8);
  return T;
}

/// Associativity in [1, 64]; powers of two only for tree-PLRU.
uint32_t drawWays(ReplacementKind Policy, Xoshiro256 &Rng) {
  if (Policy == ReplacementKind::TreePlru)
    return uint32_t{1} << Rng.nextBounded(7);
  return 1 + static_cast<uint32_t>(Rng.nextBounded(64));
}

/// Set counts that are mostly not powers of two.
uint64_t drawSets(Xoshiro256 &Rng) {
  static constexpr uint64_t Sets[] = {2, 3, 5, 7, 12, 24, 37, 48, 64, 100};
  return Sets[Rng.nextBounded(std::size(Sets))];
}

} // namespace

TEST(MissBitmapDifferentialTest, ShardedCollectorsMatchSequential) {
  const uint64_t Seed = baseSeed();
  std::cout << "[ seed     ] CCPROF_DIFF_SEED=" << Seed << "\n";
  RecordProperty("seed", std::to_string(Seed));

  // One pool per helper count: the grant hands a collector every
  // worker of its pool, so the pool size is the helper count.
  std::vector<std::unique_ptr<ThreadPool>> Pools;
  for (unsigned Helpers = 0; Helpers <= 3; ++Helpers)
    Pools.push_back(std::make_unique<ThreadPool>(Helpers));
  ShardCachePool CachePool;
  PartitionCache Partitions;

  // An empty trace still takes the sharded path (MinRefsToShard = 0):
  // empty bitmaps, an empty union, no events.
  {
    SimContext Ctx;
    Ctx.Pool = Pools[3].get();
    Ctx.Shards = 3;
    Ctx.MinRefsToShard = 0;
    const CacheGeometry Geometry(5 * LineBytes * 2, LineBytes, 2);
    PageMapper Mapper(PagePolicy::FirstTouch);
    EXPECT_TRUE(
        collectL1MissStreamParallel(Trace(), Geometry, {}, Ctx).empty());
    EXPECT_TRUE(collectL2MissStreamParallel(Trace(), Geometry, Geometry,
                                            Mapper, {}, Ctx)
                    .empty());
  }

  Xoshiro256 Master(Seed);
  for (unsigned Case = 0; Case < NumCases; ++Case) {
    const uint64_t CaseSeed = Master.next();
    Xoshiro256 Rng(CaseSeed);

    static constexpr ReplacementKind Policies[] = {
        ReplacementKind::Lru, ReplacementKind::Fifo,
        ReplacementKind::TreePlru};
    static constexpr TraceKind Kinds[] = {TraceKind::Strided,
                                          TraceKind::Random,
                                          TraceKind::SameSet};
    static constexpr unsigned ShardCounts[] = {1, 2, 3, 7};
    static constexpr PagePolicy Mappings[] = {
        PagePolicy::Identity, PagePolicy::FirstTouch, PagePolicy::Shuffled};

    MissStreamOptions Options;
    Options.Policy = Policies[Rng.nextBounded(std::size(Policies))];
    Options.IncludeStores = Rng.nextBounded(2) == 1;
    const uint32_t Ways = drawWays(Options.Policy, Rng);
    const CacheGeometry L1(drawSets(Rng) * LineBytes * Ways, LineBytes, Ways);
    const uint32_t L2Ways = drawWays(Options.Policy, Rng);
    const CacheGeometry L2(drawSets(Rng) * 4 * LineBytes * L2Ways, LineBytes,
                           L2Ways);
    const TraceKind Kind = Kinds[Rng.nextBounded(std::size(Kinds))];
    // Lengths around the 64-bit word size and well past it; a
    // multiple of 64 only by chance (the trailing cold load adds one).
    const size_t NumRefs = Rng.nextBounded(4) == 0
                               ? Rng.nextBounded(200)
                               : 1 + Rng.nextBounded(30'000);
    const Trace T = makeTrace(Kind, NumRefs, L1, Rng);
    const unsigned Shards =
        ShardCounts[Rng.nextBounded(std::size(ShardCounts))];
    const unsigned Helpers = static_cast<unsigned>(Rng.nextBounded(4));
    const bool Reuse = Rng.nextBounded(2) == 1;
    const PagePolicy Mapping = Mappings[Rng.nextBounded(std::size(Mappings))];

    std::ostringstream Desc;
    Desc << "case " << Case << " (case seed " << CaseSeed << "): "
         << kindName(Kind) << " trace of " << T.size() << " refs, L1 "
         << L1.describe() << ", L2 " << L2.describe() << ", policy "
         << static_cast<int>(Options.Policy) << ", stores "
         << Options.IncludeStores << ", " << Shards << " shard(s), "
         << Helpers << " helper(s), reuse " << Reuse << ", mapping "
         << static_cast<int>(Mapping);
    SCOPED_TRACE(Desc.str());

    SimContext Ctx;
    Ctx.Pool = Pools[Helpers].get();
    Ctx.CachePool = &CachePool;
    Ctx.Shards = Shards;
    Ctx.MinRefsToShard = 0;
    Ctx.Partitions = Reuse ? &Partitions : nullptr;
    Ctx.TraceId = Reuse ? Partitions.registerTrace() : 0;

    const std::vector<MissEvent> Stream = collectL1MissStream(T, L1, Options);
    ASSERT_FALSE(Stream.empty());
    EXPECT_EQ(Stream.back().Ip, 1u) << "the last reference must miss";
    EXPECT_EQ(collectL1MissStreamParallel(T, L1, Options, Ctx), Stream);
    EXPECT_EQ(collectL1MissAggregates(T, L1, Options, Ctx),
              collectL1MissAggregates(T, L1, Options));

    PageMapper SeqMapper(Mapping), ParMapper(Mapping);
    const std::vector<MissEvent> L2Stream =
        collectL2MissStream(T, L1, L2, SeqMapper, Options);
    ASSERT_FALSE(L2Stream.empty());
    EXPECT_EQ(L2Stream.back().Ip, 1u) << "the last reference must miss L2";
    EXPECT_EQ(collectL2MissStreamParallel(T, L1, L2, ParMapper, Options, Ctx),
              L2Stream);

    if (Reuse)
      Partitions.releaseTrace(Ctx.TraceId);
    if (HasFailure()) {
      std::cout << "replay with CCPROF_DIFF_SEED=" << Seed << "\n";
      return;
    }
  }
}
