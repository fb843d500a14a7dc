//===- tests/PartitionReuseTest.cpp - Route-once partition reuse ----------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The route-once engine claims that retaining a trace's shard
// partition and replaying it across every configuration sharing an
// index geometry changes nothing but the routing cost. This suite
// enforces the claim at three layers:
//
//  * the PartitionCache itself: hit/build attribution through the
//    WasBuilt out-param, LRU eviction under a byte budget that never
//    evicts the most-recently-inserted entry, and trace release;
//
//  * routeOrReuse: byte-identical partitions at every helper count,
//    cache on vs off;
//
//  * the collectors and the batch runner: identical miss streams with
//    reuse on vs off, batch artifacts byte-identical to the naive
//    path, and exact build/reuse accounting on same-index-geometry
//    sweeps.
//
//===----------------------------------------------------------------------===//

#include "pipeline/JobRunner.h"
#include "pmu/PebsEvent.h"
#include "sim/PartitionCache.h"
#include "sim/ShardedSim.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

using namespace ccprof;

namespace {

/// Mixed strided/random reference stream with stores, as a Trace.
Trace makeTrace(size_t NumRefs, uint64_t Seed = 0x7e57'5eed) {
  Trace T;
  T.reserve(NumRefs);
  Xoshiro256 Rng(Seed);
  uint64_t Stride = 0;
  for (size_t I = 0; I < NumRefs; ++I) {
    uint64_t Addr;
    if (I % 4 != 0) {
      Stride += 24;
      Addr = Stride % (1 << 18);
    } else {
      Addr = Rng.nextBounded(1 << 18);
    }
    if (Rng.nextBounded(8) < 3)
      T.recordStore(0, Addr, 8);
    else
      T.recordLoad(0, Addr, 8);
  }
  return T;
}

/// A synthetic partition of \p NumRefs arena slots (content is
/// irrelevant to the cache-policy tests; only bytesOf matters).
ShardPartition makePartition(size_t NumRefs) {
  ShardPartition Part;
  Part.Arena.resize(NumRefs, ShardRef::make(0, 0, false));
  Part.Offsets = {0, NumRefs};
  return Part;
}

PartitionKey makeKey(uint64_t TraceId, uint64_t NumSets) {
  PartitionKey Key;
  Key.TraceId = TraceId;
  Key.NumSets = NumSets;
  Key.LineBytes = 64;
  Key.Shards = 2;
  return Key;
}

std::string serializeAll(const std::vector<JobOutcome> &Outcomes) {
  std::stringstream Stream;
  for (const JobOutcome &Outcome : Outcomes)
    if (Outcome.ok())
      Outcome.Artifact.writeTo(Stream);
  return Stream.str();
}

} // namespace

TEST(PartitionReuseTest, GetOrComputeBuildsOnceThenHits) {
  PartitionCache Cache;
  const uint64_t TraceId = Cache.registerTrace();
  const PartitionKey Key = makeKey(TraceId, 64);

  size_t Calls = 0;
  auto Build = [&] {
    ++Calls;
    return makePartition(100);
  };

  bool WasBuilt = false;
  const PartitionCache::PartitionPtr First =
      Cache.getOrCompute(Key, Build, &WasBuilt);
  EXPECT_TRUE(WasBuilt);
  EXPECT_EQ(Calls, 1u);
  ASSERT_NE(First, nullptr);
  EXPECT_EQ(First->Arena.size(), 100u);

  const PartitionCache::PartitionPtr Second =
      Cache.getOrCompute(Key, Build, &WasBuilt);
  EXPECT_FALSE(WasBuilt);
  EXPECT_EQ(Calls, 1u);
  EXPECT_EQ(Second.get(), First.get());

  // A different index geometry under the same trace is a distinct
  // entry.
  Cache.getOrCompute(makeKey(TraceId, 128), Build, &WasBuilt);
  EXPECT_TRUE(WasBuilt);
  EXPECT_EQ(Calls, 2u);

  const PartitionCache::CacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Builds, 2u);
  EXPECT_EQ(Stats.Evictions, 0u);
  EXPECT_EQ(Stats.ResidentEntries, 2u);
  EXPECT_EQ(Stats.ResidentBytes, 2 * PartitionCache::bytesOf(*First));
}

TEST(PartitionReuseTest, EvictionKeepsMostRecentUnderByteBudget) {
  // Budget below two partitions but above one: every insert evicts the
  // previous entry, never itself — even when a single entry exceeds
  // the whole budget.
  const size_t OneEntry = PartitionCache::bytesOf(makePartition(100));
  PartitionCache Cache(OneEntry + OneEntry / 2);
  const uint64_t TraceId = Cache.registerTrace();

  auto Build = [] { return makePartition(100); };
  bool WasBuilt = false;
  Cache.getOrCompute(makeKey(TraceId, 64), Build, &WasBuilt);
  Cache.getOrCompute(makeKey(TraceId, 128), Build, &WasBuilt);
  EXPECT_TRUE(WasBuilt);

  PartitionCache::CacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Evictions, 1u);
  EXPECT_EQ(Stats.ResidentEntries, 1u);
  EXPECT_LE(Stats.ResidentBytes, OneEntry + OneEntry / 2);

  // The survivor is the most recent insert: re-requesting it hits, and
  // the evicted key rebuilds.
  Cache.getOrCompute(makeKey(TraceId, 128), Build, &WasBuilt);
  EXPECT_FALSE(WasBuilt);
  Cache.getOrCompute(makeKey(TraceId, 64), Build, &WasBuilt);
  EXPECT_TRUE(WasBuilt);

  // An entry larger than the entire budget still resides (the cache
  // never evicts the entry it just admitted).
  PartitionCache Tiny(16);
  const uint64_t TinyId = Tiny.registerTrace();
  Tiny.getOrCompute(makeKey(TinyId, 64), Build, &WasBuilt);
  EXPECT_TRUE(WasBuilt);
  EXPECT_EQ(Tiny.stats().ResidentEntries, 1u);
  Tiny.getOrCompute(makeKey(TinyId, 64), Build, &WasBuilt);
  EXPECT_FALSE(WasBuilt);
}

TEST(PartitionReuseTest, ReleaseTraceDropsOnlyThatTrace) {
  PartitionCache Cache;
  const uint64_t A = Cache.registerTrace();
  const uint64_t B = Cache.registerTrace();
  EXPECT_NE(A, B);
  EXPECT_NE(A, 0u);

  auto Build = [] { return makePartition(50); };
  Cache.getOrCompute(makeKey(A, 64), Build);
  Cache.getOrCompute(makeKey(A, 128), Build);
  Cache.getOrCompute(makeKey(B, 64), Build);
  EXPECT_EQ(Cache.stats().ResidentEntries, 3u);

  // Evicted arenas stay valid for holders of the shared_ptr.
  const PartitionCache::PartitionPtr Held =
      Cache.getOrCompute(makeKey(A, 64), Build);
  Cache.releaseTrace(A);
  EXPECT_EQ(Cache.stats().ResidentEntries, 1u);
  EXPECT_EQ(Held->Arena.size(), 50u);

  bool WasBuilt = false;
  Cache.getOrCompute(makeKey(B, 64), Build, &WasBuilt);
  EXPECT_FALSE(WasBuilt);
}

TEST(PartitionReuseTest, RouteOrReuseIsByteIdenticalAtEveryShape) {
  const Trace T = makeTrace(40'000);
  const CacheGeometry Geometry(8192, 64, 2);
  const std::vector<SetRange> Plan = planShards(Geometry.numSets(), 3);
  const ShardPartition Sequential =
      partitionBySet(T.records(), Geometry, Plan);

  ThreadPool Pool(7);
  PartitionCache Cache;
  for (unsigned Helpers : {0u, 1u, 3u, 7u}) {
    for (bool UseCache : {false, true}) {
      SimContext Ctx;
      Ctx.Pool = &Pool;
      Ctx.Partitions = UseCache ? &Cache : nullptr;
      // A fresh trace id per shape forces a rebuild even with the
      // cache on, so every helper count routes for real.
      Ctx.TraceId = UseCache ? Cache.registerTrace() : 0;
      const PartitionCache::PartitionPtr Part =
          routeOrReuse(T.records(), Geometry, Plan, Ctx, Helpers);
      ASSERT_NE(Part, nullptr);
      EXPECT_EQ(Part->Arena, Sequential.Arena)
          << "helpers " << Helpers << ", cache " << UseCache;
      EXPECT_EQ(Part->Offsets, Sequential.Offsets);
      if (UseCache)
        Cache.releaseTrace(Ctx.TraceId);
    }
  }
}

TEST(PartitionReuseTest, SweepAcrossConfigsRoutesOnce) {
  // Four configurations sharing one index geometry (64 sets x 64B):
  // the first sharded collection routes, the rest reuse, and every
  // stream still equals its own sequential oracle.
  const Trace T = makeTrace(60'000);
  struct SweepConfig {
    CacheGeometry Geometry;
    ReplacementKind Policy;
  };
  const std::vector<SweepConfig> Configs = {
      {CacheGeometry(8192, 64, 2), ReplacementKind::Lru},
      {CacheGeometry(16384, 64, 4), ReplacementKind::Lru},
      {CacheGeometry(8192, 64, 2), ReplacementKind::Fifo},
      {CacheGeometry(32768, 64, 8), ReplacementKind::TreePlru},
  };

  ThreadPool Pool(3);
  ThreadBudget Budget(4);
  ShardCachePool CachePool;
  ShardExecStats Stats;
  PartitionCache Partitions;
  SimContext Ctx;
  Ctx.Pool = &Pool;
  Ctx.Budget = &Budget;
  Ctx.CachePool = &CachePool;
  Ctx.Stats = &Stats;
  Ctx.Shards = 4;
  Ctx.MinRefsToShard = 0;
  Ctx.Partitions = &Partitions;
  Ctx.TraceId = Partitions.registerTrace();

  for (const SweepConfig &C : Configs) {
    MissStreamOptions Options;
    Options.Policy = C.Policy;
    EXPECT_EQ(collectL1MissStreamParallel(T, C.Geometry, Options, Ctx),
              collectL1MissStream(T, C.Geometry, Options));
  }
  Partitions.releaseTrace(Ctx.TraceId);

  EXPECT_EQ(Stats.PartitionBuilds.load(), 1u);
  EXPECT_EQ(Stats.PartitionReuses.load(), Configs.size() - 1);
}

TEST(PartitionReuseTest, BatchArtifactsByteIdenticalAndPartitionsReused) {
  // An L1 + L2 matrix over one workload: four jobs, one group, two miss
  // streams (the periods share each stream). The L1 stream routes the
  // group trace at the L1 index geometry; the L2 stream's stage-1 L1
  // replay shares that geometry and reuses the partition. One worker
  // and a forced shard count make both counts deterministic, and the
  // artifacts must still be the naive path's bytes.
  BatchMatrix Matrix;
  Matrix.Workloads = {"Symmetrization"};
  Matrix.Periods = {606, 1212};
  Matrix.Levels = {ProfileLevel::L1, ProfileLevel::L2};
  const std::vector<JobSpec> Jobs = expandMatrix(Matrix);
  ASSERT_EQ(Jobs.size(), 4u);

  const std::string Naive = serializeAll(runJobs(Jobs, 1));

  BatchExecOptions Exec;
  Exec.Workers = 1;
  Exec.SimThreads = 4;
  Exec.Shards = 2;
  Exec.MinRefsToShard = 0;

  SharedBatchStats Stats;
  EXPECT_EQ(serializeAll(runJobsShared(Jobs, Exec, 0, nullptr, nullptr,
                                       &Stats)),
            Naive);
  EXPECT_EQ(Stats.Streams.Misses, 2u);
  EXPECT_EQ(Stats.PartitionBuilds, 1u);
  EXPECT_EQ(Stats.PartitionReuses, 1u);
}
