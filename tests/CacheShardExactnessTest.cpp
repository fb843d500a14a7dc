//===- tests/CacheShardExactnessTest.cpp - Sharded simulation exactness ---===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The set-sharded parallel simulation engine claims bit-exactness: at
// every shard count and thread count, the global miss stream —
// and therefore every artifact downstream of it — is identical to what
// a sequential simulation produces. This suite enforces the claim at
// three layers:
//
//  * the sharding primitives (planShards / simulateShardBitmap /
//    unionMissBitmaps) against the scalar ReferenceCache oracle,
//    including per-set miss counts gathered from windowed shard caches;
//
//  * the trace-facing parallel collectors against their sequential
//    counterparts, across policies, store handling, L2 page mappings,
//    and the Random-policy sequential fallback;
//
//  * the batch runner: byte-identical serialized artifacts across
//    Workers / SimThreads / Shards combinations.
//
//===----------------------------------------------------------------------===//

#include "pipeline/JobRunner.h"
#include "sim/MrcEngine.h"
#include "sim/ReferenceCache.h"
#include "sim/ShardedSim.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <sstream>
#include <vector>

using namespace ccprof;

namespace {

// 64 sets, 2 ways: small enough that the synthetic stream exercises
// every set, many evictions, and window boundaries of every shard plan.
CacheGeometry testGeometry() { return CacheGeometry(8192, 64, 2); }

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

/// Oracle: global sequence numbers of every missing access (loads and
/// stores), from the scalar reference model.
std::vector<uint64_t> referenceMissSeqs(const Trace &T,
                                        const CacheGeometry &Geometry,
                                        ReplacementKind Policy) {
  ReferenceCache Oracle(Geometry, Policy);
  std::vector<uint64_t> Seqs;
  const std::span<const MemoryRecord> Records = T.records();
  for (size_t I = 0; I < Records.size(); ++I)
    if (!Oracle.access(Records[I].Addr, Records[I].IsWrite).Hit)
      Seqs.push_back(I);
  return Seqs;
}

/// Sequence numbers of the set bits of \p Bits, ascending.
std::vector<uint64_t> setBits(const MissBitmap &Bits) {
  std::vector<uint64_t> Seqs;
  for (size_t W = 0; W < Bits.size(); ++W)
    for (size_t B = 0; B < 64; ++B)
      if (Bits[W] >> B & 1)
        Seqs.push_back(W * 64 + B);
  return Seqs;
}

/// Routes each record of \p T into its shard per \p Plan, preserving
/// global order within every shard.
std::vector<std::vector<ShardRef>>
partition(const Trace &T, const CacheGeometry &Geometry,
          std::span<const SetRange> Plan) {
  const ShardMap Map(Plan);
  std::vector<std::vector<ShardRef>> Shards(Plan.size());
  const std::span<const MemoryRecord> Records = T.records();
  for (size_t I = 0; I < Records.size(); ++I) {
    const MemoryRecord &R = Records[I];
    Shards[Map.shardOf(Geometry.setIndexOf(R.Addr))].push_back(
        ShardRef::make(I, R.Addr, R.IsWrite));
  }
  return Shards;
}

std::string serializeAll(const std::vector<JobOutcome> &Outcomes) {
  std::stringstream Stream;
  for (const JobOutcome &Outcome : Outcomes) {
    EXPECT_TRUE(Outcome.ok()) << Outcome.Error;
    if (Outcome.ok())
      Outcome.Artifact.writeTo(Stream);
  }
  return Stream.str();
}

} // namespace

TEST(ShardPlanTest, CoversEverySetExactlyOnce) {
  for (unsigned K : {1u, 2u, 3u, 7u, 64u, 200u}) {
    const std::vector<SetRange> Plan = planShards(64, K);
    EXPECT_LE(Plan.size(), std::min<size_t>(K, 64));
    uint64_t Next = 0;
    for (const SetRange &Range : Plan) {
      EXPECT_EQ(Range.Begin, Next) << "gap or overlap at shard boundary";
      EXPECT_GT(Range.End, Range.Begin) << "empty shard";
      Next = Range.End;
    }
    EXPECT_EQ(Next, 64u) << "plan does not cover the set space";

    const ShardMap Map(Plan);
    for (uint64_t Set = 0; Set < 64; ++Set)
      EXPECT_TRUE(Plan[Map.shardOf(Set)].contains(Set));
  }
}

TEST(CacheShardExactnessTest, ShardMissBitmapsMatchReferenceOracle) {
  const CacheGeometry Geometry = testGeometry();
  const Trace T = makeTrace(60'000);
  ThreadPool Pool(0);

  for (ReplacementKind Policy :
       {ReplacementKind::Lru, ReplacementKind::Fifo,
        ReplacementKind::TreePlru}) {
    const std::vector<uint64_t> Expected =
        referenceMissSeqs(T, Geometry, Policy);
    ASSERT_FALSE(Expected.empty());

    for (unsigned K : {1u, 2u, 3u, 7u, 64u}) {
      const std::vector<SetRange> Plan = planShards(Geometry.numSets(), K);
      const std::vector<std::vector<ShardRef>> Parts =
          partition(T, Geometry, Plan);

      std::vector<MissBitmap> PerShard(Plan.size());
      std::vector<Cache> ShardCaches;
      ShardCaches.reserve(Plan.size());
      for (size_t S = 0; S < Plan.size(); ++S) {
        ShardCaches.emplace_back(Geometry, Plan[S], Policy);
        PerShard[S] = simulateShardBitmap(ShardCaches[S], Parts[S], T.size(),
                                          /*MarkStores=*/true);
      }
      const MissUnion Union = unionMissBitmaps(PerShard, Pool, 0);
      EXPECT_EQ(setBits(Union.Bits), Expected)
          << "policy " << static_cast<int>(Policy) << ", " << K
          << " shard(s)";
      EXPECT_EQ(Union.count(), Expected.size());

      // Per-set miss counts, reassembled from the windowed shard
      // caches, must match the reference model set for set.
      ReferenceCache Oracle(Geometry, Policy);
      for (const MemoryRecord &R : T.records())
        Oracle.access(R.Addr, R.IsWrite);
      for (size_t S = 0; S < Plan.size(); ++S)
        for (uint64_t Set = Plan[S].Begin; Set < Plan[S].End; ++Set)
          ASSERT_EQ(ShardCaches[S].missesOnSet(Set), Oracle.missesOnSet(Set))
              << "set " << Set << ", " << K << " shard(s)";
    }
  }
}

TEST(CacheShardExactnessTest, WindowedCacheReuseIsExact) {
  const CacheGeometry Geometry = testGeometry();
  const Trace T = makeTrace(20'000);
  const std::vector<SetRange> Plan = planShards(Geometry.numSets(), 4);
  const std::vector<std::vector<ShardRef>> Parts =
      partition(T, Geometry, Plan);

  // Fresh caches, one per shard.
  std::vector<MissBitmap> Fresh(Plan.size());
  for (size_t S = 0; S < Plan.size(); ++S) {
    Cache C(Geometry, Plan[S], ReplacementKind::Lru);
    Fresh[S] = simulateShardBitmap(C, Parts[S], T.size(), true);
  }

  // One pooled cache rewound across all shards (equal window widths).
  std::vector<MissBitmap> Reused(Plan.size());
  Cache Pooled(Geometry, Plan[0], ReplacementKind::Lru);
  for (size_t S = 0; S < Plan.size(); ++S) {
    Pooled.resetForReuse(Plan[S]);
    Reused[S] = simulateShardBitmap(Pooled, Parts[S], T.size(), true);
    EXPECT_EQ(Pooled.window(), Plan[S]);
  }
  EXPECT_EQ(Fresh, Reused);

  // The pool recycles parked instances and counts the reuses.
  ShardCachePool Pool;
  std::unique_ptr<Cache> A =
      Pool.acquire(Geometry, ReplacementKind::Lru, Plan[0]);
  Pool.park(std::move(A));
  EXPECT_EQ(Pool.parked(), 1u);
  std::unique_ptr<Cache> B =
      Pool.acquire(Geometry, ReplacementKind::Lru, Plan[1]);
  EXPECT_EQ(Pool.reuses(), 1u);
  EXPECT_EQ(Pool.parked(), 0u);
  EXPECT_EQ(B->window(), Plan[1]);
  EXPECT_EQ(simulateShardBitmap(*B, Parts[1], T.size(), true), Fresh[1]);

  // A mismatched geometry never reuses a parked instance.
  Pool.park(std::move(B));
  std::unique_ptr<Cache> C =
      Pool.acquire(CacheGeometry(16384, 64, 4), ReplacementKind::Lru,
                   SetRange{0, 16});
  EXPECT_EQ(Pool.reuses(), 1u);
  EXPECT_EQ(C->geometry().sizeBytes(), 16384u);
}

TEST(CacheShardExactnessTest, ParallelL1CollectorMatchesSequential) {
  const CacheGeometry Geometry = testGeometry();
  const Trace T = makeTrace(60'000);

  ThreadPool Pool(3);
  ShardCachePool CachePool;
  for (ReplacementKind Policy :
       {ReplacementKind::Lru, ReplacementKind::Fifo,
        ReplacementKind::TreePlru}) {
    for (bool IncludeStores : {false, true}) {
      MissStreamOptions Options;
      Options.Policy = Policy;
      Options.IncludeStores = IncludeStores;
      const std::vector<MissEvent> Sequential =
          collectL1MissStream(T, Geometry, Options);

      for (unsigned Shards : {0u, 1u, 2u, 3u, 7u, 64u}) {
        ThreadBudget Budget(4);
        SimContext Ctx;
        Ctx.Pool = &Pool;
        Ctx.Budget = &Budget;
        Ctx.CachePool = &CachePool;
        Ctx.Shards = Shards;
        Ctx.MinRefsToShard = 0;
        EXPECT_EQ(collectL1MissStreamParallel(T, Geometry, Options, Ctx),
                  Sequential)
            << "policy " << static_cast<int>(Policy) << ", stores "
            << IncludeStores << ", " << Shards << " shard(s)";
        // Every granted budget slot must have been returned.
        EXPECT_EQ(Budget.available(), 4u);
      }
    }
  }
}

TEST(CacheShardExactnessTest, ParallelL2CollectorMatchesSequential) {
  const CacheGeometry L1 = testGeometry();
  const CacheGeometry L2(32 * 1024, 64, 4);
  const Trace T = makeTrace(60'000);

  ThreadPool Pool(3);
  for (PagePolicy Mapping :
       {PagePolicy::Identity, PagePolicy::FirstTouch, PagePolicy::Shuffled}) {
    for (bool IncludeStores : {false, true}) {
      MissStreamOptions Options;
      Options.IncludeStores = IncludeStores;
      // Page mappers are stateful (first-touch order): each collector
      // run gets its own, exactly as the profiler does.
      PageMapper SeqMapper(Mapping);
      const std::vector<MissEvent> Sequential =
          collectL2MissStream(T, L1, L2, SeqMapper, Options);

      for (unsigned Shards : {2u, 7u}) {
        ThreadBudget Budget(4);
        SimContext Ctx;
        Ctx.Pool = &Pool;
        Ctx.Budget = &Budget;
        Ctx.Shards = Shards;
        Ctx.MinRefsToShard = 0;
        PageMapper ParMapper(Mapping);
        EXPECT_EQ(
            collectL2MissStreamParallel(T, L1, L2, ParMapper, Options, Ctx),
            Sequential)
            << "mapping " << static_cast<int>(Mapping) << ", stores "
            << IncludeStores << ", " << Shards << " shard(s)";
        EXPECT_EQ(Budget.available(), 4u);
      }
    }
  }
}

TEST(CacheShardExactnessTest, L2StageTwoShardsWithExactAccounting) {
  // The L2 collector's stage-2 replay shards by L2 set since the
  // route-once rework; its grant must bump the dedicated counter — not
  // ShardedSims, which would double-count one collection — and the
  // stream must stay identical to the sequential collector at every
  // shard shape and page mapping.
  const CacheGeometry L1 = testGeometry();
  const CacheGeometry L2(32 * 1024, 64, 4);
  const Trace T = makeTrace(60'000);

  ThreadPool Pool(3);
  for (PagePolicy Mapping :
       {PagePolicy::Identity, PagePolicy::FirstTouch, PagePolicy::Shuffled}) {
    MissStreamOptions Options;
    PageMapper SeqMapper(Mapping);
    const std::vector<MissEvent> Sequential =
        collectL2MissStream(T, L1, L2, SeqMapper, Options);

    for (unsigned Shards : {2u, 4u, 7u}) {
      ThreadBudget Budget(4);
      ShardExecStats Stats;
      SimContext Ctx;
      Ctx.Pool = &Pool;
      Ctx.Budget = &Budget;
      Ctx.Stats = &Stats;
      Ctx.Shards = Shards;
      Ctx.MinRefsToShard = 0;
      PageMapper ParMapper(Mapping);
      EXPECT_EQ(
          collectL2MissStreamParallel(T, L1, L2, ParMapper, Options, Ctx),
          Sequential)
          << "mapping " << static_cast<int>(Mapping) << ", " << Shards
          << " shard(s)";
      EXPECT_EQ(Stats.ShardedSims.load(), 1u);          // stage 1 only
      EXPECT_EQ(Stats.L2StageShardedSims.load(), 1u);   // stage 2 only
      EXPECT_EQ(Budget.available(), 4u);
    }
  }
}

TEST(CacheShardExactnessTest, RandomPolicyFallsBackToSequential) {
  const CacheGeometry Geometry = testGeometry();
  const Trace T = makeTrace(30'000);
  MissStreamOptions Options;
  Options.Policy = ReplacementKind::Random;
  const std::vector<MissEvent> Sequential =
      collectL1MissStream(T, Geometry, Options);

  ThreadPool Pool(3);
  ThreadBudget Budget(4);
  SimContext Ctx;
  Ctx.Pool = &Pool;
  Ctx.Budget = &Budget;
  Ctx.Shards = 7;
  Ctx.MinRefsToShard = 0;
  // Random draws from a cache-global RNG whose consumption order
  // depends on cross-set interleaving; the collector must refuse to
  // shard it and still reproduce the sequential stream.
  EXPECT_EQ(collectL1MissStreamParallel(T, Geometry, Options, Ctx),
            Sequential);
  EXPECT_EQ(Budget.available(), 4u);
}

TEST(CacheShardExactnessTest, ShortTracesStaySequential) {
  const CacheGeometry Geometry = testGeometry();
  const Trace T = makeTrace(1'000);
  MissStreamOptions Options;
  const std::vector<MissEvent> Sequential =
      collectL1MissStream(T, Geometry, Options);

  ThreadPool Pool(3);
  SimContext Ctx;
  Ctx.Pool = &Pool;
  Ctx.Shards = 4;
  // Default MinRefsToShard (64k) far exceeds the trace: the gate must
  // short-circuit without touching pool or budget, and stay exact.
  EXPECT_EQ(collectL1MissStreamParallel(T, Geometry, Options, Ctx),
            Sequential);
}

TEST(CacheShardExactnessTest, OneShardGrantRoutesNothing) {
  // An explicit --shards 1 with idle helpers: one shard is the whole
  // set space, so routing it would only copy the trace. Every parallel
  // entry point must hand its helpers back, run its sequential path
  // and build no partition.
  const CacheGeometry L1 = testGeometry();
  const CacheGeometry L2(32 * 1024, 64, 4);
  const Trace T = makeTrace(60'000);
  MissStreamOptions Options;
  Options.IncludeStores = true;

  ThreadPool Pool(3);
  ThreadBudget Budget(4);
  ShardExecStats Stats;
  SimContext Ctx;
  Ctx.Pool = &Pool;
  Ctx.Budget = &Budget;
  Ctx.Stats = &Stats;
  Ctx.Shards = 1;
  Ctx.MinRefsToShard = 0;

  EXPECT_EQ(collectL1MissStreamParallel(T, L1, Options, Ctx),
            collectL1MissStream(T, L1, Options));
  EXPECT_EQ(Stats.PartitionBuilds.load(), 0u) << "L1 ordered";
  EXPECT_EQ(Budget.available(), 4u);

  EXPECT_EQ(collectL1MissAggregates(T, L1, Options, Ctx),
            collectL1MissAggregates(T, L1, Options));
  EXPECT_EQ(Stats.PartitionBuilds.load(), 0u) << "aggregates";
  EXPECT_EQ(Budget.available(), 4u);

  PageMapper SeqMapper(PagePolicy::FirstTouch);
  PageMapper ParMapper(PagePolicy::FirstTouch);
  EXPECT_EQ(collectL2MissStreamParallel(T, L1, L2, ParMapper, Options, Ctx),
            collectL2MissStream(T, L1, L2, SeqMapper, Options));
  EXPECT_EQ(Stats.PartitionBuilds.load(), 0u) << "L2";
  EXPECT_EQ(Budget.available(), 4u);

  MrcOptions Exact;
  Exact.Reference = L1;
  const MissRatioCurve Sequential = MrcEngine::compute(T, Exact);
  const MissRatioCurve Curve = MrcEngine::compute(T, Exact, Ctx);
  EXPECT_EQ(Curve.ColdWeight, Sequential.ColdWeight);
  EXPECT_EQ(Curve.PerSetCold, Sequential.PerSetCold);
  EXPECT_EQ(Curve.StackDistances.cdfSeries(),
            Sequential.StackDistances.cdfSeries());
  EXPECT_EQ(Curve.PerSetDistances.cdfSeries(),
            Sequential.PerSetDistances.cdfSeries());
  EXPECT_EQ(Stats.PartitionBuilds.load(), 0u) << "exact MRC";
  EXPECT_EQ(Budget.available(), 4u);

  EXPECT_EQ(Stats.ShardedSims.load(), 0u);
  EXPECT_EQ(Stats.L2StageShardedSims.load(), 0u);
}

TEST(CacheShardExactnessTest, BatchArtifactsAreByteIdenticalAcrossShapes) {
  BatchMatrix Matrix;
  Matrix.Workloads = {"Symmetrization"};
  Matrix.Periods = {606, 1212};
  Matrix.Levels = {ProfileLevel::L1, ProfileLevel::L2};
  const std::vector<JobSpec> Jobs = expandMatrix(Matrix);
  ASSERT_GE(Jobs.size(), 4u);

  // Ground truth: the naive engine, one full simulation per job.
  const std::string Naive = serializeAll(runJobs(Jobs, 1));

  // Budget == worker count, sequential and threaded.
  for (unsigned N : {1u, 2u}) {
    BatchExecOptions Exec;
    Exec.Workers = N;
    Exec.SimThreads = N;
    EXPECT_EQ(serializeAll(runJobsShared(Jobs, Exec)), Naive);
  }

  // The sharded engine at several execution shapes, forcing sharding
  // on every simulation (MinRefsToShard = 0).
  const auto MakeExec = [](unsigned Workers, unsigned SimThreads,
                           unsigned Shards) {
    BatchExecOptions Exec;
    Exec.Workers = Workers;
    Exec.SimThreads = SimThreads;
    Exec.Shards = Shards;
    Exec.MinRefsToShard = 0;
    return Exec;
  };
  for (const BatchExecOptions &Exec :
       {MakeExec(1, 4, 0), MakeExec(2, 4, 3), MakeExec(4, 2, 0),
        MakeExec(1, 1, 5)}) {
    SharedBatchStats Stats;
    EXPECT_EQ(serializeAll(runJobsShared(Jobs, Exec, 0, nullptr, nullptr,
                                         &Stats)),
              Naive)
        << "Workers=" << Exec.Workers << " SimThreads=" << Exec.SimThreads
        << " Shards=" << Exec.Shards;
    EXPECT_GT(Stats.TraceGroups, 0u);
  }
}

TEST(CacheShardExactnessTest, ParallelPartitionMatchesSequential) {
  const CacheGeometry Geometry = testGeometry();
  // Big enough for several 32k-record chunks, odd enough that the
  // chunk grid never divides evenly.
  const Trace T = makeTrace(200'001);

  ThreadPool Pool(3);
  for (unsigned K : {2u, 3u, 7u, 64u}) {
    const std::vector<SetRange> Plan = planShards(Geometry.numSets(), K);
    const ShardPartition Sequential =
        partitionBySet(T.records(), Geometry, Plan);
    const std::vector<std::vector<ShardRef>> Oracle =
        partition(T, Geometry, Plan);

    // The flat arena must hold exactly the per-shard vectors of the
    // naive router, shard for shard, record for record.
    ASSERT_EQ(Sequential.numShards(), Plan.size());
    EXPECT_EQ(Sequential.totalRefs(), T.size());
    for (size_t S = 0; S < Plan.size(); ++S) {
      const std::span<const ShardRef> Shard = Sequential.shard(S);
      ASSERT_EQ(Shard.size(), Oracle[S].size()) << K << " shards, shard " << S;
      EXPECT_TRUE(std::equal(Shard.begin(), Shard.end(), Oracle[S].begin()))
          << K << " shards, shard " << S;
    }

    // The chunked parallel router must reproduce the sequential arena
    // bit for bit at every helper count (0 = all chunks in the caller).
    for (unsigned Helpers : {0u, 1u, 3u}) {
      const ShardPartition Parallel = partitionBySetParallel(
          T.records(), Geometry, Plan, Pool, Helpers);
      EXPECT_EQ(Parallel.Offsets, Sequential.Offsets)
          << K << " shards, " << Helpers << " helper(s)";
      EXPECT_EQ(Parallel.Arena, Sequential.Arena)
          << K << " shards, " << Helpers << " helper(s)";
    }
  }
}

TEST(CacheShardExactnessTest, BitmapUnionIsIdenticalAtEveryHelperCount) {
  // Bitmaps long enough for several 4096-word union chunks, with a bit
  // count that is not a multiple of 64, disjoint bits as shard miss
  // bitmaps always have, and the last reference missing.
  constexpr size_t NumRefs = 2'000'003;
  const size_t NumWords = (NumRefs + 63) / 64;
  std::vector<MissBitmap> Shards(5, MissBitmap(NumWords, 0));
  Xoshiro256 Rng(0xb17'5e7);
  std::vector<uint64_t> Expected;
  for (uint64_t Seq = 0; Seq < NumRefs; ++Seq) {
    if (Seq + 1 != NumRefs && Rng.nextBounded(3) != 0)
      continue;
    Shards[Rng.nextBounded(Shards.size())][Seq / 64] |= uint64_t{1}
                                                        << (Seq % 64);
    Expected.push_back(Seq);
  }

  ThreadPool Pool(3);
  std::vector<MissBitmap> Sequential = Shards;
  const MissUnion Reference = unionMissBitmaps(Sequential, Pool, 0);
  EXPECT_TRUE(Sequential.empty()) << "the union consumes its inputs";
  EXPECT_EQ(setBits(Reference.Bits), Expected);
  EXPECT_EQ(Reference.count(), Expected.size());

  for (unsigned Helpers : {1u, 3u}) {
    std::vector<MissBitmap> Inputs = Shards;
    const MissUnion Union = unionMissBitmaps(Inputs, Pool, Helpers);
    EXPECT_EQ(Union.Bits, Reference.Bits) << Helpers << " helper(s)";
    ASSERT_GT(Union.Chunks.size(), 2u) << "grid must span several chunks";
    // Offsets[C] counts the set bits before chunk C.
    for (size_t C = 0; C + 1 < Union.Chunks.size(); ++C) {
      size_t Before = 0;
      for (size_t W = 0; W < Union.Chunks[C]; ++W)
        Before += static_cast<size_t>(std::popcount(Union.Bits[W]));
      EXPECT_EQ(Union.Offsets[C], Before) << "chunk " << C;
    }
    EXPECT_EQ(Union.count(), Expected.size());
  }
}

TEST(CacheShardExactnessTest, AggregateCollectorMatchesStreamAggregates) {
  const CacheGeometry Geometry = testGeometry();
  const Trace T = makeTrace(80'000);

  ThreadPool Pool(3);
  ShardCachePool CachePool;
  for (ReplacementKind Policy :
       {ReplacementKind::Lru, ReplacementKind::Fifo,
        ReplacementKind::TreePlru}) {
    for (bool IncludeStores : {false, true}) {
      MissStreamOptions Options;
      Options.Policy = Policy;
      Options.IncludeStores = IncludeStores;
      const MissStreamAggregates Sequential =
          collectL1MissAggregates(T, Geometry, Options);
      const std::vector<MissEvent> Stream =
          collectL1MissStream(T, Geometry, Options);

      // The sequential aggregates must agree with the ordered stream
      // and the reference model before they can anchor the sharded
      // comparison.
      EXPECT_EQ(Sequential.Accesses, T.size());
      EXPECT_EQ(Sequential.Events, Stream.size());
      EXPECT_EQ(Sequential.Misses,
                Sequential.LoadMisses + Sequential.StoreMisses);
      ReferenceCache Oracle(Geometry, Policy);
      for (const MemoryRecord &R : T.records())
        Oracle.access(R.Addr, R.IsWrite);
      ASSERT_EQ(Sequential.PerSetMisses.size(), Geometry.numSets());
      for (uint64_t Set = 0; Set < Geometry.numSets(); ++Set)
        ASSERT_EQ(Sequential.PerSetMisses[Set], Oracle.missesOnSet(Set))
            << "set " << Set;

      // Merge elision: the sharded aggregate path must reproduce the
      // sequential aggregates exactly, at every shard count, without
      // ever building the ordered stream.
      for (unsigned Shards : {2u, 3u, 7u, 64u}) {
        ThreadBudget Budget(4);
        ShardExecStats Stats;
        SimContext Ctx;
        Ctx.Pool = &Pool;
        Ctx.Budget = &Budget;
        Ctx.CachePool = &CachePool;
        Ctx.Stats = &Stats;
        Ctx.Shards = Shards;
        Ctx.MinRefsToShard = 0;
        EXPECT_EQ(collectL1MissAggregates(T, Geometry, Options, Ctx),
                  Sequential)
            << "policy " << static_cast<int>(Policy) << ", stores "
            << IncludeStores << ", " << Shards << " shard(s)";
        EXPECT_EQ(Stats.ElidedMerges.load(), 1u);
        EXPECT_EQ(Budget.available(), 4u);
      }
    }
  }
}

TEST(CacheShardExactnessTest, UnhelpedExplicitShardsAreCountedDegraded) {
  const CacheGeometry Geometry = testGeometry();
  const Trace T = makeTrace(70'000);
  const MissStreamOptions Options;
  const std::vector<MissEvent> Sequential =
      collectL1MissStream(T, Geometry, Options);

  ThreadPool Pool(3);
  ThreadBudget Budget(4);
  // Drain the budget: every slot is busy elsewhere, exactly the state
  // of a batch whose workers cover the machine.
  ASSERT_EQ(Budget.tryAcquire(4), 4u);

  ShardExecStats Stats;
  SimContext Ctx;
  Ctx.Pool = &Pool;
  Ctx.Budget = &Budget;
  Ctx.Stats = &Stats;
  Ctx.MinRefsToShard = 0;

  // Automatic shard count on an exhausted budget: the gate declines to
  // shard at all, and nothing is counted.
  Ctx.Shards = 0;
  EXPECT_EQ(collectL1MissStreamParallel(T, Geometry, Options, Ctx),
            Sequential);
  EXPECT_EQ(Stats.ShardedSims.load(), 0u);

  // An explicit --shards 4 is still honored: the caller's thread
  // partitions and replays all four shards back to back (degraded
  // serialized mode), the run is counted as sharded-but-unhelped, and
  // the stream stays byte-identical.
  Ctx.Shards = 4;
  EXPECT_EQ(collectL1MissStreamParallel(T, Geometry, Options, Ctx),
            Sequential);
  EXPECT_EQ(Stats.ShardedSims.load(), 1u);
  EXPECT_EQ(Stats.UnhelpedShardedSims.load(), 1u);
  EXPECT_EQ(Budget.available(), 0u) << "no slot may leak back";

  // With the budget refilled the same context shards with helpers:
  // counted as sharded, not as degraded.
  Budget.release(4);
  EXPECT_EQ(collectL1MissStreamParallel(T, Geometry, Options, Ctx),
            Sequential);
  EXPECT_EQ(Stats.ShardedSims.load(), 2u);
  EXPECT_EQ(Stats.UnhelpedShardedSims.load(), 1u);
  EXPECT_EQ(Budget.available(), 4u);
}

TEST(CacheShardExactnessTest, ShardCachePoolBucketsByConfig) {
  const CacheGeometry Small = testGeometry();          // 64 sets, 2-way
  const CacheGeometry Big(32 * 1024, 64, 4);           // 128 sets, 4-way
  const SetRange WinA{0, 16}, WinB{16, 32}, Wide{0, 32};

  ShardCachePool Pool;
  // Park one cache per distinct (geometry, policy, window-width)
  // bucket, plus a second LRU/Small/16 instance.
  Pool.park(std::make_unique<Cache>(Small, WinA, ReplacementKind::Lru));
  Pool.park(std::make_unique<Cache>(Small, WinB, ReplacementKind::Lru));
  Pool.park(std::make_unique<Cache>(Small, WinA, ReplacementKind::Fifo));
  Pool.park(std::make_unique<Cache>(Big, WinA, ReplacementKind::Lru));
  Pool.park(std::make_unique<Cache>(Small, Wide, ReplacementKind::Lru));
  EXPECT_EQ(Pool.parked(), 5u);

  // Same geometry, same policy, same window width, different window
  // *position*: reusable — the pool rewinds the window.
  std::unique_ptr<Cache> R1 =
      Pool.acquire(Small, ReplacementKind::Lru, SetRange{32, 48});
  EXPECT_EQ(Pool.reuses(), 1u);
  EXPECT_EQ(Pool.parked(), 4u);
  EXPECT_EQ(R1->window(), (SetRange{32, 48}));

  // Both parked LRU/Small/16 instances drain before a miss.
  std::unique_ptr<Cache> R2 =
      Pool.acquire(Small, ReplacementKind::Lru, WinA);
  EXPECT_EQ(Pool.reuses(), 2u);
  EXPECT_EQ(Pool.parked(), 3u);

  // Bucket misses: fresh instances, no reuse counted — a different
  // policy, geometry, or window width never matches.
  Pool.acquire(Small, ReplacementKind::TreePlru, WinA);
  Pool.acquire(CacheGeometry(4096, 64, 2), ReplacementKind::Lru, WinA);
  Pool.acquire(Small, ReplacementKind::Lru, SetRange{0, 8});
  EXPECT_EQ(Pool.reuses(), 2u);
  EXPECT_EQ(Pool.parked(), 3u);

  // The remaining buckets (FIFO/Small/16, LRU/Big/16, LRU/Small/32)
  // each still serve exactly their own configuration.
  Pool.acquire(Small, ReplacementKind::Fifo, WinB);
  Pool.acquire(Big, ReplacementKind::Lru, WinB);
  Pool.acquire(Small, ReplacementKind::Lru, Wide);
  EXPECT_EQ(Pool.reuses(), 5u);
  EXPECT_EQ(Pool.parked(), 0u);
}

TEST(CacheShardExactnessTest, LargeTraceStreamIdenticalAcrossExecShapes) {
  const CacheGeometry Geometry = testGeometry();
  // Well past MinRecordsPerChunk and MinRefsToShard: the partition
  // runs chunked and the bitmap union and compaction span several
  // chunks — every parallel stage is on its real code path.
  const Trace T = makeTrace(600'000);
  MissStreamOptions Options;
  Options.IncludeStores = true;

  const std::vector<MissEvent> Sequential =
      collectL1MissStream(T, Geometry, Options);
  const MissStreamAggregates SeqAgg =
      collectL1MissAggregates(T, Geometry, Options);
  ASSERT_EQ(SeqAgg.Events, Sequential.size());

  for (unsigned Workers : {1u, 2u, 3u}) {
    ThreadPool Pool(Workers);
    ShardCachePool CachePool;
    for (unsigned Shards : {2u, 4u, 16u, 64u}) {
      ThreadBudget Budget(Workers + 1);
      SimContext Ctx;
      Ctx.Pool = &Pool;
      Ctx.Budget = &Budget;
      Ctx.CachePool = &CachePool;
      Ctx.Shards = Shards;
      Ctx.MinRefsToShard = 0;
      EXPECT_EQ(collectL1MissStreamParallel(T, Geometry, Options, Ctx),
                Sequential)
          << Workers << " worker(s), " << Shards << " shard(s)";
      EXPECT_EQ(collectL1MissAggregates(T, Geometry, Options, Ctx), SeqAgg)
          << Workers << " worker(s), " << Shards << " shard(s)";
      EXPECT_EQ(Budget.available(), Workers + 1);
    }
  }
}
