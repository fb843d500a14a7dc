//===- pmu/PebsEvent.cpp - Simulated PEBS events and samples -------------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "pmu/PebsEvent.h"

#include "sim/PartitionCache.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstring>
#include <optional>

using namespace ccprof;

namespace {

/// Replays every shard of \p Parts through a windowed cache of
/// \p Geometry, each shard marking its misses in its own bitmap over
/// the \p NumRefs routed references, and \returns the union — the
/// global miss set in sequence order, with no merge.
MissUnion replayShards(const ShardPartition &Parts,
                       std::span<const SetRange> Plan,
                       const CacheGeometry &Geometry, ReplacementKind Policy,
                       size_t NumRefs, bool MarkStores, const SimContext &Ctx,
                       const ShardGrant &Grant) {
  std::vector<MissBitmap> PerShard(Plan.size());
  Grant.run(Plan.size(), [&](size_t S) {
    std::unique_ptr<Cache> ShardCache =
        Ctx.CachePool ? Ctx.CachePool->acquire(Geometry, Policy, Plan[S])
                      : std::make_unique<Cache>(Geometry, Plan[S], Policy);
    PerShard[S] =
        simulateShardBitmap(*ShardCache, Parts.shard(S), NumRefs, MarkStores);
    if (Ctx.CachePool)
      Ctx.CachePool->park(std::move(ShardCache));
  });
  return unionMissBitmaps(PerShard, *Ctx.Pool, Grant.helpers());
}

/// Shards the full reference stream through caches of \p Geometry and
/// \returns the union of the shard miss bitmaps. The partition is
/// served from Ctx.Partitions when the context carries a registered
/// trace — the "route once, replay many" path a config sweep hits —
/// and routed on the spot otherwise (block-parallel with helpers,
/// sequential two-pass fill in the degraded explicit-shards mode).
MissUnion shardedMisses(std::span<const MemoryRecord> Records,
                        const CacheGeometry &Geometry, ReplacementKind Policy,
                        bool MarkStores, const SimContext &Ctx,
                        const ShardGrant &Grant) {
  const std::vector<SetRange> Plan =
      planShards(Geometry.numSets(), Grant.shards());
  const PartitionCache::PartitionPtr Parts =
      routeOrReuse(Records, Geometry, Plan, Ctx, Grant.helpers());
  return replayShards(*Parts, Plan, Geometry, Policy, Records.size(),
                      MarkStores, Ctx, Grant);
}

/// Emits one event per set bit of \p Misses, in ascending sequence
/// order. Chunks write disjoint slices fixed by the union's popcount
/// prefix, so the stream is identical at every helper count.
template <typename EventFn>
std::vector<MissEvent> compactMisses(const MissUnion &Misses,
                                     const ShardGrant &Grant,
                                     EventFn EventOf) {
  const size_t NumChunks = Misses.Chunks.size() - 1;
  std::vector<MissEvent> Stream;
  Stream.reserve(Misses.count());
  // A long stream is a fresh mapping that faults once per page on first
  // touch, and resize() would take every fault on this thread (0.85 s
  // of a 2.6 s collection at 100M refs on 4 cores). Each chunk touches
  // the raw bytes of its own slice first, so the faults run in parallel
  // and resize() only rewrites mapped pages.
  std::byte *const Raw = reinterpret_cast<std::byte *>(Stream.data());
  Grant.run(NumChunks, [&](size_t C) {
    const size_t Events = Misses.Offsets[C + 1] - Misses.Offsets[C];
    if (Events != 0)
      std::memset(Raw + Misses.Offsets[C] * sizeof(MissEvent), 0,
                  Events * sizeof(MissEvent));
  });
  Stream.resize(Misses.count());
  Grant.run(NumChunks, [&](size_t C) {
    size_t Out = Misses.Offsets[C];
    for (size_t W = Misses.Chunks[C]; W < Misses.Chunks[C + 1]; ++W)
      for (uint64_t Word = Misses.Bits[W]; Word != 0; Word &= Word - 1)
        Stream[Out++] = EventOf(W * 64 + std::countr_zero(Word));
    assert(Out == Misses.Offsets[C + 1] && "chunk must fill its exact slice");
  });
  return Stream;
}

/// Aggregate-only sharded replay: per-shard counters and per-set miss
/// counts combine without ever reconstructing global order — no
/// bitmap, no union, no events.
MissStreamAggregates
shardedMissAggregates(std::span<const MemoryRecord> Records,
                      const CacheGeometry &Geometry, ReplacementKind Policy,
                      MissStreamOptions Options, const SimContext &Ctx,
                      const ShardGrant &Grant) {
  const std::vector<SetRange> Plan =
      planShards(Geometry.numSets(), Grant.shards());
  const PartitionCache::PartitionPtr Parts =
      routeOrReuse(Records, Geometry, Plan, Ctx, Grant.helpers());

  MissStreamAggregates Agg;
  Agg.Accesses = Records.size();
  Agg.PerSetMisses.assign(Geometry.numSets(), 0);
  std::vector<ShardAggregates> PerShard(Plan.size());
  Grant.run(Plan.size(), [&](size_t S) {
    std::unique_ptr<Cache> ShardCache =
        Ctx.CachePool ? Ctx.CachePool->acquire(Geometry, Policy, Plan[S])
                      : std::make_unique<Cache>(Geometry, Plan[S], Policy);
    PerShard[S] = simulateShardAggregates(*ShardCache, Parts->shard(S));
    // Shard windows are disjoint set ranges, so these writes never
    // overlap across workers.
    std::copy(ShardCache->perSetMisses().begin(),
              ShardCache->perSetMisses().end(),
              Agg.PerSetMisses.begin() + Plan[S].Begin);
    if (Ctx.CachePool)
      Ctx.CachePool->park(std::move(ShardCache));
  });
  for (const ShardAggregates &Shard : PerShard) {
    Agg.Misses += Shard.Misses;
    Agg.LoadMisses += Shard.LoadMisses;
    Agg.StoreMisses += Shard.StoreMisses;
  }
  Agg.Events = Agg.LoadMisses + (Options.IncludeStores ? Agg.StoreMisses : 0);
  if (Ctx.Stats)
    Ctx.Stats->ElidedMerges.fetch_add(1, std::memory_order_relaxed);
  return Agg;
}

/// Sequential aggregate collection: the same replay as
/// collectL1MissStream, counting instead of recording.
MissStreamAggregates
sequentialMissAggregates(const Trace &Execution, const CacheGeometry &Geometry,
                         MissStreamOptions Options) {
  Cache L1(Geometry, Options.Policy);
  MissStreamAggregates Agg;
  Agg.Accesses = Execution.size();
  for (const MemoryRecord &Record : Execution.records()) {
    if (L1.access(Record.Addr, Record.IsWrite).Hit)
      continue;
    ++(Record.IsWrite ? Agg.StoreMisses : Agg.LoadMisses);
  }
  Agg.Misses = L1.stats().Misses;
  Agg.PerSetMisses = L1.perSetMisses();
  Agg.Events = Agg.LoadMisses + (Options.IncludeStores ? Agg.StoreMisses : 0);
  return Agg;
}

} // namespace

std::vector<MissEvent>
ccprof::collectL1MissStream(const Trace &Execution,
                            const CacheGeometry &Geometry,
                            MissStreamOptions Options) {
  Cache L1(Geometry, Options.Policy);
  std::vector<MissEvent> Stream;
  // Sized for a pessimistic miss ratio up front: push_back regrowth is
  // a visible cost in profileImpl profiles on long traces.
  Stream.reserve(Execution.size() / 4 + 16);
  for (const MemoryRecord &Record : Execution.records()) {
    CacheAccessResult Access = L1.access(Record.Addr, Record.IsWrite);
    if (Access.Hit)
      continue;
    if (Record.IsWrite && !Options.IncludeStores)
      continue;
    Stream.push_back(MissEvent{Record.Site, Record.Addr, Record.Addr});
  }
  return Stream;
}

std::vector<MissEvent>
ccprof::collectL2MissStream(const Trace &Execution,
                            const CacheGeometry &L1Geometry,
                            const CacheGeometry &L2Geometry,
                            PageMapper &Mapper, MissStreamOptions Options) {
  Cache L1(L1Geometry, Options.Policy);
  Cache L2(L2Geometry, Options.Policy);
  std::vector<MissEvent> Stream;
  // L2 misses are rarer than L1 misses; reserve a smaller slab.
  Stream.reserve(Execution.size() / 16 + 16);
  for (const MemoryRecord &Record : Execution.records()) {
    // L1 is virtually indexed; only its misses reach L2, which sees
    // physical addresses.
    if (L1.access(Record.Addr, Record.IsWrite).Hit)
      continue;
    uint64_t Physical = Mapper.translate(Record.Addr);
    if (L2.access(Physical, Record.IsWrite).Hit)
      continue;
    if (Record.IsWrite && !Options.IncludeStores)
      continue;
    Stream.push_back(MissEvent{Record.Site, Physical, Record.Addr});
  }
  return Stream;
}

MissStreamAggregates
ccprof::collectL1MissAggregates(const Trace &Execution,
                                const CacheGeometry &Geometry,
                                MissStreamOptions Options,
                                const SimContext &Ctx) {
  if (Options.Policy == ReplacementKind::Random)
    return sequentialMissAggregates(Execution, Geometry, Options);
  const ShardGrant Grant(Ctx, Geometry.numSets(), Execution.size());
  if (!Grant.sharded())
    return sequentialMissAggregates(Execution, Geometry, Options);
  return shardedMissAggregates(Execution.records(), Geometry, Options.Policy,
                               Options, Ctx, Grant);
}

std::vector<MissEvent> ccprof::collectL1MissStreamParallel(
    const Trace &Execution, const CacheGeometry &Geometry,
    MissStreamOptions Options, const SimContext &Ctx) {
  if (Options.Policy == ReplacementKind::Random)
    return collectL1MissStream(Execution, Geometry, Options);
  const ShardGrant Grant(Ctx, Geometry.numSets(), Execution.size());
  if (!Grant.sharded())
    return collectL1MissStream(Execution, Geometry, Options);

  const std::span<const MemoryRecord> Records = Execution.records();
  const MissUnion Misses = shardedMisses(Records, Geometry, Options.Policy,
                                         Options.IncludeStores, Ctx, Grant);
  return compactMisses(Misses, Grant, [&](uint64_t Seq) {
    const MemoryRecord &Record = Records[Seq];
    return MissEvent{Record.Site, Record.Addr, Record.Addr};
  });
}

std::vector<MissEvent> ccprof::collectL2MissStreamParallel(
    const Trace &Execution, const CacheGeometry &L1Geometry,
    const CacheGeometry &L2Geometry, PageMapper &Mapper,
    MissStreamOptions Options, const SimContext &Ctx) {
  if (Options.Policy == ReplacementKind::Random)
    return collectL2MissStream(Execution, L1Geometry, L2Geometry, Mapper,
                               Options);

  // Stage 1 (sharded): the full-trace L1 replay, by far the dominant
  // cost. Every L1 miss reaches L2 regardless of load/store, so the
  // bitmaps mark stores too. Its grant ends with the replay: the
  // translation pass below is sequential.
  const std::span<const MemoryRecord> Records = Execution.records();
  std::optional<MissUnion> L1Misses;
  {
    const ShardGrant Grant(Ctx, L1Geometry.numSets(), Records.size());
    if (Grant.sharded())
      L1Misses = shardedMisses(Records, L1Geometry, Options.Policy,
                               /*MarkStores=*/true, Ctx, Grant);
  }
  if (!L1Misses)
    return collectL2MissStream(Execution, L1Geometry, L2Geometry, Mapper,
                               Options);

  // Translation pass (sequential): PageMapper allocates frames at
  // first touch, so the translation *order* is semantic — it must
  // follow the global miss order exactly, or physical layouts (and
  // with them L2 set conflicts) would drift across execution shapes.
  // Walking the union's set bits in ascending order is that order.
  // Each L1 miss becomes one ShardRef carrying its record index as
  // seq, so an event reads Records[seq] directly.
  std::vector<ShardRef> L2Refs;
  L2Refs.reserve(L1Misses->count());
  for (size_t W = 0; W < L1Misses->Bits.size(); ++W) {
    for (uint64_t Word = L1Misses->Bits[W]; Word != 0; Word &= Word - 1) {
      const uint64_t Seq = W * 64 + std::countr_zero(Word);
      const MemoryRecord &Record = Records[Seq];
      L2Refs.push_back(ShardRef::make(Seq, Mapper.translate(Record.Addr),
                                      Record.IsWrite));
    }
  }

  // Stage 2: replay the translated miss stream through L2, sharded by
  // L2 set when the stream is long enough to be worth a second grant
  // (the same per-set independence argument applies — only the
  // addresses now are physical). Sequential otherwise: the L1 miss
  // stream is usually a small fraction of the trace.
  const ShardGrant Grant(Ctx, L2Geometry.numSets(), L2Refs.size(),
                         ShardPhase::L2Stage2);
  auto EventOf = [&](uint64_t Idx) {
    const ShardRef &Ref = L2Refs[Idx];
    return MissEvent{Records[Ref.seq()].Site, Ref.Addr,
                     Records[Ref.seq()].Addr};
  };
  if (!Grant.sharded()) {
    Cache L2(L2Geometry, Options.Policy);
    std::vector<MissEvent> Stream;
    Stream.reserve(L2Refs.size() / 4 + 16);
    for (size_t I = 0; I < L2Refs.size(); ++I) {
      if (L2.access(L2Refs[I].Addr, L2Refs[I].isWrite()).Hit)
        continue;
      if (L2Refs[I].isWrite() && !Options.IncludeStores)
        continue;
      Stream.push_back(EventOf(I));
    }
    return Stream;
  }

  // The stage-2 partition re-sequences refs by their L1-miss index, so
  // the stage-2 bitmaps are indexed by it. No reuse cache here: the
  // stage-2 input is an L1-config-dependent miss stream, not the
  // trace, so no two configs share it.
  const std::vector<SetRange> L2Plan =
      planShards(L2Geometry.numSets(), Grant.shards());
  const ShardPartition L2Parts = partitionRefsBySet(
      L2Refs, L2Geometry, L2Plan, *Ctx.Pool, Grant.helpers());
  const MissUnion L2Misses =
      replayShards(L2Parts, L2Plan, L2Geometry, Options.Policy, L2Refs.size(),
                   Options.IncludeStores, Ctx, Grant);
  return compactMisses(L2Misses, Grant, EventOf);
}
