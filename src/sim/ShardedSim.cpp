//===- sim/ShardedSim.cpp - Set-sharded parallel cache simulation ---------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/ShardedSim.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <bit>
#include <cassert>

using namespace ccprof;

std::vector<SetRange> ccprof::planShards(uint64_t NumSets,
                                         unsigned ShardCount) {
  assert(NumSets > 0 && "cannot shard an empty set space");
  const uint64_t K = std::max<uint64_t>(
      1, std::min<uint64_t>(ShardCount, NumSets));
  const uint64_t Base = NumSets / K;
  const uint64_t Rem = NumSets % K;

  std::vector<SetRange> Plan;
  Plan.reserve(K);
  uint64_t Begin = 0;
  for (uint64_t S = 0; S < K; ++S) {
    const uint64_t Width = Base + (S < Rem ? 1 : 0);
    Plan.push_back(SetRange{Begin, Begin + Width});
    Begin += Width;
  }
  assert(Begin == NumSets && "shard plan must cover every set");
  return Plan;
}

ShardMap::ShardMap(std::span<const SetRange> Plan)
    : NumShards(Plan.size()) {
  assert(!Plan.empty() && "empty shard plan");
  SetToShard.resize(Plan.back().End);
  for (size_t S = 0; S < Plan.size(); ++S)
    std::fill(SetToShard.begin() + Plan[S].Begin,
              SetToShard.begin() + Plan[S].End, static_cast<uint32_t>(S));
}

namespace {

/// Smallest chunk worth its per-chunk counter row: below this the
/// bookkeeping (K counters per chunk, two passes) competes with the
/// routing work itself.
constexpr size_t MinRecordsPerChunk = 1 << 15;

/// Smallest bitmap chunk worth its own popcount-prefix slot: 4096
/// words cover 256k references.
constexpr size_t MinWordsPerChunk = 1 << 12;

/// The routing passes are generic over what they route: full
/// MemoryRecords (stage-1 partition of a raw trace) or ShardRefs (the
/// L2 stage-2 re-partition of the translated L1 miss stream). Either
/// way the routed entry is sequenced by its index in the routed span,
/// which is what the shard's miss bitmap is indexed by.
inline uint64_t routeAddrOf(const MemoryRecord &Record) { return Record.Addr; }
inline uint64_t routeAddrOf(const ShardRef &Ref) { return Ref.Addr; }
inline ShardRef routedRefOf(const MemoryRecord &Record, size_t I) {
  return ShardRef::make(I, Record.Addr, Record.IsWrite);
}
inline ShardRef routedRefOf(const ShardRef &Ref, size_t I) {
  return ShardRef::make(I, Ref.Addr, Ref.isWrite());
}

/// Counts how many of Records[Begin..End) route to each shard into
/// \p Counts (size K, zeroed by the caller).
template <typename RecordT>
void countChunk(std::span<const RecordT> Records, size_t Begin,
                size_t End, const CacheGeometry &Geometry,
                const ShardMap &Map, size_t *Counts) {
  for (size_t I = Begin; I < End; ++I)
    ++Counts[Map.shardOf(Geometry.setIndexOf(routeAddrOf(Records[I])))];
}

/// Scatters Records[Begin..End) into \p Arena at the per-shard cursors
/// of \p Cursors (size K, advanced in place). Within the chunk, global
/// order is preserved per shard, so chunk-ascending cursor bases give
/// each shard its refs in ascending seq order.
template <typename RecordT>
void scatterChunk(std::span<const RecordT> Records, size_t Begin,
                  size_t End, const CacheGeometry &Geometry,
                  const ShardMap &Map, std::span<ShardRef> Arena,
                  size_t *Cursors) {
  for (size_t I = Begin; I < End; ++I) {
    const RecordT &Record = Records[I];
    const uint32_t S = Map.shardOf(Geometry.setIndexOf(routeAddrOf(Record)));
    Arena[Cursors[S]++] = routedRefOf(Record, I);
  }
}

template <typename RecordT>
ShardPartition partitionParallelImpl(std::span<const RecordT> Records,
                                     const CacheGeometry &Geometry,
                                     std::span<const SetRange> Plan,
                                     ThreadPool &Pool, unsigned Helpers) {
  const ShardMap Map(Plan);
  const size_t K = Plan.size();
  const std::vector<size_t> Chunks =
      planChunks(Records.size(), Helpers + 1, MinRecordsPerChunk);
  const size_t NumChunks = Chunks.size() - 1;

  // Pass 1 (parallel): per-chunk, per-shard routing counts. Each chunk
  // owns one row of the counts matrix, so no write is shared.
  std::vector<size_t> Counts(NumChunks * K, 0);
  Pool.parallelFor(NumChunks, Helpers, [&](size_t C) {
    countChunk(Records, Chunks[C], Chunks[C + 1], Geometry, Map,
               Counts.data() + C * K);
  });

  // Prefix sum (serial, NumChunks x K — tiny next to the trace):
  // chunk C's cursor for shard S starts after shard S's slots from
  // every earlier chunk, keeping each shard's refs seq-ascending.
  ShardPartition Part;
  Part.Offsets.assign(K + 1, 0);
  std::vector<size_t> Starts(NumChunks * K, 0);
  size_t Running = 0;
  for (size_t S = 0; S < K; ++S) {
    Part.Offsets[S] = Running;
    for (size_t C = 0; C < NumChunks; ++C) {
      Starts[C * K + S] = Running;
      Running += Counts[C * K + S];
    }
  }
  Part.Offsets[K] = Running;
  assert(Running == Records.size() && "partition must place every record");

  // Pass 2 (parallel): scatter into disjoint, precomputed arena slots.
  // The resize only reserves address space (DefaultInitAllocator), so
  // each page is first touched by the worker that scatters into it.
  Part.Arena.resize(Records.size());
  Pool.parallelFor(NumChunks, Helpers, [&](size_t C) {
    std::vector<size_t> Cursors(Starts.begin() + C * K,
                                Starts.begin() + (C + 1) * K);
    scatterChunk(Records, Chunks[C], Chunks[C + 1], Geometry, Map,
                 Part.Arena, Cursors.data());
  });
  return Part;
}

} // namespace

ShardPartition ccprof::partitionBySet(std::span<const MemoryRecord> Records,
                                      const CacheGeometry &Geometry,
                                      std::span<const SetRange> Plan) {
  // A zero-worker pool starts no thread: every chunk runs in the caller.
  ThreadPool Inline(0);
  return partitionParallelImpl(Records, Geometry, Plan, Inline, 0);
}

ShardPartition
ccprof::partitionBySetParallel(std::span<const MemoryRecord> Records,
                               const CacheGeometry &Geometry,
                               std::span<const SetRange> Plan,
                               ThreadPool &Pool, unsigned Helpers) {
  return partitionParallelImpl(Records, Geometry, Plan, Pool, Helpers);
}

ShardPartition ccprof::partitionRefsBySet(std::span<const ShardRef> Refs,
                                          const CacheGeometry &Geometry,
                                          std::span<const SetRange> Plan,
                                          ThreadPool &Pool, unsigned Helpers) {
  return partitionParallelImpl(Refs, Geometry, Plan, Pool, Helpers);
}

MissBitmap ccprof::simulateShardBitmap(Cache &ShardCache,
                                       std::span<const ShardRef> Refs,
                                       size_t NumRefs, bool MarkStores) {
  MissBitmap Bits((NumRefs + 63) / 64, 0);
  // Bit 0 of SeqAndWrite is the write bit: testing it against this
  // mask drops store misses unless the caller marks stores.
  const uint64_t WriteMask = MarkStores ? 0 : 1;
  // The tag rows of a shard's accesses are scattered across its window;
  // fetching a few iterations ahead hides the latency the SoA layout
  // cannot (accesses within a shard rarely revisit the same row
  // back-to-back).
  constexpr size_t PrefetchAhead = 8;
  for (size_t I = 0; I < Refs.size(); ++I) {
    if (I + PrefetchAhead < Refs.size())
      ShardCache.prefetchSet(Refs[I + PrefetchAhead].Addr);
    const ShardRef &R = Refs[I];
    if (ShardCache.access(R.Addr, R.isWrite()).Hit ||
        (R.SeqAndWrite & WriteMask))
      continue;
    const uint64_t Seq = R.seq();
    Bits[Seq / 64] |= uint64_t{1} << (Seq % 64);
  }
  return Bits;
}

ShardAggregates
ccprof::simulateShardAggregates(Cache &ShardCache,
                                std::span<const ShardRef> Refs) {
  ShardAggregates Agg;
  constexpr size_t PrefetchAhead = 8;
  for (size_t I = 0; I < Refs.size(); ++I) {
    if (I + PrefetchAhead < Refs.size())
      ShardCache.prefetchSet(Refs[I + PrefetchAhead].Addr);
    const ShardRef &R = Refs[I];
    if (!ShardCache.access(R.Addr, R.isWrite()).Hit) {
      ++Agg.Misses;
      ++(R.isWrite() ? Agg.StoreMisses : Agg.LoadMisses);
    }
  }
  return Agg;
}

MissUnion ccprof::unionMissBitmaps(std::vector<MissBitmap> &PerShard,
                                   ThreadPool &Pool, unsigned Helpers) {
  assert(!PerShard.empty() && "union of no bitmaps");
  MissUnion Union;
  Union.Bits = std::move(PerShard.front());
  const size_t NumWords = Union.Bits.size();
  Union.Chunks = planChunks(NumWords, Helpers + 1, MinWordsPerChunk);
  const size_t NumChunks = Union.Chunks.size() - 1;
  Union.Offsets.assign(NumChunks + 1, 0);

  // OR and popcount in one pass: each chunk owns its words of the
  // union and its count slot, so no write is shared.
  Pool.parallelFor(NumChunks, Helpers, [&](size_t C) {
    size_t Count = 0;
    for (size_t W = Union.Chunks[C]; W < Union.Chunks[C + 1]; ++W) {
      uint64_t Word = Union.Bits[W];
      for (size_t S = 1; S < PerShard.size(); ++S)
        Word |= PerShard[S][W];
      Union.Bits[W] = Word;
      Count += static_cast<size_t>(std::popcount(Word));
    }
    Union.Offsets[C + 1] = Count;
  });
  for (size_t C = 0; C < NumChunks; ++C)
    Union.Offsets[C + 1] += Union.Offsets[C];
  PerShard.clear();
  return Union;
}

size_t ShardCachePool::BucketKeyHash::operator()(const BucketKey &Key) const {
  // FNV-1a over the key fields; quality only affects bucket spread.
  uint64_t H = 0xcbf29ce484222325ull;
  for (uint64_t V : {Key.SizeBytes, Key.LineBytes, Key.Associativity,
                     Key.WindowSets, static_cast<uint64_t>(Key.Policy)}) {
    H ^= V;
    H *= 0x100000001b3ull;
  }
  return static_cast<size_t>(H);
}

ShardCachePool::BucketKey ShardCachePool::keyOf(const CacheGeometry &Geometry,
                                                ReplacementKind Policy,
                                                uint64_t WindowSets) {
  BucketKey Key;
  Key.SizeBytes = Geometry.sizeBytes();
  Key.LineBytes = Geometry.lineBytes();
  Key.Associativity = Geometry.associativity();
  Key.WindowSets = WindowSets;
  Key.Policy = Policy;
  return Key;
}

std::unique_ptr<Cache> ShardCachePool::acquire(const CacheGeometry &Geometry,
                                               ReplacementKind Policy,
                                               SetRange Window) {
  std::unique_ptr<Cache> Reused;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Buckets.find(keyOf(Geometry, Policy, Window.size()));
    if (It != Buckets.end() && !It->second.empty()) {
      Reused = std::move(It->second.back());
      It->second.pop_back();
      --NumParked;
      ++Reuses;
    }
  }
  if (Reused) {
    // Zeroing the planes happens outside the lock: it is the expensive
    // part and touches only this instance.
    Reused->resetForReuse(Window);
    return Reused;
  }
  return std::make_unique<Cache>(Geometry, Window, Policy);
}

void ShardCachePool::park(std::unique_ptr<Cache> Instance) {
  assert(Instance && "parking a null cache");
  const BucketKey Key = keyOf(Instance->geometry(), Instance->policy(),
                              Instance->window().size());
  std::lock_guard<std::mutex> Lock(Mutex);
  Buckets[Key].push_back(std::move(Instance));
  ++NumParked;
}

size_t ShardCachePool::parked() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return NumParked;
}

uint64_t ShardCachePool::reuses() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Reuses;
}

ShardGrant::ShardGrant(const SimContext &Ctx, uint64_t MaxUnits,
                       size_t NumRefs, ShardPhase Phase)
    : Ctx(Ctx) {
  // One shard is the whole stream: helpers cannot speed it up and
  // routing it would only copy the trace.
  const bool Forced = Phase != ShardPhase::HashPrefixes && Ctx.Shards != 0;
  if (!Ctx.Pool || MaxUnits < 2 || NumRefs < Ctx.MinRefsToShard ||
      (Forced && Ctx.Shards < 2))
    return;
  Helpers = Ctx.Budget ? Ctx.Budget->tryAcquire(Ctx.Pool->workerCount())
                       : Ctx.Pool->workerCount();
  Shards = static_cast<unsigned>(
      std::min<uint64_t>(MaxUnits, Forced ? Ctx.Shards : Helpers + 1));
  assert((Shards > 1 || Helpers == 0) && "a one-shard grant holds no slot");
  if (Shards <= 1 || !Ctx.Stats)
    return;
  if (Phase == ShardPhase::L2Stage2)
    Ctx.Stats->L2StageShardedSims.fetch_add(1, std::memory_order_relaxed);
  if (Phase != ShardPhase::Simulation)
    return;
  Ctx.Stats->ShardedSims.fetch_add(1, std::memory_order_relaxed);
  // Degraded mode: the shard count was forced but no helper showed up,
  // so one thread replays every shard back to back.
  if (Helpers == 0)
    Ctx.Stats->UnhelpedShardedSims.fetch_add(1, std::memory_order_relaxed);
}

ShardGrant::~ShardGrant() {
  if (Ctx.Budget && Helpers > 0)
    Ctx.Budget->release(Helpers);
}

void ShardGrant::run(size_t Count,
                     const std::function<void(size_t)> &Fn) const {
  if (Ctx.Pool) {
    Ctx.Pool->parallelFor(Count, Helpers, Fn);
    return;
  }
  for (size_t I = 0; I < Count; ++I)
    Fn(I);
}
