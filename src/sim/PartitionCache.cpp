//===- sim/PartitionCache.cpp - Route-once partition reuse ---------------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/PartitionCache.h"

#include "support/ThreadPool.h"

#include <cassert>

using namespace ccprof;

size_t PartitionCache::KeyHash::operator()(const PartitionKey &Key) const {
  // FNV-1a over the key fields; quality only affects bucket spread.
  uint64_t H = 0xcbf29ce484222325ull;
  for (uint64_t V : {Key.TraceId, Key.NumSets, static_cast<uint64_t>(Key.LineBytes),
                     static_cast<uint64_t>(Key.Shards)}) {
    H ^= V;
    H *= 0x100000001b3ull;
  }
  return static_cast<size_t>(H);
}

PartitionCache::PartitionCache(size_t MaxBytes) : MaxBytes(MaxBytes) {}

size_t PartitionCache::bytesOf(const ShardPartition &Part) {
  return Part.Arena.size() * sizeof(ShardRef) +
         Part.Offsets.size() * sizeof(size_t);
}

uint64_t PartitionCache::registerTrace() {
  return NextTraceId.fetch_add(1, std::memory_order_relaxed);
}

void PartitionCache::releaseTrace(uint64_t TraceId) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto It = Entries.begin(); It != Entries.end();) {
    if (It->first.TraceId != TraceId) {
      ++It;
      continue;
    }
    ResidentBytes -= It->second.Bytes;
    Recency.erase(It->second.RecencyIt);
    It = Entries.erase(It);
  }
}

void PartitionCache::evictOverBudgetLocked(const PartitionKey &Keep) {
  while (ResidentBytes > MaxBytes && Entries.size() > 1) {
    auto Victim = Recency.end();
    --Victim;
    if (*Victim == Keep) {
      // The newest entry is the only other resident one; the budget
      // holds everything else accountable but never the arena a sweep
      // is actively replaying from.
      if (Victim == Recency.begin())
        break;
      --Victim;
    }
    auto It = Entries.find(*Victim);
    assert(It != Entries.end() && "recency list out of sync");
    ResidentBytes -= It->second.Bytes;
    Recency.erase(It->second.RecencyIt);
    Entries.erase(It);
    ++Evictions;
  }
}

PartitionCache::PartitionPtr
PartitionCache::getOrCompute(const PartitionKey &Key,
                             const std::function<ShardPartition()> &Compute,
                             bool *WasBuilt) {
  if (WasBuilt)
    *WasBuilt = false;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Entries.find(Key);
    if (It != Entries.end()) {
      ++Hits;
      Recency.splice(Recency.begin(), Recency, It->second.RecencyIt);
      return It->second.Data;
    }
  }

  // Route outside the lock: concurrent distinct keys never serialize
  // on each other's (potentially huge) routing pass.
  PartitionPtr Routed = std::make_shared<ShardPartition>(Compute());

  std::lock_guard<std::mutex> Lock(Mutex);
  auto It = Entries.find(Key);
  if (It != Entries.end()) {
    // A racing caller stored first; its arena is byte-identical (the
    // partition is a pure function of the key under a live TraceId),
    // so serve it and drop ours. The store won the "build" slot.
    ++Hits;
    Recency.splice(Recency.begin(), Recency, It->second.RecencyIt);
    return It->second.Data;
  }
  ++Builds;
  if (WasBuilt)
    *WasBuilt = true;
  Recency.push_front(Key);
  Entry &Slot = Entries[Key];
  Slot.Data = Routed;
  Slot.RecencyIt = Recency.begin();
  Slot.Bytes = bytesOf(*Routed);
  ResidentBytes += Slot.Bytes;
  evictOverBudgetLocked(Key);
  return Routed;
}

PartitionCache::CacheStats PartitionCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  CacheStats S;
  S.Hits = Hits;
  S.Builds = Builds;
  S.Evictions = Evictions;
  S.ResidentBytes = ResidentBytes;
  S.ResidentEntries = Entries.size();
  return S;
}

PartitionCache::PartitionPtr
ccprof::routeOrReuse(std::span<const MemoryRecord> Records,
                     const CacheGeometry &Geometry,
                     std::span<const SetRange> Plan, const SimContext &Ctx,
                     unsigned Helpers) {
  assert(Ctx.Pool && "routing runs on the context's pool");
  auto Route = [&] {
    return partitionBySetParallel(Records, Geometry, Plan, *Ctx.Pool, Helpers);
  };

  if (!Ctx.Partitions || Ctx.TraceId == 0) {
    if (Ctx.Stats)
      Ctx.Stats->PartitionBuilds.fetch_add(1, std::memory_order_relaxed);
    return std::make_shared<const ShardPartition>(Route());
  }

  PartitionKey Key;
  Key.TraceId = Ctx.TraceId;
  Key.NumSets = Geometry.numSets();
  Key.LineBytes = Geometry.lineBytes();
  Key.Shards = static_cast<uint32_t>(Plan.size());
  bool WasBuilt = false;
  PartitionCache::PartitionPtr Part =
      Ctx.Partitions->getOrCompute(Key, Route, &WasBuilt);
  if (Ctx.Stats) {
    if (WasBuilt)
      Ctx.Stats->PartitionBuilds.fetch_add(1, std::memory_order_relaxed);
    else
      Ctx.Stats->PartitionReuses.fetch_add(1, std::memory_order_relaxed);
  }
  return Part;
}
