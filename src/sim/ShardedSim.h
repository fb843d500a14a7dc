//===- sim/ShardedSim.h - Set-sharded parallel cache simulation -*- C++ -*-===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Primitives of the set-sharded parallel simulation engine. In a
/// set-associative cache every set's replacement state (LRU / FIFO
/// timestamps, tree-PLRU bits) depends only on the relative order of
/// the accesses that map to that set, never on accesses to other sets.
/// The reference stream can therefore be partitioned once by set index
/// into K shards of contiguous set ranges and each shard simulated
/// independently against a windowed Cache. Every shard marks its
/// misses in its own miss bitmap indexed by global sequence number, so
/// global order survives without any merge: the OR of the K bitmaps is
/// exactly the miss set a sequential simulation produces, and walking
/// its set bits in ascending order replays the sequential miss stream.
/// The decomposition is bit-exact for every deterministic replacement
/// policy; ReplacementKind::Random consumes a cache-global RNG whose
/// draw order depends on the interleaving of sets, so Random
/// simulations must stay sequential (callers gate on this).
///
/// Every stage is built to keep the serial fraction near zero (see
/// DESIGN.md §7): partitioning is a block-parallel count + prefix-sum
/// + scatter into one flat arena whose first write happens in the
/// parallel scatter (partitionBySetParallel), shards allocate and zero
/// their own bitmaps, and the union is a chunk-parallel OR + popcount
/// whose per-chunk prefix lets callers emit events into disjoint
/// output slices (unionMissBitmaps). Callers that only need aggregate
/// statistics skip the bitmaps entirely (simulateShardAggregates + the
/// aggregate collectors in pmu/PebsEvent.h). ShardCachePool recycles
/// windowed Cache instances across configurations in O(1) so repeated
/// sharded runs do not reallocate state planes. The trace-facing
/// collectors that put the pieces together live in pmu/PebsEvent.h.
/// Every parallel phase — those collectors and the MRC passes of
/// sim/MrcEngine — takes its threads through one ShardGrant, the
/// sharding gate; the budget itself is owned by the batch runner
/// (pipeline/JobRunner.h).
///
//===----------------------------------------------------------------------===//

#ifndef CCPROF_SIM_SHARDEDSIM_H
#define CCPROF_SIM_SHARDEDSIM_H

#include "sim/Cache.h"
#include "trace/MemoryRecord.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ccprof {

class ThreadPool;
class ThreadBudget;
class ShardCachePool;
class PartitionCache;

/// One reference routed to a shard: the address plus its global
/// position in the routed stream (and the write bit, packed into the
/// low bit so a shard entry stays 16 bytes). Trivially
/// default-constructible on purpose: a partition arena is allocated
/// uninitialized and first written by the parallel scatter, so no
/// thread pays a serial zero-fill of 16 bytes per reference.
struct ShardRef {
  uint64_t Addr;
  uint64_t SeqAndWrite;

  static ShardRef make(uint64_t Seq, uint64_t Addr, bool IsWrite) {
    return ShardRef{Addr, (Seq << 1) | static_cast<uint64_t>(IsWrite)};
  }
  uint64_t seq() const { return SeqAndWrite >> 1; }
  bool isWrite() const { return SeqAndWrite & 1; }
  bool operator==(const ShardRef &Other) const = default;
};

/// Cuts \p NumSets into at most \p ShardCount contiguous, non-empty,
/// near-equal ranges (the first NumSets % K ranges are one set wider).
std::vector<SetRange> planShards(uint64_t NumSets, unsigned ShardCount);

/// O(1) set-to-shard lookup for a planShards() plan.
class ShardMap {
public:
  explicit ShardMap(std::span<const SetRange> Plan);

  uint32_t shardOf(uint64_t SetIndex) const {
    assert(SetIndex < SetToShard.size() && "set index out of range");
    return SetToShard[SetIndex];
  }
  size_t numShards() const { return NumShards; }

private:
  std::vector<uint32_t> SetToShard;
  size_t NumShards;
};

/// Allocator whose value-less construct() default-initializes, so
/// resize() on a vector of trivial elements allocates without writing.
template <typename T> struct DefaultInitAllocator : std::allocator<T> {
  template <typename U> struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  using std::allocator<T>::allocator;

  template <typename U> void construct(U *Ptr) {
    ::new (static_cast<void *>(Ptr)) U;
  }
  template <typename U, typename... Args>
  void construct(U *Ptr, Args &&...Values) {
    ::new (static_cast<void *>(Ptr)) U(std::forward<Args>(Values)...);
  }
};

/// A reference stream routed to its shards: one pre-sized flat arena
/// holding every shard's subsequence contiguously, in ascending global
/// sequence order within each shard. The scatter that fills it runs
/// block-parallel because every slot is precomputed, and the arena is
/// left uninitialized until then (DefaultInitAllocator), so its pages
/// are first touched by the workers that write them.
struct ShardPartition {
  std::vector<ShardRef, DefaultInitAllocator<ShardRef>> Arena;
  /// Shard S occupies Arena[Offsets[S] .. Offsets[S+1]).
  std::vector<size_t> Offsets;

  size_t numShards() const {
    return Offsets.empty() ? 0 : Offsets.size() - 1;
  }
  size_t totalRefs() const { return Arena.size(); }
  std::span<const ShardRef> shard(size_t S) const {
    assert(S + 1 < Offsets.size() && "shard index out of range");
    return std::span<const ShardRef>(Arena.data() + Offsets[S],
                                     Offsets[S + 1] - Offsets[S]);
  }
};

/// Routes every record of \p Records into its shard per \p Plan in
/// the calling thread: partitionBySetParallel with no helper.
ShardPartition partitionBySet(std::span<const MemoryRecord> Records,
                              const CacheGeometry &Geometry,
                              std::span<const SetRange> Plan);

/// Block-parallel partitionBySet: the trace is cut into contiguous
/// chunks (planChunks), workers count each chunk's per-shard routing,
/// a sequential prefix sum turns the chunk x shard counts into exact
/// arena cursors, and workers scatter their chunks into disjoint arena
/// slots. Record-for-record identical to the sequential partition at
/// every chunk grid and helper count — the cursors fix each record's
/// slot before any thread writes.
ShardPartition partitionBySetParallel(std::span<const MemoryRecord> Records,
                                      const CacheGeometry &Geometry,
                                      std::span<const SetRange> Plan,
                                      ThreadPool &Pool, unsigned Helpers);

/// Block-parallel partitionBySet over an already-routed ref stream
/// (e.g. the L1 miss stream re-partitioned by L2 set for the stage-2
/// replay); \p Helpers = 0 runs every chunk in the caller. Each routed
/// ref is re-sequenced by its position in \p Refs and keeps its address
/// and write bit; \p Geometry supplies the *target* level's index
/// mapping. Identical bytes at every chunk grid and helper count.
ShardPartition partitionRefsBySet(std::span<const ShardRef> Refs,
                                  const CacheGeometry &Geometry,
                                  std::span<const SetRange> Plan,
                                  ThreadPool &Pool, unsigned Helpers);

/// One bit per reference of a routed stream: bit Seq % 64 of word
/// Seq / 64 is set iff the reference with sequence number Seq missed.
using MissBitmap = std::vector<uint64_t>;

/// Replays \p Refs (all of which must map into \p ShardCache's window,
/// in ascending seq order) and \returns a zeroed bitmap of \p NumRefs
/// bits with bit seq set for every missing load — and every missing
/// store when \p MarkStores is set. The bitmap is allocated here, so a
/// shard task that calls this zeroes its own bitmap in parallel with
/// the others. \p ShardCache must be freshly constructed or
/// resetForReuse()'d.
MissBitmap simulateShardBitmap(Cache &ShardCache,
                               std::span<const ShardRef> Refs,
                               size_t NumRefs, bool MarkStores);

/// Counters of one shard replay when only totals are needed (the
/// merge-elision fast path: no miss bitmap is materialized at all).
struct ShardAggregates {
  uint64_t Misses = 0;      ///< All missing accesses, loads and stores.
  uint64_t LoadMisses = 0;
  uint64_t StoreMisses = 0;
};

/// Replays \p Refs like simulateShardBitmap but records nothing per
/// miss —
/// only the aggregate counters. Per-set misses stay available from
/// \p ShardCache.perSetMisses() afterwards.
ShardAggregates simulateShardAggregates(Cache &ShardCache,
                                        std::span<const ShardRef> Refs);

/// The union of K per-shard miss bitmaps plus the popcount prefix
/// over a chunk grid of its words: chunk C covers words
/// Chunks[C] .. Chunks[C+1] and its set bits are misses
/// Offsets[C] .. Offsets[C+1] of the ascending global miss order, so
/// chunks can emit their events into disjoint slices in parallel.
struct MissUnion {
  MissBitmap Bits;
  std::vector<size_t> Chunks;
  std::vector<size_t> Offsets;

  size_t count() const { return Offsets.back(); }
};

/// ORs \p PerShard into one bitmap and counts its set bits per chunk,
/// chunk-parallel across up to \p Helpers workers of \p Pool (0 runs
/// every chunk in the caller). Destructive: the union is built in
/// place of the first bitmap and the others are freed. The grid
/// depends only on the bitmap length and \p Helpers, and the bits and
/// offsets are identical at every helper count.
MissUnion unionMissBitmaps(std::vector<MissBitmap> &PerShard,
                           ThreadPool &Pool, unsigned Helpers);

/// Thread-safe pool of windowed Cache instances. A shard simulation
/// acquires a cache per shard and parks it afterwards; a later
/// acquisition with the same geometry, policy, and window width reuses
/// a parked instance's state planes (resetForReuse) instead of
/// reallocating them — the common case when one batch run sweeps many
/// sampling periods over few cache configurations. Parked instances
/// are bucketed by (geometry, policy, window-size), so acquire is one
/// hash lookup under the mutex no matter how many configurations a
/// batch has parked.
class ShardCachePool {
public:
  /// Returns a reset cache for (\p Geometry, \p Policy, \p Window),
  /// recycling a parked instance when one matches.
  std::unique_ptr<Cache> acquire(const CacheGeometry &Geometry,
                                 ReplacementKind Policy, SetRange Window);

  /// Parks \p Instance for future reuse.
  void park(std::unique_ptr<Cache> Instance);

  size_t parked() const;
  uint64_t reuses() const;

private:
  /// Everything acquire() matches on. Window position is deliberately
  /// absent: resetForReuse re-aims the window, only the width must
  /// agree for the state planes to fit.
  struct BucketKey {
    uint64_t SizeBytes = 0;
    uint64_t LineBytes = 0;
    uint64_t Associativity = 0;
    uint64_t WindowSets = 0;
    ReplacementKind Policy = ReplacementKind::Lru;

    bool operator==(const BucketKey &Other) const = default;
  };
  struct BucketKeyHash {
    size_t operator()(const BucketKey &Key) const;
  };

  static BucketKey keyOf(const CacheGeometry &Geometry,
                         ReplacementKind Policy, uint64_t WindowSets);

  mutable std::mutex Mutex;
  std::unordered_map<BucketKey, std::vector<std::unique_ptr<Cache>>,
                     BucketKeyHash>
      Buckets;
  size_t NumParked = 0;
  uint64_t Reuses = 0;
};

/// Counters of how the sharding gate actually executed, shared across
/// every simulation of a run (all atomic; a null pointer in SimContext
/// disables collection). The interesting split is sharded-with-helpers
/// vs the degraded mode: an explicit shard count is honored even when
/// no helper thread was granted, which serializes K shard replays on
/// the calling thread — bench sweeps must be able to tell that apart
/// from real parallel runs.
struct ShardExecStats {
  /// Simulations that took the sharded path (Shards > 1).
  std::atomic<uint64_t> ShardedSims{0};
  /// Sharded simulations that got zero helper threads (explicit
  /// --shards with an exhausted budget or an empty pool): every shard
  /// replayed serially on one thread.
  std::atomic<uint64_t> UnhelpedShardedSims{0};
  /// Aggregate-only collections that never built the ordered stream.
  std::atomic<uint64_t> ElidedMerges{0};
  /// Partitions routed from scratch (cache miss or no cache wired).
  std::atomic<uint64_t> PartitionBuilds{0};
  /// Partitions served from the PartitionCache without routing.
  std::atomic<uint64_t> PartitionReuses{0};
  /// L2 collections whose stage-2 replay itself ran sharded.
  std::atomic<uint64_t> L2StageShardedSims{0};
};

/// Everything a miss-stream collector needs to go parallel. A
/// default-constructed context (null pool) means "stay sequential";
/// the batch runner owns one context per run and hands each group a
/// copy for its miss-stream collections.
struct SimContext {
  /// Workers that may help simulate shards; null disables sharding.
  ThreadPool *Pool = nullptr;
  /// Shared budget capping batch workers + shard helpers; when null,
  /// the collector uses every pool worker.
  ThreadBudget *Budget = nullptr;
  /// Recycles windowed caches across configurations; may be null.
  ShardCachePool *CachePool = nullptr;
  /// Execution accounting sink; may be null.
  ShardExecStats *Stats = nullptr;
  /// Shard count; 0 = one shard per granted thread.
  unsigned Shards = 0;
  /// Traces shorter than this are simulated sequentially — partition
  /// and union overhead beats the parallel win on tiny streams.
  uint64_t MinRefsToShard = DefaultMinRefsToShard;
  /// Route-once arena cache shared across a sweep; null disables
  /// reuse (every simulation routes its own partition).
  PartitionCache *Partitions = nullptr;
  /// Identity of the record stream this context simulates, minted by
  /// PartitionCache::registerTrace(). 0 (the default) means "unknown
  /// trace" and bypasses the cache even when Partitions is set.
  uint64_t TraceId = 0;

  static constexpr uint64_t DefaultMinRefsToShard = 1 << 16;
};

/// What a ShardGrant splits, which decides how its shard count is
/// chosen and which ShardExecStats counter it bumps.
enum class ShardPhase {
  /// A simulation split by set: honors SimContext::Shards and counts
  /// in ShardedSims (and UnhelpedShardedSims without helpers).
  Simulation,
  /// The L2 collector's stage-2 replay: honors SimContext::Shards and
  /// counts in L2StageShardedSims, so one collection stays one sim.
  L2Stage2,
  /// SHARDS hash-prefix sub-filters: one task per granted thread,
  /// never more (an unhelped task would rescan the whole trace), and
  /// not counted.
  HashPrefixes,
};

/// The sharding gate, applied once per parallel phase and held for
/// its duration. The budget hands out idle slots only: when batch jobs
/// already cover the machine nothing is granted and the phase stays
/// sequential; on the tail of a run the freed slots flow here.
///
/// The grant asks for every pool worker, not Shards - 1: routing, the
/// bitmap union and event compaction parallelize past the shard
/// count. An explicit SimContext::Shards is honored even without
/// helpers (the caller's thread replays every shard); an automatic
/// count follows the grant. A grant that comes to one shard holds no
/// helper (a forced count of one never asks the budget; an automatic
/// count is one only when nothing was granted), so its caller runs the
/// sequential path and routes nothing. The destructor returns the
/// slots.
class ShardGrant {
public:
  /// Gates a phase over \p MaxUnits independent units (sets, or hash
  /// prefixes) of a \p NumRefs-long stream: no pool, fewer than two
  /// units or a stream under Ctx.MinRefsToShard stays sequential.
  ShardGrant(const SimContext &Ctx, uint64_t MaxUnits, size_t NumRefs,
             ShardPhase Phase = ShardPhase::Simulation);
  ~ShardGrant();

  ShardGrant(const ShardGrant &) = delete;
  ShardGrant &operator=(const ShardGrant &) = delete;

  /// Shards to cut; 1 means run sequentially.
  unsigned shards() const { return Shards; }
  bool sharded() const { return Shards > 1; }
  /// Pool workers granted to help (0 whenever shards() == 1).
  unsigned helpers() const { return Helpers; }

  /// Runs \p Fn(0) .. \p Fn(Count-1) on the context's pool across the
  /// granted helpers, or in the calling thread when there is no pool.
  void run(size_t Count, const std::function<void(size_t)> &Fn) const;

private:
  const SimContext &Ctx;
  unsigned Shards = 1;
  unsigned Helpers = 0;
};

} // namespace ccprof

#endif // CCPROF_SIM_SHARDEDSIM_H
