//===- pmu/PebsEvent.h - Simulated PEBS events and samples -----*- C++ -*-===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event and sample types of the simulated performance monitoring
/// unit. The monitored event is MEM_LOAD_UOPS_RETIRED:L1_MISS — every
/// retired load that missed L1 — and a PEBS sample captures the
/// instruction pointer and effective data address of the sampled event
/// (paper Secs. 2.2, 4). In this reproduction the event stream is
/// produced by replaying a Trace through the L1 cache simulator instead
/// of by the hardware, which preserves the exact (IP, address) tuple
/// distribution the real PMU would deliver.
///
/// The parallel collectors shard the replay by cache set. Each shard
/// marks its misses in a bitmap indexed by global sequence number; the
/// OR of the shard bitmaps is the sequential miss set, and a popcount
/// prefix over chunks of its words lets every chunk write its events
/// into a disjoint slice of the output, in trace order, with no merge
/// and no intermediate miss list (see sim/ShardedSim.h).
///
//===----------------------------------------------------------------------===//

#ifndef CCPROF_PMU_PEBSEVENT_H
#define CCPROF_PMU_PEBSEVENT_H

#include "sim/Cache.h"
#include "sim/PageMapper.h"
#include "sim/ShardedSim.h"
#include "trace/Trace.h"

#include <cstdint>
#include <vector>

namespace ccprof {

/// One occurrence of the monitored event (a load miss at the profiled
/// level).
struct MissEvent {
  SiteId Ip = UnknownSite;
  /// The address the target cache indexes by: virtual for L1, physical
  /// for L2 (PEBS delivers the linear address; the kernel driver can
  /// translate it while the page is pinned by the interrupt).
  uint64_t Addr = 0;
  /// The virtual address, always — data-centric attribution matches it
  /// against the (virtual) allocation ranges.
  uint64_t VirtualAddr = 0;

  bool operator==(const MissEvent &Other) const = default;
};

/// One PEBS sample: the captured event plus its position in the event
/// stream (the running count of event occurrences, which the real PMU
/// exposes implicitly through the programmed reset period).
struct PebsSample {
  MissEvent Event;
  uint64_t EventIndex = 0; ///< 0-based index among all miss events.
};

/// Options for deriving the L1 miss stream from a trace.
struct MissStreamOptions {
  ReplacementKind Policy = ReplacementKind::Lru;
  /// The hardware event counts retired *load* misses; stores still
  /// update the cache but produce no event unless this is set.
  bool IncludeStores = false;
};

/// Replays \p Execution through an L1 cache of \p Geometry and \returns
/// the stream of miss events, one per missing load (and store, if
/// requested). This is the reproduction's MEM_LOAD_UOPS_RETIRED:L1_MISS
/// event source.
std::vector<MissEvent> collectL1MissStream(const Trace &Execution,
                                           const CacheGeometry &Geometry,
                                           MissStreamOptions Options = {});

/// Replays \p Execution through a virtually-indexed L1 and a
/// physically-indexed L2 (addresses translated by \p Mapper) and
/// \returns one event per load that misses both, carrying the
/// *physical* address — the MEM_LOAD_UOPS_RETIRED:L2_MISS analogue
/// needed to extend RCD analysis above L1 (paper footnote 1).
std::vector<MissEvent> collectL2MissStream(const Trace &Execution,
                                           const CacheGeometry &L1Geometry,
                                           const CacheGeometry &L2Geometry,
                                           PageMapper &Mapper,
                                           MissStreamOptions Options = {});

/// Aggregate view of a miss-stream simulation, for callers that need
/// statistics but not the ordered event stream — the fast path of the
/// sharded engine: per-shard counters combine
/// directly (addition is order-free), so no global miss order is ever
/// reconstructed. Field-for-field consistent with the ordered
/// collector: Events equals the stream length collectL1MissStream
/// would return under the same options.
struct MissStreamAggregates {
  uint64_t Accesses = 0;    ///< References replayed (the trace length).
  uint64_t Misses = 0;      ///< All missing accesses, loads and stores.
  uint64_t LoadMisses = 0;
  uint64_t StoreMisses = 0;
  /// Entries the ordered collector would emit: load misses, plus store
  /// misses when MissStreamOptions::IncludeStores is set.
  uint64_t Events = 0;
  /// Misses per (global) set index, size Geometry.numSets().
  std::vector<uint64_t> PerSetMisses;

  bool operator==(const MissStreamAggregates &Other) const = default;
};

/// Replays \p Execution through an L1 cache of \p Geometry and \returns
/// only aggregate statistics. With a sharding-capable \p Ctx the
/// per-shard replays run in parallel and no miss bitmap or event is
/// built (Ctx.Stats counts these as ElidedMerges); the returned aggregates
/// are identical to those derived from the ordered collectors at every
/// execution shape, including the sequential fallbacks (Random policy,
/// short traces, no pool).
MissStreamAggregates
collectL1MissAggregates(const Trace &Execution, const CacheGeometry &Geometry,
                        MissStreamOptions Options = {},
                        const SimContext &Ctx = {});

/// Set-sharded parallel variant of collectL1MissStream: partitions the
/// trace by set index, simulates contiguous set ranges on \p Ctx's
/// thread pool into per-shard miss bitmaps, ORs them, and compacts the
/// set bits into events chunk-parallel. The returned stream is
/// element-identical to the sequential collector's at every shard and
/// thread count. Falls back
/// to the sequential path when \p Ctx has no pool, the trace is below
/// Ctx.MinRefsToShard, the geometry has a single set, or the policy is
/// Random (whose cache-global RNG makes set-decomposition inexact).
std::vector<MissEvent>
collectL1MissStreamParallel(const Trace &Execution,
                            const CacheGeometry &Geometry,
                            MissStreamOptions Options, const SimContext &Ctx);

/// Set-sharded parallel variant of collectL2MissStream. The dominant
/// cost — replaying the full trace through L1 — is sharded by L1 set.
/// A sequential walk over the set bits of the L1 miss bitmap then
/// drives the page mapper (frame allocation is first-touch, so
/// translation *order* is semantic and must follow global miss order),
/// after which the
/// translated stream is itself partitioned by L2 set and replayed
/// sharded when it is long enough to clear Ctx.MinRefsToShard
/// (Ctx.Stats->L2StageShardedSims counts those), sequentially
/// otherwise. The emitted stream is byte-identical across every
/// execution shape. Same fallback conditions as the L1 variant.
std::vector<MissEvent>
collectL2MissStreamParallel(const Trace &Execution,
                            const CacheGeometry &L1Geometry,
                            const CacheGeometry &L2Geometry,
                            PageMapper &Mapper, MissStreamOptions Options,
                            const SimContext &Ctx);

} // namespace ccprof

#endif // CCPROF_PMU_PEBSEVENT_H
