//===- sim/MrcEngine.h - Single-pass miss-ratio curves ---------*- C++ -*-===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Single-pass miss-ratio curve (MRC) construction. One walk over a
/// reference stream yields the predicted miss ratio at *every* cache
/// capacity simultaneously, where the multi-config simulation engine
/// pays one full replay per (size, associativity) point:
///
///  * Exact fully-associative curve — Mattson's stack algorithm: a
///    reference with reuse distance D hits every LRU cache of more
///    than D lines (ReuseDistanceAnalyzer does the O(log n) distance
///    bookkeeping), so the global stack-distance histogram plus the
///    cold-miss count *is* the curve, cold misses included.
///
///  * Exact per-set curve at the reference geometry — the same theorem
///    applied per cache set: a reference hits an A-way set-associative
///    LRU cache iff fewer than A distinct same-set lines intervened
///    since its last use. Per-set MRU stacks (depth-capped at
///    MrcOptions::MaxWays, the simulator's associativity ceiling)
///    record that distance, making the curve exact at any
///    associativity <= MaxWays for the reference set count. Sets are
///    independent, so this pass shards over ShardedSim's set
///    partition and the per-shard histograms merge deterministically.
///
///  * SHARDS spatial sampling (Waldspurger et al., FAST'15) — a
///    hash-threshold filter tracks only lines with hash(line) < T
///    (rate R = T / 2^64), scales each sampled distance and its weight
///    by 1/R, and adapts: when the tracked-line reservoir exceeds its
///    fixed size, the largest-hash line is evicted and T drops to its
///    hash, bounding the Fenwick/LastAccess footprint to O(reservoir)
///    on arbitrarily long traces.
///
///  * Associativity correction away from exactly-representable points —
///    the Hill–Smith binomial model: a reuse of global stack distance D
///    in an (S sets, A ways) cache hits with probability
///    P(Binomial(D, 1/S) < A), evaluated per histogram bucket. At
///    S == 1 the model degenerates to the exact fully-associative
///    answer.
///
//===----------------------------------------------------------------------===//

#ifndef CCPROF_SIM_MRCENGINE_H
#define CCPROF_SIM_MRCENGINE_H

#include "sim/CacheGeometry.h"
#include "sim/ReuseDistance.h"
#include "sim/ShardedSim.h"
#include "support/Histogram.h"
#include "trace/Trace.h"

#include <cstdint>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

namespace ccprof {

/// Configuration of one MRC construction pass.
struct MrcOptions {
  /// Reference geometry: supplies the line size every address is
  /// sliced with and the set count the exact per-set pass runs at.
  CacheGeometry Reference = CacheGeometry(32 * 1024, 64, 8);

  /// Depth cap of the per-set MRU stacks — the curve is exact at the
  /// reference set count for any associativity <= MaxWays. 64 matches
  /// the simulator's own associativity ceiling, so nothing a Cache
  /// could simulate is out of range.
  uint32_t MaxWays = 64;

  /// SHARDS spatial sampling instead of the exact pass. The per-set
  /// histogram is not built in sampled mode (every set-associative
  /// query uses the binomial correction).
  bool Sampled = false;

  /// Initial sampling rate R0 in (0, 1]; the adaptive reservoir can
  /// only lower it.
  double SampleRate = 0.01;

  /// Fixed reservoir size: the maximum number of simultaneously
  /// tracked lines in sampled mode (SHARDS s_max), split evenly across
  /// the sample shards.
  size_t MaxSampledLines = 16384;

  /// Number of independent SHARDS sub-filters the sampled pass splits
  /// into (normalized to a power of two in [1, 256]). Shard p owns the
  /// lines whose hash starts with prefix p, filters on the remaining
  /// hash bits with its own adaptive threshold, and scales every
  /// insert by its *effective* rate (threshold rate / shard count) —
  /// full-stream units — so the merged histogram needs no rescale and
  /// the curve at 1 shard is bit-identical to the legacy single-filter
  /// pass. Because each shard's state depends only on its own
  /// substream, in stream order, the shards can run in parallel
  /// (MrcEngine::compute) with results identical to streaming.
  uint32_t SampleShards = 1;
};

/// The product of a pass: queryable predicted miss ratios. In exact
/// mode all weights are reference counts; in sampled mode they are
/// SHARDS-scaled (each sampled reference stands for 1/R references)
/// and the distances are rescaled to full-stream units.
struct MissRatioCurve {
  /// References fed to the pass (always exact, even in sampled mode).
  uint64_t TotalRefs = 0;
  /// Scaled cold-miss weight (== exact cold count in exact mode).
  uint64_t ColdWeight = 0;
  /// Global stack-distance histogram (scaled in sampled mode).
  Histogram StackDistances;
  /// Per-set stack distances at the reference set count, keys capped
  /// at MaxWays (distances >= MaxWays land on the MaxWays bucket).
  Histogram PerSetDistances;
  /// Cold misses as seen by the per-set pass (== ColdWeight in exact
  /// mode; the split exists because the passes shard independently).
  uint64_t PerSetCold = 0;
  /// True iff the exact per-set histogram was built.
  bool HasPerSet = false;
  CacheGeometry Reference = CacheGeometry(32 * 1024, 64, 8);
  uint32_t MaxWays = 64;
  bool Sampled = false;
  /// Final SHARDS rate after adaptation (1.0 in exact mode).
  double FinalRate = 1.0;

  /// Scaled total reference weight: ColdWeight + StackDistances total.
  /// The self-normalizing SHARDS denominator; equals TotalRefs in
  /// exact mode.
  uint64_t scaledRefs() const { return ColdWeight + StackDistances.total(); }

  /// Predicted misses of a fully-associative LRU cache of \p Lines
  /// lines: cold misses + references with stack distance >= Lines.
  /// Exact-mode counts equal a FullyAssociativeLru replay exactly.
  uint64_t missWeightAtLines(uint64_t Lines) const;

  /// missWeightAtLines / scaledRefs (0 on an empty curve).
  double missRatioAtLines(uint64_t Lines) const;

  /// Predicted overall miss ratio at a concrete geometry. Resolution
  /// order: S == 1 -> exact fully-associative curve; exact per-set
  /// histogram when it was built for this line size + set count and
  /// the associativity fits under MaxWays; otherwise the Hill–Smith
  /// binomial correction on the global histogram.
  double missRatioAt(const CacheGeometry &Geometry) const;

  /// True iff missRatioAt(\p Geometry) resolves to an exact path
  /// (fully-associative or per-set) rather than the binomial model.
  bool isExactAt(const CacheGeometry &Geometry) const;

  /// The histogram-derived readout at \p Geometry — fully-associative
  /// curve at one set, binomial model otherwise — even where an exact
  /// per-set answer exists. This is the resolution sampled curves use
  /// everywhere, so comparing a SHARDS curve against an exact curve
  /// through this readout isolates sampling error from the conflict
  /// gap (exact per-set vs uniform-mapping model), which no sampling
  /// bound covers: that gap is the conflict signal itself.
  double modelMissRatioAt(const CacheGeometry &Geometry) const;
};

/// The per-set half of the exact pass: depth-capped MRU stacks, one
/// per set in \p Window, plus first-touch detection. Public because
/// the sharded pass runs one instance per set shard and merges the
/// histograms (sets are independent, so the merge is exact and
/// deterministic at every shard shape).
class PerSetStackPass {
public:
  PerSetStackPass(const CacheGeometry &Reference, uint32_t MaxWays,
                  SetRange Window);

  /// Feeds one reference; its set must fall inside the window.
  void addRef(uint64_t Addr);

  const Histogram &distances() const { return Distances; }
  uint64_t coldCount() const { return Cold; }

private:
  CacheGeometry Reference;
  uint32_t MaxWays;
  SetRange Window;
  /// Depth MaxWays; index = set - Window.Begin.
  SetMruStacks Stacks;
  std::unordered_set<uint64_t> Seen;
  Histogram Distances;
  uint64_t Cold = 0;
};

/// Streaming single-pass MRC builder. Feed references (addRef /
/// addTrace), then take() the curve. For one-shot construction over a
/// Trace — optionally sharded across a SimContext's thread pool with
/// results identical at every execution shape — use compute().
class MrcEngine {
public:
  explicit MrcEngine(const MrcOptions &Opts);

  const MrcOptions &options() const { return Opts; }

  void addRef(uint64_t Addr);
  void addTrace(const Trace &T);

  /// Finalizes and moves the curve out; the engine is then spent.
  MissRatioCurve take();

  /// One pass over \p T. With a usable SimContext (pool + enough refs)
  /// the exact per-set pass shards over the set partition while the
  /// global pass runs as a sibling task; the exact partition is served
  /// from Ctx.Partitions when the context carries a registered trace.
  /// Sampled passes with MrcOptions::SampleShards > 1 run their
  /// hash-space sub-filters in parallel. Either way the curve is
  /// identical to the sequential one at every --sim-threads/--shards
  /// shape.
  static MissRatioCurve compute(const Trace &T, const MrcOptions &Opts,
                                const SimContext &Ctx = SimContext{});

private:
  /// One SHARDS sub-filter owning the hash-prefix slice of line space.
  /// All rates are *effective* (threshold rate / shard count): the
  /// shard tracks a random 1/NumShards-of-hash-space sample further
  /// thinned by its own threshold, and every weight/distance insert is
  /// scaled to full-stream units at insert time.
  struct SampledShard {
    ReuseDistanceAnalyzer Global;
    uint64_t Threshold = 0; ///< Track lines with subhash < Threshold.
    /// (subhash, line) — ordered so the largest tracked subhash is the
    /// adaptive eviction victim.
    std::set<std::pair<uint64_t, uint64_t>> Reservoir;
    Histogram ScaledStack;
    uint64_t ScaledCold = 0;
    size_t MaxLines = 0;

    void addLine(uint64_t SubHash, uint64_t LineAddr, uint32_t NumShards);
    /// Lower the threshold until the reservoir fits; evicts the
    /// dropped lines from the analyzer so tracked set ==
    /// filter-passing set.
    void shrink();
    /// Threshold rate of this shard's sub-filter (NOT divided by the
    /// shard count).
    double rate() const;
  };

  void addRefSampled(uint64_t LineAddr);
  /// Runs every sample shard over \p T concurrently (each shard scans
  /// the stream and keeps only its hash prefix — states are disjoint,
  /// so the result is identical to streaming the trace through
  /// addRef).
  void addTraceSampledParallel(const Trace &T, ThreadPool &Pool,
                               unsigned Helpers);
  uint32_t numSampleShards() const { return 1u << LgSampleShards; }

  MrcOptions Opts;
  ReuseDistanceAnalyzer Global;
  PerSetStackPass PerSet;
  uint64_t TotalRefs = 0;

  // SHARDS state (sampled mode only).
  unsigned LgSampleShards = 0;
  std::vector<SampledShard> SampledShards;
};

} // namespace ccprof

#endif // CCPROF_SIM_MRCENGINE_H
