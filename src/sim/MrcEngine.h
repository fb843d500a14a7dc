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
///    than D lines (sim/ReuseDistance.h measures each distance in
///    O(log n)), so the global stack-distance histogram plus the
///    cold-miss count *is* the curve, cold misses included. The engine
///    holds the only walk that turns distances into curves: it files
///    each reference under a caller-given site -> bucket table, so the
///    per-loop curves of the consistency check (computeBySite) and the
///    program curve of compute() come from the same pass.
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
#include "sim/ShardedSim.h"
#include "support/Histogram.h"
#include "trace/Trace.h"

#include <cstddef>
#include <cstdint>
#include <span>
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
  /// (MrcEngine::compute) with results identical to one sequential
  /// scan.
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

/// The curves of one exact global pass whose references were filed by
/// site (MrcEngine::computeBySite). Bucket curves keep *global* stack
/// distances, so their histograms, cold counts and totals sum to the
/// program curve's.
struct AttributedCurves {
  MissRatioCurve Program;
  /// One curve per bucket of the caller's table, indexed by bucket.
  std::vector<MissRatioCurve> Buckets;
};

/// Single-pass MRC construction over a trace.
class MrcEngine {
public:
  /// One pass over \p T. The exact pass runs the global Mattson stack
  /// as task 0 and the per-set stacks as tasks 1..K, one per set shard
  /// of a ShardGrant (K = 1 reads the trace in place; K > 1 is served
  /// from Ctx.Partitions when the context carries a registered trace).
  /// The SHARDS pass runs one task per granted thread, each owning a
  /// contiguous range of hash-prefix sub-filters. Either way the curve
  /// is identical to the sequential one at every --sim-threads/--shards
  /// shape.
  static MissRatioCurve compute(const Trace &T, const MrcOptions &Opts,
                                const SimContext &Ctx = SimContext{});

  /// The exact fully-associative pass of compute() alone, at \p
  /// Reference's line size, with each reference's distance or cold miss
  /// filed under bucket \p BucketOf[site]. A site past the table's end
  /// is filed with UnknownSite; an empty table means one bucket. No
  /// curve has a per-set histogram.
  static AttributedCurves computeBySite(const Trace &T,
                                        const CacheGeometry &Reference,
                                        std::span<const uint32_t> BucketOf);
};

} // namespace ccprof

#endif // CCPROF_SIM_MRCENGINE_H
