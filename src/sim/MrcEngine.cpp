//===- sim/MrcEngine.cpp - Single-pass miss-ratio curves -----------------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/MrcEngine.h"

#include "sim/MrcModel.h"
#include "sim/PartitionCache.h"
#include "sim/ReuseDistance.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

using namespace ccprof;

namespace {

/// splitmix64 finalizer: the SHARDS spatial filter. Deterministic in
/// the line address alone, so sampling decisions are reproducible
/// across runs and execution shapes.
uint64_t hashLine(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// The per-set half of the exact pass: depth-capped MRU stacks, one
/// per set in \p Window, plus first-touch detection. One instance runs
/// per set shard; sets are independent, so the shard histograms merge
/// exactly and deterministically at every shard shape.
struct PerSetStackPass {
  CacheGeometry Reference;
  uint32_t MaxWays;
  SetRange Window;
  /// Depth MaxWays; index = set - Window.Begin.
  SetMruStacks Stacks;
  std::unordered_set<uint64_t> Seen;
  Histogram Distances;
  uint64_t Cold = 0;

  PerSetStackPass(const CacheGeometry &Reference, uint32_t MaxWays,
                  SetRange Window)
      : Reference(Reference), MaxWays(MaxWays), Window(Window),
        Stacks(Window.size(), MaxWays) {}

  /// Feeds one reference; its set must fall inside the window.
  void addRef(uint64_t Addr) {
    const uint64_t Set = Reference.setIndexOf(Addr);
    assert(Window.contains(Set) && "reference outside the pass window");
    const uint64_t Line = Reference.lineAddrOf(Addr);

    // Stack position == distinct same-set lines touched since last use.
    const uint32_t Position = Stacks.touch(Set - Window.Begin, Line);
    if (Position != SetMruStacks::Miss) {
      Distances.add(Position);
    } else if (Seen.insert(Line).second) {
      ++Cold;
    } else {
      // Previously seen but fallen off the capped stack: the true
      // per-set distance is >= MaxWays; the sentinel bucket keeps it a
      // miss at every queryable associativity.
      Distances.add(MaxWays);
    }
  }
};

/// One SHARDS sub-filter owning the hash-prefix slice of line space.
/// All rates are *effective* (threshold rate / shard count): the shard
/// tracks a random 1/NumShards-of-hash-space sample further thinned by
/// its own threshold, and every weight/distance insert is scaled to
/// full-stream units at insert time.
struct SampledShard {
  ReuseDistanceAnalyzer Global;
  uint64_t Threshold = 0; ///< Track lines with subhash < Threshold.
  /// (subhash, line) — ordered so the largest tracked subhash is the
  /// adaptive eviction victim.
  std::set<std::pair<uint64_t, uint64_t>> Reservoir;
  Histogram ScaledStack;
  uint64_t ScaledCold = 0;
  size_t MaxLines = 0;

  /// Threshold rate of this shard's sub-filter (NOT divided by the
  /// shard count).
  double rate() const {
    return Threshold == std::numeric_limits<uint64_t>::max()
               ? 1.0
               : std::ldexp(static_cast<double>(Threshold), -64);
  }

  void addLine(uint64_t SubHash, uint64_t LineAddr, uint32_t NumShards) {
    if (SubHash >= Threshold)
      return;
    // The shard owns a 1/NumShards slice of hash space and its
    // threshold thins that slice further: the effective full-stream
    // rate divides by the shard count, which is what keeps every
    // scaled weight and distance in full-stream units — no merge-time
    // rescale needed. At NumShards == 1 the division is exact and the
    // pass is bit-identical to the legacy single filter.
    const double Rate = rate() / static_cast<double>(NumShards);
    const uint64_t Weight = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::llround(1.0 / Rate)));
    const uint64_t Distance = Global.access(LineAddr);
    if (Distance == ReuseDistanceAnalyzer::Infinite) {
      ScaledCold += Weight;
      Reservoir.emplace(SubHash, LineAddr);
      if (Reservoir.size() > MaxLines)
        shrink();
      return;
    }
    // Sampled distances count only this shard's tracked lines — a
    // Rate-fraction of all distinct lines; dividing by it rescales to
    // full-stream units (SHARDS' distance correction).
    const uint64_t Scaled = static_cast<uint64_t>(
        std::llround(static_cast<double>(Distance) / Rate));
    ScaledStack.add(Scaled, Weight);
  }

  /// Lowers the threshold until the reservoir fits: the largest
  /// tracked subhash (and any ties) leaves both the reservoir and the
  /// analyzer, and the filter tightens so it can never return —
  /// tracked set and filter stay consistent, which is what makes
  /// eviction semantically sound.
  void shrink() {
    Threshold = std::prev(Reservoir.end())->first;
    while (!Reservoir.empty()) {
      auto Last = std::prev(Reservoir.end());
      if (Last->first < Threshold)
        break;
      Global.evict(Last->second);
      Reservoir.erase(Last);
    }
  }
};

/// The exact global Mattson walk, the one place distances become
/// curves: every reference's global stack distance, or its cold miss,
/// is filed under curve BucketOf[site]. An empty table files everything
/// under one curve; a site past the table's end files with UnknownSite.
/// A curve sets only Reference, ColdWeight, StackDistances, TotalRefs.
std::vector<MissRatioCurve>
globalStackPass(std::span<const MemoryRecord> Records,
                const CacheGeometry &Reference,
                std::span<const uint32_t> BucketOf) {
  std::vector<MissRatioCurve> Curves(
      BucketOf.empty() ? 1 : *std::max_element(BucketOf.begin(),
                                               BucketOf.end()) + 1);
  ReuseDistanceAnalyzer Global;
  for (const MemoryRecord &R : Records) {
    MissRatioCurve &Curve =
        BucketOf.empty()
            ? Curves.front()
            : Curves[BucketOf[R.Site < BucketOf.size() ? R.Site
                                                       : UnknownSite]];
    const uint64_t Distance = Global.access(Reference.lineAddrOf(R.Addr));
    if (Distance == ReuseDistanceAnalyzer::Infinite)
      ++Curve.ColdWeight;
    else
      Curve.StackDistances.add(Distance);
  }
  for (MissRatioCurve &Curve : Curves) {
    Curve.Reference = Reference;
    Curve.TotalRefs = Curve.scaledRefs();
  }
  return Curves;
}

/// Exact pass: task 0 is the whole-stream global Mattson pass (the
/// curve cannot decompose by set); tasks 1..K are the per-set stacks
/// of the grant's K set shards. Each shard sees its refs in ascending
/// global order, so every per-shard histogram matches what one
/// sequential pass contributes for those sets, and the merged curve is
/// identical at every shard and helper count.
void exactPass(std::span<const MemoryRecord> Records, const MrcOptions &Opts,
               const SimContext &Ctx, MissRatioCurve &Curve) {
  const ShardGrant Grant(Ctx, Opts.Reference.numSets(), Records.size());
  const std::vector<SetRange> Plan =
      planShards(Opts.Reference.numSets(), Grant.shards());
  // One shard reads the records in place. A split is served from the
  // route-once cache when the batch runner registered this trace: an
  // MRC pass at the reference geometry shares its partition with every
  // simulation sweeping the same index geometry.
  PartitionCache::PartitionPtr Parts;
  if (Grant.sharded())
    Parts = routeOrReuse(Records, Opts.Reference, Plan, Ctx, Grant.helpers());

  std::vector<MissRatioCurve> Global;
  std::vector<std::optional<PerSetStackPass>> Passes(Plan.size());
  Grant.run(Plan.size() + 1, [&](size_t Task) {
    if (Task == 0) {
      Global = globalStackPass(Records, Opts.Reference, {});
      return;
    }
    const size_t S = Task - 1;
    PerSetStackPass &Pass =
        Passes[S].emplace(Opts.Reference, Opts.MaxWays, Plan[S]);
    if (Parts) {
      for (const ShardRef &Ref : Parts->shard(S))
        Pass.addRef(Ref.Addr);
    } else {
      for (const MemoryRecord &R : Records)
        Pass.addRef(R.Addr);
    }
  });

  Curve.ColdWeight = Global.front().ColdWeight;
  Curve.StackDistances = std::move(Global.front().StackDistances);
  Curve.HasPerSet = true;
  for (const std::optional<PerSetStackPass> &Pass : Passes) {
    Curve.PerSetDistances.merge(Pass->Distances);
    Curve.PerSetCold += Pass->Cold;
  }
}

/// SHARDS pass: S = 2^Lg hash-prefix sub-filters, run by one task per
/// granted thread, each owning a contiguous range of prefixes. A task
/// scans the whole stream and feeds the lines of its prefixes, so every
/// sub-filter sees exactly its substream in stream order and the curve
/// is identical at every task count; one task is the plain sequential
/// scan.
void sampledPass(std::span<const MemoryRecord> Records,
                 const MrcOptions &Opts, const SimContext &Ctx,
                 MissRatioCurve &Curve) {
  // Power-of-two shard count so "the top Lg hash bits" is an exact
  // partition of line space; each shard filters on the remaining bits
  // (subhash), which are again uniform over the full 2^64 scale, so
  // the threshold arithmetic is unchanged from the single-filter pass.
  const uint32_t Requested = std::clamp<uint32_t>(Opts.SampleShards, 1, 256);
  const unsigned Lg =
      static_cast<unsigned>(std::bit_width(std::bit_floor(Requested)) - 1);
  const uint32_t NumShards = 1u << Lg;
  const uint64_t Threshold0 =
      Opts.SampleRate >= 1.0
          ? std::numeric_limits<uint64_t>::max()
          : static_cast<uint64_t>(std::ldexp(Opts.SampleRate, 64));
  std::vector<SampledShard> Shards(NumShards);
  for (SampledShard &Shard : Shards) {
    Shard.Threshold = Threshold0;
    Shard.MaxLines = std::max<size_t>(2, Opts.MaxSampledLines >> Lg);
  }

  const ShardGrant Grant(Ctx, NumShards, Records.size(),
                         ShardPhase::HashPrefixes);
  const std::vector<SetRange> Ranges = planShards(NumShards, Grant.shards());
  Grant.run(Ranges.size(), [&](size_t Task) {
    for (const MemoryRecord &R : Records) {
      const uint64_t Line = Opts.Reference.lineAddrOf(R.Addr);
      const uint64_t Hash = hashLine(Line);
      const uint64_t Prefix = Lg == 0 ? 0 : Hash >> (64 - Lg);
      if (Ranges[Task].contains(Prefix))
        Shards[Prefix].addLine(Hash << Lg, Line, NumShards);
    }
  });

  // Per-shard inserts were already scaled to full-stream units, so the
  // merge is a plain sum. The reported rate is the merged filter's
  // tracked fraction of line space: each shard contributes its
  // threshold rate over a 1/NumShards slice. Equals the single
  // filter's threshold rate at one shard.
  double TrackedFraction = 0.0;
  for (const SampledShard &Shard : Shards) {
    Curve.ColdWeight += Shard.ScaledCold;
    Curve.StackDistances.merge(Shard.ScaledStack);
    TrackedFraction += Shard.rate() / static_cast<double>(NumShards);
  }
  Curve.HasPerSet = false;
  Curve.FinalRate = TrackedFraction;
}

} // namespace

//===----------------------------------------------------------------------===//
// MissRatioCurve
//===----------------------------------------------------------------------===//

uint64_t MissRatioCurve::missWeightAtLines(uint64_t Lines) const {
  return ColdWeight +
         (StackDistances.total() - StackDistances.countBelow(Lines));
}

double MissRatioCurve::missRatioAtLines(uint64_t Lines) const {
  const uint64_t Refs = scaledRefs();
  if (Refs == 0)
    return 0.0;
  return static_cast<double>(missWeightAtLines(Lines)) /
         static_cast<double>(Refs);
}

bool MissRatioCurve::isExactAt(const CacheGeometry &Geometry) const {
  if (Geometry.numSets() == 1)
    return !Sampled;
  return HasPerSet && Geometry.lineBytes() == Reference.lineBytes() &&
         Geometry.numSets() == Reference.numSets() &&
         Geometry.associativity() <= MaxWays;
}

double MissRatioCurve::missRatioAt(const CacheGeometry &Geometry) const {
  if (Geometry.numSets() != 1 && isExactAt(Geometry)) {
    const uint64_t Total = PerSetCold + PerSetDistances.total();
    if (Total == 0)
      return 0.0;
    const uint64_t Misses =
        PerSetCold + (PerSetDistances.total() -
                      PerSetDistances.countBelow(Geometry.associativity()));
    return static_cast<double>(Misses) / static_cast<double>(Total);
  }
  return modelMissRatioAt(Geometry);
}

double MissRatioCurve::modelMissRatioAt(const CacheGeometry &Geometry) const {
  // One code path with the static reuse-profile estimator: both curves
  // read out through sim/MrcModel's Hill–Smith implementation.
  return modelMissRatioFromStack(StackDistances, ColdWeight, scaledRefs(),
                                 Geometry);
}

//===----------------------------------------------------------------------===//
// MrcEngine
//===----------------------------------------------------------------------===//

MissRatioCurve MrcEngine::compute(const Trace &T, const MrcOptions &Opts,
                                  const SimContext &Ctx) {
  assert(Opts.SampleRate > 0.0 && Opts.SampleRate <= 1.0 &&
         "sample rate must be in (0, 1]");
  assert(Opts.MaxSampledLines >= 2 && "reservoir too small to adapt");
  MissRatioCurve Curve;
  Curve.TotalRefs = T.size();
  Curve.Reference = Opts.Reference;
  Curve.MaxWays = Opts.MaxWays;
  Curve.Sampled = Opts.Sampled;
  if (Opts.Sampled)
    sampledPass(T.records(), Opts, Ctx, Curve);
  else
    exactPass(T.records(), Opts, Ctx, Curve);
  return Curve;
}

AttributedCurves MrcEngine::computeBySite(const Trace &T,
                                          const CacheGeometry &Reference,
                                          std::span<const uint32_t> BucketOf) {
  AttributedCurves Out;
  Out.Buckets = globalStackPass(T.records(), Reference, BucketOf);
  Out.Program.TotalRefs = T.size();
  Out.Program.Reference = Reference;
  for (const MissRatioCurve &Bucket : Out.Buckets) {
    Out.Program.ColdWeight += Bucket.ColdWeight;
    Out.Program.StackDistances.merge(Bucket.StackDistances);
  }
  return Out;
}
