//===- sim/MrcEngine.cpp - Single-pass miss-ratio curves -----------------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/MrcEngine.h"

#include "sim/MrcModel.h"
#include "sim/PartitionCache.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

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
// PerSetStackPass
//===----------------------------------------------------------------------===//

PerSetStackPass::PerSetStackPass(const CacheGeometry &Reference,
                                 uint32_t MaxWays, SetRange Window)
    : Reference(Reference), MaxWays(MaxWays), Window(Window),
      Stacks(Window.size(), MaxWays) {}

void PerSetStackPass::addRef(uint64_t Addr) {
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
    // Previously seen but fallen off the capped stack: the true per-set
    // distance is >= MaxWays; the sentinel bucket keeps it a miss at
    // every queryable associativity.
    Distances.add(MaxWays);
  }
}

//===----------------------------------------------------------------------===//
// MrcEngine
//===----------------------------------------------------------------------===//

MrcEngine::MrcEngine(const MrcOptions &Opts)
    : Opts(Opts), PerSet(Opts.Reference, Opts.MaxWays,
                         SetRange{0, Opts.Reference.numSets()}) {
  assert(Opts.SampleRate > 0.0 && Opts.SampleRate <= 1.0 &&
         "sample rate must be in (0, 1]");
  assert(Opts.MaxSampledLines >= 2 && "reservoir too small to adapt");
  if (Opts.Sampled) {
    // Power-of-two shard count so "the top Lg hash bits" is an exact
    // partition of line space; each shard filters on the remaining
    // bits (subhash), which are again uniform over the full 2^64
    // scale, so the threshold arithmetic is unchanged from the
    // single-filter pass.
    const uint32_t Requested =
        std::clamp<uint32_t>(Opts.SampleShards, 1, 256);
    LgSampleShards =
        static_cast<unsigned>(std::bit_width(std::bit_floor(Requested)) - 1);
    const uint64_t Threshold0 =
        Opts.SampleRate >= 1.0
            ? std::numeric_limits<uint64_t>::max()
            : static_cast<uint64_t>(std::ldexp(Opts.SampleRate, 64));
    SampledShards.resize(numSampleShards());
    for (SampledShard &Shard : SampledShards) {
      Shard.Threshold = Threshold0;
      Shard.MaxLines = std::max<size_t>(
          2, Opts.MaxSampledLines >> LgSampleShards);
    }
  }
}

double MrcEngine::SampledShard::rate() const {
  return Threshold == std::numeric_limits<uint64_t>::max()
             ? 1.0
             : std::ldexp(static_cast<double>(Threshold), -64);
}

void MrcEngine::addRef(uint64_t Addr) {
  ++TotalRefs;
  const uint64_t Line = Opts.Reference.lineAddrOf(Addr);
  if (Opts.Sampled) {
    addRefSampled(Line);
    return;
  }
  Global.access(Line);
  PerSet.addRef(Addr);
}

void MrcEngine::addRefSampled(uint64_t LineAddr) {
  const uint64_t Hash = hashLine(LineAddr);
  const size_t P = LgSampleShards == 0 ? 0 : Hash >> (64 - LgSampleShards);
  SampledShards[P].addLine(Hash << LgSampleShards, LineAddr,
                           numSampleShards());
}

void MrcEngine::SampledShard::addLine(uint64_t SubHash, uint64_t LineAddr,
                                      uint32_t NumShards) {
  if (SubHash >= Threshold)
    return;
  // The shard owns a 1/NumShards slice of hash space and its threshold
  // thins that slice further: the effective full-stream rate divides
  // by the shard count, which is what keeps every scaled weight and
  // distance in full-stream units — no merge-time rescale needed. At
  // NumShards == 1 the division is exact and the pass is bit-identical
  // to the legacy single filter.
  const double Rate = rate() / static_cast<double>(NumShards);
  const uint64_t Weight =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(1.0 / Rate)));
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

void MrcEngine::SampledShard::shrink() {
  // Drop to the largest tracked subhash: that line (and any ties)
  // leaves both the reservoir and the analyzer, and the filter
  // tightens so it can never return — tracked set and filter stay
  // consistent, which is what makes eviction semantically sound.
  Threshold = std::prev(Reservoir.end())->first;
  while (!Reservoir.empty()) {
    auto Last = std::prev(Reservoir.end());
    if (Last->first < Threshold)
      break;
    Global.evict(Last->second);
    Reservoir.erase(Last);
  }
}

void MrcEngine::addTrace(const Trace &T) {
  for (const MemoryRecord &R : T.records())
    addRef(R.Addr);
}

void MrcEngine::addTraceSampledParallel(const Trace &T, ThreadPool &Pool,
                                        unsigned Helpers) {
  assert(Opts.Sampled && "parallel sampling on an exact engine");
  const std::span<const MemoryRecord> Records = T.records();
  TotalRefs += Records.size();
  // One task per hash-space shard; each scans the whole stream and
  // keeps its prefix. The scan is hash + compare per record — cheap
  // next to the analyzer work behind the filter — and a shard's state
  // sees exactly the substream it would see under streaming addRef, in
  // the same order, so the result is identical at every helper count.
  Pool.parallelFor(SampledShards.size(), Helpers, [&](size_t P) {
    SampledShard &Shard = SampledShards[P];
    for (const MemoryRecord &R : Records) {
      const uint64_t Line = Opts.Reference.lineAddrOf(R.Addr);
      const uint64_t Hash = hashLine(Line);
      if ((LgSampleShards == 0 ? 0 : Hash >> (64 - LgSampleShards)) != P)
        continue;
      Shard.addLine(Hash << LgSampleShards, Line, numSampleShards());
    }
  });
}

MissRatioCurve MrcEngine::take() {
  MissRatioCurve Curve;
  Curve.TotalRefs = TotalRefs;
  Curve.Reference = Opts.Reference;
  Curve.MaxWays = Opts.MaxWays;
  Curve.Sampled = Opts.Sampled;
  if (Opts.Sampled) {
    // Per-shard inserts were already scaled to full-stream units, so
    // the merge is a plain sum. The reported rate is the merged
    // filter's tracked fraction of line space: each shard contributes
    // its threshold rate over a 1/NumShards slice. Equals the single
    // filter's threshold rate at one shard.
    double TrackedFraction = 0.0;
    for (SampledShard &Shard : SampledShards) {
      Curve.ColdWeight += Shard.ScaledCold;
      Curve.StackDistances.merge(Shard.ScaledStack);
      TrackedFraction +=
          Shard.rate() / static_cast<double>(numSampleShards());
    }
    Curve.HasPerSet = false;
    Curve.FinalRate = TrackedFraction;
  } else {
    Curve.ColdWeight = Global.coldCount();
    Curve.StackDistances = Global.distances();
    Curve.PerSetDistances = PerSet.distances();
    Curve.PerSetCold = PerSet.coldCount();
    Curve.HasPerSet = true;
    Curve.FinalRate = 1.0;
  }
  return Curve;
}

MissRatioCurve MrcEngine::compute(const Trace &T, const MrcOptions &Opts,
                                  const SimContext &Ctx) {
  const std::span<const MemoryRecord> Records = T.records();
  const uint64_t NumSets = Opts.Reference.numSets();

  // Sampled mode parallelizes across its hash-space sub-filters (when
  // configured with more than one); each is order-dependent internally
  // but independent of its siblings, so the curve matches streaming.
  if (Opts.Sampled) {
    MrcEngine Engine(Opts);
    if (Engine.numSampleShards() >= 2 && Ctx.Pool &&
        Records.size() >= Ctx.MinRefsToShard) {
      const unsigned Helpers =
          Ctx.Budget ? Ctx.Budget->tryAcquire(Ctx.Pool->workerCount())
                     : Ctx.Pool->workerCount();
      if (Helpers > 0) {
        Engine.addTraceSampledParallel(T, *Ctx.Pool, Helpers);
        if (Ctx.Budget)
          Ctx.Budget->release(Helpers);
        return Engine.take();
      }
    }
    Engine.addTrace(T);
    return Engine.take();
  }

  // Tiny traces don't amortize a partition.
  const bool Shardable =
      Ctx.Pool && NumSets >= 2 && Records.size() >= Ctx.MinRefsToShard;
  if (!Shardable) {
    MrcEngine Engine(Opts);
    Engine.addTrace(T);
    return Engine.take();
  }

  const unsigned Helpers = Ctx.Budget
                               ? Ctx.Budget->tryAcquire(Ctx.Pool->workerCount())
                               : Ctx.Pool->workerCount();
  const unsigned Shards = static_cast<unsigned>(std::min<uint64_t>(
      NumSets, Ctx.Shards != 0 ? Ctx.Shards : Helpers + 1));
  if (Shards <= 1 && Helpers == 0) {
    MrcEngine Engine(Opts);
    Engine.addTrace(T);
    return Engine.take();
  }
  if (Ctx.Stats && Shards > 1) {
    Ctx.Stats->ShardedSims.fetch_add(1, std::memory_order_relaxed);
    if (Helpers == 0)
      Ctx.Stats->UnhelpedShardedSims.fetch_add(1, std::memory_order_relaxed);
  }

  const std::vector<SetRange> Plan = planShards(NumSets, Shards);
  // Served from the route-once cache when the batch runner registered
  // this trace: an MRC pass at the reference geometry shares its
  // partition with every simulation sweeping the same index geometry.
  const PartitionCache::PartitionPtr Parts =
      routeOrReuse(Records, Opts.Reference, Plan, Ctx, Helpers);

  // Task 0 is the whole-stream global pass (the Mattson curve cannot
  // decompose by set); tasks 1..K are the per-set shards. Each shard's
  // refs arrive in ascending global order from the partition, so every
  // per-shard histogram matches what the sequential pass contributes
  // for those sets, and the merged result is identical at every shard
  // count and helper count.
  ReuseDistanceAnalyzer Global;
  std::vector<std::unique_ptr<PerSetStackPass>> Passes(Plan.size());
  Ctx.Pool->parallelFor(Plan.size() + 1, Helpers, [&](size_t Task) {
    if (Task == 0) {
      for (const MemoryRecord &R : Records)
        Global.access(Opts.Reference.lineAddrOf(R.Addr));
      return;
    }
    const size_t S = Task - 1;
    auto Pass =
        std::make_unique<PerSetStackPass>(Opts.Reference, Opts.MaxWays, Plan[S]);
    for (const ShardRef &Ref : Parts->shard(S))
      Pass->addRef(Ref.Addr);
    Passes[S] = std::move(Pass);
  });
  if (Ctx.Budget && Helpers > 0)
    Ctx.Budget->release(Helpers);

  MissRatioCurve Curve;
  Curve.TotalRefs = Records.size();
  Curve.Reference = Opts.Reference;
  Curve.MaxWays = Opts.MaxWays;
  Curve.Sampled = false;
  Curve.ColdWeight = Global.coldCount();
  Curve.StackDistances = Global.distances();
  Curve.HasPerSet = true;
  for (const std::unique_ptr<PerSetStackPass> &Pass : Passes) {
    Curve.PerSetDistances.merge(Pass->distances());
    Curve.PerSetCold += Pass->coldCount();
  }
  return Curve;
}
