//===- perfbench/src/GeometrySweep.cpp - The geometry_sweep workload ------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Set-up synthesizes and canonicalizes the fourteen case-study traces.
// One round replays every trace through four L1 configurations that
// share one index geometry (64 sets x 64 B) and between them cover
// every associativity (1/2/4/8 ways) and every deterministic policy
// (LRU / FIFO / TreePLRU), each through the ordered sharded collector
// and the aggregate collector, at K=4 shards with one PartitionCache
// for the round. The full 12-configuration cross product takes 7-14 s
// on four cores; four configurations keep a round near 3 s so a run
// reports the median of several. One operation is one (trace,
// configuration) pair; the work unit is one simulated reference under
// one configuration.
//
// Output check: per trace, one seed-chosen configuration is replayed
// through the sequential collectors, whose stream and aggregates must
// equal the sharded ones; every round must reproduce round 0's outputs.
//
//===----------------------------------------------------------------------===//

#include "CaseTraces.h"

#include "pmu/PebsEvent.h"
#include "sim/Cache.h"
#include "sim/PartitionCache.h"
#include "sim/ShardedSim.h"
#include "support/ThreadPool.h"

#include <algorithm>

using namespace ccprof;

namespace perfbench {

namespace {

constexpr unsigned Shards = 4;

struct SweepConfig {
  CacheGeometry Geometry;
  ReplacementKind Policy;
};

std::vector<SweepConfig> sweepConfigs() {
  const std::pair<uint32_t, ReplacementKind> Shapes[] = {
      {1, ReplacementKind::Lru},
      {2, ReplacementKind::Fifo},
      {4, ReplacementKind::TreePlru},
      {8, ReplacementKind::Lru}};
  std::vector<SweepConfig> Configs;
  for (const auto &[Ways, Policy] : Shapes)
    Configs.push_back({CacheGeometry(64ull * 64 * Ways, 64, Ways), Policy});
  return Configs;
}

uint64_t hashEvents(const std::vector<MissEvent> &Events) {
  Digest D;
  for (const MissEvent &E : Events) {
    D.add(static_cast<uint64_t>(E.Ip));
    D.add(E.Addr);
    D.add(E.VirtualAddr);
  }
  return D.value();
}

uint64_t hashAggregates(const MissStreamAggregates &A) {
  Digest D;
  for (uint64_t V : {A.Accesses, A.Misses, A.LoadMisses, A.StoreMisses,
                     A.Events})
    D.add(V);
  for (uint64_t V : A.PerSetMisses)
    D.add(V);
  return D.value();
}

} // namespace

Report runGeometrySweep(const RunOptions &Opts, Tracer &T) {
  Report R;
  const std::vector<SweepConfig> Configs = sweepConfigs();
  const bool Traced = T.enabled();

  std::vector<CaseTrace> Traces;
  unsigned SetupsLeft = SetupRepeats;
  const double SetupSeconds = medianSetupSeconds(SetupRepeats, [&] {
    T.setEnabled(Traced && --SetupsLeft == 0);
    Traces.clear();
    Traces = buildCaseStudyTraces(T);
  });
  T.setEnabled(false);

  uint64_t RefsPerConfig = 0;
  for (const CaseTrace &C : Traces)
    RefsPerConfig += C.Canonical.size();

  ThreadPool Pool(Shards - 1);
  ThreadBudget Budget(Shards);
  ShardCachePool CachePool;

  uint64_t SeedState = Opts.Seed;
  const std::vector<size_t> TraceOrder = shuffledOrder(Traces.size(), SeedState);
  const std::vector<size_t> ConfigOrder =
      shuffledOrder(Configs.size(), SeedState);

  // Per (trace, config): digests of round 0's outputs and each untraced
  // round's collector times. Metrics use each pair's median over the
  // rounds, so a burst of host noise that hits one round of a pair is
  // discarded instead of averaged in.
  const size_t Pairs = Traces.size() * Configs.size();
  std::vector<uint64_t> StreamHash(Pairs), AggHash(Pairs);
  std::vector<std::vector<double>> OrderedRuns(Pairs), AggregateRuns(Pairs);
  uint64_t Routed = 0, Reused = 0;

  auto Round = [&](unsigned Index) {
    PartitionCache Partitions;
    ShardExecStats Stats;
    double Measured = 0.0;
    for (size_t TI : TraceOrder) {
      const Trace &Tr = Traces[TI].Canonical;
      const uint64_t TraceId = Partitions.registerTrace();
      SimContext Ctx;
      Ctx.Pool = &Pool;
      Ctx.Budget = &Budget;
      Ctx.CachePool = &CachePool;
      Ctx.Stats = &Stats;
      Ctx.Shards = Shards;
      Ctx.Partitions = &Partitions;
      Ctx.TraceId = TraceId;
      for (size_t CI : ConfigOrder) {
        MissStreamOptions Options;
        Options.Policy = Configs[CI].Policy;
        const Clock::time_point Start = Clock::now();
        std::vector<MissEvent> Stream;
        {
          Tracer::Span S(T, "pmu.l1_ordered");
          Stream = collectL1MissStreamParallel(Tr, Configs[CI].Geometry,
                                               Options, Ctx);
        }
        const double Ordered = secondsSince(Start);
        MissStreamAggregates Agg;
        {
          Tracer::Span S(T, "pmu.l1_aggregates");
          Agg = collectL1MissAggregates(Tr, Configs[CI].Geometry, Options,
                                        Ctx);
        }
        const double Total = secondsSince(Start);
        Measured += Total;
        if (!T.enabled()) {
          OrderedRuns[TI * Configs.size() + CI].push_back(Ordered);
          AggregateRuns[TI * Configs.size() + CI].push_back(Total - Ordered);
        }
        T.add("pmu.events", static_cast<double>(Stream.size()));

        const size_t Pair = TI * Configs.size() + CI;
        const uint64_t SH = hashEvents(Stream), AH = hashAggregates(Agg);
        R.check(Agg.Events == Stream.size() && Agg.Accesses == Tr.size(),
                "aggregates disagree with ordered stream: " + Traces[TI].Name);
        if (Index == 0) {
          StreamHash[Pair] = SH;
          AggHash[Pair] = AH;
        } else {
          R.check(StreamHash[Pair] == SH && AggHash[Pair] == AH,
                  "round output differs from round 0: " + Traces[TI].Name);
        }
      }
      Partitions.releaseTrace(TraceId);
    }
    Routed = Stats.PartitionBuilds.load();
    Reused = Stats.PartitionReuses.load();
    T.add("sim.partitions_routed", static_cast<double>(Routed));
    T.add("sim.partitions_reused", static_cast<double>(Reused));
    return Measured;
  };

  std::vector<double> RoundSecs = runRounds(Traced ? 0.0 : Opts.Seconds, Round);
  double OverheadPct = 0.0;
  if (Traced) {
    OverheadPct = tracedRound(T, RoundSecs, Round);
  }

  std::vector<double> OrderedSecs(Pairs), AggregateSecs(Pairs), PairMs(Pairs);
  for (size_t Pair = 0; Pair < Pairs; ++Pair) {
    OrderedSecs[Pair] = median(OrderedRuns[Pair]);
    AggregateSecs[Pair] = median(AggregateRuns[Pair]);
    PairMs[Pair] = (OrderedSecs[Pair] + AggregateSecs[Pair]) * 1e3;
  }

  // Output check and sequential baseline: one configuration per trace.
  double SeqSecs = 0.0, ShardedSecs = 0.0;
  for (size_t TI = 0; TI < Traces.size(); ++TI) {
    const size_t CI = mix(SeedState) % Configs.size();
    const size_t Pair = TI * Configs.size() + CI;
    MissStreamOptions Options;
    Options.Policy = Configs[CI].Policy;
    const Clock::time_point Start = Clock::now();
    const std::vector<MissEvent> Seq = collectL1MissStream(
        Traces[TI].Canonical, Configs[CI].Geometry, Options);
    SeqSecs += secondsSince(Start);
    ShardedSecs += OrderedSecs[Pair];
    const MissStreamAggregates SeqAgg = collectL1MissAggregates(
        Traces[TI].Canonical, Configs[CI].Geometry, Options);
    R.check(hashEvents(Seq) == StreamHash[Pair],
            "sharded ordered stream differs from sequential: " +
                Traces[TI].Name);
    R.check(hashAggregates(SeqAgg) == AggHash[Pair],
            "sharded aggregates differ from sequential: " + Traces[TI].Name);
  }

  // Bare Cache::access cost per policy over all fourteen traces (paper
  // L1 geometry), traced runs only.
  std::map<std::string, double> Extra;
  if (Traced) {
    const std::pair<ReplacementKind, const char *> Policies[] = {
        {ReplacementKind::Lru, "sim.cache_ns_per_ref.lru"},
        {ReplacementKind::Fifo, "sim.cache_ns_per_ref.fifo"},
        {ReplacementKind::TreePlru, "sim.cache_ns_per_ref.plru"}};
    uint64_t Sink = 0;
    for (const auto &[Policy, Name] : Policies) {
      const Clock::time_point Start = Clock::now();
      for (const CaseTrace &C : Traces) {
        Cache Sim(CacheGeometry(32 * 1024, 64, 8), Policy);
        for (const MemoryRecord &Rec : C.Canonical.records())
          Sim.access(Rec.Addr, Rec.IsWrite);
        Sink += Sim.stats().Misses;
      }
      Extra[Name] = secondsSince(Start) * 1e9 /
                    static_cast<double>(std::max<uint64_t>(1, RefsPerConfig));
    }
    R.check(Sink > 0, "bare cache replay saw no misses");
  }

  Digest D;
  for (size_t Pair = 0; Pair < Pairs; ++Pair) {
    D.add(StreamHash[Pair]);
    D.add(AggHash[Pair]);
  }
  R.Digest = D.hex();

  double OrderedTotal = 0.0, AggregateTotal = 0.0;
  for (size_t Pair = 0; Pair < Pairs; ++Pair) {
    OrderedTotal += OrderedSecs[Pair];
    AggregateTotal += AggregateSecs[Pair];
  }
  const double Work = static_cast<double>(RefsPerConfig * Configs.size());
  const double RefsPerSec = Work / (OrderedTotal + AggregateTotal);
  R.EndToEnd = {{"setup_s", "s", SetupSeconds},
                {"work_per_s", "1/s", RefsPerSec},
                {"latency_p50_ms", "ms", percentile(PairMs, 0.50)}};
  R.Details = {
      {"refs_per_s", "refs*configs/s", RefsPerSec},
      {"latency_p90_ms", "ms", percentile(PairMs, 0.90)},
      {"latency_p99_ms", "ms", percentile(PairMs, 0.99)},
      {"rounds", "count", static_cast<double>(RoundSecs.size())},
      {"round_s", "s", median(RoundSecs)},
      {"trace_refs", "count", static_cast<double>(RefsPerConfig)},
      {"configs", "count", static_cast<double>(Configs.size())},
      {"ordered_ns_per_ref_config", "ns",
       OrderedTotal * 1e9 / Work},
      {"aggregates_ns_per_ref_config", "ns", AggregateTotal * 1e9 / Work},
      {"partitions_routed", "count", static_cast<double>(Routed)},
      {"partitions_reused", "count", static_cast<double>(Reused)}};

  Extra["sim.partition_reuse_ratio"] =
      Routed + Reused ? static_cast<double>(Reused) / (Routed + Reused) : 0.0;
  Extra["pmu.ordered_speedup_k4"] = ShardedSecs > 0 ? SeqSecs / ShardedSecs : 0;
  Extra["pmu.materialize_ratio"] =
      AggregateTotal > 0 ? OrderedTotal / AggregateTotal : 0.0;
  Extra["tracing.overhead_pct"] = OverheadPct;
  R.PerLayer = layerMetrics(T, Extra);
  return R;
}

} // namespace perfbench
