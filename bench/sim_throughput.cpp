//===- bench/sim_throughput.cpp - Simulation engine throughput ------------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Tracks the three perf levers of the simulation engine:
//
//  1. simulated-accesses/sec of the SoA Cache hot path against the
//     preserved scalar ReferenceCache, reported per cache
//     configuration (geometry x policy) on the same mixed
//     strided/random reference stream (identical behaviour is enforced
//     separately by tests/CacheSoaExactnessTest.cpp);
//
//  2. jobs/sec of a sampling-period-sweep batch — the paper-style
//     evaluation matrix — with the shared-trace engine (one miss
//     stream per configuration, runJobsShared) vs the naive runJobs
//     (one simulation per job), verifying along
//     the way that both paths produce byte-identical artifacts;
//
//  3. shard-count sweeps of the set-sharded parallel collector
//     (collectL1MissStreamParallel) and of the merge-elided
//     aggregate-only collector (collectL1MissAggregates), in two
//     tiers: the default tier (millions of refs — catches setup-cost
//     regressions) and, with --large, a steady-state tier of >= 100M
//     synthetic refs generated procedurally in memory (no giant trace
//     file is ever materialized) where partition/union serial
//     fractions, not warm-up, dominate the measurement. Every sweep
//     point is verified element-identical (ordered collector) or
//     field-identical (aggregates) to the sequential baseline.
//
//  4. route-once partition reuse (--large adds a steady-state tier):
//     twelve L1-class cache configurations sharing one index geometry
//     (64 sets x 64B lines — four sizes at matching associativity, x
//     every deterministic policy) replayed through the sharded
//     aggregate collector with per-config routing vs a PartitionCache
//     that routes the trace once and replays it for every
//     configuration. The tier also times the routing pass alone and
//     verifies ordered miss streams are byte-identical cache on vs
//     off.
//
// Emits machine-readable BENCH_sim_throughput.json and
// BENCH_simshard.json (one entry per tier) in the working directory so
// the perf trajectory is comparable across PRs; exits nonzero if any
// identity check fails. `--smoke` shrinks the workloads for CI;
// `--json` suppresses the human-readable tables (the JSON files are
// always written); `--refs N` overrides the large tier's trace length;
// `--gate` additionally fails the run if the large tier's 2-shard
// ordered-collector speedup falls below 1.0x — the CI floor that keeps
// the sharded engine from regressing below sequential again — or its
// 4-shard ordered speedup falls below 1.3x, or the large sweep-reuse
// tier's route-once speedup falls below 1.5x over per-config routing.
//
//===----------------------------------------------------------------------===//

#include "pipeline/JobRunner.h"
#include "pmu/PebsEvent.h"
#include "sim/PartitionCache.h"
#include "sim/MachineConfig.h"
#include "sim/ReferenceCache.h"
#include "support/Flags.h"
#include "support/Rng.h"
#include "support/Table.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

using namespace ccprof;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Mixed reference stream: strided array sweeps (the workloads' common
/// pattern) interleaved with random pointers, plus stores.
std::vector<std::pair<uint64_t, bool>> makeStream(size_t NumRefs) {
  std::vector<std::pair<uint64_t, bool>> Refs;
  Refs.reserve(NumRefs);
  Xoshiro256 Rng(0xbe9c'47a1);
  uint64_t Stride = 0;
  for (size_t I = 0; I < NumRefs; ++I) {
    uint64_t Addr;
    if (I % 4 != 0) {
      Stride += 24; // walks sets, revisits lines
      Addr = Stride % (1 << 20);
    } else {
      Addr = Rng.nextBounded(1 << 20);
    }
    Refs.emplace_back(Addr, Rng.nextBounded(8) < 3);
  }
  return Refs;
}

/// The same mixed distribution generated straight into a Trace — the
/// large tier synthesizes >= 100M refs this way, so no intermediate
/// stream vector (and no trace file) is ever materialized.
Trace makeTrace(size_t NumRefs) {
  Trace T;
  T.reserve(NumRefs);
  Xoshiro256 Rng(0xbe9c'47a1);
  uint64_t Stride = 0;
  for (size_t I = 0; I < NumRefs; ++I) {
    uint64_t Addr;
    if (I % 4 != 0) {
      Stride += 24; // walks sets, revisits lines
      Addr = Stride % (1 << 20);
    } else {
      Addr = Rng.nextBounded(1 << 20);
    }
    if (Rng.nextBounded(8) < 3)
      T.recordStore(0, Addr, 8);
    else
      T.recordLoad(0, Addr, 8);
  }
  return T;
}

template <typename CacheT>
double refsPerSec(CacheT &C,
                  const std::vector<std::pair<uint64_t, bool>> &Refs,
                  uint64_t &HitSink) {
  Clock::time_point Start = Clock::now();
  for (const auto &[Addr, IsWrite] : Refs)
    HitSink += C.access(Addr, IsWrite).Hit;
  double Secs = secondsSince(Start);
  return static_cast<double>(Refs.size()) / Secs;
}

std::string serializeAll(const std::vector<JobOutcome> &Outcomes) {
  std::stringstream Stream;
  for (const JobOutcome &Outcome : Outcomes)
    if (Outcome.ok())
      Outcome.Artifact.writeTo(Stream);
  return Stream.str();
}

std::string fmtRate(double PerSec) {
  std::ostringstream Out;
  Out.precision(2);
  Out << std::fixed;
  if (PerSec >= 1e6)
    Out << PerSec / 1e6 << "M";
  else if (PerSec >= 1e3)
    Out << PerSec / 1e3 << "k";
  else
    Out << PerSec;
  return Out.str();
}

std::string fmtX(double Value) {
  std::ostringstream Out;
  Out.precision(2);
  Out << std::fixed << Value << "x";
  return Out.str();
}

const char *policyName(ReplacementKind Policy) {
  switch (Policy) {
  case ReplacementKind::Lru:
    return "LRU";
  case ReplacementKind::Fifo:
    return "FIFO";
  case ReplacementKind::TreePlru:
    return "TreePLRU";
  case ReplacementKind::Random:
    return "Random";
  }
  return "?";
}

/// One geometry x policy row of the per-config hot-path comparison.
struct ConfigRow {
  std::string Name;
  CacheGeometry Geometry;
  ReplacementKind Policy;
  double ScalarRate = 0.0;
  double SoaRate = 0.0;
};

/// One shard count of the sharded-collector sweep: the ordered
/// (bitmap-compacted) collector and the merge-elided aggregate collector,
/// both against the sequential ordered baseline.
struct ShardRow {
  unsigned Shards = 0;
  unsigned Threads = 0;
  double StreamRate = 0.0;
  double StreamSpeedup = 1.0;
  double AggRate = 0.0;
  double AggSpeedup = 1.0;
  bool Identical = true;
};

/// One trace-size tier of the shard sweep.
struct ShardTier {
  std::string Name;
  size_t TraceRefs = 0;
  double SeqRate = 0.0;    ///< Sequential ordered collector.
  double SeqAggRate = 0.0; ///< Sequential aggregate collector.
  std::vector<ShardRow> Sweep;
  bool Identical = true;
};

/// Runs one tier: synthesize the trace, measure the sequential
/// baselines, then sweep shard counts with a K-thread execution shape,
/// verifying exactness at every point.
ShardTier runShardTier(const std::string &Name, size_t NumRefs,
                       const std::vector<unsigned> &ShardCounts) {
  const CacheGeometry Geometry = paperL1Geometry();
  const MissStreamOptions Options; // LRU, loads only
  const Trace T = makeTrace(NumRefs);

  ShardTier Tier;
  Tier.Name = Name;
  Tier.TraceRefs = NumRefs;

  // One warm-up replay (page faults, lazy allocation), then timed
  // sequential baselines for both collectors.
  collectL1MissStream(T, Geometry, Options);
  Clock::time_point SeqStart = Clock::now();
  const std::vector<MissEvent> SeqStream =
      collectL1MissStream(T, Geometry, Options);
  Tier.SeqRate = static_cast<double>(NumRefs) / secondsSince(SeqStart);

  Clock::time_point SeqAggStart = Clock::now();
  const MissStreamAggregates SeqAgg =
      collectL1MissAggregates(T, Geometry, Options);
  Tier.SeqAggRate = static_cast<double>(NumRefs) / secondsSince(SeqAggStart);

  Tier.Sweep.push_back({1, 1, Tier.SeqRate, 1.0, Tier.SeqAggRate,
                        Tier.SeqAggRate / Tier.SeqRate, true});

  for (unsigned K : ShardCounts) {
    // Full machine budget per row: the sweep asks how *shard count*
    // scales on this runner, and the grant spends threads beyond the
    // shard count on the partition / union / compaction phases (they
    // chunk past K). Floor at K so one-core machines still exercise
    // every parallel code path for the identity checks.
    const unsigned Threads =
        std::max(K, std::max(1u, std::thread::hardware_concurrency()));
    ThreadPool Pool(Threads - 1);
    ThreadBudget Budget(Threads);
    ShardCachePool CachePool;
    ShardExecStats Stats;
    SimContext Ctx;
    Ctx.Pool = &Pool;
    Ctx.Budget = &Budget;
    Ctx.CachePool = &CachePool;
    Ctx.Stats = &Stats;
    Ctx.Shards = K;
    Ctx.MinRefsToShard = 0;

    // Warm-up (also primes the shard-cache pool), then the measured
    // runs: ordered collector first, aggregate-only second.
    collectL1MissStreamParallel(T, Geometry, Options, Ctx);
    Clock::time_point Start = Clock::now();
    const std::vector<MissEvent> Stream =
        collectL1MissStreamParallel(T, Geometry, Options, Ctx);
    const double StreamSecs = secondsSince(Start);

    Clock::time_point AggStart = Clock::now();
    const MissStreamAggregates Agg =
        collectL1MissAggregates(T, Geometry, Options, Ctx);
    const double AggSecs = secondsSince(AggStart);

    ShardRow Row;
    Row.Shards = K;
    Row.Threads = Threads;
    Row.StreamRate = static_cast<double>(NumRefs) / StreamSecs;
    Row.StreamSpeedup = Row.StreamRate / Tier.SeqRate;
    Row.AggRate = static_cast<double>(NumRefs) / AggSecs;
    Row.AggSpeedup = Row.AggRate / Tier.SeqRate;
    Row.Identical = Stream == SeqStream && Agg == SeqAgg &&
                    Agg.Events == SeqStream.size() &&
                    Stats.ElidedMerges.load() > 0;
    Tier.Identical = Tier.Identical && Row.Identical;
    Tier.Sweep.push_back(Row);
  }
  return Tier;
}

/// One trace-size tier of the route-once sweep: N configurations
/// sharing an index geometry replayed with per-config routing vs a
/// PartitionCache, plus the routing pass timed alone on the same trace.
struct SweepReuseTier {
  std::string Name;
  size_t TraceRefs = 0;
  size_t NumConfigs = 0;
  unsigned Shards = 0;
  double PerConfigSecs = 0.0; ///< Every config routes from scratch.
  double ReuseSecs = 0.0;     ///< Route once, replay many.
  double Speedup = 1.0;
  uint64_t Builds = 0; ///< Partitions routed in reuse mode (want 1).
  uint64_t Reuses = 0; ///< Route-once cache hits (want N - 1).
  double RouterSecs = 0.0; ///< Count+scatter routing pass alone.
  bool Identical = true;
};

/// Runs one sweep-reuse tier: synthesize the trace, replay the
/// eight-config sweep through the sharded aggregate collector with
/// per-config routing, then again through a PartitionCache, and verify
/// identical aggregates, byte-identical ordered streams cache on vs
/// off, and exact build/hit accounting.
SweepReuseTier runSweepReuseTier(const std::string &Name, size_t NumRefs) {
  // Twelve configurations sharing one index geometry (64 sets x 64B
  // lines): four L1-class sizes with matching associativity — the
  // paper's own L1 (32K/8-way, 64 sets) included — x every
  // deterministic policy (Random falls back to sequential replay and
  // never partitions). The shard partition depends only on (set
  // count, line size, shard count), so one routing pass serves every
  // replay. Low associativity is deliberate: replay cost per ref
  // grows with ways while routing cost does not, so an L1-class
  // sweep is where route-once pays the most.
  struct SweepConfig {
    CacheGeometry Geometry;
    ReplacementKind Policy;
  };
  std::vector<SweepConfig> Configs;
  for (ReplacementKind Policy :
       {ReplacementKind::Lru, ReplacementKind::Fifo,
        ReplacementKind::TreePlru})
    for (const auto &[SizeKb, Ways] :
         std::initializer_list<std::pair<uint64_t, uint32_t>>{
             {4, 1}, {8, 2}, {16, 4}, {32, 8}})
      Configs.push_back({CacheGeometry(SizeKb * 1024, 64, Ways), Policy});

  const Trace T = makeTrace(NumRefs);
  constexpr unsigned SweepShards = 4;
  const unsigned Threads = std::max(
      SweepShards, std::max(1u, std::thread::hardware_concurrency()));
  ThreadPool Pool(Threads - 1);
  ThreadBudget Budget(Threads);
  ShardCachePool CachePool;

  SweepReuseTier Tier;
  Tier.Name = Name;
  Tier.TraceRefs = NumRefs;
  Tier.NumConfigs = Configs.size();
  Tier.Shards = SweepShards;

  auto makeCtx = [&](ShardExecStats &Stats, PartitionCache *Cache,
                     uint64_t TraceId) {
    SimContext Ctx;
    Ctx.Pool = &Pool;
    Ctx.Budget = &Budget;
    Ctx.CachePool = &CachePool;
    Ctx.Stats = &Stats;
    Ctx.Shards = SweepShards;
    Ctx.MinRefsToShard = 0;
    Ctx.Partitions = Cache;
    Ctx.TraceId = TraceId;
    return Ctx;
  };

  // The timed sweeps replay through the merge-elided aggregate
  // collector — the configuration-sweep fast path — so routing cost
  // is the difference under test; the ordered collector's byte
  // identity is checked untimed below.
  auto sweepAggregates = [&](const SimContext &Ctx) {
    std::vector<MissStreamAggregates> Out;
    Out.reserve(Configs.size());
    for (const SweepConfig &C : Configs) {
      MissStreamOptions Options;
      Options.Policy = C.Policy;
      Out.push_back(collectL1MissAggregates(T, C.Geometry, Options, Ctx));
    }
    return Out;
  };

  // Warm-up on one configuration: page faults, arena-sized
  // allocations, the shard-cache pool. One replay is enough — the
  // timed sweeps reuse the same allocator arenas config over config.
  {
    ShardExecStats Warm;
    MissStreamOptions Options;
    Options.Policy = Configs.front().Policy;
    collectL1MissAggregates(T, Configs.front().Geometry, Options,
                            makeCtx(Warm, nullptr, 0));
  }

  ShardExecStats PerConfigStats;
  Clock::time_point PerConfigStart = Clock::now();
  const std::vector<MissStreamAggregates> PerConfig =
      sweepAggregates(makeCtx(PerConfigStats, nullptr, 0));
  Tier.PerConfigSecs = secondsSince(PerConfigStart);

  PartitionCache Partitions;
  const uint64_t TraceId = Partitions.registerTrace();
  ShardExecStats ReuseStats;
  Clock::time_point ReuseStart = Clock::now();
  const std::vector<MissStreamAggregates> Reused =
      sweepAggregates(makeCtx(ReuseStats, &Partitions, TraceId));
  Tier.ReuseSecs = secondsSince(ReuseStart);
  Partitions.releaseTrace(TraceId);

  Tier.Speedup = Tier.PerConfigSecs / Tier.ReuseSecs;
  Tier.Builds = ReuseStats.PartitionBuilds.load();
  Tier.Reuses = ReuseStats.PartitionReuses.load();
  Tier.Identical = PerConfig == Reused && Tier.Builds == 1 &&
                   Tier.Reuses == Configs.size() - 1 &&
                   PerConfigStats.PartitionBuilds.load() == Configs.size();

  // Ordered-stream byte identity, cache on vs off, on one config per
  // policy (the aggregate equality above already spans all eight).
  // The second config shares the first's geometry key, so the cached
  // run exercises the reuse path in ordered mode too.
  {
    PartitionCache OrderedCache;
    const uint64_t OrderedId = OrderedCache.registerTrace();
    for (size_t I : {size_t{0}, Configs.size() - 1}) {
      MissStreamOptions Options;
      Options.Policy = Configs[I].Policy;
      ShardExecStats OffStats, OnStats;
      const std::vector<MissEvent> Off = collectL1MissStreamParallel(
          T, Configs[I].Geometry, Options, makeCtx(OffStats, nullptr, 0));
      const std::vector<MissEvent> On = collectL1MissStreamParallel(
          T, Configs[I].Geometry, Options,
          makeCtx(OnStats, &OrderedCache, OrderedId));
      Tier.Identical = Tier.Identical && Off == On;
    }
    OrderedCache.releaseTrace(OrderedId);
  }

  // The routing pass alone on this tier's trace: the P of the Amdahl
  // bound N(P+R)/(P+NR) that route-once reuse amortizes.
  {
    const CacheGeometry IndexGeometry = Configs.front().Geometry;
    const std::vector<SetRange> Plan =
        planShards(IndexGeometry.numSets(), SweepShards);
    partitionBySetParallel(T.records(), IndexGeometry, Plan, Pool,
                           Threads - 1); // warm-up
    Clock::time_point Start = Clock::now();
    partitionBySetParallel(T.records(), IndexGeometry, Plan, Pool,
                           Threads - 1);
    Tier.RouterSecs = secondsSince(Start);
  }
  return Tier;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  bool JsonOnly = false;
  bool Large = false;
  bool Gate = false;
  size_t LargeRefs = 100'000'000;
  const flags::FlagTable Table = {
      flags::toggle("--smoke", "400k-ref tier instead of 8M", Smoke),
      flags::toggle("--json", "machine-readable output only", JsonOnly),
      flags::toggle("--large", "add the steady-state --refs tier", Large),
      flags::value("--refs", "N", "references of the --large tier "
                   "(default 100M)", LargeRefs, flags::unsignedIn<size_t>()),
      flags::toggle("--gate", "fail below the speedup floors (needs --large)",
                    Gate),
  };
  if (!flags::parseCommandLine(Argc, Argv, "sim_throughput", Table))
    return 2;
  if (Gate && !Large) {
    std::cerr << "error: --gate requires --large (the floor is defined on "
                 "the steady-state tier)\n";
    return 2;
  }

  if (!JsonOnly)
    std::cout << "=== Simulation engine throughput"
              << (Smoke ? " (smoke)" : "") << " ===\n\n";

  // --- 1. SoA hot path vs scalar model, per cache configuration --------
  const size_t NumRefs = Smoke ? 400'000 : 4'000'000;
  std::vector<std::pair<uint64_t, bool>> Refs = makeStream(NumRefs);

  std::vector<ConfigRow> Configs = {
      {"paper L1", paperL1Geometry(), ReplacementKind::Lru},
      {"paper L1", paperL1Geometry(), ReplacementKind::Fifo},
      {"256K/8w L2", CacheGeometry(256 * 1024, 64, 8), ReplacementKind::Lru},
  };

  uint64_t HitSink = 0;
  for (ConfigRow &Row : Configs) {
    {
      ReferenceCache Warm(Row.Geometry, Row.Policy),
          Timed(Row.Geometry, Row.Policy);
      refsPerSec(Warm, Refs, HitSink); // warm-up: page faults, lazy init
      Row.ScalarRate = refsPerSec(Timed, Refs, HitSink);
    }
    {
      Cache Warm(Row.Geometry, Row.Policy), Timed(Row.Geometry, Row.Policy);
      refsPerSec(Warm, Refs, HitSink);
      Row.SoaRate = refsPerSec(Timed, Refs, HitSink);
    }
  }

  if (!JsonOnly) {
    TextTable CacheTable({"config", "policy", "scalar refs/sec",
                          "SoA refs/sec", "SoA speedup"});
    for (const ConfigRow &Row : Configs)
      CacheTable.addRow({Row.Name, policyName(Row.Policy),
                         fmtRate(Row.ScalarRate), fmtRate(Row.SoaRate),
                         fmtX(Row.SoaRate / Row.ScalarRate)});
    std::cout << CacheTable.render() << "(hit sink " << HitSink % 10 << ", "
              << NumRefs << " refs per measurement)\n\n";
  }
  const double ScalarRate = Configs.front().ScalarRate;
  const double SoaRate = Configs.front().SoaRate;
  const double SoaSpeedup = SoaRate / ScalarRate;

  // --- 2. Shared-trace batch vs naive per-job simulation ----------------
  // The acceptance scenario: one workload swept over >= 4 sampling
  // periods — identical trace and miss stream per job, different
  // samplers. Paper Sec. 5.3 sweeps exactly this axis.
  BatchMatrix Matrix;
  Matrix.Workloads = {"Symmetrization"};
  Matrix.Periods = Smoke ? std::vector<uint64_t>{171, 606, 1212, 2424}
                         : std::vector<uint64_t>{171, 303, 606, 1212, 2424,
                                                 4848};
  std::vector<JobSpec> Jobs = expandMatrix(Matrix);

  runJobs(Jobs, 1); // warm-up: page faults, lazy init

  Clock::time_point NaiveStart = Clock::now();
  std::vector<JobOutcome> Naive = runJobs(Jobs, 1);
  const double NaiveSecs = secondsSince(NaiveStart);

  SharedBatchStats Stats;
  BatchExecOptions OneThread;
  OneThread.Workers = 1;
  OneThread.SimThreads = 1;
  Clock::time_point SharedStart = Clock::now();
  std::vector<JobOutcome> Shared =
      runJobsShared(Jobs, OneThread, 0, nullptr, nullptr, &Stats);
  const double SharedSecs = secondsSince(SharedStart);

  size_t Failed = 0;
  for (const JobOutcome &Outcome : Naive)
    Failed += !Outcome.ok();
  for (const JobOutcome &Outcome : Shared)
    Failed += !Outcome.ok();
  if (Failed != 0) {
    std::cerr << "error: " << Failed << " job(s) failed\n";
    return 1;
  }
  const bool Identical = serializeAll(Naive) == serializeAll(Shared);

  const double NaiveRate = static_cast<double>(Jobs.size()) / NaiveSecs;
  const double SharedRate = static_cast<double>(Jobs.size()) / SharedSecs;
  const double BatchSpeedup = SharedRate / NaiveRate;

  if (!JsonOnly) {
    TextTable BatchTable(
        {"engine", "jobs", "wall (s)", "jobs/sec", "speedup", "bytes =="});
    std::ostringstream NaiveWall, SharedWall;
    NaiveWall.precision(3);
    NaiveWall << std::fixed << NaiveSecs;
    SharedWall.precision(3);
    SharedWall << std::fixed << SharedSecs;
    BatchTable.addRow({"naive (one simulation per job)",
                       std::to_string(Jobs.size()), NaiveWall.str(),
                       fmtRate(NaiveRate), "1.00x", "-"});
    BatchTable.addRow({"shared-trace (streams)", std::to_string(Jobs.size()),
                       SharedWall.str(), fmtRate(SharedRate),
                       fmtX(BatchSpeedup), Identical ? "yes" : "NO"});
    std::cout << BatchTable.render() << "(" << Jobs.size()
              << "-period sweep; stream cache: " << Stats.Streams.Hits
              << " hit(s), " << Stats.Streams.Misses << " simulation(s))\n\n";
  }

  // --- 3. Set-sharded parallel collector: tiered shard-count sweeps -----
  // Default tier: a few million refs, cheap enough to run everywhere,
  // sensitive to setup cost. Large tier (--large): >= 100M synthetic
  // refs so the measurement is steady-state — this is the tier the CI
  // speedup gate reads, because the smoke-sized sweep punishes the
  // parallel path with fixed costs the real workloads amortize away.
  const std::vector<unsigned> ShardCounts =
      Smoke ? std::vector<unsigned>{2, 4} : std::vector<unsigned>{2, 4, 8};
  std::vector<ShardTier> Tiers;
  Tiers.push_back(runShardTier(Smoke ? "smoke" : "standard",
                               Smoke ? 400'000 : 8'000'000, ShardCounts));
  if (Large)
    Tiers.push_back(runShardTier("large", LargeRefs,
                                 std::vector<unsigned>{2, 4}));
  bool ShardIdentical = true;
  for (const ShardTier &Tier : Tiers)
    ShardIdentical = ShardIdentical && Tier.Identical;

  if (!JsonOnly) {
    for (const ShardTier &Tier : Tiers) {
      TextTable ShardTable({"shards", "threads", "stream refs/sec",
                            "speedup", "agg refs/sec", "agg speedup",
                            "exact =="});
      for (const ShardRow &Row : Tier.Sweep)
        ShardTable.addRow({std::to_string(Row.Shards),
                           std::to_string(Row.Threads),
                           fmtRate(Row.StreamRate), fmtX(Row.StreamSpeedup),
                           fmtRate(Row.AggRate), fmtX(Row.AggSpeedup),
                           Row.Identical ? "yes" : "NO"});
      std::cout << "[" << Tier.Name << " tier]\n"
                << ShardTable.render() << "(" << Tier.TraceRefs
                << "-ref trace, " << paperL1Geometry().describe()
                << ", LRU; agg = merge-elided aggregate collector; "
                   "speedups depend on available cores)\n\n";
    }
  }

  // --- 4. Route once, replay many: partition reuse across a sweep -------
  std::vector<SweepReuseTier> ReuseTiers;
  ReuseTiers.push_back(runSweepReuseTier(Smoke ? "smoke" : "standard",
                                         Smoke ? 400'000 : 8'000'000));
  if (Large)
    ReuseTiers.push_back(runSweepReuseTier("large", LargeRefs));
  bool ReuseIdentical = true;
  for (const SweepReuseTier &Tier : ReuseTiers)
    ReuseIdentical = ReuseIdentical && Tier.Identical;

  if (!JsonOnly) {
    TextTable ReuseTable({"tier", "configs", "per-config (s)",
                          "route-once (s)", "speedup", "routed/reused",
                          "routing (s)", "exact =="});
    for (const SweepReuseTier &Tier : ReuseTiers) {
      std::ostringstream PerConfig, Reuse, Routing;
      PerConfig.precision(3);
      PerConfig << std::fixed << Tier.PerConfigSecs;
      Reuse.precision(3);
      Reuse << std::fixed << Tier.ReuseSecs;
      Routing.precision(3);
      Routing << std::fixed << Tier.RouterSecs;
      ReuseTable.addRow({Tier.Name, std::to_string(Tier.NumConfigs),
                         PerConfig.str(), Reuse.str(), fmtX(Tier.Speedup),
                         std::to_string(Tier.Builds) + "/" +
                             std::to_string(Tier.Reuses),
                         Routing.str(), Tier.Identical ? "yes" : "NO"});
    }
    std::cout << "[route once, replay many]\n"
              << ReuseTable.render()
              << "(12 configs sharing 64 sets x 64B lines — 4K/1w..32K/8w "
                 "x {LRU, FIFO, TreePLRU} — aggregate collector at "
              << ReuseTiers.front().Shards << " shards)\n\n";
  }

  // --- Speedup gate (CI) ------------------------------------------------
  // The floor is deliberately modest — 2 shards must at least beat
  // sequential on the steady-state tier — so the gate trips on "the
  // sharded engine lost its parallelism" (the PR-4 regression mode),
  // not on runner noise. The sweep-reuse floor asks that route-once
  // deliver most of its Amdahl bound N(P+R)/(P+NR) on the
  // twelve-config L1-class sweep: with routing P comparable to one
  // low-associativity aggregate replay R on a serialized box, twelve
  // configs bound the payoff well above 1.6x, so 1.5x trips on "the
  // cache stopped reusing" rather than on measurement noise. The
  // 4-shard floor sits below every 4-shard speedup the bitmap collector
  // measured on the 100M-ref tier of a shared 4-core machine
  // (1.48-1.85x over seven runs, while the sequential baseline alone
  // ranged 17-31M refs/s) and above the 0.8-0.9x of the merge-based
  // collector it replaced: it trips when the ordered path stops
  // scaling past two shards (a serial union, compaction or arena
  // fill), which the 2-shard floor alone cannot see.
  constexpr double GateFloor2Shards = 1.0;
  constexpr double GateFloor4Shards = 1.3;
  constexpr double GateFloorSweepReuse = 1.5;
  bool GatePassed = true;
  // Recorded in the JSON even when the gate is advisory, so local and
  // CI trajectories stay comparable.
  double Gate2ShardSpeedup = 0.0, Gate4ShardSpeedup = 0.0;
  for (const ShardRow &Row : Tiers.back().Sweep) {
    if (Row.Shards == 2)
      Gate2ShardSpeedup = Row.StreamSpeedup;
    if (Row.Shards == 4)
      Gate4ShardSpeedup = Row.StreamSpeedup;
  }
  const double GateSweepSpeedup = ReuseTiers.back().Speedup;
  if (Gate)
    GatePassed = Gate2ShardSpeedup >= GateFloor2Shards &&
                 Gate4ShardSpeedup >= GateFloor4Shards &&
                 GateSweepSpeedup >= GateFloorSweepReuse;

  // --- Machine-readable trajectory --------------------------------------
  {
    std::ofstream Json("BENCH_sim_throughput.json");
    Json.precision(6);
    Json << std::fixed << "{\n"
         << "  \"bench\": \"sim_throughput\",\n"
         << "  \"smoke\": " << (Smoke ? "true" : "false") << ",\n"
         << "  \"cache_refs\": " << NumRefs << ",\n"
         << "  \"scalar_refs_per_sec\": " << ScalarRate << ",\n"
         << "  \"soa_refs_per_sec\": " << SoaRate << ",\n"
         << "  \"soa_speedup\": " << SoaSpeedup << ",\n"
         << "  \"configs\": [\n";
    for (size_t I = 0; I < Configs.size(); ++I) {
      const ConfigRow &Row = Configs[I];
      Json << "    {\"config\": \"" << Row.Name << "\", \"policy\": \""
           << policyName(Row.Policy)
           << "\", \"scalar_refs_per_sec\": " << Row.ScalarRate
           << ", \"soa_refs_per_sec\": " << Row.SoaRate << "}"
           << (I + 1 < Configs.size() ? "," : "") << "\n";
    }
    Json << "  ],\n"
         << "  \"batch_jobs\": " << Jobs.size() << ",\n"
         << "  \"naive_jobs_per_sec\": " << NaiveRate << ",\n"
         << "  \"shared_jobs_per_sec\": " << SharedRate << ",\n"
         << "  \"shared_speedup\": " << BatchSpeedup << ",\n"
         << "  \"stream_cache_hits\": " << Stats.Streams.Hits << ",\n"
         << "  \"stream_cache_simulations\": " << Stats.Streams.Misses
         << ",\n"
         << "  \"byte_identical\": " << (Identical ? "true" : "false")
         << "\n}\n";
  }
  {
    std::ofstream Json("BENCH_simshard.json");
    Json.precision(6);
    Json << std::fixed << "{\n"
         << "  \"bench\": \"simshard\",\n"
         << "  \"smoke\": " << (Smoke ? "true" : "false") << ",\n"
         << "  \"hardware_concurrency\": "
         << std::thread::hardware_concurrency() << ",\n"
         << "  \"stream_identical\": " << (ShardIdentical ? "true" : "false")
         << ",\n"
         << "  \"tiers\": [\n";
    for (size_t TI = 0; TI < Tiers.size(); ++TI) {
      const ShardTier &Tier = Tiers[TI];
      Json << "    {\"tier\": \"" << Tier.Name << "\", \"trace_refs\": "
           << Tier.TraceRefs << ",\n"
           << "     \"seq_refs_per_sec\": " << Tier.SeqRate
           << ", \"seq_agg_refs_per_sec\": " << Tier.SeqAggRate << ",\n"
           << "     \"identical\": " << (Tier.Identical ? "true" : "false")
           << ",\n"
           << "     \"sweep\": [\n";
      for (size_t I = 0; I < Tier.Sweep.size(); ++I) {
        const ShardRow &Row = Tier.Sweep[I];
        Json << "       {\"shards\": " << Row.Shards
             << ", \"threads\": " << Row.Threads
             << ", \"stream_refs_per_sec\": " << Row.StreamRate
             << ", \"stream_speedup\": " << Row.StreamSpeedup
             << ", \"agg_refs_per_sec\": " << Row.AggRate
             << ", \"agg_speedup\": " << Row.AggSpeedup
             << ", \"identical\": " << (Row.Identical ? "true" : "false")
             << "}" << (I + 1 < Tier.Sweep.size() ? "," : "") << "\n";
      }
      Json << "     ]}" << (TI + 1 < Tiers.size() ? "," : "") << "\n";
    }
    Json << "  ],\n"
         << "  \"sweep_reuse\": [\n";
    for (size_t TI = 0; TI < ReuseTiers.size(); ++TI) {
      const SweepReuseTier &Tier = ReuseTiers[TI];
      Json << "    {\"tier\": \"" << Tier.Name
           << "\", \"trace_refs\": " << Tier.TraceRefs
           << ", \"configs\": " << Tier.NumConfigs
           << ", \"shards\": " << Tier.Shards << ",\n"
           << "     \"per_config_seconds\": " << Tier.PerConfigSecs
           << ", \"route_once_seconds\": " << Tier.ReuseSecs
           << ", \"speedup\": " << Tier.Speedup << ",\n"
           << "     \"partitions_routed\": " << Tier.Builds
           << ", \"partitions_reused\": " << Tier.Reuses << ",\n"
           << "     \"router_count_scatter_seconds\": " << Tier.RouterSecs
           << ",\n"
           << "     \"identical\": " << (Tier.Identical ? "true" : "false")
           << "}" << (TI + 1 < ReuseTiers.size() ? "," : "") << "\n";
    }
    Json << "  ],\n"
         << "  \"gate\": {\"enforced\": " << (Gate ? "true" : "false")
         << ", \"floor_2shard_speedup\": " << GateFloor2Shards
         << ", \"speedup_2shards\": " << Gate2ShardSpeedup
         << ", \"floor_4shard_speedup\": " << GateFloor4Shards
         << ", \"speedup_4shards\": " << Gate4ShardSpeedup
         << ", \"floor_sweep_reuse_speedup\": " << GateFloorSweepReuse
         << ", \"sweep_reuse_speedup\": " << GateSweepSpeedup
         << ", \"passed\": " << (GatePassed ? "true" : "false") << "}\n"
         << "}\n";
  }
  if (!JsonOnly)
    std::cout
        << "\nwrote BENCH_sim_throughput.json and BENCH_simshard.json\n";

  if (!Identical) {
    std::cerr << "error: shared-trace artifacts differ from the naive "
                 "path's bytes\n";
    return 1;
  }
  if (!ShardIdentical) {
    std::cerr << "error: sharded miss stream differs from the sequential "
                 "collector's\n";
    return 1;
  }
  if (!ReuseIdentical) {
    std::cerr << "error: route-once sweep differs from per-config routing "
                 "(aggregates, ordered bytes, or reuse accounting)\n";
    return 1;
  }
  if (!GatePassed) {
    std::cerr << "error: speedup gate failed — large-tier 2-shard speedup "
              << Gate2ShardSpeedup << "x vs " << GateFloor2Shards
              << "x floor, 4-shard speedup " << Gate4ShardSpeedup << "x vs "
              << GateFloor4Shards << "x floor, sweep-reuse speedup "
              << GateSweepSpeedup << "x vs " << GateFloorSweepReuse
              << "x floor\n";
    return 1;
  }
  return 0;
}
