//===- pipeline/JobRunner.cpp - Parallel batch-profiling executor --------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "pipeline/JobRunner.h"

#include "analysis/StaticConflictAnalyzer.h"
#include "support/ThreadPool.h"
#include "trace/Canonicalize.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>
#include <unordered_map>

using namespace ccprof;

JobOutcome ccprof::runJob(const JobSpec &Job, uint64_t TimestampNs) {
  JobOutcome Outcome;
  Outcome.Job = Job;

  std::unique_ptr<Workload> W = makeWorkloadByName(Job.WorkloadName);
  if (!W) {
    Outcome.Error = "unknown workload '" + Job.WorkloadName + "'";
    return Outcome;
  }

  Trace Recorded;
  W->run(Job.Variant, &Recorded);
  // Rebase onto the deterministic canonical layout: artifacts must not
  // depend on where this process's allocator happened to place buffers.
  Trace T = canonicalizeTrace(Recorded);

  BinaryImage Image = W->makeBinary();
  ProgramStructure Structure(Image);
  Profiler P(Job.toProfileOptions());
  Outcome.Artifact.Result =
      Job.Exact ? P.profileExact(T, Structure) : P.profile(T, Structure);
  Outcome.Artifact.Provenance.Job = Job;
  Outcome.Artifact.Provenance.TimestampNs = TimestampNs;
  return Outcome;
}

namespace {

std::string geometryKey(const CacheGeometry &G) {
  return std::to_string(G.sizeBytes()) + '/' +
         std::to_string(G.lineBytes()) + '/' +
         std::to_string(G.associativity());
}

} // namespace

std::vector<MrcPoint>
ccprof::readMrcPoints(const MissRatioCurve &Curve,
                      std::vector<CacheGeometry> Geometries) {
  auto Shape = [](const CacheGeometry &Geometry) {
    return std::tuple(Geometry.sizeBytes(), Geometry.lineBytes(),
                      Geometry.associativity());
  };
  std::sort(Geometries.begin(), Geometries.end(),
            [&](const CacheGeometry &A, const CacheGeometry &B) {
              return Shape(A) < Shape(B);
            });
  Geometries.erase(std::unique(Geometries.begin(), Geometries.end()),
                   Geometries.end());
  std::vector<MrcPoint> Points;
  Points.reserve(Geometries.size());
  for (const CacheGeometry &Geometry : Geometries)
    Points.push_back(MrcPoint{Geometry, Curve.missRatioAt(Geometry),
                              Curve.isExactAt(Geometry)});
  return Points;
}

std::string ccprof::missStreamKeyOf(const JobSpec &Job) {
  const ProfileOptions Options = Job.toProfileOptions();
  std::string Key = Job.WorkloadName + '|' + variantName(Job.Variant) + '|' +
                    levelName(Options.Level) + '|' + geometryKey(Options.L1) +
                    "|pol" +
                    std::to_string(static_cast<int>(Options.MissOptions.Policy)) +
                    (Options.MissOptions.IncludeStores ? "+st" : "");
  // The page mapping only reaches the simulation for physically-indexed
  // levels; folding it into L1 keys would needlessly split the cache
  // across mapping sweeps.
  if (Options.Level == ProfileLevel::L2)
    Key += '|' + geometryKey(Options.L2) + '|' + mappingName(Options.Mapping);
  return Key;
}

std::vector<JobOutcome> ccprof::runJobsShared(
    std::span<const JobSpec> Jobs, const BatchExecOptions &Exec,
    uint64_t TimestampNs,
    const std::function<void(const JobOutcome &, size_t)> &OnJobDone,
    std::vector<MrcGroupCurve> *MrcOut, SharedBatchStats *StatsOut) {
  std::vector<JobOutcome> Outcomes(Jobs.size());
  if (Jobs.empty()) {
    if (StatsOut)
      *StatsOut = SharedBatchStats{};
    return Outcomes;
  }

  // Group job indices by (workload, variant) in first-appearance order:
  // one trace generation per group, deterministic group list.
  std::vector<std::vector<size_t>> Groups;
  std::unordered_map<std::string, size_t> GroupOf;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    std::string GroupKey =
        Jobs[I].WorkloadName + '|' + variantName(Jobs[I].Variant);
    auto [It, Inserted] = GroupOf.emplace(GroupKey, Groups.size());
    if (Inserted)
      Groups.emplace_back();
    Groups[It->second].push_back(I);
  }

  // --- Shared thread budget (anti-oversubscription) ---------------------
  // One budget covers batch workers and per-job shard helpers alike:
  // Workers slots are held while a worker runs groups and returned when
  // it exits, so simulations shard exactly when idle capacity exists.
  const unsigned BudgetTotal = std::max(
      1u, Exec.SimThreads != 0 ? Exec.SimThreads
                               : std::thread::hardware_concurrency());
  const unsigned NumWorkers = std::max(
      1u, std::min({Exec.Workers, static_cast<unsigned>(Groups.size()),
                    BudgetTotal}));
  ThreadBudget Budget(BudgetTotal);
  const unsigned Reserved = Budget.tryAcquire(NumWorkers);
  assert(Reserved == NumWorkers && "workers must fit the budget");
  (void)Reserved;

  // An explicit shard count deserves a pool even on a one-slot budget:
  // a zero-worker pool runs every shard inline in the caller (degraded
  // serialized mode), which keeps --shards honored — and counted — at
  // --sim-threads 1 instead of silently ignored.
  std::optional<ThreadPool> ShardPool;
  if (BudgetTotal > 1 || Exec.Shards > 1)
    ShardPool.emplace(BudgetTotal - 1);
  ShardCachePool CachePool;
  ShardExecStats ShardStats;
  // Route-once partition reuse: one cache for the whole run; each
  // group registers a trace identity so the sweep over its configs
  // shares arenas, and releases it when the group's trace dies.
  PartitionCache Partitions(Exec.PartitionCacheBytes);
  SimContext Sim;
  Sim.Pool = ShardPool ? &*ShardPool : nullptr;
  Sim.Budget = &Budget;
  Sim.CachePool = &CachePool;
  Sim.Stats = &ShardStats;
  Sim.Shards = Exec.Shards;
  Sim.MinRefsToShard = Exec.MinRefsToShard;
  Sim.Partitions = &Partitions;

  std::atomic<size_t> NextGroup{0};
  std::atomic<size_t> NumDone{0};
  std::atomic<uint64_t> NumSkipped{0};
  std::atomic<uint64_t> NumScreenedGroups{0};
  std::atomic<uint64_t> NumScreenRefusals{0};
  std::atomic<uint64_t> NumMrcGroups{0};
  std::atomic<uint64_t> NumMrcRouted{0};
  std::atomic<uint64_t> NumStreamHits{0};
  std::atomic<uint64_t> NumStreamMisses{0};
  // One slot per group, written only by the worker that owns the group;
  // compacted in group order afterwards so MrcOut is deterministic.
  std::vector<std::optional<MrcGroupCurve>> GroupCurves(
      Exec.Mrc ? Groups.size() : 0);
  std::mutex CallbackMutex;

  auto FinishJob = [&](size_t JobIndex) {
    size_t Done = NumDone.fetch_add(1) + 1;
    if (OnJobDone) {
      std::lock_guard<std::mutex> Lock(CallbackMutex);
      OnJobDone(Outcomes[JobIndex], Done);
    }
  };

  auto Worker = [&]() {
    for (size_t G = NextGroup.fetch_add(1); G < Groups.size();
         G = NextGroup.fetch_add(1)) {
      const std::vector<size_t> &Members = Groups[G];
      const JobSpec &First = Jobs[Members.front()];

      std::unique_ptr<Workload> W = makeWorkloadByName(First.WorkloadName);
      if (!W) {
        for (size_t I : Members) {
          Outcomes[I].Job = Jobs[I];
          Outcomes[I].Error =
              "unknown workload '" + Jobs[I].WorkloadName + "'";
          FinishJob(I);
        }
        continue;
      }

      BinaryImage Image = W->makeBinary();
      ProgramStructure Structure(Image);

      // Sweep-wide static screen: the analyzer runs at every distinct
      // L1 geometry the group's jobs request — each must prove
      // conflict-free at its own shape — and the analytic reuse curve
      // must be flat around every swept point (a curve on a capacity
      // cliff could flip a nearby verdict). All-or-nothing: one dirty
      // or unstable geometry keeps the whole group simulating.
      std::vector<size_t> Pending;
      Pending.reserve(Members.size());
      bool ScreenClean = false;
      if (Exec.StaticScreen) {
        StaticAccessModel Model = W->accessModel(First.Variant);
        std::vector<CacheGeometry> L1Geoms;
        for (size_t I : Members) {
          if (Jobs[I].Level != ProfileLevel::L1)
            continue;
          const CacheGeometry G = Jobs[I].toProfileOptions().L1;
          bool Known = false;
          for (const CacheGeometry &Seen : L1Geoms)
            Known |= Seen.sizeBytes() == G.sizeBytes() &&
                     Seen.lineBytes() == G.lineBytes() &&
                     Seen.associativity() == G.associativity();
          if (!Known)
            L1Geoms.push_back(G);
        }
        if (Model.Complete && !Model.empty() && !L1Geoms.empty()) {
          ScreenClean = true;
          ReuseProfile Program;
          bool HaveProfile = false;
          for (const CacheGeometry &G : L1Geoms) {
            StaticConflictAnalyzer::Options ScreenOpts;
            ScreenOpts.Geometry = G;
            // The screen needs verdicts and the (geometry-free) reuse
            // profile, not sampled curve points.
            ScreenOpts.MrcGeometries.clear();
            StaticAnalysisResult R =
                StaticConflictAnalyzer(ScreenOpts).analyze(Model, &Structure);
            if (!R.conflictFree() || !R.ReuseEstimated) {
              ScreenClean = false;
              break;
            }
            if (!HaveProfile) {
              Program = std::move(R.ProgramReuse);
              HaveProfile = true;
            }
          }
          // Stability guard: the predicted miss ratio may move at most
          // ScreenStabilityMargin when each swept geometry grows its
          // set count by 10%.
          if (ScreenClean && HaveProfile) {
            for (const CacheGeometry &G : L1Geoms) {
              const uint64_t GrownSets = G.numSets() + (G.numSets() + 9) / 10;
              const CacheGeometry Grown(GrownSets * G.lineBytes() *
                                            G.associativity(),
                                        G.lineBytes(), G.associativity());
              const double Drift = std::abs(Program.missRatioAt(G) -
                                            Program.missRatioAt(Grown));
              if (Drift > Exec.ScreenStabilityMargin) {
                ScreenClean = false;
                break;
              }
            }
          }
          if (!ScreenClean)
            NumScreenRefusals.fetch_add(1);
        }
      }
      for (size_t I : Members) {
        if (ScreenClean && Jobs[I].Level == ProfileLevel::L1) {
          Outcomes[I].Job = Jobs[I];
          Outcomes[I].Skipped = true;
          NumSkipped.fetch_add(1);
          FinishJob(I);
        } else {
          Pending.push_back(I);
        }
      }
      if (Pending.empty()) {
        NumScreenedGroups.fetch_add(1);
        continue;
      }

      // The expensive shared phase, once per group: run the workload,
      // record its references, canonicalize, recover the program
      // structure.
      Trace Recorded;
      W->run(First.Variant, &Recorded);
      Trace T = canonicalizeTrace(Recorded);

      // A per-group context carrying the group trace's identity: every
      // simulation and MRC pass of this group routes through the
      // partition cache under one key family, and the entries die with
      // the trace at the end of the group.
      SimContext GroupSim = Sim;
      GroupSim.TraceId = Partitions.registerTrace();

      // MRC routing: one stack-distance pass answers every L1 LRU job
      // of the group at once; only the rest still simulates. The
      // predictions land in the group's curve, not in artifacts.
      std::vector<size_t> Simulated;
      if (Exec.Mrc) {
        std::vector<size_t> Routed;
        for (size_t I : Pending) {
          const ProfileOptions Options = Jobs[I].toProfileOptions();
          if (Jobs[I].Level == ProfileLevel::L1 &&
              Options.MissOptions.Policy == ReplacementKind::Lru)
            Routed.push_back(I);
          else
            Simulated.push_back(I);
        }
        if (!Routed.empty()) {
          MrcOptions MrcOpts = Exec.MrcConfig;
          MrcOpts.Reference = Jobs[Routed.front()].toProfileOptions().L1;
          const MissRatioCurve Curve =
              MrcEngine::compute(T, MrcOpts, GroupSim);

          std::vector<CacheGeometry> Geometries = Exec.MrcSweep;
          for (size_t I : Routed)
            Geometries.push_back(Jobs[I].toProfileOptions().L1);

          MrcGroupCurve GroupCurve;
          GroupCurve.WorkloadName = First.WorkloadName;
          GroupCurve.Variant = First.Variant;
          GroupCurve.TraceRefs = Curve.TotalRefs;
          GroupCurve.Sampled = Curve.Sampled;
          GroupCurve.FinalRate = Curve.FinalRate;
          GroupCurve.RoutedJobs = Routed.size();
          GroupCurve.Points = readMrcPoints(Curve, std::move(Geometries));
          GroupCurves[G] = std::move(GroupCurve);
          NumMrcGroups.fetch_add(1);
          NumMrcRouted.fetch_add(Routed.size());

          for (size_t I : Routed) {
            Outcomes[I].Job = Jobs[I];
            Outcomes[I].MrcPredicted = true;
            FinishJob(I);
          }
        }
      } else {
        Simulated = Pending;
      }

      // One miss stream per distinct cache configuration of the group:
      // every period/sampler/threshold/repeat variant samples the same
      // stream, and the map dies with the group's trace.
      std::unordered_map<std::string, std::vector<MissEvent>> Streams;
      for (size_t I : Simulated) {
        const JobSpec &Job = Jobs[I];
        Profiler P(Job.toProfileOptions());
        auto [Stream, Fresh] = Streams.try_emplace(missStreamKeyOf(Job));
        if (Fresh)
          Stream->second = P.collectMissStream(T, GroupSim);

        JobOutcome &Out = Outcomes[I];
        Out.Job = Job;
        Out.Artifact.Result =
            P.profileWithStream(T, Structure, Stream->second, Job.Exact);
        Out.Artifact.Provenance.Job = Job;
        Out.Artifact.Provenance.TimestampNs = TimestampNs;
        FinishJob(I);
      }
      NumStreamMisses.fetch_add(Streams.size());
      NumStreamHits.fetch_add(Simulated.size() - Streams.size());
      // The group's trace dies with this iteration; its arenas index
      // into it by sequence number and must go with it.
      Partitions.releaseTrace(GroupSim.TraceId);
    }
    // Hand the slot back so in-flight simulations on other workers can
    // fan out over the freed capacity (the run-tail sharding window).
    Budget.release(1);
  };

  if (NumWorkers == 1 || Groups.size() == 1) {
    Worker();
  } else {
    std::vector<std::thread> BatchPool;
    BatchPool.reserve(NumWorkers);
    for (unsigned I = 0; I < NumWorkers; ++I)
      BatchPool.emplace_back(Worker);
    for (std::thread &T : BatchPool)
      T.join();
  }

  if (StatsOut) {
    *StatsOut = SharedBatchStats{};
    StatsOut->TraceGroups = Groups.size();
    StatsOut->Streams.Hits = NumStreamHits.load();
    StatsOut->Streams.Misses = NumStreamMisses.load();
    StatsOut->StaticSkipped = NumSkipped.load();
    StatsOut->StaticScreenedGroups = NumScreenedGroups.load();
    StatsOut->StaticScreenRefusals = NumScreenRefusals.load();
    StatsOut->ShardedSims = ShardStats.ShardedSims.load();
    StatsOut->UnhelpedShardedSims = ShardStats.UnhelpedShardedSims.load();
    StatsOut->MrcGroups = NumMrcGroups.load();
    StatsOut->MrcRoutedJobs = NumMrcRouted.load();
    StatsOut->PartitionBuilds = ShardStats.PartitionBuilds.load();
    StatsOut->PartitionReuses = ShardStats.PartitionReuses.load();
  }
  if (MrcOut) {
    MrcOut->clear();
    for (std::optional<MrcGroupCurve> &Curve : GroupCurves)
      if (Curve)
        MrcOut->push_back(std::move(*Curve));
  }
  return Outcomes;
}

std::vector<JobOutcome> ccprof::runJobs(
    std::span<const JobSpec> Jobs, unsigned NumThreads, uint64_t TimestampNs,
    const std::function<void(const JobOutcome &, size_t)> &OnJobDone) {
  std::vector<JobOutcome> Outcomes(Jobs.size());
  if (Jobs.empty())
    return Outcomes;
  NumThreads = std::max(1u, NumThreads);

  std::atomic<size_t> NextJob{0};
  std::atomic<size_t> NumDone{0};
  std::mutex CallbackMutex;

  auto Worker = [&]() {
    for (size_t I = NextJob.fetch_add(1); I < Jobs.size();
         I = NextJob.fetch_add(1)) {
      Outcomes[I] = runJob(Jobs[I], TimestampNs);
      size_t Done = NumDone.fetch_add(1) + 1;
      if (OnJobDone) {
        std::lock_guard<std::mutex> Lock(CallbackMutex);
        OnJobDone(Outcomes[I], Done);
      }
    }
  };

  if (NumThreads == 1 || Jobs.size() == 1) {
    Worker();
    return Outcomes;
  }

  std::vector<std::thread> Pool;
  const unsigned PoolSize =
      static_cast<unsigned>(std::min<size_t>(NumThreads, Jobs.size()));
  Pool.reserve(PoolSize);
  for (unsigned I = 0; I < PoolSize; ++I)
    Pool.emplace_back(Worker);
  for (std::thread &T : Pool)
    T.join();
  return Outcomes;
}
