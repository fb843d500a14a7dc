//===- pipeline/JobRunner.h - Parallel batch-profiling executor -*- C++ -*-===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a list of profiling jobs across a fixed-size worker thread
/// pool. Two execution strategies share one outcome format:
///
///  * runJobs — the naive path: every job builds its own workload,
///    trace, and miss stream from scratch. Jobs are fully independent,
///    so any thread count produces identical output.
///
///  * runJobsShared — the single-pass multi-configuration engine: jobs
///    are grouped by (workload, variant) and one worker owns each
///    group. The group's trace is generated and canonicalized once, its
///    miss-event stream is computed once per distinct cache
///    configuration (level, geometry, replacement policy, page mapping)
///    into a group-local map that dies with the group, and all
///    sampling-period / sampler / threshold / repeat variants fan out
///    over that stream. Output is byte-identical to runJobs: the
///    profiler runs the exact same collect-then-sample phases, just
///    without recomputing the collect phase per job.
///
/// Results land in the slot of their job index, so the output vector is
/// identical no matter how many threads ran or how the scheduler
/// interleaved them. Address canonicalization (trace/Canonicalize.h)
/// removes the remaining process-state dependence, making `--jobs N`
/// output byte-identical to sequential execution for fixed seeds.
///
//===----------------------------------------------------------------------===//

#ifndef CCPROF_PIPELINE_JOBRUNNER_H
#define CCPROF_PIPELINE_JOBRUNNER_H

#include "pipeline/ProfileArtifact.h"
#include "sim/MrcEngine.h"
#include "sim/PartitionCache.h"

#include <functional>
#include <span>
#include <string>
#include <vector>

namespace ccprof {

/// Result slot of one job: the artifact, or an error description.
struct JobOutcome {
  JobSpec Job;
  ProfileArtifact Artifact;
  /// Empty on success; e.g. "unknown workload 'Foo'" otherwise.
  std::string Error;
  /// True when static screening proved the job's configuration
  /// conflict-free and the simulation was skipped: no artifact was
  /// produced, and Error stays empty.
  bool Skipped = false;
  /// True when the job was answered by the group's single-pass
  /// miss-ratio curve (BatchExecOptions::Mrc) instead of a simulation:
  /// no artifact was produced — the prediction lands in the group's
  /// MrcGroupCurve — and Error stays empty.
  bool MrcPredicted = false;

  bool ok() const { return Error.empty(); }
};

/// Executes one job in the calling thread: run the workload, record
/// its trace, canonicalize addresses, profile, wrap as an artifact.
/// \p TimestampNs stamps the artifact's provenance (0 = deterministic).
JobOutcome runJob(const JobSpec &Job, uint64_t TimestampNs = 0);

/// Runs every job of \p Jobs on \p NumThreads workers (1 = fully
/// sequential in the calling thread). Outcomes are returned in job
/// order regardless of completion order. \p OnJobDone, when set, is
/// invoked after each job completes — serialized under a mutex, so it
/// may write to shared streams — with the finished outcome and the
/// number of jobs completed so far.
std::vector<JobOutcome>
runJobs(std::span<const JobSpec> Jobs, unsigned NumThreads,
        uint64_t TimestampNs = 0,
        const std::function<void(const JobOutcome &, size_t)> &OnJobDone =
            nullptr);

/// Accounting of one shared-trace batch run.
struct SharedBatchStats {
  /// Distinct (workload, variant) groups, i.e. traces generated. The
  /// naive path generates one trace per *job* instead.
  uint64_t TraceGroups = 0;
  /// Miss-stream accounting: Misses counts full trace simulations (one
  /// per distinct stream key of a group), Hits counts simulations
  /// avoided by jobs that sampled an already-computed stream.
  struct StreamCounts {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
  };
  StreamCounts Streams;
  /// Jobs skipped by static screening (BatchExecOptions::StaticScreen).
  uint64_t StaticSkipped = 0;
  /// Groups every member of which was screened out — no trace was
  /// generated at all (the screening payoff).
  uint64_t StaticScreenedGroups = 0;
  /// Groups the screen analyzed but refused to skip: a conflict was
  /// predicted at some swept geometry, the model was incomplete, the
  /// reuse estimator declined, or the predicted curve failed the
  /// stability guard near a swept geometry.
  uint64_t StaticScreenRefusals = 0;
  /// Simulations that took the set-sharded path (ShardExecStats).
  uint64_t ShardedSims = 0;
  /// Sharded simulations that ran with zero helper threads — an
  /// explicit shard count honored on an exhausted budget serializes
  /// every shard replay on one thread. Surfaced so sweeps can tell
  /// "sharded but unhelped" from real parallel runs.
  uint64_t UnhelpedShardedSims = 0;
  /// Groups that ran a single-pass MRC (BatchExecOptions::Mrc).
  uint64_t MrcGroups = 0;
  /// L1 jobs answered by a group curve instead of a simulation.
  uint64_t MrcRoutedJobs = 0;
  /// Shard partitions routed from scratch (route-once misses).
  uint64_t PartitionBuilds = 0;
  /// Shard partitions served from the route-once cache: configurations
  /// that shared an index geometry and skipped their routing pass.
  uint64_t PartitionReuses = 0;
};

/// One (geometry, predicted miss ratio) sample of a group's curve.
struct MrcPoint {
  CacheGeometry Geometry = CacheGeometry(32 * 1024, 64, 8);
  double MissRatio = 0.0;
  /// True when the curve resolved this point exactly (fully-associative
  /// or per-set path) rather than via the binomial correction.
  bool Exact = false;
};

/// Reads \p Curve at each of \p Geometries, ordered by (size, line,
/// ways) with duplicates dropped, so the points come out in one
/// canonical order however the geometries were listed.
std::vector<MrcPoint> readMrcPoints(const MissRatioCurve &Curve,
                                    std::vector<CacheGeometry> Geometries);

/// The single-pass MRC of one (workload, variant) group of a --mrc
/// batch run: predicted miss ratios at every distinct L1 geometry of
/// the group's routed jobs plus every requested sweep point.
struct MrcGroupCurve {
  std::string WorkloadName;
  WorkloadVariant Variant = WorkloadVariant::Original;
  uint64_t TraceRefs = 0;
  bool Sampled = false;
  /// Final SHARDS rate (1.0 for exact passes).
  double FinalRate = 1.0;
  /// L1 jobs of the group answered by this curve.
  uint64_t RoutedJobs = 0;
  /// Ascending by (sizeBytes, lineBytes, associativity), deduplicated.
  std::vector<MrcPoint> Points;
};

/// Execution shape of a shared-trace batch run. Workers carry
/// job-level parallelism; SimThreads is the *total* thread budget the
/// run may occupy at once — batch workers and set-shard helpers draw
/// from the same ThreadBudget, so nested parallelism can never
/// oversubscribe the machine. A job's simulation fans out across set
/// shards only while idle budget exists (i.e. when pending jobs no
/// longer cover the cores — typically the tail of a run).
struct BatchExecOptions {
  /// Batch worker threads (clamped to the budget and the group count).
  unsigned Workers = 1;
  /// Total simulation thread budget; 0 = hardware_concurrency.
  unsigned SimThreads = 0;
  /// Set shards per simulation; 0 = one shard per granted thread.
  unsigned Shards = 0;
  /// Traces shorter than this never shard (partition overhead).
  uint64_t MinRefsToShard = SimContext::DefaultMinRefsToShard;
  /// Run the static conflict analyzer over each group's access model
  /// first and skip the simulation of the group's L1 jobs when the
  /// sweep is statically proven clean. The screen is sweep-wide and
  /// all-or-nothing: the analyzer runs at *every distinct L1 geometry*
  /// the group's jobs request, each must analyze conflict-free
  /// (complete model, no victim sets), the analytic reuse profile must
  /// be available, and the predicted miss ratio must be stable around
  /// every swept geometry (ScreenStabilityMargin) — a curve sitting on
  /// a capacity cliff could flip a nearby verdict, so the screen
  /// refuses to skip it. Skipped jobs finish with JobOutcome::Skipped
  /// set and no artifact; jobs that do run produce byte-identical
  /// artifacts to an unscreened run. Groups whose members all skip
  /// never generate a trace at all — the screening payoff.
  bool StaticScreen = false;
  /// Stability guard of the sweep screen: the predicted program miss
  /// ratio may move at most this much between each swept geometry and
  /// the same geometry with 10% more sets. The default matches the
  /// reuse estimator's documented 0.05 approximation bound (DESIGN.md
  /// §11): a curve flatter than the modeling error cannot hide a
  /// geometry-sensitive conflict.
  double ScreenStabilityMargin = 0.05;
  /// Route each group's L1 LRU jobs through one single-pass miss-ratio
  /// curve (MrcEngine) instead of per-configuration simulations. Routed
  /// jobs finish with JobOutcome::MrcPredicted and no artifact; the
  /// predictions are collected per group into MrcGroupCurve (the MrcOut
  /// parameter of runJobsShared). Non-LRU and L2 jobs — and everything
  /// when this is false, the default — simulate exactly as before:
  /// exact simulation remains the default and the oracle.
  bool Mrc = false;
  /// Pass configuration when Mrc is set. The reference geometry is
  /// overridden per group with the group's own L1 geometry, so the
  /// routed jobs' points sit on the exact per-set path.
  MrcOptions MrcConfig;
  /// Extra geometries every group curve is sampled at, beyond the
  /// distinct L1 geometries of the routed jobs themselves.
  std::vector<CacheGeometry> MrcSweep;
  /// Byte budget of the route-once partition cache (most-recent entry
  /// always kept; see PartitionCache). Each group's shard-partition
  /// arenas are retained there, so every configuration sharing an
  /// index geometry (set count x line size) — ways/policy/store
  /// variants, MRC passes at the reference geometry — routes the trace
  /// exactly once.
  size_t PartitionCacheBytes = PartitionCache::DefaultMaxBytes;
};

/// The miss-stream key of \p Job: every field the simulated
/// stream depends on — workload, variant, level, geometries, policy,
/// store handling, and (for physically-indexed levels) the page
/// mapping — and nothing it does not, so period/threshold/seed/repeat
/// variants all map to the same key.
std::string missStreamKeyOf(const JobSpec &Job);

/// Runs \p Jobs with shared-trace reuse (see file comment): workers
/// claim whole (workload, variant) groups, so job-level parallelism
/// still scales across workloads while each group's trace is built
/// exactly once, and each group's miss-stream simulations additionally
/// fan out across set shards whenever the shared thread budget has
/// idle slots. Outcomes are byte-identical to runJobs on the same job
/// list at every Workers / SimThreads / Shards combination.
/// \p MrcOut receives one MrcGroupCurve per group that ran an MRC pass
/// (group order, hence deterministic); ignored unless Exec.Mrc.
std::vector<JobOutcome> runJobsShared(
    std::span<const JobSpec> Jobs, const BatchExecOptions &Exec,
    uint64_t TimestampNs = 0,
    const std::function<void(const JobOutcome &, size_t)> &OnJobDone = nullptr,
    std::vector<MrcGroupCurve> *MrcOut = nullptr,
    SharedBatchStats *StatsOut = nullptr);

} // namespace ccprof

#endif // CCPROF_PIPELINE_JOBRUNNER_H
