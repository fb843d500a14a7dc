//===- perfbench/src/Campaign.cpp - The campaign workload -----------------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The paper-style batch, as `ccprof batch` runs it: every workload (six
// case studies, the Rodinia kernels, Symmetrization) x orig/opt x
// l1/l2 x periods {500, 1212, 5000} x 4 repeats, through runJobsShared
// with 4 workers, then persisted in job order through an ArtifactStore.
// The sampling seed comes from the benchmark seed. One operation is one
// job; its latency runs from the batch's start until its artifact is
// persisted.
//
// Set-up is the warm-up a long-running batch host has already paid:
// one l1 job per (workload, variant) group at period 1212.
//
// Output check: no job fails, every artifact is stored, the store
// validates, every stored file decodes to the bytes the job produced,
// and every round stores byte-identical files. The traced run also
// re-executes each group's steps through the public module functions
// (trace, canonicalize, structure, miss stream, sampling, profile,
// encode) and checks the result is byte-identical to the runner's.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "cfg/BinaryImage.h"
#include "core/Profiler.h"
#include "core/ProgramStructure.h"
#include "pipeline/ArtifactStore.h"
#include "pipeline/JobRunner.h"
#include "pipeline/JobSpec.h"
#include "pmu/PebsSampler.h"
#include "trace/Canonicalize.h"
#include "workloads/Workload.h"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>

using namespace ccprof;
namespace fs = std::filesystem;

namespace perfbench {

namespace {

constexpr unsigned Workers = 4;

std::vector<std::string> campaignWorkloads() {
  std::vector<std::string> Names;
  std::set<std::string> Seen;
  auto Add = [&](std::vector<std::unique_ptr<Workload>> Suite) {
    for (const std::unique_ptr<Workload> &W : Suite)
      if (Seen.insert(W->name()).second)
        Names.push_back(W->name());
  };
  Add(makeCaseStudySuite());
  Add(makeRodiniaSuite());
  std::vector<std::unique_ptr<Workload>> Sym;
  Sym.push_back(makeSymmetrization());
  Add(std::move(Sym));
  return Names;
}

std::string artifactBytes(const ProfileArtifact &A) {
  std::ostringstream Out;
  A.writeTo(Out);
  return Out.str();
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// A program-level verdict: some significant loop is flagged.
bool flagsConflict(const ProfileResult &Result) {
  for (const LoopConflictReport &Loop : Result.Loops)
    if (Loop.Significant && Loop.ConflictPredicted)
      return true;
  return false;
}

} // namespace

Report runCampaign(const RunOptions &Opts, Tracer &T) {
  Report R;
  const bool Traced = T.enabled();
  uint64_t SeedState = Opts.Seed;

  BatchMatrix Matrix;
  Matrix.Workloads = campaignWorkloads();
  Matrix.Variants = {WorkloadVariant::Original, WorkloadVariant::Optimized};
  Matrix.Periods = {500, 1212, 5000};
  Matrix.Levels = {ProfileLevel::L1, ProfileLevel::L2};
  Matrix.Repeats = 4;
  Matrix.Seed = mix(SeedState);
  const std::vector<JobSpec> Jobs = expandMatrix(Matrix);

  BatchMatrix WarmMatrix = Matrix;
  WarmMatrix.Periods = {1212};
  WarmMatrix.Levels = {ProfileLevel::L1};
  WarmMatrix.Repeats = 1;
  const std::vector<JobSpec> WarmJobs = expandMatrix(WarmMatrix);

  BatchExecOptions Exec;
  Exec.Workers = Workers;
  Exec.SimThreads = Workers;

  const double SetupSeconds = medianSetupSeconds(SetupRepeats, [&] {
    const std::vector<JobOutcome> Warm = runJobsShared(WarmJobs, Exec);
    for (const JobOutcome &Outcome : Warm)
      R.check(Outcome.ok(), "warm-up job failed: " + Outcome.Job.key());
  });

  std::map<std::string, bool> Expected;
  for (const std::string &Name : Matrix.Workloads)
    Expected[Name] = makeWorkloadByName(Name)->expectConflicts();

  // Round 0's per-job artifact digests, the campaign's output.
  std::vector<uint64_t> JobHash(Jobs.size());
  std::vector<double> P50Ms, P90Ms, P99Ms;
  SharedBatchStats Stats0;
  uint64_t Correct = 0, Judged = 0, ArtifactBytes = 0;

  auto Round = [&](unsigned Index) {
    const std::string Dir =
        (fs::path(Opts.WorkDir) / ("campaign-" + std::to_string(Index)))
            .string();
    ArtifactStore Store(Dir);
    std::string Error;
    R.check(Store.ensureExists(&Error), "store: " + Error);

    const Clock::time_point Start = Clock::now();
    SharedBatchStats Stats;
    std::vector<JobOutcome> Outcomes;
    {
      Tracer::Span S(T, "pipeline.run_jobs");
      Outcomes = runJobsShared(Jobs, Exec, 0, nullptr, nullptr, &Stats);
    }
    std::vector<double> LatencyMs;
    std::vector<std::string> Paths(Outcomes.size());
    for (size_t I = 0; I < Outcomes.size(); ++I) {
      if (!Outcomes[I].ok())
        continue;
      Tracer::Span S(T, "pipeline.persist");
      Paths[I] = Store.save(Outcomes[I].Artifact, &Error);
      LatencyMs.push_back(secondsSince(Start) * 1e3);
    }
    const double Measured = secondsSince(Start);
    P50Ms.push_back(percentile(LatencyMs, 0.50));
    P90Ms.push_back(percentile(LatencyMs, 0.90));
    P99Ms.push_back(percentile(LatencyMs, 0.99));

    // Untimed from here on.
    const ArtifactValidationReport Validation = Store.validate(&Error);
    R.check(Validation.ok() && Validation.Checked == Jobs.size(),
            "store validation: " + std::to_string(Validation.Issues.size()) +
                " issue(s)");
    for (size_t I = 0; I < Outcomes.size(); ++I) {
      const JobOutcome &Out = Outcomes[I];
      R.check(Out.ok() && !Paths[I].empty(),
              "job failed or not persisted: " + Out.Job.key() + " " + Out.Error);
      if (Paths[I].empty())
        continue;
      const std::string Stored = readFile(Paths[I]);
      Digest D;
      D.add(Stored);
      if (Index == 0) {
        ProfileArtifact Decoded;
        R.check(ProfileArtifact::readFromBytes(Stored, Decoded, &Error) &&
                    artifactBytes(Decoded) == artifactBytes(Out.Artifact),
                "stored artifact does not decode to the job's bytes: " +
                    Out.Job.key());
        JobHash[I] = D.value();
        ArtifactBytes += Stored.size();
        if (Out.Job.Level == ProfileLevel::L1 && Out.Job.MeanPeriod == 1212 &&
            Out.Job.Repeat == 0) {
          const bool Truth = Out.Job.Variant == WorkloadVariant::Original &&
                             Expected[Out.Job.WorkloadName];
          if (flagsConflict(Out.Artifact.Result) == Truth)
            ++Correct;
          else
            std::cerr << "campaign: verdict differs from ground truth: "
                      << Out.Job.key() << "\n";
          ++Judged;
        }
      } else {
        R.check(JobHash[I] == D.value(),
                "round artifact differs from round 0: " + Out.Job.key());
      }
    }
    if (Index == 0)
      Stats0 = Stats;
    T.add("sim.partitions_routed", static_cast<double>(Stats.PartitionBuilds));
    T.add("sim.partitions_reused", static_cast<double>(Stats.PartitionReuses));
    fs::remove_all(Dir);
    return Measured;
  };

  std::vector<double> RoundSecs = runRounds(Traced ? 0.0 : Opts.Seconds, Round);
  std::map<std::string, double> Extra;
  if (Traced) {
    Extra["tracing.overhead_pct"] = tracedRound(T, RoundSecs, Round);
    T.setEnabled(true);

    // The batch decomposed: each group's steps through the public
    // module functions, sequentially, in the runner's order.
    std::vector<std::string> Capsules(Jobs.size());
    std::map<std::string, std::vector<size_t>> Groups;
    std::vector<std::string> GroupOrder;
    for (size_t I = 0; I < Jobs.size(); ++I) {
      const std::string Key =
          Jobs[I].WorkloadName + "/" + variantName(Jobs[I].Variant);
      if (Groups.find(Key) == Groups.end())
        GroupOrder.push_back(Key);
      Groups[Key].push_back(I);
    }
    for (const std::string &Key : GroupOrder) {
      const JobSpec &First = Jobs[Groups[Key].front()];
      std::unique_ptr<Workload> W = makeWorkloadByName(First.WorkloadName);
      Trace Recorded;
      {
        Tracer::Span S(T, "workloads.trace");
        W->run(First.Variant, &Recorded);
      }
      T.add("workloads.refs", static_cast<double>(Recorded.size()));
      Trace Tr;
      {
        Tracer::Span S(T, "trace.canonicalize");
        Tr = canonicalizeTrace(Recorded);
      }
      // ProgramStructure keeps a reference to its image.
      std::unique_ptr<BinaryImage> Image;
      std::unique_ptr<ProgramStructure> Structure;
      {
        Tracer::Span S(T, "cfg.structure");
        Image = std::make_unique<BinaryImage>(W->makeBinary());
        Structure = std::make_unique<ProgramStructure>(*Image);
      }
      std::map<std::string, std::vector<MissEvent>> Streams;
      for (size_t I : Groups[Key]) {
        const JobSpec &Job = Jobs[I];
        const Profiler P(Job.toProfileOptions());
        const std::string StreamKey = missStreamKeyOf(Job);
        auto It = Streams.find(StreamKey);
        if (It == Streams.end()) {
          Tracer::Span S(T, Job.Level == ProfileLevel::L1 ? "pmu.l1_ordered"
                                                          : "pmu.l2_stream");
          It = Streams.emplace(StreamKey, P.collectMissStream(Tr)).first;
          T.add("pmu.events", static_cast<double>(It->second.size()));
        }
        {
          Tracer::Span S(T, "pmu.sample");
          PebsSampler Sampler(Job.toProfileOptions().Sampling);
          T.add("pmu.samples",
                static_cast<double>(Sampler.sampleStream(It->second).size()));
        }
        ProfileArtifact A;
        {
          Tracer::Span S(T, "core.profile");
          A.Result = P.profileWithStream(Tr, *Structure, It->second, Job.Exact);
        }
        A.Provenance.Job = Job;
        for (const LoopConflictReport &Loop : A.Result.Loops)
          T.add("core.loops_flagged",
                Loop.Significant && Loop.ConflictPredicted ? 1.0 : 0.0);
        std::string Bytes;
        {
          Tracer::Span S(T, "pipeline.encode");
          Bytes = artifactBytes(A);
        }
        T.add("pipeline.artifact_bytes", static_cast<double>(Bytes.size()));
        Digest D;
        D.add(Bytes);
        R.check(D.value() == JobHash[I],
                "decomposed job differs from the runner's: " + Job.key());
        Capsules[I] = std::move(Bytes);
      }
    }
    // The campaign's artifacts ingested by the service: the only service
    // layer work among the gated workloads.
    for (const auto &[Name, Value] :
         probeService(Capsules, Opts.WorkDir + "/service-probe", R, T))
      Extra[Name] = Value;
    T.setEnabled(false);
  }

  Digest D;
  for (uint64_t H : JobHash)
    D.add(H);
  R.Digest = D.hex();

  const double RoundSeconds = median(RoundSecs);
  const double JobsPerSec = static_cast<double>(Jobs.size()) / RoundSeconds;
  const double Accuracy = Judged ? static_cast<double>(Correct) / Judged : 0.0;
  const uint64_t Lookups = Stats0.Streams.Hits + Stats0.Streams.Misses;
  R.EndToEnd = {{"setup_s", "s", SetupSeconds},
                {"work_per_s", "1/s", JobsPerSec},
                {"latency_p50_ms", "ms", median(P50Ms)}};
  R.Details = {
      {"jobs_per_s", "jobs/s", JobsPerSec},
      {"latency_p90_ms", "ms", median(P90Ms)},
      {"latency_p99_ms", "ms", median(P99Ms)},
      {"detect_accuracy", "ratio", Accuracy},
      {"detect_correct", "count", static_cast<double>(Correct)},
      {"detect_judged", "count", static_cast<double>(Judged)},
      {"jobs", "count", static_cast<double>(Jobs.size())},
      {"workloads", "count", static_cast<double>(Matrix.Workloads.size())},
      {"rounds", "count", static_cast<double>(RoundSecs.size())},
      {"round_s", "s", RoundSeconds},
      {"stream_cache_hits", "count", static_cast<double>(Stats0.Streams.Hits)},
      {"stream_cache_misses", "count",
       static_cast<double>(Stats0.Streams.Misses)},
      {"partitions_routed", "count", static_cast<double>(Stats0.PartitionBuilds)},
      {"partitions_reused", "count", static_cast<double>(Stats0.PartitionReuses)},
      {"artifact_bytes", "B", static_cast<double>(ArtifactBytes)}};

  Extra["core.detect_accuracy"] = Accuracy;
  Extra["pipeline.stream_cache_hit_ratio"] =
      Lookups ? static_cast<double>(Stats0.Streams.Hits) / Lookups : 0.0;
  // Tail-of-run sharding depends on timing, so the counts (and this
  // ratio) describe the traced round only.
  const double Routed = T.counter("sim.partitions_routed");
  const double Reused = T.counter("sim.partitions_reused");
  Extra["sim.partition_reuse_ratio"] =
      Routed + Reused > 0 ? Reused / (Routed + Reused) : 0.0;
  R.PerLayer = layerMetrics(T, Extra);
  return R;
}

} // namespace perfbench
