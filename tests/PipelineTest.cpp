//===- tests/PipelineTest.cpp - Batch pipeline tests ----------------------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Covers the batch-profiling subsystem: artifact round-trips, merge
// determinism and weighting, diff symmetry and tolerance, parallel
// execution equivalence, and trace canonicalization.
//
//===----------------------------------------------------------------------===//

#include "pipeline/ArtifactStore.h"
#include "pipeline/Diff.h"
#include "pipeline/JobRunner.h"
#include "pipeline/Merge.h"
#include "trace/Canonicalize.h"
#include "workloads/Workload.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <sstream>

using namespace ccprof;

namespace {

std::string serialize(const ProfileArtifact &Artifact) {
  std::stringstream Stream;
  EXPECT_TRUE(Artifact.writeTo(Stream));
  return Stream.str();
}

/// \p N batch workers on a budget of N threads: set-shard helpers only
/// appear once workers run out of groups.
BatchExecOptions sharedExec(unsigned N) {
  BatchExecOptions Exec;
  Exec.Workers = N;
  Exec.SimThreads = N;
  return Exec;
}

JobSpec symmetrizationJob() {
  JobSpec Job;
  Job.WorkloadName = "Symmetrization";
  return Job;
}

/// A hand-built artifact with one loop, for merge/diff unit tests.
ProfileArtifact makeArtifact(const std::string &Loop, double Cf,
                             bool Conflict, uint64_t Samples = 1000) {
  ProfileArtifact A;
  A.Provenance.Job = symmetrizationJob();
  A.Result.TraceRefs = 100000;
  A.Result.L1Misses = 20000;
  A.Result.Samples = Samples;
  A.Result.L1MissRatio = 0.2;
  A.Result.NumSets = 64;
  A.Result.RcdThreshold = 8;
  LoopConflictReport Report;
  Report.Location = Loop;
  Report.Samples = Samples;
  Report.MissContribution = 1.0;
  Report.ContributionFactor = Cf;
  Report.ConflictPredicted = Conflict;
  Report.Significant = true;
  Report.PerSetMisses.assign(64, 1);
  A.Result.Loops.push_back(std::move(Report));
  return A;
}

} // namespace

//===----------------------------------------------------------------------===//
// Artifact serialization
//===----------------------------------------------------------------------===//

TEST(ProfileArtifactTest, RoundTripIsExact) {
  JobOutcome Outcome = runJob(symmetrizationJob());
  ASSERT_TRUE(Outcome.ok()) << Outcome.Error;
  const ProfileArtifact &A = Outcome.Artifact;
  ASSERT_FALSE(A.Result.Loops.empty());

  std::stringstream Stream(serialize(A));
  ProfileArtifact Loaded;
  std::string Error;
  ASSERT_TRUE(ProfileArtifact::readFrom(Stream, Loaded, &Error)) << Error;

  // Byte-exact round trip: the loaded artifact re-serializes to the
  // identical capsule.
  EXPECT_EQ(serialize(A), serialize(Loaded));

  // Spot-check that the interesting payload actually traveled.
  EXPECT_EQ(Loaded.Provenance.Job.WorkloadName, "Symmetrization");
  ASSERT_EQ(Loaded.Result.Loops.size(), A.Result.Loops.size());
  const LoopConflictReport &Want = A.Result.Loops.front();
  const LoopConflictReport &Got = Loaded.Result.Loops.front();
  EXPECT_EQ(Got.Location, Want.Location);
  EXPECT_EQ(Got.Samples, Want.Samples);
  EXPECT_EQ(Got.ConflictPredicted, Want.ConflictPredicted);
  EXPECT_EQ(Got.Rcd.buckets(), Want.Rcd.buckets());
  EXPECT_EQ(Got.PerSetMisses, Want.PerSetMisses);
  EXPECT_EQ(Got.DataStructures.size(), Want.DataStructures.size());
}

TEST(ProfileArtifactTest, RejectsGarbage) {
  std::stringstream Stream("definitely not an artifact");
  ProfileArtifact Loaded;
  std::string Error;
  EXPECT_FALSE(ProfileArtifact::readFrom(Stream, Loaded, &Error));
  EXPECT_NE(Error.find("magic"), std::string::npos) << Error;
}

TEST(ProfileArtifactTest, RejectsWrongVersion) {
  std::string Bytes = serialize(makeArtifact("symm.cpp:12", 0.7, true));
  Bytes[4] = 42; // Version field lives at bytes 4..7.
  std::stringstream Stream(Bytes);
  ProfileArtifact Loaded;
  std::string Error;
  EXPECT_FALSE(ProfileArtifact::readFrom(Stream, Loaded, &Error));
  EXPECT_NE(Error.find("version 42"), std::string::npos) << Error;
}

TEST(ProfileArtifactTest, RejectsTruncation) {
  std::string Bytes = serialize(makeArtifact("symm.cpp:12", 0.7, true));
  for (size_t Keep : {size_t{6}, Bytes.size() / 2, Bytes.size() - 1}) {
    std::stringstream Stream(Bytes.substr(0, Keep));
    ProfileArtifact Loaded;
    std::string Error;
    EXPECT_FALSE(ProfileArtifact::readFrom(Stream, Loaded, &Error))
        << "accepted a " << Keep << "-byte prefix";
    EXPECT_FALSE(Error.empty());
  }
}

TEST(ArtifactStoreTest, SaveThenListThenLoad) {
  const std::string Dir =
      (std::filesystem::path(::testing::TempDir()) / "ccprof-store-test")
          .string();
  std::filesystem::remove_all(Dir);
  ArtifactStore Store(Dir);
  std::string Error;
  ASSERT_TRUE(Store.ensureExists(&Error)) << Error;

  ProfileArtifact A = makeArtifact("symm.cpp:12", 0.7, true);
  std::string Path = Store.save(A, &Error);
  ASSERT_FALSE(Path.empty()) << Error;

  std::vector<std::string> Listed = Store.list();
  ASSERT_EQ(Listed.size(), 1u);
  EXPECT_EQ(Listed[0], Path);

  ProfileArtifact Loaded;
  ASSERT_TRUE(ProfileArtifact::loadFromFile(Path, Loaded, &Error)) << Error;
  EXPECT_EQ(serialize(A), serialize(Loaded));
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Merge
//===----------------------------------------------------------------------===//

TEST(MergeTest, MergeOfOneIsIdentity) {
  JobOutcome Outcome = runJob(symmetrizationJob());
  ASSERT_TRUE(Outcome.ok());
  MergeResult Merged = mergeArtifacts({&Outcome.Artifact, 1});
  ASSERT_TRUE(Merged.ok()) << Merged.Error;
  EXPECT_EQ(serialize(Outcome.Artifact), serialize(Merged.Merged));
}

TEST(MergeTest, MergeOfIdenticalRunsScalesEvidenceNotVerdicts) {
  JobOutcome Outcome = runJob(symmetrizationJob());
  ASSERT_TRUE(Outcome.ok());
  const ProfileArtifact &A = Outcome.Artifact;
  std::vector<ProfileArtifact> Three = {A, A, A};

  MergeResult Merged = mergeArtifacts(Three);
  ASSERT_TRUE(Merged.ok()) << Merged.Error;
  const ProfileResult &M = Merged.Merged.Result;

  EXPECT_EQ(Merged.Merged.Provenance.MergedRuns, 3u);
  EXPECT_EQ(M.TraceRefs, 3 * A.Result.TraceRefs);
  EXPECT_EQ(M.L1Misses, 3 * A.Result.L1Misses);
  EXPECT_EQ(M.Samples, 3 * A.Result.Samples);
  EXPECT_DOUBLE_EQ(M.L1MissRatio, A.Result.L1MissRatio);

  ASSERT_EQ(M.Loops.size(), A.Result.Loops.size());
  for (size_t I = 0; I < M.Loops.size(); ++I) {
    const LoopConflictReport &Want = A.Result.Loops[I];
    const LoopConflictReport &Got = M.Loops[I];
    EXPECT_EQ(Got.Location, Want.Location);
    EXPECT_EQ(Got.Samples, 3 * Want.Samples);
    // Sample-count-weighted derived statistics are unchanged when every
    // input is the same draw.
    EXPECT_DOUBLE_EQ(Got.ContributionFactor, Want.ContributionFactor);
    EXPECT_DOUBLE_EQ(Got.MissContribution, Want.MissContribution);
    EXPECT_EQ(Got.MedianRcd, Want.MedianRcd);
    EXPECT_EQ(Got.ConflictPredicted, Want.ConflictPredicted);
    EXPECT_EQ(Got.SetsUtilized, Want.SetsUtilized);
    EXPECT_EQ(Got.Rcd.total(), 3 * Want.Rcd.total());
  }
}

TEST(MergeTest, MergeIsDeterministic) {
  JobSpec Job = symmetrizationJob();
  JobOutcome First = runJob(Job);
  Job.Repeat = 1;
  JobOutcome Second = runJob(Job);
  ASSERT_TRUE(First.ok() && Second.ok());

  std::vector<ProfileArtifact> Inputs = {First.Artifact, Second.Artifact};
  MergeResult MergedA = mergeArtifacts(Inputs);
  MergeResult MergedB = mergeArtifacts(Inputs);
  ASSERT_TRUE(MergedA.ok() && MergedB.ok());
  EXPECT_EQ(serialize(MergedA.Merged), serialize(MergedB.Merged));
}

TEST(MergeTest, RejectsIncompatibleConfigurations) {
  ProfileArtifact A = makeArtifact("symm.cpp:12", 0.7, true);
  ProfileArtifact B = A;
  B.Provenance.Job.WorkloadName = "NW";
  std::vector<ProfileArtifact> Inputs = {A, B};
  MergeResult Merged = mergeArtifacts(Inputs);
  EXPECT_FALSE(Merged.ok());
  EXPECT_NE(Merged.Error.find("different configurations"),
            std::string::npos)
      << Merged.Error;
}

TEST(MergeTest, RepeatsDifferOnlyInSeedAreCompatible) {
  ProfileArtifact A = makeArtifact("symm.cpp:12", 0.7, true);
  ProfileArtifact B = A;
  B.Provenance.Job.Repeat = 5;
  EXPECT_TRUE(mergeCompatible(A, B));
}

//===----------------------------------------------------------------------===//
// Diff
//===----------------------------------------------------------------------===//

TEST(DiffTest, SelfDiffIsUnchanged) {
  ProfileArtifact A = makeArtifact("symm.cpp:12", 0.7, true);
  DiffResult Diff = diffArtifacts(A, A);
  EXPECT_EQ(Diff.Changed, 0u);
  EXPECT_EQ(Diff.Regressions, 0u);
  ASSERT_EQ(Diff.Loops.size(), 1u);
  EXPECT_EQ(Diff.Loops[0].Change, LoopChange::Unchanged);
}

TEST(DiffTest, FlagsRegressionsAndIsSymmetric) {
  ProfileArtifact Clean = makeArtifact("symm.cpp:12", 0.1, false);
  ProfileArtifact Bad = makeArtifact("symm.cpp:12", 0.9, true);

  DiffResult Forward = diffArtifacts(Clean, Bad);
  EXPECT_EQ(Forward.Regressions, 1u);
  EXPECT_EQ(Forward.Changed, 1u);
  ASSERT_EQ(Forward.Loops.size(), 1u);
  EXPECT_EQ(Forward.Loops[0].Change, LoopChange::BecameConflict);

  // Swapping the inputs mirrors the direction and keeps Changed.
  DiffResult Backward = diffArtifacts(Bad, Clean);
  EXPECT_EQ(Backward.Regressions, 0u);
  EXPECT_EQ(Backward.Changed, 1u);
  ASSERT_EQ(Backward.Loops.size(), 1u);
  EXPECT_EQ(Backward.Loops[0].Change, LoopChange::BecameClean);
}

TEST(DiffTest, ToleranceGatesCfDrift) {
  ProfileArtifact A = makeArtifact("symm.cpp:12", 0.40, true);
  ProfileArtifact B = makeArtifact("symm.cpp:12", 0.44, true);

  DiffOptions Loose;
  Loose.CfTolerance = 0.05;
  EXPECT_EQ(diffArtifacts(A, B, Loose).Changed, 0u);

  DiffOptions Tight;
  Tight.CfTolerance = 0.01;
  DiffResult Diff = diffArtifacts(A, B, Tight);
  ASSERT_EQ(Diff.Loops.size(), 1u);
  EXPECT_EQ(Diff.Loops[0].Change, LoopChange::CfDrift);
  EXPECT_EQ(Diff.Regressions, 0u);
}

TEST(DiffTest, ReportsAddedAndRemovedLoops) {
  ProfileArtifact A = makeArtifact("symm.cpp:12", 0.7, true);
  ProfileArtifact B = makeArtifact("other.cpp:9", 0.2, false);
  DiffResult Diff = diffArtifacts(A, B);
  ASSERT_EQ(Diff.Loops.size(), 2u);
  EXPECT_EQ(Diff.Changed, 2u);
  size_t OnlyA = 0, OnlyB = 0;
  for (const LoopDiff &Row : Diff.Loops) {
    OnlyA += Row.Change == LoopChange::OnlyInA;
    OnlyB += Row.Change == LoopChange::OnlyInB;
  }
  EXPECT_EQ(OnlyA, 1u);
  EXPECT_EQ(OnlyB, 1u);
}

//===----------------------------------------------------------------------===//
// Job matrix and runner
//===----------------------------------------------------------------------===//

TEST(JobSpecTest, MatrixExpansionIsCompleteAndKeysAreUnique) {
  BatchMatrix Matrix;
  Matrix.Workloads = {"Symmetrization", "ADI"};
  Matrix.Periods = {171, 1212};
  Matrix.Levels = {ProfileLevel::L1, ProfileLevel::L2};
  Matrix.Repeats = 2;

  std::vector<JobSpec> Jobs = expandMatrix(Matrix);
  EXPECT_EQ(Jobs.size(), 2u * 2u * 2u * 2u);
  std::set<std::string> Keys;
  for (const JobSpec &Job : Jobs)
    Keys.insert(Job.key());
  EXPECT_EQ(Keys.size(), Jobs.size()) << "job keys must be unique";
}

TEST(JobSpecTest, ExactMatrixIgnoresPeriodSweep) {
  BatchMatrix Matrix;
  Matrix.Workloads = {"Symmetrization"};
  Matrix.Periods = {171, 1212, 9999};
  Matrix.Exact = true;
  EXPECT_EQ(expandMatrix(Matrix).size(), 1u);
}

TEST(JobSpecTest, LossilySanitizedNamesNeverCollide) {
  // "MKL-FFT" and "MKL_FFT" both sanitize to "MKL_FFT"; without the
  // raw-name hash their artifacts would overwrite each other.
  JobSpec Dashed;
  Dashed.WorkloadName = "MKL-FFT";
  JobSpec Underscored = Dashed;
  Underscored.WorkloadName = "MKL_FFT";
  JobSpec Dotted = Dashed;
  Dotted.WorkloadName = "MKL.FFT";
  EXPECT_NE(Dashed.key(), Underscored.key());
  EXPECT_NE(Dashed.key(), Dotted.key());
  EXPECT_NE(Underscored.key(), Dotted.key());

  // Same raw name still means the same key.
  JobSpec DashedAgain = Dashed;
  EXPECT_EQ(Dashed.key(), DashedAgain.key());
}

TEST(JobSpecTest, CleanNamesKeepStableHashFreeKeys) {
  // Names that sanitize to themselves are the common case; their keys
  // are a published stable format, no hash suffix.
  JobSpec Job;
  Job.WorkloadName = "NW";
  EXPECT_EQ(Job.key(), "NW-orig-l1-firsttouch-bursty-p1212-t8-r0");
}

TEST(JobRunnerTest, ReportsUnknownWorkload) {
  JobSpec Job;
  Job.WorkloadName = "NoSuchWorkload";
  JobOutcome Outcome = runJob(Job);
  EXPECT_FALSE(Outcome.ok());
  EXPECT_NE(Outcome.Error.find("NoSuchWorkload"), std::string::npos);
}

TEST(JobRunnerTest, ParallelOutputIsByteIdenticalToSequential) {
  BatchMatrix Matrix;
  Matrix.Workloads = {"Symmetrization", "NW"};
  Matrix.Repeats = 2;
  std::vector<JobSpec> Jobs = expandMatrix(Matrix);
  ASSERT_EQ(Jobs.size(), 4u);

  std::vector<JobOutcome> Sequential = runJobs(Jobs, 1);
  std::vector<JobOutcome> Parallel = runJobs(Jobs, 4);
  ASSERT_EQ(Sequential.size(), Parallel.size());
  for (size_t I = 0; I < Sequential.size(); ++I) {
    ASSERT_TRUE(Sequential[I].ok()) << Sequential[I].Error;
    ASSERT_TRUE(Parallel[I].ok()) << Parallel[I].Error;
    EXPECT_EQ(Sequential[I].Job.key(), Parallel[I].Job.key());
    EXPECT_EQ(serialize(Sequential[I].Artifact),
              serialize(Parallel[I].Artifact))
        << "job " << Jobs[I].key()
        << " produced different bytes under parallel execution";
  }
}

TEST(JobRunnerTest, ProgressCallbackSeesEveryJob) {
  BatchMatrix Matrix;
  Matrix.Workloads = {"Symmetrization"};
  Matrix.Repeats = 3;
  std::vector<JobSpec> Jobs = expandMatrix(Matrix);
  size_t Calls = 0, MaxDone = 0;
  runJobs(Jobs, 2, 0, [&](const JobOutcome &, size_t Done) {
    ++Calls;
    MaxDone = std::max(MaxDone, Done);
  });
  EXPECT_EQ(Calls, Jobs.size());
  EXPECT_EQ(MaxDone, Jobs.size());
}

//===----------------------------------------------------------------------===//
// Shared-trace engine and group-local miss streams
//===----------------------------------------------------------------------===//

TEST(SharedTraceTest, OutputIsByteIdenticalToNaivePath) {
  // A sampling-period sweep across both cache levels: the configuration
  // the shared-trace engine is built for. Every artifact must serialize
  // to exactly the bytes the naive one-simulation-per-job path emits —
  // this is the pipeline's reproducibility contract (PR 1) carried over
  // to the fast path.
  BatchMatrix Matrix;
  Matrix.Workloads = {"Symmetrization"};
  Matrix.Periods = {171, 603, 1212};
  Matrix.Levels = {ProfileLevel::L1, ProfileLevel::L2};
  Matrix.Repeats = 2;
  std::vector<JobSpec> Jobs = expandMatrix(Matrix);
  ASSERT_EQ(Jobs.size(), 12u);

  std::vector<JobOutcome> Naive = runJobs(Jobs, 1);
  SharedBatchStats Stats;
  std::vector<JobOutcome> Shared =
      runJobsShared(Jobs, sharedExec(4), 0, nullptr, nullptr, &Stats);

  ASSERT_EQ(Naive.size(), Shared.size());
  for (size_t I = 0; I < Naive.size(); ++I) {
    ASSERT_TRUE(Naive[I].ok()) << Naive[I].Error;
    ASSERT_TRUE(Shared[I].ok()) << Shared[I].Error;
    EXPECT_EQ(serialize(Naive[I].Artifact), serialize(Shared[I].Artifact))
        << "job " << Jobs[I].key()
        << " produced different bytes via the shared-trace engine";
  }

  // One workload, one variant -> one trace; two distinct streams (L1
  // and L2); the other ten jobs ride the cache.
  EXPECT_EQ(Stats.TraceGroups, 1u);
  EXPECT_EQ(Stats.Streams.Misses, 2u);
  EXPECT_EQ(Stats.Streams.Hits, 10u);
}

TEST(SharedTraceTest, ExactJobsShareStreamsWithSampledJobs) {
  // An exact job consumes the same miss stream as a sampled job of the
  // same configuration, just unsampled — so its stream is a cache hit.
  JobSpec Sampled = symmetrizationJob();
  JobSpec Exact = symmetrizationJob();
  Exact.Exact = true;
  EXPECT_EQ(missStreamKeyOf(Sampled), missStreamKeyOf(Exact));

  std::vector<JobSpec> Jobs = {Sampled, Exact};
  SharedBatchStats Stats;
  std::vector<JobOutcome> Shared =
      runJobsShared(Jobs, sharedExec(1), 0, nullptr, nullptr, &Stats);
  EXPECT_EQ(Stats.Streams.Misses, 1u);
  EXPECT_EQ(Stats.Streams.Hits, 1u);

  std::vector<JobOutcome> Naive = runJobs(Jobs, 1);
  for (size_t I = 0; I < Jobs.size(); ++I)
    EXPECT_EQ(serialize(Naive[I].Artifact), serialize(Shared[I].Artifact));
}

TEST(SharedTraceTest, StreamKeysSeparateWhatMustNotBeShared) {
  JobSpec Base = symmetrizationJob();

  JobSpec OtherPeriod = Base;
  OtherPeriod.MeanPeriod = 171;
  JobSpec OtherThreshold = Base;
  OtherThreshold.RcdThreshold = 16;
  JobSpec OtherRepeat = Base;
  OtherRepeat.Repeat = 3;
  // Sampling-side knobs never split the stream...
  EXPECT_EQ(missStreamKeyOf(Base), missStreamKeyOf(OtherPeriod));
  EXPECT_EQ(missStreamKeyOf(Base), missStreamKeyOf(OtherThreshold));
  EXPECT_EQ(missStreamKeyOf(Base), missStreamKeyOf(OtherRepeat));

  // ...cache-side knobs always do.
  JobSpec OtherLevel = Base;
  OtherLevel.Level = ProfileLevel::L2;
  JobSpec OtherWorkload = Base;
  OtherWorkload.WorkloadName = "NW";
  JobSpec OtherVariant = Base;
  OtherVariant.Variant = WorkloadVariant::Optimized;
  EXPECT_NE(missStreamKeyOf(Base), missStreamKeyOf(OtherLevel));
  EXPECT_NE(missStreamKeyOf(Base), missStreamKeyOf(OtherWorkload));
  EXPECT_NE(missStreamKeyOf(Base), missStreamKeyOf(OtherVariant));

  // The page mapping reaches the simulation only at L2.
  JobSpec L1Shuffled = Base;
  L1Shuffled.Mapping = PagePolicy::Shuffled;
  EXPECT_EQ(missStreamKeyOf(Base), missStreamKeyOf(L1Shuffled));
  JobSpec L2First = OtherLevel;
  JobSpec L2Shuffled = OtherLevel;
  L2Shuffled.Mapping = PagePolicy::Shuffled;
  EXPECT_NE(missStreamKeyOf(L2First), missStreamKeyOf(L2Shuffled));
}

TEST(SharedTraceTest, InterleavedKeysAcrossGroupsSimulateEachStreamOnce) {
  // Four (workload, variant) groups listed interleaved, with the L1 and
  // L2 keys of each group alternating: every distinct stream key must
  // be simulated exactly once and every other job must sample a stream
  // its own group already computed, on four workers.
  std::vector<JobSpec> Jobs;
  std::set<std::string> Keys;
  for (uint64_t Period : {171u, 606u})
    for (ProfileLevel Level : {ProfileLevel::L1, ProfileLevel::L2})
      for (const char *Name : {"Symmetrization", "NW"})
        for (WorkloadVariant Variant :
             {WorkloadVariant::Original, WorkloadVariant::Optimized}) {
          JobSpec Job;
          Job.WorkloadName = Name;
          Job.Variant = Variant;
          Job.Level = Level;
          Job.MeanPeriod = Period;
          Jobs.push_back(Job);
          Keys.insert(missStreamKeyOf(Job));
        }
  ASSERT_EQ(Jobs.size(), 16u);
  ASSERT_EQ(Keys.size(), 8u);

  SharedBatchStats Stats;
  std::vector<JobOutcome> Shared =
      runJobsShared(Jobs, sharedExec(4), 0, nullptr, nullptr, &Stats);
  EXPECT_EQ(Stats.TraceGroups, 4u);
  EXPECT_EQ(Stats.Streams.Misses, Keys.size());
  EXPECT_EQ(Stats.Streams.Hits, Jobs.size() - Keys.size());

  std::vector<JobOutcome> Naive = runJobs(Jobs, 1);
  ASSERT_EQ(Naive.size(), Shared.size());
  for (size_t I = 0; I < Jobs.size(); ++I) {
    ASSERT_TRUE(Shared[I].ok()) << Shared[I].Error;
    EXPECT_EQ(serialize(Naive[I].Artifact), serialize(Shared[I].Artifact))
        << "job " << Jobs[I].key();
  }
}

//===----------------------------------------------------------------------===//
// Canonicalization
//===----------------------------------------------------------------------===//

TEST(CanonicalizeTest, EqualLayoutsFromDifferentBasesCanonicalizeEqually) {
  // The same execution recorded twice with every buffer at a different
  // absolute address (different allocator state / thread stack) must
  // canonicalize to identical traces.
  auto Record = [](uint64_t HeapBase, uint64_t StackBase) {
    Trace T;
    SiteId Load = T.site("a.cpp", 10, "kernel");
    SiteId Spill = T.site("a.cpp", 11, "kernel");
    T.allocations().recordAllocation("A[]", HeapBase, 4096);
    for (uint64_t I = 0; I < 16; ++I) {
      T.recordLoad(Load, HeapBase + I * 64, 8);
      T.recordStore(Spill, StackBase - I * 8, 8); // stack grows down
    }
    return T;
  };

  Trace First = Record(0x7f1234567010, 0x7ffc0003abc8);
  Trace Second = Record(0x561200aaa440, 0x7f9988112374);

  std::stringstream A, B;
  ASSERT_TRUE(canonicalizeTrace(First).writeTo(A));
  ASSERT_TRUE(canonicalizeTrace(Second).writeTo(B));
  EXPECT_EQ(A.str(), B.str());
}

TEST(CanonicalizeTest, PreservesIntraAllocationLayoutAndMetadata) {
  Trace T;
  SiteId Load = T.site("a.cpp", 10, "kernel");
  const uint64_t Base = 0x7f0000000123;
  T.allocations().recordAllocation("A[]", Base, 8192);
  T.recordLoad(Load, Base + 100, 8);
  T.recordLoad(Load, Base + 4196, 8);

  Trace Canon = canonicalizeTrace(T);
  ASSERT_EQ(Canon.size(), 2u);
  // Offsets from the allocation base survive exactly.
  EXPECT_EQ(Canon.records()[1].Addr - Canon.records()[0].Addr, 4096u);
  // The canonical base is page-aligned.
  auto Id = Canon.allocations().findByAddress(Canon.records()[0].Addr);
  ASSERT_TRUE(Id.has_value());
  EXPECT_EQ(Canon.allocations().info(*Id).Start % 4096, 0u);
  EXPECT_EQ(Canon.allocations().info(*Id).Name, "A[]");
  EXPECT_EQ(Canon.sites().size(), T.sites().size());
}

TEST(CanonicalizeTest, IsIdempotent) {
  JobSpec Job = symmetrizationJob();
  std::unique_ptr<Workload> W = makeWorkloadByName(Job.WorkloadName);
  Trace Recorded;
  W->run(WorkloadVariant::Original, &Recorded);
  Trace Once = canonicalizeTrace(Recorded);
  Trace Twice = canonicalizeTrace(Once);
  std::stringstream A, B;
  ASSERT_TRUE(Once.writeTo(A));
  ASSERT_TRUE(Twice.writeTo(B));
  EXPECT_EQ(A.str(), B.str());
}

//===----------------------------------------------------------------------===//
// Static screening
//===----------------------------------------------------------------------===//

TEST(StaticScreenTest, SkipsProvenCleanJobsAndKeepsRestByteIdentical) {
  // Original variants conflict by construction, optimized Symmetrization
  // and NW are statically proven clean under the canonical layout: the
  // screened run must skip exactly those and leave every executed job's
  // artifact byte-identical to the unscreened run.
  BatchMatrix Matrix;
  Matrix.Workloads = {"Symmetrization", "NW"};
  Matrix.Variants = {WorkloadVariant::Original, WorkloadVariant::Optimized};
  std::vector<JobSpec> Jobs = expandMatrix(Matrix);
  ASSERT_EQ(Jobs.size(), 4u);

  BatchExecOptions Plain;
  Plain.Workers = 2;
  std::vector<JobOutcome> Unscreened = runJobsShared(Jobs, Plain);

  BatchExecOptions Screen = Plain;
  Screen.StaticScreen = true;
  SharedBatchStats Stats;
  std::vector<JobOutcome> Screened =
      runJobsShared(Jobs, Screen, 0, nullptr, nullptr, &Stats);

  ASSERT_EQ(Screened.size(), Unscreened.size());
  uint64_t Skipped = 0;
  for (size_t I = 0; I < Screened.size(); ++I) {
    ASSERT_TRUE(Screened[I].ok()) << Screened[I].Error;
    ASSERT_TRUE(Unscreened[I].ok()) << Unscreened[I].Error;
    if (Screened[I].Skipped) {
      ++Skipped;
      EXPECT_EQ(Jobs[I].Variant, WorkloadVariant::Optimized)
          << Jobs[I].key() << " skipped but not an optimized variant";
      continue;
    }
    EXPECT_EQ(serialize(Screened[I].Artifact),
              serialize(Unscreened[I].Artifact))
        << Jobs[I].key() << " changed bytes under --static-screen";
  }
  EXPECT_EQ(Skipped, 2u);
  EXPECT_EQ(Stats.StaticSkipped, 2u);
}

TEST(StaticScreenTest, SweepScreenSkipsWholeGroupsAcrossConfigSweep) {
  // A multi-period, multi-repeat sweep over statically clean groups
  // must skip every L1 job of the sweep — the whole group, so no trace
  // is ever generated — while L2 jobs of the same groups still run and
  // stay byte-identical to the unscreened run.
  BatchMatrix Matrix;
  Matrix.Workloads = {"Symmetrization", "NW"};
  Matrix.Variants = {WorkloadVariant::Optimized};
  Matrix.Periods = {606, 1212};
  Matrix.Levels = {ProfileLevel::L1, ProfileLevel::L2};
  Matrix.Repeats = 2;
  std::vector<JobSpec> Jobs = expandMatrix(Matrix);

  BatchExecOptions Plain;
  Plain.Workers = 2;
  std::vector<JobOutcome> Unscreened = runJobsShared(Jobs, Plain);

  BatchExecOptions Screen = Plain;
  Screen.StaticScreen = true;
  SharedBatchStats Stats;
  std::vector<JobOutcome> Screened =
      runJobsShared(Jobs, Screen, 0, nullptr, nullptr, &Stats);

  for (size_t I = 0; I < Screened.size(); ++I) {
    ASSERT_TRUE(Screened[I].ok()) << Screened[I].Error;
    if (Jobs[I].Level == ProfileLevel::L1) {
      EXPECT_TRUE(Screened[I].Skipped)
          << Jobs[I].key() << " survived a clean sweep screen";
    } else {
      EXPECT_FALSE(Screened[I].Skipped) << Jobs[I].key();
      EXPECT_EQ(serialize(Screened[I].Artifact),
                serialize(Unscreened[I].Artifact))
          << Jobs[I].key() << " changed bytes under --static-screen";
    }
  }
  // Every period/repeat variant of both groups' L1 jobs skipped.
  EXPECT_EQ(Stats.StaticSkipped, 2u * 2u * 2u);
  EXPECT_EQ(Stats.StaticScreenedGroups, 0u) << "L2 jobs still ran";

  // The same sweep without L2 jobs skips the groups outright.
  Matrix.Levels = {ProfileLevel::L1};
  std::vector<JobSpec> L1Jobs = expandMatrix(Matrix);
  SharedBatchStats L1Stats;
  std::vector<JobOutcome> L1Screened =
      runJobsShared(L1Jobs, Screen, 0, nullptr, nullptr, &L1Stats);
  for (const JobOutcome &Outcome : L1Screened)
    EXPECT_TRUE(Outcome.Skipped) << Outcome.Job.key();
  EXPECT_EQ(L1Stats.StaticScreenedGroups, 2u);
}

TEST(StaticScreenTest, ScreenedVerdictsMatchUnscreenedOnCaseStudies) {
  // Outcome equality on the full case-study suite, both variants: a
  // job the screen skips must be one whose unscreened artifact finds
  // no conflicts (skip-soundness), and a job the screen runs must be
  // byte-identical to its unscreened twin.
  BatchMatrix Matrix;
  Matrix.Workloads = defaultBatchWorkloads();
  Matrix.Variants = {WorkloadVariant::Original, WorkloadVariant::Optimized};
  std::vector<JobSpec> Jobs = expandMatrix(Matrix);

  BatchExecOptions Plain;
  Plain.Workers = 4;
  std::vector<JobOutcome> Unscreened = runJobsShared(Jobs, Plain);

  BatchExecOptions Screen = Plain;
  Screen.StaticScreen = true;
  SharedBatchStats Stats;
  std::vector<JobOutcome> Screened =
      runJobsShared(Jobs, Screen, 0, nullptr, nullptr, &Stats);

  for (size_t I = 0; I < Screened.size(); ++I) {
    ASSERT_TRUE(Screened[I].ok()) << Screened[I].Error;
    ASSERT_TRUE(Unscreened[I].ok()) << Unscreened[I].Error;
    if (Screened[I].Skipped) {
      for (const LoopConflictReport &Loop :
           Unscreened[I].Artifact.Result.Loops)
        EXPECT_FALSE(Loop.ConflictPredicted)
            << Jobs[I].key() << " was skipped but the unscreened run "
            << "finds a conflict in " << Loop.Location;
    } else {
      EXPECT_EQ(serialize(Screened[I].Artifact),
                serialize(Unscreened[I].Artifact))
          << Jobs[I].key() << " changed bytes under --static-screen";
    }
  }
  // The screen must actually fire on this suite (optimized variants
  // are clean by construction), or the soundness check is vacuous.
  EXPECT_GT(Stats.StaticSkipped, 0u);
}

TEST(StaticScreenTest, NeverSkipsOriginalVariants) {
  // Every case-study original must survive screening — a screen that
  // skips a known-conflicting configuration would be unsound.
  BatchMatrix Matrix;
  Matrix.Workloads = defaultBatchWorkloads();
  std::vector<JobSpec> Jobs = expandMatrix(Matrix);
  BatchExecOptions Screen;
  Screen.Workers = 4;
  Screen.StaticScreen = true;
  SharedBatchStats Stats;
  std::vector<JobOutcome> Outcomes =
      runJobsShared(Jobs, Screen, 0, nullptr, nullptr, &Stats);
  for (const JobOutcome &Outcome : Outcomes) {
    EXPECT_TRUE(Outcome.ok()) << Outcome.Error;
    EXPECT_FALSE(Outcome.Skipped) << Outcome.Job.key();
  }
  EXPECT_EQ(Stats.StaticSkipped, 0u);
}
