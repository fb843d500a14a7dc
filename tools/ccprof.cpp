//===- tools/ccprof.cpp - Command-line driver ------------------------------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The command-line face of the library, standing in for the artifact's
// ccProf_run_and_analyze.sh workflow. `ccprof help` lists every command
// and flag, rendered from the command and flag tables at the end of
// this file.
//
//===----------------------------------------------------------------------===//

#include "analysis/ConsistencyChecker.h"
#include "analysis/StaticConflictAnalyzer.h"
#include "core/Profiler.h"
#include "core/Report.h"
#include "pipeline/ArtifactStore.h"
#include "pipeline/Diff.h"
#include "pipeline/JobRunner.h"
#include "pipeline/Merge.h"
#include "service/Ccprofd.h"
#include "service/ServiceClient.h"
#include "sim/Cache.h"
#include "sim/MrcEngine.h"
#include "trace/Canonicalize.h"
#include "support/Flags.h"
#include "support/Json.h"
#include "support/Table.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <chrono>
#include <cmath>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

using namespace ccprof;
using flags::FlagTable;

namespace {

/// Every command's flag values. One command runs per process, so flags
/// that mean the same thing to several commands share a field.
struct CliOptions {
  WorkloadVariant Variant = WorkloadVariant::Original;
  bool Json = false;
  bool Check = false;

  // profile, compare, trace, analyze <file> <workload>
  bool Exact = false;
  bool Csv = false;
  ProfileOptions Profile;

  // analyze <workload>
  bool Mrc = false;
  std::string ArtifactPath;
  StaticConflictAnalyzer::Options Analyzer;

  // batch
  BatchMatrix Matrix;
  BatchExecOptions Exec;
  std::string OutDir = "ccprof-artifacts";
  bool Stamp = false;
  size_t PartitionCacheMb = PartitionCache::DefaultMaxBytes >> 20;

  // mrc
  MrcOptions Curve;
  std::vector<CacheGeometry> Geometries;

  // merge, diff, validate
  std::string MergeOut;
  DiffOptions Diff;
  bool CleanTemps = false;
  unsigned TempAgeSeconds = ArtifactStore::DefaultTempReapAgeSeconds;

  // serve, submit
  ServiceConfig Serve;
  bool StatsOnly = false;
  std::string Client = "cli";
};

/// A command's positional arguments, flags removed.
using Positionals = std::vector<std::string>;

int commandList(const Positionals &, const CliOptions &) {
  TextTable Table({"name", "source", "expected"});
  for (const auto &W : makeCaseStudySuite())
    Table.addRow({W->name(), W->sourceFile(),
                  W->expectConflicts() ? "conflicts" : "clean"});
  Table.addSeparator();
  for (const auto &W : makeRodiniaSuite()) {
    if (W->name() == "NW")
      continue; // Already listed with the case studies.
    Table.addRow({W->name(), W->sourceFile(),
                  W->expectConflicts() ? "conflicts" : "clean"});
  }
  Table.addSeparator();
  Table.addRow({"Symmetrization", "symm.cpp", "conflicts"});
  std::cout << Table.render();
  return 0;
}

/// Every name makeWorkloadByName accepts, comma-joined for error
/// messages (the `list` command renders the full table).
std::string availableWorkloadNames() {
  std::string Out = "Symmetrization";
  for (const auto &W : makeCaseStudySuite())
    Out += ", " + W->name();
  for (const auto &W : makeRodiniaSuite()) {
    if (W->name() == "NW")
      continue; // Already listed with the case studies.
    Out += ", " + W->name();
  }
  return Out;
}

/// Shared workload lookup of the trace/analyze/profile/mrc commands:
/// resolves \p Name or prints the available names on stderr.
std::unique_ptr<Workload> lookupWorkload(const std::string &Name) {
  std::unique_ptr<Workload> W = makeWorkloadByName(Name);
  if (!W)
    std::cerr << "error: unknown workload '" << Name
              << "'; available: " << availableWorkloadNames() << '\n';
  return W;
}

ProfileResult runPipeline(const Workload &W, const Trace &T,
                          const CliOptions &Options) {
  BinaryImage Image = W.makeBinary();
  ProgramStructure Structure(Image);
  Profiler P(Options.Profile);
  return Options.Exact ? P.profileExact(T, Structure)
                       : P.profile(T, Structure);
}

void emitResult(const ProfileResult &Result, const std::string &Name,
                const CliOptions &Options) {
  if (!Options.Csv) {
    std::cout << renderProfileReport(Result, Name);
    return;
  }
  TextTable Table({"loop", "samples", "miss_contribution", "sets",
                   "cf", "median_rcd", "p_conflict", "verdict"});
  for (const LoopConflictReport &Loop : Result.Loops)
    Table.addRow({Loop.Location, std::to_string(Loop.Samples),
                  fmt::fixed(Loop.MissContribution, 6),
                  std::to_string(Loop.SetsUtilized),
                  fmt::fixed(Loop.ContributionFactor, 6),
                  std::to_string(Loop.MedianRcd),
                  fmt::fixed(Loop.ConflictProbability, 4),
                  Loop.ConflictPredicted ? "conflict" : "clean"});
  std::cout << Table.renderCsv();
}

int commandProfile(const Positionals &Args, const CliOptions &Options) {
  const std::string &Name = Args[0];
  std::unique_ptr<Workload> W = lookupWorkload(Name);
  if (!W)
    return 1;
  Trace T;
  W->run(Options.Variant, &T);
  emitResult(runPipeline(*W, T, Options), W->name(), Options);
  return 0;
}

int commandCompare(const Positionals &Args, const CliOptions &Options) {
  const std::string &Name = Args[0];
  std::unique_ptr<Workload> W = lookupWorkload(Name);
  if (!W)
    return 1;
  for (WorkloadVariant Variant :
       {WorkloadVariant::Original, WorkloadVariant::Optimized}) {
    Trace T;
    W->run(Variant, &T);
    ProfileResult Result = runPipeline(*W, T, Options);
    std::cout << "=== " << W->name() << " ("
              << (Variant == WorkloadVariant::Original ? "original"
                                                        : "optimized")
              << ") ===\n";
    emitResult(Result, W->name(), Options);
    std::cout << '\n';
  }
  return 0;
}

int commandTrace(const Positionals &Args, const CliOptions &Options) {
  const std::string &Name = Args[0], &Path = Args[1];
  std::unique_ptr<Workload> W = lookupWorkload(Name);
  if (!W)
    return 1;
  Trace T;
  W->run(Options.Variant, &T);
  std::ofstream Out(Path, std::ios::binary);
  if (!Out || !T.writeTo(Out)) {
    std::cerr << "error: cannot write trace to " << Path << '\n';
    return 1;
  }
  std::cout << "wrote " << T.size() << " records to " << Path << '\n';
  return 0;
}

int commandAnalyze(const Positionals &Args, const CliOptions &Options) {
  const std::string &Path = Args[0], &Name = Args[1];
  std::unique_ptr<Workload> W = lookupWorkload(Name);
  if (!W)
    return 1;
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    std::cerr << "error: cannot open " << Path << '\n';
    return 1;
  }
  Trace T;
  std::string Reason;
  if (!Trace::readFrom(In, T, &Reason)) {
    std::cerr << "error: cannot read trace from " << Path << ": " << Reason
              << '\n';
    return 1;
  }
  emitResult(runPipeline(*W, T, Options), W->name() + " (from trace)",
             Options);
  return 0;
}

//===----------------------------------------------------------------------===//
// Static analysis command
//===----------------------------------------------------------------------===//

std::string joinSets(const std::vector<uint32_t> &Sets, size_t MaxShown = 8) {
  std::string Out;
  for (size_t I = 0; I < Sets.size() && I < MaxShown; ++I) {
    if (I)
      Out += ',';
    Out += std::to_string(Sets[I]);
  }
  if (Sets.size() > MaxShown)
    Out += ",+" + std::to_string(Sets.size() - MaxShown);
  return Out;
}

void emitStaticText(const StaticAnalysisResult &Result,
                    const std::string &Name) {
  std::cout << "=== " << Name << ": static conflict prediction ===\n"
            << "geometry: " << Result.Geometry.sizeBytes() / 1024 << "KiB/"
            << Result.Geometry.lineBytes() << "B/"
            << Result.Geometry.associativity() << "-way, "
            << Result.Geometry.numSets() << " sets; model "
            << (Result.ModelComplete ? "complete" : "partial") << ", "
            << Result.TotalAccesses << " modeled access(es), "
            << Result.PredictedMisses << " predicted miss(es)\n";
  TextTable Table({"loop", "accesses", "pred_misses", "cold", "victims",
                   "cf", "median_rcd", "p_conflict", "verdict"});
  for (const LoopPrediction &Loop : Result.Loops) {
    std::string Verdict = Loop.ConflictPredicted ? "conflict" : "clean";
    if (Loop.Truncated)
      Verdict += "*";
    Table.addRow(
        {Loop.Location, std::to_string(Loop.Accesses),
         std::to_string(Loop.PredictedConflictMisses +
                        Loop.PredictedColdMisses),
         std::to_string(Loop.PredictedColdMisses),
         Loop.VictimSets.empty()
             ? "-"
             : std::to_string(Loop.VictimSets.size()) + " (" +
                   joinSets(Loop.VictimSets) + ")",
         fmt::fixed(Loop.PredictedContributionFactor, 4),
         fmt::fixed(Loop.PredictedMedianRcd, 1),
         fmt::fixed(Loop.ConflictProbability, 4), Verdict});
  }
  std::cout << Table.render();
  std::cout << "static verdict: "
            << (Result.conflictFree() ? "conflict-free"
                                      : "conflicts predicted")
            << '\n';
}

/// Short "32K/64/8" label for MRC tables and JSON.
std::string geometryLabel(const CacheGeometry &G) {
  return std::to_string(G.sizeBytes() / 1024) + "K/" +
         std::to_string(G.lineBytes()) + "/" +
         std::to_string(G.associativity());
}

std::string mrcPointsJson(const std::vector<PredictedMrcPoint> &Points) {
  std::string Out = "[";
  for (size_t I = 0; I < Points.size(); ++I) {
    if (I)
      Out += ", ";
    Out += "{\"geometry\": \"" + geometryLabel(Points[I].Geometry) +
           "\", \"miss_ratio\": " + fmt::fixed(Points[I].MissRatio, 6) + "}";
  }
  return Out + "]";
}

void emitPredictedMrcText(const StaticAnalysisResult &Result) {
  std::cout << "=== predicted miss-ratio curves (analytic) ===\n";
  std::vector<std::string> Header{"loop"};
  for (const PredictedMrcPoint &Point : Result.ProgramMrc)
    Header.push_back(geometryLabel(Point.Geometry));
  TextTable Table(Header);
  for (const LoopPrediction &Loop : Result.Loops) {
    std::vector<std::string> Row{Loop.Location};
    for (const PredictedMrcPoint &Point : Loop.PredictedMrc)
      Row.push_back(fmt::fixed(Point.MissRatio, 4));
    Table.addRow(Row);
  }
  std::vector<std::string> Program{"<program>"};
  for (const PredictedMrcPoint &Point : Result.ProgramMrc)
    Program.push_back(fmt::fixed(Point.MissRatio, 4));
  Table.addSeparator();
  Table.addRow(Program);
  std::cout << Table.render();
  if (!Result.ReuseExactPlacement)
    std::cout << "note: placement is partly synthetic — curves are "
                 "approximate\n";
}

void emitStaticJson(const StaticAnalysisResult &Result,
                    const std::string &Name,
                    const ConsistencyReport *Consistency, bool ShowMrc) {
  std::ostream &Out = std::cout;
  Out << "{\n  \"workload\": \"" << Name << "\",\n"
      << "  \"model_complete\": "
      << (Result.ModelComplete ? "true" : "false") << ",\n"
      << "  \"conflict_free\": "
      << (Result.conflictFree() ? "true" : "false") << ",\n"
      << "  \"reuse_estimated\": "
      << (Result.ReuseEstimated ? "true" : "false") << ",\n"
      << "  \"reuse_exact_placement\": "
      << (Result.ReuseExactPlacement ? "true" : "false") << ",\n"
      << "  \"total_accesses\": " << Result.TotalAccesses << ",\n"
      << "  \"predicted_misses\": " << Result.PredictedMisses << ",\n"
      << "  \"loops\": [\n";
  for (size_t I = 0; I < Result.Loops.size(); ++I) {
    const LoopPrediction &Loop = Result.Loops[I];
    Out << "    {\"loop\": \"" << Loop.Location << "\", \"accesses\": "
        << Loop.Accesses << ", \"predicted_conflict_misses\": "
        << Loop.PredictedConflictMisses << ", \"predicted_cold_misses\": "
        << Loop.PredictedColdMisses << ", \"victim_sets\": ["
        << joinSets(Loop.VictimSets, Loop.VictimSets.size())
        << "], \"contribution_factor\": "
        << fmt::fixed(Loop.PredictedContributionFactor, 6)
        << ", \"median_rcd\": " << fmt::fixed(Loop.PredictedMedianRcd, 1)
        << ", \"p_conflict\": " << fmt::fixed(Loop.ConflictProbability, 6)
        << ", \"conflict\": " << (Loop.ConflictPredicted ? "true" : "false")
        << ", \"exact_placement\": "
        << (Loop.ExactPlacement ? "true" : "false") << ", \"truncated\": "
        << (Loop.Truncated ? "true" : "false");
    if (ShowMrc)
      Out << ", \"predicted_mrc\": " << mrcPointsJson(Loop.PredictedMrc);
    Out << "}" << (I + 1 < Result.Loops.size() ? "," : "") << '\n';
  }
  Out << "  ]";
  if (ShowMrc)
    Out << ",\n  \"predicted_mrc\": " << mrcPointsJson(Result.ProgramMrc);
  if (Consistency) {
    Out << ",\n  \"consistency\": {\n    \"consistent\": "
        << (Consistency->consistent() ? "true" : "false")
        << ",\n    \"confirmed\": " << Consistency->Confirmed
        << ", \"static_only\": " << Consistency->StaticOnly
        << ", \"measured_only\": " << Consistency->MeasuredOnly
        << ", \"contradicted\": " << Consistency->Contradicted;
    if (Consistency->HasProgramMrc)
      Out << ",\n    \"program_mrc_max_abs_error\": "
          << fmt::fixed(Consistency->ProgramMrcMaxAbsError, 6)
          << ", \"program_mrc_mean_abs_error\": "
          << fmt::fixed(Consistency->ProgramMrcMeanAbsError, 6)
          << ", \"program_mrc_contradicted\": "
          << (Consistency->ProgramMrcContradicted ? "true" : "false");
    Out << ",\n    \"loops\": [\n";
    for (size_t I = 0; I < Consistency->Loops.size(); ++I) {
      const LoopConsistency &Loop = Consistency->Loops[I];
      Out << "      {\"loop\": \"" << Loop.Location << "\", \"verdict\": \""
          << consistencyVerdictName(Loop.Verdict)
          << "\", \"victim_agreement\": "
          << fmt::fixed(Loop.VictimSetAgreement, 4);
      if (Loop.HasMrc)
        Out << ", \"mrc_points\": " << Loop.MrcPoints
            << ", \"mrc_max_abs_error\": "
            << fmt::fixed(Loop.MrcMaxAbsError, 6)
            << ", \"mrc_mean_abs_error\": "
            << fmt::fixed(Loop.MrcMeanAbsError, 6);
      Out << "}" << (I + 1 < Consistency->Loops.size() ? "," : "") << '\n';
    }
    Out << "    ]\n  }";
  }
  Out << "\n}\n";
}

void emitConsistencyText(const ConsistencyReport &Report) {
  std::cout << "=== static vs measured consistency ===\n";
  TextTable Table({"loop", "static", "measured", "victim_agreement",
                   "verdict", "note"});
  for (const LoopConsistency &Loop : Report.Loops)
    Table.addRow({Loop.Location,
                  Loop.HasStatic
                      ? (Loop.StaticConflict ? "conflict" : "clean")
                      : "-",
                  Loop.HasMeasured
                      ? (Loop.MeasuredConflict ? "conflict" : "clean")
                      : "-",
                  fmt::fixed(Loop.VictimSetAgreement, 2),
                  consistencyVerdictName(Loop.Verdict), Loop.Note});
  std::cout << Table.render();
  std::cout << "consistency: " << Report.Confirmed << " confirmed, "
            << Report.StaticOnly << " static-only, " << Report.MeasuredOnly
            << " measured-only, " << Report.Contradicted
            << " contradicted\n";
  if (!Report.consistent())
    std::cout << "warning: measurement contradicts the access model under "
                 "exact placement — the model mis-states a stride, trip "
                 "count, or allocation\n";
}

int commandStaticAnalyze(const Positionals &Args, const CliOptions &Options) {
  const std::string &Name = Args[0];
  std::unique_ptr<Workload> W = lookupWorkload(Name);
  if (!W)
    return 1;
  StaticAccessModel Model = W->accessModel(Options.Variant);
  if (Model.empty()) {
    std::cerr << "error: workload '" << Name
              << "' declares no static access model\n";
    return 1;
  }

  BinaryImage Image = W->makeBinary();
  ProgramStructure Structure(Image);
  const StaticConflictAnalyzer::Options &Opts = Options.Analyzer;
  StaticAnalysisResult Result =
      StaticConflictAnalyzer(Opts).analyze(Model, &Structure);

  ConsistencyReport Consistency;
  bool HaveConsistency = false;
  if (!Options.ArtifactPath.empty()) {
    ProfileArtifact Artifact;
    std::string Error;
    if (!ProfileArtifact::loadFromFile(Options.ArtifactPath, Artifact,
                                       &Error)) {
      std::cerr << "error: " << Error << '\n';
      return 1;
    }
    if (Options.Mrc) {
      // Quantitative check: re-trace the workload and score the
      // predicted curves against measured global stack distances.
      Trace Recorded;
      W->run(Options.Variant, &Recorded);
      const Trace T = canonicalizeTrace(Recorded);
      const MeasuredCurves Curves = ConsistencyChecker::measuredCurvesFromTrace(
          T, &Structure, Opts.Geometry);
      Consistency = ConsistencyChecker().check(Result, Artifact.Result,
                                               &Curves);
    } else {
      Consistency = ConsistencyChecker().check(Result, Artifact.Result);
    }
    HaveConsistency = true;
  }

  if (Options.Json) {
    emitStaticJson(Result, W->name(),
                   HaveConsistency ? &Consistency : nullptr, Options.Mrc);
  } else {
    emitStaticText(Result, W->name());
    if (Options.Mrc) {
      std::cout << '\n';
      emitPredictedMrcText(Result);
    }
    if (HaveConsistency) {
      std::cout << '\n';
      emitConsistencyText(Consistency);
      if (Consistency.HasProgramMrc)
        std::cout << "program mrc divergence: max "
                  << fmt::fixed(Consistency.ProgramMrcMaxAbsError, 4)
                  << ", mean "
                  << fmt::fixed(Consistency.ProgramMrcMeanAbsError, 4)
                  << (Consistency.ProgramMrcContradicted
                          ? " — CONTRADICTED"
                          : "")
                  << '\n';
    }
  }
  return HaveConsistency && !Consistency.consistent() ? 2 : 0;
}

//===----------------------------------------------------------------------===//
// Batch pipeline commands
//===----------------------------------------------------------------------===//

/// Writes \p Curve in the one schema `batch --mrc` curve files and
/// `mrc --json` share: batch curves add routed_jobs, and `mrc --check`
/// adds one note per point in \p Checks.
void writeCurveJson(std::ostream &Out, const MrcGroupCurve &Curve,
                    bool WithRoutedJobs,
                    const std::vector<std::string> &Checks = {}) {
  Out << "{\n  \"workload\": " << json::quote(Curve.WorkloadName)
      << ",\n  \"variant\": " << json::quote(variantName(Curve.Variant))
      << ",\n  \"trace_refs\": " << Curve.TraceRefs
      << ",\n  \"sampled\": " << (Curve.Sampled ? "true" : "false")
      << ",\n  \"final_rate\": " << json::number(Curve.FinalRate, 8);
  if (WithRoutedJobs)
    Out << ",\n  \"routed_jobs\": " << Curve.RoutedJobs;
  Out << ",\n  \"points\": [\n";
  for (size_t I = 0; I < Curve.Points.size(); ++I) {
    const MrcPoint &Point = Curve.Points[I];
    Out << "    {\"size_bytes\": " << Point.Geometry.sizeBytes()
        << ", \"line_bytes\": " << Point.Geometry.lineBytes()
        << ", \"ways\": " << Point.Geometry.associativity()
        << ", \"sets\": " << Point.Geometry.numSets()
        << ", \"miss_ratio\": " << json::number(Point.MissRatio, 9)
        << ", \"exact\": " << (Point.Exact ? "true" : "false");
    if (!Checks.empty())
      Out << ", \"check\": " << json::quote(Checks[I]);
    Out << "}" << (I + 1 < Curve.Points.size() ? "," : "") << '\n';
  }
  Out << "  ]\n}\n";
}

int commandBatch(const Positionals &Args, const CliOptions &Options) {
  const std::string &Selection = Args[0];
  BatchMatrix Matrix = Options.Matrix;
  BatchExecOptions Exec = Options.Exec;
  Exec.PartitionCacheBytes = Options.PartitionCacheMb << 20;
  if (Exec.Mrc && Exec.MrcSweep.empty())
    Exec.MrcSweep = defaultMrcSweepGeometries();

  if (Selection == "all") {
    Matrix.Workloads = defaultBatchWorkloads();
  } else {
    Matrix.Workloads = flags::split(Selection, ',');
    for (const std::string &Name : Matrix.Workloads)
      if (!lookupWorkload(Name))
        return 1;
  }
  if (Matrix.Workloads.empty()) {
    std::cerr << "error: no workloads selected\n";
    return 1;
  }

  std::vector<JobSpec> Jobs = expandMatrix(Matrix);
  ArtifactStore Store(Options.OutDir);
  std::string Error;
  if (!Store.ensureExists(&Error)) {
    std::cerr << "error: " << Error << '\n';
    return 1;
  }

  const uint64_t Timestamp =
      Options.Stamp
          ? static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::system_clock::now().time_since_epoch())
                    .count())
          : 0;

  std::cout << "batch: " << Jobs.size() << " job(s) on " << Exec.Workers
            << " worker thread(s) -> " << Options.OutDir << '\n';

  auto Progress = [&](const JobOutcome &Outcome, size_t Done) {
    if (Outcome.Skipped)
      std::cout << "  [" << Done << "/" << Jobs.size() << "] skipped "
                << Outcome.Job.key() << " (statically conflict-free)\n";
    else if (Outcome.MrcPredicted)
      std::cout << "  [" << Done << "/" << Jobs.size() << "] mrc "
                << Outcome.Job.key() << " (one-pass curve prediction)\n";
    else if (Outcome.ok())
      std::cout << "  [" << Done << "/" << Jobs.size() << "] "
                << Outcome.Job.key() << '\n';
    else
      std::cout << "  [" << Done << "/" << Jobs.size() << "] FAILED "
                << Outcome.Job.key() << ": " << Outcome.Error << '\n';
  };

  size_t Failures = 0;
  SharedBatchStats Shared;
  std::vector<MrcGroupCurve> Curves;
  const std::vector<JobOutcome> Outcomes =
      runJobsShared(Jobs, Exec, Timestamp, Progress, &Curves, &Shared);

  // Persist sequentially in job order: output listing and directory
  // contents are deterministic regardless of completion order.
  size_t Skipped = 0, Predicted = 0;
  for (const JobOutcome &Outcome : Outcomes) {
    if (Outcome.Skipped) {
      ++Skipped;
      continue;
    }
    if (Outcome.MrcPredicted) {
      ++Predicted;
      continue;
    }
    if (!Outcome.ok()) {
      ++Failures;
      continue;
    }
    if (Store.save(Outcome.Artifact, &Error).empty()) {
      std::cerr << "error: " << Error << '\n';
      ++Failures;
    }
  }

  // One curve file per (workload, variant) group, deterministic bytes:
  // group order is first-appearance order of the job list and every
  // number renders at fixed precision.
  for (const MrcGroupCurve &Curve : Curves) {
    std::string FileName = Curve.WorkloadName + '-' +
                           variantName(Curve.Variant) + ".mrc.json";
    for (char &C : FileName)
      if (!std::isalnum(static_cast<unsigned char>(C)) && C != '-' &&
          C != '_' && C != '.')
        C = '_';
    const std::string Path = Options.OutDir + '/' + FileName;
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    writeCurveJson(Out, Curve, /*WithRoutedJobs=*/true);
    if (!Out) {
      std::cerr << "error: cannot write " << Path << '\n';
      ++Failures;
    }
  }

  // The first line depends only on the job list; the second holds the
  // counts that depend on which budget slots were idle when each
  // simulation started, so only the first can be diffed between runs.
  std::cout << "batch: " << Shared.TraceGroups << " trace group(s); "
            << "miss streams: " << Shared.Streams.Misses << " simulated, "
            << Shared.Streams.Hits << " reused";
  if (Exec.StaticScreen)
    std::cout << "; static screen skipped " << Shared.StaticSkipped
              << " job(s) (" << Shared.StaticScreenedGroups
              << " whole group(s), " << Shared.StaticScreenRefusals
              << " refusal(s))";
  if (Exec.Mrc)
    std::cout << "; mrc: " << Shared.MrcGroups << " curve(s) answered "
              << Shared.MrcRoutedJobs << " job(s) in one pass";
  std::cout << '\n';
  if (Shared.ShardedSims || Shared.PartitionBuilds) {
    std::cout << "batch: timing-dependent at automatic shard counts: "
              << Shared.ShardedSims << " sharded sim(s)";
    // An explicit --shards on an exhausted budget still shards, but
    // one thread replays every shard serially — call that out so a
    // sweep over --shards is not mistaken for parallel execution.
    if (Shared.UnhelpedShardedSims)
      std::cout << ", " << Shared.UnhelpedShardedSims
                << " unhelped (serialized on one thread)";
    std::cout << "; partitions: " << Shared.PartitionBuilds << " routed, "
              << Shared.PartitionReuses << " reused (route once, replay many)"
              << '\n';
  }

  std::cout << "batch: wrote "
            << (Outcomes.size() - Failures - Skipped - Predicted)
            << " artifact(s)";
  if (Skipped)
    std::cout << ", " << Skipped << " job(s) skipped";
  if (Predicted)
    std::cout << ", " << Predicted << " job(s) mrc-predicted across "
              << Curves.size() << " curve(s)";
  if (Failures)
    std::cout << ", " << Failures << " job(s) failed";
  std::cout << '\n';
  return Failures == 0 ? 0 : 1;
}

/// Expands \p Args into artifact paths: a directory contributes its
/// store listing (a listing error or an artifact-free directory is an
/// error — never silently "empty"), anything else passes through as a
/// file path. \returns false after reporting the first failure.
bool collectArtifactPaths(const Positionals &Args,
                          std::vector<std::string> &Paths) {
  for (const std::string &PathArg : Args) {
    std::error_code Ec;
    if (!std::filesystem::is_directory(PathArg, Ec)) {
      Paths.push_back(PathArg);
      continue;
    }
    ArtifactStore Store(PathArg);
    std::string Error;
    std::vector<std::string> Listed = Store.list(&Error);
    if (Error.empty() && Listed.empty())
      Error = "no " + std::string(ArtifactExtension) + " artifacts in " +
              PathArg;
    if (!Error.empty()) {
      std::cerr << "error: " << Error << '\n';
      return false;
    }
    Paths.insert(Paths.end(), Listed.begin(), Listed.end());
  }
  return true;
}

int commandMerge(const Positionals &Args, const CliOptions &Options) {
  std::vector<std::string> Paths;
  if (!collectArtifactPaths(Args, Paths))
    return 1;

  std::vector<ProfileArtifact> Artifacts(Paths.size());
  for (size_t I = 0; I < Paths.size(); ++I) {
    std::string Error;
    if (!ProfileArtifact::loadFromFile(Paths[I], Artifacts[I], &Error)) {
      std::cerr << "error: " << Error << '\n';
      return 1;
    }
  }

  MergeResult Merged = mergeArtifacts(Artifacts);
  if (!Merged.ok()) {
    std::cerr << "error: " << Merged.Error << '\n';
    return 1;
  }

  if (!Options.MergeOut.empty()) {
    std::string Error;
    if (!Merged.Merged.saveToFile(Options.MergeOut, &Error)) {
      std::cerr << "error: " << Error << '\n';
      return 1;
    }
    std::cout << "merged " << Artifacts.size() << " artifact(s) ("
              << Merged.Merged.Provenance.MergedRuns << " run(s)) -> "
              << Options.MergeOut << '\n';
    return 0;
  }
  std::cout << renderProfileReport(
      Merged.Merged.Result,
      Merged.Merged.Provenance.Job.WorkloadName + " (merge of " +
          std::to_string(Merged.Merged.Provenance.MergedRuns) + " runs)");
  return 0;
}

int commandDiff(const Positionals &Args, const CliOptions &Options) {
  std::vector<std::string> Paths;
  if (!collectArtifactPaths(Args, Paths))
    return 1;
  if (Paths.size() != 2) {
    std::cerr << "error: diff needs exactly two artifacts\n";
    return 1;
  }

  ProfileArtifact A, B;
  std::string Error;
  if (!ProfileArtifact::loadFromFile(Paths[0], A, &Error) ||
      !ProfileArtifact::loadFromFile(Paths[1], B, &Error)) {
    std::cerr << "error: " << Error << '\n';
    return 1;
  }

  DiffResult Diff = diffArtifacts(A, B, Options.Diff);
  std::cout << (Options.Json ? renderDiffJson(Diff, Paths[0], Paths[1])
                             : renderDiff(Diff, Paths[0], Paths[1]));
  return Options.Check && Diff.Regressions > 0 ? 2 : 0;
}

int commandShow(const Positionals &Args, const CliOptions &Options) {
  std::vector<std::string> Paths;
  if (!collectArtifactPaths(Args, Paths))
    return 1;
  std::string Error;
  if (Options.Json)
    std::cout << "[\n";
  for (size_t I = 0; I < Paths.size(); ++I) {
    ProfileArtifact Artifact;
    if (!ProfileArtifact::loadFromFile(Paths[I], Artifact, &Error)) {
      std::cerr << "error: " << Error << '\n';
      return 1;
    }
    const JobSpec &Job = Artifact.Provenance.Job;
    if (Options.Json) {
      if (I)
        std::cout << ",\n";
      std::cout << "{\"artifact\": \"" << Job.key() << "\", \"format_version\": "
                << Artifact.FormatVersion << ", \"merged_runs\": "
                << Artifact.Provenance.MergedRuns << ", \"tool\": \""
                << Artifact.Provenance.Tool << "\",\n\"report\": "
                << renderProfileReportJson(Artifact.Result, Job.WorkloadName)
                << "}";
      continue;
    }
    if (I)
      std::cout << '\n';
    std::cout << "artifact: " << Job.key() << " (format v"
              << Artifact.FormatVersion << ", "
              << Artifact.Provenance.MergedRuns << " run(s), tool "
              << Artifact.Provenance.Tool << ")\n";
    std::cout << renderProfileReport(Artifact.Result, Job.WorkloadName);
  }
  if (Options.Json)
    std::cout << "\n]\n";
  return 0;
}

int commandValidate(const Positionals &Paths, const CliOptions &Options) {
  size_t Checked = 0, Corrupt = 0, Stale = 0, Cleaned = 0;
  for (const std::string &Arg : Paths) {
    std::error_code Ec;
    if (std::filesystem::is_directory(Arg, Ec)) {
      ArtifactStore Store(Arg);
      std::string Error;
      ArtifactValidationReport Report = Store.validate(&Error);
      if (!Error.empty()) {
        std::cerr << "error: " << Error << '\n';
        return 1;
      }
      Checked += Report.Checked;
      Corrupt += Report.Issues.size();
      Stale += Report.StaleTemporaries.size();
      for (const ArtifactValidationIssue &Issue : Report.Issues)
        std::cout << "FAIL " << Issue.Path << ": " << Issue.Reason << '\n';
      if (Options.CleanTemps) {
        std::vector<std::string> Failed;
        std::vector<std::string> Removed =
            Store.cleanStaleTemporaries(&Failed, Options.TempAgeSeconds);
        Cleaned += Removed.size();
        for (const std::string &Temp : Removed)
          std::cout << "cleaned " << Temp << '\n';
        for (const std::string &Failure : Failed)
          std::cout << "FAIL cleaning " << Failure << '\n';
        Corrupt += Failed.size();
      } else {
        for (const std::string &Temp : Report.StaleTemporaries)
          std::cout << "stale " << Temp
                    << ": leftover temp from an interrupted save (safe to "
                       "delete; rerun with --clean-temps to remove)\n";
      }
      continue;
    }
    ++Checked;
    ProfileArtifact Artifact;
    std::string Reason;
    std::ifstream In(Arg, std::ios::binary);
    if (!In) {
      ++Corrupt;
      std::cout << "FAIL " << Arg << ": cannot open for reading\n";
    } else if (!ProfileArtifact::readFrom(In, Artifact, &Reason)) {
      ++Corrupt;
      std::cout << "FAIL " << Arg << ": " << Reason << '\n';
    } else {
      std::cout << "ok   " << Arg << " (format v" << Artifact.FormatVersion
                << ", " << Artifact.Result.Loops.size() << " loop(s), "
                << Artifact.Provenance.MergedRuns << " run(s))\n";
    }
  }
  std::cout << "validate: " << Checked << " artifact(s), "
            << (Checked - std::min(Checked, Corrupt)) << " ok, " << Corrupt
            << " corrupt";
  if (Stale)
    std::cout << ", " << Stale << " stale temp(s)";
  if (Cleaned)
    std::cout << " (" << Cleaned << " cleaned)";
  std::cout << '\n';
  return Corrupt == 0 ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// Miss-ratio curve command
//===----------------------------------------------------------------------===//

/// `ccprof mrc <workload>`: one pass over the workload's canonicalized
/// trace, then the predicted miss ratio at every requested geometry.
/// --check replays the simulator at each exact-resolved point (must
/// match to float noise) and, for sampled curves, gates every point
/// against the exact curve at the documented SHARDS bound.
int commandMrc(const Positionals &Args, const CliOptions &Options) {
  const std::string &Name = Args[0];
  const MrcOptions &Opts = Options.Curve;
  std::unique_ptr<Workload> W = lookupWorkload(Name);
  if (!W)
    return 1;
  Trace Recorded;
  W->run(Options.Variant, &Recorded);
  const Trace T = canonicalizeTrace(Recorded);

  const MissRatioCurve Curve = MrcEngine::compute(T, Opts);

  // --check oracles. Exact-resolved points must match a simulator
  // replay; sampled curves must sit within the documented bound of the
  // exact curve. Binomial-model points have no gate — the uniform-
  // mapping assumption they encode is exactly what conflict-heavy
  // workloads violate (that gap is the paper's subject, not a bug).
  constexpr double ExactTolerance = 1e-9;
  constexpr double ShardsBound = 0.05;
  std::optional<MissRatioCurve> ExactCurve;
  if (Options.Check && Opts.Sampled) {
    MrcOptions ExactOpts = Opts;
    ExactOpts.Sampled = false;
    ExactCurve = MrcEngine::compute(T, ExactOpts);
  }
  // Always sample the reference geometry itself; the readout sorts and
  // dedups so the output order is canonical however --geoms was spelled.
  std::vector<CacheGeometry> Geometries = Options.Geometries.empty()
                                              ? defaultMrcSweepGeometries()
                                              : Options.Geometries;
  Geometries.push_back(Opts.Reference);
  size_t CheckFailures = 0;
  MrcGroupCurve Result{W->name(),     Options.Variant,
                       Curve.TotalRefs, Curve.Sampled,
                       Curve.FinalRate, /*RoutedJobs=*/0,
                       readMrcPoints(Curve, std::move(Geometries))};
  std::vector<std::string> Checks;
  if (Options.Check) {
    for (const MrcPoint &R : Result.Points) {
      std::string &CheckNote = Checks.emplace_back();
      if (R.Exact) {
        Cache Sim(R.Geometry, ReplacementKind::Lru);
        for (const MemoryRecord &Rec : T.records())
          Sim.access(Rec.Addr, Rec.IsWrite);
        const double Simulated = Sim.stats().missRatio();
        if (std::fabs(Simulated - R.MissRatio) > ExactTolerance) {
          CheckNote = "FAIL sim=" + fmt::fixed(Simulated, 9);
          ++CheckFailures;
        } else {
          CheckNote = "ok (sim match)";
        }
      } else if (ExactCurve) {
        // Model-to-model: the sampled curve always reads through the
        // binomial model, so the bound is against the exact histogram
        // read the same way — the per-set/model gap is the conflict
        // signal, not sampling error.
        const double Exact = ExactCurve->modelMissRatioAt(R.Geometry);
        const double Err = std::fabs(Exact - R.MissRatio);
        if (Err > ShardsBound) {
          CheckNote = "FAIL exact=" + fmt::fixed(Exact, 6) + " err=" +
                      fmt::fixed(Err, 6);
          ++CheckFailures;
        } else {
          CheckNote = "ok (err " + fmt::fixed(Err, 6) + ")";
        }
      } else {
        CheckNote = "model (ungated)";
      }
    }
  }

  if (Options.Json) {
    writeCurveJson(std::cout, Result, /*WithRoutedJobs=*/false, Checks);
  } else {
    std::cout << "mrc: " << W->name() << " ("
              << variantName(Options.Variant) << "), " << Curve.TotalRefs
              << " ref(s), "
              << (Curve.Sampled
                      ? "SHARDS rate " + fmt::fixed(Curve.FinalRate, 6)
                      : std::string("exact"))
              << '\n';
    std::vector<std::string> Header = {"size",     "line", "ways",
                                       "sets",     "miss_ratio",
                                       "resolved"};
    if (Options.Check)
      Header.push_back("check");
    TextTable Table(Header);
    for (size_t I = 0; I < Result.Points.size(); ++I) {
      const MrcPoint &R = Result.Points[I];
      std::vector<std::string> Cells = {
          std::to_string(R.Geometry.sizeBytes()),
          std::to_string(R.Geometry.lineBytes()),
          std::to_string(R.Geometry.associativity()),
          std::to_string(R.Geometry.numSets()),
          fmt::fixed(R.MissRatio, 6),
          R.Exact ? "exact" : "model"};
      if (Options.Check)
        Cells.push_back(Checks[I]);
      Table.addRow(Cells);
    }
    std::cout << Table.render();
  }
  if (Options.Check) {
    std::cout << "mrc check: "
              << (CheckFailures ? std::to_string(CheckFailures) +
                                      " point(s) FAILED"
                                : std::string("all gated points ok"))
              << '\n';
    return CheckFailures == 0 ? 0 : 1;
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// Service commands (ccprofd)
//===----------------------------------------------------------------------===//

std::atomic<bool> GServeStop{false};

void serveSignalHandler(int) { GServeStop.store(true); }

int commandServe(const Positionals &, const CliOptions &Options) {
  const ServiceConfig &Config = Options.Serve;
  if (Options.StatsOnly) {
    if (Config.SocketPath.empty()) {
      std::cerr << "error: --stats needs --socket PATH\n";
      return 1;
    }
    ServiceReply Reply = serviceQueryStats(Config.SocketPath);
    if (!Reply.Error.empty()) {
      std::cerr << "error: " << Reply.Error << '\n';
      return 1;
    }
    std::cout << Reply.Line << '\n';
    return 0;
  }

  if (Config.Once && Config.WatchDir.empty()) {
    std::cerr << "error: --once needs --watch DIR (it drains the drop "
                 "directory and exits)\n";
    return 1;
  }
  if (!Config.Once && Config.SocketPath.empty() && Config.WatchDir.empty()) {
    std::cerr << "error: serve needs at least one ingress surface "
                 "(--socket and/or --watch)\n";
    return 1;
  }

  Ccprofd Daemon(Config);
  Daemon.setAlertSink([](const RegressionAlert &Alert) {
    std::cout << "ALERT " << renderAlertJson(Alert) << std::endl;
  });

  std::string Error;
  if (Config.Once) {
    if (!Daemon.runOnce(&Error)) {
      std::cerr << "error: " << Error << '\n';
      return 1;
    }
    std::cout << Daemon.statsJson() << '\n';
    return 0;
  }

  if (!Daemon.start(&Error)) {
    std::cerr << "error: " << Error << '\n';
    return 1;
  }
  std::cout << "ccprofd: store " << Config.StoreDir;
  if (!Config.SocketPath.empty())
    std::cout << ", socket " << Config.SocketPath;
  if (!Config.WatchDir.empty())
    std::cout << ", watching " << Config.WatchDir;
  std::cout << " (" << std::max(1u, Config.Workers)
            << " worker(s); ^C to stop)" << std::endl;

  std::signal(SIGINT, serveSignalHandler);
  std::signal(SIGTERM, serveSignalHandler);
  while (!GServeStop.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  Daemon.stop();
  std::cout << Daemon.statsJson() << '\n';
  return 0;
}

int commandSubmit(const Positionals &Files, const CliOptions &Options) {
  const std::string &SocketPath = Options.Serve.SocketPath;
  if (SocketPath.empty()) {
    std::cerr << "error: submit needs --socket PATH\n";
    return 1;
  }
  size_t Failures = 0;
  for (const std::string &File : Files) {
    const ServiceReply Reply =
        serviceSubmitFile(SocketPath, Options.Client, File);
    if (!Reply.Error.empty()) {
      std::cerr << "error: " << File << ": " << Reply.Error << '\n';
      ++Failures;
    } else if (!Reply.Ok) {
      std::cerr << "error: " << File << ": daemon said: " << Reply.Line
                << '\n';
      ++Failures;
    } else {
      std::cout << File << ": " << Reply.Line << '\n';
    }
  }
  return Failures == 0 ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// Command and flag tables
//===----------------------------------------------------------------------===//

const flags::Parser<SamplingKind> SamplerNames = flags::oneOf<SamplingKind>(
    {{"bursty", SamplingKind::Bursty},
     {"jitter", SamplingKind::UniformJitter},
     {"fixed", SamplingKind::Fixed}});
const flags::Parser<ProfileLevel> LevelNames = flags::oneOf<ProfileLevel>(
    {{"l1", ProfileLevel::L1}, {"l2", ProfileLevel::L2}});
const flags::Parser<PagePolicy> MappingNames = flags::oneOf<PagePolicy>(
    {{"identity", PagePolicy::Identity},
     {"firsttouch", PagePolicy::FirstTouch},
     {"shuffled", PagePolicy::Shuffled}});
const flags::Parser<WorkloadVariant> VariantNames =
    flags::oneOf<WorkloadVariant>({{"orig", WorkloadVariant::Original},
                                   {"original", WorkloadVariant::Original},
                                   {"opt", WorkloadVariant::Optimized},
                                   {"optimized", WorkloadVariant::Optimized}});

/// SHARDS sub-filter counts: the top hash bits split line space, so the
/// count must be a power of two.
flags::Parser<uint32_t> powerOfTwoUpTo(uint32_t Max) {
  return [Max](const std::string &Text,
               std::string &Error) -> std::optional<uint32_t> {
    std::optional<uint32_t> N =
        flags::unsignedIn<uint32_t>(1, Max)(Text, Error);
    if (N && !std::has_single_bit(*N)) {
      Error = "must be a power of two";
      return std::nullopt;
    }
    return N;
  };
}

FlagTable noFlags(CliOptions &) { return {}; }

FlagTable profileFlags(CliOptions &O) {
  return {
      flags::toggle("--optimized", "use the padded/reordered build",
                    O.Variant, WorkloadVariant::Optimized),
      flags::toggle("--exact", "capture every miss (simulator-grade)",
                    O.Exact),
      flags::value("--period", "N", "mean sampling period (default 1212)",
                   O.Profile.Sampling.MeanPeriod,
                   flags::unsignedIn<uint64_t>()),
      flags::value("--sampler", "bursty|jitter|fixed",
                   "sampling-period distribution (default bursty)",
                   O.Profile.Sampling.Kind, SamplerNames),
      flags::value("--threshold", "N", "short-RCD threshold (default 8)",
                   O.Profile.RcdThreshold, flags::unsignedIn<uint64_t>()),
      flags::value("--level", "l1|l2", "cache level to profile (default l1)",
                   O.Profile.Level, LevelNames),
      flags::value("--mapping", "identity|firsttouch|shuffled",
                   "virtual-to-physical page mapping (default firsttouch)",
                   O.Profile.Mapping, MappingNames),
      flags::toggle("--csv", "emit the loop table as CSV", O.Csv),
  };
}

FlagTable staticFlags(CliOptions &O) {
  return {
      flags::toggle("--optimized", "analyze the padded/reordered build",
                    O.Variant, WorkloadVariant::Optimized),
      flags::value("--threshold", "N", "short-RCD threshold (default 8)",
                   O.Analyzer.RcdThreshold, flags::unsignedIn<uint64_t>()),
      flags::toggle("--json", "emit the prediction as JSON", O.Json),
      flags::text("--artifact", "FILE",
                  "cross-check the prediction against a stored profile",
                  O.ArtifactPath),
      flags::toggle("--mrc",
                    "also emit analytically predicted per-loop and program "
                    "miss-ratio curves; with --artifact, score them against "
                    "measured stack distances (quantitative check)",
                    O.Mrc),
      flags::list("--geoms", "G1,G2,..",
                  "SIZE/LINE/WAYS points the predicted curves are read out "
                  "at (implies --mrc; default sweep 8K..128K at 64/8)",
                  O.Analyzer.MrcGeometries, parseGeometrySpec)
          .implies(O.Mrc),
  };
}

FlagTable batchFlags(CliOptions &O) {
  BatchExecOptions &E = O.Exec;
  return {
      flags::value("--jobs", "N", "worker threads (default 1)", E.Workers,
                   flags::unsignedIn<unsigned>()),
      flags::text("--out", "DIR",
                  "artifact directory (default ccprof-artifacts)", O.OutDir),
      flags::list("--periods|--period", "A,B,..",
                  "sampling periods to sweep (default 1212)", O.Matrix.Periods,
                  flags::unsignedIn<uint64_t>()),
      flags::list("--levels|--level", "l1,l2",
                  "cache levels to sweep (default l1)", O.Matrix.Levels,
                  LevelNames),
      flags::list("--mappings|--mapping", "M,N,..",
                  "page mappings to sweep: identity, firsttouch, shuffled "
                  "(default firsttouch)",
                  O.Matrix.Mappings, MappingNames),
      flags::list("--variants", "orig,opt",
                  "workload variants to sweep (default orig)",
                  O.Matrix.Variants, VariantNames),
      flags::value("--repeats", "R",
                   "repeated runs per config, seeds R-perturbed (default 1)",
                   O.Matrix.Repeats, flags::unsignedIn<uint32_t>()),
      flags::value("--sampler", "bursty|jitter|fixed",
                   "sampling-period distribution (default bursty)",
                   O.Matrix.Sampler, SamplerNames),
      flags::value("--threshold", "N", "short-RCD threshold (default 8)",
                   O.Matrix.RcdThreshold, flags::unsignedIn<uint64_t>()),
      flags::toggle("--exact", "capture every miss (simulator-grade)",
                    O.Matrix.Exact),
      flags::toggle("--stamp", "record wall-clock provenance timestamps",
                    O.Stamp),
      flags::value("--sim-threads", "N",
                   "total thread budget shared by workers and set-shard "
                   "helpers (default: hardware cores; output is "
                   "byte-identical at any value)",
                   E.SimThreads, flags::unsignedIn<unsigned>()),
      flags::value("--shards", "K",
                   "force K set shards per simulation (default: one per "
                   "granted thread)",
                   E.Shards, flags::unsignedIn<unsigned>()),
      flags::toggle("--static-screen",
                    "skip a group's L1 jobs when the static analyzer proves "
                    "every requested L1 geometry conflict-free and the "
                    "analytic reuse curve is stable around each swept point; "
                    "non-skipped artifacts are byte-identical to an "
                    "unscreened run",
                    E.StaticScreen),
      flags::toggle("--mrc",
                    "answer each group's L1 LRU jobs with one single-pass "
                    "miss-ratio curve instead of one simulation per "
                    "geometry; writes <workload>-<variant>.mrc.json next to "
                    "the artifacts (exact simulation stays the default and "
                    "the oracle)",
                    E.Mrc),
      flags::list("--mrc-geoms", "G1,G2,..",
                  "extra SIZE/LINE/WAYS curve points (SIZE takes K/M "
                  "suffixes; implies --mrc; default sweep 8K..128K at 64/8)",
                  E.MrcSweep, parseGeometrySpec)
          .implies(E.Mrc),
      flags::toggle("--mrc-sampled",
                    "SHARDS spatial sampling for the curve pass (implies "
                    "--mrc)",
                    E.MrcConfig.Sampled)
          .implies(E.Mrc),
      flags::value("--mrc-rate", "R",
                   "initial SHARDS rate in (0,1] (default 0.01; implies "
                   "--mrc-sampled)",
                   E.MrcConfig.SampleRate, flags::finiteIn(0.0, 1.0, true))
          .implies(E.Mrc)
          .implies(E.MrcConfig.Sampled),
      flags::value("--mrc-reservoir", "N",
                   "SHARDS max tracked lines (default 16384; implies "
                   "--mrc-sampled)",
                   E.MrcConfig.MaxSampledLines, flags::unsignedIn<size_t>(2))
          .implies(E.Mrc)
          .implies(E.MrcConfig.Sampled),
      flags::value("--mrc-sample-shards", "S",
                   "split the SHARDS filter into S parallel hash-space "
                   "shards (power of two; default 1; implies --mrc-sampled)",
                   E.MrcConfig.SampleShards,
                   powerOfTwoUpTo(std::numeric_limits<uint32_t>::max()))
          .implies(E.Mrc)
          .implies(E.MrcConfig.Sampled),
      flags::value("--partition-cache-mb", "N",
                   "byte budget of the route-once partition cache (default "
                   "256)",
                   O.PartitionCacheMb, flags::unsignedIn<size_t>()),
  };
}

FlagTable mrcFlags(CliOptions &O) {
  return {
      flags::toggle("--optimized", "curve of the padded/reordered build",
                    O.Variant, WorkloadVariant::Optimized),
      flags::list("--geoms", "G1,G2,..",
                  "SIZE/LINE/WAYS points to report (default 8K..128K at "
                  "64/8 plus the reference)",
                  O.Geometries, parseGeometrySpec),
      flags::value("--reference", "SIZE/LINE/WAYS",
                   "exact per-set geometry (default 32K/64/8)",
                   O.Curve.Reference, parseGeometrySpec),
      flags::toggle("--sampled", "SHARDS spatial sampling", O.Curve.Sampled),
      flags::value("--rate", "R",
                   "initial SHARDS rate in (0,1] (default 0.01; implies "
                   "--sampled)",
                   O.Curve.SampleRate, flags::finiteIn(0.0, 1.0, true))
          .implies(O.Curve.Sampled),
      flags::value("--reservoir", "N",
                   "SHARDS max tracked lines (default 16384; implies "
                   "--sampled)",
                   O.Curve.MaxSampledLines, flags::unsignedIn<size_t>(2))
          .implies(O.Curve.Sampled),
      flags::value("--sample-shards", "S",
                   "parallel SHARDS sub-filters (power of two up to 256; "
                   "implies --sampled)",
                   O.Curve.SampleShards, powerOfTwoUpTo(256))
          .implies(O.Curve.Sampled),
      flags::toggle("--check",
                    "gate exact points against a simulator replay and "
                    "sampled points against the exact curve (0.05 bound); "
                    "exit nonzero on failure",
                    O.Check),
      flags::toggle("--json", "emit the curve as JSON", O.Json),
  };
}

FlagTable mergeFlags(CliOptions &O) {
  return {flags::text("--out", "FILE",
                      "write the merged artifact here instead of "
                      "printing the pooled report",
                      O.MergeOut)};
}

FlagTable diffFlags(CliOptions &O) {
  return {
      flags::value("--tolerance", "X", "cf drift tolerance (default 0.05)",
                   O.Diff.CfTolerance,
                   flags::finiteIn(0.0,
                                   std::numeric_limits<double>::infinity())),
      flags::toggle("--check", "exit 2 when the diff finds regressions",
                    O.Check),
      flags::toggle("--json", "emit the diff as JSON", O.Json),
  };
}

FlagTable showFlags(CliOptions &O) {
  return {flags::toggle("--json", "emit the reports as JSON", O.Json)};
}

FlagTable validateFlags(CliOptions &O) {
  return {
      flags::toggle("--clean-temps",
                    "delete stale .ccpa.tmp leftovers instead of only "
                    "reporting them",
                    O.CleanTemps),
      flags::value("--temp-age", "SECS",
                   "only reap temps at least this old (default 60; 0 reaps "
                   "unconditionally, only safe when no writer is live)",
                   O.TempAgeSeconds, flags::unsignedIn<unsigned>(0)),
  };
}

FlagTable serveFlags(CliOptions &O) {
  ServiceConfig &C = O.Serve;
  return {
      flags::text("--store", "DIR",
                  "service store root (default ccprofd-store)", C.StoreDir),
      flags::text("--socket", "PATH", "listen on this Unix-domain socket",
                  C.SocketPath),
      flags::text("--watch", "DIR", "ingest *.ccpa/*.cctr dropped here",
                  C.WatchDir),
      flags::value("--workers", "N", "ingest worker threads (default 1)",
                   C.Workers, flags::unsignedIn<unsigned>()),
      flags::value("--queue", "N", "ingest queue capacity (default 64)",
                   C.QueueCapacity, flags::unsignedIn<size_t>()),
      flags::value("--poll-ms", "N",
                   "drop-directory poll interval (default 200)", C.PollMs,
                   flags::unsignedIn<unsigned>()),
      flags::toggle("--once", "drain the drop directory once and exit",
                    C.Once),
      flags::toggle("--stats", "query a running daemon's /stats and exit",
                    O.StatsOnly),
  };
}

FlagTable submitFlags(CliOptions &O) {
  return {
      flags::text("--socket", "PATH", "daemon socket to upload to (required)",
                  O.Serve.SocketPath),
      flags::text("--client", "NAME", "accounting label (default cli)",
                  O.Client),
  };
}

struct Command {
  std::string_view Name;
  /// Positional arguments, as help shows them.
  std::string_view Synopsis;
  std::string_view Summary;
  size_t MinArgs, MaxArgs;
  FlagTable (*Flags)(CliOptions &);
  int (*Run)(const Positionals &Args, const CliOptions &Options);
};

constexpr size_t Unbounded = std::numeric_limits<size_t>::max();

const Command Commands[] = {
    {"list", "", "list the built-in workloads", 0, 0, noFlags, commandList},
    {"profile", "<workload>", "run a workload and report conflicts", 1, 1,
     profileFlags, commandProfile},
    {"compare", "<workload>", "profile original and optimized builds", 1, 1,
     profileFlags, commandCompare},
    {"trace", "<workload> <file>", "record a memory trace to a file", 2, 2,
     profileFlags, commandTrace},
    {"analyze", "<file> <workload>", "profile a previously recorded trace", 2,
     2, profileFlags, commandAnalyze},
    {"analyze", "<workload>",
     "predict conflicts statically from the workload's access model (no "
     "trace, no simulation)",
     1, 1, staticFlags, commandStaticAnalyze},
    {"batch", "<workloads|all>",
     "run a job matrix, write one artifact per job", 1, 1, batchFlags,
     commandBatch},
    {"mrc", "<workload>",
     "single-pass miss-ratio curve: predicted miss ratio at every geometry "
     "from one trace walk",
     1, 1, mrcFlags, commandMrc},
    {"merge", "<artifact|dir...>", "aggregate artifacts of repeated runs", 1,
     Unbounded, mergeFlags, commandMerge},
    {"diff", "<a> <b>", "compare two artifacts, flag regressions", 1, 2,
     diffFlags, commandDiff},
    {"show", "<artifact|dir>", "render stored artifact reports", 1, 1,
     showFlags, commandShow},
    {"validate", "<artifact|dir...>",
     "check artifacts for corruption (checksums, truncation, interrupted "
     "saves)",
     1, Unbounded, validateFlags, commandValidate},
    {"serve", "",
     "run the ccprofd ingest service (socket + drop-directory ingestion, "
     "rolling aggregates, fleet regression alerts)",
     0, 0, serveFlags, commandServe},
    {"submit", "<files...>", "upload .ccpa/.cctr files to a running daemon",
     1, Unbounded, submitFlags, commandSubmit},
};

std::string commandTerm(const Command &C) {
  return std::string(C.Name) + (C.Synopsis.empty() ? "" : " ") +
         std::string(C.Synopsis);
}

/// Renders every command, each group of commands sharing a flag table
/// followed by that table once.
void printUsage(std::ostream &Out) {
  Out << "usage: ccprof <command> [options]\n\ncommands:\n";
  CliOptions Unused;
  for (size_t I = 0; I < std::size(Commands); ++I) {
    const Command &C = Commands[I];
    Out << flags::helpEntry(commandTerm(C), C.Summary, 2);
    if (I + 1 == std::size(Commands) || Commands[I + 1].Flags != C.Flags)
      Out << flags::usage(C.Flags(Unused), 6) << '\n';
  }
}

} // namespace

int main(int Argc, char **Argv) {
  const std::vector<std::string> Args(Argv + 1, Argv + Argc);
  constexpr std::string_view HelpSpellings[] = {"help", "-h", "--help"};
  if (Args.empty() || std::ranges::count(HelpSpellings, Args[0])) {
    printUsage(Args.empty() ? std::cerr : std::cout);
    return Args.empty() ? 1 : 0;
  }

  // "analyze <workload> [--flags]" is the static form; the trace-replay
  // form keeps its two positional arguments (file, then workload).
  const bool StaticAnalyze = Args.size() < 3 || Args[2].rfind("--", 0) == 0;
  for (const Command &C : Commands) {
    if (C.Name != Args[0] ||
        (C.Name == "analyze" && (C.Flags == staticFlags) != StaticAnalyze))
      continue;
    CliOptions Options;
    const FlagTable Table = C.Flags(Options);
    Positionals Positional;
    std::string Error;
    if (!flags::parse({Args.begin() + 1, Args.end()}, Table, Positional,
                      Error)) {
      std::cerr << "error: " << Error << " (see ccprof help)\n";
      return 1;
    }
    if (Positional.size() < C.MinArgs || Positional.size() > C.MaxArgs) {
      std::cerr << "error: usage: ccprof " << commandTerm(C)
                << (Table.empty() ? "" : " [options]") << '\n';
      return 1;
    }
    return C.Run(Positional, Options);
  }

  std::cerr << "error: unknown command '" << Args[0] << "'\n";
  printUsage(std::cerr);
  return 1;
}
