//===- bench/static_analyze.cpp - Static screening payoff -----------------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Measures what the static conflict-prediction engine buys the batch
// pipeline:
//
//  1. prediction throughput — wall time of StaticConflictAnalyzer over
//     every (workload, variant) access model, in isolation (no trace,
//     no simulation), reported as models/sec and modeled accesses/sec;
//
//  2. screening payoff — wall time of the shared-trace batch over the
//     full orig+opt matrix with and without --static-screen, the jobs
//     skipped, and a byte-identity check: every job that still runs
//     must produce exactly the bytes of the unscreened run.
//
// Emits machine-readable BENCH_staticscreen.json in the working
// directory so the perf trajectory is comparable across PRs; exits
// nonzero if the identity check fails or a screened-out verdict is
// unsound. `--json` suppresses the human-readable tables (the JSON
// file is always written).
//
//===----------------------------------------------------------------------===//

#include "analysis/StaticConflictAnalyzer.h"
#include "pipeline/JobRunner.h"
#include "support/Flags.h"
#include "support/Table.h"
#include "workloads/Workload.h"

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

using namespace ccprof;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

std::string serializeArtifact(const ProfileArtifact &Artifact) {
  std::stringstream Stream;
  Artifact.writeTo(Stream);
  return Stream.str();
}

struct ModelRow {
  std::string Name;
  uint64_t ModeledAccesses = 0;
  double Seconds = 0.0;
  bool ConflictFree = false;
};

} // namespace

int main(int Argc, char **Argv) {
  bool JsonOnly = false;
  const flags::FlagTable Table = {
      flags::toggle("--json", "machine-readable output only", JsonOnly),
  };
  if (!flags::parseCommandLine(Argc, Argv, "static_analyze", Table))
    return 2;

  //===------------------------------------------------------------------===//
  // 1. Prediction throughput: analyze every model, no simulation.
  //===------------------------------------------------------------------===//

  std::vector<ModelRow> Models;
  double AnalysisSecs = 0.0;
  uint64_t TotalModeled = 0;
  for (const auto &W : makeCaseStudySuite()) {
    BinaryImage Image = W->makeBinary();
    ProgramStructure Structure(Image);
    for (WorkloadVariant Variant :
         {WorkloadVariant::Original, WorkloadVariant::Optimized}) {
      StaticAccessModel Model = W->accessModel(Variant);
      Clock::time_point Start = Clock::now();
      StaticAnalysisResult Result =
          StaticConflictAnalyzer().analyze(Model, &Structure);
      double Secs = secondsSince(Start);
      ModelRow Row;
      Row.Name = W->name() + std::string(Variant == WorkloadVariant::Original
                                             ? "-orig"
                                             : "-opt");
      Row.ModeledAccesses = Result.TotalAccesses;
      Row.Seconds = Secs;
      Row.ConflictFree = Result.conflictFree();
      Models.push_back(Row);
      AnalysisSecs += Secs;
      TotalModeled += Result.TotalAccesses;
    }
  }

  if (!JsonOnly) {
    std::cout << "=== Static prediction throughput ===\n\n";
    TextTable Table({"model", "modeled accesses", "analyze (s)",
                     "accesses/sec", "conflict-free"});
    for (const ModelRow &Row : Models)
      Table.addRow({Row.Name, std::to_string(Row.ModeledAccesses),
                    std::to_string(Row.Seconds),
                    std::to_string(static_cast<uint64_t>(
                        Row.Seconds > 0 ? Row.ModeledAccesses / Row.Seconds
                                        : 0)),
                    Row.ConflictFree ? "yes" : "no"});
    std::cout << Table.render() << "\n"
              << Models.size() << " models, " << TotalModeled
              << " modeled accesses in " << AnalysisSecs << " s ("
              << static_cast<uint64_t>(Models.size() / AnalysisSecs)
              << " models/sec)\n\n";
  }

  //===------------------------------------------------------------------===//
  // 2. Screening payoff: full orig+opt batch, with and without.
  //===------------------------------------------------------------------===//

  // Exact (unsampled) jobs: the configuration whose simulations are
  // expensive enough for skipping to pay — a sampled job costs less
  // than the analysis that would prove it skippable.
  BatchMatrix Matrix;
  Matrix.Workloads = defaultBatchWorkloads();
  Matrix.Variants = {WorkloadVariant::Original, WorkloadVariant::Optimized};
  Matrix.Exact = true;
  std::vector<JobSpec> Jobs = expandMatrix(Matrix);

  BatchExecOptions Exec;
  Exec.Workers = 4;

  // Warm-up: touch every workload once so first-run page faults do not
  // bias the unscreened measurement.
  runJobsShared(Jobs, Exec);

  Clock::time_point Start = Clock::now();
  std::vector<JobOutcome> Unscreened = runJobsShared(Jobs, Exec);
  double UnscreenedSecs = secondsSince(Start);

  Exec.StaticScreen = true;
  SharedBatchStats Stats;
  Start = Clock::now();
  std::vector<JobOutcome> Screened =
      runJobsShared(Jobs, Exec, 0, nullptr, nullptr, &Stats);
  double ScreenedSecs = secondsSince(Start);

  bool Identical = true;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    if (!Unscreened[I].ok() || !Screened[I].ok()) {
      std::cerr << "error: job " << Jobs[I].key() << " failed\n";
      return 1;
    }
    if (!Screened[I].Skipped &&
        serializeArtifact(Screened[I].Artifact) !=
            serializeArtifact(Unscreened[I].Artifact))
      Identical = false;
    // Soundness: a skipped job's unscreened artifact must hold no
    // conflicting loop.
    if (Screened[I].Skipped)
      for (const LoopConflictReport &Loop :
           Unscreened[I].Artifact.Result.Loops)
        if (Loop.ConflictPredicted) {
          std::cerr << "error: screen skipped " << Jobs[I].key()
                    << " but simulation flags " << Loop.Location << "\n";
          return 1;
        }
  }

  if (!JsonOnly) {
    std::cout << "=== Screening payoff (" << Jobs.size() << " jobs, "
              << Exec.Workers << " workers) ===\n\n";
    TextTable Table({"mode", "wall time (s)", "jobs run", "jobs skipped",
                     "bytes == unscreened"});
    Table.addRow({"batch", std::to_string(UnscreenedSecs),
                  std::to_string(Jobs.size()), "0", "-"});
    Table.addRow({"batch --static-screen", std::to_string(ScreenedSecs),
                  std::to_string(Jobs.size() - Stats.StaticSkipped),
                  std::to_string(Stats.StaticSkipped),
                  Identical ? "yes" : "NO"});
    std::cout << Table.render() << "\nspeedup: "
              << (ScreenedSecs > 0 ? UnscreenedSecs / ScreenedSecs : 0)
              << "x\n";
  }

  {
    std::ofstream Json("BENCH_staticscreen.json");
    Json.precision(6);
    Json << std::fixed << "{\n"
         << "  \"bench\": \"staticscreen\",\n"
         << "  \"models\": " << Models.size() << ",\n"
         << "  \"modeled_accesses\": " << TotalModeled << ",\n"
         << "  \"analysis_seconds\": " << AnalysisSecs << ",\n"
         << "  \"models_per_sec\": "
         << (AnalysisSecs > 0 ? Models.size() / AnalysisSecs : 0) << ",\n"
         << "  \"batch_jobs\": " << Jobs.size() << ",\n"
         << "  \"unscreened_seconds\": " << UnscreenedSecs << ",\n"
         << "  \"screened_seconds\": " << ScreenedSecs << ",\n"
         << "  \"jobs_skipped\": " << Stats.StaticSkipped << ",\n"
         << "  \"speedup\": "
         << (ScreenedSecs > 0 ? UnscreenedSecs / ScreenedSecs : 0) << ",\n"
         << "  \"bytes_identical\": " << (Identical ? "true" : "false")
         << ",\n"
         << "  \"per_model\": [\n";
    for (size_t I = 0; I < Models.size(); ++I) {
      const ModelRow &Row = Models[I];
      Json << "    {\"model\": \"" << Row.Name
           << "\", \"modeled_accesses\": " << Row.ModeledAccesses
           << ", \"seconds\": " << Row.Seconds << ", \"conflict_free\": "
           << (Row.ConflictFree ? "true" : "false") << "}"
           << (I + 1 < Models.size() ? "," : "") << "\n";
    }
    Json << "  ]\n}\n";
  }

  if (!Identical) {
    std::cerr << "error: screened artifacts diverge from unscreened run\n";
    return 1;
  }
  return 0;
}
