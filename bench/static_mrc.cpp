//===- bench/static_mrc.cpp - Analytic MRC accuracy and screening ---------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Gates the static reuse-profile engine against ground truth:
//
//  1. prediction accuracy — for every case-study workload (both
//     variants) the analytically predicted program and per-loop
//     miss-ratio curves are compared against exact curves of the
//     traced run, point by point over the default sweep plus an L2
//     point. Program and per-loop curves come from the one exact
//     global stack-distance pass the quantitative consistency checker
//     uses (ConsistencyChecker::measuredCurvesFromTrace), so both sides
//     share interleaving semantics and the Hill–Smith readout;
//
//  2. sweep screening payoff — a multi-period L1 config sweep over the
//     statically clean optimized variants, run with --static-screen
//     semantics: at least one whole (workload, variant) group must
//     skip without generating a trace.
//
// Emits BENCH_staticmrc.json in the working directory. With --gate the
// run exits nonzero when the program-curve max error exceeds the 0.05
// modeling bound anywhere, or when screening fails to skip a full
// group. `--json` suppresses the human-readable tables.
//
//===----------------------------------------------------------------------===//

#include "analysis/ConsistencyChecker.h"
#include "analysis/StaticConflictAnalyzer.h"
#include "pipeline/JobRunner.h"
#include "support/Flags.h"
#include "support/Table.h"
#include "trace/Canonicalize.h"
#include "workloads/Workload.h"

#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <vector>

using namespace ccprof;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// The estimator's documented approximation bound (DESIGN.md §11).
constexpr double MaxErrorBound = 0.05;

/// Default sweep plus one L2-sized point: capacity transitions on both
/// sides of the paper L1.
std::vector<CacheGeometry> sweepGeometries() {
  std::vector<CacheGeometry> Geoms = defaultMrcSweepGeometries();
  Geoms.push_back(CacheGeometry(256 * 1024, 64, 8));
  return Geoms;
}

struct AccuracyRow {
  std::string Name;
  uint64_t Loops = 0;
  double AnalyzeSeconds = 0.0;
  double ProgramMaxError = 0.0;
  double ProgramMeanError = 0.0;
  /// Max error over every covered loop, however small.
  double PerLoopMaxError = 0.0;
  /// Max error over loops carrying >= 5% of the traced references —
  /// the loops whose curve actually shapes the program's. Tiny loops
  /// inherit attribution noise from interleaved-group accounting far
  /// above their weight, so only significant loops are gated.
  double SignificantLoopMaxError = 0.0;
};

} // namespace

int main(int Argc, char **Argv) {
  bool JsonOnly = false, Gate = false;
  const flags::FlagTable Table = {
      flags::toggle("--json", "machine-readable output only", JsonOnly),
      flags::toggle("--gate", "fail past the 0.05 curve bound or when "
                    "screening misses a full group", Gate),
  };
  if (!flags::parseCommandLine(Argc, Argv, "static_mrc", Table))
    return 2;

  //===------------------------------------------------------------------===//
  // 1. Prediction accuracy: analytic curves vs exact traced curves.
  //===------------------------------------------------------------------===//

  const std::vector<CacheGeometry> Geoms = sweepGeometries();
  StaticConflictAnalyzer::Options AnalyzerOpts;
  AnalyzerOpts.MrcGeometries = Geoms;
  const StaticConflictAnalyzer Analyzer(AnalyzerOpts);

  std::vector<AccuracyRow> Rows;
  bool AccuracyOk = true;
  for (const auto &W : makeCaseStudySuite()) {
    BinaryImage Image = W->makeBinary();
    ProgramStructure Structure(Image);
    for (WorkloadVariant Variant :
         {WorkloadVariant::Original, WorkloadVariant::Optimized}) {
      StaticAccessModel Model = W->accessModel(Variant);
      if (Model.empty())
        continue;

      Clock::time_point Start = Clock::now();
      StaticAnalysisResult Static = Analyzer.analyze(Model, &Structure);
      AccuracyRow Row;
      Row.AnalyzeSeconds = secondsSince(Start);
      Row.Name = W->name() + std::string(Variant == WorkloadVariant::Original
                                             ? "-orig"
                                             : "-opt");
      Row.Loops = Static.Loops.size();
      if (!Static.ReuseEstimated) {
        std::cerr << "error: " << Row.Name << " has no reuse estimate\n";
        return 1;
      }

      // Ground truth: the exact program curve and its per-loop
      // attribution, from one global stack-distance pass.
      Trace Recorded;
      W->run(Variant, &Recorded);
      const Trace T = canonicalizeTrace(Recorded);
      const MeasuredCurves Curves =
          ConsistencyChecker::measuredCurvesFromTrace(
              T, &Structure, AnalyzerOpts.Geometry);

      double ProgramSum = 0.0;
      for (const PredictedMrcPoint &Point : Static.ProgramMrc) {
        const double Error =
            std::abs(Point.MissRatio -
                     Curves.Program.modelMissRatioAt(Point.Geometry));
        Row.ProgramMaxError = std::max(Row.ProgramMaxError, Error);
        ProgramSum += Error;
      }
      if (!Static.ProgramMrc.empty())
        Row.ProgramMeanError = ProgramSum / Static.ProgramMrc.size();

      for (const LoopPrediction &Loop : Static.Loops) {
        const auto It = Curves.PerLoop.find(Loop.Location);
        if (It == Curves.PerLoop.end() || It->second.TotalRefs == 0)
          continue;
        const bool Significant =
            static_cast<double>(It->second.TotalRefs) >=
            0.05 * static_cast<double>(T.size());
        for (const PredictedMrcPoint &Point : Loop.PredictedMrc) {
          const double Error =
              std::abs(Point.MissRatio -
                       It->second.modelMissRatioAt(Point.Geometry));
          Row.PerLoopMaxError = std::max(Row.PerLoopMaxError, Error);
          if (Significant)
            Row.SignificantLoopMaxError =
                std::max(Row.SignificantLoopMaxError, Error);
        }
      }

      if (Row.ProgramMaxError > MaxErrorBound ||
          Row.SignificantLoopMaxError > MaxErrorBound)
        AccuracyOk = false;
      Rows.push_back(Row);
    }
  }

  if (!JsonOnly) {
    std::cout << "=== Analytic MRC accuracy (" << Geoms.size()
              << " geometries, bound " << MaxErrorBound << ") ===\n\n";
    TextTable Table({"model", "loops", "analyze (s)", "program max err",
                     "program mean err", "signif loop max", "any loop max"});
    for (const AccuracyRow &Row : Rows)
      Table.addRow({Row.Name, std::to_string(Row.Loops),
                    std::to_string(Row.AnalyzeSeconds),
                    std::to_string(Row.ProgramMaxError),
                    std::to_string(Row.ProgramMeanError),
                    std::to_string(Row.SignificantLoopMaxError),
                    std::to_string(Row.PerLoopMaxError)});
    std::cout << Table.render() << "\naccuracy gate: "
              << (AccuracyOk ? "pass" : "FAIL") << "\n\n";
  }

  //===------------------------------------------------------------------===//
  // 2. Sweep screening payoff: whole groups skipped across a sweep.
  //===------------------------------------------------------------------===//

  BatchMatrix Matrix;
  Matrix.Workloads = defaultBatchWorkloads();
  Matrix.Variants = {WorkloadVariant::Optimized};
  Matrix.Periods = {606, 1212};
  Matrix.Repeats = 2;
  std::vector<JobSpec> Jobs = expandMatrix(Matrix);

  BatchExecOptions Exec;
  Exec.Workers = 4;
  Exec.StaticScreen = true;
  SharedBatchStats Stats;
  Clock::time_point Start = Clock::now();
  std::vector<JobOutcome> Outcomes =
      runJobsShared(Jobs, Exec, 0, nullptr, nullptr, &Stats);
  const double ScreenSecs = secondsSince(Start);
  for (const JobOutcome &Outcome : Outcomes)
    if (!Outcome.ok()) {
      std::cerr << "error: job " << Outcome.Job.key() << " failed: "
                << Outcome.Error << "\n";
      return 1;
    }
  const bool ScreenOk = Stats.StaticScreenedGroups >= 1;

  if (!JsonOnly) {
    std::cout << "=== Sweep screening (" << Jobs.size() << " jobs, "
              << Exec.Workers << " workers) ===\n\n"
              << "wall time: " << ScreenSecs << " s; skipped "
              << Stats.StaticSkipped << " job(s), "
              << Stats.StaticScreenedGroups
              << " whole group(s) never traced, "
              << Stats.StaticScreenRefusals << " refusal(s)\n"
              << "screening gate (>=1 full group): "
              << (ScreenOk ? "pass" : "FAIL") << "\n";
  }

  {
    std::ofstream Json("BENCH_staticmrc.json");
    Json.precision(6);
    Json << std::fixed << "{\n"
         << "  \"bench\": \"staticmrc\",\n"
         << "  \"geometries\": " << Geoms.size() << ",\n"
         << "  \"max_error_bound\": " << MaxErrorBound << ",\n"
         << "  \"accuracy_pass\": " << (AccuracyOk ? "true" : "false")
         << ",\n"
         << "  \"screen_jobs\": " << Jobs.size() << ",\n"
         << "  \"screen_seconds\": " << ScreenSecs << ",\n"
         << "  \"screen_jobs_skipped\": " << Stats.StaticSkipped << ",\n"
         << "  \"screen_groups_skipped\": " << Stats.StaticScreenedGroups
         << ",\n"
         << "  \"screen_refusals\": " << Stats.StaticScreenRefusals << ",\n"
         << "  \"screen_pass\": " << (ScreenOk ? "true" : "false") << ",\n"
         << "  \"per_model\": [\n";
    for (size_t I = 0; I < Rows.size(); ++I) {
      const AccuracyRow &Row = Rows[I];
      Json << "    {\"model\": \"" << Row.Name << "\", \"loops\": "
           << Row.Loops << ", \"analyze_seconds\": " << Row.AnalyzeSeconds
           << ", \"program_max_error\": " << Row.ProgramMaxError
           << ", \"program_mean_error\": " << Row.ProgramMeanError
           << ", \"significant_loop_max_error\": "
           << Row.SignificantLoopMaxError
           << ", \"per_loop_max_error\": " << Row.PerLoopMaxError << "}"
           << (I + 1 < Rows.size() ? "," : "") << "\n";
    }
    Json << "  ]\n}\n";
  }

  if (Gate && (!AccuracyOk || !ScreenOk)) {
    std::cerr << "error: static MRC gate failed (accuracy "
              << (AccuracyOk ? "pass" : "fail") << ", screening "
              << (ScreenOk ? "pass" : "fail") << ")\n";
    return 1;
  }
  return 0;
}
