//===- perfbench/src/Main.cpp - perfbench entry point ---------------------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload NAME --seed N --seconds S --trace 0|1
//           --work-dir DIR --out-dir DIR
//
// Runs one workload and prints one JSON line: the output-check tally,
// the end-to-end metrics (always), the per-layer metrics (traced runs),
// the workload's own named detail numbers and its output digest.
// perfbench/run.py builds this binary and wraps the line into the
// benchmark's result format.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

using namespace perfbench;

namespace {

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      Out += ' ';
    else
      Out += C;
  }
  return Out + "\"";
}

std::string jsonMetrics(const std::vector<Metric> &Metrics) {
  std::string Out = "{";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    char Value[64];
    std::snprintf(Value, sizeof Value, "%.17g", Metrics[I].Value);
    if (I)
      Out += ',';
    Out += jsonString(Metrics[I].Name);
    Out += ":{\"value\":";
    Out += Value;
    Out += ",\"unit\":";
    Out += jsonString(Metrics[I].Unit);
    Out += '}';
  }
  return Out + "}";
}

int usage() {
  std::cerr << "usage: perfbench --workload campaign|geometry_sweep|curves|"
               "ingest --seed N --seconds S --trace 0|1 --work-dir DIR "
               "--out-dir DIR\n";
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions Opts;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Flag = Argv[I], Value = Argv[I + 1];
    if (Flag == "--workload")
      Opts.Workload = Value;
    else if (Flag == "--seed")
      Opts.Seed = std::stoull(Value);
    else if (Flag == "--seconds")
      Opts.Seconds = std::stod(Value);
    else if (Flag == "--trace")
      Opts.Traced = Value == "1";
    else if (Flag == "--work-dir")
      Opts.WorkDir = std::filesystem::absolute(Value).string();
    else if (Flag == "--out-dir")
      Opts.OutDir = std::filesystem::absolute(Value).string();
    else
      return usage();
  }
  if (Argc % 2 == 0 || Opts.WorkDir.empty() || Opts.OutDir.empty())
    return usage();

  Report (*Run)(const RunOptions &, Tracer &) = nullptr;
  if (Opts.Workload == "campaign")
    Run = runCampaign;
  else if (Opts.Workload == "geometry_sweep")
    Run = runGeometrySweep;
  else if (Opts.Workload == "curves")
    Run = runCurves;
  else if (Opts.Workload == "ingest")
    Run = runIngest;
  else
    return usage();

  // Daemon sockets are created relative to the scratch directory: its
  // absolute path may be longer than a Unix socket path allows.
  std::filesystem::current_path(Opts.WorkDir);
  Tracer T(Opts.Traced);
  Report R = Run(Opts, T);
  R.EndToEnd.push_back({"peak_rss_mb", "MB", peakRssMb()});
  for (Metric &M : R.PerLayer)
    if (M.Name == "process.cpu_s")
      M.Value = processCpuSeconds();
  if (Opts.Traced)
    T.writeTimeline(Opts.OutDir + "/timeline-" + Opts.Workload + ".json");

  std::string Failures = "[";
  for (size_t I = 0; I < R.Failures.size(); ++I) {
    if (I)
      Failures += ',';
    Failures += jsonString(R.Failures[I]);
  }
  Failures += "]";
  std::cout << "{\"correct\":" << (R.Failed == 0 ? "true" : "false")
            << ",\"attempted\":" << R.Attempted << ",\"failed\":" << R.Failed
            << ",\"end_to_end\":" << jsonMetrics(R.EndToEnd)
            << ",\"per_layer\":" << jsonMetrics(R.PerLayer)
            << ",\"details\":" << jsonMetrics(R.Details)
            << ",\"digest\":" << jsonString(R.Digest)
            << ",\"store_fs\":" << jsonString(filesystemType(Opts.WorkDir))
            << ",\"failures\":" << Failures << "}" << std::endl;
  return 0;
}
