//===- examples/trace_inspector.cpp - Offline trace analysis ---------------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// CCProf's two-step deployment (paper Sec. 4): the online profiler
// serializes per-thread logs to a file; the offline analyzer
// post-processes them later. This example records a trace, writes it to
// disk, reloads it, and runs every analysis the library offers on the
// loaded copy — including the three-C miss breakdown and reuse-distance
// profile the simulator substrate provides.
//
// Usage: trace_inspector [workload-name]   (default: Kripke)
//
//===----------------------------------------------------------------------===//

#include "core/Profiler.h"
#include "core/Report.h"
#include "support/Table.h"
#include "sim/MissClassifier.h"
#include "sim/MrcEngine.h"
#include "workloads/Workload.h"

#include <fstream>
#include <iostream>

using namespace ccprof;

int main(int Argc, char **Argv) {
  std::string Name = Argc > 1 ? Argv[1] : "Kripke";
  std::unique_ptr<Workload> App = makeWorkloadByName(Name);
  if (!App) {
    std::cerr << "error: unknown workload '" << Name << "'\n";
    return 1;
  }

  // --- Online phase: record and serialize. -----------------------------
  Trace Recorded;
  App->run(WorkloadVariant::Original, &Recorded);
  const std::string Path = "/tmp/ccprof_" + Name + ".trace";
  {
    std::ofstream Out(Path, std::ios::binary);
    if (!Recorded.writeTo(Out)) {
      std::cerr << "error: failed to write " << Path << '\n';
      return 1;
    }
  }
  std::cout << "wrote " << Recorded.size() << " records to " << Path
            << "\n\n";

  // --- Offline phase: reload and analyze. ------------------------------
  Trace Loaded;
  {
    std::ifstream In(Path, std::ios::binary);
    if (!Trace::readFrom(In, Loaded)) {
      std::cerr << "error: failed to parse " << Path << '\n';
      return 1;
    }
  }

  // Three-C breakdown on the paper's L1 geometry (ground truth the
  // measurement pipeline never sees on real hardware).
  MissClassifier Classifier(paperL1Geometry());
  for (const MemoryRecord &Record : Loaded.records())
    Classifier.access(Record.Addr, Record.IsWrite);
  const MissRatioCurve Reuse =
      MrcEngine::computeBySite(Loaded, paperL1Geometry(), {}).Program;
  const MissBreakdown &Misses = Classifier.breakdown();
  std::cout << "three-C breakdown (32KiB 8-way L1):\n"
            << "  hits      " << Misses.Hits << '\n'
            << "  cold      " << Misses.ColdMisses << '\n'
            << "  capacity  " << Misses.CapacityMisses << '\n'
            << "  conflict  " << Misses.ConflictMisses << "  ("
            << fmt::percent(Misses.conflictShare())
            << " of all misses)\n\n";
  std::cout << "reuse distances: median "
            << (Reuse.StackDistances.empty()
                    ? 0
                    : Reuse.StackDistances.quantile(0.5))
            << " lines, cold lines " << Reuse.ColdWeight << "\n\n";

  // The CCProf measurement view of the same trace.
  BinaryImage Binary = App->makeBinary();
  ProgramStructure Structure(Binary);
  Profiler Ccprof;
  ProfileResult Result = Ccprof.profile(Loaded, Structure);
  std::cout << renderProfileReport(Result, Name);
  return 0;
}
