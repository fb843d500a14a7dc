//===- perfbench/src/CaseTraces.h - The case-study trace set ---*- C++ -*-===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fourteen canonical traces geometry_sweep and curves replay: the
/// six case studies plus Symmetrization, each original and optimized.
///
//===----------------------------------------------------------------------===//

#ifndef CCPROF_PERFBENCH_CASETRACES_H
#define CCPROF_PERFBENCH_CASETRACES_H

#include "Bench.h"

#include "trace/Trace.h"
#include "workloads/Workload.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct CaseTrace {
  std::string Name; ///< "<workload>-<orig|opt>"
  std::shared_ptr<ccprof::Workload> Source;
  ccprof::WorkloadVariant Variant = ccprof::WorkloadVariant::Original;
  ccprof::Trace Canonical;
};

/// Runs every case-study workload in both variants under a recorder and
/// canonicalizes the result (spans workloads.trace, trace.canonicalize;
/// counter workloads.refs).
std::vector<CaseTrace> buildCaseStudyTraces(Tracer &T);

/// A seed-driven permutation of 0..N-1.
std::vector<size_t> shuffledOrder(size_t N, uint64_t &State);

} // namespace perfbench

#endif // CCPROF_PERFBENCH_CASETRACES_H
