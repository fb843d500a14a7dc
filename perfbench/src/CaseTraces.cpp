//===- perfbench/src/CaseTraces.cpp - The case-study trace set ------------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "CaseTraces.h"

#include "trace/Canonicalize.h"

using namespace ccprof;

namespace perfbench {

std::vector<CaseTrace> buildCaseStudyTraces(Tracer &T) {
  std::vector<std::shared_ptr<Workload>> Sources;
  for (std::unique_ptr<Workload> &W : makeCaseStudySuite())
    Sources.push_back(std::move(W));
  Sources.push_back(makeSymmetrization());

  std::vector<CaseTrace> Out;
  for (const std::shared_ptr<Workload> &W : Sources)
    for (WorkloadVariant Variant :
         {WorkloadVariant::Original, WorkloadVariant::Optimized}) {
      Trace Recorded;
      {
        Tracer::Span S(T, "workloads.trace");
        W->run(Variant, &Recorded);
      }
      T.add("workloads.refs", static_cast<double>(Recorded.size()));
      CaseTrace C;
      C.Name = W->name() +
               (Variant == WorkloadVariant::Original ? "-orig" : "-opt");
      C.Source = W;
      C.Variant = Variant;
      {
        Tracer::Span S(T, "trace.canonicalize");
        C.Canonical = canonicalizeTrace(Recorded);
      }
      Out.push_back(std::move(C));
    }
  return Out;
}

std::vector<size_t> shuffledOrder(size_t N, uint64_t &State) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I < N; ++I)
    Order[I] = I;
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[mix(State) % I]);
  return Order;
}

} // namespace perfbench
