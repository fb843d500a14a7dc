//===- tests/ConsistencyCheckerTest.cpp - Static vs measured join --------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The consistency checker's job is to catch lying models: a measured
// conflict in a loop the model covers with exact placement yet
// predicts clean must surface as Contradicted. These tests build a
// tiny synthetic kernel (one loop, one array), record its ground-truth
// trace, and check the join against a truthful and a mis-stated model.
//
//===----------------------------------------------------------------------===//

#include "analysis/ConsistencyChecker.h"
#include "analysis/StaticConflictAnalyzer.h"
#include "cfg/SyntheticCodeGen.h"
#include "core/Profiler.h"
#include "sim/MrcEngine.h"
#include "support/Rng.h"
#include "trace/Canonicalize.h"

#include "gtest/gtest.h"

#include <cstdlib>
#include <iostream>
#include <iterator>
#include <map>
#include <set>
#include <unordered_map>

namespace {

using namespace ccprof;

constexpr uint64_t RowStride = 4096; // One full set stride: a worst walk.
constexpr uint64_t Rows = 500;
constexpr uint64_t Sweeps = 32;

/// One function, one loop (header line 10, body line 11): the shape
/// both the recorded sites and the model descriptors attach to. The
/// image must outlive any ProgramStructure built over it.
BinaryImage kernelImage() {
  FunctionSpec F;
  F.Name = "kernel";
  F.StartLine = 9;
  F.EndLine = 13;
  F.Loops = {LoopSpec{10, 12, {11}, {}, {}}};
  return lowerToBinary("sim.cpp", {F});
}

/// Ground truth: `Sweeps` column walks striding a whole set-stride, so
/// every access of the recorded trace lands on one cache set.
Trace recordColumnWalk() {
  Trace T;
  const uint64_t Base = uint64_t{1} << 30;
  T.registerAllocation("col[]", reinterpret_cast<const char *>(Base),
                       Rows * RowStride);
  SiteId Site = T.site("sim.cpp", 11, "kernel");
  for (uint64_t S = 0; S < Sweeps; ++S)
    for (uint64_t R = 0; R < Rows; ++R)
      T.recordLoad(Site, Base + R * RowStride, 8);
  return T;
}

/// The model of the kernel; \p StrideBytes is what it *claims* the row
/// stride is — pass RowStride for the truth, 64 for the lie.
StaticAccessModel kernelModel(int64_t StrideBytes) {
  StaticAccessModel Model;
  Model.SourceFile = "sim.cpp";
  Model.Complete = true;
  Model.Allocations = {{"col[]", Rows * RowStride, true}};
  AccessDescriptor D;
  D.Array = "col[]";
  D.Line = 11;
  D.ElementBytes = 8;
  D.Levels = {{Sweeps, 0}, {Rows, StrideBytes}};
  Model.Accesses = {D};
  return Model;
}

ConsistencyReport checkAgainstTruth(const StaticAccessModel &Model) {
  BinaryImage Image = kernelImage();
  ProgramStructure Structure(Image);
  ProfileResult Measured =
      Profiler().profileExact(canonicalizeTrace(recordColumnWalk()), Structure);
  StaticAnalysisResult Static =
      StaticConflictAnalyzer().analyze(Model, &Structure);
  return ConsistencyChecker().check(Static, Measured);
}

/// A truthful model of a conflicting kernel: both sides flag the loop
/// and the join confirms it.
TEST(ConsistencyCheckerTest, TruthfulModelIsConfirmed) {
  ConsistencyReport Report = checkAgainstTruth(kernelModel(RowStride));
  EXPECT_TRUE(Report.consistent());
  EXPECT_EQ(Report.Contradicted, 0u);
  const LoopConsistency *Loop = Report.byLocation("sim.cpp:10");
  ASSERT_NE(Loop, nullptr);
  EXPECT_EQ(Loop->Verdict, ConsistencyVerdict::ConfirmedConflict);
  EXPECT_TRUE(Loop->HasStatic);
  EXPECT_TRUE(Loop->HasMeasured);
  EXPECT_GT(Loop->VictimSetAgreement, 0.99);
}

/// Acceptance criterion: a deliberately mis-modeled stride — the model
/// claims the column walk is a contiguous 64-byte walk, which is
/// provably clean — must be reported Contradicted, because the
/// measurement shows the conflict under exact placement.
TEST(ConsistencyCheckerTest, MisModeledStrideIsContradicted) {
  ConsistencyReport Report = checkAgainstTruth(kernelModel(64));
  EXPECT_FALSE(Report.consistent());
  EXPECT_EQ(Report.Contradicted, 1u);
  const LoopConsistency *Loop = Report.byLocation("sim.cpp:10");
  ASSERT_NE(Loop, nullptr);
  EXPECT_EQ(Loop->Verdict, ConsistencyVerdict::Contradicted);
  EXPECT_FALSE(Loop->StaticConflict);
  EXPECT_TRUE(Loop->MeasuredConflict);
}

/// A measured conflict in a loop the model has no descriptors for is
/// reduced evidence, not a contradiction.
TEST(ConsistencyCheckerTest, UncoveredLoopIsMeasuredOnly) {
  BinaryImage Image = kernelImage();
  ProgramStructure Structure(Image);
  ProfileResult Measured =
      Profiler().profileExact(canonicalizeTrace(recordColumnWalk()), Structure);
  StaticAccessModel Empty;
  Empty.SourceFile = "sim.cpp";
  StaticAnalysisResult Static =
      StaticConflictAnalyzer().analyze(Empty, &Structure);
  ConsistencyReport Report = ConsistencyChecker().check(Static, Measured);
  const LoopConsistency *Loop = Report.byLocation("sim.cpp:10");
  ASSERT_NE(Loop, nullptr);
  EXPECT_EQ(Loop->Verdict, ConsistencyVerdict::MeasuredOnly);
  EXPECT_TRUE(Report.consistent());
}

/// Every verdict enumerator names itself and parses back to itself;
/// the names are what `analyze --json` serializes, so a collision or
/// an "unknown" leak would corrupt stored reports.
TEST(ConsistencyCheckerTest, VerdictNamesRoundTrip) {
  const ConsistencyVerdict All[] = {
      ConsistencyVerdict::ConfirmedConflict,
      ConsistencyVerdict::ConfirmedClean, ConsistencyVerdict::StaticOnly,
      ConsistencyVerdict::MeasuredOnly, ConsistencyVerdict::Contradicted};
  std::set<std::string> Names;
  for (ConsistencyVerdict Verdict : All) {
    const std::string Name = consistencyVerdictName(Verdict);
    EXPECT_FALSE(Name.empty());
    EXPECT_NE(Name, "unknown");
    ConsistencyVerdict Parsed;
    ASSERT_TRUE(consistencyVerdictFromName(Name, Parsed)) << Name;
    EXPECT_EQ(Parsed, Verdict) << Name;
    Names.insert(Name);
  }
  EXPECT_EQ(Names.size(), std::size(All)) << "verdict names collide";
  ConsistencyVerdict Unused;
  EXPECT_FALSE(consistencyVerdictFromName("no-such-verdict", Unused));
  EXPECT_FALSE(consistencyVerdictFromName("unknown", Unused));
}

/// Quantitative join: a truthful model's predicted MRC tracks the
/// measured curve, and its divergence stays far under the
/// contradiction threshold.
TEST(ConsistencyCheckerTest, TruthfulModelMrcScoresSmall) {
  BinaryImage Image = kernelImage();
  ProgramStructure Structure(Image);
  const Trace T = canonicalizeTrace(recordColumnWalk());
  ProfileResult Measured = Profiler().profileExact(T, Structure);
  StaticConflictAnalyzer Analyzer;
  StaticAnalysisResult Static =
      Analyzer.analyze(kernelModel(RowStride), &Structure);
  ASSERT_TRUE(Static.ReuseEstimated);
  ASSERT_FALSE(Static.ProgramMrc.empty());

  const MeasuredCurves Curves = ConsistencyChecker::measuredCurvesFromTrace(
      T, &Structure, Analyzer.options().Geometry);
  ConsistencyChecker Checker;
  ConsistencyReport Report = Checker.check(Static, Measured, &Curves);
  EXPECT_TRUE(Report.consistent());
  ASSERT_TRUE(Report.HasProgramMrc);
  EXPECT_LE(Report.ProgramMrcMaxAbsError,
            Checker.options().MrcContradictionThreshold);
  EXPECT_FALSE(Report.ProgramMrcContradicted);
  const LoopConsistency *Loop = Report.byLocation("sim.cpp:10");
  ASSERT_NE(Loop, nullptr);
  ASSERT_TRUE(Loop->HasMrc);
  EXPECT_GT(Loop->MrcPoints, 0u);
  EXPECT_LE(Loop->MrcMaxAbsError, Checker.options().MrcContradictionThreshold);
  EXPECT_LE(Loop->MrcMeanAbsError, Loop->MrcMaxAbsError);
}

/// A model that mis-states the *footprint* — it claims the loop cycles
/// over 8 rows when the trace walks 500 — predicts near-perfect reuse
/// while the measurement misses heavily: the quantitative check must
/// contradict it even though stack-distance curves are blind to set
/// placement.
TEST(ConsistencyCheckerTest, MisModeledFootprintIsMrcContradicted) {
  BinaryImage Image = kernelImage();
  ProgramStructure Structure(Image);
  const Trace T = canonicalizeTrace(recordColumnWalk());
  ProfileResult Measured = Profiler().profileExact(T, Structure);

  StaticAccessModel Lying = kernelModel(RowStride);
  Lying.Accesses[0].Levels = {{Sweeps * (Rows / 8), 0}, {8, RowStride}};
  StaticConflictAnalyzer Analyzer;
  StaticAnalysisResult Static = Analyzer.analyze(Lying, &Structure);
  ASSERT_TRUE(Static.ReuseEstimated);

  const MeasuredCurves Curves = ConsistencyChecker::measuredCurvesFromTrace(
      T, &Structure, Analyzer.options().Geometry);
  ConsistencyReport Report =
      ConsistencyChecker().check(Static, Measured, &Curves);
  EXPECT_FALSE(Report.consistent());
  ASSERT_TRUE(Report.HasProgramMrc);
  EXPECT_TRUE(Report.ProgramMrcContradicted);
  const LoopConsistency *Loop = Report.byLocation("sim.cpp:10");
  ASSERT_NE(Loop, nullptr);
  EXPECT_EQ(Loop->Verdict, ConsistencyVerdict::Contradicted);
}

/// The imbalance-bar rule both sides share: victims are sets whose
/// misses exceed twice the mean over utilized sets.
TEST(ConsistencyCheckerTest, VictimSetBarRule) {
  ConsistencyChecker Checker;
  EXPECT_TRUE(Checker.victimSetsFromMisses({}).empty());
  EXPECT_TRUE(Checker.victimSetsFromMisses({0, 0, 0, 0}).empty());
  // Balanced walk: every set at the mean, nobody above the bar.
  EXPECT_TRUE(Checker.victimSetsFromMisses({10, 10, 10, 10}).empty());
  // One set dominating: mean 32.5, bar 65, only set 0 above it.
  EXPECT_EQ(Checker.victimSetsFromMisses({100, 10, 10, 10}),
            std::vector<uint32_t>{0});
  // Zero-miss sets do not dilute the mean: utilized sets are {50, 10},
  // mean 30, bar 60 — nobody qualifies.
  EXPECT_TRUE(Checker.victimSetsFromMisses({50, 0, 0, 10}).empty());
}

/// Seeded differential test of the measured curves: random multi-site
/// traces, each with a site past the registry's end (and UnknownSite),
/// a site outside every loop, and sites in a flat and a nested loop.
/// The program curve must equal MrcEngine's exact curve, the per-loop
/// curves must partition it, and on short traces each loop's histogram
/// must equal a naive count of distinct lines since the last use. The
/// base seed is printed; set CCPROF_DIFF_SEED to replay a run.
TEST(ConsistencyCheckerTest, MeasuredCurvesMatchExactPassAndNaiveOracle) {
  uint64_t Seed = 0xc0de'cafe;
  if (const char *Env = std::getenv("CCPROF_DIFF_SEED"))
    Seed = std::strtoull(Env, nullptr, 0);
  std::cout << "[ seed     ] CCPROF_DIFF_SEED=" << Seed << "\n";
  RecordProperty("seed", std::to_string(Seed));

  // Loops at lines 10 (body 11) and 20 (body 21), with a child loop at
  // 22 (body 23); line 30 is straight-line code inside the function.
  FunctionSpec F;
  F.Name = "kernel";
  F.StartLine = 9;
  F.EndLine = 32;
  F.AccessLines = {30};
  F.Loops = {LoopSpec{10, 12, {11}, {}, {}},
             LoopSpec{20, 26, {21}, {}, {LoopSpec{22, 25, {23}, {}, {}}}}};
  BinaryImage Image = lowerToBinary("sim.cpp", {F});
  ProgramStructure Structure(Image);

  Xoshiro256 Rng(Seed);
  for (unsigned Case = 0; Case < 48; ++Case) {
    const bool Short = Case % 2 == 0;
    const size_t NumRefs =
        Short ? Rng.nextBounded(300) : 2000 + Rng.nextBounded(20000);
    const uint32_t LineBytes = 32u << Rng.nextBounded(3);
    const CacheGeometry Geometry(32 * 1024, LineBytes, 8);
    const uint64_t Footprint = LineBytes * (4 + Rng.nextBounded(400));

    Trace T;
    const SiteId Sites[] = {T.site("sim.cpp", 11), T.site("sim.cpp", 21),
                            T.site("sim.cpp", 23), T.site("sim.cpp", 30)};
    const SiteId PastEnd = static_cast<SiteId>(T.sites().size() + 3);
    const std::map<SiteId, std::string> LocationOf = {
        {Sites[0], "sim.cpp:10"}, {Sites[1], "sim.cpp:20"},
        {Sites[2], "sim.cpp:22"}, {Sites[3], "sim.cpp:30"},
        {PastEnd, ""},            {UnknownSite, ""}};
    const SiteId Drawn[] = {Sites[0], Sites[1], Sites[2],
                            Sites[3], PastEnd,  UnknownSite};
    for (size_t I = 0; I < NumRefs; ++I)
      T.recordLoad(Drawn[Rng.nextBounded(std::size(Drawn))],
                   Rng.nextBounded(Footprint), 8);

    const MeasuredCurves Curves =
        ConsistencyChecker::measuredCurvesFromTrace(T, &Structure, Geometry);
    MrcOptions Opts;
    Opts.Reference = Geometry;
    const MissRatioCurve Exact = MrcEngine::compute(T, Opts);
    const std::string Where = "case " + std::to_string(Case) + ", " +
                              std::to_string(NumRefs) + " refs";
    EXPECT_EQ(Curves.Program.TotalRefs, Exact.TotalRefs) << Where;
    EXPECT_EQ(Curves.Program.ColdWeight, Exact.ColdWeight) << Where;
    EXPECT_EQ(Curves.Program.StackDistances.buckets(),
              Exact.StackDistances.buckets())
        << Where;

    // The per-loop curves partition the program's references.
    Histogram Stack;
    uint64_t Cold = 0, Total = 0;
    for (const auto &[Location, Curve] : Curves.PerLoop) {
      Stack.merge(Curve.StackDistances);
      Cold += Curve.ColdWeight;
      Total += Curve.TotalRefs;
    }
    EXPECT_EQ(Stack.buckets(), Curves.Program.StackDistances.buckets())
        << Where;
    EXPECT_EQ(Cold, Curves.Program.ColdWeight) << Where;
    EXPECT_EQ(Total, Curves.Program.TotalRefs) << Where;

    if (Short) {
      // O(n^2) oracle: distinct lines touched since the previous use,
      // filed under the reference's expected location.
      struct Expected {
        Histogram Stack;
        uint64_t Cold = 0, Total = 0;
      };
      std::map<std::string, Expected> Oracle;
      const std::span<const MemoryRecord> Records = T.records();
      std::unordered_map<uint64_t, size_t> LastUse;
      for (size_t I = 0; I < Records.size(); ++I) {
        const uint64_t Line = Geometry.lineAddrOf(Records[I].Addr);
        Expected &E = Oracle[LocationOf.at(Records[I].Site)];
        ++E.Total;
        const auto It = LastUse.find(Line);
        if (It == LastUse.end()) {
          ++E.Cold;
        } else {
          std::set<uint64_t> Distinct;
          for (size_t J = It->second + 1; J < I; ++J)
            Distinct.insert(Geometry.lineAddrOf(Records[J].Addr));
          E.Stack.add(Distinct.size());
        }
        LastUse[Line] = I;
      }
      ASSERT_EQ(Curves.PerLoop.size(), Oracle.size()) << Where;
      for (const auto &[Location, E] : Oracle) {
        const auto It = Curves.PerLoop.find(Location);
        ASSERT_NE(It, Curves.PerLoop.end()) << Where << ", " << Location;
        EXPECT_EQ(It->second.StackDistances.buckets(), E.Stack.buckets())
            << Where << ", " << Location;
        EXPECT_EQ(It->second.ColdWeight, E.Cold) << Where << ", " << Location;
        EXPECT_EQ(It->second.TotalRefs, E.Total) << Where << ", " << Location;
      }
    }
    if (HasFailure()) {
      std::cout << "replay with CCPROF_DIFF_SEED=" << Seed << "\n";
      return;
    }
  }
}

} // namespace
