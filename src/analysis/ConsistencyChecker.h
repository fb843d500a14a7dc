//===- analysis/ConsistencyChecker.h - Static vs measured ------*- C++ -*-===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Joins a static conflict prediction with a measured profile (live or
/// loaded from a ProfileArtifact) loop by loop and classifies each:
///
///  * Confirmed      — both sides agree (conflict or clean);
///  * StaticOnly     — the model predicts a conflict the measurement
///                     does not show (over-approximate model, or the
///                     measured run never exercised the pattern);
///  * MeasuredOnly   — the measurement shows a conflict the model has
///                     no descriptors for, or where placement was only
///                     approximate (reduced static evidence);
///  * Contradicted   — the measurement shows a conflict in a loop the
///                     model covers with exact placement yet predicts
///                     clean: the model itself is wrong (a mis-stated
///                     stride, trip count, or allocation size).
///
/// Contradictions are the actionable output: a static model that
/// disagrees with ground truth under exact placement is a bug in the
/// model, not a modeling limitation.
///
/// The quantitative check scores predicted miss-ratio curves against
/// measured ones. The checker walks no stack itself: it maps each site
/// to its loop and lets MrcEngine's exact pass file every reference's
/// distance under that loop (measuredCurvesFromTrace).
///
//===----------------------------------------------------------------------===//

#ifndef CCPROF_ANALYSIS_CONSISTENCYCHECKER_H
#define CCPROF_ANALYSIS_CONSISTENCYCHECKER_H

#include "analysis/StaticConflictAnalyzer.h"
#include "core/Profiler.h"
#include "sim/MrcEngine.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ccprof {

enum class ConsistencyVerdict {
  ConfirmedConflict,
  ConfirmedClean,
  StaticOnly,
  MeasuredOnly,
  Contradicted,
};

/// Name of \p Verdict ("confirmed-conflict", "static-only", ...).
const char *consistencyVerdictName(ConsistencyVerdict Verdict);

/// Inverse of consistencyVerdictName: parses \p Name into \p Out.
/// Returns false (leaving \p Out untouched) for unknown names, so
/// readers of serialized reports can reject rather than mis-classify.
bool consistencyVerdictFromName(const std::string &Name,
                                ConsistencyVerdict &Out);

/// One loop's join of prediction and measurement.
struct LoopConsistency {
  std::string Location;
  ConsistencyVerdict Verdict = ConsistencyVerdict::ConfirmedClean;
  bool HasStatic = false;
  bool HasMeasured = false;
  bool StaticConflict = false;
  bool MeasuredConflict = false;
  double StaticContributionFactor = 0.0;
  double MeasuredContributionFactor = 0.0;
  /// Jaccard similarity of the predicted and measured victim-set
  /// lists, with the *same* imbalance-bar rule applied to both per-set
  /// miss vectors (time-rotating conflicts spread their victims over
  /// the whole run on both sides, so comparing the analyzer's
  /// instantaneous occupancy victims against whole-run measured
  /// imbalance would mis-score them). 1.0 when both are empty.
  double VictimSetAgreement = 1.0;
  /// Measured victim sets (per-set misses above the imbalance bar).
  std::vector<uint32_t> MeasuredVictimSets;
  /// Quantitative MRC divergence (set when measured curves were given
  /// and both sides cover this loop): absolute predicted-vs-measured
  /// miss-ratio error over the predicted curve's geometries, both
  /// sides read through the shared Hill–Smith model.
  bool HasMrc = false;
  uint32_t MrcPoints = 0;
  double MrcMaxAbsError = 0.0;
  double MrcMeanAbsError = 0.0;
  std::string Note;
};

/// Measured miss-ratio curves to score a static prediction against:
/// the whole-program curve plus per-loop curves keyed by the same
/// "file:headerLine" locations static and measured reports use. All
/// curves share *global* stack-distance semantics — per-loop entries
/// are the exact pass's global distances filed under the loop of each
/// reference, matching how the static estimator interleaves co-phased
/// descriptors — so predicted and measured histograms are directly
/// comparable, and the per-loop curves sum to the program curve. Build
/// with ConsistencyChecker::measuredCurvesFromTrace.
struct MeasuredCurves {
  MissRatioCurve Program;
  std::map<std::string, MissRatioCurve> PerLoop;
};

/// Whole-run consistency report.
struct ConsistencyReport {
  std::vector<LoopConsistency> Loops;
  uint64_t Confirmed = 0;
  uint64_t StaticOnly = 0;
  uint64_t MeasuredOnly = 0;
  uint64_t Contradicted = 0;
  /// Program-level MRC divergence (set when measured curves were
  /// given and the static side carries a predicted program curve).
  bool HasProgramMrc = false;
  double ProgramMrcMaxAbsError = 0.0;
  double ProgramMrcMeanAbsError = 0.0;
  /// True when the program-level divergence exceeded the contradiction
  /// threshold under exact placement and a complete model: the model's
  /// descriptors do not describe the traced program.
  bool ProgramMrcContradicted = false;

  /// True when no loop contradicts the model.
  bool consistent() const {
    return Contradicted == 0 && !ProgramMrcContradicted;
  }

  const LoopConsistency *byLocation(const std::string &Location) const {
    for (const LoopConsistency &Loop : Loops)
      if (Loop.Location == Location)
        return &Loop;
    return nullptr;
  }
};

class ConsistencyChecker {
public:
  struct Options {
    /// A set is a measured victim when its miss count exceeds this
    /// multiple of the loop's mean per-set misses (the imbalance bar:
    /// balanced walks put ~1x the mean on every set).
    double VictimMissFactor = 2.0;
    /// Measured loops below this miss contribution are ignored — the
    /// same significance idea the profiler applies.
    double MinMeasuredContribution = 0.01;
    /// A predicted-vs-measured max absolute miss-ratio error above
    /// this, under exact placement and a complete model, contradicts
    /// the model. Three times the estimator's documented 0.05
    /// approximation bound (DESIGN.md §11), so modeling error alone
    /// can never trip it.
    double MrcContradictionThreshold = 0.15;
  };

  ConsistencyChecker() : Opts{} {}
  explicit ConsistencyChecker(Options Opts) : Opts(Opts) {}

  /// The imbalance-bar rule shared by both sides of the victim-set
  /// comparison: sets whose miss count exceeds VictimMissFactor x
  /// (mean misses per utilized set).
  std::vector<uint32_t>
  victimSetsFromMisses(const std::vector<uint64_t> &PerSetMisses) const;

  /// Derives the measured victim sets of \p Report via
  /// victimSetsFromMisses over its per-set miss counts.
  std::vector<uint32_t>
  measuredVictimSets(const LoopConflictReport &Report) const;

  ConsistencyReport check(const StaticAnalysisResult &Static,
                          const ProfileResult &Measured) const;

  /// Quantitative check: additionally scores every loop's predicted
  /// MRC (and the program curve) against \p Curves. Divergence beyond
  /// MrcContradictionThreshold under exact placement and a complete
  /// model upgrades the loop's verdict to Contradicted.
  ConsistencyReport check(const StaticAnalysisResult &Static,
                          const ProfileResult &Measured,
                          const MeasuredCurves *Curves) const;

  /// Builds MeasuredCurves from a canonicalized trace: one exact
  /// global pass (MrcEngine::computeBySite, lines of \p Reference's
  /// line size) filing each reference under the innermost loop of its
  /// site — resolved through \p Structure exactly like measured
  /// samples, "file:line" of the site when absent. References of
  /// unresolvable sites share the "" entry.
  static MeasuredCurves
  measuredCurvesFromTrace(const Trace &T, const ProgramStructure *Structure,
                          const CacheGeometry &Reference);

  const Options &options() const { return Opts; }

private:
  Options Opts;
};

} // namespace ccprof

#endif // CCPROF_ANALYSIS_CONSISTENCYCHECKER_H
