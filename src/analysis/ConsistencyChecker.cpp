//===- analysis/ConsistencyChecker.cpp - Static vs measured --------------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "analysis/ConsistencyChecker.h"

#include "trace/Trace.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

using namespace ccprof;

const char *ccprof::consistencyVerdictName(ConsistencyVerdict Verdict) {
  switch (Verdict) {
  case ConsistencyVerdict::ConfirmedConflict:
    return "confirmed-conflict";
  case ConsistencyVerdict::ConfirmedClean:
    return "confirmed-clean";
  case ConsistencyVerdict::StaticOnly:
    return "static-only";
  case ConsistencyVerdict::MeasuredOnly:
    return "measured-only";
  case ConsistencyVerdict::Contradicted:
    return "contradicted";
  }
  return "unknown";
}

bool ccprof::consistencyVerdictFromName(const std::string &Name,
                                        ConsistencyVerdict &Out) {
  for (ConsistencyVerdict Verdict :
       {ConsistencyVerdict::ConfirmedConflict,
        ConsistencyVerdict::ConfirmedClean, ConsistencyVerdict::StaticOnly,
        ConsistencyVerdict::MeasuredOnly, ConsistencyVerdict::Contradicted})
    if (Name == consistencyVerdictName(Verdict)) {
      Out = Verdict;
      return true;
    }
  return false;
}

std::vector<uint32_t> ConsistencyChecker::victimSetsFromMisses(
    const std::vector<uint64_t> &PerSetMisses) const {
  std::vector<uint32_t> Victims;
  uint64_t Total = 0;
  uint64_t Utilized = 0;
  for (uint64_t Misses : PerSetMisses) {
    Total += Misses;
    Utilized += Misses > 0;
  }
  if (Utilized == 0)
    return Victims;
  const double Bar = Opts.VictimMissFactor * static_cast<double>(Total) /
                     static_cast<double>(Utilized);
  for (size_t Set = 0; Set < PerSetMisses.size(); ++Set)
    if (static_cast<double>(PerSetMisses[Set]) > Bar)
      Victims.push_back(static_cast<uint32_t>(Set));
  return Victims;
}

std::vector<uint32_t>
ConsistencyChecker::measuredVictimSets(const LoopConflictReport &Report) const {
  return victimSetsFromMisses(Report.PerSetMisses);
}

namespace {

double jaccard(const std::vector<uint32_t> &A, const std::vector<uint32_t> &B) {
  if (A.empty() && B.empty())
    return 1.0;
  const std::set<uint32_t> SetA(A.begin(), A.end());
  uint64_t Intersection = 0;
  for (uint32_t Value : B)
    Intersection += SetA.count(Value);
  const uint64_t Union = SetA.size() + B.size() - Intersection;
  return Union == 0 ? 1.0
                    : static_cast<double>(Intersection) /
                          static_cast<double>(Union);
}

/// Max/mean absolute error between a predicted curve's points and the
/// measured curve read out at the same geometries. Both sides go
/// through the histogram model (modelMissRatioAt on the measured side,
/// the profile readout baked into PredictedMrc on the static side), so
/// the score measures profile divergence, not model skew.
struct MrcScore {
  uint32_t Points = 0;
  double MaxAbsError = 0.0;
  double MeanAbsError = 0.0;
};

MrcScore scoreMrc(const std::vector<PredictedMrcPoint> &Predicted,
                  const MissRatioCurve &Measured) {
  MrcScore Score;
  double Sum = 0.0;
  for (const PredictedMrcPoint &Point : Predicted) {
    const double Error =
        std::abs(Point.MissRatio - Measured.modelMissRatioAt(Point.Geometry));
    Score.MaxAbsError = std::max(Score.MaxAbsError, Error);
    Sum += Error;
    ++Score.Points;
  }
  if (Score.Points > 0)
    Score.MeanAbsError = Sum / Score.Points;
  return Score;
}

} // namespace

MeasuredCurves ConsistencyChecker::measuredCurvesFromTrace(
    const Trace &T, const ProgramStructure *Structure,
    const CacheGeometry &Reference) {
  // Resolve every site to its loop location once, the same way
  // measured samples are attributed. Each distinct location is one
  // bucket of the exact pass; bucket 0 ("") holds the references whose
  // site the registry cannot resolve.
  std::vector<std::string> Locations = {std::string()};
  std::map<std::string, uint32_t> BucketOfLocation = {{std::string(), 0}};
  std::vector<uint32_t> BucketOf(T.sites().size() + 1, 0);
  for (SiteId Id = 1; Id <= T.sites().size(); ++Id) {
    const SourceSite *Site = T.sites().lookup(Id);
    if (!Site)
      continue;
    std::string Location;
    if (Structure) {
      if (std::optional<LoopRef> Ref =
              Structure->innermostLoopForLine(Site->Line)) {
        Location = Structure->describeLoop(*Ref);
      }
    }
    if (Location.empty())
      Location = Site->File + ":" + std::to_string(Site->Line);
    const auto [It, Inserted] =
        BucketOfLocation.try_emplace(Location, Locations.size());
    if (Inserted)
      Locations.push_back(std::move(Location));
    BucketOf[Id] = It->second;
  }

  AttributedCurves Pass = MrcEngine::computeBySite(T, Reference, BucketOf);
  MeasuredCurves Curves;
  Curves.Program = std::move(Pass.Program);
  for (size_t Bucket = 0; Bucket < Locations.size(); ++Bucket)
    if (Pass.Buckets[Bucket].TotalRefs > 0)
      Curves.PerLoop.emplace(Locations[Bucket],
                             std::move(Pass.Buckets[Bucket]));
  return Curves;
}

ConsistencyReport
ConsistencyChecker::check(const StaticAnalysisResult &Static,
                          const ProfileResult &Measured) const {
  return check(Static, Measured, nullptr);
}

ConsistencyReport
ConsistencyChecker::check(const StaticAnalysisResult &Static,
                          const ProfileResult &Measured,
                          const MeasuredCurves *Curves) const {
  ConsistencyReport Report;

  // Walk the union of locations, static order first (highest predicted
  // share leads), then measured-only contexts.
  std::vector<std::string> Locations;
  Locations.reserve(Static.Loops.size() + Measured.Loops.size());
  for (const LoopPrediction &Loop : Static.Loops)
    Locations.push_back(Loop.Location);
  for (const LoopConflictReport &Loop : Measured.Loops)
    if (!Static.byLocation(Loop.Location))
      Locations.push_back(Loop.Location);

  for (const std::string &Location : Locations) {
    const LoopPrediction *Predicted = Static.byLocation(Location);
    const LoopConflictReport *Observed = Measured.byLocation(Location);

    LoopConsistency Entry;
    Entry.Location = Location;
    Entry.HasStatic = Predicted != nullptr;
    Entry.HasMeasured = Observed != nullptr;
    if (Predicted) {
      Entry.StaticConflict = Predicted->ConflictPredicted;
      Entry.StaticContributionFactor = Predicted->PredictedContributionFactor;
    }
    bool MeasuredSignificant = false;
    if (Observed) {
      Entry.MeasuredConflict = Observed->ConflictPredicted;
      Entry.MeasuredContributionFactor = Observed->ContributionFactor;
      Entry.MeasuredVictimSets = measuredVictimSets(*Observed);
      MeasuredSignificant =
          Observed->MissContribution >= Opts.MinMeasuredContribution;
    }
    // Same bar rule on both per-set miss vectors: a time-rotating
    // conflict spreads its victims over the run on both sides, so the
    // analyzer's instantaneous occupancy victims must not be compared
    // against whole-run measured imbalance directly.
    if (Predicted && Observed)
      Entry.VictimSetAgreement =
          jaccard(victimSetsFromMisses(Predicted->PredictedMissesPerSet),
                  Entry.MeasuredVictimSets);

    if (Entry.StaticConflict && Entry.MeasuredConflict) {
      Entry.Verdict = ConsistencyVerdict::ConfirmedConflict;
      Entry.Note = "prediction and measurement agree on a conflict";
    } else if (Entry.StaticConflict) {
      Entry.Verdict = ConsistencyVerdict::StaticOnly;
      Entry.Note = Observed
                       ? "predicted conflict not visible in the measurement"
                       : "predicted conflict; loop missing from measurement";
    } else if (Entry.MeasuredConflict) {
      if (Predicted && Predicted->ExactPlacement && Static.ModelComplete) {
        Entry.Verdict = ConsistencyVerdict::Contradicted;
        Entry.Note = "measured conflict in a loop the model covers with "
                     "exact placement yet predicts clean — the model's "
                     "strides or sizes are wrong";
      } else {
        Entry.Verdict = ConsistencyVerdict::MeasuredOnly;
        Entry.Note = Predicted
                         ? "measured conflict where static placement is "
                           "only approximate"
                         : "measured conflict in a loop the model does "
                           "not describe";
      }
    } else if (Observed && !Predicted && MeasuredSignificant &&
               Static.ModelComplete) {
      // A significant measured context absent from a complete model is
      // itself a coverage gap worth flagging, even when clean.
      Entry.Verdict = ConsistencyVerdict::MeasuredOnly;
      Entry.Note = "significant measured context absent from the model";
    } else {
      Entry.Verdict = ConsistencyVerdict::ConfirmedClean;
      Entry.Note = "no conflict on either side";
    }

    // Quantitative pass: score the loop's predicted MRC against the
    // measured curve. Divergence beyond the threshold under exact
    // placement and a complete model is a contradiction even when the
    // boolean conflict verdicts happen to agree — the model's reuse
    // structure does not describe the traced one.
    if (Curves && Predicted && !Predicted->PredictedMrc.empty()) {
      const auto CurveIt = Curves->PerLoop.find(Location);
      if (CurveIt != Curves->PerLoop.end() &&
          CurveIt->second.TotalRefs > 0) {
        const MrcScore Score =
            scoreMrc(Predicted->PredictedMrc, CurveIt->second);
        Entry.HasMrc = Score.Points > 0;
        Entry.MrcPoints = Score.Points;
        Entry.MrcMaxAbsError = Score.MaxAbsError;
        Entry.MrcMeanAbsError = Score.MeanAbsError;
        if (Entry.HasMrc &&
            Score.MaxAbsError > Opts.MrcContradictionThreshold &&
            Predicted->ExactPlacement && Static.ModelComplete) {
          Entry.Verdict = ConsistencyVerdict::Contradicted;
          Entry.Note = "predicted miss-ratio curve diverges from the "
                       "measured one beyond the modeling bound — the "
                       "model's reuse structure is wrong";
        }
      }
    }

    switch (Entry.Verdict) {
    case ConsistencyVerdict::ConfirmedConflict:
    case ConsistencyVerdict::ConfirmedClean:
      ++Report.Confirmed;
      break;
    case ConsistencyVerdict::StaticOnly:
      ++Report.StaticOnly;
      break;
    case ConsistencyVerdict::MeasuredOnly:
      ++Report.MeasuredOnly;
      break;
    case ConsistencyVerdict::Contradicted:
      ++Report.Contradicted;
      break;
    }
    Report.Loops.push_back(std::move(Entry));
  }

  // Program-level divergence: the whole-trace curve against the
  // whole-model analytic one.
  if (Curves && !Static.ProgramMrc.empty() &&
      Curves->Program.TotalRefs > 0) {
    const MrcScore Score = scoreMrc(Static.ProgramMrc, Curves->Program);
    Report.HasProgramMrc = Score.Points > 0;
    Report.ProgramMrcMaxAbsError = Score.MaxAbsError;
    Report.ProgramMrcMeanAbsError = Score.MeanAbsError;
    Report.ProgramMrcContradicted =
        Report.HasProgramMrc &&
        Score.MaxAbsError > Opts.MrcContradictionThreshold &&
        Static.ReuseExactPlacement && Static.ModelComplete;
  }
  return Report;
}
