//===- tests/ReuseDistanceTest.cpp - Reuse distance unit tests ------------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/Cache.h"
#include "sim/MrcEngine.h"
#include "sim/ReuseDistance.h"
#include "support/Rng.h"

#include "gtest/gtest.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace ccprof;

TEST(ReuseDistanceTest, FirstTouchIsInfinite) {
  ReuseDistanceAnalyzer A;
  EXPECT_EQ(A.access(1), ReuseDistanceAnalyzer::Infinite);
  EXPECT_EQ(A.access(2), ReuseDistanceAnalyzer::Infinite);
  EXPECT_NE(A.access(1), ReuseDistanceAnalyzer::Infinite);
}

TEST(ReuseDistanceTest, ImmediateReuseIsZero) {
  ReuseDistanceAnalyzer A;
  A.access(1);
  EXPECT_EQ(A.access(1), 0u);
}

TEST(ReuseDistanceTest, CountsDistinctIntermediateLines) {
  ReuseDistanceAnalyzer A;
  A.access(1);
  A.access(2);
  A.access(3);
  A.access(2); // repeated line must not double-count
  EXPECT_EQ(A.access(1), 2u); // {2, 3}
}

TEST(ReuseDistanceTest, CyclicPattern) {
  ReuseDistanceAnalyzer A;
  // a b c a b c: three cold touches, then each reuse has distance 2.
  for (uint64_t L = 0; L < 3; ++L)
    EXPECT_EQ(A.access(L), ReuseDistanceAnalyzer::Infinite);
  for (uint64_t L = 0; L < 3; ++L)
    EXPECT_EQ(A.access(L), 2u);
}

TEST(ReuseDistanceTest, MissRatioAtCapacity) {
  // Among reuses, a capacity-C cache misses those at distance >= C:
  // the three reuses of a b c a b c all sit at distance 2, so every
  // one hits 3 lines and misses 2.
  ReuseDistanceAnalyzer A;
  uint64_t Reuses = 0, MissAt3 = 0, MissAt2 = 0;
  for (int Round = 0; Round < 2; ++Round)
    for (uint64_t L = 0; L < 3; ++L) {
      const uint64_t Distance = A.access(L);
      if (Distance == ReuseDistanceAnalyzer::Infinite)
        continue;
      ++Reuses;
      MissAt3 += Distance >= 3;
      MissAt2 += Distance >= 2;
    }
  EXPECT_EQ(Reuses, 3u);
  EXPECT_EQ(MissAt3, 0u);
  EXPECT_EQ(MissAt2, 3u);
}

TEST(ReuseDistanceTest, MatchesNaiveReferenceImplementation) {
  // Cross-check the Fenwick implementation against an O(n^2) oracle on
  // a random trace (also exercises the growth/rebuild path).
  ReuseDistanceAnalyzer A;
  Xoshiro256 Rng(0x5eed);
  std::vector<uint64_t> TraceLines;
  std::unordered_map<uint64_t, size_t> LastIndex;
  for (int I = 0; I < 3000; ++I) {
    uint64_t Line = Rng.nextBounded(64);
    uint64_t Got = A.access(Line);
    auto It = LastIndex.find(Line);
    if (It == LastIndex.end()) {
      EXPECT_EQ(Got, ReuseDistanceAnalyzer::Infinite);
    } else {
      std::unordered_set<uint64_t> Distinct;
      for (size_t J = It->second + 1; J < TraceLines.size(); ++J)
        Distinct.insert(TraceLines[J]);
      EXPECT_EQ(Got, Distinct.size()) << "at access " << I;
    }
    LastIndex[Line] = TraceLines.size();
    TraceLines.push_back(Line);
  }
}

TEST(ReuseDistanceTest, OverallMissRatioIsColdInclusive) {
  // a b c a b c: 3 cold misses, 3 reuses at distance 2, 6 refs total.
  // The curve of the exact pass counts cold misses as misses and every
  // reference in the denominator.
  const CacheGeometry Lines(32 * 1024, 64, 8);
  Trace T;
  for (int Round = 0; Round < 2; ++Round)
    for (uint64_t L = 0; L < 3; ++L)
      T.recordLoad(UnknownSite, L * 64, 8);
  const MissRatioCurve Curve = MrcEngine::computeBySite(T, Lines, {}).Program;
  EXPECT_EQ(Curve.TotalRefs, 6u);
  EXPECT_EQ(Curve.ColdWeight, 3u);
  EXPECT_EQ(Curve.missWeightAtLines(3), 3u);
  EXPECT_DOUBLE_EQ(Curve.missRatioAtLines(3), 0.5);
  EXPECT_EQ(Curve.missWeightAtLines(2), 6u);
  EXPECT_DOUBLE_EQ(Curve.missRatioAtLines(2), 1.0);
}

TEST(ReuseDistanceTest, EvictForgetsALine) {
  ReuseDistanceAnalyzer A;
  A.access(1);
  A.access(2);
  EXPECT_EQ(A.trackedLines(), 2u);
  EXPECT_TRUE(A.evict(1));
  EXPECT_FALSE(A.evict(1)); // already gone
  EXPECT_EQ(A.trackedLines(), 1u);
  // An evicted line's next access is cold again and must not count the
  // evicted occurrence as an intervening distinct line either.
  EXPECT_EQ(A.access(1), ReuseDistanceAnalyzer::Infinite);
  A.access(3);
  EXPECT_EQ(A.access(2), 2u); // {1, 3} intervened; the evicted slot didn't
}

TEST(ReuseDistanceTest, CompactionIsTransparent) {
  // A hot small working set inside a long stream triggers timestamp
  // compaction (live lines << clock); distances must stay oracle-exact
  // across the rebuilds. Evictions keep the live set small. The oracle
  // mirrors the analyzer's semantics directly: each tracked line holds
  // one mark at its last access, so the distance of a reuse of Y is the
  // number of tracked lines accessed more recently than Y.
  ReuseDistanceAnalyzer A;
  Xoshiro256 Rng(0x77);
  std::unordered_map<uint64_t, size_t> LastIndex; // tracked lines only
  size_t Position = 0;
  for (int I = 0; I < 20000; ++I) {
    uint64_t Line = Rng.nextBounded(16);
    uint64_t Got = A.access(Line);
    auto It = LastIndex.find(Line);
    if (It == LastIndex.end()) {
      EXPECT_EQ(Got, ReuseDistanceAnalyzer::Infinite) << "at access " << I;
    } else {
      uint64_t MoreRecent = 0;
      for (const auto &[Other, Last] : LastIndex)
        MoreRecent += Last > It->second ? 1 : 0;
      EXPECT_EQ(Got, MoreRecent) << "at access " << I;
    }
    LastIndex[Line] = Position++;
    // Periodically evict a line so the footprint stays small relative
    // to the clock and compaction actually fires.
    if (I % 37 == 0 && A.evict(Line))
      LastIndex.erase(Line);
    ASSERT_EQ(A.trackedLines(), LastIndex.size()) << "at access " << I;
  }
  EXPECT_LE(A.trackedLines(), 16u);
}

TEST(ReuseDistanceTest, PredictsFullyAssociativeLruHits) {
  // The classic theorem: an access hits an N-line fully-associative LRU
  // cache iff its reuse distance is < N.
  constexpr uint64_t Capacity = 16;
  ReuseDistanceAnalyzer A;
  FullyAssociativeLru Cache(Capacity);
  Xoshiro256 Rng(0xfeed);
  for (int I = 0; I < 20000; ++I) {
    uint64_t Line = Rng.nextBounded(40);
    uint64_t Distance = A.access(Line);
    bool Hit = Cache.access(Line);
    bool Predicted = Distance != ReuseDistanceAnalyzer::Infinite &&
                     Distance < Capacity;
    EXPECT_EQ(Hit, Predicted) << "at access " << I;
  }
}

TEST(SetMruStacksTest, PositionIsThePerSetReuseDistanceWithinTheDepth) {
  // Each set's stack is a Depth-way LRU cache: a touch hits at the
  // line's per-set reuse distance when that is below the depth and
  // misses otherwise, including on first touch.
  constexpr uint32_t Depth = 4;
  constexpr size_t Sets = 3;
  SetMruStacks Stacks(Sets, Depth);
  std::vector<ReuseDistanceAnalyzer> PerSet(Sets);
  Xoshiro256 Rng(0x57ac);
  for (int I = 0; I < 20000; ++I) {
    const size_t Set = Rng.nextBounded(Sets);
    const uint64_t Line = Rng.nextBounded(10) * Sets + Set;
    const uint64_t Distance = PerSet[Set].access(Line);
    const uint32_t Position = Stacks.touch(Set, Line);
    if (Distance < Depth)
      EXPECT_EQ(Position, Distance) << "at access " << I;
    else
      EXPECT_EQ(Position, SetMruStacks::Miss) << "at access " << I;
  }
}

TEST(SetMruStacksTest, ClearForgetsEveryLine) {
  SetMruStacks Stacks(2, 2);
  EXPECT_EQ(Stacks.touch(0, 7), SetMruStacks::Miss);
  EXPECT_EQ(Stacks.touch(1, 8), SetMruStacks::Miss);
  EXPECT_EQ(Stacks.touch(0, 9), SetMruStacks::Miss);
  EXPECT_EQ(Stacks.touch(0, 7), 1u);
  Stacks.clear();
  EXPECT_EQ(Stacks.touch(0, 7), SetMruStacks::Miss);
  EXPECT_EQ(Stacks.touch(1, 8), SetMruStacks::Miss);
}
