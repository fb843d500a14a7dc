//===- core/SetFootprint.cpp - Set-footprint primitives ------------------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/SetFootprint.h"

#include <algorithm>
#include <cstdlib>
#include <numeric>

using namespace ccprof;

uint64_t ccprof::strideSetPeriod(int64_t StrideBytes,
                                 const CacheGeometry &Geometry) {
  const uint64_t SetStride = Geometry.setStrideBytes();
  const uint64_t Magnitude =
      StrideBytes < 0 ? static_cast<uint64_t>(-(StrideBytes + 1)) + 1
                      : static_cast<uint64_t>(StrideBytes);
  const uint64_t Reduced = Magnitude % SetStride;
  if (Reduced == 0)
    return 1;
  return SetStride / std::gcd(Reduced, SetStride);
}

SetOccupancyTracker::SetOccupancyTracker(const CacheGeometry &Geometry,
                                         uint64_t WindowAccesses)
    : Geometry(Geometry), Window(WindowAccesses ? WindowAccesses : 1),
      InWindow(Geometry.numSets()), Occupancy(Geometry.numSets(), 0),
      Peak(Geometry.numSets(), 0), PerSet(Geometry.numSets(), 0),
      Lines(Geometry.numSets(), 0), Worst(Window),
      MruStack(Geometry.numSets(), Geometry.associativity()) {
  Ring.reserve(Window);
}

uint64_t SetOccupancyTracker::access(uint64_t Addr) {
  const uint64_t Set = Geometry.setIndexOf(Addr);
  const uint64_t Line = Geometry.lineAddrOf(Addr);
  const uint32_t Ways = Geometry.associativity();

  // Evict the oldest window entry once the ring is full.
  if (Ring.size() == Window) {
    auto [OldSet, OldLine] = Ring[RingHead];
    auto It = InWindow[OldSet].find(OldLine);
    if (--It->second == 0) {
      InWindow[OldSet].erase(It);
      if (Occupancy[OldSet]-- == Ways + 1)
        --CurOver;
      if (Occupancy[OldSet] == 0)
        --SetsInWindow;
    }
    Ring[RingHead] = {Set, Line};
  } else {
    Ring.emplace_back(Set, Line);
  }
  RingHead = (RingHead + 1) % Window;

  uint32_t &WindowCount = InWindow[Set][Line];
  LastWasInWindow = WindowCount > 0;
  if (++WindowCount == 1) {
    if (Occupancy[Set]++ == 0)
      ++SetsInWindow;
    if (Occupancy[Set] == Ways + 1)
      ++CurOver;
    if (Occupancy[Set] > Peak[Set])
      Peak[Set] = Occupancy[Set];
  }
  ++PerSet[Set];
  ++Total;

  // Residency = within LRU reach: among the set's `ways` most recently
  // accessed lines. Window membership is deliberately not required —
  // the access-count window over-evicts sparse-line streams (many
  // accesses, few lines) that a real cache keeps resident; it serves
  // as the thrash-vs-capacity classifier instead.
  LastWasResident = MruStack.touch(Set, Line) != SetMruStacks::Miss;

  LastWasNewLine = SeenLines.emplace(Line, 0).second;
  if (LastWasNewLine) {
    ++Lines[Set];
    ++TotalLines;
  }

  if (Ring.size() == Window && SetsInWindow < Worst)
    Worst = SetsInWindow;
  return Set;
}

void SetOccupancyTracker::resetWindow() {
  Ring.clear();
  RingHead = 0;
  for (auto &Map : InWindow)
    Map.clear();
  std::fill(Occupancy.begin(), Occupancy.end(), 0);
  MruStack.clear();
  SetsInWindow = 0;
  CurOver = 0;
  LastWasNewLine = false;
  LastWasInWindow = false;
  LastWasResident = false;
}
