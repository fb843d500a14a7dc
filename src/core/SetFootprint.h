//===- core/SetFootprint.h - Set-footprint primitives ----------*- C++ -*-===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared primitives for reasoning about the cache-set footprint of
/// strided access streams without simulating them. PaddingAdvisor's
/// column-sweep measures are built on these, and the static
/// conflict-prediction pass (src/analysis) generalizes them into full
/// per-set occupancy vectors.
///
/// Every strided walk's set sequence is periodic: after
/// setStride / gcd(stride, setStride) accesses the (set, line-offset)
/// pair repeats exactly. All footprint questions about arbitrarily long
/// walks therefore reduce to one period plus one window — which is what
/// keeps these functions O(numSets) in space no matter the trip count.
///
//===----------------------------------------------------------------------===//

#ifndef CCPROF_CORE_SETFOOTPRINT_H
#define CCPROF_CORE_SETFOOTPRINT_H

#include "sim/CacheGeometry.h"
#include "sim/ReuseDistance.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace ccprof {

/// Period, in accesses, of the set-index sequence of a walk strided by
/// \p StrideBytes: the smallest P > 0 with set(addr + P*stride) ==
/// set(addr) for every addr. A zero stride (or one that is a multiple
/// of the set stride) has period 1 — the walk never leaves its set.
uint64_t strideSetPeriod(int64_t StrideBytes, const CacheGeometry &Geometry);

/// Tracks per-set distinct-line occupancy over a sliding window of the
/// last \p WindowAccesses accesses of an arbitrary address stream. The
/// window models residency: a set whose in-window distinct-line count
/// exceeds the associativity cannot hold its working set and must
/// thrash (the static analogue of the short-RCD signal CCProf
/// measures).
class SetOccupancyTracker {
public:
  SetOccupancyTracker(const CacheGeometry &Geometry, uint64_t WindowAccesses);

  /// Feeds one access at byte address \p Addr. \returns the set index
  /// the access mapped to.
  uint64_t access(uint64_t Addr);

  /// Distinct lines currently in the window on \p Set.
  uint32_t occupancy(uint64_t Set) const { return Occupancy[Set]; }

  /// Highest in-window distinct-line count ever observed per set.
  const std::vector<uint32_t> &peakOccupancy() const { return Peak; }

  /// Total accesses that mapped to each set.
  const std::vector<uint64_t> &accessesPerSet() const { return PerSet; }

  /// Distinct lines ever touched, per set and in total.
  const std::vector<uint64_t> &linesPerSet() const { return Lines; }
  uint64_t distinctLines() const { return TotalLines; }

  /// True when the last access's line was new to the whole stream (a
  /// compulsory / cold line).
  bool lastAccessWasNewLine() const { return LastWasNewLine; }

  /// True when the last access's line was already inside the window
  /// before the access. A line outside the window has not been touched
  /// for a cache's worth of accesses and is presumed evicted.
  bool lastAccessWasInWindow() const { return LastWasInWindow; }

  /// True when the last access's line was predicted resident: among its
  /// set's `associativity` most recently accessed lines (the per-set
  /// LRU stack) — exact LRU residency for the fed stream. Window
  /// occupancy alone over-predicts misses (a set holding nine
  /// single-visit lines never re-faults), and requiring window
  /// membership over-evicts sparse-line streams a real cache keeps
  /// resident; the stack alone separates hits from misses, while the
  /// window classifies misses into thrash (still in window) versus
  /// compulsory/capacity (out of window).
  bool lastAccessWasResident() const { return LastWasResident; }

  /// Empties the window (ring, occupancy, oversubscription state) while
  /// keeping the whole-stream statistics: accesses per set, distinct
  /// lines, peaks, worst-window coverage. Called between program phases
  /// whose accesses never interleave, so residency evidence from one
  /// phase does not leak into the next.
  void resetWindow();

  /// Number of sets whose *current* window occupancy exceeds the
  /// geometry's associativity.
  uint64_t oversubscribedSets() const { return CurOver; }

  /// Minimum distinct-set count over any full window seen so far; the
  /// window size (at most WindowAccesses) if no full window completed.
  uint64_t worstWindowCoverage() const { return Worst; }

  uint64_t totalAccesses() const { return Total; }

private:
  const CacheGeometry Geometry;
  const uint64_t Window;
  /// Ring buffer of the (set, line) pairs in the window.
  std::vector<std::pair<uint64_t, uint64_t>> Ring;
  size_t RingHead = 0;
  /// Per-set line -> in-window count.
  std::vector<std::unordered_map<uint64_t, uint32_t>> InWindow;
  std::vector<uint32_t> Occupancy;
  std::vector<uint32_t> Peak;
  std::vector<uint64_t> PerSet;
  std::vector<uint64_t> Lines;
  uint64_t SetsInWindow = 0;
  uint64_t CurOver = 0;
  uint64_t Worst;
  uint64_t Total = 0;
  uint64_t TotalLines = 0;
  bool LastWasNewLine = false;
  bool LastWasInWindow = false;
  bool LastWasResident = false;
  /// Per-set MRU stacks of the `associativity` most recent lines: the
  /// predicted residency under LRU replacement.
  SetMruStacks MruStack;
  /// Global set of lines ever seen (for cold-line classification).
  std::unordered_map<uint64_t, char> SeenLines;
};

} // namespace ccprof

#endif // CCPROF_CORE_SETFOOTPRINT_H
