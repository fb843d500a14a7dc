//===- sim/ReuseDistance.h - Exact LRU reuse-distance analysis -*- C++ -*-===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact reuse-distance (LRU stack distance) computation: the number of
/// *distinct* cache lines referenced between the use and reuse of a line
/// (paper Sec. 1, [4]). A reuse distance >= the cache's line capacity
/// predicts a capacity miss under fully-associative LRU. Implemented with
/// a Fenwick tree over access timestamps: O(log n) per reference.
///
/// The analyzer only measures distances: it keeps no histogram and no
/// cold count. Callers record what they need from each returned
/// distance; the exact pass in sim/MrcEngine.cpp is the one place that
/// turns them into miss-ratio curves.
///
/// The timestamp space is compacted automatically once most timestamps
/// are dead (their line has been re-referenced or evicted), so the
/// Fenwick footprint tracks the number of *live* lines, not the total
/// reference count — the property the SHARDS-sampled MRC engine relies
/// on to stay O(reservoir) on arbitrarily long traces.
///
//===----------------------------------------------------------------------===//

#ifndef CCPROF_SIM_REUSEDISTANCE_H
#define CCPROF_SIM_REUSEDISTANCE_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

namespace ccprof {

/// Streaming exact reuse-distance oracle over cache-line addresses.
class ReuseDistanceAnalyzer {
public:
  /// Distance reported for a first-touch (cold) reference.
  static constexpr uint64_t Infinite = std::numeric_limits<uint64_t>::max();

  ReuseDistanceAnalyzer();

  /// Feeds one reference to \p LineAddr and \returns its reuse distance:
  /// the count of distinct other lines touched since the previous
  /// reference to \p LineAddr, or Infinite on first touch.
  uint64_t access(uint64_t LineAddr);

  /// Forgets \p LineAddr entirely: its next reference counts as cold
  /// again, and it no longer contributes to the distances of spans that
  /// cross it. \returns false if the line was not being tracked. This is
  /// the hook the SHARDS reservoir uses when it lowers its hash
  /// threshold — an evicted line would fail the new filter anyway, so
  /// dropping it keeps the tracked set consistent with the filter.
  bool evict(uint64_t LineAddr);

  /// Number of distinct lines currently tracked (bounded by the SHARDS
  /// reservoir in sampled mode; equal to the footprint in exact mode).
  size_t trackedLines() const { return LastAccess.size(); }

private:
  // Fenwick tree over timestamps: Marks[t] == 1 iff timestamp t is the
  // most recent access of some line; Bit is its Fenwick prefix-sum form.
  void grow(size_t MinSize);
  void compact();
  void bitAdd(size_t Index, int64_t Delta);
  uint64_t bitPrefixSum(size_t Index) const;

  std::vector<int64_t> Bit;    ///< 1-based Fenwick array.
  std::vector<uint8_t> Marks;  ///< Raw marks, kept for rebuilds on growth.
  std::unordered_map<uint64_t, size_t> LastAccess; ///< line -> timestamp.
  size_t Clock = 0;
};

/// Per-set most-recently-used line stacks, each capped at a fixed depth:
/// the exact contents of a depth-way LRU cache, most recent first. The
/// exact MRC pass reads a hit's position as its per-set stack distance;
/// set-footprint tracking reads it as LRU residency.
class SetMruStacks {
public:
  /// touch() result for a line that was not on its set's stack.
  static constexpr uint32_t Miss = std::numeric_limits<uint32_t>::max();

  SetMruStacks(size_t NumSets, uint32_t Depth)
      : Depth(Depth), Stacks(NumSets) {
    assert(Depth > 0 && "a stack must hold at least one line");
  }

  /// Moves \p Line to the top of stack \p Set, dropping the bottom line
  /// when a new line overflows the depth. \returns the line's previous
  /// position (0 = most recent), or Miss if it was not on the stack.
  uint32_t touch(size_t Set, uint64_t Line) {
    std::vector<uint64_t> &Stack = Stacks[Set];
    auto It = std::find(Stack.begin(), Stack.end(), Line);
    const uint32_t Position =
        It == Stack.end() ? Miss : static_cast<uint32_t>(It - Stack.begin());
    if (Position == Miss) {
      if (Stack.size() < Depth)
        Stack.push_back(Line);
      It = Stack.end() - 1;
    }
    // Slide everything above the vacated slot down one; the line (or
    // the dropped bottom line) is overwritten.
    std::copy_backward(Stack.begin(), It, It + 1);
    Stack.front() = Line;
    return Position;
  }

  void clear() {
    for (std::vector<uint64_t> &Stack : Stacks)
      Stack.clear();
  }

private:
  uint32_t Depth;
  std::vector<std::vector<uint64_t>> Stacks;
};

} // namespace ccprof

#endif // CCPROF_SIM_REUSEDISTANCE_H
