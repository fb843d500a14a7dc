//===- sim/ReuseDistance.cpp - Exact LRU reuse-distance analysis ---------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/ReuseDistance.h"

#include <algorithm>
#include <cassert>

using namespace ccprof;

ReuseDistanceAnalyzer::ReuseDistanceAnalyzer() {
  Bit.assign(1, 0);
  Marks.assign(1, 0);
}

uint64_t ReuseDistanceAnalyzer::access(uint64_t LineAddr) {
  if (Clock + 1 >= Bit.size()) {
    // Most timestamps dead (lines re-referenced or evicted)? Renumber
    // the survivors instead of doubling: the Fenwick stays sized to the
    // live-line count rather than the reference count.
    if (Clock >= 64 && LastAccess.size() * 4 <= Clock)
      compact();
    if (Clock + 1 >= Bit.size())
      grow(Clock + 2);
  }
  ++Clock; // Timestamps are 1-based to match the Fenwick indexing.

  auto [It, Inserted] = LastAccess.try_emplace(LineAddr, Clock);
  if (Inserted) {
    bitAdd(Clock, +1);
    return Infinite;
  }

  const size_t Previous = It->second;
  // Distinct lines touched strictly between Previous and Clock equals the
  // number of "most recent access" marks in (Previous, Clock).
  const uint64_t Distance = bitPrefixSum(Clock - 1) - bitPrefixSum(Previous);
  bitAdd(Previous, -1);
  bitAdd(Clock, +1);
  It->second = Clock;
  return Distance;
}

bool ReuseDistanceAnalyzer::evict(uint64_t LineAddr) {
  auto It = LastAccess.find(LineAddr);
  if (It == LastAccess.end())
    return false;
  bitAdd(It->second, -1);
  LastAccess.erase(It);
  return true;
}

void ReuseDistanceAnalyzer::grow(size_t MinSize) {
  size_t NewSize = Bit.size();
  while (NewSize < MinSize)
    NewSize *= 2;
  Marks.resize(NewSize, 0);
  // Rebuild the Fenwick array from the raw marks with the standard O(n)
  // construction; doubling an existing Fenwick in place would leave the
  // new high-order nodes missing contributions from old indices.
  Bit.assign(NewSize, 0);
  for (size_t I = 1; I < NewSize; ++I) {
    Bit[I] += Marks[I];
    size_t Parent = I + (I & (~I + 1));
    if (Parent < NewSize)
      Bit[Parent] += Bit[I];
  }
}

void ReuseDistanceAnalyzer::compact() {
  // Renumber live timestamps to 1..N preserving their relative order;
  // only the order matters for distance queries, so behavior is
  // unchanged while the Fenwick shrinks to O(live lines).
  std::vector<std::pair<size_t, uint64_t>> Live; // (old timestamp, line)
  Live.reserve(LastAccess.size());
  for (const auto &[Line, Ts] : LastAccess)
    Live.emplace_back(Ts, Line);
  std::sort(Live.begin(), Live.end());

  const size_t N = Live.size();
  // Size past 2*N so the next compaction trigger has room to amortize.
  size_t NewSize = 64;
  while (NewSize < 2 * (N + 2))
    NewSize *= 2;
  Marks.assign(NewSize, 0);
  for (size_t I = 0; I < N; ++I) {
    LastAccess[Live[I].second] = I + 1;
    Marks[I + 1] = 1;
  }
  Bit.assign(NewSize, 0);
  for (size_t I = 1; I < NewSize; ++I) {
    Bit[I] += Marks[I];
    size_t Parent = I + (I & (~I + 1));
    if (Parent < NewSize)
      Bit[Parent] += Bit[I];
  }
  Clock = N;
}

void ReuseDistanceAnalyzer::bitAdd(size_t Index, int64_t Delta) {
  assert(Index >= 1 && Index < Bit.size() && "Fenwick index out of range");
  Marks[Index] = static_cast<uint8_t>(static_cast<int64_t>(Marks[Index]) +
                                      Delta);
  for (; Index < Bit.size(); Index += Index & (~Index + 1))
    Bit[Index] += Delta;
}

uint64_t ReuseDistanceAnalyzer::bitPrefixSum(size_t Index) const {
  int64_t Sum = 0;
  if (Index >= Bit.size())
    Index = Bit.size() - 1;
  for (; Index > 0; Index -= Index & (~Index + 1))
    Sum += Bit[Index];
  assert(Sum >= 0 && "mark counts cannot go negative");
  return static_cast<uint64_t>(Sum);
}
