//===- sim/CacheGeometry.h - Cache shape and address slicing ---*- C++ -*-===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Describes the shape of one cache level (capacity, line size,
/// associativity) and slices effective addresses into offset / index /
/// tag fields (paper Fig. 1). The profiler's cache-set attribution
/// (Sec. 3.1) is exactly CacheGeometry::setIndexOf applied to the virtual
/// address captured by address sampling.
///
//===----------------------------------------------------------------------===//

#ifndef CCPROF_SIM_CACHEGEOMETRY_H
#define CCPROF_SIM_CACHEGEOMETRY_H

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>

namespace ccprof {

/// Shape of a single cache level.
///
/// Line size must be a power of two; the number of sets may be any
/// positive integer (large shared LLCs are not always power-of-two-set),
/// in which case index extraction degrades from bit-slicing to modulo.
class CacheGeometry {
public:
  /// Constructs a geometry of \p SizeBytes total capacity with
  /// \p LineBytes lines and \p Associativity ways per set.
  /// SizeBytes must be divisible by LineBytes * Associativity.
  CacheGeometry(uint64_t SizeBytes, uint32_t LineBytes,
                uint32_t Associativity);

  uint64_t sizeBytes() const { return SizeBytes; }
  uint32_t lineBytes() const { return LineBytes; }
  uint32_t associativity() const { return Associativity; }
  uint64_t numSets() const { return NumSets; }
  uint64_t numLines() const { return NumSets * Associativity; }

  /// Cache-line number of \p Addr (address with the offset bits dropped).
  uint64_t lineAddrOf(uint64_t Addr) const { return Addr >> LineShift; }

  /// Byte offset of \p Addr within its cache line.
  uint32_t offsetOf(uint64_t Addr) const {
    return static_cast<uint32_t>(Addr & (LineBytes - 1));
  }

  /// Cache-set index of \p Addr. For power-of-two set counts this is
  /// the classical index-bit extraction of Fig. 1.
  uint64_t setIndexOf(uint64_t Addr) const {
    uint64_t Line = lineAddrOf(Addr);
    return SetsArePow2 ? (Line & (NumSets - 1)) : (Line % NumSets);
  }

  /// Tag of \p Addr: the line address with the index bits dropped.
  uint64_t tagOf(uint64_t Addr) const {
    uint64_t Line = lineAddrOf(Addr);
    return SetsArePow2 ? (Line >> SetShift) : (Line / NumSets);
  }

  /// Reassembles the first byte address of the line with the given
  /// \p Tag and \p SetIndex (inverse of tagOf/setIndexOf).
  uint64_t lineStartAddr(uint64_t Tag, uint64_t SetIndex) const {
    assert(SetIndex < NumSets && "set index out of range");
    uint64_t Line =
        SetsArePow2 ? ((Tag << SetShift) | SetIndex) : (Tag * NumSets + SetIndex);
    return Line << LineShift;
  }

  /// Distance in bytes between two addresses mapping to the same set
  /// (one full "wrap" of the cache): NumSets * LineBytes.
  uint64_t setStrideBytes() const { return NumSets * LineBytes; }

  /// Human-readable description, e.g. "32KiB 8-way 64B-line (64 sets)".
  std::string describe() const;

  bool operator==(const CacheGeometry &Other) const = default;

private:
  uint64_t SizeBytes;
  uint32_t LineBytes;
  uint32_t Associativity;
  uint64_t NumSets;
  uint32_t LineShift;
  uint32_t SetShift;
  bool SetsArePow2;
};

/// Parses a "SIZE/LINE/WAYS" spec; SIZE takes a K or M suffix, as in
/// "32K/64/8". The shape is validated here — positive fields, a
/// power-of-two line, 1..64 ways, size divisible by line * ways — so a
/// bad spec is an input error, not an assertion inside the constructor.
/// \returns std::nullopt with \p Error set to the reason otherwise.
std::optional<CacheGeometry> parseGeometrySpec(const std::string &Spec,
                                               std::string &Error);

} // namespace ccprof

#endif // CCPROF_SIM_CACHEGEOMETRY_H
