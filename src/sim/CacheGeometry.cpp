//===- sim/CacheGeometry.cpp - Cache shape and address slicing -----------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/CacheGeometry.h"

#include "support/Flags.h"
#include "support/Table.h"

#include <bit>
#include <sstream>
#include <vector>

using namespace ccprof;

CacheGeometry::CacheGeometry(uint64_t SizeBytes, uint32_t LineBytes,
                             uint32_t Associativity)
    : SizeBytes(SizeBytes), LineBytes(LineBytes),
      Associativity(Associativity) {
  assert(LineBytes > 0 && std::has_single_bit(LineBytes) &&
         "line size must be a power of two");
  assert(Associativity > 0 && "associativity must be positive");
  assert(SizeBytes % (static_cast<uint64_t>(LineBytes) * Associativity) == 0 &&
         "capacity must be divisible by line size times associativity");
  NumSets = SizeBytes / (static_cast<uint64_t>(LineBytes) * Associativity);
  assert(NumSets > 0 && "geometry must have at least one set");
  LineShift = static_cast<uint32_t>(std::countr_zero(LineBytes));
  SetsArePow2 = std::has_single_bit(NumSets);
  SetShift = SetsArePow2 ? static_cast<uint32_t>(std::countr_zero(NumSets)) : 0;
}

std::string CacheGeometry::describe() const {
  return fmt::bytes(SizeBytes) + " " + std::to_string(Associativity) +
         "-way " + std::to_string(LineBytes) + "B-line (" +
         std::to_string(NumSets) + " sets)";
}

std::optional<CacheGeometry> ccprof::parseGeometrySpec(const std::string &Spec,
                                                       std::string &Error) {
  std::vector<std::string> Parts;
  std::stringstream Stream(Spec);
  std::string Part;
  while (std::getline(Stream, Part, '/'))
    Parts.push_back(Part);
  if (Parts.size() != 3) {
    Error = "must be SIZE/LINE/WAYS";
    return std::nullopt;
  }
  uint64_t Multiplier = 1;
  std::string &SizePart = Parts[0];
  if (!SizePart.empty() &&
      (SizePart.back() == 'K' || SizePart.back() == 'k' ||
       SizePart.back() == 'M' || SizePart.back() == 'm')) {
    Multiplier = (SizePart.back() == 'K' || SizePart.back() == 'k')
                     ? 1024
                     : 1024 * 1024;
    SizePart.pop_back();
  }
  const flags::Parser<uint64_t> Field = flags::unsignedIn<uint64_t>(1);
  std::string FieldError;
  const std::optional<uint64_t> Size = Field(SizePart, FieldError);
  const std::optional<uint64_t> Line = Field(Parts[1], FieldError);
  const std::optional<uint64_t> Ways = Field(Parts[2], FieldError);
  if (!Size || !Line || !Ways || *Size > UINT64_MAX / Multiplier) {
    Error = "must have positive integer fields";
    return std::nullopt;
  }
  if (!std::has_single_bit(*Line) || *Line > UINT32_MAX) {
    Error = "must have a power-of-two line size";
    return std::nullopt;
  }
  if (*Ways > 64) {
    Error = "must have at most 64 ways";
    return std::nullopt;
  }
  if (*Size * Multiplier % (*Line * *Ways) != 0) {
    Error = "must have a size divisible by line * ways";
    return std::nullopt;
  }
  return CacheGeometry(*Size * Multiplier, static_cast<uint32_t>(*Line),
                       static_cast<uint32_t>(*Ways));
}
