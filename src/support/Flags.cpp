//===- support/Flags.cpp - Declarative command-line flags -----------------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Flags.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <sstream>

using namespace ccprof;
using namespace ccprof::flags;

namespace {

/// Column the help text starts at, and the width it wraps to.
constexpr size_t HelpColumn = 30;
constexpr size_t LineWidth = 79;

/// A bound as the default stream renders it ("0", "1", "inf").
std::string formatBound(double Value) {
  std::ostringstream Out;
  Out << Value;
  return Out.str();
}

} // namespace

std::vector<std::string> flags::split(std::string_view Text, char Separator) {
  std::vector<std::string> Pieces;
  while (!Text.empty()) {
    const size_t End = std::min(Text.find(Separator), Text.size());
    if (End)
      Pieces.emplace_back(Text.substr(0, End));
    Text.remove_prefix(std::min(End + 1, Text.size()));
  }
  return Pieces;
}

Flag flags::text(std::string_view Names, std::string Metavar,
                 std::string Help, std::string &Slot) {
  return {split(Names, '|'), std::move(Metavar), std::move(Help),
          [&Slot](const std::string &Value, std::string &) {
            Slot = Value;
            return true;
          },
          {}};
}

Parser<double> flags::finiteIn(double Min, double Max, bool MinExclusive) {
  return [=](const std::string &Text,
             std::string &Error) -> std::optional<double> {
    double Value = 0.0;
    const char *Last = Text.data() + Text.size();
    auto [Ptr, Ec] = std::from_chars(Text.data(), Last, Value);
    const bool AboveMin = MinExclusive ? Value > Min : Value >= Min;
    if (Text.empty() || Ec != std::errc() || Ptr != Last ||
        !std::isfinite(Value) || !AboveMin || Value > Max) {
      Error = "must be a finite number in " +
              std::string(MinExclusive ? "(" : "[") + formatBound(Min) +
              ", " + formatBound(Max) + "]";
      return std::nullopt;
    }
    return Value;
  };
}

bool flags::parse(const std::vector<std::string> &Args,
                  const FlagTable &Table,
                  std::vector<std::string> &Positionals, std::string &Error) {
  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &Arg = Args[I];
    if (Arg.rfind("--", 0) != 0) {
      Positionals.push_back(Arg);
      continue;
    }
    const Flag *Match = nullptr;
    for (const Flag &F : Table)
      for (const std::string &Name : F.Names)
        if (Name == Arg)
          Match = &F;
    if (!Match) {
      Error = "unknown option '" + Arg + "'";
      return false;
    }
    std::string Value;
    if (!Match->Metavar.empty()) {
      if (I + 1 >= Args.size()) {
        Error = "missing value for " + Arg;
        return false;
      }
      Value = Args[++I];
    }
    std::string Reason;
    if (!Match->Set(Value, Reason)) {
      Error = Arg + " " + std::move(Reason);
      return false;
    }
    for (bool *Switch : Match->Implied)
      *Switch = true;
  }
  return true;
}

bool flags::parseCommandLine(int Argc, const char *const *Argv,
                             std::string_view Program,
                             const FlagTable &Table) {
  std::vector<std::string> Positionals;
  std::string Error;
  if (parse({Argv + 1, Argv + Argc}, Table, Positionals, Error) &&
      Positionals.empty())
    return true;
  std::cerr << "error: "
            << (Error.empty() ? "unexpected argument '" + Positionals[0] + "'"
                              : Error)
            << "\nusage: " << Program << " [options]\n"
            << usage(Table, 2);
  return false;
}

std::string flags::helpEntry(std::string_view Term, std::string_view Text,
                             size_t Indent) {
  // Greedy word wrap into the help column; a term too wide for its
  // column pushes the text to the next line.
  std::string Out;
  std::string Line = std::string(Indent, ' ') + std::string(Term);
  if (Line.size() + 2 > HelpColumn) {
    Out = Line + '\n';
    Line.clear();
  }
  std::istringstream Words{std::string(Text)};
  for (std::string Word; Words >> Word;) {
    if (Line.size() > HelpColumn &&
        Line.size() + 1 + Word.size() > LineWidth) {
      Out += Line + '\n';
      Line.clear();
    }
    Line.append(Line.size() > HelpColumn ? 1 : HelpColumn - Line.size(), ' ');
    Line += Word;
  }
  return Out + Line + '\n';
}

std::string flags::usage(const FlagTable &Table, size_t Indent) {
  std::string Out;
  for (const Flag &F : Table) {
    std::string Term;
    for (const std::string &Name : F.Names)
      Term += (Term.empty() ? "" : ", ") + Name;
    if (!F.Metavar.empty())
      Term += " " + F.Metavar;
    Out += helpEntry(Term, F.Help, Indent);
  }
  return Out;
}
