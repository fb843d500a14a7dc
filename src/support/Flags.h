//===- support/Flags.h - Declarative command-line flags --------*- C++ -*-===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table-driven command-line flags. Each flag is declared once — its
/// names, value metavar, help line and a typed setter — and that one
/// declaration drives parsing, error reporting and the rendered usage.
///
/// Values are parsed strictly: an unsigned is decimal digits only and
/// must fit its slot and bounds, a double must be finite and consume
/// the whole string, an enum must be one of its listed names, and a
/// comma list must hold at least one element. A missing value and an
/// unknown "--" flag are errors; anything else not starting with "--"
/// is a positional argument.
///
//===----------------------------------------------------------------------===//

#ifndef CCPROF_SUPPORT_FLAGS_H
#define CCPROF_SUPPORT_FLAGS_H

#include <charconv>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace ccprof::flags {

/// Parses one value. \returns the value, or std::nullopt with \p Error
/// set to a reason phrased to follow the flag name ("must be a
/// positive integer").
template <typename T>
using Parser = std::function<std::optional<T>(const std::string &Text,
                                              std::string &Error)>;

/// One declared flag. Build it with toggle(), text(), value() or list().
struct Flag {
  /// Primary name first, then aliases, each with its leading "--".
  std::vector<std::string> Names;
  /// Value placeholder shown in usage; empty for a switch.
  std::string Metavar;
  std::string Help;
  /// Stores the value (a switch gets ""); false with Error set — the
  /// reason and the rejected text — refuses it.
  std::function<bool(const std::string &Value, std::string &Error)> Set;
  /// Switches also set whenever this flag is given.
  std::vector<bool *> Implied;

  /// This flag, additionally setting \p Switch whenever it is given.
  Flag implies(bool &Switch) && {
    Implied.push_back(&Switch);
    return std::move(*this);
  }
};

using FlagTable = std::vector<Flag>;

/// The non-empty pieces of \p Text between \p Separator characters.
std::vector<std::string> split(std::string_view Text, char Separator);

/// A switch: sets \p Slot to \p Value when given; takes no value.
template <typename T>
Flag toggle(std::string_view Names, std::string Help, T &Slot,
            T Value = true) {
  return {split(Names, '|'), "", std::move(Help),
          [&Slot, Value](const std::string &, std::string &) {
            Slot = Value;
            return true;
          },
          {}};
}

/// A free-form string value.
Flag text(std::string_view Names, std::string Metavar, std::string Help,
          std::string &Slot);

/// One value parsed by \p Parse; the parser must yield exactly T.
template <typename T, typename P>
Flag value(std::string_view Names, std::string Metavar, std::string Help,
           T &Slot, P Parse) {
  static_assert(std::is_same_v<std::invoke_result_t<P &, const std::string &,
                                                    std::string &>,
                               std::optional<T>>,
                "parser must yield std::optional of the slot type");
  return {split(Names, '|'), std::move(Metavar), std::move(Help),
          [&Slot, Parse = std::move(Parse)](const std::string &Text,
                                            std::string &Error) {
            std::optional<T> Parsed = Parse(Text, Error);
            if (!Parsed) {
              Error += " (got '" + Text + "')";
              return false;
            }
            Slot = std::move(*Parsed);
            return true;
          },
          {}};
}

/// A comma-separated list, each element parsed by \p Parse. Empty
/// elements are skipped; a list with no element left is rejected. Each
/// occurrence of the flag replaces the whole list.
template <typename T, typename P>
Flag list(std::string_view Names, std::string Metavar, std::string Help,
          std::vector<T> &Slot, P Parse) {
  static_assert(std::is_same_v<std::invoke_result_t<P &, const std::string &,
                                                    std::string &>,
                               std::optional<T>>,
                "parser must yield std::optional of the element type");
  return {split(Names, '|'), std::move(Metavar), std::move(Help),
          [&Slot, Parse = std::move(Parse)](const std::string &Text,
                                            std::string &Error) {
            std::vector<T> Parsed;
            for (const std::string &Element : split(Text, ',')) {
              std::optional<T> Value = Parse(Element, Error);
              if (!Value) {
                Error += " (got '" + Element + "')";
                return false;
              }
              Parsed.push_back(std::move(*Value));
            }
            if (Parsed.empty()) {
              Error = "needs at least one value (got '" + Text + "')";
              return false;
            }
            Slot = std::move(Parsed);
            return true;
          },
          {}};
}

/// Decimal unsigned integer in [\p Min, \p Max]; \p Max defaults to the
/// largest T.
template <typename T>
Parser<T> unsignedIn(uint64_t Min = 1,
                     uint64_t Max = std::numeric_limits<T>::max()) {
  static_assert(std::is_unsigned_v<T>, "unsigned slots only");
  return [Min, Max](const std::string &Text,
                    std::string &Error) -> std::optional<T> {
    uint64_t Value = 0;
    const char *Last = Text.data() + Text.size();
    auto [Ptr, Ec] = std::from_chars(Text.data(), Last, Value, 10);
    if (Text.empty() || Ec != std::errc() || Ptr != Last || Value < Min ||
        Value > Max) {
      if (Max != std::numeric_limits<T>::max())
        Error = "must be an integer in [" + std::to_string(Min) + ", " +
                std::to_string(Max) + "]";
      else if (Min > 1)
        Error = "must be an integer >= " + std::to_string(Min);
      else
        Error = Min ? "must be a positive integer"
                    : "must be a non-negative integer";
      return std::nullopt;
    }
    return static_cast<T>(Value);
  };
}

/// Finite decimal number in [\p Min, \p Max], or (\p Min, \p Max] when
/// \p MinExclusive; NaN and infinities are rejected.
Parser<double> finiteIn(double Min, double Max, bool MinExclusive = false);

/// One name of \p Choices, mapped to its value.
template <typename T>
Parser<T> oneOf(std::vector<std::pair<std::string, T>> Choices) {
  return [Choices = std::move(Choices)](
             const std::string &Text, std::string &Error) -> std::optional<T> {
    std::string Names;
    for (const auto &[Name, Value] : Choices) {
      if (Name == Text)
        return Value;
      Names += (Names.empty() ? "" : ", ") + Name;
    }
    Error = "must be one of " + Names;
    return std::nullopt;
  };
}

/// Applies \p Args to \p Table in order. A flag that takes a value
/// consumes the next argument whatever it looks like; arguments not
/// starting with "--" are appended to \p Positionals. \returns false
/// with \p Error set at the first missing value, unknown flag or
/// rejected value.
bool parse(const std::vector<std::string> &Args, const FlagTable &Table,
           std::vector<std::string> &Positionals, std::string &Error);

/// Parses the command line of a program that takes flags only:
/// \p Argv[1..] must all match \p Table. On a parse error or a stray
/// positional argument prints "error: <reason>" and the usage of
/// \p Program to stderr and \returns false.
bool parseCommandLine(int Argc, const char *const *Argv,
                      std::string_view Program, const FlagTable &Table);

/// One usage entry: \p Term at \p Indent, then \p Text word-wrapped in
/// a column to its right (or starting on the next line when \p Term is
/// too wide for the column).
std::string helpEntry(std::string_view Term, std::string_view Text,
                      size_t Indent);

/// Usage lines for every flag of \p Table, one helpEntry each.
std::string usage(const FlagTable &Table, size_t Indent);

} // namespace ccprof::flags

#endif // CCPROF_SUPPORT_FLAGS_H
