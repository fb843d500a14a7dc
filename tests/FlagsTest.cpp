//===- tests/FlagsTest.cpp - Declarative flag parser unit tests -----------===//
//
// Part of the CCProf reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Flags.h"

#include "sim/CacheGeometry.h"

#include "gtest/gtest.h"

#include <limits>
#include <sstream>

using namespace ccprof;
using flags::FlagTable;

namespace {

enum class Color { Red, Green, Blue };

/// One slot per value kind the parser offers.
struct Values {
  bool Verbose = false;
  bool Sampled = false;
  Color Mode = Color::Red;
  std::string Name = "default";
  unsigned Count = 7;
  uint8_t Small = 1;
  double Rate = 0.5;
  double Tolerance = 0.05;
  Color Hue = Color::Red;
  std::vector<uint64_t> Sizes = {1};
  std::vector<Color> Hues = {Color::Red};
  std::vector<CacheGeometry> Geoms;
};

const flags::Parser<Color> ColorNames = flags::oneOf<Color>(
    {{"red", Color::Red}, {"green", Color::Green}, {"blue", Color::Blue}});

FlagTable tableFor(Values &V) {
  return {
      flags::toggle("--verbose|--loud", "say more", V.Verbose),
      flags::toggle("--blue-mode", "a switch that sets an enum", V.Mode,
                    Color::Blue),
      flags::text("--name", "NAME", "a free-form label", V.Name),
      flags::value("--count", "N", "an unsigned in [2, 100]", V.Count,
                   flags::unsignedIn<unsigned>(2, 100)),
      flags::value("--small", "N", "an unsigned that must fit a byte",
                   V.Small, flags::unsignedIn<uint8_t>()),
      flags::value("--rate", "R", "a double in (0, 1]", V.Rate,
                   flags::finiteIn(0.0, 1.0, true))
          .implies(V.Sampled),
      flags::value("--tolerance", "X", "a double >= 0", V.Tolerance,
                   flags::finiteIn(0.0,
                                   std::numeric_limits<double>::infinity())),
      flags::value("--hue|--colour", "red|green|blue", "an enum", V.Hue,
                   ColorNames),
      flags::list("--sizes|--size", "A,B,..", "a list of positive unsigneds",
                  V.Sizes, flags::unsignedIn<uint64_t>()),
      flags::list("--hues", "C1,C2,..", "a list of enums", V.Hues, ColorNames),
      flags::list("--geoms", "G1,G2,..", "a list of geometries", V.Geoms,
                  parseGeometrySpec),
  };
}

/// Parses \p Args into \p V; \returns the error, empty on success.
std::string parseInto(const std::vector<std::string> &Args, Values &V,
                      std::vector<std::string> *Positionals = nullptr) {
  std::vector<std::string> Ignored;
  std::string Error;
  const bool Ok = flags::parse(Args, tableFor(V),
                               Positionals ? *Positionals : Ignored, Error);
  EXPECT_EQ(Ok, Error.empty());
  return Error;
}

/// Every flag that takes a value.
const std::vector<std::string> ValueFlags = {
    "--name", "--count", "--small", "--rate", "--tolerance",
    "--hue",  "--sizes", "--hues",  "--geoms"};

/// Every kind except the free-form string.
const std::vector<std::string> CheckedFlags = {
    "--count", "--small", "--rate",  "--tolerance",
    "--hue",   "--sizes", "--hues", "--geoms"};

} // namespace

TEST(FlagsTest, DefaultsSurviveAnEmptyCommandLine) {
  Values V;
  EXPECT_EQ(parseInto({}, V), "");
  EXPECT_FALSE(V.Verbose);
  EXPECT_EQ(V.Count, 7u);
  EXPECT_EQ(V.Sizes, std::vector<uint64_t>{1});
}

TEST(FlagsTest, EveryKindParsesItsValue) {
  Values V;
  EXPECT_EQ(parseInto({"--verbose", "--name", "n", "--count", "100",
                       "--small", "255", "--rate", "1", "--tolerance", "0",
                       "--hue", "blue", "--sizes", "4,8", "--hues",
                       "green,red", "--geoms", "32K/64/8,1M/64/16"},
                      V),
            "");
  EXPECT_TRUE(V.Verbose);
  EXPECT_EQ(V.Mode, Color::Red);
  EXPECT_EQ(parseInto({"--blue-mode"}, V), "");
  EXPECT_EQ(V.Mode, Color::Blue);
  EXPECT_EQ(V.Name, "n");
  EXPECT_EQ(V.Count, 100u);
  EXPECT_EQ(V.Small, 255u);
  EXPECT_EQ(V.Rate, 1.0);
  EXPECT_EQ(V.Tolerance, 0.0);
  EXPECT_EQ(V.Hue, Color::Blue);
  EXPECT_EQ(V.Sizes, (std::vector<uint64_t>{4, 8}));
  EXPECT_EQ(V.Hues, (std::vector<Color>{Color::Green, Color::Red}));
  ASSERT_EQ(V.Geoms.size(), 2u);
  EXPECT_EQ(V.Geoms[0].sizeBytes(), 32u * 1024);
  EXPECT_EQ(V.Geoms[0].numSets(), 64u);
  EXPECT_EQ(V.Geoms[1].sizeBytes(), 1024u * 1024);
  EXPECT_EQ(V.Geoms[1].associativity(), 16u);
}

TEST(FlagsTest, MissingValueIsAnErrorForEveryKind) {
  for (const std::string &Flag : ValueFlags) {
    Values V;
    EXPECT_EQ(parseInto({Flag}, V), "missing value for " + Flag) << Flag;
  }
}

TEST(FlagsTest, MalformedNumbersAreRejectedByEveryCheckedKind) {
  for (const std::string &Flag : CheckedFlags)
    for (const std::string Text :
         {"", "4x", "-3", "0x8", "18446744073709551616"}) {
      Values V;
      // An unbounded double reads 2^64 as a number like any other.
      if (Flag == "--tolerance" && Text[0] == '1') {
        EXPECT_EQ(parseInto({Flag, Text}, V), "");
        EXPECT_EQ(V.Tolerance, 18446744073709551616.0);
        continue;
      }
      const Values Before = V;
      const std::string Error = parseInto({Flag, Text}, V);
      EXPECT_EQ(Error.rfind(Flag + " ", 0), 0u)
          << Flag << " '" << Text << "': " << Error;
      EXPECT_EQ(V.Count, Before.Count);
      EXPECT_EQ(V.Rate, Before.Rate);
      EXPECT_EQ(V.Sizes, Before.Sizes);
    }
}

TEST(FlagsTest, UnsignedRejectsOutOfBoundsAndOverflow) {
  Values V;
  EXPECT_NE(parseInto({"--count", "1"}, V), "");
  EXPECT_NE(parseInto({"--count", "101"}, V), "");
  EXPECT_EQ(parseInto({"--count", "2"}, V), "");
  EXPECT_EQ(V.Count, 2u);
  // The default upper bound is the slot's range, not uint64_t's.
  EXPECT_NE(parseInto({"--small", "256"}, V), "");
  EXPECT_NE(parseInto({"--small", "0"}, V), "");
  EXPECT_NE(parseInto({"--count", "+5"}, V), "");
  EXPECT_NE(parseInto({"--count", " 5"}, V), "");
  EXPECT_EQ(parseInto({"--count", "12.5"}, V),
            "--count must be an integer in [2, 100] (got '12.5')");
  EXPECT_EQ(V.Count, 2u);
}

TEST(FlagsTest, DoubleRejectsNonFiniteAndOutOfBounds) {
  for (const std::string Flag : {"--rate", "--tolerance"})
    for (const std::string Text :
         {"nan", "NaN", "inf", "-inf", "infinity", "1e400", "abc", "0.5x",
          " 0.5", "0x1p-1"}) {
      Values V;
      EXPECT_NE(parseInto({Flag, Text}, V), "") << Flag << " " << Text;
    }
  Values V;
  EXPECT_NE(parseInto({"--rate", "0"}, V), "");
  EXPECT_NE(parseInto({"--rate", "1.0000001"}, V), "");
  EXPECT_NE(parseInto({"--tolerance", "-0.01"}, V), "");
  EXPECT_EQ(parseInto({"--tolerance", "nan"}, V),
            "--tolerance must be a finite number in [0, inf] (got 'nan')");
  EXPECT_EQ(parseInto({"--rate", "1.5"}, V),
            "--rate must be a finite number in (0, 1] (got '1.5')");
  EXPECT_EQ(parseInto({"--rate", "1e-3", "--tolerance", "12.25"}, V), "");
  EXPECT_EQ(V.Rate, 1e-3);
  EXPECT_EQ(V.Tolerance, 12.25);
}

TEST(FlagsTest, EnumRejectsUnknownNames) {
  Values V;
  EXPECT_EQ(parseInto({"--hue", "purple"}, V),
            "--hue must be one of red, green, blue (got 'purple')");
  EXPECT_NE(parseInto({"--hue", "RED"}, V), "");
  EXPECT_NE(parseInto({"--hues", "red,purple"}, V), "");
  EXPECT_EQ(V.Hue, Color::Red);
  EXPECT_EQ(V.Hues, std::vector<Color>{Color::Red});
}

TEST(FlagsTest, ListsRejectEmptyAndBadElements) {
  for (const std::string Flag : {"--sizes", "--hues", "--geoms"}) {
    Values V;
    EXPECT_EQ(parseInto({Flag, ","}, V),
              Flag + " needs at least one value (got ',')");
    EXPECT_EQ(parseInto({Flag, ",,"}, V),
              Flag + " needs at least one value (got ',,')");
  }
  Values V;
  // The error names the offending element, and the list is untouched.
  EXPECT_EQ(parseInto({"--sizes", "4,0,8"}, V),
            "--sizes must be a positive integer (got '0')");
  EXPECT_EQ(V.Sizes, std::vector<uint64_t>{1});
  // Empty elements are skipped; a repeated flag replaces the list.
  EXPECT_EQ(parseInto({"--sizes", "4,,8,", "--sizes", "16"}, V), "");
  EXPECT_EQ(V.Sizes, std::vector<uint64_t>{16});
}

TEST(FlagsTest, GeometryListRejectsBadShapes) {
  for (const std::string Spec :
       {"32K/64", "32K/64/8/1", "32K/63/8", "32K/64/0", "0/64/8", "32K/64/128",
        "33/64/8", "32Q/64/8", "18446744073709551615K/64/8", "32K/x/8"}) {
    Values V;
    EXPECT_NE(parseInto({"--geoms", Spec}, V), "") << Spec;
    EXPECT_TRUE(V.Geoms.empty()) << Spec;
  }
  Values V;
  EXPECT_EQ(parseInto({"--geoms", "32K/63/8"}, V),
            "--geoms must have a power-of-two line size (got '32K/63/8')");
}

TEST(FlagsTest, AliasesSetTheSameSlot) {
  Values V;
  EXPECT_EQ(parseInto({"--colour", "green"}, V), "");
  EXPECT_EQ(V.Hue, Color::Green);
  EXPECT_EQ(parseInto({"--size", "3"}, V), "");
  EXPECT_EQ(V.Sizes, std::vector<uint64_t>{3});
  EXPECT_EQ(parseInto({"--loud"}, V), "");
  EXPECT_TRUE(V.Verbose);
}

TEST(FlagsTest, ImpliedSwitchIsSetOnlyWhenTheFlagIsGiven) {
  Values V;
  EXPECT_EQ(parseInto({"--count", "3"}, V), "");
  EXPECT_FALSE(V.Sampled);
  EXPECT_EQ(parseInto({"--rate", "0.25"}, V), "");
  EXPECT_TRUE(V.Sampled);
}

TEST(FlagsTest, PositionalsAreCollectedInOrder) {
  Values V;
  std::vector<std::string> Positionals;
  EXPECT_EQ(parseInto({"a", "--verbose", "b", "--count", "5", "-x", "c"}, V,
                      &Positionals),
            "");
  EXPECT_EQ(Positionals, (std::vector<std::string>{"a", "b", "-x", "c"}));
  EXPECT_EQ(V.Count, 5u);
}

TEST(FlagsTest, ValueIsTakenVerbatimEvenWhenItLooksLikeAFlag) {
  Values V;
  EXPECT_EQ(parseInto({"--name", "--verbose"}, V), "");
  EXPECT_EQ(V.Name, "--verbose");
  EXPECT_FALSE(V.Verbose);
}

TEST(FlagsTest, UnknownFlagsAreErrorsNotPositionals) {
  for (const std::string Arg : {"--bogus", "--coun", "--verbose=1", "--"}) {
    Values V;
    std::vector<std::string> Positionals;
    EXPECT_EQ(parseInto({"path", Arg}, V, &Positionals),
              "unknown option '" + Arg + "'");
  }
}

TEST(FlagsTest, UsageListsEveryDeclaredFlagExactlyOnce) {
  Values V;
  const FlagTable Table = tableFor(V);
  const std::string Usage = flags::usage(Table, 4);
  std::vector<std::string> Terms;
  std::istringstream Lines(Usage);
  for (std::string Line; std::getline(Lines, Line);) {
    EXPECT_LE(Line.size(), 79u) << Line;
    if (Line.rfind("    --", 0) == 0)
      Terms.push_back(Line.substr(4));
  }
  ASSERT_EQ(Terms.size(), Table.size()) << Usage;
  for (size_t I = 0; I < Table.size(); ++I) {
    const flags::Flag &F = Table[I];
    std::string Expected;
    for (const std::string &Name : F.Names)
      Expected += (Expected.empty() ? "" : ", ") + Name;
    if (!F.Metavar.empty())
      Expected += " " + F.Metavar;
    EXPECT_EQ(Terms[I].rfind(Expected, 0), 0u) << Terms[I];
    EXPECT_NE(Usage.find(F.Help), std::string::npos) << F.Help;
  }
}

TEST(FlagsTest, HelpEntryWrapsLongTextAndLongTerms) {
  const std::string Text(40, 'a');
  const std::string Entry =
      flags::helpEntry("term", Text + " " + Text + " " + Text, 2);
  std::istringstream Lines(Entry);
  std::vector<std::string> Split;
  for (std::string Line; std::getline(Lines, Line);)
    Split.push_back(Line);
  ASSERT_EQ(Split.size(), 3u) << Entry;
  EXPECT_EQ(Split[0].rfind("  term ", 0), 0u);
  for (const std::string &Line : Split)
    EXPECT_EQ(Line.find('a'), 30u) << Line;

  const std::string Wide = flags::helpEntry(std::string(40, 't'), "help", 2);
  EXPECT_EQ(Wide, "  " + std::string(40, 't') + "\n" + std::string(30, ' ') +
                      "help\n");
}
