#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/table.hpp"

namespace deepbat {
namespace {

TEST(Table, AlignedOutputContainsAllCells) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Table, RowWidthChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, AddRowValuesFormats) {
  Table t({"x", "y"});
  t.add_row_values({1.23456, 2.0}, 2);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1.23,2.00\n");
}

TEST(Fmt, FixedAndScientific) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_sci(0.000123, 2).substr(0, 4), "1.23");
}

TEST(Cli, ParsesBothFlagStyles) {
  const char* argv[] = {"prog", "--alpha", "3", "--beta=hello", "--flag"};
  CliFlags flags(5, argv);
  EXPECT_EQ(flags.get_int("alpha", 0), 3);
  EXPECT_EQ(flags.get("beta", ""), "hello");
  EXPECT_TRUE(flags.get_bool("flag", false));
  EXPECT_FALSE(flags.has("gamma"));
  EXPECT_EQ(flags.get_double("gamma", 2.5), 2.5);
}

TEST(Cli, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW(CliFlags(2, argv), Error);
}

TEST(Cli, CheckKnownCatchesTypos) {
  const char* argv[] = {"prog", "--seeed=1"};
  CliFlags flags(2, argv);
  EXPECT_THROW(flags.check_known({"seed"}), Error);
  const char* argv2[] = {"prog", "--seed=1"};
  CliFlags flags2(2, argv2);
  EXPECT_NO_THROW(flags2.check_known({"seed"}));
}

/// Parses `--v <text>` and returns the flag set (argv-style).
CliFlags one_flag(const char* text) {
  const char* argv[] = {"prog", "--v", text};
  return CliFlags(3, argv);
}

TEST(Cli, GetIntAcceptsOnlyWholeIntegerTokens) {
  struct Case {
    const char* text;
    bool ok;
    std::int64_t want;
  };
  const Case cases[] = {
      {"3", true, 3},
      {"-1", true, -1},
      {"0", true, 0},
      {"9223372036854775807", true, INT64_MAX},
      {"2x", false, 0},
      {"+3", false, 0},
      {" 3", false, 0},
      {"3 ", false, 0},
      {"2.5", false, 0},
      {"1e3", false, 0},
      {"0x10", false, 0},
      {"9223372036854775808", false, 0},
      {"", false, 0},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.text);
    const CliFlags flags = one_flag(c.text);
    if (c.ok) {
      EXPECT_EQ(flags.get_int("v", 99), c.want);
    } else {
      EXPECT_THROW(flags.get_int("v", 99), Error);
    }
  }
}

TEST(Cli, GetIntInRangeRejectsNonPositiveCountsAndNegativeSeeds) {
  // The ranges examples/train_surrogate and the replay benches read their
  // flags in: counts from 1 (--epochs also at most INT_MAX, it lands in an
  // int), seeds from 0, so a negative one never wraps.
  constexpr std::int64_t kIntMax = 2147483647;
  struct Case {
    const char* flag;
    const char* text;
    std::int64_t min;
    std::int64_t max;
    bool ok;
  };
  const Case cases[] = {
      {"epochs", "1", 1, kIntMax, true},
      {"epochs", "0", 1, kIntMax, false},
      {"epochs", "-4", 1, kIntMax, false},
      {"epochs", "2147483648", 1, kIntMax, false},
      {"samples", "500", 1, INT64_MAX, true},
      {"samples", "0", 1, INT64_MAX, false},
      {"samples", "-1", 1, INT64_MAX, false},
      {"seqlen", "0", 1, INT64_MAX, false},
      {"seqlen", "-64", 1, INT64_MAX, false},
      {"seed", "0", 0, INT64_MAX, true},
      {"seed", "-1", 0, INT64_MAX, false},
      {"cold-seed", "-1", 0, INT64_MAX, false},
      {"fault-seed", "-7", 0, INT64_MAX, false},
      {"retrain-seed", "-9223372036854775808", 0, INT64_MAX, false},
      {"retrain-seed", "9223372036854775807", 0, INT64_MAX, true},
      {"retrain-seed", "x", 0, INT64_MAX, false},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.flag) + " = " + c.text);
    const std::string arg = std::string("--") + c.flag + "=" + c.text;
    const char* argv[] = {"prog", arg.c_str()};
    const CliFlags flags(2, argv);
    if (c.ok) {
      EXPECT_EQ(flags.get_int_in_range(c.flag, 99, c.min, c.max),
                flags.get_int(c.flag, 99));
    } else {
      EXPECT_THROW(flags.get_int_in_range(c.flag, 99, c.min, c.max), Error);
    }
  }
  // An absent flag reads its fallback.
  const char* none[] = {"prog"};
  EXPECT_EQ(CliFlags(1, none).get_int_in_range("epochs", 16, 1, kIntMax), 16);
}

TEST(Cli, GetDoubleAcceptsOnlyWholeFiniteTokens) {
  struct Case {
    const char* text;
    bool ok;
    double want;
  };
  const Case cases[] = {
      {"2.5", true, 2.5},
      {"-0.25", true, -0.25},
      {"20", true, 20.0},
      {"20.0", true, 20.0},
      {"1e3", true, 1000.0},
      {"2.5x", false, 0.0},
      {"+1", false, 0.0},
      {" 1", false, 0.0},
      {"1 ", false, 0.0},
      {"inf", false, 0.0},
      {"-inf", false, 0.0},
      {"nan", false, 0.0},
      {"1e999", false, 0.0},
      {"0x1p3", false, 0.0},
      {"", false, 0.0},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.text);
    const CliFlags flags = one_flag(c.text);
    if (c.ok) {
      EXPECT_EQ(flags.get_double("v", 99.0), c.want);
    } else {
      EXPECT_THROW(flags.get_double("v", 99.0), Error);
    }
  }
}

TEST(Cli, GetBoolRejectsUnknownValues) {
  struct Case {
    const char* text;
    bool ok;
    bool want;
  };
  const Case cases[] = {
      {"true", true, true},   {"1", true, true},      {"yes", true, true},
      {"false", true, false}, {"0", true, false},     {"no", true, false},
      {"banana", false, false}, {"TRUE", false, false}, {"2", false, false},
      {"", false, false},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.text);
    const CliFlags flags = one_flag(c.text);
    if (c.ok) {
      EXPECT_EQ(flags.get_bool("v", !c.want), c.want);
    } else {
      EXPECT_THROW(flags.get_bool("v", false), Error);
    }
  }
  // A bare flag reads as true; an absent one as the fallback.
  const char* argv[] = {"prog", "--flag"};
  const CliFlags flags(2, argv);
  EXPECT_TRUE(flags.get_bool("flag", false));
  EXPECT_FALSE(flags.get_bool("absent", false));
}

TEST(Cli, ParsePositiveIntAcceptsOnlyWholePositiveTokens) {
  struct Case {
    const char* text;
    std::int64_t want;  // 0: must throw
  };
  const Case cases[] = {
      {"1", 1},   {"24", 24}, {"0800", 800}, {"9223372036854775807", INT64_MAX},
      {"", 0},    {"0", 0},   {"-3", 0},     {"+3", 0},
      {" 3", 0},  {"3 ", 0},  {"3x", 0},     {"x3", 0},
      {"2.5", 0}, {"1e3", 0}, {"0x10", 0},   {"9223372036854775808", 0},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.text);
    if (c.want == 0) {
      EXPECT_THROW(parse_positive_int(c.text, "knob"), Error);
    } else {
      EXPECT_EQ(parse_positive_int(c.text, "knob"), c.want);
    }
  }
  EXPECT_EQ(parse_positive_int("100", "knob", 100), 100);
  EXPECT_THROW(parse_positive_int("101", "knob", 100), Error);
}

}  // namespace
}  // namespace deepbat
