#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

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
