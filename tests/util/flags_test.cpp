#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "klotski/util/flags.h"

namespace klotski::util {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsForm) {
  const Flags f = parse({"--theta=0.85", "--name=hello"});
  EXPECT_DOUBLE_EQ(f.get_double("theta", 0.0), 0.85);
  EXPECT_EQ(f.get_string("name", ""), "hello");
}

TEST(Flags, SpaceForm) {
  const Flags f = parse({"--count", "42"});
  EXPECT_EQ(f.get_int("count", 0), 42);
}

TEST(Flags, BareBooleanFlag) {
  const Flags f = parse({"--verbose"});
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_TRUE(f.has("verbose"));
}

TEST(Flags, BooleanSpellings) {
  EXPECT_TRUE(parse({"--x=YES"}).get_bool("x", false));
  EXPECT_TRUE(parse({"--x=on"}).get_bool("x", false));
  EXPECT_TRUE(parse({"--x=1"}).get_bool("x", false));
  EXPECT_FALSE(parse({"--x=0"}).get_bool("x", true));
  EXPECT_FALSE(parse({"--x=no"}).get_bool("x", true));
}

TEST(Flags, FallbacksWhenMissing) {
  const Flags f = parse({});
  EXPECT_EQ(f.get_int("absent", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("absent", 1.5), 1.5);
  EXPECT_EQ(f.get_string("absent", "d"), "d");
  EXPECT_FALSE(f.has("absent"));
}

TEST(Flags, PositionalArguments) {
  const Flags f = parse({"first", "--x=1", "second"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "first");
  EXPECT_EQ(f.positional()[1], "second");
}

TEST(Flags, BareFlagBeforeAnotherFlagDoesNotConsumeIt) {
  const Flags f = parse({"--a", "--b=2"});
  EXPECT_TRUE(f.get_bool("a", false));
  EXPECT_EQ(f.get_int("b", 0), 2);
}

TEST(Flags, RejectsNonNumericInt) {
  const Flags f = parse({"--threads=abc"});
  try {
    f.get_int("threads", 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error must name the flag, not just the value.
    EXPECT_NE(std::string(e.what()).find("--threads"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("abc"), std::string::npos);
  }
}

TEST(Flags, RejectsTrailingGarbage) {
  EXPECT_THROW(parse({"--threads=4x"}).get_int("threads", 1),
               std::invalid_argument);
  EXPECT_THROW(parse({"--threads=4.5"}).get_int("threads", 1),
               std::invalid_argument);
  EXPECT_THROW(parse({"--theta=0.75oops"}).get_double("theta", 0.5),
               std::invalid_argument);
  EXPECT_THROW(parse({"--theta="}).get_double("theta", 0.5),
               std::invalid_argument);
}

TEST(Flags, AcceptsWellFormedNumbers) {
  EXPECT_EQ(parse({"--n=-12"}).get_int("n", 0), -12);
  EXPECT_EQ(parse({"--n=+12"}).get_int("n", 0), 12);
  EXPECT_DOUBLE_EQ(parse({"--d=2.5e-3"}).get_double("d", 0.0), 2.5e-3);
  EXPECT_DOUBLE_EQ(parse({"--d=-0.5"}).get_double("d", 0.0), -0.5);
}

TEST(Flags, Int32RejectsValuesOutsideInt) {
  EXPECT_EQ(parse({"--n=2147483647"}).get_int32("n", 0), 2147483647);
  EXPECT_EQ(parse({"--n=-2147483648"}).get_int32("n", 0), -2147483647 - 1);
  EXPECT_EQ(parse({}).get_int32("n", 7), 7);
  // 2^32 + 1 would truncate to 1 through a cast.
  try {
    parse({"--trajectories=4294967297"}).get_int32("trajectories", 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--trajectories"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse({"--n=-2147483649"}).get_int32("n", 0),
               std::invalid_argument);
}

TEST(Flags, BareBooleanIsNotANumber) {
  // `--threads` with no value stores "true": numeric reads must reject it
  // loudly instead of yielding 0.
  EXPECT_THROW(parse({"--threads"}).get_int("threads", 1),
               std::invalid_argument);
}

TEST(Flags, NamesInParseOrder) {
  const Flags f = parse({"--z=1", "--a=2"});
  ASSERT_EQ(f.names().size(), 2u);
  EXPECT_EQ(f.names()[0], "z");
  EXPECT_EQ(f.names()[1], "a");
}

}  // namespace
}  // namespace klotski::util
