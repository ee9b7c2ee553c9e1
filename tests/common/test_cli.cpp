#include "gmd/common/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gmd/common/error.hpp"

namespace gmd {
namespace {

CliParser make_parser() {
  CliParser p("demo", "test parser");
  p.add_option("vertices", "1024", "number of vertices")
      .add_option("rate", "0.5", "a rate")
      .add_option("name", "bfs", "workload name")
      .add_flag("verbose", "enable verbose output");
  return p;
}

TEST(CliParser, DefaultsApplyWhenUnset) {
  auto p = make_parser();
  const char* argv[] = {"demo"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_EQ(p.get_int("vertices"), 1024);
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 0.5);
  EXPECT_EQ(p.get_string("name"), "bfs");
  EXPECT_FALSE(p.get_flag("verbose"));
}

TEST(CliParser, SpaceSeparatedValues) {
  auto p = make_parser();
  const char* argv[] = {"demo", "--vertices", "64", "--name", "pagerank"};
  ASSERT_TRUE(p.parse(5, argv));
  EXPECT_EQ(p.get_int("vertices"), 64);
  EXPECT_EQ(p.get_string("name"), "pagerank");
}

TEST(CliParser, EqualsSeparatedValues) {
  auto p = make_parser();
  const char* argv[] = {"demo", "--rate=0.25", "--verbose"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 0.25);
  EXPECT_TRUE(p.get_flag("verbose"));
}

TEST(CliParser, PositionalArgumentsCollected) {
  auto p = make_parser();
  const char* argv[] = {"demo", "input.txt", "--vertices", "8", "out.txt"};
  ASSERT_TRUE(p.parse(5, argv));
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "input.txt");
  EXPECT_EQ(p.positional()[1], "out.txt");
}

/// Runs `body` and returns the code of the gmd::Error it must throw.
template <typename Body>
ErrorCode thrown_code(Body&& body) {
  try {
    body();
  } catch (const Error& e) {
    return e.code();
  }
  ADD_FAILURE() << "expected gmd::Error";
  return ErrorCode::kUnspecified;
}

TEST(CliParser, UnknownOptionThrows) {
  const std::vector<std::vector<const char*>> inputs = {
      {"demo", "--bogus", "1"},
      {"demo", "--bogus"},
      {"demo", "--verbose=yes"},
  };
  for (const auto& argv : inputs) {
    auto p = make_parser();
    EXPECT_EQ(thrown_code([&] {
                p.parse(static_cast<int>(argv.size()), argv.data());
              }),
              ErrorCode::kConfig)
        << argv[1];
  }
}

TEST(CliParser, MissingValueThrows) {
  auto p = make_parser();
  const char* argv[] = {"demo", "--vertices"};
  EXPECT_EQ(thrown_code([&] { p.parse(2, argv); }), ErrorCode::kConfig);
}

TEST(CliParser, NonNumericValueThrowsOnTypedGet) {
  // Not an integer: every integer read fails.
  for (const char* value : {"many", "1.5", ""}) {
    auto p = make_parser();
    const char* argv[] = {"demo", "--vertices", value};
    ASSERT_TRUE(p.parse(3, argv));
    EXPECT_EQ(thrown_code([&] { (void)p.get_int("vertices"); }),
              ErrorCode::kConfig)
        << value;
    EXPECT_EQ(thrown_code([&] { (void)p.get_count("vertices"); }),
              ErrorCode::kConfig)
        << value;
  }
  // An integer but not a count of the asked width: only get_count fails.
  for (const char* value : {"-1", "4294967296"}) {
    auto p = make_parser();
    const char* argv[] = {"demo", "--vertices", value};
    ASSERT_TRUE(p.parse(3, argv));
    EXPECT_EQ(std::to_string(p.get_int("vertices")), value);
    EXPECT_EQ(thrown_code([&] {
                (void)p.get_count<std::uint32_t>("vertices");
              }),
              ErrorCode::kConfig)
        << value;
  }
  auto p = make_parser();
  const char* argv[] = {"demo", "--vertices", "-1"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_EQ(thrown_code([&] { (void)p.get_count("vertices"); }),
            ErrorCode::kConfig);
  const char* max_argv[] = {"demo", "--vertices", "4294967295"};
  ASSERT_TRUE(p.parse(3, max_argv));
  EXPECT_EQ(p.get_count<std::uint32_t>("vertices"), 4294967295u);
}

TEST(CliParser, HelpReturnsFalse) {
  auto p = make_parser();
  const char* argv[] = {"demo", "--help"};
  testing::internal::CaptureStdout();
  EXPECT_FALSE(p.parse(2, argv));
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("--vertices"), std::string::npos);
}

TEST(CliParser, UndeclaredOptionAccessThrows) {
  auto p = make_parser();
  const char* argv[] = {"demo"};
  ASSERT_TRUE(p.parse(1, argv));
  EXPECT_THROW((void)p.get_string("nope"), Error);
}

}  // namespace
}  // namespace gmd
