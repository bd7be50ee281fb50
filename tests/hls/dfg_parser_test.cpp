// Text DFG format: parsing, validation errors with line numbers,
// round-tripping through to_dfg_text for every built-in benchmark, and
// load_design's built-in-name / file resolution.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "hls/benchmarks.hpp"
#include "hls/dfg_parser.hpp"

namespace advbist::hls {
namespace {

constexpr const char* kDiffeq = R"(
# a small diffeq fragment
dfg diffeq
input x u dx
const three 3.0
unit mul1 mul
op mul t1 = x $three @0 on mul1
op add t2 = u dx @0
op mul t3 = t1 t2 @1 on mul1
)";

TEST(Parser, ParsesWellFormedInput) {
  const ParsedDesign d = parse_dfg_text(kDiffeq);
  EXPECT_EQ(d.dfg.name(), "diffeq");
  EXPECT_EQ(d.dfg.num_variables(), 6);  // x u dx t1 t2 t3
  EXPECT_EQ(d.dfg.num_constants(), 1);
  EXPECT_EQ(d.dfg.num_operations(), 3);
  // mul1 declared + one auto adder.
  EXPECT_EQ(d.modules.num_modules(), 2);
  EXPECT_EQ(d.modules.module(0).name, "mul1");
}

TEST(Parser, ConstantsResolveWithDollar) {
  const ParsedDesign d = parse_dfg_text(kDiffeq);
  const Operation& op = d.dfg.operation(0);
  EXPECT_TRUE(op.inputs[1].is_constant);
  EXPECT_DOUBLE_EQ(d.dfg.constant(op.inputs[1].id).value, 3.0);
}

TEST(Parser, GreedyBindingRespectsDeclaredUnits) {
  const ParsedDesign d = parse_dfg_text(kDiffeq);
  EXPECT_EQ(d.modules.module_of(0), 0);  // explicit `on mul1`
  EXPECT_EQ(d.modules.module_of(2), 0);
  EXPECT_NE(d.modules.module_of(1), 0);  // the add got its own unit
}

TEST(Parser, ErrorsCarryLineNumbers) {
  try {
    parse_dfg_text("dfg x\ninput a b\nop add t = a q @0\n");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("unknown value 'q'"),
              std::string::npos);
  }
}

TEST(Parser, RejectsRedefinition) {
  EXPECT_THROW(parse_dfg_text("dfg x\ninput a b\nop add a = a b @0\n"),
               std::invalid_argument);
}

TEST(Parser, RejectsUnknownDirective) {
  EXPECT_THROW(parse_dfg_text("wires a b\n"), std::invalid_argument);
}

TEST(Parser, RejectsBadCycle) {
  EXPECT_THROW(parse_dfg_text("input a b\nop add t = a b @x\n"),
               std::invalid_argument);
}

TEST(Parser, RejectsScheduleViolation) {
  // t consumed in the same cycle it is produced.
  EXPECT_THROW(parse_dfg_text(
                   "input a b\nop add t = a b @0\nop add u = t a @0\n"),
               std::invalid_argument);
}

TEST(Parser, RejectsDoubleBookedUnit) {
  EXPECT_THROW(parse_dfg_text("input a b c d\nunit alu add\n"
                              "op add t = a b @0 on alu\n"
                              "op add u = c d @0 on alu\n"),
               std::invalid_argument);
}

TEST(Parser, CommentsAndBlankLinesIgnored) {
  const ParsedDesign d = parse_dfg_text(
      "# header\n\ndfg c  # trailing\ninput a b\n\nop add t = a b @0\n");
  EXPECT_EQ(d.dfg.num_operations(), 1);
}

TEST(Parser, LoadDesignResolvesABuiltInName) {
  const ParsedDesign d = load_design("tseng");
  const Benchmark b = benchmark_by_name("tseng");
  EXPECT_EQ(d.dfg.num_operations(), b.dfg.num_operations());
  EXPECT_EQ(d.modules.num_modules(), b.modules.num_modules());
}

TEST(Parser, LoadDesignReadsADfgFile) {
  const Benchmark b = benchmark_by_name("paulin");
  const std::string path = testing::TempDir() + "load_design_test.dfg";
  {
    std::ofstream out(path);
    out << to_dfg_text(b.dfg, b.modules);
  }
  const ParsedDesign d = load_design(path);
  std::filesystem::remove(path);
  EXPECT_EQ(to_dfg_text(d.dfg, d.modules), to_dfg_text(b.dfg, b.modules));
}

TEST(Parser, LoadDesignThrowsOnAMissingFile) {
  EXPECT_THROW(load_design("/nonexistent/advbist/design.dfg"),
               std::invalid_argument);
}

class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, BenchmarkSurvivesRoundTrip) {
  const Benchmark b = benchmark_by_name(GetParam());
  const std::string text = to_dfg_text(b.dfg, b.modules);
  const ParsedDesign back = parse_dfg_text(text);
  EXPECT_EQ(back.dfg.num_variables(), b.dfg.num_variables());
  EXPECT_EQ(back.dfg.num_constants(), b.dfg.num_constants());
  EXPECT_EQ(back.dfg.num_operations(), b.dfg.num_operations());
  EXPECT_EQ(back.modules.num_modules(), b.modules.num_modules());
  EXPECT_EQ(back.dfg.max_crossing(), b.dfg.max_crossing());
  for (const Operation& op : b.dfg.operations()) {
    const Operation& rt = back.dfg.operation(op.id);
    EXPECT_EQ(rt.type, op.type);
    EXPECT_EQ(rt.step, op.step);
    EXPECT_EQ(back.modules.module_of(op.id), b.modules.module_of(op.id));
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, RoundTripTest,
                         ::testing::Values("fig1", "tseng", "paulin", "fir6",
                                           "iir3", "dct4", "wavelet6"),
                         [](const auto& info) { return std::string(info.param); });

}  // namespace
}  // namespace advbist::hls
