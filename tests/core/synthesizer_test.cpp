// Synthesizer-level invariants, including the paper's headline claim as an
// executable property: the concurrent ILP never loses to the heuristics.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "baselines/baselines.hpp"
#include "core/synthesizer.hpp"
#include "hls/benchmarks.hpp"

namespace advbist::core {
namespace {

SynthesizerOptions quick(double seconds = 30.0) {
  SynthesizerOptions o;
  o.solver.time_limit_seconds = seconds;
  return o;
}

TEST(Synthesizer, Fig1BeatsEveryBaseline) {
  const hls::Benchmark b = hls::make_fig1();
  const Synthesizer synth(b.dfg, b.modules, quick());
  for (int k = 1; k <= b.modules.num_modules(); ++k) {
    const SynthesisResult adv = synth.synthesize_bist(k);
    ASSERT_TRUE(adv.is_optimal()) << "k=" << k;
    for (const char* method : {"ADVAN", "BITS", "RALLOC"}) {
      const auto base = baselines::run_baseline(
          method, b.dfg, b.modules, k, bist::CostModel::paper_8bit());
      EXPECT_LE(adv.design.area.total(), base.area.total())
          << method << " k=" << k;
    }
  }
}

TEST(Synthesizer, AllSessionsSweepCoversEveryK) {
  const hls::Benchmark b = hls::make_fig1();
  const auto results =
      Synthesizer(b.dfg, b.modules, quick()).synthesize_all_sessions();
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) EXPECT_GT(r.design.area.total(), 0);
}

TEST(Synthesizer, SeedingPreservesOptimum) {
  const hls::Benchmark b = hls::make_fig1();
  SynthesizerOptions with = quick();
  SynthesizerOptions without = quick();
  without.seed_with_baselines = false;
  const SynthesisResult r1 =
      Synthesizer(b.dfg, b.modules, with).synthesize_bist(2);
  const SynthesisResult r2 =
      Synthesizer(b.dfg, b.modules, without).synthesize_bist(2);
  ASSERT_TRUE(r1.is_optimal());
  ASSERT_TRUE(r2.is_optimal());
  EXPECT_EQ(r1.design.area.total(), r2.design.area.total());
}

TEST(Synthesizer, SequentialFlowNeverBeatsConcurrent) {
  // Ablation B's invariant: pinning registers to the reference-optimal
  // assignment restricts the feasible set, so the optimum can only worsen.
  const hls::Benchmark b = hls::make_fig1();
  const Synthesizer synth(b.dfg, b.modules, quick());
  const SynthesisResult concurrent = synth.synthesize_bist(2);
  const SynthesisResult ref = synth.synthesize_reference();
  ASSERT_TRUE(concurrent.is_optimal());
  ASSERT_TRUE(ref.is_optimal());

  FormulationOptions fo;
  fo.include_bist = true;
  fo.k = 2;
  fo.fix_registers = &ref.design.registers;
  const Formulation seq(b.dfg, b.modules, fo);
  ilp::Options so;
  so.time_limit_seconds = 30;
  so.branch_priority = seq.branch_priorities();
  const ilp::Solution sol = ilp::Solver(so).solve(seq.model());
  ASSERT_TRUE(sol.is_optimal());
  const DecodedDesign seq_design = seq.decode(sol);
  EXPECT_GE(seq_design.area.total(), concurrent.design.area.total());
}

TEST(Synthesizer, TightBudgetStillReturnsValidatedDesign) {
  const hls::Benchmark b = hls::make_tseng();
  SynthesizerOptions o = quick(0.3);  // far below what optimality needs
  const SynthesisResult r =
      Synthesizer(b.dfg, b.modules, o).synthesize_bist(3);
  // Either an ILP incumbent or the baseline fallback — both validated.
  EXPECT_GT(r.design.area.total(), 0);
  EXPECT_TRUE(r.hit_limit || r.is_optimal());
  EXPECT_EQ(r.design.registers.num_registers(), 5);
}

TEST(Synthesizer, BistAreaAtLeastReference) {
  const hls::Benchmark b = hls::make_fig1();
  const Synthesizer synth(b.dfg, b.modules, quick());
  const SynthesisResult ref = synth.synthesize_reference();
  for (int k = 1; k <= 2; ++k) {
    const SynthesisResult r = synth.synthesize_bist(k);
    EXPECT_GE(r.design.area.total(), ref.design.area.total()) << "k=" << k;
  }
}

TEST(Synthesizer, WidthScalingScalesArea) {
  const hls::Benchmark b = hls::make_fig1();
  SynthesizerOptions wide = quick();
  wide.cost = bist::CostModel::scaled_to_width(16);
  const SynthesisResult r8 =
      Synthesizer(b.dfg, b.modules, quick()).synthesize_reference();
  const SynthesisResult r16 =
      Synthesizer(b.dfg, b.modules, wide).synthesize_reference();
  ASSERT_TRUE(r8.is_optimal());
  ASSERT_TRUE(r16.is_optimal());
  EXPECT_EQ(r16.design.area.total(), 2 * r8.design.area.total());
}

TEST(Synthesizer, LimitStopWithoutAnyDesignReportsItsBound) {
  // One node is not enough for the paulin reference to find an incumbent,
  // and the reference has no baseline to fall back on: the result is "no
  // design within the limit" with the root bound, not a failure. The BIST
  // row at the same limit still stands on its seeding baseline.
  const hls::Benchmark b = hls::benchmark_by_name("paulin");
  SynthesizerOptions o = quick();
  o.solver.node_limit = 1;
  o.solver.num_threads = 1;
  const Synthesizer synth(b.dfg, b.modules, o);
  const SynthesisResult ref = synth.synthesize_reference();
  EXPECT_FALSE(ref.has_design);
  EXPECT_TRUE(ref.hit_limit);
  EXPECT_EQ(ref.status, ilp::SolveStatus::kNoSolutionFound);
  EXPECT_EQ(ref.design.area.total(), 0);
  EXPECT_GT(ref.best_bound, 0.0);
  EXPECT_LE(ref.best_bound, 1520.0);  // the proven reference area
  const SynthesisResult k2 = synth.synthesize_bist(2);
  EXPECT_TRUE(k2.has_design);
  EXPECT_GE(k2.design.area.total(), 2112);
}

TEST(Synthesizer, SerialTrajectoryIsPinned) {
  // The serial search is deterministic, so one small solve's traced
  // counters pin the whole trajectory: a change to any pivot choice (the
  // Markowitz bump search, the dual ratio test, Devex pricing) or to the
  // branching order moves at least one of them. A change meant to leave
  // the trajectory alone must leave every number here as it is; one that
  // moves it on purpose re-measures them and says so.
  const hls::Benchmark b = hls::benchmark_by_name("tseng");
  SynthesizerOptions o;
  o.solver.num_threads = 1;
  const SynthesisResult r = Synthesizer(b.dfg, b.modules, o).synthesize_bist(3);
  ASSERT_EQ(r.status, ilp::SolveStatus::kOptimal);
  EXPECT_EQ(r.design.area.total(), 1856);
  const ilp::Stats& st = r.solver_stats;
  EXPECT_EQ(st.nodes, 343);
  EXPECT_EQ(st.lp_iterations, 9072);
  EXPECT_EQ(st.lp_dual_iterations, 9072);
  EXPECT_EQ(st.lp_refactorizations, 88);
  EXPECT_EQ(st.lp_bound_flips, 1213);
  EXPECT_EQ(st.lp_cutoff_stops, 172);
}

/// True when the sessions are numbered in order of their lowest module,
/// the one labeling the symsess_ rows admit.
bool sessions_in_canonical_order(const bist::BistAssignment& bist) {
  int next = 0;
  for (const auto& plan : bist.modules) {
    if (plan.session > next) return false;
    if (plan.session == next) ++next;
  }
  return true;
}

// Serial Table-2 rows proven with the session-ordering rows in, one solve
// per test so the rows run in parallel. Each row pins its proven area and
// checks it against the k-1 row of the same circuit, which its own test
// proves: sessions may stay empty, so the optimum never rises with k.
struct ProvenRow {
  const char* circuit;
  int k;
  int area;
};

constexpr ProvenRow kProvenRows[] = {
    {"fig1", 1, 1236},   {"fig1", 2, 1056},   {"tseng", 1, 2036},
    {"tseng", 2, 1856},  {"tseng", 3, 1856},  {"paulin", 1, 2632},
    {"paulin", 2, 2112}, {"paulin", 3, 2112}, {"paulin", 4, 2064},
};

void PrintTo(const ProvenRow& row, std::ostream* os) {
  *os << row.circuit << " k=" << row.k;
}

class TableTwoRow : public ::testing::TestWithParam<ProvenRow> {};

TEST_P(TableTwoRow, ProvesPinnedAreaAuditedAndCanonical) {
  const ProvenRow row = GetParam();
  const hls::Benchmark b = hls::benchmark_by_name(row.circuit);
  const SynthesisResult r =
      Synthesizer(b.dfg, b.modules, quick(60.0)).synthesize_bist(row.k);
  ASSERT_EQ(r.status, ilp::SolveStatus::kOptimal);
  EXPECT_TRUE(r.solver_stats.audit_ran);
  EXPECT_TRUE(r.solver_stats.audit_incumbent_ok);
  EXPECT_TRUE(r.solver_stats.audit_bound_ok);
  EXPECT_EQ(r.design.area.total(), row.area);
  EXPECT_TRUE(sessions_in_canonical_order(r.design.bist));
  for (const ProvenRow& prev : kProvenRows)
    if (std::string(prev.circuit) == row.circuit && prev.k == row.k - 1)
      EXPECT_LE(r.design.area.total(), prev.area);
}

INSTANTIATE_TEST_SUITE_P(
    Serial, TableTwoRow, ::testing::ValuesIn(kProvenRows),
    [](const ::testing::TestParamInfo<ProvenRow>& info) {
      return std::string(info.param.circuit) + "_k" +
             std::to_string(info.param.k);
    });

}  // namespace
}  // namespace advbist::core
