// ADVBIST formulation invariants on the Fig. 1 example and the Fig. 2/3
// partial-datapath scenarios: model shape, reference synthesis optimality,
// BIST synthesis per k, symmetry-reduction equivalence, decoded-design
// validation.
#include <gtest/gtest.h>

#include <string>

#include "core/formulation.hpp"
#include "core/synthesizer.hpp"
#include "hls/benchmarks.hpp"

namespace advbist::core {
namespace {

SynthesizerOptions fast_options() {
  SynthesizerOptions o;
  o.solver.time_limit_seconds = 60.0;
  return o;
}

TEST(Formulation, Fig1ModelShape) {
  const hls::Benchmark b = hls::make_fig1();
  FormulationOptions fo;
  fo.include_bist = true;
  fo.k = 1;
  const Formulation f(b.dfg, b.modules, fo);
  EXPECT_EQ(f.num_registers(), 3);
  EXPECT_GT(f.model().num_variables(), 50);
  EXPECT_GT(f.model().num_constraints(), 50);
  EXPECT_TRUE(f.model().objective_is_integral());
  EXPECT_DOUBLE_EQ(f.objective_offset(), 3 * 208.0);
}

TEST(Formulation, RegisterBudgetBelowCrossingThrows) {
  const hls::Benchmark b = hls::make_fig1();
  FormulationOptions fo;
  fo.num_registers = 2;  // crossing is 3
  EXPECT_THROW(Formulation(b.dfg, b.modules, fo), std::invalid_argument);
}

TEST(Formulation, MoreSessionsThanModulesThrows) {
  const hls::Benchmark b = hls::make_fig1();
  FormulationOptions fo;
  fo.k = 3;  // only 2 modules
  EXPECT_THROW(Formulation(b.dfg, b.modules, fo), std::invalid_argument);
}

TEST(Fig1, ReferenceSynthesisIsOptimalAndLean) {
  const hls::Benchmark b = hls::make_fig1();
  const Synthesizer synth(b.dfg, b.modules, fast_options());
  const SynthesisResult ref = synth.synthesize_reference();
  ASSERT_TRUE(ref.is_optimal());
  EXPECT_EQ(ref.design.area.num_registers, 3);
  // 3 plain registers + minimal muxes; cost must equal the ILP objective.
  EXPECT_EQ(ref.design.area.total(), static_cast<int>(ref.objective));
  EXPECT_EQ(ref.design.area.register_transistors, 3 * 208);
  // The datapath must realize every DFG edge (validated inside decode()).
}

TEST(Fig1, BistOneSessionSynthesizes) {
  const hls::Benchmark b = hls::make_fig1();
  const Synthesizer synth(b.dfg, b.modules, fast_options());
  const SynthesisResult r = synth.synthesize_bist(1);
  ASSERT_TRUE(r.is_optimal());
  // All four test-register rules re-validated in decode(); spot-check the
  // session structure here.
  ASSERT_EQ(r.design.bist.modules.size(), 2u);
  for (const auto& plan : r.design.bist.modules) EXPECT_EQ(plan.session, 0);
  // One-session testing of both modules forces some register to act as TPG
  // and SR simultaneously somewhere or distinct SRs; area strictly above
  // reference.
  const SynthesisResult ref = synth.synthesize_reference();
  EXPECT_GT(r.design.area.total(), ref.design.area.total());
}

TEST(Fig1, TwoSessionsNeverCostMoreThanOne) {
  const hls::Benchmark b = hls::make_fig1();
  const Synthesizer synth(b.dfg, b.modules, fast_options());
  const SynthesisResult k1 = synth.synthesize_bist(1);
  const SynthesisResult k2 = synth.synthesize_bist(2);
  ASSERT_TRUE(k1.is_optimal());
  ASSERT_TRUE(k2.is_optimal());
  // Sessions may stay empty, so the one-session design is feasible at k = 2
  // and the optimum can only fall as k grows. Both dominate the reference.
  EXPECT_LE(k2.design.area.total(), k1.design.area.total());
  const SynthesisResult ref = synth.synthesize_reference();
  EXPECT_GE(k2.design.area.total(), ref.design.area.total());
}

// Section 3.5's clique pinning and the session-ordering rows only remove
// relabeled copies of designs: the proven optimum must not move.
void expect_symmetry_reduction_preserves_optimum(const hls::Benchmark& b,
                                                 int k) {
  SCOPED_TRACE(b.dfg.name() + " k=" + std::to_string(k));
  SynthesizerOptions with = fast_options();
  SynthesizerOptions without = fast_options();
  without.symmetry_reduction = false;
  const SynthesisResult r1 =
      Synthesizer(b.dfg, b.modules, with).synthesize_bist(k);
  const SynthesisResult r2 =
      Synthesizer(b.dfg, b.modules, without).synthesize_bist(k);
  ASSERT_TRUE(r1.is_optimal());
  ASSERT_TRUE(r2.is_optimal());
  EXPECT_EQ(r1.design.area.total(), r2.design.area.total());
}

TEST(Fig1, SymmetryReductionPreservesOptimum) {
  const hls::Benchmark b = hls::make_fig1();
  for (int k = 1; k <= 2; ++k)
    expect_symmetry_reduction_preserves_optimum(b, k);
}

// Without any reduction tseng k = 2 does not prove within a minute, so the
// tseng differential drops only the session-ordering rows and keeps the
// clique pinning. The rows add no variables: both solutions decode.
lp::Model without_session_order_rows(const lp::Model& model) {
  lp::Model out;
  for (const lp::VariableDef& v : model.variables())
    out.add_variable(v.lower, v.upper, v.objective, v.type, v.name);
  for (const lp::ConstraintDef& c : model.constraints()) {
    if (c.name.rfind("symsess_", 0) == 0) continue;
    lp::LinExpr e;
    for (const lp::Term& t : c.terms) e.add(t.var, t.coeff);
    out.add_constraint(std::move(e), c.sense, c.rhs, c.name);
  }
  return out;
}

TEST(Tseng, SessionOrderRowsPreserveOptimumAtTwoSessions) {
  const hls::Benchmark b = hls::make_tseng();
  FormulationOptions fo;
  fo.k = 2;
  const Formulation f(b.dfg, b.modules, fo);
  ilp::Options so;
  so.time_limit_seconds = 60;
  so.branch_priority = f.branch_priorities();
  const ilp::Solution with = ilp::Solver(so).solve(f.model());
  const ilp::Solution without =
      ilp::Solver(so).solve(without_session_order_rows(f.model()));
  ASSERT_TRUE(with.is_optimal());
  ASSERT_TRUE(without.is_optimal());
  EXPECT_EQ(f.decode(with).area.total(), f.decode(without).area.total());
}

TEST(Fig1, CommutativeSwapsNeverHurt) {
  const hls::Benchmark b = hls::make_fig1();
  SynthesizerOptions with = fast_options();
  SynthesizerOptions without = fast_options();
  without.commutative_swaps = false;
  const SynthesisResult r1 =
      Synthesizer(b.dfg, b.modules, with).synthesize_reference();
  const SynthesisResult r2 =
      Synthesizer(b.dfg, b.modules, without).synthesize_reference();
  ASSERT_TRUE(r1.is_optimal());
  ASSERT_TRUE(r2.is_optimal());
  EXPECT_LE(r1.design.area.total(), r2.design.area.total());
}

TEST(Fig1, ExtraRegisterNeverImprovesOptimum) {
  const hls::Benchmark b = hls::make_fig1();
  SynthesizerOptions four = fast_options();
  four.num_registers = 4;
  const SynthesisResult r3 =
      Synthesizer(b.dfg, b.modules, fast_options()).synthesize_reference();
  const SynthesisResult r4 =
      Synthesizer(b.dfg, b.modules, four).synthesize_reference();
  ASSERT_TRUE(r3.is_optimal());
  ASSERT_TRUE(r4.is_optimal());
  // A fourth register adds 208 transistors of register area; mux savings
  // cannot recoup a whole register on this tiny datapath.
  EXPECT_LT(r3.design.area.total(), r4.design.area.total());
}

// --- Fig. 2 scenario: SR assignment must respect module->register wiring ---
TEST(Fig2Scenario, SrOnlyOnConnectedRegisters) {
  const hls::Benchmark b = hls::make_fig1();
  const Synthesizer synth(b.dfg, b.modules, fast_options());
  for (int k = 1; k <= 2; ++k) {
    const SynthesisResult r = synth.synthesize_bist(k);
    ASSERT_TRUE(r.is_optimal()) << "k=" << k;
    for (std::size_t m = 0; m < r.design.bist.modules.size(); ++m) {
      const int sr = r.design.bist.modules[m].sr_reg;
      EXPECT_TRUE(r.design.datapath.reg_sources[sr].count(static_cast<int>(m)))
          << "Eq. 6 violated for module " << m;
    }
  }
}

// --- Fig. 3 scenario: TPG rules (Eqs. 9-13) on the decoded design ---
TEST(Fig3Scenario, TpgRulesHold) {
  const hls::Benchmark b = hls::make_fig1();
  const Synthesizer synth(b.dfg, b.modules, fast_options());
  const SynthesisResult r = synth.synthesize_bist(2);
  ASSERT_TRUE(r.is_optimal());
  for (std::size_t m = 0; m < r.design.bist.modules.size(); ++m) {
    const auto& plan = r.design.bist.modules[m];
    // Each port has exactly one TPG, connected, and not shared across the
    // module's ports.
    ASSERT_EQ(plan.tpg_reg.size(), 2u);
    EXPECT_NE(plan.tpg_reg[0], plan.tpg_reg[1]);
    for (int l = 0; l < 2; ++l) {
      ASSERT_GE(plan.tpg_reg[l], 0);  // fig1 has no constants
      EXPECT_TRUE(
          r.design.datapath.port_reg_sources[m][l].count(plan.tpg_reg[l]));
    }
  }
}

TEST(Tseng, ReferenceMatchesMinimalRegisters) {
  const hls::Benchmark b = hls::make_tseng();
  SynthesizerOptions o = fast_options();
  o.solver.time_limit_seconds = 120.0;
  const Synthesizer synth(b.dfg, b.modules, o);
  const SynthesisResult ref = synth.synthesize_reference();
  ASSERT_TRUE(ref.status == ilp::SolveStatus::kOptimal ||
              ref.status == ilp::SolveStatus::kFeasible);
  EXPECT_EQ(ref.design.area.num_registers, 5);
  EXPECT_EQ(ref.design.area.register_transistors, 5 * 208);
}

}  // namespace
}  // namespace advbist::core
