// Randomized end-to-end property sweep: random scheduled DFGs go through
// greedy binding, reference synthesis and 1- and 2-test-session ADVBIST
// synthesis.
// Formulation::decode() re-validates every design from first principles
// (register compatibility, Eqs. 6-13, ILP-objective/area reconciliation),
// so every seed that solves is a full-pipeline correctness witness.
//
// The sweep is fully seed-deterministic: every random draw derives from the
// effective seed announced via SCOPED_TRACE on failure, and the whole sweep
// can be shifted to a fresh seed range with ADVBIST_FUZZ_SEED=<base> (the
// default base is 0, i.e. seeds 1..12). To reproduce one failing case, rerun
// the named gtest case with the same ADVBIST_FUZZ_SEED.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>

#include "baselines/baselines.hpp"
#include "core/synthesizer.hpp"
#include "hls/allocation.hpp"
#include "hls/dfg.hpp"
#include "util/rng.hpp"

namespace advbist {
namespace {

/// Base offset added to every fuzz seed; overridable for fresh sweeps and
/// for replaying a differential failure from another machine's logs.
std::uint64_t fuzz_seed_base() {
  if (const char* env = std::getenv("ADVBIST_FUZZ_SEED"))
    return std::strtoull(env, nullptr, 10);
  return 0;
}

std::string seed_trace(std::uint64_t seed) {
  return "fuzz seed " + std::to_string(seed) +
         " (base ADVBIST_FUZZ_SEED=" + std::to_string(fuzz_seed_base()) +
         "; rerun this gtest case with the same env to reproduce)";
}

/// Generates a random scheduled DFG: a few primary inputs, then ops whose
/// operands are drawn from already-defined values (respecting schedule
/// feasibility), occasionally constants.
hls::Dfg random_dfg(std::uint64_t seed, int num_ops) {
  util::Rng rng(seed);
  hls::Dfg dfg("fuzz" + std::to_string(seed));
  struct Value {
    int var;
    int ready;  // earliest cycle a consumer may run
  };
  std::vector<Value> values;
  const int inputs = rng.next_int(2, std::min(4, num_ops));
  for (int i = 0; i < inputs; ++i)
    values.push_back({dfg.add_variable("in" + std::to_string(i)), 0});
  int constants = 0;
  for (int o = 0; o < num_ops; ++o) {
    const hls::OpType type = static_cast<hls::OpType>(rng.next_int(0, 2));
    // First operand: the o-th primary input while any remain unconsumed
    // (every variable must be used), then a random defined value.
    const Value a =
        o < inputs
            ? values[o]
            : values[rng.next_int(0, static_cast<int>(values.size()) - 1)];
    hls::ValueRef second;
    int ready = a.ready;
    if (rng.next_bool(0.25) && constants < 3) {
      second = hls::ValueRef::constant(
          dfg.add_constant(0.5 * ++constants, "c" + std::to_string(constants)));
    } else {
      // Avoid b == a: an operation whose two ports read the same variable
      // can never satisfy Eq. 13 (both ports wired from one register), so
      // such graphs are trivially BIST-infeasible.
      Value b = values[rng.next_int(0, static_cast<int>(values.size()) - 1)];
      for (int tries = 0; b.var == a.var && tries < 8; ++tries)
        b = values[rng.next_int(0, static_cast<int>(values.size()) - 1)];
      if (b.var == a.var) {
        second = hls::ValueRef::constant(
            dfg.add_constant(0.5 * ++constants, "c" + std::to_string(constants)));
      } else {
        second = hls::ValueRef::variable(b.var);
        ready = std::max(ready, b.ready);
      }
    }
    const int step = ready + rng.next_int(0, 1);
    const int out = dfg.add_variable("t" + std::to_string(o));
    dfg.add_operation(type, step, {hls::ValueRef::variable(a.var), second},
                      out, "");
    values.push_back({out, step + 1});
  }
  dfg.validate();
  return dfg;
}

class FuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzTest, FullPipelineValidates) {
  const std::uint64_t seed = fuzz_seed_base() + GetParam();
  SCOPED_TRACE(seed_trace(seed));
  const hls::Dfg dfg = random_dfg(seed, 5);
  const hls::ModuleAllocation modules = hls::bind_operations_greedy(dfg);

  core::SynthesizerOptions o;
  o.solver.time_limit_seconds = 20;
  const core::Synthesizer synth(dfg, modules, o);

  const core::SynthesisResult ref = synth.synthesize_reference();
  EXPECT_EQ(ref.design.registers.num_registers(), dfg.max_crossing());

  try {
    const core::SynthesisResult bist = synth.synthesize_bist(1);
    // decode() threw if anything was inconsistent; check dominance.
    EXPECT_GE(bist.design.area.total(), ref.design.area.total());
  } catch (const std::invalid_argument& e) {
    // A random graph may be genuinely untestable in one session (e.g. more
    // modules than SR-capable registers); proven infeasibility is a valid,
    // validated outcome.
    EXPECT_NE(std::string(e.what()).find("infeasible"), std::string::npos)
        << e.what();
  }

  // Left-edge allocation is optimal on interval graphs regardless.
  const auto regs = hls::left_edge_allocate(dfg);
  EXPECT_EQ(regs.num_registers(), dfg.max_crossing());
  // Heuristics may legitimately fail on untestable graphs; they must not
  // crash in any other way.
  try {
    baselines::run_bits(dfg, modules, 1, bist::CostModel::paper_8bit());
  } catch (const std::invalid_argument&) {
  }
}

TEST_P(FuzzTest, OptimalAdvbistDominatesHeuristics) {
  const std::uint64_t seed = (fuzz_seed_base() + GetParam()) * 31 + 7;
  SCOPED_TRACE(seed_trace(seed));
  const hls::Dfg dfg = random_dfg(seed, 4);
  const hls::ModuleAllocation modules = hls::bind_operations_greedy(dfg);
  core::SynthesizerOptions o;
  o.solver.time_limit_seconds = 20;
  core::SynthesisResult adv;
  try {
    adv = core::Synthesizer(dfg, modules, o).synthesize_bist(1);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("infeasible"), std::string::npos)
        << e.what();
    GTEST_SKIP() << "graph untestable in one session (proven)";
  }
  if (!adv.is_optimal()) GTEST_SKIP() << "budget hit; dominance not provable";
  for (const char* method : {"ADVAN", "BITS", "RALLOC"}) {
    try {
      const auto base = baselines::run_baseline(
          method, dfg, modules, 1, bist::CostModel::paper_8bit());
      if (base.registers.num_registers() == adv.design.registers.num_registers())
        EXPECT_LE(adv.design.area.total(), base.area.total()) << method;
    } catch (const std::invalid_argument&) {
      // Heuristic infeasibility on a random graph is acceptable; the ILP
      // solving it anyway is itself the stronger result.
    }
  }
}

// Two test sessions build the session-ordering rows. They and Section 3.5's
// clique pinning only cut relabeled copies of designs, so the optimum must
// not depend on symmetry_reduction, and every design must decode. The
// unreduced model is the slow side: a short budget keeps the sweep cheap,
// and an unproven side is still an upper bound on the proven optimum.
TEST_P(FuzzTest, TwoSessionOptimumIndependentOfSymmetryReduction) {
  const std::uint64_t seed = (fuzz_seed_base() + GetParam()) * 17 + 3;
  SCOPED_TRACE(seed_trace(seed));
  const hls::Dfg dfg = random_dfg(seed, 4);
  const hls::ModuleAllocation modules = hls::bind_operations_greedy(dfg);
  if (modules.num_modules() < 2) GTEST_SKIP() << "one module: k = 2 illegal";

  // Each side yields its design, or nullopt when it proved k = 2
  // infeasible. A side that hit its budget with no design at all (no
  // incumbent and no fitting baseline) makes the case inconclusive.
  bool inconclusive = false;
  using Result = std::optional<core::SynthesisResult>;
  const auto solve = [&](bool reduce) -> Result {
    core::SynthesizerOptions o;
    o.solver.time_limit_seconds = 2;
    o.symmetry_reduction = reduce;
    try {
      return core::Synthesizer(dfg, modules, o).synthesize_bist(2);
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      if (what.find("limit") != std::string::npos)
        inconclusive = true;
      else
        EXPECT_NE(what.find("infeasible"), std::string::npos) << what;
      return std::nullopt;
    }
  };
  const auto on = solve(true);
  const auto off = solve(false);
  if (inconclusive) GTEST_SKIP() << "budget hit before any design";
  if (!on || !off) {
    EXPECT_EQ(on.has_value(), off.has_value()) << "feasibility differs";
    return;
  }
  int next = 0;  // sessions numbered in order of their lowest module
  for (const auto& plan : on->design.bist.modules) {
    EXPECT_LE(plan.session, next);
    if (plan.session == next) ++next;
  }
  if (on->is_optimal() && off->is_optimal())
    EXPECT_EQ(on->design.area.total(), off->design.area.total());
  else if (on->is_optimal() && !off->from_heuristic_fallback)
    EXPECT_LE(on->objective, off->objective);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace advbist
