// In-tree reliability branching: bounded dual-simplex probes at nodes whose
// branching candidate has too few pseudocost observations.
//
// The headline suite is a differential proof: probes steer node ORDER and
// prune via exact degradations, but must never change the proven optimum —
// at any thread count, on the paper's circuits and on a sweep of generated
// MILPs. The allowance suite pins the depth-decay schedule
// (reliability_probe_allowance) as a contract, and the store suite pins
// purge(): a globally fixed variable's history must vanish from the blend.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/formulation.hpp"
#include "hls/benchmarks.hpp"
#include "ilp/pseudocost.hpp"
#include "ilp/solver.hpp"
#include "lp/model.hpp"
#include "util/rng.hpp"

namespace advbist::ilp {
namespace {

using lp::LinExpr;
using lp::Model;
using lp::Sense;
using lp::VarType;

// Same shape as the parallel-equivalence sweep: mostly binaries, a few
// general integers and continuous helpers, so probes see both probeable
// and unprobeable candidates.
Model random_milp(std::uint64_t seed) {
  util::Rng rng(seed);
  Model m;
  const int n = rng.next_int(6, 12);
  for (int v = 0; v < n; ++v) {
    const int kind = rng.next_int(0, 5);
    if (kind <= 3)
      m.add_binary(rng.next_int(-6, 6), "");
    else if (kind == 4)
      m.add_integer(0, rng.next_int(2, 4), rng.next_int(-6, 6), "");
    else
      m.add_variable(0, 2, rng.next_int(-4, 4), VarType::kContinuous, "");
  }
  const int rows = rng.next_int(2, 5);
  for (int r = 0; r < rows; ++r) {
    LinExpr e;
    for (int v = 0; v < n; ++v) {
      const int coeff = rng.next_int(-2, 3);
      if (coeff != 0) e.add(v, coeff);
    }
    const Sense sense =
        rng.next_bool(0.8) ? Sense::kLessEqual : Sense::kGreaterEqual;
    m.add_constraint(std::move(e), sense, rng.next_int(1, 8));
  }
  return m;
}

Solution solve(const Model& m, int threads, int probe_budget,
               const Options& base = {}) {
  Options opt = base;
  opt.num_threads = threads;
  opt.time_limit_seconds = 120.0;
  opt.reliability_probe_budget = probe_budget;
  return Solver(opt).solve(m);
}

// Probes-on vs probes-off must agree on status and proven objective at
// every thread count; the probes-on run must respect the global budget.
void expect_probe_differential(const Model& m, int budget,
                               const Options& base = {}) {
  const Solution off = solve(m, 1, 0, base);
  EXPECT_EQ(off.stats.reliability_probed, 0);
  EXPECT_EQ(off.stats.reliability_fixed, 0);
  EXPECT_EQ(off.stats.reliability_tightened, 0);
  for (const int threads : {1, 2, 4}) {
    const Solution on = solve(m, threads, budget, base);
    ASSERT_EQ(on.status, off.status) << threads << " threads";
    if (off.has_solution()) {
      ASSERT_NEAR(on.objective, off.objective, 1e-6) << threads << " threads";
      EXPECT_LE(m.max_violation(on.values, true), 1e-6)
          << threads << " threads";
    }
    EXPECT_LE(on.stats.reliability_probed, static_cast<long long>(budget))
        << threads << " threads";
    EXPECT_GE(on.stats.reliability_probed, 0) << threads << " threads";
  }
}

TEST(BranchingProbes, GeneratedMilpsSameOptimumWithAndWithoutProbes) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    // A tiny reliability threshold plus a small budget makes the early
    // tree probe aggressively on these small models.
    expect_probe_differential(random_milp(seed), 32);
  }
}

TEST(BranchingProbes, Fig1SameProvenOptimumAcrossThreadCounts) {
  const hls::Benchmark bench = hls::benchmark_by_name("fig1");
  core::FormulationOptions fo;
  fo.include_bist = true;
  fo.k = 2;
  const core::Formulation f(bench.dfg, bench.modules, fo);
  Options base;
  base.branch_priority = f.branch_priorities();
  expect_probe_differential(f.model(), 64, base);
}

TEST(BranchingProbes, TsengSameProvenOptimumAcrossThreadCounts) {
  const hls::Benchmark bench = hls::benchmark_by_name("tseng");
  core::FormulationOptions fo;
  fo.include_bist = true;
  fo.k = 2;
  const core::Formulation f(bench.dfg, bench.modules, fo);
  Options base;
  base.branch_priority = f.branch_priorities();
  expect_probe_differential(f.model(), 64, base);
}

TEST(BranchingProbes, PaulinSameProvenOptimumAcrossThreadCounts) {
  // Full-determinism material (same gate as the paulin FullSolve proof):
  // the quick loop stays quick, CI's long-determinism job runs it.
  if (std::getenv("ADVBIST_FULL_DETERMINISM") == nullptr)
    GTEST_SKIP() << "set ADVBIST_FULL_DETERMINISM=1 to run the paulin "
                    "probe differential";
  const hls::Benchmark bench = hls::benchmark_by_name("paulin");
  core::FormulationOptions fo;
  fo.include_bist = true;
  fo.k = 2;
  const core::Formulation f(bench.dfg, bench.modules, fo);
  Options base;
  base.branch_priority = f.branch_priorities();
  base.time_limit_seconds = 24.0 * 3600.0;
  expect_probe_differential(f.model(), 64, base);
}

TEST(BranchingProbes, ProbeSolvesStayOutOfTheDualSolveCount) {
  // lp_dual_solves measures the warm-start health of NODE re-solves, so
  // the iteration-capped probes of root strong branching and of in-tree
  // reliability branching are kept out of it. With one node, no cuts, no
  // rc fixing and no dive, the only counted dual solve is that node's LP,
  // however many probes ran around it.
  for (const char* name : {"fig1", "tseng", "paulin"}) {
    SCOPED_TRACE(name);
    const hls::Benchmark bench = hls::benchmark_by_name(name);
    core::FormulationOptions fo;
    fo.include_bist = true;
    fo.k = 2;
    const core::Formulation f(bench.dfg, bench.modules, fo);
    Options base;
    base.node_limit = 1;
    base.use_clique_cuts = false;
    base.use_cover_cuts = false;
    base.use_rc_fixing = false;
    base.use_rounding_heuristic = false;

    Options strong = base;
    strong.strong_branch_vars = 12;
    const Solution sb = solve(f.model(), 1, 0, strong);
    EXPECT_EQ(sb.stats.strong_branch_probed, 24);
    EXPECT_EQ(sb.stats.reliability_probed, 0);
    EXPECT_EQ(sb.stats.lp_dual_solves, 1);

    Options reliability = base;
    reliability.strong_branch_vars = 0;
    const Solution rel = solve(f.model(), 1, 64, reliability);
    EXPECT_EQ(rel.stats.strong_branch_probed, 0);
    EXPECT_EQ(rel.stats.reliability_probed, 16);  // the depth-0 allowance
    EXPECT_EQ(rel.stats.lp_dual_solves, 1);
  }
}

TEST(BranchingProbes, RootBasisSeedsTheFirstNodeAndTheAudit) {
  // Probes restore the basis they started from, and the tree's first node
  // starts from the root basis strong branching left: that node re-solves
  // warm (no fall back to a cold primal solve) and the exit audit finds
  // the root LP still at its optimum (no pivots). Two workers also read
  // the shared root basis concurrently.
  const hls::Benchmark bench = hls::benchmark_by_name("tseng");
  core::FormulationOptions fo;
  fo.include_bist = true;
  fo.k = 3;
  const core::Formulation f(bench.dfg, bench.modules, fo);
  for (const int threads : {1, 2}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    Options opt;
    opt.branch_priority = f.branch_priorities();
    opt.node_limit = 1;
    opt.num_threads = threads;
    const Solution s = Solver(opt).solve(f.model());
    EXPECT_EQ(s.stats.nodes, 1);
    EXPECT_DOUBLE_EQ(s.stats.best_bound + f.objective_offset(), 1696.0);
    EXPECT_EQ(s.stats.lp_dual_fallbacks, 0);
    EXPECT_TRUE(s.stats.audit_bound_ok);
    EXPECT_EQ(s.stats.audit_lp_iterations, 0);
  }
}

// ---------------------------------------------------------------------------
// The depth-decay allowance schedule is a contract.
// ---------------------------------------------------------------------------

TEST(ReliabilityAllowance, DecaysByHalvingEveryTwoLevels) {
  EXPECT_EQ(reliability_probe_allowance(100, 0), 16);
  EXPECT_EQ(reliability_probe_allowance(100, 1), 16);
  EXPECT_EQ(reliability_probe_allowance(100, 2), 8);
  EXPECT_EQ(reliability_probe_allowance(100, 4), 4);
  EXPECT_EQ(reliability_probe_allowance(100, 6), 2);
  EXPECT_EQ(reliability_probe_allowance(100, 8), 1);
  EXPECT_EQ(reliability_probe_allowance(100, 9), 1);
}

TEST(ReliabilityAllowance, NothingFromDepthTenOn) {
  EXPECT_EQ(reliability_probe_allowance(100, 10), 0);
  EXPECT_EQ(reliability_probe_allowance(100, 11), 0);
  EXPECT_EQ(reliability_probe_allowance(100, 1000), 0);
}

TEST(ReliabilityAllowance, CappedByTheRemainingBudget) {
  EXPECT_EQ(reliability_probe_allowance(3, 0), 3);
  EXPECT_EQ(reliability_probe_allowance(1, 3), 1);
  EXPECT_EQ(reliability_probe_allowance(0, 0), 0);
  EXPECT_EQ(reliability_probe_allowance(-5, 0), 0);
  EXPECT_EQ(reliability_probe_allowance(0, 7), 0);
}

TEST(ReliabilityAllowance, NegativeDepthBehavesLikeRoot) {
  EXPECT_EQ(reliability_probe_allowance(100, -1), 16);
}

// ---------------------------------------------------------------------------
// PseudocostStore purge: a fixed variable's history must vanish.
// ---------------------------------------------------------------------------

TEST(PseudocostStore, PurgeForgetsOneVariableAndItsBlendContribution) {
  PseudocostStore store(3);
  store.record(0, /*up=*/true, 10.0, /*weight=*/2);
  store.record(0, /*up=*/false, 6.0, /*weight=*/2);
  store.record(1, /*up=*/true, 2.0);
  ASSERT_EQ(store.count(0, true), 2);
  ASSERT_EQ(store.count(0, false), 2);

  double avg_up = 0.0, avg_down = 0.0;
  store.global_averages(avg_up, avg_down);
  // Var 0 dominates both blends before the purge.
  EXPECT_NEAR(avg_up, (10.0 + 2.0) / 2.0, 1e-12);
  EXPECT_NEAR(avg_down, 6.0, 1e-12);

  store.purge(0);
  EXPECT_EQ(store.count(0, true), 0);
  EXPECT_EQ(store.count(0, false), 0);
  store.global_averages(avg_up, avg_down);
  EXPECT_NEAR(avg_up, 2.0, 1e-12);  // only var 1's history remains
  EXPECT_NEAR(avg_down, 0.0, 1e-12);
  // With no history, the blended estimate collapses to the global average.
  EXPECT_NEAR(store.estimate(0, true, 2, avg_up), avg_up, 1e-12);

  // Untouched variables keep their history.
  EXPECT_EQ(store.count(1, true), 1);
  EXPECT_NEAR(store.estimate(1, true, 1, 0.0), 2.0, 1e-12);
}

}  // namespace
}  // namespace advbist::ilp
