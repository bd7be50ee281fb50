// Root strong branching and the shared pseudocost store it seeds.
//
// The probe suite pins the bookkeeping of the bounded strong-branching
// probes (they stay out of the node re-solve diagnostic, and they leave the
// root basis for the tree's first node and the exit audit), and the store
// suite pins purge(): a globally fixed variable's history must vanish from
// the blend.
#include <gtest/gtest.h>

#include <string>

#include "core/formulation.hpp"
#include "hls/benchmarks.hpp"
#include "ilp/pseudocost.hpp"
#include "ilp/solver.hpp"

namespace advbist::ilp {
namespace {

TEST(BranchingProbes, ProbeSolvesStayOutOfTheDualSolveCount) {
  // lp_dual_solves measures the warm-start health of NODE re-solves, so
  // the iteration-capped probes of root strong branching are kept out of
  // it. With one node, no cuts, no rc fixing and no dive, the only counted
  // dual solve is that node's LP, however many probes ran around it.
  for (const char* name : {"fig1", "tseng", "paulin"}) {
    SCOPED_TRACE(name);
    const hls::Benchmark bench = hls::benchmark_by_name(name);
    core::FormulationOptions fo;
    fo.include_bist = true;
    fo.k = 2;
    const core::Formulation f(bench.dfg, bench.modules, fo);
    Options opt;
    opt.node_limit = 1;
    opt.use_clique_cuts = false;
    opt.use_cover_cuts = false;
    opt.use_rc_fixing = false;
    opt.use_rounding_heuristic = false;
    opt.strong_branch_vars = 12;
    const Solution sb = Solver(opt).solve(f.model());
    EXPECT_EQ(sb.stats.strong_branch_probed, 24);
    EXPECT_EQ(sb.stats.lp_dual_solves, 1);
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
