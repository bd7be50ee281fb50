// The simplex's maintained work lists against their rebuild. FTRAN and
// BTRAN walk lists of the factor slots that can change a solve (l_work_,
// u_work_), and the dual PRICE walks a list of the nonbasic columns. The
// Forrest–Tomlin update and every pivot keep them current instead of
// rebuilding them, so a missed update would silently skip a live slot or
// price a basic column. SimplexSolver::work_lists_match_for_testing()
// rebuilds all of them from the factors and the basis and compares: here
// after every pivot of seeded dual sequences on a Table-2 LP, after
// add_rows, delete_rows, both set_basis paths, a cold start, and through
// the recovery ladder under forced singular factorizations and perturbed
// update diagonals.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/formulation.hpp"
#include "hls/benchmarks.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "update_chain.hpp"
#include "util/fault_injector.hpp"
#include "util/rng.hpp"

namespace advbist::lp {
namespace {

/// The LP relaxation of a Table-2 BIST formulation.
Model table2_lp(const char* circuit, int k) {
  const hls::Benchmark b = hls::benchmark_by_name(circuit);
  core::FormulationOptions fo;
  fo.include_bist = true;
  fo.k = k;
  return core::Formulation(b.dfg, b.modules, fo).model();
}

struct ScopedInjector {
  explicit ScopedInjector(util::FaultInjector* fi) {
    util::FaultInjector::install(fi);
  }
  ~ScopedInjector() { util::FaultInjector::install(nullptr); }
  ScopedInjector(const ScopedInjector&) = delete;
  ScopedInjector& operator=(const ScopedInjector&) = delete;
};

/// Runs solve_dual() one pivot at a time (an iteration cap of one per
/// call) until it stops on something other than the cap, checking the
/// lists after every call. Returns the number of capped calls, i.e. pivots.
int step_dual(SimplexSolver& s, int max_pivots) {
  s.set_max_iterations(1);
  int pivots = 0;
  for (; pivots < max_pivots; ++pivots) {
    const LpStatus status = s.solve_dual().status;
    EXPECT_TRUE(s.work_lists_match_for_testing()) << "after pivot " << pivots;
    if (status != LpStatus::kIterLimit) break;
  }
  s.set_max_iterations(SimplexOptions{}.max_iterations);
  return pivots;
}

/// Fixes a seeded structural column at one of its bounds.
std::pair<int, std::pair<double, double>> fix_random_column(
    SimplexSolver& s, const Model& m, util::Rng& rng) {
  const int v = rng.next_int(0, m.num_variables() - 1);
  const std::pair<double, double> old{s.variable_lower(v),
                                      s.variable_upper(v)};
  const double at = rng.next_bool(0.5) ? old.first : old.second;
  s.set_variable_bounds(v, at, at);
  return {v, old};
}

TEST(SimplexWorkLists, MatchTheirRebuildAfterEveryDualPivot) {
  const Model m = table2_lp("tseng", 2);
  SimplexSolver s(m);
  util::Rng rng(20261021ULL);
  // The cold dual start from the slack basis, then seeded fixings from the
  // root basis, each stepped to its end and undone.
  int pivots = step_dual(s, 5000);
  EXPECT_TRUE(s.work_lists_match_for_testing());
  int max_updates = 0;
  for (int probe = 0; probe < 12; ++probe) {
    const auto [v, old] = fix_random_column(s, m, rng);
    pivots += step_dual(s, 2000);
    max_updates = std::max(max_updates, s.updates_since_refactor());
    s.set_variable_bounds(v, old.first, old.second);
  }
  EXPECT_GT(pivots, 100);
  EXPECT_GT(max_updates, 0);  // the lists went through LU updates
}

TEST(SimplexWorkLists, MatchAfterRowAndBasisChanges) {
  const Model m = table2_lp("tseng", 2);
  SimplexSolver s(m);
  ASSERT_EQ(s.solve_dual().status, LpStatus::kOptimal);
  const SimplexSolver::Basis root = s.basis();
  const int n = m.num_variables();

  // Pending updates, then rows appended through the bordered factors.
  ASSERT_GT(apply_updates(s, n, 15, 3), 0);
  std::vector<ConstraintDef> rows;
  for (int i = 0; i < 3; ++i) {
    ConstraintDef c;
    for (int v = i; v < n; v += 7) c.terms.push_back(Term{v, 1.0});
    c.sense = Sense::kLessEqual;
    c.rhs = 1e6;  // never binds: the slacks stay basic
    rows.push_back(std::move(c));
  }
  s.add_rows(rows);
  EXPECT_TRUE(s.work_lists_match_for_testing()) << "after add_rows";
  ASSERT_EQ(s.solve_dual().status, LpStatus::kOptimal);
  EXPECT_TRUE(s.work_lists_match_for_testing());
  const int first_added = s.num_rows() - 3;
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(s.added_row_slack_basic(i));
  s.delete_rows({first_added, first_added + 1, first_added + 2});
  EXPECT_TRUE(s.work_lists_match_for_testing()) << "after delete_rows";

  // set_basis: a refactorizing install, then the same header from the
  // cache, each after updates moved the factors away.
  ASSERT_GT(apply_updates(s, n, 10, 5), 0);
  const long long cached = s.stats().set_basis_cached;
  ASSERT_TRUE(s.set_basis(root));
  EXPECT_TRUE(s.work_lists_match_for_testing()) << "after set_basis";
  ASSERT_GT(apply_updates(s, n, 10, 6), 0);
  EXPECT_TRUE(s.work_lists_match_for_testing()) << "after updates";
  ASSERT_TRUE(s.set_basis(root));
  EXPECT_EQ(s.stats().set_basis_cached, cached + 1);
  EXPECT_TRUE(s.work_lists_match_for_testing()) << "after a cached restore";

  ASSERT_TRUE(s.refresh_factorization());
  EXPECT_TRUE(s.work_lists_match_for_testing()) << "after a refresh";

  // A cold start: with a cap of zero the dual solve stops right after
  // installing the slack basis.
  s.invalidate_basis();
  s.set_max_iterations(0);
  EXPECT_EQ(s.solve_dual().status, LpStatus::kIterLimit);
  EXPECT_TRUE(s.work_lists_match_for_testing()) << "after a cold start";
  s.set_max_iterations(SimplexOptions{}.max_iterations);
}

TEST(SimplexWorkLists, MatchThroughTheRecoveryLadder) {
  const Model m = table2_lp("tseng", 2);
  util::Rng rng(7ULL);
  for (const util::FaultSite site :
       {util::FaultSite::kFactorSingular, util::FaultSite::kEtaPerturb}) {
    SimplexOptions opts;
    opts.refactor_every = 12;  // scheduled refactorizations meet the faults
    SimplexSolver s(m, opts);
    ASSERT_EQ(s.solve_dual().status, LpStatus::kOptimal);
    util::FaultInjector fi(11);
    fi.set_period(site, 3);
    const SimplexSolver::Stats before = s.stats();
    {
      const ScopedInjector guard(&fi);
      for (int probe = 0; probe < 8; ++probe) {
        const auto [v, old] = fix_random_column(s, m, rng);
        step_dual(s, 2000);
        s.set_variable_bounds(v, old.first, old.second);
      }
    }
    EXPECT_GT(fi.fired(site), 0);
    const SimplexSolver::Stats& st = s.stats();
    EXPECT_GT(st.recovery_refactorize + st.recovery_tighten + st.recovery_cold,
              before.recovery_refactorize + before.recovery_tighten +
                  before.recovery_cold);
  }
}

}  // namespace
}  // namespace advbist::lp
