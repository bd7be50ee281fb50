// Dual-simplex differential suite: over seeded bound-change and
// add_rows/delete_rows sequences, solve_dual() must agree with a
// warm-started primal solve() and with a cold-started solve of the same
// model — on status, objective, and primal feasibility of the returned
// point. Also pins the intended fast path (dual re-solves without primal
// fallback after bound tightenings and slack-basic row appends), the
// mandatory fallback on a warm start that cannot be made dual-feasible by
// bound flips, the delete_rows bookkeeping (fill accounting against the
// current row count, not the high-water mark), and the incrementally
// maintained dual reduced costs (no drift against a fresh recomputation).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "util/rng.hpp"

namespace advbist::lp {
namespace {

constexpr double kTol = 1e-5;

/// Cold reference: a fresh solver over `model` (plus `extra` appended rows)
/// with `bounds` applied.
LpResult cold_solve(const Model& model,
                    const std::vector<std::pair<double, double>>& bounds,
                    const std::vector<ConstraintDef>& extra = {}) {
  SimplexSolver solver(model);
  if (!extra.empty()) solver.add_rows(extra);
  for (int v = 0; v < model.num_variables(); ++v)
    solver.set_variable_bounds(v, bounds[v].first, bounds[v].second);
  solver.invalidate_basis();
  return solver.solve();
}

/// Feasibility of structural point `x` under `bounds` and the rows of
/// `model` + `extra` (the solver's own rhs_/senses are not exposed; rebuild
/// the check from the definitions).
double max_violation(const Model& model,
                     const std::vector<std::pair<double, double>>& bounds,
                     const std::vector<ConstraintDef>& extra,
                     const std::vector<double>& x) {
  double worst = 0.0;
  for (int v = 0; v < model.num_variables(); ++v) {
    worst = std::max(worst, bounds[v].first - x[v]);
    worst = std::max(worst, x[v] - bounds[v].second);
  }
  auto check_row = [&](const ConstraintDef& c) {
    double act = 0.0;
    for (const Term& t : c.terms) act += t.coeff * x[t.var];
    switch (c.sense) {
      case Sense::kLessEqual: worst = std::max(worst, act - c.rhs); break;
      case Sense::kGreaterEqual: worst = std::max(worst, c.rhs - act); break;
      case Sense::kEqual: worst = std::max(worst, std::abs(act - c.rhs)); break;
    }
  };
  for (int r = 0; r < model.num_constraints(); ++r)
    check_row(model.constraint(r));
  for (const ConstraintDef& c : extra) check_row(c);
  return worst;
}

Model random_lp(util::Rng& rng) {
  Model m;
  const int n = rng.next_int(4, 10);
  for (int v = 0; v < n; ++v)
    m.add_variable(0, rng.next_int(1, 3), rng.next_int(-5, 5),
                   VarType::kContinuous, "");
  const int rows = rng.next_int(2, 6);
  for (int r = 0; r < rows; ++r) {
    LinExpr e;
    for (int v = 0; v < n; ++v) {
      const int coeff = rng.next_int(-2, 3);
      if (coeff != 0) e.add(v, coeff);
    }
    const Sense sense =
        rng.next_bool(0.75) ? Sense::kLessEqual : Sense::kGreaterEqual;
    m.add_constraint(std::move(e), sense, rng.next_int(1, 8));
  }
  return m;
}

/// A random valid-looking <=-row over a subset of the variables (not
/// necessarily a valid cut — validity is irrelevant here, only that every
/// solver sees the same row set).
ConstraintDef random_row(util::Rng& rng, int n) {
  ConstraintDef c;
  for (int v = 0; v < n; ++v) {
    if (!rng.next_bool(0.4)) continue;
    c.terms.push_back(Term{v, static_cast<double>(rng.next_int(1, 3))});
  }
  if (c.terms.empty()) c.terms.push_back(Term{0, 1.0});
  c.sense = Sense::kLessEqual;
  // Loose enough to usually stay feasible, tight enough to sometimes bind.
  c.rhs = rng.next_int(2, 6);
  return c;
}

/// Runs the seeded bound-change differential sweep under `pricing` and
/// returns the total dual pivot count. Every step must agree with a
/// warm-started primal solve and a cold solve of the same model.
long long run_bound_sequences(DualPricing pricing) {
  util::Rng rng(8260726ULL);
  long long dual_pivots = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Model m = random_lp(rng);
    const int n = m.num_variables();
    SimplexOptions opts;
    opts.dual_pricing = pricing;
    SimplexSolver dual(m, opts);
    SimplexSolver primal(m);
    std::vector<std::pair<double, double>> bounds(n);
    for (int v = 0; v < n; ++v)
      bounds[v] = {m.variable(v).lower, m.variable(v).upper};
    dual.solve();
    primal.solve();

    for (int step = 0; step < 10; ++step) {
      const int var = rng.next_int(0, n - 1);
      const double orig_ub = m.variable(var).upper;
      std::pair<double, double> next;
      switch (rng.next_int(0, 4)) {
        case 0: next = {0.0, 0.0}; break;          // fix at lower
        case 1: next = {orig_ub, orig_ub}; break;  // fix at upper
        case 2: next = {0.0, orig_ub}; break;      // relax to original
        case 3: next = {1.0, orig_ub}; break;      // tighten from below
        default: next = {0.0, kInfinity}; break;   // open the top
      }
      bounds[var] = next;
      dual.set_variable_bounds(var, next.first, next.second);
      primal.set_variable_bounds(var, next.first, next.second);

      const LpResult d = dual.solve_dual();
      const LpResult p = primal.solve();
      const LpResult c = cold_solve(m, bounds);
      dual_pivots += d.dual_iterations;
      EXPECT_EQ(d.status, c.status) << "trial " << trial << " step " << step;
      EXPECT_EQ(p.status, c.status) << "trial " << trial << " step " << step;
      if (c.status == LpStatus::kOptimal && d.status == c.status) {
        EXPECT_NEAR(d.objective, c.objective, kTol)
            << "trial " << trial << " step " << step;
        EXPECT_NEAR(p.objective, c.objective, kTol)
            << "trial " << trial << " step " << step;
        EXPECT_LE(max_violation(m, bounds, {}, d.x), kTol);
      }
    }
    if (::testing::Test::HasFailure()) break;
  }
  // The point of the suite: the dual path must actually be exercised.
  EXPECT_GT(dual_pivots, 0);
  return dual_pivots;
}

TEST(DualSimplex, RandomizedBoundSequencesMatchPrimalAndCold) {
  // Both pricing rules choose different pivot SEQUENCES but must land on
  // the same optimum at every step of the seeded sweep.
  const long long devex = run_bound_sequences(DualPricing::kDevex);
  ASSERT_FALSE(::testing::Test::HasFailure());
  const long long se = run_bound_sequences(DualPricing::kSteepestEdge);
  ASSERT_FALSE(::testing::Test::HasFailure());
  std::printf("[ pricing  ] dual pivots over the seeded sweep: devex=%lld "
              "se=%lld\n",
              devex, se);
  // EXACT trajectory pins. The dual ratio test is specified to be
  // deterministic: tolerance-scaled tie window, drop_tol noise floor, and a
  // total (ratio, col) breakpoint order. Any change to those rules — or a
  // stale- or garbage-weight bug, which shows up here as a pivot-count
  // explosion long before it corrupts an optimum — moves at least one of
  // these counts. Re-pin deliberately, never to "fix CI".
  EXPECT_EQ(devex, 105);
  EXPECT_EQ(se, 101);
}

TEST(DualSimplex, AddAndDeleteRowSequencesMatchCold) {
  util::Rng rng(42617ULL);
  for (int trial = 0; trial < 25; ++trial) {
    const Model m = random_lp(rng);
    const int n = m.num_variables();
    SimplexSolver dual(m);
    std::vector<std::pair<double, double>> bounds(n);
    for (int v = 0; v < n; ++v)
      bounds[v] = {m.variable(v).lower, m.variable(v).upper};
    std::vector<ConstraintDef> active;  // appended rows still in the LP
    dual.solve();

    for (int step = 0; step < 8; ++step) {
      const int action = rng.next_int(0, 2);
      if (action == 0) {
        // Append 1-2 rows; they enter slack-basic, so the warm basis stays
        // dual-feasible by construction.
        std::vector<ConstraintDef> rows;
        for (int i = rng.next_int(1, 2); i > 0; --i)
          rows.push_back(random_row(rng, n));
        dual.add_rows(rows);
        for (const ConstraintDef& c : rows) active.push_back(c);
      } else if (action == 1 && dual.num_added_rows() > 0) {
        // Delete every appended row whose slack is basic (the aged-out-cut
        // shape delete_rows is specified for).
        const int base = dual.num_rows() - dual.num_added_rows();
        std::vector<int> doomed;
        std::vector<ConstraintDef> kept;
        for (int i = 0; i < dual.num_added_rows(); ++i) {
          if (dual.added_row_slack_basic(i) && rng.next_bool(0.7))
            doomed.push_back(base + i);
          else
            kept.push_back(active[i]);
        }
        if (!doomed.empty()) {
          dual.delete_rows(doomed);
          active = std::move(kept);
        }
      } else {
        const int var = rng.next_int(0, n - 1);
        const double orig_ub = m.variable(var).upper;
        std::pair<double, double> next =
            rng.next_bool(0.5)
                ? std::pair<double, double>{0.0, 0.0}
                : std::pair<double, double>{0.0, orig_ub};
        bounds[var] = next;
        dual.set_variable_bounds(var, next.first, next.second);
      }

      const LpResult d = dual.solve_dual();
      const LpResult c = cold_solve(m, bounds, active);
      ASSERT_EQ(d.status, c.status) << "trial " << trial << " step " << step;
      if (c.status == LpStatus::kOptimal) {
        ASSERT_NEAR(d.objective, c.objective, kTol)
            << "trial " << trial << " step " << step;
        EXPECT_LE(max_violation(m, bounds, active, d.x), kTol);
      }
    }
  }
}

TEST(DualSimplex, BoundTighteningResolvesWithoutFallback) {
  // The branch & bound access pattern on a clean instance: tightening a
  // bound of an optimal basis must re-solve on the dual path alone.
  Model m;
  const int x = m.add_variable(0, 4, -2, VarType::kContinuous, "x");
  const int y = m.add_variable(0, 4, -1, VarType::kContinuous, "y");
  m.add_constraint(LinExpr().add(x, 1).add(y, 1), Sense::kLessEqual, 6);
  SimplexSolver solver(m);
  ASSERT_EQ(solver.solve().status, LpStatus::kOptimal);

  solver.set_variable_bounds(x, 0, 1);  // x was 4: basis now primal infeasible
  const LpResult d = solver.solve_dual();
  ASSERT_EQ(d.status, LpStatus::kOptimal);
  EXPECT_FALSE(d.dual_fallback);
  EXPECT_NEAR(d.objective, -2.0 * 1 - 1.0 * 4, kTol);
  EXPECT_GE(solver.stats().dual_iterations, 1);
  EXPECT_EQ(solver.stats().dual_fallbacks, 0);
}

TEST(DualSimplex, AppendedViolatedRowResolvesWithoutFallback) {
  // A violated cut row enters slack-basic (dual-feasible by construction):
  // the re-solve must stay on the dual path.
  Model m;
  const int x = m.add_variable(0, 3, -1, VarType::kContinuous, "x");
  const int y = m.add_variable(0, 3, -1, VarType::kContinuous, "y");
  m.add_constraint(LinExpr().add(x, 1).add(y, 1), Sense::kLessEqual, 5);
  SimplexSolver solver(m);
  ASSERT_EQ(solver.solve().status, LpStatus::kOptimal);

  ConstraintDef cut;
  cut.terms = {Term{x, 1.0}, Term{y, 1.0}};
  cut.sense = Sense::kLessEqual;
  cut.rhs = 2.0;
  solver.add_rows({cut});
  const LpResult d = solver.solve_dual();
  ASSERT_EQ(d.status, LpStatus::kOptimal);
  EXPECT_FALSE(d.dual_fallback);
  EXPECT_NEAR(d.objective, -2.0, kTol);
  EXPECT_GE(d.dual_iterations, 1);
}

TEST(DualSimplex, InfeasibleBoundChangeDetectedOnDualPath) {
  //  x + y >= 4 with both variables boxed into [0,1] has no feasible point.
  Model m;
  const int x = m.add_variable(0, 3, 1, VarType::kContinuous, "x");
  const int y = m.add_variable(0, 3, 1, VarType::kContinuous, "y");
  m.add_constraint(LinExpr().add(x, 1).add(y, 1), Sense::kGreaterEqual, 4);
  SimplexSolver solver(m);
  ASSERT_EQ(solver.solve().status, LpStatus::kOptimal);

  solver.set_variable_bounds(x, 0, 1);
  solver.set_variable_bounds(y, 0, 1);
  EXPECT_EQ(solver.solve_dual().status, LpStatus::kInfeasible);
}

TEST(DualSimplex, DualInfeasibleWarmStartFallsBackToPrimal) {
  // min -x s.t. x <= 10, x fixed at [1,1]: the fixed variable is never
  // priced, so its reduced cost ends at -1. Opening its top to +infinity
  // leaves it nonbasic-at-lower with a wrong-sign reduced cost and no
  // opposite bound to flip to: solve_dual must fall back to the primal
  // path and still return the true optimum.
  Model m;
  const int x = m.add_variable(1, 1, -1, VarType::kContinuous, "x");
  m.add_constraint(LinExpr().add(x, 1), Sense::kLessEqual, 10);
  SimplexSolver solver(m);
  ASSERT_EQ(solver.solve().status, LpStatus::kOptimal);

  solver.set_variable_bounds(x, 1, kInfinity);
  const LpResult d = solver.solve_dual();
  ASSERT_EQ(d.status, LpStatus::kOptimal);
  EXPECT_TRUE(d.dual_fallback);
  EXPECT_NEAR(d.objective, -10.0, kTol);
  EXPECT_EQ(solver.stats().dual_fallbacks, 1);
}

TEST(DualSimplex, DegenerateWarmStartStaysExact) {
  // Several ties at every breakpoint: a degenerate dual ratio test must
  // still terminate and agree with the cold solve.
  Model m;
  const int n = 6;
  for (int v = 0; v < n; ++v)
    m.add_variable(0, 1, 1, VarType::kContinuous, "");
  for (int r = 0; r < 4; ++r) {
    LinExpr e;
    for (int v = 0; v < n; ++v) e.add(v, 1);
    m.add_constraint(std::move(e), Sense::kGreaterEqual, 2);
  }
  SimplexSolver solver(m);
  ASSERT_EQ(solver.solve().status, LpStatus::kOptimal);
  std::vector<std::pair<double, double>> bounds(n, {0.0, 1.0});
  for (int v = 0; v < 3; ++v) {
    bounds[v] = {0.0, 0.0};
    solver.set_variable_bounds(v, 0, 0);
    const LpResult d = solver.solve_dual();
    const LpResult c = cold_solve(m, bounds);
    ASSERT_EQ(d.status, c.status) << "fix " << v;
    ASSERT_NEAR(d.objective, c.objective, kTol) << "fix " << v;
  }
}

TEST(DualSimplex, DeleteRowsKeepsFillAccountingAtCurrentRowCount) {
  // Regression for the delete_rows/add_rows fill interaction: after rows
  // age out, refactorization statistics must be measured against the
  // current (shrunken) row count — the per-refactorization fill increment
  // can never be negative, which is exactly what a high-water-mark row
  // count would produce on an almost-slack basis.
  util::Rng rng(99901ULL);
  const Model m = random_lp(rng);
  const int n = m.num_variables();
  SimplexSolver solver(m);
  ASSERT_EQ(solver.solve().status, LpStatus::kOptimal);

  std::vector<ConstraintDef> rows;
  for (int i = 0; i < 8; ++i) rows.push_back(random_row(rng, n));
  solver.add_rows(rows);
  EXPECT_EQ(solver.num_added_rows(), 8);
  ASSERT_EQ(solver.solve_dual().status, LpStatus::kOptimal);
  EXPECT_EQ(solver.stats().peak_rows, m.num_constraints() + 8);

  const long long basis_before = solver.stats().factor_basis_nnz;
  const long long fill_before = solver.stats().factor_fill_nnz;
  const int base = solver.num_rows() - solver.num_added_rows();
  std::vector<int> doomed;
  for (int i = 0; i < solver.num_added_rows(); ++i)
    if (solver.added_row_slack_basic(i)) doomed.push_back(base + i);
  ASSERT_FALSE(doomed.empty());
  solver.delete_rows(doomed);  // refactorizes at the shrunken size
  EXPECT_EQ(solver.stats().rows_deleted,
            static_cast<long long>(doomed.size()));
  EXPECT_EQ(solver.num_rows(), m.num_constraints() + 8 -
                                   static_cast<int>(doomed.size()));
  // The post-deletion refactorization's increments, in isolation: the
  // basis term is positive and the fill term non-negative.
  EXPECT_GT(solver.stats().factor_basis_nnz, basis_before);
  EXPECT_GE(solver.stats().factor_fill_nnz, fill_before);
  // Peak keeps the high-water mark even though the LP shrank.
  EXPECT_EQ(solver.stats().peak_rows, m.num_constraints() + 8);

  const LpResult after = solver.solve_dual();
  ASSERT_EQ(after.status, LpStatus::kOptimal);
  EXPECT_GE(solver.stats().fill_ratio(), 1.0);
}

// A model where tightening one bound forces real dual pivots: n variables
// with distinct negative costs all pushed to a shared capacity row.
Model pivoting_lp(int n) {
  Model m;
  for (int v = 0; v < n; ++v)
    m.add_variable(0, 4, -(v + 1), VarType::kContinuous, "");
  LinExpr e;
  for (int v = 0; v < n; ++v) e.add(v, 1);
  m.add_constraint(std::move(e), Sense::kLessEqual, 2 * n);
  for (int r = 0; r < n / 2; ++r) {
    LinExpr pair;
    pair.add(2 * r, 1).add(2 * r + 1, 1);
    m.add_constraint(std::move(pair), Sense::kLessEqual, 5);
  }
  return m;
}

TEST(DualSimplex, DevexWeightsResetAcrossRefactorizationAndFallback) {
  // The Devex reference framework is only meaningful for the basis it was
  // accumulated on. Every boundary that moves the basis outside it —
  // refactorization, a primal solve (the fallback path), cold start — must
  // reset the weights; Stats::devex_resets counts exactly those resets.
  // Without the reset, stale weights silently mis-price rows, which the
  // pivot-count pins in RandomizedBoundSequencesMatchPrimalAndCold would
  // catch as an explosion. Here we pin the reset *accounting* one boundary
  // at a time.
  const Model m = pivoting_lp(8);
  SimplexOptions opts;
  opts.dual_pricing = DualPricing::kDevex;
  SimplexSolver solver(m, opts);
  ASSERT_EQ(solver.solve().status, LpStatus::kOptimal);
  ASSERT_EQ(solver.stats().devex_resets, 0);  // no dual solve yet

  // Fixing capacity-absorbing variables at 0 forces real dual pivots (the
  // displaced quantity cannot be absorbed inside the remaining bounds).
  // The first dual re-solve initializes the reference framework: >= 1 reset.
  for (const int v : {7, 5, 3}) {
    solver.set_variable_bounds(v, 0, 0);
    const LpResult d = solver.solve_dual();
    ASSERT_EQ(d.status, LpStatus::kOptimal) << "fix " << v;
    EXPECT_FALSE(d.dual_fallback) << "fix " << v;
  }
  EXPECT_GE(solver.stats().dual_iterations, 1);
  const long long resets_after_first = solver.stats().devex_resets;
  EXPECT_GE(resets_after_first, 1);

  // Refactorization boundary: the framework restarts on the next dual
  // iteration even though the basis itself did not change.
  ASSERT_TRUE(solver.refactorize_for_testing());
  solver.set_variable_bounds(1, 0, 0);
  ASSERT_EQ(solver.solve_dual().status, LpStatus::kOptimal);
  const long long resets_after_refactor = solver.stats().devex_resets;
  EXPECT_GT(resets_after_refactor, resets_after_first);

  // Primal-solve (fallback-path) boundary: primal pivots move the basis
  // outside the framework; the next dual solve must reset again.
  for (const int v : {7, 5, 3, 1}) solver.set_variable_bounds(v, 0, 4);
  const LpResult p = solver.solve();  // relaxed vars re-enter: primal pivots
  ASSERT_EQ(p.status, LpStatus::kOptimal);
  ASSERT_GT(p.iterations, 0);
  solver.set_variable_bounds(7, 0, 0);
  ASSERT_EQ(solver.solve_dual().status, LpStatus::kOptimal);
  EXPECT_GT(solver.stats().devex_resets, resets_after_refactor);
}

TEST(DualSimplex, WeightedPricingAgreesAfterAddDeleteRows) {
  // add_rows / delete_rows change the row dimension: the weights must reset
  // (not read out of bounds, not mis-price) and the re-solve must still
  // agree with a cold solver under every pricing rule.
  // First seed whose base LP is feasible (random_lp can emit infeasible
  // >=-row combinations; those are differential-tested elsewhere).
  Model feasible;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 40 && !found; ++seed) {
    util::Rng rng(seed);
    Model candidate = random_lp(rng);
    if (SimplexSolver(candidate).solve().status == LpStatus::kOptimal) {
      feasible = std::move(candidate);
      found = true;
    }
  }
  ASSERT_TRUE(found);
  for (const DualPricing pricing :
       {DualPricing::kDevex, DualPricing::kSteepestEdge}) {
    util::Rng rng(5150ULL);
    const Model& m = feasible;
    const int n = m.num_variables();
    SimplexOptions opts;
    opts.dual_pricing = pricing;
    SimplexSolver solver(m, opts);
    std::vector<std::pair<double, double>> bounds(n);
    for (int v = 0; v < n; ++v)
      bounds[v] = {m.variable(v).lower, m.variable(v).upper};
    ASSERT_EQ(solver.solve().status, LpStatus::kOptimal);

    std::vector<ConstraintDef> active;
    for (int i = 0; i < 4; ++i) active.push_back(random_row(rng, n));
    solver.add_rows(active);
    ASSERT_EQ(solver.solve_dual().status,
              cold_solve(m, bounds, active).status);

    const int base = solver.num_rows() - solver.num_added_rows();
    std::vector<int> doomed;
    std::vector<ConstraintDef> kept;
    for (int i = 0; i < solver.num_added_rows(); ++i) {
      if (solver.added_row_slack_basic(i))
        doomed.push_back(base + i);
      else
        kept.push_back(active[i]);
    }
    if (!doomed.empty()) {
      solver.delete_rows(doomed);
      active = std::move(kept);
    }
    solver.set_variable_bounds(0, 0, 0);
    bounds[0] = {0.0, 0.0};
    const LpResult d = solver.solve_dual();
    const LpResult c = cold_solve(m, bounds, active);
    ASSERT_EQ(d.status, c.status) << "pricing " << static_cast<int>(pricing);
    if (c.status == LpStatus::kOptimal)
      EXPECT_NEAR(d.objective, c.objective, kTol)
          << "pricing " << static_cast<int>(pricing);
  }
}

TEST(DualSimplex, BidiagonalChainResolveMatchesColdSolve) {
  // A difference chain x_r - x_{r-1} + z_r = 1 whose unique relaxation
  // optimum (z costs positive) makes every x_r basic, so the basis is
  // bidiagonal and its inverse is a fully dense triangle — e_r' B^-1 has
  // r+1 nonzeros. Tightening the LAST chain variable's box forces dual
  // pivots on those dense pivot rows; the warm re-solve must agree with a
  // cold solve.
  constexpr int kM = 40;
  Model m;
  std::vector<int> xs(kM), zs(kM);
  for (int r = 0; r < kM; ++r) {
    xs[r] = m.add_variable(0, 100, 0, VarType::kContinuous, "");
    zs[r] = m.add_variable(0, 10, 1, VarType::kContinuous, "");
  }
  for (int r = 0; r < kM; ++r) {
    LinExpr e;
    e.add(xs[r], 1.0).add(zs[r], 1.0);
    if (r > 0) e.add(xs[r - 1], -1.0);
    m.add_constraint(std::move(e), Sense::kEqual, 1);
  }
  SimplexSolver solver(m);
  ASSERT_EQ(solver.solve().status, LpStatus::kOptimal);
  EXPECT_NEAR(solver.solve().objective, 0.0, kTol);  // all z at 0, x_r = r+1
  // x_{kM-1} sits at kM; halving its box leaves the chain absorbable by
  // the z variables (at cost), so the re-solve is feasible but needs real
  // dual pivots against the dense inverse rows.
  solver.set_variable_bounds(xs[kM - 1], 0, kM / 2);
  const LpResult d = solver.solve_dual();
  ASSERT_EQ(d.status, LpStatus::kOptimal);
  ASSERT_GT(solver.stats().dual_iterations, 0);
  SimplexSolver ref(m);
  ref.set_variable_bounds(xs[kM - 1], 0, kM / 2);
  ref.invalidate_basis();
  const LpResult c = ref.solve();
  ASSERT_EQ(c.status, LpStatus::kOptimal);
  EXPECT_NEAR(d.objective, c.objective, kTol);
}

TEST(DualSimplex, SubPivotTolAlphaStillGetsTheThetaUpdate) {
  // The reduced-cost drift fix, pinned end to end. Column z enters the
  // single constraint row with coefficient 5e-10: after the initial solve
  // (x basic in the row) the BTRANed pivot row is e_0' B^-1 = [1], so z's
  // ratio-test alpha is exactly 5e-10 — a REAL entry inside
  // (drop_tol, pivot_tol) = (1e-13, 1e-9) at the default pivot_tol. z can
  // never enter (unpivotable), but its reduced cost still moves by
  // theta*alpha in the dual step. Filtering the theta update at pivot_tol
  // would leave dual_d_[z] stale by theta*alpha ~ 5e-8 after one pivot
  // (theta ~ 99 here by construction); the incrementally maintained value
  // must stay within rounding of a fresh BTRAN-based recomputation.
  Model m;
  const int x = m.add_variable(0, 10, -100, VarType::kContinuous, "x");
  const int y = m.add_variable(0, 10, -1, VarType::kContinuous, "y");
  const int z = m.add_variable(0, 10, 0, VarType::kContinuous, "z");
  m.add_constraint(
      LinExpr().add(x, 1.0).add(y, 1.0).add(z, 5e-10), Sense::kLessEqual, 5);
  SimplexSolver solver(m);
  ASSERT_EQ(solver.solve().status, LpStatus::kOptimal);
  // x absorbs the whole row (cost -100 dominates); tightening its box
  // makes the basis primal infeasible and forces a real dual pivot with
  // leaving row 0 and theta = d_y / alpha_y = 99.
  solver.set_variable_bounds(x, 0, 1);
  const LpResult d = solver.solve_dual();
  ASSERT_EQ(d.status, LpStatus::kOptimal);
  ASSERT_FALSE(d.dual_fallback);
  ASSERT_GE(d.dual_iterations, 1);
  // The primal certificate must not have re-pivoted (primal pivots do not
  // maintain dual_d_, which would blur what is being measured).
  ASSERT_EQ(d.phase1_iterations, 0);
  ASSERT_EQ(d.phase2_iterations, 0);
  EXPECT_NEAR(d.objective, -100.0 * 1 - 1.0 * 4, kTol);
  // A skipped update leaves |dual_d_[z] - fresh| = theta * 5e-10 ~ 5e-8;
  // the real update leaves pure rounding, orders of magnitude under this.
  EXPECT_LT(solver.dual_reduced_cost_drift_for_testing(), 1e-8);
}

TEST(DualSimplex, DriftStaysBoundedUnderSeededResolveFuzz) {
  // Incremental-vs-recomputed reduced-cost agreement under churn: long
  // warm re-solve chains (bounds only, so solve_dual stays on the dual
  // path) must keep dual_d_ within tolerance of a fresh recomputation —
  // the refactorization-time refresh plus the drop_tol theta update are
  // exactly what bound this.
  util::Rng rng(771239ULL);
  for (int trial = 0; trial < 15; ++trial) {
    const Model m = random_lp(rng);
    const int n = m.num_variables();
    SimplexSolver solver(m);
    solver.solve();
    for (int step = 0; step < 12; ++step) {
      const int var = rng.next_int(0, n - 1);
      const double orig_ub = m.variable(var).upper;
      std::pair<double, double> next;
      switch (rng.next_int(0, 2)) {
        case 0: next = {0.0, 0.0}; break;
        case 1: next = {0.0, orig_ub}; break;
        default: next = {1.0, orig_ub}; break;
      }
      solver.set_variable_bounds(var, next.first, next.second);
      const LpResult d = solver.solve_dual();
      // Only a clean dual finish (zero-pivot primal certificate) leaves
      // dual_d_ as the incrementally maintained vector the hook measures.
      if (d.status != LpStatus::kOptimal || d.dual_fallback ||
          d.phase1_iterations + d.phase2_iterations > 0)
        continue;
      EXPECT_LT(solver.dual_reduced_cost_drift_for_testing(), 1e-7)
          << "trial " << trial << " step " << step;
    }
    if (::testing::Test::HasFailure()) break;
  }
}

}  // namespace
}  // namespace advbist::lp
