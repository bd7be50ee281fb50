// Warm-start correctness: after any sequence of set_variable_bounds calls
// the warm-started solve must agree (status and objective) with a cold
// solve of the same model. Covers the regression where a nonbasic variable
// whose bound became infinite kept a stale vstat and was priced against
// the wrong bound. The basis suite pins basis()/set_basis(), the probe
// pattern of strong branching: save, probe, restore, and the factors a
// restore of the same basis copies back instead of refactorizing.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/formulation.hpp"
#include "hls/benchmarks.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "util/rng.hpp"

namespace advbist::lp {
namespace {

constexpr double kTol = 1e-6;

/// Cold reference: a fresh solver over `model` with `bounds` applied.
LpResult cold_solve(const Model& model,
                    const std::vector<std::pair<double, double>>& bounds) {
  SimplexSolver solver(model);
  for (int v = 0; v < model.num_variables(); ++v)
    solver.set_variable_bounds(v, bounds[v].first, bounds[v].second);
  solver.invalidate_basis();
  return solver.solve();
}

TEST(WarmStart, RelaxUpperBoundToInfinityRepricesVariable) {
  // min -x  s.t.  x + y <= 10,  y in [0,1],  x in [0,5].
  // Optimal: x = 5 (nonbasic at its upper bound).
  Model m;
  const int x = m.add_variable(0, 5, -1, VarType::kContinuous, "x");
  const int y = m.add_variable(0, 1, 0, VarType::kContinuous, "y");
  m.add_constraint(LinExpr().add(x, 1).add(y, 1), Sense::kLessEqual, 10);

  SimplexSolver solver(m);
  LpResult first = solver.solve();
  ASSERT_EQ(first.status, LpStatus::kOptimal);
  EXPECT_NEAR(first.objective, -5.0, kTol);
  EXPECT_NEAR(first.x[x], 5.0, kTol);

  // Relax x's upper bound to +inf: the variable was sitting at that bound,
  // so the solver must migrate it to the lower bound *and* reprice it as
  // at-lower, otherwise the warm solve stops at x = 0.
  solver.set_variable_bounds(x, 0, kInfinity);
  LpResult relaxed = solver.solve();
  ASSERT_EQ(relaxed.status, LpStatus::kOptimal);
  EXPECT_NEAR(relaxed.objective, -10.0, kTol);
  EXPECT_NEAR(relaxed.x[x], 10.0, kTol);
}

TEST(WarmStart, RelaxLowerBoundToInfinityKeepsValueFinite) {
  // min x  s.t.  x - y >= -10,  y in [0,1],  x in [-5, 5].
  // Optimal: x = -5 at its lower bound. Relaxing the lower bound to -inf
  // must not leave the nonbasic value at -inf.
  Model m;
  const int x = m.add_variable(-5, 5, 1, VarType::kContinuous, "x");
  const int y = m.add_variable(0, 1, 0, VarType::kContinuous, "y");
  m.add_constraint(LinExpr().add(x, 1).add(y, -1), Sense::kGreaterEqual, -10);

  SimplexSolver solver(m);
  LpResult first = solver.solve();
  ASSERT_EQ(first.status, LpStatus::kOptimal);
  EXPECT_NEAR(first.objective, -5.0, kTol);

  solver.set_variable_bounds(x, -kInfinity, 5);
  LpResult relaxed = solver.solve();
  ASSERT_EQ(relaxed.status, LpStatus::kOptimal);
  EXPECT_NEAR(relaxed.objective, -10.0, kTol);
  EXPECT_TRUE(std::isfinite(relaxed.x[x]));
}

TEST(WarmStart, TightenThenRelaxSequenceMatchesColdSolves) {
  // Branch & bound's access pattern: repeatedly fix binaries to 0/1 and
  // un-fix them again, warm-starting every re-solve.
  Model m;
  const int n = 6;
  for (int v = 0; v < n; ++v)
    m.add_variable(0, 1, (v % 2 == 0) ? -3.0 - v : 2.0 - v,
                   VarType::kContinuous, "");
  m.add_constraint(
      LinExpr().add(0, 1).add(1, 2).add(2, 1).add(3, 1).add(4, 2).add(5, 1),
      Sense::kLessEqual, 4);
  m.add_constraint(LinExpr().add(0, 1).add(2, -1).add(4, 1),
                   Sense::kGreaterEqual, 0);

  SimplexSolver warm(m);
  std::vector<std::pair<double, double>> bounds(n, {0.0, 1.0});
  ASSERT_EQ(warm.solve().status, LpStatus::kOptimal);

  const std::vector<std::vector<std::pair<int, std::pair<double, double>>>>
      steps = {
          {{0, {1.0, 1.0}}},                    // fix x0 = 1
          {{2, {0.0, 0.0}}, {4, {1.0, 1.0}}},   // fix x2 = 0, x4 = 1
          {{0, {0.0, 1.0}}},                    // un-fix x0
          {{4, {0.0, 0.0}}},                    // flip x4 to 0
          {{2, {0.0, 1.0}}, {4, {0.0, 1.0}}},   // relax everything back
      };
  for (const auto& step : steps) {
    for (const auto& [var, bds] : step) {
      bounds[var] = bds;
      warm.set_variable_bounds(var, bds.first, bds.second);
    }
    const LpResult w = warm.solve();
    const LpResult c = cold_solve(m, bounds);
    ASSERT_EQ(w.status, c.status);
    if (w.status == LpStatus::kOptimal)
      EXPECT_NEAR(w.objective, c.objective, kTol);
  }
}

TEST(WarmStart, RandomizedBoundSequencesMatchColdSolves) {
  util::Rng rng(20260726ULL);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = rng.next_int(3, 8);
    const int rows = rng.next_int(2, 6);
    Model m;
    for (int v = 0; v < n; ++v)
      m.add_variable(0, rng.next_int(1, 3), rng.next_int(-5, 5),
                     VarType::kContinuous, "");
    for (int r = 0; r < rows; ++r) {
      LinExpr e;
      for (int v = 0; v < n; ++v) {
        const int coeff = rng.next_int(-2, 3);
        if (coeff != 0) e.add(v, coeff);
      }
      m.add_constraint(std::move(e), Sense::kLessEqual, rng.next_int(2, 8));
    }

    SimplexSolver warm(m);
    std::vector<std::pair<double, double>> bounds(n);
    for (int v = 0; v < n; ++v)
      bounds[v] = {m.variable(v).lower, m.variable(v).upper};
    warm.solve();

    for (int step = 0; step < 8; ++step) {
      const int var = rng.next_int(0, n - 1);
      const double orig_ub = m.variable(var).upper;
      std::pair<double, double> next;
      switch (rng.next_int(0, 3)) {
        case 0: next = {0.0, 0.0}; break;               // fix at lower
        case 1: next = {orig_ub, orig_ub}; break;       // fix at upper
        case 2: next = {0.0, orig_ub}; break;           // relax to original
        default: next = {0.0, kInfinity}; break;        // open the top
      }
      bounds[var] = next;
      warm.set_variable_bounds(var, next.first, next.second);

      const LpResult w = warm.solve();
      const LpResult c = cold_solve(m, bounds);
      ASSERT_EQ(w.status, c.status)
          << "trial " << trial << " step " << step;
      if (w.status == LpStatus::kOptimal)
        ASSERT_NEAR(w.objective, c.objective, 1e-5)
            << "trial " << trial << " step " << step;
    }
  }
}

// ---------------------------------------------------------------------------
// basis() / set_basis(): a probe that restores the basis it started from
// leaves the solver exactly at the base optimum.
// ---------------------------------------------------------------------------

/// A fractional-knapsack-like LP whose optimum has several fractional
/// basic variables: min -c'x s.t. two weight rows, x in [0, 1].
Model probe_model() {
  Model m;
  const double cost[] = {-9, -7, -8, -6, -5, -7, -4, -6};
  const double w1[] = {4, 3, 5, 2, 3, 4, 2, 3};
  const double w2[] = {2, 4, 1, 3, 4, 2, 3, 1};
  LinExpr r1, r2;
  for (int v = 0; v < 8; ++v) {
    m.add_variable(0, 1, cost[v], VarType::kContinuous, "");
    r1.add(v, w1[v]);
    r2.add(v, w2[v]);
  }
  m.add_constraint(std::move(r1), Sense::kLessEqual, 11.5);
  m.add_constraint(std::move(r2), Sense::kLessEqual, 9.5);
  return m;
}

/// The structural variables strictly between their bounds at `x`.
std::vector<int> fractional(const std::vector<double>& x) {
  std::vector<int> out;
  for (int v = 0; v < static_cast<int>(x.size()); ++v)
    if (x[v] > 1e-6 && x[v] < 1.0 - 1e-6) out.push_back(v);
  return out;
}

/// Bounds v to 0, re-solves with the dual simplex, and restores v's
/// bounds and the basis the probe started from.
LpResult probe(SimplexSolver& s, int v) {
  const SimplexSolver::Basis start = s.basis();
  s.set_variable_bounds(v, 0, 0);
  const LpResult r = s.solve_dual();
  s.set_variable_bounds(v, 0, 1);
  EXPECT_TRUE(s.set_basis(start));
  return r;
}

TEST(WarmStart, SetBasisRestoresTheBaseOptimumAfterAProbe) {
  const Model m = probe_model();
  SimplexSolver s(m);
  const LpResult base = s.solve();
  ASSERT_EQ(base.status, LpStatus::kOptimal);
  const std::vector<int> frac = fractional(base.x);
  ASSERT_FALSE(frac.empty());

  const LpResult moved = probe(s, frac.front());
  ASSERT_EQ(moved.status, LpStatus::kOptimal);
  EXPECT_GT(moved.iterations, 0);  // the probe really left the base
  EXPECT_GT(moved.objective, base.objective + 1e-6);

  const LpResult again = s.solve_dual();
  ASSERT_EQ(again.status, LpStatus::kOptimal);
  EXPECT_EQ(again.iterations, 0);
  EXPECT_FALSE(again.dual_fallback);
  EXPECT_NEAR(again.objective, base.objective, kTol);
  for (int v = 0; v < m.num_variables(); ++v)
    EXPECT_NEAR(again.x[v], base.x[v], kTol) << "x" << v;
  EXPECT_EQ(s.stats().refactor_set_basis, 1);
}

TEST(WarmStart, ProbeAfterARestoredProbeMatchesTheProbeAlone) {
  const Model m = probe_model();
  SimplexSolver alone(m);
  const LpResult base = alone.solve();
  ASSERT_EQ(base.status, LpStatus::kOptimal);
  const std::vector<int> frac = fractional(base.x);
  ASSERT_GE(frac.size(), 2u);
  const int a = frac[0], b = frac[1];
  const LpResult b_alone = probe(alone, b);

  SimplexSolver after(m);
  ASSERT_EQ(after.solve().status, LpStatus::kOptimal);
  const LpResult a_first = probe(after, a);
  EXPECT_GT(a_first.iterations, 0);
  const LpResult b_after = probe(after, b);

  EXPECT_EQ(b_after.status, b_alone.status);
  EXPECT_EQ(b_after.iterations, b_alone.iterations);
  if (b_alone.status == LpStatus::kOptimal)
    EXPECT_NEAR(b_after.objective, b_alone.objective, kTol);
}

/// The LP relaxation of a Table-2 BIST model: large enough that its
/// optimal bases need a real bump elimination, not just singletons.
Model table2_model(const char* circuit, int k) {
  const hls::Benchmark b = hls::benchmark_by_name(circuit);
  core::FormulationOptions fo;
  fo.include_bist = true;
  fo.k = k;
  return core::Formulation(b.dfg, b.modules, fo).model();
}

/// Bounds v to 0, re-solves with the dual simplex, and restores v's
/// bounds, the bounds `model` gives it.
LpResult probe_down(SimplexSolver& s, const Model& model, int v) {
  s.set_variable_bounds(v, 0, 0);
  const LpResult r = s.solve_dual();
  s.set_variable_bounds(v, model.variable(v).lower, model.variable(v).upper);
  return r;
}

TEST(WarmStart, CachedRestoreMatchesAFreshSetBasisBitForBit) {
  const Model m = table2_model("paulin", 2);
  // A small update cap makes the probes refactorize mid-solve, so every
  // factor array has changed by the time the cached copy comes back.
  SimplexOptions so;
  so.refactor_every = 4;
  SimplexSolver cached(m, so);
  const LpResult base = cached.solve_dual();
  ASSERT_EQ(base.status, LpStatus::kOptimal);
  const std::vector<int> frac = fractional(base.x);
  ASSERT_GE(frac.size(), 3u);
  const SimplexSolver::Basis start = cached.basis();

  // The first restore refactorizes; the second copies its factors back.
  for (int i = 0; i < 2; ++i) {
    EXPECT_GT(probe_down(cached, m, frac[i]).iterations, 0);
    ASSERT_TRUE(cached.set_basis(start));
  }
  EXPECT_EQ(cached.stats().refactor_set_basis, 1);
  EXPECT_EQ(cached.stats().set_basis_cached, 1);

  SimplexSolver fresh(m, so);
  ASSERT_TRUE(fresh.set_basis(start));
  EXPECT_EQ(fresh.stats().set_basis_cached, 0);

  // Same pivots means no recovery either: stale update state left by a
  // restore shows up as a pivot check failure and an extra refactorization.
  const long long cached_before = cached.stats().refactorizations;
  const long long fresh_before = fresh.stats().refactorizations;
  const LpResult a = probe_down(cached, m, frac[2]);
  const LpResult b = probe_down(fresh, m, frac[2]);
  EXPECT_EQ(cached.stats().refactorizations - cached_before,
            fresh.stats().refactorizations - fresh_before);
  EXPECT_EQ(cached.stats().recovery_refactorize, 0);
  EXPECT_EQ(cached.updates_since_refactor(), fresh.updates_since_refactor());
  ASSERT_EQ(a.status, b.status);
  EXPECT_GT(a.iterations, 0);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.dual_iterations, b.dual_iterations);
  EXPECT_EQ(a.phase2_iterations, b.phase2_iterations);
  EXPECT_EQ(a.objective, b.objective);  // bit for bit, not within a tolerance
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(cached.basis().header, fresh.basis().header);
}

TEST(WarmStart, RowChangesDropTheCachedFactors) {
  const Model m = probe_model();
  SimplexSolver s(m);
  const LpResult base = s.solve();
  ASSERT_EQ(base.status, LpStatus::kOptimal);
  const SimplexSolver::Basis start = s.basis();
  ASSERT_TRUE(s.set_basis(start));
  ASSERT_TRUE(s.set_basis(start));
  EXPECT_EQ(s.stats().refactor_set_basis, 1);
  EXPECT_EQ(s.stats().set_basis_cached, 1);

  // A cut that stays slack-basic, appended and deleted again: the matrix
  // and the header come back as they were, but the rows changed in
  // between, so the next restore refactorizes.
  s.add_rows({ConstraintDef{{Term{0, 1.0}}, Sense::kLessEqual, 5.0, "cut"}});
  ASSERT_TRUE(s.added_row_slack_basic(0));
  s.delete_rows({m.num_constraints()});
  ASSERT_TRUE(s.set_basis(start));
  EXPECT_EQ(s.stats().refactor_set_basis, 2);
  EXPECT_EQ(s.stats().set_basis_cached, 1);

  // A basis taken after add_rows is refactorized too, then cached.
  s.add_rows({ConstraintDef{{Term{1, 1.0}}, Sense::kLessEqual, 5.0, "cut"}});
  const SimplexSolver::Basis grown = s.basis();
  ASSERT_TRUE(s.set_basis(grown));
  ASSERT_TRUE(s.set_basis(grown));
  EXPECT_EQ(s.stats().refactor_set_basis, 3);
  EXPECT_EQ(s.stats().set_basis_cached, 2);
  const LpResult again = s.solve_dual();
  ASSERT_EQ(again.status, LpStatus::kOptimal);
  EXPECT_EQ(again.iterations, 0);
  EXPECT_NEAR(again.objective, base.objective, kTol);
}

TEST(WarmStart, SetBasisRejectsABasisOfAnotherShape) {
  const Model m = probe_model();
  SimplexSolver s(m);
  ASSERT_EQ(s.solve().status, LpStatus::kOptimal);
  const SimplexSolver::Basis before = s.basis();
  s.add_rows({ConstraintDef{{Term{0, 1.0}, Term{1, 1.0}}, Sense::kLessEqual,
                            1.5, "cut"}});
  EXPECT_THROW(s.set_basis(before), std::invalid_argument);
  // The rejected call left the solver usable.
  EXPECT_EQ(s.solve_dual().status, LpStatus::kOptimal);
}

}  // namespace
}  // namespace advbist::lp
