// Simplex edge cases: iteration limits, larger structured instances,
// redundant rows, and scaling behaviour.
#include <gtest/gtest.h>

#include <cmath>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "util/rng.hpp"

namespace advbist::lp {
namespace {

TEST(SimplexEdge, IterationLimitReported) {
  util::Rng rng(99);
  Model m;
  for (int v = 0; v < 30; ++v)
    m.add_variable(0, 10, -rng.next_int(1, 9), VarType::kContinuous, "");
  for (int c = 0; c < 30; ++c) {
    LinExpr e;
    for (int v = 0; v < 30; ++v) e.add(v, rng.next_int(0, 3));
    m.add_constraint(std::move(e), Sense::kLessEqual, rng.next_int(10, 40));
  }
  SimplexOptions opt;
  opt.max_iterations = 1;
  SimplexSolver s(m, opt);
  EXPECT_EQ(s.solve().status, LpStatus::kIterLimit);
}

TEST(SimplexEdge, FreeColumnMovesDownFromZero) {
  // A nonbasic free column rests at 0; with a positive reduced cost it
  // must be priced to decrease, not taken as optimal where it stands.
  Model m;
  const int x = m.add_variable(-kInfinity, kInfinity, 1, VarType::kContinuous);
  const int y = m.add_variable(0, 2, -1, VarType::kContinuous);
  m.add_constraint(LinExpr().add(x, 1).add(y, 1), Sense::kGreaterEqual, -5);
  for (const bool dual : {false, true}) {
    SimplexSolver s(m);
    const LpResult r = dual ? s.solve_dual() : s.solve();
    ASSERT_EQ(r.status, LpStatus::kOptimal) << (dual ? "dual" : "primal");
    EXPECT_NEAR(r.objective, -9.0, 1e-9) << (dual ? "dual" : "primal");
  }
}

TEST(SimplexEdge, AssignmentPolytopeIsIntegralAtVertices) {
  // The LP relaxation of an assignment problem has integral vertices
  // (total unimodularity): the simplex optimum must land on one.
  const int n = 5;
  util::Rng rng(7);
  Model m;
  std::vector<std::vector<int>> x(n, std::vector<int>(n));
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      x[i][j] = m.add_variable(0, 1, rng.next_int(1, 9),
                               VarType::kContinuous, "");
  for (int i = 0; i < n; ++i) {
    LinExpr row, col;
    for (int j = 0; j < n; ++j) {
      row.add(x[i][j], 1);
      col.add(x[j][i], 1);
    }
    m.add_constraint(std::move(row), Sense::kEqual, 1);
    m.add_constraint(std::move(col), Sense::kEqual, 1);
  }
  SimplexSolver s(m);
  const LpResult r = s.solve();
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  for (double v : r.x)
    EXPECT_NEAR(v, std::round(v), 1e-6) << "fractional vertex";
}

TEST(SimplexEdge, DuplicateRowsHarmless) {
  Model m;
  const int x = m.add_variable(0, 10, -1, VarType::kContinuous, "x");
  for (int i = 0; i < 5; ++i)
    m.add_constraint(LinExpr().add(x, 1), Sense::kLessEqual, 4);
  SimplexSolver s(m);
  const LpResult r = s.solve();
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -4.0, 1e-7);
}

TEST(SimplexEdge, LargeScaleCoefficients) {
  Model m;
  const int x = m.add_variable(0, 1e6, -1e-3, VarType::kContinuous, "x");
  const int y = m.add_variable(0, 1e6, -1e3, VarType::kContinuous, "y");
  m.add_constraint(LinExpr().add(x, 1e-2).add(y, 1e2), Sense::kLessEqual, 1e4);
  SimplexSolver s(m);
  const LpResult r = s.solve();
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_LE(m.max_violation(r.x), 1e-4);
}

TEST(SimplexEdge, TransportationStructure) {
  // 3 suppliers x 3 consumers, balanced; known optimum computed by hand:
  // supply (10, 20, 30), demand (15, 25, 20), costs below.
  const double cost[3][3] = {{8, 6, 10}, {9, 12, 13}, {14, 9, 16}};
  const double supply[3] = {10, 20, 30};
  const double demand[3] = {15, 25, 20};
  Model m;
  int x[3][3];
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j)
      x[i][j] = m.add_variable(0, kInfinity, cost[i][j],
                               VarType::kContinuous, "");
  for (int i = 0; i < 3; ++i) {
    LinExpr e;
    for (int j = 0; j < 3; ++j) e.add(x[i][j], 1);
    m.add_constraint(std::move(e), Sense::kEqual, supply[i]);
  }
  for (int j = 0; j < 3; ++j) {
    LinExpr e;
    for (int i = 0; i < 3; ++i) e.add(x[i][j], 1);
    m.add_constraint(std::move(e), Sense::kEqual, demand[j]);
  }
  SimplexSolver s(m);
  const LpResult r = s.solve();
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_LE(m.max_violation(r.x), 1e-6);
  // Optimal plan (verified by hand): x02=10, x10=15, x12=5, x21=25, x22=5
  // -> 100 + 135 + 65 + 225 + 80 = 605.
  EXPECT_NEAR(r.objective, 605.0, 1e-5);
}

TEST(SimplexEdge, WarmStartManyBoundChanges) {
  util::Rng rng(31);
  Model m;
  for (int v = 0; v < 25; ++v)
    m.add_variable(0, 1, -rng.next_int(1, 9), VarType::kContinuous, "");
  for (int c = 0; c < 20; ++c) {
    LinExpr e;
    for (int v = 0; v < 25; ++v)
      if (rng.next_bool(0.4)) e.add(v, rng.next_int(1, 3));
    e.add(rng.next_int(0, 24), 1);
    m.add_constraint(std::move(e), Sense::kLessEqual, rng.next_int(3, 10));
  }
  SimplexSolver warm(m);
  for (int round = 0; round < 30; ++round) {
    const int var = round % 25;
    const double fix = (round % 3 == 0) ? 1.0 : 0.0;
    warm.set_variable_bounds(var, fix, fix);
    const LpResult wr = warm.solve();
    // Cross-check against a cold solver with identical bounds.
    SimplexSolver cold(m);
    for (int v = 0; v < 25; ++v)
      cold.set_variable_bounds(v, warm.variable_lower(v),
                               warm.variable_upper(v));
    cold.invalidate_basis();
    const LpResult cr = cold.solve();
    ASSERT_EQ(wr.status, cr.status) << "round " << round;
    if (wr.status == LpStatus::kOptimal)
      EXPECT_NEAR(wr.objective, cr.objective, 1e-5) << "round " << round;
  }
}

}  // namespace
}  // namespace advbist::lp
