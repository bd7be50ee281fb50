#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/formulation.hpp"
#include "hls/benchmarks.hpp"
#include "ilp/presolve.hpp"
#include "lp/model.hpp"
#include "lp/sanitizer.hpp"

namespace advbist::ilp {
namespace {

using lp::LinExpr;
using lp::Model;
using lp::Sense;
using lp::VarType;

TEST(Presolve, FixesForcedBinaries) {
  // x + y <= 0 with x,y binary -> both fixed to 0.
  Model m;
  const int x = m.add_binary(1, "x");
  const int y = m.add_binary(1, "y");
  m.add_constraint(LinExpr().add(x, 1).add(y, 1), Sense::kLessEqual, 0);
  const PresolveResult r = presolve(m);
  EXPECT_FALSE(r.infeasible);
  for (const int v : {x, y}) {
    EXPECT_EQ(m.variable(v).lower, 0.0);
    EXPECT_EQ(m.variable(v).upper, 0.0);
  }
}

TEST(Presolve, PropagatesIndicatorChain) {
  // The ADVBIST pattern: z <= a + b, t <= z, a = 0, b = 0 -> t fixed 0.
  Model m;
  const int a = m.add_binary(0, "a");
  const int b = m.add_binary(0, "b");
  const int z = m.add_binary(0, "z");
  const int t = m.add_binary(0, "t");
  m.set_bounds(a, 0, 0);
  m.set_bounds(b, 0, 0);
  // a + b - z >= 0  (z <= a+b)
  m.add_constraint(LinExpr().add(a, 1).add(b, 1).add(z, -1),
                   Sense::kGreaterEqual, 0);
  // z - t >= 0 (t <= z)
  m.add_constraint(LinExpr().add(z, 1).add(t, -1), Sense::kGreaterEqual, 0);
  const PresolveResult r = presolve(m);
  EXPECT_FALSE(r.infeasible);
  EXPECT_EQ(m.variable(z).upper, 0.0);
  EXPECT_EQ(m.variable(t).upper, 0.0);
}

TEST(Presolve, IntegerRounding) {
  // 2x <= 5 with x integer -> x <= 2.
  Model m;
  const int x = m.add_integer(0, 10, 1, "x");
  m.add_constraint(LinExpr().add(x, 2), Sense::kLessEqual, 5);
  presolve(m);
  EXPECT_DOUBLE_EQ(m.variable(x).upper, 2.0);
}

TEST(Presolve, ContinuousNotRounded) {
  Model m;
  const int x = m.add_variable(0, 10, 1, VarType::kContinuous, "x");
  m.add_constraint(LinExpr().add(x, 2), Sense::kLessEqual, 5);
  presolve(m);
  EXPECT_DOUBLE_EQ(m.variable(x).upper, 2.5);
}

TEST(Presolve, DetectsInfeasibleRow) {
  Model m;
  const int x = m.add_binary(0, "x");
  const int y = m.add_binary(0, "y");
  m.add_constraint(LinExpr().add(x, 1).add(y, 1), Sense::kGreaterEqual, 3);
  EXPECT_TRUE(presolve(m).infeasible);
}

TEST(Presolve, DetectsRedundantRow) {
  Model m;
  const int x = m.add_binary(0, "x");
  const int y = m.add_binary(0, "y");
  m.add_constraint(LinExpr().add(x, 1).add(y, 1), Sense::kLessEqual, 5);
  m.add_constraint(LinExpr().add(x, 1).add(y, 1), Sense::kLessEqual, 1);
  const PresolveResult r = presolve(m);
  EXPECT_FALSE(r.infeasible);
  EXPECT_EQ(r.row_redundant, (std::vector<bool>{true, false}));
  // Redundancy drops a row; it does not move a bound.
  for (const int v : {x, y}) {
    EXPECT_EQ(m.variable(v).lower, 0.0);
    EXPECT_EQ(m.variable(v).upper, 1.0);
  }
}

TEST(Presolve, EqualityForcesBothEnds) {
  // x + y = 2 with binaries -> both fixed to 1.
  Model m;
  const int x = m.add_binary(0, "x");
  const int y = m.add_binary(0, "y");
  m.add_constraint(LinExpr().add(x, 1).add(y, 1), Sense::kEqual, 2);
  const PresolveResult r = presolve(m);
  EXPECT_FALSE(r.infeasible);
  EXPECT_DOUBLE_EQ(m.variable(x).lower, 1.0);
  EXPECT_DOUBLE_EQ(m.variable(y).lower, 1.0);
}

TEST(Presolve, GreaterEqualForcesVariableUp) {
  // x >= 1 encoded as row; binary x fixed to 1.
  Model m;
  const int x = m.add_binary(0, "x");
  m.add_constraint(LinExpr().add(x, 1), Sense::kGreaterEqual, 1);
  presolve(m);
  EXPECT_DOUBLE_EQ(m.variable(x).lower, 1.0);
}

TEST(Presolve, CrossedImpliedBoundsInfeasible) {
  Model m;
  const int x = m.add_integer(0, 1, 0, "x");
  // 2x >= 1 and 2x <= 1: x must be 0.5, impossible for integer.
  m.add_constraint(LinExpr().add(x, 2), Sense::kGreaterEqual, 1);
  m.add_constraint(LinExpr().add(x, 2), Sense::kLessEqual, 1);
  EXPECT_TRUE(presolve(m).infeasible);
}

TEST(Presolve, LeavesFeasibleModelSolvable) {
  // Presolve must not cut off the integer optimum.
  Model m;
  const int x = m.add_integer(0, 4, -1, "x");
  const int y = m.add_integer(0, 4, -1, "y");
  m.add_constraint(LinExpr().add(x, 1).add(y, 1), Sense::kLessEqual, 5);
  presolve(m);
  // (4,1) and (1,4) remain feasible.
  EXPECT_LE(m.max_violation({4, 1}, true), 0.0 + 1e-9);
  EXPECT_GE(m.variable(x).upper, 4.0);
}

TEST(Presolve, SlowChainStopsAtTheWorkBudget) {
  // x <= 0.999 y and y <= 0.999 x shrink each other's upper bound by 0.1%
  // per row visit; the fixpoint 0 is tens of thousands of visits away.
  // The work budget stops the kernel with valid, partly tightened bounds.
  Model m;
  const int x = m.add_variable(0, 1e6, 0, VarType::kContinuous, "x");
  const int y = m.add_variable(0, 1e6, 0, VarType::kContinuous, "y");
  m.add_constraint(LinExpr().add(x, 1).add(y, -0.999), Sense::kLessEqual, 0);
  m.add_constraint(LinExpr().add(y, 1).add(x, -0.999), Sense::kLessEqual, 0);
  const PresolveResult r = presolve(m);
  EXPECT_FALSE(r.infeasible);
  for (const int v : {x, y}) {
    EXPECT_EQ(m.variable(v).lower, 0.0);
    EXPECT_LT(m.variable(v).upper, 1e6);
    EXPECT_GT(m.variable(v).upper, 1e5);
  }
}

// The sanitized BIST formulation of `circuit` with k sessions (k = 0: the
// reference datapath formulation).
Model formulation_model(const char* circuit, int k) {
  const hls::Benchmark bench = hls::benchmark_by_name(circuit);
  core::FormulationOptions fo;
  fo.include_bist = k > 0;
  fo.k = k > 0 ? k : 1;
  const core::Formulation f(bench.dfg, bench.modules, fo);
  return lp::sanitize_model(f.model()).model;
}

Model with_rows_reversed(const Model& m) {
  Model rev;
  for (int v = 0; v < m.num_variables(); ++v) {
    const auto& d = m.variable(v);
    rev.add_variable(d.lower, d.upper, d.objective, d.type, d.name);
  }
  for (int c = m.num_constraints() - 1; c >= 0; --c) {
    const auto& row = m.constraint(c);
    LinExpr expr;
    for (const auto& t : row.terms) expr.add(t.var, t.coeff);
    rev.add_constraint(std::move(expr), row.sense, row.rhs, row.name);
  }
  return rev;
}

void expect_same_bounds(const Model& a, const Model& b) {
  ASSERT_EQ(a.num_variables(), b.num_variables());
  for (int v = 0; v < a.num_variables(); ++v) {
    EXPECT_EQ(a.variable(v).lower, b.variable(v).lower) << a.variable(v).name;
    EXPECT_EQ(a.variable(v).upper, b.variable(v).upper) << a.variable(v).name;
  }
}

// Presolve reaches the fixpoint of its tightening operator on the paper's
// models: a second pass moves nothing, and the result does not depend on
// the order the rows are stored in.
TEST(Presolve, FormulationsReachTheFixpoint) {
  for (const char* circuit : {"fig1", "tseng", "paulin"}) {
    for (int k = 0; k <= 2; ++k) {
      SCOPED_TRACE(std::string(circuit) + " k=" + std::to_string(k));
      Model once = formulation_model(circuit, k);
      const PresolveResult first = presolve(once);
      ASSERT_FALSE(first.infeasible);

      Model twice = once;
      const PresolveResult second = presolve(twice);
      ASSERT_FALSE(second.infeasible);
      expect_same_bounds(once, twice);
      EXPECT_EQ(first.row_redundant, second.row_redundant);

      Model reversed = with_rows_reversed(formulation_model(circuit, k));
      const PresolveResult rev = presolve(reversed);
      ASSERT_FALSE(rev.infeasible);
      expect_same_bounds(once, reversed);
      const int rows = once.num_constraints();
      ASSERT_EQ(static_cast<int>(rev.row_redundant.size()), rows);
      for (int c = 0; c < rows; ++c)
        EXPECT_EQ(first.row_redundant[c], rev.row_redundant[rows - 1 - c])
            << once.constraint(c).name;
    }
  }
}

}  // namespace
}  // namespace advbist::ilp
