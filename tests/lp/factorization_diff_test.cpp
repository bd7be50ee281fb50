// Differential fuzz harness for the basis factorization kernel.
//
// Numerical-kernel rewrites are where silent wrong-answer bugs hide, so the
// sparse Markowitz factorization is pinned three ways on seeded random LPs
// (including degenerate and near-singular bases), each at markowitz_tol 0.1
// and 1.0 — two different pivot orders:
//
//  1. FTRAN/BTRAN solutions of the factorized basis are checked against a
//     slow dense-inverse reference (full Gaussian elimination with partial
//     pivoting computed independently here) and against the exact residual
//     B w - rhs.
//  2. Every optimum is certified without trusting the solver's factors:
//     the returned point is primal-feasible, and the LP's explicit dual,
//     built here, has a dual-feasible optimum with the same objective (weak
//     duality then makes both optimal) — including across warm-started
//     bound-change re-solves in the pattern branch & bound produces, and on
//     degenerate (duplicated rows, fixed variables) and near-singular
//     (nearly parallel rows) instances.
//  3. Mid-update: after 1, 5, 20 and (cap - 1) Forrest–Tomlin updates with
//     no refactorization in between — and with add_rows/delete_rows landing
//     between updates — FTRAN/BTRAN still match the dense-inverse reference
//     and the residuals.
//
// Every case is seeded through util::Rng, so any failure reproduces by
// rerunning the named gtest case.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "update_chain.hpp"
#include "util/rng.hpp"

namespace advbist::lp {
namespace {

/// The two threshold settings every case runs at: the default and full
/// partial pivoting, which pick different pivot orders.
constexpr double kMarkowitzTols[] = {0.1, 1.0};

SimplexOptions options_for(double markowitz_tol) {
  SimplexOptions o;
  o.markowitz_tol = markowitz_tol;
  // A tiny interval forces many refactorizations per solve so every case
  // actually exercises the factorization under test, not just its updates.
  o.refactor_every = 3;
  return o;
}

/// Random bounded-feasible LP: rhs values are derived from a random interior
/// point, so the instance is feasible by construction and (finite bounds)
/// never unbounded. Equalities, fixed variables and duplicated rows are
/// mixed in to produce degenerate optimal bases.
Model random_lp(std::uint64_t seed, bool degenerate) {
  util::Rng rng(seed);
  Model m;
  const int n = 6 + rng.next_int(0, 18);
  const int rows = 4 + rng.next_int(0, 14);
  std::vector<double> x0(n);
  for (int v = 0; v < n; ++v) {
    const double ub = 1 + rng.next_int(0, 5);
    m.add_variable(0, ub, rng.next_int(-6, 6), VarType::kContinuous, "");
    x0[v] = rng.next_double() * ub;
  }
  if (degenerate && n > 2) {
    // A couple of fixed variables: their columns can only enter a basis
    // degenerately.
    m.set_bounds(0, 1.0, 1.0);
    x0[0] = 1.0;
  }
  LinExpr dup;  // last <= row, duplicated below in degenerate mode
  double dup_rhs = 0.0;
  for (int r = 0; r < rows; ++r) {
    LinExpr e;
    double lhs = 0.0;
    for (int v = 0; v < n; ++v) {
      if (!rng.next_bool(0.3)) continue;
      const int c = rng.next_int(-4, 4);
      if (c == 0) continue;
      e.add(v, c);
      lhs += c * x0[v];
    }
    const int kind = rng.next_int(0, 9);
    if (kind == 0) {
      m.add_constraint(std::move(e), Sense::kEqual, lhs);
    } else if (kind <= 7) {
      const double rhs = lhs + rng.next_int(degenerate ? 0 : 1, 4);
      dup = e;
      dup_rhs = rhs;
      m.add_constraint(std::move(e), Sense::kLessEqual, rhs);
    } else {
      m.add_constraint(std::move(e), Sense::kGreaterEqual,
                       lhs - rng.next_int(degenerate ? 0 : 1, 4));
    }
  }
  if (degenerate && !dup.terms().empty()) {
    // Exact duplicate row: a prime source of degenerate and rank-deficient
    // candidate bases.
    LinExpr copy = dup;
    m.add_constraint(std::move(copy), Sense::kLessEqual, dup_rhs);
    // Nearly parallel row: near-singular 2x2 blocks in the basis.
    LinExpr tilted = dup;
    tilted.add(0, 1e-9);
    m.add_constraint(std::move(tilted), Sense::kLessEqual, dup_rhs + 1e-9);
  }
  return m;
}

/// Slow dense-inverse reference: solves B w = rhs by Gaussian elimination
/// with partial pivoting on an explicit dense copy of B. Returns false if
/// the dense elimination itself finds B singular.
bool dense_reference_solve(std::vector<double> b, int m,
                           std::vector<double>& rhs) {
  std::vector<int> piv(m);
  for (int k = 0; k < m; ++k) {
    int pr = k;
    for (int i = k + 1; i < m; ++i)
      if (std::abs(b[static_cast<std::size_t>(k) * m + i]) >
          std::abs(b[static_cast<std::size_t>(k) * m + pr]))
        pr = i;
    if (std::abs(b[static_cast<std::size_t>(k) * m + pr]) < 1e-12) return false;
    if (pr != k) {
      for (int j = 0; j < m; ++j)
        std::swap(b[static_cast<std::size_t>(j) * m + pr],
                  b[static_cast<std::size_t>(j) * m + k]);
      std::swap(rhs[pr], rhs[k]);
    }
    const double inv = 1.0 / b[static_cast<std::size_t>(k) * m + k];
    for (int i = k + 1; i < m; ++i) {
      const double mult = b[static_cast<std::size_t>(k) * m + i] * inv;
      if (mult == 0.0) continue;
      for (int j = k; j < m; ++j)
        b[static_cast<std::size_t>(j) * m + i] -=
            mult * b[static_cast<std::size_t>(j) * m + k];
      rhs[i] -= mult * rhs[k];
    }
  }
  for (int k = m - 1; k >= 0; --k) {
    double acc = rhs[k];
    for (int j = k + 1; j < m; ++j)
      acc -= b[static_cast<std::size_t>(j) * m + k] * rhs[j];
    rhs[k] = acc / b[static_cast<std::size_t>(k) * m + k];
  }
  return true;
}

double solution_scale(const std::vector<double>& v) {
  double s = 1.0;
  for (const double x : v) s = std::max(s, std::abs(x));
  return s;
}

/// Residual-checks FTRAN and BTRAN of `s` against its own basis matrix and
/// against the dense-inverse reference, for `trials` random right-hand
/// sides. `tol` is relative to the solution magnitude.
void check_factorization(const SimplexSolver& s, std::uint64_t seed,
                         double tol) {
  const int m = s.num_rows();
  const std::vector<double> b = s.dense_basis_for_testing();
  util::Rng rng(seed ^ 0x5eed5eedULL);
  for (int trial = 0; trial < 2; ++trial) {
    std::vector<double> rhs(m);
    for (double& v : rhs) v = rng.next_double() * 2.0 - 1.0;

    // FTRAN residual: B w == rhs (w indexed by basis position).
    const std::vector<double> w = s.ftran_for_testing(rhs);
    double worst = 0.0;
    for (int row = 0; row < m; ++row) {
      double acc = 0.0;
      for (int i = 0; i < m; ++i)
        acc += b[static_cast<std::size_t>(i) * m + row] * w[i];
      worst = std::max(worst, std::abs(acc - rhs[row]));
    }
    EXPECT_LE(worst, tol * solution_scale(w)) << "FTRAN residual";

    // FTRAN vs the slow dense-inverse reference.
    std::vector<double> ref = rhs;
    if (dense_reference_solve(b, m, ref)) {
      double diff = 0.0;
      for (int i = 0; i < m; ++i) diff = std::max(diff, std::abs(w[i] - ref[i]));
      EXPECT_LE(diff, tol * solution_scale(ref)) << "FTRAN vs dense inverse";
    }

    // BTRAN residual: y' B == cb'.
    std::vector<double> cb(m);
    for (double& v : cb) v = rng.next_double() * 2.0 - 1.0;
    const std::vector<double> y = s.btran_for_testing(cb);
    worst = 0.0;
    for (int i = 0; i < m; ++i) {
      double acc = 0.0;
      for (int row = 0; row < m; ++row)
        acc += y[row] * b[static_cast<std::size_t>(i) * m + row];
      worst = std::max(worst, std::abs(acc - cb[i]));
    }
    EXPECT_LE(worst, tol * solution_scale(y)) << "BTRAN residual";
  }
}

/// The LP dual of `m`, a minimization whose variable bounds are all
/// finite: with y the row duals and s, t >= 0 the lower/upper bound duals,
///   max b'y + l's - u't  s.t.  A'y + s - t = c,
/// y_i <= 0 on <= rows, >= 0 on >= rows and free on equalities. Returned as
/// the minimization of the negated objective over (y, s, t).
Model explicit_dual(const Model& m) {
  const int n = m.num_variables();
  const int rows = m.num_constraints();
  Model d;
  for (const ConstraintDef& c : m.constraints()) {
    const double lo = c.sense == Sense::kGreaterEqual ? 0.0 : -kInfinity;
    const double hi = c.sense == Sense::kLessEqual ? 0.0 : kInfinity;
    d.add_variable(lo, hi, -c.rhs, VarType::kContinuous);
  }
  for (int v = 0; v < n; ++v)
    d.add_variable(0.0, kInfinity, -m.variable(v).lower, VarType::kContinuous);
  for (int v = 0; v < n; ++v)
    d.add_variable(0.0, kInfinity, m.variable(v).upper, VarType::kContinuous);
  std::vector<LinExpr> cols(n);
  for (int r = 0; r < rows; ++r)
    for (const Term& t : m.constraint(r).terms) cols[t.var].add(r, t.coeff);
  for (int v = 0; v < n; ++v) {
    cols[v].add(rows + v, 1.0).add(rows + n + v, -1.0);
    d.add_constraint(std::move(cols[v]), Sense::kEqual,
                     m.variable(v).objective);
  }
  return d;
}

/// Certifies the verdict `r` on `m` without trusting the factors that
/// produced it. An optimum: r.x is primal-feasible with objective
/// r.objective, and the explicit dual, solved with the same options,
/// returns a dual-feasible point of the same objective. An infeasibility
/// verdict: the dual (feasible by construction, s - t = c) is unbounded.
/// `tol` scales with the objective.
void expect_certified(const Model& m, const LpResult& r,
                      const SimplexOptions& o, double tol) {
  const Model dual = explicit_dual(m);
  const LpResult dr = SimplexSolver(dual, o).solve();
  if (r.status == LpStatus::kInfeasible) {
    EXPECT_EQ(dr.status, LpStatus::kUnbounded) << "infeasibility unbacked";
    return;
  }
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  const double scale = 1.0 + std::abs(r.objective);
  EXPECT_LE(m.max_violation(r.x), tol) << "primal point infeasible";
  EXPECT_NEAR(m.objective_value(r.x), r.objective, tol * scale);
  ASSERT_EQ(dr.status, LpStatus::kOptimal) << "explicit dual not solved";
  EXPECT_LE(dual.max_violation(dr.x), tol) << "dual point infeasible";
  EXPECT_NEAR(-dual.objective_value(dr.x), r.objective, tol * scale)
      << "duality gap";
}

class FactorizationDiff : public ::testing::TestWithParam<std::uint64_t> {};

// 1. Sparse-LU FTRAN/BTRAN vs the dense-inverse reference, on the optimal
//    basis the solve ends in (plus a forced refactorization so the factors
//    under test are fresh, not an update product).
TEST_P(FactorizationDiff, FtranBtranMatchDenseReference) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed " + std::to_string(seed));
  const Model m = random_lp(seed, /*degenerate=*/false);
  for (const double mtol : kMarkowitzTols) {
    SimplexSolver s(m, options_for(mtol));
    const LpResult r = s.solve();
    ASSERT_NE(r.status, LpStatus::kIterLimit);
    ASSERT_TRUE(s.refresh_factorization())
        << "markowitz_tol " << mtol << " flagged a working basis singular";
    check_factorization(s, seed, 1e-8);
  }
}

// 2. Every LP's optimum is certified against its explicit dual. (The name
//    is kept so test ids stay stable; there is one factorization path.)
TEST_P(FactorizationDiff, SparseAndDenseSweepAgree) {
  const std::uint64_t seed = GetParam() * 1000003ULL + 17;
  SCOPED_TRACE("seed " + std::to_string(seed));
  const Model m = random_lp(seed, /*degenerate=*/false);
  for (const double mtol : kMarkowitzTols) {
    SCOPED_TRACE("markowitz_tol " + std::to_string(mtol));
    SimplexSolver s(m, options_for(mtol));
    const LpResult r = s.solve();
    ASSERT_EQ(r.status, LpStatus::kOptimal);
    expect_certified(m, r, options_for(mtol), 1e-6);
    // A short solve may never hit the refactorization interval; force one
    // so the factors under test are fresh.
    ASSERT_TRUE(s.refresh_factorization());
    check_factorization(s, seed, 1e-8);
  }
}

// 3. Warm-started re-solves after bound changes (the branch & bound usage
//    pattern) stay certified, and the factors stay verifiable.
TEST_P(FactorizationDiff, WarmStartResolvesAgree) {
  const std::uint64_t seed = GetParam() * 7919ULL + 3;
  SCOPED_TRACE("seed " + std::to_string(seed));
  const Model base = random_lp(seed, /*degenerate=*/false);
  for (const double mtol : kMarkowitzTols) {
    SCOPED_TRACE("markowitz_tol " + std::to_string(mtol));
    Model m = base;
    SimplexSolver s(m, options_for(mtol));
    const LpResult root = s.solve();
    ASSERT_EQ(root.status, LpStatus::kOptimal);
    expect_certified(m, root, options_for(mtol), 1e-6);

    util::Rng rng(seed ^ 0xb0b0ULL);
    const int n = m.num_variables();
    for (int step = 0; step < 6; ++step) {
      const int v = rng.next_int(0, n - 1);
      const double lo = m.variable(v).lower;
      const double hi = m.variable(v).upper;
      if (lo >= hi) continue;
      // Tighten to one of the bounds, like a branching child does. The
      // interior point random_lp derives its rows from may be cut off, so
      // the child can be infeasible.
      const double fix = rng.next_bool() ? lo : hi;
      m.set_bounds(v, fix, fix);
      s.set_variable_bounds(v, fix, fix);
      const LpResult r = s.solve();
      SCOPED_TRACE("step " + std::to_string(step));
      ASSERT_TRUE(r.status == LpStatus::kOptimal ||
                  r.status == LpStatus::kInfeasible);
      expect_certified(m, r, options_for(mtol), 1e-6);
    }
    if (s.refresh_factorization()) check_factorization(s, seed, 1e-8);
  }
}

// 4. Degenerate + near-singular instances: duplicated rows, nearly parallel
//    rows and fixed variables. Every solve must survive (recover rather
//    than crash or return garbage) and certify its optimum.
TEST_P(FactorizationDiff, DegenerateAndNearSingularAgree) {
  const std::uint64_t seed = GetParam() * 104729ULL + 29;
  SCOPED_TRACE("seed " + std::to_string(seed));
  const Model m = random_lp(seed, /*degenerate=*/true);
  for (const double mtol : kMarkowitzTols) {
    SCOPED_TRACE("markowitz_tol " + std::to_string(mtol));
    SimplexSolver s(m, options_for(mtol));
    const LpResult r = s.solve();
    ASSERT_EQ(r.status, LpStatus::kOptimal);
    expect_certified(m, r, options_for(mtol), 1e-5);
    // The factors of an ill-conditioned basis still have to be consistent:
    // verify with a looser, conditioning-aware tolerance.
    if (s.refresh_factorization()) check_factorization(s, seed, 1e-5);
  }
}

// 5. Forrest–Tomlin updates: FTRAN/BTRAN after 1, 5, 20 and (cap - 1)
//    updates with no refactorization, against the dense-inverse reference
//    and the residuals.
TEST_P(FactorizationDiff, MidUpdateSolvesMatchDenseReference) {
  const std::uint64_t seed = GetParam() * 15485863ULL + 41;
  SCOPED_TRACE("seed " + std::to_string(seed));
  const Model m = random_lp(seed, /*degenerate=*/false);
  const int cap = SimplexOptions{}.refactor_every;
  for (const double mtol : kMarkowitzTols) {
    SimplexOptions o;
    o.markowitz_tol = mtol;
    SimplexSolver s(m, o);
    ASSERT_NE(s.solve().status, LpStatus::kIterLimit);
    ASSERT_TRUE(s.refresh_factorization());
    const long long refactorizations = s.stats().refactorizations;
    int done = 0;
    for (const int target : {1, 5, 20, cap - 1}) {
      done += apply_updates(s, m.num_variables(), target - done, seed + done);
      ASSERT_EQ(done, target) << "too few admissible exchanges";
      ASSERT_EQ(s.updates_since_refactor(), target);
      SCOPED_TRACE("updates " + std::to_string(target));
      check_factorization(s, seed + target, 1e-8);
    }
    EXPECT_EQ(s.stats().refactorizations, refactorizations);
  }
}

// 6. Rows appended and deleted between updates: add_rows borders the
//    updated factors in place (no refactorization), delete_rows rebuilds
//    them, and updates continue on both.
TEST_P(FactorizationDiff, MidUpdateAddAndDeleteRows) {
  const std::uint64_t seed = GetParam() * 32452843ULL + 7;
  SCOPED_TRACE("seed " + std::to_string(seed));
  const Model m = random_lp(seed, /*degenerate=*/false);
  const int n = m.num_variables();
  SimplexSolver s(m, SimplexOptions{});
  ASSERT_NE(s.solve().status, LpStatus::kIterLimit);
  ASSERT_TRUE(s.refresh_factorization());
  ASSERT_EQ(apply_updates(s, n, 5, seed), 5);
  check_factorization(s, seed, 1e-8);

  util::Rng rng(seed ^ 0xc0ffeeULL);
  std::vector<ConstraintDef> cuts(2);
  for (ConstraintDef& c : cuts) {
    for (int v = 0; v < n; ++v)
      if (rng.next_bool(0.5)) c.terms.push_back({v, 1.0 + rng.next_int(0, 2)});
    if (c.terms.empty()) c.terms.push_back({0, 1.0});
    c.rhs = 100.0;
  }
  const long long refactorizations = s.stats().refactorizations;
  s.add_rows(cuts);
  EXPECT_EQ(s.stats().refactorizations, refactorizations);
  EXPECT_EQ(s.updates_since_refactor(), 5);
  check_factorization(s, seed + 1, 1e-8);
  ASSERT_EQ(apply_updates(s, n, 5, seed + 1), 5);
  check_factorization(s, seed + 2, 1e-8);

  const int first_cut = m.num_constraints();
  std::vector<int> aged;
  for (int c = 0; c < 2; ++c)
    if (s.added_row_slack_basic(c)) aged.push_back(first_cut + c);
  if (aged.empty()) return;
  s.delete_rows(aged);
  EXPECT_EQ(s.stats().refactor_delete_rows, 1);
  check_factorization(s, seed + 3, 1e-8);
  ASSERT_EQ(apply_updates(s, n, 5, seed + 3), 5);
  check_factorization(s, seed + 4, 1e-8);
}

// 75 seeds x 6 differential properties = 450 seeded cases.
INSTANTIATE_TEST_SUITE_P(Seeds, FactorizationDiff,
                         ::testing::Range<std::uint64_t>(1, 76));

// Targeted regression: a basis that mixes unit slack columns with a dense
// block exercises both singleton phases and the Markowitz bump phase in one
// factorization.
TEST(FactorizationDiffTargeted, MixedSlackAndDenseBlock) {
  util::Rng rng(424242);
  Model m;
  const int n = 12;
  std::vector<double> x0(n);
  for (int v = 0; v < n; ++v) {
    m.add_variable(0, 4, rng.next_int(-5, 5), VarType::kContinuous, "");
    x0[v] = rng.next_double() * 4.0;
  }
  // A dense 6x6 block over the first 6 variables (equalities: all six rows
  // enter the basis), plus sparse inequality rows over the rest.
  for (int r = 0; r < 6; ++r) {
    LinExpr e;
    double lhs = 0.0;
    for (int v = 0; v < 6; ++v) {
      const int c = rng.next_int(1, 5);
      e.add(v, c);
      lhs += c * x0[v];
    }
    m.add_constraint(std::move(e), Sense::kEqual, lhs);
  }
  for (int r = 0; r < 8; ++r) {
    LinExpr e;
    double lhs = 0.0;
    for (int v = 6; v < n; ++v) {
      if (!rng.next_bool(0.4)) continue;
      const int c = rng.next_int(-3, 3);
      if (c == 0) continue;
      e.add(v, c);
      lhs += c * x0[v];
    }
    m.add_constraint(std::move(e), Sense::kLessEqual, lhs + 1);
  }
  for (const double mtol : kMarkowitzTols) {
    SCOPED_TRACE("markowitz_tol " + std::to_string(mtol));
    SimplexSolver s(m, options_for(mtol));
    const LpResult r = s.solve();
    ASSERT_EQ(r.status, LpStatus::kOptimal);
    expect_certified(m, r, options_for(mtol), 1e-6);
    ASSERT_TRUE(s.refresh_factorization());
    check_factorization(s, 424242, 1e-8);
  }
}

// Targeted regression: a singular basis candidate (duplicate equality rows
// force rank deficiency) must be survivable — the solver recovers rather
// than asserting, and still answers correctly.
TEST(FactorizationDiffTargeted, SingularBasisFallsBack) {
  Model m;
  const int a = m.add_variable(0, 10, 1, VarType::kContinuous, "a");
  const int b = m.add_variable(0, 10, 1, VarType::kContinuous, "b");
  m.add_constraint(LinExpr().add(a, 1).add(b, 1), Sense::kEqual, 5);
  m.add_constraint(LinExpr().add(a, 1).add(b, 1), Sense::kEqual, 5);
  m.add_constraint(LinExpr().add(a, 1).add(b, -1), Sense::kLessEqual, 5);
  for (const double mtol : kMarkowitzTols) {
    SimplexSolver s(m, options_for(mtol));
    const LpResult r = s.solve();
    ASSERT_EQ(r.status, LpStatus::kOptimal) << "markowitz_tol " << mtol;
    EXPECT_NEAR(r.objective, 5.0, 1e-6);
  }
}

}  // namespace
}  // namespace advbist::lp
