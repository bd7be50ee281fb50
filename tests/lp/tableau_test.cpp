// Tableau rows off the live factors: the dual ratio test prices the pivot
// row alpha = rho' [A I] with rho' = e_pos' B^-1 from one BTRAN of a unit
// vector, so that BTRAN must give the true row of B^-1 whatever path built
// the factors. The row is checked against a dense reference on seeded bases.
//
// The reference is computed independently in ORIGINAL units: with B the
// basis matrix assembled from the model rows plus the appended cut rows
// (slack columns are unit vectors), solve B' y = e_pos by dense Gaussian
// elimination; then the row built from btran_for_testing must satisfy
// alpha_j = y . a_j for every column (structural and slack). Pinned:
//   * on the optimal basis of seeded random LPs,
//   * after add_rows (bordered factor extension) and delete_rows (aged
//     cut rows),
//   * after a forced refactorization (fresh factors, empty eta file), and
//   * with power-of-two scaling active (the internal row, unscaled with
//     the model's scale factors, must match the original-unit reference).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "lp/model.hpp"
#include "lp/scaling.hpp"
#include "lp/simplex.hpp"
#include "util/rng.hpp"

namespace advbist::lp {
namespace {

/// Random bounded-feasible LP (rhs derived from a random interior point).
Model random_lp(std::uint64_t seed) {
  util::Rng rng(seed);
  Model m;
  const int n = 5 + rng.next_int(0, 10);
  const int rows = 3 + rng.next_int(0, 8);
  std::vector<double> x0(n);
  for (int v = 0; v < n; ++v) {
    const double ub = 1 + rng.next_int(0, 5);
    m.add_variable(0, ub, rng.next_int(-6, 6), VarType::kContinuous, "");
    x0[v] = rng.next_double() * ub;
  }
  for (int r = 0; r < rows; ++r) {
    LinExpr e;
    double lhs = 0.0;
    for (int v = 0; v < n; ++v) {
      if (!rng.next_bool(0.4)) continue;
      const int c = rng.next_int(-4, 4);
      if (c == 0) continue;
      e.add(v, c);
      lhs += c * x0[v];
    }
    if (e.terms().empty()) e.add(r % n, 1.0), lhs += x0[r % n];
    const int kind = rng.next_int(0, 9);
    if (kind == 0)
      m.add_constraint(std::move(e), Sense::kEqual, lhs);
    else if (kind <= 7)
      m.add_constraint(std::move(e), Sense::kLessEqual, lhs + rng.next_int(1, 4));
    else
      m.add_constraint(std::move(e), Sense::kGreaterEqual,
                       lhs - rng.next_int(1, 4));
  }
  return m;
}

/// Solves M x = rhs by dense Gaussian elimination with partial pivoting
/// (M column-major, m x m). False if singular.
bool dense_solve(std::vector<double> a, int m, std::vector<double>& rhs) {
  for (int k = 0; k < m; ++k) {
    int pr = k;
    for (int i = k + 1; i < m; ++i)
      if (std::abs(a[static_cast<std::size_t>(k) * m + i]) >
          std::abs(a[static_cast<std::size_t>(k) * m + pr]))
        pr = i;
    if (std::abs(a[static_cast<std::size_t>(k) * m + pr]) < 1e-12) return false;
    if (pr != k) {
      for (int j = 0; j < m; ++j)
        std::swap(a[static_cast<std::size_t>(j) * m + pr],
                  a[static_cast<std::size_t>(j) * m + k]);
      std::swap(rhs[pr], rhs[k]);
    }
    const double inv = 1.0 / a[static_cast<std::size_t>(k) * m + k];
    for (int i = k + 1; i < m; ++i) {
      const double mult = a[static_cast<std::size_t>(k) * m + i] * inv;
      if (mult == 0.0) continue;
      for (int j = k; j < m; ++j)
        a[static_cast<std::size_t>(j) * m + i] -=
            mult * a[static_cast<std::size_t>(j) * m + k];
      rhs[i] -= mult * rhs[k];
    }
  }
  for (int k = m - 1; k >= 0; --k) {
    double acc = rhs[k];
    for (int j = k + 1; j < m; ++j)
      acc -= a[static_cast<std::size_t>(j) * m + k] * rhs[j];
    rhs[k] = acc / a[static_cast<std::size_t>(k) * m + k];
  }
  return true;
}

/// The rows of the solver's current LP in original units: the model rows
/// followed by the appended cut rows still in the LP.
std::vector<ConstraintDef> lp_rows(const Model& model,
                                   const std::vector<ConstraintDef>& cuts) {
  std::vector<ConstraintDef> rows;
  for (int r = 0; r < model.num_constraints(); ++r)
    rows.push_back(model.constraint(r));
  rows.insert(rows.end(), cuts.begin(), cuts.end());
  return rows;
}

/// Checks the tableau row of every basis position, built from one BTRAN of
/// a unit vector, against the original-unit dense reference described in
/// the header comment. `sf` holds the solver's scale factors when its
/// scaling is active (null otherwise): the BTRAN then runs on the scaled
/// basis B' = R B C and rho = C_pos * (y' R) recovers the original row.
void check_all_pivot_rows(const SimplexSolver& s,
                          const std::vector<ConstraintDef>& rows, int n,
                          const ScalingFactors* sf, double tol) {
  const int m = s.num_rows();
  ASSERT_EQ(static_cast<int>(rows.size()), m);
  // Original-unit columns of the current LP: structural column j collects
  // a_rj over the rows; slack r is unit e_r.
  std::vector<std::vector<double>> col(static_cast<std::size_t>(n) + m,
                                       std::vector<double>(m, 0.0));
  for (int r = 0; r < m; ++r) {
    for (const Term& t : rows[r].terms) col[t.var][r] = t.coeff;
    col[static_cast<std::size_t>(n) + r][r] = 1.0;
  }
  // Dense transposed basis (column-major B' has column i = row i of B).
  std::vector<double> bt(static_cast<std::size_t>(m) * m);
  for (int i = 0; i < m; ++i)
    for (int r = 0; r < m; ++r)
      bt[static_cast<std::size_t>(r) * m + i] = col[s.basis()[i]][r];

  for (int pos = 0; pos < m; ++pos) {
    std::vector<double> y(m, 0.0);
    y[pos] = 1.0;
    if (!dense_solve(bt, m, y)) continue;  // ill-conditioned seed: skip row
    std::vector<double> unit(m, 0.0);
    unit[pos] = 1.0;
    std::vector<double> rho = s.btran_for_testing(unit);
    if (sf != nullptr) {
      const int b = s.basis()[pos];
      const double c_pos = b < n ? sf->col[b] : 1.0 / sf->row[b - n];
      for (int r = 0; r < m; ++r) rho[r] *= c_pos * sf->row[r];
    }
    double scale = 1.0;
    for (const double v : y) scale = std::max(scale, std::abs(v));
    for (int j = 0; j < n + m; ++j) {
      double alpha = 0.0, ref = 0.0;
      for (int r = 0; r < m; ++r) {
        alpha += rho[r] * col[j][r];
        ref += y[r] * col[j][r];
      }
      EXPECT_NEAR(alpha, ref, tol * scale) << "pos " << pos << " col " << j;
    }
  }
}

class TableauRow : public ::testing::TestWithParam<std::uint64_t> {};

// 1. Optimal bases of seeded random LPs match the dense reference.
TEST_P(TableauRow, MatchesDenseReferenceOnSeededBases) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("seed " + std::to_string(seed));
  const Model m = random_lp(seed);
  SimplexSolver s(m, SimplexOptions{});
  if (s.solve().status != LpStatus::kOptimal) return;
  check_all_pivot_rows(s, lp_rows(m, {}), m.num_variables(), nullptr, 1e-7);
}

// 2. The identity survives add_rows (slack-basic cut rows), a dual
//    re-solve, delete_rows of an aged row, and a forced refactorization.
TEST_P(TableauRow, SurvivesAddDeleteAndRefactorization) {
  const std::uint64_t seed = GetParam() * 9176ULL + 5;
  SCOPED_TRACE("seed " + std::to_string(seed));
  const Model m = random_lp(seed);
  SimplexSolver s(m, SimplexOptions{});
  if (s.solve().status != LpStatus::kOptimal) return;

  // Append two valid rows (loose bound sums) like the cut machinery does.
  util::Rng rng(seed ^ 0xabcdULL);
  std::vector<ConstraintDef> cuts;
  for (int c = 0; c < 2; ++c) {
    ConstraintDef def;
    double slack_room = 1.0 + c;
    for (int v = 0; v < m.num_variables(); ++v) {
      if (!rng.next_bool(0.5)) continue;
      const double coeff = rng.next_int(1, 3);
      def.terms.push_back({v, coeff});
      slack_room += coeff * m.variable(v).upper;
    }
    if (def.terms.empty()) def.terms.push_back({0, 1.0}), slack_room += 10;
    def.rhs = slack_room;  // satisfied by every point in the box
    cuts.push_back(std::move(def));
  }
  s.add_rows(cuts);
  const int n = m.num_variables();
  if (s.solve_dual().status != LpStatus::kOptimal) return;
  check_all_pivot_rows(s, lp_rows(m, cuts), n, nullptr, 1e-7);

  // Loose rows keep their slack basic, so they are deletable; the tableau
  // must be consistent at the shrunken size too.
  if (s.added_row_slack_basic(0)) {
    s.delete_rows({m.num_constraints()});
    cuts.erase(cuts.begin());
    if (s.solve_dual().status == LpStatus::kOptimal)
      check_all_pivot_rows(s, lp_rows(m, cuts), n, nullptr, 1e-7);
  }

  ASSERT_TRUE(s.refactorize_for_testing());
  check_all_pivot_rows(s, lp_rows(m, cuts), n, nullptr, 1e-7);
}

// 3. With power-of-two scaling active on an ill-conditioned model, the
//    rows BTRANed off the scaled factors, unscaled with the model's scale
//    factors, must match the ORIGINAL-unit reference.
TEST_P(TableauRow, ScaledModelReportsOriginalUnits) {
  const std::uint64_t seed = GetParam() * 7331ULL + 11;
  SCOPED_TRACE("seed " + std::to_string(seed));
  util::Rng rng(seed);
  Model m;
  const int n = 6;
  std::vector<double> x0(n);
  for (int v = 0; v < n; ++v) {
    m.add_variable(0, 4, rng.next_int(-5, 5), VarType::kContinuous, "");
    x0[v] = rng.next_double() * 4.0;
  }
  // Power-of-two magnitude spread far outside [2^-6, 2^6] so compute_scaling
  // produces non-trivial factors.
  for (int r = 0; r < 5; ++r) {
    LinExpr e;
    double lhs = 0.0;
    for (int v = 0; v < n; ++v) {
      if (!rng.next_bool(0.6)) continue;
      const double c = rng.next_int(1, 3) * std::ldexp(1.0, rng.next_int(-9, 9));
      e.add(v, c);
      lhs += c * x0[v];
    }
    if (e.terms().empty()) e.add(0, 256.0), lhs += 256.0 * x0[0];
    m.add_constraint(std::move(e), Sense::kLessEqual, lhs + 1);
  }
  SimplexOptions opt;
  opt.scaling = true;
  SimplexSolver s(m, opt);
  if (s.solve().status != LpStatus::kOptimal) return;
  EXPECT_TRUE(s.scaling_active()) << "spread model should trigger scaling";
  const ScalingFactors sf = compute_scaling(m);
  ASSERT_FALSE(sf.trivial);
  check_all_pivot_rows(s, lp_rows(m, {}), n, &sf, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableauRow,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace advbist::lp
