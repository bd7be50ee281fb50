// Cutting-plane validity and determinism.
//
// The fuzzer enumerates every integer-feasible point of small random 0/1
// models and asserts that no separated cut — from ANY registered separator
// class (clique, lifted cover) — excludes any of them: the one property
// that keeps branch & cut exact. Each seed also runs an ill-conditioned
// variant (rows spread by powers of two up to 2^±9), and the separators run
// both at uniform random fractional points and at LP optima solved with
// the simplex's scaling on and off. The remaining suites
// pin the cut pool's dedup/aging contract, the simplex's incremental row
// append against a from-scratch solver, and that cuts, probing and
// reduced-cost fixing do not change the proven optimum of the paper's
// circuits at any thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/formulation.hpp"
#include "hls/benchmarks.hpp"
#include "ilp/conflict_graph.hpp"
#include "ilp/cuts.hpp"
#include "ilp/presolve.hpp"
#include "ilp/solver.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "util/rng.hpp"

namespace advbist::ilp {
namespace {

using lp::ConstraintDef;
using lp::LinExpr;
using lp::Model;
using lp::Sense;
using lp::Term;

// `pow2_spread` multiplies each row (both sides) by a random power of two
// in [2^-9, 2^9]. The factors are exact in floating point, so the feasible
// set is bit-identical to the unspread model while the coefficient range
// spans ~6 orders of magnitude — the ill-conditioning regime the LP's
// scaling pass exists for.
Model random_binary_model(std::uint64_t seed, int* out_n = nullptr,
                          bool pow2_spread = false) {
  util::Rng rng(seed);
  Model m;
  const int n = rng.next_int(5, 10);
  if (out_n != nullptr) *out_n = n;
  for (int v = 0; v < n; ++v) m.add_binary(rng.next_int(-9, 9), "");
  const int rows = rng.next_int(3, 7);
  for (int c = 0; c < rows; ++c) {
    const double scale =
        pow2_spread ? std::ldexp(1.0, rng.next_int(-9, 9)) : 1.0;
    LinExpr e;
    bool nonzero = false;
    for (int v = 0; v < n; ++v) {
      const int coeff = rng.next_int(-3, 3);
      if (coeff != 0) {
        e.add(v, coeff * scale);
        nonzero = true;
      }
    }
    if (!nonzero) e.add(0, scale);
    const int sense = rng.next_int(0, 5);
    m.add_constraint(std::move(e),
                     sense <= 2   ? Sense::kLessEqual
                     : sense <= 4 ? Sense::kGreaterEqual
                                  : Sense::kEqual,
                     rng.next_int(0, 4) * scale);
  }
  return m;
}

std::vector<std::vector<double>> enumerate_feasible(const Model& m) {
  const int n = m.num_variables();
  std::vector<std::vector<double>> points;
  for (unsigned mask = 0; mask < (1u << n); ++mask) {
    std::vector<double> x(n);
    for (int v = 0; v < n; ++v) x[v] = (mask >> v) & 1u;
    if (m.max_violation(x, true) <= 1e-9) points.push_back(std::move(x));
  }
  return points;
}

// ---------------------------------------------------------------------------
// Validity fuzzer: separated cuts never exclude an integer-feasible point.
// Separator-agnostic: every registered cut class flows through one harness,
// so adding a separator means adding a batch, not a new fuzzer.
// ---------------------------------------------------------------------------

// One separator invocation: the cuts it returned, the fractional point its
// violation claim refers to, and the class every cut must be tagged with.
struct SeparatedBatch {
  const char* separator;
  CutClass expected_class;
  std::vector<Cut> cuts;
  std::vector<double> point;
};

// Per-class production counters so a sweep that silently separated nothing
// for some class fails loudly instead of passing vacuously.
struct SeparatorCounts {
  long long clique = 0;
  long long cover = 0;
};

// Runs every separator over `seeds` random 0/1 models (plus an
// ill-conditioned power-of-two-spread variant per seed) and checks the
// two-sided contract on each returned cut: violated at the separating
// point, satisfied by every integer-feasible point. Each trial separates
// at a uniform random fractional point and at the optimum of the binary
// relaxation under a fresh randomized objective (with `lp_scaling` toggling
// the simplex's internal power-of-two scaling), the kind of vertex the
// solver's cut loop separates at.
void fuzz_all_separators(bool lp_scaling, std::uint64_t seeds,
                         SeparatorCounts* counts) {
  for (const bool spread : {false, true}) {
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      int n = 0;
      const Model m = random_binary_model(seed, &n, spread);
      const std::vector<std::vector<double>> feasible = enumerate_feasible(m);

      // Conflict graph from the rows plus probing implications.
      ConflictGraph graph(n);
      graph.add_from_rows(m, {});
      Model probed = m;
      const ProbingResult probe = probe_binaries(probed, {}, graph);
      graph.finalize();
      if (probe.infeasible) {
        EXPECT_TRUE(feasible.empty()) << "seed " << seed;
        continue;
      }
      // Probing fixings must keep every feasible point.
      for (const auto& pt : feasible)
        for (int v = 0; v < n; ++v) {
          EXPECT_GE(pt[v], probed.variable(v).lower - 1e-9)
              << "seed " << seed << " var " << v;
          EXPECT_LE(pt[v], probed.variable(v).upper + 1e-9)
              << "seed " << seed << " var " << v;
        }

      util::Rng rng(seed * 7919 + (spread ? 13 : 1));
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<double> x(n);
        for (int v = 0; v < n; ++v) x[v] = rng.next_double();

        // Re-solve the relaxation under a randomized objective so
        // successive trials land on different vertices (many fractional).
        Model lpm = m;
        for (int v = 0; v < n; ++v)
          lpm.set_objective(v, rng.next_int(-8, 8) + rng.next_double());
        lp::SimplexOptions so;
        so.scaling = lp_scaling;
        lp::SimplexSolver solver(lpm, so);
        const lp::LpResult r = solver.solve();
        std::vector<std::vector<double>> points = {x};
        if (r.status == lp::LpStatus::kOptimal) points.push_back(r.x);

        std::vector<SeparatedBatch> batches;
        for (const std::vector<double>& p : points) {
          SeparatedBatch b{"clique", CutClass::kClique, {}, p};
          for (const auto& lits : graph.separate_cliques(p, 1e-4, 50))
            b.cuts.push_back(clique_cut_from_literals(lits));
          batches.push_back(std::move(b));
          batches.push_back({"cover", CutClass::kCover,
                             separate_cover_cuts(m, {}, p, 1e-4, 50), p});
        }

        for (const SeparatedBatch& batch : batches) {
          if (counts != nullptr) {
            const long long found = static_cast<long long>(batch.cuts.size());
            switch (batch.expected_class) {
              case CutClass::kClique: counts->clique += found; break;
              case CutClass::kCover: counts->cover += found; break;
            }
          }
          for (const Cut& cut : batch.cuts) {
            EXPECT_EQ(static_cast<int>(cut.cut_class),
                      static_cast<int>(batch.expected_class))
                << batch.separator << " seed " << seed;
            // Each reported cut must actually be violated at its point...
            EXPECT_GT(cut.violation(batch.point), 1e-4)
                << batch.separator << " seed " << seed << " spread "
                << spread;
            // ...and satisfied by every integer-feasible point.
            for (const auto& pt : feasible)
              EXPECT_LE(cut.activity(pt), cut.rhs + 1e-6)
                  << batch.separator << " seed " << seed << " trial "
                  << trial << " spread " << spread;
          }
        }
      }
    }
  }
}

TEST(SeparatorFuzzer, AllClassesValidWithUnscaledLp) {
  SeparatorCounts counts;
  fuzz_all_separators(/*lp_scaling=*/false, /*seeds=*/120, &counts);
  // The sweep must actually exercise every class — a separator that stops
  // producing cuts would otherwise pass on an empty conjunction.
  EXPECT_GT(counts.clique, 0);
  EXPECT_GT(counts.cover, 0);
}

TEST(SeparatorFuzzer, AllClassesValidWithScaledLp) {
  SeparatorCounts counts;
  fuzz_all_separators(/*lp_scaling=*/true, /*seeds=*/120, &counts);
  EXPECT_GT(counts.clique, 0);
  EXPECT_GT(counts.cover, 0);
}

TEST(CutsFuzzer, SolverWithCutsMatchesExhaustiveEnumeration) {
  // End to end: the full cut-and-bound stack (probing, clique + cover cuts,
  // in-tree separation, rc fixing) must report the enumerated optimum.
  for (std::uint64_t seed = 100; seed <= 140; ++seed) {
    const Model m = random_binary_model(seed);
    const auto feasible = enumerate_feasible(m);
    double brute = lp::kInfinity;
    for (const auto& pt : feasible)
      brute = std::min(brute, m.objective_value(pt));

    Options opt;
    opt.cut_node_interval = 4;  // separate aggressively on tiny trees
    const Solution s = Solver(opt).solve(m);
    if (!std::isfinite(brute)) {
      EXPECT_EQ(s.status, SolveStatus::kInfeasible) << "seed " << seed;
    } else {
      ASSERT_TRUE(s.is_optimal()) << "seed " << seed << ": "
                                  << to_string(s.status);
      EXPECT_NEAR(s.objective, brute, 1e-6) << "seed " << seed;
      EXPECT_LE(m.max_violation(s.values, true), 1e-6) << "seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// Cut pool: dedup, selection, activity aging.
// ---------------------------------------------------------------------------

Cut make_cut(std::vector<Term> terms, double rhs) {
  Cut c;
  c.terms = std::move(terms);
  c.rhs = rhs;
  return c;
}

TEST(CutPoolTest, DeduplicatesStructurally) {
  CutPool pool(8);
  EXPECT_TRUE(pool.add(make_cut({{0, 1.0}, {1, 1.0}}, 1.0)));
  EXPECT_FALSE(pool.add(make_cut({{0, 1.0}, {1, 1.0}}, 1.0)));  // dup
  EXPECT_TRUE(pool.add(make_cut({{0, 1.0}, {1, 1.0}}, 2.0)));   // other rhs
  EXPECT_TRUE(pool.add(make_cut({{0, 1.0}, {2, 1.0}}, 1.0)));   // other var
  EXPECT_EQ(pool.num_pooled(), 3);
}

TEST(CutPoolTest, TakeViolatedSelectsAndMarksApplied) {
  CutPool pool(8);
  pool.add(make_cut({{0, 1.0}, {1, 1.0}}, 1.0));  // violated at (1,1)
  pool.add(make_cut({{0, 1.0}}, 1.0));            // satisfied
  const std::vector<double> x{1.0, 1.0};
  const std::vector<Cut> taken = pool.take_violated(x, 1e-4, 10);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].terms.size(), 2u);
  EXPECT_EQ(pool.applied().size(), 1u);
  // Applied cuts are not returned again.
  EXPECT_TRUE(pool.take_violated(x, 1e-4, 10).empty());
}

TEST(CutPoolTest, InactiveCutsAgeOut) {
  CutPool pool(8);
  pool.add(make_cut({{0, 1.0}, {1, 1.0}}, 1.0));
  const std::vector<double> x{0.0, 0.0};  // never violated
  for (int round = 0; round < 3; ++round)
    EXPECT_TRUE(pool.take_violated(x, 1e-4, 10).empty());
  EXPECT_EQ(pool.num_pooled(), 0);
  EXPECT_EQ(pool.aged_out(), 1);
}

TEST(CutPoolTest, ReseparatedCutRegainsLives) {
  CutPool pool(8);
  pool.add(make_cut({{0, 1.0}, {1, 1.0}}, 1.0));
  const std::vector<double> slack_x{0.0, 0.0};
  (void)pool.take_violated(slack_x, 1e-4, 10);  // 2 lives left
  (void)pool.take_violated(slack_x, 1e-4, 10);  // 1 life left
  pool.add(make_cut({{0, 1.0}, {1, 1.0}}, 1.0));  // re-separated: refreshed
  (void)pool.take_violated(slack_x, 1e-4, 10);
  EXPECT_EQ(pool.num_pooled(), 1);  // still alive thanks to the refresh
}

// ---------------------------------------------------------------------------
// Clique cut translation.
// ---------------------------------------------------------------------------

TEST(CliqueCut, ComplementLiteralsFoldIntoRhs) {
  // Clique {x0 = 1, x1 = 0, x2 = 0}: x0 + (1-x1) + (1-x2) <= 1, i.e.
  // x0 - x1 - x2 <= -1.
  const Cut cut = clique_cut_from_literals({ConflictGraph::lit(0, true),
                                            ConflictGraph::lit(1, false),
                                            ConflictGraph::lit(2, false)});
  ASSERT_EQ(cut.terms.size(), 3u);
  EXPECT_DOUBLE_EQ(cut.terms[0].coeff, 1.0);
  EXPECT_DOUBLE_EQ(cut.terms[1].coeff, -1.0);
  EXPECT_DOUBLE_EQ(cut.terms[2].coeff, -1.0);
  EXPECT_DOUBLE_EQ(cut.rhs, -1.0);
  // (1, 0, 0) picks all three literals: activity 1 > -1 — violated, good.
  EXPECT_GT(cut.violation({1.0, 0.0, 0.0}), 0.0);
  // (1, 1, 0) has two literals true -> must stay cut off; (0, 1, 0) only
  // one -> satisfied.
  EXPECT_GT(cut.violation({1.0, 1.0, 0.0}), 0.0);
  EXPECT_LE(cut.violation({0.0, 1.0, 0.0}), 0.0);
}

// ---------------------------------------------------------------------------
// Incremental row append on the simplex.
// ---------------------------------------------------------------------------

TEST(SimplexAddRows, MatchesFreshSolverAcrossAppendBatches) {
  for (std::uint64_t seed = 200; seed <= 215; ++seed) {
    util::Rng rng(seed);
    Model m;
    const int n = rng.next_int(4, 8);
    for (int v = 0; v < n; ++v)
      m.add_variable(0.0, rng.next_int(1, 3), rng.next_int(-5, 5),
                     lp::VarType::kContinuous, "");
    for (int c = 0; c < 3; ++c) {
      LinExpr e;
      for (int v = 0; v < n; ++v) e.add(v, rng.next_int(-2, 3));
      m.add_constraint(std::move(e), Sense::kLessEqual, rng.next_int(2, 6));
    }

    lp::SimplexSolver incremental(m);
    ASSERT_EQ(incremental.solve().status, lp::LpStatus::kOptimal);

    // Three append batches, re-solving (warm) after each; a from-scratch
    // solver over the accumulated model is the reference.
    for (int batch = 0; batch < 3; ++batch) {
      std::vector<ConstraintDef> rows;
      for (int r = 0; r < 2; ++r) {
        LinExpr e;
        for (int v = 0; v < n; ++v) e.add(v, rng.next_int(-2, 3));
        e.normalize();
        const Sense sense =
            rng.next_bool(0.7) ? Sense::kLessEqual : Sense::kGreaterEqual;
        const double rhs = rng.next_int(-1, 5);
        rows.push_back(ConstraintDef{e.terms(), sense, rhs, ""});
        LinExpr copy = e;
        m.add_constraint(std::move(copy), sense, rhs);
      }
      incremental.add_rows(rows);
      const lp::LpResult warm = incremental.solve();
      lp::SimplexSolver fresh(m);
      const lp::LpResult ref = fresh.solve();
      ASSERT_EQ(warm.status, ref.status) << "seed " << seed << " batch "
                                         << batch;
      if (ref.status == lp::LpStatus::kOptimal)
        EXPECT_NEAR(warm.objective, ref.objective, 1e-6)
            << "seed " << seed << " batch " << batch;
    }
  }
}

TEST(SimplexAddRows, BoundChangesBetweenAppendsKeepWarmStartExact) {
  // The branch & bound usage pattern: tighten bounds, re-solve, append cut
  // rows, re-solve — the warm-started objective must track a fresh solve.
  util::Rng rng(42);
  Model m;
  const int n = 6;
  for (int v = 0; v < n; ++v)
    m.add_variable(0.0, 1.0, rng.next_int(-5, 5), lp::VarType::kContinuous,
                   "");
  for (int c = 0; c < 3; ++c) {
    LinExpr e;
    for (int v = 0; v < n; ++v) e.add(v, rng.next_int(0, 3));
    m.add_constraint(std::move(e), Sense::kLessEqual, 4);
  }
  lp::SimplexSolver solver(m);
  ASSERT_EQ(solver.solve().status, lp::LpStatus::kOptimal);

  for (int step = 0; step < 6; ++step) {
    const int v = rng.next_int(0, n - 1);
    const double fixed = rng.next_bool() ? 1.0 : 0.0;
    solver.set_variable_bounds(v, fixed, fixed);
    m.set_bounds(v, fixed, fixed);
    if (step % 2 == 0) {
      LinExpr e;
      for (int w = 0; w < n; ++w) e.add(w, rng.next_int(0, 2));
      e.normalize();
      const double rhs = rng.next_int(2, 5);
      solver.add_rows({ConstraintDef{e.terms(), Sense::kLessEqual, rhs, ""}});
      LinExpr copy = e;
      m.add_constraint(std::move(copy), Sense::kLessEqual, rhs);
    }
    const lp::LpResult warm = solver.solve();
    lp::SimplexSolver fresh(m);
    const lp::LpResult ref = fresh.solve();
    ASSERT_EQ(warm.status, ref.status) << "step " << step;
    if (ref.status == lp::LpStatus::kOptimal)
      EXPECT_NEAR(warm.objective, ref.objective, 1e-6) << "step " << step;
  }
  EXPECT_EQ(solver.num_added_rows(), 3);
}

// ---------------------------------------------------------------------------
// Determinism: cuts must not change the proven optimum, at any thread
// count, with cuts on or off.
// ---------------------------------------------------------------------------

Options cut_determinism_options(const core::Formulation& f, bool cuts) {
  Options opt;
  opt.branch_priority = f.branch_priorities();
  opt.node_limit = -1;
  opt.time_limit_seconds = 300.0;
  if (!cuts) {
    opt.use_clique_cuts = false;
    opt.use_cover_cuts = false;
    opt.use_probing = false;
    opt.use_rc_fixing = false;
    opt.cut_rounds = 0;
    opt.cut_node_interval = 0;
  }
  return opt;
}

TEST(CutsDeterminism, Fig1SameOptimumWithAndWithoutCutsAcrossThreads) {
  const hls::Benchmark bench = hls::benchmark_by_name("fig1");
  core::FormulationOptions fo;
  fo.include_bist = true;
  fo.k = 2;
  const core::Formulation f(bench.dfg, bench.modules, fo);

  double optimum = 0.0;
  bool first = true;
  for (const bool cuts : {true, false}) {
    Options opt = cut_determinism_options(f, cuts);
    for (const int threads : {1, 2, 4}) {
      opt.num_threads = threads;
      const Solution s = Solver(opt).solve(f.model());
      ASSERT_EQ(s.status, SolveStatus::kOptimal)
          << "cuts=" << cuts << " threads=" << threads;
      EXPECT_LE(f.model().max_violation(s.values, true), 1e-6);
      if (first) {
        optimum = s.objective;
        first = false;
      } else {
        EXPECT_NEAR(s.objective, optimum, 1e-6)
            << "cuts=" << cuts << " threads=" << threads;
      }
    }
  }
}

TEST(CutsDeterminism, TsengProvenOptimumUnchangedByCuts) {
  // Release-job material (the cuts-off proof takes ~25s serial); the ASan
  // job excludes it alongside the FullSolve determinism tests.
  const hls::Benchmark bench = hls::benchmark_by_name("tseng");
  core::FormulationOptions fo;
  fo.include_bist = true;
  fo.k = 2;
  const core::Formulation f(bench.dfg, bench.modules, fo);

  Options with_cuts = cut_determinism_options(f, true);
  double optimum = 0.0;
  for (const int threads : {1, 2, 4}) {
    with_cuts.num_threads = threads;
    const Solution s = Solver(with_cuts).solve(f.model());
    ASSERT_EQ(s.status, SolveStatus::kOptimal) << threads << " threads";
    if (threads == 1)
      optimum = s.objective;
    else
      EXPECT_NEAR(s.objective, optimum, 1e-6) << threads << " threads";
  }
  const Options without = cut_determinism_options(f, false);
  const Solution ref = Solver(without).solve(f.model());
  ASSERT_EQ(ref.status, SolveStatus::kOptimal);
  EXPECT_NEAR(ref.objective, optimum, 1e-6)
      << "cuts changed tseng's proven optimum";
}

}  // namespace
}  // namespace advbist::ilp
