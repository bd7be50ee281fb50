// Ablation C: solver micro-benchmarks (google-benchmark). Measures the
// simplex and branch & bound kernels that stand in for CPLEX 6.0, the basis
// factorization kernels on the paulin k=2 BIST formulation's LP basis, plus
// the full fig1 synthesis path.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/formulation.hpp"
#include "hls/benchmarks.hpp"
#include "ilp/solver.hpp"
#include "lp/simplex.hpp"
#include "util/rng.hpp"

namespace {

using namespace advbist;

lp::Model random_lp(int n, int m, std::uint64_t seed) {
  util::Rng rng(seed);
  lp::Model model;
  for (int v = 0; v < n; ++v)
    model.add_variable(0, 1, rng.next_int(-5, 5), lp::VarType::kContinuous, "");
  for (int c = 0; c < m; ++c) {
    lp::LinExpr e;
    for (int v = 0; v < n; ++v) {
      const int coeff = rng.next_int(-2, 3);
      if (coeff != 0) e.add(v, coeff);
    }
    model.add_constraint(std::move(e), lp::Sense::kLessEqual,
                         rng.next_int(1, 6));
  }
  return model;
}

void BM_SimplexDense(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const lp::Model model = random_lp(n, n, 42);
  for (auto _ : state) {
    lp::SimplexSolver simplex(model);
    benchmark::DoNotOptimize(simplex.solve().objective);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SimplexDense)->Arg(50)->Arg(100)->Arg(200)->Complexity();

void BM_SimplexWarmRestart(benchmark::State& state) {
  const lp::Model model = random_lp(100, 100, 7);
  lp::SimplexSolver simplex(model);
  simplex.solve();
  int flip = 0;
  for (auto _ : state) {
    simplex.set_variable_bounds(0, 0, flip ^= 1);
    benchmark::DoNotOptimize(simplex.solve().iterations);
  }
}
BENCHMARK(BM_SimplexWarmRestart);

/// The LP relaxation of the paulin k=2 BIST formulation at its optimal
/// basis, freshly refactorized and then moved `updates` seeded pivots away
/// through Forrest–Tomlin updates (no refactorization in between).
struct PaulinBasis {
  lp::Model model;
  std::unique_ptr<lp::SimplexSolver> lp;
};

PaulinBasis paulin_basis(int updates) {
  const hls::Benchmark b = hls::benchmark_by_name("paulin");
  core::FormulationOptions fo;
  fo.include_bist = true;
  fo.k = 2;
  PaulinBasis pb{core::Formulation(b.dfg, b.modules, fo).model(), nullptr};
  pb.lp = std::make_unique<lp::SimplexSolver>(pb.model);
  pb.lp->solve();
  pb.lp->refresh_factorization();
  util::Rng rng(2024);
  const int m = pb.lp->num_rows();
  const int total = pb.model.num_variables() + m;
  std::vector<char> basic(total, 0);
  for (const int col : pb.lp->basis().header) basic[col] = 1;
  for (int done = 0, tries = 0; done < updates && tries < 1000 * updates;
       ++tries) {
    const int pos = rng.next_int(0, m - 1);
    const int col = rng.next_int(0, total - 1);
    if (basic[col]) continue;
    const int leaving = pb.lp->basis().header[pos];
    if (!pb.lp->pivot_for_testing(pos, col)) continue;
    basic[leaving] = 0;
    basic[col] = 1;
    ++done;
  }
  return pb;
}

/// Dense right-hand sides for FTRAN: a few structural columns of A (the
/// entering columns FTRAN sees in the simplex).
std::vector<std::vector<double>> ftran_inputs(const lp::Model& model) {
  std::vector<std::vector<double>> rhs;
  const int n = model.num_variables();
  for (int j = 0; j < 16; ++j) {
    const int var = (j * 7919) % n;
    std::vector<double> v(model.num_constraints(), 0.0);
    for (int r = 0; r < model.num_constraints(); ++r)
      for (const lp::Term& t : model.constraint(r).terms)
        if (t.var == var) v[r] = t.coeff;
    rhs.push_back(std::move(v));
  }
  return rhs;
}

void BM_Ftran(benchmark::State& state) {
  const PaulinBasis pb = paulin_basis(static_cast<int>(state.range(0)));
  const std::vector<std::vector<double>> rhs = ftran_inputs(pb.model);
  std::size_t i = 0;
  for (auto _ : state) {
    std::vector<double> w = pb.lp->ftran_for_testing(rhs[i++ % rhs.size()]);
    benchmark::DoNotOptimize(w.data());
  }
  state.counters["updates"] = pb.lp->updates_since_refactor();
}
BENCHMARK(BM_Ftran)->Arg(0)->Arg(25)->Arg(100);

void BM_Btran(benchmark::State& state) {
  // Unit vectors: the dual simplex BTRANs e_r for every pivot row.
  const PaulinBasis pb = paulin_basis(static_cast<int>(state.range(0)));
  const int m = pb.lp->num_rows();
  std::vector<double> unit(m, 0.0);
  int pos = 0;
  for (auto _ : state) {
    unit[pos] = 1.0;
    std::vector<double> y = pb.lp->btran_for_testing(unit);
    benchmark::DoNotOptimize(y.data());
    unit[pos] = 0.0;
    pos = (pos + 97) % m;
  }
  state.counters["updates"] = pb.lp->updates_since_refactor();
}
BENCHMARK(BM_Btran)->Arg(0)->Arg(25)->Arg(100);

void BM_Refactorize(benchmark::State& state) {
  const PaulinBasis pb = paulin_basis(0);
  for (auto _ : state)
    benchmark::DoNotOptimize(pb.lp->refresh_factorization());
  state.counters["rows"] = pb.lp->num_rows();
}
BENCHMARK(BM_Refactorize);

void BM_DualResolve(benchmark::State& state) {
  // The strong-branching probe on the dual simplex layer: from the paulin
  // k=2 root LP basis, fix one fractional column at a bound, re-solve with
  // solve_dual(), then restore the bounds and the basis (set_basis copies
  // back the cached factors). The columns and bounds cycle, so the time
  // covers PRICE, the ratio test, FTRAN/BTRAN and the LU update.
  const hls::Benchmark b = hls::benchmark_by_name("paulin");
  core::FormulationOptions fo;
  fo.include_bist = true;
  fo.k = 2;
  const lp::Model model = core::Formulation(b.dfg, b.modules, fo).model();
  lp::SimplexSolver lp(model);
  const lp::LpResult root = lp.solve_dual();
  const lp::SimplexSolver::Basis basis = lp.basis();
  lp.set_basis(basis);  // cache the root factors, as the probes do
  std::vector<int> fractional;
  for (int v = 0; v < model.num_variables(); ++v)
    if (root.x[v] > 1e-6 && root.x[v] < 1.0 - 1e-6) fractional.push_back(v);
  if (fractional.empty()) {
    state.SkipWithError("the root LP is integral");
    return;
  }
  long long probes = 0;
  long long iterations = 0;
  for (auto _ : state) {
    const int v = fractional[probes % fractional.size()];
    const double lo = lp.variable_lower(v);
    const double hi = lp.variable_upper(v);
    const double at = (probes / fractional.size()) % 2 == 0 ? lo : hi;
    lp.set_variable_bounds(v, at, at);
    const lp::LpResult r = lp.solve_dual();
    benchmark::DoNotOptimize(r.objective);
    iterations += r.iterations;
    lp.set_variable_bounds(v, lo, hi);
    lp.set_basis(basis);
    ++probes;
  }
  state.counters["rows"] = lp.num_rows();
  state.counters["pivots"] = benchmark::Counter(
      static_cast<double>(iterations) / static_cast<double>(probes));
}
BENCHMARK(BM_DualResolve);

void BM_BranchAndBoundKnapsack(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(13);
  lp::Model model;
  lp::LinExpr weight;
  for (int v = 0; v < n; ++v) {
    model.add_binary(-rng.next_int(1, 30), "");
    weight.add(v, rng.next_int(1, 12));
  }
  model.add_constraint(std::move(weight), lp::Sense::kLessEqual, 3 * n);
  for (auto _ : state) {
    ilp::Options opt;
    opt.time_limit_seconds = 30;
    benchmark::DoNotOptimize(ilp::Solver(opt).solve(model).objective);
  }
}
BENCHMARK(BM_BranchAndBoundKnapsack)->Arg(20)->Arg(40);

void BM_Fig1FormulationBuild(benchmark::State& state) {
  const hls::Benchmark b = hls::make_fig1();
  for (auto _ : state) {
    core::FormulationOptions fo;
    fo.k = 1;
    core::Formulation f(b.dfg, b.modules, fo);
    benchmark::DoNotOptimize(f.model().num_variables());
  }
}
BENCHMARK(BM_Fig1FormulationBuild);

void BM_Fig1ReferenceSynthesis(benchmark::State& state) {
  const hls::Benchmark b = hls::make_fig1();
  for (auto _ : state) {
    core::FormulationOptions fo;
    fo.include_bist = false;
    const core::Formulation f(b.dfg, b.modules, fo);
    ilp::Options opt;
    opt.branch_priority = f.branch_priorities();
    benchmark::DoNotOptimize(ilp::Solver(opt).solve(f.model()).objective);
  }
}
BENCHMARK(BM_Fig1ReferenceSynthesis);

}  // namespace

BENCHMARK_MAIN();
