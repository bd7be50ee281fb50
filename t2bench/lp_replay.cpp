#include <chrono>
#include <cmath>

#include "lp/simplex.hpp"
#include "traced.hpp"
#include "util/rng.hpp"

namespace t2bench {

namespace {

constexpr int kDives = 12;
constexpr int kDiveDepth = 24;

double micros_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

void lp_replay(const lp::Model& model, std::uint64_t seed, Trace& trace,
               int job_id, ReplayStats& out) {
  using Clock = std::chrono::steady_clock;
  const Scope replay(trace, "lp.replay", job_id);
  lp::SimplexSolver lp(model);
  lp::LpResult root;
  {
    const Scope s(trace, "lp.cold_solve", job_id);
    const auto start = Clock::now();
    root = lp.solve();
    out.cold_solve_s += micros_since(start) * 1e-6;
  }
  if (root.status != lp::LpStatus::kOptimal) return;

  // Structural columns, to FTRAN real entering columns.
  std::vector<std::vector<std::pair<int, double>>> columns(
      model.num_variables());
  for (int r = 0; r < model.num_constraints(); ++r)
    for (const lp::Term& t : model.constraint(r).terms)
      columns[t.var].emplace_back(r, t.coeff);

  advbist::util::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (job_id + 1)));
  int resolves = 0;
  auto resolve = [&](std::vector<double>& x) {
    const Scope s(trace, "lp.resolve", job_id);
    const auto start = Clock::now();
    const lp::LpResult r = lp.solve_dual();
    const double us = micros_since(start);
    out.resolve_us.push_back(us);
    out.resolve_s += us * 1e-6;
    out.resolve_pivots += r.iterations;
    if (r.status == lp::LpStatus::kOptimal) x = r.x;
    return r.status == lp::LpStatus::kOptimal;
  };
  // Times a fresh factorization of the current basis, then one FTRAN of a
  // random structural column and one BTRAN of a random unit row.
  auto sample_kernels = [&] {
    const int m = lp.num_rows();
    {
      const Scope s(trace, "lp.refactor", job_id);
      const auto start = Clock::now();
      lp.refresh_factorization();
      out.refactor_us.push_back(micros_since(start));
    }
    std::vector<double> rhs(m, 0.0);
    for (const auto& [row, coeff] :
         columns[rng.next_int(0, model.num_variables() - 1)])
      rhs[row] = coeff;
    {
      const Scope s(trace, "lp.ftran", job_id);
      const auto start = Clock::now();
      const std::vector<double> w = lp.ftran_for_testing(std::move(rhs));
      out.ftran_us.push_back(micros_since(start));
    }
    std::vector<double> unit(m, 0.0);
    unit[rng.next_int(0, m - 1)] = 1.0;
    {
      const Scope s(trace, "lp.btran", job_id);
      const auto start = Clock::now();
      const std::vector<double> y = lp.btran_for_testing(unit);
      out.btran_us.push_back(micros_since(start));
    }
  };

  for (int dive = 0; dive < kDives; ++dive) {
    std::vector<double> x = root.x;
    struct Fix {
      int var;
      double lower, upper;
    };
    std::vector<Fix> fixes;
    for (int depth = 0; depth < kDiveDepth; ++depth) {
      // Fix a fractional integer variable to its nearer integer, or a free
      // one at random when the LP point is already integral.
      std::vector<int> fractional, free;
      for (int v = 0; v < model.num_variables(); ++v) {
        if (model.variable(v).type != lp::VarType::kInteger ||
            lp.variable_lower(v) == lp.variable_upper(v))
          continue;
        free.push_back(v);
        if (std::abs(x[v] - std::round(x[v])) > 1e-6) fractional.push_back(v);
      }
      const std::vector<int>& pool = fractional.empty() ? free : fractional;
      if (pool.empty()) break;
      const int v = pool[rng.next_int(0, static_cast<int>(pool.size()) - 1)];
      const double value =
          fractional.empty()
              ? (rng.next_bool() ? lp.variable_lower(v) : lp.variable_upper(v))
              : std::round(x[v]);
      fixes.push_back({v, lp.variable_lower(v), lp.variable_upper(v)});
      lp.set_variable_bounds(v, value, value);
      const bool feasible = resolve(x);
      if (++resolves % 4 == 0) sample_kernels();
      if (!feasible) break;
    }
    // Back to the root box, warm, for the next dive.
    for (auto it = fixes.rbegin(); it != fixes.rend(); ++it)
      lp.set_variable_bounds(it->var, it->lower, it->upper);
    resolve(x);
  }
}

}  // namespace t2bench
