#include "ilp/presolve.hpp"

#include <algorithm>
#include <cmath>

#include "ilp/conflict_graph.hpp"
#include "ilp/tolerances.hpp"
#include "util/logging.hpp"

namespace advbist::ilp {

using lp::ConstraintDef;
using lp::Model;
using lp::Sense;
using lp::Term;
using lp::VarType;

namespace {

/// Flattened copy of the model's (non-skipped) rows plus a variable->rows
/// index, so propagation never walks the Model's per-row vectors.
struct RowSystem {
  struct Row {
    int start, end;  // term range in var/coeff
    double lo, hi;   // the interval the row's activity must hit
  };
  std::vector<Row> rows;
  std::vector<int> var;
  std::vector<double> coeff;
  std::vector<int> var_rows_start;  // size n+1
  std::vector<int> var_rows;        // row indices touching each variable
  std::vector<VarType> types;       // per variable

  RowSystem(const Model& model, const std::vector<bool>& skip_row) {
    const int n = model.num_variables();
    for (int c = 0; c < model.num_constraints(); ++c) {
      if (!skip_row.empty() && skip_row[c]) continue;
      const ConstraintDef& r = model.constraint(c);
      const int start = static_cast<int>(var.size());
      for (const Term& t : r.terms) {
        var.push_back(t.var);
        coeff.push_back(t.coeff);
      }
      const double lo = r.sense == Sense::kLessEqual ? -lp::kInfinity : r.rhs;
      const double hi = r.sense == Sense::kGreaterEqual ? lp::kInfinity : r.rhs;
      rows.push_back(Row{start, static_cast<int>(var.size()), lo, hi});
    }
    var_rows_start.assign(n + 1, 0);
    for (const int v : var) ++var_rows_start[v + 1];
    for (int v = 0; v < n; ++v) var_rows_start[v + 1] += var_rows_start[v];
    var_rows.assign(var.size(), 0);
    std::vector<int> fill(var_rows_start.begin(), var_rows_start.end() - 1);
    for (std::size_t r = 0; r < rows.size(); ++r)
      for (int p = rows[r].start; p < rows[r].end; ++p)
        var_rows[fill[var[p]]++] = static_cast<int>(r);
    types.resize(n);
    for (int v = 0; v < n; ++v) types[v] = model.variable(v).type;
  }
};

void read_bounds(const Model& model, std::vector<double>& lb,
                 std::vector<double>& ub) {
  lb.resize(model.num_variables());
  ub.resize(model.num_variables());
  for (int v = 0; v < model.num_variables(); ++v) {
    lb[v] = model.variable(v).lower;
    ub[v] = model.variable(v).upper;
  }
}

/// Minimum and maximum row activity over the bounds (lb, ub); an infinite
/// bound makes its side infinite, and the finite sum covers the other terms.
struct Activity {
  double min = 0.0, max = 0.0;
  bool min_finite = true, max_finite = true;
};

Activity row_activity(const RowSystem& sys, const RowSystem::Row& row,
                      const std::vector<double>& lb,
                      const std::vector<double>& ub) {
  Activity act;
  for (int p = row.start; p < row.end; ++p) {
    const double c = sys.coeff[p];
    const double lo = c > 0 ? c * lb[sys.var[p]] : c * ub[sys.var[p]];
    const double hi = c > 0 ? c * ub[sys.var[p]] : c * lb[sys.var[p]];
    if (std::isfinite(lo)) act.min += lo; else act.min_finite = false;
    if (std::isfinite(hi)) act.max += hi; else act.max_finite = false;
  }
  return act;
}

/// Queue-driven bound propagation on (lb, ub). Seeds from `seed_var`'s rows
/// (or all rows when seed_var < 0) and tightens to fixpoint or until
/// `work_budget` term visits are spent. Variables whose bounds moved are
/// appended to `touched` (deduplicated through `touched_mark`). Returns
/// false on a proven contradiction.
bool propagate(const RowSystem& sys, std::vector<double>& lb,
               std::vector<double>& ub, int seed_var,
               std::vector<int>& touched, std::vector<char>& touched_mark,
               long long work_budget) {
  std::vector<int> queue;
  std::vector<char> queued(sys.rows.size(), 0);
  auto enqueue_var_rows = [&](int v) {
    for (int p = sys.var_rows_start[v]; p < sys.var_rows_start[v + 1]; ++p) {
      const int r = sys.var_rows[p];
      if (!queued[r]) {
        queued[r] = 1;
        queue.push_back(r);
      }
    }
  };
  if (seed_var >= 0) {
    enqueue_var_rows(seed_var);
  } else {
    for (std::size_t r = 0; r < sys.rows.size(); ++r) {
      queued[r] = 1;
      queue.push_back(static_cast<int>(r));
    }
  }

  std::size_t head = 0;
  long long work = 0;
  while (head < queue.size()) {
    const int r = queue[head++];
    queued[r] = 0;
    const RowSystem::Row& row = sys.rows[r];
    work += row.end - row.start;
    if (work > work_budget) return true;  // budget out: bounds stay valid

    const Activity act = row_activity(sys, row, lb, ub);
    // Infeasibility: activity range entirely outside the row interval.
    if (act.min_finite && act.min > row.hi + kActivityEps) return false;
    if (act.max_finite && act.max < row.lo - kActivityEps) return false;

    // Per-variable implied bounds from the residual activity of the rest:
    // c*x <= hi - rest_min  and  c*x >= lo - rest_max.
    for (int p = row.start; p < row.end; ++p) {
      const int v = sys.var[p];
      const double c = sys.coeff[p];
      double lo = lb[v], hi = ub[v];
      const double contrib_min = c > 0 ? c * lo : c * hi;
      const double contrib_max = c > 0 ? c * hi : c * lo;
      const bool rest_min_finite = act.min_finite && std::isfinite(contrib_min);
      const bool rest_max_finite = act.max_finite && std::isfinite(contrib_max);
      const double rest_min =
          act.min - (std::isfinite(contrib_min) ? contrib_min : 0.0);
      const double rest_max =
          act.max - (std::isfinite(contrib_max) ? contrib_max : 0.0);

      double new_lo = lo, new_hi = hi;
      if (std::isfinite(row.hi) && rest_min_finite) {
        const double cap = row.hi - rest_min;
        if (c > 0)
          new_hi = std::min(new_hi, cap / c);
        else
          new_lo = std::max(new_lo, cap / c);
      }
      if (std::isfinite(row.lo) && rest_max_finite) {
        const double cap = row.lo - rest_max;
        if (c > 0)
          new_lo = std::max(new_lo, cap / c);
        else
          new_hi = std::min(new_hi, cap / c);
      }
      if (sys.types[v] == VarType::kInteger) {
        new_lo = std::ceil(new_lo - kIntEps);
        new_hi = std::floor(new_hi + kIntEps);
      }
      if (new_lo > new_hi + kBoundEps) return false;
      new_hi = std::max(new_hi, new_lo);  // clamp FP noise
      if (new_lo > lo + kBoundEps || new_hi < hi - kBoundEps) {
        lb[v] = std::max(lo, new_lo);
        ub[v] = std::min(hi, new_hi);
        if (!touched_mark[v]) {
          touched_mark[v] = 1;
          touched.push_back(v);
        }
        enqueue_var_rows(v);
      }
    }
  }
  return true;
}

/// Presolve's propagation budget, in full sweeps' worth of term visits.
constexpr long long kPresolveSweeps = 20;
/// Probing caps: binaries probed (two propagations each), term visits per
/// propagation, and harvested conflict edges.
constexpr int kMaxProbes = 5000;
constexpr long long kProbeWork = 200000;
constexpr long long kMaxImplications = 200000;

}  // namespace

PresolveResult presolve(Model& model) {
  PresolveResult result;
  const int n = model.num_variables();
  const RowSystem sys(model, {});
  std::vector<double> lb, ub;
  read_bounds(model, lb, ub);
  std::vector<int> touched;
  std::vector<char> touched_mark(n, 0);
  if (!propagate(sys, lb, ub, -1, touched, touched_mark,
                 kPresolveSweeps * static_cast<long long>(sys.var.size()))) {
    result.infeasible = true;
    return result;
  }
  for (const int v : touched) model.set_bounds(v, lb[v], ub[v]);

  // Redundancy: the final bounds alone satisfy the row. Equality rows are
  // kept.
  int redundant = 0;
  result.row_redundant.assign(sys.rows.size(), false);
  for (std::size_t r = 0; r < sys.rows.size(); ++r) {
    const RowSystem::Row& row = sys.rows[r];
    if (row.lo == row.hi) continue;
    const Activity act = row_activity(sys, row, lb, ub);
    if ((!std::isfinite(row.hi) ||
         (act.max_finite && act.max <= row.hi + kBoundEps)) &&
        (!std::isfinite(row.lo) ||
         (act.min_finite && act.min >= row.lo - kBoundEps))) {
      result.row_redundant[r] = true;
      ++redundant;
    }
  }

  util::log_debug() << "presolve: " << touched.size() << " vars tightened, "
                    << redundant << " redundant rows";
  return result;
}

ProbingResult probe_binaries(Model& model, const std::vector<bool>& skip_row,
                             ConflictGraph& graph) {
  ProbingResult result;
  const int n = model.num_variables();
  const RowSystem sys(model, skip_row);
  std::vector<double> base_lb, base_ub;
  read_bounds(model, base_lb, base_ub);
  auto is_unfixed_binary = [&](int v) {
    return sys.types[v] == VarType::kInteger && base_lb[v] == 0.0 &&
           base_ub[v] == 1.0;
  };

  std::vector<double> lb0, ub0, lb1, ub1;
  std::vector<int> touched0, touched1;
  std::vector<char> mark0(n, 0), mark1(n, 0);

  auto adopt_bounds = [&](const std::vector<double>& lb,
                          const std::vector<double>& ub,
                          const std::vector<int>& touched) {
    // A probe value that is forced (the other value contradicted) makes its
    // propagated bounds unconditionally valid.
    for (const int v : touched) {
      if (lb[v] > base_lb[v] + kBoundEps || ub[v] < base_ub[v] - kBoundEps) {
        base_lb[v] = std::max(base_lb[v], lb[v]);
        base_ub[v] = std::min(base_ub[v], ub[v]);
        if (base_lb[v] == base_ub[v])
          ++result.fixed;
        else
          ++result.bounds_tightened;
        model.set_bounds(v, base_lb[v], base_ub[v]);
      }
    }
  };

  for (int v = 0; v < n && result.probed < kMaxProbes; ++v) {
    if (!is_unfixed_binary(v)) continue;
    ++result.probed;

    lb0 = base_lb; ub0 = base_ub;
    ub0[v] = 0.0;
    touched0.clear();
    const bool feas0 =
        propagate(sys, lb0, ub0, v, touched0, mark0, kProbeWork);
    lb1 = base_lb; ub1 = base_ub;
    lb1[v] = 1.0;
    touched1.clear();
    const bool feas1 =
        propagate(sys, lb1, ub1, v, touched1, mark1, kProbeWork);
    for (const int t : touched0) mark0[t] = 0;
    for (const int t : touched1) mark1[t] = 0;

    if (!feas0 && !feas1) {
      result.infeasible = true;
      return result;
    }
    if (!feas0) {
      base_lb[v] = base_ub[v] = 1.0;
      model.set_bounds(v, 1.0, 1.0);
      ++result.fixed;
      adopt_bounds(lb1, ub1, touched1);
      continue;
    }
    if (!feas1) {
      base_lb[v] = base_ub[v] = 0.0;
      model.set_bounds(v, 0.0, 0.0);
      ++result.fixed;
      adopt_bounds(lb0, ub0, touched0);
      continue;
    }

    // Both probes feasible: harvest agreements (global bounds) and binary
    // fixings (implication edges x = val -> y = w, i.e. the conflict
    // (x, val) -- (y, !w)).
    for (const int y : touched0) {
      if (y == v) continue;
      // Globally valid: y's domain is contained in [min lo, max hi] over
      // the two branches.
      const double glo = std::min(lb0[y], lb1[y]);
      const double ghi = std::max(ub0[y], ub1[y]);
      if (glo > base_lb[y] + kBoundEps || ghi < base_ub[y] - kBoundEps) {
        base_lb[y] = std::max(base_lb[y], glo);
        base_ub[y] = std::min(base_ub[y], ghi);
        if (base_lb[y] == base_ub[y])
          ++result.fixed;
        else
          ++result.bounds_tightened;
        model.set_bounds(y, base_lb[y], base_ub[y]);
      }
      if (result.implications >= kMaxImplications) continue;
      if (is_unfixed_binary(y) && lb0[y] == ub0[y]) {
        const bool w = lb0[y] > 0.5;
        graph.add_edge(ConflictGraph::lit(v, false),
                       ConflictGraph::lit(y, !w));
        ++result.implications;
      }
    }
    for (const int y : touched1) {
      if (y == v || result.implications >= kMaxImplications) continue;
      if (is_unfixed_binary(y) && lb1[y] == ub1[y]) {
        const bool w = lb1[y] > 0.5;
        graph.add_edge(ConflictGraph::lit(v, true),
                       ConflictGraph::lit(y, !w));
        ++result.implications;
      }
    }
  }

  util::log_debug() << "probing: " << result.probed << " probes, "
                    << result.fixed << " fixed, " << result.implications
                    << " implications";
  return result;
}

// ---------------------------------------------------------------------------
// Reduced-model construction.
// ---------------------------------------------------------------------------

ReducedModelResult build_reduced_model(const Model& model,
                                       const std::vector<bool>& row_redundant) {
  ReducedModelResult result;
  for (int v = 0; v < model.num_variables(); ++v) {
    const auto& def = model.variable(v);
    result.model.add_variable(def.lower, def.upper, def.objective, def.type,
                              def.name);
  }
  for (int c = 0; c < model.num_constraints(); ++c) {
    if (!row_redundant.empty() && row_redundant[c]) {
      ++result.dropped_rows;
      continue;
    }
    const ConstraintDef& row = model.constraint(c);
    lp::LinExpr expr;
    double fixed_activity = 0.0;
    int live_terms = 0;
    for (const Term& t : row.terms) {
      const auto& def = model.variable(t.var);
      if (def.lower == def.upper) {
        fixed_activity += t.coeff * def.lower;
        ++result.dropped_terms;
      } else {
        expr.add(t.var, t.coeff);
        ++live_terms;
      }
    }
    const double rhs = row.rhs - fixed_activity;
    if (live_terms == 0) {
      // Constant row: verify and drop.
      const bool ok = row.sense == Sense::kLessEqual   ? 0.0 <= rhs + kActivityEps
                      : row.sense == Sense::kGreaterEqual
                          ? 0.0 >= rhs - kActivityEps
                          : std::abs(rhs) <= kActivityEps;
      if (!ok) result.infeasible = true;
      ++result.dropped_rows;
      continue;
    }
    result.model.add_constraint(std::move(expr), row.sense, rhs, row.name);
  }
  return result;
}

}  // namespace advbist::ilp
