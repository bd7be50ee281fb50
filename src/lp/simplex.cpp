#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>

#include "lp/scaling.hpp"
#include "util/check.hpp"
#include "util/fault_injector.hpp"
#include "util/logging.hpp"

namespace advbist::lp {

namespace {
constexpr double kInf = kInfinity;

/// Relative size of the dual cost perturbation (see simplex.hpp).
constexpr double kCostPerturbation = 5e-7;

/// Deterministic factor in [0.5, 1] for column j: an integer hash of the
/// index, so neighbouring columns get unrelated shifts and tied ratios
/// come apart.
double perturbation_factor(int j) {
  std::uint32_t h = static_cast<std::uint32_t>(j) * 0x9E3779B1u;
  h ^= h >> 15;
  h *= 0x85EBCA77u;
  h ^= h >> 13;
  return 0.5 + 0.5 * (static_cast<double>(h) / 4294967295.0);
}

/// Ascending positions of v's nonzeros, gathered without a branch per
/// entry (a zero test on a FTRAN result of middling density mispredicts).
void collect_nonzeros(const std::vector<double>& v, std::vector<int>& nz) {
  const int n = static_cast<int>(v.size());
  nz.resize(n);
  int count = 0;
  for (int i = 0; i < n; ++i) {
    nz[count] = i;
    count += v[i] != 0.0;
  }
  nz.resize(count);
}
}  // namespace

SimplexSolver::SimplexSolver(const Model& model, Options options)
    : opt_(options), cfg_markowitz_tol_(options.markowitz_tol) {
  n_ = model.num_variables();
  m_ = model.num_constraints();
  initial_m_ = m_;
  total_ = n_ + m_;

  lb_.assign(total_, 0.0);
  ub_.assign(total_, 0.0);
  cost_.assign(total_, 0.0);
  rhs_.assign(m_, 0.0);

  for (int v = 0; v < n_; ++v) {
    const VariableDef& def = model.variable(v);
    lb_[v] = def.lower;
    ub_[v] = def.upper;
    cost_[v] = def.objective;
  }

  // Structural columns in CSC form: count, prefix-sum, fill.
  col_start_.assign(n_ + 1, 0);
  for (int r = 0; r < m_; ++r)
    for (const Term& t : model.constraint(r).terms) ++col_start_[t.var + 1];
  for (int v = 0; v < n_; ++v) col_start_[v + 1] += col_start_[v];
  col_row_.assign(col_start_[n_], 0);
  col_val_.assign(col_start_[n_], 0.0);
  std::vector<int> fill(col_start_.begin(), col_start_.end() - 1);
  for (int r = 0; r < m_; ++r) {
    const ConstraintDef& c = model.constraint(r);
    for (const Term& t : c.terms) {
      const int p = fill[t.var]++;
      col_row_[p] = r;
      col_val_[p] = t.coeff;
    }
    rhs_[r] = c.rhs;
    const int slack = n_ + r;
    switch (c.sense) {
      case Sense::kLessEqual:
        lb_[slack] = 0.0;
        ub_[slack] = kInf;
        break;
      case Sense::kGreaterEqual:
        lb_[slack] = -kInf;
        ub_[slack] = 0.0;
        break;
      case Sense::kEqual:
        lb_[slack] = 0.0;
        ub_[slack] = 0.0;
        break;
    }
  }

  // Scaling: transform the internal copy of the problem (the Model is
  // untouched). Power-of-two factors keep every transform exact; slack
  // bounds (0 / +-inf) are invariant under positive row scaling so only
  // structural data moves. A well-conditioned model comes back trivial
  // and pays nothing — scaling_active_ stays false.
  if (opt_.scaling) {
    ScalingFactors sf = compute_scaling(model);
    if (!sf.trivial) {
      scaling_active_ = true;
      row_scale_ = std::move(sf.row);
      col_scale_ = std::move(sf.col);
      for (int v = 0; v < n_; ++v) {
        cost_[v] *= col_scale_[v];
        lb_[v] /= col_scale_[v];
        ub_[v] /= col_scale_[v];
        for (int p = col_start_[v]; p < col_start_[v + 1]; ++p)
          col_val_[p] *= row_scale_[col_row_[p]] * col_scale_[v];
      }
      for (int r = 0; r < m_; ++r) rhs_[r] *= row_scale_[r];
    }
  }

  basis_.assign(m_, -1);
  vstat_.assign(total_, kAtLower);
  x_.assign(total_, 0.0);
  stats_.peak_rows = m_;
  perm_.assign(m_, 0);
  cperm_.assign(m_, 0);
  u_diag_.assign(m_, 0.0);
  work_.assign(m_, 0.0);
}

void SimplexSolver::set_variable_bounds(int var, double lower, double upper) {
  ADVBIST_REQUIRE(var >= 0 && var < n_, "structural variable index");
  ADVBIST_REQUIRE(lower <= upper, "bounds crossed");
  if (scaling_active_) {
    // Callers speak original units; the internal arrays are scaled. The
    // power-of-two factor keeps variable_lower/upper() an exact inverse.
    lower /= col_scale_[var];
    upper /= col_scale_[var];
  }
  lb_[var] = lower;
  ub_[var] = upper;
  if (vstat_[var] == kBasic) return;
  // A nonbasic variable must sit on one of its (possibly moved) bounds. If
  // its bound became infinite, move it to the other bound — and keep
  // vstat_ consistent with the value it actually sits at, otherwise the
  // next warm start prices it against the wrong bound.
  if (vstat_[var] == kAtUpper && !std::isfinite(upper)) {
    vstat_[var] = kAtLower;
  } else if (vstat_[var] == kAtLower && !std::isfinite(lower)) {
    if (std::isfinite(upper)) vstat_[var] = kAtUpper;
  }
  if (vstat_[var] == kAtLower)
    x_[var] = std::isfinite(lower) ? lower : 0.0;  // free: pinned at 0
  else
    x_[var] = upper;
}

void SimplexSolver::invalidate_basis() { has_basis_ = false; }

void SimplexSolver::add_rows(const std::vector<ConstraintDef>& rows_in) {
  if (rows_in.empty()) return;
  // Scaling: cut rows arrive in original units. Each appended row gets its
  // own equilibrating power-of-two factor (computed against the fixed
  // column factors) BEFORE the border solve below reads any coefficient.
  std::vector<ConstraintDef> scaled_rows;
  if (scaling_active_) {
    scaled_rows = rows_in;
    for (ConstraintDef& row : scaled_rows) {
      const double rs = row_scale_for(row.terms, col_scale_);
      for (Term& t : row.terms) t.coeff *= rs * col_scale_[t.var];
      row.rhs *= rs;
      row_scale_.push_back(rs);
    }
  }
  const std::vector<ConstraintDef>& rows =
      scaling_active_ ? scaled_rows : rows_in;
  const int old_m = m_;
  const int add = static_cast<int>(rows.size());

  // Border rows l' = g' U^-1 R of the extended L, computed against the
  // current factors and their pending updates, where g is the new row over
  // the basic columns in slot order. Solved before any array is resized.
  const bool extend = has_basis_;
  std::vector<std::vector<std::pair<int, double>>> border(add);
  if (extend) {
    std::vector<int> basis_pos(total_, -1);
    for (int j = 0; j < old_m; ++j) basis_pos[basis_[j]] = j;
    std::vector<double> g(old_m);
    for (int i = 0; i < add; ++i) {
      std::fill(g.begin(), g.end(), 0.0);
      bool any = false;
      for (const Term& t : rows[i].terms) {
        ADVBIST_REQUIRE(t.var >= 0 && t.var < n_, "cut row variable index");
        const int bp = basis_pos[t.var];
        if (bp >= 0) {
          g[bp] = t.coeff;
          any = true;
        }
      }
      if (!any) continue;
      std::vector<double>& q = work_;
      q.resize(old_m);
      for (int k = 0; k < old_m; ++k) q[k] = g[cperm_[k]];
      btran_upper(q);
      for (int k = 0; k < old_m; ++k)
        if (std::abs(q[k]) > 1e-14) border[i].emplace_back(k, q[k]);
    }
  }

  // Append row data; the new slacks take indices n_ + old_m + i, after the
  // existing slacks, so no column is renumbered.
  for (int i = 0; i < add; ++i) {
    rhs_.push_back(rows[i].rhs);
    double slo = 0.0, shi = 0.0;
    switch (rows[i].sense) {
      case Sense::kLessEqual:
        slo = 0.0;
        shi = kInf;
        break;
      case Sense::kGreaterEqual:
        slo = -kInf;
        shi = 0.0;
        break;
      case Sense::kEqual:
        slo = shi = 0.0;
        break;
    }
    lb_.push_back(slo);
    ub_.push_back(shi);
    cost_.push_back(0.0);
    vstat_.push_back(kBasic);
    x_.push_back(0.0);
    basis_.push_back(n_ + old_m + i);
  }

  // Merge the new rows' structural coefficients into the CSC arrays.
  std::vector<int> extra(n_, 0);
  int extra_total = 0;
  for (const ConstraintDef& row : rows)
    for (const Term& t : row.terms) {
      ++extra[t.var];
      ++extra_total;
    }
  if (extra_total > 0) {
    std::vector<int> ncs(n_ + 1, 0);
    for (int v = 0; v < n_; ++v)
      ncs[v + 1] = ncs[v] + (col_start_[v + 1] - col_start_[v]) + extra[v];
    std::vector<int> nrow(ncs[n_]);
    std::vector<double> nval(ncs[n_]);
    std::vector<int> fill(ncs.begin(), ncs.end() - 1);
    for (int v = 0; v < n_; ++v)
      for (int p = col_start_[v]; p < col_start_[v + 1]; ++p) {
        nrow[fill[v]] = col_row_[p];
        nval[fill[v]++] = col_val_[p];
      }
    for (int i = 0; i < add; ++i)
      for (const Term& t : rows[i].terms) {
        nrow[fill[t.var]] = old_m + i;
        nval[fill[t.var]++] = t.coeff;
      }
    col_start_ = std::move(ncs);
    col_row_ = std::move(nrow);
    col_val_ = std::move(nval);
  }

  m_ += add;
  total_ = n_ + m_;
  stats_.peak_rows = std::max(stats_.peak_rows, m_);

  if (extend) {
    // Extend the factors: identity rows/columns in P, Q and U (new slots
    // last in U's pivot order, with empty row and column lists), border
    // rows in L. L is stored by column, so rebuild it once with the border
    // entries appended to their columns (entry row old_m + i is always
    // below its column k < old_m, preserving triangularity).
    for (int i = 0; i < add; ++i) {
      perm_.push_back(old_m + i);
      cperm_.push_back(old_m + i);
      u_diag_.push_back(1.0);
      u_order_.push_back(old_m + i);
      for (PackedLists* lists : {&ucol_, &urow_}) {
        lists->start.push_back(static_cast<int>(lists->idx.size()));
        lists->len.push_back(0);
        lists->cap.push_back(0);
      }
    }
    std::vector<int> lextra(m_, 0);
    int lextra_total = 0;
    for (int i = 0; i < add; ++i)
      for (const auto& [k, val] : border[i]) {
        (void)val;
        ++lextra[k];
        ++lextra_total;
      }
    if (lextra_total > 0) {
      std::vector<int> nls(m_ + 1, 0);
      for (int k = 0; k < m_; ++k) {
        const int old_len =
            k < old_m ? l_start_[k + 1] - l_start_[k] : 0;
        nls[k + 1] = nls[k] + old_len + lextra[k];
      }
      std::vector<int> nli(nls[m_]);
      std::vector<double> nlv(nls[m_]);
      std::vector<int> fill(nls.begin(), nls.end() - 1);
      for (int k = 0; k < old_m; ++k)
        for (int p = l_start_[k]; p < l_start_[k + 1]; ++p) {
          nli[fill[k]] = l_idx_[p];
          nlv[fill[k]++] = l_val_[p];
        }
      for (int i = 0; i < add; ++i)
        for (const auto& [k, val] : border[i]) {
          nli[fill[k]] = old_m + i;
          nlv[fill[k]++] = val;
        }
      l_start_ = std::move(nls);
      l_idx_ = std::move(nli);
      l_val_ = std::move(nlv);
    } else {
      l_start_.resize(m_ + 1, l_start_[old_m]);
    }
    // The border entries may fill L columns that were empty. The new U
    // slots (unit diagonal, empty column) are no-ops and stay off u_work_.
    build_l_work(l_work_);
  } else {
    has_basis_ = false;  // next solve() cold-starts at the new size
  }
  build_nonbasic();  // the new slacks are basic; only positions grow

  // Appended cut rows reset the partial-pricing state (the candidate list's
  // scores are stale against the new duals anyway) and the dual pricing
  // weights (the row dimension changed).
  candidates_.clear();
  dual_w_valid_ = false;
  restore_cache_.header.clear();  // factors of the old matrix
}

std::vector<double> SimplexSolver::reduced_costs() const {
  std::vector<double> cb(m_);
  for (int i = 0; i < m_; ++i) cb[i] = cost_[basis_[i]];
  std::vector<double> y;
  btran(cb, y);
  std::vector<double> d(n_);
  for (int v = 0; v < n_; ++v) d[v] = reduced_cost(v, y, cost_);
  // Scaled reduced costs are d' = C d; divide the (power-of-two) factor
  // back out so callers reason in original units.
  if (scaling_active_)
    for (int v = 0; v < n_; ++v) d[v] /= col_scale_[v];
  return d;
}

void SimplexSolver::place_nonbasic(int j) {
  const bool upper = vstat_[j] == kAtUpper
                         ? std::isfinite(ub_[j])
                         : !std::isfinite(lb_[j]) && std::isfinite(ub_[j]);
  vstat_[j] = upper ? kAtUpper : kAtLower;
  if (upper)
    x_[j] = ub_[j];
  else
    x_[j] = std::isfinite(lb_[j]) ? lb_[j] : 0.0;  // free: pinned at 0
}

bool SimplexSolver::set_basis(const Basis& b) {
  ADVBIST_REQUIRE(static_cast<int>(b.header.size()) == m_ &&
                      static_cast<int>(b.status.size()) == total_,
                  "basis taken at another LP shape");
  for (const int col : b.header)
    ADVBIST_REQUIRE(col >= 0 && col < total_ && b.status[col] == kBasic,
                    "basis header names a nonbasic column");
  basis_ = b.header;
  vstat_ = b.status;
  for (int j = 0; j < total_; ++j)
    if (vstat_[j] != kBasic) place_nonbasic(j);
  build_nonbasic();
  has_basis_ = true;
  candidates_.clear();
  price_cursor_ = 0;
  FactorCache& fc = restore_cache_;
  bool factored = true;
  if (!fc.header.empty() && fc.header == basis_ &&
      fc.markowitz_tol == opt_.markowitz_tol) {
    ++stats_.set_basis_cached;
    perm_ = fc.perm;
    cperm_ = fc.cperm;
    l_start_ = fc.l_start;
    l_idx_ = fc.l_idx;
    l_val_ = fc.l_val;
    u_diag_ = fc.u_diag;
    ucol_ = fc.ucol;
    reset_updates();
    dual_w_valid_ = false;  // as a refactorization would
  } else {
    ++stats_.refactor_set_basis;
    factored = refactorize();  // resets the Devex weights
    if (factored) {
      fc.header = basis_;
      fc.markowitz_tol = opt_.markowitz_tol;
      fc.perm = perm_;
      fc.cperm = cperm_;
      fc.l_start = l_start_;
      fc.l_idx = l_idx_;
      fc.l_val = l_val_;
      fc.u_diag = u_diag_;
      fc.ucol = ucol_;
    } else {
      fc.header.clear();
      cold_start();
    }
  }
  compute_basic_values();
  return factored;
}

void SimplexSolver::cold_start() {
  for (int v = 0; v < n_; ++v) {
    vstat_[v] = kAtLower;
    place_nonbasic(v);
  }
  for (int r = 0; r < m_; ++r) {
    basis_[r] = n_ + r;
    vstat_[n_ + r] = kBasic;
  }
  build_nonbasic();
  // The all-slack basis is the identity: trivial factors, no updates.
  l_start_.assign(m_ + 1, 0);
  l_idx_.clear();
  l_val_.clear();
  ucol_.reset(m_);
  u_diag_.assign(m_, 1.0);
  perm_.resize(m_);   // add_rows may have grown the LP since construction
  cperm_.resize(m_);
  for (int r = 0; r < m_; ++r) perm_[r] = r;
  for (int r = 0; r < m_; ++r) cperm_[r] = r;
  reset_updates();
  candidates_.clear();
  has_basis_ = true;
  dual_w_valid_ = false;  // all-slack basis: stale dual pricing weights
}

void SimplexSolver::PackedLists::reset(int n) {
  start.assign(n, 0);
  len.assign(n, 0);
  cap.assign(n, 0);
  idx.clear();
  val.clear();
}

void SimplexSolver::PackedLists::renew(int s, int room) {
  start[s] = static_cast<int>(idx.size());
  len[s] = 0;
  cap[s] = room;
  idx.resize(idx.size() + room);
  val.resize(val.size() + room);
}

void SimplexSolver::PackedLists::push(int s, int i, double v) {
  if (len[s] == cap[s] && start[s] + cap[s] == static_cast<int>(idx.size())) {
    // The list ends the arena: grow it in place.
    idx.push_back(0);
    val.push_back(0.0);
    ++cap[s];
  } else if (len[s] == cap[s]) {
    const int from = start[s];
    const int n = len[s];
    renew(s, 2 * n + 4);
    for (int p = 0; p < n; ++p) {
      idx[start[s] + p] = idx[from + p];
      val[start[s] + p] = val[from + p];
    }
    len[s] = n;
  }
  const int at = start[s] + len[s]++;
  idx[at] = i;
  val[at] = v;
}

void SimplexSolver::PackedLists::erase(int s, int i) {
  const int last = start[s] + len[s] - 1;
  for (int p = start[s]; p <= last; ++p) {
    if (idx[p] != i) continue;
    idx[p] = idx[last];
    val[p] = val[last];
    --len[s];
    return;
  }
  ADVBIST_ENSURE(false, "U entry missing from its row/column list");
}

void SimplexSolver::reset_updates() {
  // Row lists laid out by a counting pass (into cap), with two spare
  // slots each so the first spikes that land in a row do not move it.
  constexpr int kRowSpare = 2;
  urow_.reset(m_);
  u_nnz_ = 0;
  for (int s = 0; s < m_; ++s) {
    for (int p = ucol_.start[s]; p < ucol_.start[s] + ucol_.len[s]; ++p)
      ++urow_.cap[ucol_.idx[p]];
    u_nnz_ += ucol_.len[s];
  }
  int at = 0;
  for (int s = 0; s < m_; ++s) {
    urow_.start[s] = at;
    urow_.cap[s] += kRowSpare;
    at += urow_.cap[s];
  }
  urow_.idx.resize(at);
  urow_.val.resize(at);
  for (int s = 0; s < m_; ++s)
    for (int p = ucol_.start[s]; p < ucol_.start[s] + ucol_.len[s]; ++p)
      urow_.push(ucol_.idx[p], s, ucol_.val[p]);
  u_nnz_factor_ = u_nnz_;
  u_order_.resize(m_);
  for (int s = 0; s < m_; ++s) u_order_[s] = s;
  build_l_work(l_work_);
  build_u_work(u_work_);
  ft_slot_.clear();
  ft_start_.assign(1, 0);
  ft_idx_.clear();
  ft_val_.clear();
  spike_col_ = -1;
  pivots_since_refactor_ = 0;
}

void SimplexSolver::build_l_work(std::vector<int>& out) const {
  out.clear();
  for (int k = 0; k < m_; ++k)
    if (l_start_[k + 1] > l_start_[k]) out.push_back(k);
}

void SimplexSolver::build_u_work(std::vector<int>& out) const {
  out.clear();
  for (const int s : u_order_)
    if (!u_slot_trivial(s)) out.push_back(s);
}

void SimplexSolver::build_nonbasic() {
  nonbasic_.clear();
  nonbasic_pos_.assign(total_, -1);
  for (int j = 0; j < total_; ++j) {
    if (vstat_[j] == kBasic) continue;
    nonbasic_pos_[j] = static_cast<int>(nonbasic_.size());
    nonbasic_.push_back(j);
  }
}

void SimplexSolver::compute_basic_values() {
  // residual = rhs - A_N x_N, then x_B = B^{-1} residual.
  std::vector<double> residual(rhs_);
  for (int v = 0; v < n_; ++v) {
    if (vstat_[v] == kBasic || x_[v] == 0.0) continue;
    const double xv = x_[v];
    for (int p = col_start_[v]; p < col_start_[v + 1]; ++p)
      residual[col_row_[p]] -= col_val_[p] * xv;
  }
  for (int r = 0; r < m_; ++r) {
    const int slack = n_ + r;
    if (vstat_[slack] != kBasic && x_[slack] != 0.0) residual[r] -= x_[slack];
  }
  ftran_vec(residual);
  for (int i = 0; i < m_; ++i) x_[basis_[i]] = residual[i];
}

bool SimplexSolver::escalate_recovery() {
  // A pivot landed since the last trouble: that incident was resolved, so
  // this one restarts at the bottom of the ladder. With NO progress since
  // the last trouble the same incident persists and the next rung fires —
  // which is also what bounds the ladder: a stuck solve climbs through all
  // three rungs and then gives up instead of refactorizing forever.
  if (iterations_ > iters_at_last_trouble_) recovery_rung_ = 0;
  iters_at_last_trouble_ = iterations_;
  while (recovery_rung_ < 3) {
    switch (recovery_rung_++) {
      case 0:
        ++stats_.recovery_refactorize;
        if (refactorize()) {
          compute_basic_values();
          return true;
        }
        break;  // singular: climb
      case 1:
        ++stats_.recovery_tighten;
        // More stability, more fill: admit only pivots within 5x of the
        // column max. Restored to the configured value on the next solve.
        opt_.markowitz_tol = std::min(0.99, opt_.markowitz_tol * 5.0);
        if (refactorize()) {
          compute_basic_values();
          return true;
        }
        break;
      case 2:
        ++stats_.recovery_cold;
        cold_start();
        compute_basic_values();
        return true;
    }
  }
  ++stats_.recovery_exhausted;
  return false;
}

bool SimplexSolver::refactorize() {
  // Fault-injection hook: a forced "singular" verdict fails the
  // refactorization, so the callers' recovery ladder is exercised exactly
  // like a real rank drop would.
  if (auto* fi = util::FaultInjector::active();
      fi != nullptr && fi->fire(util::FaultSite::kFactorSingular))
    return false;
  // Sparse right-looking LU with Markowitz pivoting and relative threshold
  // stability (Suhl-style). Only the active submatrix (unpivoted rows x
  // unpivoted columns) is stored and updated; entries freeze into L/U as
  // their row/column is pivoted, so the work is proportional to fill. The
  // two singleton phases pivot count-1 columns (no multipliers, no update)
  // and count-1 rows (multipliers, no fill) first — slack-heavy bases
  // triangularize almost entirely this way — and the residual bump is
  // eliminated by Markowitz count (rowcount-1)*(colcount-1), smallest
  // first, among threshold-admissible entries.
  const int m = m_;
  MarkowitzWorkspace& w = mw_;
  w.rows.resize(m);
  w.cl.resize(m);
  w.ucols.resize(m);
  for (int i = 0; i < m; ++i) w.rows[i].clear();
  for (int j = 0; j < m; ++j) {
    w.cl[j].clear();
    w.ucols[j].clear();
  }
  w.rowcount.assign(m, 0);
  w.colcount.assign(m, 0);
  w.rowpos.assign(m, -1);
  w.colpos.assign(m, -1);
  w.colq.clear();
  w.rowq.clear();
  w.active.resize(m);
  for (int j = 0; j < m; ++j) w.active[j] = j;
  w.wrow.assign(m, 0.0);
  w.mark.assign(m, 0);
  w.hit.assign(m, 0);
  w.rmark.assign(m, 0);
  w.l_orig_rows.clear();
  w.l_vals.clear();
  w.l_starts.assign(1, 0);

  long long basis_nnz = 0;
  for (int j = 0; j < m; ++j) {
    const int col = basis_[j];
    if (col < n_) {
      for (int p = col_start_[col]; p < col_start_[col + 1]; ++p) {
        w.rows[col_row_[p]].emplace_back(j, col_val_[p]);
        w.cl[j].push_back(col_row_[p]);
      }
    } else {
      w.rows[col - n_].emplace_back(j, 1.0);
      w.cl[j].push_back(col - n_);
    }
  }
  for (int i = 0; i < m; ++i) {
    w.rowcount[i] = static_cast<int>(w.rows[i].size());
    basis_nnz += w.rowcount[i];
    if (w.rowcount[i] == 1) w.rowq.push_back(i);
  }
  for (int j = 0; j < m; ++j) {
    w.colcount[j] = static_cast<int>(w.cl[j].size());
    if (w.colcount[j] == 1) w.colq.push_back(j);
  }

  const double mtol = std::clamp(opt_.markowitz_tol, 1e-4, 1.0);

  // Finds the (value, row) of active column j while compacting stale cl
  // entries; returns the number of active entries (== colcount[j]).
  auto find_in_row = [&](int i, int j) -> std::pair<double, int> {
    const auto& row = w.rows[i];
    for (int p = 0; p < static_cast<int>(row.size()); ++p)
      if (row[p].first == j) return {row[p].second, p};
    return {0.0, -1};
  };

  // Freezes pivot row r (minus the pivot entry itself, already removed) at
  // step k: its entries become U entries of their columns and leave the
  // active column counts. Also scatters them for the elimination updates.
  auto freeze_pivot_row = [&](int r, int k) {
    w.pcols.clear();
    for (const auto& [j, v] : w.rows[r]) {
      w.ucols[j].emplace_back(k, v);
      --w.colcount[j];
      if (w.colcount[j] == 1 && w.colpos[j] < 0) w.colq.push_back(j);
      w.wrow[j] = v;
      w.mark[j] = 1;
      w.pcols.push_back(j);
    }
  };

  // Eliminates column c against the frozen pivot row (scattered in wrow):
  // emits L multipliers and updates the still-active rows.
  auto eliminate_column = [&](int c, int r, double piv) {
    for (const int i : w.cl[c]) {
      if (i == r || w.rowpos[i] >= 0) continue;  // stale: frozen row
      auto [vi, pos] = find_in_row(i, c);
      if (pos < 0) continue;  // stale: entry cancelled earlier
      auto& row = w.rows[i];
      row[pos] = row.back();
      row.pop_back();
      --w.rowcount[i];
      const double mult = vi / piv;
      w.l_orig_rows.push_back(i);
      w.l_vals.push_back(mult);
      if (!w.pcols.empty()) {
        // row_i -= mult * pivot_row: update matching entries, then append
        // fill-in for pivot-row columns the row did not yet touch.
        for (auto& [j, vj] : row) {
          if (!w.mark[j]) continue;
          vj -= mult * w.wrow[j];
          w.hit[j] = 1;
        }
        for (const int j : w.pcols) {
          if (w.hit[j]) {
            w.hit[j] = 0;
            continue;
          }
          const double nv = -mult * w.wrow[j];
          if (std::abs(nv) < 1e-14) continue;  // exact/near cancellation
          row.emplace_back(j, nv);
          w.cl[j].push_back(i);
          ++w.rowcount[i];
          ++w.colcount[j];
        }
      }
      if (w.rowcount[i] == 1) w.rowq.push_back(i);
    }
    // Drop entries a cancellation drove to (near) zero so counts stay honest.
    for (const int i : w.cl[c]) {
      if (w.rowpos[i] >= 0) continue;
      auto& row = w.rows[i];
      for (int p = static_cast<int>(row.size()) - 1; p >= 0; --p) {
        if (std::abs(row[p].second) >= 1e-14) continue;
        const int j = row[p].first;
        row[p] = row.back();
        row.pop_back();
        --w.rowcount[i];
        --w.colcount[j];
        if (w.rowcount[i] == 1) w.rowq.push_back(i);
        if (w.colcount[j] == 1 && w.colpos[j] < 0) w.colq.push_back(j);
      }
    }
    for (const int j : w.pcols) {
      w.mark[j] = 0;
      w.wrow[j] = 0.0;
    }
  };

  // Scans active column j: column max magnitude plus the admissible entry
  // with the smallest Markowitz cost, and the unrestricted best cost (what
  // the threshold vetoed, for the rejection diagnostic). Compacts stale and
  // duplicate cl entries in place — fill-in re-inserts can duplicate a row
  // in the pattern, and an undeduplicated recount would corrupt colcount.
  struct ColScan {
    double colmax = 0.0;
    int best_row = -1;
    double best_val = 0.0;
    long long best_cost = 0;
    long long best_any_cost = -1;  ///< ignoring the threshold; -1 if empty
  };
  auto scan_column = [&](int j) -> ColScan {
    ColScan s;
    auto& pat = w.cl[j];
    auto& entries = w.scan_entries;
    entries.clear();
    std::size_t keep = 0;
    for (const int i : pat) {
      if (w.rowpos[i] >= 0 || w.rmark[i]) continue;
      auto [vi, pos] = find_in_row(i, j);
      if (pos < 0) continue;
      w.rmark[i] = 1;
      pat[keep++] = i;
      entries.emplace_back(i, vi);
      s.colmax = std::max(s.colmax, std::abs(vi));
    }
    pat.resize(keep);
    for (const int i : pat) w.rmark[i] = 0;
    w.colcount[j] = static_cast<int>(keep);
    const double admit = std::max(mtol * s.colmax, opt_.pivot_tol);
    for (const auto& [i, vi] : entries) {
      const long long cost = static_cast<long long>(w.rowcount[i] - 1) *
                             (w.colcount[j] - 1);
      if (s.best_any_cost < 0 || cost < s.best_any_cost)
        s.best_any_cost = cost;
      if (std::abs(vi) < admit) continue;
      if (s.best_row < 0 || cost < s.best_cost ||
          (cost == s.best_cost && std::abs(vi) > std::abs(s.best_val))) {
        s.best_row = i;
        s.best_val = vi;
        s.best_cost = cost;
      }
    }
    return s;
  };

  for (int k = 0; k < m; ++k) {
    int pr = -1, pc = -1;
    double piv = 0.0;

    // Phase A1: singleton columns — a pivot with no multipliers and no
    // update work; only the pivot row's other entries freeze into U.
    while (!w.colq.empty() && pr < 0) {
      const int j = w.colq.back();
      w.colq.pop_back();
      if (w.colpos[j] >= 0 || w.colcount[j] != 1) continue;
      for (const int i : w.cl[j]) {
        if (w.rowpos[i] >= 0) continue;
        auto [vi, pos] = find_in_row(i, j);
        if (pos < 0) continue;
        if (std::abs(vi) <= opt_.pivot_tol) return false;  // singular
        pr = i;
        pc = j;
        piv = vi;
        auto& row = w.rows[i];
        row[pos] = row.back();
        row.pop_back();
        break;
      }
      // colcount said one active entry exists; an empty scan means the
      // active part of the column vanished (numerically) — singular.
      if (pr < 0) return false;
    }

    // Phase A2: singleton rows — multipliers but zero fill-in. Subject to
    // the relative threshold against the pivot column's other entries.
    while (pr < 0 && !w.rowq.empty()) {
      const int i = w.rowq.back();
      w.rowq.pop_back();
      if (w.rowpos[i] >= 0 || w.rowcount[i] != 1) continue;
      const int j = w.rows[i].front().first;
      const double vi = w.rows[i].front().second;
      const ColScan s = scan_column(j);
      if (std::abs(vi) <= opt_.pivot_tol ||
          std::abs(vi) < mtol * s.colmax) {
        ++stats_.pivot_rejections;
        continue;  // unstable as a pivot; the bump phase will cover it
      }
      pr = i;
      pc = j;
      piv = vi;
      w.rows[i].clear();
    }

    // Phase B: Markowitz search over the bump. Examine a handful of
    // smallest-count active columns; fall back to a full scan when none of
    // them yields an admissible pivot. Both walk the ascending list of
    // unpivoted columns, which this walk compacts: the singleton phases
    // pivot most columns without touching it, so the first bump step pays
    // O(m) once and later ones only the bump's width.
    if (pr < 0) {
      constexpr int kCandidates = 4;
      int cand[kCandidates];
      int ncand = 0;
      std::size_t live = 0;
      for (std::size_t q = 0; q < w.active.size(); ++q) {
        const int j = w.active[q];
        if (w.colpos[j] >= 0) continue;
        w.active[live++] = j;
        int at = ncand;
        for (; at > 0 && w.colcount[cand[at - 1]] > w.colcount[j]; --at) {
        }
        if (at >= kCandidates) continue;
        if (ncand < kCandidates) ++ncand;
        for (int q = ncand - 1; q > at; --q) cand[q] = cand[q - 1];
        cand[at] = j;
      }
      w.active.resize(live);
      long long best_cost = 0;
      double best_val = 0.0;
      long long best_any = -1;  // cheapest cost the threshold may have vetoed
      auto consider = [&](int j, const ColScan& s) {
        if (s.best_any_cost >= 0 &&
            (best_any < 0 || s.best_any_cost < best_any))
          best_any = s.best_any_cost;
        if (s.best_row < 0) return;
        if (pr < 0 || s.best_cost < best_cost ||
            (s.best_cost == best_cost &&
             std::abs(s.best_val) > std::abs(best_val))) {
          pr = s.best_row;
          pc = j;
          piv = s.best_val;
          best_cost = s.best_cost;
          best_val = s.best_val;
        }
      };
      for (int q = 0; q < ncand; ++q) consider(cand[q], scan_column(cand[q]));
      if (pr < 0) {
        // None of the low-count candidates was admissible: full sweep.
        for (const int j : w.active) consider(j, scan_column(j));
      }
      if (pr < 0) return false;  // no admissible pivot anywhere: singular
      // Diagnostic: the stability threshold forced a strictly costlier
      // pivot this step (counted once per step, not per rescan).
      if (best_any >= 0 && best_any < best_cost) ++stats_.pivot_rejections;
      const auto [v, pos] = find_in_row(pr, pc);
      auto& row = w.rows[pr];
      row[pos] = row.back();
      row.pop_back();
    }

    // Commit pivot (pr, pc) as step k and eliminate.
    w.rowpos[pr] = k;
    w.colpos[pc] = k;
    perm_[k] = pr;
    cperm_[k] = pc;
    u_diag_[k] = piv;
    freeze_pivot_row(pr, k);
    eliminate_column(pc, pr, piv);
    w.l_starts.push_back(static_cast<int>(w.l_orig_rows.size()));
  }

  // Emit the factors in the layout FTRAN/BTRAN consume. L row indices are
  // remapped from original rows to their final pivot position (always > k
  // since an eliminated row is pivoted after the step that eliminated it).
  l_start_.assign(m + 1, 0);
  l_idx_.clear();
  l_val_.clear();
  ucol_.reset(m);
  for (int k = 0; k < m; ++k) {
    for (int p = w.l_starts[k]; p < w.l_starts[k + 1]; ++p) {
      l_idx_.push_back(w.rowpos[w.l_orig_rows[p]]);
      l_val_.push_back(w.l_vals[p]);
    }
    l_start_[k + 1] = static_cast<int>(l_idx_.size());
    ucol_.renew(k, 0);
    for (const auto& [step, v] : w.ucols[cperm_[k]]) ucol_.push(k, step, v);
  }
  reset_updates();

  stats_.factor_basis_nnz += basis_nnz;
  stats_.factor_fill_nnz +=
      static_cast<long long>(l_idx_.size()) + u_nnz_ + m - basis_nnz;
  ++stats_.refactorizations;
  dual_w_valid_ = false;  // refactorization resets the pricing framework
  return true;
}

void SimplexSolver::ftran_vec(std::vector<double>& v,
                              std::vector<double>* spike) const {
  std::vector<double>& w = work_;
  w.resize(m_);
  for (int i = 0; i < m_; ++i) w[i] = v[perm_[i]];
  // L solve (unit lower) over the slots with a non-empty L column.
  for (const int k : l_work_) {
    const double wk = w[k];
    if (wk == 0.0) continue;
    for (int p = l_start_[k]; p < l_start_[k + 1]; ++p)
      w[l_idx_[p]] -= l_val_[p] * wk;
  }
  // Row etas, oldest first: each folds one eliminated U row back in.
  const int num_row_etas = static_cast<int>(ft_slot_.size());
  for (int e = 0; e < num_row_etas; ++e) {
    double acc = w[ft_slot_[e]];
    for (int p = ft_start_[e]; p < ft_start_[e + 1]; ++p)
      acc -= ft_val_[p] * w[ft_idx_[p]];
    w[ft_slot_[e]] = acc;
  }
  if (spike != nullptr) spike->assign(w.begin(), w.end());
  // U solve, last slot of the pivot order first, over the slots that are
  // not a unit diagonal with an empty column.
  for (auto it = u_work_.rbegin(); it != u_work_.rend(); ++it) {
    const int k = *it;
    if (w[k] == 0.0) continue;
    const double wk = w[k] / u_diag_[k];
    w[k] = wk;
    const int end = ucol_.start[k] + ucol_.len[k];
    for (int p = ucol_.start[k]; p < end; ++p)
      w[ucol_.idx[p]] -= ucol_.val[p] * wk;
  }
  // Scatter from slot order back to basis position (the elimination
  // pivots columns freely).
  for (int k = 0; k < m_; ++k) v[cperm_[k]] = w[k];
}

void SimplexSolver::ftran(int col, std::vector<double>& w) {
  w.assign(m_, 0.0);
  if (col < n_) {
    for (int p = col_start_[col]; p < col_start_[col + 1]; ++p)
      w[col_row_[p]] = col_val_[p];
  } else {
    w[col - n_] = 1.0;
  }
  ftran_vec(w, &spike_);
  spike_col_ = col;
  collect_nonzeros(w, wcol_nz_);
  collect_nonzeros(spike_, spike_nz_);
}

void SimplexSolver::btran_upper(std::vector<double>& q) const {
  // q' U = c' over the U rows in pivot order (scatter form: zero entries of
  // q cost nothing), then the row etas newest first.
  for (const int s : u_order_) {
    if (q[s] == 0.0) continue;
    const double qs = q[s] / u_diag_[s];
    q[s] = qs;
    const int end = urow_.start[s] + urow_.len[s];
    for (int p = urow_.start[s]; p < end; ++p)
      q[urow_.idx[p]] -= urow_.val[p] * qs;
  }
  for (int e = static_cast<int>(ft_slot_.size()) - 1; e >= 0; --e) {
    const double qs = q[ft_slot_[e]];
    if (qs == 0.0) continue;
    for (int p = ft_start_[e]; p < ft_start_[e + 1]; ++p)
      q[ft_idx_[p]] -= ft_val_[p] * qs;
  }
}

void SimplexSolver::btran(const std::vector<double>& cb,
                          std::vector<double>& y) const {
  // Gather into slot order, then U', the row etas reversed, and L'.
  std::vector<double>& q = work_;
  q.resize(m_);
  for (int k = 0; k < m_; ++k) q[k] = cb[cperm_[k]];
  btran_upper(q);
  for (auto it = l_work_.rbegin(); it != l_work_.rend(); ++it) {
    const int j = *it;
    double acc = q[j];
    for (int p = l_start_[j]; p < l_start_[j + 1]; ++p)
      acc -= q[l_idx_[p]] * l_val_[p];
    q[j] = acc;
  }
  y.assign(m_, 0.0);
  for (int i = 0; i < m_; ++i) y[perm_[i]] = q[i];
}

double SimplexSolver::reduced_cost(int col, const std::vector<double>& y,
                                   const std::vector<double>& cost) const {
  double d = cost[col];
  if (col < n_) {
    for (int p = col_start_[col]; p < col_start_[col + 1]; ++p)
      d -= y[col_row_[p]] * col_val_[p];
  } else {
    d -= y[col - n_];
  }
  return d;
}

double SimplexSolver::infeasibility() const {
  double worst = 0.0;
  for (int i = 0; i < m_; ++i) {
    const int col = basis_[i];
    if (x_[col] < lb_[col]) worst = std::max(worst, lb_[col] - x_[col]);
    if (x_[col] > ub_[col]) worst = std::max(worst, x_[col] - ub_[col]);
  }
  return worst;
}

int SimplexSolver::price_column(int j, const std::vector<double>& y,
                                const std::vector<double>& cost,
                                double& score) const {
  if (vstat_[j] == kBasic) return 0;
  if (lb_[j] == ub_[j]) return 0;  // fixed
  const double d = reduced_cost(j, y, cost);
  if (vstat_[j] == kAtLower && d < -opt_.opt_tol) {
    score = -d;
    return +1;  // increase from lower bound
  }
  // A free column sits at 0 marked kAtLower and may move either way.
  if ((vstat_[j] == kAtUpper || !std::isfinite(lb_[j])) && d > opt_.opt_tol) {
    score = d;
    return -1;  // decrease from upper bound (or from 0, if free)
  }
  return 0;
}

int SimplexSolver::iterate(bool phase1, bool bland) {
  // --- cost vector for this phase ---
  const std::vector<double>* cost = &cost_;
  if (phase1) {
    phase_cost_.assign(total_, 0.0);
    for (int i = 0; i < m_; ++i) {
      const int col = basis_[i];
      if (x_[col] < lb_[col] - opt_.feas_tol)
        phase_cost_[col] = -1.0;
      else if (x_[col] > ub_[col] + opt_.feas_tol)
        phase_cost_[col] = 1.0;
    }
    cost = &phase_cost_;
  }

  // --- duals: one BTRAN per iteration ---
  cb_.resize(m_);
  for (int i = 0; i < m_; ++i) cb_[i] = (*cost)[basis_[i]];
  btran(cb_, duals_);
  const std::vector<double>& y = duals_;

  // --- pricing ---
  int entering = -1;
  int dir = +1;  // +1: increase from lower, -1: decrease from upper
  double best_score = opt_.opt_tol;
  if (bland) {
    // Bland's rule: first eligible index, full scan — guarantees
    // termination under degeneracy.
    for (int j = 0; j < total_; ++j) {
      double score = 0.0;
      const int cand_dir = price_column(j, y, *cost, score);
      if (cand_dir != 0) {
        entering = j;
        dir = cand_dir;
        break;
      }
    }
  } else {
    // 1) Re-price the surviving candidate list (cheap: a handful of
    //    columns priced against the fresh duals). On small instances a
    //    full Dantzig scan is already cheap and picks strictly better
    //    pivots, so the list is bypassed there.
    if (total_ <= 256) candidates_.clear();
    std::size_t keep = 0;
    for (const int j : candidates_) {
      double score = 0.0;
      const int cand_dir = price_column(j, y, *cost, score);
      if (cand_dir == 0) continue;
      candidates_[keep++] = j;
      if (score > best_score) {
        best_score = score;
        entering = j;
        dir = cand_dir;
      }
    }
    candidates_.resize(keep);
    // 2) Cursor-based block scan when the list went dry. Optimality is
    //    only declared after a full wrap finds nothing eligible.
    if (entering < 0) {
      candidates_.clear();
      const int block =  // columns per pricing block; small: one full scan
          (total_ <= 256) ? total_ : std::clamp(total_ / 8, 32, 256);
      constexpr int kTargetCandidates = 8;
      int scanned = 0;
      int j = (price_cursor_ < total_) ? price_cursor_ : 0;
      while (scanned < total_) {
        const int stop = std::min(scanned + block, total_);
        for (; scanned < stop; ++scanned, j = (j + 1 == total_) ? 0 : j + 1) {
          double score = 0.0;
          const int cand_dir = price_column(j, y, *cost, score);
          if (cand_dir == 0) continue;
          candidates_.push_back(j);
          if (score > best_score) {
            best_score = score;
            entering = j;
            dir = cand_dir;
          }
        }
        if (static_cast<int>(candidates_.size()) >= kTargetCandidates) break;
      }
      price_cursor_ = j;
    }
  }
  if (entering < 0) return 1;  // phase optimal

  // --- ratio test ---
  std::vector<double>& w = wcol_;
  ftran(entering, w);

  double t_max = ub_[entering] - lb_[entering];  // bound flip distance
  int leaving_row = -1;
  Status leaving_status = kAtLower;

  for (int i = 0; i < m_; ++i) {
    // Effective movement of basic var i per unit of entering movement:
    // x_Bi changes by -dir * w[i] * t.
    const double delta = -dir * w[i];
    if (std::abs(delta) <= opt_.pivot_tol) continue;
    const int col = basis_[i];
    const double xi = x_[col];
    double limit = kInf;
    Status st = kAtLower;
    if (delta < 0.0) {  // x_Bi decreasing
      if (phase1 && xi > ub_[col] + opt_.feas_tol) {
        limit = (xi - ub_[col]) / (-delta);
        st = kAtUpper;
      } else if (xi >= lb_[col] - opt_.feas_tol) {
        if (std::isfinite(lb_[col])) {
          limit = (xi - lb_[col]) / (-delta);
          st = kAtLower;
        }
      }
      // else: already below lower and sinking — linear in phase-1 cost,
      // no breakpoint.
    } else {  // x_Bi increasing
      if (phase1 && xi < lb_[col] - opt_.feas_tol) {
        limit = (lb_[col] - xi) / delta;
        st = kAtLower;
      } else if (xi <= ub_[col] + opt_.feas_tol) {
        if (std::isfinite(ub_[col])) {
          limit = (ub_[col] - xi) / delta;
          st = kAtUpper;
        }
      }
    }
    if (limit < -opt_.feas_tol) limit = 0.0;
    limit = std::max(limit, 0.0);
    const bool better =
        limit < t_max - 1e-12 ||
        (leaving_row >= 0 && limit < t_max + 1e-12 &&
         (bland ? basis_[i] < basis_[leaving_row]
                : std::abs(w[i]) > std::abs(w[leaving_row])));
    if (better) {
      t_max = limit;
      leaving_row = i;
      leaving_status = st;
    }
  }

  if (!std::isfinite(t_max)) {
    if (phase1) return 3;  // numerical trouble: infeasibility is bounded below
    return 2;              // unbounded LP
  }

  if (t_max <= 1e-12)
    ++degenerate_run_;
  else
    degenerate_run_ = 0;

  if (!pivot(entering, leaving_row, t_max, dir, w, wcol_nz_, leaving_status))
    return 3;
  // A primal pivot (fallback, phase 1 repair, or the phase-2 certificate)
  // moves the basis outside the dual pricing framework: reset it.
  dual_w_valid_ = false;
  if (phase1)
    ++iter_phase1_;
  else
    ++iter_phase2_;
  return 0;
}

bool SimplexSolver::pivot(int entering, int leaving_row, double t,
                          int entering_dir, const std::vector<double>& w,
                          const std::vector<int>& w_nz,
                          Status leaving_status) {
  // A basis change first updates the factors: an update that fails its
  // stability check rejects the pivot before anything has moved.
  if (leaving_row >= 0) {
    ADVBIST_ENSURE(std::abs(w[leaving_row]) > opt_.pivot_tol,
                   "pivot element too small");
    ADVBIST_ENSURE(spike_col_ == entering, "pivot without its FTRAN spike");
    if (!update_factors(leaving_row, w[leaving_row])) return false;
  }

  // Move the entering variable and update basic values over w's nonzeros,
  // in ascending order. dual_obj_ follows every value change as c_j * dx_j.
  const double step = entering_dir * t;
  double dobj = cost_[entering] * step;
  x_[entering] += step;
  if (t > 0.0) {
    for (const int i : w_nz) {
      const int b = basis_[i];
      const double dx = step * w[i];
      x_[b] -= dx;
      dobj -= cost_[b] * dx;
    }
  }

  if (leaving_row < 0) {
    // Bound flip: entering stays nonbasic at its opposite bound.
    vstat_[entering] = (entering_dir > 0) ? kAtUpper : kAtLower;
    const double flipped = (entering_dir > 0) ? ub_[entering] : lb_[entering];
    dual_obj_ += dobj + cost_[entering] * (flipped - x_[entering]);
    x_[entering] = flipped;
    ++stats_.bound_flips;
    ++iterations_;
    return true;
  }

  const int leaving = basis_[leaving_row];
  // Snap the leaving variable exactly onto its bound to stop drift.
  const double snap =
      (leaving_status == kAtLower) ? lb_[leaving] : ub_[leaving];
  dual_obj_ += dobj + cost_[leaving] * (snap - x_[leaving]);
  x_[leaving] = snap;
  vstat_[leaving] = (leaving_status == kAtLower) ? kAtLower : kAtUpper;

  basis_[leaving_row] = entering;
  vstat_[entering] = kBasic;
  // The nonbasic list: the leaving column takes the entering one's place.
  const int at = nonbasic_pos_[entering];
  nonbasic_[at] = leaving;
  nonbasic_pos_[leaving] = at;
  nonbasic_pos_[entering] = -1;
  ++stats_.basis_pivots;
  ++iterations_;
  return true;
}

bool SimplexSolver::update_factors(int leaving_row, double alpha) {
  // Forrest–Tomlin: the slot k0 holding the leaving basis position gets
  // the spike as its new U column and moves to the end of U's pivot order;
  // its old U row, now below the diagonal, is eliminated against the rows
  // that follow it in the order, and the multipliers become one row eta.
  const int k0 = static_cast<int>(
      std::find(cperm_.begin(), cperm_.end(), leaving_row) - cperm_.begin());
  const int p0 = static_cast<int>(
      std::find(u_order_.begin(), u_order_.end(), k0) - u_order_.begin());
  const double old_diag = u_diag_[k0];
  spike_col_ = -1;  // consumed
  ft_row_.resize(m_, 0.0);

  // 1. Eliminate row k0 in pivot order, reading U only. Every entry lies
  // after p0 and fill only lands further on, so the walk leaves `row` all
  // zero again. The multipliers are appended as a tentative row eta.
  std::vector<double>& row = ft_row_;
  for (int p = urow_.start[k0]; p < urow_.start[k0] + urow_.len[k0]; ++p)
    row[urow_.idx[p]] = urow_.val[p];
  double diag = spike_[k0];
  for (int pos = p0 + 1; pos < m_; ++pos) {
    const int t = u_order_[pos];
    if (row[t] == 0.0) continue;
    const double mult = row[t] / u_diag_[t];
    row[t] = 0.0;
    ft_idx_.push_back(t);
    ft_val_.push_back(mult);
    diag -= mult * spike_[t];
    for (int p = urow_.start[t]; p < urow_.start[t] + urow_.len[t]; ++p)
      row[urow_.idx[p]] -= mult * urow_.val[p];
  }
  // Fault-injection hook: a perturbed updated diagonal is the drift a long
  // update chain can accumulate, compressed into one pivot — the stability
  // check below must catch it and hand the basis to the recovery ladder.
  if (auto* fi = util::FaultInjector::active();
      fi != nullptr && fi->fire(util::FaultSite::kEtaPerturb))
    diag *= 1.0 + fi->perturbation();

  // 2. Stability: det(B) scales by alpha, so in exact arithmetic the new
  // diagonal equals alpha times the one it replaces. A failed check (a
  // near-singular pivot, or drift in the factors) drops the tentative row
  // eta and leaves the factors describing the old basis.
  constexpr double kStabilityTol = 1e-8;
  if (!(std::abs(diag) > opt_.pivot_tol &&
        std::abs(diag - alpha * old_diag) <= kStabilityTol * std::abs(diag))) {
    ft_idx_.resize(ft_start_.back());
    ft_val_.resize(ft_start_.back());
    ++stats_.refactor_stability;
    return false;
  }
  ft_slot_.push_back(k0);
  ft_start_.push_back(static_cast<int>(ft_idx_.size()));

  // 3. Row k0 leaves U; the spike replaces column k0 (whose old entries
  // leave their rows).
  // A column that loses its last entry and has a unit diagonal became a
  // no-op of the U pass and leaves u_work_.
  const auto drop_from_u_work = [&](int s) {
    u_work_.erase(std::find(u_work_.begin(), u_work_.end(), s));
  };
  for (int p = urow_.start[k0]; p < urow_.start[k0] + urow_.len[k0]; ++p) {
    const int c = urow_.idx[p];
    ucol_.erase(c, k0);
    if (u_slot_trivial(c)) drop_from_u_work(c);
  }
  u_nnz_ -= urow_.len[k0];
  urow_.len[k0] = 0;
  const bool k0_listed = !u_slot_trivial(k0);
  for (int p = ucol_.start[k0]; p < ucol_.start[k0] + ucol_.len[k0]; ++p)
    urow_.erase(ucol_.idx[p], k0);
  u_nnz_ -= ucol_.len[k0];
  ucol_.renew(k0, 0);
  for (const int i : spike_nz_) {
    if (i == k0) continue;
    ucol_.push(k0, i, spike_[i]);
    urow_.push(i, k0, spike_[i]);
    ++u_nnz_;
  }
  u_diag_[k0] = diag;

  // 4. k0 becomes the last slot of the pivot order, and of u_work_ unless
  // its new column is a no-op too.
  u_order_.erase(u_order_.begin() + p0);
  u_order_.push_back(k0);
  if (k0_listed) drop_from_u_work(k0);
  if (!u_slot_trivial(k0)) u_work_.push_back(k0);
  ++pivots_since_refactor_;
  return true;
}

bool SimplexSolver::refactor_due() {
  // U may grow to kUGrowth times its post-factorization size (diagonal
  // included) before the update chain costs more than a refactorization.
  constexpr long long kUGrowth = 4;
  if (pivots_since_refactor_ >= opt_.refactor_every) {
    ++stats_.refactor_update_cap;
    return true;
  }
  if (u_nnz_ + m_ > kUGrowth * (u_nnz_factor_ + m_)) {
    ++stats_.refactor_u_growth;
    return true;
  }
  return false;
}

void SimplexSolver::finalize_result(LpResult& result, LpStatus status) {
  result.status = status;
  result.iterations = iterations_;
  result.phase1_iterations = iter_phase1_;
  result.phase2_iterations = iter_phase2_;
  result.dual_iterations = iter_dual_;
  stats_.primal_phase1_iterations += iter_phase1_;
  stats_.primal_phase2_iterations += iter_phase2_;
  stats_.dual_iterations += iter_dual_;
}

LpResult SimplexSolver::solve() {
  iterations_ = 0;
  iter_phase1_ = 0;
  iter_phase2_ = 0;
  iter_dual_ = 0;
  recovery_rung_ = 0;
  iters_at_last_trouble_ = -1;
  opt_.markowitz_tol = cfg_markowitz_tol_;  // undo any rung-1 tighten
  return run_primal();
}

LpResult SimplexSolver::run_primal() {
  LpResult result;
  if (!has_basis_) cold_start();
  // A warm start keeps the existing factors and their pending updates: the
  // basis did not change, only bounds. refactor_due() below refactorizes
  // once the update budget is spent.
  compute_basic_values();

  degenerate_run_ = 0;
  constexpr int kBlandTrigger = 60;

  // Every exit of the primal loop (and of the dual path, which tails into
  // it) goes through finalize_result exactly once: the iteration split is
  // filled and folded into the cumulative counters.
  auto finalize = [&](LpStatus st) {
    finalize_result(result, st);
    return result;
  };

  // An infeasibility verdict is as load-bearing as an optimality proof
  // (the branch & bound prunes a whole subtree on it — or declares the
  // model infeasible at the root), so it is only ever issued on a FRESH
  // factorization: update drift that manufactured the residual is wiped
  // and the phase-1 conclusion re-derived. One certification per
  // conclusion attempt; new pivots re-arm it.
  int infeasibility_certified_at = -1;
  auto certify_infeasible = [&] {
    if (infeasibility_certified_at == iterations_) return true;  // re-derived
    infeasibility_certified_at = iterations_;
    ++stats_.refactor_certify;
    if (!refactorize()) {
      // Cannot refresh — pivots chosen on drifted numbers can assemble a
      // genuinely singular basis, and a verdict that cannot be re-derived
      // on clean factors is never issued. Restart from the all-slack basis
      // (always factorizable) and let the conclusion re-derive from there.
      cold_start();
      ++stats_.recovery_cold;
    }
    compute_basic_values();
    return false;  // clean numbers: re-run the conclusion
  };

  // ---- phase 1: drive basic-variable bound violations to zero ----
  while (infeasibility() > opt_.feas_tol) {
    if (iterations_ >= opt_.max_iterations) return finalize(LpStatus::kIterLimit);
    if (poll_abort()) {
      ++stats_.aborted_solves;
      return finalize(LpStatus::kAborted);
    }
    if (refactor_due()) {
      // A scheduled refactorization that comes back singular climbs the
      // same ladder as pivot trouble (tighten, cold) instead of
      // jumping straight to a cold start.
      if (refactorize())
        compute_basic_values();
      else if (!escalate_recovery())
        return finalize(LpStatus::kIterLimit);
    }
    const bool bland = degenerate_run_ > kBlandTrigger;
    const int rc = iterate(/*phase1=*/true, bland);
    if (rc == 1) {
      if (infeasibility() > opt_.feas_tol * (1.0 + std::abs(infeasibility()))) {
        if (!certify_infeasible()) continue;
        return finalize(LpStatus::kInfeasible);
      }
      break;
    }
    if (rc == 3) {
      // Numerical trouble: climb the recovery ladder; with it exhausted
      // the solve is abandoned like an iteration limit (the caller's node
      // is dropped honestly, its bound folded into the reduction).
      if (!escalate_recovery()) return finalize(LpStatus::kIterLimit);
    }
  }

  // ---- phase 2: optimize the true objective ----
  for (;;) {
    if (iterations_ >= opt_.max_iterations) return finalize(LpStatus::kIterLimit);
    if (poll_abort()) {
      ++stats_.aborted_solves;
      return finalize(LpStatus::kAborted);
    }
    if (refactor_due()) {
      if (refactorize())
        compute_basic_values();
      else if (!escalate_recovery())
        return finalize(LpStatus::kIterLimit);
    }
    // Phase 2 must stay feasible; a drift back to infeasibility (numerics)
    // sends us through a phase-1 repair.
    if (infeasibility() > opt_.feas_tol * 10.0) {
      const int rc1 = iterate(/*phase1=*/true, degenerate_run_ > kBlandTrigger);
      if (rc1 == 1 && infeasibility() > opt_.feas_tol * 10.0) {
        if (!certify_infeasible()) continue;
        return finalize(LpStatus::kInfeasible);
      }
      if (rc1 == 3 && !escalate_recovery())
        return finalize(LpStatus::kIterLimit);
      continue;
    }
    const bool bland = degenerate_run_ > kBlandTrigger;
    const int rc = iterate(/*phase1=*/false, bland);
    if (rc == 0) continue;
    if (rc == 2) return finalize(LpStatus::kUnbounded);
    if (rc == 3) {
      if (!escalate_recovery()) return finalize(LpStatus::kIterLimit);
      continue;
    }
    break;  // rc == 1: optimal
  }

  result.x.assign(x_.begin(), x_.begin() + n_);
  // Unscale the point (x = C x'; exact, powers of two). The objective is
  // already exact in either frame: c'.x' == c.x identically.
  if (scaling_active_)
    for (int v = 0; v < n_; ++v) result.x[v] *= col_scale_[v];
  double obj = 0.0;
  for (int v = 0; v < n_; ++v) obj += cost_[v] * x_[v];
  result.objective = obj;
  return finalize(LpStatus::kOptimal);
}

void SimplexSolver::compute_dual_reduced_costs() {
  cb_.resize(m_);
  for (int i = 0; i < m_; ++i) cb_[i] = cost_[basis_[i]];
  btran(cb_, duals_);
  dual_d_.assign(total_, 0.0);
  for (int j = 0; j < total_; ++j) {
    if (vstat_[j] == kBasic) continue;
    dual_d_[j] = reduced_cost(j, duals_, cost_);
  }
}

bool SimplexSolver::restore_dual_feasibility() {
  for (int j = 0; j < total_; ++j) {
    if (vstat_[j] == kBasic || lb_[j] == ub_[j]) continue;
    const double d = dual_d_[j];
    // A free column rests at 0 as "at lower": any nonzero reduced cost is
    // wrong-signed and no flip can repair it.
    if (!std::isfinite(lb_[j]) && !std::isfinite(ub_[j]) &&
        std::abs(d) > opt_.opt_tol)
      return false;
    if (vstat_[j] == kAtLower && d < -opt_.opt_tol) {
      if (!std::isfinite(ub_[j])) return false;
      vstat_[j] = kAtUpper;
      x_[j] = ub_[j];
      ++stats_.dual_bound_flips;
    } else if (vstat_[j] == kAtUpper && d > opt_.opt_tol) {
      if (!std::isfinite(lb_[j])) return false;
      vstat_[j] = kAtLower;
      x_[j] = lb_[j];
      ++stats_.dual_bound_flips;
    }
  }
  return true;
}

void SimplexSolver::perturb_costs() {
  for (int j = 0; j < total_; ++j) {
    if (vstat_[j] == kBasic || lb_[j] == ub_[j]) continue;
    // A free column's reduced cost must stay zero: no direction is
    // dual-feasible for it.
    if (!std::isfinite(lb_[j]) && !std::isfinite(ub_[j])) continue;
    double shift =
        kCostPerturbation * (1.0 + std::abs(cost_[j])) * perturbation_factor(j);
    if (vstat_[j] == kAtUpper) shift = -shift;
    cost_[j] += shift;
    dual_d_[j] += shift;  // y depends on basic costs only
  }
}

void SimplexSolver::remove_perturbation() { cost_.swap(dual_cost_); }

void SimplexSolver::sync_dual_objective() {
  double z = 0.0;
  for (int j = 0; j < total_; ++j) z += cost_[j] * x_[j];
  dual_obj_ = z;
}

double SimplexSolver::box_dual_bound(std::vector<double>& y,
                                     const std::vector<double>* cost) const {
  // Each term's rounding error is a few ulps of the magnitudes that went
  // into it; `mag` gathers them, and 1e-12 of it covers the sum by orders
  // of magnitude at these sizes. A reduced cost within that noise of zero
  // counts as zero, so a basic column with an infinite bound (true reduced
  // cost zero) cannot turn the bound into -inf on rounding alone.
  constexpr double kRounding = 1e-12;
  double bound = 0.0;
  double mag = 0.0;
  // min over [lo, hi] of d * x for reduced cost d, `scale` its noise.
  const auto box_min = [&](double d, double scale, double lo, double hi) {
    if (std::abs(d) <= kRounding * scale) d = 0.0;
    if (d == 0.0) return 0.0;
    const double at = d > 0.0 ? lo : hi;
    if (!std::isfinite(at)) return -kInf;
    mag += (std::abs(d) + scale) * std::abs(at);
    return d * at;
  };
  for (int r = 0; r < m_; ++r) {
    // A <= row's slack lives in [0, inf) and needs y_r <= 0, a >= row's in
    // (-inf, 0] needs y_r >= 0; an equality row's y_r is free.
    const int slack = n_ + r;
    if (!std::isfinite(ub_[slack])) y[r] = std::min(y[r], 0.0);
    if (!std::isfinite(lb_[slack])) y[r] = std::max(y[r], 0.0);
    bound += y[r] * rhs_[r];
    mag += std::abs(y[r] * rhs_[r]);
    bound += box_min(-y[r], std::abs(y[r]), lb_[slack], ub_[slack]);
  }
  for (int j = 0; j < n_; ++j) {
    double d = cost != nullptr ? (*cost)[j] : 0.0;
    double scale = std::abs(d);
    for (int p = col_start_[j]; p < col_start_[j + 1]; ++p) {
      const double ya = y[col_row_[p]] * col_val_[p];
      d -= ya;
      scale += std::abs(ya);
    }
    bound += box_min(d, scale, lb_[j], ub_[j]);
  }
  return bound - kRounding * (1.0 + mag);
}

void SimplexSolver::ensure_dual_weights() {
  if (dual_w_valid_ && static_cast<int>(dual_w_.size()) == m_) return;
  dual_w_.assign(m_, 1.0);  // the all-ones reference framework
  dual_w_valid_ = true;
  ++stats_.devex_resets;
}

void SimplexSolver::update_dual_weights(int r, const std::vector<double>& w,
                                        const std::vector<int>& w_nz) {
  if (!dual_w_valid_) return;
  const double wr = w[r];
  if (wr == 0.0) {
    dual_w_valid_ = false;
    return;
  }
  // Devex: w_i approximates ||e_i' B^-1||^2 relative to the reference
  // framework; the update needs only the FTRANed entering column already
  // in hand. Monotone (max), so a degraded framework is detected by
  // weight growth and restarted rather than silently trusted. The loop
  // walks w's nonzeros only.
  const double inv_wr2 = 1.0 / (wr * wr);
  const double ref = dual_w_[r];
  double worst = 0.0;
  for (const int i : w_nz) {
    if (i == r) continue;
    const double cand = w[i] * w[i] * inv_wr2 * ref;
    if (cand > dual_w_[i]) dual_w_[i] = cand;
    if (dual_w_[i] > worst) worst = dual_w_[i];
  }
  dual_w_[r] = std::max(ref * inv_wr2, 1.0);
  if (std::max(worst, dual_w_[r]) > 1e7) dual_w_valid_ = false;
}

int SimplexSolver::iterate_dual() {
  // --- leaving row: the largest violation^2 / w_i, where w_i
  // (approximately) carries ||e_i' B^-1||^2 — a violation is only worth
  // chasing if the dual step it buys is long in the steepest-edge norm. ---
  ensure_dual_weights();
  int r = -1;
  double best_score = 0.0;
  double viol = 0.0;
  int sgn = 0;  // -1: below its lower bound (leaves at lower), +1: above upper
  for (int i = 0; i < m_; ++i) {
    const int col = basis_[i];
    const double below = lb_[col] - x_[col];
    const double above = x_[col] - ub_[col];
    const double v = below > above ? below : above;
    if (v <= opt_.feas_tol) continue;
    const double score = v * v / std::max(dual_w_[i], 1e-10);
    if (score > best_score) {
      best_score = score;
      viol = v;
      r = i;
      sgn = below > above ? -1 : +1;
    }
  }
  if (r < 0) return 1;  // primal feasible: dual optimal

  // --- pivot row: rho' = e_r' B^{-1}; alpha_j = sgn * rho' a_j for every
  // nonbasic column (the sign normalization makes "d_j decreasing with the
  // dual step" read the same for both violation directions). ---
  dual_unit_.assign(m_, 0.0);
  dual_unit_[r] = 1.0;
  btran(dual_unit_, dual_rho_);

  dual_row_.clear();
  dual_cands_.clear();
  // Two-level zero test for the pivot row. Below drop_tol an alpha is
  // cancellation noise from the rho'a_j accumulation — treating it as an
  // exact zero everywhere keeps the pivot sequence independent of noise.
  // Between drop_tol and pivot_tol the alpha is genuinely small but REAL:
  // it is too small to pivot on, yet its reduced cost still moves by
  // theta*alpha in the dual step. The pre-PR-7 code filtered the theta
  // update at pivot_tol, so such columns drifted from their true reduced
  // costs by theta*alpha per pivot (flushed only at the next
  // refactorization); tests/lp/dual_simplex_test.cpp pins the fix.
  // The walk visits the nonbasic list in its own order; dual_row_'s order
  // does not matter, and the ratio test below pops candidates in the
  // strict (ratio, col) order whatever order they arrived in.
  const double drop_tol = 1e-4 * opt_.pivot_tol;
  for (const int j : nonbasic_) {
    if (lb_[j] == ub_[j]) continue;
    double a;
    if (j < n_) {
      a = 0.0;
      for (int p = col_start_[j]; p < col_start_[j + 1]; ++p)
        a += dual_rho_[col_row_[p]] * col_val_[p];
    } else {
      a = dual_rho_[j - n_];
    }
    const double at = sgn * a;
    if (std::abs(at) <= drop_tol) continue;
    dual_row_.push_back(DualRowEntry{j, at});
    if (std::abs(at) <= opt_.pivot_tol) continue;
    // Eligible entering columns: their reduced cost is driven towards zero
    // as the dual step grows; the breakpoint is the dual ratio.
    double ratio;
    if (vstat_[j] == kAtLower && at > 0.0)
      ratio = std::max(dual_d_[j], 0.0) / at;
    else if (vstat_[j] == kAtUpper && at < 0.0)
      ratio = std::min(dual_d_[j], 0.0) / at;
    else
      continue;
    dual_cands_.push_back(DualCandidate{j, ratio, at});
  }
  if (dual_cands_.empty()) {
    dual_ray_sign_ = sgn;
    return 2;  // dual ray: primal infeasible
  }

  // --- bound-flipping ratio test: walk the breakpoints in dual-step order;
  // a boxed candidate whose full flip still leaves the leaving variable
  // violated is flipped (no basis change, reduced cost crosses zero
  // consistently with the new bound) and the walk continues with the
  // residual violation; the first candidate that cannot be passed enters.
  // The walk consumes a lazy min-heap instead of sorting: pops follow the
  // exact (ratio, col) total order a full sort would give — identical
  // flip/entering sequence — but typical pivots consume only a few
  // breakpoints out of hundreds of candidates, so the O(c log c) sort
  // shrinks to O(c) heapification plus a handful of O(log c) pops. ---
  const auto cand_after = [](const DualCandidate& a, const DualCandidate& b) {
    return a.ratio != b.ratio ? a.ratio > b.ratio : a.col > b.col;
  };
  std::make_heap(dual_cands_.begin(), dual_cands_.end(), cand_after);
  const auto pop_next = [&]() {
    std::pop_heap(dual_cands_.begin(), dual_cands_.end(), cand_after);
    const DualCandidate c = dual_cands_.back();
    dual_cands_.pop_back();
    return c;
  };
  double delta = viol;
  dual_flips_.clear();
  int chosen = -1;
  double theta = 0.0;
  double chosen_alpha = 0.0;
  while (!dual_cands_.empty()) {
    const DualCandidate cand = pop_next();
    const double range = ub_[cand.col] - lb_[cand.col];
    const double gain = std::abs(cand.alpha) * range;
    if (!dual_cands_.empty() && std::isfinite(range) &&
        delta - gain > opt_.feas_tol) {
      dual_flips_.push_back(cand.col);
      delta -= gain;
      continue;
    }
    // Entering candidate found at this breakpoint. These LPs are heavily
    // dual degenerate (stacks of ratio-0 ties); among the near-ties pick
    // the largest |alpha|: the primal step delta/|alpha| shrinks with it,
    // so fewer new violations cascade out of the pivot (and the pivot is
    // numerically safer). The tie window scales with the feasibility
    // tolerance AND the breakpoint magnitude (ratios are reduced costs
    // over pivots, so an absolute window would vanish on badly scaled
    // objectives); at the defaults it is the historical 1e-9 for the
    // dominant ratio-0 degenerate stacks.
    const double tie =
        1e-2 * opt_.feas_tol * (1.0 + std::abs(cand.ratio));
    chosen = cand.col;
    theta = std::max(cand.ratio, 0.0);
    chosen_alpha = cand.alpha;
    double best_alpha = std::abs(cand.alpha);
    while (!dual_cands_.empty() &&
           dual_cands_.front().ratio <= cand.ratio + tie) {
      const DualCandidate t = pop_next();
      if (std::abs(t.alpha) > best_alpha) {
        best_alpha = std::abs(t.alpha);
        chosen = t.col;
        theta = std::max(t.ratio, 0.0);
        chosen_alpha = t.alpha;
      }
    }
    break;
  }
  const double d_chosen = dual_d_[chosen];

  // --- dual step: every nonbasic reduced cost moves along the pivot row.
  // Flipped candidates cross zero (consistent with their new bound); the
  // entering column lands exactly at zero. dual_row_ carries every column
  // with a real (above-drop_tol) alpha, including the sub-pivot_tol ones
  // the old code skipped — that skip is the reduced-cost drift bug. ---
  if (theta > 0.0) {
    for (const DualRowEntry& e : dual_row_) dual_d_[e.col] -= theta * e.alpha;
  }
  dual_d_[chosen] = 0.0;

  // --- apply the flips: nonbasic values jump to the opposite bound; one
  // accumulated FTRAN updates every basic value. ---
  if (!dual_flips_.empty()) {
    dual_fcol_.assign(m_, 0.0);
    for (const int j : dual_flips_) {
      const double old = x_[j];
      double nv;
      if (vstat_[j] == kAtLower) {
        vstat_[j] = kAtUpper;
        nv = ub_[j];
      } else {
        vstat_[j] = kAtLower;
        nv = lb_[j];
      }
      x_[j] = nv;
      const double dx = nv - old;
      dual_obj_ += cost_[j] * dx;
      if (j < n_) {
        for (int p = col_start_[j]; p < col_start_[j + 1]; ++p)
          dual_fcol_[col_row_[p]] += col_val_[p] * dx;
      } else {
        dual_fcol_[j - n_] += dx;
      }
    }
    ftran_vec(dual_fcol_);
    for (int i = 0; i < m_; ++i) {
      if (dual_fcol_[i] == 0.0) continue;
      x_[basis_[i]] -= dual_fcol_[i];
      dual_obj_ -= cost_[basis_[i]] * dual_fcol_[i];
    }
    stats_.dual_bound_flips += static_cast<long long>(dual_flips_.size());
  }

  // --- entering column FTRAN + primal step onto the violated bound ---
  std::vector<double>& w = wcol_;
  ftran(chosen, w);
  const double wr = w[r];
  // w[r] and the BTRANed pivot-row entry are the same number computed two
  // ways; a disagreement (or a tiny pivot) flags factorization drift.
  const double a_chosen = sgn * chosen_alpha;
  if (std::abs(wr) <= opt_.pivot_tol ||
      std::abs(wr - a_chosen) > 1e-5 * std::max(1.0, std::abs(wr)))
    return 3;

  const int leaving = basis_[r];
  const double target = (sgn < 0) ? lb_[leaving] : ub_[leaving];
  const int dir = (vstat_[chosen] == kAtUpper) ? -1 : +1;
  double t = (x_[leaving] - target) / (dir * wr);
  if (!(t > 0.0)) t = 0.0;  // flips covered the violation: degenerate pivot

  // Degenerate when the dual objective barely moved: theta*|alpha| is the
  // reduced-cost distance the entering column travelled, measured against
  // its own magnitude so the test is invariant to cost scaling (the old
  // absolute `theta <= 1e-12` silently misclassified large- or
  // small-cost problems). At the defaults and |alpha| ~ 1 this is the
  // historical threshold.
  if (theta * std::abs(chosen_alpha) <=
      1e-5 * opt_.opt_tol * (1.0 + std::abs(d_chosen)))
    ++degenerate_run_;
  else
    degenerate_run_ = 0;

  // The dual iteration computed the vector the weight update needs: the
  // FTRANed entering column. (It must see the old factors; a pivot the
  // factor update then rejects leaves stale weights and dual state, which
  // the recovery ladder rebuilds.)
  update_dual_weights(r, w, wcol_nz_);
  if (!pivot(chosen, r, t, dir, w, wcol_nz_, sgn < 0 ? kAtLower : kAtUpper))
    return 3;
  ++iter_dual_;
  dual_d_[leaving] = -sgn * theta;  // the leaving variable's new reduced cost
  return 0;
}

LpResult SimplexSolver::solve_dual(double limit) {
  ++stats_.dual_solves;
  iterations_ = 0;
  iter_phase1_ = 0;
  iter_phase2_ = 0;
  iter_dual_ = 0;
  degenerate_run_ = 0;
  recovery_rung_ = 0;
  iters_at_last_trouble_ = -1;
  opt_.markowitz_tol = cfg_markowitz_tol_;  // undo any rung-1 tighten

  // Every exit below calls remove_perturbation() exactly once before it
  // returns or hands the basis to the primal path (an exit taken before
  // perturb_costs() swaps two equal vectors).
  dual_cost_ = cost_;
  auto fallback = [&] {
    remove_perturbation();
    ++stats_.dual_fallbacks;
    LpResult r = run_primal();
    r.dual_fallback = true;
    return r;
  };
  // An exit that reports no point, taken after remove_perturbation().
  auto stop = [&](LpStatus status, double objective) {
    LpResult r;
    r.objective = objective;
    finalize_result(r, status);
    return r;
  };

  // No warm basis: start from the slack basis. Its reduced costs are the
  // costs themselves, so the entry flips make it dual feasible unless a
  // column's cost points at an infinite bound; such a model goes to the
  // primal path from the untouched slack basis, as solve() would.
  const bool cold = !has_basis_;
  if (cold) cold_start();

  compute_dual_reduced_costs();
  if (!restore_dual_feasibility()) {
    if (cold) cold_start();  // undo the flips made before the failure
    return fallback();
  }
  perturb_costs();
  compute_basic_values();
  sync_dual_objective();

  constexpr int kDualDegenerateCap = 2000;
  // Stall cap: a healthy warm dual re-solve finishes in a small multiple of
  // the basis dimension. Far past that the incrementally maintained reduced
  // costs are oscillating on noise (thetas small enough to go nowhere, big
  // enough to dodge the degeneracy counter) — burning the remaining
  // iteration budget proves nothing, so hand the basis to the primal path
  // while there is still budget left for it to finish honestly.
  const long long dual_stall_cap = 2000 + 20LL * (m_ + n_);
  bool infeasibility_reverified = false;
  // The tracked objective that triggers the next certification attempt.
  // After a bound that fell short, the objective must first climb by the
  // shortfall, so a near miss is not re-certified on every pivot.
  double next_check = limit;

  for (;;) {
    if (iterations_ >= opt_.max_iterations) return fallback();
    if (poll_abort()) {
      remove_perturbation();
      ++stats_.aborted_solves;
      return stop(LpStatus::kAborted, 0.0);
    }
    if (refactor_due()) {
      if (!refactorize()) {
        // Ladder-recover like pivot trouble; a recovery that lost dual
        // feasibility beyond bound-flip repair ends on the primal path.
        if (!escalate_recovery()) return fallback();
        compute_dual_reduced_costs();
        if (!restore_dual_feasibility()) return fallback();
        compute_basic_values();
      } else {
        compute_basic_values();
      }
      // Every refactorization inside the dual loop refreshes dual_d_ from
      // a fresh BTRAN of the basic costs. Together with the theta update in
      // iterate_dual covering every real alpha (dual_row_ is drop_tol-, not
      // pivot_tol-filtered) this is what keeps the incrementally maintained
      // reduced costs honest — tests/lp/dual_simplex_test.cpp pins the drift.
      compute_dual_reduced_costs();
      sync_dual_objective();
    }
    const int rc = iterate_dual();
    if (rc == 0) {
      if (degenerate_run_ > kDualDegenerateCap) return fallback();
      if (iter_dual_ > dual_stall_cap) return fallback();
      infeasibility_reverified = false;
      if (dual_obj_ >= next_check) {
        // Certify on the true costs: BTRAN them on the current factors and
        // take the box-dual bound of the duals they give.
        remove_perturbation();
        cb_.resize(m_);
        for (int i = 0; i < m_; ++i) cb_[i] = cost_[basis_[i]];
        btran(cb_, duals_);
        const double bound = box_dual_bound(duals_, &cost_);
        if (bound >= limit) {
          ++stats_.cutoff_stops;
          return stop(LpStatus::kCutoff, bound);
        }
        remove_perturbation();  // re-perturb and go on
        next_check = std::isfinite(bound) ? dual_obj_ + (limit - bound) : kInf;
      }
      continue;
    }
    if (rc == 1) break;  // primal feasible: let the primal loop certify
    if (rc == 2) {
      // The ray y = sgn * e_r' B^-1 is a Farkas proof when its zero-cost
      // box-dual bound is positive: no point in the box satisfies the rows.
      // It holds whatever the factors' drift, so a passing ray needs no
      // refactorization.
      for (double& v : dual_rho_) v *= dual_ray_sign_;
      if (box_dual_bound(dual_rho_, nullptr) > opt_.feas_tol) {
        ++stats_.rays_certified;
        remove_perturbation();
        return stop(LpStatus::kInfeasible, 0.0);
      }
      // A ray that fails the check is re-derived once on a fresh
      // factorization (the pivot row may carry update drift). One that
      // fails again proves nothing: the primal path decides.
      if (infeasibility_reverified) return fallback();
      infeasibility_reverified = true;
      ++stats_.refactor_dual_ray;
      if (!refactorize()) {
        cold_start();
        return fallback();
      }
      compute_basic_values();
      compute_dual_reduced_costs();
      sync_dual_objective();
      continue;
    }
    // rc == 3: numerical trouble — climb the recovery ladder, then rebuild
    // the dual state on the recovered basis. A rung that had to cold-start
    // (or any recovery that lost dual feasibility beyond what bound flips
    // repair) ends on the primal path via restore_dual_feasibility.
    if (!escalate_recovery()) return fallback();
    compute_dual_reduced_costs();
    if (!restore_dual_feasibility()) return fallback();
    compute_basic_values();
    sync_dual_objective();
  }

  // Primal-feasible and dual-feasible under the perturbed costs: the
  // primal loop verifies optimality under the true ones (zero pivots when
  // the perturbation hid no wrong-sign reduced cost) and assembles the
  // result.
  remove_perturbation();
  LpResult result = run_primal();
  stats_.perturbation_cleanup_pivots +=
      result.phase1_iterations + result.phase2_iterations;
  return result;
}

void SimplexSolver::delete_rows(const std::vector<int>& rows) {
  if (rows.empty()) return;
  const int del = static_cast<int>(rows.size());
  int prev = initial_m_ - 1;
  for (const int r : rows) {
    ADVBIST_REQUIRE(r > prev && r < m_,
                    "delete_rows: strictly increasing appended-row indices");
    ADVBIST_REQUIRE(vstat_[n_ + r] == kBasic,
                    "delete_rows: slack must be basic (aged-out cut row)");
    prev = r;
  }

  // Old row -> new row mapping (-1 = deleted).
  std::vector<int> new_row(m_);
  {
    int k = 0, next = 0;
    for (int r = 0; r < m_; ++r) {
      if (k < del && rows[k] == r) {
        new_row[r] = -1;
        ++k;
      } else {
        new_row[r] = next++;
      }
    }
  }
  const int nm = m_ - del;
  auto renumber = [&](int col) {
    return col < n_ ? col : n_ + new_row[col - n_];
  };

  // Basis: drop the positions holding the deleted slacks (each was a unit
  // column, so the remaining basis over the remaining rows is nonsingular
  // and the surviving basic values are untouched — the deleted slack was
  // the only basic variable in its row).
  {
    std::size_t keep = 0;
    for (int i = 0; i < m_; ++i) {
      const int col = basis_[i];
      if (col >= n_ && new_row[col - n_] < 0) continue;
      basis_[keep++] = renumber(col);
    }
    basis_.resize(keep);
  }

  // Per-column state: erase the deleted slacks' slots.
  auto compact_cols = [&](auto& v) {
    std::size_t keep = n_;
    for (int r = 0; r < m_; ++r)
      if (new_row[r] >= 0) v[keep++] = v[n_ + r];
    v.resize(keep);
  };
  compact_cols(lb_);
  compact_cols(ub_);
  compact_cols(cost_);
  compact_cols(x_);
  compact_cols(vstat_);

  {
    std::size_t keep = 0;
    for (int r = 0; r < m_; ++r)
      if (new_row[r] >= 0) rhs_[keep++] = rhs_[r];
    rhs_.resize(keep);
  }
  if (scaling_active_) {
    std::size_t keep = 0;
    for (int r = 0; r < m_; ++r)
      if (new_row[r] >= 0) row_scale_[keep++] = row_scale_[r];
    row_scale_.resize(keep);
  }

  // CSC: drop entries of deleted rows, remap the rest (in-place compaction;
  // the write cursor never passes the read cursor).
  {
    int write = 0;
    for (int v = 0; v < n_; ++v) {
      const int begin = col_start_[v];
      const int end = col_start_[v + 1];
      col_start_[v] = write;
      for (int p = begin; p < end; ++p) {
        const int nr = new_row[col_row_[p]];
        if (nr < 0) continue;
        col_row_[write] = nr;
        col_val_[write] = col_val_[p];
        ++write;
      }
    }
    col_start_[n_] = write;
    col_row_.resize(write);
    col_val_.resize(write);
  }

  m_ = nm;
  total_ = n_ + m_;
  build_nonbasic();  // slack indices above a deleted row moved down
  perm_.resize(m_);
  cperm_.resize(m_);
  u_diag_.resize(m_);
  work_.resize(m_);
  candidates_.clear();
  price_cursor_ = 0;
  dual_w_valid_ = false;  // basis positions shifted: weights are stale
  restore_cache_.header.clear();  // factors of the old matrix
  stats_.rows_deleted += del;

  if (has_basis_) {
    // Rebuild the factors at the shrunken size. This is where the fill
    // accounting must see the *current* row count: refactorize() measures
    // basis and fill nnz against m_, which has already been shrunk, so
    // aged-out rows neither inflate the basis term nor deflate the ratio.
    ++stats_.refactor_delete_rows;
    if (!refactorize()) has_basis_ = false;  // next solve() cold-starts
  }
}

double SimplexSolver::dual_reduced_cost_drift_for_testing() const {
  if (!has_basis_ || static_cast<int>(dual_d_.size()) != total_ ||
      static_cast<int>(dual_cost_.size()) != total_)
    return 0.0;
  std::vector<double> cb(m_);
  for (int i = 0; i < m_; ++i) cb[i] = dual_cost_[basis_[i]];
  std::vector<double> y;
  btran(cb, y);
  double worst = 0.0;
  for (int j = 0; j < total_; ++j) {
    if (vstat_[j] == kBasic || lb_[j] == ub_[j]) continue;
    const double fresh = reduced_cost(j, y, dual_cost_);
    worst = std::max(worst, std::abs(dual_d_[j] - fresh));
  }
  return worst;
}

bool SimplexSolver::refresh_factorization() {
  if (!has_basis_) cold_start();
  ++stats_.refactor_refresh;
  if (refactorize()) return true;
  cold_start();
  return false;
}

bool SimplexSolver::pivot_for_testing(int basis_pos, int col) {
  ADVBIST_REQUIRE(has_basis_, "pivot_for_testing needs a basis");
  ADVBIST_REQUIRE(basis_pos >= 0 && basis_pos < m_, "basis position");
  ADVBIST_REQUIRE(col >= 0 && col < total_ && vstat_[col] != kBasic,
                  "entering column must be nonbasic");
  const int leaving = basis_[basis_pos];
  Status rest = kAtLower;
  if (!std::isfinite(lb_[leaving])) {
    if (!std::isfinite(ub_[leaving])) return false;
    rest = kAtUpper;
  }
  ftran(col, wcol_);
  double wmax = 0.0;
  for (const double v : wcol_) wmax = std::max(wmax, std::abs(v));
  if (std::abs(wcol_[basis_pos]) <= std::max(opt_.pivot_tol, 0.1 * wmax))
    return false;
  if (!pivot(col, basis_pos, 0.0, +1, wcol_, wcol_nz_, rest)) return false;
  candidates_.clear();
  dual_w_valid_ = false;
  return true;
}

bool SimplexSolver::work_lists_match_for_testing() const {
  if (!has_basis_) return true;
  std::vector<int> fresh;
  build_l_work(fresh);
  if (fresh != l_work_) return false;
  build_u_work(fresh);
  if (fresh != u_work_) return false;
  if (static_cast<int>(nonbasic_pos_.size()) != total_) return false;
  int nonbasic = 0;
  for (int j = 0; j < total_; ++j) {
    const int at = nonbasic_pos_[j];
    if (vstat_[j] == kBasic) {
      if (at != -1) return false;
      continue;
    }
    ++nonbasic;
    if (at < 0 || at >= static_cast<int>(nonbasic_.size()) ||
        nonbasic_[at] != j)
      return false;
  }
  return nonbasic == static_cast<int>(nonbasic_.size());
}

std::vector<double> SimplexSolver::ftran_for_testing(
    std::vector<double> rhs) const {
  ADVBIST_REQUIRE(static_cast<int>(rhs.size()) == m_, "rhs size");
  ftran_vec(rhs);
  return rhs;
}

std::vector<double> SimplexSolver::btran_for_testing(
    const std::vector<double>& cb) const {
  ADVBIST_REQUIRE(static_cast<int>(cb.size()) == m_, "cb size");
  std::vector<double> y;
  btran(cb, y);
  return y;
}

std::vector<double> SimplexSolver::dense_basis_for_testing() const {
  std::vector<double> b(static_cast<std::size_t>(m_) * m_, 0.0);
  for (int i = 0; i < m_; ++i) {
    const int col = basis_[i];
    double* c = b.data() + static_cast<std::size_t>(i) * m_;
    if (col < n_) {
      for (int p = col_start_[col]; p < col_start_[col + 1]; ++p)
        c[col_row_[p]] = col_val_[p];
    } else {
      c[col - n_] = 1.0;
    }
  }
  return b;
}

}  // namespace advbist::lp
