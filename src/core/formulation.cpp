#include "core/formulation.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>

#include "util/check.hpp"
#include "util/logging.hpp"

namespace advbist::core {

using bist::TestRegisterType;
using hls::Dfg;
using hls::ModuleAllocation;
using hls::Operation;
using hls::ValueRef;
using lp::LinExpr;
using lp::Sense;

namespace {
// Branching priorities: decide structure first, derived indicators last.
constexpr int kPrioX = 100;
constexpr int kPrioS = 90;
constexpr int kPrioBistAssign = 60;
constexpr int kPrioZ = 30;
constexpr int kPrioIndicator = 10;
constexpr int kPrioMux = 5;
}  // namespace

Formulation::Formulation(const Dfg& dfg, const ModuleAllocation& alloc,
                         FormulationOptions options)
    : dfg_(dfg), alloc_(alloc), opt_(options) {
  dfg_.validate();
  alloc_.validate(dfg_);
  R_ = opt_.num_registers < 0 ? dfg_.max_crossing() : opt_.num_registers;
  ADVBIST_REQUIRE(R_ >= dfg_.max_crossing(),
                  "register budget below the maximal horizontal crossing");
  K_ = opt_.include_bist ? opt_.k : 1;
  ADVBIST_REQUIRE(K_ >= 1, "k-test session requires k >= 1");
  ADVBIST_REQUIRE(!opt_.include_bist || K_ <= alloc_.num_modules(),
                  "more sub-test sessions than modules");

  build_register_assignment();
  build_port_maps();
  build_interconnect();
  build_mux_selection();
  if (opt_.include_bist) build_bist();
  build_objective();
  priority_.resize(model_.num_variables(), 0);
}

// ---------------------------------------------------------------------------
// Register assignment: x[v][r], one register per variable, per-boundary
// clique constraints, Section 3.5 symmetry reduction.
// ---------------------------------------------------------------------------
void Formulation::build_register_assignment() {
  const int n = dfg_.num_variables();
  x_.assign(n, std::vector<int>(R_, -1));
  for (int v = 0; v < n; ++v)
    for (int r = 0; r < R_; ++r) {
      x_[v][r] = model_.add_binary(
          0.0, "x_v" + std::to_string(v) + "_r" + std::to_string(r));
      priority_.push_back(kPrioX);
    }
  for (int v = 0; v < n; ++v) {
    LinExpr e;
    for (int r = 0; r < R_; ++r) e.add(x_[v][r], 1.0);
    model_.add_constraint(std::move(e), Sense::kEqual, 1.0,
                          "assign_v" + std::to_string(v));
  }
  // Clique rows: variables alive at the same boundary cannot share r.
  for (int b = 0; b < dfg_.num_boundaries(); ++b) {
    const std::vector<int> alive = dfg_.alive_at(b);
    if (alive.size() < 2) continue;
    for (int r = 0; r < R_; ++r) {
      LinExpr e;
      for (int v : alive) e.add(x_[v][r], 1.0);
      model_.add_constraint(std::move(e), Sense::kLessEqual, 1.0,
                            "clique_b" + std::to_string(b) + "_r" +
                                std::to_string(r));
    }
  }
  if (opt_.fix_registers != nullptr) {
    ADVBIST_REQUIRE(opt_.fix_registers->num_registers() == R_,
                    "fixed assignment register count mismatch");
    opt_.fix_registers->validate(dfg_);
    for (int v = 0; v < n; ++v)
      for (int r = 0; r < R_; ++r) {
        const double val = opt_.fix_registers->reg_of(v) == r ? 1.0 : 0.0;
        model_.set_bounds(x_[v][r], val, val);
      }
    return;  // symmetry reduction is moot with a fully pinned assignment
  }
  if (opt_.symmetry_reduction) {
    // The alive set at the maximal-crossing boundary is a clique of
    // pairwise-incompatible variables: pin them to distinct registers.
    int best_b = 0;
    std::size_t best = 0;
    for (int b = 0; b < dfg_.num_boundaries(); ++b) {
      const auto alive = dfg_.alive_at(b);
      if (alive.size() > best) {
        best = alive.size();
        best_b = b;
      }
    }
    const std::vector<int> clique = dfg_.alive_at(best_b);
    for (int i = 0; i < static_cast<int>(clique.size()); ++i)
      for (int r = 0; r < R_; ++r)
        model_.set_bounds(x_[clique[i]][r], r == i ? 1.0 : 0.0,
                          r == i ? 1.0 : 0.0);
  }
}

// ---------------------------------------------------------------------------
// Commutative pseudo-input ports (Eq. 3's s_{l*,l,o}).
// ---------------------------------------------------------------------------
void Formulation::build_port_maps() {
  s_.assign(dfg_.num_operations(), {});
  for (const Operation& op : dfg_.operations()) {
    const int arity = static_cast<int>(op.inputs.size());
    auto& so = s_[op.id];
    so.assign(arity, std::vector<int>(arity, -1));  // -1 == fixed identity
    if (!opt_.commutative_swaps || !hls::is_commutative(op.type) || arity != 2)
      continue;
    for (int ls = 0; ls < arity; ++ls)
      for (int l = 0; l < arity; ++l) {
        so[ls][l] = model_.add_binary(
            0.0, "s_o" + std::to_string(op.id) + "_" + std::to_string(ls) +
                     std::to_string(l));
        priority_.push_back(kPrioS);
      }
    for (int ls = 0; ls < arity; ++ls) {
      LinExpr row, col;
      for (int l = 0; l < arity; ++l) {
        row.add(so[ls][l], 1.0);
        col.add(so[l][ls], 1.0);
      }
      model_.add_constraint(std::move(row), Sense::kEqual, 1.0);
      model_.add_constraint(std::move(col), Sense::kEqual, 1.0);
    }
  }
}

// ---------------------------------------------------------------------------
// Interconnections z[r][m][l], zo[m][r], constants u[m][l][c]:
// forcing (an assigned edge requires its wire) and Eq. (1)-(3) adverse-path
// prevention (a wire requires a supporting edge).
// ---------------------------------------------------------------------------
void Formulation::build_interconnect() {
  const int M = alloc_.num_modules();
  z_.assign(R_, std::vector<std::vector<int>>(M));
  for (int r = 0; r < R_; ++r)
    for (int m = 0; m < M; ++m) {
      const int ports = alloc_.num_ports(dfg_, m);
      z_[r][m].assign(ports, -1);
      for (int l = 0; l < ports; ++l) {
        z_[r][m][l] = model_.add_binary(
            0.0, "z_r" + std::to_string(r) + "_m" + std::to_string(m) + "_l" +
                     std::to_string(l));
        priority_.push_back(kPrioZ);
      }
    }
  zo_.assign(M, std::vector<int>(R_, -1));
  for (int m = 0; m < M; ++m)
    for (int r = 0; r < R_; ++r) {
      zo_[m][r] = model_.add_binary(
          0.0, "zo_m" + std::to_string(m) + "_r" + std::to_string(r));
      priority_.push_back(kPrioZ);
    }

  // Support accumulators for the prevention direction, per (r, m, l).
  std::vector<std::vector<std::vector<LinExpr>>> support(
      R_, std::vector<std::vector<LinExpr>>(M));
  for (int r = 0; r < R_; ++r)
    for (int m = 0; m < M; ++m)
      support[r][m].assign(alloc_.num_ports(dfg_, m), LinExpr());
  // Constant wiring accumulators: (m, l, c) -> expressions that put c on l.
  std::map<std::tuple<int, int, int>, std::vector<int>> const_sources;
  std::map<std::tuple<int, int, int>, bool> const_fixed;

  for (const Operation& op : dfg_.operations()) {
    const int m = alloc_.module_of(op.id);
    const int arity = static_cast<int>(op.inputs.size());
    for (int ls = 0; ls < arity; ++ls) {
      const ValueRef in = op.inputs[ls];
      for (int l = 0; l < arity; ++l) {
        const int svar = s_[op.id][ls][l];
        const bool fixed_identity = (svar < 0);
        if (fixed_identity && l != ls) continue;  // identity: only l == ls
        if (in.is_constant) {
          auto key = std::make_tuple(m, l, in.id);
          if (fixed_identity)
            const_fixed[key] = true;
          else
            const_sources[key].push_back(svar);
          continue;
        }
        for (int r = 0; r < R_; ++r) {
          // Forcing: z >= x (+ s - 1).
          LinExpr force;
          force.add(z_[r][m][l], 1.0).add(x_[in.id][r], -1.0);
          double rhs = 0.0;
          if (!fixed_identity) {
            force.add(svar, -1.0);
            rhs = -1.0;
          }
          model_.add_constraint(std::move(force), Sense::kGreaterEqual, rhs);
          // Prevention support (Eqs. 1-3). Non-commutative edges support the
          // wire with x directly; commutative edges need the auxiliary
          // z_vroml with zv <= x and zv <= s (the conjunction of Eq. 2/3,
          // split for a tighter LP relaxation).
          if (fixed_identity) {
            support[r][m][l].add(x_[in.id][r], 1.0);
          } else {
            const int zv = model_.add_binary(
                0.0, "zv_o" + std::to_string(op.id) + "_" +
                         std::to_string(ls) + std::to_string(l) + "_r" +
                         std::to_string(r));
            priority_.push_back(kPrioIndicator);
            model_.add_constraint(
                LinExpr().add(zv, 1.0).add(x_[in.id][r], -1.0),
                Sense::kLessEqual, 0.0);
            model_.add_constraint(LinExpr().add(zv, 1.0).add(svar, -1.0),
                                  Sense::kLessEqual, 0.0);
            support[r][m][l].add(zv, 1.0);
          }
        }
      }
    }
    // Output edge: module m drives the register of op.output.
    for (int r = 0; r < R_; ++r)
      model_.add_constraint(
          LinExpr().add(zo_[m][r], 1.0).add(x_[op.output][r], -1.0),
          Sense::kGreaterEqual, 0.0);
  }

  // Prevention rows: z <= total support.
  for (int r = 0; r < R_; ++r)
    for (int m = 0; m < M; ++m)
      for (int l = 0; l < static_cast<int>(z_[r][m].size()); ++l) {
        LinExpr e = support[r][m][l];
        e.add(z_[r][m][l], -1.0);
        model_.add_constraint(std::move(e), Sense::kGreaterEqual, 0.0,
                              "eq1_r" + std::to_string(r) + "_m" +
                                  std::to_string(m) + "_l" + std::to_string(l));
      }
  for (int m = 0; m < M; ++m)
    for (int r = 0; r < R_; ++r) {
      LinExpr e;
      for (const Operation& op : dfg_.operations())
        if (alloc_.module_of(op.id) == m) e.add(x_[op.output][r], 1.0);
      e.add(zo_[m][r], -1.0);
      model_.add_constraint(std::move(e), Sense::kGreaterEqual, 0.0);
    }

  // Constant wiring indicators u[m][l][c].
  for (const auto& [key, fixed] : const_fixed) {
    if (fixed) u_[key] = -1;  // hard-wired by a non-commutative operand
  }
  for (const auto& [key, sources] : const_sources) {
    if (u_.count(key)) continue;  // already fixed to 1
    const auto [m, l, c] = key;
    const int u = model_.add_binary(
        0.0, "u_m" + std::to_string(m) + "_l" + std::to_string(l) + "_c" +
                 std::to_string(c));
    priority_.push_back(kPrioIndicator);
    LinExpr cap;  // u <= sum of sources (no spurious constant wires)
    for (int svar : sources) {
      model_.add_constraint(LinExpr().add(u, 1.0).add(svar, -1.0),
                            Sense::kGreaterEqual, 0.0);
      cap.add(svar, 1.0);
    }
    cap.add(u, -1.0);
    model_.add_constraint(std::move(cap), Sense::kGreaterEqual, 0.0);
    u_[key] = u;
  }
}

int Formulation::max_port_fanin(int m, int l) const {
  int consts = 0;
  for (const auto& [key, var] : u_) {
    if (std::get<0>(key) == m && std::get<1>(key) == l) ++consts;
  }
  return R_ + consts;
}

// ---------------------------------------------------------------------------
// One-hot multiplexer size selection (the Table 1b costs are not concave).
// ---------------------------------------------------------------------------
void Formulation::build_mux_selection() {
  const int M = alloc_.num_modules();
  // Register input muxes: fanin = number of modules driving the register.
  yr_.assign(R_, {});
  for (int r = 0; r < R_; ++r) {
    yr_[r].assign(M + 1, -1);
    LinExpr onehot, size;
    for (int q = 0; q <= M; ++q) {
      yr_[r][q] = model_.add_binary(0.0, "yr_r" + std::to_string(r) + "_q" +
                                             std::to_string(q));
      priority_.push_back(kPrioMux);
      onehot.add(yr_[r][q], 1.0);
      size.add(yr_[r][q], static_cast<double>(q));
    }
    model_.add_constraint(std::move(onehot), Sense::kEqual, 1.0);
    for (int m = 0; m < M; ++m) size.add(zo_[m][r], -1.0);
    model_.add_constraint(std::move(size), Sense::kEqual, 0.0,
                          "muxsize_r" + std::to_string(r));
  }
  // Module port muxes: fanin = registers + distinct constants.
  yml_.assign(M, {});
  for (int m = 0; m < M; ++m) {
    const int ports = alloc_.num_ports(dfg_, m);
    yml_[m].assign(ports, {});
    for (int l = 0; l < ports; ++l) {
      const int qmax = max_port_fanin(m, l);
      yml_[m][l].assign(qmax + 1, -1);
      LinExpr onehot, size;
      for (int q = 0; q <= qmax; ++q) {
        yml_[m][l][q] = model_.add_binary(
            0.0, "yml_m" + std::to_string(m) + "_l" + std::to_string(l) +
                     "_q" + std::to_string(q));
        priority_.push_back(kPrioMux);
        onehot.add(yml_[m][l][q], 1.0);
        size.add(yml_[m][l][q], static_cast<double>(q));
      }
      model_.add_constraint(std::move(onehot), Sense::kEqual, 1.0);
      for (int r = 0; r < R_; ++r) size.add(z_[r][m][l], -1.0);
      double fixed_consts = 0.0;
      for (const auto& [key, var] : u_) {
        if (std::get<0>(key) != m || std::get<1>(key) != l) continue;
        if (var < 0)
          fixed_consts += 1.0;
        else
          size.add(var, -1.0);
      }
      model_.add_constraint(std::move(size), Sense::kEqual, fixed_consts,
                            "muxsize_m" + std::to_string(m) + "_l" +
                                std::to_string(l));
    }
  }
}

// ---------------------------------------------------------------------------
// BIST register assignment (Sections 3.3.1-3.3.4, Eqs. 6-23).
// ---------------------------------------------------------------------------
void Formulation::build_bist() {
  const int M = alloc_.num_modules();

  // --- signature registers (Eqs. 6-8) ---
  smrp_.assign(M, std::vector<std::vector<int>>(R_, std::vector<int>(K_, -1)));
  for (int m = 0; m < M; ++m)
    for (int r = 0; r < R_; ++r)
      for (int p = 0; p < K_; ++p) {
        smrp_[m][r][p] = model_.add_binary(
            0.0, "smrp_m" + std::to_string(m) + "_r" + std::to_string(r) +
                     "_p" + std::to_string(p));
        priority_.push_back(kPrioBistAssign);
      }
  for (int m = 0; m < M; ++m) {
    LinExpr once;  // Eq. 7: tested exactly once
    for (int r = 0; r < R_; ++r) {
      LinExpr gate;  // Eq. 6: SR needs the module->register wire
      for (int p = 0; p < K_; ++p) {
        once.add(smrp_[m][r][p], 1.0);
        gate.add(smrp_[m][r][p], 1.0);
      }
      gate.add(zo_[m][r], -1.0);
      model_.add_constraint(std::move(gate), Sense::kLessEqual, 0.0,
                            "eq6_m" + std::to_string(m) + "_r" +
                                std::to_string(r));
    }
    model_.add_constraint(std::move(once), Sense::kEqual, 1.0,
                          "eq7_m" + std::to_string(m));
  }
  for (int r = 0; r < R_; ++r)
    for (int p = 0; p < K_; ++p) {
      LinExpr e;  // Eq. 8: SR not shared within a session
      for (int m = 0; m < M; ++m) e.add(smrp_[m][r][p], 1.0);
      model_.add_constraint(std::move(e), Sense::kLessEqual, 1.0,
                            "eq8_r" + std::to_string(r) + "_p" +
                                std::to_string(p));
    }
  if (opt_.symmetry_reduction) {
    // Session-label symmetry: relabeling the sessions leaves Eqs. 6-23 and
    // the objective unchanged. Order them by their lowest-indexed module
    // (the ordering form of the partitioning orbitope): module m may sit in
    // session p >= 1 only if some m' < m sits in session p-1. Every design
    // relabels to exactly one labeling that satisfies these rows (empty
    // sessions trail), so no design is cut off.
    for (int m = 0; m < M; ++m)
      for (int p = 1; p < K_; ++p) {
        LinExpr e;
        for (int r = 0; r < R_; ++r) {
          e.add(smrp_[m][r][p], 1.0);
          for (int mp = 0; mp < m; ++mp) e.add(smrp_[mp][r][p - 1], -1.0);
        }
        model_.add_constraint(std::move(e), Sense::kLessEqual, 0.0,
                              "symsess_m" + std::to_string(m) + "_p" +
                                  std::to_string(p));
      }
  }

  // --- test pattern generators (Eqs. 9-13 + constants, Section 3.3.4) ---
  for (int m = 0; m < M; ++m) {
    const int ports = alloc_.num_ports(dfg_, m);
    for (int l = 0; l < ports; ++l) {
      for (int r = 0; r < R_; ++r) {
        LinExpr gate;  // Eq. 9 (aggregated over p): TPG needs the wire
        for (int p = 0; p < K_; ++p) {
          const int tv = model_.add_binary(
              0.0, "t_r" + std::to_string(r) + "_m" + std::to_string(m) +
                       "_l" + std::to_string(l) + "_p" + std::to_string(p));
          priority_.push_back(kPrioBistAssign);
          t_[{r, m, l, p}] = tv;
          gate.add(tv, 1.0);
        }
        gate.add(z_[r][m][l], -1.0);
        model_.add_constraint(std::move(gate), Sense::kLessEqual, 0.0,
                              "eq9_r" + std::to_string(r) + "_m" +
                                  std::to_string(m) + "_l" + std::to_string(l));
      }
      // Dedicated constant-port TPGs, allowed only where constants can be
      // wired (Section 3.3.4; the paper omits the modified formulas — this
      // is our reconstruction).
      bool port_may_have_constant = false;
      for (const auto& [key, var] : u_)
        if (std::get<0>(key) == m && std::get<1>(key) == l)
          port_may_have_constant = true;
      if (port_may_have_constant) {
        for (int p = 0; p < K_; ++p) {
          const int tcv = model_.add_binary(
              0.0, "tc_m" + std::to_string(m) + "_l" + std::to_string(l) +
                       "_p" + std::to_string(p));
          priority_.push_back(kPrioBistAssign);
          tc_[{m, l, p}] = tcv;
          LinExpr gate;  // tc <= sum of constant wires on this port
          double fixed = 0.0;
          for (const auto& [key, var] : u_) {
            if (std::get<0>(key) != m || std::get<1>(key) != l) continue;
            if (var < 0)
              fixed += 1.0;
            else
              gate.add(var, 1.0);
          }
          gate.add(tcv, -1.0);
          model_.add_constraint(std::move(gate), Sense::kGreaterEqual, -fixed);
        }
      }
      // Eq. 10 (modified): exactly one pattern source per port.
      LinExpr one;
      for (int r = 0; r < R_; ++r)
        for (int p = 0; p < K_; ++p) one.add(t_[{r, m, l, p}], 1.0);
      for (int p = 0; p < K_; ++p)
        if (tc_.count({m, l, p})) one.add(tc_[{m, l, p}], 1.0);
      model_.add_constraint(std::move(one), Sense::kEqual, 1.0,
                            "eq10_m" + std::to_string(m) + "_l" +
                                std::to_string(l));
    }
    // Eqs. 11-12: all TPGs and the SR of a module active in one session.
    for (int p = 0; p < K_; ++p) {
      auto port_activity = [&](int l) {
        LinExpr e;
        for (int r = 0; r < R_; ++r) e.add(t_[{r, m, l, p}], 1.0);
        if (tc_.count({m, l, p})) e.add(tc_[{m, l, p}], 1.0);
        return e;
      };
      for (int l = 1; l < ports; ++l) {
        LinExpr e = port_activity(0);
        e.add(port_activity(l), -1.0);
        model_.add_constraint(std::move(e), Sense::kEqual, 0.0,
                              "eq11_m" + std::to_string(m) + "_p" +
                                  std::to_string(p));
      }
      LinExpr e;  // Eq. 12
      for (int r = 0; r < R_; ++r) e.add(smrp_[m][r][p], 1.0);
      e.add(port_activity(0), -1.0);
      model_.add_constraint(std::move(e), Sense::kEqual, 0.0,
                            "eq12_m" + std::to_string(m) + "_p" +
                                std::to_string(p));
    }
    // Eq. 13: a TPG feeds at most one port of the module it tests.
    for (int r = 0; r < R_; ++r)
      for (int p = 0; p < K_; ++p) {
        LinExpr e;
        for (int l = 0; l < ports; ++l) e.add(t_[{r, m, l, p}], 1.0);
        model_.add_constraint(std::move(e), Sense::kLessEqual, 1.0,
                              "eq13_r" + std::to_string(r) + "_m" +
                                  std::to_string(m) + "_p" + std::to_string(p));
      }
  }

  // --- reconfiguration indicators (Eqs. 14-23, split "big-sigma" forms) ---
  tr_.assign(R_, -1);
  sr_.assign(R_, -1);
  br_.assign(R_, -1);
  cr_.assign(R_, -1);
  trp_.assign(R_, std::vector<int>(K_, -1));
  srp_.assign(R_, std::vector<int>(K_, -1));
  crp_.assign(R_, std::vector<int>(K_, -1));
  for (int r = 0; r < R_; ++r) {
    tr_[r] = model_.add_binary(0.0, "tr_" + std::to_string(r));
    priority_.push_back(kPrioIndicator);
    sr_[r] = model_.add_binary(0.0, "sr_" + std::to_string(r));
    priority_.push_back(kPrioIndicator);
    br_[r] = model_.add_binary(0.0, "br_" + std::to_string(r));
    priority_.push_back(kPrioIndicator);
    cr_[r] = model_.add_binary(0.0, "cr_" + std::to_string(r));
    priority_.push_back(kPrioIndicator);
    for (int p = 0; p < K_; ++p) {
      trp_[r][p] = model_.add_binary(0.0, "trp_" + std::to_string(r) + "_" +
                                              std::to_string(p));
      priority_.push_back(kPrioIndicator);
      srp_[r][p] = model_.add_binary(0.0, "srp_" + std::to_string(r) + "_" +
                                              std::to_string(p));
      priority_.push_back(kPrioIndicator);
      crp_[r][p] = model_.add_binary(0.0, "crp_" + std::to_string(r) + "_" +
                                              std::to_string(p));
      priority_.push_back(kPrioIndicator);
    }
  }
  for (int r = 0; r < R_; ++r) {
    for (int m = 0; m < M; ++m) {
      const int ports = alloc_.num_ports(dfg_, m);
      for (int p = 0; p < K_; ++p) {
        for (int l = 0; l < ports; ++l) {
          const int tv = t_[{r, m, l, p}];
          // Eq. 15 / 19 split: tr >= t, trp >= t.
          model_.add_constraint(LinExpr().add(tr_[r], 1.0).add(tv, -1.0),
                                Sense::kGreaterEqual, 0.0);
          model_.add_constraint(LinExpr().add(trp_[r][p], 1.0).add(tv, -1.0),
                                Sense::kGreaterEqual, 0.0);
        }
        const int sv = smrp_[m][r][p];
        // Eq. 16 / 20 split: sr >= smrp, srp >= smrp.
        model_.add_constraint(LinExpr().add(sr_[r], 1.0).add(sv, -1.0),
                              Sense::kGreaterEqual, 0.0);
        model_.add_constraint(LinExpr().add(srp_[r][p], 1.0).add(sv, -1.0),
                              Sense::kGreaterEqual, 0.0);
      }
    }
    // Eqs. 17-18: br = tr AND sr (cost keeps the upper side tight).
    model_.add_constraint(
        LinExpr().add(sr_[r], 1.0).add(tr_[r], 1.0).add(br_[r], -1.0),
        Sense::kLessEqual, 1.0, "eq17_r" + std::to_string(r));
    model_.add_constraint(LinExpr().add(br_[r], 1.0).add(tr_[r], -1.0),
                          Sense::kLessEqual, 0.0);
    model_.add_constraint(LinExpr().add(br_[r], 1.0).add(sr_[r], -1.0),
                          Sense::kLessEqual, 0.0);
    for (int p = 0; p < K_; ++p) {
      // Eqs. 21-22: crp = trp AND srp (lower side; cost keeps it tight).
      model_.add_constraint(LinExpr()
                                .add(srp_[r][p], 1.0)
                                .add(trp_[r][p], 1.0)
                                .add(crp_[r][p], -1.0),
                            Sense::kLessEqual, 1.0);
      // Eq. 23 split: cr >= crp.
      model_.add_constraint(
          LinExpr().add(cr_[r], 1.0).add(crp_[r][p], -1.0),
          Sense::kGreaterEqual, 0.0);
    }
  }

  // --- valid pigeonhole cuts (strengthen the LP relaxation) ---
  // Some session tests at least ceil(M/k) modules, whose SRs must be
  // distinct registers (Eq. 8), so at least that many registers carry SR
  // duty overall.
  {
    const int min_srs = (M + K_ - 1) / K_;
    LinExpr e;
    for (int r = 0; r < R_; ++r) e.add(sr_[r], 1.0);
    model_.add_constraint(std::move(e), Sense::kGreaterEqual,
                          static_cast<double>(min_srs), "cut_sr_pigeonhole");
  }
  // A module's register TPGs are pairwise distinct (Eq. 13); the module
  // with the most ports that cannot fall back to a constant TPG forces that
  // many registers into TPG duty.
  {
    int min_tpgs = 0;
    for (int m = 0; m < M; ++m) {
      int hard_ports = 0;
      for (int l = 0; l < alloc_.num_ports(dfg_, m); ++l) {
        bool has_const = false;
        for (const auto& [key, var] : u_)
          if (std::get<0>(key) == m && std::get<1>(key) == l) has_const = true;
        if (!has_const) ++hard_ports;
      }
      min_tpgs = std::max(min_tpgs, hard_ports);
    }
    if (min_tpgs > 0) {
      LinExpr e;
      for (int r = 0; r < R_; ++r) e.add(tr_[r], 1.0);
      model_.add_constraint(std::move(e), Sense::kGreaterEqual,
                            static_cast<double>(min_tpgs),
                            "cut_tpg_pigeonhole");
    }
  }
}

// ---------------------------------------------------------------------------
// Objective (Section 3.4).
// ---------------------------------------------------------------------------
void Formulation::build_objective() {
  const auto& cm = opt_.cost;
  const int w_reg = cm.register_cost(TestRegisterType::kRegister);
  offset_ = static_cast<double>(R_) * w_reg;

  if (opt_.include_bist) {
    const int d_t = cm.register_cost(TestRegisterType::kTpg) - w_reg;
    const int d_s = cm.register_cost(TestRegisterType::kSr) - w_reg;
    const int d_b = cm.register_cost(TestRegisterType::kBilbo) -
                    cm.register_cost(TestRegisterType::kSr) -
                    cm.register_cost(TestRegisterType::kTpg) + w_reg;
    const int d_c = cm.register_cost(TestRegisterType::kCbilbo) -
                    cm.register_cost(TestRegisterType::kBilbo);
    for (int r = 0; r < R_; ++r) {
      model_.set_objective(tr_[r], d_t);
      model_.set_objective(sr_[r], d_s);
      model_.set_objective(br_[r], d_b);
      model_.set_objective(cr_[r], d_c);
    }
    for (const auto& [key, var] : tc_)
      model_.set_objective(var, cm.constant_tpg_penalty());
  }
  for (int r = 0; r < R_; ++r)
    for (int q = 0; q < static_cast<int>(yr_[r].size()); ++q)
      model_.set_objective(yr_[r][q], cm.mux_cost(q));
  for (std::size_t m = 0; m < yml_.size(); ++m)
    for (std::size_t l = 0; l < yml_[m].size(); ++l)
      for (int q = 0; q < static_cast<int>(yml_[m][l].size()); ++q)
        model_.set_objective(yml_[m][l][q], cm.mux_cost(q));
}

// ---------------------------------------------------------------------------
// Decoding + independent re-validation.
// ---------------------------------------------------------------------------
DecodedDesign Formulation::decode(const ilp::Solution& solution) const {
  ADVBIST_REQUIRE(solution.has_solution(), "no incumbent to decode");
  const auto val = [&](int var) { return solution.value_as_int(var) != 0; };

  // Register assignment.
  std::vector<int> reg_of(dfg_.num_variables(), -1);
  for (int v = 0; v < dfg_.num_variables(); ++v)
    for (int r = 0; r < R_; ++r)
      if (val(x_[v][r])) {
        ADVBIST_ENSURE(reg_of[v] < 0, "variable assigned twice");
        reg_of[v] = r;
      }
  DecodedDesign design;
  design.registers = hls::RegisterAssignment(R_, std::move(reg_of));
  design.registers.validate(dfg_);

  // Port maps from the pseudo-port permutation.
  design.ports = hls::identity_port_map(dfg_);
  for (const Operation& op : dfg_.operations()) {
    const auto& so = s_[op.id];
    for (int ls = 0; ls < static_cast<int>(so.size()); ++ls)
      for (int l = 0; l < static_cast<int>(so[ls].size()); ++l)
        if (so[ls][l] >= 0 && val(so[ls][l])) design.ports[op.id][ls] = l;
  }

  // BIST assignment.
  if (opt_.include_bist) {
    design.bist.k = K_;
    design.bist.modules.assign(alloc_.num_modules(), {});
    for (int m = 0; m < alloc_.num_modules(); ++m) {
      auto& plan = design.bist.modules[m];
      for (int r = 0; r < R_; ++r)
        for (int p = 0; p < K_; ++p)
          if (val(smrp_[m][r][p])) {
            ADVBIST_ENSURE(plan.sr_reg < 0, "module has two SRs");
            plan.sr_reg = r;
            plan.session = p;
          }
      const int ports = alloc_.num_ports(dfg_, m);
      plan.tpg_reg.assign(ports, -2);
      for (int l = 0; l < ports; ++l) {
        for (int r = 0; r < R_; ++r)
          for (int p = 0; p < K_; ++p)
            if (val(t_.at({r, m, l, p}))) {
              ADVBIST_ENSURE(plan.tpg_reg[l] == -2, "port has two TPGs");
              ADVBIST_ENSURE(p == plan.session,
                             "TPG session differs from SR session");
              plan.tpg_reg[l] = r;
            }
        for (int p = 0; p < K_; ++p) {
          const auto it = tc_.find({m, l, p});
          if (it != tc_.end() && val(it->second)) {
            ADVBIST_ENSURE(plan.tpg_reg[l] == -2, "port has two TPGs");
            ADVBIST_ENSURE(p == plan.session,
                           "constant TPG session differs from SR session");
            plan.tpg_reg[l] = -1;  // dedicated constant TPG
          }
        }
        ADVBIST_ENSURE(plan.tpg_reg[l] != -2, "port has no pattern source");
      }
    }
  }

  // Rebuild the netlist independently and validate.
  design.datapath =
      hls::build_datapath(dfg_, alloc_, design.registers, design.ports);
  if (opt_.include_bist) {
    bist::validate_bist_design(design.datapath, design.bist);
    design.area = bist::compute_bist_area(design.datapath, design.bist,
                                          opt_.cost);
  } else {
    design.area = bist::compute_reference_area(design.datapath, opt_.cost);
  }

  // Reconcile the recomputed design cost with the ILP objective. The
  // objective charges the w_tc penalty per constant TPG while the honest
  // area charges a TPG-sized register; translate before comparing.
  const double objective_equivalent =
      design.area.total() - offset_ -
      design.area.constant_tpg_transistors +
      static_cast<double>(design.area.constant_tpgs) *
          opt_.cost.constant_tpg_penalty();
  if (solution.is_optimal()) {
    ADVBIST_ENSURE(std::abs(objective_equivalent - solution.objective) < 0.5,
                   "decoded design cost disagrees with the ILP objective");
  } else {
    // A branched-but-unproven incumbent may carry over-forced indicators;
    // its true cost can only be lower or equal.
    ADVBIST_ENSURE(objective_equivalent <= solution.objective + 0.5,
                   "decoded design cost exceeds the ILP objective");
  }
  return design;
}

}  // namespace advbist::core
