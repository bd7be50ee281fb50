// The ADVBIST ILP formulation (Section 3 of the paper): system register
// assignment, BIST register assignment and interconnection assignment in one
// integer linear program, minimized per k-test session.
//
// Decision variables (names follow the paper):
//   x[v][r]      variable v assigned to register r
//   s[o][l*][l]  pseudo-input port l* of commutative op o connected to
//                physical port l (Eq. 3's s_{l*,l,o}); identity for
//                non-commutative operations
//   z[r][m][l]   interconnection register r -> input port l of module m
//   zv[...]      auxiliary edge-support variables (Eqs. 1-3) proving each
//                interconnection is demanded by some DFG edge (no adverse
//                test-only paths)
//   zo[m][r]     interconnection module m output -> register r
//   u[m][l][c]   constant c hard-wired to port (m,l) (mux fanin accounting)
//   smrp[m][r][p]  register r is module m's signature register in session p
//   t[r][m][l][p]  register r generates patterns for port (m,l) in session p
//   tc[m][l][p]    dedicated constant-port TPG (Section 3.3.4, our
//                  reconstruction of the omitted formulas)
//   tr/sr/br/cr[r] register r used as TPG / SR anywhere; needs BILBO; CBILBO
//   trp/srp/crp[r][p] per-session variants driving the CBILBO condition
//   yr[r][q], yml[m][l][q]  one-hot multiplexer size selectors (the mux cost
//                  table is not concave, so sizes are selected exactly)
//
// Symmetry-breaking rows (FormulationOptions::symmetry_reduction):
//   Section 3.5    a maximal clique of pairwise-incompatible variables is
//                  pinned to distinct registers (variable bounds, no rows)
//   symsess_m<m>_p<p>  for each module m and session p >= 1:
//                  sum_r smrp[m][r][p] <= sum_{m'<m} sum_r smrp[m'][r][p-1]
//                  orders the interchangeable sessions by their lowest
//                  module (partitioning-orbitope ordering; Kaibel & Pfetsch
//                  2008). M*(k-1) rows; module 0 lands in session 0 and
//                  empty sessions trail.
//
// The objective is the Section 3.4 transistor count:
//   sum_r (w_tpg-w_reg) tr + (w_sr-w_reg) sr + (w_bilbo-w_sr-w_tpg+w_reg) br
//         + (w_cbilbo-w_bilbo) cr
//   + mux costs + w_tc * #constant TPGs   (+ offset R*w_reg)
//
// With include_bist = false the same machinery produces the paper's
// reference synthesis (area-optimal plain datapath: registers + muxes).
#pragma once

#include <map>
#include <vector>

#include "bist/bist_design.hpp"
#include "bist/cost_model.hpp"
#include "hls/allocation.hpp"
#include "hls/datapath.hpp"
#include "hls/dfg.hpp"
#include "ilp/solver.hpp"
#include "lp/model.hpp"

namespace advbist::core {

struct FormulationOptions {
  /// Registers available; -1 means the minimum (Dfg::max_crossing()).
  int num_registers = -1;
  /// Number of sub-test sessions (k). Ignored when include_bist is false.
  int k = 1;
  /// Build the BIST layer (false = reference datapath synthesis).
  bool include_bist = true;
  /// Section 3.5: pre-assign a maximum clique of pairwise-incompatible
  /// variables to distinct registers (prunes n! symmetric assignments),
  /// and order the k sessions by their lowest module (the symsess_ rows,
  /// which prune the k! session relabelings).
  bool symmetry_reduction = true;
  /// Model commutative operand swaps via pseudo-input ports (Eq. 3).
  /// Disabling forces the identity port map (ablation).
  bool commutative_swaps = true;
  /// When set, pins every x[v][r] to this assignment: the ILP then only
  /// performs BIST + interconnect assignment on a fixed register allocation
  /// (the "sequential" flow the paper's concurrent formulation improves on).
  const hls::RegisterAssignment* fix_registers = nullptr;
  bist::CostModel cost = bist::CostModel::paper_8bit();
};

/// A fully decoded synthesis result, re-validated from first principles.
struct DecodedDesign {
  hls::RegisterAssignment registers;
  hls::PortMap ports;
  bist::BistAssignment bist;  ///< meaningful only for BIST formulations
  hls::Datapath datapath;
  bist::AreaBreakdown area;
};

class Formulation {
 public:
  Formulation(const hls::Dfg& dfg, const hls::ModuleAllocation& alloc,
              FormulationOptions options);

  [[nodiscard]] const lp::Model& model() const { return model_; }
  /// Constant part of the objective (R * w_reg) not carried by the model.
  [[nodiscard]] double objective_offset() const { return offset_; }
  /// Branching priorities for ilp::Solver (decision vars before indicators).
  [[nodiscard]] std::vector<int> branch_priorities() const { return priority_; }
  [[nodiscard]] int num_registers() const { return R_; }

  /// Decodes an ILP solution into datapath + BIST assignment, rebuilds the
  /// netlist independently, validates it (BIST rules + area reconciliation
  /// against the ILP objective) and returns it.
  [[nodiscard]] DecodedDesign decode(const ilp::Solution& solution) const;

 private:
  void build_register_assignment();
  void build_port_maps();
  void build_interconnect();
  void build_mux_selection();
  void build_bist();
  void build_objective();

  [[nodiscard]] int max_port_fanin(int m, int l) const;

  const hls::Dfg& dfg_;
  const hls::ModuleAllocation& alloc_;
  FormulationOptions opt_;
  lp::Model model_;
  double offset_ = 0.0;
  std::vector<int> priority_;

  int R_ = 0;
  int K_ = 1;

  // --- variable index tables ---
  std::vector<std::vector<int>> x_;                  // [v][r]
  std::vector<std::vector<std::vector<int>>> s_;     // [op][l*][l] (-1 fixed)
  std::vector<std::vector<std::vector<int>>> z_;     // [r][m][l]
  std::vector<std::vector<int>> zo_;                 // [m][r]
  std::map<std::tuple<int, int, int>, int> u_;       // (m,l,const) -> var
  std::vector<std::vector<std::vector<int>>> smrp_;  // [m][r][p]
  std::map<std::tuple<int, int, int, int>, int> t_;  // (r,m,l,p) -> var
  std::map<std::tuple<int, int, int>, int> tc_;      // (m,l,p) -> var
  std::vector<int> tr_, sr_, br_, cr_;               // [r]
  std::vector<std::vector<int>> trp_, srp_, crp_;    // [r][p]
  std::vector<std::vector<int>> yr_;                 // [r][q]
  std::vector<std::vector<std::vector<int>>> yml_;   // [m][l][q]
};

}  // namespace advbist::core
