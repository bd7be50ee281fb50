// White-box checks of the ILP formulation: the constraint families of
// Sections 3.1-3.4 must appear with exactly the multiplicities the paper's
// equations imply (constraints carry their equation names), and the
// session-ordering rows must admit exactly one labeling per design.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/formulation.hpp"
#include "hls/benchmarks.hpp"

namespace advbist::core {
namespace {

int count_rows_with_prefix(const lp::Model& m, const std::string& prefix) {
  int n = 0;
  for (int c = 0; c < m.num_constraints(); ++c)
    if (m.constraint(c).name.rfind(prefix, 0) == 0) ++n;
  return n;
}

int count_vars_with_prefix(const lp::Model& m, const std::string& prefix) {
  int n = 0;
  for (int v = 0; v < m.num_variables(); ++v)
    if (m.variable(v).name.rfind(prefix, 0) == 0) ++n;
  return n;
}

class FormulationDetail : public ::testing::Test {
 protected:
  FormulationDetail() : b_(hls::make_fig1()) {
    FormulationOptions fo;
    fo.k = 2;
    fo.symmetry_reduction = false;
    f_ = std::make_unique<Formulation>(b_.dfg, b_.modules, fo);
  }
  hls::Benchmark b_;
  std::unique_ptr<Formulation> f_;
};

TEST_F(FormulationDetail, AssignmentRowsOnePerVariable) {
  EXPECT_EQ(count_rows_with_prefix(f_->model(), "assign_v"), 8);
}

TEST_F(FormulationDetail, Eq7OneRowPerModule) {
  EXPECT_EQ(count_rows_with_prefix(f_->model(), "eq7_"), 2);
}

TEST_F(FormulationDetail, Eq8OneRowPerRegisterSession) {
  EXPECT_EQ(count_rows_with_prefix(f_->model(), "eq8_"), 3 * 2);
}

TEST_F(FormulationDetail, Eq6OneRowPerModuleRegister) {
  EXPECT_EQ(count_rows_with_prefix(f_->model(), "eq6_"), 2 * 3);
}

TEST_F(FormulationDetail, Eq9OneRowPerRegisterPort) {
  // r x m x l = 3 * 2 * 2.
  EXPECT_EQ(count_rows_with_prefix(f_->model(), "eq9_"), 12);
}

TEST_F(FormulationDetail, Eq10OneRowPerPort) {
  EXPECT_EQ(count_rows_with_prefix(f_->model(), "eq10_"), 4);
}

TEST_F(FormulationDetail, Eq11And12PerModuleSession) {
  EXPECT_EQ(count_rows_with_prefix(f_->model(), "eq11_"), 2 * 2);
  EXPECT_EQ(count_rows_with_prefix(f_->model(), "eq12_"), 2 * 2);
}

TEST_F(FormulationDetail, Eq13PerRegisterModuleSession) {
  EXPECT_EQ(count_rows_with_prefix(f_->model(), "eq13_"), 3 * 2 * 2);
}

TEST_F(FormulationDetail, Eq17PerRegister) {
  EXPECT_EQ(count_rows_with_prefix(f_->model(), "eq17_"), 3);
}

TEST_F(FormulationDetail, AdversePathRowsCoverEveryWire) {
  // Eq. 1 family: one prevention row per (r, m, l).
  EXPECT_EQ(count_rows_with_prefix(f_->model(), "eq1_"), 3 * 2 * 2);
}

TEST_F(FormulationDetail, PigeonholeCutsPresent) {
  EXPECT_EQ(count_rows_with_prefix(f_->model(), "cut_sr_pigeonhole"), 1);
  EXPECT_EQ(count_rows_with_prefix(f_->model(), "cut_tpg_pigeonhole"), 1);
}

TEST_F(FormulationDetail, VariableFamilies) {
  const lp::Model& m = f_->model();
  EXPECT_EQ(count_vars_with_prefix(m, "x_v"), 8 * 3);
  EXPECT_EQ(count_vars_with_prefix(m, "smrp_"), 2 * 3 * 2);
  EXPECT_EQ(count_vars_with_prefix(m, "t_r"), 3 * 2 * 2 * 2);
  EXPECT_EQ(count_vars_with_prefix(m, "tr_"), 3);
  EXPECT_EQ(count_vars_with_prefix(m, "trp_"), 3 * 2);
  // fig1 has no constants: no tc or u variables.
  EXPECT_EQ(count_vars_with_prefix(m, "tc_"), 0);
  EXPECT_EQ(count_vars_with_prefix(m, "u_m"), 0);
}

TEST_F(FormulationDetail, MuxSelectorsOneHotPerInput) {
  const lp::Model& m = f_->model();
  // Registers: M+1 selectors each; ports: R+consts+1 each.
  EXPECT_EQ(count_vars_with_prefix(m, "yr_"), 3 * (2 + 1));
  EXPECT_EQ(count_vars_with_prefix(m, "yml_"), 4 * (3 + 1));
}

TEST(FormulationConstants, PaulinGrowsConstantMachinery) {
  const hls::Benchmark b = hls::make_paulin();
  FormulationOptions fo;
  fo.k = 1;
  const Formulation f(b.dfg, b.modules, fo);
  // The shared constant '3' feeds both multipliers through commutative
  // ports: u indicators and tc variables must exist.
  EXPECT_GT(count_vars_with_prefix(f.model(), "u_m"), 0);
  EXPECT_GT(count_vars_with_prefix(f.model(), "tc_"), 0);
}

TEST(FormulationSymmetry, PinsMaximalClique) {
  const hls::Benchmark b = hls::make_fig1();
  FormulationOptions fo;
  fo.k = 1;
  fo.symmetry_reduction = true;
  const Formulation f(b.dfg, b.modules, fo);
  // The maximal crossing is 3; 3 variables x 3 registers get fixed bounds.
  int fixed = 0;
  for (int v = 0; v < f.model().num_variables(); ++v) {
    const auto& def = f.model().variable(v);
    if (def.name.rfind("x_v", 0) == 0 && def.lower == def.upper) ++fixed;
  }
  EXPECT_EQ(fixed, 3 * 3);
}

TEST(FormulationSymmetry, SessionOrderRowsPerModuleAndLaterSession) {
  for (const char* name : {"fig1", "tseng", "paulin"}) {
    const hls::Benchmark b = hls::benchmark_by_name(name);
    const int M = b.modules.num_modules();
    for (int k = 1; k <= M; ++k) {
      FormulationOptions fo;
      fo.k = k;
      const Formulation on(b.dfg, b.modules, fo);
      EXPECT_EQ(count_rows_with_prefix(on.model(), "symsess_"), M * (k - 1))
          << name << " k=" << k;
      fo.symmetry_reduction = false;
      const Formulation off(b.dfg, b.modules, fo);
      EXPECT_EQ(count_rows_with_prefix(off.model(), "symsess_"), 0)
          << name << " k=" << k;
    }
  }
}

/// Relabels the sessions of a module -> session map in order of their
/// lowest module (the labeling the symsess_ rows admit).
std::vector<int> canonical_labeling(const std::vector<int>& session_of) {
  std::vector<int> relabel(session_of.size(), -1);
  std::vector<int> out(session_of.size());
  int next = 0;
  for (std::size_t m = 0; m < session_of.size(); ++m) {
    int& label = relabel[session_of[m]];
    if (label < 0) label = next++;
    out[m] = label;
  }
  return out;
}

/// Number of ways to split n modules into at most k nonempty unlabeled
/// sessions: sum over j <= k of the Stirling numbers S(n, j).
long long partitions_into_at_most(int n, int k) {
  std::vector<std::vector<long long>> s(n + 1,
                                        std::vector<long long>(n + 1, 0));
  s[0][0] = 1;
  for (int i = 1; i <= n; ++i)
    for (int j = 1; j <= i; ++j) s[i][j] = j * s[i - 1][j] + s[i - 1][j - 1];
  long long total = 0;
  for (int j = 0; j <= k; ++j) total += s[n][j];
  return total;
}

// The rows cut exactly the redundant session labelings: out of all k^M maps
// from modules to sessions, the ones they admit are one per partition of
// the modules into at most k sessions, each already in canonical order.
TEST(FormulationSymmetry, SessionOrderRowsKeepOneLabelingPerPartition) {
  for (const char* name : {"fig1", "tseng", "paulin"}) {
    const hls::Benchmark b = hls::benchmark_by_name(name);
    const int M = b.modules.num_modules();
    for (int k = 2; k <= M; ++k) {
      FormulationOptions fo;
      fo.k = k;
      const Formulation f(b.dfg, b.modules, fo);
      const lp::Model& model = f.model();
      const int R = f.num_registers();
      std::vector<int> rows;
      for (int c = 0; c < model.num_constraints(); ++c)
        if (model.constraint(c).name.rfind("symsess_", 0) == 0)
          rows.push_back(c);
      const auto var_named = [&](const std::string& n) {
        for (int v = 0; v < model.num_variables(); ++v)
          if (model.variable(v).name == n) return v;
        ADD_FAILURE() << "no variable " << n;
        return 0;
      };
      // smrp[m][r][p] for one register per module; the rows sum over r.
      std::vector<std::vector<int>> smrp(M, std::vector<int>(k));
      for (int m = 0; m < M; ++m)
        for (int p = 0; p < k; ++p)
          smrp[m][p] = var_named("smrp_m" + std::to_string(m) + "_r" +
                                 std::to_string(m % R) + "_p" +
                                 std::to_string(p));

      long long admitted = 0;
      std::vector<int> session_of(M, 0);
      for (long long code = 0;; ++code) {
        std::vector<double> x(model.num_variables(), 0.0);
        for (int m = 0; m < M; ++m) x[smrp[m][session_of[m]]] = 1.0;
        bool ok = true;
        for (int c : rows) {
          const lp::ConstraintDef& row = model.constraint(c);
          double lhs = 0.0;
          for (const lp::Term& t : row.terms) lhs += t.coeff * x[t.var];
          ok = ok && lhs <= row.rhs + 1e-9;
        }
        if (ok) {
          ++admitted;
          EXPECT_EQ(canonical_labeling(session_of), session_of)
              << name << " k=" << k << " map " << code;
        }
        int m = 0;  // next map in base-k counting order
        while (m < M && ++session_of[m] == k) session_of[m++] = 0;
        if (m == M) break;
      }
      EXPECT_EQ(admitted, partitions_into_at_most(M, k))
          << name << " k=" << k;
    }
  }
}

TEST(FormulationReference, NoBistVariablesWithoutBist) {
  const hls::Benchmark b = hls::make_fig1();
  FormulationOptions fo;
  fo.include_bist = false;
  const Formulation f(b.dfg, b.modules, fo);
  EXPECT_EQ(count_vars_with_prefix(f.model(), "smrp_"), 0);
  EXPECT_EQ(count_vars_with_prefix(f.model(), "t_r"), 0);
  EXPECT_EQ(count_rows_with_prefix(f.model(), "eq10_"), 0);
}

}  // namespace
}  // namespace advbist::core
