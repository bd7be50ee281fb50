// Cost model must reproduce the paper's Table 1 exactly — these numbers are
// the objective weights of every experiment.
#include <gtest/gtest.h>

#include "bist/cost_model.hpp"

namespace advbist::bist {
namespace {

TEST(CostModel, Table1aRegisterCosts) {
  const CostModel cm = CostModel::paper_8bit();
  EXPECT_EQ(cm.register_cost(TestRegisterType::kRegister), 208);
  EXPECT_EQ(cm.register_cost(TestRegisterType::kTpg), 256);
  EXPECT_EQ(cm.register_cost(TestRegisterType::kSr), 304);
  EXPECT_EQ(cm.register_cost(TestRegisterType::kBilbo), 388);
  EXPECT_EQ(cm.register_cost(TestRegisterType::kCbilbo), 596);
}

TEST(CostModel, Table1bMuxCosts) {
  const CostModel cm = CostModel::paper_8bit();
  EXPECT_EQ(cm.mux_cost(2), 80);
  EXPECT_EQ(cm.mux_cost(3), 176);
  EXPECT_EQ(cm.mux_cost(4), 208);
  EXPECT_EQ(cm.mux_cost(5), 300);
  EXPECT_EQ(cm.mux_cost(6), 320);
  EXPECT_EQ(cm.mux_cost(7), 350);
}

TEST(CostModel, DirectWiresAreFree) {
  const CostModel cm = CostModel::paper_8bit();
  EXPECT_EQ(cm.mux_cost(0), 0);
  EXPECT_EQ(cm.mux_cost(1), 0);
}

TEST(CostModel, WideMuxExtrapolates) {
  const CostModel cm = CostModel::paper_8bit();
  EXPECT_EQ(cm.mux_cost(8), 400);
  EXPECT_EQ(cm.mux_cost(10), 500);
  EXPECT_GT(cm.mux_cost(9), cm.mux_cost(8));
}

TEST(CostModel, NegativeFaninThrows) {
  EXPECT_THROW((void)CostModel::paper_8bit().mux_cost(-1),
               std::invalid_argument);
}

TEST(CostModel, WidthScalingLinear) {
  const CostModel cm16 = CostModel::scaled_to_width(16);
  EXPECT_EQ(cm16.register_cost(TestRegisterType::kRegister), 416);
  EXPECT_EQ(cm16.register_cost(TestRegisterType::kCbilbo), 1192);
  EXPECT_EQ(cm16.mux_cost(2), 160);
  const CostModel cm4 = CostModel::scaled_to_width(4);
  EXPECT_EQ(cm4.register_cost(TestRegisterType::kTpg), 128);
}

TEST(CostModel, InvalidWidthThrows) {
  EXPECT_THROW((void)CostModel::scaled_to_width(0), std::invalid_argument);
}

TEST(CostModel, ConstantTpgPenaltyDominates) {
  const CostModel cm = CostModel::paper_8bit();
  EXPECT_GT(cm.constant_tpg_penalty(),
            cm.register_cost(TestRegisterType::kCbilbo));
  EXPECT_GT(cm.constant_tpg_penalty(), cm.mux_cost(10));
  EXPECT_EQ(cm.constant_tpg_cost(), 256);
}

TEST(CostModel, TypeNames) {
  EXPECT_STREQ(to_string(TestRegisterType::kRegister), "Reg");
  EXPECT_STREQ(to_string(TestRegisterType::kCbilbo), "CBILBO");
}

// The paper's observation: reconfiguring a CBILBO costs roughly double the
// flip-flops — the cost model must preserve the ordering
// Reg < TPG < SR < BILBO < CBILBO that drives all assignment tradeoffs.
TEST(CostModel, CostOrderingDrivesTradeoffs) {
  const CostModel cm = CostModel::paper_8bit();
  EXPECT_LT(cm.register_cost(TestRegisterType::kRegister),
            cm.register_cost(TestRegisterType::kTpg));
  EXPECT_LT(cm.register_cost(TestRegisterType::kTpg),
            cm.register_cost(TestRegisterType::kSr));
  EXPECT_LT(cm.register_cost(TestRegisterType::kSr),
            cm.register_cost(TestRegisterType::kBilbo));
  EXPECT_LT(cm.register_cost(TestRegisterType::kBilbo),
            cm.register_cost(TestRegisterType::kCbilbo));
  // BILBO is cheaper than a separate TPG + SR pair upgrade:
  // (388 - 208) < (256 - 208) + (304 - 208) would be 180 < 144 — false, so
  // sharing into a BILBO is NOT automatically cheaper; the ILP must weigh
  // mux effects. Assert the raw deltas the formulation uses.
  EXPECT_EQ(cm.register_cost(TestRegisterType::kTpg) -
                cm.register_cost(TestRegisterType::kRegister),
            48);
  EXPECT_EQ(cm.register_cost(TestRegisterType::kSr) -
                cm.register_cost(TestRegisterType::kRegister),
            96);
}

}  // namespace
}  // namespace advbist::bist
