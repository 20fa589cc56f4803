/**
 * @file
 * Integration tests for the litmus engine: the paper's Section 5.1
 * suite, the Section 5.2 relaxations, the guided Table 1-3 walks, and
 * the table / message-sequence-chart renderers.
 */

#include <gtest/gtest.h>

#include "litmus/litmus.hh"
#include "litmus/msc.hh"
#include "litmus/trace_table.hh"

namespace cxl
{
namespace
{

class LitmusSuite
    : public ::testing::TestWithParam<LitmusTest>
{
};

TEST_P(LitmusSuite, PassesExhaustively)
{
    const LitmusTest &test = GetParam();
    LitmusOutcome out = runLitmus(test);
    EXPECT_TRUE(out.passed) << test.name << ": " << out.message;
    if (!test.expectViolation) {
        EXPECT_GE(out.finals.size(), 1u) << test.name;
        EXPECT_TRUE(out.explore.completed);
    }
}

std::string
litmusName(const ::testing::TestParamInfo<LitmusTest> &info)
{
    return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Builtin, LitmusSuite,
                         ::testing::ValuesIn(builtinLitmusSuite()),
                         litmusName);
INSTANTIATE_TEST_SUITE_P(Relaxations, LitmusSuite,
                         ::testing::ValuesIn(restrictionRelaxationSuite()),
                         litmusName);

TEST(LitmusEngine, ViolationExpectationFailsOnCorrectModel)
{
    // An expectViolation test against the correct protocol must fail.
    LitmusTest t;
    t.name = "no_bug_here";
    t.scenario.initial = initialAllInvalid(0);
    t.scenario.program[0] = {Instr::Store};
    t.scenario.program[1] = {Instr::Load};
    t.expectViolation = true;
    LitmusOutcome out = runLitmus(t);
    EXPECT_FALSE(out.passed);
}

TEST(LitmusEngine, FinalCheckFailureReported)
{
    LitmusTest t;
    t.name = "wrong_expectation";
    t.scenario.initial = initialAllInvalid(0);
    t.scenario.program[0] = {Instr::Load};
    t.finalCheck = [](const SystemState &s) {
        return s.dev[0].state == DState::M; // wrong: a load yields S
    };
    t.finalCheckDescription = "deliberately wrong";
    LitmusOutcome out = runLitmus(t);
    EXPECT_FALSE(out.passed);
    EXPECT_NE(out.message.find("deliberately wrong"), std::string::npos);
}

TEST(LitmusEngine, RelaxationTracesReplayToTheViolation)
{
    // The walk keeps, beside its FIFO frontier, the edge that first
    // reached each state, and rebuilds the trace from those edges: it
    // must start at the initial state, take depth + 1 steps (the walk
    // is breadth-first), fire an enabled rule at every step and end
    // in a state that fails an invariant.
    for (const LitmusTest &test : restrictionRelaxationSuite()) {
        const LitmusOutcome out = runLitmus(test);
        ASSERT_TRUE(out.explore.violation.has_value()) << test.name;
        const Violation &v = *out.explore.violation;
        const std::vector<TraceStep> &trace = v.trace;
        ASSERT_EQ(trace.size(), v.depth + 1) << test.name;
        EXPECT_TRUE(trace.front().ruleName.empty()) << test.name;
        EXPECT_TRUE(trace.front().state == test.scenario.initial)
            << test.name;
        const RuleSet rules(test.config, test.scenario.numDevices());
        const Context ctx{&test.scenario};
        for (std::size_t k = 1; k < trace.size(); ++k) {
            const Rule *rule = rules.find(trace[k].ruleName);
            ASSERT_NE(rule, nullptr) << test.name << " step " << k;
            EXPECT_TRUE(rule->guard(trace[k - 1].state, ctx))
                << test.name << " step " << k;
            SystemState next = trace[k - 1].state;
            (void)rule->apply(next, ctx);
            EXPECT_TRUE(next == trace[k].state)
                << test.name << " step " << k;
        }
        const InvariantSet invariants =
            InvariantSet::full(test.config, test.scenario.numDevices());
        EXPECT_NE(invariants.firstFailure(trace.back().state, ctx),
                  nullptr)
            << test.name;
    }
}

class GuidedTables : public ::testing::Test
{
  protected:
    std::vector<TraceStep>
    table1(Scenario &sc) const
    {
        static RuleSet rules(ProtocolConfig::correct());
        sc.initial = initialBothShared(0);
        sc.program[0] = {Instr::Evict, Instr::Evict};
        return runGuided(rules, sc,
                         {"SharedEvict1",
                          "HostSharedCleanEvictNotLastDrop1",
                          "SIA_GO_WritePullDrop1", "InvalidEvict1"});
    }
};

TEST_F(GuidedTables, Table1CleanEvictRowByRow)
{
    Scenario sc;
    auto steps = table1(sc);
    ASSERT_EQ(steps.size(), 5u);

    // Row 1: SharedEvict1 -> SIA with a CleanEvict queued.
    EXPECT_EQ(steps[1].state.dev[0].state, DState::SIA);
    EXPECT_EQ(steps[1].state.dev[0].d2hReq.front().op,
              D2HReqOp::CleanEvict);
    EXPECT_EQ(steps[1].state.counter, 1);

    // Row 2: the host answers GO_WritePullDrop, directory stays S
    // because device 2 still shares (the "NotLast" in the rule name).
    EXPECT_EQ(steps[2].state.dev[0].h2dRsp.front().op,
              H2DRspOp::GO_WritePullDrop);
    EXPECT_EQ(steps[2].state.hstate, HState::S);

    // Row 3: the device drops to I and retires the first Evict.
    EXPECT_EQ(steps[3].state.dev[0].state, DState::I);
    EXPECT_EQ(steps[3].state.dev[0].pc, 1);

    // Row 4: the second Evict is a no-op on an invalid line.
    EXPECT_EQ(steps[4].state.dev[0].state, DState::I);
    EXPECT_EQ(steps[4].state.dev[0].pc, 2);
    EXPECT_EQ(steps[4].state.dev[1].state, DState::S);
}

TEST_F(GuidedTables, Table2DirtyEvictRowByRow)
{
    RuleSet rules(ProtocolConfig::correct());
    Scenario sc;
    sc.initial = initialOneModified(0, 1, 0);
    sc.program[0] = {Instr::Evict};
    auto steps = runGuided(rules, sc,
                           {"ModifiedEvict1", "HostModifiedDirtyEvict1",
                            "MIA_GO_WritePull1", "HostID_Data1"});
    ASSERT_EQ(steps.size(), 5u);

    EXPECT_EQ(steps[1].state.dev[0].state, DState::MIA);
    EXPECT_EQ(steps[1].state.dev[0].d2hReq.front().op,
              D2HReqOp::DirtyEvict);

    EXPECT_EQ(steps[2].state.hstate, HState::ID);
    EXPECT_EQ(steps[2].state.dev[0].h2dRsp.front().op,
              H2DRspOp::GO_WritePull);

    EXPECT_EQ(steps[3].state.dev[0].state, DState::I);
    ASSERT_EQ(steps[3].state.dev[0].d2hData.size(), 1u);
    EXPECT_EQ(steps[3].state.dev[0].d2hData.front().val, 1);

    EXPECT_EQ(steps[4].state.hstate, HState::I);
    EXPECT_EQ(steps[4].state.hval, 1)
        << "Table 2: the host copies the writeback in";
}

TEST_F(GuidedTables, Table3SnoopPushesGoViolationRowByRow)
{
    ProtocolConfig cfg;
    cfg.relaxSnoopPushesGo = true;
    RuleSet rules(cfg);
    Scenario sc;
    sc.initial = initialAllInvalid(0);
    sc.program[0] = {Instr::Store};
    sc.program[1] = {Instr::Load};
    auto steps = runGuided(
        rules, sc,
        {"InvalidStore1", "InvalidLoad2", "HostInvalidRdShared2",
         "HostSharedRdOwnSnp1", "ISADSnpInv2", "ISAD_GO_Data2",
         "HostMA_RspIHitI1", "IMAD_GO_Data1"});
    ASSERT_EQ(steps.size(), 9u);

    // Row ISADSnpInv2: the mutated device answers RspIHitI and stays
    // in ISAD (the warning-sign rule of Table 3).
    EXPECT_EQ(steps[5].state.dev[1].state, DState::ISAD);
    EXPECT_EQ(steps[5].state.dev[1].d2hRsp.front().op,
              D2HRspOp::RspIHitI);

    // Row ISAD_GO_Data2: it then consumes the stale share grant.
    EXPECT_EQ(steps[6].state.dev[1].state, DState::S);

    // Final row: device 1 modified while device 2 shares — SWMR gone.
    const SystemState &fin = steps.back().state;
    EXPECT_EQ(fin.dev[0].state, DState::M);
    EXPECT_EQ(fin.dev[1].state, DState::S);
    EXPECT_FALSE(swmrHolds(fin));

    // Every intermediate state *does* satisfy plain SWMR — the
    // violation only materialises at the very end (paper Section 5.2).
    for (std::size_t k = 0; k + 1 < steps.size(); ++k)
        EXPECT_TRUE(swmrHolds(steps[k].state)) << k;
}

TEST_F(GuidedTables, GuidedRunRejectsDisabledRule)
{
    RuleSet rules(ProtocolConfig::correct());
    Scenario sc;
    sc.initial = initialAllInvalid(0);
    sc.program[0] = {Instr::Load};
    EXPECT_THROW(runGuided(rules, sc, {"ModifiedEvict1"}),
                 std::runtime_error);
    EXPECT_THROW(runGuided(rules, sc, {"NoSuchRule"}),
                 std::runtime_error);
}

TEST_F(GuidedTables, TraceTableRendersPaperColumns)
{
    Scenario sc;
    auto steps = table1(sc);
    std::string table = renderTraceTable(
        steps, sc,
        {StateColumn::DProg1, StateColumn::DCache1, StateColumn::D2HReq1,
         StateColumn::H2DRsp1, StateColumn::HCache, StateColumn::DCache2,
         StateColumn::Counter});

    EXPECT_NE(table.find("(initial state)"), std::string::npos);
    EXPECT_NE(table.find("SharedEvict1"), std::string::npos);
    EXPECT_NE(table.find("[Evict, Evict]"), std::string::npos);
    EXPECT_NE(table.find("(CleanEvict, 0)"), std::string::npos);
    EXPECT_NE(table.find("GO_WritePullDrop"), std::string::npos);
    EXPECT_NE(table.find("(0, SIA)"), std::string::npos);
}

TEST_F(GuidedTables, MscDerivesSendsAndDeliveries)
{
    Scenario sc;
    auto steps = table1(sc);
    auto events = deriveMscEvents(steps);

    int device_sends = 0, host_sends = 0, delivers = 0, notes = 0;
    for (const auto &ev : events) {
        switch (ev.kind) {
          case MscEvent::Kind::DeviceSend: ++device_sends; break;
          case MscEvent::Kind::HostSend: ++host_sends; break;
          case MscEvent::Kind::Deliver: ++delivers; break;
          case MscEvent::Kind::Note: ++notes; break;
        }
    }
    EXPECT_EQ(device_sends, 1) << "one CleanEvict";
    EXPECT_EQ(host_sends, 1) << "one GO_WritePullDrop";
    EXPECT_EQ(delivers, 2) << "request consumed + drop consumed";
    EXPECT_GE(notes, 2) << "S->SIA and SIA->I at least";

    std::string chart = renderMsc(steps, "table 1");
    EXPECT_NE(chart.find("device 1"), std::string::npos);
    EXPECT_NE(chart.find("host"), std::string::npos);
    EXPECT_NE(chart.find("CleanEvict"), std::string::npos);
}

} // namespace
} // namespace cxl
