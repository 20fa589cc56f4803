/**
 * @file
 * Unit tests for the device-side transition rules: each rule's guard
 * and action semantics on hand-crafted states, parameterised over both
 * devices (the rule templates must be perfectly symmetric).
 */

#include <gtest/gtest.h>

#include "protocol/rules.hh"

namespace cxl
{
namespace
{

class DeviceRules : public ::testing::TestWithParam<int>
{
  protected:
    DeviceRules() : rules(ProtocolConfig::correct()) {}

    /** Rule name with the 1-based suffix of the parameter device. */
    std::string
    rn(const std::string &base) const
    {
        return base + std::to_string(GetParam() + 1);
    }

    int d() const { return GetParam(); }
    int o() const { return SystemState::other(GetParam()); }

    /** A scenario whose parameter device runs @p prog. */
    Scenario
    withProgram(SystemState init, std::vector<Instr> prog) const
    {
        Scenario sc;
        sc.initial = std::move(init);
        sc.program[d()] = std::move(prog);
        return sc;
    }

    RuleSet rules;
};

TEST_P(DeviceRules, InvalidLoadIssuesRdShared)
{
    Scenario sc = withProgram(initialAllInvalid(), {Instr::Load});
    SystemState s = sc.initial;
    ASSERT_TRUE(rules.fire(rn("InvalidLoad"), s, sc));

    EXPECT_EQ(s.dev[d()].state, DState::ISAD);
    ASSERT_EQ(s.dev[d()].d2hReq.size(), 1u);
    EXPECT_EQ(s.dev[d()].d2hReq.front().op, D2HReqOp::RdShared);
    EXPECT_EQ(s.dev[d()].d2hReq.front().tid, 0);
    EXPECT_EQ(s.counter, 1);
    EXPECT_EQ(s.dev[d()].pc, 0) << "pc advances on completion, not issue";
}

TEST_P(DeviceRules, InvalidLoadBlockedWithoutLoadInstruction)
{
    Scenario sc = withProgram(initialAllInvalid(), {Instr::Store});
    SystemState s = sc.initial;
    EXPECT_FALSE(rules.fire(rn("InvalidLoad"), s, sc));
    EXPECT_TRUE(rules.fire(rn("InvalidStore"), s, sc));
    EXPECT_EQ(s.dev[d()].state, DState::IMAD);
    EXPECT_EQ(s.dev[d()].d2hReq.front().op, D2HReqOp::RdOwn);
}

TEST_P(DeviceRules, SharedStoreUpgrades)
{
    Scenario sc = withProgram(initialBothShared(4), {Instr::Store});
    SystemState s = sc.initial;
    ASSERT_TRUE(rules.fire(rn("SharedStore"), s, sc));
    EXPECT_EQ(s.dev[d()].state, DState::SMAD);
    EXPECT_EQ(s.dev[d()].d2hReq.front().op, D2HReqOp::RdOwn);
}

TEST_P(DeviceRules, SharedAndModifiedHitsRetireInstruction)
{
    {
        Scenario sc = withProgram(initialBothShared(4), {Instr::Load});
        SystemState s = sc.initial;
        ASSERT_TRUE(rules.fire(rn("SharedLoad"), s, sc));
        EXPECT_EQ(s.dev[d()].pc, 1);
        EXPECT_EQ(s.dev[d()].state, DState::S);
        EXPECT_TRUE(s.dev[d()].d2hReq.empty()) << "hits are silent";
    }
    {
        Scenario sc =
            withProgram(initialOneModified(d(), 7, 0), {Instr::Store});
        SystemState s = sc.initial;
        ASSERT_TRUE(rules.fire(rn("ModifiedStore"), s, sc));
        EXPECT_EQ(s.dev[d()].pc, 1);
        EXPECT_EQ(s.dev[d()].val, static_cast<Val>(d() + 1));
    }
}

TEST_P(DeviceRules, EvictionsSelectRequestByDirtiness)
{
    {
        Scenario sc = withProgram(initialBothShared(4), {Instr::Evict});
        SystemState s = sc.initial;
        ASSERT_TRUE(rules.fire(rn("SharedEvict"), s, sc));
        EXPECT_EQ(s.dev[d()].state, DState::SIA);
        EXPECT_EQ(s.dev[d()].d2hReq.front().op, D2HReqOp::CleanEvict);
    }
    {
        Scenario sc = withProgram(initialBothShared(4), {Instr::Evict});
        SystemState s = sc.initial;
        ASSERT_TRUE(rules.fire(rn("SharedEvictNoData"), s, sc));
        EXPECT_EQ(s.dev[d()].state, DState::SIAC);
        EXPECT_EQ(s.dev[d()].d2hReq.front().op,
                  D2HReqOp::CleanEvictNoData);
    }
    {
        Scenario sc =
            withProgram(initialOneModified(d(), 3, 0), {Instr::Evict});
        SystemState s = sc.initial;
        ASSERT_TRUE(rules.fire(rn("ModifiedEvict"), s, sc));
        EXPECT_EQ(s.dev[d()].state, DState::MIA);
        EXPECT_EQ(s.dev[d()].d2hReq.front().op, D2HReqOp::DirtyEvict);
    }
}

TEST_P(DeviceRules, GrantConsumptionSplitPath)
{
    Scenario sc = withProgram(initialAllInvalid(5), {Instr::Load});
    SystemState s = sc.initial;
    ASSERT_TRUE(rules.fire(rn("InvalidLoad"), s, sc));
    // Hand-deliver the grant.
    s.dev[d()].d2hReq.popFront();
    s.dev[d()].h2dRsp.pushBack({H2DRspOp::GO, DState::S, 0});
    s.dev[d()].h2dData.pushBack({0, 5, 0});

    SystemState go_first = s;
    ASSERT_TRUE(rules.fire(rn("ISAD_GO"), go_first, sc));
    EXPECT_EQ(go_first.dev[d()].state, DState::ISD);
    ASSERT_TRUE(rules.fire(rn("ISD_Data"), go_first, sc));
    EXPECT_EQ(go_first.dev[d()].state, DState::S);
    EXPECT_EQ(go_first.dev[d()].val, 5);
    EXPECT_EQ(go_first.dev[d()].pc, 1) << "load completes";

    SystemState data_first = s;
    ASSERT_TRUE(rules.fire(rn("ISAD_Data"), data_first, sc));
    EXPECT_EQ(data_first.dev[d()].state, DState::ISA);
    EXPECT_EQ(data_first.dev[d()].val, 5);
    ASSERT_TRUE(rules.fire(rn("ISA_GO"), data_first, sc));
    EXPECT_EQ(data_first.dev[d()].state, DState::S);

    SystemState combined = s;
    ASSERT_TRUE(rules.fire(rn("ISAD_GO_Data"), combined, sc));
    EXPECT_EQ(combined.dev[d()].state, DState::S);
    EXPECT_EQ(combined, go_first) << "split and combined paths converge";
}

TEST_P(DeviceRules, OwnershipGrantPerformsStore)
{
    Scenario sc = withProgram(initialAllInvalid(5), {Instr::Store});
    SystemState s = sc.initial;
    ASSERT_TRUE(rules.fire(rn("InvalidStore"), s, sc));
    s.dev[d()].d2hReq.popFront();
    s.dev[d()].h2dRsp.pushBack({H2DRspOp::GO, DState::M, 0});
    s.dev[d()].h2dData.pushBack({0, 5, 0});

    ASSERT_TRUE(rules.fire(rn("IMAD_GO_Data"), s, sc));
    EXPECT_EQ(s.dev[d()].state, DState::M);
    EXPECT_EQ(s.dev[d()].val, static_cast<Val>(d() + 1))
        << "the pending store overwrites the granted data";
    EXPECT_EQ(s.dev[d()].pc, 1);
}

TEST_P(DeviceRules, GoTargetMismatchBlocks)
{
    Scenario sc = withProgram(initialAllInvalid(), {Instr::Load});
    SystemState s = sc.initial;
    ASSERT_TRUE(rules.fire(rn("InvalidLoad"), s, sc));
    s.dev[d()].d2hReq.popFront();
    // Wrong grant: ownership GO for a share requester.
    s.dev[d()].h2dRsp.pushBack({H2DRspOp::GO, DState::M, 0});
    EXPECT_FALSE(rules.fire(rn("ISAD_GO"), s, sc));
}

TEST_P(DeviceRules, DirtyEvictionWritesBackOnPull)
{
    Scenario sc =
        withProgram(initialOneModified(d(), 9, 0), {Instr::Evict});
    SystemState s = sc.initial;
    ASSERT_TRUE(rules.fire(rn("ModifiedEvict"), s, sc));
    s.dev[d()].d2hReq.popFront();
    s.dev[d()].h2dRsp.pushBack({H2DRspOp::GO_WritePull, DState::I, 0});

    ASSERT_TRUE(rules.fire(rn("MIA_GO_WritePull"), s, sc));
    EXPECT_EQ(s.dev[d()].state, DState::I);
    ASSERT_EQ(s.dev[d()].d2hData.size(), 1u);
    EXPECT_EQ(s.dev[d()].d2hData.front().val, 9);
    EXPECT_EQ(s.dev[d()].d2hData.front().bogus, 0);
    EXPECT_EQ(s.dev[d()].pc, 1) << "the evict retires with the pull";
}

TEST_P(DeviceRules, CleanEvictionDropsWithoutData)
{
    Scenario sc = withProgram(initialBothShared(2), {Instr::Evict});
    SystemState s = sc.initial;
    ASSERT_TRUE(rules.fire(rn("SharedEvict"), s, sc));
    s.dev[d()].d2hReq.popFront();
    s.dev[d()].h2dRsp.pushBack(
        {H2DRspOp::GO_WritePullDrop, DState::I, 0});

    ASSERT_TRUE(rules.fire(rn("SIA_GO_WritePullDrop"), s, sc));
    EXPECT_EQ(s.dev[d()].state, DState::I);
    EXPECT_TRUE(s.dev[d()].d2hData.empty());
    EXPECT_EQ(s.dev[d()].pc, 1);
}

TEST_P(DeviceRules, SnoopKilledEvictionSendsBogusData)
{
    SystemState init = initialAllInvalid();
    init.dev[d()].state = DState::IIA;
    init.dev[d()].val = 7;
    init.dev[d()].h2dRsp.pushBack(
        {H2DRspOp::GO_WritePull, DState::I, 0});
    init.counter = 1;
    Scenario sc = withProgram(init, {Instr::Evict});

    SystemState s = sc.initial;
    ASSERT_TRUE(rules.fire(rn("IIA_GO_WritePull"), s, sc));
    EXPECT_EQ(s.dev[d()].state, DState::I);
    ASSERT_EQ(s.dev[d()].d2hData.size(), 1u);
    EXPECT_EQ(s.dev[d()].d2hData.front().bogus, 1)
        << "CXL 3.1 S3.2.5.4: data after a snoop-hit eviction is Bogus";
}

TEST_P(DeviceRules, SharedSnpInvRespondsAndInvalidates)
{
    // Fig. 4's SharedSnpInv rule, verbatim.
    SystemState init = initialBothShared(3);
    init.dev[d()].h2dReq.pushBack({H2DReqOp::SnpInv, 2});
    init.counter = 3;
    Scenario sc;
    sc.initial = init;

    SystemState s = init;
    ASSERT_TRUE(rules.fire(rn("SharedSnpInv"), s, sc));
    EXPECT_EQ(s.dev[d()].state, DState::I);
    EXPECT_TRUE(s.dev[d()].h2dReq.empty());
    ASSERT_EQ(s.dev[d()].d2hRsp.size(), 1u);
    EXPECT_EQ(s.dev[d()].d2hRsp.front().op, D2HRspOp::RspIHitSE);
    EXPECT_EQ(s.dev[d()].d2hRsp.front().tid, 2)
        << "the response reuses the snoop's transaction id";
    EXPECT_TRUE(s.dev[d()].buffer.holdsSnoop(H2DReqOp::SnpInv));
}

TEST_P(DeviceRules, SnoopPushesGoGuardBlocksSnoop)
{
    // A pending GO must be consumed before the snoop (S3.2.5.2).
    SystemState init = initialBothShared(3);
    init.dev[d()].h2dReq.pushBack({H2DReqOp::SnpInv, 2});
    init.dev[d()].h2dRsp.pushBack(
        {H2DRspOp::GO_WritePullDrop, DState::I, 1});
    init.counter = 3;
    Scenario sc;
    sc.initial = init;

    SystemState s = init;
    EXPECT_FALSE(rules.fire(rn("SharedSnpInv"), s, sc))
        << "Snoop-pushes-GO: the snoop must wait behind the GO";
}

TEST_P(DeviceRules, ModifiedSnoopsForwardDirtyData)
{
    SystemState init = initialOneModified(d(), 8, 1);
    init.dev[d()].h2dReq.pushBack({H2DReqOp::SnpData, 4});
    init.counter = 5;
    Scenario sc;
    sc.initial = init;

    SystemState s = init;
    ASSERT_TRUE(rules.fire(rn("ModifiedSnpData"), s, sc));
    EXPECT_EQ(s.dev[d()].state, DState::S);
    EXPECT_EQ(s.dev[d()].d2hRsp.front().op, D2HRspOp::RspSFwdM);
    ASSERT_EQ(s.dev[d()].d2hData.size(), 1u);
    EXPECT_EQ(s.dev[d()].d2hData.front().val, 8);

    SystemState t = init;
    t.dev[d()].h2dReq.clear();
    t.dev[d()].h2dReq.pushBack({H2DReqOp::SnpInv, 4});
    ASSERT_TRUE(rules.fire(rn("ModifiedSnpInv"), t, sc));
    EXPECT_EQ(t.dev[d()].state, DState::I);
    EXPECT_EQ(t.dev[d()].d2hRsp.front().op, D2HRspOp::RspIFwdM);
}

TEST_P(DeviceRules, SnoopHitsWritebackKillsEviction)
{
    SystemState init = initialOneModified(d(), 6, 0);
    init.dev[d()].state = DState::MIA;
    init.dev[d()].d2hReq.pushBack({D2HReqOp::DirtyEvict, 0});
    init.dev[d()].h2dReq.pushBack({H2DReqOp::SnpInv, 1});
    init.counter = 2;
    Scenario sc;
    sc.initial = init;

    SystemState s = init;
    ASSERT_TRUE(rules.fire(rn("MIASnpInv"), s, sc));
    EXPECT_EQ(s.dev[d()].state, DState::IIA);
    EXPECT_EQ(s.dev[d()].d2hRsp.front().op, D2HRspOp::RspIFwdM);
    EXPECT_EQ(s.dev[d()].d2hData.front().val, 6)
        << "the snoop still forwards the dirty line";
}

TEST_P(DeviceRules, IsdSnoopEntersReadOnce)
{
    SystemState init = initialAllInvalid(4);
    init.dev[d()].state = DState::ISD;
    init.dev[d()].h2dReq.pushBack({H2DReqOp::SnpInv, 1});
    init.dev[d()].h2dData.pushBack({0, 4, 0});
    init.counter = 2;
    Scenario sc = withProgram(init, {Instr::Load});

    SystemState s = init;
    ASSERT_TRUE(rules.fire(rn("ISDSnpInv"), s, sc));
    EXPECT_EQ(s.dev[d()].state, DState::ISDI);

    ASSERT_TRUE(rules.fire(rn("ISDI_Data"), s, sc));
    EXPECT_EQ(s.dev[d()].state, DState::I);
    EXPECT_EQ(s.dev[d()].pc, 1) << "the read-once satisfies the load";
}

TEST_P(DeviceRules, SmadSnoopDowngradesUpgradeRequest)
{
    SystemState init = initialBothShared(1);
    init.dev[d()].state = DState::SMAD;
    init.dev[d()].d2hReq.pushBack({D2HReqOp::RdOwn, 0});
    init.dev[d()].h2dReq.pushBack({H2DReqOp::SnpInv, 1});
    init.counter = 2;
    Scenario sc;
    sc.initial = init;

    SystemState s = init;
    ASSERT_TRUE(rules.fire(rn("SMADSnpInv"), s, sc));
    EXPECT_EQ(s.dev[d()].state, DState::IMAD)
        << "the invalidated upgrader now needs data too";
    EXPECT_EQ(s.dev[d()].d2hRsp.front().op, D2HRspOp::RspIHitSE);
}

TEST_P(DeviceRules, MutatedIsadSnoopOnlyExistsUnderMutation)
{
    EXPECT_EQ(rules.find(rn("ISADSnpInv")), nullptr)
        << "the Table 3 rule must not exist in the correct model";

    ProtocolConfig mutated;
    mutated.relaxSnoopPushesGo = true;
    RuleSet mrules(mutated);
    const Rule *rule = mrules.find(rn("ISADSnpInv"));
    ASSERT_NE(rule, nullptr);
    EXPECT_TRUE(rule->mutated());

    // It lies with RspIHitI and stays in ISAD (paper Section 5.2).
    SystemState init = initialAllInvalid();
    init.dev[d()].state = DState::ISAD;
    init.dev[d()].h2dReq.pushBack({H2DReqOp::SnpInv, 0});
    init.counter = 1;
    Scenario sc;
    sc.initial = init;

    SystemState s = init;
    ASSERT_TRUE(mrules.fire(rn("ISADSnpInv"), s, sc));
    EXPECT_EQ(s.dev[d()].state, DState::ISAD);
    EXPECT_EQ(s.dev[d()].d2hRsp.front().op, D2HRspOp::RspIHitI);
}

INSTANTIATE_TEST_SUITE_P(BothDevices, DeviceRules, ::testing::Range(0, 2));

} // namespace
} // namespace cxl
