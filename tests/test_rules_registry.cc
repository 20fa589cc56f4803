/**
 * @file
 * Tests for the rule registry: construction, lookup, successor
 * enumeration, and the Scenario plumbing (program fetch, free-run).
 */

#include <gtest/gtest.h>

#include <set>

#include "protocol/rules.hh"

namespace cxl
{
namespace
{

TEST(Scenario, FetchAndMayIssue)
{
    Scenario sc;
    sc.program[0] = {Instr::Load, Instr::Store};

    EXPECT_EQ(sc.fetch(0, 0), Instr::Load);
    EXPECT_EQ(sc.fetch(0, 1), Instr::Store);
    EXPECT_EQ(sc.fetch(0, 2), Instr::None) << "past the end";
    EXPECT_EQ(sc.fetch(1, 0), Instr::None) << "empty program";

    EXPECT_TRUE(sc.mayIssue(0, 0, Instr::Load));
    EXPECT_FALSE(sc.mayIssue(0, 0, Instr::Store));
    EXPECT_EQ(sc.nextPc(0, 0), 1);
}

TEST(Scenario, FreeRunSemantics)
{
    Scenario sc = Scenario::freeRunScenario();
    EXPECT_TRUE(sc.freeRun);
    EXPECT_TRUE(sc.mayIssue(0, 0, Instr::Load));
    EXPECT_TRUE(sc.mayIssue(1, 0, Instr::Evict));
    EXPECT_EQ(sc.nextPc(0, 0), 0) << "free-run never advances the pc";
    EXPECT_FALSE(sc.finished(sc.initial));
}

TEST(Scenario, FinishedChecksBothPrograms)
{
    Scenario sc;
    sc.program[0] = {Instr::Load};
    sc.program[1] = {Instr::Load, Instr::Load};
    SystemState s;
    EXPECT_FALSE(sc.finished(s));
    s.dev[0].pc = 1;
    s.dev[1].pc = 1;
    EXPECT_FALSE(sc.finished(s));
    s.dev[1].pc = 2;
    EXPECT_TRUE(sc.finished(s));
}

TEST(RuleSet, RuleCountsAndIds)
{
    RuleSet rules(ProtocolConfig::correct());
    // The paper's model has 68 rules (34 per device); ours is a
    // documented superset (DESIGN.md): CleanEvictNoData, stale-evict
    // races, combined GO+Data consumption, read-once ISDI, etc.
    EXPECT_GE(rules.rules().size(), 100u);
    EXPECT_LE(rules.rules().size(), 160u);
    EXPECT_EQ(rules.baseRuleCount(), rules.rules().size());

    for (std::size_t k = 0; k < rules.rules().size(); ++k)
        EXPECT_EQ(rules.rules()[k].id, k);
}

TEST(RuleSet, NamesAreUniqueAndDeviceSuffixed)
{
    RuleSet rules(ProtocolConfig::correct());
    std::set<std::string> names;
    std::size_t dev1 = 0, dev2 = 0;
    for (const Rule &r : rules.rules()) {
        EXPECT_TRUE(names.insert(r.name()).second) << r.name();
        char suffix = r.name().back();
        EXPECT_TRUE(suffix == '1' || suffix == '2') << r.name();
        EXPECT_EQ(suffix, r.dev() == 0 ? '1' : '2') << r.name();
        (r.dev() == 0 ? dev1 : dev2)++;
    }
    EXPECT_EQ(dev1, dev2) << "rule templates instantiate symmetrically";
}

TEST(RuleSet, FindByName)
{
    RuleSet rules(ProtocolConfig::correct());
    const Rule *rule = rules.find("InvalidLoad1");
    ASSERT_NE(rule, nullptr);
    EXPECT_EQ(rule->dev(), 0);
    EXPECT_EQ(rules.find("InvalidLoad3"), nullptr);
    EXPECT_EQ(rules.find(""), nullptr);
}

TEST(RuleSet, SuccessorsEnumeratesEnabledRulesExactly)
{
    RuleSet rules(ProtocolConfig::correct());
    Scenario sc;
    sc.initial = initialAllInvalid(0);
    sc.program[0] = {Instr::Load};

    auto succs = rules.successors(sc.initial, sc);
    ASSERT_EQ(succs.size(), 1u) << "only InvalidLoad1 can fire";
    EXPECT_EQ(succs[0].rule->name(), "InvalidLoad1");
    EXPECT_FALSE(succs[0].overflow);
    EXPECT_EQ(succs[0].state.dev[0].state, DState::ISAD);

    // The source state is not modified.
    EXPECT_EQ(sc.initial.dev[0].state, DState::I);
}

TEST(RuleSet, SuccessorsWithCanonicalisation)
{
    RuleSet rules(ProtocolConfig::correct());
    Scenario sc = Scenario::freeRunScenario();
    SystemState s = sc.initial;
    s.counter = 77; // stale counter, no live tids

    auto raw = rules.successors(s, sc, false);
    auto canon = rules.successors(s, sc, true);
    ASSERT_EQ(raw.size(), canon.size());
    for (std::size_t k = 0; k < canon.size(); ++k) {
        SystemState expect = raw[k].state;
        expect.canonicaliseTids();
        EXPECT_EQ(canon[k].state, expect);
    }
}

TEST(RuleSet, FireConvenienceWrapper)
{
    RuleSet rules(ProtocolConfig::correct());
    Scenario sc;
    sc.initial = initialAllInvalid(0);
    sc.program[1] = {Instr::Store};

    SystemState s = sc.initial;
    EXPECT_FALSE(rules.fire("InvalidStore1", s, sc))
        << "device 1 has no program";
    EXPECT_TRUE(rules.fire("InvalidStore2", s, sc));
    EXPECT_FALSE(rules.fire("InvalidStore2", s, sc))
        << "guard no longer holds after firing";
}

TEST(RuleSet, GoSendAllowedImplementsTailgateGuard)
{
    SystemState s;
    EXPECT_TRUE(goSendAllowed(s, 0));
    s.dev[0].h2dReq.pushBack({H2DReqOp::SnpInv, 0});
    EXPECT_FALSE(goSendAllowed(s, 0)) << "snoop outstanding";
    s.dev[0].h2dReq.clear();
    s.dev[0].d2hRsp.pushBack({D2HRspOp::RspIHitSE, 0});
    EXPECT_FALSE(goSendAllowed(s, 0)) << "response uncollected";
    s.dev[0].d2hRsp.clear();
    s.dev[0].d2hData.pushBack({0, 1, 0});
    EXPECT_FALSE(goSendAllowed(s, 0)) << "IWB data uncollected";
}

TEST(RuleSet, TrackingViews)
{
    SystemState s = initialBothShared(0);
    EXPECT_TRUE(sharerView(s, 0));
    EXPECT_TRUE(sharerView(s, 1));
    EXPECT_FALSE(ownerView(s, 0));

    SystemState m = initialOneModified(0, 1, 0);
    EXPECT_TRUE(ownerView(m, 0));
    EXPECT_FALSE(ownerView(m, 1));
    EXPECT_FALSE(sharerView(m, 0));

    // An ISAD device counts as sharer only once its grant is in
    // flight.
    SystemState t;
    t.dev[0].state = DState::ISAD;
    EXPECT_FALSE(sharerView(t, 0));
    t.dev[0].h2dRsp.pushBack({H2DRspOp::GO, DState::S, 0});
    EXPECT_TRUE(sharerView(t, 0));

    // An evicting sharer is discounted once its request is processed.
    SystemState e;
    e.dev[0].state = DState::SIA;
    e.dev[0].d2hReq.pushBack({D2HReqOp::CleanEvict, 0});
    EXPECT_TRUE(sharerView(e, 0));
    e.dev[0].d2hReq.clear();
    EXPECT_FALSE(sharerView(e, 0));
}

} // namespace
} // namespace cxl
