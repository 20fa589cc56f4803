/**
 * @file
 * Unit tests for the invariant library: SWMR (Definition 6.1), the
 * paper's four sample conjuncts, filtering and registry behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "invariants/invariant.hh"

namespace cxl
{
namespace
{

class Invariants : public ::testing::Test
{
  protected:
    Invariants()
        : inv(InvariantSet::full(ProtocolConfig::correct()))
    {
        sc.initial = {};
        sc.freeRun = true;
    }

    const Conjunct *
    get(const std::string &name)
    {
        const Conjunct *c = inv.find(name);
        EXPECT_NE(c, nullptr) << name;
        return c;
    }

    bool
    holds(const std::string &name, const SystemState &s)
    {
        Context ctx{&sc};
        return get(name)->holds(s, ctx);
    }

    InvariantSet inv;
    Scenario sc;
};

TEST_F(Invariants, SwmrDefinition)
{
    SystemState ok = initialOneModified(0, 1, 0);
    EXPECT_TRUE(swmrHolds(ok));

    SystemState two_owners = ok;
    two_owners.dev[1].state = DState::M;
    EXPECT_FALSE(swmrHolds(two_owners));

    SystemState owner_and_reader = ok;
    owner_and_reader.dev[1].state = DState::S;
    EXPECT_FALSE(swmrHolds(owner_and_reader));

    SystemState both_shared = initialBothShared(0);
    EXPECT_TRUE(swmrHolds(both_shared)) << "multiple readers are fine";

    // Transients do not count as readers or writers for Def. 6.1.
    SystemState transient = ok;
    transient.dev[1].state = DState::SIA;
    EXPECT_TRUE(swmrHolds(transient));
}

TEST_F(Invariants, SwmrConjunctMatchesPredicate)
{
    SystemState bad = initialOneModified(0, 1, 0);
    bad.dev[1].state = DState::S;
    EXPECT_FALSE(holds("swmr_d1", bad));
    EXPECT_TRUE(holds("swmr_d2", bad))
        << "device 2 has no write access, so its instance holds";
}

TEST_F(Invariants, TransientSwmrFlagsAlmostOwnerConflicts)
{
    // The paper's first sample conjunct: device 1 almost-M while
    // device 2 is still a sharer, with no snoop on the way.
    SystemState bad;
    bad.dev[0].state = DState::IMAD;
    bad.dev[0].h2dRsp.pushBack({H2DRspOp::GO, DState::M, 0});
    bad.dev[1].state = DState::S;
    bad.hstate = HState::M;
    bad.counter = 1;
    EXPECT_FALSE(holds("transient_swmr_d1", bad));

    // With a SnpInv heading to device 2 the state is legitimate.
    SystemState racing = bad;
    racing.dev[1].h2dReq.pushBack({H2DReqOp::SnpInv, 0});
    EXPECT_TRUE(holds("transient_swmr_d1", racing));

    // IMD counts as almost-M even with no GO in flight.
    SystemState imd = bad;
    imd.dev[0].h2dRsp.clear();
    imd.dev[0].state = DState::IMD;
    EXPECT_FALSE(holds("transient_swmr_d1", imd));
}

TEST_F(Invariants, SnoopHonestyMatchesPaperSet)
{
    // Paper: head(D2HRsp1) ∈ {RspIFwdM, RspIHitSE} ⟹
    //        DCache1.State ∈ {I, ISDI, ISAD, IMAD, IIA}.
    for (int idx = 0; idx < kNumDStates; ++idx) {
        DState st = dstateFromIndex(idx);
        SystemState s;
        s.dev[0].state = st;
        s.dev[0].d2hRsp.pushBack({D2HRspOp::RspIHitSE, 0});
        s.counter = 1;
        bool expected = st == DState::I || st == DState::ISDI ||
                        st == DState::ISAD || st == DState::IMAD ||
                        st == DState::IIA;
        EXPECT_EQ(holds("snoop_honest_inv_d1", s), expected)
            << toString(st);
    }
}

TEST_F(Invariants, ChannelSingletonCountsMessages)
{
    SystemState s;
    s.dev[0].h2dRsp.pushBack({H2DRspOp::GO, DState::S, 0});
    s.counter = 1;
    EXPECT_TRUE(holds("singleton_h2d_rsp_d1", s));
    s.dev[0].h2dRsp.pushBack({H2DRspOp::GO, DState::S, 0});
    EXPECT_FALSE(holds("singleton_h2d_rsp_d1", s));
}

TEST_F(Invariants, DataConflictConjunct)
{
    // Paper: i ≠ j ⟹ D2HData_i = [] ∨ H2DData_j = [].
    SystemState s;
    s.counter = 2;
    s.dev[0].d2hData.pushBack({0, 1, 0});
    EXPECT_TRUE(holds("data_no_conflict_d1", s));
    s.dev[1].h2dData.pushBack({1, 1, 0});
    EXPECT_FALSE(holds("data_no_conflict_d1", s));
}

TEST_F(Invariants, DirectoryConjuncts)
{
    SystemState bad_m = initialAllInvalid();
    bad_m.hstate = HState::M;
    EXPECT_FALSE(holds("dir_m_owner", bad_m)) << "M with no owner";

    SystemState bad_i = initialAllInvalid();
    bad_i.dev[0].state = DState::S;
    EXPECT_FALSE(holds("dir_i_nothing_valid_d1", bad_i));

    SystemState good = initialOneModified(1, 2, 0);
    Context ctx{&sc};
    EXPECT_EQ(inv.firstFailure(good, ctx), nullptr);
}

TEST_F(Invariants, FirstFailureReportsAndOrderIsStable)
{
    SystemState bad = initialOneModified(0, 1, 0);
    bad.dev[1].state = DState::M; // two owners
    Context ctx{&sc};
    const Conjunct *failure = inv.firstFailure(bad, ctx);
    ASSERT_NE(failure, nullptr);
    EXPECT_EQ(failure->family(), "swmr")
        << "swmr conjuncts come first in the registry";
}

TEST_F(Invariants, SwmrOnlySetIsExactlyTheSwmrFamily)
{
    InvariantSet swmr = InvariantSet::swmrOnly();
    EXPECT_EQ(swmr.size(), 2u);
    for (const Conjunct &c : swmr.conjuncts())
        EXPECT_EQ(c.family(), "swmr");
}

TEST_F(Invariants, FilteredKeepsRequestedFamilies)
{
    InvariantSet sub = inv.filtered({"swmr", "directory"});
    EXPECT_GT(sub.size(), 0u);
    for (const Conjunct &c : sub.conjuncts())
        EXPECT_TRUE(c.family() == "swmr" || c.family() == "directory");
    // ids are re-numbered densely.
    for (std::size_t k = 0; k < sub.size(); ++k)
        EXPECT_EQ(sub.conjuncts()[k].id, k);
}

TEST_F(Invariants, FamiliesEnumerated)
{
    auto fams = inv.families();
    for (const char *expected :
         {"swmr", "transient_swmr", "snoop_honesty", "channel_singleton",
          "data_conflict", "directory", "host_transient", "message_shape",
          "request_state", "ordering", "progress", "buffer",
          "tid_discipline"}) {
        EXPECT_NE(std::find(fams.begin(), fams.end(), expected),
                  fams.end())
            << expected;
    }
}

TEST_F(Invariants, DataConflictExcludedInStandardMode)
{
    // The paper's fourth sample conjunct needs the Section 4.4 drop
    // behaviour; standard mode legitimately violates it.
    ProtocolConfig standard;
    standard.staleEvictDrop = false;
    InvariantSet std_inv = InvariantSet::full(standard);
    EXPECT_EQ(std_inv.find("data_no_conflict_d1"), nullptr);
    EXPECT_NE(inv.find("data_no_conflict_d1"), nullptr);
}

TEST_F(Invariants, UniqueNames)
{
    std::set<std::string> names;
    for (const Conjunct &c : inv.conjuncts())
        EXPECT_TRUE(names.insert(c.name()).second) << c.name();
}

TEST_F(Invariants, EveryConjunctHasDescription)
{
    for (const Conjunct &c : inv.conjuncts()) {
        EXPECT_FALSE(c.description().empty()) << c.name();
        EXPECT_FALSE(c.family().empty()) << c.name();
    }
}

} // namespace
} // namespace cxl
