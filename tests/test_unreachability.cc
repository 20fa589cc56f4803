/**
 * @file
 * Negative scenario verification (paper Section 5: "illegal
 * interactions are indeed forbidden"): exhaustively assert that
 * specific bad state shapes are unreachable in the correct model —
 * and, as a sanity check on the method, that the matching *legal*
 * shapes are reachable.
 */

#include <gtest/gtest.h>

#include <deque>
#include <functional>

#include "checker/state_store.hh"
#include "protocol/rules.hh"

namespace cxl
{
namespace
{

/** Exhaustively search for a state satisfying @p predicate. */
bool
reachable(const RuleSet &rules, const Scenario &scenario,
          const std::function<bool(const SystemState &)> &predicate)
{
    StateStore store;
    std::deque<std::uint32_t> frontier;
    SystemState init = scenario.initial;
    init.canonicaliseTids();
    if (predicate(init))
        return true;
    frontier.push_back(store.insert(init, 0).first);

    while (!frontier.empty()) {
        std::uint32_t idx = frontier.front();
        frontier.pop_front();
        const SystemState &state = store.stateAt(idx);
        for (auto &succ : rules.successors(state, scenario, true)) {
            if (predicate(succ.state))
                return true;
            auto [sidx, is_new] = store.insert(succ.state, 0);
            if (is_new)
                frontier.push_back(sidx);
        }
    }
    return false;
}

class Unreachability : public ::testing::Test
{
  protected:
    Unreachability()
        : rules(ProtocolConfig::correct()),
          scenario(Scenario::freeRunScenario())
    {
    }

    bool
    freeRunReaches(std::function<bool(const SystemState &)> predicate)
    {
        return reachable(rules, scenario, std::move(predicate));
    }

    RuleSet rules;
    Scenario scenario;
};

TEST_F(Unreachability, TwoSimultaneousOwnersForbidden)
{
    EXPECT_FALSE(freeRunReaches([](const SystemState &s) {
        return s.dev[0].state == DState::M && s.dev[1].state == DState::M;
    }));
    // ...but a single owner is of course reachable.
    EXPECT_TRUE(freeRunReaches([](const SystemState &s) {
        return s.dev[0].state == DState::M;
    }));
}

TEST_F(Unreachability, OwnerAndSharerForbidden)
{
    EXPECT_FALSE(freeRunReaches([](const SystemState &s) {
        return s.dev[0].state == DState::M && s.dev[1].state == DState::S;
    }));
    EXPECT_TRUE(freeRunReaches([](const SystemState &s) {
        return s.dev[0].state == DState::S && s.dev[1].state == DState::S;
    }));
}

TEST_F(Unreachability, RspIHitINeverSentByHonestDevices)
{
    // Perfect tracking means the host never snoops an invalid line, so
    // the correct model never produces RspIHitI (paper Section 3.2).
    EXPECT_FALSE(freeRunReaches([](const SystemState &s) {
        for (const auto &d : s.dev) {
            for (const auto &m : d.d2hRsp) {
                if (m.op == D2HRspOp::RspIHitI)
                    return true;
            }
        }
        return false;
    }));
}

TEST_F(Unreachability, SnoopNeverTargetsAnIdleInvalidLine)
{
    // A snoop in flight to a device that is plain-I with nothing
    // pending would be an unnecessary snoop.
    EXPECT_FALSE(freeRunReaches([](const SystemState &s) {
        for (const auto &d : s.dev) {
            if (!d.h2dReq.empty() && d.state == DState::I &&
                d.d2hReq.empty() && d.h2dRsp.empty() &&
                d.h2dData.empty()) {
                return true;
            }
        }
        return false;
    }));
}

TEST_F(Unreachability, OwnershipGrantNeverCoexistsWithAnotherGrant)
{
    // An in-flight GO-M excludes any grant to the other device; two
    // in-flight GO-S grants, by contrast, are perfectly legal.
    auto has_go_to = [](const DeviceState &d, DState target) {
        for (const auto &m : d.h2dRsp) {
            if (m.op == H2DRspOp::GO && m.target == target)
                return true;
        }
        return false;
    };
    auto has_any_go = [](const DeviceState &d) {
        for (const auto &m : d.h2dRsp) {
            if (m.op == H2DRspOp::GO)
                return true;
        }
        return false;
    };
    EXPECT_FALSE(
        freeRunReaches([has_go_to, has_any_go](const SystemState &s) {
            return (has_go_to(s.dev[0], DState::M) &&
                    has_any_go(s.dev[1])) ||
                   (has_go_to(s.dev[1], DState::M) &&
                    has_any_go(s.dev[0]));
        }));
    EXPECT_TRUE(
        freeRunReaches([has_go_to](const SystemState &s) {
            return has_go_to(s.dev[0], DState::S) &&
                   has_go_to(s.dev[1], DState::S);
        }))
        << "two share grants in flight are legal";
}

TEST_F(Unreachability, SnoopPushesGoShapeIsReachableButHarmless)
{
    // The Table 3 pre-condition — a snoop queued *behind* a pending GO
    // — is reachable even in the correct model; the restriction is
    // about processing order, not about the shape existing.
    EXPECT_TRUE(freeRunReaches([](const SystemState &s) {
        for (const auto &d : s.dev) {
            if (!d.h2dReq.empty() && !d.h2dRsp.empty())
                return true;
        }
        return false;
    }));
}

TEST_F(Unreachability, BogusDataForbiddenUnderSection44Fix)
{
    // With GO_WritePullDrop on stale evictions (default config), no
    // bogus data message is ever produced...
    EXPECT_FALSE(freeRunReaches([](const SystemState &s) {
        for (const auto &d : s.dev) {
            for (const auto &m : d.d2hData) {
                if (m.bogus)
                    return true;
            }
        }
        return false;
    }));

    // ...while the standard behaviour does produce them.
    ProtocolConfig standard;
    standard.staleEvictDrop = false;
    RuleSet std_rules(standard);
    EXPECT_TRUE(reachable(std_rules, scenario, [](const SystemState &s) {
        for (const auto &d : s.dev) {
            for (const auto &m : d.d2hData) {
                if (m.bogus)
                    return true;
            }
        }
        return false;
    }));
}

TEST_F(Unreachability, HostTransientsNeverCoexistWithIdleChannels)
{
    // A snooping host state always has its transaction visibly in
    // flight somewhere (matching the progress conjuncts).
    EXPECT_FALSE(freeRunReaches([](const SystemState &s) {
        if (s.hstate != HState::MA && s.hstate != HState::MAD &&
            s.hstate != HState::SAD) {
            return false;
        }
        for (const auto &d : s.dev) {
            if (!d.h2dReq.empty() || !d.d2hRsp.empty())
                return false;
        }
        return true;
    }));
}

} // namespace
} // namespace cxl
