/**
 * @file
 * Tests for device-permutation symmetry: canonicalisation is constant
 * on orbits, store values / requester tracking / tids are remapped
 * consistently, and the explorer's reduced two-device space is
 * exactly halved-plus-diagonal relative to the unreduced one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "checker/explorer.hh"
#include "checker/state_store.hh"
#include "invariants/invariant.hh"
#include "protocol/rules.hh"

namespace cxl
{
namespace
{

/** BFS-enumerate the tid-canonical free-run space (no symmetry). */
std::vector<SystemState>
enumerateFreeRun(int devices, std::size_t cap)
{
    RuleSet rules(ProtocolConfig::correct(), devices);
    Scenario sc = Scenario::freeRunScenario(devices);
    StateStore store;
    std::vector<SystemState> states;
    std::deque<std::size_t> frontier;

    SystemState init = sc.initial;
    init.canonicaliseTids();
    store.insert(init, 0);
    states.push_back(init);
    frontier.push_back(0);

    while (!frontier.empty() && states.size() < cap) {
        const SystemState state = states[frontier.front()];
        frontier.pop_front();
        for (auto &succ : rules.successors(state, sc, true)) {
            auto [idx, is_new] = store.insert(succ.state, 0);
            (void)idx;
            if (is_new) {
                states.push_back(succ.state);
                frontier.push_back(states.size() - 1);
            }
        }
    }
    EXPECT_LT(states.size(), cap) << "enumeration cap hit";
    return states;
}

/** All permutations of [0, n) padded to kMaxDevices. */
std::vector<std::vector<std::uint8_t>>
allPerms(int n)
{
    std::vector<std::uint8_t> perm;
    for (int i = 0; i < n; ++i)
        perm.push_back(static_cast<std::uint8_t>(i));
    std::vector<std::vector<std::uint8_t>> result;
    do {
        result.push_back(perm);
    } while (std::next_permutation(perm.begin(), perm.end()));
    return result;
}

TEST(Symmetry, PermutedStatesCanonicaliseIdentically)
{
    // Every reachable three-device state must land on the same
    // canonical representative as each of its 3! permuted images.
    auto states = enumerateFreeRun(3, 2'000'000);
    ASSERT_GT(states.size(), 100'000u);

    const auto perms = allPerms(3);
    std::size_t checked = 0;
    // Sampling keeps the quadratic-ish work bounded; a stride over
    // the BFS order still touches every depth band.
    for (std::size_t k = 0; k < states.size(); k += 97) {
        const SystemState &s = states[k];
        SystemState canon = s.deviceCanonical(true);
        for (const auto &perm : perms) {
            SystemState image = s.permutedDevices(perm.data());
            image.canonicaliseTids();
            SystemState image_canon = image.deviceCanonical(true);
            ASSERT_EQ(canon, image_canon)
                << "orbit of state #" << k
                << " has multiple representatives:\n"
                << s.dump();
        }
        ++checked;
    }
    EXPECT_GT(checked, 1000u);
}

TEST(Symmetry, PermutationRemapsValuesMessagesAndRequester)
{
    // Device 0 owns the line dirty with its store value 1; device 2
    // is mid-upgrade with grant data in flight carrying value 3 (a
    // device-2 store forwarded by the host); the host serves
    // requester 3 (hreq = 3).
    SystemState s = initialAllInvalid(0, 3);
    s.dev[0].state = DState::M;
    s.dev[0].val = 1;
    s.hstate = HState::MAD;
    s.hreq = 3;
    s.dev[2].state = DState::IMAD;
    s.dev[2].h2dData.pushBack({0, 3, 0});
    s.dev[0].d2hData.pushBack({1, 1, 0});
    s.counter = 2;

    // Rotate: new slot n takes old device perm[n].
    const std::uint8_t perm[kMaxDevices] = {2, 0, 1, 3};
    SystemState t = s.permutedDevices(perm);

    // Old device 0 landed on slot 1, old 1 on slot 2, old 2 on slot 0.
    EXPECT_EQ(t.dev[1].state, DState::M);
    EXPECT_EQ(t.dev[1].val, 2) << "store value 1 names device 1 -> 2";
    EXPECT_EQ(t.dev[0].state, DState::IMAD);
    ASSERT_EQ(t.dev[0].h2dData.size(), 1u);
    EXPECT_EQ(t.dev[0].h2dData.front().val, 1)
        << "store value 3 names device 3, now in slot 1";
    ASSERT_EQ(t.dev[1].d2hData.size(), 1u);
    EXPECT_EQ(t.dev[1].d2hData.front().val, 2);
    EXPECT_EQ(t.hreq, 1) << "requester device 3 now sits in slot 1";

    // Identity round trip: applying the inverse permutation restores
    // the original state bit for bit.
    const std::uint8_t inv[kMaxDevices] = {1, 2, 0, 3};
    EXPECT_EQ(t.permutedDevices(inv), s);
}

TEST(Symmetry, PermutationRemapsTidsViaCanonicalisation)
{
    // Two states that differ only by device order and tid labels must
    // canonicalise identically: permutation moves the channels, tid
    // canonicalisation then relabels in the new first-appearance
    // order.
    SystemState a = initialAllInvalid(0, 3);
    a.dev[0].d2hReq.pushBack({D2HReqOp::RdShared, 0});
    a.dev[0].state = DState::ISAD;
    a.dev[2].d2hReq.pushBack({D2HReqOp::RdOwn, 1});
    a.dev[2].state = DState::IMAD;
    a.counter = 2;

    SystemState b = initialAllInvalid(0, 3);
    b.dev[0].d2hReq.pushBack({D2HReqOp::RdOwn, 0});
    b.dev[0].state = DState::IMAD;
    b.dev[2].d2hReq.pushBack({D2HReqOp::RdShared, 1});
    b.dev[2].state = DState::ISAD;
    b.counter = 2;

    EXPECT_FALSE(a == b);
    EXPECT_EQ(a.deviceCanonical(true), b.deviceCanonical(true));
}

TEST(Symmetry, CanonicalIsIdempotentAndBytewiseLeast)
{
    auto states = enumerateFreeRun(2, 100'000);
    const auto perms = allPerms(2);
    for (std::size_t k = 0; k < states.size(); k += 13) {
        SystemState canon = states[k].deviceCanonical(true);
        EXPECT_EQ(canon, canon.deviceCanonical(true));
        for (const auto &perm : perms) {
            SystemState image = states[k].permutedDevices(perm.data());
            image.canonicaliseTids();
            EXPECT_FALSE(image.bytewiseLess(canon));
        }
    }
}

TEST(Symmetry, TwoDeviceReductionIsHalvedPlusDiagonal)
{
    // |reduced| = (|full| + |self-symmetric|) / 2: every asymmetric
    // orbit contributes two full-space states and one representative,
    // every self-symmetric state is its own orbit.
    auto states = enumerateFreeRun(2, 100'000);

    std::size_t self_symmetric = 0;
    for (const SystemState &s : states) {
        SystemState swapped = s.swappedDevices();
        swapped.canonicaliseTids();
        if (swapped == s)
            ++self_symmetric;
    }

    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config);
    Scenario sc = Scenario::freeRunScenario();
    InvariantSet invariants = InvariantSet::full(config);
    Explorer ex(rules, sc, invariants);

    ExploreOptions plain;
    ExploreResult full = ex.run(plain);
    ExploreOptions reduced_opt = plain;
    reduced_opt.symmetry = SymmetryMode::On;
    ExploreResult reduced = ex.run(reduced_opt);

    ASSERT_TRUE(full.completed);
    ASSERT_TRUE(reduced.completed);
    EXPECT_EQ(full.numStates, states.size());
    EXPECT_EQ((full.numStates + self_symmetric) % 2, 0u);
    EXPECT_EQ(reduced.numStates,
              (full.numStates + self_symmetric) / 2);
    EXPECT_FALSE(reduced.violation.has_value());
}

TEST(Symmetry, ThreeDeviceReductionBoundsAndVerdict)
{
    // Orbits have size at most 3! = 6, so the reduced space is
    // between 1/6 of the full space and the full space itself; the
    // invariant verdict must agree.
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config, 3);
    Scenario sc = Scenario::freeRunScenario(3);
    InvariantSet invariants = InvariantSet::full(config, 3);
    Explorer ex(rules, sc, invariants);

    ExploreOptions plain;
    plain.symmetry = SymmetryMode::Off; // Auto would reduce 3 devices
    plain.checkInvariants = false; // counted by the bench; speed here
    ExploreResult full = ex.run(plain);

    ExploreOptions reduced_opt;
    reduced_opt.symmetry = SymmetryMode::On;
    ExploreResult reduced = ex.run(reduced_opt);

    ASSERT_TRUE(full.completed);
    ASSERT_TRUE(reduced.completed);
    EXPECT_FALSE(reduced.violation.has_value())
        << "SWMR + invariant must hold on every 3-device orbit";
    EXPECT_LT(reduced.numStates, full.numStates);
    EXPECT_GE(reduced.numStates * 6, full.numStates);
}

} // namespace
} // namespace cxl
