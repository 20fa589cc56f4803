/**
 * @file
 * Tests for the random-walk tester and the device-permutation symmetry
 * reduction — the two checker extensions beyond the paper's toolkit.
 */

#include <gtest/gtest.h>

#include "checker/explorer.hh"
#include "checker/random_walk.hh"

namespace cxl
{
namespace
{

class RandomWalkTest : public ::testing::Test
{
  protected:
    RandomWalkTest()
        : config(ProtocolConfig::correct()), rules(config),
          scenario(Scenario::freeRunScenario()),
          invariants(InvariantSet::full(config))
    {
    }

    ProtocolConfig config;
    RuleSet rules;
    Scenario scenario;
    InvariantSet invariants;
};

TEST_F(RandomWalkTest, CleanOnCorrectModel)
{
    RandomWalker walker(rules, scenario, invariants);
    RandomWalkOptions opt;
    opt.walks = 64;
    opt.maxSteps = 128;
    RandomWalkResult res = walker.run(opt);

    EXPECT_EQ(res.walks, 64u);
    EXPECT_FALSE(res.violation.has_value());
    EXPECT_GT(res.steps, 64u * 32u)
        << "free-run walks never terminate early, so nearly every "
           "walk should exhaust its step budget";
}

TEST_F(RandomWalkTest, DeterministicInSeed)
{
    RandomWalker walker(rules, scenario, invariants);
    RandomWalkOptions opt;
    opt.walks = 16;
    RandomWalkResult a = walker.run(opt);
    RandomWalkResult b = walker.run(opt);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.terminalWalks, b.terminalWalks);
}

TEST_F(RandomWalkTest, FindsMutationViolations)
{
    // Cross-check with the explorer: random walks must also stumble
    // into the snoop-pushes-GO violation (SWMR-family) eventually.
    ProtocolConfig mutated = config;
    mutated.relaxSnoopPushesGo = true;
    RuleSet mrules(mutated);
    InvariantSet swmr = InvariantSet::swmrOnly();

    Scenario sc;
    sc.initial = initialAllInvalid(0);
    sc.program[0] = {Instr::Store};
    sc.program[1] = {Instr::Load};

    RandomWalker walker(mrules, sc, swmr);
    RandomWalkOptions opt;
    opt.walks = 2000;
    opt.maxSteps = 32;
    RandomWalkResult res = walker.run(opt);

    ASSERT_TRUE(res.violation.has_value())
        << "2000 walks over a 123-state space must hit the violation";
    EXPECT_EQ(res.violation->conjunctFamily, "swmr");
    // The walk's trace is replayable.
    ASSERT_GE(res.violation->trace.size(), 2u);
    EXPECT_FALSE(swmrHolds(res.violation->trace.back().state));
}

TEST_F(RandomWalkTest, TerminalWalksCountedInProgramMode)
{
    Scenario sc;
    sc.initial = initialAllInvalid(0);
    sc.program[0] = {Instr::Load};

    RandomWalker walker(rules, sc, invariants);
    RandomWalkOptions opt;
    opt.walks = 32;
    RandomWalkResult res = walker.run(opt);
    EXPECT_EQ(res.terminalWalks, 32u)
        << "a single-load program always reaches a terminal state";
    EXPECT_FALSE(res.violation.has_value());
}

// ---------------------------------------------------------------------
// Symmetry reduction.
// ---------------------------------------------------------------------

TEST(Symmetry, SwapIsAnInvolution)
{
    SystemState s = initialOneModified(0, 1, 0);
    s.dev[1].state = DState::ISAD;
    s.dev[1].d2hReq.pushBack({D2HReqOp::RdShared, 0});
    s.counter = 1;

    SystemState twice = s.swappedDevices().swappedDevices();
    EXPECT_EQ(s, twice);
}

TEST(Symmetry, SwapExchangesDevicesAndStoreValues)
{
    SystemState s = initialOneModified(0, 1, 0);
    SystemState t = s.swappedDevices();
    EXPECT_EQ(t.dev[1].state, DState::M);
    EXPECT_EQ(t.dev[0].state, DState::I);
    EXPECT_EQ(t.dev[1].val, 2)
        << "device 1's stored value 1 becomes device 2's value 2";
}

TEST(Symmetry, ReductionHalvesTheSpaceAndPreservesTheVerdict)
{
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config);
    Scenario scenario = Scenario::freeRunScenario();
    InvariantSet invariants = InvariantSet::full(config);
    Explorer ex(rules, scenario, invariants);

    ExploreOptions plain;
    ExploreResult full = ex.run(plain);

    ExploreOptions reduced = plain;
    reduced.symmetry = SymmetryMode::On;
    ExploreResult sym = ex.run(reduced);

    EXPECT_TRUE(full.completed);
    EXPECT_TRUE(sym.completed);
    EXPECT_FALSE(full.violation.has_value());
    EXPECT_FALSE(sym.violation.has_value());

    // Strictly smaller, and no smaller than half (self-symmetric
    // states are their own orbit).
    EXPECT_LT(sym.numStates, full.numStates);
    EXPECT_GE(2 * sym.numStates + 1, full.numStates);
}

TEST(Symmetry, ReductionStillFindsMutationViolations)
{
    ProtocolConfig mutated;
    mutated.relaxSnoopPushesGo = true;
    RuleSet rules(mutated);
    Scenario scenario = Scenario::freeRunScenario();
    InvariantSet inv = InvariantSet::full(mutated).filtered({"swmr"});

    Explorer ex(rules, scenario, inv);
    ExploreOptions opt;
    opt.symmetry = SymmetryMode::On;
    ExploreResult res = ex.run(opt);
    ASSERT_TRUE(res.violation.has_value());
    EXPECT_EQ(res.violation->conjunctFamily, "swmr");
}

} // namespace
} // namespace cxl
