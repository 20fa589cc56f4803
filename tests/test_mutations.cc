/**
 * @file
 * Tests for the restriction-relaxation machinery (paper Section 5.2):
 * each mutation makes a specific violation reachable that the correct
 * model provably (exhaustively) never reaches, and the mutated rule
 * sets differ from the base set in exactly the advertised ways.
 */

#include <gtest/gtest.h>

#include "checker/explorer.hh"
#include "invariants/invariant.hh"
#include "litmus/litmus.hh"

namespace cxl
{
namespace
{

TEST(Mutations, ConfigReportsActiveMutations)
{
    ProtocolConfig c;
    EXPECT_FALSE(c.mutated());
    EXPECT_TRUE(c.activeMutations().empty());

    c.relaxSnoopPushesGo = true;
    c.relaxOneSnoop = true;
    EXPECT_TRUE(c.mutated());
    auto names = c.activeMutations();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "relax_snoop_pushes_go");
    EXPECT_EQ(names[1], "relax_one_snoop");
}

TEST(Mutations, MutatedRulesAreFlagged)
{
    ProtocolConfig c;
    c.relaxSnoopPushesGo = true;
    c.relaxGoTailgate = true;
    c.relaxOneSnoop = true;
    RuleSet rules(c);

    std::size_t mutated = 0;
    for (const Rule &r : rules.rules())
        mutated += r.mutated() ? 1 : 0;
    // ISADSnpInv + IMADSnpInv + HostEagerGoRdOwn + HostSecondSnoop,
    // each per device.
    EXPECT_EQ(mutated, 8u);
    EXPECT_EQ(rules.baseRuleCount(), rules.rules().size() - 8);
}

TEST(Mutations, CorrectModelHasNoMutatedRules)
{
    RuleSet rules(ProtocolConfig::correct());
    for (const Rule &r : rules.rules())
        EXPECT_FALSE(r.mutated()) << r.name();
}

struct MutationCase {
    const char *name;
    ProtocolConfig config;
    /// Conjunct families whose violation the mutation must enable.
    std::vector<std::string> checkFamilies;
    const char *expectedFamily;
};

std::vector<MutationCase>
mutationCases()
{
    std::vector<MutationCase> cases;
    {
        MutationCase c{"relax_snoop_pushes_go", {}, {"swmr"}, "swmr"};
        c.config.relaxSnoopPushesGo = true;
        cases.push_back(c);
    }
    {
        MutationCase c{"relax_smad_snoop_guard",
                       {},
                       {"swmr", "snoop_honesty"},
                       "snoop_honesty"};
        c.config.relaxSmadSnoopGuard = true;
        cases.push_back(c);
    }
    {
        MutationCase c{"relax_go_tailgate", {}, {"swmr"}, "swmr"};
        c.config.relaxGoTailgate = true;
        cases.push_back(c);
    }
    {
        MutationCase c{"relax_one_snoop",
                       {},
                       {"swmr", "channel_singleton"},
                       "channel_singleton"};
        c.config.relaxOneSnoop = true;
        cases.push_back(c);
    }
    return cases;
}

class MutationSweep : public ::testing::TestWithParam<MutationCase>
{
};

TEST_P(MutationSweep, FreeRunReachesTheAdvertisedViolation)
{
    const MutationCase &mc = GetParam();
    RuleSet rules(mc.config);
    Scenario scenario = Scenario::freeRunScenario();
    InvariantSet inv =
        InvariantSet::full(mc.config).filtered(mc.checkFamilies);
    ASSERT_GT(inv.size(), 0u);

    Explorer explorer(rules, scenario, inv);
    ExploreResult res = explorer.run();
    ASSERT_TRUE(res.violation.has_value()) << mc.name;
    EXPECT_EQ(res.violation->conjunctFamily, mc.expectedFamily)
        << res.violation->describe();
}

TEST_P(MutationSweep, CorrectModelNeverReachesIt)
{
    const MutationCase &mc = GetParam();
    ProtocolConfig correct = ProtocolConfig::correct();
    RuleSet rules(correct);
    Scenario scenario = Scenario::freeRunScenario();
    InvariantSet inv =
        InvariantSet::full(correct).filtered(mc.checkFamilies);

    Explorer explorer(rules, scenario, inv);
    ExploreResult res = explorer.run();
    EXPECT_TRUE(res.completed);
    EXPECT_FALSE(res.violation.has_value());
}

std::string
mutationName(const ::testing::TestParamInfo<MutationCase> &info)
{
    return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(AllMutations, MutationSweep,
                         ::testing::ValuesIn(mutationCases()),
                         mutationName);

TEST(Mutations, RelaxedModelStrictlyEnlargesStateSpace)
{
    // Relaxations add behaviours; they must never remove any.
    Scenario scenario = Scenario::freeRunScenario();
    InvariantSet none = InvariantSet::swmrOnly().filtered({"none"});

    RuleSet base(ProtocolConfig::correct());
    Explorer base_ex(base, scenario, none);
    ExploreOptions opt;
    opt.checkInvariants = false;
    auto base_res = base_ex.run(opt);

    ProtocolConfig relaxed;
    relaxed.relaxSnoopPushesGo = true;
    RuleSet mrules(relaxed);
    Explorer mut_ex(mrules, scenario, none);
    auto mut_res = mut_ex.run(opt);

    EXPECT_GT(mut_res.numStates, base_res.numStates)
        << "relaxing Snoop-pushes-GO must make new states reachable";
}

} // namespace
} // namespace cxl
