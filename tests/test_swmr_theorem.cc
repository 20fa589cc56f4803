/**
 * @file
 * The reproduction's counterpart of paper Theorem 6.2
 * (SWMR_CXL_cache): for every protocol configuration, every reachable
 * state of the free-run two-device model satisfies SWMR and the full
 * strengthened invariant.  Program-mode sweeps additionally check
 * termination and final coherence over a grid of device programs.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "checker/explorer.hh"
#include "invariants/invariant.hh"

namespace cxl
{
namespace
{

struct ConfigCase {
    const char *name;
    ProtocolConfig config;
};

std::vector<ConfigCase>
allCorrectConfigs()
{
    std::vector<ConfigCase> cases;
    cases.push_back({"default", ProtocolConfig::correct()});

    ProtocolConfig standard;
    standard.staleEvictDrop = false;
    cases.push_back({"standard_bogus_pulls", standard});

    ProtocolConfig pull;
    pull.hostCleanPull = true;
    cases.push_back({"host_clean_pull", pull});

    ProtocolConfig both;
    both.hostCleanPull = true;
    both.staleEvictDrop = false;
    cases.push_back({"pull_and_standard", both});

    ProtocolConfig no_cend;
    no_cend.cleanEvictNoData = false;
    cases.push_back({"no_clean_evict_nodata", no_cend});

    return cases;
}

class SwmrTheorem : public ::testing::TestWithParam<ConfigCase>
{
};

TEST_P(SwmrTheorem, HoldsOnEveryReachableState)
{
    const ConfigCase &cc = GetParam();
    RuleSet rules(cc.config);
    Scenario scenario = Scenario::freeRunScenario();
    InvariantSet invariants = InvariantSet::full(cc.config);

    Explorer explorer(rules, scenario, invariants);
    ExploreResult res = explorer.run();

    ASSERT_TRUE(res.completed)
        << "the free-run state space must be finite and fully explored";
    EXPECT_FALSE(res.violation.has_value())
        << (res.violation ? res.violation->describe() : std::string());
    EXPECT_GT(res.numStates, 1000u)
        << "the space must be non-trivial for the theorem to mean much";
}

TEST_P(SwmrTheorem, StateSpaceIsDeviceSymmetric)
{
    const ConfigCase &cc = GetParam();
    RuleSet rules(cc.config);
    Scenario scenario = Scenario::freeRunScenario();
    InvariantSet invariants = InvariantSet::full(cc.config);

    Explorer explorer(rules, scenario, invariants);
    ExploreResult res = explorer.run();
    ASSERT_TRUE(res.completed);

    for (const Rule &rule : rules.rules()) {
        if (rule.dev() != 0)
            continue;
        std::string twin = rule.name();
        twin.back() = '2';
        const Rule *other = rules.find(twin);
        ASSERT_NE(other, nullptr);
        EXPECT_EQ(res.ruleFireCounts[rule.id],
                  res.ruleFireCounts[other->id])
            << rule.name();
    }
}

std::string
configName(const ::testing::TestParamInfo<ConfigCase> &info)
{
    return info.param.name;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, SwmrTheorem,
                         ::testing::ValuesIn(allCorrectConfigs()),
                         configName);

// ---------------------------------------------------------------------
// Program-grid sweep: both devices run every pair of two-instruction
// programs from {Load, Store, Evict}^2; every interleaving must stay
// coherent, terminate, and drain its channels.
// ---------------------------------------------------------------------

using ProgramPair = std::tuple<int, int>; // indices into the grid

std::vector<Instr>
programFromIndex(int idx)
{
    const Instr ops[] = {Instr::Load, Instr::Store, Instr::Evict};
    return {ops[idx / 3], ops[idx % 3]};
}

std::string
programText(int idx)
{
    std::string txt;
    for (Instr op : programFromIndex(idx))
        txt += toString(op);
    return txt;
}

class ProgramSweep : public ::testing::TestWithParam<ProgramPair>
{
};

TEST_P(ProgramSweep, AllInterleavingsCoherentAndTerminate)
{
    auto [p1, p2] = GetParam();
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config);
    InvariantSet invariants = InvariantSet::full(config);

    Scenario sc;
    sc.name = "sweep_" + programText(p1) + "_" + programText(p2);
    sc.initial = initialAllInvalid(0);
    sc.program[0] = programFromIndex(p1);
    sc.program[1] = programFromIndex(p2);

    Explorer explorer(rules, sc, invariants);
    ExploreOptions opt;
    opt.checkDeadlock = true;
    ExploreResult res = explorer.run(opt);

    EXPECT_TRUE(res.completed) << sc.name;
    EXPECT_FALSE(res.violation.has_value())
        << sc.name << ": "
        << (res.violation ? res.violation->describe() : "");
}

TEST_P(ProgramSweep, FromSharedInitialState)
{
    auto [p1, p2] = GetParam();
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config);
    InvariantSet invariants = InvariantSet::full(config);

    Scenario sc;
    sc.initial = initialBothShared(0);
    sc.program[0] = programFromIndex(p1);
    sc.program[1] = programFromIndex(p2);

    Explorer explorer(rules, sc, invariants);
    ExploreOptions opt;
    opt.checkDeadlock = true;
    ExploreResult res = explorer.run(opt);
    EXPECT_TRUE(res.completed);
    EXPECT_FALSE(res.violation.has_value())
        << (res.violation ? res.violation->describe() : "");
}

std::string
sweepName(const ::testing::TestParamInfo<ProgramPair> &info)
{
    return programText(std::get<0>(info.param)) + "_vs_" +
           programText(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Grid, ProgramSweep,
                         ::testing::Combine(::testing::Range(0, 9),
                                            ::testing::Range(0, 9)),
                         sweepName);

} // namespace
} // namespace cxl
