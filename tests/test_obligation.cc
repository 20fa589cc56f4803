/**
 * @file
 * Tests for the obligation-matrix engine and universe generation: the
 * SWMR non-inductiveness result (paper Section 6), reachable-closure
 * inductiveness, witness replayability, and thread-count invariance.
 */

#include <gtest/gtest.h>

#include <set>

#include "obligation/matrix.hh"
#include "obligation/universe.hh"

namespace cxl
{
namespace
{

class Obligation : public ::testing::Test
{
  protected:
    Obligation()
        : config(ProtocolConfig::correct()), rules(config),
          scenario(Scenario::freeRunScenario())
    {
    }

    ProtocolConfig config;
    RuleSet rules;
    Scenario scenario;
};

TEST_F(Obligation, PaperWitnessShowsSwmrNotInductive)
{
    // Paper Section 6: the state with DCache1 = IMA, a GO-M in flight
    // and DCache2 = M satisfies SWMR, but one transition breaks it.
    SystemState w = swmrNonInductiveWitness(0);
    EXPECT_TRUE(swmrHolds(w));

    Context ctx{&scenario};
    const Rule *rule = rules.find("IMA_GO1");
    ASSERT_NE(rule, nullptr);
    ASSERT_TRUE(rule->guard(w, ctx));
    SystemState post = w;
    ASSERT_TRUE(rule->apply(post, ctx));
    EXPECT_FALSE(swmrHolds(post));

    // The strengthened invariant rejects the witness as a state, which
    // is exactly why it had to be strengthened.
    InvariantSet full = InvariantSet::full(config);
    EXPECT_FALSE(full.holds(w, ctx));
}

TEST_F(Obligation, WitnessIsUnreachable)
{
    // The counterexample state must not be reachable (paper: "this
    // state is not reachable from any valid initial state").
    SystemState w = swmrNonInductiveWitness(0);
    w.canonicaliseTids();
    UniverseOptions opt;
    opt.perturbationsPerSeed = 0; // reachable closure only
    InvariantSet full = InvariantSet::full(config);
    auto reachable = buildUniverse(rules, scenario, full, opt, nullptr);
    for (const SystemState &s : reachable)
        EXPECT_FALSE(s == w);
}

TEST_F(Obligation, ReachableClosureHasNoFailingCells)
{
    // Over the reachable universe every obligation is discharged:
    // successors of reachable states are reachable, and exhaustive
    // checking proved all conjuncts there.
    UniverseOptions opt;
    opt.perturbationsPerSeed = 0;
    InvariantSet full = InvariantSet::full(config);
    auto universe = buildUniverse(rules, scenario, full, opt, nullptr);
    ASSERT_GT(universe.size(), 1000u);

    MatrixResult res =
        checkObligationMatrix(rules, scenario, full, universe, {});
    EXPECT_EQ(res.failedCellCount(), 0u);
    EXPECT_GT(res.totalFirings, universe.size());
    EXPECT_EQ(res.totalCells(),
              rules.rules().size() * full.size());
}

TEST_F(Obligation, SwmrOnlyFailsExactlyAtGrantConsumptionRules)
{
    InvariantSet swmr = InvariantSet::swmrOnly();
    UniverseOptions opt;
    opt.seed = 7;
    auto universe = buildUniverse(rules, scenario, swmr, opt, nullptr);

    MatrixResult res =
        checkObligationMatrix(rules, scenario, swmr, universe, {});
    EXPECT_GT(res.failedCellCount(), 0u)
        << "bare SWMR must not be inductive (paper Section 6)";

    // Every failing rule is a GO/Data consumption completing an
    // ownership or share upgrade — the only rules that create access.
    const std::set<std::string> upgrade_prefixes = {
        "IMA_GO",   "IMD_Data",   "IMAD_GO_Data", "SMA_GO",
        "SMD_Data", "SMAD_GO_Data", "ISA_GO",     "ISD_Data",
        "ISAD_GO_Data"};
    for (const FailedCell &cell : res.failures) {
        std::string base = cell.ruleName.substr(0, cell.ruleName.size() - 1);
        EXPECT_TRUE(upgrade_prefixes.count(base))
            << "unexpected failing rule " << cell.ruleName;
        EXPECT_EQ(cell.conjunctName.rfind("swmr", 0), 0u);
    }
}

TEST_F(Obligation, WitnessesReplay)
{
    // Each reported witness must actually replay: pre satisfies the
    // invariant, the rule fires, the conjunct fails on post.
    InvariantSet swmr = InvariantSet::swmrOnly();
    UniverseOptions opt;
    auto universe = buildUniverse(rules, scenario, swmr, opt, nullptr);
    MatrixResult res =
        checkObligationMatrix(rules, scenario, swmr, universe, {});
    ASSERT_FALSE(res.failures.empty());

    Context ctx{&scenario};
    for (const FailedCell &cell : res.failures) {
        EXPECT_TRUE(swmr.holds(cell.pre, ctx));
        const Rule *rule = rules.find(cell.ruleName);
        ASSERT_NE(rule, nullptr);
        ASSERT_TRUE(rule->guard(cell.pre, ctx));
        SystemState post = cell.pre;
        ASSERT_TRUE(rule->apply(post, ctx));
        EXPECT_EQ(post, cell.post);
        const Conjunct *conjunct = swmr.find(cell.conjunctName);
        ASSERT_NE(conjunct, nullptr);
        EXPECT_FALSE(conjunct->holds(post, ctx));
    }
}

TEST_F(Obligation, ThreadCountDoesNotChangeTotals)
{
    InvariantSet full = InvariantSet::full(config);
    UniverseOptions opt;
    opt.maxReachable = 2000;
    opt.perturbationsPerSeed = 2;
    auto universe = buildUniverse(rules, scenario, full, opt, nullptr);

    MatrixOptions one;
    one.threads = 1;
    MatrixOptions four;
    four.threads = 4;
    MatrixResult a =
        checkObligationMatrix(rules, scenario, full, universe, one);
    MatrixResult b =
        checkObligationMatrix(rules, scenario, full, universe, four);

    EXPECT_EQ(a.totalFirings, b.totalFirings);
    EXPECT_EQ(a.cellFailures, b.cellFailures);
    EXPECT_EQ(a.ruleEnabledCounts, b.ruleEnabledCounts);
    EXPECT_EQ(a.failedCellCount(), b.failedCellCount());
}

TEST_F(Obligation, UniverseIsDeterministicInSeed)
{
    InvariantSet full = InvariantSet::full(config);
    UniverseOptions opt;
    opt.maxReachable = 1000;
    auto a = buildUniverse(rules, scenario, full, opt, nullptr);
    auto b = buildUniverse(rules, scenario, full, opt, nullptr);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k)
        EXPECT_EQ(a[k], b[k]);
}

TEST_F(Obligation, UniverseStatesSatisfyFilter)
{
    InvariantSet full = InvariantSet::full(config);
    UniverseStats stats;
    UniverseOptions opt;
    opt.maxReachable = 3000;
    auto universe = buildUniverse(rules, scenario, full, opt, &stats);
    EXPECT_GT(stats.reachableSeeds, 0u);
    EXPECT_GT(stats.perturbedAccepted, 0u);

    Context ctx{&scenario};
    for (const SystemState &s : universe)
        ASSERT_TRUE(full.holds(s, ctx));
}

TEST_F(Obligation, ReachableRowCoverageIsExact)
{
    // Over the reachable closure, exactly the program-mode-only rules
    // (free-run disables silent hits), the config-gated pull paths and
    // the mutation-companion rules are uncovered.
    InvariantSet full = InvariantSet::full(config);
    UniverseOptions opt;
    opt.perturbationsPerSeed = 0;
    auto universe = buildUniverse(rules, scenario, full, opt, nullptr);
    MatrixResult res =
        checkObligationMatrix(rules, scenario, full, universe, {});

    const std::set<std::string> expected_uncovered_bases = {
        "InvalidEvict", "SharedLoad",      "ModifiedLoad",
        "SIA_GO_WritePull", "IIA_GO_WritePull", "HostMA_RspIHitI",
        "HostSB_Data",  "HostBogusData"};
    for (std::size_t r = 0; r < rules.rules().size(); ++r) {
        const std::string name = rules.rules()[r].name();
        std::string base = name.substr(0, name.size() - 1);
        if (res.ruleEnabledCounts[r] == 0) {
            EXPECT_TRUE(expected_uncovered_bases.count(base))
                << "rule " << name << " unexpectedly uncovered";
        } else {
            EXPECT_FALSE(expected_uncovered_bases.count(base))
                << "rule " << name << " unexpectedly covered";
        }
    }

    // The perturbed universe probes beyond reachability and can cover
    // some of those rows too (e.g. an injected GO_WritePull enables
    // SIA_GO_WritePull); it must never lose coverage.
    UniverseOptions popt;
    auto perturbed = buildUniverse(rules, scenario, full, popt, nullptr);
    MatrixResult pres =
        checkObligationMatrix(rules, scenario, full, perturbed, {});
    for (std::size_t r = 0; r < rules.rules().size(); ++r) {
        if (res.ruleEnabledCounts[r] > 0) {
            EXPECT_GT(pres.ruleEnabledCounts[r], 0u)
                << rules.rules()[r].name();
        }
    }
}

} // namespace
} // namespace cxl
