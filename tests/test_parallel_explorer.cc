/**
 * @file
 * Determinism tests for the depth-synchronized parallel explorer:
 * whatever the worker count, exploration must produce bit-identical
 * state/transition counts, rule-firing profiles and violation
 * verdicts.  Sweeps 1, 2 and 8 threads over the free-run space, the
 * full litmus suite, and a mutated (violating) model.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "checker/explorer.hh"
#include "litmus/litmus.hh"

namespace cxl
{
namespace
{

const std::size_t kSweep[] = {1, 2, 8};

ExploreResult
runWith(const RuleSet &rules, const Scenario &sc,
        const InvariantSet &inv, ExploreOptions opt, std::size_t threads)
{
    opt.threads = threads;
    Explorer ex(rules, sc, inv);
    return ex.run(opt);
}

/** Counts + verdict presence must match the 1-thread baseline. */
void
expectIdentical(const ExploreResult &base, const ExploreResult &res,
                const std::string &what)
{
    EXPECT_EQ(base.numStates, res.numStates) << what;
    EXPECT_EQ(base.numTransitions, res.numTransitions) << what;
    EXPECT_EQ(base.maxDepth, res.maxDepth) << what;
    EXPECT_EQ(base.completed, res.completed) << what;
    EXPECT_EQ(base.violationCount, res.violationCount) << what;
    EXPECT_EQ(base.ruleFireCounts, res.ruleFireCounts) << what;
    ASSERT_EQ(base.violation.has_value(), res.violation.has_value())
        << what;
    if (base.violation) {
        EXPECT_EQ(base.violation->kind, res.violation->kind) << what;
        EXPECT_EQ(base.violation->depth, res.violation->depth) << what;
        EXPECT_EQ(base.violation->conjunctName,
                  res.violation->conjunctName)
            << what;
        EXPECT_EQ(base.violation->conjunctFamily,
                  res.violation->conjunctFamily)
            << what;
    }
}

TEST(ParallelExplorer, FreeRunIdenticalAcrossThreadCounts)
{
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config);
    Scenario sc = Scenario::freeRunScenario();
    InvariantSet inv = InvariantSet::full(config);

    ExploreResult base = runWith(rules, sc, inv, {}, 1);
    ASSERT_TRUE(base.completed);
    ASSERT_FALSE(base.violation.has_value());
    EXPECT_GT(base.numStates, 100u);

    for (std::size_t n : kSweep) {
        expectIdentical(base, runWith(rules, sc, inv, {}, n),
                        "free run @" + std::to_string(n));
    }
}

TEST(ParallelExplorer, LitmusSuiteIdenticalAcrossThreadCounts)
{
    for (const LitmusTest &test : builtinLitmusSuite()) {
        RuleSet rules(test.config);
        InvariantSet inv = InvariantSet::full(test.config);
        if (!test.restrictToFamilies.empty())
            inv = inv.filtered(test.restrictToFamilies);

        ExploreOptions opt;
        opt.checkDeadlock = true;
        ExploreResult base =
            runWith(rules, test.scenario, inv, opt, 1);
        for (std::size_t n : kSweep) {
            expectIdentical(
                base, runWith(rules, test.scenario, inv, opt, n),
                test.name + " @" + std::to_string(n));
        }
    }
}

TEST(ParallelExplorer, ViolatingModelVerdictIdentical)
{
    // The Table 3 mutation: snoop-pushes-GO relaxed, free-run, pure
    // SWMR.  Every thread count must converge on the same verdict at
    // the same (minimal) depth, with a well-formed trace.
    ProtocolConfig mutated;
    mutated.relaxSnoopPushesGo = true;
    RuleSet rules(mutated);
    Scenario sc = Scenario::freeRunScenario();
    InvariantSet swmr = InvariantSet::swmrOnly();

    ExploreResult base = runWith(rules, sc, swmr, {}, 1);
    ASSERT_TRUE(base.violation.has_value());
    EXPECT_EQ(base.violation->kind, Violation::Kind::Conjunct);
    EXPECT_EQ(base.violation->conjunctFamily, "swmr");

    for (std::size_t n : kSweep) {
        ExploreResult res = runWith(rules, sc, swmr, {}, n);
        expectIdentical(base, res, "mutated @" + std::to_string(n));
        // The trace itself may route through different parents, but
        // must always be a rule-labelled path from the initial state
        // of the right length.
        ASSERT_TRUE(res.violation.has_value());
        ASSERT_GE(res.violation->trace.size(), 2u);
        EXPECT_TRUE(res.violation->trace.front().ruleName.empty());
        EXPECT_EQ(res.violation->depth,
                  res.violation->trace.size() - 1);
        for (std::size_t k = 1; k < res.violation->trace.size(); ++k) {
            EXPECT_NE(
                rules.find(res.violation->trace[k].ruleName), nullptr);
        }
    }
}

TEST(ParallelExplorer, ViolatingProgramCountedModeIdentical)
{
    // Counted mode on the Table 3 program scenario: the full space is
    // enumerated and every distinct violating state is tallied, so
    // the tally must be thread-count independent too.
    ProtocolConfig mutated;
    mutated.relaxSnoopPushesGo = true;
    RuleSet rules(mutated);
    Scenario sc;
    sc.initial = initialAllInvalid(0);
    sc.program[0] = {Instr::Store};
    sc.program[1] = {Instr::Load};
    InvariantSet swmr = InvariantSet::swmrOnly();

    ExploreOptions opt;
    opt.stopAtFirstViolation = false;
    opt.checkDeadlock = false;

    ExploreResult base = runWith(rules, sc, swmr, opt, 1);
    ASSERT_TRUE(base.violation.has_value());
    EXPECT_GE(base.violationCount, 1u);
    EXPECT_TRUE(base.completed);

    for (std::size_t n : kSweep) {
        expectIdentical(base, runWith(rules, sc, swmr, opt, n),
                        "counted @" + std::to_string(n));
    }
}

TEST(ParallelExplorer, SymmetryReductionIdenticalAcrossThreadCounts)
{
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config);
    Scenario sc = Scenario::freeRunScenario();
    InvariantSet inv = InvariantSet::full(config);

    ExploreOptions opt;
    opt.symmetry = SymmetryMode::On;

    ExploreResult base = runWith(rules, sc, inv, opt, 1);
    ASSERT_TRUE(base.completed);
    for (std::size_t n : kSweep) {
        expectIdentical(base, runWith(rules, sc, inv, opt, n),
                        "symmetry @" + std::to_string(n));
    }
}

TEST(ParallelExplorer, MaxStatesCapOvershootBounded)
{
    // Under a state cap the stopping point is inherently racy, but
    // the overshoot is bounded by the worker count (each in-flight
    // worker can add at most one state past the cap).
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config);
    Scenario sc = Scenario::freeRunScenario();
    InvariantSet inv = InvariantSet::full(config);

    for (std::size_t n : kSweep) {
        ExploreOptions opt;
        opt.maxStates = 100;
        opt.threads = n;
        Explorer ex(rules, sc, inv);
        ExploreResult res = ex.run(opt);
        EXPECT_FALSE(res.completed) << n;
        EXPECT_GE(res.numStates, 100u) << n;
        EXPECT_LE(res.numStates, 100u + n) << n;
    }
}

TEST(ParallelExplorer, MaxStatesCapHoldsForAWorkerStalledMidBatch)
{
    // A worker descheduled with a part-filled batch resumes after its
    // peers reached the cap; its flush must not push the store past
    // the one-state-per-worker bound.  Plant a never-firing rule whose
    // guard naps once, on the first evaluation after the store came
    // within a few thousand states of the soft cap — some worker is
    // then mid-batch while the others run into the cap.
    ProtocolConfig config = ProtocolConfig::correct();
    const std::size_t threads = 4;
    const std::uint64_t cap = 200000;
    const std::uint64_t arm_at = cap - threads * 512 - 3000;

    for (Schedule sched : {Schedule::Bfs, Schedule::WorkSteal}) {
        struct Stall {
            std::atomic<bool> armed{false};
            std::atomic<bool> napped{false};
        } stall;
        RuleSet rules(config, 3);
        rules.addRule(
            {"planted_stall",
             [](const Rule &r, const SystemState &, const Context &) {
                 auto &st = *static_cast<Stall *>(r.env());
                 if (st.armed.load(std::memory_order_relaxed) &&
                     !st.napped.exchange(true)) {
                     std::this_thread::sleep_for(
                         std::chrono::milliseconds(300));
                 }
                 return false; // never fires: the space is unchanged
             },
             [](const Rule &, SystemState &, const Context &) {
                 return true;
             },
             &stall});

        ExploreOptions opt;
        opt.symmetry = SymmetryMode::Off; // the unreduced 3-device space
        opt.schedule = sched;
        opt.maxStates = cap;
        opt.progressIntervalSeconds = 0;
        opt.progress = [&](const ProgressSnapshot &p) {
            if (p.states >= arm_at)
                stall.armed.store(true, std::memory_order_relaxed);
        };
        const ExploreResult res =
            runWith(rules, Scenario::freeRunScenario(3),
                    InvariantSet::full(config, 3), opt, threads);
        const std::string what =
            sched == Schedule::Bfs ? "bfs" : "ws";
        EXPECT_TRUE(stall.napped.load()) << what;
        EXPECT_EQ(res.stopReason, StopReason::StateCap) << what;
        EXPECT_GE(res.numStates, cap) << what;
        EXPECT_LE(res.numStates, cap + threads) << what;
    }
}

TEST(ParallelExplorer, DeadlockVerdictIdenticalAcrossThreadCounts)
{
    // Crafted stuck state (see test_checker.cc): device 0 waits for a
    // grant no request will produce.
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config);
    Scenario sc;
    sc.initial = initialAllInvalid();
    sc.initial.dev[0].state = DState::ISAD;
    sc.program[0] = {Instr::Load};
    InvariantSet inv = InvariantSet::full(config);

    ExploreOptions opt;
    opt.checkInvariants = false;
    opt.checkDeadlock = true;

    ExploreResult base = runWith(rules, sc, inv, opt, 1);
    ASSERT_TRUE(base.violation.has_value());
    EXPECT_EQ(base.violation->kind, Violation::Kind::Deadlock);
    for (std::size_t n : kSweep) {
        expectIdentical(base, runWith(rules, sc, inv, opt, n),
                        "deadlock @" + std::to_string(n));
    }
}

} // namespace
} // namespace cxl
