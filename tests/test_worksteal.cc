/**
 * @file
 * Work-stealing schedule tests.
 *
 * Two layers:
 *
 *  1. Deque mechanism — WorkDeque push/pop LIFO semantics, owner
 *     pop vs. concurrent steals over a growth-forcing volume
 *     (element conservation, no duplication), and a multi-thief
 *     hammer that TSan can chew on (the ci job runs this binary
 *     under -fsanitize=thread).
 *
 *  2. End-to-end equivalence (the ISSUE's acceptance obligation) —
 *     every scenario-registry entry at 2 and 3 devices, across
 *     1/4/8/16 threads, symmetry on/off and POR on/off, yields the
 *     same verdict, violated-conjunct set, state count, diameter and
 *     violation depth under Schedule::WorkSteal as under the
 *     depth-synchronized baseline.  Transition counts are
 *     deliberately NOT compared: re-expansion (label correction) and
 *     async POR sleep-mask convergence make them schedule-dependent.
 *     Witness traces are compared step by step across both
 *     schedules, both store kinds, POR and 1/4/8 threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/check.hh"
#include "api/scenarios.hh"
#include "checker/explorer.hh"
#include "checker/workqueue.hh"
#include "litmus/litmus.hh"

namespace cxl
{
namespace
{

// ------------------------------------------------ deque mechanism

TEST(WorkDeque, OwnerPushPopIsLifo)
{
    WorkDeque dq;
    std::uint64_t v = 0;
    EXPECT_FALSE(dq.pop(v));
    dq.push(1);
    dq.push(2);
    dq.push(3);
    ASSERT_TRUE(dq.pop(v));
    EXPECT_EQ(v, 3u);
    ASSERT_TRUE(dq.pop(v));
    EXPECT_EQ(v, 2u);
    ASSERT_TRUE(dq.pop(v));
    EXPECT_EQ(v, 1u);
    EXPECT_FALSE(dq.pop(v));
}

TEST(WorkDeque, StealTakesTheOppositeEnd)
{
    WorkDeque dq;
    dq.push(10);
    dq.push(11);
    dq.push(12);
    std::uint64_t v = 0;
    ASSERT_EQ(dq.steal(v), WorkDeque::Steal::Success);
    EXPECT_EQ(v, 10u); // FIFO end
    ASSERT_TRUE(dq.pop(v));
    EXPECT_EQ(v, 12u); // LIFO end
    ASSERT_EQ(dq.steal(v), WorkDeque::Steal::Success);
    EXPECT_EQ(v, 11u);
    EXPECT_EQ(dq.steal(v), WorkDeque::Steal::Empty);
}

TEST(WorkDeque, GrowthPreservesEveryElement)
{
    // Start tiny so push() exercises ring growth several times.
    WorkDeque dq(4);
    constexpr std::uint64_t kN = 10000;
    for (std::uint64_t i = 0; i < kN; ++i)
        dq.push(i);
    // Drain from both ends; every value must appear exactly once.
    std::vector<bool> seen(kN, false);
    std::uint64_t v = 0;
    bool from_top = true;
    while (from_top ? dq.steal(v) == WorkDeque::Steal::Success
                    : dq.pop(v)) {
        ASSERT_LT(v, kN);
        EXPECT_FALSE(seen[v]);
        seen[v] = true;
        from_top = !from_top;
    }
    for (std::uint64_t i = 0; i < kN; ++i)
        EXPECT_TRUE(seen[i]) << i;
}

TEST(WorkDeque, ConcurrentStealsConserveElements)
{
    // One owner pushing (and occasionally popping), three thieves
    // stealing — the classic conservation test: every pushed value is
    // consumed exactly once, across rings retired by growth.  Run
    // under TSan by the ci sanitizer job.
    constexpr std::uint64_t kN = 50000;
    constexpr int kThieves = 3;
    WorkDeque dq(8);
    std::atomic<std::uint64_t> consumed{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<bool> done{false};

    std::vector<std::thread> thieves;
    for (int i = 0; i < kThieves; ++i) {
        thieves.emplace_back([&] {
            std::uint64_t v = 0;
            for (;;) {
                switch (dq.steal(v)) {
                  case WorkDeque::Steal::Success:
                    sum.fetch_add(v, std::memory_order_relaxed);
                    consumed.fetch_add(1,
                                       std::memory_order_relaxed);
                    break;
                  case WorkDeque::Steal::Abort:
                    break;
                  case WorkDeque::Steal::Empty:
                    if (done.load(std::memory_order_acquire))
                        return;
                    std::this_thread::yield();
                    break;
                }
            }
        });
    }

    std::uint64_t v = 0;
    for (std::uint64_t i = 1; i <= kN; ++i) {
        dq.push(i);
        if ((i & 7) == 0 && dq.pop(v)) {
            sum.fetch_add(v, std::memory_order_relaxed);
            consumed.fetch_add(1, std::memory_order_relaxed);
        }
    }
    while (dq.pop(v)) {
        sum.fetch_add(v, std::memory_order_relaxed);
        consumed.fetch_add(1, std::memory_order_relaxed);
    }
    done.store(true, std::memory_order_release);
    for (std::thread &th : thieves)
        th.join();

    EXPECT_EQ(consumed.load(), kN);
    EXPECT_EQ(sum.load(), kN * (kN + 1) / 2);
}

// ------------------------------------------- schedule equivalence

/** The schedule-independent face of a CheckResult. */
struct VerdictImage {
    CheckResult::Verdict verdict;
    std::uint64_t states;
    std::uint32_t diameter;
    bool completed;
    std::string violation; // kind/conjunct/family/depth, or "-"
    std::vector<std::string> failedConjuncts;

    friend bool
    operator==(const VerdictImage &a, const VerdictImage &b)
    {
        return a.verdict == b.verdict && a.states == b.states &&
               a.diameter == b.diameter &&
               a.completed == b.completed &&
               a.violation == b.violation &&
               a.failedConjuncts == b.failedConjuncts;
    }
};

VerdictImage
imageOf(const CheckResult &res)
{
    VerdictImage img;
    img.verdict = res.verdict;
    img.states = res.states;
    img.diameter = res.diameter;
    img.completed = res.completed;
    if (res.violation) {
        img.violation = std::to_string(
                            static_cast<int>(res.violation->kind)) +
                        "/" + res.violation->conjunctName + "/" +
                        res.violation->conjunctFamily + "/" +
                        std::to_string(res.violation->depth);
    } else {
        img.violation = "-";
    }
    for (const ConjunctStatus &c : res.conjuncts) {
        if (!c.held)
            img.failedConjuncts.push_back(c.name);
    }
    return img;
}

CheckResult
runScenario(CheckSession &session, const std::string &name,
            int devices, std::size_t threads, Schedule schedule,
            bool sym, bool por)
{
    CheckRequest req;
    req.scenario = name;
    req.devices = devices;
    EngineOptions eng;
    eng.threads = threads;
    eng.schedule = schedule;
    eng.symmetry = sym ? SymmetryMode::On : SymmetryMode::Off;
    eng.por = por;
    req.engine = eng;
    return session.run(req);
}

TEST(WorkStealEquivalence, EveryRegistryScenarioEveryConfig)
{
    CheckSession session;
    for (const scenarios::Entry &entry : scenarios::all()) {
        for (int devices : {2, 3}) {
            if (!entry.deviceScalable &&
                entry.fixedDevices != devices) {
                continue;
            }
            for (bool sym : {false, true}) {
                // Symmetry is only sound on device-symmetric
                // scenarios — free-run, in the registry.
                if (sym && !entry.build(devices).freeRun)
                    continue;
                for (bool por : {false, true}) {
                    const CheckResult base = runScenario(
                        session, entry.name, devices, 1,
                        Schedule::Bfs, sym, por);
                    const VerdictImage want = imageOf(base);
                    for (std::size_t threads : {1u, 4u, 8u, 16u}) {
                        const CheckResult ws = runScenario(
                            session, entry.name, devices, threads,
                            Schedule::WorkSteal, sym, por);
                        EXPECT_TRUE(imageOf(ws) == want)
                            << entry.name << " devices " << devices
                            << " sym " << sym << " por " << por
                            << " threads " << threads
                            << "\n  ws:  " << ws.verdictText()
                            << "\n  bfs: " << base.verdictText();
                    }
                }
            }
        }
    }
}

TEST(WorkStealEquivalence, ComposesWithSymPorAndMmapBitIdentically)
{
    // sym + por + ws at once on the file-backed store — the 4-device
    // bench configuration, scaled to 3 devices for test time —
    // against the recorded 3-device constants.
    CheckSession session;
    CheckRequest req;
    req.scenario = "free-run";
    req.devices = 3;
    EngineOptions eng;
    eng.threads = 4;
    eng.schedule = Schedule::WorkSteal;
    eng.symmetry = SymmetryMode::On;
    eng.store = StoreKind::Mmap;
    eng.por = true;
    req.engine = eng;
    const CheckResult res = session.run(req);
    EXPECT_EQ(res.verdict, CheckResult::Verdict::Holds);
    EXPECT_EQ(res.states, 144294u);
    EXPECT_EQ(res.diameter, 45u);
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(res.schedule, Schedule::WorkSteal);
}

TEST(WorkStealEquivalence, CountedModeTallyMatchesBfs)
{
    // stopAtFirstViolation = false: the full space is enumerated and
    // every distinct violating state/edge is tallied.  The ws
    // candidate log dedups re-observations (label correction
    // re-expands states), so the tally must equal the bfs one at any
    // thread count.
    ProtocolConfig mutated;
    mutated.relaxSnoopPushesGo = true;
    RuleSet rules(mutated);
    Scenario sc;
    sc.initial = initialAllInvalid(0);
    sc.program[0] = {Instr::Store};
    sc.program[1] = {Instr::Load};
    InvariantSet swmr = InvariantSet::swmrOnly();
    Explorer explorer(rules, sc, swmr);

    ExploreOptions opt;
    opt.stopAtFirstViolation = false;
    opt.checkDeadlock = false;
    opt.numThreads = 1;
    const ExploreResult base = explorer.run(opt);
    ASSERT_TRUE(base.violation.has_value());
    EXPECT_GE(base.violationCount, 1u);
    EXPECT_TRUE(base.completed);

    for (std::size_t threads : {1u, 4u, 8u}) {
        ExploreOptions ws = opt;
        ws.schedule = Schedule::WorkSteal;
        ws.numThreads = threads;
        const ExploreResult res = explorer.run(ws);
        EXPECT_EQ(res.violationCount, base.violationCount)
            << "threads " << threads;
        EXPECT_EQ(res.numStates, base.numStates);
        EXPECT_EQ(res.maxDepth, base.maxDepth);
        EXPECT_EQ(res.completed, base.completed);
        ASSERT_TRUE(res.violation.has_value());
        EXPECT_EQ(res.violation->depth, base.violation->depth);
        EXPECT_EQ(res.violation->conjunctName,
                  base.violation->conjunctName);
    }
}

TEST(WorkStealEquivalence, WitnessTraceIsShortestAndReplayable)
{
    // Violation scenarios: the trace must exist, start at the initial
    // state, and have exactly violation-depth steps.  Traces are
    // replayed from the rule-id-least shortest path, so they hold on
    // every store kind under both schedules and are the same trace,
    // state and rule name
    // at every step, for every store, POR setting and thread count.
    CheckSession session;
    for (const char *name :
         {"go_tailgate_test", "one_snoop_test",
          "snoop_pushes_go_test", "smad_snoop_guard_test"}) {
        std::optional<std::vector<TraceStep>> first;
        for (Schedule schedule : {Schedule::Bfs, Schedule::WorkSteal}) {
            for (StoreKind store : {StoreKind::InRam, StoreKind::Mmap}) {
                for (bool por : {false, true}) {
                    for (std::size_t threads : {1u, 4u, 8u}) {
                        const std::string what =
                            std::string(name) + " " +
                            storeKindWord(store) +
                            (schedule == Schedule::Bfs ? " bfs"
                                                       : " ws") +
                            (por ? " por" : "") + " t" +
                            std::to_string(threads);
                        CheckRequest req;
                        req.scenario = name;
                        EngineOptions eng;
                        eng.threads = threads;
                        eng.schedule = schedule;
                        eng.store = store;
                        eng.por = por;
                        req.engine = eng;
                        const CheckResult res = session.run(req);
                        ASSERT_TRUE(res.violation) << what;
                        const std::vector<TraceStep> &trace =
                            res.violation->trace;
                        ASSERT_FALSE(trace.empty()) << what;
                        EXPECT_TRUE(trace.front().ruleName.empty())
                            << what;
                        EXPECT_EQ(trace.size(),
                                  res.violation->depth + 1u)
                            << what;
                        if (!first) {
                            first = trace;
                            continue;
                        }
                        ASSERT_EQ(trace.size(), first->size()) << what;
                        for (std::size_t i = 0; i < trace.size(); ++i) {
                            EXPECT_EQ(trace[i].ruleName,
                                      (*first)[i].ruleName)
                                << what << " step " << i;
                            EXPECT_TRUE(trace[i].state ==
                                        (*first)[i].state)
                                << what << " step " << i;
                        }
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace cxl
