/**
 * @file
 * Tests for the rule rows' triggers: successorsInto and successorsPor
 * call only the guards of rows whose trigger atom is live (a non-empty
 * channel, or an active device's core).
 *
 *  (a) Trigger soundness: on every reachable state, every row whose
 *      guard holds has a live trigger atom.  A row given a wrong
 *      trigger fails the same check.
 *  (b) The trigger-filtered enumeration equals a loop over every row:
 *      the same rule ids, successor states and slept ids, in the same
 *      order.
 *  (c) The number of rows visited over the whole 2-device space is
 *      pinned, beside the one-guard-per-row count of the plain loop.
 *
 * The spaces are the free runs of the correct model (2 devices, and 3
 * devices under symmetry reduction) and of every mutated or
 * spec-toggled configuration at 2 devices.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "checker/state_store.hh"
#include "protocol/config.hh"
#include "protocol/rules.hh"
#include "protocol/scenario.hh"

namespace cxl
{
namespace
{

using Successors = std::vector<RuleSet::Successor>;

/** Successors by a loop over every row (no trigger filter); rows set in
 * @p sleep (when given) are slept instead of fired. */
void
allRows(const RuleSet &rules, const SystemState &s, const Scenario &sc,
        const std::uint64_t *sleep, Successors &out,
        std::vector<std::uint16_t> &slept)
{
    out.clear();
    slept.clear();
    const Context ctx{&sc};
    for (const Rule &r : rules.rules()) {
        if (!r.guard(s, ctx))
            continue;
        if (sleep && (sleep[r.id >> 6] >> (r.id & 63) & 1)) {
            slept.push_back(r.id);
            continue;
        }
        RuleSet::Successor &succ =
            out.emplace_back(RuleSet::Successor{&r, s, false});
        succ.overflow = !r.apply(succ.state, ctx);
    }
}

/**
 * Call @p visit on every reachable state of the free run (the first
 * @p limit in BFS order), canonical as the explorer stores it (tids
 * relabelled; devices sorted under @p symmetry).  The space is
 * enumerated with allRows, independent of the triggers under test.
 * Returns the number of states visited.
 */
template <typename Visit>
std::size_t
forEachReachable(const RuleSet &rules, const Scenario &sc, bool symmetry,
                 Visit visit, std::size_t limit = SIZE_MAX)
{
    const auto canon = [symmetry](SystemState &s) {
        s.canonicaliseTids();
        if (symmetry)
            s = s.deviceCanonical(true, true);
    };
    StateStore store;
    SystemState s = sc.initial;
    canon(s);
    std::vector<std::uint32_t> queue{store.insert(s, 0).first};
    Successors succs;
    std::vector<std::uint16_t> slept;
    for (std::size_t at = 0; at < queue.size(); ++at) {
        store.stateInto(queue[at], s);
        visit(s);
        allRows(rules, s, sc, nullptr, succs, slept);
        for (RuleSet::Successor &succ : succs) {
            canon(succ.state);
            const auto [id, fresh] = store.insert(succ.state, 0);
            if (fresh && queue.size() < limit)
                queue.push_back(id);
        }
    }
    return queue.size();
}

/** Row @p r is enabled on @p s although its trigger is dead. */
bool
deadTrigger(const Rule &r, const SystemState &s, const Scenario &sc)
{
    return !(r.trigger & RuleSet::liveAtoms(s)) && r.guard(s, Context{&sc});
}

/** Names of the rows enabled on @p s whose trigger atom is dead. */
std::vector<std::string>
deadTriggers(const RuleSet &rules, const SystemState &s,
             const Scenario &sc)
{
    std::vector<std::string> bad;
    for (const Rule &r : rules.rules()) {
        if (deadTrigger(r, s, sc))
            bad.push_back(r.name());
    }
    return bad;
}

/** Rows whose trigger is live on @p s: the guards enumeration calls. */
std::uint64_t
liveRows(const RuleSet &rules, const SystemState &s)
{
    const std::uint32_t live = RuleSet::liveAtoms(s);
    std::uint64_t n = 0;
    for (const Rule &r : rules.rules())
        n += (r.trigger & live) != 0;
    return n;
}

/** Same rule ids, successor states and overflow flags, in order. */
void
expectSame(const Successors &got, const Successors &want,
           const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t k = 0; k < got.size(); ++k) {
        ASSERT_EQ(got[k].rule->id, want[k].rule->id) << what;
        ASSERT_TRUE(got[k].state == want[k].state) << what;
        ASSERT_EQ(got[k].overflow, want[k].overflow) << what;
    }
}

/** (a) and (b) on every reachable state (the first @p limit);
 * returns the state count. */
std::size_t
checkSpace(const ProtocolConfig &config, int ndev, bool symmetry,
           const std::string &what, std::size_t limit = SIZE_MAX)
{
    const RuleSet rules(config, ndev);
    const Scenario sc = Scenario::freeRunScenario(ndev);
    const std::size_t words = (rules.rules().size() + 63) / 64;
    std::vector<std::uint64_t> sleep(words);
    Successors got, want;
    std::vector<std::uint16_t> gotSlept, wantSlept;
    std::size_t failures = 0;
    const std::size_t states =
        forEachReachable(rules, sc, symmetry, [&](const SystemState &s) {
            const std::vector<std::string> bad = deadTriggers(rules, s, sc);
            if (!bad.empty() && failures++ < 5)
                ADD_FAILURE() << what << ": " << bad.front()
                              << " is enabled with a dead trigger";

            rules.successorsInto(s, sc, false, got);
            allRows(rules, s, sc, nullptr, want, wantSlept);
            expectSame(got, want, what + " successorsInto");

            // A sleep mask drawn from the state: about half the rows.
            std::uint64_t h = s.hash();
            for (std::uint64_t &w : sleep) {
                h = h * 6364136223846793005ull + 1442695040888963407ull;
                w = h;
            }
            rules.successorsPor(s, sc, false, sleep.data(), got,
                                gotSlept);
            allRows(rules, s, sc, sleep.data(), want, wantSlept);
            expectSame(got, want, what + " successorsPor");
            EXPECT_EQ(gotSlept, wantSlept) << what;
        },
        limit);
    EXPECT_EQ(failures, 0u) << what;
    return states;
}

TEST(TriggerIndex, SoundAndExactOnTheTwoDeviceSpace)
{
    EXPECT_EQ(checkSpace(ProtocolConfig::correct(), 2, false, "2dev"),
              5218u);
}

TEST(TriggerIndex, SoundAndExactOnTheSymmetricThreeDeviceSpace)
{
    EXPECT_EQ(checkSpace(ProtocolConfig::correct(), 3, true, "3dev sym"),
              144294u);
}

TEST(TriggerIndex, SoundAndExactUnderEveryConfigToggle)
{
    // Whole spaces, except relaxGoTailgate's: its 1,526,362 states
    // are covered up to a BFS prefix here (the whole space passes
    // too, in ~3 s of a Release build).
    struct Toggle {
        const char *name;
        bool ProtocolConfig::*field;
        std::size_t states;
    };
    constexpr std::size_t kPrefix = 50000;
    const Toggle toggles[] = {
        {"relaxSnoopPushesGo (ISADSnpInv)",
         &ProtocolConfig::relaxSnoopPushesGo, 7716},
        {"relaxSmadSnoopGuard", &ProtocolConfig::relaxSmadSnoopGuard, 5324},
        {"relaxGoTailgate", &ProtocolConfig::relaxGoTailgate, kPrefix},
        {"relaxOneSnoop", &ProtocolConfig::relaxOneSnoop, 15190},
        {"staleEvictDrop", &ProtocolConfig::staleEvictDrop, 6840},
        {"cleanEvictNoData", &ProtocolConfig::cleanEvictNoData, 4322},
        {"hostCleanPull", &ProtocolConfig::hostCleanPull, 5662},
    };
    for (const Toggle &t : toggles) {
        ProtocolConfig config = ProtocolConfig::correct();
        config.*t.field = !(config.*t.field);
        EXPECT_EQ(checkSpace(config, 2, false, t.name, kPrefix), t.states)
            << t.name;
    }
}

/** (a) over the 860,925-state unreduced 3-device space, and the rows
 * visited there (~10 s): run with
 * --gtest_also_run_disabled_tests. */
TEST(TriggerIndex, DISABLED_SoundOnTheUnreducedThreeDeviceSpace)
{
    const RuleSet rules(ProtocolConfig::correct(), 3);
    const Scenario sc = Scenario::freeRunScenario(3);
    std::size_t failures = 0;
    std::uint64_t visited = 0;
    const std::size_t states =
        forEachReachable(rules, sc, false, [&](const SystemState &s) {
            failures += !deadTriggers(rules, s, sc).empty();
            visited += liveRows(rules, s);
        });
    EXPECT_EQ(states, 860925u);
    EXPECT_EQ(failures, 0u);
    // The plain loop: 240 guards per state, 206,622,000 calls.
    EXPECT_EQ(visited, 63419274u);
}

TEST(TriggerIndex, AWrongTriggerFailsTheSoundnessCheck)
{
    // Device 1's ISAD_GO consumes its H2D response; a copy of the row
    // that claims device 1's H2D request channel instead is caught.
    const RuleSet rules(ProtocolConfig::correct(), 2);
    const Scenario sc = Scenario::freeRunScenario(2);
    const Rule *real = rules.find("ISAD_GO1");
    ASSERT_NE(real, nullptr);
    ASSERT_EQ(real->trigger, fp::h2dRsp(0));
    Rule wrong = *real;
    wrong.trigger = fp::h2dReq(0);
    std::size_t realDead = 0, wrongDead = 0;
    forEachReachable(rules, sc, false, [&](const SystemState &s) {
        realDead += deadTrigger(*real, s, sc);
        wrongDead += deadTrigger(wrong, s, sc);
    });
    EXPECT_EQ(realDead, 0u);
    EXPECT_GT(wrongDead, 0u) << "the wrong trigger went unnoticed";
}

/** Rows visited, summed over a space. */
std::uint64_t
visitedRows(int ndev, bool symmetry)
{
    const RuleSet rules(ProtocolConfig::correct(), ndev);
    const Scenario sc = Scenario::freeRunScenario(ndev);
    std::uint64_t visited = 0;
    forEachReachable(rules, sc, symmetry, [&](const SystemState &s) {
        visited += liveRows(rules, s);
    });
    return visited;
}

TEST(TriggerIndex, RowsVisitedOverTheTwoDeviceSpaceArePinned)
{
    // The plain loop called all 134 guards on each of the 5,218
    // states: 699,212 calls.  The trigger filter visits the rows
    // below; the count is exact (no timing noise) and moves only with
    // the model or its triggers.
    EXPECT_EQ(visitedRows(2, false), 238484u);
}

} // namespace
} // namespace cxl
