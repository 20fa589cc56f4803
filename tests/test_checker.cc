/**
 * @file
 * Unit tests for the state store and the BFS explorer: deduplication,
 * trace reconstruction, violation and deadlock detection, limits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <thread>
#include <vector>

#include "checker/expand.hh"
#include "checker/explorer.hh"
#include "checker/state_store.hh"

namespace cxl
{
namespace
{

TEST(StateStore, InsertDeduplicates)
{
    StateStore store;
    SystemState a = initialAllInvalid();
    SystemState b = initialBothShared(1);

    auto [ia, new_a] = store.insert(a, 0);
    auto [ib, new_b] = store.insert(b, 1);
    auto [ia2, dup] = store.insert(a, 2);

    EXPECT_TRUE(new_a);
    EXPECT_TRUE(new_b);
    EXPECT_FALSE(dup);
    EXPECT_EQ(ia, ia2);
    EXPECT_EQ(store.size(), 2u);
    EXPECT_EQ(store.depthAt(ib), 1u);
}

TEST(StateStore, DepthWiderThanSixteenBits)
{
    // Exploration depth is unbounded, so entry depths beyond 65535
    // must survive unclamped (Entry::depth was once uint16_t and
    // silently wrapped here).
    StateStore store;
    SystemState parent_state = initialAllInvalid();
    SystemState child_state = initialBothShared(2);

    auto [parent, pnew] = store.insert(parent_state, 65535);
    auto [child, cnew] = store.insert(child_state, 70000);
    ASSERT_TRUE(pnew);
    ASSERT_TRUE(cnew);
    EXPECT_EQ(store.depthAt(parent), 65535u);
    EXPECT_EQ(store.depthAt(child), 70000u);
}

TEST(StateStore, PackedIdsRoundTripAcrossShards)
{
    // Ids are (shard, offset) pairs; whatever shard the probe hash
    // routes to, entry(id) must return the inserted state and no id
    // may collide with the kNoParent sentinel.
    StateStore store;
    std::vector<std::pair<std::uint32_t, SystemState>> inserted;
    for (int i = 0; i < 64; ++i) {
        SystemState s;
        s.counter = static_cast<std::uint8_t>(i);
        s.dev[0].pc = static_cast<std::uint8_t>(i % 5);
        auto [idx, is_new] = store.insert(s, 0);
        ASSERT_TRUE(is_new);
        ASSERT_NE(idx, StateStore::kNoParent);
        inserted.emplace_back(idx, s);
    }
    bool multiple_shards = false;
    for (const auto &[idx, s] : inserted) {
        EXPECT_TRUE(store.stateAt(idx) == s);
        if (StateStore::shardOf(idx) != StateStore::shardOf(inserted[0].first))
            multiple_shards = true;
    }
    EXPECT_TRUE(multiple_shards)
        << "64 distinct probe hashes should spread across shards";
    EXPECT_EQ(store.size(), 64u);
}

/** A distinct state per index below 2^24. */
SystemState
growthState(int i)
{
    SystemState s;
    s.counter = static_cast<std::uint8_t>(i & 0xff);
    s.dev[0].val = static_cast<Val>((i >> 8) & 0xff);
    s.dev[1].val = static_cast<Val>(i >> 16);
    return s;
}

/** The first @p n growthStates whose real probe hash has a zero top
 * nibble, so all of them route to shard 0 without a forged hash. */
std::vector<SystemState>
shardZeroStates(int n)
{
    std::vector<SystemState> states;
    for (int i = 0; static_cast<int>(states.size()) < n; ++i) {
        const SystemState s = growthState(i);
        if (s.hash() >> 60 == 0)
            states.push_back(s);
    }
    return states;
}

TEST(StateStore, GrowShardRehashesAcrossManyDoublings)
{
    // Regression for the resize path: force every insert onto one
    // shard (top nibble zero) and push it through many bucket-array
    // doublings.  After the rehashes every entry must still be found
    // by a duplicate probe, whose slot moved each time.  The store
    // recomputes hashes from its cells, so it takes states whose real
    // hash routes them to shard 0.
    const int n = 50000; // 16 -> 65536+ buckets on the one shard
    const std::vector<SystemState> states = shardZeroStates(n);
    StateStore store(16);
    for (int i = 0; i < n; ++i) {
        auto [idx, is_new] = store.insert(states[i], states[i].hash(), 0);
        ASSERT_TRUE(is_new) << i;
        ASSERT_EQ(StateStore::shardOf(idx), 0u) << i;
    }
    EXPECT_EQ(store.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; i += 97) {
        auto [idx, is_new] = store.insert(states[i], states[i].hash(), 0);
        (void)idx;
        EXPECT_FALSE(is_new) << "entry " << i << " lost in a rehash";
    }
    EXPECT_EQ(store.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(store.probeCollisions(), 0u);
}

TEST(StateStore, FullStoreRehashesFromCellsThroughManyDoublings)
{
    // The full store keeps no probe-hash column: every growth
    // recomputes each entry's hash from its cell.  One shard from 16
    // buckets to 2^17 is 13 doublings; afterwards every entry is
    // found by find() and by a duplicate insert, at its own id.
    const int n = 50000;
    const std::vector<SystemState> states = shardZeroStates(n);
    StateStore store(16 * StateStore::kNumShards);
    std::vector<std::uint32_t> ids;
    for (const SystemState &s : states) {
        auto [id, fresh] = store.insert(s, 0);
        ASSERT_TRUE(fresh);
        ASSERT_EQ(StateStore::shardOf(id), 0u);
        ids.push_back(id);
    }
    for (int i = 0; i < n; ++i) {
        const std::optional<std::uint32_t> found = store.find(states[i]);
        ASSERT_TRUE(found.has_value()) << i;
        EXPECT_EQ(*found, ids[i]) << i;
        auto [id, fresh] = store.insert(states[i], 0);
        EXPECT_FALSE(fresh) << i;
        EXPECT_EQ(id, ids[i]) << i;
    }
    EXPECT_FALSE(store.find(growthState(1 << 23)).has_value());
    EXPECT_EQ(store.size(), static_cast<std::size_t>(n));
    EXPECT_EQ(store.probeCollisions(), 0u);
}

TEST(StateStoreDeathTest, FullStoreRejectsAForgedProbeHash)
{
    // A store that keeps every cell rehashes from the cells, so a
    // probe hash other than state.hash() would strand the entry at
    // the next growth: debug builds assert on it.
    const SystemState s = initialAllInvalid();
    EXPECT_DEBUG_DEATH(
        {
            StateStore store(1 << 10);
            store.insert(s, s.hash() ^ 1, 0);
        },
        "state.hash\\(\\)");
}

TEST(StateStore, BatchInsertMatchesSequentialInserts)
{
    // insertBatch must deduplicate exactly like a sequence of single
    // inserts, including duplicates *within* one batch.
    StateStore batched;
    StateStore sequential;
    std::vector<StateStore::BatchItem> items(300);
    for (int i = 0; i < 300; ++i) {
        SystemState s;
        s.counter = static_cast<std::uint8_t>(i % 100); // 3x duplicates
        s.dev[0].pc = static_cast<std::uint8_t>((i % 100) >> 4);
        items[i].state = s;
        items[i].hash = s.hash();
        items[i].depth = 7;
    }
    batched.insertBatch(items.data(), items.size());
    for (int i = 0; i < 300; ++i) {
        auto [idx, is_new] =
            sequential.insert(items[i].state, items[i].hash, 7);
        EXPECT_EQ(items[i].id, idx) << i;
        EXPECT_EQ(items[i].inserted, is_new) << i;
    }
    EXPECT_EQ(batched.size(), 100u);
    EXPECT_EQ(batched.size(), sequential.size());
    for (int i = 0; i < 300; ++i) {
        EXPECT_TRUE(batched.stateAt(items[i].id) == items[i].state);
        EXPECT_EQ(batched.depthAt(items[i].id), 7u);
    }
}

TEST(StateStore, GrowsPastInitialCapacity)
{
    StateStore store(16);
    for (int i = 0; i < 1000; ++i) {
        SystemState s;
        s.counter = static_cast<std::uint8_t>(i % 251);
        s.dev[0].val = static_cast<Val>(i / 251);
        s.dev[0].pc = static_cast<std::uint8_t>(i % 7);
        s.dev[1].pc = static_cast<std::uint8_t>(i % 11);
        store.insert(s, 0);
    }
    // All distinct (counter, val, pc0, pc1) tuples survive the rehash.
    EXPECT_GT(store.size(), 900u);
    SystemState probe;
    probe.counter = 5;
    probe.dev[0].pc = 5;
    probe.dev[1].pc = 5;
    auto [idx, is_new] = store.insert(probe, 0);
    (void)idx;
    EXPECT_FALSE(is_new) << "i=5 must already be present";
}

class ExplorerTest : public ::testing::Test
{
  protected:
    ExplorerTest()
        : config(ProtocolConfig::correct()), rules(config),
          invariants(InvariantSet::full(config))
    {
    }

    ProtocolConfig config;
    RuleSet rules;
    InvariantSet invariants;
};

TEST(ResolveEngine, ClampsWorkersAndResolvesAutoAndTheCap)
{
    // Pure resolution: no engine runs here, at any of these counts.
    const Scenario free2 = Scenario::freeRunScenario(2);
    const Scenario free3 = Scenario::freeRunScenario(3);
    Scenario program3 = free3;
    program3.freeRun = false;

    EngineOptions opt;
    opt.threads = 5000;
    EXPECT_EQ(resolveEngine(opt, free2).threads, kMaxWorkers);
    opt.threads = kMaxWorkers;
    EXPECT_EQ(resolveEngine(opt, free2).threads, kMaxWorkers);
    opt.threads = 3;
    EXPECT_EQ(resolveEngine(opt, free2).threads, 3u);
    opt.threads = 0;
    EXPECT_EQ(resolveEngine(opt, free2).threads,
              std::min<std::size_t>(
                  std::max(1u, std::thread::hardware_concurrency()),
                  kMaxWorkers));

    // Auto: on for a free run of more than two devices only.
    EXPECT_FALSE(resolveEngine(opt, free2).symmetry);
    EXPECT_TRUE(resolveEngine(opt, free3).symmetry);
    EXPECT_FALSE(resolveEngine(opt, program3).symmetry);
    opt.symmetry = SymmetryMode::On;
    EXPECT_TRUE(resolveEngine(opt, free2).symmetry);
    opt.symmetry = SymmetryMode::Off;
    EXPECT_FALSE(resolveEngine(opt, free3).symmetry);

    EXPECT_EQ(resolveEngine(opt, free2).maxStates, kDefaultMaxStates);
    opt.maxStates = 100;
    EXPECT_EQ(resolveEngine(opt, free2).maxStates, 100u);
}

TEST_F(ExplorerTest, SingleLoadScenario)
{
    Scenario sc;
    sc.initial = initialAllInvalid(3);
    sc.program[0] = {Instr::Load};

    Explorer ex(rules, sc, invariants);
    ExploreResult res = ex.run();

    EXPECT_TRUE(res.completed);
    EXPECT_FALSE(res.violation.has_value());
    // InvalidLoad1, HostInvalidRdShared1, then GO/Data consumption in
    // three interleavings; BFS dedup makes the combined GO+Data path
    // set the diameter at 3 (the split-path states join at depth 3).
    EXPECT_GE(res.numStates, 6u);
    EXPECT_LE(res.numStates, 12u);
    EXPECT_EQ(res.maxDepth, 3u);
}

TEST_F(ExplorerTest, DeterministicAcrossRuns)
{
    Scenario sc;
    sc.initial = initialAllInvalid(0);
    sc.program[0] = {Instr::Store};
    sc.program[1] = {Instr::Store};

    Explorer ex(rules, sc, invariants);
    ExploreResult a = ex.run();
    ExploreResult b = ex.run();
    EXPECT_EQ(a.numStates, b.numStates);
    EXPECT_EQ(a.numTransitions, b.numTransitions);
    EXPECT_EQ(a.ruleFireCounts, b.ruleFireCounts);
}

TEST_F(ExplorerTest, MaxStatesLimitStopsExploration)
{
    Scenario sc = Scenario::freeRunScenario();
    Explorer ex(rules, sc, invariants);
    ExploreOptions opt;
    opt.maxStates = 100;
    opt.threads = 1; // exact stopping point; see the parallel
                        // overshoot test in test_parallel_explorer.cc
    ExploreResult res = ex.run(opt);
    EXPECT_FALSE(res.completed);
    EXPECT_LE(res.numStates, 101u);
}

TEST_F(ExplorerTest, ViolationTraceStartsAtInitialState)
{
    ProtocolConfig mutated = config;
    mutated.relaxSnoopPushesGo = true;
    RuleSet mrules(mutated);
    InvariantSet swmr = InvariantSet::swmrOnly();

    Scenario sc;
    sc.initial = initialAllInvalid(0);
    sc.program[0] = {Instr::Store};
    sc.program[1] = {Instr::Load};

    Explorer ex(mrules, sc, swmr);
    ExploreResult res = ex.run();

    ASSERT_TRUE(res.violation.has_value());
    EXPECT_EQ(res.violation->kind, Violation::Kind::Conjunct);
    EXPECT_EQ(res.violation->conjunctFamily, "swmr");
    ASSERT_GE(res.violation->trace.size(), 2u);
    EXPECT_TRUE(res.violation->trace.front().ruleName.empty());
    EXPECT_EQ(res.violation->trace.front().state, sc.initial);
    EXPECT_FALSE(swmrHolds(res.violation->trace.back().state));
    // Each step's rule must actually be a known rule.
    for (std::size_t k = 1; k < res.violation->trace.size(); ++k) {
        EXPECT_NE(mrules.find(res.violation->trace[k].ruleName), nullptr);
    }
    // Depth equals trace length minus the initial state.
    EXPECT_EQ(res.violation->depth, res.violation->trace.size() - 1);
}

TEST_F(ExplorerTest, Table3ViolationAtDepthEight)
{
    // The paper's Table 3 walk takes 8 transitions from all-invalid to
    // the incoherent state; BFS must find it at exactly that depth.
    ProtocolConfig mutated = config;
    mutated.relaxSnoopPushesGo = true;
    RuleSet mrules(mutated);
    InvariantSet swmr = InvariantSet::swmrOnly();

    Scenario sc;
    sc.initial = initialAllInvalid(0);
    sc.program[0] = {Instr::Store};
    sc.program[1] = {Instr::Load};

    Explorer ex(mrules, sc, swmr);
    ExploreResult res = ex.run();
    ASSERT_TRUE(res.violation.has_value());
    EXPECT_EQ(res.violation->depth, 8u);
}

TEST_F(ExplorerTest, NoDeadlockInLitmusPrograms)
{
    Scenario sc;
    sc.initial = initialBothShared(0);
    sc.program[0] = {Instr::Store, Instr::Evict};
    sc.program[1] = {Instr::Load, Instr::Evict};

    Explorer ex(rules, sc, invariants);
    ExploreOptions opt;
    opt.checkDeadlock = true;
    ExploreResult res = ex.run(opt);
    EXPECT_TRUE(res.completed);
    EXPECT_FALSE(res.violation.has_value());
}

TEST_F(ExplorerTest, DeadlockDetected)
{
    // A hand-built stuck state: a device waits for a grant that no
    // request will ever produce (its request channel is empty and the
    // host is idle).
    Scenario sc;
    sc.initial = initialAllInvalid();
    sc.initial.dev[0].state = DState::ISAD;
    sc.program[0] = {Instr::Load};

    Explorer ex(rules, sc, invariants);
    ExploreOptions opt;
    opt.checkInvariants = false; // the crafted state violates progress
    opt.checkDeadlock = true;
    ExploreResult res = ex.run(opt);
    ASSERT_TRUE(res.violation.has_value());
    EXPECT_EQ(res.violation->kind, Violation::Kind::Deadlock);
}

TEST_F(ExplorerTest, OverflowTraceEndsWithTheOverflowingEdge)
{
    // ROADMAP item-6 wart: overflow is reported per *edge*, but the
    // rebuilt trace used to follow the target state's breadcrumbs, so
    // an overflow edge landing on an already-known state printed a
    // path that never fired the overflowing rule.  Build a model
    // where exactly that happens: "Fill" queues messages until the
    // channel is full, and "Burst" then pushes into the full channel,
    // overflowing with *no state change* — the target is the (known)
    // source state itself.
    RuleSet custom(config); // base rules are inert with empty programs
    const RuleApply push = [](const Rule &, SystemState &s,
                              const Context &) {
        return s.dev[0].d2hReq.pushBack({D2HReqOp::RdShared, 0});
    };
    custom.addRule({"Fill",
                    [](const Rule &, const SystemState &s,
                       const Context &) { return !s.dev[0].d2hReq.full(); },
                    push, nullptr, true});
    custom.addRule({"Burst",
                    [](const Rule &, const SystemState &s,
                       const Context &) { return s.dev[0].d2hReq.full(); },
                    push, nullptr, true});

    Scenario sc;
    sc.initial = initialAllInvalid(0); // empty programs: only the
                                       // custom rules can fire
    Explorer ex(custom, sc, invariants);
    // The same trace from both store kinds.
    for (const StoreKind kind : {StoreKind::InRam, StoreKind::Mmap}) {
        ExploreOptions opt;
        opt.checkInvariants = false; // the crafted states are not legal
        opt.checkDeadlock = false;
        opt.store = kind;
        ExploreResult res = ex.run(opt);
        const char *what = storeKindWord(kind);

        ASSERT_TRUE(res.violation.has_value()) << what;
        EXPECT_EQ(res.violation->kind, Violation::Kind::Overflow);
        EXPECT_EQ(res.violation->overflowRule, "Burst");
        EXPECT_NE(res.violation->describe().find("Burst"),
                  std::string::npos);
        // Depth 4: three Fill edges to the full-channel state, then
        // the overflowing Burst edge.
        EXPECT_EQ(res.violation->depth, 4u);
        const std::vector<TraceStep> &trace = res.violation->trace;
        ASSERT_EQ(trace.size(), 5u) << what;
        EXPECT_TRUE(trace.front().ruleName.empty());
        EXPECT_EQ(trace.back().ruleName, "Burst");
        for (std::size_t k = 1; k + 1 < trace.size(); ++k)
            EXPECT_EQ(trace[k].ruleName, "Fill");
        // The overflowing push is dropped, so the final step lands on
        // the same (already known) state it left from.
        EXPECT_TRUE(trace[3].state == trace[4].state);
    }
}

/** The 2-device free-run space walked level by level into @p store,
 * states canonical as the kernel stores them (tids relabelled, no
 * symmetry), so every depth label is the state's BFS distance.
 * Returns every (id, depth). */
std::vector<std::pair<std::uint32_t, std::uint32_t>>
settledFreeRun(const RuleSet &rules, const Scenario &sc,
               StateStore &store)
{
    SystemState s = sc.initial;
    s.canonicaliseTids();
    std::vector<std::pair<std::uint32_t, std::uint32_t>> all{
        {store.insert(s, 0).first, 0}};
    std::vector<RuleSet::Successor> succs;
    for (std::size_t at = 0; at < all.size(); ++at) {
        const auto [id, depth] = all[at];
        store.stateInto(id, s);
        rules.successorsInto(s, sc, true, succs);
        for (const RuleSet::Successor &succ : succs) {
            const auto [sid, fresh] = store.insert(succ.state, depth + 1);
            if (fresh)
                all.emplace_back(sid, depth + 1);
        }
    }
    return all;
}

TEST_F(ExplorerTest, SettledLabelsNeverReachTheWitnessFallback)
{
    // Every completed run leaves BFS-distance labels: the label search
    // alone finds a shortest path to every state, so the breadth-first
    // fallback of witnessPath is never taken.
    const Scenario sc = Scenario::freeRunScenario();
    StateStore store;
    const auto all = settledFreeRun(rules, sc, store);
    ASSERT_EQ(all.size(), 5218u);
    for (std::size_t i = 0; i < all.size(); i += 37) {
        const auto [id, depth] = all[i];
        const std::optional<std::vector<std::uint16_t>> path =
            labelPath(rules, sc, store, false, id);
        ASSERT_TRUE(path.has_value()) << "state " << i;
        EXPECT_EQ(path->size(), depth) << "state " << i;
        EXPECT_EQ(witnessPath(rules, sc, store, false, id), *path);
    }
}

TEST_F(ExplorerTest, WitnessFallbackReplaysToAnUnsettledState)
{
    // A governed --ws stop can leave a state labelled deeper than its
    // BFS distance, with no stored state one label above it: the label
    // search then finds nothing, and the breadth-first search over
    // stored states must still name a path that replays to it.
    const Scenario sc = Scenario::freeRunScenario();
    const Context ctx{&sc};
    StateStore store;
    SystemState init = sc.initial;
    init.canonicaliseTids();
    ASSERT_TRUE(store.insert(init, 0).second);
    std::vector<RuleSet::Successor> level1;
    rules.successorsInto(init, sc, true, level1);
    for (const RuleSet::Successor &succ : level1)
        store.insert(succ.state, 1);
    // The first state two steps out, stored with label 5.
    std::optional<SystemState> target;
    std::vector<RuleSet::Successor> succs;
    for (const RuleSet::Successor &mid : level1) {
        rules.successorsInto(mid.state, sc, true, succs);
        for (const RuleSet::Successor &succ : succs) {
            if (!target && !store.find(succ.state))
                target = succ.state;
        }
    }
    ASSERT_TRUE(target.has_value());
    const auto [id, fresh] = store.insert(*target, 5);
    ASSERT_TRUE(fresh);

    EXPECT_FALSE(labelPath(rules, sc, store, false, id).has_value());
    const std::vector<std::uint16_t> path =
        witnessPath(rules, sc, store, false, id);
    // The rule-id-least two-step path through stored states.
    std::optional<std::vector<std::uint16_t>> least;
    for (const Rule &r1 : rules.rules()) {
        if (!r1.guard(init, ctx))
            continue;
        SystemState mid = init;
        (void)r1.apply(mid, ctx);
        mid.canonicaliseTids();
        if (!store.find(mid))
            continue;
        for (const Rule &r2 : rules.rules()) {
            SystemState end = mid;
            if (!r2.guard(end, ctx))
                continue;
            (void)r2.apply(end, ctx);
            end.canonicaliseTids();
            if (end == *target && !least)
                least = std::vector<std::uint16_t>{r1.id, r2.id};
        }
    }
    ASSERT_TRUE(least.has_value());
    EXPECT_EQ(path, *least);

    // The path replays, every guard enabled, to exactly the state.
    SystemState s = init;
    for (std::uint16_t r : path) {
        const Rule &rule = rules.rules()[r];
        ASSERT_TRUE(rule.guard(s, ctx)) << rule.name();
        (void)rule.apply(s, ctx);
        s.canonicaliseTids();
    }
    EXPECT_TRUE(s == *target);
    const std::vector<TraceStep> trace =
        replayTrace(rules, sc, path, true, false);
    ASSERT_EQ(trace.size(), path.size() + 1);
    EXPECT_TRUE(trace.back().state == *target);
    EXPECT_EQ(store.find(trace.back().state), id);
}

TEST_F(ExplorerTest, FreeRunCoversEveryDeviceStateAndHostState)
{
    Scenario sc = Scenario::freeRunScenario();
    Explorer ex(rules, sc, invariants);
    ExploreResult res = ex.run();
    ASSERT_TRUE(res.completed);
    EXPECT_FALSE(res.violation.has_value());

    // Free-run must exercise both devices symmetrically.
    for (const Rule &rule : rules.rules()) {
        if (rule.dev() != 0)
            continue;
        std::string twin = rule.name();
        twin.back() = '2';
        const Rule *other = rules.find(twin);
        ASSERT_NE(other, nullptr) << twin;
        EXPECT_EQ(res.ruleFireCounts[rule.id],
                  res.ruleFireCounts[other->id])
            << rule.name() << " vs " << twin
            << ": the model must be device-symmetric";
    }
}

} // namespace
} // namespace cxl
