/**
 * @file
 * Unit tests for the state store and the BFS explorer: deduplication,
 * trace reconstruction, violation and deadlock detection, limits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "checker/expand.hh"
#include "checker/explorer.hh"
#include "checker/state_store.hh"
#include "store_test_peer.hh"

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

const StoreKind kStoreKinds[] = {StoreKind::InRam, StoreKind::Mmap};

TEST(StateStore, DepthEscapeAppendsAndScans)
{
    // A depth label is one byte; depths from 255 up live in the wide
    // column behind it.  Appends on both sides of the escape read back
    // as written, each at once and all in a scan after the last, on
    // both store kinds, and a duplicate insert leaves its label as it
    // is.
    for (const StoreKind kind : kStoreKinds) {
        StateStore store(storeConfigOf(kind, "", 0));
        const std::uint32_t depths[] = {254, 255, 256, 70000, 3};
        std::vector<std::uint32_t> ids;
        for (int i = 0; i < 5; ++i) {
            auto [id, fresh] = store.insert(
                initialBothShared(static_cast<Val>(i + 1)), depths[i]);
            ASSERT_TRUE(fresh);
            ids.push_back(id);
            EXPECT_EQ(store.depthAt(id), depths[i]) << i;
        }
        StateStore::BatchItem dup;
        dup.state = initialBothShared(4);
        dup.depth = 10;
        store.insertBatch(&dup, 1);
        EXPECT_FALSE(dup.inserted);
        EXPECT_EQ(dup.id, ids[3]);
        for (int i = 0; i < 5; ++i)
            EXPECT_EQ(store.depthAt(ids[i]), depths[i]) << i;
    }
}

TEST(StateStore, DepthAtRacesAppendsAcrossTheWideEscape)
{
    // depthAt is read lock-free while a writer appends entries whose
    // depths cross the escape both ways, so a chunk's wide cells are
    // allocated under the readers' feet: every read of a published id
    // is the depth it was appended with.  Clean under
    // ThreadSanitizer.
    constexpr int kStates = 2048;
    const std::uint32_t steps[] = {70000, 4000, 300, 256, 255,
                                   254,   200,  1,   0};
    auto stateOf = [](int i) {
        SystemState s = initialAllInvalid();
        s.counter = static_cast<std::uint8_t>(i);
        s.dev[0].val = static_cast<Val>(i >> 8);
        return s;
    };
    auto depthOf = [&](int i) { return steps[i % std::size(steps)]; };
    for (const StoreKind kind : kStoreKinds) {
        StateStore store(storeConfigOf(kind, "", 0));
        std::vector<std::uint32_t> ids(kStates);
        std::atomic<int> published{0};
        std::atomic<int> started{0};
        auto reader = [&] {
            started.fetch_add(1);
            bool ok = true;
            for (int seen = 0; seen < kStates;) {
                seen = published.load(std::memory_order_acquire);
                for (int i = 0; i < seen; ++i)
                    ok &= store.depthAt(ids[i]) == depthOf(i);
            }
            return ok;
        };
        bool ok[2] = {false, false};
        std::thread readers[] = {std::thread([&] { ok[0] = reader(); }),
                                 std::thread([&] { ok[1] = reader(); })};
        while (started.load() < 2)
            std::this_thread::yield();
        for (int i = 0; i < kStates; ++i) {
            StateStore::BatchItem item;
            item.state = stateOf(i);
            item.depth = depthOf(i);
            store.insertBatch(&item, 1);
            EXPECT_TRUE(item.inserted) << i;
            ids[i] = item.id;
            published.store(i + 1, std::memory_order_release);
        }
        for (std::thread &t : readers)
            t.join();
        EXPECT_TRUE(ok[0] && ok[1]);
    }
}

TEST(StateStore, PackedIdsRoundTripAcrossShards)
{
    // Ids are (shard, offset) pairs; whatever shard the id hash
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
        << "64 distinct states should spread across shards";
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

/** The first @p n growthStates that @p store routes to shard 0 by
 * their slice ids (interned into @p store as it scans). */
std::vector<SystemState>
shardZeroStates(StateStore &store, int n)
{
    std::vector<SystemState> states;
    for (int i = 0; static_cast<int>(states.size()) < n; ++i) {
        const SystemState s = growthState(i);
        if (StateStoreTestPeer::shardOf(store, s) == 0)
            states.push_back(s);
    }
    return states;
}

TEST(StateStore, GrowShardRehashesAcrossManyDoublings)
{
    // Regression for the resize path: force every insert onto one
    // shard and push it through many bucket-array doublings.  After
    // the rehashes every entry must still be found by a duplicate
    // probe, whose slot moved each time.  The store hashes slice ids,
    // so it takes states whose ids route them to shard 0.
    const int n = 50000; // 16 -> 65536+ buckets on the one shard
    StateStore store(16);
    const std::vector<SystemState> states = shardZeroStates(store, n);
    for (int i = 0; i < n; ++i) {
        auto [idx, is_new] = store.insert(states[i], 0);
        ASSERT_TRUE(is_new) << i;
        ASSERT_EQ(StateStore::shardOf(idx), 0u) << i;
    }
    EXPECT_EQ(store.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; i += 97) {
        auto [idx, is_new] = store.insert(states[i], 0);
        (void)idx;
        EXPECT_FALSE(is_new) << "entry " << i << " lost in a rehash";
    }
    EXPECT_EQ(store.size(), static_cast<std::size_t>(n));
}

TEST(StateStore, FullStoreRehashesFromCellsThroughManyDoublings)
{
    // The store keeps no hash column: every growth rehashes each
    // entry's cell of slice ids.  One shard from 16 buckets to 2^17
    // is 13 doublings; afterwards every entry is found by find() and
    // by a duplicate insert, at its own id.
    const int n = 50000;
    StateStore store(16 * StateStore::kNumShards);
    const std::vector<SystemState> states = shardZeroStates(store, n);
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
        items[i].depth = 7;
    }
    batched.insertBatch(items.data(), items.size());
    for (int i = 0; i < 300; ++i) {
        auto [idx, is_new] = sequential.insert(items[i].state, 7);
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

TEST_F(ExplorerTest, FullSliceTableStopsTheRunAsShardFull)
{
    // A slice table out of ids (every stripe forged full) stops a run
    // the way a full shard does: the worker guard the schedule runs
    // under makes it a governed ShardFull stop, not an internal error.
    const Scenario sc = Scenario::freeRunScenario();
    ExploreOptions opt;
    opt.threads = 1;
    ExpandKernel k(rules, sc, invariants, opt);
    ASSERT_FALSE(k.insertInitial());
    StateStoreTestPeer::forgeSliceRoom(k.store, 0);
    auto scratch = k.makeScratch<WorkerScratch>();
    ASSERT_NO_THROW(k.runWorkers(scratch, false, [&](std::size_t t) {
        k.expand(scratch[t], k.initIdx, 0);
        k.flush(scratch[t], [] {});
    }));
    EXPECT_EQ(k.governor.reason(), StopReason::ShardFull);
    EXPECT_EQ(k.store.size(), 1u);
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
    // Overflow is reported per *edge*, but the rebuilt trace used to
    // follow the path to the target state, so
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

TEST(LabelPath, LabelsStayExactAfterAGovernedStop)
{
    // The level schedule inserts every state at its BFS distance, so
    // a run stopped in the middle of a level — by the state cap or by
    // a cancel — leaves exact labels too: labelPath names a path of
    // depthAt(id) rules to every stored state, and it replays to that
    // very state.
    struct Space {
        int devices;
        bool sym;
        bool por;
        std::uint64_t stopAt; ///< states, inside a wide level
    };
    const ProtocolConfig config = ProtocolConfig::correct();
    for (const Space sp : {Space{2, false, false, 900},
                           Space{3, true, true, 750}}) {
        const RuleSet rules(config, sp.devices);
        const Scenario sc = Scenario::freeRunScenario(sp.devices);
        const InvariantSet inv = InvariantSet::full(config, sp.devices);
        for (const std::size_t threads : {1u, 4u}) {
            for (const bool cancel : {false, true}) {
                const std::string what =
                    std::to_string(sp.devices) + " devices, " +
                    std::to_string(threads) + " threads, " +
                    (cancel ? "cancel" : "state cap");
                ExploreOptions opt;
                opt.threads = threads;
                opt.symmetry = sp.sym ? SymmetryMode::On : SymmetryMode::Off;
                opt.por = sp.por;
                const CancelToken token = CancelToken::create();
                if (cancel) {
                    opt.cancel = token;
                    opt.progressIntervalSeconds = 0;
                    opt.progress = [&](const ProgressSnapshot &p) {
                        if (p.states >= sp.stopAt)
                            token.cancel();
                    };
                } else {
                    opt.maxStates = sp.stopAt;
                }
                ExpandKernel k(rules, sc, inv, opt);
                ASSERT_FALSE(k.insertInitial()) << what;
                runBfs(k);
                const ExploreResult res = k.finish();
                ASSERT_EQ(res.stopReason, cancel ? StopReason::Cancelled
                                                 : StopReason::StateCap)
                    << what;

                std::uint64_t stored = 0;
                bool midLevel = false;
                for (std::uint32_t shard = 0;
                     shard < StateStore::kNumShards; ++shard) {
                    const std::uint32_t count =
                        StateStoreTestPeer::columns(k.store, shard).count();
                    for (std::uint32_t off = 0; off < count; ++off) {
                        const std::uint32_t id =
                            (shard << StateStore::kOffsetBits) | off;
                        const std::uint32_t depth = k.store.depthAt(id);
                        midLevel |= depth == res.maxDepth + 1;
                        const std::vector<std::uint16_t> path =
                            labelPath(rules, sc, k.store, id, true, sp.sym);
                        ASSERT_EQ(path.size(), depth) << what;
                        const std::vector<TraceStep> trace =
                            replayTrace(rules, sc, path, true, sp.sym);
                        ASSERT_EQ(k.store.find(trace.back().state), id)
                            << what;
                        ++stored;
                    }
                }
                EXPECT_EQ(stored, k.store.size()) << what;
                EXPECT_TRUE(midLevel)
                    << what << ": the stop fell between two levels";
            }
        }
    }
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
