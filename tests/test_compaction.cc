/**
 * @file
 * Exact state-storage tests: the mmap store must agree with the
 * single-threaded ram store on state/transition counts and verdicts
 * for 2- and 3-device explorations across 1/4/8 worker threads, two
 * distinct states forced onto one id hash must stay two states rather
 * than silently merge, and a violation must carry the same verdict
 * and the same full trace on every store kind and thread count.  The SliceCells
 * and SliceTable tests pin the slice-id cells every store keeps
 * (round trip, identity, width, concurrent interning).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "checker/explorer.hh"
#include "checker/state_store.hh"
#include "store_test_peer.hh"

namespace cxl
{
namespace
{

const std::size_t kSweep[] = {1, 4, 8};
const StoreKind kKinds[] = {StoreKind::InRam, StoreKind::Mmap};

/** A small store of @p kind. */
StoreConfig
smallStore(StoreKind kind)
{
    StoreConfig config = storeConfigOf(kind, std::string(), 0);
    config.initialBuckets = 1 << 10;
    return config;
}

ExploreResult
runKind(const RuleSet &rules, const Scenario &sc,
        const InvariantSet &inv, ExploreOptions opt, StoreKind kind,
        std::size_t threads)
{
    opt.store = kind;
    opt.threads = threads;
    Explorer ex(rules, sc, inv);
    return ex.run(opt);
}

/** A run must match the single-threaded ram baseline bit for bit. */
void
expectAgreement(const ExploreResult &full, const ExploreResult &comp,
                const std::string &what)
{
    EXPECT_EQ(full.numStates, comp.numStates) << what;
    EXPECT_EQ(full.numTransitions, comp.numTransitions) << what;
    EXPECT_EQ(full.maxDepth, comp.maxDepth) << what;
    EXPECT_EQ(full.completed, comp.completed) << what;
    EXPECT_EQ(full.violationCount, comp.violationCount) << what;
    EXPECT_EQ(full.ruleFireCounts, comp.ruleFireCounts) << what;
    ASSERT_EQ(full.violation.has_value(), comp.violation.has_value())
        << what;
    if (full.violation) {
        EXPECT_EQ(full.violation->kind, comp.violation->kind) << what;
        EXPECT_EQ(full.violation->depth, comp.violation->depth)
            << what;
        EXPECT_EQ(full.violation->conjunctName,
                  comp.violation->conjunctName)
            << what;
    }
}

TEST(Compaction, TwoDeviceFreeRunAgreesAcrossThreadCounts)
{
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config);
    Scenario sc = Scenario::freeRunScenario();
    InvariantSet inv = InvariantSet::full(config);

    ExploreResult base =
        runKind(rules, sc, inv, {}, StoreKind::InRam, 1);
    ASSERT_TRUE(base.completed);
    ASSERT_FALSE(base.violation.has_value());
    for (std::size_t n : kSweep) {
        expectAgreement(base,
                        runKind(rules, sc, inv, {}, StoreKind::Mmap, n),
                        "2dev mmap @" + std::to_string(n));
    }
}

TEST(Compaction, ThreeDeviceSymmetryReducedAgreesAcrossThreadCounts)
{
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config, 3);
    Scenario sc = Scenario::freeRunScenario(3);
    InvariantSet inv = InvariantSet::full(config, 3);

    ExploreOptions opt;
    opt.symmetry = SymmetryMode::On;

    ExploreResult base =
        runKind(rules, sc, inv, opt, StoreKind::InRam, 1);
    ASSERT_TRUE(base.completed);
    ASSERT_FALSE(base.violation.has_value());
    EXPECT_GT(base.numStates, 100000u); // the 144,294-orbit space
    for (std::size_t n : kSweep) {
        expectAgreement(base,
                        runKind(rules, sc, inv, opt, StoreKind::Mmap, n),
                        "3dev sym mmap @" + std::to_string(n));
    }
}

TEST(Compaction, ExpectedStatesHintChangesNoCounts)
{
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config);
    Scenario sc = Scenario::freeRunScenario();
    InvariantSet inv = InvariantSet::full(config);

    ExploreResult base =
        runKind(rules, sc, inv, {}, StoreKind::InRam, 1);
    for (StoreKind kind : {StoreKind::InRam, StoreKind::Mmap}) {
        ExploreOptions opt;
        opt.expectedStates = 1 << 20; // far beyond the real space
        expectAgreement(base, runKind(rules, sc, inv, opt, kind, 4),
                        std::string("hint ") + storeKindWord(kind));
    }
}

TEST(Compaction, ViolationTraceMatchesFullStore)
{
    // The Table 3 mutation on every store kind and thread count: the
    // same conjunct, family, minimal depth and full trace as the
    // single-threaded ram run — searched out from the depth labels
    // and replayed, so no cell is decoded for it.
    ProtocolConfig mutated;
    mutated.relaxSnoopPushesGo = true;
    RuleSet rules(mutated);
    Scenario sc = Scenario::freeRunScenario();
    InvariantSet swmr = InvariantSet::swmrOnly();

    ExploreResult full =
        runKind(rules, sc, swmr, {}, StoreKind::InRam, 1);
    ASSERT_TRUE(full.violation.has_value());
    const std::vector<TraceStep> &want = full.violation->trace;
    ASSERT_EQ(want.size(), full.violation->depth + 1u);
    EXPECT_TRUE(want.front().ruleName.empty());
    EXPECT_FALSE(swmrHolds(want.back().state));

    for (const auto &[kind, n] :
         {std::pair{StoreKind::InRam, kSweep[1]},
          std::pair{StoreKind::InRam, kSweep[2]},
          std::pair{StoreKind::Mmap, kSweep[0]},
          std::pair{StoreKind::Mmap, kSweep[1]},
          std::pair{StoreKind::Mmap, kSweep[2]}}) {
        const std::string what =
            std::string(storeKindWord(kind)) + " @" + std::to_string(n);
        ExploreResult comp = runKind(rules, sc, swmr, {}, kind, n);
        ASSERT_TRUE(comp.violation.has_value()) << what;
        EXPECT_EQ(comp.violation->kind, full.violation->kind);
        EXPECT_EQ(comp.violation->depth, full.violation->depth);
        EXPECT_EQ(comp.violation->conjunctName,
                  full.violation->conjunctName);
        EXPECT_EQ(comp.violation->conjunctFamily,
                  full.violation->conjunctFamily);
        const std::vector<TraceStep> &got = comp.violation->trace;
        ASSERT_EQ(got.size(), want.size()) << what;
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].ruleName, want[i].ruleName)
                << what << " step " << i;
            EXPECT_TRUE(got[i].state == want[i].state)
                << what << " step " << i;
        }
    }
}

TEST(Compaction, ForgedIdHashKeepsStatesDistinct)
{
    // Two distinct states on the same id hash: b forged onto a's.
    // Hash-only identity would merge them silently; the store compares
    // the cells' slice ids, so they stay apart.
    const SystemState a = initialAllInvalid();
    const SystemState b = initialBothShared(1);
    ASSERT_FALSE(a == b);
    for (StoreKind kind : {StoreKind::InRam, StoreKind::Mmap}) {
        const std::string what = storeKindWord(kind);
        StateStore store(storeConfigOf(kind, "", 0));
        const std::uint64_t a_hash = StateStoreTestPeer::idHash(store, a);
        ASSERT_NE(a_hash, StateStoreTestPeer::idHash(store, b)) << what;
        auto [ia, new_a] = store.insert(a, 0);
        auto [ib, new_b] =
            StateStoreTestPeer::insertForged(store, b, a_hash);
        EXPECT_TRUE(new_a) << what;
        EXPECT_TRUE(new_b) << what << ": forged hash merged states";
        EXPECT_NE(ia, ib) << what;
        EXPECT_EQ(store.size(), 2u) << what;

        // Re-probing either state finds its own entry, not the
        // other's; b passes a's entry again.
        auto [ia2, dup_a] = store.insert(a, 0);
        auto [ib2, dup_b] =
            StateStoreTestPeer::insertForged(store, b, a_hash);
        EXPECT_FALSE(dup_a) << what;
        EXPECT_FALSE(dup_b) << what;
        EXPECT_EQ(ia2, ia) << what;
        EXPECT_EQ(ib2, ib) << what;
        EXPECT_EQ(store.find(a), ia) << what;
        EXPECT_EQ(store.size(), 2u) << what;
        SystemState decoded;
        store.stateInto(ib, decoded);
        EXPECT_TRUE(decoded == b) << what;
    }
}

/** A distinct, moderately busy state for arena tests. */
SystemState
arenaState(int i)
{
    SystemState s;
    s.counter = static_cast<std::uint8_t>(i & 0xff);
    s.dev[0].val = static_cast<Val>((i >> 8) & 0xff);
    s.dev[1].val = static_cast<Val>(i >> 16);
    s.dev[0].d2hReq.pushBack(
        {D2HReqOp::RdShared, static_cast<Tid>(i & 3)});
    s.dev[1].h2dData.pushBack({0, static_cast<Val>(i & 0x7f), 0});
    return s;
}

TEST(Compaction, CompactCellsRoundTripBitExactly)
{
    // The slice cells must reproduce the active prefix exactly —
    // stateInto(insert(s)) == s for sparse, busy and near-full
    // states.
    std::vector<SystemState> originals;
    originals.push_back(initialAllInvalid(0, 4));
    originals.push_back(initialBothShared(3, 4));
    for (int i = 0; i < 500; ++i)
        originals.push_back(arenaState(i));
    {
        // Near-incompressible: every channel of every device full.
        SystemState s = initialBothShared(1, 4);
        for (int d = 0; d < 4; ++d) {
            for (int k = 0; k < 3; ++k) {
                s.dev[d].d2hReq.pushBack({D2HReqOp::RdOwn, 1});
                s.dev[d].d2hRsp.pushBack({D2HRspOp::RspIHitSE, 2});
                s.dev[d].d2hData.pushBack({1, 2, 1});
                s.dev[d].h2dReq.pushBack({H2DReqOp::SnpInv, 3});
                s.dev[d].h2dRsp.pushBack(
                    {H2DRspOp::GO, DState::M, 1});
                s.dev[d].h2dData.pushBack({2, 3, 0});
            }
        }
        s.counter = 4;
        originals.push_back(s);
    }
    // A store holds states of one device count: one store per count.
    std::unique_ptr<StateStore> stores[kMaxDevices + 1];
    for (const SystemState &s : originals) {
        std::unique_ptr<StateStore> &store = stores[s.ndev];
        if (!store)
            store = std::make_unique<StateStore>(1 << 10);
        auto [idx, is_new] = store->insert(s, 0);
        ASSERT_TRUE(is_new);
        SystemState decoded;
        store->stateInto(idx, decoded);
        EXPECT_TRUE(decoded == s);
    }
}

// ------------------------------------------------------ slice cells

/** Every channel of every active device full, last byte set. */
SystemState
busyState(int ndev)
{
    SystemState s = initialBothShared(1, ndev);
    for (int d = 0; d < ndev; ++d) {
        for (int k = 0; k < 3; ++k) {
            s.dev[d].d2hReq.pushBack({D2HReqOp::RdOwn, 1});
            s.dev[d].h2dData.pushBack({2, 3, 0});
        }
        s.dev[d].pc = static_cast<std::uint8_t>(d + 1);
    }
    s.counter = 4;
    return s;
}

/** A 4-device record with every byte nonzero; @p tag varies it. */
SystemState
denseState(int tag)
{
    SystemState s;
    std::memset(static_cast<void *>(&s), 0x5a, sizeof s);
    s.ndev = kMaxDevices;
    s.hval = static_cast<Val>(1 + tag % 255);
    s.counter = static_cast<std::uint8_t>(1 + tag / 255);
    return s;
}

/** Whether @p s's device slots past ndev are all zero bytes. */
bool
inactiveSlotsZero(const SystemState &s)
{
    const auto *p = reinterpret_cast<const unsigned char *>(&s);
    return std::all_of(p + s.activeBytes(), p + sizeof s,
                       [](unsigned char b) { return b == 0; });
}

TEST(SliceCells, RoundTripsEveryDeviceCount)
{
    // A cell is ndev slice ids — the lead (host fields and device 0),
    // then one per further device; decoding must give back the active
    // prefix exactly and zero the inactive slots, on every kind.
    for (int ndev = 1; ndev <= kMaxDevices; ++ndev) {
        std::vector<SystemState> states = {
            initialAllInvalid(0, ndev), initialOneModified(0, 2, 1, ndev),
            busyState(ndev)};
        if (ndev == kMaxDevices) {
            states.push_back(denseState(0));
            states.push_back(denseState(1));
        }
        for (StoreKind kind : kKinds) {
            StateStore store(smallStore(kind));
            for (const SystemState &s : states) {
                const auto [id, fresh] = store.insert(s, 0);
                EXPECT_TRUE(fresh) << ndev;
                SystemState decoded = denseState(7); // all garbage
                store.stateInto(id, decoded);
                EXPECT_TRUE(decoded == s) << ndev;
                EXPECT_EQ(decoded.dev[ndev - 1].pc, s.dev[ndev - 1].pc);
                EXPECT_TRUE(inactiveSlotsZero(decoded)) << ndev;
            }
            // Re-inserting finds every state again.
            for (const SystemState &s : states) {
                EXPECT_FALSE(store.insert(s, 0).second)
                    << ndev;
            }
            EXPECT_EQ(store.size(), states.size());
        }
    }
}

TEST(SliceCells, LeadSliceKeepsHostAndDeviceZeroApart)
{
    // The lead slice holds the host fields and device 0 together.
    // States that differ only in a host byte, only in device 0 or only
    // in the last device must stay distinct on every store kind,
    // decode exactly, and be found again.
    for (int ndev = 1; ndev <= kMaxDevices; ++ndev) {
        const SystemState base = busyState(ndev);
        SystemState host = base;
        host.counter = 5;
        SystemState dev0 = base;
        dev0.dev[0].pc = 9;
        SystemState last = base;
        last.dev[ndev - 1].val = 3;
        const std::vector<SystemState> states = {base, host, dev0, last};
        for (StoreKind kind : kKinds) {
            StateStore store(smallStore(kind));
            std::vector<std::uint32_t> ids;
            for (const SystemState &s : states) {
                const auto [id, fresh] = store.insert(s, 0);
                ids.push_back(id);
                EXPECT_TRUE(fresh) << ndev << " " << storeKindWord(kind);
            }
            EXPECT_EQ(store.size(), states.size()) << ndev;
            for (std::size_t i = 0; i < states.size(); ++i) {
                SystemState decoded = denseState(7); // all garbage
                store.stateInto(ids[i], decoded);
                EXPECT_TRUE(decoded == states[i])
                    << ndev << " " << storeKindWord(kind) << " " << i;
                EXPECT_TRUE(inactiveSlotsZero(decoded)) << ndev;
                EXPECT_EQ(store.insert(states[i], 0),
                          std::make_pair(ids[i], false))
                    << ndev << " " << storeKindWord(kind) << " " << i;
            }
        }
    }
}

TEST(SliceCells, LastDevicePcKeepsStatesDistinct)
{
    // Two states that differ only in the last active byte — the last
    // device's pc — share their host slice and all but the last device
    // slice.  They must stay distinct under their own id hashes, and
    // with b forged onto a's too.
    for (int ndev = 1; ndev <= kMaxDevices; ++ndev) {
        SystemState a = initialAllInvalid(0, ndev);
        a.dev[ndev - 1].pc = 1;
        SystemState b = a;
        b.dev[ndev - 1].pc = 2;
        ASSERT_FALSE(a == b);

        for (const bool forge : {false, true}) {
            StateStore store(smallStore(StoreKind::InRam));
            const auto [ia, new_a] = store.insert(a, 0);
            const auto [ib, new_b] =
                forge ? StateStoreTestPeer::insertForged(
                            store, b, StateStoreTestPeer::idHash(store, a))
                      : store.insert(b, 0);
            EXPECT_TRUE(new_a && new_b) << ndev << ": silently merged";
            EXPECT_NE(ia, ib);
            SystemState decoded;
            store.stateInto(ib, decoded);
            EXPECT_EQ(decoded.dev[ndev - 1].pc, 2) << ndev;
        }
    }
}

TEST(SliceCells, BytesPastTheActivePrefixAreIgnored)
{
    // An inactive device slot is outside the prefix: a state that
    // differs only there is the same state, on every kind.
    for (int ndev = 1; ndev < kMaxDevices; ++ndev) {
        const SystemState a = busyState(ndev);
        SystemState c = a;
        c.dev[ndev].val = 7;
        c.dev[kMaxDevices - 1].pc = 9;
        for (StoreKind kind : kKinds) {
            StateStore store(smallStore(kind));
            const auto [ia, new_a] = store.insert(a, 0);
            const auto [ic, new_c] = store.insert(c, 0);
            EXPECT_TRUE(new_a);
            EXPECT_FALSE(new_c) << ndev;
            EXPECT_EQ(ic, ia) << ndev;
            EXPECT_EQ(store.find(c), ia) << ndev;
            SystemState decoded;
            store.stateInto(ic, decoded);
            EXPECT_TRUE(inactiveSlotsZero(decoded)) << ndev;
        }
    }
}

TEST(SliceCells, MismatchedDeviceCountIsRejected)
{
    // The first insert fixes the cell width; a state of another device
    // count is a logic error and leaves the store unchanged.
    for (StoreKind kind : kKinds) {
        StateStore store(smallStore(kind));
        const SystemState three = initialAllInvalid(0, 3);
        const std::uint32_t id = store.insert(three, 0).first;
        EXPECT_THROW(store.insert(initialAllInvalid(0, 2), 0),
                     std::logic_error);
        StateStore::BatchItem item;
        item.state = initialAllInvalid(0, 4);
        EXPECT_THROW(store.insertBatch(&item, 1), std::logic_error);
        EXPECT_EQ(store.size(), 1u);
        EXPECT_FALSE(store.find(initialAllInvalid(0, 2)).has_value());
        const auto [again, fresh] = store.insert(three, 0);
        EXPECT_FALSE(fresh);
        EXPECT_EQ(again, id);
        EXPECT_TRUE(store.insert(busyState(3), 0).second);
    }
}

/** Distinct 3-device states for @p i < 5 * 4096 whose device slices
 * repeat across states: @p i picks each device's value and pc from 16
 * combinations. */
SystemState
sliceState(std::uint32_t i)
{
    SystemState s = initialAllInvalid(0, 3);
    s.counter = static_cast<std::uint8_t>(i % 5);
    for (int d = 0; d < 3; ++d) {
        const std::uint32_t k = (i / 5) >> (4 * d);
        s.dev[d].val = static_cast<Val>(k & 7);
        s.dev[d].pc = static_cast<std::uint8_t>((k >> 3) & 1);
    }
    return s;
}

TEST(SliceTable, ConcurrentInternsGiveOneIdPerSlice)
{
    // Every thread interns every slice, each from its own starting
    // point and more than once: one id per distinct slice, agreed by
    // all threads, and at() gives back the interned bytes.
    constexpr std::uint32_t kSlices = 3000;
    auto bytes = [](std::uint32_t i) {
        std::array<std::uint8_t, 59> b{};
        std::memcpy(b.data(), &i, sizeof i);
        b[58] = static_cast<std::uint8_t>(i * 7);
        return b;
    };
    for (const unsigned threads : {4u, 8u}) {
        SliceTable table(59);
        std::vector<std::vector<std::uint32_t>> ids(
            threads, std::vector<std::uint32_t>(kSlices));
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < threads; ++t) {
            pool.emplace_back([&, t] {
                for (int round = 0; round < 2; ++round) {
                    for (std::uint32_t k = 0; k < kSlices; ++k) {
                        const std::uint32_t i =
                            (k + t * (kSlices / threads)) % kSlices;
                        const auto b = bytes(i);
                        const std::uint32_t id = table.intern(b.data());
                        if (round == 1) {
                            ASSERT_EQ(id, ids[t][i]);
                        }
                        ids[t][i] = id;
                    }
                }
            });
        }
        for (std::thread &th : pool)
            th.join();
        EXPECT_EQ(table.size(), kSlices) << threads;
        std::set<std::uint32_t> distinct;
        for (std::uint32_t i = 0; i < kSlices; ++i) {
            for (unsigned t = 1; t < threads; ++t)
                ASSERT_EQ(ids[t][i], ids[0][i]) << threads << " " << i;
            distinct.insert(ids[0][i]);
            const auto b = bytes(i);
            EXPECT_EQ(std::memcmp(table.at(ids[0][i]), b.data(), 59), 0);
        }
        EXPECT_EQ(distinct.size(), kSlices) << threads;
    }
}

TEST(SliceCells, ConcurrentInsertsDecodeToWhatWasInserted)
{
    // Workers insert overlapping batches of states built from 16
    // distinct device slices, so fresh inserts on different
    // shards intern the same slices at once.  Every state must end up
    // stored once and decode to exactly what was inserted.
    constexpr std::uint32_t kStates = 1 << 14; // odd strides permute it
    for (const unsigned threads : {4u, 8u}) {
        for (StoreKind kind : kKinds) {
            StateStore store(smallStore(kind));
            std::vector<std::vector<std::uint32_t>> ids(
                threads, std::vector<std::uint32_t>(kStates));
            std::vector<std::thread> pool;
            for (unsigned t = 0; t < threads; ++t) {
                pool.emplace_back([&, t] {
                    std::vector<StateStore::BatchItem> batch;
                    std::vector<std::uint32_t> which;
                    auto flush = [&] {
                        store.insertBatch(batch.data(), batch.size());
                        for (std::size_t j = 0; j < batch.size(); ++j)
                            ids[t][which[j]] = batch[j].id;
                        batch.clear();
                        which.clear();
                    };
                    for (std::uint32_t k = 0; k < kStates; ++k) {
                        const std::uint32_t i =
                            (k * (2 * t + 1) + t * 977) % kStates;
                        StateStore::BatchItem item;
                        item.state = sliceState(i);
                        batch.push_back(item);
                        which.push_back(i);
                        if (batch.size() == 64)
                            flush();
                    }
                    flush();
                });
            }
            for (std::thread &th : pool)
                th.join();
            ASSERT_EQ(store.size(), kStates) << threads;
            for (std::uint32_t i = 0; i < kStates; ++i) {
                for (unsigned t = 1; t < threads; ++t)
                    ASSERT_EQ(ids[t][i], ids[0][i]) << threads << " " << i;
                SystemState decoded;
                store.stateInto(ids[0][i], decoded);
                ASSERT_TRUE(decoded == sliceState(i)) << threads << " " << i;
                ASSERT_TRUE(inactiveSlotsZero(decoded));
            }
        }
    }
}

} // namespace
} // namespace cxl
