/**
 * @file
 * Hash-compaction (fingerprint-only) storage tests: compact and full
 * modes must agree on state/transition counts and verdicts for 2- and
 * 3-device explorations across 1/4/8 worker threads, a synthetic
 * probe-hash collision must be detected and kept as two states (and
 * reported via probeCollisions) rather than silently merged, and a
 * violation found under compaction must carry the same verdict and
 * the same full trace as the full store.  The CellCodec tests pin
 * the lane-cell format both modes store, and the arena test pins
 * which sealed blocks a releasing arena drops.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "checker/explorer.hh"
#include "checker/state_store.hh"

namespace cxl
{
namespace
{

const std::size_t kSweep[] = {1, 4, 8};

ExploreResult
runMode(const RuleSet &rules, const Scenario &sc,
        const InvariantSet &inv, ExploreOptions opt, bool compact,
        std::size_t threads)
{
    opt.compaction = compact;
    opt.numThreads = threads;
    Explorer ex(rules, sc, inv);
    return ex.run(opt);
}

/** Compact results must match the full-mode baseline bit for bit. */
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
    // 64-bit fingerprints over these space sizes: a collision that
    // perturbed the counts would be a ~n^2/2^65 event, and even
    // detected near-misses are overwhelmingly unlikely.
    EXPECT_EQ(comp.probeCollisions, 0u) << what;
}

TEST(Compaction, TwoDeviceFreeRunAgreesAcrossThreadCounts)
{
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config);
    Scenario sc = Scenario::freeRunScenario();
    InvariantSet inv = InvariantSet::full(config);

    ExploreResult base = runMode(rules, sc, inv, {}, false, 1);
    ASSERT_TRUE(base.completed);
    ASSERT_FALSE(base.violation.has_value());
    for (std::size_t n : kSweep) {
        expectAgreement(base, runMode(rules, sc, inv, {}, true, n),
                        "2dev compact @" + std::to_string(n));
    }
}

TEST(Compaction, ThreeDeviceSymmetryReducedAgreesAcrossThreadCounts)
{
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config, 3);
    Scenario sc = Scenario::freeRunScenario(3);
    InvariantSet inv = InvariantSet::full(config, 3);

    ExploreOptions opt;
    opt.symmetryReduction = true;

    ExploreResult base = runMode(rules, sc, inv, opt, false, 1);
    ASSERT_TRUE(base.completed);
    ASSERT_FALSE(base.violation.has_value());
    EXPECT_GT(base.numStates, 100000u); // the 144,294-orbit space
    for (std::size_t n : kSweep) {
        expectAgreement(base, runMode(rules, sc, inv, opt, true, n),
                        "3dev sym compact @" + std::to_string(n));
    }
}

TEST(Compaction, ExpectedStatesHintChangesNoCounts)
{
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config);
    Scenario sc = Scenario::freeRunScenario();
    InvariantSet inv = InvariantSet::full(config);

    ExploreResult base = runMode(rules, sc, inv, {}, false, 1);
    for (bool compact : {false, true}) {
        ExploreOptions opt;
        opt.expectedStates = 1 << 20; // far beyond the real space
        expectAgreement(base,
                        runMode(rules, sc, inv, opt, compact, 4),
                        compact ? "hint compact" : "hint full");
    }
}

TEST(Compaction, ViolationTraceMatchesFullStore)
{
    // The Table 3 mutation under compaction: same conjunct, family
    // and minimal depth as the full-mode verdict, and the same full
    // trace — replayed from the breadcrumb rule ids, so sealed
    // levels whose state bytes are released cost nothing.
    ProtocolConfig mutated;
    mutated.relaxSnoopPushesGo = true;
    RuleSet rules(mutated);
    Scenario sc = Scenario::freeRunScenario();
    InvariantSet swmr = InvariantSet::swmrOnly();

    ExploreResult full = runMode(rules, sc, swmr, {}, false, 1);
    ASSERT_TRUE(full.violation.has_value());
    const std::vector<TraceStep> &want = full.violation->trace;
    ASSERT_EQ(want.size(), full.violation->depth + 1u);
    EXPECT_TRUE(want.front().ruleName.empty());
    EXPECT_FALSE(swmrHolds(want.back().state));

    for (std::size_t n : kSweep) {
        ExploreResult comp = runMode(rules, sc, swmr, {}, true, n);
        ASSERT_TRUE(comp.violation.has_value())
            << "compact @" << n;
        EXPECT_EQ(comp.violation->kind, full.violation->kind);
        EXPECT_EQ(comp.violation->depth, full.violation->depth);
        EXPECT_EQ(comp.violation->conjunctName,
                  full.violation->conjunctName);
        EXPECT_EQ(comp.violation->conjunctFamily,
                  full.violation->conjunctFamily);
        const std::vector<TraceStep> &got = comp.violation->trace;
        ASSERT_EQ(got.size(), want.size()) << "compact @" << n;
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].ruleName, want[i].ruleName)
                << "compact @" << n << " step " << i;
            EXPECT_TRUE(got[i].state == want[i].state)
                << "compact @" << n << " step " << i;
        }
    }
}

TEST(Compaction, SyntheticProbeHashCollisionIsDetected)
{
    // Two distinct states forged onto the same 64-bit probe hash:
    // probe-hash-only compaction would merge them silently.  The
    // verification fingerprint must keep them apart and count the
    // near-miss, in both storage modes.
    SystemState a = initialAllInvalid();
    SystemState b = initialBothShared(1);
    ASSERT_FALSE(a == b);
    ASSERT_NE(a.fingerprint(), b.fingerprint());
    const std::uint64_t forged = 0x1234567890abcdefull;

    for (StoreMode mode : {StoreMode::Compact, StoreMode::Full}) {
        StateStore store(1 << 10, mode);
        auto [ia, new_a] =
            store.insert(a, forged, StateStore::kNoParent, 0, 0);
        auto [ib, new_b] =
            store.insert(b, forged, StateStore::kNoParent, 0, 0);
        EXPECT_TRUE(new_a);
        EXPECT_TRUE(new_b) << "collision silently merged states";
        EXPECT_NE(ia, ib);
        EXPECT_EQ(store.size(), 2u);
        EXPECT_GE(store.probeCollisions(), 1u)
            << "collision not reported";

        // Re-probing either state finds its own entry, not the
        // other's.
        auto [ia2, dup_a] =
            store.insert(a, forged, StateStore::kNoParent, 0, 0);
        auto [ib2, dup_b] =
            store.insert(b, forged, StateStore::kNoParent, 0, 0);
        EXPECT_FALSE(dup_a);
        EXPECT_FALSE(dup_b);
        EXPECT_EQ(ia2, ia);
        EXPECT_EQ(ib2, ib);
        EXPECT_EQ(store.size(), 2u);
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
    // The lane cells must reproduce the active prefix exactly —
    // stateInto(insert(s)) == s for sparse, busy and near-full
    // states.
    StateStore store(1 << 10, StoreMode::Compact);
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
    for (const SystemState &s : originals) {
        auto [idx, is_new] =
            store.insert(s, StateStore::kNoParent, 0, 0);
        ASSERT_TRUE(is_new);
        SystemState decoded;
        store.stateInto(idx, decoded);
        EXPECT_TRUE(decoded == s);
    }
}

// ------------------------------------------------------ cell codec

/** Nonzero 4-byte lanes of @p s's active prefix (the partial last
 * lane counts its active bytes only). */
std::size_t
nonzeroLanes(const SystemState &s)
{
    const auto *p = reinterpret_cast<const unsigned char *>(&s);
    std::size_t lanes = 0;
    for (std::size_t at = 0; at < s.activeBytes(); at += 4) {
        bool nonzero = false;
        for (std::size_t b = at; b < std::min(at + 4, s.activeBytes());
             ++b)
            nonzero |= p[b] != 0;
        lanes += nonzero;
    }
    return lanes;
}

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

TEST(CellCodec, RoundTripsEveryDeviceCount)
{
    // Active prefixes of 64/123/182/241 bytes: a whole number of
    // lanes at one device, a partial last lane of 3/2/1 bytes above.
    const std::size_t prefix[] = {64, 123, 182, 241};
    for (int ndev = 1; ndev <= kMaxDevices; ++ndev) {
        const SystemState states[] = {initialAllInvalid(0, ndev),
                                      initialOneModified(0, 2, 1, ndev),
                                      busyState(ndev)};
        for (const SystemState &s : states) {
            ASSERT_EQ(s.activeBytes(), prefix[ndev - 1]);
            std::byte cell[kMaxEncodedState];
            const std::size_t len = encodeCell(s, cell);
            EXPECT_EQ(len, 8 + 4 * nonzeroLanes(s)) << ndev;
            SystemState decoded;
            decodeCell(cell, decoded);
            EXPECT_TRUE(decoded == s) << ndev;
            EXPECT_EQ(decoded.dev[ndev - 1].pc, s.dev[ndev - 1].pc);
        }
        // Through the store too, in both modes.
        for (StoreMode mode : {StoreMode::Full, StoreMode::Compact}) {
            StateStore store(1 << 10, mode);
            for (const SystemState &s : states) {
                SystemState decoded;
                store.stateInto(
                    store.insert(s, StateStore::kNoParent, 0, 0).first,
                    decoded);
                EXPECT_TRUE(decoded == s) << ndev;
            }
        }
    }
}

/** A 4-device record with every lane nonzero; @p tag varies it. */
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

TEST(CellCodec, StateWithNoZeroLaneFillsTheBound)
{
    const SystemState s = denseState(0);
    std::byte cell[kMaxEncodedState];
    EXPECT_EQ(encodeCell(s, cell), kMaxEncodedState);
    EXPECT_EQ(kMaxEncodedState, 252u);
    SystemState decoded;
    decodeCell(cell, decoded);
    EXPECT_TRUE(decoded == s);
}

TEST(CellCodec, PartialLastLaneKeepsStatesDistinct)
{
    // Two states that differ only in the last active byte (the last
    // device's pc, alone in the partial last lane) have equal lane
    // masks and must still stay distinct under a forged probe-hash
    // collision — counted as one in probeCollisions().  Bytes past
    // the active prefix share that lane and must not count at all.
    const std::uint64_t forged = 0x0123456789abcdefull;
    for (int ndev = 2; ndev <= kMaxDevices; ++ndev) {
        SystemState a = initialAllInvalid(0, ndev);
        a.dev[ndev - 1].pc = 1;
        SystemState b = a;
        b.dev[ndev - 1].pc = 2;
        ASSERT_FALSE(a == b);

        StateStore store(1 << 10, StoreMode::Full);
        const auto [ia, new_a] =
            store.insert(a, forged, StateStore::kNoParent, 0, 0);
        const auto [ib, new_b] =
            store.insert(b, forged, StateStore::kNoParent, 0, 0);
        EXPECT_TRUE(new_a && new_b) << ndev << ": silently merged";
        EXPECT_NE(ia, ib);
        EXPECT_EQ(store.probeCollisions(), 1u) << ndev;

        if (ndev < kMaxDevices) {
            // An inactive slot's byte is outside the prefix.
            SystemState c = a;
            c.dev[ndev].val = 7;
            const auto [ic, new_c] =
                store.insert(c, forged, StateStore::kNoParent, 0, 0);
            EXPECT_FALSE(new_c) << ndev;
            EXPECT_EQ(ic, ia) << ndev;
        }
    }
}

TEST(CellCodec, MaskMismatchAtABlockEndReadsNoFurther)
{
    // Fill shard 0's first arena block with dense cells so that a
    // 14-lane cell ends exactly at the block's end, then probe it
    // with a dense candidate under the same forged hash.  The masks
    // differ, so the compare must stop at the mask word — reading the
    // candidate's length from the short cell would run off the block
    // (an ASan report).
    constexpr std::size_t kDense = StateArena::kBlockBytes /
                                   kMaxEncodedState;
    constexpr std::size_t kTail =
        StateArena::kBlockBytes - kDense * kMaxEncodedState;
    static_assert(kTail >= 12 && kTail % 4 == 0);
    auto shard_zero = [](std::uint64_t i) { return mix64(i) >> 4; };

    StateStore store(1 << 10, StoreMode::Full);
    for (std::size_t i = 0; i < kDense; ++i) {
        ASSERT_TRUE(store
                        .insert(denseState(static_cast<int>(i)),
                                shard_zero(i), StateStore::kNoParent,
                                0, 0)
                        .second);
    }
    SystemState tail = initialAllInvalid(0, kMaxDevices);
    auto *bytes = reinterpret_cast<unsigned char *>(&tail);
    for (std::size_t lane = 1; lane < (kTail - 8) / 4; ++lane)
        bytes[4 * lane] = 1;
    std::byte cell[kMaxEncodedState];
    ASSERT_EQ(encodeCell(tail, cell), kTail);

    const std::uint64_t forged = shard_zero(kDense);
    const auto [it, new_tail] =
        store.insert(tail, forged, StateStore::kNoParent, 0, 0);
    ASSERT_TRUE(new_tail);
    const SystemState probe = denseState(static_cast<int>(kDense));
    const auto [ip, new_probe] =
        store.insert(probe, forged, StateStore::kNoParent, 0, 0);
    EXPECT_TRUE(new_probe);
    EXPECT_NE(ip, it);
    EXPECT_EQ(store.probeCollisions(), 1u);
    SystemState decoded;
    store.stateInto(it, decoded);
    EXPECT_TRUE(decoded == tail);
}

TEST(Compaction, CompactStoreReleasesSealedLevels)
{
    // seal() must release only whole blocks of cells at least two
    // level boundaries old; the newest level (the next frontier)
    // stays readable.  Checked on an arena over the heap backend,
    // the one a ram-compact store uses: append enough encoded cells
    // that whole blocks become releasable.
    const std::uint32_t n = 200000; // cells total several blocks
    for (const bool release : {true, false}) {
        const std::unique_ptr<ShardMem> mem =
            makeShardMem(StoreBackend::InRam, "");
        StateArena arena;
        arena.init(mem.get(), release, StateStore::kOffsetMask);
        std::byte cell[kMaxEncodedState];
        for (std::uint32_t i = 0; i < n; ++i) {
            arena.append(0, i, cell,
                         encodeCell(arenaState(static_cast<int>(i)),
                                    cell));
        }
        arena.seal(); // boundary after "level A"
        for (std::uint32_t i = 0; i < n; ++i)
            ASSERT_NE(arena.cellIfMapped(i), nullptr) << i;

        arena.seal(); // level A is now two boundaries old
        // Whole blocks below the boundary are released; the
        // partially filled tail block is shared with the newest level
        // and stays.  An arena that does not release keeps them all.
        EXPECT_EQ(arena.cellIfMapped(0) == nullptr, release);
        ASSERT_NE(arena.cellIfMapped(n - 1), nullptr);
        SystemState decoded;
        arena.cellInto(n - 1, decoded);
        EXPECT_TRUE(decoded == arenaState(static_cast<int>(n - 1)));
    }

    // Through the store: deduplication still works without the state
    // bytes, and the newest level still decodes.
    StateStore store(1 << 10, StoreMode::Compact);
    std::vector<std::uint32_t> ids;
    auto forged = [](std::uint32_t i) {
        return mix64(i) >> 4; // shard 0
    };
    for (std::uint32_t i = 0; i < n; ++i) {
        ids.push_back(store
                          .insert(arenaState(static_cast<int>(i)),
                                  forged(i), StateStore::kNoParent, 0,
                                  0)
                          .first);
    }
    store.sealLevel();
    store.sealLevel();
    auto [idx, is_new] = store.insert(arenaState(0), forged(0),
                                      StateStore::kNoParent, 0, 0);
    EXPECT_FALSE(is_new);
    EXPECT_EQ(idx, ids.front());
    SystemState decoded;
    store.stateInto(ids.back(), decoded);
    EXPECT_TRUE(decoded == arenaState(static_cast<int>(n - 1)));
}

} // namespace
} // namespace cxl
