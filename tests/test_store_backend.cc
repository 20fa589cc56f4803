/**
 * @file
 * Backend conformance suite for the layered visited-state store: the
 * two StoreKinds (ram, mmap) must present identical packed-id
 * semantics through the StateStore façade — insert/lookup/dedup,
 * depth relabeling, every cell kept, level-barrier growth, the
 * StoreFullError capacity path (store-level and through both
 * engines), forged probe-hash collision detection — and the engines
 * must produce bit-identical state/transition counts on both kinds at
 * 2-device and symmetry-reduced 3-device spaces.  On Linux the in-RAM
 * kind's memory is checked page by page (mincore): it is mapped on
 * demand and never metered as file bytes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "checker/explorer.hh"
#include "checker/state_store.hh"
#include "checker/store_arena.hh"
#include "checker/store_columns.hh"
#include "store_test_peer.hh"
#include "support/hash.hh"
#include "support/resource.hh"

#if defined(__unix__)
#include <unistd.h>
#endif
#if defined(__linux__)
#include <sys/mman.h>
#if !defined(MAP_FIXED_NOREPLACE)
#define MAP_FIXED_NOREPLACE 0x100000 // Linux 4.17; older headers lack it
#endif
#endif

namespace cxl
{
namespace
{

struct Kind {
    const char *name;
    StoreKind kind;
};

const Kind kKinds[] = {
    {"ram", StoreKind::InRam},
    {"mmap", StoreKind::Mmap},
};

StoreConfig
configOf(const Kind &k, std::uint64_t capacity = 0,
         const std::string &dir = std::string())
{
    StoreConfig config = storeConfigOf(k.kind, dir, capacity);
    config.initialBuckets = 1 << 10;
    return config;
}

TEST(StoreBackend, StoreSpellingsResolveToTwoKinds)
{
    EXPECT_EQ(storeKindFromWord("ram"), StoreKind::InRam);
    EXPECT_EQ(storeKindFromWord("mmap"), StoreKind::Mmap);
    // The retired hash-compaction words are no store kind any more.
    for (const char *word : {"ram-compact", "mmap-compact", "disk", ""})
        EXPECT_EQ(storeKindFromWord(word), std::nullopt) << word;
    for (const Kind &k : kKinds) {
        EXPECT_STREQ(storeKindWord(k.kind), k.name);
        // The benchmark harness's shim: no kind is compact.
        EXPECT_FALSE(storeKindCompact(k.kind)) << k.name;
    }
}

/** A distinct, moderately busy state per index. */
SystemState
probeState(int i)
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

/** The first 40,000 probeStates whose real probe hash has a zero top
 * nibble, so one shard accumulates enough entries to fill several
 * arena blocks and grow its buckets many times (the store recomputes
 * hashes from its cells, so it takes no forged one). */
const std::vector<SystemState> &
shardZeroStates()
{
    static const std::vector<SystemState> states = [] {
        std::vector<SystemState> out;
        for (int i = 0; out.size() < 40000; ++i) {
            SystemState s = probeState(i);
            if (s.hash() >> 60 == 0)
                out.push_back(s);
        }
        return out;
    }();
    return states;
}

TEST(StoreBackend, InsertLookupDedupAndBreadcrumbs)
{
    const int n = 2000;
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        std::vector<std::uint32_t> ids;
        for (int i = 0; i < n; ++i) {
            auto [id, fresh] = store.insert(
                probeState(i), static_cast<std::uint32_t>(i & 7));
            ASSERT_TRUE(fresh) << k.name << " i=" << i;
            ids.push_back(id);
        }
        EXPECT_EQ(store.size(), static_cast<std::size_t>(n))
            << k.name;
        // Re-inserting every state dedups onto the original id.
        for (int i = 0; i < n; ++i) {
            auto [id, fresh] = store.insert(
                probeState(i), static_cast<std::uint32_t>(i & 7));
            EXPECT_FALSE(fresh) << k.name << " i=" << i;
            EXPECT_EQ(id, ids[static_cast<std::size_t>(i)])
                << k.name << " i=" << i;
        }
        EXPECT_EQ(store.size(), static_cast<std::size_t>(n))
            << k.name;
        // Bytes round-trip and the depth labels stuck.
        for (int i = 0; i < n; i += 97) {
            const std::uint32_t id =
                ids[static_cast<std::size_t>(i)];
            SystemState decoded;
            store.stateInto(id, decoded);
            EXPECT_TRUE(decoded == probeState(i))
                << k.name << " i=" << i;
            EXPECT_EQ(store.depthAt(id),
                      static_cast<std::uint32_t>(i & 7))
                << k.name;
        }
    }
}

TEST(StoreBackend, BatchRelabelImprovesDepthOnEveryKind)
{
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        ASSERT_TRUE(store.insert(probeState(0), 0).second) << k.name;
        auto [id, fresh] = store.insert(probeState(1), 9);
        ASSERT_TRUE(fresh) << k.name;
        EXPECT_EQ(store.depthAt(id), 9u) << k.name;

        // A duplicate at a smaller depth relabels the depth in place
        // and reports improved.
        StateStore::BatchItem item;
        item.state = probeState(1);
        item.hash = item.state.hash();
        item.depth = 2;
        store.insertBatch(&item, 1);
        EXPECT_FALSE(item.inserted) << k.name;
        EXPECT_TRUE(item.improved) << k.name;
        EXPECT_EQ(item.id, id) << k.name;
        EXPECT_EQ(store.depthAt(id), 2u) << k.name;

        // A duplicate at a larger depth changes nothing.
        item.depth = 5;
        store.insertBatch(&item, 1);
        EXPECT_FALSE(item.inserted) << k.name;
        EXPECT_FALSE(item.improved) << k.name;
        EXPECT_EQ(store.depthAt(id), 2u) << k.name;
    }
}

TEST(StoreBackend, EveryKindKeepsEveryCell)
{
    // Enough shard-0 entries to fill several arena blocks (2^15 cells
    // each at 2 devices).  Every entry decodes and deduplicates by
    // its cell on both kinds, before and after the no-op sealLevel
    // the benchmark harness still calls.
    const std::vector<SystemState> &states = shardZeroStates();
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        std::vector<std::uint32_t> ids;
        for (const SystemState &s : states) {
            ids.push_back(store.insert(s, 0).first);
        }
        store.sealLevel();
        store.sealLevel();
        for (std::size_t i = 0; i < states.size(); i += 1021) {
            SystemState decoded;
            store.stateInto(ids[i], decoded);
            EXPECT_TRUE(decoded == states[i]) << k.name << " " << i;
            auto [id, fresh] = store.insert(states[i], 0);
            EXPECT_FALSE(fresh) << k.name << " " << i;
            EXPECT_EQ(id, ids[i]) << k.name << " " << i;
        }
        EXPECT_EQ(store.size(), states.size()) << k.name;
    }
}

TEST(StoreBackend, LevelBarrierGrowthSizesForTheLevelJustInserted)
{
    // growFor(n) reaches the capacity insert-time growth reaches by n
    // entries, so a level as large as its estimate inserts without a
    // rehash.
    for (const std::uint32_t n : {1u, 11u, 12u, 13u, 100u, 5000u}) {
        const std::unique_ptr<ShardMem> grown_mem =
            makeShardMem(StoreBackend::InRam, "");
        const std::unique_ptr<ShardMem> stepped_mem =
            makeShardMem(StoreBackend::InRam, "");
        ShardColumns grown, stepped;
        auto hashesOf = [](std::uint32_t first, std::uint32_t k,
                           std::uint64_t *out) {
            for (std::uint32_t i = 0; i < k; ++i)
                out[i] = mix64(first + i);
        };
        grown.init(grown_mem.get(), 16, StateStore::kOffsetMask, hashesOf);
        stepped.init(stepped_mem.get(), 16, StateStore::kOffsetMask,
                     hashesOf);
        grown.growFor(n);
        for (std::uint32_t i = 0; i < n; ++i) {
            stepped.maybeGrow();
            stepped.append(0);
        }
        EXPECT_EQ(grown.mask(), stepped.mask()) << n;
    }

    // Through the store: a barrier after a level of ~40,000 shard-0
    // entries grows shard 0 for another such level, re-slotting every
    // entry from its cell; each one is still found at its id.
    const std::vector<SystemState> &states = shardZeroStates();
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        std::vector<std::uint32_t> ids;
        for (const SystemState &s : states) {
            ids.push_back(store.insert(s, 0).first);
        }
        for (std::uint32_t s = 0; s < StateStore::kNumShards; ++s)
            store.growForNextLevel(s);
        for (std::size_t i = 0; i < states.size(); ++i) {
            ASSERT_EQ(store.find(states[i]), ids[i]) << k.name << " " << i;
        }
        EXPECT_EQ(store.size(), states.size()) << k.name;
        EXPECT_EQ(store.probeCollisions(), 0u) << k.name;
    }
}

#if defined(__linux__)
TEST(StoreBackend, MmapKindReportsMappedBytes)
{
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        for (const SystemState &s : shardZeroStates())
            store.insert(s, 0);
        if (!storeKindMmap(k.kind)) {
            EXPECT_EQ(store.mappedBytes(), 0u) << k.name;
            EXPECT_EQ(store.backingFileBytes(), 0u) << k.name;
            continue;
        }
        // Every region stays mapped, so the mapped bytes are the file
        // bytes, and the memfd backing holds at least the cells.
        EXPECT_GT(store.mappedBytes(), 0u) << k.name;
        EXPECT_EQ(store.mappedBytes(), store.backingFileBytes())
            << k.name;
        EXPECT_GE(detail::memfdBytes(),
                  shardZeroStates().size() * 2 * sizeof(std::uint32_t))
            << k.name;
    }
}

std::size_t
testPageSize()
{
    return static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
}

/** Resident pages among those [@p p, @p p + @p bytes) touches; -1 when
 * mincore refuses the range (ENOMEM: part of it is not mapped). */
long
residentPages(const void *p, std::size_t bytes)
{
    const std::size_t page = testPageSize();
    const std::uintptr_t first =
        reinterpret_cast<std::uintptr_t>(p) & ~(page - 1);
    const std::size_t span =
        reinterpret_cast<std::uintptr_t>(p) + bytes - first;
    std::vector<unsigned char> vec((span + page - 1) / page);
    if (::mincore(reinterpret_cast<void *>(first), span, vec.data()) != 0)
        return -1;
    long resident = 0;
    for (unsigned char v : vec)
        resident += v & 1;
    return resident;
}

TEST(StoreBackend, DepthChunksAreBackedOnlyWhereWritten)
{
    // A fresh chunk has no resident page; the depth column constructs
    // a cell only when its entry is appended, so a store with one
    // entry per shard holds one page of each shard's depth chunk.
    constexpr std::size_t kChunkBytes =
        ShardColumns::kDepthChunkSize * sizeof(std::uint32_t);
    {
        const std::unique_ptr<ShardMem> mem =
            makeShardMem(StoreBackend::InRam, "");
        const void *chunk = mem->chunkAlloc(kChunkBytes);
        EXPECT_EQ(residentPages(chunk, kChunkBytes), 0);
    }
    for (const Kind &k : kKinds) {
        const StoreConfig config = configOf(k);
        for (std::uint32_t shard = 0; shard < StateStore::kNumShards;
             ++shard) {
            const std::unique_ptr<ShardMem> mem =
                makeShardMem(config.backend, config.dir);
            ShardColumns cols;
            cols.init(mem.get(), 16, StateStore::kOffsetMask,
                      [](std::uint32_t, std::uint32_t, std::uint64_t *) {});
            cols.append(7);
            EXPECT_EQ(cols.depthCell(0).load(), 7u);
            EXPECT_EQ(residentPages(&cols.depthCell(0), kChunkBytes), 1)
                << k.name << " shard " << shard;
        }
    }
}

TEST(StoreBackend, FlatContentsSurviveAMovingGrowth)
{
    // Occupy the page just past a flat so it cannot grow in place:
    // the growth must move it, keep its contents, and release the old
    // range rather than leave a hole behind.
    const std::size_t page = testPageSize();
    const std::unique_ptr<ShardMem> mem =
        makeShardMem(StoreBackend::InRam, "");
    auto *base = static_cast<std::uint64_t *>(mem->flatGrow(page));
    const std::size_t words = page / sizeof(std::uint64_t);
    for (std::size_t i = 0; i < words; ++i)
        base[i] = mix64(i);

    char *past = reinterpret_cast<char *>(base) + page;
    void *guard = ::mmap(past, page, PROT_NONE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED_NOREPLACE,
                         -1, 0);
    if (guard != MAP_FAILED && guard != past) {
        ::munmap(guard, page);
        GTEST_SKIP() << "the kernel ignores MAP_FIXED_NOREPLACE";
    }
    // Here the page past the flat is either our guard or, with
    // EEXIST, some other mapping: in-place growth is blocked.

    auto *grown = static_cast<std::uint64_t *>(mem->flatGrow(4 * page));
    EXPECT_NE(grown, base);
    for (std::size_t i = 0; i < words; ++i)
        ASSERT_EQ(grown[i], mix64(i)) << i;
    errno = 0;
    EXPECT_EQ(residentPages(base, page), -1);
    EXPECT_EQ(errno, ENOMEM) << std::strerror(errno);
    EXPECT_EQ(mem->mappedBytes(), 0u);
    EXPECT_EQ(mem->backingFileBytes(), 0u);
    if (guard == past)
        ::munmap(guard, page);
}

TEST(StoreBackend, StoreDirBacksShardFiles)
{
    char tmpl[] = "/tmp/cxl-store-XXXXXX";
    char *dir = mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    {
        StateStore store(configOf(kKinds[1], 0, dir)); // mmap
        for (int i = 0; i < 5000; ++i) {
            store.insert(probeState(i), 0);
        }
        EXPECT_GT(store.mappedBytes(), 0u);
        EXPECT_GT(store.backingFileBytes(), 0u);
        SystemState decoded;
        auto [id, fresh] = store.insert(probeState(1), 0);
        EXPECT_FALSE(fresh);
        store.stateInto(id, decoded);
        EXPECT_TRUE(decoded == probeState(1));
    }
    // Backing files are unlinked (O_TMPFILE/unlinked tempfile), so
    // the directory is removable once the store is gone.
    EXPECT_EQ(rmdir(dir), 0);
}
#endif // __linux__

TEST(StoreBackend, CapacityThrowsStoreFullErrorOnEveryKind)
{
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k, /*capacity=*/16)); // 1 per shard
        bool threw = false;
        try {
            for (int i = 0; i < 64; ++i) {
                store.insert(probeState(i), 0);
            }
        } catch (const StoreFullError &e) {
            threw = true;
            const std::string what = e.what();
            EXPECT_NE(what.find("per-shard limit 1 entries"),
                      std::string::npos)
                << k.name << ": " << what;
            EXPECT_NE(what.find("--store=ram|mmap;"), std::string::npos)
                << k.name << ": " << what;
        }
        EXPECT_TRUE(threw) << k.name;
    }
}

TEST(StoreBackend, ForgedProbeHashCollisionDetectedOnEveryKind)
{
    // b forged onto a's real probe hash: the bucket tag and the full
    // hash read off a's cell both match, the slices do not — a
    // detected collision, counted, with the pair kept distinct.  With
    // real hashes the same pair has nothing to count.
    const SystemState a = initialAllInvalid();
    const SystemState b = initialBothShared(1);
    ASSERT_FALSE(a == b);
    for (const Kind &k : kKinds) {
        for (const bool forge : {false, true}) {
            StateStore store(configOf(k));
            auto insertB = [&] {
                return forge ? StateStoreTestPeer::insertForged(store, b,
                                                                a.hash())
                             : store.insert(b, 0);
            };
            auto [ia, new_a] = store.insert(a, 0);
            auto [ib, new_b] = insertB();
            EXPECT_TRUE(new_a) << k.name;
            EXPECT_TRUE(new_b) << k.name << ": silently merged";
            EXPECT_NE(ia, ib) << k.name;
            EXPECT_EQ(store.probeCollisions(), forge ? 1u : 0u) << k.name;
            auto [ia2, dup_a] = store.insert(a, 0);
            auto [ib2, dup_b] = insertB();
            EXPECT_FALSE(dup_a) << k.name;
            EXPECT_FALSE(dup_b) << k.name;
            EXPECT_EQ(ia2, ia) << k.name;
            EXPECT_EQ(ib2, ib) << k.name;
        }
    }
}

TEST(StoreBackend, BucketTagAndLinkRoundTrip)
{
    // A bucket is tag | link: link = offset + 1 in the low
    // log2(capacity) bits, tag = the probe hash's bits above them up
    // to bit 31.  Checked at the smallest table and at the largest a
    // shard needs (2^28 - 1 entries at 3/4 load), links up to the
    // per-shard limit.
    const std::uint64_t hashes[] = {0, ~0ull, 0x0123456789abcdefull,
                                    mix64(1), mix64(2)};
    for (const std::uint64_t mask : {std::uint64_t{15},
                                      (std::uint64_t{1} << 29) - 1}) {
        const std::uint32_t max_off = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(mask - 1, StateStore::kOffsetMask - 1));
        for (const std::uint64_t h : hashes) {
            for (const std::uint32_t off : {0u, 1u, 7u, max_off}) {
                const std::uint32_t b =
                    ShardColumns::bucketFor(h, off, mask);
                EXPECT_NE(b, 0u);
                EXPECT_EQ(ShardColumns::linkOf(b, mask), off + 1)
                    << mask << " " << h << " " << off;
                EXPECT_TRUE(ShardColumns::tagMatches(b, h, mask));
                // Bits the tag does not hold never decide a match.
                EXPECT_TRUE(ShardColumns::tagMatches(
                    b, h ^ mask ^ (~0ull << 32), mask));
                // Every tag bit does.
                for (std::uint64_t bit = mask + 1; bit >> 32 == 0;
                     bit <<= 1) {
                    EXPECT_FALSE(ShardColumns::tagMatches(b, h ^ bit, mask))
                        << mask << " bit " << bit;
                }
            }
        }
    }
    // The per-shard limit itself is a valid link at the largest mask.
    const std::uint64_t big = (std::uint64_t{1} << 29) - 1;
    EXPECT_EQ(ShardColumns::linkOf(
                  ShardColumns::bucketFor(~0ull, StateStore::kOffsetMask - 1,
                                          big),
                  big),
              StateStore::kOffsetMask);
}

TEST(StoreBackend, TagOnlyMatchIsNotACollision)
{
    // Two states whose real probe hashes share the shard nibble and
    // the low 32 bits but differ above: in a 16-bucket shard the
    // second probes the first's home bucket and its tag matches.  The
    // store then reads the 64-bit hash off the first's cell; the pair
    // stays distinct and no collision is counted, because the full
    // probe hashes differ.
    constexpr std::uint64_t kKey = 0xf0000000ffffffffull;
    std::vector<std::pair<std::uint64_t, int>> keyed;
    const int scan = 1 << 20;
    keyed.reserve(scan);
    for (int i = 0; i < scan; ++i)
        keyed.emplace_back(probeState(i).hash() & kKey, i);
    std::sort(keyed.begin(), keyed.end());
    int ia = -1, ib = -1;
    for (std::size_t j = 1; j < keyed.size() && ia < 0; ++j) {
        if (keyed[j].first == keyed[j - 1].first &&
            probeState(keyed[j].second).hash() !=
                probeState(keyed[j - 1].second).hash()) {
            ia = keyed[j - 1].second;
            ib = keyed[j].second;
        }
    }
    ASSERT_GE(ia, 0) << "no tag-sharing pair among " << scan;
    const SystemState a = probeState(ia);
    const SystemState b = probeState(ib);
    for (const Kind &k : kKinds) {
        StoreConfig config = configOf(k);
        config.initialBuckets = 16 * StateStore::kNumShards;
        StateStore store(config);
        const auto [id_a, new_a] = store.insert(a, 0);
        const auto [id_b, new_b] = store.insert(b, 0);
        EXPECT_TRUE(new_a && new_b) << k.name << ": silently merged";
        EXPECT_NE(id_a, id_b) << k.name;
        EXPECT_EQ(store.probeCollisions(), 0u) << k.name;
        EXPECT_EQ(store.find(a), id_a) << k.name;
        EXPECT_EQ(store.find(b), id_b) << k.name;
    }
}

// ------------------------------------------- engine-level agreement

ExploreResult
runKind(const RuleSet &rules, const Scenario &sc,
        const InvariantSet &inv, ExploreOptions opt, const Kind &k,
        std::size_t threads)
{
    opt.store = k.kind;
    opt.threads = threads;
    Explorer ex(rules, sc, inv);
    return ex.run(opt);
}

void
expectAgreement(const ExploreResult &base, const ExploreResult &run,
                const std::string &what)
{
    EXPECT_EQ(base.numStates, run.numStates) << what;
    EXPECT_EQ(base.numTransitions, run.numTransitions) << what;
    EXPECT_EQ(base.maxDepth, run.maxDepth) << what;
    EXPECT_EQ(base.completed, run.completed) << what;
    EXPECT_EQ(base.ruleFireCounts, run.ruleFireCounts) << what;
    EXPECT_EQ(run.probeCollisions, 0u) << what;
}

TEST(StoreBackend, TwoDeviceCountsBitIdenticalAcrossKinds)
{
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config);
    Scenario sc = Scenario::freeRunScenario();
    InvariantSet inv = InvariantSet::full(config);

    ExploreResult base =
        runKind(rules, sc, inv, {}, kKinds[0], 1);
    ASSERT_TRUE(base.completed);
    ASSERT_FALSE(base.violation.has_value());
    for (const Kind &k : kKinds) {
        for (std::size_t threads : {1u, 4u}) {
            expectAgreement(base,
                            runKind(rules, sc, inv, {}, k, threads),
                            std::string("2dev ") + k.name + " @" +
                                std::to_string(threads));
        }
    }
}

TEST(StoreBackend, ThreeDeviceSymCountsBitIdenticalAcrossKinds)
{
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config, 3);
    Scenario sc = Scenario::freeRunScenario(3);
    InvariantSet inv = InvariantSet::full(config, 3);
    ExploreOptions opt;
    opt.symmetry = SymmetryMode::On;

    ExploreResult base = runKind(rules, sc, inv, opt, kKinds[0], 1);
    ASSERT_TRUE(base.completed);
    EXPECT_GT(base.numStates, 100000u); // the 144,294-orbit space
    for (const Kind &k : kKinds) {
        ExploreResult run = runKind(rules, sc, inv, opt, k, 4);
        expectAgreement(base, run,
                        std::string("3dev sym ") + k.name);
#if defined(__linux__)
        if (storeKindMmap(k.kind)) {
            EXPECT_GT(run.storeFileBytes, 0u) << k.name;
            EXPECT_GT(run.storeMappedBytes, 0u) << k.name;
        }
#endif
    }
}

TEST(StoreBackend, ShardFullStopsBothEnginesOnEveryKind)
{
    // A 64-entry store cannot hold the 2-device free-run space; the
    // StoreFullError must become a graceful governed stop on every
    // kind under both schedules, never an escaping exception.
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config);
    Scenario sc = Scenario::freeRunScenario();
    InvariantSet inv = InvariantSet::full(config);

    for (const Kind &k : kKinds) {
        for (Schedule sched :
             {Schedule::Bfs, Schedule::WorkSteal}) {
            ExploreOptions opt;
            opt.storeCapacity = 64;
            opt.schedule = sched;
            ExploreResult res;
            ASSERT_NO_THROW(
                res = runKind(rules, sc, inv, opt, k, 4))
                << k.name;
            EXPECT_EQ(res.stopReason, StopReason::ShardFull)
                << k.name << " sched "
                << static_cast<int>(sched);
            EXPECT_FALSE(res.completed) << k.name;
            EXPECT_FALSE(res.violation.has_value()) << k.name;
        }
    }
}

} // namespace
} // namespace cxl
