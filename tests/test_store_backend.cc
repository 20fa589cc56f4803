/**
 * @file
 * Backend conformance suite for the layered visited-state store: the
 * two StoreKinds (ram, mmap) must present identical packed-id
 * semantics through the StateStore façade — insert/lookup/dedup,
 * depth labels, every cell kept, level-barrier growth, the
 * StoreFullError capacity path (store-level and through the engine),
 * identity by slice ids under a forged or shared id hash, find() of
 * states never stored, cells of 3-byte ids at every width and at the
 * top of the id space, the slice tables' id limit — and the engine
 * must produce bit-identical state/transition counts on both kinds at
 * 2-device and symmetry-reduced 3-device spaces.  On Linux the in-RAM
 * kind's memory is checked page by page (mincore): it is mapped on
 * demand and never metered as file bytes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
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

/** The first 40,000 probeStates that @p store routes to shard 0 by
 * their slice ids (interned into @p store as it scans), so one shard
 * accumulates enough entries to fill several arena blocks and grow
 * its buckets many times. */
std::vector<SystemState>
shardZeroStates(StateStore &store)
{
    std::vector<SystemState> out;
    for (int i = 0; out.size() < 40000; ++i) {
        SystemState s = probeState(i);
        if (StateStoreTestPeer::shardOf(store, s) == 0)
            out.push_back(s);
    }
    return out;
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

TEST(StoreBackend, EveryKindKeepsEveryCell)
{
    // Enough shard-0 entries to fill several arena blocks (2^15 cells
    // each at 2 devices).  Every entry decodes and deduplicates by
    // its cell on both kinds, before and after the no-op sealLevel
    // the benchmark harness still calls.
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        const std::vector<SystemState> states = shardZeroStates(store);
        std::vector<std::uint32_t> ids;
        for (const SystemState &s : states) {
            ids.push_back(store.insert(s, 0).first);
            ASSERT_EQ(StateStore::shardOf(ids.back()), 0u) << k.name;
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

/** One shard's columns over an arena of their own, for tests that
 * drive growth without a store. */
struct LoneColumns {
    std::unique_ptr<ShardMem> mem = makeShardMem(StoreBackend::InRam, "");
    StateArena cells;
    ShardColumns cols;

    LoneColumns()
    {
        cells.init(mem.get(), StateStore::kOffsetMask);
        cols.init(mem.get(), ShardColumns::kCapacityQuantum,
                  StateStore::kOffsetMask, cells);
    }

    /** Insert-time growth, then one entry (its cell one id). */
    void
    insertOne()
    {
        cols.maybeGrow();
        const std::uint32_t id = cols.count();
        std::byte cell[kIdBytes];
        packIds(&id, 1, cell);
        cells.append(cols.append(0), cell, 1);
    }
};

TEST(StoreBackend, LevelBarrierGrowthSizesForTheLevelJustInserted)
{
    // growFor(n) reaches the capacity insert-time growth reaches by n
    // entries, so a level as large as its estimate inserts without a
    // rehash.  Checked at small counts and on both sides of every
    // growth step up to 5,000 entries.
    constexpr std::uint32_t kMax = 5000;
    LoneColumns stepped;
    std::vector<std::uint64_t> capacity_at{stepped.cols.capacity()};
    std::vector<std::uint32_t> counts = {1, 11, 12, 13, 100, kMax};
    for (std::uint32_t n = 1; n <= kMax; ++n) {
        stepped.insertOne();
        capacity_at.push_back(stepped.cols.capacity());
        if (capacity_at[n] != capacity_at[n - 1]) {
            counts.push_back(n - 1);
            counts.push_back(n);
        }
    }
    ASSERT_GE(counts.size(), 6u + 2 * 10) << "expected 10 growth steps";
    for (const std::uint32_t n : counts) {
        LoneColumns grown;
        grown.cols.growFor(n);
        EXPECT_EQ(grown.cols.capacity(), capacity_at[n]) << n;
    }

    // Through the store: a barrier after a level of ~40,000 shard-0
    // entries grows shard 0 for another such level, re-slotting every
    // entry from its cell; each one is still found at its id.
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        const std::vector<SystemState> states = shardZeroStates(store);
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
    }
}

#if defined(__linux__)
TEST(StoreBackend, MmapKindReportsMappedBytes)
{
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        const std::vector<SystemState> states = shardZeroStates(store);
        for (const SystemState &s : states)
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
        EXPECT_GE(detail::memfdBytes(), states.size() * 2 * kIdBytes)
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

/** A ShardMem that records the chunks its backend hands out. */
class ChunkRecorder final : public ShardMem
{
  public:
    explicit ChunkRecorder(std::unique_ptr<ShardMem> backend)
        : backend_(std::move(backend))
    {
    }

    void *flatGrow(std::size_t bytes) override
    {
        return backend_->flatGrow(bytes);
    }
    void *chunkAlloc(std::size_t bytes) override
    {
        chunks.push_back(backend_->chunkAlloc(bytes));
        return chunks.back();
    }
    void *blockAlloc(std::uint32_t index, std::size_t bytes) override
    {
        return backend_->blockAlloc(index, bytes);
    }

    std::vector<void *> chunks;

  private:
    std::unique_ptr<ShardMem> backend_;
};

TEST(StoreBackend, DepthChunksAreBackedOnlyWhereWritten)
{
    // A fresh chunk has no resident page; the depth column constructs
    // a one-byte label only when its entry is appended, so a shard with
    // one entry holds one page of its label chunk, and a page backs
    // 4,096 entries.  The wide column has no chunk until a depth
    // reaches 255, and then backs only the page it writes.
    constexpr std::size_t kChunkBytes =
        ShardColumns::kDepthChunkSize * sizeof(std::atomic<std::uint8_t>);
    static_assert(kChunkBytes == 64 * 1024);
    constexpr std::size_t kWideBytes =
        ShardColumns::kDepthChunkSize * sizeof(std::atomic<std::uint32_t>);
    {
        const std::unique_ptr<ShardMem> mem =
            makeShardMem(StoreBackend::InRam, "");
        const void *chunk = mem->chunkAlloc(kChunkBytes);
        EXPECT_EQ(residentPages(chunk, kChunkBytes), 0);
    }
    const std::uint32_t per_page =
        static_cast<std::uint32_t>(testPageSize());
    for (const Kind &k : kKinds) {
        const StoreConfig config = configOf(k);
        ChunkRecorder mem(makeShardMem(config.backend, config.dir));
        StateArena cells;
        cells.init(&mem, StateStore::kOffsetMask);
        ShardColumns cols;
        cols.init(&mem, 16, StateStore::kOffsetMask, cells);
        cols.append(7);
        ASSERT_EQ(mem.chunks.size(), 1u) << k.name;
        EXPECT_EQ(cols.depthOf(0), 7u);
        EXPECT_EQ(residentPages(mem.chunks[0], kChunkBytes), 1) << k.name;
        while (cols.count() < per_page)
            cols.append(ShardColumns::kWide - 1);
        EXPECT_EQ(residentPages(mem.chunks[0], kChunkBytes), 1) << k.name;
        cols.append(ShardColumns::kWide - 1);
        EXPECT_EQ(residentPages(mem.chunks[0], kChunkBytes), 2) << k.name;
        EXPECT_EQ(mem.chunks.size(), 1u) << k.name << ": a wide chunk "
                                                     "below depth 255";
        const std::uint32_t deep = cols.append(ShardColumns::kWide);
        ASSERT_EQ(mem.chunks.size(), 2u) << k.name;
        EXPECT_EQ(residentPages(mem.chunks[1], kWideBytes), 1) << k.name;
        EXPECT_EQ(cols.depthOf(deep), 255u) << k.name;
        EXPECT_EQ(cols.depthOf(deep - 1), 254u) << k.name;
        cols.append(70000);
        EXPECT_EQ(mem.chunks.size(), 2u) << k.name;
        EXPECT_EQ(cols.depthOf(deep + 1), 70000u) << k.name;
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

TEST(StoreBackend, CellsRoundTripAtEveryWidthAndIdExtreme)
{
    // A cell is its ids packed 3 bytes each.  Ids at the 24-bit
    // extremes (stripe 15's largest local id, stripe 15's first, the
    // largest local id of stripe 0, the top bit alone) come back, hash
    // as their values do and compare equal to their packed selves at
    // every width, on both sides of a block boundary.  The last cell
    // of a block ends where the block does: no read of it may take a
    // wider word.
    const std::uint32_t extremes[] = {0xffffff, 0xf00000, 0x0fffff,
                                      0x800000, 0x000001, 0};
    auto idsAt = [&](std::uint32_t off, std::uint32_t width) {
        std::array<std::uint32_t, kMaxDevices> ids{};
        for (std::uint32_t d = 0; d < width; ++d)
            ids[d] = extremes[(off + d) % std::size(extremes)];
        return ids;
    };
    constexpr std::uint32_t kBlock = StateArena::kBlockCells;
    for (const Kind &k : kKinds) {
        const StoreConfig config = configOf(k);
        for (std::uint32_t width = 1; width <= kMaxDevices; ++width) {
            const std::unique_ptr<ShardMem> mem =
                makeShardMem(config.backend, config.dir);
            StateArena arena;
            arena.init(mem.get(), StateStore::kOffsetMask);
            for (std::uint32_t off = 0; off < kBlock + 2; ++off) {
                std::byte cell[kMaxCellBytes];
                packIds(idsAt(off, width).data(), width, cell);
                arena.append(off, cell, width);
            }
            const std::uint32_t bytes = kIdBytes * width;
            ASSERT_EQ(arena.width(), width);
            EXPECT_EQ(arena.cellAt(kBlock - 1) + bytes,
                      arena.cellAt(0) + std::size_t{kBlock} * bytes);
            for (const std::uint32_t off :
                 {0u, 1u, 5u, kBlock - 1, kBlock, kBlock + 1}) {
                const auto ids = idsAt(off, width);
                const std::byte *cell = arena.cellAt(off);
                for (std::uint32_t d = 0; d < width; ++d) {
                    EXPECT_EQ(unpackId(cell + kIdBytes * d), ids[d])
                        << k.name << " width " << width << " off " << off;
                }
                EXPECT_EQ(hashCell(cell, width), hashIds(ids.data(), width));
                std::byte probe[kMaxCellBytes];
                packIds(ids.data(), width, probe);
                EXPECT_EQ(std::memcmp(probe, cell, bytes), 0);
                // Every byte of a cell tells it apart.
                for (std::uint32_t b = 0; b < bytes; ++b) {
                    probe[b] ^= std::byte{0x40};
                    EXPECT_NE(std::memcmp(probe, cell, bytes), 0)
                        << k.name << " width " << width << " byte " << b;
                    probe[b] ^= std::byte{0x40};
                }
            }
        }
    }
}

/** A 4-device state of index @p i: a lead and three device records
 * that mostly differ between indexes. */
SystemState
fourDeviceState(int i)
{
    SystemState s;
    s.ndev = 4;
    s.counter = static_cast<std::uint8_t>(i & 0xff);
    for (std::uint32_t d = 0; d < 4; ++d) {
        s.dev[d].val = static_cast<Val>((i >> (2 * d)) + d);
        s.dev[d].pc = static_cast<std::uint8_t>((i + d) & 3);
    }
    return s;
}

TEST(StoreBackend, IdsAtTheTopOfAStripeRoundTripUntilItOverflows)
{
    // Stripe 15 of both slice tables is forged to have room for two
    // more slices, so the next two it interns take ids 0xfffffe and
    // 0xffffff, the largest there are.  States whose cells hold them
    // are stored, found and decoded like any other; the slice after
    // them overflows the stripe, and the store reports that as a full
    // store, which the explorers turn into a ShardFull stop.
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        StateStoreTestPeer::forgeSliceRoom(store, 2, 15);
        std::vector<std::pair<std::uint32_t, SystemState>> stored;
        int overflows = 0;
        for (int i = 0; i < 400; ++i) {
            const SystemState s = fourDeviceState(i);
            try {
                const auto [id, fresh] = store.insert(s, 0);
                ASSERT_TRUE(fresh) << k.name << " " << i;
                stored.emplace_back(id, s);
            } catch (const StoreFullError &e) {
                ++overflows;
                EXPECT_EQ(e.shard(), StateStore::kNumShards);
                EXPECT_NE(std::string(e.what()).find(
                              "stripe 15 full (2^20 distinct slices per "
                              "stripe)"),
                          std::string::npos)
                    << e.what();
            }
        }
        EXPECT_GT(overflows, 0) << k.name;
        bool top_lead = false, top_device = false;
        for (const auto &[id, s] : stored) {
            const auto ids = StateStoreTestPeer::cellIds(store, id);
            top_lead |= ids[0] == 0xffffff;
            top_device |= std::find(ids.begin() + 1, ids.end(),
                                    0xffffffu) != ids.end();
            SystemState decoded;
            store.stateInto(id, decoded);
            EXPECT_TRUE(decoded == s) << k.name;
            EXPECT_EQ(store.find(s), id) << k.name;
            const auto [again, fresh] = store.insert(s, 0);
            EXPECT_FALSE(fresh) << k.name;
            EXPECT_EQ(again, id) << k.name;
        }
        EXPECT_TRUE(top_lead) << k.name;
        EXPECT_TRUE(top_device) << k.name;
        EXPECT_EQ(store.size(), stored.size()) << k.name;
    }
}

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

TEST(StoreBackend, ForgedIdHashKeepsStatesDistinctOnEveryKind)
{
    // b forged onto a's id hash: the bucket tag matches, the cells'
    // ids do not, so the pair stays distinct, as it does under b's
    // own hash.
    const SystemState a = initialAllInvalid();
    const SystemState b = initialBothShared(1);
    ASSERT_FALSE(a == b);
    for (const Kind &k : kKinds) {
        for (const bool forge : {false, true}) {
            StateStore store(configOf(k));
            const std::uint64_t a_hash =
                StateStoreTestPeer::idHash(store, a);
            auto insertB = [&] {
                return forge ? StateStoreTestPeer::insertForged(store, b,
                                                                a_hash)
                             : store.insert(b, 0);
            };
            auto [ia, new_a] = store.insert(a, 0);
            auto [ib, new_b] = insertB();
            EXPECT_TRUE(new_a) << k.name;
            EXPECT_TRUE(new_b) << k.name << ": silently merged";
            EXPECT_NE(ia, ib) << k.name;
            auto [ia2, dup_a] = store.insert(a, 0);
            auto [ib2, dup_b] = insertB();
            EXPECT_FALSE(dup_a) << k.name;
            EXPECT_FALSE(dup_b) << k.name;
            EXPECT_EQ(ia2, ia) << k.name;
            EXPECT_EQ(ib2, ib) << k.name;
            SystemState decoded;
            store.stateInto(ib, decoded);
            EXPECT_TRUE(decoded == b) << k.name;
        }
    }
}

TEST(StoreBackend, FindReturnsNulloptForStatesNeverStored)
{
    // a and b are stored; c takes its lead slice from a and its device
    // slice from b, so every slice of c is interned but c never was.
    // d carries a device slice no state ever had.  Neither is found.
    SystemState a = initialAllInvalid();
    a.dev[1].val = 1;
    SystemState b = initialAllInvalid();
    b.counter = 1;
    b.dev[1].val = 2;
    SystemState c = a;
    c.dev[1] = b.dev[1];
    SystemState d = a;
    d.dev[1].val = 3;
    ASSERT_FALSE(c == a);
    ASSERT_FALSE(c == b);
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        const std::uint32_t ia = store.insert(a, 0).first;
        const std::uint32_t ib = store.insert(b, 0).first;
        EXPECT_EQ(store.find(a), ia) << k.name;
        EXPECT_EQ(store.find(b), ib) << k.name;
        EXPECT_EQ(store.find(c), std::nullopt) << k.name;
        EXPECT_EQ(store.find(d), std::nullopt) << k.name;
        // Both are fresh when inserted after all.
        EXPECT_TRUE(store.insert(c, 0).second) << k.name;
        EXPECT_TRUE(store.insert(d, 0).second) << k.name;
        EXPECT_EQ(store.size(), 4u) << k.name;
    }
}

TEST(StoreBackend, BucketTagAndLinkRoundTrip)
{
    // A bucket is tag | link: link = offset + 1 in the low
    // linkBitsFor(capacity) bits, tag = the id hash's low bits above
    // them up to bit 31.  Checked at capacities from the smallest
    // table to the largest a shard can grow to: one step past the
    // largest capacity that does not hold 2^28 - 1 entries at 4/5
    // load.  Links run up to the per-shard limit.
    constexpr std::uint64_t kLimit = StateStore::kOffsetMask;
    constexpr std::uint64_t q = ShardColumns::kCapacityQuantum;
    std::uint64_t grown = q;
    while (!ShardColumns::fits(kLimit, grown))
        grown = ShardColumns::nextCapacity(grown);
    const std::uint64_t tightest = (kLimit * 5 / 4) / q * q;
    ASSERT_FALSE(ShardColumns::fits(kLimit, tightest));
    const std::uint64_t largest = ShardColumns::nextCapacity(tightest);
    ASSERT_TRUE(ShardColumns::fits(kLimit, largest));
    ASSERT_GE(largest, grown);

    const std::uint64_t hashes[] = {0, ~0ull, 0x0123456789abcdefull,
                                    mix64(1), mix64(2)};
    for (const std::uint64_t cap :
         {q, std::uint64_t{48}, std::uint64_t{80}, std::uint64_t{1040},
          std::uint64_t{5120}, grown, largest}) {
        const std::uint32_t bits = ShardColumns::linkBitsFor(cap);
        EXPECT_GE(32 - bits, 3u) << cap << ": too few tag bits";
        const std::uint32_t max_off = static_cast<std::uint32_t>(
            std::min(cap * 4 / 5, kLimit) - 1);
        for (const std::uint64_t h : hashes) {
            for (const std::uint32_t off : {0u, 1u, 7u, max_off}) {
                const std::uint32_t b =
                    ShardColumns::bucketFor(h, off, bits);
                EXPECT_NE(b, 0u);
                EXPECT_EQ(ShardColumns::linkOf(b, bits), off + 1)
                    << cap << " " << h << " " << off;
                EXPECT_TRUE(ShardColumns::tagMatches(b, h, bits));
                // Hash bits the tag does not hold never decide a
                // match: the high ones, which name the home slot.
                EXPECT_TRUE(ShardColumns::tagMatches(
                    b, h ^ (~0ull << (32 - bits)), bits));
                // Every tag bit does.
                for (std::uint32_t i = 0; i < 32 - bits; ++i) {
                    EXPECT_FALSE(ShardColumns::tagMatches(
                        b, h ^ (std::uint64_t{1} << i), bits))
                        << cap << " bit " << i;
                }
            }
        }
    }
    // The per-shard limit itself is a valid link at the largest
    // capacity.
    const std::uint32_t big = ShardColumns::linkBitsFor(largest);
    EXPECT_EQ(ShardColumns::linkOf(
                  ShardColumns::bucketFor(~0ull, kLimit - 1, big), big),
              kLimit);
}

TEST(StoreBackend, GrowthKeepsEveryShardBetween53And80PercentFull)
{
    // Insert-time growth steps by 3/2 before the load would pass 4/5,
    // so once a shard has grown its load stays in [8/15, 0.8], up to
    // the rounding of its capacity to a whole quantum.
    constexpr std::uint64_t q = ShardColumns::kCapacityQuantum;
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        const ShardColumns &cols = StateStoreTestPeer::columns(store, 0);
        const std::uint64_t initial = cols.capacity();
        int growths = 0;
        std::uint64_t last = initial;
        for (const SystemState &s : shardZeroStates(store)) {
            store.insert(s, 0);
            const std::uint64_t cap = cols.capacity();
            growths += cap != last;
            last = cap;
            if (cap == initial)
                continue;
            const std::uint64_t n = cols.count();
            ASSERT_LE(n * 5, cap * 4) << k.name << " " << n << "/" << cap;
            ASSERT_GE(n * 15, (cap - q) * 8)
                << k.name << " " << n << "/" << cap;
        }
        EXPECT_GT(growths, 10) << k.name;
    }
}

TEST(StoreBackend, ReservedStoreHoldsWhatGrowthWouldReach)
{
    // reserveStates sizes each shard by growth's own rule: a store
    // reserved for n entries per shard ends with the capacity of one
    // grown to n, and never rehashes on the way there.
    for (const Kind &k : kKinds) {
        StateStore grown(configOf(k));
        const std::vector<SystemState> states = shardZeroStates(grown);
        for (const SystemState &s : states)
            grown.insert(s, 0);

        StateStore reserved(configOf(k));
        const std::vector<SystemState> same = shardZeroStates(reserved);
        ASSERT_EQ(same.size(), states.size());
        reserved.reserveStates(StateStore::kNumShards *
                               (std::uint64_t{same.size()} - 1));
        const ShardColumns &cols =
            StateStoreTestPeer::columns(reserved, 0);
        const std::uint64_t cap = cols.capacity();
        for (const SystemState &s : same) {
            reserved.insert(s, 0);
            ASSERT_EQ(cols.capacity(), cap) << k.name << ": rehashed";
        }
        EXPECT_EQ(cap, StateStoreTestPeer::columns(grown, 0).capacity())
            << k.name;
    }
}

TEST(StoreBackend, ProbeRunsWrapFromTheLastSlotToTheFirst)
{
    // Forged id hashes whose low 32 bits are near 2^32 all home to a
    // shard's last slot, so their probe run wraps to slot 0.  Each
    // entry is found while so linked, and by its real id hash once
    // growth re-slots it; entries forged after the growth wrap the
    // grown table too.
    constexpr int kRun = 8;
    auto forged = [](int i) {
        return std::uint64_t{0xffffffffu} - static_cast<std::uint64_t>(i);
    };
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        const ShardColumns &cols = StateStoreTestPeer::columns(store, 0);
        // States whose real id hash routes to shard 0 too, so find()
        // looks where the forged inserts put them.
        std::vector<SystemState> states;
        for (int i = 0; states.size() < 2 * kRun; ++i) {
            if (StateStoreTestPeer::shardOf(store, probeState(i)) == 0)
                states.push_back(probeState(i));
        }
        std::vector<std::uint32_t> ids;
        auto insertRun = [&](int from) {
            std::vector<std::uint32_t> offs;
            for (int i = from; i < from + kRun; ++i) {
                ASSERT_EQ(cols.homeOf(forged(i)), cols.capacity() - 1);
                const auto [id, fresh] = StateStoreTestPeer::insertForged(
                    store, states[i], forged(i));
                ASSERT_TRUE(fresh) << k.name << " " << i;
                ASSERT_EQ(StateStore::shardOf(id), 0u);
                ids.push_back(id);
                offs.push_back(id & StateStore::kOffsetMask);
            }
            // The run went past the last slot and on from slot 0.
            const std::uint32_t first =
                ShardColumns::linkOf(cols.bucketAt(0), cols.linkBits());
            ASSERT_NE(first, 0u) << k.name;
            EXPECT_NE(std::find(offs.begin(), offs.end(), first - 1),
                      offs.end())
                << k.name;
            for (int i = from; i < from + kRun; ++i) {
                const auto [id, fresh] = StateStoreTestPeer::insertForged(
                    store, states[i], forged(i));
                EXPECT_FALSE(fresh) << k.name << " " << i;
                EXPECT_EQ(id, ids[static_cast<std::size_t>(i)]) << k.name;
            }
        };
        insertRun(0);
        const std::uint64_t before = cols.capacity();
        store.reserveStates(StateStore::kNumShards * 1000);
        ASSERT_GT(cols.capacity(), before) << k.name;
        for (int i = 0; i < kRun; ++i)
            EXPECT_EQ(store.find(states[i]), ids[i]) << k.name << " " << i;
        insertRun(kRun);
        for (int i = 0; i < kRun; ++i)
            EXPECT_EQ(store.find(states[i]), ids[i]) << k.name << " " << i;
    }
}

TEST(StoreBackend, TagMatchIsSettledByTheCellIds)
{
    // Two states whose real id hashes share the shard nibble and the
    // low 32 bits but differ above: in a 16-bucket shard the second
    // probes the first's home bucket and its tag matches.  The store
    // compares the first's cell with the second's ids, and the pair
    // stays distinct.  Ids depend on the interning order, so each
    // store scans its own candidates.
    constexpr std::uint64_t kKey = 0xf0000000ffffffffull;
    const int scan = 1 << 20;
    for (const Kind &k : kKinds) {
        StoreConfig config = configOf(k);
        config.initialBuckets = 16 * StateStore::kNumShards;
        StateStore store(config);
        std::vector<std::pair<std::uint64_t, int>> keyed;
        keyed.reserve(scan);
        std::vector<std::uint64_t> hashes(scan);
        for (int i = 0; i < scan; ++i) {
            hashes[i] = StateStoreTestPeer::idHash(store, probeState(i));
            keyed.emplace_back(hashes[i] & kKey, i);
        }
        std::sort(keyed.begin(), keyed.end());
        int ia = -1, ib = -1;
        for (std::size_t j = 1; j < keyed.size() && ia < 0; ++j) {
            if (keyed[j].first == keyed[j - 1].first &&
                hashes[keyed[j].second] != hashes[keyed[j - 1].second]) {
                ia = keyed[j - 1].second;
                ib = keyed[j].second;
            }
        }
        ASSERT_GE(ia, 0) << k.name << ": no tag-sharing pair among "
                         << scan;
        const SystemState a = probeState(ia);
        const SystemState b = probeState(ib);
        const auto [id_a, new_a] = store.insert(a, 0);
        const auto [id_b, new_b] = store.insert(b, 0);
        EXPECT_TRUE(new_a && new_b) << k.name << ": silently merged";
        EXPECT_NE(id_a, id_b) << k.name;
        EXPECT_EQ(store.find(a), id_a) << k.name;
        EXPECT_EQ(store.find(b), id_b) << k.name;
        SystemState decoded;
        store.stateInto(id_b, decoded);
        EXPECT_TRUE(decoded == b) << k.name;
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

TEST(StoreBackend, ShardFullStopsTheEngineOnEveryKind)
{
    // A 64-entry store cannot hold the 2-device free-run space; the
    // StoreFullError must become a graceful governed stop on every
    // kind, never an escaping exception.
    ProtocolConfig config = ProtocolConfig::correct();
    RuleSet rules(config);
    Scenario sc = Scenario::freeRunScenario();
    InvariantSet inv = InvariantSet::full(config);

    for (const Kind &k : kKinds) {
        ExploreOptions opt;
        opt.storeCapacity = 64;
        ExploreResult res;
        ASSERT_NO_THROW(res = runKind(rules, sc, inv, opt, k, 4))
            << k.name;
        EXPECT_EQ(res.stopReason, StopReason::ShardFull) << k.name;
        EXPECT_FALSE(res.completed) << k.name;
        EXPECT_FALSE(res.violation.has_value()) << k.name;
    }
}

} // namespace
} // namespace cxl
