/**
 * @file
 * Backend conformance suite for the layered visited-state store: the
 * three StoreKinds (ram, ram-compact, mmap) must present identical
 * packed-id semantics through the StateStore façade —
 * insert/lookup/dedup, depth relabeling, seal/retention per kind's
 * contract, the StoreFullError capacity path (store-level and through
 * both engines), forged probe-hash collision detection — and the
 * engines must produce bit-identical state/transition counts on every
 * kind at 2-device and symmetry-reduced 3-device spaces.  On Linux the
 * in-RAM kinds' memory is checked page by page (mincore): it is mapped
 * on demand, unmapped when dropped, and never metered as file bytes.
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
    {"ram-compact", StoreKind::InRamCompact},
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

TEST(StoreBackend, StoreSpellingsResolveToThreeKinds)
{
    // mmap releases sealed levels like ram-compact, so it is compact;
    // the mmap-compact spelling names the same kind.
    EXPECT_EQ(storeKindFromWord("ram"), StoreKind::InRam);
    EXPECT_EQ(storeKindFromWord("ram-compact"), StoreKind::InRamCompact);
    EXPECT_EQ(storeKindFromWord("mmap"), StoreKind::Mmap);
    EXPECT_EQ(storeKindFromWord("mmap-compact"), StoreKind::Mmap);
    EXPECT_EQ(storeKindFromWord("disk"), std::nullopt);
    EXPECT_FALSE(storeKindCompact(StoreKind::InRam));
    EXPECT_TRUE(storeKindCompact(StoreKind::InRamCompact));
    EXPECT_TRUE(storeKindCompact(StoreKind::Mmap));

    // --compact layers onto --store: ram becomes ram-compact, mmap
    // stays mmap; a compact bit of false on mmap is moot too.
    EXPECT_EQ(storeKindOf(true, false), StoreKind::Mmap);
    EXPECT_EQ(storeKindOf(true, true), StoreKind::Mmap);
    EXPECT_EQ(storeKindOf(false, true), StoreKind::InRamCompact);
    EXPECT_EQ(storeKindOf(false, false), StoreKind::InRam);

    for (const Kind &k : kKinds)
        EXPECT_STREQ(storeKindWord(k.kind), k.name);
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
 * nibble, so one shard accumulates enough entries to fill and drop
 * arena blocks — on any kind, ram included, which recomputes hashes
 * from its cells and so takes no forged one. */
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
                probeState(i), StateStore::kNoParent,
                static_cast<std::uint16_t>(i & 0x3f),
                static_cast<std::uint32_t>(i & 7));
            ASSERT_TRUE(fresh) << k.name << " i=" << i;
            ids.push_back(id);
        }
        EXPECT_EQ(store.size(), static_cast<std::size_t>(n))
            << k.name;
        // Re-inserting every state dedups onto the original id.
        for (int i = 0; i < n; ++i) {
            auto [id, fresh] = store.insert(
                probeState(i), StateStore::kNoParent, 0,
                static_cast<std::uint32_t>(i & 7));
            EXPECT_FALSE(fresh) << k.name << " i=" << i;
            EXPECT_EQ(id, ids[static_cast<std::size_t>(i)])
                << k.name << " i=" << i;
        }
        EXPECT_EQ(store.size(), static_cast<std::size_t>(n))
            << k.name;
        // Bytes round-trip and the breadcrumbs stuck.
        for (int i = 0; i < n; i += 97) {
            const std::uint32_t id =
                ids[static_cast<std::size_t>(i)];
            SystemState decoded;
            store.stateInto(id, decoded);
            EXPECT_TRUE(decoded == probeState(i))
                << k.name << " i=" << i;
            EXPECT_EQ(store.ruleAt(id),
                      static_cast<std::uint16_t>(i & 0x3f))
                << k.name;
            EXPECT_EQ(store.depthAt(id),
                      static_cast<std::uint32_t>(i & 7))
                << k.name;
            EXPECT_EQ(store.parentAt(id), StateStore::kNoParent)
                << k.name;
        }
    }
}

TEST(StoreBackend, BatchRelabelImprovesDepthOnEveryKind)
{
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        auto [root, fresh_root] =
            store.insert(probeState(0), StateStore::kNoParent, 0, 0);
        ASSERT_TRUE(fresh_root) << k.name;
        auto [id, fresh] = store.insert(probeState(1), root, 7, 9);
        ASSERT_TRUE(fresh) << k.name;
        EXPECT_EQ(store.depthAt(id), 9u) << k.name;

        // A duplicate at a smaller depth relabels depth, parent and
        // rule in place and reports improved.
        StateStore::BatchItem item;
        item.state = probeState(1);
        item.hash = item.state.hash();
        item.parent = root;
        item.rule = 3;
        item.depth = 2;
        store.insertBatch(&item, 1);
        EXPECT_FALSE(item.inserted) << k.name;
        EXPECT_TRUE(item.improved) << k.name;
        EXPECT_EQ(item.id, id) << k.name;
        EXPECT_EQ(store.depthAt(id), 2u) << k.name;
        EXPECT_EQ(store.parentAt(id), root) << k.name;
        EXPECT_EQ(store.ruleAt(id), 3u) << k.name;

        // A duplicate at a larger depth changes nothing.
        item.depth = 5;
        item.rule = 11;
        store.insertBatch(&item, 1);
        EXPECT_FALSE(item.inserted) << k.name;
        EXPECT_FALSE(item.improved) << k.name;
        EXPECT_EQ(store.depthAt(id), 2u) << k.name;
        EXPECT_EQ(store.ruleAt(id), 3u) << k.name;
    }
}

TEST(StoreBackend, SealRetentionFollowsEachKindsContract)
{
    // Enough shard-0 entries that whole arena blocks (2^18 bytes of
    // cells) fall below two seal boundaries.
    const std::vector<SystemState> &states = shardZeroStates();
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        std::vector<std::uint32_t> ids;
        for (const SystemState &s : states) {
            ids.push_back(
                store.insert(s, StateStore::kNoParent, 0, 0).first);
        }
        store.sealLevel();
        store.sealLevel();

        // The newest level — the next BFS frontier — decodes on every
        // kind; the InRam full store releases nothing, so its sealed
        // entries decode too.  (Which blocks the releasing kinds drop
        // is pinned by Compaction.CompactStoreReleasesSealedLevels and
        // MmapKindsReportAndReleaseMappedBytes.)
        SystemState decoded;
        store.stateInto(ids.back(), decoded);
        EXPECT_TRUE(decoded == states.back()) << k.name;
        if (k.kind == StoreKind::InRam) {
            store.stateInto(ids.front(), decoded);
            EXPECT_TRUE(decoded == states.front()) << k.name;
        }

        // Deduplication survives sealing on every kind (fingerprint
        // identity where the bytes are released).
        auto [id, fresh] =
            store.insert(states.front(), StateStore::kNoParent, 0, 0);
        EXPECT_FALSE(fresh) << k.name;
        EXPECT_EQ(id, ids.front()) << k.name;
        EXPECT_EQ(store.size(), states.size()) << k.name;
    }
}

#if defined(__linux__)
TEST(StoreBackend, MmapKindsReportAndReleaseMappedBytes)
{
    for (const Kind &k : kKinds) {
        StateStore store(configOf(k));
        for (const SystemState &s : shardZeroStates())
            store.insert(s, StateStore::kNoParent, 0, 0);
        if (!storeKindMmap(k.kind)) {
            EXPECT_EQ(store.mappedBytes(), 0u) << k.name;
            EXPECT_EQ(store.backingFileBytes(), 0u) << k.name;
            continue;
        }
        const std::uint64_t mapped = store.mappedBytes();
        EXPECT_GT(mapped, 0u) << k.name;
        EXPECT_GT(store.backingFileBytes(), 0u) << k.name;
        // Two seals drop every whole block below the first boundary:
        // the mapped window shrinks, the backing file does not.
        const std::uint64_t file_before = store.backingFileBytes();
        store.sealLevel();
        store.sealLevel();
        EXPECT_LT(store.mappedBytes(), mapped) << k.name;
        EXPECT_GE(store.backingFileBytes(), file_before) << k.name;
    }
}

TEST(StoreBackend, DroppedBlocksLeaveTheMemfd)
{
    // Without a store directory the mmap kinds back their arenas with
    // memfd, whose pages stay in RAM after munmap; a dropped block is
    // punched out of the file, so its allocated bytes must fall.
    for (const Kind &k : kKinds) {
        if (!storeKindMmap(k.kind))
            continue;
        StateStore store(configOf(k));
        for (const SystemState &s : shardZeroStates())
            store.insert(s, StateStore::kNoParent, 0, 0);
        const std::uint64_t before = detail::memfdBytes();
        ASSERT_GT(before, 0u) << k.name << ": no memfd backing";
        store.sealLevel();
        store.sealLevel();
        EXPECT_LT(detail::memfdBytes(), before) << k.name;
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

TEST(StoreBackend, RamCompactDroppedBlocksAreUnmapped)
{
    // The arena a ram-compact shard builds: the InRam backend with
    // sealed cells released.  A dropped block goes back to the OS at
    // the seal, so its old range is no longer mapped at all.
    const std::unique_ptr<ShardMem> mem =
        makeShardMem(StoreBackend::InRam, "");
    StateArena arena;
    arena.init(mem.get(), true, StateStore::kOffsetMask);
    const std::uint32_t cell[3] = {1, 2, 3};
    std::uint32_t n = 0;
    for (; n < 2 * StateArena::kBlockCells + 1; ++n)
        arena.append(n, cell, 3);
    const void *block0 = arena.cellIfMapped(0);
    const void *block1 = arena.cellIfMapped(StateArena::kBlockCells);
    const std::size_t bytes = std::size_t{StateArena::kBlockCells} * 3 *
                              sizeof(std::uint32_t);
    EXPECT_GT(residentPages(block0, bytes), 0);
    arena.seal();
    for (; n < 3 * StateArena::kBlockCells; ++n)
        arena.append(n, cell, 3);
    arena.seal();
    ASSERT_EQ(arena.cellIfMapped(0), nullptr);
    for (const void *block : {block0, block1}) {
        errno = 0;
        EXPECT_EQ(residentPages(block, bytes), -1);
        EXPECT_EQ(errno, ENOMEM) << std::strerror(errno);
    }
    EXPECT_EQ(mem->mappedBytes(), 0u);
    EXPECT_EQ(mem->backingFileBytes(), 0u);
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
            cols.init(mem.get(), storeKindCompact(k.kind), 16,
                      StateStore::kOffsetMask);
            cols.append(mix64(shard), mix64(shard + 1),
                        StateStore::kNoParent, 0, 7);
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
    auto *base = static_cast<std::uint64_t *>(
        mem->flatGrow(ShardMem::kFlatHashes, page));
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

    auto *grown = static_cast<std::uint64_t *>(
        mem->flatGrow(ShardMem::kFlatHashes, 4 * page));
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
        StateStore store(configOf(kKinds[2], 0, dir)); // mmap
        for (int i = 0; i < 5000; ++i) {
            store.insert(probeState(i), StateStore::kNoParent, 0, 0);
        }
        EXPECT_GT(store.mappedBytes(), 0u);
        EXPECT_GT(store.backingFileBytes(), 0u);
        SystemState decoded;
        auto [id, fresh] =
            store.insert(probeState(1), StateStore::kNoParent, 0, 0);
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
                store.insert(probeState(i), StateStore::kNoParent, 0,
                             0);
            }
        } catch (const StoreFullError &e) {
            threw = true;
            const std::string what = e.what();
            EXPECT_NE(what.find("per-shard limit 1 entries"),
                      std::string::npos)
                << k.name << ": " << what;
            EXPECT_NE(what.find("--store=ram|ram-compact|mmap:"),
                      std::string::npos)
                << k.name << ": " << what;
        }
        EXPECT_TRUE(threw) << k.name;
    }
}

TEST(StoreBackend, ForgedProbeHashCollisionDetectedOnEveryKind)
{
    // The compact kinds store the probe hash they are given, so a
    // forged shared hash makes a detected collision.  ram recomputes
    // hashes from its cells and takes only real ones: the same pair
    // must stay distinct there, with no collision to count.
    SystemState a = initialAllInvalid();
    SystemState b = initialBothShared(1);
    ASSERT_FALSE(a == b);
    const std::uint64_t forged = 0x1234567890abcdefull;
    for (const Kind &k : kKinds) {
        const bool forge = storeKindCompact(k.kind);
        const std::uint64_t ha = forge ? forged : a.hash();
        const std::uint64_t hb = forge ? forged : b.hash();
        StateStore store(configOf(k));
        auto [ia, new_a] =
            store.insert(a, ha, StateStore::kNoParent, 0, 0);
        auto [ib, new_b] =
            store.insert(b, hb, StateStore::kNoParent, 0, 0);
        EXPECT_TRUE(new_a) << k.name;
        EXPECT_TRUE(new_b) << k.name << ": silently merged";
        EXPECT_NE(ia, ib) << k.name;
        if (forge)
            EXPECT_GE(store.probeCollisions(), 1u) << k.name;
        else
            EXPECT_EQ(store.probeCollisions(), 0u) << k.name;
        // The collision survives a seal: released-entry identity falls
        // back to the verification fingerprint, which still tells
        // the two states apart.
        store.sealLevel();
        store.sealLevel();
        auto [ia2, dup_a] =
            store.insert(a, ha, StateStore::kNoParent, 0, 0);
        auto [ib2, dup_b] =
            store.insert(b, hb, StateStore::kNoParent, 0, 0);
        EXPECT_FALSE(dup_a) << k.name;
        EXPECT_FALSE(dup_b) << k.name;
        EXPECT_EQ(ia2, ia) << k.name;
        EXPECT_EQ(ib2, ib) << k.name;
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
    // second probes the first's home bucket and its tag matches.  ram
    // then reads the 64-bit hash off the cell, ram-compact off its
    // column; on both the pair stays distinct and no collision is
    // counted, because the full probe hashes differ.
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
        const auto [id_a, new_a] =
            store.insert(a, StateStore::kNoParent, 0, 0);
        const auto [id_b, new_b] =
            store.insert(b, StateStore::kNoParent, 0, 0);
        EXPECT_TRUE(new_a && new_b) << k.name << ": silently merged";
        EXPECT_NE(id_a, id_b) << k.name;
        EXPECT_EQ(store.probeCollisions(), 0u) << k.name;
        EXPECT_EQ(store.find(a), id_a) << k.name;
        EXPECT_EQ(store.find(b), id_b) << k.name;
    }
}

/** An InRam ShardMem that records which flats were ever grown. */
class RecordingShardMem : public ShardMem
{
  public:
    void *
    flatGrow(unsigned id, std::size_t bytes) override
    {
        grown[id] = true;
        return inner_->flatGrow(id, bytes);
    }
    void *chunkAlloc(std::size_t bytes) override
    {
        return inner_->chunkAlloc(bytes);
    }
    void *
    blockAlloc(std::uint32_t index, std::size_t bytes) override
    {
        return inner_->blockAlloc(index, bytes);
    }
    void blockDrop(std::uint32_t index) override
    {
        inner_->blockDrop(index);
    }

    bool grown[kFlatCount] = {};

  private:
    std::unique_ptr<ShardMem> inner_ =
        makeShardMem(StoreBackend::InRam, "");
};

TEST(StoreBackend, HashColumnsExistOnlyWhereCellsAreReleased)
{
    // Columns that keep no hashes map neither the probe-hash nor the
    // fingerprint flat, and rehash through EntryHash; columns that
    // keep them map both and rehash from the stored hashes.  Either
    // way every entry is found again after the growths.
    auto hashOf = [](std::uint32_t off) { return mix64(off); };
    const std::uint32_t n = 5000; // 16 -> 8192 buckets
    for (const bool keep : {false, true}) {
        RecordingShardMem mem;
        ShardColumns cols;
        std::uint64_t rehashed = 0;
        cols.init(&mem, keep, 16, StateStore::kOffsetMask,
                  [&](std::uint32_t off) {
                      ++rehashed;
                      return hashOf(off);
                  });
        for (std::uint32_t i = 0; i < n; ++i) {
            cols.maybeGrow();
            std::uint64_t slot = hashOf(i) & cols.mask();
            while (cols.bucketAt(slot) != 0)
                slot = (slot + 1) & cols.mask();
            const std::uint32_t off = cols.append(
                hashOf(i), ~hashOf(i), StateStore::kNoParent, 0, 1);
            ASSERT_EQ(off, i);
            cols.link(slot, hashOf(i), off);
        }
        EXPECT_EQ(mem.grown[ShardMem::kFlatHashes], keep) << keep;
        EXPECT_EQ(mem.grown[ShardMem::kFlatVerifies], keep) << keep;
        EXPECT_TRUE(mem.grown[ShardMem::kFlatParents]);
        EXPECT_TRUE(mem.grown[ShardMem::kFlatBuckets]);
        EXPECT_EQ(rehashed > 0, !keep) << keep;
        for (std::uint32_t i = 0; i < n; ++i) {
            std::uint64_t slot = hashOf(i) & cols.mask();
            for (;; slot = (slot + 1) & cols.mask()) {
                const std::uint32_t b = cols.bucketAt(slot);
                ASSERT_NE(b, 0u) << keep << " lost entry " << i;
                if (ShardColumns::linkOf(b, cols.mask()) == i + 1)
                    break;
            }
            EXPECT_TRUE(ShardColumns::tagMatches(cols.bucketAt(slot),
                                                 hashOf(i), cols.mask()));
            if (keep) {
                EXPECT_EQ(cols.hashAt(i), hashOf(i));
                EXPECT_EQ(cols.verifyAt(i), ~hashOf(i));
            }
        }
    }
}

// ------------------------------------------- engine-level agreement

ExploreResult
runKind(const RuleSet &rules, const Scenario &sc,
        const InvariantSet &inv, ExploreOptions opt, const Kind &k,
        std::size_t threads)
{
    opt.store = k.kind;
    opt.numThreads = threads;
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
    opt.symmetryReduction = true;

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
