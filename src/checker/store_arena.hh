/**
 * @file
 * State-arena layer of the visited-state store.
 *
 * A state is stored as a tuple of interned slices (COLLAPSE
 * compression; Holzmann, "State Compression in SPIN", 1997).  The
 * model's state is a 5-byte host part followed by ndev identical
 * 59-byte DeviceState records (state.hh).  The host's directory
 * fields mostly mirror the devices, so the host part rides with
 * device 0 in one 64-byte *lead* slice — the first step of tree
 * compression (Laarman et al., "Parallel Recursive State Compression
 * for Free", SPIN 2011).  A run reaches only about ten thousand
 * distinct leads (9,449 on the unreduced 3-device space, ~1,300 on
 * the symmetric 4-device one) and a few thousand distinct device
 * records — against 860,925 states on the unreduced 3-device space.
 * So the store keeps one SliceTable per slice kind (leads, device
 * records), shared by all shards, and a state's cell is ndev u32
 * slice ids:
 *
 *   [lead id] [device 1 id] ... [device ndev-1 id]
 *
 * At ndev = 1 the lead is the whole state and the cell one id.  Both
 * store modes use this one cell format.  The cell width is the
 * device count, fixed by a store's first insert (all states of a run
 * share ndev), so one StateArena holds a shard's cells at a fixed
 * stride in index-addressed blocks allocated from the shard's
 * ShardMem backend (store_mem.hh): entry `off` is cell `off` — no
 * offset column.  Equal ids mean equal slices, and the lead slice
 * holds ndev, so dedup compares a stored cell's slices against the
 * candidate's bytes (lead first) without interning anything; only a
 * fresh insert interns.
 *
 * The slice tables live on the heap under every backend, `--store
 * mmap` included: they grow with the number of distinct slices, not
 * with the number of states, and seal() never releases a slice.
 *
 * The block-pointer spine is fully reserved at init so it never
 * reallocates — readers index it lock-free for entries published
 * before their expansion phase began, the same contract the
 * monolithic store had.
 *
 * seal(): at a BFS level barrier an arena told at init to release
 * sealed cells drops every whole block that belongs to levels
 * finished expanding — the façade asks for that in compact mode and
 * on every Mmap store, where the mapped window then shrinks to
 * roughly the frontier and its successors.  A dropped block is gone
 * for good: nothing reads it again (counterexample traces are
 * replayed from the breadcrumb rule ids, not decoded), so each seal
 * only walks the blocks since the previous one.
 *
 * This is the façade's one identity rule: a cell cellIfMapped()
 * returns is compared slice by slice, and when it returns null the
 * façade compares the probe hash and verification fingerprint it
 * keeps per entry whenever the arena releases.  An arena that never
 * releases is also where its store's probe hashes come from when a
 * shard grows: that store keeps no hash column and rehashes each
 * entry from its cell's slices.
 *
 * Thread-safety: append/seal run under the shard lock or quiescent;
 * cell reads on frontier entries follow the façade's lock-free
 * reader contract.  SliceTable::intern may be called from any
 * thread; the façade calls it under a shard lock, so the lock order
 * is always shard, then stripe.
 */

#ifndef CXL_CHECKER_STORE_ARENA_HH
#define CXL_CHECKER_STORE_ARENA_HH

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "checker/store_mem.hh"
#include "protocol/state.hh"

namespace cxl
{

/** Storage policy of a StateStore (façade-level; see state_store.hh):
 * whether seal() releases sealed levels' cells.  The Mmap backend
 * releases under either mode. */
enum class StoreMode : std::uint8_t {
    Full,    ///< keep every cell: identity and rehash from the slices
    Compact, ///< release sealed levels: a stored probe hash and
             ///< fingerprint per entry
};

/**
 * A hash-consing table of fixed-width byte slices: intern() gives
 * every distinct slice one u32 id, at() gives the bytes back.
 *
 * Lock-striped by slice hash (kStripes stripes, each with its own
 * mutex, open-addressing index and id space: an id's top bits name
 * its stripe).  A stripe's slices live in append-only chunks that
 * never move, on a fixed spine of geometrically growing chunk sizes
 * — the spine never reallocates and reserves nothing up front — so
 * at() reads a published id without a lock.  "Published" means the
 * id reached the reader through something that orders it after the
 * intern: a lock both took, a barrier, or the index's release store.
 *
 * A run interns a few thousand distinct slices millions of times, so
 * intern() first probes the stripe's index without the lock: index
 * slots are atomics stored (release) only after their slice's bytes,
 * and a grown index is a new array published the same way, the old
 * one kept until the table dies.  Only a miss takes the stripe lock,
 * probes again and inserts.
 */
class SliceTable
{
  public:
    /** A table of @p width-byte slices. */
    explicit SliceTable(std::size_t width) : width_(width) {}

    SliceTable(const SliceTable &) = delete;
    SliceTable &operator=(const SliceTable &) = delete;

    /**
     * The id of the slice at @p bytes (the table's width), interning
     * it on first sight.  Thread-safe; takes the slice's stripe lock
     * only when the lock-free probe misses.
     * @throws std::length_error when the slice's stripe is out of ids
     * (2^28 distinct slices).
     */
    std::uint32_t intern(const void *bytes);

    /** The bytes of a published slice id; lock-free. */
    const std::byte *
    at(std::uint32_t id) const
    {
        const auto [k, i] = place(id & kLocalMask);
        return stripes_[id >> kLocalBits].chunks[k].get() +
               std::size_t{i} * width_;
    }

    /** Distinct slices interned so far; quiescent use only. */
    std::size_t size() const;

  private:
    static constexpr std::uint32_t kStripeBits = 4;
    static constexpr std::uint32_t kStripes = 1u << kStripeBits;
    static constexpr std::uint32_t kLocalBits = 32 - kStripeBits;
    static constexpr std::uint32_t kLocalMask = (1u << kLocalBits) - 1;
    /** log2 of the slices in a stripe's first chunk. */
    static constexpr std::uint32_t kFirstChunkBits = 4;
    /** Enough chunks to cover every local index. */
    static constexpr std::uint32_t kMaxChunks =
        kLocalBits - kFirstChunkBits + 1;

    /**
     * Open-addressing index of a stripe.  A slot is 0 (empty) or the
     * slice's hash tag (its hash's high 32 bits) above local id + 1;
     * the tag both picks the home slot and skips the byte compare on
     * most mismatches, and growth re-slots by tag alone.
     */
    struct Index {
        explicit Index(std::size_t size)
            : mask(size - 1),
              slots(std::make_unique<std::atomic<std::uint64_t>[]>(size))
        {
        }
        std::size_t mask;
        std::unique_ptr<std::atomic<std::uint64_t>[]> slots;
    };

    struct alignas(64) Stripe {
        std::mutex mutex; ///< serialises inserts and growth
        std::atomic<const Index *> index{nullptr}; ///< the current one
        std::unique_ptr<std::byte[]> chunks[kMaxChunks];
        std::uint32_t count = 0; ///< slices interned in this stripe
        /** Every index the stripe had; the last is the current one. */
        std::vector<std::unique_ptr<Index>> indexes;
    };

    /** Result of a probe: the slice's id, or the empty slot where it
     * belongs. */
    struct Probe {
        bool found;
        std::uint32_t id;
        std::size_t slot;
    };

    /** Probe @p ix for the slice at @p bytes of hash tag @p tag in
     * the stripe whose ids carry @p stripe_tag; lock-free. */
    Probe probe(const Index &ix, std::uint32_t tag,
                std::uint32_t stripe_tag, const void *bytes) const;

    /** (chunk, index in the chunk) of local index @p local: with
     * F = 2^kFirstChunkBits, chunk k holds F << k slices, from local
     * index F * (2^k - 1). */
    static std::pair<std::uint32_t, std::uint32_t>
    place(std::uint32_t local)
    {
        const std::uint32_t q = (local >> kFirstChunkBits) + 1;
        const auto k = static_cast<std::uint32_t>(std::bit_width(q) - 1);
        return {k, local - (((1u << k) - 1) << kFirstChunkBits)};
    }

    /** Publish a doubled index of @p s holding every slice (stripe
     * lock held). */
    static void grow(Stripe &s);

    std::size_t width_;
    Stripe stripes_[kStripes];
};

/** One shard's cells (see the file comment). */
class StateArena
{
  public:
    /** log2 of the cells per block. */
    static constexpr std::uint32_t kBlockBits = 13;
    static constexpr std::uint32_t kBlockCells = 1u << kBlockBits;

    /** Bind to a backend; seal() drops blocks only when
     * @p release_sealed.  @p max_entries bounds the block spine. */
    void init(ShardMem *mem, bool release_sealed,
              std::uint32_t max_entries);

    /** Append entry @p off's cell of @p width ids (shard lock held).
     * Entries arrive in index order, all of the width of the first. */
    void append(std::uint32_t off, const std::uint32_t *ids,
                std::uint32_t width);

    /** Entry @p off's cell, or null when seal() dropped its block —
     * the façade's cue to fall back to fingerprint identity (shard
     * lock held). */
    const std::uint32_t *
    cellIfMapped(std::uint32_t off) const
    {
        const std::uint32_t *base = blocks_[off >> kBlockBits];
        return base ? base + std::size_t{off & (kBlockCells - 1)} * width_
                    : nullptr;
    }

    /** Start loading entry @p off's cell, if its block is mapped. */
    void
    prefetchCell(std::uint32_t off) const
    {
        if (const std::uint32_t *cell = cellIfMapped(off))
            __builtin_prefetch(cell);
    }

    /**
     * BFS level barrier (quiescent): drop every whole block of levels
     * finished expanding, when the arena releases sealed cells.
     */
    void seal();

  private:
    ShardMem *mem_ = nullptr;
    bool releaseSealed_ = false;
    /** Ids per cell — the store's device count — fixed by the first
     * append. */
    std::uint32_t width_ = 0;
    /**
     * Block-pointer cache, fully reserved (never reallocates; see the
     * file comment).  Null means dropped.
     */
    std::vector<std::uint32_t *> blocks_;
    std::uint32_t count_ = 0;         ///< cells appended
    std::uint32_t levelBoundary_ = 0; ///< count_ at the last seal
    std::uint32_t droppedBlocks_ = 0; ///< blocks [0, this) are dropped
};

} // namespace cxl

#endif // CXL_CHECKER_STORE_ARENA_HH
