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
 * records), shared by all shards, and a state's cell is ndev slice
 * ids of 3 bytes each (kIdBytes; a table's ids are 24-bit), packed
 * little-endian with no padding:
 *
 *   [lead id] [device 1 id] ... [device ndev-1 id]     3·ndev bytes
 *
 * At ndev = 1 the lead is the whole state and the cell one id.  Both
 * store kinds use this one cell format.  The cell width is the
 * device count, fixed by a store's first insert (all states of a run
 * share ndev), so one StateArena holds a shard's cells at a fixed
 * stride of 3·ndev bytes in index-addressed blocks allocated from the
 * shard's ShardMem backend (store_mem.hh): entry `off` is cell `off`
 * — no offset column.  A block of 8,192 cells is 6·ndev whole 4 KiB
 * pages; nothing reads past a cell's own bytes (3-byte loads), so the
 * last cell of a block needs no padding.  Equal ids mean equal
 * slices, and the lead slice holds ndev, so two states are the same
 * state exactly when their id tuples are equal (COLLAPSE's rule): the
 * store interns a candidate's slices first and then compares packed
 * ids alone, never slice bytes, and hashIds() of the tuple is the
 * store's one hash — of a candidate when it probes, of a cell
 * (hashCell) when its shard grows.
 *
 * The slice tables live on the heap under every backend, `--store
 * mmap` included: they grow with the number of distinct slices, not
 * with the number of states, and no slice is ever released.
 *
 * The block-pointer spine is fully reserved at init so it never
 * reallocates — readers index it lock-free for entries published
 * before their expansion phase began, the same contract the
 * monolithic store had.
 *
 * Thread-safety: append runs under the shard lock or quiescent;
 * cell reads on frontier entries follow the façade's lock-free
 * reader contract.  SliceTable::intern may be called from any
 * thread, and the façade calls it outside any shard lock, so no
 * store lock is ever taken inside another.
 */

#ifndef CXL_CHECKER_STORE_ARENA_HH
#define CXL_CHECKER_STORE_ARENA_HH

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <mutex>
#include <utility>
#include <vector>

#include "checker/store_mem.hh"
#include "protocol/state.hh"
#include "support/hash.hh"

namespace cxl
{

/**
 * The hash of a cell's @p width slice ids (1 <= width <= kMaxDevices):
 * the store's shard, home slot and bucket tag all come from it.
 */
inline std::uint64_t
hashIds(const std::uint32_t *ids, std::uint32_t width)
{
    // Branches, not a variable-length copy: the width is one per
    // store, so they predict perfectly and nothing calls memcpy.
    std::uint64_t lo = ids[0];
    std::uint64_t hi = 0;
    if (width > 1)
        lo |= std::uint64_t{ids[1]} << 32;
    if (width > 2)
        hi = ids[2];
    if (width > 3)
        hi |= std::uint64_t{ids[3]} << 32;
    return mix64(mum(lo ^ 0xa0761d6478bd642full,
                     hi ^ 0xe7037ed1a0b428dbull));
}

/** Bytes of one slice id in a cell: SliceTable ids are 24-bit. */
constexpr std::uint32_t kIdBytes = 3;
/** Bytes of the widest cell, kMaxDevices ids. */
constexpr std::uint32_t kMaxCellBytes = kIdBytes * kMaxDevices;

/** Pack @p width ids, each below 2^24, into the cell at @p cell:
 * kIdBytes little-endian bytes per id. */
inline void
packIds(const std::uint32_t *ids, std::uint32_t width, std::byte *cell)
{
    for (std::uint32_t d = 0; d < width; ++d, cell += kIdBytes) {
        cell[0] = static_cast<std::byte>(ids[d]);
        cell[1] = static_cast<std::byte>(ids[d] >> 8);
        cell[2] = static_cast<std::byte>(ids[d] >> 16);
    }
}

/** The id packed at @p p: a 3-byte load, so the last cell of a
 * block is read without touching the byte past it. */
inline std::uint32_t
unpackId(const std::byte *p)
{
    return std::to_integer<std::uint32_t>(p[0]) |
           std::to_integer<std::uint32_t>(p[1]) << 8 |
           std::to_integer<std::uint32_t>(p[2]) << 16;
}

/** hashIds() of the @p width ids packed in @p cell. */
inline std::uint64_t
hashCell(const std::byte *cell, std::uint32_t width)
{
    std::uint32_t ids[kMaxDevices];
    for (std::uint32_t d = 0; d < width; ++d)
        ids[d] = unpackId(cell + kIdBytes * d);
    return hashIds(ids, width);
}

/**
 * A hash-consing table of fixed-width byte slices: intern() gives
 * every distinct slice one 24-bit id, at() gives the bytes back.
 *
 * Lock-striped by slice hash (kStripes stripes, each with its own
 * mutex, open-addressing index and id space of 2^20 ids: an id's top
 * 4 of 24 bits name its stripe).  A stripe's slices live in append-only chunks that
 * never move, on a fixed spine of geometrically growing chunk sizes
 * — the spine never reallocates and reserves nothing up front — so
 * at() reads a published id without a lock.  "Published" means the
 * id reached the reader through something that orders it after the
 * intern: a lock both took, a barrier, or the index's release store.
 *
 * A run interns a few thousand distinct slices millions of times, so
 * intern() first find()s the slice, without the lock: index
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
     * (2^20 distinct slices per stripe).
     */
    std::uint32_t intern(const void *bytes);

    /** The id of the slice at @p bytes if it was interned, else
     * nullopt: a probe of the published index, without the lock (a
     * slice interned concurrently may be missed). */
    std::optional<std::uint32_t> find(const void *bytes) const;

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

    /** Bits of an id: it packs into kIdBytes. */
    static constexpr std::uint32_t kIdBits = 8 * kIdBytes;

  private:
    /** Tests forge a stripe's count to its limit. */
    friend struct StateStoreTestPeer;

    static constexpr std::uint32_t kStripeBits = 4;
    static constexpr std::uint32_t kStripes = 1u << kStripeBits;
    static constexpr std::uint32_t kLocalBits = kIdBits - kStripeBits;
    /** Slices a stripe holds: every local id is usable. */
    static constexpr std::uint32_t kStripeSlices = 1u << kLocalBits;
    static constexpr std::uint32_t kLocalMask = kStripeSlices - 1;
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

    /** Where a slice belongs: its stripe and its hash tag (the
     * hash's high half). */
    struct Key {
        std::uint32_t stripe;
        std::uint32_t tag;
    };

    /** The Key of the slice at @p bytes. */
    Key keyOf(const void *bytes) const;

    /** Probe @p ix for the slice at @p bytes of key @p key;
     * lock-free. */
    Probe probe(const Index &ix, Key key, const void *bytes) const;

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

    /** Bind to a backend; @p max_entries bounds the block spine. */
    void init(ShardMem *mem, std::uint32_t max_entries);

    /** Append entry @p off's cell of @p width packed ids (shard lock
     * held).  Entries arrive in index order, all of the width of the
     * first. */
    void append(std::uint32_t off, const std::byte *cell,
                std::uint32_t width);

    /** Entry @p off's cell, an appended one (see the file comment
     * for when that may be read lock-free). */
    const std::byte *
    cellAt(std::uint32_t off) const
    {
        return blocks_[off >> kBlockBits] +
               std::size_t{off & (kBlockCells - 1)} * (kIdBytes * width_);
    }

    /** Ids per cell: the store's device count (0 before the first
     * append). */
    std::uint32_t width() const { return width_; }

    /** Start loading entry @p off's cell. */
    void prefetchCell(std::uint32_t off) const
    {
        __builtin_prefetch(cellAt(off));
    }

  private:
    ShardMem *mem_ = nullptr;
    /** Ids per cell — the store's device count — fixed by the first
     * append. */
    std::uint32_t width_ = 0;
    /** Block-pointer cache, fully reserved (never reallocates; see
     * the file comment). */
    std::vector<std::byte *> blocks_;
    std::uint32_t count_ = 0; ///< cells appended
};

} // namespace cxl

#endif // CXL_CHECKER_STORE_ARENA_HH
