/**
 * @file
 * Shard-column layer of the visited-state store.
 *
 * One ShardColumns instance holds a shard's one entry column — the
 * chunked atomic one-byte depth label, with a wide escape for deep
 * entries — plus the open-addressing bucket array, all allocated from
 * the shard's ShardMem backend (store_mem.hh).
 * No entry keeps its parent or the rule that reached it: witness
 * paths are searched out from the depth labels (labelPath,
 * expand.hh).  The probe/insert *algorithm* stays in the StateStore
 * façade; this layer only owns the memory layout:
 *
 *  - the bucket array holds any whole multiple of 16 buckets, not
 *    just a power of two.  An entry's home slot is
 *    (u32 hash x capacity) >> 32, a multiply-shift (Lemire, "Fast
 *    Random Integer Generation in an Interval", 2019) that reads the
 *    hash's high bits, and linear probing wraps at the capacity;
 *  - a bucket is one u32, `tag | link`: link = entry offset + 1 in the
 *    low linkBitsFor(capacity) bits (0 = empty), tag = the entry's
 *    hash — hashIds() of its cell (store_arena.hh) — from its low bit
 *    up, in the bits above (Cleary's compact hash tables).  The tag
 *    takes the low bits because the home slot already spends the
 *    high ones: entries of one probe run mostly share those, so tags
 *    made of them would reject nothing.  A probe rejects most
 *    mismatches on the tag before it reads any cell.  Growth at 4/5
 *    load keeps every link below the capacity, and the per-shard limit
 *    of 2^28 - 1 entries needs fewer than 2^29 buckets, so at least 3
 *    tag bits remain;
 *  - the bucket array is a backend flat — it may move when grown, so
 *    it is touched only under the shard lock (or quiescent), matching
 *    the façade's published thread-safety contract;
 *  - the depth column lives in fixed-size chunks (backend chunkAlloc,
 *    addresses never move) behind a fully-reserved spine, so
 *    depthOf() of an appended entry is readable lock-free at any time
 *    — the level schedule's POR flush reads the labels of targets its
 *    peers appended during the level.
 *    A label is one byte: depths 0-254 are stored as they are, and
 *    kWide (255) says the exact depth is in the shard's *wide*
 *    column, u32 cells chunked alike, whose chunk is allocated only
 *    when an entry of that chunk first gets a depth >= 255 (no run of
 *    the benchmark ladder is deeper than 62).  A wide cell and its
 *    chunk pointer are written before the kWide byte is stored with
 *    release, and a reader that loads kWide (acquire) reads them
 *    after; a label is written once, by append(), and never changes.  A
 *    chunk holds 65,536 labels (64 KiB), but each is constructed by
 *    append(), so a chunk's untouched pages stay unbacked: a shard
 *    with one entry holds one resident page of depths, and a page
 *    backs 4,096 entries.
 *
 * Growth multiplies the bucket capacity by 3/2 (rounded up to whole
 * multiples of 16) when the next entry would take the load past 4/5,
 * so a shard's load stays between 8/15 (0.53) and 0.8: 5 to 7.5 bytes
 * of buckets per entry, where doubling at 3/4 load swung between 5.3
 * and 10.7.  A step of 5/4 (load 0.64-0.8) re-slots about twice the
 * entries and probes longer runs: on a 4-vCPU x86-64 VM it ran the
 * unreduced 3-device space 4-7% slower at one thread than doubling
 * did, for no smaller benchmark peak than 3/2 gives.  It re-slots every entry by the hash of its cell, which it
 * reads from the shard's StateArena: the cells lie in entry order, so
 * growth is one sequential pass with no slice read.  growFor() does the same ahead of need, at a BFS level
 * barrier, so the re-slotting need not happen mid-level under the
 * shard lock.
 */

#ifndef CXL_CHECKER_STORE_COLUMNS_HH
#define CXL_CHECKER_STORE_COLUMNS_HH

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "checker/store_arena.hh"
#include "checker/store_mem.hh"

namespace cxl
{

/** One shard's depth column + probe buckets (see file comment). */
class ShardColumns
{
  public:
    /** log2 of entries per depth-column chunk. */
    static constexpr std::uint32_t kDepthChunkBits = 16;
    static constexpr std::uint32_t kDepthChunkSize =
        1u << kDepthChunkBits;
    /** The depth label that defers to the wide column; every smaller
     * depth is its own label. */
    static constexpr std::uint8_t kWide = 0xff;

    /**
     * Bind to a backend and size the initial bucket array; growth
     * reads entry hashes off @p cells, the shard's arena.
     * @p max_entries bounds the depth-chunk spine reservation.
     */
    void init(ShardMem *mem, std::size_t initial_buckets,
              std::uint32_t max_entries, const StateArena &cells);

    /** Bucket capacities are whole multiples of this. */
    static constexpr std::uint64_t kCapacityQuantum = 16;

    /** Whether a table of @p capacity buckets holds @p entries
     * entries at no more than 4/5 load. */
    static constexpr bool
    fits(std::uint64_t entries, std::uint64_t capacity)
    {
        return entries * 5 <= capacity * 4;
    }
    /** The capacity one growth step takes @p capacity to: x3/2,
     * rounded up to a whole multiple of kCapacityQuantum. */
    static constexpr std::uint64_t
    nextCapacity(std::uint64_t capacity)
    {
        return (capacity + capacity / 2 + kCapacityQuantum - 1) &
               ~(kCapacityQuantum - 1);
    }
    /** Bits of a bucket's link in a table of @p capacity buckets: every
     * link (entry offset + 1, below the capacity at 4/5 load) fits. */
    static constexpr std::uint32_t
    linkBitsFor(std::uint64_t capacity)
    {
        return static_cast<std::uint32_t>(std::bit_width(capacity - 1));
    }

    /** The bucket linking entry @p off of hash @p hash in a table of
     * @p bits link bits (see the file comment). */
    static constexpr std::uint32_t
    bucketFor(std::uint64_t hash, std::uint32_t off, std::uint32_t bits)
    {
        return static_cast<std::uint32_t>(hash << bits) | (off + 1);
    }
    /** Entry offset + 1 that @p bucket links to; 0 when empty. */
    static constexpr std::uint32_t
    linkOf(std::uint32_t bucket, std::uint32_t bits)
    {
        return bucket & ((1u << bits) - 1);
    }
    /** Whether @p bucket's tag agrees with hash @p hash. */
    static constexpr bool
    tagMatches(std::uint32_t bucket, std::uint64_t hash,
               std::uint32_t bits)
    {
        return ((bucket ^ static_cast<std::uint32_t>(hash << bits)) >>
                bits) == 0;
    }

    std::uint32_t count() const { return count_; }
    std::uint64_t capacity() const { return capacity_; }
    std::uint32_t linkBits() const { return linkBits_; }

    /** The home slot of @p hash: its low 32 bits scaled to the
     * capacity. */
    std::uint64_t
    homeOf(std::uint64_t hash) const
    {
        return (hash & 0xffffffffu) * capacity_ >> 32;
    }
    /** The slot after @p slot, wrapping at the capacity. */
    std::uint64_t
    nextSlot(std::uint64_t slot) const
    {
        return slot + 1 == capacity_ ? 0 : slot + 1;
    }

    std::uint32_t bucketAt(std::uint64_t slot) const
    {
        return buckets_[slot];
    }
    /** Link entry @p off (hash @p hash) from empty @p slot. */
    void link(std::uint64_t slot, std::uint64_t hash, std::uint32_t off)
    {
        assert(off + 1 < capacity_ && "growth at 4/5 load keeps links "
                                      "below the capacity");
        buckets_[slot] = bucketFor(hash, off, linkBits_);
    }

    /** Start loading the home bucket of @p hash and the bucket 15
     * slots on: the next 64-byte line unless the home starts its own,
     * where a probe run from late in a line goes on. */
    void prefetchBucket(std::uint64_t hash) const
    {
        const std::uint64_t home = homeOf(hash);
        __builtin_prefetch(&buckets_[home]);
        __builtin_prefetch(&buckets_[std::min(home + 15, capacity_ - 1)]);
    }
    /** The depth of appended entry @p off; lock-free at any time
     * (see the file comment). */
    std::uint32_t
    depthOf(std::uint32_t off) const
    {
        const std::uint8_t label =
            labelAt(off).load(std::memory_order_acquire);
        if (label != kWide)
            return label;
        return wideAt(off).load(std::memory_order_relaxed);
    }

    /** Grow buckets before the next append would take the load past
     * 4/5; call before probing. */
    void
    maybeGrow()
    {
        if (!fits(std::uint64_t{count_} + 1, capacity_))
            growFor(std::uint64_t{count_} + 1);
    }

    /** Grow buckets now to the capacity maybeGrow() would reach by
     * the time the shard holds @p entries entries, in one re-slot; a
     * no-op when the current one already suffices. */
    void growFor(std::uint64_t entries);

    /**
     * Append one entry's depth label (not the bucket link — the
     * façade writes that after the arena append succeeds, so a thrown
     * arena-full error cannot publish a half-made entry).
     * @return the new entry's offset.
     */
    std::uint32_t append(std::uint32_t depth);

  private:
    void sizeBuckets(std::size_t cap);

    /** One chunk of the depth column: kDepthChunkSize labels and,
     * from the chunk's first escape on, as many wide cells (null
     * before).  wide is written once, under the shard lock, before any
     * kWide label of the chunk is published, and read only after one
     * is loaded: the label's release/acquire orders it, so the
     * pointer needs no atomic. */
    struct DepthChunk {
        std::atomic<std::uint8_t> *labels;
        std::atomic<std::uint32_t> *wide;
    };

    std::atomic<std::uint8_t> &
    labelAt(std::uint32_t off) const
    {
        return depths_[off >> kDepthChunkBits]
            .labels[off & (kDepthChunkSize - 1)];
    }
    /** Entry @p off's wide cell; its chunk's wide cells must exist. */
    std::atomic<std::uint32_t> &
    wideAt(std::uint32_t off) const
    {
        return depths_[off >> kDepthChunkBits]
            .wide[off & (kDepthChunkSize - 1)];
    }

    ShardMem *mem_ = nullptr;
    const StateArena *cells_ = nullptr;
    std::uint32_t *buckets_ = nullptr;
    /** Depth-chunk spine; fully reserved, so push_back never moves
     * the chunk pointers lock-free readers are walking. */
    std::vector<DepthChunk> depths_;
    std::uint64_t capacity_ = 0;
    std::uint32_t linkBits_ = 0;
    std::uint32_t count_ = 0;
};

} // namespace cxl

#endif // CXL_CHECKER_STORE_COLUMNS_HH
