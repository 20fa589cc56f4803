/**
 * @file
 * Shard-column layer of the visited-state store.
 *
 * One ShardColumns instance holds a shard's one entry column — the
 * chunked atomic depth label — plus the open-addressing bucket array,
 * both allocated from the shard's ShardMem backend (store_mem.hh).
 * No entry keeps its parent or the rule that reached it: witness
 * paths are searched out from the depth labels (witnessPath,
 * expand.hh).  The probe/insert *algorithm* stays in the StateStore
 * façade; this layer only owns the memory layout:
 *
 *  - a bucket is one u32, `tag | link`: link = entry offset + 1 in the
 *    low log2(capacity) bits (0 = empty), tag = the bits [log2(capacity),
 *    32) of the entry's hash — hashIds() of its cell (store_arena.hh) —
 *    above it: the hash bits the home slot does not already name
 *    (Cleary's compact hash tables).  A probe rejects most mismatches
 *    on the tag before it reads any cell.  Growth at 3/4 load keeps
 *    every link <= mask, and the per-shard limit of 2^28 - 1 entries
 *    needs a capacity of at most 2^29, so at least 3 tag bits remain;
 *  - the bucket array is a backend flat — it may move when grown, so
 *    it is touched only under the shard lock (or quiescent), matching
 *    the façade's published thread-safety contract;
 *  - the depth column lives in fixed-size chunks (backend chunkAlloc,
 *    addresses never move) behind a fully-reserved spine, so
 *    depthCell() of an appended entry is readable lock-free at any
 *    time — the work-stealing explorer's stale-task check depends on
 *    this.  A chunk holds 65,536 cells, but each cell is constructed
 *    by append(), so a chunk's untouched pages stay unbacked: a shard
 *    with one entry holds one resident page of depths, not 256 KB.
 *
 * Growth doubles the bucket capacity and re-slots every entry by the
 * hash of its cell, which it reads from the shard's StateArena: the
 * cells lie in entry order, so growth is one sequential pass with no
 * slice read.  growFor() does the same ahead of need, at a BFS level
 * barrier, so the re-slotting need not happen mid-level under the
 * shard lock.
 */

#ifndef CXL_CHECKER_STORE_COLUMNS_HH
#define CXL_CHECKER_STORE_COLUMNS_HH

#include <atomic>
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

    /**
     * Bind to a backend and size the initial bucket array; growth
     * reads entry hashes off @p cells, the shard's arena.
     * @p max_entries bounds the depth-chunk spine reservation.
     */
    void init(ShardMem *mem, std::size_t initial_buckets,
              std::uint32_t max_entries, const StateArena &cells);

    /** The bucket linking entry @p off of hash @p hash in a table of
     * mask @p mask (see the file comment). */
    static constexpr std::uint32_t
    bucketFor(std::uint64_t hash, std::uint32_t off, std::uint64_t mask)
    {
        return static_cast<std::uint32_t>(hash & ~mask) | (off + 1);
    }
    /** Entry offset + 1 that @p bucket links to; 0 when empty. */
    static constexpr std::uint32_t
    linkOf(std::uint32_t bucket, std::uint64_t mask)
    {
        return static_cast<std::uint32_t>(bucket & mask);
    }
    /** Whether @p bucket's tag agrees with hash @p hash. */
    static constexpr bool
    tagMatches(std::uint32_t bucket, std::uint64_t hash,
               std::uint64_t mask)
    {
        return ((bucket ^ hash) & ~mask & 0xffffffffu) == 0;
    }

    std::uint32_t count() const { return count_; }
    std::uint64_t mask() const { return mask_; }

    std::uint32_t bucketAt(std::uint64_t slot) const
    {
        return buckets_[slot];
    }
    /** Link entry @p off (hash @p hash) from empty @p slot. */
    void link(std::uint64_t slot, std::uint64_t hash, std::uint32_t off)
    {
        assert(off < mask_ && "growth at 3/4 load keeps links <= mask");
        buckets_[slot] = bucketFor(hash, off, mask_);
    }

    /** Start loading the home bucket of @p hash. */
    void prefetchBucket(std::uint64_t hash) const
    {
        __builtin_prefetch(&buckets_[hash & mask_]);
    }
    /** Lock-free-readable depth cell of an appended entry (chunked
     * atomics; see file comment). */
    std::atomic<std::uint32_t> &
    depthCell(std::uint32_t off) const
    {
        return depths_[off >> kDepthChunkBits]
                      [off & (kDepthChunkSize - 1)];
    }

    /** Grow buckets at 3/4 load so the next append keeps probes
     * short; call before probing. */
    void
    maybeGrow()
    {
        if ((static_cast<std::uint64_t>(count_) + 1) * 4 >=
            (mask_ + 1) * 3)
            sizeBuckets((mask_ + 1) * 2);
    }

    /** Grow buckets now to the capacity maybeGrow() would reach by
     * the time the shard holds @p entries entries; a no-op when the
     * current one already suffices. */
    void growFor(std::uint64_t entries);

    /**
     * Append one entry's depth label (not the bucket link — the
     * façade writes that after the arena append succeeds, so a thrown
     * arena-full error cannot publish a half-made entry).
     * @return the new entry's offset.
     */
    std::uint32_t append(std::uint32_t depth);

    /** Pre-size buckets for <=0.5 load at @p entries. */
    void reserveEntries(std::size_t entries);

  private:
    void sizeBuckets(std::size_t cap);

    ShardMem *mem_ = nullptr;
    const StateArena *cells_ = nullptr;
    std::uint32_t *buckets_ = nullptr;
    /** Depth-chunk spine; fully reserved, so push_back never moves
     * the chunk pointers lock-free readers are walking. */
    std::vector<std::atomic<std::uint32_t> *> depths_;
    std::uint64_t mask_ = 0;
    std::uint32_t count_ = 0;
};

} // namespace cxl

#endif // CXL_CHECKER_STORE_COLUMNS_HH
