#include "checker/store_columns.hh"

#include <cstring>
#include <new>

namespace cxl
{
namespace
{

/** Smallest power of two >= n, floored at 16. */
std::size_t
pow2AtLeast(std::size_t n)
{
    std::size_t cap = 16;
    while (cap < n)
        cap <<= 1;
    return cap;
}

} // namespace

void
ShardColumns::init(ShardMem *mem, std::size_t initial_buckets,
                   std::uint32_t max_entries, const StateArena &cells)
{
    mem_ = mem;
    cells_ = &cells;
    depths_.reserve((max_entries >> kDepthChunkBits) + 1);
    sizeBuckets(pow2AtLeast(initial_buckets));
}

void
ShardColumns::sizeBuckets(std::size_t cap)
{
    buckets_ = static_cast<std::uint32_t *>(
        mem_->flatGrow(cap * sizeof(std::uint32_t)));
    std::memset(buckets_, 0, cap * sizeof(std::uint32_t));
    mask_ = cap - 1;
    // No column keeps the hashes: each is recomputed from its cell.
    const std::uint32_t width = cells_->width();
    for (std::uint32_t off = 0; off < count_; ++off) {
        const std::uint64_t hash = hashIds(cells_->cellAt(off), width);
        std::uint64_t slot = hash & mask_;
        while (buckets_[slot] != 0)
            slot = (slot + 1) & mask_;
        link(slot, hash, off);
    }
}

void
ShardColumns::growFor(std::uint64_t entries)
{
    // maybeGrow's rule, applied before the insert that brings the
    // shard to each count up to @p entries.
    std::uint64_t cap = mask_ + 1;
    while (entries * 4 >= cap * 3)
        cap *= 2;
    if (cap > mask_ + 1)
        sizeBuckets(static_cast<std::size_t>(cap));
}

std::uint32_t
ShardColumns::append(std::uint32_t depth)
{
    const std::uint32_t off = count_;
    const std::uint32_t chunk = off >> kDepthChunkBits;
    if (chunk == depths_.size()) {
        depths_.push_back(static_cast<std::atomic<std::uint32_t> *>(
            mem_->chunkAlloc(kDepthChunkSize *
                             sizeof(std::atomic<std::uint32_t>))));
    }
    // Each cell is constructed as its entry is appended, never ahead:
    // a chunk's pages are backed only once entries reach them.
    new (&depthCell(off)) std::atomic<std::uint32_t>(depth);
    ++count_;
    return off;
}

void
ShardColumns::reserveEntries(std::size_t entries)
{
    // Buckets at 2x the entry hint keep the load factor <= 0.5
    // through the expected run, so probes stay short and no rehash
    // pause — a re-read of every cell — lands mid-exploration.
    const std::size_t cap = pow2AtLeast(2 * entries);
    if (cap > mask_ + 1)
        sizeBuckets(cap);
}

} // namespace cxl
