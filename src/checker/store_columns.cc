#include "checker/store_columns.hh"

#include <cstring>
#include <new>

namespace cxl
{
namespace
{

/** @p n rounded up to a whole number of capacity quanta, floored at
 * one quantum. */
std::uint64_t
capacityAtLeast(std::uint64_t n)
{
    constexpr std::uint64_t q = ShardColumns::kCapacityQuantum;
    return n <= q ? q : (n + q - 1) & ~(q - 1);
}

} // namespace

void
ShardColumns::init(ShardMem *mem, std::size_t initial_buckets,
                   std::uint32_t max_entries, const StateArena &cells)
{
    mem_ = mem;
    cells_ = &cells;
    depths_.reserve((max_entries >> kDepthChunkBits) + 1);
    sizeBuckets(capacityAtLeast(initial_buckets));
}

void
ShardColumns::sizeBuckets(std::size_t cap)
{
    buckets_ = static_cast<std::uint32_t *>(
        mem_->flatGrow(cap * sizeof(std::uint32_t)));
    std::memset(buckets_, 0, cap * sizeof(std::uint32_t));
    capacity_ = cap;
    linkBits_ = linkBitsFor(cap);
    // No column keeps the hashes: each is recomputed from its cell.
    const std::uint32_t width = cells_->width();
    for (std::uint32_t off = 0; off < count_; ++off) {
        const std::uint64_t hash = hashCell(cells_->cellAt(off), width);
        std::uint64_t slot = homeOf(hash);
        while (buckets_[slot] != 0)
            slot = nextSlot(slot);
        link(slot, hash, off);
    }
}

void
ShardColumns::growFor(std::uint64_t entries)
{
    // maybeGrow's rule, applied before the insert that brings the
    // shard to each count up to @p entries.
    std::uint64_t cap = capacity_;
    while (!fits(entries, cap))
        cap = nextCapacity(cap);
    if (cap > capacity_)
        sizeBuckets(static_cast<std::size_t>(cap));
}

std::uint32_t
ShardColumns::append(std::uint32_t depth)
{
    const std::uint32_t off = count_;
    const std::uint32_t chunk = off >> kDepthChunkBits;
    if (chunk == depths_.size()) {
        depths_.push_back({static_cast<std::atomic<std::uint8_t> *>(
                               mem_->chunkAlloc(
                                   kDepthChunkSize *
                                   sizeof(std::atomic<std::uint8_t>))),
                           nullptr});
    }
    // Each label is constructed as its entry is appended, never
    // ahead: a chunk's pages are backed only once entries reach them.
    std::atomic<std::uint8_t> &label = labelAt(off);
    if (depth < kWide) {
        new (&label) std::atomic<std::uint8_t>(
            static_cast<std::uint8_t>(depth));
    } else {
        DepthChunk &c = depths_[chunk];
        if (c.wide == nullptr) {
            c.wide = static_cast<std::atomic<std::uint32_t> *>(
                mem_->chunkAlloc(kDepthChunkSize *
                                 sizeof(std::atomic<std::uint32_t>)));
        }
        new (&wideAt(off)) std::atomic<std::uint32_t>(depth);
        // The wide cell and its chunk are written before the escape.
        new (&label) std::atomic<std::uint8_t>;
        label.store(kWide, std::memory_order_release);
    }
    ++count_;
    return off;
}

} // namespace cxl
