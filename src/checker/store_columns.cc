#include "checker/store_columns.hh"

#include <algorithm>
#include <cstring>
#include <new>
#include <utility>

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
                   std::uint32_t max_entries, EntryHashes entry_hashes)
{
    mem_ = mem;
    entryHashes_ = std::move(entry_hashes);
    depths_.reserve((max_entries >> kDepthChunkBits) + 1);
    sizeBuckets(pow2AtLeast(initial_buckets));
}

void
ShardColumns::sizeBuckets(std::size_t cap)
{
    buckets_ = static_cast<std::uint32_t *>(mem_->flatGrow(
        ShardMem::kFlatBuckets, cap * sizeof(std::uint32_t)));
    std::memset(buckets_, 0, cap * sizeof(std::uint32_t));
    mask_ = cap - 1;
    // No column keeps the probe hashes: each is recomputed from its
    // entry's cell, a run of entries at a time.
    constexpr std::uint32_t kRun = 64;
    std::uint64_t hashes[kRun];
    for (std::uint32_t first = 0; first < count_; first += kRun) {
        const std::uint32_t n = std::min(kRun, count_ - first);
        entryHashes_(first, n, hashes);
        for (std::uint32_t i = 0; i < n; ++i) {
            std::uint64_t slot = hashes[i] & mask_;
            while (buckets_[slot] != 0)
                slot = (slot + 1) & mask_;
            link(slot, hashes[i], first + i);
        }
    }
}

void
ShardColumns::growColumns(std::size_t need)
{
    std::size_t cap = entryCap_ == 0 ? 1024 : entryCap_;
    while (cap < need)
        cap *= 2;
    parents_ = static_cast<std::uint32_t *>(mem_->flatGrow(
        ShardMem::kFlatParents, cap * sizeof(std::uint32_t)));
    rules_ = static_cast<std::uint16_t *>(mem_->flatGrow(
        ShardMem::kFlatRules, cap * sizeof(std::uint16_t)));
    entryCap_ = cap;
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
ShardColumns::append(std::uint32_t parent, std::uint16_t rule,
                     std::uint32_t depth)
{
    const std::uint32_t off = count_;
    if (off >= entryCap_)
        growColumns(static_cast<std::size_t>(off) + 1);
    parents_[off] = parent;
    rules_[off] = rule;
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
    if (entries > entryCap_)
        growColumns(entries);
}

} // namespace cxl
