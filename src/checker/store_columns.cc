#include "checker/store_columns.hh"

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
ShardColumns::init(ShardMem *mem, bool keep_hashes,
                   std::size_t initial_buckets, std::uint32_t max_entries,
                   EntryHash entry_hash)
{
    mem_ = mem;
    keepHashes_ = keep_hashes;
    entryHash_ = std::move(entry_hash);
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
    // A store that releases cells rehashes from its hash column (the
    // bytes may be gone); one that keeps every cell recomputes each
    // hash from the cell instead of storing it.
    for (std::uint32_t off = 0; off < count_; ++off) {
        const std::uint64_t hash =
            keepHashes_ ? hashes_[off] : entryHash_(off);
        std::uint64_t slot = hash & mask_;
        while (buckets_[slot] != 0)
            slot = (slot + 1) & mask_;
        link(slot, hash, off);
    }
}

void
ShardColumns::growColumns(std::size_t need)
{
    std::size_t cap = entryCap_ == 0 ? 1024 : entryCap_;
    while (cap < need)
        cap *= 2;
    if (keepHashes_) {
        hashes_ = static_cast<std::uint64_t *>(mem_->flatGrow(
            ShardMem::kFlatHashes, cap * sizeof(std::uint64_t)));
        verifies_ = static_cast<std::uint64_t *>(mem_->flatGrow(
            ShardMem::kFlatVerifies, cap * sizeof(std::uint64_t)));
    }
    parents_ = static_cast<std::uint32_t *>(mem_->flatGrow(
        ShardMem::kFlatParents, cap * sizeof(std::uint32_t)));
    rules_ = static_cast<std::uint16_t *>(mem_->flatGrow(
        ShardMem::kFlatRules, cap * sizeof(std::uint16_t)));
    entryCap_ = cap;
}

std::uint32_t
ShardColumns::append(std::uint64_t hash, std::uint64_t verify,
                     std::uint32_t parent, std::uint16_t rule,
                     std::uint32_t depth)
{
    const std::uint32_t off = count_;
    if (off >= entryCap_)
        growColumns(static_cast<std::size_t>(off) + 1);
    if (keepHashes_) {
        hashes_[off] = hash;
        verifies_[off] = verify;
    }
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
    // pause — on a store without a hash column, a re-read of every
    // cell — lands mid-exploration.
    const std::size_t cap = pow2AtLeast(2 * entries);
    if (cap > mask_ + 1)
        sizeBuckets(cap);
    if (entries > entryCap_)
        growColumns(entries);
}

} // namespace cxl
