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
ShardColumns::init(ShardMem *mem, bool keep_verifies,
                   std::size_t initial_buckets,
                   std::uint32_t max_entries)
{
    mem_ = mem;
    keepVerifies_ = keep_verifies;
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
    // Rehash from the stored probe hashes — state bytes are never
    // touched, which also makes growth possible while the arena layer
    // has already released (or paged out) old state bytes.
    for (std::uint32_t off = 0; off < count_; ++off) {
        std::uint64_t slot = hashes_[off] & mask_;
        while (buckets_[slot] != 0)
            slot = (slot + 1) & mask_;
        buckets_[slot] = off + 1;
    }
}

void
ShardColumns::growColumns(std::size_t need)
{
    std::size_t cap = entryCap_ == 0 ? 1024 : entryCap_;
    while (cap < need)
        cap *= 2;
    hashes_ = static_cast<std::uint64_t *>(mem_->flatGrow(
        ShardMem::kFlatHashes, cap * sizeof(std::uint64_t)));
    if (keepVerifies_) {
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
    hashes_[off] = hash;
    if (keepVerifies_)
        verifies_[off] = verify;
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
    // pause lands mid-exploration.
    const std::size_t cap = pow2AtLeast(2 * entries);
    if (cap > mask_ + 1)
        sizeBuckets(cap);
    if (entries > entryCap_)
        growColumns(entries);
}

} // namespace cxl
