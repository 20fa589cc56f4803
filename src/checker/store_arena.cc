#include "checker/store_arena.hh"

#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

namespace cxl
{

namespace
{

std::uint64_t
load64(const std::byte *p)
{
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    return w;
}

/**
 * Hash of an @p n-byte slice for the table's index: one independent
 * 128-bit multiply per 16 bytes, summed (the blocks overlap at the
 * tail when n >= 8 instead of assembling a partial word).  Cheaper
 * than hashBytes' serial chain, and good enough for an index whose
 * every hit is confirmed byte for byte.
 */
std::uint64_t
sliceHash(const std::byte *p, std::size_t n)
{
    std::uint64_t h = n * 0x9e3779b97f4a7c15ull;
    std::uint64_t k = 0xa0761d6478bd642full;
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16, k += 0xe7037ed1a0b428dbull)
        h += mum(load64(p + i) ^ k, load64(p + i + 8) ^ ~k);
    if (i < n) {
        std::uint64_t x = 0, y = 0;
        if (n < 8) {
            std::memcpy(&x, p, n);
        } else if (n - i > 8) {
            x = load64(p + i);
            y = load64(p + n - 8);
        } else {
            x = load64(p + n - 8);
        }
        h += mum(x ^ k, y ^ ~k);
    }
    return mix64(h);
}

/** Whether the @p n bytes at @p a and @p b are equal: an inline word
 * loop (the last word overlapping when n >= 8), since @p n is a
 * runtime width. */
bool
sameBytes(const std::byte *a, const std::byte *b, std::size_t n)
{
    if (n < 8)
        return std::memcmp(a, b, n) == 0;
    for (std::size_t i = 0; i + 8 < n; i += 8) {
        if (load64(a + i) != load64(b + i))
            return false;
    }
    return load64(a + n - 8) == load64(b + n - 8);
}

} // namespace

SliceTable::Key
SliceTable::keyOf(const void *bytes) const
{
    // The top bits pick the stripe; the tag (the high half) picks the
    // slot, so the two stay independent.
    const std::uint64_t h =
        sliceHash(static_cast<const std::byte *>(bytes), width_);
    return {static_cast<std::uint32_t>(h >> (64 - kStripeBits)),
            static_cast<std::uint32_t>(h >> 32)};
}

SliceTable::Probe
SliceTable::probe(const Index &ix, Key key, const void *bytes) const
{
    const std::uint32_t stripe_tag = key.stripe << kLocalBits;
    for (std::size_t slot = key.tag & ix.mask;;
         slot = (slot + 1) & ix.mask) {
        const std::uint64_t v =
            ix.slots[slot].load(std::memory_order_acquire);
        if (v == 0)
            return {false, 0, slot};
        const std::uint32_t id =
            stripe_tag | (static_cast<std::uint32_t>(v) - 1);
        if (v >> 32 == key.tag &&
            sameBytes(at(id), static_cast<const std::byte *>(bytes),
                      width_))
            return {true, id, slot};
    }
}

std::optional<std::uint32_t>
SliceTable::find(const void *bytes) const
{
    const Key key = keyOf(bytes);
    const Index *ix =
        stripes_[key.stripe].index.load(std::memory_order_acquire);
    if (ix == nullptr)
        return std::nullopt;
    const Probe p = probe(*ix, key, bytes);
    return p.found ? std::optional<std::uint32_t>(p.id) : std::nullopt;
}

std::uint32_t
SliceTable::intern(const void *bytes)
{
    // A slice seen before is found without the lock.
    if (const std::optional<std::uint32_t> id = find(bytes))
        return *id;

    const Key key = keyOf(bytes);
    Stripe &s = stripes_[key.stripe];
    std::lock_guard<std::mutex> lock(s.mutex);
    // Grow at 3/4 load; power-of-two capacity keeps the probe a mask.
    if (s.indexes.empty() ||
        4 * (std::size_t{s.count} + 1) > 3 * (s.indexes.back()->mask + 1))
        grow(s);
    const Index &ix = *s.indexes.back();
    const Probe p = probe(ix, key, bytes);
    if (p.found)
        return p.id;

    if (s.count == kStripeSlices) {
        throw std::length_error("SliceTable stripe " +
                                std::to_string(key.stripe) +
                                " full (2^20 distinct slices per "
                                "stripe)");
    }
    const std::uint32_t local = s.count++;
    const auto [k, i] = place(local);
    if (!s.chunks[k]) {
        s.chunks[k].reset(new std::byte[(std::size_t{1}
                                         << (kFirstChunkBits + k)) *
                                        width_]);
    }
    std::memcpy(s.chunks[k].get() + std::size_t{i} * width_, bytes,
                width_);
    ix.slots[p.slot].store(std::uint64_t{key.tag} << 32 | (local + 1),
                           std::memory_order_release);
    return key.stripe << kLocalBits | local;
}

void
SliceTable::grow(Stripe &s)
{
    const std::size_t size =
        s.indexes.empty() ? 16 : 2 * (s.indexes.back()->mask + 1);
    auto ix = std::make_unique<Index>(size);
    if (!s.indexes.empty()) {
        const Index &old = *s.indexes.back();
        for (std::size_t j = 0; j <= old.mask; ++j) {
            const std::uint64_t v =
                old.slots[j].load(std::memory_order_relaxed);
            if (v == 0)
                continue;
            std::size_t slot = (v >> 32) & ix->mask;
            while (ix->slots[slot].load(std::memory_order_relaxed) != 0)
                slot = (slot + 1) & ix->mask;
            ix->slots[slot].store(v, std::memory_order_relaxed);
        }
    }
    // Readers still probing the old index find only slices it held;
    // a miss sends them here, under the lock, to the new one.
    s.index.store(ix.get(), std::memory_order_release);
    s.indexes.push_back(std::move(ix));
}

std::size_t
SliceTable::size() const
{
    std::size_t total = 0;
    for (const Stripe &s : stripes_)
        total += s.count;
    return total;
}

void
StateArena::init(ShardMem *mem, std::uint32_t max_entries)
{
    mem_ = mem;
    // Fully reserve the spine: it must never reallocate, because
    // readers index it lock-free (see the file comment).
    blocks_.reserve((max_entries >> kBlockBits) + 1);
}

void
StateArena::append(std::uint32_t off, const std::byte *cell,
                   std::uint32_t width)
{
    if (width_ == 0)
        width_ = width;
    assert(width == width_ && off == count_);
    const std::uint32_t bytes = kIdBytes * width_;
    const std::uint32_t block = off >> kBlockBits;
    if (block == blocks_.size()) {
        blocks_.push_back(static_cast<std::byte *>(mem_->blockAlloc(
            block, std::size_t{kBlockCells} * bytes)));
    }
    std::memcpy(blocks_[block] +
                    std::size_t{off & (kBlockCells - 1)} * bytes,
                cell, bytes);
    count_ = off + 1;
}

} // namespace cxl
