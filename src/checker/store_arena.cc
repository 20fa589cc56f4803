#include "checker/store_arena.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <string>

#include "checker/state_store.hh"

namespace cxl
{

std::size_t
encodeCell(const SystemState &state, std::byte *dst)
{
    const auto *src = reinterpret_cast<const unsigned char *>(&state);
    const std::size_t len = state.activeBytes();
    const std::size_t whole = len / 4;
    // Pass 1: the mask, from whole lanes plus the zero-padded partial
    // last lane.  Pass 2: copy out only the lanes it names.
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < whole; ++i) {
        std::uint32_t v;
        std::memcpy(&v, src + 4 * i, 4);
        mask |= std::uint64_t{v != 0} << i;
    }
    unsigned char tail[4] = {};
    for (std::size_t b = 4 * whole; b < len; ++b)
        tail[b - 4 * whole] = src[b];
    std::uint32_t tail_lane;
    std::memcpy(&tail_lane, tail, 4);
    mask |= std::uint64_t{tail_lane != 0} << whole;

    std::memcpy(dst, &mask, 8);
    std::byte *out = dst + 8;
    for (std::uint64_t m = mask; m != 0; m &= m - 1, out += 4) {
        const std::size_t lane =
            static_cast<std::size_t>(std::countr_zero(m));
        std::memcpy(out, lane < whole ? src + 4 * lane : tail, 4);
    }
    return static_cast<std::size_t>(out - dst);
}

void
decodeCell(const std::byte *cell, SystemState &out)
{
    // Only the last lane of a kMaxDevices prefix overhangs the record.
    constexpr std::size_t kLast = kCellMaxLanes - 1;
    constexpr std::size_t kLastBytes = sizeof(SystemState) - 4 * kLast;

    std::memset(static_cast<void *>(&out), 0, sizeof(SystemState));
    auto *dst = reinterpret_cast<unsigned char *>(&out);
    std::uint64_t mask;
    std::memcpy(&mask, cell, 8);
    const std::byte *in = cell + 8;
    for (std::uint64_t m = mask & ~(std::uint64_t{1} << kLast); m != 0;
         m &= m - 1, in += 4) {
        std::memcpy(dst + 4 * std::countr_zero(m), in, 4);
    }
    if (mask >> kLast)
        std::memcpy(dst + 4 * kLast, in, kLastBytes);
}

void
StateArena::init(ShardMem *mem, StoreMode mode,
                 std::uint32_t max_entries)
{
    mem_ = mem;
    mode_ = mode;
    // Cells are offset-addressed with 32 bits per shard: up to 4 GiB
    // of cells per shard.  Fully reserve both spines: they must never
    // reallocate, because readers index them lock-free (see the file
    // comment).
    blocks_.reserve((std::uint64_t{1} << 32) >> kBlockBits);
    stateOffs_.reserve((max_entries >> kOffChunkBits) + 1);
}

std::byte *
StateArena::recoverBlock(std::uint32_t block) const
{
    auto *p = static_cast<std::byte *>(mem_->blockRecover(block));
    assert(p && "sealed state block unrecoverable on this backend");
    blocks_[block] = p;
    return p;
}

void
StateArena::append(std::uint32_t shard_idx, std::uint32_t off,
                   const std::byte *cell, std::size_t len)
{
    // A cell never straddles blocks; skip a too-small tail.
    std::uint64_t at = byteCursor_;
    if ((at & (kBlockBytes - 1)) + len > kBlockBytes)
        at = (at | (kBlockBytes - 1)) + 1;
    if (at + len > (std::uint64_t{1} << 32)) {
        throw StoreFullError(
            shard_idx,
            "StateStore shard " + std::to_string(shard_idx) +
                " arena offset space exhausted (4 GiB of encoded "
                "states); pre-size with --expect-states so sealing "
                "keeps up, or lower the run's budgets");
    }
    const auto block = static_cast<std::uint32_t>(at >> kBlockBits);
    while (block >= blocks_.size()) {
        blocks_.push_back(static_cast<std::byte *>(mem_->blockAlloc(
            static_cast<std::uint32_t>(blocks_.size()), kBlockBytes)));
    }
    std::memcpy(blocks_[block] + (at & (kBlockBytes - 1)), cell, len);
    const std::uint32_t chunk = off >> kOffChunkBits;
    if (chunk == stateOffs_.size()) {
        stateOffs_.push_back(static_cast<std::uint32_t *>(
            mem_->chunkAlloc(kOffChunkSize * sizeof(std::uint32_t))));
    }
    stateOffs_[chunk][off & (kOffChunkSize - 1)] =
        static_cast<std::uint32_t>(at);
    byteCursor_ = at + len;
}

void
StateArena::cellInto(std::uint32_t off, SystemState &out) const
{
    const std::uint32_t at = stateOffAt(off);
    assert(cellRetained(off) && "state released by sealLevel");
    const std::uint32_t block = at >> kBlockBits;
    const std::byte *base = blocks_[block];
    if (!base)
        base = recoverBlock(block);
    decodeCell(base + (at & (kBlockBytes - 1)), out);
}

void
StateArena::seal()
{
    if (mode_ == StoreMode::Full && !mem_->recoverable())
        return; // in-RAM full store: nothing is ever released
    // Blocks wholly below the previous level boundary belong to
    // levels whose expansion has finished; the frontier no longer
    // reads them.  Release whole blocks only — a partial tail block
    // is shared with the still-needed frontier.  The loop rescans
    // from zero so blocks recovered since the last seal go cold
    // again.
    const std::uint64_t floor_block = levelBoundary_ >> kBlockBits;
    for (std::uint64_t b = 0; b < floor_block; ++b) {
        if (blocks_[b]) {
            mem_->blockDrop(static_cast<std::uint32_t>(b));
            blocks_[b] = nullptr;
        }
    }
    if (!mem_->recoverable())
        byteFloor_ = std::max(byteFloor_, floor_block << kBlockBits);
    levelBoundary_ = byteCursor_;
}

} // namespace cxl
