/**
 * @file
 * State-arena layer of the visited-state store.
 *
 * One StateArena holds a shard's state bytes as lane cells, appended
 * to fixed-size, index-addressed byte blocks allocated from the
 * shard's ShardMem backend (store_mem.hh) and located by a chunked
 * per-entry offset column (chunks never move, so workers may read
 * frontier offsets while peers append).  Both store modes use the
 * same cell format:
 *
 *   [mask:u64] [lane:u32 for every set mask bit, in lane order]
 *
 * Lane i is bytes [4i, 4i+4) of the state's active prefix
 * (SystemState::activeBytes(), zero-padded to a whole lane); the mask
 * records which lanes are nonzero and only those are stored.
 * Reachable states are sparse — most channel slots are empty and
 * InlineVec zeroes its tail — so a 182-byte 3-device prefix typically
 * encodes to a few tens of bytes.  Equal cells mean equal states
 * (ndev sits in lane 0), so full-mode dedup compares cells: the mask
 * word first, then the lanes only when the masks agree.
 *
 * The block-pointer spine and the offset-chunk spine are fully
 * reserved at init so they never reallocate — readers index them
 * lock-free for entries published before their expansion phase
 * began, the same contract the monolithic store had.
 *
 * seal(): at a BFS level barrier the arena drops every whole block
 * that belongs to levels finished expanding.  On an unrecoverable
 * backend (InRam) only compact mode drops, and dropped cells are gone
 * (cellRetained() goes false); full mode keeps everything.  On a
 * recoverable backend (Mmap) *both* modes drop: the mapped window
 * shrinks to roughly the frontier and its successors while the
 * backing file keeps every byte, and a dropped block is remapped on
 * demand (cellInto()) — which is also why counterexample traces stay
 * reconstructible under mmap even in compact mode.  Recovered blocks
 * are re-dropped at the next seal (the drop loop rescans from block
 * zero).
 *
 * Full-mode dedup against a sealed (dropped) block would fault pages
 * back per duplicate and re-grow the mapped window; the façade
 * instead keeps a verification fingerprint per entry on recoverable
 * full-mode backends and compares *that* when cellIfMapped() returns
 * null — identical detected-collision semantics to compact mode for
 * cold entries, exact cell comparison for the mapped window.
 *
 * Thread-safety: append/seal and the cold (recovering) readers run
 * under the shard lock or quiescent; cellInto on retained frontier
 * entries follows the façade's lock-free reader contract.
 */

#ifndef CXL_CHECKER_STORE_ARENA_HH
#define CXL_CHECKER_STORE_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "checker/store_mem.hh"
#include "protocol/state.hh"

namespace cxl
{

/** Storage policy of a StateStore (façade-level; see state_store.hh). */
enum class StoreMode : std::uint8_t {
    Full,    ///< keep every state; exact dedup; traces reconstructible
    Compact, ///< hash compaction: 64-bit fingerprints instead of states
};

/** Lanes in the widest active prefix (kMaxDevices devices). */
constexpr std::size_t kCellMaxLanes = (sizeof(SystemState) + 3) / 4;

/** Upper bound on one encoded cell: mask word plus every lane. */
constexpr std::size_t kMaxEncodedState = 8 + 4 * kCellMaxLanes;

static_assert(kCellMaxLanes <= 64, "lane mask is one u64");

/**
 * Encode @p state's active prefix as a lane cell (see the file
 * comment) into @p dst, which must hold kMaxEncodedState bytes.
 * @return the cell's length.
 */
std::size_t encodeCell(const SystemState &state, std::byte *dst);

/** Inverse of encodeCell; @p out is fully overwritten. */
void decodeCell(const std::byte *cell, SystemState &out);

/** True iff the stored cell @p cell encodes the same state as the
 * encoded candidate @p enc of length @p enc_len.  Reads at most the
 * mask word of @p cell when the masks differ. */
inline bool
cellEquals(const std::byte *cell, const std::byte *enc,
           std::size_t enc_len)
{
    return std::memcmp(cell, enc, 8) == 0 &&
           std::memcmp(cell + 8, enc + 8, enc_len - 8) == 0;
}

/** One shard's state-byte arena (see the file comment). */
class StateArena
{
  public:
    /** log2 of the byte-block size (256 KiB). */
    static constexpr std::uint32_t kBlockBits = 18;
    static constexpr std::size_t kBlockBytes = std::size_t{1}
                                               << kBlockBits;

    /** log2 of entries per chunk of the offset column. */
    static constexpr std::uint32_t kOffChunkBits = 16;
    static constexpr std::uint32_t kOffChunkSize = 1u << kOffChunkBits;

    /** Bind to a backend; @p max_entries bounds the offset spine. */
    void init(ShardMem *mem, StoreMode mode, std::uint32_t max_entries);

    /** True when dropped blocks can be remapped from the backing
     * file. */
    bool recoverable() const { return mem_->recoverable(); }

    /**
     * Append entry @p off's encoded cell (shard lock held).
     * @throws StoreFullError (shard @p shard_idx) when the shard's
     * 32-bit arena offset space is exhausted.
     */
    void append(std::uint32_t shard_idx, std::uint32_t off,
                const std::byte *cell, std::size_t len);

    /** Entry @p off's cell, or null when its block was dropped — the
     * façade's cue to fall back to fingerprint identity (shard lock
     * held). */
    const std::byte *
    cellIfMapped(std::uint32_t off) const
    {
        const std::uint32_t at = stateOffAt(off);
        const std::byte *base = blocks_[at >> kBlockBits];
        return base ? base + (at & (kBlockBytes - 1)) : nullptr;
    }

    /** Start loading entry @p off's cell offset. */
    void
    prefetchOffset(std::uint32_t off) const
    {
        __builtin_prefetch(&stateOffs_[off >> kOffChunkBits]
                                      [off & (kOffChunkSize - 1)]);
    }

    /** Start loading entry @p off's cell, if its block is mapped. */
    void
    prefetchCell(std::uint32_t off) const
    {
        const std::uint32_t at = stateOffAt(off);
        if (const std::byte *base = blocks_[at >> kBlockBits])
            __builtin_prefetch(base + (at & (kBlockBytes - 1)));
    }

    /** Decode entry @p off's cell (recovering its block if sealed —
     * then shard lock held or quiescent). */
    void cellInto(std::uint32_t off, SystemState &out) const;

    /** True while entry @p off's cell is still decodable: always on a
     * recoverable backend or in full mode; until seal() releases the
     * enclosing block otherwise. */
    bool
    cellRetained(std::uint32_t off) const
    {
        return byteFloor_ == 0 || stateOffAt(off) >= byteFloor_;
    }

    /**
     * BFS level barrier (quiescent): drop every whole block of levels
     * finished expanding.  No-op for full mode on unrecoverable
     * backends.
     */
    void seal();

  private:
    std::uint32_t
    stateOffAt(std::uint32_t off) const
    {
        return stateOffs_[off >> kOffChunkBits]
                         [off & (kOffChunkSize - 1)];
    }

    std::byte *recoverBlock(std::uint32_t block) const;

    ShardMem *mem_ = nullptr;
    StoreMode mode_ = StoreMode::Full;
    /**
     * Block-pointer cache, fully reserved (never reallocates; see the
     * file comment).  Null means dropped; mutable because cold reads
     * remap on demand without changing observable state.
     */
    mutable std::vector<std::byte *> blocks_;
    /** Offset column, in fixed chunks (never move). */
    std::vector<std::uint32_t *> stateOffs_;
    std::uint64_t byteCursor_ = 0; ///< next free arena byte
    std::uint64_t byteFloor_ = 0;  ///< lost below this (InRam compact)
    std::uint64_t levelBoundary_ = 0; ///< byte cursor at the last seal
};

} // namespace cxl

#endif // CXL_CHECKER_STORE_ARENA_HH
