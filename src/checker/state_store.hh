/**
 * @file
 * Visited-state store of the explicit-state checker: the engine-facing
 * façade over three layers.
 *
 * The store is sharded for concurrency: a state's slices are
 * interned first, outside any lock, and the hash of its slice ids
 * (hashIds) routes it (top bits) to one of kNumShards lock-striped
 * shards, each an open-addressing table kept 53-80% full.  This façade
 * owns the probe/insert/batch algorithm, packed-id semantics and the
 * per-shard locks; the data lives in two layers below it, both
 * allocated from a per-shard memory backend:
 *
 *  - ShardColumns (store_columns.hh): the one entry column — the
 *    chunked atomic one-byte depth label, whose value 255 defers to a
 *    wide u32 column allocated only for deep entries — plus the
 *    bucket array, whose u32 buckets carry the id hash's tag bits
 *    above the entry link.  It
 *    grows by 3/2 before its load would pass 4/5.  No column keeps
 *    the hash: shard growth rehashes each entry's cell.
 *  - StateArena (store_arena.hh): the states, as cells of ndev packed
 *    3-byte slice ids — the lead slice (the record's first 64 bytes: the
 *    host fields and device 0) and one 59-byte DeviceState slice per
 *    further device, each interned in one store-wide SliceTable per
 *    slice kind — in index-addressed blocks.  Every cell is kept for
 *    the store's lifetime.  The slice tables are on the heap under
 *    every backend and grow with the distinct slices, not the states.
 *  - ShardMem (store_mem.hh): where both layers get memory: one
 *    mapping per bucket array, depth chunk and arena block,
 *    grown by mremap.  InRam maps anonymous memory; Mmap backs every
 *    shard by files (anonymous memfd, or files under an explicit
 *    directory) holding the same cells.
 *
 * One identity rule, exact on every configuration: two states are
 * the same state exactly when their slice ids are equal (COLLAPSE's
 * rule; see store_arena.hh).  A bucket whose tag agrees with the
 * candidate's id hash is settled by comparing its cell with the
 * candidate's packed ids; no slice is read and no verdict rests on a
 * hash.
 * find() looks the slices up without interning them: a slice that
 * was never interned means the state was never stored.
 *
 * The depth label is an entry's only breadcrumb: witness paths are
 * searched out with find() (labelPath, expand.hh) and replayed
 * (replayTrace, explorer.hh), not decoded from cells.
 *
 * State identifiers are (shard, offset) pairs packed into a u32:
 * the top kShardBits select the shard, the low kOffsetBits index the
 * shard's entries.  Packed ids are stable for the lifetime of
 * the store, identical across backends, and never collide with
 * kNoParent.
 *
 * Thread-safety: insert() and insertBatch() may be called
 * concurrently from any number of threads; no lock is ever taken
 * inside another.  stateInto() is safe concurrently with inserts
 * *for ids published before the current expansion phase began*
 * (the arena blocks holding them are fixed, the block spine never
 * reallocates, and slice chunks never move).
 * The depth column is chunked atomics (one byte per entry, wide
 * cells behind a release/acquire escape): depthAt() may be read
 * lock-free at any time (the level schedule's POR flush reads the
 * label of a target a peer inserted this level), while find() and
 * growForNextLevel() must only be used while the store is quiescent
 * — the explorer calls them between depth barriers or after
 * termination.  A label is written once, when its entry is appended:
 * a duplicate insert leaves the stored depth as it is.
 *
 * Compatibility shims, kept only because the pinned benchmark harness
 * (bench/cxl_bench) still spells them; each goes in the next change
 * to that harness: StoreMode and StoreConfig::mode (ignored — every
 * store keeps every cell), sealLevel() (a no-op),
 * insert(state, parent, rule, depth) (drops the parent and rule) and
 * BatchItem::hash (the harness writes it; the store never reads it).
 */

#ifndef CXL_CHECKER_STATE_STORE_HH
#define CXL_CHECKER_STATE_STORE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "checker/store_arena.hh"
#include "checker/store_columns.hh"
#include "checker/store_mem.hh"
#include "protocol/state.hh"

namespace cxl
{

/**
 * A StateStore shard ran out of room: its entry count reached the
 * capacity limit (architectural 2^28 per shard, or the smaller
 * per-run limit derived from EngineOptions::storeCapacity), or a
 * store-wide slice table ran out of ids (2^20 distinct slices per
 * stripe).  The explorers catch this and convert it into a graceful
 * governed stop (StopReason::ShardFull) — the explored prefix stays a
 * valid partial result.  what() names the shard, its computed entry
 * limit and the available --store kinds, or the full slice stripe.
 */
class StoreFullError : public std::length_error
{
  public:
    StoreFullError(std::uint32_t shard, const std::string &what)
        : std::length_error(what), shard_(shard)
    {
    }

    /** Index of the shard that filled first; kNumShards when a slice
     * table did, which no shard owns. */
    std::uint32_t shard() const { return shard_; }

  private:
    std::uint32_t shard_;
};

/** Compatibility shim for the pinned benchmark harness (see the file
 * comment): both values build the same exact store. */
enum class StoreMode : std::uint8_t { Full, Compact };

/** Construction parameters of a StateStore (see the file comment for
 * what each axis selects). */
struct StoreConfig {
    /** Total bucket hint, split across shards. */
    std::size_t initialBuckets = 1 << 16;
    /** Ignored (a shim; see StoreMode). */
    StoreMode mode = StoreMode::Full;
    /** Anonymous (InRam) or file-backed (Mmap, out-of-core) shard
     * memory; both are mappings, but only Mmap's count as mapped
     * file bytes. */
    StoreBackend backend = StoreBackend::InRam;
    /** Mmap backend: backing directory; "" = anonymous in-memory
     * files (memfd). */
    std::string dir;
    /**
     * Total-state ceiling enforced per shard (each shard holds at
     * most max(1, capacityLimit / kNumShards) entries; inserts beyond
     * that throw StoreFullError).  0 means the architectural
     * per-shard maximum.  Exists so the shard-full path is testable
     * without 2^28 inserts, and as the contract point for bounded
     * runs.
     */
    std::uint64_t capacityLimit = 0;
};

/** Sharded dense store of deduplicated states with depth labels. */
class StateStore
{
  public:
    /** Sentinel parent index for root states (BatchItem::parent). */
    static constexpr std::uint32_t kNoParent = 0xffffffffu;

    /** log2 of the shard count. */
    static constexpr std::uint32_t kShardBits = 4;
    /** Number of lock-striped shards. */
    static constexpr std::uint32_t kNumShards = 1u << kShardBits;
    /** Bits of a packed id addressing within a shard. */
    static constexpr std::uint32_t kOffsetBits = 32 - kShardBits;
    /** Mask extracting the offset from a packed id. */
    static constexpr std::uint32_t kOffsetMask =
        (1u << kOffsetBits) - 1;

    /**
     * One pending insert of a batched flush.  The caller fills state
     * and depth; insertBatch fills id and inserted.  The
     * store never reads hash, parent and rule: hash is a shim (see
     * the file comment), and parent and rule are the caller's record
     * of the edge, read back after the flush (kernel overflow
     * candidates, bench walker POR edges).
     */
    struct BatchItem {
        // The order packs the struct: rule and parent fill the
        // padding state leaves before the 8-byte hash.
        SystemState state;
        std::uint16_t rule = 0;
        std::uint32_t parent = kNoParent;
        std::uint64_t hash = 0;
        std::uint32_t depth = 0;
        // Filled by insertBatch:
        std::uint32_t id = 0;
        bool inserted = false;

      private:
        friend class StateStore;
        // insertBatch scratch: the state's cell (its slice ids,
        // packed), the low half of the ids' hash (all a shard's
        // buckets read; the top bits chose the shard) and the shard
        // chain.
        std::byte cell_[kMaxCellBytes] = {};
        std::uint32_t idHash_ = 0;
        std::uint32_t next_ = 0;
    };

    explicit StateStore(const StoreConfig &config);

    /** Convenience: InRam backend with the given knobs. */
    explicit StateStore(std::size_t initial_buckets = 1 << 16,
                        std::uint64_t capacity_limit = 0)
        : StateStore(StoreConfig{initial_buckets, StoreMode::Full,
                                 StoreBackend::InRam, std::string(),
                                 capacity_limit})
    {
    }

    StateStore(const StateStore &) = delete;
    StateStore &operator=(const StateStore &) = delete;

    /**
     * Pre-size every shard for ~expected/kNumShards entries: each
     * bucket array grows now to the capacity insert-time growth would
     * reach at the hint, so a run of the expected size performs no
     * rehash and holds no more buckets than one without the hint.
     * Callable only while quiescent.
     */
    void reserveStates(std::uint64_t expected);

    /**
     * Insert a state if new.  Every state of one store has the same
     * ndev: the first insert fixes it, and a state of another device
     * count is a logic error.
     *
     * @throws std::logic_error on a state of another device count.
     * @return (packed id, inserted): id of the canonical entry for the
     *         state, and whether this call created it.
     */
    std::pair<std::uint32_t, bool> insert(const SystemState &state,
                                          std::uint32_t depth);

    /** A compatibility shim (see the file comment): insert(state,
     * depth), the parent and rule dropped. */
    std::pair<std::uint32_t, bool>
    insert(const SystemState &state, std::uint32_t /*parent*/,
           std::uint16_t /*rule_id*/, std::uint32_t depth)
    {
        return insert(state, depth);
    }

    /**
     * Batched insert: deduplicate/insert every item, taking each
     * destination shard's lock once per batch instead of once per
     * item.  Every item's slices are interned first, in batch order;
     * items are then grouped by shard (chained on their id hash's top
     * bits) and processed in batch order within a shard, so
     * duplicate items inside one batch resolve exactly as sequential
     * inserts would.  Results are returned through item.id /
     * item.inserted.
     */
    void insertBatch(BatchItem *items, std::size_t count);

    /**
     * insertBatch for a flush that may cross a state cap: below
     * @p soft_cap the whole batch goes in at once; at or past it the
     * items go in one at a time and the rest are left uninserted once
     * size() reaches @p cap.  With every concurrent flusher doing the
     * same, the store ends at most one batch per flusher past @p cap:
     * a flusher that saw size() below @p soft_cap inserts its whole
     * batch even if its peers reach @p cap meanwhile.
     *
     * @return the number of leading items processed; the results of
     *         the others are unset.
     */
    std::size_t insertBatchCapped(BatchItem *items, std::size_t count,
                                  std::uint64_t soft_cap,
                                  std::uint64_t cap);

    /**
     * The state for a packed id, decoded into a per-thread buffer that
     * the calling thread's next stateAt() overwrites.  Same contract
     * as stateInto(); kept for callers that want a reference.
     */
    const SystemState &
    stateAt(std::uint32_t id) const
    {
        thread_local SystemState buf;
        stateInto(id, buf);
        return buf;
    }

    /** Decode the state for a packed id into @p out; every entry
     * decodes, on every store kind. */
    void stateInto(std::uint32_t id, SystemState &out) const;

    /** The id of @p state's entry, if stored (same identity as
     * insert); interns nothing.  Quiescent use only. */
    std::optional<std::uint32_t> find(const SystemState &state) const;

    /**
     * The depth label of @p id, an id some insert has returned.  Safe
     * concurrently with inserts (chunked atomic column; see
     * store_columns.hh for the wide escape).
     */
    std::uint32_t
    depthAt(std::uint32_t id) const
    {
        return shards_[shardOf(id)].cols.depthOf(id & kOffsetMask);
    }

    /** A no-op: a compatibility shim (see the file comment); every
     * cell is kept. */
    void sealLevel() {}

    /**
     * BFS level-barrier growth of shard @p shard; call only while
     * quiescent, once per shard per barrier (distinct shards may be
     * done in parallel).  When another level as large as the one
     * inserted into the shard since the previous call would take it
     * past 4/5 load, its buckets are re-slotted now, sized for that
     * level: otherwise the rehash — a re-read of every cell — runs
     * mid-level under the shard lock while peers routed to the shard
     * wait.  Insert-time growth remains the fallback for a level that
     * outgrows the estimate.
     */
    void growForNextLevel(std::uint32_t shard);

    /** Total states across all shards. */
    std::size_t
    size() const
    {
        return total_.load(std::memory_order_acquire);
    }

    /** Bytes currently mapped by file-backed shard memory (0 on
     * InRam).  Readable from any thread (relaxed counters). */
    std::uint64_t mappedBytes() const;

    /** Total size of the shards' backing files (0 on InRam). */
    std::uint64_t backingFileBytes() const;

    /** Shard a packed id belongs to. */
    static constexpr std::uint32_t
    shardOf(std::uint32_t id)
    {
        return id >> kOffsetBits;
    }

  private:
    /** Tests forge id hashes through it (probeInsertLocked). */
    friend struct StateStoreTestPeer;

    struct alignas(64) Shard {
        mutable std::mutex mutex;
        std::unique_ptr<ShardMem> mem;
        ShardColumns cols;
        StateArena arena;
        /** Entry ceiling; inserting past it throws StoreFullError. */
        std::uint32_t limit = kOffsetMask;
        /** Entries at the previous growForNextLevel call. */
        std::uint32_t levelStart = 0;
    };

    struct InsertOutcome {
        std::uint32_t id;
        bool inserted;
    };

    /** Bytes of a state's host fields: those before dev[]. */
    static constexpr std::size_t kHostBytes = offsetof(SystemState, dev);
    /** Bytes of a state's lead slice: the host fields and dev[0]. */
    static constexpr std::size_t kLeadBytes =
        kHostBytes + sizeof(DeviceState);
    /** probe()'s result when the cell is not in the shard. */
    static constexpr std::uint32_t kAbsent = 0xffffffffu;

    /** The shard an id hash routes to (its top bits). */
    static constexpr std::uint32_t
    shardOfHash(std::uint64_t hash)
    {
        return static_cast<std::uint32_t>(hash >> (64 - kShardBits));
    }

    /** Intern @p state's slices, pack their ids into @p cell (room
     * for kMaxCellBytes) and return hashIds of them, fixing the
     * store's device count on first use.
     * @throws std::logic_error on a state of another device count.
     * @throws StoreFullError when a slice table is out of ids. */
    std::uint64_t internSlices(const SystemState &state, std::byte *cell);

    /** The offset of @p shard's entry whose cell is @p cell (of id
     * hash @p hash, of which only the low 32 bits are read), else
     * kAbsent with @p slot at the empty bucket where it belongs.
     * Under the shard lock, or quiescent. */
    std::uint32_t probe(const Shard &shard, const std::byte *cell,
                        std::uint64_t hash, std::uint64_t &slot) const;

    InsertOutcome
    probeInsertLocked(std::uint32_t shard_idx, Shard &shard,
                      const std::byte *cell, std::uint64_t hash,
                      std::uint32_t depth);

    Shard shards_[kNumShards];
    /** Slice tables, shared by every shard (see store_arena.hh). */
    SliceTable leads_{kLeadBytes};
    SliceTable devices_{sizeof(DeviceState)};
    /** The device count of every stored state, fixed by the first
     * insert (0 before); a cell is ndev packed ids. */
    std::atomic<std::uint32_t> ndev_{0};
    std::atomic<std::uint64_t> total_{0};
};

} // namespace cxl

#endif // CXL_CHECKER_STATE_STORE_HH
