/**
 * @file
 * Visited-state store of the explicit-state checker: the engine-facing
 * façade over three layers.
 *
 * The store is sharded for concurrency: a state's 64-bit probe hash
 * routes it (top bits) to one of kNumShards lock-striped shards, each
 * a power-of-two open-addressing table.  This façade owns the
 * probe/insert/batch algorithm, packed-id semantics and the
 * per-shard locks; the data lives in two layers below it, both
 * allocated from a per-shard memory backend:
 *
 *  - ShardColumns (store_columns.hh): the one entry column — the
 *    chunked atomic depth label — plus the bucket array, whose u32
 *    buckets carry the probe hash's tag bits above the entry link.
 *    No column keeps the probe hash: shard growth rehashes each
 *    entry from its cell.
 *  - StateArena (store_arena.hh): the states, as cells of ndev u32
 *    slice ids — the lead slice (the record's first 64 bytes: the
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
 * One identity rule, exact on every configuration: a probe match —
 * a bucket whose tag agrees with the probe hash — is compared slice
 * by slice against the candidate's bytes.  No verdict rests on a
 * hash or fingerprint match.  Only a fresh insert interns slices.  A
 * full 64-bit probe-hash match (read off the cell) with an identity
 * mismatch is a *detected* collision, counted in probeCollisions();
 * the states stay distinct.  Because growth recomputes probe hashes
 * from the cells, the probe hash a caller passes must be
 * state.hash().
 *
 * The depth label is an entry's only breadcrumb: witness paths are
 * searched out with find() (witnessPath, expand.hh) and replayed
 * (replayTrace, explorer.hh), not decoded from cells.
 *
 * State identifiers are (shard, offset) pairs packed into a u32:
 * the top kShardBits select the shard, the low kOffsetBits index the
 * shard's entries.  Packed ids are stable for the lifetime of
 * the store, identical across backends, and never collide with
 * kNoParent.
 *
 * Thread-safety: insert() and insertBatch() may be called
 * concurrently from any number of threads.  stateInto() is safe
 * concurrently with inserts *for ids published before the current
 * expansion phase began* (the arena blocks holding them are fixed,
 * the block spine never reallocates, and slice chunks never move).
 * The depth column is chunked atomics: depthAt() may be read
 * lock-free at any time (the work-stealing explorer's stale-task
 * check depends on this), while find() and growForNextLevel() must
 * only be used while the store is quiescent — the explorers call
 * them between depth barriers or after termination.
 *
 * Duplicate inserts carrying a *smaller* depth than the stored entry
 * relabel the entry's depth in place and report BatchItem::improved
 * — the label-correcting step of the work-stealing schedule's
 * shortest-path convergence.  Under the depth-synchronized BFS
 * schedule duplicates never arrive with a smaller depth, so the
 * update is exercised only by the async engine.
 *
 * Compatibility shims, kept only because the pinned benchmark harness
 * (bench/cxl_bench) still spells them; each goes in the next change
 * to that harness: StoreMode and StoreConfig::mode (ignored — every
 * store keeps every cell), sealLevel() (a no-op) and
 * insert(state, parent, rule, depth) (drops the parent and rule).
 */

#ifndef CXL_CHECKER_STATE_STORE_HH
#define CXL_CHECKER_STATE_STORE_HH

#include <atomic>
#include <cassert>
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
 * per-run limit derived from EngineOptions::storeCapacity).  The
 * explorers catch this and convert it into a graceful governed stop
 * (StopReason::ShardFull) — the explored prefix stays a valid
 * partial result.  what() names the shard, its computed entry limit
 * and the available --store kinds.
 */
class StoreFullError : public std::length_error
{
  public:
    StoreFullError(std::uint32_t shard, const std::string &what)
        : std::length_error(what), shard_(shard)
    {
    }

    /** Index of the shard that filled first. */
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
     * One pending insert of a batched flush.  The caller fills state,
     * hash (state.hash(), see insert()) and depth; insertBatch fills
     * id, inserted and improved.  The store never reads parent and
     * rule: they are the caller's record of the edge, read back after
     * the flush (kernel overflow candidates, bench walker POR edges).
     */
    struct BatchItem {
        SystemState state;
        std::uint64_t hash = 0;
        std::uint32_t parent = kNoParent;
        std::uint32_t depth = 0;
        std::uint16_t rule = 0;
        // Filled by insertBatch:
        std::uint32_t id = 0;
        bool inserted = false;
        /** Known state relabelled to a smaller depth (see the class
         * comment); the async explorer re-expands it. */
        bool improved = false;

      private:
        friend class StateStore;
        std::uint32_t next_ = 0; ///< shard-chain scratch
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
     * Pre-size every shard for ~expected/kNumShards entries: bucket
     * arrays sized for <= 0.5 load at the hint, so a run of the
     * expected size performs no rehash.  Callable only while
     * quiescent.
     */
    void reserveStates(std::uint64_t expected);

    /**
     * Insert a state if new (probe hash computed internally).  Every
     * state of one store has the same ndev: the first insert fixes
     * it, and a state of another device count is a logic error.
     *
     * @throws std::logic_error on a state of another device count.
     * @return (packed id, inserted): id of the canonical entry for the
     *         state, and whether this call created it.
     */
    std::pair<std::uint32_t, bool>
    insert(const SystemState &state, std::uint32_t depth)
    {
        return insert(state, state.hash(), depth);
    }

    /** A compatibility shim (see the file comment): insert(state,
     * depth), the parent and rule dropped. */
    std::pair<std::uint32_t, bool>
    insert(const SystemState &state, std::uint32_t /*parent*/,
           std::uint16_t /*rule_id*/, std::uint32_t depth)
    {
        return insert(state, depth);
    }

    /**
     * Insert with a precomputed probe hash.  Parallel workers hash
     * outside the shard lock and pass the value here so the lock only
     * covers the probe/append.  @p hash must be state.hash()
     * (debug-asserted): the store recomputes it from the cell when a
     * shard grows.
     */
    std::pair<std::uint32_t, bool>
    insert(const SystemState &state, std::uint64_t hash,
           std::uint32_t depth);

    /**
     * Batched insert: deduplicate/insert every item, taking each
     * destination shard's lock once per batch instead of once per
     * item.  Items are grouped by shard (counting sort on the hash's
     * top bits) and processed in batch order within a shard, so
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
     * insert); quiescent use only. */
    std::optional<std::uint32_t> find(const SystemState &state) const;

    /**
     * Current depth label of @p id.  Safe concurrently with inserts
     * and improvements (chunked atomic column, relaxed load): a racy
     * read may be stale, but depths only ever decrease, so a stale
     * value is an upper bound — exactly what the async explorer's
     * stale-task check needs.  Exact once quiescent.
     */
    std::uint32_t
    depthAt(std::uint32_t id) const
    {
        return shards_[shardOf(id)]
            .cols.depthCell(id & kOffsetMask)
            .load(std::memory_order_relaxed);
    }

    /** Largest depth label over all entries; quiescent use only. */
    std::uint32_t maxDepthQuiescent() const;

    /** Number of entries with depth <= @p depth; quiescent use only.
     * The async explorer uses this to reproduce the BFS
     * stop-at-level state count on violation-stopped runs. */
    std::uint64_t countDepthAtMost(std::uint32_t depth) const;

    /** A no-op: a compatibility shim (see the file comment); every
     * cell is kept. */
    void sealLevel() {}

    /**
     * BFS level-barrier growth of shard @p shard; call only while
     * quiescent, once per shard per barrier (distinct shards may be
     * done in parallel).  When another level as large as the one
     * inserted into the shard since the previous call would take it
     * past 3/4 load, its buckets are re-slotted now, sized for that
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

    /**
     * Probe-hash collisions observed so far: inserts whose 64-bit
     * probe hash matched an existing entry whose cell holds a
     * different state.  Each one is a state pair that probe-hash-only
     * compaction would have merged silently.  A bucket-tag match
     * alone does not count.  Quiescent use only.
     */
    std::uint64_t probeCollisions() const;

    /** Shard a packed id belongs to. */
    static constexpr std::uint32_t
    shardOf(std::uint32_t id)
    {
        return id >> kOffsetBits;
    }

  private:
    /** Tests forge probe hashes through it (probeInsertLocked). */
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
        bool improved;
    };

    /** Bytes of a state's host fields: those before dev[]. */
    static constexpr std::size_t kHostBytes = offsetof(SystemState, dev);
    /** Bytes of a state's lead slice: the host fields and dev[0]. */
    static constexpr std::size_t kLeadBytes =
        kHostBytes + sizeof(DeviceState);

    /** What a tag-matched entry is to the candidate: another state,
     * the same one, or another state of the same 64-bit probe hash. */
    enum class Match { Other, Same, Collision };

    /** Compare entry @p off of @p shard, whose bucket tag agrees with
     * @p hash, with @p state. */
    Match match(const Shard &shard, std::uint32_t off,
                const SystemState &state, std::uint64_t hash) const;

    /** Whether entry @p off of @p shard holds @p state: the identity
     * rule (see the file comment). */
    bool holds(const Shard &shard, std::uint32_t off,
               const SystemState &state) const;

    /** The probe hash of entry @p off's cell: hash() of the active
     * bytes rebuilt from its slices. */
    std::uint64_t cellHash(const Shard &shard, std::uint32_t off) const;

    /** cellHash of entries [@p first, @p first + @p n) into @p out,
     * their slices' loads overlapped (growth's EntryHashes). */
    void cellHashes(const Shard &shard, std::uint32_t first,
                    std::uint32_t n, std::uint64_t *out) const;

    /** Intern @p state's slices into @p ids (room for kMaxDevices)
     * and return the cell width (ndev), fixing the store's device
     * count on first use.
     * @throws std::logic_error on a state of another device count. */
    std::uint32_t internSlices(const SystemState &state,
                               std::uint32_t *ids);

    InsertOutcome
    probeInsertLocked(std::uint32_t shard_idx, Shard &shard,
                      const SystemState &state, std::uint64_t hash,
                      std::uint32_t depth);

    Shard shards_[kNumShards];
    /** Slice tables, shared by every shard (see store_arena.hh). */
    SliceTable leads_{kLeadBytes};
    SliceTable devices_{sizeof(DeviceState)};
    /** The device count of every stored state, fixed by the first
     * insert (0 before); a cell is ndev ids. */
    std::atomic<std::uint32_t> ndev_{0};
    std::atomic<std::uint64_t> total_{0};
};

} // namespace cxl

#endif // CXL_CHECKER_STATE_STORE_HH
