#include "checker/state_store.hh"

#include <algorithm>

namespace cxl
{

StateStore::StateStore(const StoreConfig &config)
    : mode_(config.mode), backend_(config.backend)
{
    // The per-shard ceiling from a total-state capacity: hashing
    // spreads entries near-uniformly, so the first shard to fill does
    // so at roughly capacity/kNumShards — close enough for a budget.
    std::uint32_t limit = kOffsetMask;
    if (config.capacityLimit != 0) {
        const std::uint64_t per = std::max<std::uint64_t>(
            1, config.capacityLimit / kNumShards);
        limit = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(per, kOffsetMask));
    }
    const std::size_t per_shard_buckets =
        config.initialBuckets / kNumShards;
    for (Shard &shard : shards_) {
        shard.limit = limit;
        shard.mem = makeShardMem(backend_, config.dir);
        shard.arena.init(shard.mem.get(), mode_, kOffsetMask);
        // Fingerprints are the identity in compact mode; full-mode
        // recoverable backends keep them too, to dedup against sealed
        // (unmapped) entries without refaulting their blocks.
        needsVerify_ = mode_ == StoreMode::Compact ||
                       shard.arena.recoverable();
        shard.cols.init(shard.mem.get(), needsVerify_,
                        per_shard_buckets, kOffsetMask);
    }
}

void
StateStore::reserveStates(std::uint64_t expected)
{
    const auto per_shard =
        static_cast<std::size_t>(expected / kNumShards + 1);
    for (Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.cols.reserveEntries(per_shard);
    }
}

std::pair<std::uint32_t, bool>
StateStore::insert(const SystemState &state, std::uint64_t hash,
                   std::uint32_t parent, std::uint16_t rule_id,
                   std::uint32_t depth)
{
    // Route by the top bits; probe by the low bits, so the two index
    // streams stay independent.  The verification fingerprint is
    // computed before the lock is taken.
    const auto shard_idx =
        static_cast<std::uint32_t>(hash >> (64 - kShardBits));
    const std::uint64_t verify =
        needsVerify_ ? state.fingerprint() : 0;
    Shard &shard = shards_[shard_idx];

    std::lock_guard<std::mutex> lock(shard.mutex);
    const InsertOutcome out = probeInsertLocked(
        shard_idx, shard, state, hash, verify, parent, rule_id, depth);
    return {out.id, out.inserted};
}

void
StateStore::insertBatch(BatchItem *items, std::size_t count)
{
    if (count == 0)
        return;

    constexpr std::uint32_t kEnd = 0xffffffffu;

    // Fingerprints are computed before any lock.  (Cells are encoded
    // under the lock instead, and only for items that meet a probe-hash
    // match or turn out to be new.)
    if (needsVerify_) {
        for (std::size_t i = 0; i < count; ++i)
            items[i].verify_ = items[i].state.fingerprint();
    }

    // Group by destination shard: per-shard singly-linked chains
    // through the items themselves, preserving batch order so
    // in-batch duplicates resolve exactly as sequential inserts.
    std::uint32_t head[kNumShards];
    std::uint32_t tail[kNumShards] = {};
    for (std::uint32_t s = 0; s < kNumShards; ++s)
        head[s] = kEnd;
    for (std::size_t i = 0; i < count; ++i) {
        const auto s = static_cast<std::uint32_t>(
            items[i].hash >> (64 - kShardBits));
        items[i].next_ = kEnd;
        if (head[s] == kEnd)
            head[s] = static_cast<std::uint32_t>(i);
        else
            items[tail[s]].next_ = static_cast<std::uint32_t>(i);
        tail[s] = static_cast<std::uint32_t>(i);
    }

    // One lock acquisition per destination shard per batch.
    for (std::uint32_t s = 0; s < kNumShards; ++s) {
        if (head[s] == kEnd)
            continue;
        Shard &shard = shards_[s];
        std::lock_guard<std::mutex> lock(shard.mutex);
        // A probe is a chain of dependent cache misses — home bucket,
        // then the entry's columns and cell offset, then its cell — but
        // the chain's items are independent of each other.  Starting
        // each level's loads for all of them before any item needs the
        // next level overlaps those misses instead of paying them in
        // series.
        const ShardColumns &cols = shard.cols;
        const bool cells = mode_ == StoreMode::Full;
        for (std::uint32_t i = head[s]; i != kEnd; i = items[i].next_)
            cols.prefetchBucket(items[i].hash);
        for (std::uint32_t i = head[s]; i != kEnd; i = items[i].next_) {
            if (const std::uint32_t b =
                    cols.bucketAt(items[i].hash & cols.mask())) {
                cols.prefetchEntry(b - 1);
                if (cells)
                    shard.arena.prefetchOffset(b - 1);
            }
        }
        for (std::uint32_t i = head[s]; cells && i != kEnd;
             i = items[i].next_) {
            if (const std::uint32_t b =
                    cols.bucketAt(items[i].hash & cols.mask()))
                shard.arena.prefetchCell(b - 1);
        }
        for (std::uint32_t i = head[s]; i != kEnd;
             i = items[i].next_) {
            BatchItem &item = items[i];
            const InsertOutcome out = probeInsertLocked(
                s, shard, item.state, item.hash, item.verify_,
                item.parent, item.rule, item.depth);
            item.id = out.id;
            item.inserted = out.inserted;
            item.improved = out.improved;
        }
    }
}

std::size_t
StateStore::insertBatchCapped(BatchItem *items, std::size_t count,
                              std::uint64_t soft_cap, std::uint64_t cap)
{
    if (size() < soft_cap) {
        insertBatch(items, count);
        return count;
    }
    std::size_t done = 0;
    while (done < count && size() < cap)
        insertBatch(&items[done++], 1);
    return done;
}

StateStore::InsertOutcome
StateStore::probeInsertLocked(std::uint32_t shard_idx, Shard &shard,
                              const SystemState &state,
                              std::uint64_t hash, std::uint64_t verify,
                              std::uint32_t parent,
                              std::uint16_t rule_id,
                              std::uint32_t depth)
{
    ShardColumns &cols = shard.cols;
    // Grow at 3/4 load; power-of-two capacity keeps the probe a mask.
    cols.maybeGrow();

    // The candidate's cell, encoded at most once: at the first
    // probe-hash match that needs a cell compare, or at insertion.
    std::byte enc[kMaxEncodedState];
    std::size_t enc_len = 0;

    std::uint64_t slot = hash & cols.mask();
    for (;;) {
        const std::uint32_t bucket = cols.bucketAt(slot);
        if (bucket == 0)
            break;
        const std::uint32_t off = bucket - 1;
        if (cols.hashAt(off) == hash) {
            // Identity: in compact mode the verification fingerprint,
            // in full mode the cell (falling back to the fingerprint
            // when the entry's block has been sealed cold — see the
            // class comment).  A probe-hash match with an identity
            // mismatch is a detected collision — the states stay
            // distinct and the probe continues.
            const std::byte *cell = mode_ == StoreMode::Full
                                        ? shard.arena.cellIfMapped(off)
                                        : nullptr;
            bool same;
            if (cell) {
                if (enc_len == 0)
                    enc_len = encodeCell(state, enc);
                same = cellEquals(cell, enc, enc_len);
            } else {
                same = cols.verifyAt(off) == verify;
            }
            if (same) {
                const std::uint32_t id =
                    (shard_idx << kOffsetBits) | off;
                // Label-correcting duplicate: a shorter path to a
                // known state relabels its breadcrumbs (async
                // schedule; BFS duplicates are never shallower).
                std::atomic<std::uint32_t> &depth_cell =
                    cols.depthCell(off);
                if (depth < depth_cell.load(std::memory_order_relaxed)) {
                    depth_cell.store(depth, std::memory_order_relaxed);
                    cols.setParent(off, parent);
                    cols.setRule(off, rule_id);
                    return {id, false, true};
                }
                return {id, false, false};
            }
            cols.bumpCollisions();
        }
        slot = (slot + 1) & cols.mask();
    }

    // kOffsetMask itself is unusable: shard kNumShards-1 would pack
    // it to the kNoParent sentinel.  The per-run limit (when set) is
    // always <= that.
    if (cols.count() >= shard.limit) {
        throw StoreFullError(
            shard_idx,
            "StateStore shard " + std::to_string(shard_idx) +
                " full (per-shard limit " +
                std::to_string(shard.limit) +
                " entries); pre-size with --expect-states, raise the "
                "run's state budget, or pick another store kind "
                "(--store=ram|ram-compact|mmap|mmap-compact: compact "
                "kinds take ~1.5x fewer bytes/state, mmap kinds page "
                "sealed levels out of core)");
    }

    if (enc_len == 0)
        enc_len = encodeCell(state, enc);
    const std::uint32_t off =
        cols.append(hash, verify, parent, rule_id, depth);
    shard.arena.append(shard_idx, off, enc, enc_len);

    cols.setBucket(slot, off + 1);
    total_.fetch_add(1, std::memory_order_release);
    return {(shard_idx << kOffsetBits) | off, true, false};
}

std::uint32_t
StateStore::maxDepthQuiescent() const
{
    std::uint32_t deepest = 0;
    for (const Shard &shard : shards_) {
        for (std::uint32_t off = 0; off < shard.cols.count(); ++off) {
            deepest = std::max(deepest,
                               shard.cols.depthCell(off).load(
                                   std::memory_order_relaxed));
        }
    }
    return deepest;
}

std::uint64_t
StateStore::countDepthAtMost(std::uint32_t depth) const
{
    std::uint64_t total = 0;
    for (const Shard &shard : shards_) {
        for (std::uint32_t off = 0; off < shard.cols.count(); ++off) {
            if (shard.cols.depthCell(off).load(
                    std::memory_order_relaxed) <= depth)
                ++total;
        }
    }
    return total;
}

void
StateStore::sealLevel()
{
    sealed_ = true;
    for (Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.arena.seal();
    }
}

std::uint64_t
StateStore::probeCollisions() const
{
    std::uint64_t total = 0;
    for (const Shard &shard : shards_)
        total += shard.cols.collisions();
    return total;
}

std::uint64_t
StateStore::mappedBytes() const
{
    std::uint64_t total = 0;
    for (const Shard &shard : shards_)
        total += shard.mem->mappedBytes();
    return total;
}

std::uint64_t
StateStore::backingFileBytes() const
{
    std::uint64_t total = 0;
    for (const Shard &shard : shards_)
        total += shard.mem->backingFileBytes();
    return total;
}

} // namespace cxl
