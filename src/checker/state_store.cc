#include "checker/state_store.hh"

#include <algorithm>
#include <cstring>

namespace cxl
{

StateStore::StateStore(const StoreConfig &config)
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
        shard.mem = makeShardMem(config.backend, config.dir);
        shard.arena.init(shard.mem.get(), kOffsetMask);
        shard.cols.init(shard.mem.get(), per_shard_buckets, kOffsetMask,
                        shard.arena);
    }
}

void
StateStore::reserveStates(std::uint64_t expected)
{
    // Sized by growth's own rule, so a run that meets the hint holds
    // the buckets it would have grown to; no shard outgrows its limit.
    const std::uint64_t per_shard = expected / kNumShards + 1;
    for (Shard &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.cols.growFor(
            std::min<std::uint64_t>(per_shard, shard.limit));
    }
}

std::pair<std::uint32_t, bool>
StateStore::insert(const SystemState &state, std::uint32_t depth)
{
    std::byte cell[kMaxCellBytes];
    const std::uint64_t hash = internSlices(state, cell);
    // Route by the top bits; probe by the low bits, so the two index
    // streams stay independent.
    const std::uint32_t shard_idx = shardOfHash(hash);
    Shard &shard = shards_[shard_idx];

    std::lock_guard<std::mutex> lock(shard.mutex);
    const InsertOutcome out =
        probeInsertLocked(shard_idx, shard, cell, hash, depth);
    return {out.id, out.inserted};
}

void
StateStore::insertBatch(BatchItem *items, std::size_t count)
{
    if (count == 0)
        return;

    constexpr std::uint32_t kEnd = 0xffffffffu;

    // Intern every item's slices, outside any lock and in batch order,
    // then group by destination shard: per-shard singly-linked chains
    // through the items themselves, preserving batch order so
    // in-batch duplicates resolve exactly as sequential inserts.
    std::uint32_t head[kNumShards];
    std::uint32_t tail[kNumShards] = {};
    for (std::uint32_t s = 0; s < kNumShards; ++s)
        head[s] = kEnd;
    for (std::size_t i = 0; i < count; ++i) {
        BatchItem &item = items[i];
        const std::uint64_t hash = internSlices(item.state, item.cell_);
        item.idHash_ = static_cast<std::uint32_t>(hash);
        const std::uint32_t s = shardOfHash(hash);
        item.next_ = kEnd;
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
        // then the entry's cell — but the chain's items are
        // independent of each other.  Starting each level's loads for
        // all of them before any item needs the next level overlaps
        // those misses instead of paying them in series.
        const ShardColumns &cols = shard.cols;
        for (std::uint32_t i = head[s]; i != kEnd; i = items[i].next_)
            cols.prefetchBucket(items[i].idHash_);
        for (std::uint32_t i = head[s]; i != kEnd; i = items[i].next_) {
            const std::uint64_t hash = items[i].idHash_;
            const std::uint32_t b = cols.bucketAt(cols.homeOf(hash));
            if (b != 0 &&
                ShardColumns::tagMatches(b, hash, cols.linkBits())) {
                shard.arena.prefetchCell(
                    ShardColumns::linkOf(b, cols.linkBits()) - 1);
            }
        }
        for (std::uint32_t i = head[s]; i != kEnd;
             i = items[i].next_) {
            BatchItem &item = items[i];
            const InsertOutcome out = probeInsertLocked(
                s, shard, item.cell_, item.idHash_, item.depth);
            item.id = out.id;
            item.inserted = out.inserted;
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

std::uint64_t
StateStore::internSlices(const SystemState &state, std::byte *cell)
{
    const std::uint32_t ndev = state.ndev;
    std::uint32_t fixed = ndev_.load(std::memory_order_relaxed);
    if (fixed == 0 && ndev >= 1 && ndev <= kMaxDevices &&
        ndev_.compare_exchange_strong(fixed, ndev,
                                      std::memory_order_relaxed))
        fixed = ndev;
    if (fixed != ndev) {
        throw std::logic_error(
            "StateStore: cannot store a " + std::to_string(ndev) +
            "-device state in a store of " + std::to_string(fixed) +
            "-device states (one store holds one device count)");
    }
    std::uint32_t ids[kMaxDevices];
    try {
        ids[0] = leads_.intern(&state);
        for (std::uint32_t d = 1; d < ndev; ++d)
            ids[d] = devices_.intern(&state.dev[d]);
    } catch (const std::length_error &e) {
        // No shard owns the slice tables; the run stops as if one
        // filled.
        throw StoreFullError(kNumShards,
                             std::string("StateStore ") + e.what());
    }
    packIds(ids, ndev, cell);
    return hashIds(ids, ndev);
}

std::uint32_t
StateStore::probe(const Shard &shard, const std::byte *cell,
                  std::uint64_t hash, std::uint64_t &slot) const
{
    // The one identity rule (see the file comment): a tag match is
    // settled by the cell's ids alone.
    const ShardColumns &cols = shard.cols;
    const std::uint32_t bytes =
        kIdBytes * ndev_.load(std::memory_order_relaxed);
    const std::uint32_t bits = cols.linkBits();
    for (slot = cols.homeOf(hash);; slot = cols.nextSlot(slot)) {
        const std::uint32_t bucket = cols.bucketAt(slot);
        if (bucket == 0)
            return kAbsent;
        if (!ShardColumns::tagMatches(bucket, hash, bits))
            continue;
        const std::uint32_t off = ShardColumns::linkOf(bucket, bits) - 1;
        if (std::memcmp(cell, shard.arena.cellAt(off), bytes) == 0)
            return off;
    }
}

void
StateStore::stateInto(std::uint32_t id, SystemState &out) const
{
    const std::byte *cell =
        shards_[shardOf(id)].arena.cellAt(id & kOffsetMask);
    std::memcpy(static_cast<void *>(&out), leads_.at(unpackId(cell)),
                kLeadBytes);
    for (std::uint32_t d = 1; d < out.ndev; ++d) {
        std::memcpy(static_cast<void *>(&out.dev[d]),
                    devices_.at(unpackId(cell + kIdBytes * d)),
                    sizeof(DeviceState));
    }
    // Inactive device slots are default-initialised (all zero bytes).
    std::memset(static_cast<void *>(&out.dev[out.ndev]), 0,
                (kMaxDevices - out.ndev) * sizeof(DeviceState));
}

std::optional<std::uint32_t>
StateStore::find(const SystemState &state) const
{
    const std::uint32_t ndev = ndev_.load(std::memory_order_relaxed);
    if (state.ndev != ndev)
        return std::nullopt;
    // A slice never interned is in no cell.
    std::uint32_t ids[kMaxDevices];
    const std::optional<std::uint32_t> lead = leads_.find(&state);
    if (!lead)
        return std::nullopt;
    ids[0] = *lead;
    for (std::uint32_t d = 1; d < ndev; ++d) {
        const std::optional<std::uint32_t> dev =
            devices_.find(&state.dev[d]);
        if (!dev)
            return std::nullopt;
        ids[d] = *dev;
    }
    std::byte cell[kMaxCellBytes];
    packIds(ids, ndev, cell);
    const std::uint64_t hash = hashIds(ids, ndev);
    const std::uint32_t shard_idx = shardOfHash(hash);
    std::uint64_t slot;
    const std::uint32_t off = probe(shards_[shard_idx], cell, hash, slot);
    if (off == kAbsent)
        return std::nullopt;
    return (shard_idx << kOffsetBits) | off;
}

StateStore::InsertOutcome
StateStore::probeInsertLocked(std::uint32_t shard_idx, Shard &shard,
                              const std::byte *cell,
                              std::uint64_t hash, std::uint32_t depth)
{
    ShardColumns &cols = shard.cols;
    // Grow by 3/2 before this insert could take the load past 4/5.
    cols.maybeGrow();

    std::uint64_t slot;
    const std::uint32_t found = probe(shard, cell, hash, slot);
    if (found != kAbsent)
        return {(shard_idx << kOffsetBits) | found, false};

    // kOffsetMask itself is unusable: shard kNumShards-1 would pack
    // it to the kNoParent sentinel.  The per-run limit (when set) is
    // always <= that.
    if (cols.count() >= shard.limit) {
        throw StoreFullError(
            shard_idx,
            "StateStore shard " + std::to_string(shard_idx) +
                " full (per-shard limit " +
                std::to_string(shard.limit) +
                " entries); pre-size with --expect-states or raise the "
                "run's state budget (--store=ram|mmap; --store-dir "
                "puts mmap's cells in files on disk)");
    }

    const std::uint32_t off = cols.append(depth);
    shard.arena.append(off, cell, ndev_.load(std::memory_order_relaxed));

    cols.link(slot, hash, off);
    total_.fetch_add(1, std::memory_order_release);
    return {(shard_idx << kOffsetBits) | off, true};
}

void
StateStore::growForNextLevel(std::uint32_t shard_idx)
{
    Shard &shard = shards_[shard_idx];
    std::lock_guard<std::mutex> lock(shard.mutex);
    const std::uint32_t count = shard.cols.count();
    shard.cols.growFor(std::uint64_t{count} +
                       (count - shard.levelStart));
    shard.levelStart = count;
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
