#include "checker/state_store.hh"

#include <algorithm>
#include <cstring>

#include "support/hash.hh"

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
                        [this, &shard](std::uint32_t first, std::uint32_t n,
                                       std::uint64_t *out) {
                            cellHashes(shard, first, n, out);
                        });
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
    assert(hash == state.hash() &&
           "growth rehashes from the cells, so the probe hash must be "
           "state.hash()");
    // Route by the top bits; probe by the low bits, so the two index
    // streams stay independent.
    const auto shard_idx =
        static_cast<std::uint32_t>(hash >> (64 - kShardBits));
    Shard &shard = shards_[shard_idx];

    std::lock_guard<std::mutex> lock(shard.mutex);
    const InsertOutcome out = probeInsertLocked(
        shard_idx, shard, state, hash, parent, rule_id, depth);
    return {out.id, out.inserted};
}

void
StateStore::insertBatch(BatchItem *items, std::size_t count)
{
    if (count == 0)
        return;

    constexpr std::uint32_t kEnd = 0xffffffffu;

    // Group by destination shard: per-shard singly-linked chains
    // through the items themselves, preserving batch order so
    // in-batch duplicates resolve exactly as sequential inserts.
    std::uint32_t head[kNumShards];
    std::uint32_t tail[kNumShards] = {};
    for (std::uint32_t s = 0; s < kNumShards; ++s)
        head[s] = kEnd;
    for (std::size_t i = 0; i < count; ++i) {
        assert(items[i].hash == items[i].state.hash() &&
               "growth rehashes from the cells, so the probe hash must "
               "be state.hash()");
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
        // then the entry's columns and cell — but the chain's items are
        // independent of each other.  Starting each level's loads for
        // all of them before any item needs the next level overlaps
        // those misses instead of paying them in series.
        const ShardColumns &cols = shard.cols;
        for (std::uint32_t i = head[s]; i != kEnd; i = items[i].next_)
            cols.prefetchBucket(items[i].hash);
        for (std::uint32_t i = head[s]; i != kEnd; i = items[i].next_) {
            const std::uint64_t hash = items[i].hash;
            const std::uint32_t b = cols.bucketAt(hash & cols.mask());
            if (b != 0 && ShardColumns::tagMatches(b, hash, cols.mask())) {
                shard.arena.prefetchCell(
                    ShardColumns::linkOf(b, cols.mask()) - 1);
            }
        }
        for (std::uint32_t i = head[s]; i != kEnd;
             i = items[i].next_) {
            BatchItem &item = items[i];
            const InsertOutcome out =
                probeInsertLocked(s, shard, item.state, item.hash,
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

bool
StateStore::holds(const Shard &shard, std::uint32_t off,
                  const SystemState &state) const
{
    // The one identity rule (see the file comment): the cell is
    // compared slice by slice.
    const std::uint32_t *cell = shard.arena.cellAt(off);
    // The lead slice holds ndev, so a cell that gets past it has one
    // id per device of the candidate.
    if (std::memcmp(leads_.at(cell[0]), &state, kLeadBytes) != 0)
        return false;
    for (std::uint32_t d = 1; d < state.ndev; ++d) {
        if (std::memcmp(devices_.at(cell[d]), &state.dev[d],
                        sizeof(DeviceState)) != 0)
            return false;
    }
    return true;
}

StateStore::Match
StateStore::match(const Shard &shard, std::uint32_t off,
                  const SystemState &state, std::uint64_t hash) const
{
    if (holds(shard, off, state))
        return Match::Same;
    // The tag fixed only some of the hash's bits; whether the rest
    // agree — a true probe-hash collision — is read off the cell on
    // this rare path.
    return cellHash(shard, off) == hash ? Match::Collision : Match::Other;
}

std::uint64_t
StateStore::cellHash(const Shard &shard, std::uint32_t off) const
{
    // hash() covers the active prefix: the lead slice, then one
    // device slice per further device, back to back (SystemState is
    // padding-free).
    const std::uint32_t *cell = shard.arena.cellAt(off);
    const std::uint32_t ndev = ndev_.load(std::memory_order_relaxed);
    std::byte bytes[sizeof(SystemState)];
    std::memcpy(bytes, leads_.at(cell[0]), kLeadBytes);
    for (std::uint32_t d = 1; d < ndev; ++d) {
        std::memcpy(bytes + kHostBytes + d * sizeof(DeviceState),
                    devices_.at(cell[d]), sizeof(DeviceState));
    }
    return hashBytes(bytes, kHostBytes + ndev * sizeof(DeviceState));
}

void
StateStore::cellHashes(const Shard &shard, std::uint32_t first,
                       std::uint32_t n, std::uint64_t *out) const
{
    // Each cell's slices are random reads into the slice tables:
    // start all of the run's before hashing any.
    const std::uint32_t ndev = ndev_.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t *cell = shard.arena.cellAt(first + i);
        const std::byte *lead = leads_.at(cell[0]);
        __builtin_prefetch(lead);
        __builtin_prefetch(lead + kLeadBytes - 1);
        for (std::uint32_t d = 1; d < ndev; ++d) {
            const std::byte *dev = devices_.at(cell[d]);
            __builtin_prefetch(dev);
            __builtin_prefetch(dev + sizeof(DeviceState) - 1);
        }
    }
    for (std::uint32_t i = 0; i < n; ++i)
        out[i] = cellHash(shard, first + i);
}

std::uint32_t
StateStore::internSlices(const SystemState &state, std::uint32_t *ids)
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
    ids[0] = leads_.intern(&state);
    for (std::uint32_t d = 1; d < ndev; ++d)
        ids[d] = devices_.intern(&state.dev[d]);
    return ndev;
}

void
StateStore::stateInto(std::uint32_t id, SystemState &out) const
{
    const std::uint32_t *cell =
        shards_[shardOf(id)].arena.cellAt(id & kOffsetMask);
    std::memcpy(static_cast<void *>(&out), leads_.at(cell[0]),
                kLeadBytes);
    for (std::uint32_t d = 1; d < out.ndev; ++d) {
        std::memcpy(static_cast<void *>(&out.dev[d]),
                    devices_.at(cell[d]), sizeof(DeviceState));
    }
    // Inactive device slots are default-initialised (all zero bytes).
    std::memset(static_cast<void *>(&out.dev[out.ndev]), 0,
                (kMaxDevices - out.ndev) * sizeof(DeviceState));
}

std::optional<std::uint32_t>
StateStore::find(const SystemState &state) const
{
    const std::uint64_t hash = state.hash();
    const auto shard_idx =
        static_cast<std::uint32_t>(hash >> (64 - kShardBits));
    const Shard &shard = shards_[shard_idx];
    const ShardColumns &cols = shard.cols;
    for (std::uint64_t slot = hash & cols.mask();;
         slot = (slot + 1) & cols.mask()) {
        const std::uint32_t bucket = cols.bucketAt(slot);
        if (bucket == 0)
            return std::nullopt;
        if (!ShardColumns::tagMatches(bucket, hash, cols.mask()))
            continue;
        const std::uint32_t off =
            ShardColumns::linkOf(bucket, cols.mask()) - 1;
        if (match(shard, off, state, hash) == Match::Same)
            return (shard_idx << kOffsetBits) | off;
    }
}

StateStore::InsertOutcome
StateStore::probeInsertLocked(std::uint32_t shard_idx, Shard &shard,
                              const SystemState &state,
                              std::uint64_t hash, std::uint32_t parent,
                              std::uint16_t rule_id,
                              std::uint32_t depth)
{
    ShardColumns &cols = shard.cols;
    // Grow at 3/4 load; power-of-two capacity keeps the probe a mask.
    cols.maybeGrow();

    std::uint64_t slot = hash & cols.mask();
    for (;; slot = (slot + 1) & cols.mask()) {
        const std::uint32_t bucket = cols.bucketAt(slot);
        if (bucket == 0)
            break;
        if (!ShardColumns::tagMatches(bucket, hash, cols.mask()))
            continue;
        const std::uint32_t off =
            ShardColumns::linkOf(bucket, cols.mask()) - 1;
        const Match m = match(shard, off, state, hash);
        if (m == Match::Collision) {
            // A detected collision: the states stay distinct and the
            // probe continues.
            cols.bumpCollisions();
            continue;
        }
        if (m == Match::Other)
            continue;
        const std::uint32_t id = (shard_idx << kOffsetBits) | off;
        // Label-correcting duplicate: a shorter path to a known state
        // relabels its breadcrumbs (async schedule; BFS duplicates are
        // never shallower).
        std::atomic<std::uint32_t> &depth_cell = cols.depthCell(off);
        if (depth < depth_cell.load(std::memory_order_relaxed)) {
            depth_cell.store(depth, std::memory_order_relaxed);
            cols.setParent(off, parent);
            cols.setRule(off, rule_id);
            return {id, false, true};
        }
        return {id, false, false};
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
                " entries); pre-size with --expect-states or raise the "
                "run's state budget (--store=ram|mmap; --store-dir "
                "puts mmap's cells in files on disk)");
    }

    std::uint32_t ids[kMaxDevices];
    const std::uint32_t width = internSlices(state, ids);
    const std::uint32_t off = cols.append(parent, rule_id, depth);
    shard.arena.append(off, ids, width);

    cols.link(slot, hash, off);
    total_.fetch_add(1, std::memory_order_release);
    return {(shard_idx << kOffsetBits) | off, true, false};
}

std::vector<std::uint16_t>
StateStore::rulePath(std::uint32_t id) const
{
    std::vector<std::uint16_t> path;
    for (std::uint32_t cur = id; parentAt(cur) != kNoParent;
         cur = parentAt(cur))
        path.push_back(ruleAt(cur));
    std::reverse(path.begin(), path.end());
    return path;
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
