/**
 * @file
 * Test access to StateStore's id hash and to its probe under a forged
 * one.
 *
 * The store hashes a state's slice ids, which it assigns as it
 * interns the slices, so a test that wants states of a chosen shard or
 * bucket asks the store for their id hash (idHash, which interns
 * them).  A test that forces two distinct states onto one id hash
 * passes another entry's hash through the private probe instead
 * (insertForged).  The forged entry is linked under that hash only
 * until its shard next grows, so such tests keep their stores small.
 * Tests that check a shard's bucket array read it through columns.
 * Tests of the slice tables' id limit forge a stripe's count to near
 * its limit (forgeSliceRoom) instead of interning 2^20 slices, and
 * read a cell's ids back with cellIds.
 */

#ifndef CXL_TESTS_STORE_TEST_PEER_HH
#define CXL_TESTS_STORE_TEST_PEER_HH

#include <array>
#include <cstdint>
#include <mutex>
#include <utility>

#include "checker/state_store.hh"

namespace cxl
{

struct StateStoreTestPeer {
    /** The id hash @p store probes @p state by, its slices interned. */
    static std::uint64_t
    idHash(StateStore &store, const SystemState &state)
    {
        std::byte cell[kMaxCellBytes];
        return store.internSlices(state, cell);
    }

    /** Every stripe of @p store's slice tables (only stripe @p stripe
     * when given) forged to have room for @p room more slices: the
     * next ones it interns take its largest local ids, and the one
     * after them overflows it.  Quiescent use only. */
    static void
    forgeSliceRoom(StateStore &store, std::uint32_t room,
                   std::uint32_t stripe = SliceTable::kStripes)
    {
        for (SliceTable *table : {&store.leads_, &store.devices_}) {
            for (std::uint32_t i = 0; i < SliceTable::kStripes; ++i) {
                if (stripe == SliceTable::kStripes || stripe == i)
                    table->stripes_[i].count =
                        SliceTable::kStripeSlices - room;
            }
        }
    }

    /** The slice ids packed in entry @p id's cell (the store's device
     * count of them; the rest 0). */
    static std::array<std::uint32_t, kMaxDevices>
    cellIds(const StateStore &store, std::uint32_t id)
    {
        const StateArena &arena =
            store.shards_[StateStore::shardOf(id)].arena;
        const std::byte *cell = arena.cellAt(id & StateStore::kOffsetMask);
        std::array<std::uint32_t, kMaxDevices> ids{};
        for (std::uint32_t d = 0; d < arena.width(); ++d)
            ids[d] = unpackId(cell + kIdBytes * d);
        return ids;
    }

    /** The shard @p store routes @p state to (see idHash). */
    static std::uint32_t
    shardOf(StateStore &store, const SystemState &state)
    {
        return StateStore::shardOfHash(idHash(store, state));
    }

    /** Shard @p shard's depth column and buckets; quiescent use
     * only. */
    static const ShardColumns &
    columns(const StateStore &store, std::uint32_t shard)
    {
        return store.shards_[shard].cols;
    }

    /** insert() of @p state at depth 0, probing under id hash
     * @p hash. */
    static std::pair<std::uint32_t, bool>
    insertForged(StateStore &store, const SystemState &state,
                 std::uint64_t hash)
    {
        std::byte cell[kMaxCellBytes];
        store.internSlices(state, cell);
        const std::uint32_t shard_idx = StateStore::shardOfHash(hash);
        StateStore::Shard &shard = store.shards_[shard_idx];
        std::lock_guard<std::mutex> lock(shard.mutex);
        const StateStore::InsertOutcome out =
            store.probeInsertLocked(shard_idx, shard, cell, hash, 0);
        return {out.id, out.inserted};
    }
};

} // namespace cxl

#endif // CXL_TESTS_STORE_TEST_PEER_HH
