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
 */

#ifndef CXL_TESTS_STORE_TEST_PEER_HH
#define CXL_TESTS_STORE_TEST_PEER_HH

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
        std::uint32_t ids[kMaxDevices];
        return store.internSlices(state, ids);
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
        std::uint32_t ids[kMaxDevices];
        store.internSlices(state, ids);
        const std::uint32_t shard_idx = StateStore::shardOfHash(hash);
        StateStore::Shard &shard = store.shards_[shard_idx];
        std::lock_guard<std::mutex> lock(shard.mutex);
        const StateStore::InsertOutcome out =
            store.probeInsertLocked(shard_idx, shard, ids, hash, 0);
        return {out.id, out.inserted};
    }
};

} // namespace cxl

#endif // CXL_TESTS_STORE_TEST_PEER_HH
