/**
 * @file
 * Test access to StateStore's probe under a forged probe hash.
 *
 * The public insert() asserts that the probe hash it is given is
 * state.hash(), because the store recomputes hashes from its cells
 * when a shard grows.  A test that forces a detected collision — two
 * distinct states on one 64-bit probe hash — passes another entry's
 * real hash through the private probe instead.  The forged entry is
 * linked under that hash only until its shard next grows, so such
 * tests keep their stores small.
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
    /** insert() of @p state at depth 0, probing under @p hash. */
    static std::pair<std::uint32_t, bool>
    insertForged(StateStore &store, const SystemState &state,
                 std::uint64_t hash)
    {
        const auto shard_idx = static_cast<std::uint32_t>(
            hash >> (64 - StateStore::kShardBits));
        StateStore::Shard &shard = store.shards_[shard_idx];
        std::lock_guard<std::mutex> lock(shard.mutex);
        const StateStore::InsertOutcome out =
            store.probeInsertLocked(shard_idx, shard, state, hash, 0);
        return {out.id, out.inserted};
    }
};

} // namespace cxl

#endif // CXL_TESTS_STORE_TEST_PEER_HH
