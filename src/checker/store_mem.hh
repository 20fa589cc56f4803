/**
 * @file
 * Backend memory layer of the visited-state store.
 *
 * StateStore's shard columns and state arenas (store_columns.hh,
 * store_arena.hh) never allocate directly: each shard owns one
 * ShardMem that hands out the three allocation shapes the store
 * needs, and the backend choice — plain heap or per-shard
 * file-backed mappings — is made once here, invisibly to the layers
 * above:
 *
 *  - flats: amortised-growable arrays (the SoA entry columns and the
 *    probe bucket array).  Growing may move the base, so callers
 *    re-read the returned pointer; flats are only touched under the
 *    shard lock (or quiescent), matching that contract.
 *  - chunks: fixed-size allocations whose address never moves (the
 *    chunked atomic depth column), so lock-free readers can walk
 *    them while peers insert.
 *  - blocks: fixed-size, index-addressed arena blocks that can be
 *    dropped (sealLevel); a dropped block is never read again.
 *
 * The Mmap backend gives every shard its own anonymous backing files
 * (memfd, or O_TMPFILE/unlinked files under an explicit directory for
 * true spill-to-disk), grown with ftruncate and remapped with
 * mremap.  Dropping a sealed block munmaps it and punches its range
 * out of the file (fallocate PUNCH_HOLE) — address space, residency
 * and the memfd's allocated bytes shrink — so a bounded mapped window
 * walks the (unbounded, sparse) file as BFS levels seal.  That is what lets a space whose full-mode arena
 * exceeds an address-space budget (`ulimit -v`) complete out of
 * core.
 *
 * Thread-safety: all allocation calls are made under the owning
 * shard's lock (or while quiescent).  The byte counters are atomics
 * readable from any thread (bench/progress sampling).
 */

#ifndef CXL_CHECKER_STORE_MEM_HH
#define CXL_CHECKER_STORE_MEM_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace cxl
{

/** Which memory backend a StateStore's shards allocate from. */
enum class StoreBackend : std::uint8_t {
    InRam, ///< heap allocations
    Mmap,  ///< per-shard file-backed mappings, unmapped as levels seal
};

/** One shard's allocator (see the file comment for the shapes). */
class ShardMem
{
  public:
    /** Flat-region slots a shard uses (one growable array each). */
    enum FlatId : unsigned {
        kFlatHashes = 0,
        kFlatVerifies,
        kFlatParents,
        kFlatRules,
        kFlatBuckets,
        kFlatCount,
    };

    virtual ~ShardMem() = default;

    /**
     * Grow flat region @p id to at least @p bytes (first call
     * creates it).  Contents are preserved; the base may move —
     * callers re-read the return value.  Never shrinks.
     */
    virtual void *flatGrow(unsigned id, std::size_t bytes) = 0;

    /** Allocate @p bytes at an address that never moves. */
    virtual void *chunkAlloc(std::size_t bytes) = 0;

    /**
     * Allocate arena block @p index (@p bytes each); blocks are
     * created in index order, each at a stable address.
     */
    virtual void *blockAlloc(std::uint32_t index,
                             std::size_t bytes) = 0;

    /** Release block @p index's memory for good: InRam frees it,
     * Mmap unmaps its window and punches it out of the file. */
    virtual void blockDrop(std::uint32_t index) = 0;

    /** Bytes currently mapped/allocated by this shard's file-backed
     * regions (0 for InRam: nothing is file-backed). */
    virtual std::uint64_t mappedBytes() const { return 0; }

    /** Total size of this shard's backing files (0 for InRam). */
    virtual std::uint64_t backingFileBytes() const { return 0; }
};

/**
 * Build one shard's allocator.  @p dir names the backing directory
 * for StoreBackend::Mmap ("" = anonymous in-memory files); ignored
 * for InRam.  On platforms without the required mmap surface the
 * Mmap backend degrades to InRam.
 *
 * @throws std::runtime_error when a backing file cannot be created.
 */
std::unique_ptr<ShardMem> makeShardMem(StoreBackend backend,
                                       const std::string &dir);

} // namespace cxl

#endif // CXL_CHECKER_STORE_MEM_HH
