/**
 * @file
 * Backend memory layer of the visited-state store.
 *
 * StateStore's shard columns and state arenas (store_columns.hh,
 * store_arena.hh) never allocate directly: each shard owns one
 * ShardMem that hands out the three allocation shapes the store
 * needs, and the backend choice — anonymous memory or per-shard
 * backing files — is made once here, invisibly to the layers above:
 *
 *  - the flat: one amortised-growable array (the probe bucket
 *    array).  Growing may move the base, so callers re-read the
 *    returned pointer; the flat is only touched under the shard lock
 *    (or quiescent), matching that contract.
 *  - chunks: fixed-size allocations whose address never moves (the
 *    chunked atomic depth column), so lock-free readers can walk
 *    them while peers insert.
 *  - blocks: fixed-size, index-addressed arena blocks, likewise at
 *    stable addresses.  The store keeps every cell, so a block lives
 *    as long as its store.
 *
 * On Linux one implementation serves both backends: the flat and
 * every chunk and block is a mapping of its own, and the flat grows
 * by mremap (the kernel moves page tables, nothing is copied).  Store
 * memory never passes through malloc: growth leaves no freed hole in
 * the heap, and a page nothing has written stays unbacked.
 *
 *  - InRam maps anonymous private memory.
 *  - Mmap gives every shard its own anonymous backing files (memfd,
 *    or O_TMPFILE/unlinked files under an explicit directory for
 *    true spill-to-disk), grown with ftruncate.  The cells it holds
 *    are the same exact cells as InRam's; under `--store-dir` they
 *    live in files on that filesystem, whose pages the kernel can
 *    write back and reclaim — that is what "out of core" means here.
 *
 * Where the mmap surface is missing (non-Linux), both backends fall
 * back to plain heap allocations.
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
    InRam, ///< anonymous private mappings (heap where mmap is missing)
    Mmap,  ///< per-shard file-backed mappings (memfd or --store-dir)
};

/** One shard's allocator (see the file comment for the shapes). */
class ShardMem
{
  public:
    virtual ~ShardMem() = default;

    /**
     * Grow the flat to at least @p bytes (first call creates it).
     * Contents are preserved; the base may move — callers re-read the
     * return value.  Never shrinks.
     */
    virtual void *flatGrow(std::size_t bytes) = 0;

    /** Allocate @p bytes at an address that never moves. */
    virtual void *chunkAlloc(std::size_t bytes) = 0;

    /**
     * Allocate arena block @p index (@p bytes each); blocks are
     * created in index order, each at a stable address.
     */
    virtual void *blockAlloc(std::uint32_t index,
                             std::size_t bytes) = 0;

    /** Bytes currently mapped by this shard's file-backed regions
     * (0 for InRam: its mappings are anonymous). */
    virtual std::uint64_t mappedBytes() const { return 0; }

    /** Total size of this shard's backing files (0 for InRam). */
    virtual std::uint64_t backingFileBytes() const { return 0; }
};

/**
 * Build one shard's allocator.  @p dir names the backing directory
 * for StoreBackend::Mmap ("" = anonymous in-memory files); ignored
 * for InRam.  On platforms without the required mmap surface both
 * backends degrade to heap allocations.
 *
 * @throws std::runtime_error when a backing file cannot be created.
 */
std::unique_ptr<ShardMem> makeShardMem(StoreBackend backend,
                                       const std::string &dir);

} // namespace cxl

#endif // CXL_CHECKER_STORE_MEM_HH
