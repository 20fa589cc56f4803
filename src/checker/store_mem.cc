#include "checker/store_mem.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <vector>

#if defined(__linux__)
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>
#define CXL_STORE_HAVE_MMAP 1
#endif

#if defined(__SANITIZE_THREAD__)
#define CXL_STORE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CXL_STORE_TSAN 1
#endif
#endif

namespace cxl
{
namespace
{

#if CXL_STORE_HAVE_MMAP

std::size_t
pageSize()
{
    static const std::size_t page = [] {
        const long p = ::sysconf(_SC_PAGESIZE);
        return p > 0 ? static_cast<std::size_t>(p)
                     : std::size_t{4096};
    }();
    return page;
}

std::size_t
roundUpPage(std::size_t bytes)
{
    const std::size_t page = pageSize();
    return (bytes + page - 1) & ~(page - 1);
}

[[noreturn]] void
throwErrno(const char *what)
{
    throw std::runtime_error(std::string("store memory: ") + what +
                             ": " + std::strerror(errno));
}

/**
 * An anonymous backing file: memfd when available, else an
 * O_TMPFILE (or created-and-unlinked) file in @p dir — so spill
 * space is reclaimed by the kernel no matter how the process exits.
 * An empty @p dir means "RAM-speed anonymous memory" (memfd/tmpfs);
 * a real directory pins the bytes to that filesystem for true
 * out-of-core spill.
 */
int
openBackingFile(const std::string &dir, const char *tag)
{
    if (dir.empty()) {
#if defined(MFD_CLOEXEC)
        const int fd = ::memfd_create(tag, MFD_CLOEXEC);
        if (fd >= 0)
            return fd;
#endif
    }
    const std::string where = dir.empty() ? "/tmp" : dir;
#if defined(O_TMPFILE)
    const int fd = ::open(where.c_str(), O_TMPFILE | O_RDWR | O_CLOEXEC,
                          0600);
    if (fd >= 0)
        return fd;
#endif
    std::string tmpl = where + "/cxl-store-XXXXXX";
    std::vector<char> path(tmpl.begin(), tmpl.end());
    path.push_back('\0');
    const int tmpfd = ::mkstemp(path.data());
    if (tmpfd < 0)
        throwErrno(tag);
    ::unlink(path.data());
    return tmpfd;
}

/**
 * The mapped backend, for both StoreBackends: the flat and every
 * chunk and block is a mapping of its own.  Without backing files
 * (InRam) they are anonymous private memory; with them (Mmap) the
 * flat and the chunk and block pools have their own file, grown
 * with ftruncate.  The flat grows in place or moves by mremap
 * without a copy (see remapFlat for the one exception).  See
 * store_mem.hh for the scheme.
 */
class MappedShardMem final : public ShardMem
{
  public:
    /** @p file_backed: back every region by a file in @p dir ("" =
     * memfd); otherwise map anonymous memory and ignore @p dir. */
    MappedShardMem(bool file_backed, std::string dir)
        : fileBacked_(file_backed), dir_(std::move(dir))
    {
    }

    ~MappedShardMem() override
    {
        if (flat_.p)
            ::munmap(flat_.p, flat_.cap);
        if (flat_.fd >= 0)
            ::close(flat_.fd);
        for (const Mapping &c : chunks_)
            ::munmap(c.p, c.bytes);
        for (const Mapping &b : blocks_)
            ::munmap(b.p, b.bytes);
        for (const Pool *pool : {&chunkPool_, &blockPool_}) {
            if (pool->fd >= 0)
                ::close(pool->fd);
        }
    }

    void *
    flatGrow(std::size_t bytes) override
    {
        Flat &f = flat_;
        const std::size_t cap = roundUpPage(bytes);
        if (cap <= f.cap)
            return f.p;
        void *p = nullptr;
        if (f.p == nullptr) {
            p = mapFresh(f.fd, 0, cap, "cxl-store-flat");
        } else {
            if (fileBacked_)
                growFile(f.fd, static_cast<off_t>(cap));
            p = remapFlat(f, cap);
            if (p == MAP_FAILED)
                throwErrno("remap (flat)");
            countFileBytes(cap - f.cap);
        }
        f.p = p;
        f.cap = cap;
        return p;
    }

    void *
    chunkAlloc(std::size_t bytes) override
    {
        const Mapping c = poolMap(chunkPool_, bytes, "cxl-store-chunk");
        chunks_.push_back(c);
        return c.p;
    }

    void *
    blockAlloc(std::uint32_t index, std::size_t bytes) override
    {
        if (index >= blocks_.size())
            blocks_.resize(index + 1);
        blocks_[index] = poolMap(blockPool_, bytes, "cxl-store-arena");
        return blocks_[index].p;
    }

    std::uint64_t
    mappedBytes() const override
    {
        return mapped_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    backingFileBytes() const override
    {
        return fileBytes_.load(std::memory_order_relaxed);
    }

  private:
    struct Flat {
        int fd = -1;
        void *p = nullptr;
        std::size_t cap = 0;
    };
    struct Mapping {
        void *p = nullptr;
        std::size_t bytes = 0;
    };
    /** Fixed-size mappings carved from one file, end to end (the
     * offsets go unused on anonymous memory). */
    struct Pool {
        int fd = -1;
        off_t end = 0;
    };

    /**
     * Move flat @p f to @p cap bytes, keeping its contents.
     * ThreadSanitizer does not intercept mremap, so it would keep the
     * access history of whatever occupied either range before and
     * report races against it; under it a flat is mapped afresh,
     * copied (a file keeps its own bytes) and the old range unmapped.
     */
    void *
    remapFlat(const Flat &f, std::size_t cap) const
    {
#if CXL_STORE_TSAN
        void *p =
            fileBacked_
                ? ::mmap(nullptr, cap, PROT_READ | PROT_WRITE, MAP_SHARED,
                         f.fd, 0)
                : ::mmap(nullptr, cap, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p != MAP_FAILED) {
            if (!fileBacked_)
                std::memcpy(p, f.p, f.cap);
            ::munmap(f.p, f.cap);
        }
        return p;
#else
        return ::mremap(f.p, f.cap, cap, MREMAP_MAYMOVE);
#endif
    }

    static void
    growFile(int fd, off_t size)
    {
        if (::ftruncate(fd, size) != 0)
            throwErrno("ftruncate");
    }

    /** Map @p len bytes: anonymous memory, or @p len bytes at @p off
     * of the file in @p fd (created on first use as @p tag). */
    void *
    mapFresh(int &fd, off_t off, std::size_t len, const char *tag)
    {
        void *p = nullptr;
        if (fileBacked_) {
            if (fd < 0)
                fd = openBackingFile(dir_, tag);
            growFile(fd, off + static_cast<off_t>(len));
            p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE, MAP_SHARED,
                       fd, off);
        } else {
            p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        }
        if (p == MAP_FAILED)
            throwErrno(tag);
        countFileBytes(len);
        return p;
    }

    Mapping
    poolMap(Pool &pool, std::size_t bytes, const char *tag)
    {
        const std::size_t len = roundUpPage(bytes);
        const Mapping m{mapFresh(pool.fd, pool.end, len, tag), len};
        pool.end += static_cast<off_t>(len);
        return m;
    }

    /** File-backed bytes newly mapped (and added to the files). */
    void
    countFileBytes(std::size_t delta)
    {
        if (!fileBacked_)
            return;
        mapped_.fetch_add(delta, std::memory_order_relaxed);
        fileBytes_.fetch_add(delta, std::memory_order_relaxed);
    }

    const bool fileBacked_;
    const std::string dir_;
    Flat flat_;
    Pool chunkPool_;
    std::vector<Mapping> chunks_;
    Pool blockPool_;
    std::vector<Mapping> blocks_;
    std::atomic<std::uint64_t> mapped_{0};
    std::atomic<std::uint64_t> fileBytes_{0};
};

#else // !CXL_STORE_HAVE_MMAP

/** Heap fallback where the mmap surface is missing. */
class RamShardMem final : public ShardMem
{
  public:
    ~RamShardMem() override
    {
        std::free(flat_.p);
        for (void *c : chunks_)
            ::operator delete(c);
        for (void *b : blocks_)
            ::operator delete(b);
    }

    void *
    flatGrow(std::size_t bytes) override
    {
        Flat &f = flat_;
        if (bytes <= f.cap)
            return f.p;
        void *p = std::realloc(f.p, bytes);
        if (!p)
            throw std::bad_alloc();
        f.p = p;
        f.cap = bytes;
        return p;
    }

    void *
    chunkAlloc(std::size_t bytes) override
    {
        void *p = ::operator new(bytes);
        chunks_.push_back(p);
        return p;
    }

    void *
    blockAlloc(std::uint32_t index, std::size_t bytes) override
    {
        void *p = ::operator new(bytes);
        if (index >= blocks_.size())
            blocks_.resize(index + 1, nullptr);
        blocks_[index] = p;
        return p;
    }

  private:
    struct Flat {
        void *p = nullptr;
        std::size_t cap = 0;
    };
    Flat flat_;
    std::vector<void *> chunks_;
    std::vector<void *> blocks_;
};

#endif // CXL_STORE_HAVE_MMAP

} // namespace

std::unique_ptr<ShardMem>
makeShardMem(StoreBackend backend, const std::string &dir)
{
#if CXL_STORE_HAVE_MMAP
    return std::make_unique<MappedShardMem>(
        backend == StoreBackend::Mmap, dir);
#else
    (void)backend;
    (void)dir;
    return std::make_unique<RamShardMem>();
#endif
}

} // namespace cxl
