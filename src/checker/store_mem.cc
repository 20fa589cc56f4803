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

namespace cxl
{
namespace
{

/** Heap backend: the classic layout; dropped blocks are freed. */
class RamShardMem final : public ShardMem
{
  public:
    ~RamShardMem() override
    {
        for (Flat &f : flats_)
            std::free(f.p);
        for (void *c : chunks_)
            ::operator delete(c);
        for (void *b : blocks_)
            ::operator delete(b);
    }

    void *
    flatGrow(unsigned id, std::size_t bytes) override
    {
        Flat &f = flats_[id];
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

    void
    blockDrop(std::uint32_t index) override
    {
        ::operator delete(blocks_[index]);
        blocks_[index] = nullptr;
    }

  private:
    struct Flat {
        void *p = nullptr;
        std::size_t cap = 0;
    };
    Flat flats_[kFlatCount];
    std::vector<void *> chunks_;
    std::vector<void *> blocks_;
};

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
    throw std::runtime_error(std::string("mmap store: ") + what +
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
 * File-backed backend: every flat region and the chunk/arena pools
 * get their own backing file, grown with ftruncate and (flats)
 * remapped in place with mremap.  See store_mem.hh for the drop /
 * go-cold scheme.
 */
class MmapShardMem final : public ShardMem
{
  public:
    explicit MmapShardMem(std::string dir) : dir_(std::move(dir)) {}

    ~MmapShardMem() override
    {
        for (Flat &f : flats_) {
            if (f.p)
                ::munmap(f.p, f.cap);
            if (f.fd >= 0)
                ::close(f.fd);
        }
        for (const Mapping &c : chunks_)
            ::munmap(c.p, c.bytes);
        if (chunkFd_ >= 0)
            ::close(chunkFd_);
        for (const Mapping &b : blocks_) {
            if (b.p)
                ::munmap(b.p, b.bytes);
        }
        if (arenaFd_ >= 0)
            ::close(arenaFd_);
    }

    void *
    flatGrow(unsigned id, std::size_t bytes) override
    {
        Flat &f = flats_[id];
        const std::size_t cap = roundUpPage(bytes);
        if (cap <= f.cap)
            return f.p;
        if (f.fd < 0)
            f.fd = openBackingFile(dir_, "cxl-store-flat");
        if (::ftruncate(f.fd, static_cast<off_t>(cap)) != 0)
            throwErrno("ftruncate (flat column)");
        void *p =
            f.p == nullptr
                ? ::mmap(nullptr, cap, PROT_READ | PROT_WRITE,
                         MAP_SHARED, f.fd, 0)
                : ::mremap(f.p, f.cap, cap, MREMAP_MAYMOVE);
        if (p == MAP_FAILED)
            throwErrno("map (flat column)");
        bumpMapped(cap - f.cap);
        bumpFile(cap - f.cap);
        f.p = p;
        f.cap = cap;
        return p;
    }

    void *
    chunkAlloc(std::size_t bytes) override
    {
        if (chunkFd_ < 0)
            chunkFd_ = openBackingFile(dir_, "cxl-store-chunk");
        const std::size_t len = roundUpPage(bytes);
        const off_t off = chunkEnd_;
        if (::ftruncate(chunkFd_, off + static_cast<off_t>(len)) != 0)
            throwErrno("ftruncate (chunk)");
        void *p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                         MAP_SHARED, chunkFd_, off);
        if (p == MAP_FAILED)
            throwErrno("map (chunk)");
        chunkEnd_ += static_cast<off_t>(len);
        bumpMapped(len);
        bumpFile(len);
        chunks_.push_back({p, len, off});
        return p;
    }

    void *
    blockAlloc(std::uint32_t index, std::size_t bytes) override
    {
        if (arenaFd_ < 0)
            arenaFd_ = openBackingFile(dir_, "cxl-store-arena");
        const std::size_t len = roundUpPage(bytes);
        const off_t off = arenaEnd_;
        if (::ftruncate(arenaFd_, off + static_cast<off_t>(len)) != 0)
            throwErrno("ftruncate (arena block)");
        void *p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                         MAP_SHARED, arenaFd_, off);
        if (p == MAP_FAILED)
            throwErrno("map (arena block)");
        arenaEnd_ += static_cast<off_t>(len);
        bumpMapped(len);
        bumpFile(len);
        if (index >= blocks_.size())
            blocks_.resize(index + 1);
        blocks_[index] = {p, len, off};
        return p;
    }

    void
    blockDrop(std::uint32_t index) override
    {
        Mapping &b = blocks_[index];
        ::munmap(b.p, b.bytes);
        bumpMapped(-static_cast<std::int64_t>(b.bytes));
        b.p = nullptr;
        // Nothing reads a dropped block again, so give its file range
        // back: a memfd's pages would otherwise stay in RAM (and
        // metered) for the rest of the run.  The file keeps its size.
        // Best effort — a filesystem without hole punching keeps the
        // bytes, which is only a missed saving.
        (void)::fallocate(arenaFd_, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                          b.off, static_cast<off_t>(b.bytes));
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
        void *p;
        std::size_t bytes;
        off_t off; ///< offset in the backing file
    };

    void
    bumpMapped(std::int64_t delta)
    {
        mapped_.fetch_add(static_cast<std::uint64_t>(delta),
                          std::memory_order_relaxed);
    }
    void
    bumpFile(std::uint64_t delta)
    {
        fileBytes_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::string dir_;
    Flat flats_[kFlatCount];
    int chunkFd_ = -1;
    off_t chunkEnd_ = 0;
    std::vector<Mapping> chunks_;
    int arenaFd_ = -1;
    off_t arenaEnd_ = 0;
    std::vector<Mapping> blocks_; ///< p is null once dropped
    std::atomic<std::uint64_t> mapped_{0};
    std::atomic<std::uint64_t> fileBytes_{0};
};

#endif // CXL_STORE_HAVE_MMAP

} // namespace

std::unique_ptr<ShardMem>
makeShardMem(StoreBackend backend, const std::string &dir)
{
#if CXL_STORE_HAVE_MMAP
    if (backend == StoreBackend::Mmap)
        return std::make_unique<MmapShardMem>(dir);
#else
    (void)backend;
#endif
    (void)dir;
    return std::make_unique<RamShardMem>();
}

} // namespace cxl
