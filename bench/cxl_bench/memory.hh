/**
 * @file
 * The benchmark's memory probe: anonymous resident bytes plus the
 * bytes allocated in this process's memfd files, sampled by a
 * background thread.
 *
 * The program's own meter (support/resource.hh) subtracts statm
 * "shared", which counts memfd pages as if the kernel could drop
 * them, and loses them entirely once sealLevel unmaps a block.  This
 * probe reads RssAnon from /proc/self/status and adds the allocated
 * size (st_blocks) of every open memfd, so an mmap store without
 * --store-dir is charged for the RAM it really holds.
 */

#ifndef CXL_BENCH_MEMORY_HH
#define CXL_BENCH_MEMORY_HH

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include <dirent.h>
#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

namespace cxl::bench
{

/** RssAnon of this process in bytes (0 if unreadable). */
inline std::uint64_t
rssAnonBytes()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    unsigned long long kb = 0;
    while (std::fgets(line, sizeof line, f)) {
        if (std::sscanf(line, "RssAnon: %llu kB", &kb) == 1)
            break;
    }
    std::fclose(f);
    return static_cast<std::uint64_t>(kb) * 1024;
}

/** Allocated bytes of every memfd this process holds open. */
inline std::uint64_t
memfdBytes()
{
    DIR *dir = ::opendir("/proc/self/fd");
    if (!dir)
        return 0;
    std::uint64_t total = 0;
    while (const dirent *e = ::readdir(dir)) {
        if (e->d_name[0] == '.')
            continue;
        const std::string path = std::string("/proc/self/fd/") + e->d_name;
        char target[256];
        const ssize_t n = ::readlink(path.c_str(), target, sizeof target - 1);
        if (n <= 0)
            continue; // closed since readdir listed it
        target[n] = '\0';
        if (std::strncmp(target, "/memfd:", 7) != 0)
            continue;
        struct stat st{};
        if (::stat(path.c_str(), &st) == 0)
            total += static_cast<std::uint64_t>(st.st_blocks) * 512;
    }
    ::closedir(dir);
    return total;
}

/** One reading of the probe, split into its two components. */
struct MemSample {
    std::uint64_t anon = 0;
    std::uint64_t memfd = 0;
    std::uint64_t total() const { return anon + memfd; }
};

inline MemSample
sampleMemory()
{
    return {rssAnonBytes(), memfdBytes()};
}

/**
 * Return the heap's free memory to the system, so that the next
 * measured operation starts from the heap state of a fresh process
 * instead of whatever earlier operations left cached in the
 * allocator.
 */
inline void
releaseFreeHeap()
{
    ::malloc_trim(0);
}

/**
 * Tracks the peak of sampleMemory() over its lifetime, sampling every
 * @p period on its own thread (and whenever sample() is called).
 */
class PeakSampler
{
  public:
    explicit PeakSampler(
        std::chrono::milliseconds period = std::chrono::milliseconds(20))
        : period_(period), thread_([this] { loop(); })
    {
    }

    ~PeakSampler()
    {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    PeakSampler(const PeakSampler &) = delete;
    PeakSampler &operator=(const PeakSampler &) = delete;

    /** Take one sample now and fold it into the current interval. */
    void
    sample()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        sampleLocked(lock);
    }

    std::uint64_t
    peakMemfdBytes() const
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        return peakMemfd_;
    }

    /**
     * The peak of the interval since the last call (or construction),
     * including a sample taken now; the next interval starts from that
     * sample.  A sample read before this call but folded after it is
     * dropped, so memory freed just before the call (say, by
     * releaseFreeHeap) never counts in the next interval.
     */
    std::uint64_t
    takePeak()
    {
        const MemSample s = sampleMemory();
        const std::lock_guard<std::mutex> lock(mutex_);
        const std::uint64_t peak = std::max(peakTotal_, s.total());
        ++generation_;
        peakTotal_ = s.total();
        peakMemfd_ = s.memfd;
        return peak;
    }

  private:
    /** Read the probe unlocked; fold only if no interval began since. */
    void
    sampleLocked(std::unique_lock<std::mutex> &lock)
    {
        const std::uint64_t gen = generation_;
        lock.unlock();
        const MemSample s = sampleMemory();
        lock.lock();
        if (gen != generation_)
            return;
        peakTotal_ = std::max(peakTotal_, s.total());
        peakMemfd_ = std::max(peakMemfd_, s.memfd);
    }

    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!stop_) {
            sampleLocked(lock);
            cv_.wait_for(lock, period_, [this] { return stop_; });
        }
    }

    std::chrono::milliseconds period_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    // Guarded by mutex_:
    std::uint64_t peakTotal_ = 0;
    std::uint64_t peakMemfd_ = 0;
    std::uint64_t generation_ = 0;
    bool stop_ = false;
    std::thread thread_;
};

} // namespace cxl::bench

#endif // CXL_BENCH_MEMORY_HH
