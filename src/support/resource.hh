/**
 * @file
 * Process resource probes: peak and current RSS, reported in
 * CheckResult JSON and the bench harnesses' memory summaries, and the
 * metered memory the run governor's ceiling compares against.
 *
 * Peak RSS is process-lifetime-monotone, so consecutive runs in one
 * process all report the maximum any earlier run reached; per-case
 * memory attribution must sample currentRssBytes() around each run
 * instead (CheckSession::run does, as rss_delta_bytes).
 */

#ifndef CXL_SUPPORT_RESOURCE_HH
#define CXL_SUPPORT_RESOURCE_HH

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

#if defined(__linux__)
#include <dirent.h>
#include <sys/stat.h>
#endif

namespace cxl
{

/** Peak resident set size of this process so far, in bytes (0 when
 * the platform offers no getrusage). */
inline std::uint64_t
peakRssBytes()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0;
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
#endif
#else
    return 0;
#endif
}

/**
 * Current resident set size of this process, in bytes (0 when the
 * platform offers no probe).  Unlike peakRssBytes() this can go down
 * when memory is released, so sampling it before and after a run
 * attributes memory to that run rather than to the process maximum.
 */
inline std::uint64_t
currentRssBytes()
{
#if defined(__linux__)
    // /proc/self/statm field 2: resident pages.
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0;
    unsigned long long size = 0, resident = 0;
    const int got = std::fscanf(f, "%llu %llu", &size, &resident);
    std::fclose(f);
    if (got != 2)
        return 0;
    const long page = sysconf(_SC_PAGESIZE);
    return static_cast<std::uint64_t>(resident) *
           static_cast<std::uint64_t>(page > 0 ? page : 4096);
#else
    // No portable current-RSS probe; fall back to the monotone peak
    // so callers still get a sane upper bound.
    return peakRssBytes();
#endif
}

#if defined(__linux__)
namespace detail
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
        const ssize_t n =
            ::readlink(path.c_str(), target, sizeof target - 1);
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

} // namespace detail
#endif // __linux__

/**
 * The memory a --max-rss-mb ceiling meters: anonymous resident bytes
 * (RssAnon) plus the allocated bytes of every memfd the process holds
 * open.  memfd pages are shmem: they stay in RAM whether mapped or
 * not and cannot be written back to a file, so an mmap store without
 * a backing directory is charged for its whole backing, including
 * the blocks sealLevel has unmapped.  (RssShmem is not added on top:
 * the only shmem here is memfd, whose mapped pages the allocated size
 * already counts.)  Pages of files on a real filesystem are not
 * counted — the kernel reclaims them by writeback.  Falls back to
 * currentRssBytes() where the split is unavailable.
 */
inline std::uint64_t
meteredMemoryBytes()
{
#if defined(__linux__)
    return detail::rssAnonBytes() + detail::memfdBytes();
#else
    return currentRssBytes();
#endif
}

} // namespace cxl

#endif // CXL_SUPPORT_RESOURCE_HH
