/**
 * @file
 * ProgressTicker: the shared rate limiter behind
 * EngineOptions::progress.  Both engines call tick() wherever they
 * poll the governor (batch-flush granularity), and the ticker turns
 * that firehose into one serialized ProgressSnapshot per interval:
 *
 *  - transition deltas and the deepest-level watermark are folded
 *    into relaxed atomics on every tick (cheap enough for the flush
 *    path even with no observer installed);
 *  - the interval gate is a CAS on a nanosecond deadline, so exactly
 *    one racing worker wins each window;
 *  - the winner emits under a mutex, so the observer never sees
 *    concurrent calls (serve/ writes socket frames from it).
 *
 * Header-only; no engine state is read — callers pass the store size
 * at each tick, the ticker owns the rest of the sample.
 */

#ifndef CXL_CHECKER_PROGRESS_HH
#define CXL_CHECKER_PROGRESS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>

#include "checker/explorer.hh"
#include "support/resource.hh"

namespace cxl
{

class ProgressTicker
{
  public:
    /** @p fn may be empty (ticks then only fold counters, which keeps
     * the call sites unconditional).  Copies @p fn: the ticker can
     * outlive the options struct it was configured from. */
    ProgressTicker(ProgressFn fn, double intervalSeconds)
        : fn_(std::move(fn)),
          intervalNs_(intervalSeconds > 0
                          ? static_cast<std::int64_t>(
                                intervalSeconds * 1e9)
                          : 0),
          start_(std::chrono::steady_clock::now())
    {
    }

    ProgressTicker(const ProgressTicker &) = delete;
    ProgressTicker &operator=(const ProgressTicker &) = delete;

    /**
     * Fold @p deltaTransitions and the @p depth watermark into the
     * running sample and, if an observer is installed and the
     * interval elapsed, emit a snapshot with @p states as the state
     * count.  Thread-safe; called at governor-poll granularity.
     */
    void
    tick(std::uint64_t states, std::uint64_t deltaTransitions,
         std::uint32_t depth)
    {
        if (deltaTransitions)
            transitions_.fetch_add(deltaTransitions,
                                   std::memory_order_relaxed);
        std::uint32_t seen = depth_.load(std::memory_order_relaxed);
        while (depth > seen &&
               !depth_.compare_exchange_weak(
                   seen, depth, std::memory_order_relaxed)) {
        }
        if (!fn_)
            return;
        const std::int64_t now =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start_)
                .count();
        std::int64_t due = next_.load(std::memory_order_relaxed);
        if (now < due)
            return;
        // One winner per window; losers return without blocking.
        if (!next_.compare_exchange_strong(due, now + intervalNs_,
                                           std::memory_order_relaxed))
            return;
        const std::lock_guard<std::mutex> lock(emit_);
        ProgressSnapshot p;
        p.states = states;
        p.transitions = transitions_.load(std::memory_order_relaxed);
        p.depth = depth_.load(std::memory_order_relaxed);
        p.rssBytes = currentRssBytes();
        p.seconds = static_cast<double>(now) * 1e-9;
        fn_(p);
    }

  private:
    const ProgressFn fn_;
    const std::int64_t intervalNs_;
    const std::chrono::steady_clock::time_point start_;
    std::atomic<std::uint64_t> transitions_{0};
    std::atomic<std::uint32_t> depth_{0};
    std::atomic<std::int64_t> next_{0};
    std::mutex emit_;
};

} // namespace cxl

#endif // CXL_CHECKER_PROGRESS_HH
