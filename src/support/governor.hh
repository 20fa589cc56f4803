/**
 * @file
 * The run governor: one stop word shared by every worker of an
 * exploration, tripped by whichever budget gives out first — the
 * state cap, a wall-clock deadline, a resident-set ceiling, an
 * external CancelToken (the CLIs wire SIGINT/SIGTERM to one), or a
 * full StateStore shard.  Workers poll it at batch-flush granularity
 * (about every kFlushBatch successors), so a trip drains the run
 * within one batch per worker and the explored prefix stays a valid,
 * reportable partial result.
 *
 * The stop word is a single atomic StopReason with first-trip-wins
 * CAS semantics: concurrent budget exceedances resolve to one
 * deterministic-enough cause (whichever CAS lands first), and
 * stopped() is a relaxed load — cheap enough for the flush path.
 *
 * Deadlines are checked on every poll (a steady_clock read); the
 * memory probe (meteredMemoryBytes: RssAnon from /proc/self/status
 * plus memfd bytes) reads /proc, so it is sampled on the first poll
 * (tiny ceilings trip immediately) and then every kRssSampleStride
 * polls.
 */

#ifndef CXL_SUPPORT_GOVERNOR_HH
#define CXL_SUPPORT_GOVERNOR_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace cxl
{

/** Why a governed run stopped before draining its frontier. */
enum class StopReason : std::uint8_t {
    None = 0,  ///< no governed stop (completed, or violation-stopped)
    StateCap,  ///< EngineOptions::maxStates reached
    Deadline,  ///< maxSeconds wall-clock budget exhausted
    Memory,    ///< maxRssBytes memory ceiling exceeded
    Cancelled, ///< external CancelToken tripped (SIGINT/SIGTERM)
    ShardFull, ///< a StateStore shard reached its capacity
    /** A worker raised an unexpected exception; only used to drain
     * peers — the exception itself is rethrown from run(). */
    InternalError,
};

/** JSON word for @p r ("state_cap", "deadline", ...); "none" for
 * StopReason::None. */
const char *stopReasonWord(StopReason r);

/** Human phrase for @p r ("state cap", "memory ceiling", ...). */
const char *stopReasonPhrase(StopReason r);

/**
 * A shareable cancellation handle: copies observe one flag, so the
 * CLI (or a future daemon) can hand the same token to many requests
 * and cancel them all.  A default-constructed token is invalid and
 * never reads as cancelled; cancel() and cancelled() are
 * thread-safe (and cancel() is async-signal-safe on lock-free
 * atomic<bool> platforms, which is every platform this builds on).
 */
class CancelToken
{
  public:
    CancelToken() = default;

    /** A fresh, uncancelled token. */
    static CancelToken create();

    /** Trip the flag; no-op on an invalid token. */
    void
    cancel() const
    {
        if (flag_)
            flag_->store(true, std::memory_order_relaxed);
    }

    bool
    cancelled() const
    {
        return flag_ && flag_->load(std::memory_order_relaxed);
    }

    bool valid() const { return flag_ != nullptr; }

  private:
    friend CancelToken installSignalCancel(const CancelToken &);
    std::shared_ptr<std::atomic<bool>> flag_;
};

/**
 * Route SIGINT and SIGTERM to @p token: the first signal trips the
 * token (the engines then stop gracefully and report an Incomplete
 * verdict with stop_reason "cancelled"); the handler re-arms the
 * default disposition, so a second signal kills the process the
 * normal way.  The token is kept alive process-wide.
 *
 * Idempotent and thread-safe: the first installed token wins, and
 * every later call returns that token unchanged instead of re-arming
 * the handlers — so a daemon can claim the bridge for its own drain
 * logic before (or after) api::standardOptions arms the every-CLI
 * one, and both end up watching the same flag.  After
 * uninstallSignalCancel a new token can be installed again.
 *
 * @return the token the bridge is bound to: @p token when this call
 *         installed it, the previously installed token on re-entry
 *         (an invalid @p token installs nothing and is returned
 *         as-is when no bridge is armed).
 */
CancelToken installSignalCancel(const CancelToken &token);

/** Restore the default SIGINT/SIGTERM dispositions and detach the
 * installed token (tests use this to avoid cross-test leakage). */
void uninstallSignalCancel();

/** The budgets a RunGovernor enforces; zero/invalid fields are
 * unlimited. */
struct GovernorLimits {
    double maxSeconds = 0;          ///< wall-clock budget; 0 = none
    std::uint64_t maxRssBytes = 0;  ///< memory ceiling; 0 = none
    CancelToken cancel;             ///< external cancel; invalid = none
};

/**
 * The per-run stop word plus its budget monitor.  One instance per
 * exploration; every worker polls it at flush granularity and checks
 * stopped() at claim granularity.  All methods are thread-safe.
 */
class RunGovernor
{
  public:
    explicit RunGovernor(const GovernorLimits &limits);

    /** True once any budget tripped; relaxed — hot-path cheap. */
    bool
    stopped() const
    {
        return reason_.load(std::memory_order_relaxed) !=
               StopReason::None;
    }

    StopReason
    reason() const
    {
        return reason_.load(std::memory_order_acquire);
    }

    /** First trip wins; later trips (racing budgets) are dropped. */
    void
    trip(StopReason r)
    {
        StopReason expected = StopReason::None;
        reason_.compare_exchange_strong(expected, r,
                                        std::memory_order_acq_rel);
    }

    /**
     * Check the budgets: the cancel token and the deadline on every
     * call, the RSS probe on the first call and then every
     * kRssSampleStride calls (a /proc read per sample).  Trips the
     * stop word on the first exceeded budget.
     */
    void poll();

    /**
     * The largest memory sample poll() has taken (RssAnon plus memfd
     * bytes, the number the ceiling is checked against); 0 when no
     * ceiling is set, since then nothing is sampled.  A run that was
     * not stopped on Memory never saw a sample above its ceiling.
     */
    std::uint64_t
    meteredPeak() const
    {
        return meteredPeak_.load(std::memory_order_relaxed);
    }

  private:
    /** Polls between RSS samples (the probe is a /proc read). */
    static constexpr std::uint32_t kRssSampleStride = 64;

    std::atomic<StopReason> reason_{StopReason::None};
    std::atomic<std::uint32_t> polls_{0};
    std::atomic<std::uint64_t> meteredPeak_{0};
    std::chrono::steady_clock::time_point deadline_{};
    bool hasDeadline_ = false;
    std::uint64_t maxRssBytes_ = 0;
    CancelToken cancel_;
};

} // namespace cxl

#endif // CXL_SUPPORT_GOVERNOR_HH
