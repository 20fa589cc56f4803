/**
 * @file
 * Breadth-first explicit-state explorer.
 *
 * This is the reproduction's counterpart of the paper's SWMR theorem
 * (Section 6): for the finite two-device, one-location model we
 * enumerate *every* reachable state and evaluate *every* invariant
 * conjunct on each, instead of proving preservation deductively.  On a
 * violation (or deadlock, if requested) the explorer replays the
 * witness path's rule ids from the initial state into the full
 * rule-labelled trace — the counterpart of the paper's
 * message-sequence-chart counterexamples (Fig. 5).
 *
 * Two parallel schedules share the sharded StateStore (see
 * Schedule) and one expansion kernel (checker/expand.hh), which owns
 * run setup and teardown, node expansion, the batch flush (capped
 * insert, overflow candidates, invariant checks, budget poll), the
 * worker guard, violation recording, the counter merge and, under
 * POR, the hash-consed per-state sleep table (SleepTable).  Each
 * schedule keeps only its own order of work, and its own rule for
 * which edges shrink a sleep mask:
 *
 *  - Bfs (explorer.cc): depth-synchronized levels claimed in grains
 *    by a worker pool, with per-worker scratch merged at the level
 *    barrier, where the store's shards also grow ahead of the next
 *    level.  Under POR only edges into the
 *    level being built shrink masks.  Results (state count,
 *    transition count, violation verdict and depth) are
 *    deterministic regardless of thread count.
 *  - WorkSteal (explorer_ws.cc): asynchronous task-parallel
 *    expansion over per-worker Chase-Lev deques
 *    (checker/workqueue.hh), with a pending-task counter and an
 *    expand limit — no depth barrier.  Under POR every edge shrinks
 *    its target's mask, and a shrunk state is re-expanded.  Depth
 *    labels converge to BFS-minimal values by label correction, and
 *    violations are resolved at quiescence, so verdicts, state counts
 *    and diameters are still exact and thread-count-deterministic;
 *    only the transition count (redundant re-expansions) becomes
 *    schedule-dependent.
 *
 * Both store kinds (StoreKind: ram, mmap) keep every cell and decide
 * identity by comparing it slice by slice — exact, never by a hash —
 * so every verdict, count and trace is the same on either.
 */

#ifndef CXL_CHECKER_EXPLORER_HH
#define CXL_CHECKER_EXPLORER_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "checker/state_store.hh"
#include "invariants/invariant.hh"
#include "protocol/rules.hh"
#include "protocol/scenario.hh"
#include "support/governor.hh"

namespace cxl
{

/** Parallel exploration schedule (see the file comment). */
enum class Schedule : std::uint8_t {
    /** Depth-synchronized level-parallel BFS (the paper-exact
     * baseline: transition counts reproducible too). */
    Bfs,
    /**
     * Asynchronous work stealing: workers spawn successor tasks into
     * per-worker deques and steal when dry, so no worker idles at a
     * depth barrier.  Verdicts, state counts and diameters match Bfs
     * bit-for-bit at any thread count; transition/slept counts are
     * schedule-dependent, and counterexample traces are shortest
     * paths (by converged depth labels) rather than BFS-layer
     * traces.
     */
    WorkSteal,
};

/**
 * Visited-state store kind (`--store=ram|mmap`).  Both kinds keep
 * every cell and follow the store's one exact identity rule
 * (state_store.hh); they differ only in where the memory lives.
 * Verdicts, counts, diameters and traces are identical on both.
 */
enum class StoreKind : std::uint8_t {
    InRam, ///< anonymous memory (the default)
    Mmap,  ///< file-backed: memfd, or files under --store-dir
};

/** Always false: no store kind identifies a state by a fingerprint.
 * A compatibility shim for the pinned benchmark harness, which goes
 * in the next change to that harness. */
constexpr bool
storeKindCompact(StoreKind)
{
    return false;
}

/** Whether a store kind uses the file-backed (mmap) backend. */
constexpr bool
storeKindMmap(StoreKind k)
{
    return k == StoreKind::Mmap;
}

/** Canonical flag spelling of a store kind. */
constexpr const char *
storeKindWord(StoreKind k)
{
    switch (k) {
    case StoreKind::InRam:
        return "ram";
    case StoreKind::Mmap:
        return "mmap";
    }
    return "ram";
}

/** Parse a `--store` word ("ram" or "mmap"); nullopt on any other
 * spelling. */
std::optional<StoreKind> storeKindFromWord(const std::string &word);

/** The StateStore construction parameters of a store kind. */
StoreConfig storeConfigOf(StoreKind kind, const std::string &dir,
                          std::uint64_t capacity);

/**
 * A mid-run counter sample handed to EngineOptions::progress.
 * Counters are relaxed reads of live worker state — monotonically
 * believable but not barrier-exact (the final ExploreResult is the
 * authoritative count).  depth is the deepest level any worker has
 * generated a successor into so far.
 */
struct ProgressSnapshot {
    std::uint64_t states = 0;      ///< distinct states inserted so far
    std::uint64_t transitions = 0; ///< rule firings examined so far
    std::uint32_t depth = 0;       ///< deepest level reached so far
    std::uint64_t rssBytes = 0;    ///< current process RSS
    double seconds = 0.0;          ///< wall-clock since run start
};

/**
 * Observer for periodic progress samples.  Called from engine worker
 * threads (one call at a time — emission is serialized), so it must
 * be thread-safe with respect to the caller's own state and must not
 * block for long: workers poll budgets at the same granularity.
 */
using ProgressFn = std::function<void(const ProgressSnapshot &)>;

/** Device-permutation symmetry reduction policy. */
enum class SymmetryMode : std::uint8_t {
    /** On exactly when it is sound and pays: free-run scenarios with
     * more than two devices (see resolveEngine). */
    Auto,
    On,
    Off,
};

/** State cap of a run whose EngineOptions::maxStates is 0. */
constexpr std::uint64_t kDefaultMaxStates = 20'000'000;

/** Most workers a run starts: each gets a scratch and an OS thread,
 * so larger requests are clamped to what a machine could have. */
constexpr std::size_t kMaxWorkers = 1024;

/**
 * Engine knobs: how a run explores, and the budgets that stop it.  A
 * CheckSession holds one set as its defaults, and a CheckRequest may
 * carry its own; ExploreOptions adds the two check switches.
 */
struct EngineOptions {
    /**
     * Worker threads; 0 = one per hardware thread, and requests above
     * kMaxWorkers are clamped (see resolveEngine).  For runs that
     * complete or stop at a violation, any value yields the same
     * state/transition counts and violation verdict (the explorer
     * completes the BFS level a violation is found in and picks the
     * deterministically smallest witness and its rule-id-least
     * shortest trace); only wall-clock time differs.  Runs truncated
     * by maxStates stop at a thread-dependent point: the cap may be
     * overshot by up to one flush batch (512 states) per worker and
     * the final counts are not comparable across thread counts.
     */
    std::size_t threads = 0;

    /**
     * Identify device-permutation-symmetric states (classic Murphi
     * scalarset reduction): every generated state is replaced by the
     * canonical representative of its orbit under all ndev! device
     * permutations (SystemState::deviceCanonical).  Only sound when
     * the scenario itself is device-symmetric (free-run, or identical
     * programs from a symmetric initial state).  This is what keeps
     * 3-4 device free-run spaces enumerable.
     */
    SymmetryMode symmetry = SymmetryMode::Auto;

    /** Visited-set store kind (`--store`; see StoreKind). */
    StoreKind store = StoreKind::InRam;

    /** Mmap store: directory for the backing files (`--store-dir`;
     * "" = anonymous in-memory files). */
    std::string storeDir;

    /** Which parallel schedule expands the frontier (`--ws` /
     * `--bfs`; see Schedule). */
    Schedule schedule = Schedule::Bfs;

    /**
     * Partial-order reduction (sleep sets over the rules' static
     * dependency footprints; `--por`): prune successor firings whose
     * effect is covered by a commuting interleaving explored elsewhere
     * in the same BFS level structure.  Every reachable state is still
     * visited at its minimal depth, so state counts, diameters,
     * verdicts and violated-conjunct sets are identical to an
     * unreduced run — only numTransitions (and wall-clock) drop.
     * Composes with symmetry reduction (sleep masks are relabelled
     * through the canonicalising device permutation) and every store
     * kind.  See checker/por.hh.
     */
    bool por = false;

    /** State cap; 0 = kDefaultMaxStates.  Hitting it stops the run
     * gracefully with StopReason::StateCap. */
    std::uint64_t maxStates = 0;

    /**
     * Pre-size the visited set for this many states (0 = default
     * sizing): eliminates rehash pauses and keeps the probe load
     * factor <= 0.5 through a run of the expected size.  A hint, not
     * a cap — exploration continues past it.
     */
    std::uint64_t expectedStates = 0;

    /** Stop at the first violation (otherwise count them all). */
    bool stopAtFirstViolation = true;

    /**
     * Wall-clock budget in seconds (`--max-seconds`; 0 = none).  A run
     * that exceeds it stops gracefully at batch-flush granularity and
     * reports the explored prefix with StopReason::Deadline.  Where
     * the stop lands is wall-clock-dependent by design —
     * deadline-stopped counts are not reproducible.
     */
    double maxSeconds = 0;

    /**
     * Memory ceiling in bytes (`--max-rss-mb`; 0 = none), sampled by
     * the governor at flush granularity.  The ceiling meters
     * process-wide anonymous RSS plus the bytes of every memfd the
     * process holds (see meteredMemoryBytes in support/resource.hh):
     * an mmap store without storeDir lives in memfd and counts in
     * full, while one under storeDir keeps its bytes in files the
     * kernel reclaims by writeback and does not count.  Not per-run
     * allocation, and the stop is detected one sample stride after
     * the crossing — treat it as a safety net, not an exact budget.
     */
    std::uint64_t maxRssBytes = 0;

    /** External cancellation (SIGINT/SIGTERM via the CLIs, or any
     * other holder of the token); invalid token = not cancellable. */
    CancelToken cancel;

    /**
     * Total visited-set capacity (0 = the architectural 2^28 per
     * shard).  Hitting it stops the run gracefully with
     * StopReason::ShardFull instead of erroring — and makes the
     * shard-full path testable at toy sizes.
     */
    std::uint64_t storeCapacity = 0;

    /**
     * Periodic progress observer (empty = none).  Sampled at
     * governor-poll granularity — the same batch-flush cadence the
     * budgets ride — and rate-limited to one call per
     * progressIntervalSeconds.  Purely observational: verdicts and
     * counts are unaffected by whether a callback is installed.  The
     * serve layer streams these as wire frames.
     */
    ProgressFn progress;

    /** Minimum seconds between progress calls; <= 0 reports at every
     * flush (tests use that to see the stream without waiting). */
    double progressIntervalSeconds = 0.25;
};

/** The engine knobs of one exploration plus which checks it runs. */
struct ExploreOptions : EngineOptions {
    /** Evaluate the invariant set on every reachable state. */
    bool checkInvariants = true;

    /**
     * Report states with no enabled rule before the programs finished
     * (program mode only; free-run states always have successors).
     */
    bool checkDeadlock = true;
};

/** What a run does under its EngineOptions, decided in one place. */
struct ResolvedEngine {
    std::size_t threads = 1;   ///< workers, in [1, kMaxWorkers]
    bool symmetry = false;     ///< device-symmetry reduction on
    std::uint64_t maxStates = kDefaultMaxStates; ///< effective cap
};

/**
 * Resolve @p options for a run of @p scenario: threads 0 becomes the
 * hardware thread count and any count is clamped to kMaxWorkers;
 * SymmetryMode::Auto is on for a free run of more than two devices;
 * maxStates 0 becomes kDefaultMaxStates.  The expansion kernel, the
 * CheckResult echo and the serve cache key all read this, so what a
 * run prints is what it ran.
 */
ResolvedEngine resolveEngine(const EngineOptions &options,
                             const Scenario &scenario);

/** A single step of a counterexample trace. */
struct TraceStep {
    std::string ruleName; ///< empty for the initial state
    SystemState state;
};

/** Description of a found violation. */
struct Violation {
    enum class Kind : std::uint8_t {
        Conjunct, ///< an invariant conjunct failed
        /**
         * A rule overfilled a channel (mutated models).  Counted per
         * overflowing transition: overflow is an edge property, and
         * gating it on target-state novelty would make the verdict
         * depend on which racing edge inserted the state first.
         */
        Overflow,
        Deadlock, ///< no rule enabled before program completion
    };

    Kind kind = Kind::Conjunct;
    std::string conjunctName;   ///< valid for Kind::Conjunct
    std::string conjunctFamily; ///< valid for Kind::Conjunct
    std::uint32_t stateIndex = 0;
    std::uint32_t depth = 0;

    /**
     * Kind::Overflow only: the rule whose channel push overflowed.
     * Recorded from the violating *edge* itself, so it is correct
     * even when that edge lands on an already-known state whose
     * witness path runs through a different rule.
     */
    std::string overflowRule;

    /**
     * Rule-labelled path from the initial state to the bad state.
     * For overflow violations the trace follows the overflowing
     * edge's own source and ends with that edge (see overflowRule),
     * not the target state's own witness path.  Always the full path —
     * depth + 1 steps, the first without a rule — on every store
     * kind (see replayTrace).
     */
    std::vector<TraceStep> trace;

    std::string describe() const;
};

/**
 * Rebuild a counterexample trace by replaying @p path, the rule ids
 * fired in order from @p scenario's initial state.  Each step is the
 * one the expansion kernel takes: the guard (asserted enabled),
 * apply, then canonicaliseTids when @p canonicaliseTids and
 * deviceCanonical when @p symmetryReduction; the initial state is
 * canonicalised the same way.  Returns path.size() + 1 steps, the
 * first without a rule.  No stored state is read, so the trace is
 * the same from every store kind, sealed levels included.
 */
std::vector<TraceStep> replayTrace(const RuleSet &rules,
                                   const Scenario &scenario,
                                   const std::vector<std::uint16_t> &path,
                                   bool canonicaliseTids,
                                   bool symmetryReduction);

/** Aggregate exploration results. */
struct ExploreResult {
    std::uint64_t numStates = 0;      ///< distinct reachable states
    std::uint64_t numTransitions = 0; ///< rule firings examined
    std::uint32_t maxDepth = 0;       ///< BFS diameter reached
    bool completed = false;           ///< frontier fully drained
    std::uint64_t violationCount = 0; ///< violations seen (counted mode)
    std::optional<Violation> violation;
    double seconds = 0.0;

    /**
     * Probe-hash collisions the store detected and kept separate
     * (see StateStore::probeCollisions); each one would have been a
     * silent state merge on probe hashes alone.
     */
    std::uint64_t probeCollisions = 0;

    /** Per-rule firing counts, indexed by rule id. */
    std::vector<std::uint64_t> ruleFireCounts;

    /**
     * Partial-order reduction accounting (zero when por is off):
     * enabled rule firings skipped because the rule sat in the
     * expanded state's sleep set.  numTransitions + sleptTransitions
     * is what an unreduced run of the same space would have explored.
     */
    std::uint64_t sleptTransitions = 0;

    /** Per-rule slept-firing counts, indexed by rule id (por only). */
    std::vector<std::uint64_t> ruleSleptCounts;

    /**
     * Why the governor stopped the run (StopReason::None when it
     * completed or stopped at a violation).  Every stop cause — cap,
     * deadline, memory, cancel, shard-full — lands here instead of
     * surfacing as an exception, and the counts above describe the
     * explored prefix exactly.
     */
    StopReason stopReason = StopReason::None;

    /**
     * Deepest BFS level known to be *fully* expanded when the run
     * ended: maxDepth for completed (and violation-stopped) runs; on
     * a governed stop, one below the shallowest level with work left
     * undone.  Under Bfs that is the level the stop interrupted;
     * under WorkSteal, where levels interleave, the least depth of a
     * task left queued and of the source of any successor a worker
     * held staged or dropped uninserted (past the state cap, or in a
     * batch a full shard interrupted) — conservative.  A stop during
     * level 0 reports 0 on both schedules, although level 0 is then
     * not complete.  When positive, every state at depth <= this
     * level + 1 is in the explored prefix, so per-level facts up to
     * here are trustworthy even in a partial result.
     */
    std::uint32_t deepestCompleteLevel = 0;

    /** Bytes still mapped by the store's file-backed shard memory at
     * the end of the run (0 for the InRam backend) — the out-of-core
     * mapped window. */
    std::uint64_t storeMappedBytes = 0;

    /** Final total size of the store's backing files (0 for InRam);
     * how much state the run spilled out of core. */
    std::uint64_t storeFileBytes = 0;

    /** Largest memory sample the governor checked against
     * EngineOptions::maxRssBytes (RunGovernor::meteredPeak); 0 when
     * no ceiling was set. */
    std::uint64_t meteredPeakBytes = 0;
};

/**
 * BFS over the reachable states of (rules, scenario), checking
 * invariants on the way.
 */
class Explorer
{
  public:
    Explorer(const RuleSet &rules, const Scenario &scenario,
             const InvariantSet &invariants);

    /** Run to completion or until a limit/violation stops the walk;
     * dispatches on EngineOptions::schedule. */
    ExploreResult run(const ExploreOptions &options = {});

  private:
    const RuleSet &rules_;
    const Scenario &scenario_;
    const InvariantSet &invariants_;
};

} // namespace cxl

#endif // CXL_CHECKER_EXPLORER_HH
