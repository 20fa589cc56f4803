/**
 * @file
 * The expansion kernel the level schedule (runBfs, explorer.cc) runs
 * on: run setup and teardown, node expansion, the batch flush, the
 * worker guard, violation recording, the counter merge, the POR
 * sleep table and the sleep contribution.  runBfs keeps only its
 * order of work: which level is expanded, and when its results are
 * final.
 */

#ifndef CXL_CHECKER_EXPAND_HH
#define CXL_CHECKER_EXPAND_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "checker/explorer.hh"
#include "checker/por.hh"
#include "checker/progress.hh"
#include "support/reduce.hh"
#include "support/thread_pool.hh"

namespace cxl
{

/**
 * Successors a worker accumulates before flushing them into the store
 * in one batched, shard-grouped pass.  Bounds both the batch buffer
 * and, together with the soft cap margin, the maxStates overshoot.
 */
constexpr std::size_t kFlushBatch = 512;

/** ExpandKernel::close's "no level left unfinished". */
constexpr std::uint32_t kNoDepth = 0xffffffffu;

/**
 * A violation observed by a worker.  Candidates are collected per
 * worker and the winner is picked by candidateLess once the store is
 * quiescent, so the reported verdict is thread-count-independent.
 * depth is the state's depth (a deadlock's is the expanded node's).
 */
struct Candidate {
    Violation::Kind kind;
    const Conjunct *conjunct; ///< non-null only for Kind::Conjunct
    std::uint32_t idx;
    std::uint32_t depth;
    /** state.hash(): the state's content, not its store ids, which
     * depend on the interning order, so candidates order the same at
     * every thread count. */
    std::uint64_t stateHash;
    // Overflow only: the violating edge itself (rule, source state),
    // so the reported trace can end with the actual overflowing rule
    // even when the target state was already known.
    std::uint16_t edgeRule = 0;
    std::uint32_t edgeParent = StateStore::kNoParent;
    std::uint64_t parentHash = 0;
};

/**
 * Deterministic candidate order: shallowest first, then by state
 * hash, then overflow before conjunct (matching the sequential
 * per-state check order), then by the violating edge (rule id, source
 * state hash) so racing overflow edges into one target resolve the
 * same way for every thread count.
 */
inline bool
candidateLess(const Candidate &a, const Candidate &b)
{
    auto key = [](const Candidate &c) {
        const int rank = c.kind == Violation::Kind::Overflow   ? 0
                         : c.kind == Violation::Kind::Conjunct ? 1
                                                               : 2;
        return std::make_tuple(c.depth, c.stateHash, rank, c.edgeRule,
                               c.parentHash);
    };
    return key(a) < key(b);
}

/** Add @p from into @p into elementwise, zeroing @p from. */
inline void
drainCounts(std::vector<std::uint64_t> &into,
            std::vector<std::uint64_t> &from)
{
    for (std::size_t r = 0; r < from.size(); ++r)
        into[r] += std::exchange(from[r], 0);
}

/**
 * POR: one generated edge, staged alongside its successor until the
 * flush knows its target's id (12 bytes, not a 96-byte mask).  The
 * sleep contribution it hands its target (ExpandKernel::sleepEdges)
 * is derived from the source's sleep mask, the within-node fired
 * order (edges of one node are contiguous, in ascending rule order)
 * and the recorded canonicalisation permutation.
 */
struct PorEdge {
    std::uint32_t id;     ///< target store id (filled by the flush)
    std::uint32_t node;   ///< source's slot in WorkerScratch::nodeMasks
    std::uint16_t rule;
    std::uint8_t permKey; ///< PorContext::permKey of the canon perm
};

/**
 * POR: every state's sleep mask, hash-consed.  A state holds a u32
 * handle into one SliceTable of distinct masks (store_arena.hh, the
 * table the store interns state slices in), so it costs 4 bytes
 * however wide RuleMask is — the 3-device model's whole table holds a
 * few hundred distinct masks.  Handles live in zero-initialised
 * chunks and handle 0 is the all-rules mask, so a slot is born
 * sleeping everything (before any edge's contribution can race with
 * an explicit initialisation) and only ever shrinks by intersection;
 * handle h > 0 is mask id h - 1.  Sharded by StateStore::shardOf; one
 * mutex per shard guards its chunks, taken before the mask table's
 * stripe lock.
 */
class SleepTable
{
  public:
    /** A table over rules [0, @p num_rules). */
    explicit SleepTable(std::size_t num_rules);

    /** @p id's current sleep mask. */
    RuleMask get(std::uint32_t id);

    /** Intersect @p m into @p id's mask. */
    void intersect(std::uint32_t id, const RuleMask &m);

  private:
    /** log2 of handles per chunk (a chunk is 16 KiB). */
    static constexpr std::uint32_t kChunkBits = 12;

    struct alignas(64) Shard {
        std::mutex mutex;
        std::vector<std::unique_ptr<std::uint32_t[]>> chunks;
    };

    /** The mask handle @p handle names. */
    RuleMask maskOf(std::uint32_t handle) const;

    RuleMask all_; ///< handle 0
    SliceTable masks_{sizeof(RuleMask)};
    Shard shards_[StateStore::kNumShards];
};

/** One worker's scratch, reused so the hot path stays allocation-free
 * once warm; the schedule derives from it for its own state. */
struct WorkerScratch {
    SystemState node; ///< the node being expanded
    std::vector<RuleSet::Successor> succs;
    std::vector<std::uint16_t> sleptRules; ///< POR: per-node scratch

    std::vector<StateStore::BatchItem> batch; ///< staged successors
    std::vector<PorEdge> edges; ///< POR only: edges[i] is batch[i]'s
    /** POR only: the sleep mask of each node staged in the batch. */
    std::vector<RuleMask> nodeMasks;
    /** Overflow edges (batch index, source hash) awaiting their ids. */
    std::vector<std::pair<std::uint32_t, std::uint64_t>> overflows;

    std::vector<Candidate> candidates;
    std::vector<std::uint64_t> ruleFires; ///< per-rule firings
    std::vector<std::uint64_t> ruleSlept; ///< per-rule POR skips
};

/** One run's shared machinery (see the file comment). */
class ExpandKernel
{
  public:
    ExpandKernel(const RuleSet &rules, const Scenario &scenario,
                 const InvariantSet &invariants,
                 const ExploreOptions &options);

    /** Insert the canonical initial state as initIdx and check it;
     * true when a violation there ends the run. */
    bool insertInitial();

    /** One scratch per worker. */
    template <typename Scratch>
    std::vector<Scratch>
    makeScratch() const
    {
        std::vector<Scratch> scratch(resolved.threads);
        for (WorkerScratch &ws : scratch) {
            ws.ruleFires.assign(rules.rules().size(), 0);
            ws.ruleSlept.assign(rules.rules().size(), 0);
        }
        return scratch;
    }

    /**
     * Decode node @p idx at @p depth, generate its successors (under
     * POR, sparing the rules its sleep mask holds, snapshot into
     * ws.nodeMasks) and stage them in ws.batch.  True when the batch
     * is due for a flush: full, or so close to maxStates that the cap
     * needs item-wise inserts.
     */
    bool expand(WorkerScratch &ws, std::uint32_t idx,
                std::uint32_t depth);

    /** Flush ws.batch (no-op when empty): one store pass grouped by
     * shard, then overflow candidates and invariant checks on fresh
     * states outside any lock, then the schedule's @p onBatch() on the
     * inserted items, then the budget poll and progress tick. */
    template <typename OnBatch>
    void
    flush(WorkerScratch &ws, OnBatch &&onBatch)
    {
        if (ws.batch.empty()) {
            ws.nodeMasks.clear(); // nodes without successors
            return;
        }
        const std::size_t staged = ws.batch.size();
        // Items past the cap are dropped uninserted; the run is
        // stopping on the cap anyway.
        dropBatch(ws, store.insertBatchCapped(ws.batch.data(), staged,
                                              softCap,
                                              resolved.maxStates));
        for (std::size_t i = 0; i < ws.edges.size(); ++i)
            ws.edges[i].id = ws.batch[i].id;
        for (const auto &[index, parent_hash] : ws.overflows) {
            if (index >= ws.batch.size())
                continue;
            const StateStore::BatchItem &item = ws.batch[index];
            ws.candidates.push_back({Violation::Kind::Overflow, nullptr,
                                     item.id, item.depth,
                                     item.state.hash(), item.rule,
                                     item.parent, parent_hash});
        }
        ws.overflows.clear();
        std::uint32_t deepest = 0;
        for (const StateStore::BatchItem &item : ws.batch) {
            deepest = std::max(deepest, item.depth);
            if (!item.inserted || !opt.checkInvariants)
                continue;
            if (const Conjunct *bad =
                    invariants.firstFailure(item.state, ctx)) {
                ws.candidates.push_back({Violation::Kind::Conjunct, bad,
                                         item.id, item.depth,
                                         item.state.hash()});
            }
        }
        onBatch();
        ws.batch.clear();
        ws.edges.clear();
        ws.nodeMasks.clear();
        if (store.size() >= resolved.maxStates)
            governor.trip(StopReason::StateCap);
        // Budget checks and progress samples ride the flush: about
        // once per kFlushBatch successors per worker.
        governor.poll();
        progress.tick(store.size(), staged, deepest);
    }

    /** Truncate ws.batch to @p keep items. */
    static void
    dropBatch(WorkerScratch &ws, std::size_t keep)
    {
        ws.batch.resize(keep);
        if (!ws.edges.empty())
            ws.edges.resize(keep);
    }

    /** Run @p work(t) for every worker on the pool when @p parallel,
     * else for worker 0 inline, under the worker guard: a full shard
     * drops the worker's batch and trips ShardFull; anything else
     * trips InternalError and is rethrown once every worker returned. */
    template <typename Scratch, typename Work>
    void
    runWorkers(std::vector<Scratch> &scratch, bool parallel, Work &&work)
    {
        auto guarded = [&](std::size_t t) {
            try {
                work(t);
            } catch (const StoreFullError &) {
                // insertBatch may have stopped mid-way, leaving item
                // ids half filled: no post-insert work runs on it.
                dropBatch(scratch[t], 0);
                scratch[t].overflows.clear();
                governor.trip(StopReason::ShardFull);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMutex_);
                if (!workerError_)
                    workerError_ = std::current_exception();
                governor.trip(StopReason::InternalError);
            }
        };
        if (parallel) {
            if (!pool)
                pool.emplace(resolved.threads);
            for (std::size_t t = 0; t < resolved.threads; ++t)
                pool->submit([&guarded, t] { guarded(t); });
            pool->wait();
        } else {
            guarded(0);
        }
        if (workerError_)
            std::rethrow_exception(workerError_);
    }

    /** Fold all workers into scratch[0] by an atomic-free reduction
     * tree (support/reduce.hh) and its counts into the result; the
     * candidates stay there for the schedule to judge. */
    template <typename Scratch>
    void
    mergeWorkers(std::vector<Scratch> &scratch)
    {
        treeReduce(scratch.data(), scratch.size(),
                   pool ? &*pool : nullptr,
                   [](WorkerScratch &into, WorkerScratch &from) {
                       drainCounts(into.ruleFires, from.ruleFires);
                       drainCounts(into.ruleSlept, from.ruleSlept);
                       into.candidates.insert(into.candidates.end(),
                                              from.candidates.begin(),
                                              from.candidates.end());
                       from.candidates.clear();
                   });
        drainCounts(result.ruleFireCounts, scratch[0].ruleFires);
        drainCounts(result.ruleSleptCounts, scratch[0].ruleSlept);
    }

    /** POR, inside a flush's onBatch: call @p visit(edge, mask) for
     * each staged edge, where mask is the sleep set the edge hands its
     * target — (the source's sleep ∪ the rules fired from it before
     * the edge) ∩ indep(rule), relabelled through the canonicalising
     * permutation. */
    template <typename Visit>
    void
    sleepEdges(const WorkerScratch &ws, Visit &&visit) const
    {
        const std::vector<PorEdge> &edges = ws.edges;
        for (std::size_t j = 0; j < edges.size();) {
            const std::uint32_t node = edges[j].node;
            RuleMask acc = ws.nodeMasks[node];
            for (; j < edges.size() && edges[j].node == node; ++j) {
                const PorEdge &e = edges[j];
                const RuleMask m = acc & por->independentOf(e.rule);
                visit(e, e.permKey == PorContext::kIdentityPermKey ||
                                 m.none()
                             ? m
                             : por->remapByKey(m, e.permKey));
                acc.set(e.rule);
            }
        }
    }

    /** Report @p c as the run's violation, with its trace (quiescent
     * store only). */
    void record(const Candidate &c);

    /** A recorded violation ends the run. */
    bool
    violationStopped() const
    {
        return result.violation && opt.stopAtFirstViolation;
    }

    /** Settle the stop facts.  @p unexpanded is the shallowest level
     * a governed stop left unfinished (kNoDepth if none): the deepest
     * complete level is one below it, clamped to 0 for a stop during
     * level 0; otherwise the run expanded through its diameter. */
    void
    close(std::uint32_t unexpanded)
    {
        const bool governed = governor.stopped();
        result.completed = !governed && !violationStopped();
        result.stopReason = governed ? governor.reason() : StopReason::None;
        result.deepestCompleteLevel =
            unexpanded == kNoDepth ? result.maxDepth
                                   : (unexpanded > 0 ? unexpanded - 1 : 0);
    }

    /** Stamp the totals, store statistics and wall-clock time. */
    ExploreResult
    finish()
    {
        result.numTransitions = std::accumulate(
            result.ruleFireCounts.begin(), result.ruleFireCounts.end(),
            std::uint64_t{0});
        result.sleptTransitions = std::accumulate(
            result.ruleSleptCounts.begin(), result.ruleSleptCounts.end(),
            std::uint64_t{0});
        result.storeMappedBytes = store.mappedBytes();
        result.storeFileBytes = store.backingFileBytes();
        result.meteredPeakBytes = governor.meteredPeak();
        result.seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        return std::move(result);
    }

    const RuleSet &rules;
    const Scenario &scenario;
    const InvariantSet &invariants;
    const ExploreOptions &opt;
    const ResolvedEngine resolved; ///< workers, symmetry, state cap
    const Context ctx; ///< read-only, shared by every worker
    const std::chrono::steady_clock::time_point start;
    std::optional<PorContext> por;
    std::optional<SleepTable> sleep; ///< POR only
    StateStore store;
    RunGovernor governor; ///< the run's stop word: every budget trips it
    ProgressTicker progress;
    /**
     * Batches this close to maxStates flush at once, and flushes
     * starting this close insert one item at a time (see
     * insertBatchCapped), which bounds the cap overshoot at one flush
     * batch (kFlushBatch states) per worker: a worker that passed the
     * soft-cap check may still insert its whole batch after its peers
     * reach the cap.
     */
    const std::uint64_t softCap;
    std::uint32_t initIdx = 0;
    ExploreResult result;
    std::optional<ThreadPool> pool; ///< spawned on first parallel use

  private:
    std::mutex errorMutex_;
    std::exception_ptr workerError_;
};

/** The level schedule (explorer.cc): expand every state of one depth,
 * in parallel grains, before any state of the next.  Runs on a kernel
 * whose insertInitial() returned false, as in Explorer::run. */
void runBfs(ExpandKernel &k);

} // namespace cxl

#endif // CXL_CHECKER_EXPAND_HH
