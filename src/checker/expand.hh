/**
 * @file
 * The expansion kernel both exploration schedules run on.  runBfs
 * (explorer.cc) and runWorkSteal (explorer_ws.cc) differ only in
 * which node a worker expands next and in when a result becomes
 * final; run setup and teardown, node expansion, the batch flush, the
 * worker guard, violation recording, the counter merge and the POR
 * sleep contribution live here once.
 */

#ifndef CXL_CHECKER_EXPAND_HH
#define CXL_CHECKER_EXPAND_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
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

/** Identity of a running minimum over depths. */
constexpr std::uint32_t kNoDepth = 0xffffffffu;

/**
 * A violation observed by a worker.  Candidates are collected per
 * worker and the winner is picked by candidateLess once the store is
 * quiescent, so the reported verdict is thread-count-independent.
 * depth is the state's depth when recorded (a deadlock's is the
 * expanded node's); the work-stealing schedule re-resolves it from
 * the converged labels.
 */
struct Candidate {
    Violation::Kind kind;
    const Conjunct *conjunct; ///< non-null only for Kind::Conjunct
    std::uint32_t idx;
    std::uint32_t depth;
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
 * fingerprint, then overflow before conjunct (matching the sequential
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
 * POR: one generated edge, staged alongside its successor and kept
 * compact (12 bytes, not the 96-byte mask) so a whole BFS level's
 * edges fit in scratch at 4-device scale.  The sleep contribution it
 * hands its target is derived once the target's id is known, from
 * the source's sleep mask, the within-node fired order (edges of one
 * node are contiguous, in ascending rule order) and the recorded
 * canonicalisation permutation.
 */
struct PorEdge {
    std::uint32_t id;     ///< target store id (filled by the flush)
    std::uint32_t node;   ///< the schedule's tag for the source node
    std::uint16_t rule;
    std::uint8_t permKey; ///< PorContext::permKey of the canon perm
};

/** One worker's scratch, reused so the hot path stays allocation-free
 * once warm; schedules derive from it for their own state. */
struct WorkerScratch {
    SystemState node; ///< the node being expanded
    std::vector<RuleSet::Successor> succs;
    std::vector<std::uint16_t> sleptRules; ///< POR: per-node scratch

    std::vector<StateStore::BatchItem> batch; ///< staged successors
    std::vector<PorEdge> edges; ///< POR only: edges[i] is batch[i]'s
    /** Overflow edges (batch index, source hash) awaiting their ids. */
    std::vector<std::pair<std::uint32_t, std::uint64_t>> overflows;

    std::vector<Candidate> candidates;
    /** Least source depth of the successors dropped uninserted (past
     * the state cap, or in a batch a full shard interrupted): their
     * source level was not fully expanded. */
    std::uint32_t droppedSourceDepth = kNoDepth;
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
        std::vector<Scratch> scratch(threads);
        for (WorkerScratch &ws : scratch) {
            ws.ruleFires.assign(rules.rules().size(), 0);
            ws.ruleSlept.assign(rules.rules().size(), 0);
        }
        return scratch;
    }

    /**
     * Decode node @p idx at @p depth, generate its successors (under
     * POR, sparing the rules in @p sleep) and stage them in ws.batch,
     * tagged with @p tag.  True when the batch is due for a flush:
     * full, or so close to maxStates that the cap needs item-wise
     * inserts.
     */
    bool expand(WorkerScratch &ws, std::uint32_t idx,
                std::uint32_t depth, const RuleMask *sleep,
                std::uint32_t tag);

    /** Flush ws.batch (no-op when empty): one store pass grouped by
     * shard, then overflow candidates and invariant checks on fresh
     * states outside any lock, then the schedule's @p onBatch() on the
     * inserted items, then the budget poll and progress tick. */
    template <typename OnBatch>
    void
    flush(WorkerScratch &ws, OnBatch &&onBatch)
    {
        if (ws.batch.empty())
            return;
        const std::size_t staged = ws.batch.size();
        // Items past the cap are dropped uninserted; the run is
        // stopping on the cap anyway.
        dropBatch(ws, store.insertBatchCapped(ws.batch.data(), staged,
                                              softCap, opt.maxStates));
        for (std::size_t i = 0; i < ws.edges.size(); ++i)
            ws.edges[i].id = ws.batch[i].id;
        for (const auto &[index, parent_hash] : ws.overflows) {
            if (index >= ws.batch.size())
                continue;
            const StateStore::BatchItem &item = ws.batch[index];
            addCandidate(ws, {Violation::Kind::Overflow, nullptr, item.id,
                              item.depth, item.hash, item.rule,
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
                addCandidate(ws, {Violation::Kind::Conjunct, bad, item.id,
                                  item.depth, item.hash});
            }
        }
        onBatch();
        ws.batch.clear();
        ws.edges.clear();
        if (store.size() >= opt.maxStates)
            governor.trip(StopReason::StateCap);
        // Budget checks and progress samples ride the flush: about
        // once per kFlushBatch successors per worker.
        governor.poll();
        progress.tick(store.size(), staged, deepest);
    }

    /** Truncate ws.batch to @p keep items, folding the dropped items'
     * source depths into ws.droppedSourceDepth. */
    static void
    dropBatch(WorkerScratch &ws, std::size_t keep)
    {
        for (std::size_t i = keep; i < ws.batch.size(); ++i) {
            ws.droppedSourceDepth =
                std::min(ws.droppedSourceDepth, ws.batch[i].depth - 1);
        }
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
                pool.emplace(threads);
            for (std::size_t t = 0; t < threads; ++t)
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

    /** POR: call @p visit(edge, acc) for each of @p edges — those
     * of one source node contiguous, in fired order — where acc is
     * the source's sleep set @p nodeMask(edge.node) plus the rules
     * fired from it before the edge. */
    template <typename NodeMask, typename Visit>
    static void
    walkEdges(const std::vector<PorEdge> &edges, NodeMask &&nodeMask,
              Visit &&visit)
    {
        for (std::size_t j = 0; j < edges.size();) {
            const std::uint32_t node = edges[j].node;
            RuleMask acc = nodeMask(node);
            for (; j < edges.size() && edges[j].node == node; ++j) {
                visit(edges[j], acc);
                acc.set(edges[j].rule);
            }
        }
    }

    /** POR: the sleep mask edge @p e hands its target, from its
     * walkEdges accumulator: acc ∩ indep(rule), relabelled through
     * the canonicalising permutation. */
    RuleMask
    sleepContribution(const RuleMask &acc, const PorEdge &e) const
    {
        const RuleMask m = acc & por->independentOf(e.rule);
        return e.permKey == PorContext::kIdentityPermKey || m.none()
                   ? m
                   : por->remapByKey(m, e.permKey);
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
        result.probeCollisions = store.probeCollisions();
        result.storeMappedBytes = store.mappedBytes();
        result.storeFileBytes = store.backingFileBytes();
        result.seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        return std::move(result);
    }

    const RuleSet &rules;
    const Scenario &scenario;
    const InvariantSet &invariants;
    const ExploreOptions &opt;
    const Context ctx; ///< read-only, shared by every worker
    const std::chrono::steady_clock::time_point start;
    const std::size_t threads;
    std::optional<PorContext> por;
    StateStore store;
    RunGovernor governor; ///< the run's stop word: every budget trips it
    ProgressTicker progress;
    /**
     * Batches this close to maxStates flush at once, and flushes
     * starting this close insert one item at a time (see
     * insertBatchCapped), which bounds the cap overshoot at one state
     * per worker.
     */
    const std::uint64_t softCap;
    std::uint32_t initIdx = 0;
    ExploreResult result;
    std::optional<ThreadPool> pool; ///< spawned on first parallel use
    /** Under stop-at-first-violation, the least producing level
     * (depth of the node whose expansion found it) over candidates so
     * far; each bounds its candidate's final level from above, so
     * deeper work cannot change the verdict. */
    std::atomic<std::uint32_t> candidateLevel{kNoDepth};

  private:
    void addCandidate(WorkerScratch &ws, const Candidate &c);

    std::mutex errorMutex_;
    std::exception_ptr workerError_;
};

/** The depth-synchronized level-parallel schedule (explorer.cc). */
void runBfs(ExpandKernel &k);

/** The asynchronous work-stealing schedule (explorer_ws.cc). */
void runWorkSteal(ExpandKernel &k);

} // namespace cxl

#endif // CXL_CHECKER_EXPAND_HH
