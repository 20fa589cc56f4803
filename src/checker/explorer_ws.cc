/**
 * @file
 * Work-stealing schedule of the explicit-state explorer
 * (Schedule::WorkSteal): the depth barrier of runBfs replaced by
 * per-worker Chase-Lev deques (checker/workqueue.hh) and a
 * label-correcting shortest-path discipline.
 *
 * How exactness survives losing the barrier:
 *
 *  - Depth labels.  Tasks carry the depth they were enqueued at; a
 *    duplicate insert with a smaller depth relabels the stored entry
 *    (StateStore::BatchItem::improved) and re-enqueues it, so depth
 *    labels converge to the BFS-minimal values (label correction
 *    over a finite graph).  Diameter and witness-trace lengths are
 *    therefore exact at quiescence, for any thread count.
 *
 *  - Violations.  Candidates are *recorded* during the run but
 *    *resolved* only at quiescence, from the converged depth labels:
 *    the producing level of a candidate is pl = depth(state) for a
 *    deadlock (found while expanding the state) and
 *    pl = depth(state) - 1 otherwise (found on an edge out of level
 *    pl); BFS would have stopped at the smallest such level L*, so
 *    only candidates with pl == L* are visible, the winner among
 *    them is picked by the same deterministic key runBfs uses, the
 *    reported state count is |{depth <= L* + 1}| (exactly the
 *    states a BFS run would have inserted by the end of level L*'s
 *    expansion), and the reported diameter is L*.  A monotonically
 *    shrinking expand limit (min over recorded candidates' pl
 *    estimates, each an upper bound of its final pl) prunes work
 *    beyond L* without ever pruning work at or below it; transient
 *    over-expansion before the limit tightens is excluded by the
 *    end-of-run depth filter.
 *
 *  - Termination.  A global pending-task counter: incremented
 *    *before* a worker publishes new tasks to its deque, decremented
 *    only after a claimed task's successors have been flushed (or
 *    the task was skipped as stale/pruned).  pending == 0 therefore
 *    implies no queued and no in-flight task anywhere — the
 *    quiescence the resolution step needs.
 *
 *  - POR.  Without levels there is no same-level intersection merge;
 *    instead every generated edge's sleep contribution — (source
 *    sleep ∪ {enabled rules fired before it}) ∩ indep(rule),
 *    permutation-relabelled under symmetry, exactly the runBfs
 *    formula — is intersected into a per-state mask side table, and
 *    a state whose mask shrinks after it was enqueued is re-enqueued
 *    (Godefroid's stateful sleep-set revisit rule).  Contributions
 *    are monotone in the source mask, so the chaotic iteration
 *    converges to a schedule-independent greatest fixpoint with
 *    masks no larger than the BFS ones: the engine fires a superset
 *    of the BFS-POR edges — pruning strictly less, never more — so
 *    state coverage, minimal depths and verdicts are untouched,
 *    while transition/slept counts become schedule-dependent.
 *
 *  - Counters.  Per-worker scratch is merged once, at termination,
 *    by an atomic-free binary reduction tree (support/reduce.hh) —
 *    no per-event atomics, no barrier-time serial merge.
 *
 * Hash compaction composes: the store's level sealing is a
 * BFS-schedule notion, so this engine never seals — every compact
 * cell stays retained, which costs the freed memory but makes full
 * counterexample traces reconstructible even under --ws --compact.
 */

#include "checker/explorer.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "checker/por.hh"
#include "checker/progress.hh"
#include "checker/workqueue.hh"
#include "support/reduce.hh"
#include "support/thread_pool.hh"

namespace cxl
{
namespace
{

/** Batched-flush size, matching the BFS schedule's. */
constexpr std::size_t kFlushBatch = 512;

// A task is (state id, depth at enqueue time) packed into the
// deque's u64 payload.
std::uint64_t
packTask(std::uint32_t id, std::uint32_t depth)
{
    return (static_cast<std::uint64_t>(depth) << 32) | id;
}
std::uint32_t
taskId(std::uint64_t task)
{
    return static_cast<std::uint32_t>(task);
}
std::uint32_t
taskDepth(std::uint64_t task)
{
    return static_cast<std::uint32_t>(task >> 32);
}

/**
 * A violation observed mid-run.  Depths are deliberately absent:
 * they are resolved from the store's converged labels at quiescence
 * (see the file comment), which is what makes the verdict
 * thread-count-deterministic despite the asynchronous order.
 */
struct WsCandidate {
    Violation::Kind kind;
    const Conjunct *conjunct; ///< non-null only for Kind::Conjunct
    std::uint32_t idx;
    std::uint64_t stateHash;
    // Overflow only: the violating edge itself.
    std::uint16_t edgeRule = 0;
    std::uint32_t edgeParent = StateStore::kNoParent;
    std::uint64_t parentHash = 0;
};

/** Dedup key: re-expansions re-observe the same candidate. */
bool
candidateIdLess(const WsCandidate &a, const WsCandidate &b)
{
    return std::make_tuple(static_cast<int>(a.kind), a.idx,
                           a.edgeParent, a.edgeRule) <
           std::make_tuple(static_cast<int>(b.kind), b.idx,
                           b.edgeParent, b.edgeRule);
}
bool
candidateIdEq(const WsCandidate &a, const WsCandidate &b)
{
    return a.kind == b.kind && a.idx == b.idx &&
           a.edgeParent == b.edgeParent && a.edgeRule == b.edgeRule;
}

/** A candidate with its quiescence-resolved depth. */
struct ResolvedCandidate {
    WsCandidate c;
    std::uint32_t depth;

    /** The deterministic selection key of the BFS schedule
     * (explorer.cc candidateLess), applied to resolved depths. */
    friend bool
    operator<(const ResolvedCandidate &a, const ResolvedCandidate &b)
    {
        auto rank = [](Violation::Kind k) {
            switch (k) {
              case Violation::Kind::Overflow: return 0;
              case Violation::Kind::Conjunct: return 1;
              case Violation::Kind::Deadlock: return 2;
            }
            return 3;
        };
        return std::make_tuple(a.depth, a.c.stateHash, rank(a.c.kind),
                               a.c.edgeRule, a.c.parentHash) <
               std::make_tuple(b.depth, b.c.stateHash, rank(b.c.kind),
                               b.c.edgeRule, b.c.parentHash);
    }
};

/** An overflow edge waiting for its batch flush to learn its id. */
struct WsPendingOverflow {
    std::uint32_t batchIndex;
    std::uint64_t parentHash;
};

/**
 * Per-state sleep-mask side table (POR only): chunked per shard so
 * the spines never reallocate, mutex-striped by shard.  Slots are
 * born all-rules (chunk fill at allocation — crucially *before* any
 * edge's contribution can race with an explicit initialisation) and
 * only ever shrink by intersection.
 */
class SleepTable
{
  public:
    explicit SleepTable(const RuleMask &fill) : fill_(fill)
    {
        for (ShardMasks &s : shards_) {
            s.chunks.reserve(
                (StateStore::kOffsetMask >> kChunkBits) + 1);
        }
    }

    RuleMask
    get(std::uint32_t id)
    {
        ShardMasks &s = shards_[StateStore::shardOf(id)];
        std::lock_guard<std::mutex> lock(s.mutex);
        return cell(s, id & StateStore::kOffsetMask);
    }

    /** The initial state sleeps nothing. */
    void
    clearMask(std::uint32_t id)
    {
        ShardMasks &s = shards_[StateStore::shardOf(id)];
        std::lock_guard<std::mutex> lock(s.mutex);
        cell(s, id & StateStore::kOffsetMask) = RuleMask{};
    }

    /** Intersect @p m into @p id's mask; true iff the mask shrank
     * (the caller then re-enqueues the state). */
    bool
    intersect(std::uint32_t id, const RuleMask &m)
    {
        ShardMasks &s = shards_[StateStore::shardOf(id)];
        std::lock_guard<std::mutex> lock(s.mutex);
        RuleMask &slot = cell(s, id & StateStore::kOffsetMask);
        const RuleMask before = slot;
        slot &= m;
        return !(slot == before);
    }

  private:
    /** log2 of masks per chunk (a chunk is 384 KiB of RuleMask). */
    static constexpr std::uint32_t kChunkBits = 12;

    struct alignas(64) ShardMasks {
        std::mutex mutex;
        std::vector<std::unique_ptr<RuleMask[]>> chunks;
    };

    RuleMask &
    cell(ShardMasks &s, std::uint32_t off)
    {
        const std::uint32_t chunk = off >> kChunkBits;
        while (chunk >= s.chunks.size()) {
            auto fresh = std::make_unique<RuleMask[]>(1u << kChunkBits);
            std::fill(fresh.get(), fresh.get() + (1u << kChunkBits),
                      fill_);
            s.chunks.push_back(std::move(fresh));
        }
        return s.chunks[chunk][off & ((1u << kChunkBits) - 1)];
    }

    RuleMask fill_;
    ShardMasks shards_[StateStore::kNumShards];
};

/** Per-worker scratch; merged once at termination by treeReduce. */
struct WsScratch {
    std::vector<RuleSet::Successor> succs;
    std::vector<StateStore::BatchItem> batch;
    std::vector<WsPendingOverflow> overflows;
    std::vector<WsCandidate> candidates;
    std::vector<std::uint64_t> ruleFires;
    std::uint64_t transitions = 0;

    // POR bookkeeping (unused when por is off).
    std::vector<std::uint16_t> sleptRules; ///< per-node scratch
    std::vector<std::uint8_t> batchPerm;   ///< permKey, aligned w/batch
    std::vector<std::uint32_t> batchNode;  ///< nodeMasks slot, aligned
    std::vector<RuleMask> nodeMasks; ///< mask snapshot per batch node
    std::vector<std::uint64_t> ruleSlept;
    std::uint64_t slept = 0;

    std::vector<std::uint64_t> pushes; ///< staged tasks of one flush
    std::uint32_t tasksDone = 0; ///< expanded, successors unflushed
};

} // namespace

ExploreResult
Explorer::runWorkSteal(const ExploreOptions &options)
{
    auto start = std::chrono::steady_clock::now();
    auto finish = [&start](ExploreResult &r) -> ExploreResult & {
        auto end = std::chrono::steady_clock::now();
        r.seconds = std::chrono::duration<double>(end - start).count();
        return r;
    };

    std::size_t threads = options.numThreads;
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }
    threads = std::min<std::size_t>(threads, 1024);

    ExploreResult result;
    result.ruleFireCounts.assign(rules_.rules().size(), 0);
    result.ruleSleptCounts.assign(rules_.rules().size(), 0);

    std::optional<PorContext> por;
    if (options.por)
        por.emplace(rules_, options.symmetryReduction,
                    options.canonicaliseTids);

    StateStore store(StoreConfig{
        1 << 16,
        options.compaction ? StoreMode::Compact : StoreMode::Full,
        options.storeBackend, options.storeDir,
        options.storeCapacity});
    if (options.expectedStates != 0)
        store.reserveStates(options.expectedStates);
    Context ctx{&scenario_};

    // Every return goes through here so the out-of-core byte
    // counters ride along (finish() is declared before the store).
    auto finishRun = [&](ExploreResult &r) -> ExploreResult & {
        r.storeMappedBytes = store.mappedBytes();
        r.storeFileBytes = store.backingFileBytes();
        return finish(r);
    };

    // The run's stop word (see explorer.cc): every budget and the
    // maxStates cap trip it; workers check it at claim granularity
    // and poll the budgets at flush granularity.
    RunGovernor governor(
        {options.maxSeconds, options.maxRssBytes, options.cancel});

    // Progress samples ride the flush cadence (see explorer.cc).
    ProgressTicker progress(options.progress,
                            options.progressIntervalSeconds);

    auto symmetry_canon = [&options](SystemState &s) {
        if (!options.symmetryReduction)
            return;
        s = s.deviceCanonical(options.canonicaliseTids,
                              options.canonicaliseTids);
    };

    SystemState init = scenario_.initial;
    if (options.canonicaliseTids)
        init.canonicaliseTids();
    symmetry_canon(init);

    auto [init_idx, init_inserted] =
        store.insert(init, StateStore::kNoParent, 0, 0);
    (void)init_inserted;

    // Resolution-time violation reporting.  Unlike the BFS schedule,
    // compact mode keeps every cell retained (no sealing), so the
    // full witness trace is rebuilt in both store modes.
    auto record = [&](Violation::Kind kind, const Conjunct *conjunct,
                      std::uint32_t idx, std::uint32_t depth,
                      std::uint16_t edge_rule,
                      std::uint32_t edge_parent) {
        Violation v;
        v.kind = kind;
        if (conjunct) {
            v.conjunctName = conjunct->name;
            v.conjunctFamily = conjunct->family;
        }
        v.stateIndex = idx;
        v.depth = depth;
        if (kind == Violation::Kind::Overflow) {
            v.overflowRule = rules_.rules()[edge_rule].name;
            v.trace = rebuildTrace(store, edge_parent);
            TraceStep step;
            step.ruleName = v.overflowRule;
            store.stateInto(idx, step.state);
            v.trace.push_back(std::move(step));
        } else {
            v.trace = rebuildTrace(store, idx);
        }
        result.violation = std::move(v);
    };

    // Check the initial state itself (depth 0; resolution below only
    // handles candidates produced by expansions).
    if (options.checkInvariants) {
        if (const Conjunct *bad = invariants_.firstFailure(init, ctx)) {
            ++result.violationCount;
            record(Violation::Kind::Conjunct, bad, init_idx, 0, 0,
                   StateStore::kNoParent);
            if (options.stopAtFirstViolation) {
                result.numStates = store.size();
                result.probeCollisions = store.probeCollisions();
                return finishRun(result);
            }
        }
    }

    const RuleMask all_rules_mask =
        RuleMask::firstN(rules_.rules().size());
    std::optional<SleepTable> sleep;
    if (options.por) {
        sleep.emplace(all_rules_mask);
        sleep->clearMask(init_idx);
    }

    std::vector<WsScratch> scratch(threads);
    for (WsScratch &s : scratch) {
        s.ruleFires.assign(rules_.rules().size(), 0);
        if (options.por)
            s.ruleSlept.assign(rules_.rules().size(), 0);
    }
    std::vector<std::unique_ptr<WorkDeque>> deques;
    deques.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t)
        deques.push_back(std::make_unique<WorkDeque>());

    // Outstanding tasks (queued + in-flight).  Incremented *before* a
    // push is visible, decremented only after the claimed task's
    // successors were flushed — so 0 really means quiescent.
    std::atomic<std::int64_t> pending{0};

    // Largest task depth still worth expanding.  Starts at the depth
    // cap and, under stop-at-first-violation, shrinks to min over
    // candidates' producing-level estimates (each >= its final pl,
    // hence always >= the final L* — pruning never loses required
    // work; see the file comment).
    std::atomic<std::int64_t> expand_limit{
        static_cast<std::int64_t>(options.maxDepth) - 1};

    std::mutex error_mutex;
    std::exception_ptr worker_error;

    const std::uint64_t soft_cap =
        options.maxStates > threads * kFlushBatch
            ? options.maxStates - threads * kFlushBatch
            : 0;

    auto note_limit = [&](std::uint32_t pl_estimate) {
        if (!options.stopAtFirstViolation)
            return;
        std::int64_t cur =
            expand_limit.load(std::memory_order_relaxed);
        const auto want = static_cast<std::int64_t>(pl_estimate);
        while (want < cur &&
               !expand_limit.compare_exchange_weak(
                   cur, want, std::memory_order_relaxed)) {
        }
    };

    // Flush a worker's pending successor batch, then retire the
    // tasks whose successors it carried: insertBatch -> overflow
    // candidates -> invariant checks on fresh states -> POR sleep
    // contributions -> publish new tasks -> pending bookkeeping.
    auto flush = [&](std::size_t t, WsScratch &ws, Context &wctx) {
        if (ws.batch.empty() && ws.tasksDone == 0)
            return;
        const std::size_t flushed = ws.batch.size();
        std::uint32_t flush_depth = 0;
        ws.pushes.clear();
        if (!ws.batch.empty()) {
            // Items past the cap are dropped uninserted, as in the BFS
            // engine; the run is stopping on the cap anyway.
            const std::size_t done = store.insertBatchCapped(
                ws.batch.data(), ws.batch.size(), soft_cap,
                options.maxStates);
            ws.batch.resize(done);
            if (options.por) {
                ws.batchNode.resize(done);
                ws.batchPerm.resize(done);
            }
            for (const WsPendingOverflow &po : ws.overflows) {
                if (po.batchIndex >= done)
                    continue;
                const StateStore::BatchItem &item =
                    ws.batch[po.batchIndex];
                ws.candidates.push_back(
                    {Violation::Kind::Overflow, nullptr, item.id,
                     item.hash, item.rule, item.parent,
                     po.parentHash});
                note_limit(item.depth - 1);
            }
            ws.overflows.clear();
            for (std::size_t bi = 0; bi < ws.batch.size(); ++bi) {
                const StateStore::BatchItem &item = ws.batch[bi];
                flush_depth = std::max(flush_depth, item.depth);
                if (item.inserted) {
                    if (options.checkInvariants) {
                        if (const Conjunct *bad =
                                invariants_.firstFailure(item.state,
                                                         wctx)) {
                            ws.candidates.push_back(
                                {Violation::Kind::Conjunct, bad,
                                 item.id, item.hash});
                            note_limit(item.depth - 1);
                        }
                    }
                    ws.pushes.push_back(
                        packTask(item.id, item.depth));
                } else if (item.improved) {
                    // Shorter path to a known state: its depth label
                    // just dropped, so it must be re-expanded for
                    // the labels of its successors to converge too.
                    ws.pushes.push_back(
                        packTask(item.id, item.depth));
                }
            }
            if (options.por) {
                // Sleep contributions, per source node (edges of one
                // node are contiguous and in fired order): acc
                // starts at the node's mask snapshot and accumulates
                // fired rules, exactly the BFS barrier walk — minus
                // the level filter, which no longer exists; every
                // edge contributes (prune-only, see file comment).
                std::size_t j = 0;
                while (j < ws.batch.size()) {
                    const std::uint32_t node_slot = ws.batchNode[j];
                    RuleMask acc = ws.nodeMasks[node_slot];
                    for (; j < ws.batch.size() &&
                           ws.batchNode[j] == node_slot;
                         ++j) {
                        const StateStore::BatchItem &item =
                            ws.batch[j];
                        RuleMask m =
                            acc & por->independentOf(item.rule);
                        if (ws.batchPerm[j] !=
                                PorContext::kIdentityPermKey &&
                            !m.none()) {
                            m = por->remapByKey(m, ws.batchPerm[j]);
                        }
                        if (sleep->intersect(item.id, m)) {
                            // Godefroid revisit: the mask shrank, so
                            // rules it slept may need firing now.
                            ws.pushes.push_back(packTask(
                                item.id, store.depthAt(item.id)));
                        }
                        acc.set(item.rule);
                    }
                }
                ws.batchPerm.clear();
                ws.batchNode.clear();
                ws.nodeMasks.clear();
            }
            ws.batch.clear();
        }

        std::sort(ws.pushes.begin(), ws.pushes.end());
        ws.pushes.erase(
            std::unique(ws.pushes.begin(), ws.pushes.end()),
            ws.pushes.end());
        // Publish order matters twice over: count the new tasks as
        // pending before any thief can complete them, and only then
        // retire the tasks that produced them; and push batches
        // shallowest-first — with consumption at the FIFO end (see
        // the worker loop), per-worker processing order stays
        // approximately nondecreasing in depth, which keeps the
        // labels close to minimal from the start and the
        // label-correcting re-expansions rare.
        if (!ws.pushes.empty()) {
            pending.fetch_add(
                static_cast<std::int64_t>(ws.pushes.size()),
                std::memory_order_acq_rel);
            for (std::uint64_t task : ws.pushes)
                deques[t]->push(task);
        }
        if (ws.tasksDone != 0) {
            pending.fetch_sub(ws.tasksDone,
                              std::memory_order_acq_rel);
            ws.tasksDone = 0;
        }
        if (store.size() >= options.maxStates)
            governor.trip(StopReason::StateCap);
        governor.poll();
        progress.tick(store.size(), flushed, flush_depth);
    };

    auto expand = [&](std::size_t t, WsScratch &ws, Context &wctx,
                      SystemState &node_state, std::uint32_t node_idx,
                      std::uint32_t node_depth) {
        store.stateInto(node_idx, node_state);
        if (options.por) {
            const RuleMask node_mask = sleep->get(node_idx);
            rules_.successorsPor(node_state, scenario_,
                                 options.canonicaliseTids,
                                 node_mask.words.data(), ws.succs,
                                 ws.sleptRules);
            ws.slept += ws.sleptRules.size();
            for (std::uint16_t r : ws.sleptRules)
                ++ws.ruleSlept[r];
            ws.nodeMasks.push_back(node_mask);
        } else {
            rules_.successorsInto(node_state, scenario_,
                                  options.canonicaliseTids, ws.succs);
        }

        // Deadlock = no *enabled* rule (slept rules are enabled), a
        // state property — re-expansions re-observe it identically
        // and the resolution pass dedups.
        if (ws.succs.empty() &&
            (!options.por || ws.sleptRules.empty()) &&
            options.checkDeadlock && !scenario_.freeRun &&
            !scenario_.finished(node_state)) {
            ws.candidates.push_back({Violation::Kind::Deadlock,
                                     nullptr, node_idx,
                                     node_state.hash()});
            note_limit(node_depth);
        }

        std::uint64_t node_hash = 0;
        bool node_hash_valid = false;
        const auto node_slot =
            static_cast<std::uint32_t>(ws.nodeMasks.size()) - 1;

        for (auto &succ : ws.succs) {
            ++ws.transitions;
            ++ws.ruleFires[succ.rule->id];
            std::uint8_t perm_key = PorContext::kIdentityPermKey;
            if (options.symmetryReduction) {
                std::uint8_t perm[kMaxDevices];
                succ.state = succ.state.deviceCanonical(
                    options.canonicaliseTids,
                    options.canonicaliseTids,
                    options.por ? perm : nullptr);
                if (options.por) {
                    perm_key = PorContext::permKey(
                        perm, rules_.numDevices());
                }
            }
            if (options.por) {
                ws.batchPerm.push_back(perm_key);
                ws.batchNode.push_back(node_slot);
            }

            StateStore::BatchItem item;
            item.hash = succ.state.hash();
            item.state = std::move(succ.state);
            item.parent = node_idx;
            item.depth = node_depth + 1;
            item.rule = succ.rule->id;
            ws.batch.push_back(std::move(item));

            if (succ.overflow) {
                if (!node_hash_valid) {
                    node_hash = node_state.hash();
                    node_hash_valid = true;
                }
                ws.overflows.push_back(
                    {static_cast<std::uint32_t>(ws.batch.size() - 1),
                     node_hash});
            }
        }
        ++ws.tasksDone;

        if (ws.batch.size() >= kFlushBatch ||
            store.size() + ws.batch.size() >= soft_cap)
            flush(t, ws, wctx);
    };

    auto worker = [&](std::size_t t) {
        WsScratch &ws = scratch[t];
        Context wctx{&scenario_};
        SystemState node_state; // decoded from the store's cell
        WorkDeque &mine = *deques[t];
        // The owner drains its own deque from the *steal* (FIFO) end
        // rather than the LIFO end: tasks are flushed in depth order,
        // so FIFO consumption keeps the processing order
        // approximately breadth-first — the difference between a
        // handful of label-correcting re-expansions and a DFS-shaped
        // walk that relabels (and re-expands) most states many times
        // over.  One CAS per task, amortised over a full successor
        // expansion, is noise; Abort just means a thief raced us, so
        // retry.
        auto take_own = [&](std::uint64_t &task) {
            for (;;) {
                switch (mine.steal(task)) {
                  case WorkDeque::Steal::Success:
                    return true;
                  case WorkDeque::Steal::Empty:
                    return false;
                  case WorkDeque::Steal::Abort:
                    break;
                }
            }
        };
        for (;;) {
            if (governor.stopped())
                return;
            std::uint64_t task;
            if (!take_own(task)) {
                // Publish everything before going thieving, so the
                // work (and its pending count) is visible to peers
                // and the quiescence check below is conclusive.
                flush(t, ws, wctx);
                bool got = false;
                for (std::size_t v = 1; v < threads && !got; ++v) {
                    switch (
                        deques[(t + v) % threads]->steal(task)) {
                      case WorkDeque::Steal::Success:
                        got = true;
                        break;
                      case WorkDeque::Steal::Abort:
                      case WorkDeque::Steal::Empty:
                        break;
                    }
                }
                if (!got) {
                    if (pending.load(std::memory_order_acquire) == 0)
                        return;
                    std::this_thread::yield();
                    continue;
                }
            }
            const std::uint32_t id = taskId(task);
            const std::uint32_t depth = taskDepth(task);
            // Stale (a shorter path won the relabel race — its own
            // re-enqueue carries the re-expansion) or pruned beyond
            // the expand limit: retire without expanding.
            if (store.depthAt(id) < depth ||
                static_cast<std::int64_t>(depth) >
                    expand_limit.load(std::memory_order_relaxed)) {
                pending.fetch_sub(1, std::memory_order_acq_rel);
                continue;
            }
            expand(t, ws, wctx, node_state, id, depth);
        }
    };

    auto guarded_worker = [&](std::size_t t) {
        WsScratch &ws = scratch[t];
        try {
            worker(t);
        } catch (const StoreFullError &) {
            // Governed stop, not an error (see explorer.cc): drop
            // the interrupted batch whole — insertBatch may have
            // filled only some item ids — and let peers drain on the
            // stop word.  The pending counter is left stale, which
            // is fine: workers exit on the stop word, not on
            // quiescence.
            ws.batch.clear();
            ws.batchPerm.clear();
            ws.batchNode.clear();
            ws.nodeMasks.clear();
            ws.overflows.clear();
            governor.trip(StopReason::ShardFull);
        } catch (...) {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (!worker_error)
                worker_error = std::current_exception();
            governor.trip(StopReason::InternalError);
        }
    };

    // Seed and run to quiescence (or to the first tripped budget —
    // the pre-seed poll catches an already-cancelled token or an
    // already-exceeded ceiling before any expansion).
    governor.poll();
    pending.store(1, std::memory_order_relaxed);
    deques[0]->push(packTask(init_idx, 0));

    std::optional<ThreadPool> pool;
    if (threads > 1) {
        pool.emplace(threads);
        for (std::size_t t = 0; t < threads; ++t)
            pool->submit([&, t] { guarded_worker(t); });
        pool->wait();
    } else {
        guarded_worker(0);
    }
    if (worker_error)
        std::rethrow_exception(worker_error);
    const bool cap_stopped = governor.stopped();

    // On a governed stop the deques and scratch batches still hold
    // unexpanded work; the deepest level known fully expanded is one
    // below the shallowest of it.  (Quiescent: workers are gone, so
    // steal() only aborts on its own races — retry until Empty.)
    std::uint32_t min_unexpanded = 0xffffffffu;
    if (cap_stopped) {
        for (std::size_t t = 0; t < threads; ++t) {
            for (;;) {
                std::uint64_t task;
                const auto got = deques[t]->steal(task);
                if (got == WorkDeque::Steal::Empty)
                    break;
                if (got == WorkDeque::Steal::Abort)
                    continue;
                min_unexpanded =
                    std::min(min_unexpanded,
                             store.depthAt(taskId(task)));
            }
            // Unflushed successors: their source (depth-1) was
            // expanded but the results were dropped, so that level
            // is not fully expanded either.
            for (const StateStore::BatchItem &item :
                 scratch[t].batch) {
                min_unexpanded = std::min(
                    min_unexpanded,
                    item.depth > 0 ? item.depth - 1 : 0);
            }
        }
    }

    // Atomic-free merge of the per-worker scratch: counters,
    // rule-fire profiles and violation candidates fold pairwise in
    // ceil(log2(threads)) rounds, each round's merges disjoint.
    treeReduce(
        scratch.data(), scratch.size(),
        pool ? &*pool : nullptr, [](WsScratch &into, WsScratch &from) {
            into.transitions += from.transitions;
            from.transitions = 0;
            into.slept += from.slept;
            from.slept = 0;
            for (std::size_t r = 0; r < from.ruleFires.size(); ++r) {
                into.ruleFires[r] += from.ruleFires[r];
                from.ruleFires[r] = 0;
            }
            for (std::size_t r = 0; r < from.ruleSlept.size(); ++r) {
                into.ruleSlept[r] += from.ruleSlept[r];
                from.ruleSlept[r] = 0;
            }
            into.candidates.insert(into.candidates.end(),
                                   from.candidates.begin(),
                                   from.candidates.end());
            from.candidates.clear();
        });
    WsScratch &merged = scratch[0];
    result.numTransitions = merged.transitions;
    result.sleptTransitions = merged.slept;
    for (std::size_t r = 0; r < merged.ruleFires.size(); ++r)
        result.ruleFireCounts[r] = merged.ruleFires[r];
    for (std::size_t r = 0; r < merged.ruleSlept.size(); ++r)
        result.ruleSleptCounts[r] = merged.ruleSlept[r];

    // Quiescent resolution: dedup the candidate log (re-expansions
    // re-observe candidates), then judge every survivor by its
    // converged producing level.
    std::vector<WsCandidate> &cands = merged.candidates;
    std::sort(cands.begin(), cands.end(), candidateIdLess);
    cands.erase(
        std::unique(cands.begin(), cands.end(), candidateIdEq),
        cands.end());

    bool violation_stopped = false;
    if (!cands.empty()) {
        auto producing_level = [&](const WsCandidate &c) {
            switch (c.kind) {
              case Violation::Kind::Deadlock:
                return store.depthAt(c.idx);
              case Violation::Kind::Overflow:
                return store.depthAt(c.edgeParent);
              default:
                return store.depthAt(c.idx) - 1;
            }
        };
        std::uint32_t l_star = producing_level(cands[0]);
        for (const WsCandidate &c : cands)
            l_star = std::min(l_star, producing_level(c));

        // Visible candidates: exactly those a BFS run (which stops
        // after fully expanding level L*) would have collected.
        std::vector<ResolvedCandidate> visible;
        for (const WsCandidate &c : cands) {
            if (producing_level(c) != l_star)
                continue;
            const std::uint32_t depth =
                c.kind == Violation::Kind::Deadlock
                    ? l_star
                    : l_star + 1;
            visible.push_back({c, depth});
        }
        const ResolvedCandidate best =
            *std::min_element(visible.begin(), visible.end());

        result.violationCount +=
            options.stopAtFirstViolation
                ? static_cast<std::uint64_t>(visible.size())
                : static_cast<std::uint64_t>(cands.size());
        if (!result.violation) {
            record(best.c.kind, best.c.conjunct, best.c.idx,
                   best.depth, best.c.edgeRule, best.c.edgeParent);
        }
        if (options.stopAtFirstViolation)
            violation_stopped = true;

        if (violation_stopped && !cap_stopped) {
            // Reproduce the BFS stop-at-level footprint from the
            // converged labels: BFS would have inserted every state
            // of depth <= L*+1 and stopped with diameter L*.
            result.numStates = store.countDepthAtMost(l_star + 1);
            result.maxDepth = l_star;
        }
    }

    if (!violation_stopped || cap_stopped) {
        result.numStates = store.size();
        result.maxDepth = store.maxDepthQuiescent();
    }
    result.probeCollisions = store.probeCollisions();
    result.completed = !cap_stopped && !violation_stopped;
    result.stopReason =
        cap_stopped ? governor.reason() : StopReason::None;
    if (cap_stopped) {
        result.deepestCompleteLevel =
            min_unexpanded == 0xffffffffu
                ? result.maxDepth
                : (min_unexpanded > 0 ? min_unexpanded - 1 : 0);
    } else {
        result.deepestCompleteLevel = result.maxDepth;
    }
    return finishRun(result);
}

} // namespace cxl
