/**
 * @file
 * Work-stealing schedule of the explicit-state explorer
 * (Schedule::WorkSteal): the depth barrier of runBfs replaced by
 * per-worker Chase-Lev deques (checker/workqueue.hh) and a
 * label-correcting shortest-path discipline, on the expansion kernel
 * of checker/expand.hh.
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
 *    them is picked by candidateLess, the key runBfs uses, the
 *    reported state count is |{depth <= L* + 1}| (exactly the
 *    states a BFS run would have inserted by the end of level L*'s
 *    expansion), and the reported diameter is L*.  A monotonically
 *    shrinking expand limit (ExpandKernel::candidateLevel, the min
 *    over recorded candidates' pl estimates, each an upper bound of
 *    its final pl) prunes work beyond L* without ever pruning work at
 *    or below it; transient over-expansion before the limit tightens
 *    is excluded by the end-of-run depth filter.
 *
 *  - Termination.  A global pending-task counter: incremented
 *    *before* a worker publishes new tasks to its deque, decremented
 *    only after a claimed task's successors have been flushed (or
 *    the task was skipped as stale/pruned).  pending == 0 therefore
 *    implies no queued and no in-flight task anywhere — the
 *    quiescence the resolution step needs.
 *
 *  - Governed stops.  Work left behind — tasks still queued, and
 *    successors staged or dropped uninserted by a cap or a full shard
 *    (WorkerScratch::droppedSourceDepth) — marks its level as not
 *    fully expanded, so deepestCompleteLevel is one below the
 *    shallowest such level.
 *
 *  - POR.  Without levels there is no same-level filter; instead
 *    every generated edge's sleep contribution
 *    (ExpandKernel::sleepEdges, exactly the runBfs formula) is
 *    intersected into the kernel's per-state SleepTable, and a state
 *    whose mask shrinks after it was enqueued is re-enqueued
 *    (Godefroid's stateful sleep-set revisit rule).  Contributions
 *    are monotone in the source mask, so the chaotic iteration
 *    converges to a schedule-independent greatest fixpoint with
 *    masks no larger than the BFS ones: the engine fires a superset
 *    of the BFS-POR edges — pruning strictly less, never more — so
 *    state coverage, minimal depths and verdicts are untouched,
 *    while transition/slept counts become schedule-dependent.
 *
 *  - Counters.  Per-worker scratch is merged once, at termination,
 *    by the kernel's atomic-free reduction tree — no per-event
 *    atomics, no barrier-time serial merge.
 *
 * The store needs no barrier: its shards grow at insert time here
 * (the BFS schedule grows them ahead of each level instead).  Traces
 * do not depend on the store: both schedules replay the same
 * rule-id-least shortest path (ExpandKernel::witnessPath).
 */

#include "checker/explorer.hh"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <tuple>
#include <vector>

#include "checker/expand.hh"
#include "checker/workqueue.hh"

namespace cxl
{
namespace
{

// A task is (state id, depth at enqueue time) packed into the
// deque's u64 payload: the id in the low half, the depth above it.
std::uint64_t
packTask(std::uint32_t id, std::uint32_t depth)
{
    return (static_cast<std::uint64_t>(depth) << 32) | id;
}

/** Per-worker scratch of the work-stealing schedule. */
struct WsScratch : WorkerScratch {
    std::vector<std::uint64_t> pushes; ///< staged tasks of one flush
    std::uint32_t tasksDone = 0; ///< expanded, successors unflushed
};

} // namespace

void
runWorkSteal(ExpandKernel &k)
{
    std::vector<WsScratch> scratch = k.makeScratch<WsScratch>();
    const auto deques = std::make_unique<WorkDeque[]>(k.threads);

    // Outstanding tasks (queued + in-flight).  Incremented *before* a
    // push is visible, decremented only after the claimed task's
    // successors were flushed — so 0 really means quiescent.
    std::atomic<std::int64_t> pending{0};

    // Flush a worker's staged successors, turning fresh and
    // relabelled states (and, under POR, states whose sleep mask
    // shrank) into tasks; then publish the tasks and retire the ones
    // whose successors the flush carried.
    auto flush = [&](std::size_t t) {
        WsScratch &ws = scratch[t];
        k.flush(ws, [&] {
            for (const StateStore::BatchItem &item : ws.batch) {
                // Shorter path to a known state: its depth label just
                // dropped, so it must be re-expanded for the labels
                // of its successors to converge too.
                if (item.inserted || item.improved)
                    ws.pushes.push_back(packTask(item.id, item.depth));
            }
            if (!k.sleep)
                return;
            // The BFS flush's sleep walk minus its level filter, which
            // no longer exists: every edge contributes (prune-only, see
            // the file comment).
            k.sleepEdges(ws, [&](const PorEdge &e, const RuleMask &m) {
                // Godefroid revisit: the mask shrank, so rules it
                // slept may need firing now.
                if (k.sleep->intersect(e.id, m))
                    ws.pushes.push_back(
                        packTask(e.id, k.store.depthAt(e.id)));
            });
        });

        std::sort(ws.pushes.begin(), ws.pushes.end());
        ws.pushes.erase(std::unique(ws.pushes.begin(), ws.pushes.end()),
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
            pending.fetch_add(static_cast<std::int64_t>(ws.pushes.size()),
                              std::memory_order_acq_rel);
            for (std::uint64_t task : ws.pushes)
                deques[t].push(task);
            ws.pushes.clear();
        }
        if (ws.tasksDone != 0) {
            pending.fetch_sub(ws.tasksDone, std::memory_order_acq_rel);
            ws.tasksDone = 0;
        }
    };

    auto worker = [&](std::size_t t) {
        WsScratch &ws = scratch[t];
        for (;;) {
            if (k.governor.stopped())
                return;
            // The owner drains its own deque from the *steal* (FIFO)
            // end rather than the LIFO end: tasks are flushed in
            // depth order, so FIFO consumption keeps the processing
            // order approximately breadth-first — the difference
            // between a handful of label-correcting re-expansions and
            // a DFS-shaped walk that relabels (and re-expands) most
            // states many times over.  One CAS per task, amortised
            // over a full successor expansion, is noise; Abort just
            // means a thief raced us, so retry.
            std::uint64_t task;
            WorkDeque::Steal got;
            while ((got = deques[t].steal(task)) ==
                   WorkDeque::Steal::Abort) {
            }
            if (got != WorkDeque::Steal::Success) {
                // Publish everything before going thieving, so the
                // work (and its pending count) is visible to peers
                // and the quiescence check below is conclusive.
                flush(t);
                for (std::size_t v = 1;
                     v < k.threads && got != WorkDeque::Steal::Success;
                     ++v) {
                    got = deques[(t + v) % k.threads].steal(task);
                }
                if (got != WorkDeque::Steal::Success) {
                    if (pending.load(std::memory_order_acquire) == 0)
                        return;
                    std::this_thread::yield();
                    continue;
                }
            }
            const auto id = static_cast<std::uint32_t>(task);
            const auto depth = static_cast<std::uint32_t>(task >> 32);
            // Stale (a shorter path won the relabel race — its own
            // re-enqueue carries the re-expansion) or pruned beyond
            // the expand limit (the depth cap, or the shallowest
            // candidate's producing level): retire without expanding.
            if (k.store.depthAt(id) < depth || depth >= k.opt.maxDepth ||
                depth > k.candidateLevel.load(std::memory_order_relaxed)) {
                pending.fetch_sub(1, std::memory_order_acq_rel);
                continue;
            }
            ++ws.tasksDone;
            if (k.expand(ws, id, depth))
                flush(t);
        }
    };

    // Seed and run to quiescence (or to the first tripped budget —
    // the pre-seed poll catches an already-cancelled token or an
    // already-exceeded ceiling before any expansion).
    k.governor.poll();
    pending.store(1, std::memory_order_relaxed);
    deques[0].push(packTask(k.initIdx, 0));
    k.runWorkers(scratch, k.threads > 1, worker);
    const bool governed = k.governor.stopped();

    // On a governed stop the deques still hold unexpanded tasks and
    // the scratch batches successors that never reached the store;
    // with the ones dropped earlier, they mark the shallowest level
    // not fully expanded.  (Quiescent: the workers are gone, so this
    // thread may drain the deques as their owner.)
    std::uint32_t unexpanded = kNoDepth;
    for (std::size_t t = 0; governed && t < k.threads; ++t) {
        for (std::uint64_t task; deques[t].pop(task);) {
            unexpanded = std::min(
                unexpanded, k.store.depthAt(static_cast<std::uint32_t>(task)));
        }
        k.dropBatch(scratch[t], 0);
        unexpanded = std::min(unexpanded, scratch[t].droppedSourceDepth);
    }

    k.mergeWorkers(scratch);

    // Quiescent resolution: dedup the candidate log (re-expansions
    // re-observe candidates).
    std::vector<Candidate> &cands = scratch[0].candidates;
    auto id = [](const Candidate &c) {
        return std::tie(c.kind, c.idx, c.edgeParent, c.edgeRule);
    };
    std::ranges::sort(cands, {}, id);
    const auto dups = std::ranges::unique(cands, {}, id);
    cands.erase(dups.begin(), dups.end());

    // Judge every survivor by its converged producing level pl (see
    // the file comment).  Visible candidates are exactly those a BFS
    // run would have collected, at the depths it would have recorded.
    std::uint32_t l_star = kNoDepth;
    std::uint64_t visible = 0;
    std::optional<Candidate> best;
    for (Candidate c : cands) {
        const bool deadlock = c.kind == Violation::Kind::Deadlock;
        const std::uint32_t pl =
            c.kind == Violation::Kind::Overflow
                ? k.store.depthAt(c.edgeParent)
                : k.store.depthAt(c.idx) - (deadlock ? 0 : 1);
        if (pl > l_star)
            continue;
        if (pl < l_star) {
            l_star = pl;
            visible = 0;
            best.reset();
        }
        ++visible;
        c.depth = deadlock ? pl : pl + 1;
        if (!best || candidateLess(c, *best))
            best = c;
    }
    if (best) {
        k.result.violationCount +=
            k.opt.stopAtFirstViolation ? visible : cands.size();
        if (!k.result.violation)
            k.record(*best);
    }
    if (k.violationStopped() && !governed) {
        // Reproduce the BFS stop-at-level footprint from the
        // converged labels: BFS would have inserted every state of
        // depth <= L*+1 and stopped with diameter L*.
        k.result.numStates = k.store.countDepthAtMost(l_star + 1);
        k.result.maxDepth = l_star;
    } else {
        k.result.numStates = k.store.size();
        k.result.maxDepth = k.store.maxDepthQuiescent();
    }
    k.close(unexpanded);
}

} // namespace cxl
