#include "checker/explorer.hh"

#include <algorithm>
#include <atomic>

#include "checker/expand.hh"

namespace cxl
{
namespace
{

/** Per-worker scratch of the level schedule. */
struct BfsScratch : WorkerScratch {
    std::vector<std::uint32_t> next; ///< states this worker inserted
    /** Every generated edge this level (POR), resolved into sleep
     * masks at the barrier (same-level edges into one state merge by
     * intersection; deterministic for any thread count). */
    std::vector<PorEdge> maskEdges;
};

} // namespace

std::string
Violation::describe() const
{
    std::string txt;
    switch (kind) {
      case Kind::Conjunct:
        txt = "conjunct '" + conjunctName + "' (family " +
              conjunctFamily + ") violated";
        break;
      case Kind::Overflow:
        txt = "channel overflow";
        if (!overflowRule.empty())
            txt += " (rule " + overflowRule + ")";
        break;
      case Kind::Deadlock:
        txt = "deadlock before program completion";
        break;
    }
    txt += " at depth " + std::to_string(depth);
    return txt;
}

Explorer::Explorer(const RuleSet &rules, const Scenario &scenario,
                   const InvariantSet &invariants)
    : rules_(rules), scenario_(scenario), invariants_(invariants)
{
}

ExploreResult
Explorer::run(const ExploreOptions &options)
{
    ExpandKernel k(rules_, scenario_, invariants_, options);
    if (k.insertInitial())
        return k.finish();
    if (options.schedule == Schedule::WorkSteal)
        runWorkSteal(k);
    else
        runBfs(k);
    return k.finish();
}

void
runBfs(ExpandKernel &k)
{
    ExploreResult &result = k.result;

    // The frontier holds packed store ids only; workers decode each
    // state from the store into their scratch, so states are never
    // copied into per-level queues.  Under POR a parallel vector
    // carries each frontier state's sleep mask (the initial state
    // sleeps nothing).
    std::vector<std::uint32_t> frontier{k.initIdx}, next_frontier;
    std::vector<RuleMask> frontier_masks, next_masks;
    if (k.por)
        frontier_masks.emplace_back();
    k.store.sealLevel(); // establish the level-0 boundary

    std::vector<BfsScratch> scratch = k.makeScratch<BfsScratch>();

    std::uint32_t depth = 0;

    while (!frontier.empty()) {
        result.maxDepth = std::max(result.maxDepth, depth);
        if (depth >= k.opt.maxDepth) {
            // Depth-capped states count toward the diameter but are
            // not expanded; the walk still counts as completed.
            frontier.clear();
            break;
        }

        // Budgets can expire between levels too (tiny levels flush
        // rarely), and a pre-cancelled token must stop before any
        // expansion.
        k.governor.poll();
        k.progress.tick(k.store.size(), 0, depth);
        if (k.governor.stopped())
            break;

        std::atomic<std::size_t> cursor{0};

        // Claim granularity: fine enough that a level spreads over
        // all workers, coarse enough that the claim counter is not a
        // contention point (per-state work is microseconds).
        const std::size_t grain = std::max<std::size_t>(
            1, std::min<std::size_t>(
                   64, frontier.size() / (8 * k.threads)));

        // Every edge is logged, including edges landing on
        // already-known states: if the target turns out to sit in the
        // level being built, the barrier intersects all its incoming
        // masks (breadcrumb columns cannot be read here — peers are
        // still inserting).
        auto flush = [&](BfsScratch &ws) {
            k.flush(ws, [&] {
                ws.maskEdges.insert(ws.maskEdges.end(), ws.edges.begin(),
                                    ws.edges.end());
                for (const StateStore::BatchItem &item : ws.batch) {
                    if (item.inserted)
                        ws.next.push_back(item.id);
                }
            });
        };

        auto work = [&](std::size_t t) {
            BfsScratch &ws = scratch[t];
            for (;;) {
                if (k.governor.stopped())
                    return;
                const std::size_t begin =
                    cursor.fetch_add(grain, std::memory_order_relaxed);
                if (begin >= frontier.size())
                    return;
                const std::size_t end =
                    std::min(begin + grain, frontier.size());
                for (std::size_t i = begin; i < end; ++i) {
                    if (k.expand(ws, frontier[i], depth,
                                 k.por ? &frontier_masks[i] : nullptr,
                                 static_cast<std::uint32_t>(i))) {
                        flush(ws);
                        if (k.governor.stopped())
                            return;
                    }
                }
                flush(ws);
            }
        };

        // Small levels are expanded inline: the result is identical
        // by construction and the dispatch overhead is skipped.
        k.runWorkers(scratch,
                     k.threads > 1 && frontier.size() >= 2 * k.threads,
                     work);

        // Depth barrier: merge per-worker scratch into the result.
        next_frontier.clear();
        for (BfsScratch &ws : scratch) {
            next_frontier.insert(next_frontier.end(), ws.next.begin(),
                                 ws.next.end());
            ws.next.clear();
        }
        k.mergeWorkers(scratch);
        std::vector<Candidate> &cands = scratch[0].candidates;
        result.violationCount += cands.size();
        if (!cands.empty() && !result.violation) // store quiescent here
            k.record(*std::ranges::min_element(cands, candidateLess));
        cands.clear();
        if (k.violationStopped() || k.governor.stopped())
            break;

        if (k.por) {
            // Resolve the next level's sleep masks from the edge
            // logs: walk each worker's log (edges of one node are
            // contiguous, in fired order), rebuild the accumulator
            // (node sleep ∪ fired-so-far), and intersect each
            // same-level edge's contribution into its target — a
            // state inserted this level sleeps the intersection over
            // every same-level edge into it (intersection is
            // order-free, so the result is thread-count-independent).
            // Edges into older states carry no information forward.
            std::sort(next_frontier.begin(), next_frontier.end());
            next_masks.assign(next_frontier.size(),
                              RuleMask::firstN(k.rules.rules().size()));
            for (BfsScratch &ws : scratch) {
                k.walkEdges(
                    ws.maskEdges,
                    [&](std::uint32_t pos) { return frontier_masks[pos]; },
                    [&](const PorEdge &e, const RuleMask &acc) {
                        if (k.store.depthAt(e.id) != depth + 1)
                            return;
                        const auto it = std::lower_bound(
                            next_frontier.begin(), next_frontier.end(),
                            e.id);
                        next_masks[static_cast<std::size_t>(
                            it - next_frontier.begin())] &=
                            k.sleepContribution(acc, e);
                    });
                ws.maskEdges.clear();
            }
        }

        // Quiescent barrier hook: releases (in-RAM compact) or
        // unmaps (mmap backends) the state bytes of the level whose
        // expansion just finished.
        k.store.sealLevel();
        frontier.swap(next_frontier);
        frontier_masks.swap(next_masks);
        ++depth;
    }

    result.numStates = k.store.size();
    // Every level is drained before the barrier, so only a governed
    // stop leaves the level being expanded unfinished.
    k.close(k.governor.stopped() ? depth : kNoDepth);
}

} // namespace cxl
