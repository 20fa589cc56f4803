#include "checker/explorer.hh"

#include <algorithm>
#include <atomic>
#include <thread>

#include "checker/expand.hh"

namespace cxl
{
namespace
{

/** Per-worker scratch of the level schedule. */
struct BfsScratch : WorkerScratch {
    std::vector<std::uint32_t> next; ///< states this worker inserted
};

} // namespace

std::optional<StoreKind>
storeKindFromWord(const std::string &word)
{
    if (word == "ram")
        return StoreKind::InRam;
    if (word == "mmap")
        return StoreKind::Mmap;
    return std::nullopt;
}

StoreConfig
storeConfigOf(StoreKind kind, const std::string &dir,
              std::uint64_t capacity)
{
    return StoreConfig{
        1 << 16, StoreMode::Full,
        storeKindMmap(kind) ? StoreBackend::Mmap : StoreBackend::InRam,
        dir, capacity};
}

ResolvedEngine
resolveEngine(const EngineOptions &options, const Scenario &scenario)
{
    ResolvedEngine r;
    r.threads = std::min<std::size_t>(
        options.threads != 0
            ? options.threads
            : std::max(1u, std::thread::hardware_concurrency()),
        kMaxWorkers);
    r.symmetry = options.symmetry == SymmetryMode::On ||
                 (options.symmetry == SymmetryMode::Auto &&
                  scenario.freeRun && scenario.numDevices() > 2);
    if (options.maxStates != 0)
        r.maxStates = options.maxStates;
    return r;
}

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
    const std::size_t threads = k.resolved.threads;

    // The frontier holds packed store ids only; workers decode each
    // state from the store into their scratch, so states are never
    // copied into per-level queues.
    std::vector<std::uint32_t> frontier{k.initIdx}, next_frontier;

    std::vector<BfsScratch> scratch = k.makeScratch<BfsScratch>();

    std::uint32_t depth = 0;

    while (!frontier.empty()) {
        result.maxDepth = std::max(result.maxDepth, depth);

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
                   64, frontier.size() / (8 * threads)));

        // Under POR every edge into the level being built intersects
        // its contribution into the target's sleep mask, whichever
        // worker inserted the target: the mask a state of depth + 1
        // sleeps is the intersection over all its same-level incoming
        // edges — order-free, so thread-count-independent — and final
        // at the barrier, before any of them is expanded.  Edges into
        // older states carry nothing forward.  A target's depth is
        // settled once its insert returns (BFS never relabels).
        auto flush = [&](BfsScratch &ws) {
            k.flush(ws, [&] {
                for (const StateStore::BatchItem &item : ws.batch) {
                    if (item.inserted)
                        ws.next.push_back(item.id);
                }
                if (!k.sleep)
                    return;
                k.sleepEdges(ws, [&](const PorEdge &e, const RuleMask &m) {
                    if (k.store.depthAt(e.id) == depth + 1)
                        k.sleep->intersect(e.id, m);
                });
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
                    if (k.expand(ws, frontier[i], depth)) {
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
                     threads > 1 && frontier.size() >= 2 * threads,
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

        // Grow the shards the next level will fill now, in parallel,
        // rather than one at a time under their locks mid-level.
        const bool parallel = threads > 1;
        k.runWorkers(scratch, parallel, [&](std::size_t t) {
            for (std::size_t s = t; s < StateStore::kNumShards;
                 s += parallel ? threads : 1)
                k.store.growForNextLevel(static_cast<std::uint32_t>(s));
        });
        frontier.swap(next_frontier);
        ++depth;
    }

    result.numStates = k.store.size();
    // Every level is drained before the barrier, so only a governed
    // stop leaves the level being expanded unfinished.
    k.close(k.governor.stopped() ? depth : kNoDepth);
}

} // namespace cxl
