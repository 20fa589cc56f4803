/**
 * @file
 * A single-threaded BFS walker over the program's public layer
 * functions, for timing each layer from outside.
 *
 * It calls what runBfs's worker loop calls, in the same order: read
 * the node (stateAt, or stateInto on a compact store), successorsInto
 * or successorsPor with canonicalise=false, canonicaliseTids,
 * deviceCanonical (symmetry only), hash, insertBatch once per 512
 * successors, firstFailure on each fresh state, the POR sleep-mask
 * resolution at the level barrier, and sealLevel.  Tracing is a
 * template switch, so the untraced instance carries no clock reads
 * and the difference between the two is the tracing overhead.
 *
 * Each BFS level is one span; each layer is one aggregated child
 * record of it.  Hot calls are timed in groups (all successors of a
 * node at once) to keep the clock off the per-successor path.
 */

#ifndef CXL_BENCH_WALKER_HH
#define CXL_BENCH_WALKER_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "checker/por.hh"
#include "checker/state_store.hh"
#include "invariants/invariant.hh"
#include "memory.hh"
#include "protocol/rules.hh"
#include "protocol/scenario.hh"
#include "trace.hh"

namespace cxl::bench
{

/** The layers the walker times, in call order. */
enum WalkerLayer : std::size_t {
    kRead,     ///< StateStore::stateAt / stateInto
    kSucc,     ///< RuleSet::successorsInto / successorsPor
    kTids,     ///< SystemState::canonicaliseTids
    kDevCanon, ///< SystemState::deviceCanonical
    kHash,     ///< SystemState::hash
    kInsert,   ///< StateStore::insertBatch
    kEval,     ///< InvariantSet::firstFailure
    kPorMask,  ///< PorContext::independentOf / remapByKey
    kSeal,     ///< StateStore::sealLevel
    kNumWalkerLayers,
};

inline const char *
walkerLayerName(std::size_t layer)
{
    static const char *const names[kNumWalkerLayers] = {
        "checker.store.read", "protocol.succ",
        "protocol.tids",      "protocol.devcanon",
        "protocol.hash",      "checker.store.insert",
        "invariants.eval",    "checker.por.mask",
        "checker.store.seal",
    };
    return names[layer];
}

struct WalkerConfig {
    const RuleSet *rules = nullptr;
    const InvariantSet *invariants = nullptr;
    const Scenario *scenario = nullptr;
    bool symmetry = false;
    bool compact = false;
    bool por = false;
    /** Stop before expanding a level once more than this many states
     * are known (0 = run to completion). */
    std::uint64_t stopAfterStates = 0;
};

struct WalkerResult {
    std::uint64_t states = 0;
    std::uint64_t transitions = 0;
    std::uint64_t slept = 0;
    std::uint32_t diameter = 0;
    bool completed = false;
    /** No invariant failed and no channel overflowed. */
    bool holds = true;
    /** New states per BFS depth. */
    std::vector<std::uint64_t> levelStates;

    double wallSeconds = 0;
    std::uint64_t expanded = 0; ///< nodes read and expanded
    std::uint64_t moved = 0;    ///< successors deviceCanonical permuted
    std::uint64_t attempted = 0; ///< items offered to insertBatch
    std::uint64_t fresh = 0;    ///< items insertBatch inserted
    std::uint64_t maskEdges = 0;
    std::uint64_t memGrowthBytes = 0;
    std::array<LayerAcc, kNumWalkerLayers> layers{};
};

namespace detail
{

/** One logged POR edge, resolved at the barrier (as in runBfs). */
struct MaskEdge {
    std::uint32_t id;
    std::uint32_t nodePos;
    std::uint16_t rule;
    std::uint8_t permKey;
};

template <bool Traced>
inline std::int64_t
stamp()
{
    if constexpr (Traced)
        return nowNs();
    else
        return 0;
}

} // namespace detail

/**
 * Run the walker.  With @p Traced, each level becomes a span in
 * @p trace (under @p parentSpan) and per-layer times accumulate.
 * wallSeconds ends before the store is torn down.
 */
template <bool Traced>
WalkerResult
runWalker(const WalkerConfig &cfg, Trace *trace = nullptr,
          std::uint32_t parentSpan = 0)
{
    using detail::stamp;
    constexpr std::size_t kFlushBatch = 512;

    WalkerResult res;
    const std::int64_t wall0 = nowNs();
    const MemSample mem0 = sampleMemory();

    const RuleSet &rules = *cfg.rules;
    const Scenario &scenario = *cfg.scenario;
    const Context ctx{&scenario};

    std::optional<PorContext> por;
    if (cfg.por)
        por.emplace(rules, cfg.symmetry, true);

    StateStore store(StoreConfig{
        1 << 16, cfg.compact ? StoreMode::Compact : StoreMode::Full,
        StoreBackend::InRam, std::string(), 0});

    SystemState init = scenario.initial;
    init.canonicaliseTids();
    if (cfg.symmetry)
        init = init.deviceCanonical(true, true);
    const std::uint32_t init_id =
        store.insert(init, StateStore::kNoParent, 0, 0).first;
    if (cfg.invariants->firstFailure(init, ctx))
        res.holds = false;
    res.levelStates.push_back(1);

    std::vector<std::uint32_t> frontier{init_id}, next;
    std::vector<RuleMask> masks, nextMasks;
    if (cfg.por)
        masks.emplace_back();
    const RuleMask allRules = RuleMask::firstN(rules.rules().size());
    store.sealLevel();

    std::vector<RuleSet::Successor> succs;
    std::vector<std::uint16_t> sleptRules;
    std::vector<std::uint8_t> permKeys;
    std::vector<std::uint64_t> hashes;
    std::vector<StateStore::BatchItem> batch;
    std::vector<std::uint32_t> batchNode;
    std::vector<std::uint8_t> batchPerm;
    std::vector<detail::MaskEdge> edges;
    SystemState decoded;

    std::array<LayerAcc, kNumWalkerLayers> level{};
    std::uint32_t depth = 0;

    // Back-to-back layer intervals share their boundary stamp, so a
    // node costs one clock read per layer and no time falls between.
    auto lap = [&](std::size_t layer, std::uint64_t items,
                   std::int64_t &t) {
        if constexpr (Traced) {
            const std::int64_t now = nowNs();
            level[layer].add(items, now - t);
            t = now;
        }
    };

    auto flush = [&] {
        if (batch.empty())
            return;
        std::int64_t t = stamp<Traced>();
        store.insertBatch(batch.data(), batch.size());
        lap(kInsert, batch.size(), t);
        std::uint64_t fresh = 0;
        for (const StateStore::BatchItem &item : batch) {
            if (!item.inserted)
                continue;
            ++fresh;
            if (cfg.invariants->firstFailure(item.state, ctx))
                res.holds = false;
        }
        lap(kEval, fresh, t);
        res.attempted += batch.size();
        res.fresh += fresh;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            if (batch[i].inserted)
                next.push_back(batch[i].id);
            if (cfg.por)
                edges.push_back({batch[i].id, batchNode[i], batch[i].rule,
                                 batchPerm[i]});
        }
        batch.clear();
        batchNode.clear();
        batchPerm.clear();
    };

    while (!frontier.empty()) {
        if (cfg.stopAfterStates != 0 && store.size() > cfg.stopAfterStates)
            break;
        std::uint32_t span = 0;
        if constexpr (Traced) {
            span = trace->open("level", parentSpan);
            level = {};
        }

        for (std::size_t i = 0; i < frontier.size(); ++i) {
            std::int64_t t = stamp<Traced>();
            const SystemState *node;
            if (cfg.compact) {
                store.stateInto(frontier[i], decoded);
                node = &decoded;
            } else {
                node = &store.stateAt(frontier[i]);
            }
            lap(kRead, 1, t);

            if (cfg.por)
                rules.successorsPor(*node, scenario, false,
                                    masks[i].words.data(), succs,
                                    sleptRules);
            else
                rules.successorsInto(*node, scenario, false, succs);
            lap(kSucc, succs.size(), t);

            for (RuleSet::Successor &s : succs)
                s.state.canonicaliseTids();
            lap(kTids, succs.size(), t);

            permKeys.resize(succs.size());
            if (cfg.symmetry) {
                for (std::size_t k = 0; k < succs.size(); ++k) {
                    std::uint8_t perm[kMaxDevices];
                    succs[k].state =
                        succs[k].state.deviceCanonical(true, true, perm);
                    permKeys[k] =
                        PorContext::permKey(perm, rules.numDevices());
                }
                lap(kDevCanon, succs.size(), t);
            }

            hashes.resize(succs.size());
            for (std::size_t k = 0; k < succs.size(); ++k)
                hashes[k] = succs[k].state.hash();
            lap(kHash, succs.size(), t);

            ++res.expanded;
            res.transitions += succs.size();
            if (cfg.por)
                res.slept += sleptRules.size();
            if (!cfg.symmetry)
                permKeys.assign(succs.size(), PorContext::kIdentityPermKey);
            for (std::uint8_t key : permKeys)
                res.moved += key != PorContext::kIdentityPermKey;

            for (std::size_t k = 0; k < succs.size(); ++k) {
                if (succs[k].overflow)
                    res.holds = false;
                StateStore::BatchItem item;
                item.state = succs[k].state;
                item.hash = hashes[k];
                item.parent = frontier[i];
                item.depth = depth + 1;
                item.rule = succs[k].rule->id;
                batch.push_back(item);
                batchNode.push_back(static_cast<std::uint32_t>(i));
                batchPerm.push_back(permKeys[k]);
                if (batch.size() >= kFlushBatch)
                    flush();
            }
        }
        flush();

        std::int64_t t = stamp<Traced>();
        if (cfg.por) {
            // The engine's barrier rule: a state new at this level
            // sleeps the intersection of every same-level edge's
            // (node sleep ∪ rules fired before it) ∩ indep(rule),
            // relabelled through the edge's canonicalising permutation.
            std::sort(next.begin(), next.end());
            nextMasks.assign(next.size(), allRules);
            std::size_t j = 0;
            while (j < edges.size()) {
                const std::uint32_t pos = edges[j].nodePos;
                RuleMask acc = masks[pos];
                for (; j < edges.size() && edges[j].nodePos == pos; ++j) {
                    const detail::MaskEdge &e = edges[j];
                    if (store.depthAt(e.id) == depth + 1) {
                        RuleMask m = acc & por->independentOf(e.rule);
                        if (e.permKey != PorContext::kIdentityPermKey &&
                            !m.none())
                            m = por->remapByKey(m, e.permKey);
                        const auto it =
                            std::lower_bound(next.begin(), next.end(), e.id);
                        nextMasks[static_cast<std::size_t>(
                            it - next.begin())] &= m;
                    }
                    acc.set(e.rule);
                }
            }
            lap(kPorMask, edges.size(), t);
            res.maskEdges += edges.size();
            edges.clear();
        }

        store.sealLevel();
        lap(kSeal, 1, t);
        if constexpr (Traced) {
            trace->close(span);
            Span &s = trace->at(span);
            s.attrs = {{"depth", depth},
                       {"frontier", frontier.size()},
                       {"new_states", next.size()}};
            for (std::size_t l = 0; l < kNumWalkerLayers; ++l) {
                if (level[l].calls != 0)
                    s.children.push_back({walkerLayerName(l), level[l]});
                res.layers[l] += level[l];
            }
        }

        if (!next.empty())
            res.levelStates.push_back(next.size());
        frontier.swap(next);
        next.clear();
        masks.swap(nextMasks);
        ++depth;
    }

    res.completed = frontier.empty();
    res.states = store.size();
    res.diameter = static_cast<std::uint32_t>(res.levelStates.size() - 1);
    const MemSample mem1 = sampleMemory();
    res.memGrowthBytes =
        mem1.total() > mem0.total() ? mem1.total() - mem0.total() : 0;
    res.wallSeconds = secondsSince(wall0);
    return res;
}

} // namespace cxl::bench

#endif // CXL_BENCH_WALKER_HH
