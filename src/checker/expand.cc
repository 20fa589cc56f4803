#include "checker/expand.hh"

#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

namespace cxl
{
namespace
{

/** The representative the store keeps for @p s: tids relabelled,
 * then under symmetry the bytewise-least member of the state's
 * device-permutation orbit (SystemState::deviceCanonical). */
void
canonicalise(SystemState &s, bool tids, bool symmetry)
{
    if (tids)
        s.canonicaliseTids();
    if (symmetry)
        s = s.deviceCanonical(tids, tids);
}

} // namespace

std::vector<TraceStep>
replayTrace(const RuleSet &rules, const Scenario &scenario,
            const std::vector<std::uint16_t> &path,
            bool canonicaliseTids, bool symmetryReduction)
{
    const Context ctx{&scenario};
    std::vector<TraceStep> trace(path.size() + 1);
    trace[0].state = scenario.initial;
    canonicalise(trace[0].state, canonicaliseTids, symmetryReduction);
    for (std::size_t i = 0; i < path.size(); ++i) {
        const Rule &rule = rules.rules()[path[i]];
        SystemState &state = trace[i + 1].state;
        state = trace[i].state;
        assert(rule.guard(state, ctx) && "path rule not enabled");
        // An overflowing apply still yields the explored successor.
        (void)rule.apply(state, ctx);
        canonicalise(state, canonicaliseTids, symmetryReduction);
        trace[i + 1].ruleName = rule.name();
    }
    return trace;
}

SleepTable::SleepTable(std::size_t num_rules)
    : all_(RuleMask::firstN(num_rules))
{
}

RuleMask
SleepTable::maskOf(std::uint32_t handle) const
{
    if (handle == 0)
        return all_;
    RuleMask m;
    std::memcpy(m.words.data(), masks_.at(handle - 1), sizeof m.words);
    return m;
}

RuleMask
SleepTable::get(std::uint32_t id)
{
    Shard &s = shards_[StateStore::shardOf(id)];
    const std::uint32_t off = id & StateStore::kOffsetMask;
    std::uint32_t handle = 0;
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        const std::uint32_t chunk = off >> kChunkBits;
        // A slot whose chunk was never touched still holds handle 0.
        if (chunk < s.chunks.size())
            handle = s.chunks[chunk][off & ((1u << kChunkBits) - 1)];
    }
    return maskOf(handle);
}

void
SleepTable::intersect(std::uint32_t id, const RuleMask &m)
{
    Shard &s = shards_[StateStore::shardOf(id)];
    const std::uint32_t off = id & StateStore::kOffsetMask;
    std::lock_guard<std::mutex> lock(s.mutex);
    const std::uint32_t chunk = off >> kChunkBits;
    while (chunk >= s.chunks.size()) {
        s.chunks.push_back(
            std::make_unique<std::uint32_t[]>(1u << kChunkBits));
    }
    std::uint32_t &handle =
        s.chunks[chunk][off & ((1u << kChunkBits) - 1)];
    const RuleMask cur = maskOf(handle);
    const RuleMask next = cur & m;
    if (next == cur)
        return;
    // A shrink never yields all rules, so handle 0 stays unambiguous.
    handle = masks_.intern(next.words.data()) + 1;
}

ExpandKernel::ExpandKernel(const RuleSet &rules_,
                           const Scenario &scenario_,
                           const InvariantSet &invariants_,
                           const ExploreOptions &options)
    : rules(rules_), scenario(scenario_), invariants(invariants_),
      opt(options), resolved(resolveEngine(options, scenario_)),
      ctx{&scenario_}, start(std::chrono::steady_clock::now()),
      store(storeConfigOf(options.store, options.storeDir,
                          options.storeCapacity)),
      governor({options.maxSeconds, options.maxRssBytes,
                options.cancel}),
      progress(options.progress, options.progressIntervalSeconds),
      softCap(resolved.maxStates > resolved.threads * kFlushBatch
                  ? resolved.maxStates - resolved.threads * kFlushBatch
                  : 0)
{
    result.ruleFireCounts.assign(rules.rules().size(), 0);
    result.ruleSleptCounts.assign(rules.rules().size(), 0);
    // Sleep-set reduction context: the pairwise independence relation
    // from the rules' static footprints and, under symmetry, the
    // per-permutation rule remap tables.  Throws when the rule set
    // exceeds the POR engine's mask width.
    if (opt.por) {
        por.emplace(rules, resolved.symmetry);
        sleep.emplace(rules.rules().size());
    }
    if (opt.expectedStates != 0)
        store.reserveStates(opt.expectedStates);
}

bool
ExpandKernel::insertInitial()
{
    SystemState init = scenario.initial;
    canonicalise(init, true, resolved.symmetry);
    initIdx = store.insert(init, 0).first;
    if (sleep)
        sleep->intersect(initIdx, RuleMask{}); // sleeps nothing
    if (!opt.checkInvariants)
        return false;
    const Conjunct *bad = invariants.firstFailure(init, ctx);
    if (!bad)
        return false;
    ++result.violationCount;
    record({Violation::Kind::Conjunct, bad, initIdx, 0, init.hash()});
    result.numStates = store.size();
    return opt.stopAtFirstViolation;
}

bool
ExpandKernel::expand(WorkerScratch &ws, std::uint32_t idx,
                     std::uint32_t depth)
{
    store.stateInto(idx, ws.node);
    // Under POR the node's edges are tagged with its mask's slot.
    const auto slot = static_cast<std::uint32_t>(ws.nodeMasks.size());
    if (sleep) {
        ws.nodeMasks.push_back(sleep->get(idx));
        rules.successorsPor(ws.node, scenario, true,
                            ws.nodeMasks.back().words.data(), ws.succs,
                            ws.sleptRules);
        for (std::uint16_t r : ws.sleptRules)
            ++ws.ruleSlept[r];
    } else {
        rules.successorsInto(ws.node, scenario, true, ws.succs);
    }

    // Deadlock = no *enabled* rule; slept rules are enabled, merely
    // not fired from here (sleptRules stays empty without POR).
    if (ws.succs.empty() && ws.sleptRules.empty() &&
        opt.checkDeadlock && !scenario.freeRun &&
        !scenario.finished(ws.node)) {
        ws.candidates.push_back({Violation::Kind::Deadlock, nullptr, idx,
                                 depth, ws.node.hash()});
    }

    // The source state's hash is only needed to order racing overflow
    // edges; computed at most once per node, and only for mutated
    // models.
    std::optional<std::uint64_t> node_hash;

    for (RuleSet::Successor &succ : ws.succs) {
        ++ws.ruleFires[succ.rule->id];
        // Under POR only the edge descriptor is staged; the schedule
        // derives its sleep contribution (sleepEdges) once the
        // target's id is known.
        std::uint8_t perm_key = PorContext::kIdentityPermKey;
        if (resolved.symmetry) {
            // Successors were tid-canonicalised, so the identity
            // image skips the rescan.
            std::uint8_t perm[kMaxDevices];
            succ.state = succ.state.deviceCanonical(
                true, true, por ? perm : nullptr);
            if (por)
                perm_key = PorContext::permKey(perm, rules.numDevices());
        }
        if (por)
            ws.edges.push_back({0, slot, succ.rule->id, perm_key});

        StateStore::BatchItem item;
        item.state = std::move(succ.state);
        item.parent = idx;
        item.depth = depth + 1;
        item.rule = succ.rule->id;
        ws.batch.push_back(std::move(item));

        if (succ.overflow) {
            if (!node_hash)
                node_hash = ws.node.hash();
            ws.overflows.emplace_back(ws.batch.size() - 1, *node_hash);
        }
    }
    return ws.batch.size() >= kFlushBatch ||
           store.size() + ws.batch.size() >= softCap;
}

void
ExpandKernel::record(const Candidate &c)
{
    Violation v;
    v.kind = c.kind;
    if (c.conjunct) {
        v.conjunctName = c.conjunct->name();
        v.conjunctFamily = c.conjunct->family();
    }
    v.stateIndex = c.idx;
    v.depth = c.depth;
    // Overflow is an edge property: replay the path to the edge's
    // *source* and then the edge itself, so the trace ends with the
    // overflowing rule even when the target state was first reached
    // some other way.
    const bool overflow = c.kind == Violation::Kind::Overflow;
    std::vector<std::uint16_t> path =
        labelPath(rules, scenario, store, overflow ? c.edgeParent : c.idx,
                  true, resolved.symmetry);
    if (overflow) {
        v.overflowRule = rules.rules()[c.edgeRule].name();
        path.push_back(c.edgeRule);
    }
    v.trace = replayTrace(rules, scenario, path, true, resolved.symmetry);
    result.violation = std::move(v);
}

std::vector<std::uint16_t>
labelPath(const RuleSet &rules, const Scenario &scenario,
          const StateStore &store, std::uint32_t id,
          bool canonicaliseTids, bool symmetryReduction)
{
    // Depth-first over the edges that step exactly one depth label
    // down the explored space, in rule-id order: the first path to
    // reach @p id is the least one.  A visited state either lies on
    // it or cannot reach @p id, so each is expanded at most once.
    const Context ctx{&scenario};
    const std::uint32_t depth = store.depthAt(id);
    std::vector<std::uint16_t> path;
    std::unordered_set<std::uint32_t> visited;
    auto reach = [&](auto &self, const SystemState &from) -> bool {
        const auto level = static_cast<std::uint32_t>(path.size()) + 1;
        for (const Rule &rule : rules.rules()) {
            if (!rule.guard(from, ctx))
                continue;
            SystemState next = from;
            (void)rule.apply(next, ctx);
            canonicalise(next, canonicaliseTids, symmetryReduction);
            const std::optional<std::uint32_t> at = store.find(next);
            if (!at || store.depthAt(*at) != level ||
                (level < depth ? !visited.insert(*at).second
                               : *at != id))
                continue;
            path.push_back(rule.id);
            if (level == depth || self(self, next))
                return true;
            path.pop_back();
        }
        return false;
    };
    SystemState init = scenario.initial;
    canonicalise(init, canonicaliseTids, symmetryReduction);
    if (depth != 0 && !reach(reach, init))
        throw std::logic_error("labelPath: no label-stepping path to "
                               "state " + std::to_string(id));
    return path;
}

} // namespace cxl
