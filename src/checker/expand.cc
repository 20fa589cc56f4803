#include "checker/expand.hh"

#include <algorithm>
#include <thread>
#include <utility>

namespace cxl
{

ExpandKernel::ExpandKernel(const RuleSet &rules_,
                           const Scenario &scenario_,
                           const InvariantSet &invariants_,
                           const ExploreOptions &options)
    : rules(rules_), scenario(scenario_), invariants(invariants_),
      opt(options), ctx{&scenario_},
      start(std::chrono::steady_clock::now()),
      // A per-worker scratch (and an OS thread) is allocated for
      // each worker, so clamp runaway requests to something a
      // machine could plausibly have.
      threads(std::min<std::size_t>(
          options.numThreads
              ? options.numThreads
              : std::max(1u, std::thread::hardware_concurrency()),
          1024)),
      store(StoreConfig{
          1 << 16,
          options.compaction ? StoreMode::Compact : StoreMode::Full,
          options.storeBackend, options.storeDir,
          options.storeCapacity}),
      governor({options.maxSeconds, options.maxRssBytes,
                options.cancel}),
      progress(options.progress, options.progressIntervalSeconds),
      softCap(options.maxStates > threads * kFlushBatch
                  ? options.maxStates - threads * kFlushBatch
                  : 0)
{
    result.ruleFireCounts.assign(rules.rules().size(), 0);
    result.ruleSleptCounts.assign(rules.rules().size(), 0);
    // Sleep-set reduction context: the pairwise independence relation
    // from the rules' static footprints and, under symmetry, the
    // per-permutation rule remap tables.  Throws when the rule set
    // exceeds the POR engine's mask width.
    if (opt.por)
        por.emplace(rules, opt.symmetryReduction, opt.canonicaliseTids);
    if (opt.expectedStates != 0)
        store.reserveStates(opt.expectedStates);
}

bool
ExpandKernel::insertInitial()
{
    SystemState init = scenario.initial;
    if (opt.canonicaliseTids)
        init.canonicaliseTids();
    if (opt.symmetryReduction) {
        // The bytewise-least member of the state's device-permutation
        // orbit (SystemState::deviceCanonical).
        init = init.deviceCanonical(opt.canonicaliseTids,
                                    opt.canonicaliseTids);
    }
    initIdx = store.insert(init, StateStore::kNoParent, 0, 0).first;
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

void
ExpandKernel::addCandidate(WorkerScratch &ws, const Candidate &c)
{
    ws.candidates.push_back(c);
    if (!opt.stopAtFirstViolation)
        return;
    const std::uint32_t level =
        c.kind == Violation::Kind::Deadlock ? c.depth : c.depth - 1;
    std::uint32_t cur = candidateLevel.load(std::memory_order_relaxed);
    while (level < cur &&
           !candidateLevel.compare_exchange_weak(
               cur, level, std::memory_order_relaxed)) {
    }
}

bool
ExpandKernel::expand(WorkerScratch &ws, std::uint32_t idx,
                     std::uint32_t depth, const RuleMask *sleep,
                     std::uint32_t tag)
{
    store.stateInto(idx, ws.node);
    if (sleep) {
        rules.successorsPor(ws.node, scenario, opt.canonicaliseTids,
                            sleep->words.data(), ws.succs,
                            ws.sleptRules);
        for (std::uint16_t r : ws.sleptRules)
            ++ws.ruleSlept[r];
    } else {
        rules.successorsInto(ws.node, scenario, opt.canonicaliseTids,
                             ws.succs);
    }

    // Deadlock = no *enabled* rule; slept rules are enabled, merely
    // not fired from here (sleptRules stays empty without POR).
    if (ws.succs.empty() && ws.sleptRules.empty() &&
        opt.checkDeadlock && !scenario.freeRun &&
        !scenario.finished(ws.node)) {
        addCandidate(ws, {Violation::Kind::Deadlock, nullptr, idx,
                          depth, ws.node.hash()});
    }

    // The source state's hash is only needed to order racing overflow
    // edges; computed at most once per node, and only for mutated
    // models.
    std::optional<std::uint64_t> node_hash;

    for (RuleSet::Successor &succ : ws.succs) {
        ++ws.ruleFires[succ.rule->id];
        // Under POR only the edge descriptor is staged; the schedule
        // derives its sleep contribution (walkSleep) once the
        // target's id is known.
        std::uint8_t perm_key = PorContext::kIdentityPermKey;
        if (opt.symmetryReduction) {
            // Successors were tid-canonicalised whenever the option
            // is on, so the identity image skips the rescan.
            std::uint8_t perm[kMaxDevices];
            succ.state = succ.state.deviceCanonical(
                opt.canonicaliseTids, opt.canonicaliseTids,
                por ? perm : nullptr);
            if (por)
                perm_key = PorContext::permKey(perm, rules.numDevices());
        }
        if (por)
            ws.edges.push_back({0, tag, succ.rule->id, perm_key});

        StateStore::BatchItem item;
        item.hash = succ.state.hash();
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
        v.conjunctName = c.conjunct->name;
        v.conjunctFamily = c.conjunct->family;
    }
    v.stateIndex = c.idx;
    v.depth = c.depth;
    bool append_bad = c.kind == Violation::Kind::Overflow;
    if (append_bad)
        v.overflowRule = rules.rules()[c.edgeRule].name;
    if (store.statesAlwaysReadable()) {
        // Overflow is an edge property: rebuild the path to the
        // edge's *source* and append the edge itself, so the printed
        // trace ends with the overflowing rule even when the target
        // state was first reached some other way.
        for (std::uint32_t cur = append_bad ? c.edgeParent : c.idx;
             cur != StateStore::kNoParent; cur = store.parentAt(cur)) {
            TraceStep &step = v.trace.emplace_back();
            store.stateInto(cur, step.state);
            if (store.parentAt(cur) != StateStore::kNoParent)
                step.ruleName = rules.rules()[store.ruleAt(cur)].name;
        }
        std::reverse(v.trace.begin(), v.trace.end());
    } else {
        // Breadcrumb states are gone (an in-RAM compact store that
        // has sealed a level; an mmap-backed compact store keeps
        // every sealed cell in its backing file).  The bad state
        // itself is still in the arena when it was first discovered
        // this level; show it alone.
        v.traceNote =
            "trace unavailable: hash-compaction mode stores "
            "fingerprints, not states; re-run without compaction "
            "(or with --store=mmap-compact) to rebuild the full path";
        append_bad = store.depthAt(c.idx) == c.depth &&
                     store.stateRetained(c.idx);
    }
    if (append_bad) {
        TraceStep &step = v.trace.emplace_back();
        step.ruleName = v.overflowRule;
        store.stateInto(c.idx, step.state);
    }
    result.violation = std::move(v);
}

} // namespace cxl
