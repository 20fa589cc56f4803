#include "obligation/universe.hh"

#include <deque>

#include "checker/state_store.hh"
#include "support/hash.hh"

namespace cxl
{
namespace
{

/** Collect reachable states of the scenario breadth-first. */
std::vector<SystemState>
collectReachable(const RuleSet &rules, const Scenario &scenario,
                 std::size_t cap)
{
    // Collect states in discovery order alongside the dedup store;
    // packed (shard, offset) store ids are not densely iterable.
    StateStore store;
    std::vector<SystemState> states;
    std::deque<std::size_t> frontier;
    SystemState init = scenario.initial;
    init.canonicaliseTids();
    store.insert(init, 0);
    states.push_back(init);
    frontier.push_back(0);

    while (!frontier.empty() && states.size() < cap) {
        const SystemState state = states[frontier.front()];
        frontier.pop_front();
        for (auto &succ : rules.successors(state, scenario, true)) {
            if (store.insert(succ.state, 0).second && states.size() < cap) {
                states.push_back(succ.state);
                frontier.push_back(states.size() - 1);
            }
        }
    }

    return states;
}

/** Random single-field / single-message perturbations. */
SystemState
perturb(const SystemState &seed, SplitMix64 &rng)
{
    SystemState s = seed;
    // Value perturbations draw from the run's value domain: 0 plus
    // one device-deterministic store value per active device.
    const std::uint32_t val_domain = s.ndev + 1u;
    int edits = 1 + static_cast<int>(rng.below(3));
    for (int e = 0; e < edits; ++e) {
        int d = static_cast<int>(rng.below(s.ndev));
        DeviceState &dev = s.dev[d];
        switch (rng.below(9)) {
          case 0:
            dev.state = dstateFromIndex(
                static_cast<int>(rng.below(kNumDStates)));
            break;
          case 1:
            s.hstate = hstateFromIndex(
                static_cast<int>(rng.below(kNumHStates)));
            // Keep the requester tracking consistent with the flipped
            // directory state, so transient perturbations can pass
            // the host_tracking filter.
            s.hreq = isStable(s.hstate)
                         ? 0
                         : static_cast<std::uint8_t>(
                               1 + rng.below(s.ndev));
            break;
          case 2:
            dev.val = static_cast<Val>(rng.below(val_domain));
            break;
          case 3:
            s.hval = static_cast<Val>(rng.below(val_domain));
            break;
          case 4: // inject or remove an H2D response
            if (!dev.h2dRsp.empty() && rng.chance(1, 2)) {
                dev.h2dRsp.popFront();
            } else if (!dev.h2dRsp.full()) {
                H2DRsp m;
                m.op = static_cast<H2DRspOp>(rng.below(3));
                m.target = rng.chance(1, 2) ? DState::M : DState::S;
                m.tid = static_cast<Tid>(rng.below(4));
                dev.h2dRsp.pushBack(m);
            }
            break;
          case 5: // inject or remove a snoop
            if (!dev.h2dReq.empty() && rng.chance(1, 2)) {
                dev.h2dReq.popFront();
            } else if (!dev.h2dReq.full()) {
                H2DReq m;
                m.op = rng.chance(1, 2) ? H2DReqOp::SnpInv
                                        : H2DReqOp::SnpData;
                m.tid = static_cast<Tid>(rng.below(4));
                dev.h2dReq.pushBack(m);
            }
            break;
          case 6: // inject or remove a device response
            if (!dev.d2hRsp.empty() && rng.chance(1, 2)) {
                dev.d2hRsp.popFront();
            } else if (!dev.d2hRsp.full()) {
                D2HRsp m;
                m.op = static_cast<D2HRspOp>(rng.below(4));
                m.tid = static_cast<Tid>(rng.below(4));
                dev.d2hRsp.pushBack(m);
            }
            break;
          case 7: // inject or remove data
            if (rng.chance(1, 2)) {
                if (!dev.h2dData.empty() && rng.chance(1, 2))
                    dev.h2dData.popFront();
                else if (!dev.h2dData.full())
                    dev.h2dData.pushBack(
                        {static_cast<Tid>(rng.below(4)),
                         static_cast<Val>(rng.below(val_domain)), 0});
            } else {
                if (!dev.d2hData.empty() && rng.chance(1, 2))
                    dev.d2hData.popFront();
                else if (!dev.d2hData.full())
                    dev.d2hData.pushBack(
                        {static_cast<Tid>(rng.below(4)),
                         static_cast<Val>(rng.below(val_domain)),
                         static_cast<std::uint8_t>(rng.below(2))});
            }
            break;
          case 8: // inject or remove a device request
            if (!dev.d2hReq.empty() && rng.chance(1, 2)) {
                dev.d2hReq.popFront();
            } else if (!dev.d2hReq.full()) {
                D2HReq m;
                m.op = static_cast<D2HReqOp>(rng.below(5));
                m.tid = static_cast<Tid>(rng.below(4));
                dev.d2hReq.pushBack(m);
            }
            break;
        }
    }
    if (s.counter < 8)
        s.counter = 8; // keep injected tids below the counter
    return s;
}

} // namespace

std::vector<SystemState>
buildUniverse(const RuleSet &rules, const Scenario &scenario,
              const InvariantSet &filter, const UniverseOptions &options,
              UniverseStats *stats)
{
    Context ctx{&scenario};
    UniverseStats local;

    std::vector<SystemState> universe =
        collectReachable(rules, scenario, options.maxReachable);
    local.reachableSeeds = universe.size();

    SplitMix64 rng(options.seed);
    StateStore dedup;
    for (const SystemState &s : universe)
        dedup.insert(s, 0);

    std::size_t seeds = universe.size();
    for (std::size_t i = 0;
         i < seeds && universe.size() < options.maxStates; ++i) {
        for (std::size_t p = 0; p < options.perturbationsPerSeed; ++p) {
            SystemState cand = perturb(universe[i], rng);
            ++local.perturbedCandidates;
            if (!structurallyWellFormed(cand))
                continue;
            if (!filter.holds(cand, ctx))
                continue;
            if (!dedup.insert(cand, 0).second)
                continue;
            ++local.perturbedAccepted;
            universe.push_back(cand);
            if (universe.size() >= options.maxStates)
                break;
        }
    }

    if (stats)
        *stats = local;
    return universe;
}

SystemState
swmrNonInductiveWitness(int d, int num_devices)
{
    // Paper Section 6: Σ = ⟨DCache1 = (0, IMA),
    //                      H2DRsp1 = [(GO, M, t)],
    //                      DCache2 = (0, M)⟩.
    SystemState s = initialAllInvalid(0, num_devices);
    int o = (d + 1) % num_devices;
    s.dev[d].state = DState::IMA;
    s.dev[d].h2dRsp.pushBack({H2DRspOp::GO, DState::M, 0});
    s.dev[o].state = DState::M;
    s.dev[o].val = 0;
    s.hstate = HState::M;
    s.counter = 1;
    return s;
}

} // namespace cxl
