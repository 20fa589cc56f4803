#include "checker/random_walk.hh"

#include <chrono>

#include "support/hash.hh"

namespace cxl
{

RandomWalker::RandomWalker(const RuleSet &rules, const Scenario &scenario,
                           const InvariantSet &invariants)
    : rules_(rules), scenario_(scenario), invariants_(invariants)
{
}

RandomWalkResult
RandomWalker::run(const RandomWalkOptions &options) const
{
    auto start = std::chrono::steady_clock::now();
    RandomWalkResult result;
    Context ctx{&scenario_};
    SplitMix64 rng(options.seed);

    for (std::uint64_t walk = 0;
         walk < options.walks && !result.violation; ++walk) {
        ++result.walks;
        SystemState state = scenario_.initial;
        if (options.canonicaliseTids)
            state.canonicaliseTids();

        std::vector<TraceStep> trace;
        trace.push_back({"", state});

        if (const Conjunct *bad = invariants_.firstFailure(state, ctx)) {
            Violation v;
            v.kind = Violation::Kind::Conjunct;
            v.conjunctName = bad->name();
            v.conjunctFamily = bad->family();
            v.depth = 0;
            v.trace = trace;
            result.violation = std::move(v);
            break;
        }

        for (std::uint32_t step = 0; step < options.maxSteps; ++step) {
            auto succs = rules_.successors(state, scenario_,
                                           options.canonicaliseTids);
            if (succs.empty()) {
                ++result.terminalWalks;
                break;
            }
            const auto &choice =
                succs[rng.below(static_cast<std::uint32_t>(
                    succs.size()))];
            state = choice.state;
            ++result.steps;
            trace.push_back({choice.rule->name(), state});

            const Conjunct *bad =
                invariants_.firstFailure(state, ctx);
            if (choice.overflow || bad) {
                Violation v;
                v.kind = choice.overflow ? Violation::Kind::Overflow
                                         : Violation::Kind::Conjunct;
                if (bad) {
                    v.conjunctName = bad->name();
                    v.conjunctFamily = bad->family();
                }
                v.depth = static_cast<std::uint32_t>(trace.size() - 1);
                v.trace = trace;
                result.violation = std::move(v);
                break;
            }
        }
    }

    auto end = std::chrono::steady_clock::now();
    result.seconds =
        std::chrono::duration<double>(end - start).count();
    return result;
}

} // namespace cxl
