#include "litmus/litmus.hh"

#include <algorithm>
#include <deque>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "checker/state_store.hh"

namespace cxl
{

LitmusOutcome
runLitmus(const LitmusTest &test)
{
    RuleSet rules(test.config, test.scenario.numDevices());
    InvariantSet invariants =
        InvariantSet::full(test.config, test.scenario.numDevices());
    return runLitmus(test, rules, invariants);
}

LitmusOutcome
runLitmus(const LitmusTest &test, const RuleSet &rules,
          const InvariantSet &fullInvariants)
{
    LitmusOutcome outcome;

    InvariantSet filtered;
    const InvariantSet &invariants = selectFamilies(
        fullInvariants, test.restrictToFamilies, filtered);
    Context ctx{&test.scenario};

    // Exhaustive interleaving walk with terminal-state collection:
    // FIFO, firing rules in id order, so each state is first reached
    // by its rule-id-least shortest path — the path labelPath names.
    StateStore store;
    std::deque<std::uint32_t> frontier;
    const std::uint32_t init_idx =
        store.insert(test.scenario.initial, 0).first;
    frontier.push_back(init_idx);

    std::optional<Violation> violation;
    auto note_violation = [&](Violation::Kind kind, const Conjunct *c,
                              std::uint32_t idx, std::uint32_t depth) {
        if (violation)
            return;
        Violation v;
        v.kind = kind;
        if (c) {
            v.conjunctName = c->name();
            v.conjunctFamily = c->family();
        }
        v.stateIndex = idx;
        v.depth = depth;
        violation = std::move(v);
    };

    if (const Conjunct *bad =
            invariants.firstFailure(test.scenario.initial, ctx)) {
        note_violation(Violation::Kind::Conjunct, bad, init_idx, 0);
    }

    std::uint64_t transitions = 0;
    std::uint32_t max_depth = 0;
    while (!frontier.empty()) {
        std::uint32_t idx = frontier.front();
        frontier.pop_front();
        SystemState state;
        store.stateInto(idx, state);
        const std::uint32_t depth = store.depthAt(idx);
        max_depth = std::max(max_depth, depth);

        auto succs = rules.successors(state, test.scenario, false);
        if (succs.empty()) {
            if (test.scenario.finished(state)) {
                outcome.finals.push_back(state);
            } else {
                note_violation(Violation::Kind::Deadlock, nullptr, idx,
                               depth);
            }
            continue;
        }
        for (const auto &succ : succs) {
            ++transitions;
            auto [sidx, is_new] = store.insert(succ.state, depth + 1);
            if (!is_new)
                continue;
            if (succ.overflow)
                note_violation(Violation::Kind::Overflow, nullptr, sidx,
                               depth + 1);
            if (const Conjunct *bad =
                    invariants.firstFailure(succ.state, ctx)) {
                note_violation(Violation::Kind::Conjunct, bad, sidx,
                               depth + 1);
            }
            frontier.push_back(sidx);
        }
    }

    outcome.explore.numStates = store.size();
    outcome.explore.numTransitions = transitions;
    outcome.explore.maxDepth = max_depth;
    outcome.explore.completed = true;
    if (violation) {
        // The walk fires rules on raw (uncanonicalised) states.
        const std::vector<std::uint16_t> path =
            labelPath(rules, test.scenario, store, violation->stateIndex,
                      /*canonicaliseTids=*/false,
                      /*symmetryReduction=*/false);
        violation->trace = replayTrace(rules, test.scenario, path,
                                       /*canonicaliseTids=*/false,
                                       /*symmetryReduction=*/false);
        outcome.explore.violationCount = 1;
        outcome.explore.violation = std::move(violation);
    }

    // Evaluate expectations.
    std::ostringstream msg;
    bool passed = true;

    if (test.expectViolation) {
        if (!outcome.explore.violation) {
            passed = false;
            msg << "expected an invariant violation but none was found; ";
        } else if (!test.expectedViolationFamily.empty() &&
                   outcome.explore.violation->conjunctFamily !=
                       test.expectedViolationFamily) {
            passed = false;
            msg << "expected a violation in family '"
                << test.expectedViolationFamily << "' but got '"
                << outcome.explore.violation->conjunctFamily << "'; ";
        }
    } else {
        if (outcome.explore.violation) {
            passed = false;
            msg << "unexpected violation: "
                << outcome.explore.violation->describe() << "; ";
        }
        if (outcome.finals.empty()) {
            passed = false;
            msg << "no terminal state reached; ";
        }
    }

    if (test.finalCheck) {
        for (const SystemState &fin : outcome.finals) {
            if (!test.finalCheck(fin)) {
                passed = false;
                msg << "terminal state fails check ("
                    << test.finalCheckDescription << "): " << fin.brief()
                    << "; ";
                break;
            }
        }
    }

    outcome.passed = passed;
    outcome.message = passed ? "ok" : msg.str();
    return outcome;
}

std::vector<TraceStep>
runGuided(const RuleSet &rules, const Scenario &scenario,
          const std::vector<std::string> &steps)
{
    std::vector<TraceStep> result;
    SystemState state = scenario.initial;
    result.push_back({"", state});

    for (const std::string &name : steps) {
        const Rule *rule = rules.find(name);
        if (!rule)
            throw std::runtime_error("unknown rule: " + name);
        Context ctx{&scenario};
        if (!rule->guard(state, ctx)) {
            throw std::runtime_error("rule " + name +
                                     " not enabled in state: " +
                                     state.brief());
        }
        if (!rule->apply(state, ctx))
            throw std::runtime_error("rule " + name + " overflowed");
        result.push_back({name, state});
    }
    return result;
}

} // namespace cxl
